//! The experiment implementations.
//!
//! Every experiment takes a `jobs` argument and fans its independent
//! campaigns across a scoped-thread pool ([`crate::pool`]). Campaign
//! seeds are fixed per task and results are merged in item order, so
//! reports are byte-identical for any `jobs` value — the single
//! exception is Table 3's `latency_s` wall-clock column.

use crate::pool::run_pool;
use serde::{Deserialize, Serialize};
use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use symbfuzz_core::{
    CampaignResult, CoverageSample, FlightRow, FuzzConfig, FuzzConfigBuilder, GoalRow,
    PropertySpec, SolverCacheBlock, SolverProfileBlock, Strategy, SymbFuzz, TelemetryBlock,
    VmProfileBlock,
};
use symbfuzz_designs::{bug_benchmarks, processor_benchmarks, Benchmark};
use symbfuzz_netlist::{classify_registers, Design, DesignStats};
use symbfuzz_symexec::SymbolicEngine;
use symbfuzz_telemetry::{
    flight_line, merge_flight, status_json, write_atomic, Collector, FlightSample, SharedSink,
};

/// Where a run's campaigns write besides their reports: the
/// `--trace-out` trace and the `--flight-out` / `--status-out` flight
/// artifacts. [`crate::args::parse_bench_args`] opens it, every
/// campaign runs through [`run_campaign`] with it, and
/// [`finish`](Self::finish) writes the merged artifacts once the pool
/// has drained. The default writes nothing.
#[derive(Default)]
pub struct Outputs {
    /// The `--flight-out` path: the merged `flight.jsonl`.
    pub flight_out: Option<PathBuf>,
    /// The `--status-out` path: the merged `status.json` heartbeat.
    pub status_out: Option<PathBuf>,
    /// The trace writer every campaign streams into through a
    /// [`SharedSink`] (whole lines under a lock, told apart by each
    /// record's `task`).
    trace: Option<Arc<Mutex<dyn Write + Send>>>,
    /// What [`finish`](Self::finish) merges from each sampled
    /// campaign, kept while a flight or status path is set.
    sampled: Mutex<Vec<Sampled>>,
}

/// The parts of one sampled campaign's report that
/// [`Outputs::finish`] merges, with its pool task.
struct Sampled {
    task: usize,
    flight: Vec<FlightSample>,
    telemetry: TelemetryBlock,
    vm_profile: Option<VmProfileBlock>,
    solver_profile: SolverProfileBlock,
}

impl std::fmt::Debug for Outputs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Outputs")
            .field("flight_out", &self.flight_out)
            .field("status_out", &self.status_out)
            .field("traced", &self.trace.is_some())
            .finish()
    }
}

impl Outputs {
    /// Streams every later campaign's wall-clock trace into `writer`.
    pub fn trace_to(&mut self, writer: Arc<Mutex<dyn Write + Send>>) {
        self.trace = Some(writer);
    }

    /// Flushes the trace and writes the canonical flight artifacts.
    /// The sampled campaigns' streams merge sample by sample on the
    /// interval index ([`merge_flight`]: monotone fields sum, gauges
    /// keep the high-water mark, `task` collapses to 0) into
    /// `flight.jsonl`; the last merged sample, the merged telemetry
    /// block and the merged profiler sections make `status.json`,
    /// rewritten atomically so a polling `monitor` never sees a torn
    /// file. Streams fold in task order, so both files are
    /// byte-identical at any `--jobs`. Neither is written when no
    /// campaign sampled.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn finish(&self) -> io::Result<()> {
        if let Some(w) = &self.trace {
            w.lock().expect("no campaign panicked mid-line").flush()?;
        }
        let mut sampled = std::mem::take(&mut *self.sampled.lock().expect("no campaign panicked"));
        // Stable: the campaigns of one task ran in order on one thread.
        sampled.sort_by_key(|s| s.task);
        let streams: Vec<Vec<FlightSample>> = sampled
            .iter_mut()
            .map(|s| std::mem::take(&mut s.flight))
            .collect();
        let merged = merge_flight(&streams);
        let Some(last) = merged.last() else {
            return Ok(());
        };
        if let Some(path) = &self.flight_out {
            let text: String = merged.iter().map(|s| flight_line(s) + "\n").collect();
            std::fs::write(path, text)?;
        }
        if let Some(path) = &self.status_out {
            let mut telemetry = TelemetryBlock::default();
            let mut vm: Option<VmProfileBlock> = None;
            let mut solver = SolverProfileBlock::default();
            for s in &sampled {
                telemetry.merge(&s.telemetry);
                if let Some(profile) = &s.vm_profile {
                    vm.get_or_insert_with(VmProfileBlock::default)
                        .merge(profile);
                }
                solver.merge(&s.solver_profile);
            }
            let mut extra = Vec::new();
            if let Some(vm) = vm {
                let vm = serde_json::to_string(&vm).expect("serializable");
                extra.push(("vm_profile".to_string(), vm));
            }
            let solver = serde_json::to_string(&solver).expect("serializable");
            extra.push(("solver_profile".to_string(), solver));
            write_atomic(path, &status_json(last, &telemetry.to_snapshot(), &extra))?;
        }
        Ok(())
    }
}

/// The one campaign runner: builds a [`SymbFuzz`] campaign, runs it to
/// its vector budget or, given `until_bug`, until that property first
/// fires, and returns its report. `task` is the pool index. Through
/// `out`, the campaign streams a wall-clock trace labelled `task`
/// (when tracing; otherwise the report keeps the deterministic
/// vector-count clock); task 0 also streams its flight samples and
/// status heartbeat live, for `monitor` to poll; and a sampled
/// campaign's flight stream and profile blocks are kept for
/// [`Outputs::finish`].
///
/// # Panics
///
/// If a property does not compile against the design.
pub fn run_campaign(
    out: &Outputs,
    task: usize,
    design: &Arc<Design>,
    strategy: Strategy,
    config: FuzzConfig,
    props: &[PropertySpec],
    until_bug: Option<&str>,
) -> CampaignResult {
    let mut fuzzer = SymbFuzz::new(Arc::clone(design), strategy, config, props)
        .expect("properties must compile");
    if let Some(writer) = &out.trace {
        let collector = Arc::new(Collector::monotonic());
        collector.set_task(task as u64);
        collector.set_sink(Box::new(SharedSink::new(Arc::clone(writer))));
        fuzzer.install_telemetry(collector);
    }
    if task == 0 {
        let live = fuzzer.set_flight_outputs(out.flight_out.as_deref(), out.status_out.as_deref());
        if let Err(e) = live {
            symbfuzz_telemetry::warn!("cannot open flight outputs: {e}");
        }
    }
    let result = match until_bug {
        Some(property) => {
            fuzzer.run_until_bug(property);
            fuzzer.result()
        }
        None => fuzzer.run(),
    };
    if (out.flight_out.is_some() || out.status_out.is_some()) && !result.flight.is_empty() {
        out.sampled
            .lock()
            .expect("no campaign panicked")
            .push(Sampled {
                task,
                flight: result.flight.iter().map(FlightRow::to_sample).collect(),
                telemetry: result.telemetry.clone(),
                vm_profile: result.vm_profile.clone(),
                solver_profile: result.solver_profile.clone(),
            });
    }
    result
}

/// The shared campaign configuration: the command line's knobs
/// (`base`, see [`crate::args::BenchArgs::config`]) plus the
/// experiments' historical interval/threshold choices, a vector budget
/// and a seed.
///
/// # Panics
///
/// If the knobs are inconsistent or `budget` is zero; the bench
/// binaries reject both at parse time.
fn campaign_config(base: &FuzzConfigBuilder, budget: u64, seed: u64) -> FuzzConfig {
    base.clone()
        .interval(100)
        .threshold(2)
        .max_vectors(budget)
        .seed(seed)
        .build()
        .expect("bench campaign config is validated at parse time")
}

/// One row of Table 1.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table1Row {
    /// Bug number.
    pub id: u32,
    /// Benchmark name.
    pub name: String,
    /// Bug description.
    pub description: String,
    /// Sub-module (paper column 3).
    pub submodule: String,
    /// CWE id (paper column 5).
    pub cwe: String,
    /// Input vectors the paper reports (column 6).
    pub paper_vectors: f64,
    /// Vectors SymbFuzz needed here (`None` = not found in budget).
    pub measured_vectors: Option<u64>,
}

/// Table 1: run SymbFuzz on each buggy IP until its property fires.
/// Benchmarks run concurrently on up to `jobs` threads.
pub fn table1_rows(
    base: &FuzzConfigBuilder,
    out: &Outputs,
    budget: u64,
    jobs: usize,
) -> Vec<Table1Row> {
    let benches = bug_benchmarks();
    run_pool(&benches, jobs, |task, b| {
        let design = b.design().expect("benchmark elaborates");
        let config = campaign_config(base, budget, 0x5EED + b.id as u64);
        let spec = [b.property_spec()];
        let r = run_campaign(
            out,
            task,
            &design,
            Strategy::SymbFuzz,
            config,
            &spec,
            Some(b.name),
        );
        Table1Row {
            id: b.id,
            name: b.name.to_string(),
            description: b.description.to_string(),
            submodule: b.submodule.to_string(),
            cwe: b.cwe.to_string(),
            paper_vectors: b.paper_vectors,
            measured_vectors: r
                .bugs
                .iter()
                .find(|x| x.property == b.name)
                .map(|x| x.vectors),
        }
    })
}

/// One row of Table 2.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DetectionRow {
    /// Bug number.
    pub id: u32,
    /// Benchmark name.
    pub name: String,
    /// Detected by SymbFuzz here.
    pub symbfuzz: bool,
    /// Detected by the RFuzz baseline here.
    pub rfuzz: bool,
    /// Detected by the DifuzzRTL baseline here.
    pub difuzz: bool,
    /// Detected by the HWFP baseline here.
    pub hwfp: bool,
    /// Paper's Table 2 row (RFuzz, DifuzzRTL, HWFP) — SymbFuzz is ✓
    /// everywhere in the paper.
    pub paper: (bool, bool, bool),
}

/// The full detection matrix.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DetectionMatrix {
    /// One row per bug.
    pub rows: Vec<DetectionRow>,
}

impl DetectionMatrix {
    /// Bugs missed by a column, mirroring the paper's counts
    /// (RFuzz 12, DifuzzRTL 6, HWFP 8 of 14).
    pub fn missed(&self) -> (usize, usize, usize, usize) {
        let m = |f: fn(&DetectionRow) -> bool| self.rows.iter().filter(|r| !f(r)).count();
        (
            m(|r| r.symbfuzz),
            m(|r| r.rfuzz),
            m(|r| r.difuzz),
            m(|r| r.hwfp),
        )
    }
}

/// Table 2: every fuzzer gets the same budget on each buggy IP; a ✓
/// requires both *reaching* the trigger state and having an oracle able
/// to observe the violation. Following §5 of the paper ("each fuzzer
/// was run four times"), a fuzzer scores a ✓ if any of four seeded
/// runs detects the bug.
///
/// The bug × fuzzer grid is flattened into independent pool tasks so
/// small `nbugs` still saturates `jobs` workers; seeds depend only on
/// the bug id and repeat index, so the matrix is identical at any
/// parallelism.
pub fn detection_matrix(
    base: &FuzzConfigBuilder,
    out: &Outputs,
    nbugs: usize,
    budget: u64,
    jobs: usize,
) -> DetectionMatrix {
    const FUZZERS: [Strategy; 4] = [
        Strategy::SymbFuzz,
        Strategy::RFuzz,
        Strategy::DifuzzRtl,
        Strategy::Hwfp,
    ];
    let benches = bug_benchmarks();
    let prep: Vec<_> = benches
        .iter()
        .take(nbugs)
        .map(|b| (b, b.design().expect("benchmark elaborates")))
        .collect();
    let tasks: Vec<(usize, Strategy)> = (0..prep.len())
        .flat_map(|i| FUZZERS.iter().map(move |&s| (i, s)))
        .collect();
    let hits = run_pool(&tasks, jobs, |task, &(i, s)| {
        let (b, design) = &prep[i];
        let spec = [b.property_spec()];
        (0..4).any(|r| {
            let config = campaign_config(base, budget, 0xD1CE + b.id as u64 + r * 7919);
            run_campaign(out, task, design, s, config, &spec, None).detected(b.name)
        })
    });
    let rows = prep
        .iter()
        .enumerate()
        .map(|(i, (b, _))| DetectionRow {
            id: b.id,
            name: b.name.to_string(),
            symbfuzz: hits[i * FUZZERS.len()],
            rfuzz: hits[i * FUZZERS.len() + 1],
            difuzz: hits[i * FUZZERS.len() + 2],
            hwfp: hits[i * FUZZERS.len() + 3],
            paper: b.table2,
        })
        .collect();
    DetectionMatrix { rows }
}

/// One row of Table 3.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table3Row {
    /// Benchmark name.
    pub name: String,
    /// Which paper benchmark it stands in for.
    pub paper_counterpart: String,
    /// Non-empty source lines.
    pub loc: u32,
    /// Flattened signals.
    pub signals: usize,
    /// Registers / control registers.
    pub registers: usize,
    /// Control registers steering branches.
    pub control_registers: usize,
    /// CFG nodes explored by a short SymbFuzz campaign.
    pub cfg_nodes: u64,
    /// CFG edges explored.
    pub cfg_edges: u64,
    /// Dependency equations generated by the symbolic engine.
    pub dependency_eqns: usize,
    /// SMT constraint sets generated (solver calls) during the campaign.
    pub constraints: u64,
    /// Wall-clock seconds for analysis + campaign (paper: minutes).
    pub latency_s: f64,
    /// Paper Table 3 reference: (nodes, edges, eq low, eq high, constraints).
    pub paper: (u32, u32, u32, u32, u32),
}

/// Table 3: static analysis plus a bounded campaign per processor
/// benchmark, fanned across `jobs` workers. `latency_s` is wall-clock
/// and therefore the one report column that varies with `jobs` (and
/// between runs); every other column is deterministic.
pub fn table3_rows(
    base: &FuzzConfigBuilder,
    out: &Outputs,
    budget: u64,
    jobs: usize,
) -> Vec<Table3Row> {
    let benches = processor_benchmarks();
    run_pool(&benches, jobs, |task, b| {
        table3_row(b, campaign_config(base, budget, 0xB3), out, task)
    })
}

fn table3_row(b: &Benchmark, config: FuzzConfig, out: &Outputs, task: usize) -> Table3Row {
    let start = Instant::now();
    let design = b.design().expect("benchmark elaborates");
    let stats = DesignStats::of(&design);
    let rc = classify_registers(&design);
    let engine = SymbolicEngine::new(Arc::clone(&design));
    let props = b.property_specs();
    let result = run_campaign(out, task, &design, Strategy::SymbFuzz, config, &props, None);
    Table3Row {
        name: b.name.to_string(),
        paper_counterpart: b.paper_counterpart.to_string(),
        loc: stats.loc,
        signals: stats.signals,
        registers: stats.registers,
        control_registers: rc.control.len(),
        cfg_nodes: result.nodes,
        cfg_edges: result.edges,
        dependency_eqns: engine.num_equations(),
        constraints: result.resources.solver_calls,
        latency_s: start.elapsed().as_secs_f64(),
        paper: b.paper_table3,
    }
}

/// Figure 4a data: one coverage curve per strategy on one benchmark.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RaceResult {
    /// Benchmark name.
    pub design: String,
    /// `(strategy name, samples)` per strategy.
    pub curves: Vec<(String, Vec<CoverageSample>)>,
}

impl RaceResult {
    /// Final coverage for a strategy.
    pub fn final_coverage(&self, name: &str) -> Option<u64> {
        self.curves
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, s)| s.last().map(|p| p.coverage))
    }
}

/// Figure 4a: run all five strategies on a processor benchmark,
/// one pool task per strategy. `bench_index` selects from
/// [`processor_benchmarks`]; seeds vary per strategy to avoid
/// accidental correlation.
pub fn coverage_race(
    base: &FuzzConfigBuilder,
    out: &Outputs,
    bench_index: usize,
    budget: u64,
    seed: u64,
    jobs: usize,
) -> RaceResult {
    let b = &processor_benchmarks()[bench_index];
    let design = b.design().expect("benchmark elaborates");
    let props = b.property_specs();
    let strategies = Strategy::all();
    let curves = run_pool(&strategies, jobs, |task, s| {
        let config = campaign_config(base, budget, seed ^ s.name().len() as u64);
        let r = run_campaign(out, task, &design, *s, config, &props, None);
        (s.name().to_string(), r.series)
    });
    RaceResult {
        design: b.name.to_string(),
        curves,
    }
}

/// One Figure 4b point: coverage variance across runs at a vector count.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VariancePoint {
    /// Strategy name.
    pub strategy: String,
    /// Input vectors.
    pub vectors: u64,
    /// Mean coverage across runs.
    pub mean: f64,
    /// Coverage variance across runs.
    pub variance: f64,
}

/// Figure 4b: repeated unseeded runs per strategy; variance of coverage
/// within the mid-campaign window (the paper samples 4–8.5 M of ~10 M
/// vectors; we use the same 40 %–85 % fraction of the budget).
/// The strategy × run grid is flattened into pool tasks; each task's
/// seed depends only on its run index, so the profile is identical at
/// any parallelism.
pub fn variance_profile(
    base: &FuzzConfigBuilder,
    out: &Outputs,
    bench_index: usize,
    budget: u64,
    runs: u64,
    jobs: usize,
) -> Vec<VariancePoint> {
    let b = &processor_benchmarks()[bench_index];
    let design = b.design().expect("benchmark elaborates");
    let props = b.property_specs();
    let lo = budget * 2 / 5;
    let hi = budget * 17 / 20;
    let tasks: Vec<(Strategy, u64)> = Strategy::all()
        .iter()
        .flat_map(|&s| (0..runs).map(move |r| (s, r)))
        .collect();
    let series: Vec<Vec<CoverageSample>> = run_pool(&tasks, jobs, |task, &(s, r)| {
        let config = campaign_config(base, budget, 0xF00 + r * 7919);
        run_campaign(out, task, &design, s, config, &props, None).series
    });
    let mut out = Vec::new();
    for (si, s) in Strategy::all().iter().enumerate() {
        // Per-run curves for this strategy, in run order.
        let curves = &series[si * runs as usize..(si + 1) * runs as usize];
        let nsamples = curves.iter().map(|c| c.len()).min().unwrap_or(0);
        for i in 0..nsamples {
            let vectors = curves[0][i].vectors;
            if vectors < lo || vectors > hi {
                continue;
            }
            let vals: Vec<f64> = curves.iter().map(|c| c[i].coverage as f64).collect();
            let mean = vals.iter().sum::<f64>() / vals.len() as f64;
            let variance =
                vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / vals.len() as f64;
            out.push(VariancePoint {
                strategy: s.name().to_string(),
                vectors,
                mean,
                variance,
            });
        }
    }
    out
}

/// §5.3 speed-up: vectors each strategy needs to match UVM random's
/// saturation coverage. The paper reports SymbFuzz reaching it 6.8×
/// earlier.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SpeedupResult {
    /// Benchmark name.
    pub design: String,
    /// Coverage UVM random saturates at within the budget.
    pub random_saturation: u64,
    /// `(strategy, vectors-to-reach, speedup-vs-random)`.
    pub rows: Vec<(String, Option<u64>, Option<f64>)>,
}

/// Computes the §5.3 convergence comparison, one pool task per
/// strategy.
pub fn speedup(
    base: &FuzzConfigBuilder,
    out: &Outputs,
    bench_index: usize,
    budget: u64,
    jobs: usize,
) -> SpeedupResult {
    let b = &processor_benchmarks()[bench_index];
    let design = b.design().expect("benchmark elaborates");
    let props = b.property_specs();
    let strategies = Strategy::all();
    let results: Vec<(Strategy, CampaignResult)> = run_pool(&strategies, jobs, |task, s| {
        let config = campaign_config(base, budget, 0xACE);
        let r = run_campaign(out, task, &design, *s, config, &props, None);
        (*s, r)
    });
    let random = results
        .iter()
        .find(|(s, _)| *s == Strategy::UvmRandom)
        .map(|(_, r)| r.clone())
        .expect("random always present");
    let target = random.coverage_points;
    let random_vectors = random.vectors_to_reach(target).unwrap_or(budget).max(1);
    let rows = results
        .iter()
        .map(|(s, r)| {
            let v = r.vectors_to_reach(target);
            let ratio = v.map(|v| random_vectors as f64 / v.max(1) as f64);
            (s.name().to_string(), v, ratio)
        })
        .collect();
    SpeedupResult {
        design: b.name.to_string(),
        random_saturation: target,
        rows,
    }
}

/// One coverage-vs-budget row: a full campaign against the factoring
/// lock at one per-solve conflict ceiling.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BudgetProfileRow {
    /// DUV name (`hard_factor`, `ibex_like` or `goalfabric`).
    pub design: String,
    /// Per-solve conflict ceiling.
    pub solver_budget: u64,
    /// Input vectors the campaign consumed (always the full budget —
    /// the lock is unfactorable, the point is that it terminates).
    pub vectors: u64,
    /// Coverage points reached by falling back to random mutation.
    pub coverage_points: u64,
    /// Symbolic solves that hit the ceiling.
    pub budget_exhaustions: u64,
    /// Goals skipped because a prior attempt already failed.
    pub neg_cache_hits: u64,
    /// Transition-relation frames reused from the warm frame chain.
    pub bitblast_cache_hits: u64,
    /// Frames substituted and bitblasted fresh.
    pub bitblast_cache_misses: u64,
    /// Warm-session goal-reuse rate in permille.
    pub session_reuse_milli: u64,
    /// Non-zero `SolveStatus` tallies, in schema order.
    pub solve_outcomes: Vec<(String, u64)>,
}

/// The three budget-profile DUVs: the solver-hostile factoring lock,
/// the benign `ibex_like` control, and the goal-dense
/// [`symbfuzz_designs::goal_fabric`] (many shallow sibling goals off
/// one shared multiplier, where warm frame chains pay off).
fn profile_duvs() -> [(&'static str, Arc<Design>, Vec<PropertySpec>); 3] {
    let hard_props = {
        let (prop, expr) = symbfuzz_designs::HARD_FACTOR_PROPERTY;
        vec![PropertySpec::assertion_only(prop, expr)]
    };
    let fabric_props = {
        let (prop, expr) = symbfuzz_designs::GOAL_FABRIC_PROPERTY;
        vec![PropertySpec::assertion_only(prop, expr)]
    };
    let ibex = &processor_benchmarks()[0];
    [
        ("hard_factor", symbfuzz_designs::hard_factor(), hard_props),
        (
            ibex.name,
            ibex.design().expect("benchmark elaborates"),
            ibex.property_specs(),
        ),
        ("goalfabric", symbfuzz_designs::goal_fabric(), fabric_props),
    ]
}

/// Coverage-vs-budget profile: runs SymbFuzz once per conflict
/// ceiling in `budgets` on three DUVs, one pool task per campaign.
/// The deliberately solver-hostile [`symbfuzz_designs::hard_factor`]
/// lock makes every symbolic goal a 40-bit semiprime factoring
/// instance, so each of its campaigns demonstrates graceful
/// degradation: the solver returns unknown, telemetry records
/// `BudgetExhausted`, and fuzzing continues on random mutation to the
/// full vector budget. `ibex_like` is the benign control: its
/// dependency equations solve well inside even the smallest ceiling,
/// showing budgets cost nothing when the solver succeeds. `goalfabric`
/// is the goal-dense fixture whose many sibling goals share one
/// unrolled frame — the design the frame cache is measured on. Each
/// campaign runs the command line's knobs (`base`)
/// with the ceiling under test. Seeds are fixed per campaign, so rows
/// are byte-identical at any `jobs` value.
pub fn budget_profile(
    base: &FuzzConfigBuilder,
    out: &Outputs,
    budgets: &[u64],
    max_vectors: u64,
    jobs: usize,
) -> Vec<BudgetProfileRow> {
    let duvs = profile_duvs();
    let tasks: Vec<(usize, u64)> = (0..duvs.len())
        .flat_map(|i| budgets.iter().map(move |&b| (i, b)))
        .collect();
    run_pool(&tasks, jobs, |task, &(i, ceiling)| {
        let (name, design, props) = &duvs[i];
        let config = base
            .clone()
            .interval(100)
            .threshold(1)
            .max_vectors(max_vectors)
            .seed(0xB0D6E7)
            .solver_budget(ceiling)
            .escalation_cap(1)
            .build()
            .expect("budget profile config is consistent");
        let r = run_campaign(out, task, design, Strategy::SymbFuzz, config, props, None);
        let counter = |name: &str| {
            r.telemetry
                .counters
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0, |(_, v)| *v)
        };
        let cache = r.solver_cache.unwrap_or_default();
        BudgetProfileRow {
            design: name.to_string(),
            solver_budget: ceiling,
            vectors: r.vectors,
            coverage_points: r.coverage_points,
            budget_exhaustions: counter("budget_exhaustions"),
            neg_cache_hits: counter("neg_cache_hits"),
            bitblast_cache_hits: cache.frame_hits,
            bitblast_cache_misses: cache.frame_misses,
            session_reuse_milli: cache.reuse_milli,
            solve_outcomes: r
                .solve_outcomes
                .iter()
                .filter(|(_, n)| *n > 0)
                .cloned()
                .collect(),
        }
    })
}

/// One design's merged solver-introspection profile: the per-goal
/// solver block (tallies, cost analytics, blame sets) plus the
/// attribution-rate headline counted from it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScopeProfileResult {
    /// DUV name (`hard_factor`, `ibex_like` or `goalfabric`).
    pub design: String,
    /// Per-solve conflict ceiling the campaigns ran under.
    pub solver_budget: u64,
    /// Introspected campaigns merged into this profile.
    pub campaigns: u64,
    /// Goals with at least one budget-exhausted attempt.
    pub exhausted_goals: u64,
    /// Exhausted goals whose introspection record carries a non-empty
    /// blame set.
    pub exhausted_blamed: u64,
    /// The merged per-goal solver block.
    pub profile: SolverProfileBlock,
    /// The merged bitblast-cache block (`None` when no campaign built
    /// its symbolic engine).
    pub solver_cache: Option<SolverCacheBlock>,
}

/// Solver-introspection profile: runs introspected SymbFuzz campaigns
/// on the solver-hostile `hard_factor` lock (every goal a 40-bit
/// semiprime factoring instance — exhaustion attribution territory),
/// the benign `ibex_like` control (satisfiable goals — the cost
/// baseline) and the goal-dense `goalfabric` fixture (sibling goals
/// sharing one frame — session-reuse territory), two seeded campaigns
/// per design fanned across the pool, then merges the per-goal and
/// cache blocks in task order. Campaigns run the command line's knobs
/// (`base`) with introspection forced on. Seeds are fixed per campaign,
/// so results are byte-identical at any `jobs` value.
pub fn solverscope_profile(
    base: &FuzzConfigBuilder,
    out: &Outputs,
    max_vectors: u64,
    solver_budget_ceiling: u64,
    jobs: usize,
) -> Vec<ScopeProfileResult> {
    const RUNS_PER_DESIGN: usize = 2;
    let duvs = profile_duvs();
    let tasks: Vec<(usize, u64)> = (0..duvs.len())
        .flat_map(|i| (0..RUNS_PER_DESIGN as u64).map(move |r| (i, r)))
        .collect();
    let results = run_pool(&tasks, jobs, |task, &(i, r)| {
        let (_, design, props) = &duvs[i];
        let config = base
            .clone()
            .interval(100)
            .threshold(1)
            .max_vectors(max_vectors)
            .seed(0xB0D6E7 + r * 7919)
            .solver_budget(solver_budget_ceiling)
            .escalation_cap(1)
            .solver_introspection(true)
            .build()
            .expect("scope profile config is consistent");
        run_campaign(out, task, design, Strategy::SymbFuzz, config, props, None)
    });
    duvs.iter()
        .enumerate()
        .map(|(i, (name, _, _))| {
            let slice = &results[i * RUNS_PER_DESIGN..(i + 1) * RUNS_PER_DESIGN];
            let mut profile = SolverProfileBlock::default();
            for r in slice {
                profile.merge(&r.solver_profile);
            }
            let mut solver_cache: Option<SolverCacheBlock> = None;
            for cache in slice.iter().filter_map(|r| r.solver_cache.as_ref()) {
                solver_cache
                    .get_or_insert_with(SolverCacheBlock::default)
                    .merge(cache);
            }
            // A goal counts as exhausted when any attempt hit the
            // budget ceiling, and as attributed when its introspection
            // record carries a non-empty blame set.
            let exhausted: Vec<&GoalRow> =
                profile.goals.iter().filter(|g| g.exhausted > 0).collect();
            let exhausted_blamed = exhausted
                .iter()
                .filter(|g| {
                    g.introspection
                        .as_ref()
                        .is_some_and(|i| !i.blame.is_empty())
                })
                .count() as u64;
            ScopeProfileResult {
                design: name.to_string(),
                solver_budget: solver_budget_ceiling,
                campaigns: RUNS_PER_DESIGN as u64,
                exhausted_goals: exhausted.len() as u64,
                exhausted_blamed,
                profile,
                solver_cache,
            }
        })
        .collect()
}

/// §5.2 resource profile: per-strategy resource stats on one
/// benchmark, one pool task per strategy.
pub fn resource_profile(
    base: &FuzzConfigBuilder,
    out: &Outputs,
    bench_index: usize,
    budget: u64,
    jobs: usize,
) -> Vec<(String, CampaignResult)> {
    let b = &processor_benchmarks()[bench_index];
    let design = b.design().expect("benchmark elaborates");
    let props = b.property_specs();
    let strategies = Strategy::all();
    run_pool(&strategies, jobs, |task, s| {
        let config = campaign_config(base, budget, 0xCAB);
        let r = run_campaign(out, task, &design, *s, config, &props, None);
        (s.name().to_string(), r)
    })
}

/// §5.5.1 ablation: full SymbFuzz and three arms with one mechanism
/// off each (checkpoint rollback, deep solving, the solver), one pool
/// task per arm, on one processor benchmark. Every arm runs the
/// command line's knobs (`base`); the `no solver` arm drops the solver
/// ceilings it has no solver for.
pub fn ablation(
    base: &FuzzConfigBuilder,
    out: &Outputs,
    bench_index: usize,
    budget: u64,
    jobs: usize,
) -> Vec<(String, CampaignResult)> {
    let b = &processor_benchmarks()[bench_index];
    let design = b.design().expect("benchmark elaborates");
    let props = b.property_specs();
    let full = campaign_config(base, budget, 0xAB1A7E);
    let arms = [
        ("full SymbFuzz", full.clone()),
        (
            "no checkpoints",
            FuzzConfig {
                use_checkpoints: false,
                ..full.clone()
            },
        ),
        (
            "shallow solver (depth 1)",
            FuzzConfig {
                solve_depth: 1,
                ..full.clone()
            },
        ),
        (
            "no solver",
            FuzzConfig {
                use_solver: false,
                solver_budget: None,
                solve_wall_ms: None,
                ..full
            },
        ),
    ];
    run_pool(&arms, jobs, |task, (name, config)| {
        let r = run_campaign(
            out,
            task,
            &design,
            Strategy::SymbFuzz,
            config.clone(),
            &props,
            None,
        );
        (name.to_string(), r)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_smoke_detects_shallow_bugs() {
        // Bugs 7 and 10 are one-to-two-cycle triggers; a small budget
        // suffices and keeps the test fast.
        let rows = table1_rows(&FuzzConfig::builder(), &Outputs::default(), 3_000, 4);
        assert_eq!(rows.len(), 14);
        let by_id = |id: u32| rows.iter().find(|r| r.id == id).unwrap();
        assert!(by_id(7).measured_vectors.is_some(), "bug 7 undetected");
        assert!(by_id(10).measured_vectors.is_some(), "bug 10 undetected");
    }

    #[test]
    fn detection_matrix_symbfuzz_dominates() {
        let m = detection_matrix(&FuzzConfig::builder(), &Outputs::default(), 3, 4_000, 4);
        for r in &m.rows {
            assert!(r.symbfuzz, "SymbFuzz missed bug {}", r.id);
            // Baselines never beat their paper visibility gates.
            assert!(!r.rfuzz || r.paper.0);
            assert!(!r.difuzz || r.paper.1);
            assert!(!r.hwfp || r.paper.2);
        }
    }

    #[test]
    fn table3_reports_structure() {
        let rows = table3_rows(&FuzzConfig::builder(), &Outputs::default(), 1_500, 2);
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(r.loc > 20, "{} too small", r.name);
            assert!(r.dependency_eqns > 0);
            assert!(r.cfg_nodes > 1);
            assert!(r.latency_s > 0.0);
        }
    }

    #[test]
    fn coverage_race_orders_symbfuzz_first() {
        let race = coverage_race(&FuzzConfig::builder(), &Outputs::default(), 0, 6_000, 42, 4);
        let sf = race.final_coverage("SymbFuzz").unwrap();
        let rnd = race.final_coverage("UVM-random").unwrap();
        assert!(sf >= rnd, "SymbFuzz {sf} < random {rnd}");
        assert_eq!(race.curves.len(), 5);
    }

    #[test]
    fn variance_profile_produces_window_points() {
        let pts = variance_profile(&FuzzConfig::builder(), &Outputs::default(), 1, 2_000, 3, 4);
        assert!(!pts.is_empty());
        for p in &pts {
            assert!(p.vectors >= 800 && p.vectors <= 1_700);
            assert!(p.variance >= 0.0);
        }
    }

    /// The tentpole determinism guarantee: the rendered JSON report is
    /// byte-identical whether campaigns run on 1 thread or 8.
    #[test]
    fn reports_are_byte_identical_across_job_counts() {
        let base = FuzzConfig::builder();
        let serial =
            serde_json::to_string(&detection_matrix(&base, &Outputs::default(), 2, 2_000, 1))
                .unwrap();
        let wide =
            serde_json::to_string(&detection_matrix(&base, &Outputs::default(), 2, 2_000, 8))
                .unwrap();
        assert_eq!(serial, wide);

        let serial =
            serde_json::to_string(&coverage_race(&base, &Outputs::default(), 1, 2_000, 7, 1))
                .unwrap();
        let wide =
            serde_json::to_string(&coverage_race(&base, &Outputs::default(), 1, 2_000, 7, 8))
                .unwrap();
        assert_eq!(serial, wide);

        let serial = serde_json::to_string(&variance_profile(
            &base,
            &Outputs::default(),
            1,
            1_500,
            2,
            1,
        ))
        .unwrap();
        let wide = serde_json::to_string(&variance_profile(
            &base,
            &Outputs::default(),
            1,
            1_500,
            2,
            8,
        ))
        .unwrap();
        assert_eq!(serial, wide);
    }

    /// The PR's acceptance scenario: a 10k-conflict ceiling against
    /// the factoring lock terminates (no hang), records at least one
    /// `BudgetExhausted`, degrades to random mutation for the full
    /// vector budget, and renders byte-identically at any `--jobs`.
    #[test]
    fn budget_profile_degrades_and_is_deterministic_across_jobs() {
        let base = FuzzConfig::builder();
        let serial = serde_json::to_string(&budget_profile(
            &base,
            &Outputs::default(),
            &[10_000],
            400,
            1,
        ))
        .unwrap();
        let wide = serde_json::to_string(&budget_profile(
            &base,
            &Outputs::default(),
            &[10_000],
            400,
            4,
        ))
        .unwrap();
        assert_eq!(serial, wide);
        let rows: Vec<BudgetProfileRow> = serde_json::from_str(&serial).unwrap();
        assert_eq!(rows.len(), 3);
        let r = rows.iter().find(|r| r.design == "hard_factor").unwrap();
        assert_eq!(r.vectors, 400, "campaign must run to its full budget");
        assert!(r.budget_exhaustions >= 1, "no solve hit the ceiling: {r:?}");
        assert!(
            r.solve_outcomes
                .iter()
                .any(|(s, n)| s.starts_with("unknown:") && *n > 0),
            "no unknown outcome tallied: {r:?}"
        );
        assert!(r.coverage_points >= 1);
        // The benign control also terminates at its full budget.
        let ibex = rows.iter().find(|r| r.design == "ibex_like").unwrap();
        assert_eq!(ibex.vectors, 400);
    }

    /// The introspection acceptance scenario: against the factoring
    /// lock, (nearly) every exhausted goal must be attributed to a
    /// non-empty register blame set, and the profile — blame sets
    /// included — must be byte-identical at `--jobs 1` and `--jobs 4`.
    #[test]
    fn solverscope_attributes_exhaustion_and_is_deterministic_across_jobs() {
        let base = FuzzConfig::builder();
        let serial = serde_json::to_string(&solverscope_profile(
            &base,
            &Outputs::default(),
            400,
            500,
            1,
        ))
        .unwrap();
        let wide = serde_json::to_string(&solverscope_profile(
            &base,
            &Outputs::default(),
            400,
            500,
            4,
        ))
        .unwrap();
        assert_eq!(serial, wide);
        let rows: Vec<ScopeProfileResult> = serde_json::from_str(&serial).unwrap();
        assert_eq!(rows.len(), 3);
        let hard = rows.iter().find(|r| r.design == "hard_factor").unwrap();
        assert!(
            hard.exhausted_goals >= 1,
            "no goal exhausted its budget: {hard:?}"
        );
        // ≥ 90 % of exhausted goals carry a non-empty blame set.
        assert!(
            hard.exhausted_blamed * 10 >= hard.exhausted_goals * 9,
            "attribution rate too low: {}/{}",
            hard.exhausted_blamed,
            hard.exhausted_goals
        );
        for r in &rows {
            assert_eq!(r.profile.check(), Ok(()), "{}", r.design);
            // The trace counts only conflicts that learned a clause;
            // the budget adds at most one proof-ending conflict per
            // exact-depth call.
            for (g, i) in r.profile.introspected() {
                assert!(i.learned <= g.conflicts, "{}: {g:?}", r.design);
                assert!(
                    g.conflicts <= i.learned + g.solver_calls,
                    "{}: {g:?}",
                    r.design
                );
            }
        }
        // The benign control is traced too, every exact-depth call
        // landing in its goal's per-call histogram.
        let ibex = rows.iter().find(|r| r.design == "ibex_like").unwrap();
        assert!(ibex.profile.introspected().next().is_some());
        for (g, i) in ibex.profile.introspected() {
            let calls: u64 = i.call_conflict_hist.iter().sum();
            assert_eq!(calls, g.solver_calls, "goal {}", g.register);
        }
    }

    /// The ablation's arms run the command line's knobs: a one-conflict
    /// ceiling exhausts solves in the full and no-checkpoint arms (the
    /// depth-1 arm's goals on ibex_like are decided without a
    /// conflict), and the `no solver` arm drops the ceiling instead of
    /// failing `validate`.
    #[test]
    fn ablation_arms_take_the_command_line_knobs() {
        let exhausted = |r: &CampaignResult| {
            r.solve_outcomes
                .iter()
                .find(|(s, _)| s == "unknown:conflicts")
                .map_or(0, |(_, n)| *n)
        };
        let base = FuzzConfig::builder().solver_budget(1);
        let arms = ablation(&base, &Outputs::default(), 0, 1_500, 4);
        let names: Vec<&str> = arms.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            [
                "full SymbFuzz",
                "no checkpoints",
                "shallow solver (depth 1)",
                "no solver"
            ]
        );
        for (name, r) in &arms[..2] {
            assert!(exhausted(r) > 0, "{name}: {:?}", r.solve_outcomes);
        }
        let (_, no_solver) = &arms[3];
        assert_eq!(no_solver.resources.solver_calls, 0);
        let plain = ablation(&FuzzConfig::builder(), &Outputs::default(), 0, 1_500, 4);
        assert!(plain.iter().all(|(_, r)| exhausted(r) == 0));
        assert_eq!(
            serde_json::to_string(&plain[3]).unwrap(),
            serde_json::to_string(&arms[3]).unwrap(),
            "the solver ceiling cannot change a campaign without a solver"
        );
    }

    #[test]
    fn speedup_has_random_baseline_of_one() {
        let s = speedup(&FuzzConfig::builder(), &Outputs::default(), 3, 4_000, 4);
        let rnd = s.rows.iter().find(|(n, _, _)| n == "UVM-random").unwrap();
        assert!((rnd.2.unwrap() - 1.0).abs() < 1e-9);
        let sf = s.rows.iter().find(|(n, _, _)| n == "SymbFuzz").unwrap();
        assert!(sf.2.unwrap_or(0.0) >= 1.0, "SymbFuzz slower than random");
    }
}

//! Campaign results, bug records and property specifications.

use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use symbfuzz_sim::VmProfile;
use symbfuzz_smt::TRACE_HIST_BUCKETS;
use symbfuzz_symexec::{GoalScope, ReachOutcome, ReachStats, SolverCacheStats};
use symbfuzz_telemetry::{FlightSample, MetricsSnapshot, PhaseStat};

/// A security property plus its *oracle visibility*: which detection
/// models can observe a violation of it.
///
/// SymbFuzz binds SVA assertions directly into the RTL, so it sees
/// every class. The baselines use golden-reference-model (GRM)
/// differential testing (§5.2, "Observation"): a violation is only
/// visible to them when it perturbs architecturally visible state, and
/// HWFP's Verilator-based two-state simulation additionally cannot see
/// X-state violations (§3). These flags encode, per property, the
/// paper's per-bug reasoning for Table 2.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PropertySpec {
    /// Property name (doubles as the bug identifier).
    pub name: String,
    /// Property source text (the crate `symbfuzz-props` language).
    pub text: String,
    /// Visible to a mux-coverage + differential oracle (RFuzz).
    pub rfuzz_visible: bool,
    /// Visible to a register-coverage + differential oracle (DifuzzRTL).
    pub difuzz_visible: bool,
    /// Visible to a two-state software-fuzzer oracle (HWFP).
    pub hwfp_visible: bool,
}

impl PropertySpec {
    /// A property only an in-RTL assertion can see (all baselines
    /// blind) — e.g. key-share leakage that matches the golden model.
    pub fn assertion_only(name: &str, text: &str) -> PropertySpec {
        PropertySpec {
            name: name.into(),
            text: text.into(),
            rfuzz_visible: false,
            difuzz_visible: false,
            hwfp_visible: false,
        }
    }

    /// A property whose violation perturbs architectural state, visible
    /// to every differential oracle.
    pub fn arch_visible(name: &str, text: &str) -> PropertySpec {
        PropertySpec {
            name: name.into(),
            text: text.into(),
            rfuzz_visible: true,
            difuzz_visible: true,
            hwfp_visible: true,
        }
    }

    /// Sets per-oracle visibility explicitly.
    pub fn with_visibility(
        name: &str,
        text: &str,
        rfuzz: bool,
        difuzz: bool,
        hwfp: bool,
    ) -> PropertySpec {
        PropertySpec {
            name: name.into(),
            text: text.into(),
            rfuzz_visible: rfuzz,
            difuzz_visible: difuzz,
            hwfp_visible: hwfp,
        }
    }
}

/// One detected bug (Algorithm 1 lines 23–25: property, timestamp, and
/// the input-vector count at detection — Table 1's last column), plus
/// the provenance of the detecting input word so a report can explain
/// which mechanism earned the bug.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BugRecord {
    /// Violated property name.
    pub property: String,
    /// Simulation cycle of the first violation.
    pub cycle: u64,
    /// Input vectors generated before detection.
    pub vectors: u64,
    /// CFG node occupied at detection (dense id), if known.
    pub node: Option<u64>,
    /// Mechanism that generated the detecting input word
    /// ([`symbfuzz_telemetry::Mechanism::name`]).
    pub mechanism: String,
    /// Goal id of the solve attempt (solver-guided detection only);
    /// indexes [`CovMap::goals`].
    pub goal: Option<u64>,
    /// Checkpoint node active at detection, if any.
    pub checkpoint: Option<u64>,
}

/// Version stamp of the [`CovMap`] artifact schema.
pub const COVMAP_VERSION: u32 = 1;

/// Serialized [`symbfuzz_cfgx::Provenance`]: the attribution of one
/// covered node or edge.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProvenanceRecord {
    /// Input vectors consumed when the point was covered.
    pub vector: u64,
    /// Mechanism name ([`symbfuzz_telemetry::Mechanism::name`]):
    /// `random`, `solver` or `replay`.
    pub mechanism: String,
    /// Goal id of the solve attempt (solver-guided only); indexes
    /// [`CovMap::goals`].
    pub goal: Option<u64>,
    /// Checkpoint node active at the time, if any.
    pub checkpoint: Option<u64>,
}

/// One covered CFG node in the [`CovMap`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeCov {
    /// Dense node id (discovery order).
    pub id: u64,
    /// Cycle at which the node was first reached.
    pub first_cycle: u64,
    /// Attribution of the first visit.
    pub provenance: ProvenanceRecord,
}

/// One covered CFG edge in the [`CovMap`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EdgeCov {
    /// Dense edge id (discovery order).
    pub id: u64,
    /// Source node id.
    pub src: u64,
    /// Destination node id.
    pub dst: u64,
    /// Cycle at which the edge was first taken.
    pub cycle: u64,
    /// Attribution of the first crossing.
    pub provenance: ProvenanceRecord,
}

/// One symbolic solve attempt, in attempt order — the goal ids in
/// [`ProvenanceRecord`] and [`BugRecord`] index this list.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GoalCov {
    /// Goal id (position in the attempt order).
    pub id: u64,
    /// Target control-register name.
    pub register: String,
    /// Target register value.
    pub value: u64,
    /// Rollback node the solve ran from (`None` = reset state).
    pub checkpoint: Option<u64>,
    /// Outcome, as a [`symbfuzz_telemetry::SolveStatus`] serial.
    pub status: String,
    /// Input vectors consumed when the attempt ran.
    pub vector: u64,
}

/// One uncovered-frontier row: a control-register value never
/// observed — an uncovered node adjacent to the covered region, i.e.
/// the edge into it is uncovered — with the last blocking solve
/// status.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FrontierRow {
    /// Control-register name.
    pub register: String,
    /// The unobserved value.
    pub value: u64,
    /// Solve attempts that targeted this value.
    pub attempts: u64,
    /// Status of the last attempt ([`symbfuzz_telemetry::SolveStatus`]
    /// serial), or `"unattempted"`.
    pub last_status: String,
}

/// The per-campaign coverage-provenance artifact (versioned JSON):
/// every covered node and edge with its attribution, the symbolic goal
/// log, and the uncovered frontier. Embedded in [`CampaignResult`] and
/// persisted standalone by the `covreport` bench bin.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CovMap {
    /// Schema version ([`COVMAP_VERSION`]).
    pub version: u32,
    /// Strategy name.
    pub fuzzer: String,
    /// Design name.
    pub design: String,
    /// Covered nodes, in discovery order.
    pub nodes: Vec<NodeCov>,
    /// Covered edges, in discovery order.
    pub edges: Vec<EdgeCov>,
    /// Symbolic solve attempts, in attempt order.
    pub goals: Vec<GoalCov>,
    /// Uncovered frontier, in control-register tuple order.
    pub frontier: Vec<FrontierRow>,
}

impl CovMap {
    /// An empty covmap for the given campaign identity.
    pub fn empty(fuzzer: &str, design: &str) -> CovMap {
        CovMap {
            version: COVMAP_VERSION,
            fuzzer: fuzzer.into(),
            design: design.into(),
            nodes: Vec::new(),
            edges: Vec::new(),
            goals: Vec::new(),
            frontier: Vec::new(),
        }
    }

    /// Coverage-point count per mechanism name, in
    /// [`symbfuzz_telemetry::Mechanism::ALL`] order: `(name, nodes,
    /// edges)`.
    pub fn mechanism_counts(&self) -> Vec<(String, u64, u64)> {
        symbfuzz_telemetry::Mechanism::ALL
            .iter()
            .map(|m| {
                let name = m.name();
                let n = self
                    .nodes
                    .iter()
                    .filter(|x| x.provenance.mechanism == name)
                    .count() as u64;
                let e = self
                    .edges
                    .iter()
                    .filter(|x| x.provenance.mechanism == name)
                    .count() as u64;
                (name.to_string(), n, e)
            })
            .collect()
    }

    /// Walks the provenance chain backwards from a node: the node's
    /// own record, then the record of the checkpoint it was earned
    /// from, and so on until a record without a checkpoint. Cycles are
    /// guarded; the chain is capped at the node count.
    pub fn provenance_chain(&self, node: u64) -> Vec<&NodeCov> {
        let mut chain = Vec::new();
        let mut seen = std::collections::HashSet::new();
        let mut cur = Some(node);
        while let Some(id) = cur {
            if !seen.insert(id) || chain.len() > self.nodes.len() {
                break;
            }
            let Some(rec) = self.nodes.iter().find(|n| n.id == id) else {
                break;
            };
            chain.push(rec);
            cur = rec.provenance.checkpoint;
        }
        chain
    }
}

/// One point of the coverage-vs-vectors curve (Fig. 4a).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoverageSample {
    /// Input vectors generated so far.
    pub vectors: u64,
    /// Coverage points (nodes + edges) at that time.
    pub coverage: u64,
}

/// Work and memory accounting for the §5.2 resource comparison.
///
/// `Deserialize` is hand-written so reports serialized before the
/// snapshot-tree release (no page/eviction fields) still load, taking
/// zeros.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct ResourceStats {
    /// Clock cycles simulated.
    pub cycles: u64,
    /// SMT solver invocations.
    pub solver_calls: u64,
    /// Snapshots held at peak.
    pub peak_snapshots: usize,
    /// Peak state memory in bytes: the live simulator state plus the
    /// snapshot store's *unique* page bytes at its high-water mark
    /// (copy-on-write sharing counted once), plus the corpus.
    pub peak_state_bytes: u64,
    /// Checkpoint rollbacks performed.
    pub rollbacks: u64,
    /// Full resets performed.
    pub full_resets: u64,
    /// Pages physically copied into the snapshot store at fork time.
    pub snapshot_pages_copied: u64,
    /// Pages shared with a tree parent instead of copied.
    pub snapshot_pages_shared: u64,
    /// Snapshots evicted to stay inside `snapshot_mem_budget`.
    pub snapshot_evictions: u64,
    /// Unique snapshot-store bytes at the high-water mark.
    pub peak_snapshot_bytes: u64,
}

impl Deserialize for ResourceStats {
    fn from_value(v: &serde::Value) -> Result<ResourceStats, serde::DeError> {
        let opt = |name: &str| -> Result<u64, serde::DeError> {
            match v.field(name) {
                Ok(f) => Deserialize::from_value(f),
                Err(_) => Ok(0),
            }
        };
        Ok(ResourceStats {
            cycles: Deserialize::from_value(v.field("cycles")?)?,
            solver_calls: Deserialize::from_value(v.field("solver_calls")?)?,
            peak_snapshots: Deserialize::from_value(v.field("peak_snapshots")?)?,
            peak_state_bytes: Deserialize::from_value(v.field("peak_state_bytes")?)?,
            rollbacks: Deserialize::from_value(v.field("rollbacks")?)?,
            full_resets: Deserialize::from_value(v.field("full_resets")?)?,
            snapshot_pages_copied: opt("snapshot_pages_copied")?,
            snapshot_pages_shared: opt("snapshot_pages_shared")?,
            snapshot_evictions: opt("snapshot_evictions")?,
            peak_snapshot_bytes: opt("peak_snapshot_bytes")?,
        })
    }
}

/// One phase's timing row inside a [`TelemetryBlock`] (serialisable
/// mirror of [`symbfuzz_telemetry::PhaseStat`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseBlock {
    /// Phase name ([`symbfuzz_telemetry::Phase::name`]).
    pub phase: String,
    /// Completed spans.
    pub count: u64,
    /// Accumulated self-time (children excluded), clock units.
    pub self_micros: u64,
    /// log₄ inclusive-duration histogram.
    pub buckets: Vec<u64>,
}

/// The campaign's telemetry metrics (serialisable mirror of
/// [`symbfuzz_telemetry::MetricsSnapshot`]). With the default
/// deterministic clock this block is a pure function of the campaign
/// seed, so merged reports stay byte-identical at any `--jobs N`.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TelemetryBlock {
    /// Monotone work counters, in schema order.
    pub counters: Vec<(String, u64)>,
    /// High-water-mark gauges, in schema order.
    pub gauges: Vec<(String, u64)>,
    /// Event counts per kind, in schema order.
    pub events: Vec<(String, u64)>,
    /// Per-phase timing rows, in schema order.
    pub phases: Vec<PhaseBlock>,
}

impl From<MetricsSnapshot> for TelemetryBlock {
    fn from(s: MetricsSnapshot) -> TelemetryBlock {
        TelemetryBlock {
            counters: s.counters,
            gauges: s.gauges,
            events: s.events,
            phases: s
                .phases
                .into_iter()
                .map(|p| PhaseBlock {
                    phase: p.phase,
                    count: p.count,
                    self_micros: p.self_micros,
                    buckets: p.buckets,
                })
                .collect(),
        }
    }
}

impl TelemetryBlock {
    /// Folds another campaign's block into this one through
    /// [`MetricsSnapshot::merge`]: counters, event counts and phase
    /// statistics sum; gauges keep the high-water mark. Every block is
    /// deterministic under the default manual clock, so a fold in task
    /// order is byte-identical at any `--jobs N`.
    pub fn merge(&mut self, other: &TelemetryBlock) {
        let mut merged = self.to_snapshot();
        merged.merge(&other.to_snapshot());
        *self = TelemetryBlock::from(merged);
    }

    /// Converts back to the telemetry-layer snapshot (for merging).
    pub fn to_snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            events: self.events.clone(),
            phases: self
                .phases
                .iter()
                .map(|p| PhaseStat {
                    phase: p.phase.clone(),
                    count: p.count,
                    self_micros: p.self_micros,
                    buckets: p.buckets.clone(),
                })
                .collect(),
        }
    }
}

/// One flight-recorder sample (serialisable mirror of
/// [`symbfuzz_telemetry::FlightSample`]). Vector fields are positional
/// in the fixed telemetry schema orders; see the telemetry crate for
/// the delta-compression contract.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FlightRow {
    /// Sample interval index (`vectors / sample_every`).
    pub interval: u64,
    /// Clock reading at sample time.
    pub t: u64,
    /// Task label of the sampled collector.
    pub task: u64,
    /// Input vectors consumed.
    pub vectors: u64,
    /// Coverage points reached.
    pub coverage: u64,
    /// CFG nodes covered.
    pub nodes: u64,
    /// CFG edges covered.
    pub edges: u64,
    /// Consecutive coverage-flat intervals.
    pub stagnant: u64,
    /// Counter deltas since the previous sample.
    pub d_counters: Vec<u64>,
    /// Absolute gauge levels.
    pub gauges: Vec<u64>,
    /// Event-count deltas since the previous sample.
    pub d_events: Vec<u64>,
    /// Phase self-time deltas since the previous sample.
    pub d_phase_micros: Vec<u64>,
}

impl From<&FlightSample> for FlightRow {
    fn from(s: &FlightSample) -> FlightRow {
        FlightRow {
            interval: s.interval,
            t: s.t,
            task: s.task,
            vectors: s.vectors,
            coverage: s.coverage,
            nodes: s.nodes,
            edges: s.edges,
            stagnant: s.stagnant,
            d_counters: s.d_counters.clone(),
            gauges: s.gauges.clone(),
            d_events: s.d_events.clone(),
            d_phase_micros: s.d_phase_micros.clone(),
        }
    }
}

impl FlightRow {
    /// Converts back to the telemetry-layer sample (for merging and
    /// canonical [`symbfuzz_telemetry::flight_line`] rendering).
    pub fn to_sample(&self) -> FlightSample {
        FlightSample {
            interval: self.interval,
            t: self.t,
            task: self.task,
            vectors: self.vectors,
            coverage: self.coverage,
            nodes: self.nodes,
            edges: self.edges,
            stagnant: self.stagnant,
            d_counters: self.d_counters.clone(),
            gauges: self.gauges.clone(),
            d_events: self.d_events.clone(),
            d_phase_micros: self.d_phase_micros.clone(),
        }
    }
}

/// One hot-cone row of a [`VmProfileBlock`] (serialisable mirror of
/// [`symbfuzz_sim::ConeProfile`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConeRow {
    /// Process index in the design.
    pub proc_index: u64,
    /// Netlist label (first written signal of the process).
    pub label: String,
    /// Total dispatches of this cone.
    pub execs: u64,
    /// Dispatches through the word-level bytecode fast path.
    pub fast: u64,
    /// Interpreter escapes due to live X/Z in the input cone.
    pub escaped_x: u64,
    /// Interpreter escapes because the lowering rejected the process.
    pub escaped_uncompiled: u64,
    /// Local-fixpoint executions (combinational cycle member).
    pub escaped_cyclic: u64,
    /// Deterministic work charged (bytecode ops / statement weight).
    pub op_units: u64,
}

impl ConeRow {
    /// Fast-path hit rate of this cone, `0.0 ..= 1.0`.
    pub fn hit_rate(&self) -> f64 {
        if self.execs == 0 {
            0.0
        } else {
            self.fast as f64 / self.execs as f64
        }
    }
}

/// The VM profiler section of a campaign report (serialisable mirror
/// of [`symbfuzz_sim::VmProfile`]): top-K hot cones by deterministic
/// op units, plus design-wide totals and the dynamic bytecode
/// op-class histogram.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct VmProfileBlock {
    /// Hottest cones by op units, hottest first.
    pub rows: Vec<ConeRow>,
    /// `(class name, dynamic op count)` in schema order.
    pub op_classes: Vec<(String, u64)>,
    /// Total cone dispatches across the design.
    pub total_execs: u64,
    /// Dispatches settled on the fast path.
    pub total_fast: u64,
    /// Dispatches that escaped to the interpreter (any reason).
    pub total_escaped: u64,
}

impl From<VmProfile> for VmProfileBlock {
    fn from(p: VmProfile) -> VmProfileBlock {
        VmProfileBlock {
            rows: p
                .rows
                .into_iter()
                .map(|r| ConeRow {
                    proc_index: r.proc_index as u64,
                    label: r.label,
                    execs: r.execs,
                    fast: r.fast,
                    escaped_x: r.escaped_x,
                    escaped_uncompiled: r.escaped_uncompiled,
                    escaped_cyclic: r.escaped_cyclic,
                    op_units: r.op_units,
                })
                .collect(),
            op_classes: p.op_classes,
            total_execs: p.total_execs,
            total_fast: p.total_fast,
            total_escaped: p.total_escaped,
        }
    }
}

impl VmProfileBlock {
    /// Folds another campaign's block into this one. Cone rows merge by
    /// `(proc_index, label)` with every tally summed, new rows append,
    /// and the rows re-sort hottest first (op units descending, process
    /// index breaking ties) with a stable sort. Op-class histograms fold
    /// by class name in first-seen order, and the design totals sum.
    ///
    /// Sorting after each fold orders rows exactly as one sort after a
    /// whole fold would, unless two rows share a process index under
    /// different labels. Within one design a process index names one
    /// cone, so that happens only when blocks of different designs
    /// merge.
    pub fn merge(&mut self, other: &VmProfileBlock) {
        for row in &other.rows {
            match self
                .rows
                .iter_mut()
                .find(|r| r.proc_index == row.proc_index && r.label == row.label)
            {
                Some(r) => {
                    r.execs += row.execs;
                    r.fast += row.fast;
                    r.escaped_x += row.escaped_x;
                    r.escaped_uncompiled += row.escaped_uncompiled;
                    r.escaped_cyclic += row.escaped_cyclic;
                    r.op_units += row.op_units;
                }
                None => self.rows.push(row.clone()),
            }
        }
        self.rows.sort_by(|a, b| {
            b.op_units
                .cmp(&a.op_units)
                .then(a.proc_index.cmp(&b.proc_index))
        });
        for (class, n) in &other.op_classes {
            match self.op_classes.iter_mut().find(|(c, _)| c == class) {
                Some((_, m)) => *m += n,
                None => self.op_classes.push((class.clone(), *n)),
            }
        }
        self.total_execs += other.total_execs;
        self.total_fast += other.total_fast;
        self.total_escaped += other.total_escaped;
    }

    /// Design-wide fast-path hit rate, `0.0 ..= 1.0`.
    pub fn hit_rate(&self) -> f64 {
        if self.total_execs == 0 {
            0.0
        } else {
            self.total_fast as f64 / self.total_execs as f64
        }
    }
}

/// Version stamp of the [`SolverProfileBlock`] schema. v2 folded the
/// introspection rows into the profile. v2 sections written before the
/// structural sketches were retired carry `affinity`,
/// `mean_adjacent_affinity_milli` and per-row `sketch`/`depth` keys;
/// they are ignored on load.
pub const SOLVER_PROFILE_VERSION: u32 = 2;

/// The solver work spent on one `(register, value)` reachability goal:
/// outcome tallies and CDCL counters over every attempt, plus the
/// introspection analytics when the campaign recorded them.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct GoalRow {
    /// Target register name.
    pub register: String,
    /// Target value (goals are ≤ 64 bits in the campaign loop).
    pub value: u64,
    /// Reachability queries issued (cache hits excluded).
    pub attempts: u64,
    /// Queries that produced an input plan.
    pub sat: u64,
    /// Queries proven unreachable within their bound.
    pub unsat: u64,
    /// Queries that ran out of budget undecided.
    pub exhausted: u64,
    /// Times the negative cache short-circuited this goal.
    pub neg_cache_hits: u64,
    /// Cumulative CDCL conflicts across all attempts (the budget's
    /// count, so it includes conflicts that learned nothing).
    pub conflicts: u64,
    /// Cumulative CDCL decisions across all attempts.
    pub decisions: u64,
    /// Cumulative unit propagations across all attempts.
    pub propagations: u64,
    /// Cumulative exact-depth solver calls (depth-schedule fan-out).
    pub solver_calls: u64,
    /// Deepest unroll ever attempted for this goal.
    pub deepest_unroll: u32,
    /// Escalation level of each attempt, in attempt order — the goal's
    /// budget-climbing history.
    pub escalations: Vec<u32>,
    /// Introspection analytics (`None` unless
    /// [`FuzzConfig::solver_introspection`](crate::FuzzConfig) was on).
    pub introspection: Option<GoalIntrospection>,
}

/// The part of a [`GoalRow`] only solver introspection produces: the
/// merged CDCL trace of every attempt, hot signals and blame set (see
/// [`symbfuzz_symexec::GoalScope`]).
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct GoalIntrospection {
    /// Learned clauses recorded. Every traced conflict learns one
    /// clause, so this is also the trace's conflict count. It can sit
    /// below [`GoalRow::conflicts`]: a conflict at decision level 0 (or
    /// at the assumption level) ends an Unsat proof without learning.
    pub learned: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Log₄ histogram of learned-clause sizes.
    pub learned_size_hist: Vec<u64>,
    /// Log₄ histogram of learned-clause LBD.
    pub lbd_hist: Vec<u64>,
    /// Log₄ histogram of per exact-depth-call conflict counts.
    pub call_conflict_hist: Vec<u64>,
    /// Conflict count at each restart (capped timeline).
    pub restart_timeline: Vec<u64>,
    /// Sum of decision levels at learned-clause conflicts.
    pub conflict_depth_sum: u64,
    /// Deepest decision level at a learned-clause conflict.
    pub conflict_depth_max: u64,
    /// Hottest netlist signals `(name, permille)`, hottest first.
    pub hot_signals: Vec<(String, u64)>,
    /// State registers blamed for `Unreachable`/`Exhausted` outcomes,
    /// in register-name order (empty for satisfiable goals).
    pub blame: Vec<String>,
}

impl GoalIntrospection {
    /// Mean decision level at learned-clause conflicts (0 when none).
    pub fn mean_conflict_depth(&self) -> u64 {
        self.conflict_depth_sum
            .checked_div(self.learned)
            .unwrap_or(0)
    }

    /// Folds another record for the same goal into this one: tallies
    /// and histograms sum, the restart timeline concatenates up to the
    /// trace cap, hot signals fold by max permille, and blame sets
    /// union in name order.
    fn merge(&mut self, other: &GoalIntrospection) {
        use symbfuzz_smt::RESTART_TIMELINE_CAP;
        use symbfuzz_symexec::HOT_SIGNALS_K;
        self.learned += other.learned;
        self.restarts += other.restarts;
        for (mine, theirs) in [
            (&mut self.learned_size_hist, &other.learned_size_hist),
            (&mut self.lbd_hist, &other.lbd_hist),
            (&mut self.call_conflict_hist, &other.call_conflict_hist),
        ] {
            for (a, b) in mine.iter_mut().zip(theirs) {
                *a += b;
            }
        }
        let room = RESTART_TIMELINE_CAP.saturating_sub(self.restart_timeline.len());
        self.restart_timeline
            .extend(other.restart_timeline.iter().take(room));
        self.conflict_depth_sum += other.conflict_depth_sum;
        self.conflict_depth_max = self.conflict_depth_max.max(other.conflict_depth_max);
        for (name, permille) in &other.hot_signals {
            match self.hot_signals.iter_mut().find(|(n, _)| n == name) {
                Some(slot) => slot.1 = slot.1.max(*permille),
                None => self.hot_signals.push((name.clone(), *permille)),
            }
        }
        self.hot_signals
            .sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        self.hot_signals.truncate(HOT_SIGNALS_K);
        self.blame.extend_from_slice(&other.blame);
        self.blame.sort();
        self.blame.dedup();
    }

    /// Checks the record's internal consistency: fixed histogram
    /// widths, a strictly sorted blame set, hot-signal permille within
    /// 1000, and no conflict depth without learned clauses.
    fn check(&self) -> Result<(), String> {
        for (what, h) in [
            ("learned-size", &self.learned_size_hist),
            ("lbd", &self.lbd_hist),
            ("call-conflict", &self.call_conflict_hist),
        ] {
            if h.len() != TRACE_HIST_BUCKETS {
                return Err(format!(
                    "{what}: {} histogram buckets (expected {TRACE_HIST_BUCKETS})",
                    h.len()
                ));
            }
        }
        if self.blame.windows(2).any(|w| w[0] >= w[1]) {
            return Err("blame set not strictly sorted".into());
        }
        if self.hot_signals.iter().any(|(_, p)| *p > 1000) {
            return Err("hot-signal permille exceeds 1000".into());
        }
        if self.conflict_depth_sum > 0 && self.learned == 0 {
            return Err("conflict depth without conflicts".into());
        }
        Ok(())
    }
}

impl From<&GoalScope> for GoalIntrospection {
    fn from(s: &GoalScope) -> GoalIntrospection {
        GoalIntrospection {
            learned: s.trace.learned,
            restarts: s.trace.restarts,
            learned_size_hist: s.trace.learned_size_hist.to_vec(),
            lbd_hist: s.trace.lbd_hist.to_vec(),
            call_conflict_hist: s.call_conflict_hist.clone(),
            restart_timeline: s.trace.restart_timeline.clone(),
            conflict_depth_sum: s.trace.conflict_depth_sum,
            conflict_depth_max: u64::from(s.trace.conflict_depth_max),
            hot_signals: s.hot_signals.clone(),
            blame: s.blame.clone(),
        }
    }
}

impl GoalRow {
    /// Folds another row for the same goal into this one — the one
    /// merge rule, used both to charge a query to its goal during a
    /// campaign and to pool-merge campaigns. Tallies sum,
    /// `deepest_unroll` keeps the maximum, escalation histories
    /// concatenate, and introspection records merge field by field.
    pub fn merge(&mut self, other: &GoalRow) {
        self.attempts += other.attempts;
        self.sat += other.sat;
        self.unsat += other.unsat;
        self.exhausted += other.exhausted;
        self.neg_cache_hits += other.neg_cache_hits;
        self.conflicts += other.conflicts;
        self.decisions += other.decisions;
        self.propagations += other.propagations;
        self.solver_calls += other.solver_calls;
        self.deepest_unroll = self.deepest_unroll.max(other.deepest_unroll);
        self.escalations.extend_from_slice(&other.escalations);
        match (&mut self.introspection, &other.introspection) {
            (Some(mine), Some(theirs)) => mine.merge(theirs),
            (None, Some(theirs)) => self.introspection = Some(theirs.clone()),
            _ => {}
        }
    }

    /// Checks the row's internal consistency: outcome tallies sum to
    /// the attempt count, and the introspection record (if any) passes
    /// its own checks. Errors name the goal.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation.
    pub fn check(&self) -> Result<(), String> {
        let what = format!("goal `{}`={}", self.register, self.value);
        if self.sat + self.unsat + self.exhausted != self.attempts {
            return Err(format!(
                "{what}: {} sat + {} unsat + {} exhausted != {} attempts",
                self.sat, self.unsat, self.exhausted, self.attempts
            ));
        }
        match &self.introspection {
            Some(i) => i.check().map_err(|e| format!("{what}: {e}")),
            None => Ok(()),
        }
    }
}

/// The per-goal solver section of a campaign report (versioned): one
/// [`GoalRow`] per goal in first-attempt order, plus campaign totals
/// that quantify negative-cache effectiveness. The block is also the
/// campaign's collector: the fuzzer charges each query to it with
/// [`note_attempt`](Self::note_attempt).
///
/// Determinism contract: rows keep first-attempt order (the same order
/// at any `--jobs` count once pool-merged in task order) and every
/// field is a pure function of the campaign seed, so merged blocks are
/// byte-identical across job counts.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SolverProfileBlock {
    /// Schema version ([`SOLVER_PROFILE_VERSION`]).
    pub version: u32,
    /// Goal rows, first-attempt order.
    pub goals: Vec<GoalRow>,
    /// Total queries issued across all goals.
    pub total_attempts: u64,
    /// Total negative-cache short-circuits across all goals.
    pub total_neg_cache_hits: u64,
}

impl Default for SolverProfileBlock {
    fn default() -> SolverProfileBlock {
        SolverProfileBlock {
            version: SOLVER_PROFILE_VERSION,
            goals: Vec::new(),
            total_attempts: 0,
            total_neg_cache_hits: 0,
        }
    }
}

impl SolverProfileBlock {
    fn row_mut(&mut self, register: &str, value: u64) -> &mut GoalRow {
        let i = match self
            .goals
            .iter()
            .position(|g| g.value == value && g.register == register)
        {
            Some(i) => i,
            None => {
                self.goals.push(GoalRow {
                    register: register.to_string(),
                    value,
                    ..GoalRow::default()
                });
                self.goals.len() - 1
            }
        };
        &mut self.goals[i]
    }

    /// Charges one completed reachability query to its goal through
    /// [`GoalRow::merge`], with the query's introspection record
    /// ([`ReachStats::scope`]) when the campaign traced it.
    pub fn note_attempt(
        &mut self,
        register: &str,
        value: u64,
        escalation: u32,
        outcome: &ReachOutcome,
        stats: &ReachStats,
    ) {
        let attempt = GoalRow {
            register: register.to_string(),
            value,
            attempts: 1,
            sat: u64::from(matches!(outcome, ReachOutcome::Reached(_))),
            unsat: u64::from(matches!(outcome, ReachOutcome::Unreachable)),
            exhausted: u64::from(matches!(outcome, ReachOutcome::Exhausted { .. })),
            neg_cache_hits: 0,
            conflicts: stats.spent.conflicts,
            decisions: stats.spent.decisions,
            propagations: stats.spent.propagations,
            solver_calls: u64::from(stats.solver_calls),
            deepest_unroll: stats.deepest_unroll,
            escalations: vec![escalation],
            introspection: stats.scope.as_ref().map(GoalIntrospection::from),
        };
        self.total_attempts += 1;
        self.row_mut(register, value).merge(&attempt);
    }

    /// Records a negative-cache short-circuit for a goal (no query was
    /// issued; the cache remembered a prior failure).
    pub fn note_neg_cache_hit(&mut self, register: &str, value: u64) {
        self.total_neg_cache_hits += 1;
        self.row_mut(register, value).neg_cache_hits += 1;
    }

    /// Folds another block into this one: rows merge by
    /// `(register, value)` through [`GoalRow::merge`] in the other
    /// block's order, and totals sum.
    pub fn merge(&mut self, other: &SolverProfileBlock) {
        for g in &other.goals {
            self.row_mut(&g.register, g.value).merge(g);
        }
        self.total_attempts += other.total_attempts;
        self.total_neg_cache_hits += other.total_neg_cache_hits;
    }

    /// Rows with an introspection record, in row order.
    pub fn introspected(&self) -> impl Iterator<Item = (&GoalRow, &GoalIntrospection)> {
        self.goals
            .iter()
            .filter_map(|g| g.introspection.as_ref().map(|i| (g, i)))
    }

    /// Rows hardest first: cumulative conflicts, then decisions, then
    /// first-attempt order. The order is total, so it is stable across
    /// runs.
    pub fn hardest_first(&self) -> Vec<&GoalRow> {
        let mut rows: Vec<&GoalRow> = self.goals.iter().collect();
        rows.sort_by_key(|g| (Reverse(g.conflicts), Reverse(g.decisions)));
        rows
    }

    /// Checks the block: schema version, every row
    /// ([`GoalRow::check`]), and totals that match the rows.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation.
    pub fn check(&self) -> Result<(), String> {
        if self.version != SOLVER_PROFILE_VERSION {
            return Err(format!(
                "solver profile version {} (expected {SOLVER_PROFILE_VERSION})",
                self.version
            ));
        }
        for g in &self.goals {
            g.check()?;
        }
        let attempts: u64 = self.goals.iter().map(|g| g.attempts).sum();
        let hits: u64 = self.goals.iter().map(|g| g.neg_cache_hits).sum();
        if (attempts, hits) != (self.total_attempts, self.total_neg_cache_hits) {
            return Err(format!(
                "totals ({} attempts, {} neg-cache hits) disagree with the rows ({attempts}, {hits})",
                self.total_attempts, self.total_neg_cache_hits
            ));
        }
        Ok(())
    }
}

/// The frame-cache section of a campaign report (serialisable mirror
/// of [`symbfuzz_symexec::SolverCacheStats`]): frame-level bitblast
/// reuse and warm-session goal reuse. Present only when the campaign
/// built its symbolic engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SolverCacheBlock {
    /// Unrolled frames reused from a warm session.
    pub frame_hits: u64,
    /// Frames substituted and bitblasted fresh.
    pub frame_misses: u64,
    /// Exact-depth checks issued through the cache.
    pub goals: u64,
    /// Checks answered on a warm solver (learned clauses retained).
    pub reused_goals: u64,
    /// Session-reuse rate in permille (`reused_goals / goals`).
    pub reuse_milli: u64,
}

impl SolverCacheBlock {
    /// Folds another campaign's block into this one: the tallies sum and
    /// the session-reuse rate is recomputed from the merged totals (a
    /// mean of per-campaign rates would weight idle campaigns equally
    /// with busy ones).
    pub fn merge(&mut self, other: &SolverCacheBlock) {
        self.frame_hits += other.frame_hits;
        self.frame_misses += other.frame_misses;
        self.goals += other.goals;
        self.reused_goals += other.reused_goals;
        self.reuse_milli = (self.reused_goals * 1000)
            .checked_div(self.goals)
            .unwrap_or(0);
    }

    /// Frame-level cache hit rate in permille
    /// (`frame_hits / (frame_hits + frame_misses)`, 0 when idle).
    pub fn hit_rate_milli(&self) -> u64 {
        let total = self.frame_hits + self.frame_misses;
        (self.frame_hits * 1000).checked_div(total).unwrap_or(0)
    }
}

impl From<SolverCacheStats> for SolverCacheBlock {
    fn from(s: SolverCacheStats) -> SolverCacheBlock {
        SolverCacheBlock {
            frame_hits: s.frame_hits,
            frame_misses: s.frame_misses,
            goals: s.goals,
            reused_goals: s.reused_goals,
            reuse_milli: s.reuse_milli(),
        }
    }
}

/// The outcome of one fuzzing campaign.
///
/// `Deserialize` is hand-written so reports serialized before the
/// incremental-solver release (no `solver_cache` key) still load,
/// taking `None`, and so v1 solver sections (a profile plus a separate
/// `solver_scope` block) upgrade to one v2 [`SolverProfileBlock`].
/// Keys of retired sections are ignored.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CampaignResult {
    /// Strategy name.
    pub fuzzer: String,
    /// Design name.
    pub design: String,
    /// Input vectors consumed.
    pub vectors: u64,
    /// Final coverage points (nodes + edges).
    pub coverage_points: u64,
    /// Distinct CFG nodes covered.
    pub nodes: u64,
    /// Distinct CFG edges covered.
    pub edges: u64,
    /// Fraction of the Eqn.-3 node population covered.
    pub node_coverage_ratio: f64,
    /// Fraction of the ordered-pair edge population covered.
    pub edge_coverage_ratio: f64,
    /// Bugs detected, in detection order.
    pub bugs: Vec<BugRecord>,
    /// Coverage curve samples (one per interval).
    pub series: Vec<CoverageSample>,
    /// Resource accounting.
    pub resources: ResourceStats,
    /// Symbolic-episode outcomes tallied per
    /// [`SolveStatus`](symbfuzz_telemetry::SolveStatus) serial, in
    /// schema order (`sat`, `unsat`, `skipped`, `unknown:<reason>`…) —
    /// the same vocabulary JSONL traces use for `solve_result`.
    pub solve_outcomes: Vec<(String, u64)>,
    /// Telemetry metrics (counters, gauges, events, phase timings).
    pub telemetry: TelemetryBlock,
    /// The coverage-provenance artifact (versioned).
    pub covmap: CovMap,
    /// Flight-recorder samples (empty unless `sample_every` was set).
    pub flight: Vec<FlightRow>,
    /// Per-cone VM profile (present when the flight recorder enabled
    /// the profiler and the compiled settle mode ran).
    pub vm_profile: Option<VmProfileBlock>,
    /// Per-goal solver record (empty rows for solver-free campaigns;
    /// introspection sub-records when
    /// [`FuzzConfig::solver_introspection`](crate::FuzzConfig) was on).
    pub solver_profile: SolverProfileBlock,
    /// Frame-cache section (present only when the campaign built its
    /// symbolic engine: baselines and campaigns that never stagnate
    /// carry none).
    pub solver_cache: Option<SolverCacheBlock>,
}

impl Deserialize for CampaignResult {
    fn from_value(v: &serde::Value) -> Result<CampaignResult, serde::DeError> {
        Ok(CampaignResult {
            fuzzer: Deserialize::from_value(v.field("fuzzer")?)?,
            design: Deserialize::from_value(v.field("design")?)?,
            vectors: Deserialize::from_value(v.field("vectors")?)?,
            coverage_points: Deserialize::from_value(v.field("coverage_points")?)?,
            nodes: Deserialize::from_value(v.field("nodes")?)?,
            edges: Deserialize::from_value(v.field("edges")?)?,
            node_coverage_ratio: Deserialize::from_value(v.field("node_coverage_ratio")?)?,
            edge_coverage_ratio: Deserialize::from_value(v.field("edge_coverage_ratio")?)?,
            bugs: Deserialize::from_value(v.field("bugs")?)?,
            series: Deserialize::from_value(v.field("series")?)?,
            resources: Deserialize::from_value(v.field("resources")?)?,
            solve_outcomes: Deserialize::from_value(v.field("solve_outcomes")?)?,
            telemetry: Deserialize::from_value(v.field("telemetry")?)?,
            covmap: Deserialize::from_value(v.field("covmap")?)?,
            flight: Deserialize::from_value(v.field("flight")?)?,
            vm_profile: Deserialize::from_value(v.field("vm_profile")?)?,
            solver_profile: SolverProfileBlock::from_sections(
                v.field("solver_profile")?,
                v.field("solver_scope").ok(),
            )?,
            solver_cache: match v.field("solver_cache") {
                Ok(f) => Deserialize::from_value(f)?,
                Err(_) => None,
            },
        })
    }
}

impl SolverProfileBlock {
    /// Reads a `solver_profile` section, as found in campaign reports
    /// and `status.json` heartbeats, together with the sibling
    /// `solver_scope` section, if any. A versioned section reads as is.
    /// A v1 section (no `version`) upgrades to this block. The v1 format
    /// held profile rows sorted hardest first, plus an optional
    /// `solver_scope` block of introspection rows. The upgraded rows
    /// join the two by `(register, value)`. They follow the scope
    /// block's first-attempt order, followed by the rows it never
    /// traced.
    ///
    /// # Errors
    ///
    /// Returns the first missing or mistyped field.
    pub fn from_sections(
        profile: &serde::Value,
        scope: Option<&serde::Value>,
    ) -> Result<SolverProfileBlock, serde::DeError> {
        if profile.field("version").is_ok() {
            return SolverProfileBlock::from_value(profile);
        }
        upgrade_v1_solver_profile(profile, scope.filter(|s| **s != serde::Value::Null))
    }
}

fn upgrade_v1_solver_profile(
    profile: &serde::Value,
    scope: Option<&serde::Value>,
) -> Result<SolverProfileBlock, serde::DeError> {
    use serde::Value;
    let key = |row: &Value| -> Result<(String, u64), serde::DeError> {
        Ok((
            Deserialize::from_value(row.field("register")?)?,
            Deserialize::from_value(row.field("value")?)?,
        ))
    };
    let mut rows = Vec::new();
    for r in Vec::<Value>::from_value(profile.field("goals")?)? {
        rows.push((key(&r)?, r));
    }
    let traced: Vec<Value> = match scope {
        Some(s) => Deserialize::from_value(s.field("goals")?)?,
        None => Vec::new(),
    };
    // A v1 row plus its introspection record (the scope row's extra
    // keys are ignored) reads as a v2 row.
    let v2_row = |row: Value, introspection: Value| match row {
        Value::Object(mut fields) => {
            fields.push(("introspection".to_string(), introspection));
            GoalRow::from_value(&Value::Object(fields))
        }
        _ => Err(serde::DeError::new("solver_profile row: expected object")),
    };
    let mut goals = Vec::with_capacity(rows.len());
    for t in traced {
        let k = key(&t)?;
        if let Some(i) = rows.iter().position(|(rk, _)| *rk == k) {
            goals.push(v2_row(rows.remove(i).1, t)?);
        }
    }
    for (_, r) in rows {
        goals.push(v2_row(r, Value::Null)?);
    }
    Ok(SolverProfileBlock {
        goals,
        total_attempts: Deserialize::from_value(profile.field("total_attempts")?)?,
        total_neg_cache_hits: Deserialize::from_value(profile.field("total_neg_cache_hits")?)?,
        ..SolverProfileBlock::default()
    })
}

impl CampaignResult {
    /// Whether a bug with this property name was detected.
    pub fn detected(&self, property: &str) -> bool {
        self.bugs.iter().any(|b| b.property == property)
    }

    /// Input vectors needed to reach `coverage` points, if ever reached.
    pub fn vectors_to_reach(&self, coverage: u64) -> Option<u64> {
        self.series
            .iter()
            .find(|s| s.coverage >= coverage)
            .map(|s| s.vectors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn visibility_constructors() {
        let a = PropertySpec::assertion_only("p", "x == 1'b0");
        assert!(!a.rfuzz_visible && !a.difuzz_visible && !a.hwfp_visible);
        let b = PropertySpec::arch_visible("p", "x == 1'b0");
        assert!(b.rfuzz_visible && b.difuzz_visible && b.hwfp_visible);
        let c = PropertySpec::with_visibility("p", "x", false, true, true);
        assert!(!c.rfuzz_visible && c.difuzz_visible && c.hwfp_visible);
    }

    #[test]
    fn vectors_to_reach_scans_series() {
        let r = CampaignResult {
            fuzzer: "x".into(),
            design: "d".into(),
            vectors: 100,
            coverage_points: 50,
            nodes: 20,
            edges: 30,
            node_coverage_ratio: 0.5,
            edge_coverage_ratio: 0.1,
            bugs: vec![],
            series: vec![
                CoverageSample {
                    vectors: 10,
                    coverage: 5,
                },
                CoverageSample {
                    vectors: 50,
                    coverage: 30,
                },
                CoverageSample {
                    vectors: 100,
                    coverage: 50,
                },
            ],
            resources: ResourceStats::default(),
            solve_outcomes: vec![],
            telemetry: TelemetryBlock::default(),
            covmap: CovMap::empty("x", "d"),
            flight: vec![],
            vm_profile: None,
            solver_profile: SolverProfileBlock::default(),
            solver_cache: None,
        };
        assert_eq!(r.vectors_to_reach(30), Some(50));
        assert_eq!(r.vectors_to_reach(51), None);
        assert!(!r.detected("p"));
        // Round-trips, and reports serialized before the
        // incremental-solver release (no solver_cache key) still load
        // with the section absent.
        let j = serde_json::to_string(&r).unwrap();
        assert_eq!(serde_json::from_str::<CampaignResult>(&j).unwrap(), r);
        let serde::Value::Object(fields) = Serialize::to_value(&r) else {
            panic!("report serializes to an object")
        };
        let stripped: Vec<(String, serde::Value)> = fields
            .into_iter()
            .filter(|(k, _)| k != "solver_cache")
            .collect();
        let back = CampaignResult::from_value(&serde::Value::Object(stripped)).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn reports_with_retired_portfolio_and_eviction_keys_still_load() {
        // Reports written while portfolio racing and the session byte
        // budget existed carry a `portfolio` block and a
        // `solver_cache.evictions` count; reports written while
        // structural sketches existed carry an `affinity` matrix, its
        // adjacent mean and per-row `sketch` and `depth` keys. All are
        // ignored on load.
        let mut r = CampaignResult {
            fuzzer: "x".into(),
            design: "d".into(),
            vectors: 1,
            coverage_points: 0,
            nodes: 0,
            edges: 0,
            node_coverage_ratio: 0.0,
            edge_coverage_ratio: 0.0,
            bugs: vec![],
            series: vec![],
            resources: ResourceStats::default(),
            solve_outcomes: vec![],
            telemetry: TelemetryBlock::default(),
            covmap: CovMap::empty("x", "d"),
            flight: vec![],
            vm_profile: None,
            solver_profile: SolverProfileBlock::default(),
            solver_cache: None,
        };
        r.solver_cache = Some(SolverCacheBlock {
            frame_hits: 3,
            frame_misses: 1,
            goals: 2,
            reused_goals: 1,
            reuse_milli: 500,
        });
        let un = ReachOutcome::Unreachable;
        r.solver_profile
            .note_attempt("st", 1, 0, &un, &traced(stats(3), &scope(&["st"])));
        let j = serde_json::to_string(&r).unwrap();
        let old = j
            .replacen(
                "\"frame_misses\":1,",
                "\"frame_misses\":1,\"evictions\":4,",
                1,
            )
            .replacen(
                "\"solver_cache\":{",
                "\"portfolio\":{\"width\":2,\"races\":5,\"wins\":[3,2]},\"solver_cache\":{",
                1,
            )
            .replacen(
                "\"blame\":[\"st\"]",
                "\"blame\":[\"st\"],\"sketch\":[780051993405796900,12],\"depth\":2",
                1,
            )
            .replacen(
                "\"total_neg_cache_hits\":0",
                "\"total_neg_cache_hits\":0,\"affinity\":[[1000]],\
                 \"mean_adjacent_affinity_milli\":0",
                1,
            );
        assert!(old.contains("\"evictions\":4") && old.contains("\"wins\":[3,2]"));
        assert!(old.contains("\"depth\":2") && old.contains("\"affinity\":[[1000]]"));
        let back = serde_json::from_str::<CampaignResult>(&old).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.solver_profile.check(), Ok(()));
    }

    #[test]
    fn solver_cache_block_mirrors_stats_and_rates() {
        let stats = SolverCacheStats {
            frame_hits: 30,
            frame_misses: 10,
            goals: 8,
            reused_goals: 6,
        };
        let block = SolverCacheBlock::from(stats);
        assert_eq!(block.frame_hits, 30);
        assert_eq!(block.reuse_milli, 750);
        assert_eq!(block.hit_rate_milli(), 750);
        assert_eq!(SolverCacheBlock::default().hit_rate_milli(), 0);
        let j = serde_json::to_string(&block).unwrap();
        assert_eq!(serde_json::from_str::<SolverCacheBlock>(&j).unwrap(), block);
    }

    #[test]
    fn flight_rows_mirror_telemetry_samples() {
        let s = FlightSample {
            interval: 3,
            t: 300,
            task: 1,
            vectors: 300,
            coverage: 12,
            nodes: 5,
            edges: 7,
            stagnant: 2,
            d_counters: vec![100, 4],
            gauges: vec![9],
            d_events: vec![2, 0],
            d_phase_micros: vec![60, 30],
        };
        let row = FlightRow::from(&s);
        assert_eq!(row.to_sample(), s);
        let j = serde_json::to_string(&row).unwrap();
        assert_eq!(serde_json::from_str::<FlightRow>(&j).unwrap(), row);
    }

    #[test]
    fn solver_caches_merge_and_recompute_reuse() {
        let mut merged = SolverCacheBlock {
            frame_hits: 6,
            frame_misses: 2,
            goals: 10,
            reused_goals: 8,
            reuse_milli: 800,
        };
        merged.merge(&SolverCacheBlock {
            frame_hits: 0,
            frame_misses: 2,
            goals: 10,
            reused_goals: 0,
            reuse_milli: 0,
        });
        assert_eq!(merged.frame_hits, 6);
        assert_eq!(merged.frame_misses, 4);
        assert_eq!(merged.goals, 20);
        // Recomputed from the merged totals (8/20), not averaged
        // per-campaign (which would read 400 here too — but only by
        // luck; an idle campaign must not drag the pooled rate down).
        assert_eq!(merged.reuse_milli, 400);
    }

    #[test]
    fn telemetry_blocks_merge_across_uneven_campaigns() {
        // A full campaign, a never-solved one whose mutate row is
        // missing its histogram, and a zero-vector one that serialised
        // an entirely empty block.
        let full = TelemetryBlock {
            counters: vec![("vectors".into(), 100), ("solver_calls".into(), 3)],
            gauges: vec![("escalation_level".into(), 2)],
            events: vec![("BugFound".into(), 1)],
            phases: vec![PhaseBlock {
                phase: "mutate".into(),
                count: 4,
                self_micros: 40,
                buckets: vec![1, 2, 0],
            }],
        };
        let never_solved = TelemetryBlock {
            counters: vec![("vectors".into(), 50), ("solver_calls".into(), 0)],
            gauges: vec![("escalation_level".into(), 0)],
            events: vec![("BugFound".into(), 0)],
            phases: vec![PhaseBlock {
                phase: "mutate".into(),
                count: 2,
                self_micros: 10,
                buckets: Vec::new(),
            }],
        };
        let zero_vectors = TelemetryBlock::default();
        let fold = |blocks: [&TelemetryBlock; 3]| {
            let mut acc = TelemetryBlock::default();
            for b in blocks {
                acc.merge(b);
            }
            acc
        };
        let merged = fold([&full, &never_solved, &zero_vectors]);
        assert_eq!(merged.counters[0], ("vectors".to_string(), 150));
        assert_eq!(merged.counters[1], ("solver_calls".to_string(), 3));
        assert_eq!(merged.gauges[0].1, 2, "gauges keep the high-water mark");
        assert_eq!(merged.events[0].1, 1);
        assert_eq!(merged.phases.len(), 1);
        assert_eq!(merged.phases[0].count, 6);
        assert_eq!(merged.phases[0].self_micros, 50);
        assert_eq!(merged.phases[0].buckets, vec![1, 2, 0]);
        // Merging in the opposite order widens the short histogram
        // instead of truncating the long one.
        let flipped = fold([&zero_vectors, &never_solved, &full]);
        assert_eq!(flipped.phases[0].buckets, vec![1, 2, 0]);
        assert_eq!(flipped, merged, "merge is order-insensitive here");
    }

    #[test]
    fn vm_profiles_merge_and_resort() {
        let cone = |proc_index: u64, label: &str, execs: u64, fast: u64, op_units: u64| ConeRow {
            proc_index,
            label: label.into(),
            execs,
            fast,
            escaped_x: execs - fast,
            escaped_uncompiled: 0,
            escaped_cyclic: 0,
            op_units,
        };
        let a = VmProfileBlock {
            rows: vec![cone(0, "alu", 10, 8, 100), cone(1, "pc", 10, 10, 50)],
            op_classes: vec![("binary".into(), 40), ("store".into(), 10)],
            total_execs: 20,
            total_fast: 18,
            total_escaped: 2,
        };
        let b = VmProfileBlock {
            rows: vec![cone(1, "pc", 30, 30, 300)],
            op_classes: vec![("binary".into(), 60)],
            total_execs: 30,
            total_fast: 30,
            total_escaped: 0,
        };
        let mut merged = VmProfileBlock::default();
        merged.merge(&a);
        assert_eq!(merged, a, "merging into an empty block copies");
        merged.merge(&b);
        assert_eq!(merged.rows.len(), 2);
        assert_eq!(merged.rows[0].label, "pc", "resorted hottest-first");
        assert_eq!(merged.rows[0].execs, 40);
        assert_eq!(merged.rows[0].op_units, 350);
        assert_eq!(merged.rows[1].label, "alu");
        assert_eq!(
            merged.op_classes,
            vec![("binary".into(), 100), ("store".into(), 10)]
        );
        assert_eq!(merged.total_execs, 50);
        assert!((merged.hit_rate() - 48.0 / 50.0).abs() < 1e-12);
        // A third block that ties the two rows on op units: the process
        // index breaks the tie, as one sort after the whole fold would.
        merged.merge(&VmProfileBlock {
            rows: vec![cone(0, "alu", 5, 5, 250)],
            ..VmProfileBlock::default()
        });
        assert_eq!(
            merged
                .rows
                .iter()
                .map(|r| (r.proc_index, r.op_units))
                .collect::<Vec<_>>(),
            vec![(0, 350), (1, 350)]
        );
    }

    fn stats(conflicts: u64) -> ReachStats {
        stats_at(conflicts, 1, 2)
    }

    fn stats_at(conflicts: u64, solver_calls: u32, deepest_unroll: u32) -> ReachStats {
        ReachStats {
            spent: symbfuzz_smt::BudgetSpent {
                conflicts,
                decisions: conflicts,
                propagations: conflicts,
            },
            solver_calls,
            deepest_unroll,
            scope: None,
        }
    }

    /// `stats` carrying an introspection record.
    fn traced(stats: ReachStats, scope: &GoalScope) -> ReachStats {
        ReachStats {
            scope: Some(scope.clone()),
            ..stats
        }
    }

    #[test]
    fn goals_accumulate_in_first_attempt_order() {
        let mut b = SolverProfileBlock::default();
        let exhausted = ReachOutcome::Exhausted {
            reason: symbfuzz_telemetry::UnknownReason::Conflicts,
        };
        b.note_attempt("easy", 1, 0, &ReachOutcome::Unreachable, &stats(1));
        b.note_attempt("hard", 2, 0, &exhausted, &stats_at(50, 4, 4));
        b.note_attempt(
            "hard",
            2,
            1,
            &ReachOutcome::Reached(vec![]),
            &stats_at(10, 2, 3),
        );
        b.note_neg_cache_hit("easy", 1);
        assert_eq!(b.goals[0].register, "easy", "first-attempt order");
        let hard = &b.goals[1];
        assert_eq!((hard.sat, hard.unsat, hard.exhausted), (1, 0, 1));
        assert_eq!(hard.escalations, vec![0, 1]);
        assert_eq!(hard.conflicts, 60);
        assert_eq!(hard.solver_calls, 6, "solver calls sum");
        assert_eq!(hard.deepest_unroll, 4, "the deepest unroll is kept");
        assert!(hard.introspection.is_none(), "untraced queries stay lean");
        assert_eq!((b.total_attempts, b.total_neg_cache_hits), (3, 1));
        assert_eq!(b.hardest_first()[0].register, "hard");
        assert_eq!(b.check(), Ok(()));
        let j = serde_json::to_string(&b).unwrap();
        assert_eq!(serde_json::from_str::<SolverProfileBlock>(&j).unwrap(), b);
    }

    fn scope(blame: &[&str]) -> GoalScope {
        let mut s = GoalScope::new();
        s.blame = blame.iter().map(|b| b.to_string()).collect();
        s.hot_signals = vec![("k".into(), 1000)];
        s
    }

    #[test]
    fn introspected_rows_fold_across_attempts() {
        let mut b = SolverProfileBlock::default();
        let (mut a, c) = (scope(&["state"]), scope(&[]));
        a.call_conflict_hist[1] = 1;
        let un = ReachOutcome::Unreachable;
        b.note_attempt("st", 7, 0, &un, &traced(stats(4), &a));
        b.note_attempt("st", 9, 0, &un, &traced(stats(4), &c));
        b.note_attempt("st", 7, 0, &un, &traced(stats(4), &a)); // re-attempt folds
        assert_eq!(b.goals.len(), 2);
        assert_eq!(b.goals[0].attempts, 2);
        let i = b.goals[0].introspection.as_ref().unwrap();
        assert_eq!(i.blame, vec!["state".to_string()]);
        assert_eq!(i.call_conflict_hist[1], 2, "histograms sum");
        assert!(b.goals[1].introspection.as_ref().unwrap().blame.is_empty());
        assert_eq!(b.check(), Ok(()));
        let j = serde_json::to_string(&b).unwrap();
        assert_eq!(serde_json::from_str::<SolverProfileBlock>(&j).unwrap(), b);
    }

    #[test]
    fn blocks_merge_by_goal() {
        let un = ReachOutcome::Unreachable;
        let mut a = SolverProfileBlock::default();
        a.note_attempt(
            "st",
            1,
            0,
            &un,
            &traced(stats_at(10, 1, 2), &scope(&["st"])),
        );
        a.note_attempt("st", 2, 1, &un, &traced(stats(5), &scope(&[])));
        let mut b = SolverProfileBlock::default();
        b.note_attempt(
            "st",
            1,
            2,
            &un,
            &traced(stats_at(10, 3, 5), &scope(&["lock"])),
        );
        b.note_attempt(
            "st",
            1,
            3,
            &un,
            &traced(stats_at(10, 2, 4), &scope(&["lock"])),
        );
        b.note_neg_cache_hit("st", 1);
        assert_eq!(
            (b.goals[0].solver_calls, b.goals[0].deepest_unroll),
            (5, 5),
            "calls sum and the deepest unroll is kept within a campaign"
        );
        // A task that never solved contributes an empty default block.
        let mut merged = a.clone();
        for other in [&b, &SolverProfileBlock::default()] {
            merged.merge(other);
        }
        assert_eq!(merged.goals.len(), 2);
        let st1 = &merged.goals[0];
        assert_eq!(
            (st1.attempts, st1.conflicts, st1.neg_cache_hits),
            (3, 30, 1)
        );
        assert_eq!(
            (st1.solver_calls, st1.deepest_unroll),
            (6, 5),
            "calls sum and the deepest unroll is kept across campaigns"
        );
        assert_eq!(
            st1.escalations,
            vec![0, 2, 3],
            "histories concatenate in task order"
        );
        assert_eq!(
            st1.introspection.as_ref().unwrap().blame,
            vec!["lock".to_string(), "st".to_string()],
            "blame sets union in name order"
        );
        assert_eq!((merged.total_attempts, merged.total_neg_cache_hits), (4, 1));
        assert_eq!(merged.check(), Ok(()));
    }

    #[test]
    fn row_checks_name_the_goal() {
        let mut b = SolverProfileBlock::default();
        b.note_attempt(
            "st",
            3,
            0,
            &ReachOutcome::Unreachable,
            &traced(stats(1), &scope(&[])),
        );
        b.goals[0].sat = 1;
        assert!(b
            .check()
            .unwrap_err()
            .contains("goal `st`=3: 1 sat + 1 unsat"));
        b.goals[0].sat = 0;
        let i = b.goals[0].introspection.as_mut().unwrap();
        i.blame = vec!["st".into(), "lock".into()];
        assert!(b
            .check()
            .unwrap_err()
            .contains("goal `st`=3: blame set not strictly sorted"));
        let i = b.goals[0].introspection.as_mut().unwrap();
        i.blame.clear();
        i.lbd_hist.pop();
        assert!(b.check().unwrap_err().contains("lbd: 11 histogram buckets"));
        b.goals[0].introspection = None;
        b.total_attempts = 5;
        assert!(b.check().unwrap_err().contains("totals"));
    }

    #[test]
    fn report_round_trips_through_json() {
        let b = BugRecord {
            property: "leak".into(),
            cycle: 1234,
            vectors: 99,
            node: Some(7),
            mechanism: "solver".into(),
            goal: Some(2),
            checkpoint: Some(1),
        };
        let j = serde_json::to_string(&b).unwrap();
        assert_eq!(serde_json::from_str::<BugRecord>(&j).unwrap(), b);
    }

    fn prov(mechanism: &str, checkpoint: Option<u64>) -> ProvenanceRecord {
        ProvenanceRecord {
            vector: 1,
            mechanism: mechanism.into(),
            goal: None,
            checkpoint,
        }
    }

    #[test]
    fn covmap_round_trips_and_counts_mechanisms() {
        let mut m = CovMap::empty("SymbFuzz", "lock");
        m.nodes.push(NodeCov {
            id: 0,
            first_cycle: 2,
            provenance: prov("random", None),
        });
        m.nodes.push(NodeCov {
            id: 1,
            first_cycle: 9,
            provenance: prov("solver", Some(0)),
        });
        m.edges.push(EdgeCov {
            id: 0,
            src: 0,
            dst: 1,
            cycle: 9,
            provenance: prov("solver", Some(0)),
        });
        let j = serde_json::to_string(&m).unwrap();
        assert_eq!(serde_json::from_str::<CovMap>(&j).unwrap(), m);
        assert_eq!(m.version, COVMAP_VERSION);
        let counts = m.mechanism_counts();
        assert_eq!(counts[0], ("random".to_string(), 1, 0));
        assert_eq!(counts[1], ("solver".to_string(), 1, 1));
        assert_eq!(counts[2], ("replay".to_string(), 0, 0));
    }

    #[test]
    fn provenance_chain_walks_checkpoints_and_guards_cycles() {
        let mut m = CovMap::empty("SymbFuzz", "lock");
        m.nodes.push(NodeCov {
            id: 0,
            first_cycle: 0,
            provenance: prov("random", None),
        });
        m.nodes.push(NodeCov {
            id: 1,
            first_cycle: 5,
            provenance: prov("solver", Some(0)),
        });
        m.nodes.push(NodeCov {
            id: 2,
            first_cycle: 9,
            provenance: prov("solver", Some(1)),
        });
        let chain: Vec<u64> = m.provenance_chain(2).iter().map(|n| n.id).collect();
        assert_eq!(chain, vec![2, 1, 0]);
        // A malformed self-referential record terminates.
        m.nodes[0].provenance.checkpoint = Some(0);
        let chain: Vec<u64> = m.provenance_chain(2).iter().map(|n| n.id).collect();
        assert_eq!(chain, vec![2, 1, 0]);
        assert!(m.provenance_chain(42).is_empty());
    }
}

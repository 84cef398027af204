//! The untraced run: end-to-end metrics of one workload, measured in a
//! closed loop (one thread, one campaign at a time) for a fixed time.

use crate::heap;
use crate::schema::{Metric, RunRecord};
use crate::spec::Spec;
use crate::stats::{mean, median, tail};
use crate::workload::{add_counts, build, campaign_ok, exact_counts, Kind, Workload, EXTRA_SETUPS};
use std::hint::black_box;
use std::time::Instant;

/// Collects a run's metrics, taking each unit from `BENCHMARK.json`.
pub(crate) struct Metrics<'a> {
    spec: &'a Spec,
    list: Vec<Metric>,
}

impl<'a> Metrics<'a> {
    /// An empty collection.
    pub(crate) fn new(spec: &'a Spec) -> Metrics<'a> {
        Metrics {
            spec,
            list: Vec::new(),
        }
    }

    /// Adds a metric summarising `samples` samples.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not declared in `BENCHMARK.json`.
    pub(crate) fn push(&mut self, name: &str, value: f64, samples: usize) {
        self.push_level(name, value, samples, None);
    }

    /// Adds a percentile metric with its level.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not declared in `BENCHMARK.json`.
    pub(crate) fn push_level(
        &mut self,
        name: &str,
        value: f64,
        samples: usize,
        level: Option<f64>,
    ) {
        let unit = match self.spec.metric(name) {
            Some(m) => m.unit.clone(),
            None => panic!("metric `{name}` is not declared in BENCHMARK.json"),
        };
        self.list.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples: samples as u64,
            level,
        });
    }

    /// The metrics in `BENCHMARK.json` order.
    ///
    /// # Panics
    ///
    /// Panics if a metric the mode declares was not pushed.
    pub(crate) fn finish(mut self, traced: bool) -> Vec<Metric> {
        self.spec
            .metrics(traced)
            .iter()
            .map(|m| {
                let i = self
                    .list
                    .iter()
                    .position(|x| x.name == m.name)
                    .unwrap_or_else(|| panic!("metric `{}` was not measured", m.name));
                self.list.swap_remove(i)
            })
            .collect()
    }
}

/// `std::thread::available_parallelism`, or 1 when unknown.
pub fn available_parallelism() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u64)
}

/// One finished trial.
struct Trial {
    setup_s: f64,
    run_s: f64,
    vectors: u64,
    coverage: u64,
    /// Peak live heap of the trial, set-up included, in MiB.
    heap_mb: f64,
    ok: bool,
}

/// Whether the closed loop should start another trial: the first round
/// always runs; later trials start only if one more of mean length
/// (`spent / done`) still ends inside `budget`. All times in one unit.
pub(crate) fn another(done: u64, round: u64, spent: f64, elapsed: f64, budget: f64) -> bool {
    done < round || elapsed + spent / done as f64 <= budget
}

/// Runs `w` untraced for `seconds` and reports every end-to-end metric.
pub fn end_to_end(spec: &Spec, w: &Workload, seed: u64, seconds: f64) -> RunRecord {
    let start = Instant::now();
    let mut setups = Vec::new();
    if w.kind == Kind::Campaign {
        for _ in 0..EXTRA_SETUPS {
            let t = Instant::now();
            black_box(build(&w.sources[0], w.config(seed)));
            setups.push(t.elapsed().as_secs_f64());
        }
    }
    let mut trials: Vec<Trial> = Vec::new();
    let mut spent_ms = 0.0;
    let mut counts = Vec::new();
    let mut i = 0u64;
    let elapsed_ms = || start.elapsed().as_secs_f64() * 1e3;
    while another(i, w.round(), spent_ms, elapsed_ms(), seconds * 1e3) {
        let (src, trial_seed) = w.trial(i, seed);
        let heap_base = heap::reset_peak();
        let t0 = Instant::now();
        let mut fuzzer = build(src, w.config(trial_seed));
        let t1 = Instant::now();
        let (report, found) = match w.kind {
            Kind::Campaign => (Some(fuzzer.run()), None),
            Kind::BugHunt => (
                None,
                fuzzer.run_until_bug(src.target.expect("bug hunts name their property")),
            ),
        };
        let t2 = Instant::now();
        let heap_mb = (heap::peak() - heap_base) as f64 / (1024.0 * 1024.0);
        let (vectors, coverage, ok) = match &report {
            Some(r) => {
                if i == 0 {
                    counts = exact_counts(r);
                }
                let ok = campaign_ok(src, w.vectors, r);
                (r.vectors, r.coverage_points, ok)
            }
            None => {
                if i < w.round() {
                    add_counts(&mut counts, exact_counts(&fuzzer.result()));
                }
                let ok = found.is_some_and(|v| v <= w.vectors);
                (fuzzer.vectors(), fuzzer.coverage_points() as u64, ok)
            }
        };
        let trial = Trial {
            setup_s: (t1 - t0).as_secs_f64(),
            run_s: (t2 - t1).as_secs_f64(),
            vectors,
            coverage,
            heap_mb,
            ok,
        };
        spent_ms += (t2 - t0).as_secs_f64() * 1e3;
        setups.push(trial.setup_s);
        trials.push(trial);
        i += 1;
    }

    let n = trials.len();
    let per_trial = |f: fn(&Trial) -> f64| trials.iter().map(f).collect::<Vec<f64>>();
    let totals_ms = per_trial(|t| (t.setup_s + t.run_s) * 1e3);
    let vectors = per_trial(|t| t.vectors as f64);
    let t = tail(&totals_ms).expect("at least one trial ran");
    let mut m = Metrics::new(spec);
    m.push("setup_s", median(&setups), setups.len());
    m.push(
        "vectors_per_s",
        vectors.iter().sum::<f64>() / per_trial(|t| t.run_s).iter().sum::<f64>(),
        n,
    );
    m.push("trial_ms_p50", median(&totals_ms), n);
    m.push_level("trial_ms_tail", t.value, t.samples, Some(t.level));
    m.push(
        "coverage_points",
        mean(&per_trial(|t| t.coverage as f64)),
        n,
    );
    m.push("trial_vectors_mean", mean(&vectors), n);
    m.push("peak_heap_mb", median(&per_trial(|t| t.heap_mb)), n);
    let failed = trials.iter().filter(|t| !t.ok).count() as u64;
    RunRecord {
        workload: w.name.to_string(),
        seed,
        seconds,
        traced: false,
        available_parallelism: available_parallelism(),
        correct: failed == 0,
        attempted: n as u64,
        failed,
        metrics: m.finish(false),
        counts,
        non_repeating: Vec::new(),
    }
}

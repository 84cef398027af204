//! The traced run: per-layer metrics of one workload.
//!
//! Each round runs every trial three ways with the same seed: untraced
//! (the reference wall time and the exact work counts), with a
//! wall-clock telemetry collector installed (phase shares and tracing
//! overhead), and through the layer loop (per-call spans and the
//! solver-model oracle). The first round's untraced trials run twice
//! to check that the exact counts repeat.
//!
//! Operations attempted are the untraced trials, the layer-loop trials
//! and the oracle's model replays; failures are broken campaign
//! invariants, layer-loop divergence and replays that miss.

use crate::layers::{self, Call, Spans};
use crate::measure::{another, available_parallelism, Metrics};
use crate::schema::RunRecord;
use crate::spec::Spec;
use crate::stats::{median, tail};
use crate::workload::{add_counts, build, campaign_ok, exact_counts, Kind, Source, Workload};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use symbfuzz_core::{CampaignResult, Strategy, SymbFuzz};
use symbfuzz_props::Property;
use symbfuzz_sim::Simulator;
use symbfuzz_symexec::SymbolicEngine;
use symbfuzz_telemetry::{Collector, Phase};

/// Set-up repetitions per design: campaign workloads have one design,
/// bug hunts fourteen.
fn setup_reps(w: &Workload) -> usize {
    if w.kind == Kind::Campaign {
        21
    } else {
        3
    }
}

/// Set-up span names, in report order.
const SETUP_SPANS: [&str; 6] = [
    "hdl.parse_us",
    "netlist.elaborate_us",
    "sim.new_us",
    "props.parse_us",
    "fuzz.new_us",
    "symexec.engine_new_us",
];

/// Times each set-up step separately; returns per-step samples in µs.
fn setup_spans(w: &Workload, seed: u64) -> Vec<Vec<f64>> {
    let mut samples = vec![Vec::new(); SETUP_SPANS.len()];
    let mut lap = |step: usize, t: &mut Instant| {
        let now = Instant::now();
        samples[step].push((now - *t).as_secs_f64() * 1e6);
        *t = now;
    };
    for _ in 0..setup_reps(w) {
        for src in &w.sources {
            let mut t = Instant::now();
            let file = symbfuzz_hdl::parse(src.rtl).expect("benchmark RTL parses");
            lap(0, &mut t);
            let design = Arc::new(
                symbfuzz_netlist::elaborate(&file, src.top).expect("benchmark RTL elaborates"),
            );
            lap(1, &mut t);
            black_box(Simulator::new(Arc::clone(&design)));
            lap(2, &mut t);
            for p in &src.props {
                black_box(Property::parse(&p.name, &p.text, &design).expect("properties compile"));
            }
            lap(3, &mut t);
            let config = w.config(seed);
            black_box(
                SymbFuzz::new(Arc::clone(&design), Strategy::SymbFuzz, config, &src.props)
                    .expect("properties compile"),
            );
            lap(4, &mut t);
            black_box(SymbolicEngine::new(design));
            lap(5, &mut t);
        }
    }
    samples
}

/// Runs one trial to completion and returns its report, wall time and
/// correctness. A `collector` is installed before the first vector.
fn trial(
    w: &Workload,
    src: &Source,
    seed: u64,
    collector: Option<Arc<Collector>>,
) -> (CampaignResult, f64, bool) {
    let mut fuzzer = build(src, w.config(seed));
    if let Some(c) = collector {
        fuzzer.install_telemetry(c);
    }
    let t = Instant::now();
    match w.kind {
        Kind::Campaign => {
            let r = fuzzer.run();
            let wall = t.elapsed().as_secs_f64();
            let ok = campaign_ok(src, w.vectors, &r);
            (r, wall, ok)
        }
        Kind::BugHunt => {
            let found = fuzzer.run_until_bug(src.target.expect("bug hunts name their property"));
            let wall = t.elapsed().as_secs_f64();
            (fuzzer.result(), wall, found.is_some())
        }
    }
}

/// Telemetry phases whose self time is reported as a share.
const PHASES: [Phase; 6] = [
    Phase::Mutate,
    Phase::Settle,
    Phase::Props,
    Phase::Symbolic,
    Phase::Solve,
    Phase::Reset,
];

/// Runs `w` traced for `seconds`; returns the record and the spans.
pub fn per_layer(spec: &Spec, w: &Workload, seed: u64, seconds: f64) -> (RunRecord, Spans) {
    let start = Instant::now();
    let setup = setup_spans(w, seed);
    let mut spans = Spans::default();
    let (mut wall_untraced, mut wall_traced) = (0.0, 0.0);
    let mut phase_us = [0u64; PHASES.len()];
    let mut counts = Vec::new();
    let mut non_repeating: Vec<String> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut solves, mut reached, mut checks, mut x_targets) = (0u64, 0u64, 0u64, 0u64);
    let mut spent_ms = 0.0;
    let mut round = 0u64;
    while another(
        round,
        1,
        spent_ms,
        start.elapsed().as_secs_f64() * 1e3,
        seconds * 1e3,
    ) {
        let t_round = Instant::now();
        for k in 0..w.round() {
            let i = round * w.round() + k;
            let (src, trial_seed) = w.trial(i, seed);
            let (r, wall, ok) = trial(w, src, trial_seed, None);
            wall_untraced += wall;
            attempted += 1;
            failed += u64::from(!ok);
            if round == 0 {
                let (again, _, _) = trial(w, src, trial_seed, None);
                let (first, second) = (exact_counts(&r), exact_counts(&again));
                for ((name, a), (_, b)) in first.iter().zip(&second) {
                    if a != b && !non_repeating.contains(name) {
                        non_repeating.push(name.clone());
                    }
                }
                add_counts(&mut counts, first);
            }

            let (rt, wall, _) = trial(w, src, trial_seed, Some(Arc::new(Collector::monotonic())));
            wall_traced += wall;
            for (slot, phase) in phase_us.iter_mut().zip(PHASES) {
                *slot += rt
                    .telemetry
                    .phases
                    .iter()
                    .find(|p| p.phase == phase.name())
                    .map_or(0, |p| p.self_micros);
            }

            let out = layers::run(w, src, trial_seed, i, &mut spans);
            solves += out.solves;
            reached += out.reached;
            checks += out.checks;
            x_targets += out.x_targets;
            attempted += 1 + out.checks;
            failed += out.mismatches;
            let detected = r.bugs.first().map(|b| b.vectors);
            if out.coverage != r.coverage_points
                || (w.kind == Kind::BugHunt && out.detected != detected)
            {
                eprintln!(
                    "perfbench: {} seed {trial_seed}: the layer loop diverged from SymbFuzz::run",
                    src.name
                );
                failed += 1;
            }
        }
        spent_ms += t_round.elapsed().as_secs_f64() * 1e3;
        round += 1;
    }

    let trials = (round * w.round()) as usize;
    let mut m = Metrics::new(spec);
    let mut accounted = 0.0;
    for (us, phase) in phase_us.iter().zip(PHASES) {
        let share = *us as f64 / (wall_traced * 1e6);
        accounted += share;
        m.push(&format!("fuzz.{}_share", phase.name()), share, trials);
    }
    m.push("fuzz.unaccounted_share", 1.0 - accounted, trials);
    m.push(
        "telemetry.trace_overhead",
        wall_traced / wall_untraced,
        trials,
    );

    let mut call_share = 0.0;
    for call in Call::ALL {
        let d: Vec<f64> = spans.durations(call).iter().map(|&x| x as f64).collect();
        let stem = call.name();
        let share = d.iter().sum::<f64>() / spans.loop_ns as f64;
        call_share += share;
        m.push(&format!("{stem}.p50_ns"), median(&d), d.len());
        match tail(&d) {
            Some(t) => m.push_level(
                &format!("{stem}.tail_ns"),
                t.value,
                t.samples,
                Some(t.level),
            ),
            None => m.push(&format!("{stem}.tail_ns"), 0.0, 0),
        }
        m.push(&format!("{stem}.calls"), d.len() as f64, d.len());
        m.push(&format!("{stem}.share"), share, d.len());
    }
    m.push(
        "symexec.reached_frac",
        frac(reached, solves),
        solves as usize,
    );
    m.push(
        "symexec.model_x_frac",
        frac(x_targets, checks),
        checks as usize,
    );
    m.push("layers.unaccounted_share", 1.0 - call_share, 1);

    for (name, s) in SETUP_SPANS.iter().zip(&setup) {
        m.push(name, median(s), s.len());
    }

    let count = |name: &str| {
        counts
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    };
    for name in [
        "sim.steps",
        "sim.snapshot_restores",
        "sim.snapshot_pages_copied",
        "sim.replayed_cycles",
        "symexec.solver_calls",
        "smt.sat_vars",
        "smt.sat_clauses",
        "smt.sat_conflicts",
        "smt.sat_decisions",
        "smt.budget_exhaustions",
        "fuzz.neg_cache_hits",
        "fuzz.rollbacks",
        "fuzz.full_resets",
    ] {
        m.push(name, count(name) as f64, 1);
    }
    let fast = count("sim.settle_fast_path");
    let calls = count("symexec.solver_calls");
    m.push(
        "sim.fast_path_frac",
        frac(fast, fast + count("sim.settle_escapes")),
        1,
    );
    m.push(
        "smt.clauses_per_call",
        frac(count("smt.sat_clauses"), calls),
        1,
    );
    m.push(
        "smt.conflicts_per_call",
        frac(count("smt.sat_conflicts"), calls),
        1,
    );
    m.push(
        "fuzz.solve_sat_frac",
        frac(count("fuzz.goal_sat"), count("fuzz.goal_attempts")),
        1,
    );
    m.push("counts.non_repeating", non_repeating.len() as f64, 1);

    let record = RunRecord {
        workload: w.name.to_string(),
        seed,
        seconds,
        traced: true,
        available_parallelism: available_parallelism(),
        correct: failed == 0,
        attempted,
        failed,
        metrics: m.finish(true),
        counts,
        non_repeating,
    };
    (record, spans)
}

/// `num / den`, or 0 when nothing was attempted.
fn frac(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

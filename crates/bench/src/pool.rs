//! Deterministic scoped-thread campaign pool.
//!
//! Campaigns are embarrassingly parallel: each one is a pure function
//! of `(design, strategy, budget, seed)`. The pool fans a fixed item
//! list across `jobs` worker threads pulling from an atomic work-queue
//! index, collects `(index, result)` pairs, and re-sorts by index — so
//! the merged output is byte-identical no matter how many workers ran
//! or in which order they finished. The only nondeterminism any
//! experiment report retains is wall-clock latency (Table 3's
//! `latency_s`), which is documented as such.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use symbfuzz_core::{CovMap, FlightRow, SolverCacheBlock, TelemetryBlock, VmProfileBlock};
use symbfuzz_telemetry::{merge_flight, FlightSample, Mechanism, MetricsSnapshot};

/// Number of workers to use when `--jobs` is not given: all available
/// cores (reports are deterministic regardless, see [`run_pool`]).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs `f(index, &items[index])` for every item, fanning the work
/// across up to `jobs` scoped threads, and returns the results in item
/// order. With `jobs <= 1` (or a single item) everything runs on the
/// calling thread; output is identical either way.
pub fn run_pool<I, T, F>(items: &[I], jobs: usize, f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I) -> T + Sync,
{
    let jobs = jobs.max(1).min(items.len());
    if jobs <= 1 {
        return items.iter().enumerate().map(|(i, it)| f(i, it)).collect();
    }
    let next = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(items.len()));
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| {
                let mut local = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    local.push((i, f(i, &items[i])));
                }
                collected.lock().unwrap().extend(local);
            });
        }
    });
    let mut pairs = collected.into_inner().unwrap();
    pairs.sort_by_key(|&(i, _)| i);
    pairs.into_iter().map(|(_, t)| t).collect()
}

/// Splits `--jobs N` / `--jobs=N` / `-j N` / `-jN` out of an argument
/// list, returning the remaining positional arguments and the job
/// count (defaulting to [`default_jobs`], floored at 1).
pub fn split_jobs<A: Iterator<Item = String>>(args: A) -> (Vec<String>, usize) {
    let mut jobs = default_jobs();
    let mut rest = Vec::new();
    let mut args = args.peekable();
    while let Some(a) = args.next() {
        if a == "--jobs" || a == "-j" {
            if let Some(v) = args.next().and_then(|v| v.parse().ok()) {
                jobs = v;
            }
        } else if let Some(v) = a.strip_prefix("--jobs=") {
            if let Ok(v) = v.parse() {
                jobs = v;
            }
        } else if let Some(v) = a.strip_prefix("-j") {
            if let Ok(v) = v.parse() {
                jobs = v;
            }
        } else {
            rest.push(a);
        }
    }
    (rest, jobs.max(1))
}

/// [`split_jobs`] over the process arguments (program name skipped).
pub fn parse_jobs() -> (Vec<String>, usize) {
    split_jobs(std::env::args().skip(1))
}

/// Merges per-task telemetry blocks into one campaign-wide block,
/// folding in task-index order. Counters, event counts and phase
/// statistics sum; gauges keep the high-water mark. Because every
/// per-task block is deterministic (the default [`symbfuzz_telemetry::ManualClock`])
/// and [`run_pool`] returns results in item order, the merged block is
/// byte-identical at any `--jobs N`.
pub fn merge_telemetry<'a, I>(blocks: I) -> TelemetryBlock
where
    I: IntoIterator<Item = &'a TelemetryBlock>,
{
    let mut acc = MetricsSnapshot::default();
    for b in blocks {
        acc.merge(&b.to_snapshot());
    }
    TelemetryBlock::from(acc)
}

/// Folds the per-mechanism attribution tallies of several campaigns'
/// covmap artifacts into one `(mechanism, nodes, edges)` list in
/// [`Mechanism::ALL`] order, folding in iteration (task) order. Node
/// ids are campaign-local, so covmaps merge as tallies, not as maps;
/// like [`merge_telemetry`] the result is byte-identical at any
/// `--jobs N` because [`run_pool`] returns campaigns in item order.
pub fn merge_covmap_counts<'a, I>(maps: I) -> Vec<(String, u64, u64)>
where
    I: IntoIterator<Item = &'a CovMap>,
{
    let mut acc: Vec<(String, u64, u64)> = Mechanism::ALL
        .iter()
        .map(|m| (m.name().to_string(), 0, 0))
        .collect();
    for m in maps {
        for (i, (_, nodes, edges)) in m.mechanism_counts().into_iter().enumerate() {
            acc[i].1 += nodes;
            acc[i].2 += edges;
        }
    }
    acc
}

/// Merges per-task flight recordings into one canonical stream, sample
/// by sample keyed on the interval index (see
/// [`symbfuzz_telemetry::merge_flight`]): monotone fields sum, gauges
/// keep the elementwise high-water mark, `task` collapses to 0. Uneven
/// streams are fine — an interval present in only some tasks merges
/// what exists. Because every per-task stream is deterministic under
/// the vector-count clock and [`run_pool`] returns results in item
/// order, the merged stream — and therefore the rendered
/// `flight.jsonl` — is byte-identical at any `--jobs N`.
pub fn merge_flight_rows<'a, I>(streams: I) -> Vec<FlightRow>
where
    I: IntoIterator<Item = &'a [FlightRow]>,
{
    let streams: Vec<Vec<FlightSample>> = streams
        .into_iter()
        .map(|rows| rows.iter().map(FlightRow::to_sample).collect())
        .collect();
    merge_flight(&streams).iter().map(FlightRow::from).collect()
}

/// Merges per-task VM-profiler blocks: cone rows fold by
/// `(proc_index, label)` with all tallies summed, then re-sort
/// hottest-first (op units descending, process index breaking ties);
/// op-class histograms fold by class name in first-seen order; design
/// totals sum. `None` inputs (campaigns run with the recorder off)
/// contribute nothing; the merge is `None` only when every input is.
pub fn merge_vm_profiles<'a, I>(blocks: I) -> Option<VmProfileBlock>
where
    I: IntoIterator<Item = Option<&'a VmProfileBlock>>,
{
    let mut acc: Option<VmProfileBlock> = None;
    for b in blocks.into_iter().flatten() {
        let acc = acc.get_or_insert_with(VmProfileBlock::default);
        for row in &b.rows {
            match acc
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
                None => acc.rows.push(row.clone()),
            }
        }
        for (class, n) in &b.op_classes {
            match acc.op_classes.iter_mut().find(|(c, _)| c == class) {
                Some((_, m)) => *m += n,
                None => acc.op_classes.push((class.clone(), *n)),
            }
        }
        acc.total_execs += b.total_execs;
        acc.total_fast += b.total_fast;
        acc.total_escaped += b.total_escaped;
    }
    if let Some(acc) = &mut acc {
        acc.rows.sort_by(|a, b| {
            b.op_units
                .cmp(&a.op_units)
                .then(a.proc_index.cmp(&b.proc_index))
        });
    }
    acc
}

/// Merges per-task bitblast-cache blocks: all tallies sum, then the
/// session-reuse rate is recomputed from the merged totals (a mean of
/// per-task permille rates would weight idle campaigns equally with
/// busy ones). `None` inputs (campaigns run without
/// `incremental_solving`) contribute nothing; the merge is `None`
/// only when every input is.
pub fn merge_solver_caches<'a, I>(blocks: I) -> Option<SolverCacheBlock>
where
    I: IntoIterator<Item = Option<&'a SolverCacheBlock>>,
{
    let mut acc: Option<SolverCacheBlock> = None;
    for b in blocks.into_iter().flatten() {
        let acc = acc.get_or_insert_with(SolverCacheBlock::default);
        acc.frame_hits += b.frame_hits;
        acc.frame_misses += b.frame_misses;
        acc.goals += b.goals;
        acc.reused_goals += b.reused_goals;
    }
    if let Some(acc) = &mut acc {
        acc.reuse_milli = (acc.reused_goals * 1000)
            .checked_div(acc.goals)
            .unwrap_or(0);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_preserves_item_order() {
        let items: Vec<u64> = (0..37).collect();
        let out = run_pool(&items, 8, |i, &x| {
            // Uneven per-item work so completion order scrambles.
            std::thread::sleep(std::time::Duration::from_micros((x % 5) * 100));
            (i as u64, x * x)
        });
        for (i, &(idx, sq)) in out.iter().enumerate() {
            assert_eq!(idx, i as u64);
            assert_eq!(sq, (i * i) as u64);
        }
    }

    #[test]
    fn pool_is_identical_across_job_counts() {
        let items: Vec<u32> = (0..23).collect();
        let f = |i: usize, x: &u32| format!("{i}:{}", x.wrapping_mul(2654435761));
        let serial = run_pool(&items, 1, f);
        for jobs in [2, 4, 8, 16] {
            assert_eq!(run_pool(&items, jobs, f), serial, "jobs={jobs}");
        }
    }

    #[test]
    fn pool_handles_empty_and_oversubscribed() {
        let empty: Vec<u8> = Vec::new();
        assert!(run_pool(&empty, 8, |_, &x| x).is_empty());
        let one = [7u8];
        assert_eq!(run_pool(&one, 64, |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn solver_caches_merge_and_recompute_reuse() {
        let a = SolverCacheBlock {
            frame_hits: 6,
            frame_misses: 2,
            goals: 10,
            reused_goals: 8,
            reuse_milli: 800,
        };
        let b = SolverCacheBlock {
            frame_hits: 0,
            frame_misses: 2,
            goals: 10,
            reused_goals: 0,
            reuse_milli: 0,
        };
        let merged = merge_solver_caches([Some(&a), None, Some(&b)]).unwrap();
        assert_eq!(merged.frame_hits, 6);
        assert_eq!(merged.frame_misses, 4);
        assert_eq!(merged.goals, 20);
        // Recomputed from the merged totals (8/20), not averaged
        // per-task (which would read 400 here too — but only by luck;
        // an idle task must not drag the pooled rate down).
        assert_eq!(merged.reuse_milli, 400);
        assert!(merge_solver_caches([None, None]).is_none());
    }

    #[test]
    fn covmap_counts_merge_in_mechanism_order() {
        use symbfuzz_core::{NodeCov, ProvenanceRecord};
        let rec = |mechanism: &str, goal| ProvenanceRecord {
            vector: 1,
            mechanism: mechanism.into(),
            goal,
            checkpoint: None,
        };
        let mut a = CovMap::empty("SymbFuzz", "d");
        a.nodes.push(NodeCov {
            id: 0,
            first_cycle: 1,
            provenance: rec("random", None),
        });
        let mut b = CovMap::empty("SymbFuzz", "d");
        b.nodes.push(NodeCov {
            id: 0,
            first_cycle: 2,
            provenance: rec("solver", Some(0)),
        });
        let merged = merge_covmap_counts([&a, &b]);
        assert_eq!(merged[0], ("random".to_string(), 1, 0));
        assert_eq!(merged[1], ("solver".to_string(), 1, 0));
        assert_eq!(merged[2], ("replay".to_string(), 0, 0));
    }

    #[test]
    fn merge_telemetry_tolerates_uneven_blocks() {
        use symbfuzz_core::PhaseBlock;
        // A full task, a never-solved task whose mutate row is missing
        // its histogram, and a zero-vector task that serialised an
        // entirely empty block.
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
        let merged = merge_telemetry([&full, &never_solved, &zero_vectors]);
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
        let flipped = merge_telemetry([&zero_vectors, &never_solved, &full]);
        assert_eq!(flipped.phases[0].buckets, vec![1, 2, 0]);
        assert_eq!(flipped, merged, "merge is order-insensitive here");
    }

    #[test]
    fn flight_rows_merge_by_interval_across_uneven_streams() {
        let row = |interval: u64, task: u64, vectors: u64, gauge: u64| FlightRow {
            interval,
            t: interval * 10 + task,
            task,
            vectors,
            coverage: vectors / 10,
            nodes: 1,
            edges: 1,
            stagnant: task,
            d_counters: vec![vectors, 1],
            gauges: vec![gauge],
            d_events: vec![1],
            d_phase_micros: vec![5],
        };
        // Task 0 sampled intervals 1–3; task 1 started later and only
        // has 2–4 (uneven streams are the norm: campaigns end at
        // different vector counts).
        let a = vec![row(1, 0, 100, 3), row(2, 0, 100, 4), row(3, 0, 100, 2)];
        let b = vec![row(2, 1, 80, 9), row(3, 1, 80, 1), row(4, 1, 80, 1)];
        let merged = merge_flight_rows([a.as_slice(), b.as_slice()]);
        assert_eq!(
            merged.iter().map(|r| r.interval).collect::<Vec<_>>(),
            vec![1, 2, 3, 4]
        );
        for r in &merged {
            assert_eq!(r.task, 0, "merged stream is task-anonymous");
        }
        let at = |i: u64| merged.iter().find(|r| r.interval == i).unwrap();
        assert_eq!(at(1).vectors, 100);
        assert_eq!(at(2).vectors, 180, "overlapping intervals sum");
        assert_eq!(at(2).d_counters, vec![180, 2]);
        assert_eq!(at(2).gauges, vec![9], "gauges keep the elementwise max");
        assert_eq!(at(2).stagnant, 1, "stagnation keeps the max");
        assert_eq!(at(4).vectors, 80);
        // Identical regardless of stream order.
        let swapped = merge_flight_rows([b.as_slice(), a.as_slice()]);
        assert_eq!(swapped, merged);
    }

    #[test]
    fn vm_profiles_merge_and_resort() {
        use symbfuzz_core::ConeRow;
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
        // A recorder-off campaign contributes None and disappears.
        let merged = merge_vm_profiles([Some(&a), None, Some(&b)]).unwrap();
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
        assert!(merge_vm_profiles([None, None]).is_none());
    }

    #[test]
    fn split_jobs_accepts_all_spellings() {
        let split = |s: &str| split_jobs(s.split_whitespace().map(String::from));
        assert_eq!(split("5000 --jobs 4"), (vec!["5000".into()], 4));
        assert_eq!(
            split("--jobs=2 5000 1"),
            (vec!["5000".into(), "1".into()], 2)
        );
        assert_eq!(split("-j 8"), (Vec::<String>::new(), 8));
        assert_eq!(split("-j3 42"), (vec!["42".into()], 3));
        assert_eq!(split("--jobs 0").1, 1);
        let (rest, jobs) = split("1000 2000");
        assert_eq!(rest, vec!["1000".to_string(), "2000".to_string()]);
        assert!(jobs >= 1);
    }
}

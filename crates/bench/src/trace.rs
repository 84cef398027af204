//! Renderers behind the `tracedump` binary: a per-phase time table,
//! the per-campaign summary table, the per-goal solver cost table and
//! a coverage/stagnation timeline, all over records
//! [`crate::schema::parse_trace`] has checked.

use crate::schema::{uint, TraceRecord};
use std::collections::BTreeMap;
use symbfuzz_smt::trace_hist_quantile;
use symbfuzz_telemetry::{
    bucket_of, hist_quantile, Phase, HIST_BUCKETS, PHASE_RECORD, SUMMARY_RECORD,
};

// --- rendering -----------------------------------------------------------

fn fmt_micros(micros: u64) -> String {
    if micros >= 1_000_000 {
        format!("{:.2}s", micros as f64 / 1e6)
    } else if micros >= 1_000 {
        format!("{:.2}ms", micros as f64 / 1e3)
    } else {
        format!("{micros}µs")
    }
}

/// Renders the per-phase time table: span counts, self-time and share
/// of the total accounted time per [`Phase`], plus p50/p90/p99 span
/// durations estimated from the fixed log₄ histogram buckets each
/// span's `micros` falls into (see
/// [`symbfuzz_telemetry::hist_quantile`] — bucket-resolution estimates,
/// deterministic and merge-stable, not exact order statistics).
pub fn phase_table(records: &[TraceRecord]) -> String {
    let mut count = [0u64; Phase::COUNT];
    let mut micros = [0u64; Phase::COUNT];
    let mut buckets = [[0u64; HIST_BUCKETS]; Phase::COUNT];
    for r in records.iter().filter(|r| r.kind == PHASE_RECORD.kind) {
        if let Some(p) = Phase::parse(r.str("phase")) {
            let i = p as usize;
            count[i] += 1;
            micros[i] += r.num("micros");
            buckets[i][bucket_of(r.num("micros"))] += 1;
        }
    }
    let total: u64 = micros.iter().sum();
    let quantiles = |b: &[u64]| {
        format!(
            "{} | {} | {}",
            fmt_micros(hist_quantile(b, 0.50)),
            fmt_micros(hist_quantile(b, 0.90)),
            fmt_micros(hist_quantile(b, 0.99))
        )
    };
    let mut out = String::from(
        "| Phase | spans | self time | share | p50 | p90 | p99 |\n|---|---|---|---|---|---|---|\n",
    );
    for (i, p) in Phase::ALL.iter().enumerate() {
        out.push_str(&format!(
            "| {} | {} | {} | {:.1}% | {} |\n",
            p.name(),
            count[i],
            fmt_micros(micros[i]),
            100.0 * micros[i] as f64 / total.max(1) as f64,
            quantiles(&buckets[i])
        ));
    }
    let mut all = [0u64; HIST_BUCKETS];
    for b in &buckets {
        for (dst, src) in all.iter_mut().zip(b) {
            *dst += src;
        }
    }
    out.push_str(&format!(
        "| **total** | {} | {} | 100.0% | {} |\n",
        count.iter().sum::<u64>(),
        fmt_micros(total),
        quantiles(&all)
    ));
    out
}

/// Renders the end-of-campaign `Summary` records, one row per
/// campaign in trace order: the compiled-settle mix with the fast
/// path's hit rate, and the frame cache's hits, misses, hit rate and
/// warm-session reuse (`-` for a campaign that never built its
/// symbolic engine), plus a totals row. Empty when the trace has no
/// `Summary` record.
pub fn summary_table(records: &[TraceRecord]) -> String {
    const CACHE: [&str; 4] = ["frame_hits", "frame_misses", "goals", "reused_goals"];
    let rate = |part: u64, whole: u64| match whole {
        0 => "-".to_string(),
        _ => format!("{:.1}%", 100.0 * part as f64 / whole as f64),
    };
    let row = |task: &str, [fast, escapes, island, sweeps]: [u64; 4], cache: Option<[u64; 4]>| {
        let cache = match cache {
            Some([hits, misses, goals, reused]) => format!(
                "{hits} | {misses} | {} | {}",
                rate(hits, hits + misses),
                rate(reused, goals)
            ),
            None => "- | - | - | -".to_string(),
        };
        let hit = rate(fast, fast + escapes);
        format!("| {task} | {fast} | {escapes} | {hit} | {island} | {sweeps} | {cache} |\n")
    };
    let mut out = String::new();
    let (mut settle, mut cache) = ([0u64; 4], None::<[u64; 4]>);
    for r in records.iter().filter(|r| r.kind == SUMMARY_RECORD.kind) {
        let s = [
            "settle_fast_path",
            "settle_escapes",
            "x_island_cones",
            "settle_sweeps",
        ]
        .map(|f| r.num(f));
        let c = r
            .field(CACHE[0])
            .and_then(uint)
            .map(|_| CACHE.map(|f| r.num(f)));
        out.push_str(&row(&r.task.to_string(), s, c));
        // Counts sum; the X-island extent is a high-water mark.
        settle = [
            settle[0] + s[0],
            settle[1] + s[1],
            settle[2].max(s[2]),
            settle[3] + s[3],
        ];
        if let Some(c) = c {
            let all = cache.get_or_insert([0; 4]);
            for (sum, v) in all.iter_mut().zip(c) {
                *sum += v;
            }
        }
    }
    if out.is_empty() {
        return out;
    }
    format!(
        "| task | fast path | escapes | hit rate | max X-island | sweeps \
         | frame hits | misses | cache hit rate | session reuse |\n\
         |---|---|---|---|---|---|---|---|---|---|\n{out}{}",
        row("**all**", settle, cache)
    )
}

/// Renders the per-goal solver cost table from `GoalSolveCost`
/// records: attempts, cumulative calls / conflicts / learned clauses /
/// restarts per `(register, value)` goal, plus p50/p90/p99 per-call
/// conflict quantiles read off the merged log₄ histograms (see
/// [`symbfuzz_smt::trace_hist_quantile`] — upper-bucket-edge
/// estimates, deterministic and merge-stable). Goals are ordered
/// hardest first (cumulative conflicts, then calls); empty when the
/// trace predates solver introspection.
pub fn goal_cost_table(records: &[TraceRecord]) -> String {
    struct Row {
        register: String,
        value: u64,
        attempts: u64,
        calls: u64,
        conflicts: u64,
        learned: u64,
        restarts: u64,
        hist: Vec<u64>,
        last_status: String,
    }
    let mut by_goal: BTreeMap<(&str, u64), Row> = BTreeMap::new();
    for r in records.iter().filter(|r| r.kind == "GoalSolveCost") {
        let (register, value) = (r.str("register"), r.num("value"));
        let row = by_goal.entry((register, value)).or_insert_with(|| Row {
            register: register.to_string(),
            value,
            attempts: 0,
            calls: 0,
            conflicts: 0,
            learned: 0,
            restarts: 0,
            hist: Vec::new(),
            last_status: String::new(),
        });
        row.attempts += 1;
        row.calls += r.num("calls");
        row.conflicts += r.num("conflicts");
        row.learned += r.num("learned");
        row.restarts += r.num("restarts");
        let hist = r.arr("hist");
        if row.hist.len() < hist.len() {
            row.hist.resize(hist.len(), 0);
        }
        for (dst, src) in row.hist.iter_mut().zip(&hist) {
            *dst += src;
        }
        row.last_status = r.str("status").to_string();
    }
    if by_goal.is_empty() {
        return String::new();
    }
    let mut rows: Vec<Row> = by_goal.into_values().collect();
    rows.sort_by(|a, b| {
        (b.conflicts, b.calls, &a.register, a.value).cmp(&(
            a.conflicts,
            a.calls,
            &b.register,
            b.value,
        ))
    });
    let mut out = String::from(
        "| goal | attempts | calls | conflicts | learned | restarts \
         | p50 | p90 | p99 | last status |\n|---|---|---|---|---|---|---|---|---|---|\n",
    );
    for g in &rows {
        out.push_str(&format!(
            "| `{}` = {} | {} | {} | {} | {} | {} | {} | {} | {} | {} |\n",
            g.register,
            g.value,
            g.attempts,
            g.calls,
            g.conflicts,
            g.learned,
            g.restarts,
            trace_hist_quantile(&g.hist, 0.50),
            trace_hist_quantile(&g.hist, 0.90),
            trace_hist_quantile(&g.hist, 0.99),
            g.last_status
        ));
    }
    out
}

/// Renders the campaign timeline: coverage growth, stagnation entries,
/// symbolic episodes, resets and bug detections, in record order.
pub fn timeline(records: &[TraceRecord]) -> String {
    let mut out = String::new();
    for r in records {
        let line = match r.kind.as_str() {
            "CoverageDelta" => format!(
                "coverage {} (+{}) at {} vectors",
                r.num("coverage"),
                r.num("delta"),
                r.num("vectors")
            ),
            "StagnationEnter" => format!(
                "stagnation after {} flat intervals at {} vectors",
                r.num("intervals"),
                r.num("vectors")
            ),
            "SymbolicEpisode" => {
                let cp = match r.field("checkpoint").and_then(uint) {
                    Some(n) => format!("checkpoint {n}"),
                    None => "reset state".into(),
                };
                format!(
                    "symbolic episode from {cp}: {} ({} eqns)",
                    r.str("solve_result"),
                    r.num("eqns")
                )
            }
            "BudgetExhausted" => format!(
                "solver budget exhausted ({}) at escalation level {} \
                 after {} conflicts / {} decisions",
                r.str("reason"),
                r.num("level"),
                r.num("conflicts"),
                r.num("decisions")
            ),
            "PartialReset" => format!("partial reset (replayed {} cycles)", r.num("prefix_len")),
            "FullReset" => "full reset".into(),
            "BugFired" => format!(
                "BUG `{}` fired at vector {}",
                r.str("property"),
                r.num("vector")
            ),
            "NodeCovered" => {
                let goal = match r.field("goal").and_then(uint) {
                    Some(g) => format!(" (goal {g})"),
                    None => String::new(),
                };
                format!(
                    "node {} covered via {}{goal} at vector {}",
                    r.num("node"),
                    r.str("mechanism"),
                    r.num("vector")
                )
            }
            "EdgeCovered" => format!(
                "edge {} -> {} covered via {} at vector {}",
                r.num("src"),
                r.num("dst"),
                r.str("mechanism"),
                r.num("vector")
            ),
            "CoreExtracted" => {
                let core = r.num("core");
                format!(
                    "assumption core for `{}` = {}: {} registers blamed ({})",
                    r.str("register"),
                    r.num("value"),
                    r.num("blamed"),
                    if core == 0 {
                        "hot-signal fallback".to_string()
                    } else {
                        format!("core of {core}")
                    }
                )
            }
            // SmtSolve, Phase and GoalSolveCost records stay in the
            // table views.
            _ => continue,
        };
        out.push_str(&format!("t={:<10} task={} {}\n", r.t, r.task, line));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{parse_line, parse_trace};
    use symbfuzz_telemetry::{Event, SolveStatus, UnknownReason, FLIGHT_RECORD};

    fn json_lines(records: &[TraceRecord]) -> String {
        records.iter().map(|r| r.to_json() + "\n").collect()
    }

    #[test]
    fn phase_table_shares_sum_to_total() {
        let text = "\
{\"t\":10,\"task\":0,\"kind\":\"Phase\",\"phase\":\"mutate\",\"micros\":30}
{\"t\":20,\"task\":0,\"kind\":\"Phase\",\"phase\":\"settle\",\"micros\":60}
{\"t\":30,\"task\":0,\"kind\":\"Phase\",\"phase\":\"solve\",\"micros\":10}
";
        let recs = parse_trace(text).unwrap();
        let table = phase_table(&recs);
        // A single span lands in one log₄ bucket, so every quantile
        // reads the same bucket-resolution estimate (16–64µs → 63µs).
        assert!(
            table.contains("| mutate | 1 | 30µs | 30.0% | 63µs | 63µs | 63µs |"),
            "{table}"
        );
        assert!(
            table.contains("| settle | 1 | 60µs | 60.0% | 63µs | 63µs | 63µs |"),
            "{table}"
        );
        // The totals row interpolates across the merged histogram:
        // one span in [4,16), two in [16,64).
        assert!(
            table.contains("| **total** | 3 | 100µs | 100.0% | 28µs | 57µs | 63µs |"),
            "{table}"
        );
    }

    #[test]
    fn flight_records_validate_and_round_trip() {
        // The exact shape `Sampler::maybe_sample` mirrors into the
        // trace stream.
        let text = "\
{\"t\":100,\"task\":2,\"kind\":\"Flight\",\"interval\":1,\"vectors\":1000,\"coverage\":42,\
\"stagnant\":0,\"d_vectors\":1000,\"d_solver_calls\":3,\"d_settle_fast_path\":900,\
\"d_settle_escapes\":100}
";
        let recs = parse_trace(text).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].kind, FLIGHT_RECORD.kind);
        assert_eq!(recs[0].num("interval"), 1);
        assert_eq!(recs[0].num("d_vectors"), 1000);
        // Canonical re-serialization is byte-identical.
        assert_eq!(json_lines(&recs), text);
        // Flight records are heartbeat summaries, not timeline events.
        assert_eq!(timeline(&recs), "");
        // A truncated flight record is a schema violation.
        assert!(parse_line(
            "{\"t\":100,\"task\":2,\"kind\":\"Flight\",\"interval\":1,\"vectors\":1000}"
        )
        .is_err());
    }

    #[test]
    fn summary_records_validate_and_tabulate() {
        // The shape `SymbFuzz` writes when `run` returns: with the
        // frame-cache figures, and `null` for a campaign that never
        // built its symbolic engine.
        let text = "\
{\"t\":1,\"task\":0,\"kind\":\"Summary\",\"settle_fast_path\":75,\"settle_escapes\":25,\
\"x_island_cones\":3,\"settle_sweeps\":100,\"frame_hits\":30,\"frame_misses\":10,\"goals\":5,\
\"reused_goals\":4}
{\"t\":2,\"task\":1,\"kind\":\"Summary\",\"settle_fast_path\":0,\"settle_escapes\":0,\
\"x_island_cones\":0,\"settle_sweeps\":0,\"frame_hits\":null,\"frame_misses\":null,\
\"goals\":null,\"reused_goals\":null}
";
        let recs = parse_trace(text).unwrap();
        let table = summary_table(&recs);
        assert!(
            table.contains("| 0 | 75 | 25 | 75.0% | 3 | 100 | 30 | 10 | 75.0% | 80.0% |"),
            "{table}"
        );
        assert!(
            table.contains("| 1 | 0 | 0 | - | 0 | 0 | - | - | - | - |"),
            "{table}"
        );
        assert!(
            table.contains("| **all** | 75 | 25 | 75.0% | 3 | 100 | 30 | 10 | 75.0% | 80.0% |"),
            "{table}"
        );
        // Canonical re-serialization round-trips.
        assert_eq!(json_lines(&recs), text);
        // Missing fields are a schema violation.
        assert!(
            parse_line("{\"t\":1,\"task\":0,\"kind\":\"Summary\",\"settle_fast_path\":1}").is_err()
        );
        // The two summary kinds it replaced are unknown kinds now.
        for old in [
            "{\"t\":1,\"task\":0,\"kind\":\"Metrics\",\"settle_fast_path\":1,\
             \"settle_escapes\":0,\"x_island_cones\":0,\"settle_sweeps\":1}",
            "{\"t\":1,\"task\":0,\"kind\":\"SolverCache\",\"bitblast_cache_hits\":30,\
             \"bitblast_cache_misses\":10,\"session_reuse_milli\":800}",
        ] {
            let err = parse_line(old).unwrap_err();
            assert!(err.starts_with("unknown kind"), "{err}");
        }
        // Traces without Summary records render nothing.
        assert_eq!(summary_table(&[]), "");
    }

    #[test]
    fn solver_cost_records_round_trip_and_tabulate() {
        use symbfuzz_smt::TRACE_HIST_BUCKETS;
        let mut hist = vec![0u64; TRACE_HIST_BUCKETS];
        hist[1] = 8; // eight calls with ≤3 conflicts
        hist[3] = 2; // two calls with ≤63 conflicts
        let events = [
            Event::GoalSolveCost {
                register: "st".into(),
                value: 3,
                status: SolveStatus::Unknown(UnknownReason::Conflicts),
                depth: 4,
                calls: 10,
                conflicts: 40,
                learned: 30,
                restarts: 2,
                hist: hist.clone(),
            },
            Event::GoalSolveCost {
                register: "st".into(),
                value: 3,
                status: SolveStatus::Unknown(UnknownReason::Conflicts),
                depth: 5,
                calls: 10,
                conflicts: 60,
                learned: 45,
                restarts: 3,
                hist,
            },
            Event::GoalSolveCost {
                register: "mode".into(),
                value: 1,
                status: SolveStatus::Sat,
                depth: 2,
                calls: 2,
                conflicts: 0,
                learned: 0,
                restarts: 0,
                hist: vec![0; TRACE_HIST_BUCKETS],
            },
            Event::CoreExtracted {
                register: "st".into(),
                value: 3,
                core: 2,
                blamed: 2,
            },
            Event::CoreExtracted {
                register: "st".into(),
                value: 7,
                core: 0,
                blamed: 1,
            },
        ];
        let text: String = events
            .iter()
            .enumerate()
            .map(|(i, e)| e.to_json_line(i as u64, 0) + "\n")
            .collect();
        let records = parse_trace(&text).unwrap();
        // Canonical re-serialization (array field included) is
        // byte-identical and re-validates.
        assert_eq!(json_lines(&records), text);
        assert_eq!(records[0].arr("hist").len(), TRACE_HIST_BUCKETS);

        // Both attempts of the `st`=3 goal fold into one hardest-first
        // row; the merged 20-call histogram keeps its quantile edges.
        let table = goal_cost_table(&records);
        assert!(
            table
                .contains("| `st` = 3 | 2 | 20 | 100 | 75 | 5 | 3 | 63 | 63 | unknown:conflicts |"),
            "{table}"
        );
        assert!(
            table.contains("| `mode` = 1 | 1 | 2 | 0 | 0 | 0 | 0 | 0 | 0 | sat |"),
            "{table}"
        );
        let st = table.find("`st` = 3").unwrap();
        let mode = table.find("`mode` = 1").unwrap();
        assert!(st < mode, "hardest goal first:\n{table}");

        // Core extractions narrate in the timeline; costs stay tabular.
        let tl = timeline(&records);
        assert!(
            tl.contains("assumption core for `st` = 3: 2 registers blamed (core of 2)"),
            "{tl}"
        );
        assert!(
            tl.contains("assumption core for `st` = 7: 1 registers blamed (hot-signal fallback)"),
            "{tl}"
        );
        assert!(!tl.contains("GoalSolveCost"));

        // Traces without solver-cost records render nothing.
        assert_eq!(goal_cost_table(&[]), "");
    }

    #[test]
    fn timeline_narrates_coverage_and_bugs() {
        let text = "\
{\"t\":5,\"task\":1,\"kind\":\"CoverageDelta\",\"vectors\":100,\"coverage\":8,\"delta\":8}
{\"t\":6,\"task\":1,\"kind\":\"StagnationEnter\",\"vectors\":300,\"intervals\":2}
{\"t\":7,\"task\":1,\"kind\":\"BudgetExhausted\",\"reason\":\"conflicts\",\"level\":1,\
\"conflicts\":500,\"decisions\":1200,\"propagations\":9000}
{\"t\":8,\"task\":1,\"kind\":\"BugFired\",\"property\":\"leak\",\"vector\":321}
";
        let recs = parse_trace(text).unwrap();
        let tl = timeline(&recs);
        assert!(tl.contains("coverage 8 (+8) at 100 vectors"));
        assert!(tl.contains("stagnation after 2 flat intervals"));
        assert!(
            tl.contains("solver budget exhausted (conflicts) at escalation level 1"),
            "{tl}"
        );
        assert!(tl.contains("BUG `leak` fired at vector 321"));
    }
}

//! Solver-introspection report: renders the merged per-goal solver
//! blocks of introspected campaigns as one self-contained
//! explainability artifact (JSON + HTML) — the engine behind the
//! `solverscope` binary.
//!
//! The report answers *where the solver budget went* (a cost ranking
//! with p50/p90/p99 per-call conflict quantiles), *why failed goals
//! failed* (assumption-core blame sets attributing `Unreachable` /
//! `Exhausted` outcomes to concrete state registers), and *how the
//! search behaved over time* (restart timelines plus learned clause
//! size / LBD histograms). Everything derives from deterministic
//! campaign state, so the JSON and HTML bytes are identical at any
//! `--jobs` count.

use crate::covreport::{esc, PALETTE};
use crate::experiments::{solverscope_profile, Outputs, ScopeProfileResult};
use serde::{Deserialize, Serialize};
use symbfuzz_core::{FuzzConfigBuilder, GoalIntrospection, GoalRow};
use symbfuzz_smt::{trace_hist_quantile, TRACE_HIST_BUCKETS};

/// Version stamp of the report schema (v2 added the per-design
/// `solver_cache` block; v3 folded the scope block into `profile`).
pub const SCOPEREPORT_VERSION: u32 = 3;

/// The solver-introspection report (versioned JSON).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScopeReport {
    /// Schema version ([`SCOPEREPORT_VERSION`]).
    pub version: u32,
    /// Input vectors per introspected campaign.
    pub max_vectors: u64,
    /// Per-solve conflict ceiling the campaigns ran under.
    pub solver_budget: u64,
    /// One entry per DUV, in [`crate::experiments::solverscope_profile`]
    /// order (`hard_factor` first, then the processor control, then
    /// the goal-dense fabric).
    pub designs: Vec<ScopeProfileResult>,
}

/// Builds the report by running the introspected campaign profile
/// under the command line's campaign knobs (`base`), through `out`.
pub fn build_scope_report(
    base: &FuzzConfigBuilder,
    out: &Outputs,
    max_vectors: u64,
    solver_budget: u64,
    jobs: usize,
) -> ScopeReport {
    ScopeReport {
        version: SCOPEREPORT_VERSION,
        max_vectors,
        solver_budget,
        designs: solverscope_profile(base, out, max_vectors, solver_budget, jobs),
    }
}

/// `(p50, p90, p99)` of the per exact-depth-call conflict counts, read
/// off the record's log₄ histogram (upper bucket edges, so
/// conservative).
pub fn conflict_quantiles(row: &GoalIntrospection) -> (u64, u64, u64) {
    (
        trace_hist_quantile(&row.call_conflict_hist, 0.50),
        trace_hist_quantile(&row.call_conflict_hist, 0.90),
        trace_hist_quantile(&row.call_conflict_hist, 0.99),
    )
}

// --- rendering -----------------------------------------------------------

/// Restart timelines of the costliest goals as one inline SVG: one
/// polyline per goal, x = restart index, y = conflicts at restart.
fn render_restart_curves(goals: &[(&GoalRow, &GoalIntrospection)]) -> String {
    let curves: Vec<&(&GoalRow, &GoalIntrospection)> = goals
        .iter()
        .filter(|(_, i)| i.restart_timeline.len() >= 2)
        .take(PALETTE.len())
        .collect();
    if curves.is_empty() {
        return "<p>No goal restarted more than once within its budget.</p>\n".to_string();
    }
    const W: f64 = 640.0;
    const H: f64 = 220.0;
    const ML: f64 = 52.0;
    const MB: f64 = 24.0;
    let max_x = curves
        .iter()
        .map(|(_, i)| i.restart_timeline.len() - 1)
        .max()
        .unwrap_or(1)
        .max(1);
    let max_y = curves
        .iter()
        .flat_map(|(_, i)| i.restart_timeline.iter().copied())
        .max()
        .unwrap_or(1)
        .max(1);
    let x = |i: usize| ML + (W - ML - 8.0) * i as f64 / max_x as f64;
    let y = |c: u64| (H - MB) - (H - MB - 8.0) * c as f64 / max_y as f64;
    let mut out = format!(
        "<svg viewBox=\"0 0 {W} {H}\" width=\"{W}\" height=\"{H}\" role=\"img\">\n\
         <rect x=\"{ML}\" y=\"8\" width=\"{:.1}\" height=\"{:.1}\" class=\"plot\"/>\n\
         <text x=\"{ML}\" y=\"{:.1}\" class=\"axis\">0</text>\
         <text x=\"{:.1}\" y=\"{:.1}\" class=\"axis\">{max_x} restarts</text>\
         <text x=\"4\" y=\"16\" class=\"axis\">{max_y}</text>\
         <text x=\"4\" y=\"30\" class=\"axis\">confl</text>\n",
        W - ML - 8.0,
        H - MB - 8.0,
        H - 8.0,
        W - 110.0,
        H - 8.0,
    );
    for (i, (g, intro)) in curves.iter().enumerate() {
        let color = PALETTE[i % PALETTE.len()];
        let points: Vec<String> = intro
            .restart_timeline
            .iter()
            .enumerate()
            .map(|(i, &c)| format!("{:.1},{:.1}", x(i), y(c)))
            .collect();
        out.push_str(&format!(
            "<polyline fill=\"none\" stroke=\"{color}\" stroke-width=\"1.5\" points=\"{}\"/>\n",
            points.join(" ")
        ));
        out.push_str(&format!(
            "<text x=\"{:.1}\" y=\"{:.1}\" fill=\"{color}\" class=\"axis\">{}={}</text>\n",
            ML + 6.0,
            20.0 + 13.0 * i as f64,
            esc(&g.register),
            g.value
        ));
    }
    out.push_str("</svg>\n");
    out
}

/// Upper edge label of log₄ bucket `i` (`0`, `3`, `15`, `63`, …).
fn bucket_edge(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        (1u64 << (2 * i)).saturating_sub(1)
    }
}

fn render_learning_table(goals: &[(&GoalRow, &GoalIntrospection)]) -> String {
    let mut out = String::from("<table><tr><th>goal</th><th>learned</th><th>histogram</th>");
    for i in 0..TRACE_HIST_BUCKETS {
        out.push_str(&format!("<th>≤{}</th>", bucket_edge(i)));
    }
    out.push_str("</tr>\n");
    for (g, i) in goals.iter().filter(|(_, i)| i.learned > 0) {
        for (label, hist) in [("clause size", &i.learned_size_hist), ("LBD", &i.lbd_hist)] {
            out.push_str(&format!(
                "<tr><td><code>{}</code> = {}</td><td>{}</td><td>{label}</td>",
                esc(&g.register),
                g.value,
                i.learned
            ));
            for b in hist {
                out.push_str(&format!("<td>{b}</td>"));
            }
            out.push_str("</tr>\n");
        }
    }
    out.push_str("</table>\n");
    out
}

/// Renders the report as one self-contained HTML page: inline CSS,
/// inline SVG, no scripts, no external references.
pub fn render_scope_html(r: &ScopeReport) -> String {
    let mut out = format!(
        "<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">\n\
         <title>solverscope</title>\n<style>\n\
         body{{font:14px/1.45 system-ui,sans-serif;margin:2em auto;max-width:64em;color:#222}}\n\
         table{{border-collapse:collapse;margin:0.8em 0}}\n\
         th,td{{border:1px solid #bbb;padding:0.25em 0.6em;text-align:left}}\n\
         th{{background:#f0f0f0}}\n\
         .plot{{fill:#fafafa;stroke:#ccc}}\n\
         .axis{{font-size:11px;fill:#555}}\n\
         code{{background:#f4f4f4;padding:0 0.2em}}\n\
         </style></head><body>\n\
         <h1>Solver introspection report</h1>\n\
         <p>Schema v{v}; {n} designs, {b} vectors per campaign, \
         per-solve conflict ceiling {c}.</p>\n",
        v = r.version,
        n = r.designs.len(),
        b = r.max_vectors,
        c = r.solver_budget
    );

    for d in &r.designs {
        let pct = (d.exhausted_blamed * 100)
            .checked_div(d.exhausted_goals)
            .unwrap_or(100);
        out.push_str(&format!(
            "<h2><code>{}</code></h2>\n\
             <p>{} campaigns merged; {} of {} exhausted goals attributed to a \
             blame set ({pct}%).</p>\n",
            esc(&d.design),
            d.campaigns,
            d.exhausted_blamed,
            d.exhausted_goals,
        ));
        if let Some(c) = &d.solver_cache {
            out.push_str(&format!(
                "<p>Bitblast cache: {} frame hits / {} misses \
                 ({:.1}% hit rate); {} of {} goal checks \
                 answered on a warm session ({:.1}% reuse).</p>\n",
                c.frame_hits,
                c.frame_misses,
                c.hit_rate_milli() as f64 / 10.0,
                c.reused_goals,
                c.goals,
                c.reuse_milli as f64 / 10.0
            ));
        }

        // Cost ranking, hardest first, with each goal's quantiles and
        // depth stats.
        let ranked = d.profile.hardest_first();
        out.push_str(
            "<h3>Cost ranking</h3>\n\
             <table><tr><th>goal</th><th>attempts</th><th>sat</th><th>unsat</th>\
             <th>exhausted</th><th>conflicts</th><th>learned</th><th>restarts</th>\
             <th>p50</th><th>p90</th><th>p99</th><th>depth μ/max</th>\
             <th>hottest signal</th></tr>\n",
        );
        for p in &ranked {
            let (q, depth, restarts, learned, hot) = match &p.introspection {
                Some(g) => (
                    conflict_quantiles(g),
                    format!("{}/{}", g.mean_conflict_depth(), g.conflict_depth_max),
                    g.restarts,
                    g.learned,
                    g.hot_signals
                        .first()
                        .map(|(n, p)| format!("<code>{}</code> ({p}‰)", esc(n)))
                        .unwrap_or_else(|| "—".to_string()),
                ),
                None => ((0, 0, 0), "—".to_string(), 0, 0, "—".to_string()),
            };
            out.push_str(&format!(
                "<tr><td><code>{}</code> = {}</td><td>{}</td><td>{}</td><td>{}</td>\
                 <td>{}</td><td>{}</td><td>{learned}</td><td>{restarts}</td>\
                 <td>{}</td><td>{}</td><td>{}</td><td>{depth}</td><td>{hot}</td></tr>\n",
                esc(&p.register),
                p.value,
                p.attempts,
                p.sat,
                p.unsat,
                p.exhausted,
                p.conflicts,
                q.0,
                q.1,
                q.2,
            ));
        }
        out.push_str("</table>\n");

        out.push_str("<h3>Exhaustion blame sets</h3>\n");
        let blamed: Vec<(&GoalRow, &GoalIntrospection)> = d
            .profile
            .introspected()
            .filter(|(_, i)| !i.blame.is_empty())
            .collect();
        if blamed.is_empty() {
            out.push_str("<p>No failed goals — nothing to blame.</p>\n");
        } else {
            out.push_str(
                "<table><tr><th>goal</th><th>attempts</th>\
                 <th>blamed state registers</th></tr>\n",
            );
            for (g, i) in &blamed {
                let blame = i
                    .blame
                    .iter()
                    .map(|b| format!("<code>{}</code>", esc(b)))
                    .collect::<Vec<_>>()
                    .join(", ");
                out.push_str(&format!(
                    "<tr><td><code>{}</code> = {}</td><td>{}</td><td>{blame}</td></tr>\n",
                    esc(&g.register),
                    g.value,
                    g.attempts
                ));
            }
            out.push_str("</table>\n");
        }

        // Costliest goals drive the curves (hardest first).
        let ranked: Vec<(&GoalRow, &GoalIntrospection)> = ranked
            .into_iter()
            .filter_map(|g| g.introspection.as_ref().map(|i| (g, i)))
            .collect();
        out.push_str("<h3>Restart timelines</h3>\n");
        out.push_str(&render_restart_curves(&ranked));
        out.push_str("<h3>Learned-clause histograms</h3>\n");
        out.push_str(&render_learning_table(&ranked));
    }

    out.push_str("</body></html>\n");
    out
}

/// Renders the report's Markdown summary (the `solverscope` binary's
/// stdout): one attribution line per design plus its cost head.
pub fn render_scope_markdown(r: &ScopeReport) -> String {
    let mut out = format!(
        "# Solver introspection — {} vectors, conflict ceiling {}\n\n\
         | design | campaigns | goals | exhausted | blamed | cache hit | reuse |\n\
         |---|---|---|---|---|---|---|\n",
        r.max_vectors, r.solver_budget
    );
    for d in &r.designs {
        let (hit, reuse) = match &d.solver_cache {
            Some(c) => (
                format!("{:.1}%", c.hit_rate_milli() as f64 / 10.0),
                format!("{:.3}", c.reuse_milli as f64 / 1000.0),
            ),
            None => ("-".to_string(), "-".to_string()),
        };
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {hit} | {reuse} |\n",
            d.design,
            d.campaigns,
            d.profile.introspected().count(),
            d.exhausted_goals,
            d.exhausted_blamed,
        ));
    }
    out.push('\n');
    for d in &r.designs {
        for p in d.profile.hardest_first().into_iter().take(3) {
            let blame = p
                .introspection
                .as_ref()
                .map(|i| i.blame.join(", "))
                .unwrap_or_default();
            out.push_str(&format!(
                "* {}: `{}` = {} — {} conflicts over {} attempts{}\n",
                d.design,
                p.register,
                p.value,
                p.conflicts,
                p.attempts,
                if blame.is_empty() {
                    String::new()
                } else {
                    format!("; blames {blame}")
                }
            ));
        }
    }
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use symbfuzz_core::SolverProfileBlock;

    fn row(register: &str, value: u64, blame: &[&str]) -> GoalRow {
        GoalRow {
            register: register.into(),
            value,
            attempts: 2,
            exhausted: 2,
            conflicts: 40,
            decisions: 80,
            propagations: 400,
            solver_calls: 10,
            deepest_unroll: 4,
            escalations: vec![0, 0],
            introspection: Some(GoalIntrospection {
                learned: 30,
                restarts: 3,
                learned_size_hist: vec![0; TRACE_HIST_BUCKETS],
                lbd_hist: vec![0; TRACE_HIST_BUCKETS],
                call_conflict_hist: {
                    let mut h = vec![0; TRACE_HIST_BUCKETS];
                    h[1] = 8; // eight calls with ≤3 conflicts
                    h[3] = 2; // two calls with ≤63 conflicts
                    h
                },
                restart_timeline: vec![16, 40, 90],
                conflict_depth_sum: 200,
                conflict_depth_max: 9,
                hot_signals: vec![("st".into(), 1000), ("lock".into(), 420)],
                blame: blame.iter().map(|s| s.to_string()).collect(),
            }),
            ..GoalRow::default()
        }
    }

    pub(crate) fn tiny_report() -> ScopeReport {
        let profile = SolverProfileBlock {
            goals: vec![row("st", 3, &["lock", "st"]), row("st", 5, &[])],
            total_attempts: 4,
            ..SolverProfileBlock::default()
        };
        ScopeReport {
            version: SCOPEREPORT_VERSION,
            max_vectors: 1_000,
            solver_budget: 500,
            designs: vec![ScopeProfileResult {
                design: "hard_factor".into(),
                solver_budget: 500,
                campaigns: 2,
                exhausted_goals: 2,
                exhausted_blamed: 1,
                profile,
                solver_cache: Some(symbfuzz_core::SolverCacheBlock {
                    frame_hits: 6,
                    frame_misses: 2,
                    goals: 10,
                    reused_goals: 8,
                    reuse_milli: 800,
                }),
            }],
        }
    }

    #[test]
    fn quantiles_read_log4_bucket_edges() {
        let g = row("st", 3, &[]).introspection.unwrap();
        // 8 calls in bucket 1 (≤3), 2 in bucket 3 (≤63): p50 lands in
        // bucket 1; p90 (9th of 10) and p99 cross into bucket 3.
        assert_eq!(conflict_quantiles(&g), (3, 63, 63));
    }

    #[test]
    fn html_is_self_contained_and_escaped() {
        let mut r = tiny_report();
        let intro = r.designs[0].profile.goals[0]
            .introspection
            .as_mut()
            .unwrap();
        intro.hot_signals[0].0 = "a<b".into();
        let html = render_scope_html(&r);
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("<svg"), "restart curves are inline SVG");
        assert!(html.contains("a&lt;b"), "signal names must be escaped");
        assert!(html.contains("Exhaustion blame sets"));
        assert!(!html.contains("<script"));
        assert!(!html.contains("http://") && !html.contains("https://"));
    }

    #[test]
    fn markdown_summarises_attribution() {
        let md = render_scope_markdown(&tiny_report());
        // 6/8 frame hits = 75.0 %, 800 milli reuse.
        assert!(
            md.contains("| hard_factor | 2 | 2 | 2 | 1 | 75.0% | 0.800 |"),
            "{md}"
        );
        assert!(md.contains("blames lock, st"));
    }
}

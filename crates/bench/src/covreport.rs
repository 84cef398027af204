//! Coverage-provenance report: joins per-strategy campaign results and
//! their embedded covmap artifacts into one self-contained
//! explainability artifact (JSON + HTML) — the engine behind the
//! `covreport` binary.
//!
//! The report answers, per strategy, *which mechanism earned which
//! coverage* (Fig. 4/5-style curves plus a per-mechanism attribution
//! table), *how each bug was reached* (Table 1-style rows with the
//! provenance chain of checkpoints behind the detecting input), *what
//! the checkpoint / partial-reset machinery saved* (§4.5 counters),
//! and *where the campaign is stuck* (the uncovered frontier with the
//! last blocking solve status). Everything derives from deterministic
//! campaign state, so the JSON and HTML bytes are identical at any
//! `--jobs` count.

use crate::schema::TraceRecord;
use serde::{Deserialize, Serialize};
use symbfuzz_core::{CampaignResult, CovMap, CoverageSample, FrontierRow};
use symbfuzz_telemetry::Mechanism;

/// Version stamp of the report schema.
pub const COVREPORT_VERSION: u32 = 1;

/// Nodes/edges first covered by one [`Mechanism`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MechanismCount {
    /// Mechanism name ([`Mechanism::name`]).
    pub mechanism: String,
    /// CFG nodes whose first visit this mechanism generated.
    pub nodes: u64,
    /// CFG edges whose first crossing this mechanism generated.
    pub edges: u64,
}

/// One strategy's coverage outcome with attribution and reset savings.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StrategyReport {
    /// Strategy name.
    pub strategy: String,
    /// Input vectors consumed.
    pub vectors: u64,
    /// Distinct CFG nodes covered.
    pub nodes: u64,
    /// Distinct CFG edges covered.
    pub edges: u64,
    /// Fraction of the Eqn.-3 node population covered.
    pub node_coverage_ratio: f64,
    /// Fraction of the ordered-pair edge population covered.
    pub edge_coverage_ratio: f64,
    /// Per-mechanism attribution, in [`Mechanism::ALL`] order.
    pub mechanisms: Vec<MechanismCount>,
    /// Coverage curve samples (one per interval).
    pub series: Vec<CoverageSample>,
    /// Checkpoint rollbacks performed.
    pub rollbacks: u64,
    /// Full resets performed.
    pub full_resets: u64,
    /// Rollbacks served by a cached snapshot (no replay needed).
    pub snapshot_restores: u64,
    /// Cycles re-driven by reset-and-replay rollbacks.
    pub replayed_cycles: u64,
    /// Pages physically copied into the snapshot store at fork time.
    pub snapshot_pages_copied: u64,
    /// Pages shared with a snapshot-tree parent instead of copied.
    pub snapshot_pages_shared: u64,
    /// Copy-on-write sharing ratio ×1000: logical snapshot bytes over
    /// unique stored bytes at campaign end (1000 = no sharing).
    pub snapshot_sharing_milli: u64,
}

/// One link of a bug's provenance chain: a covered node and the
/// mechanism that first reached it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChainLink {
    /// Dense CFG node id.
    pub node: u64,
    /// Input vectors consumed when the node was first covered.
    pub vector: u64,
    /// Mechanism of the first visit.
    pub mechanism: String,
    /// Goal id behind a solver-guided visit.
    pub goal: Option<u64>,
}

/// One detected bug with its full attribution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BugReport {
    /// Strategy that detected it.
    pub strategy: String,
    /// Violated property name.
    pub property: String,
    /// Input vectors to detection.
    pub vectors: u64,
    /// Simulation cycle of the first violation.
    pub cycle: u64,
    /// Mechanism that generated the detecting input word.
    pub mechanism: String,
    /// Goal id of the solve attempt (solver-guided detection only).
    pub goal: Option<u64>,
    /// Target register of that goal.
    pub goal_register: Option<String>,
    /// Target value of that goal.
    pub goal_value: Option<u64>,
    /// Solve status of that goal.
    pub goal_status: Option<String>,
    /// Checkpoint chain from the detection node back to reset, newest
    /// first (empty when the detection node is unknown).
    pub chain: Vec<ChainLink>,
}

/// The joined coverage-provenance report (versioned JSON).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CovReport {
    /// Schema version ([`COVREPORT_VERSION`]).
    pub version: u32,
    /// Design name.
    pub design: String,
    /// Per-campaign input-vector budget.
    pub budget: u64,
    /// One entry per strategy, in campaign order.
    pub strategies: Vec<StrategyReport>,
    /// Every detected bug across all strategies, in campaign order.
    pub bugs: Vec<BugReport>,
    /// The SymbFuzz campaign's uncovered frontier.
    pub frontier: Vec<FrontierRow>,
    /// Per-mechanism coverage-event tallies from a joined JSONL trace
    /// (empty when no trace was supplied).
    pub trace: Vec<MechanismCount>,
}

fn mech_counts(m: &CovMap) -> Vec<MechanismCount> {
    m.mechanism_counts()
        .into_iter()
        .map(|(mechanism, nodes, edges)| MechanismCount {
            mechanism,
            nodes,
            edges,
        })
        .collect()
}

/// Joins per-strategy campaign results into a [`CovReport`]. The
/// frontier comes from the SymbFuzz campaign (the only strategy that
/// attempts symbolic goals); bug chains are reconstructed from each
/// campaign's own covmap.
pub fn build_report(design: &str, budget: u64, results: &[(String, CampaignResult)]) -> CovReport {
    let strategies = results
        .iter()
        .map(|(name, r)| {
            let counter = |n: &str| {
                r.telemetry
                    .counters
                    .iter()
                    .find(|(k, _)| k == n)
                    .map_or(0, |(_, v)| *v)
            };
            let gauge = |n: &str| {
                r.telemetry
                    .gauges
                    .iter()
                    .find(|(k, _)| k == n)
                    .map_or(0, |(_, v)| *v)
            };
            StrategyReport {
                strategy: name.clone(),
                vectors: r.vectors,
                nodes: r.nodes,
                edges: r.edges,
                node_coverage_ratio: r.node_coverage_ratio,
                edge_coverage_ratio: r.edge_coverage_ratio,
                mechanisms: mech_counts(&r.covmap),
                series: r.series.clone(),
                rollbacks: r.resources.rollbacks,
                full_resets: r.resources.full_resets,
                snapshot_restores: counter("snapshot_restores"),
                replayed_cycles: counter("replayed_cycles"),
                snapshot_pages_copied: r.resources.snapshot_pages_copied,
                snapshot_pages_shared: r.resources.snapshot_pages_shared,
                snapshot_sharing_milli: gauge("snapshot_sharing_milli"),
            }
        })
        .collect();
    let bugs = results
        .iter()
        .flat_map(|(name, r)| {
            r.bugs.iter().map(move |b| {
                let goal = b.goal.and_then(|g| r.covmap.goals.get(g as usize));
                BugReport {
                    strategy: name.clone(),
                    property: b.property.clone(),
                    vectors: b.vectors,
                    cycle: b.cycle,
                    mechanism: b.mechanism.clone(),
                    goal: b.goal,
                    goal_register: goal.map(|g| g.register.clone()),
                    goal_value: goal.map(|g| g.value),
                    goal_status: goal.map(|g| g.status.clone()),
                    chain: b
                        .node
                        .map(|n| {
                            r.covmap
                                .provenance_chain(n)
                                .iter()
                                .map(|nc| ChainLink {
                                    node: nc.id,
                                    vector: nc.provenance.vector,
                                    mechanism: nc.provenance.mechanism.clone(),
                                    goal: nc.provenance.goal,
                                })
                                .collect()
                        })
                        .unwrap_or_default(),
                }
            })
        })
        .collect();
    let frontier = results
        .iter()
        .find(|(n, _)| n == "SymbFuzz")
        .map(|(_, r)| r.covmap.frontier.clone())
        .unwrap_or_default();
    CovReport {
        version: COVREPORT_VERSION,
        design: design.to_string(),
        budget,
        strategies,
        bugs,
        frontier,
        trace: Vec::new(),
    }
}

/// Per-mechanism tallies of the `NodeCovered` / `EdgeCovered` records
/// in a parsed JSONL trace, in [`Mechanism::ALL`] order — the trace
/// join a [`CovReport`] carries as a cross-check of its covmaps.
pub fn trace_mechanism_counts(records: &[TraceRecord]) -> Vec<MechanismCount> {
    Mechanism::ALL
        .iter()
        .map(|m| MechanismCount {
            mechanism: m.name().to_string(),
            nodes: records
                .iter()
                .filter(|r| r.kind == "NodeCovered" && r.str("mechanism") == m.name())
                .count() as u64,
            edges: records
                .iter()
                .filter(|r| r.kind == "EdgeCovered" && r.str("mechanism") == m.name())
                .count() as u64,
        })
        .collect()
}

// --- rendering -----------------------------------------------------------

/// Escapes text for HTML element content and attribute values; the
/// solver-scope report renders through it too.
pub(crate) fn esc(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

/// Series colours of the inline SVG charts, shared with the
/// solver-scope report.
pub(crate) const PALETTE: [&str; 5] = ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd"];

/// The coverage-over-time chart as one inline SVG: one polyline per
/// strategy, Fig. 4/5-style.
fn render_svg(strategies: &[StrategyReport]) -> String {
    const W: f64 = 640.0;
    const H: f64 = 300.0;
    const ML: f64 = 46.0; // left margin (y labels)
    const MB: f64 = 28.0; // bottom margin (x labels)
    let max_x = strategies
        .iter()
        .flat_map(|s| s.series.iter().map(|p| p.vectors))
        .max()
        .unwrap_or(1)
        .max(1);
    let max_y = strategies
        .iter()
        .flat_map(|s| s.series.iter().map(|p| p.coverage))
        .max()
        .unwrap_or(1)
        .max(1);
    let x = |v: u64| ML + (W - ML - 8.0) * v as f64 / max_x as f64;
    let y = |c: u64| (H - MB) - (H - MB - 8.0) * c as f64 / max_y as f64;
    let mut out = format!(
        "<svg viewBox=\"0 0 {W} {H}\" width=\"{W}\" height=\"{H}\" role=\"img\">\n\
         <rect x=\"{ML}\" y=\"8\" width=\"{:.1}\" height=\"{:.1}\" class=\"plot\"/>\n",
        W - ML - 8.0,
        H - MB - 8.0
    );
    out.push_str(&format!(
        "<text x=\"{ML}\" y=\"{:.1}\" class=\"axis\">0</text>\
         <text x=\"{:.1}\" y=\"{:.1}\" class=\"axis\">{max_x} vectors</text>\
         <text x=\"4\" y=\"{:.1}\" class=\"axis\">{max_y}</text>\
         <text x=\"4\" y=\"{:.1}\" class=\"axis\">pts</text>\n",
        H - 8.0,
        W - 96.0,
        H - 8.0,
        16.0,
        30.0
    ));
    for (i, s) in strategies.iter().enumerate() {
        let color = PALETTE[i % PALETTE.len()];
        let points: Vec<String> = std::iter::once((0u64, 0u64))
            .chain(s.series.iter().map(|p| (p.vectors, p.coverage)))
            .map(|(v, c)| format!("{:.1},{:.1}", x(v), y(c)))
            .collect();
        out.push_str(&format!(
            "<polyline fill=\"none\" stroke=\"{color}\" stroke-width=\"1.5\" points=\"{}\"/>\n",
            points.join(" ")
        ));
        out.push_str(&format!(
            "<text x=\"{:.1}\" y=\"{:.1}\" fill=\"{color}\" class=\"axis\">{}</text>\n",
            ML + 6.0,
            20.0 + 13.0 * i as f64,
            esc(&s.strategy)
        ));
    }
    out.push_str("</svg>\n");
    out
}

/// Renders the report as one self-contained HTML page: inline CSS,
/// inline SVG, no scripts, no external references.
pub fn render_html(r: &CovReport) -> String {
    let mut out = format!(
        "<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">\n\
         <title>covreport: {d}</title>\n<style>\n\
         body{{font:14px/1.45 system-ui,sans-serif;margin:2em auto;max-width:60em;color:#222}}\n\
         table{{border-collapse:collapse;margin:0.8em 0}}\n\
         th,td{{border:1px solid #bbb;padding:0.25em 0.6em;text-align:left}}\n\
         th{{background:#f0f0f0}}\n\
         .plot{{fill:#fafafa;stroke:#ccc}}\n\
         .axis{{font-size:11px;fill:#555}}\n\
         code{{background:#f4f4f4;padding:0 0.2em}}\n\
         </style></head><body>\n\
         <h1>Coverage provenance report — <code>{d}</code></h1>\n\
         <p>Schema v{v}; {n} strategies, {b} vectors each.</p>\n",
        d = esc(&r.design),
        v = r.version,
        n = r.strategies.len(),
        b = r.budget
    );

    out.push_str("<h2>Coverage over time</h2>\n");
    out.push_str(&render_svg(&r.strategies));

    out.push_str(
        "<h2>Mechanism attribution</h2>\n\
         <table><tr><th>strategy</th><th>nodes</th><th>edges</th><th>node ratio</th>\
         <th>edge ratio</th>",
    );
    for m in Mechanism::ALL {
        out.push_str(&format!("<th>{0} nodes</th><th>{0} edges</th>", m.name()));
    }
    out.push_str("</tr>\n");
    for s in &r.strategies {
        out.push_str(&format!(
            "<tr><td>{}</td><td>{}</td><td>{}</td><td>{:.4}</td><td>{:.4}</td>",
            esc(&s.strategy),
            s.nodes,
            s.edges,
            s.node_coverage_ratio,
            s.edge_coverage_ratio
        ));
        for m in &s.mechanisms {
            out.push_str(&format!("<td>{}</td><td>{}</td>", m.nodes, m.edges));
        }
        out.push_str("</tr>\n");
    }
    out.push_str("</table>\n");

    out.push_str("<h2>Bugs and their provenance chains</h2>\n");
    if r.bugs.is_empty() {
        out.push_str("<p>No property violations detected within the budget.</p>\n");
    } else {
        out.push_str(
            "<table><tr><th>strategy</th><th>property</th><th>vectors</th><th>cycle</th>\
             <th>mechanism</th><th>goal</th><th>provenance chain (newest first)</th></tr>\n",
        );
        for b in &r.bugs {
            let goal = match (&b.goal_register, b.goal_value, &b.goal_status) {
                (Some(reg), Some(v), Some(st)) => {
                    format!("<code>{}</code> = {v} ({st})", esc(reg))
                }
                _ => "—".to_string(),
            };
            let chain = if b.chain.is_empty() {
                "—".to_string()
            } else {
                b.chain
                    .iter()
                    .map(|l| {
                        let g = l.goal.map(|g| format!(" goal {g}")).unwrap_or_default();
                        format!("node {} ({}{g} @ {})", l.node, esc(&l.mechanism), l.vector)
                    })
                    .collect::<Vec<_>>()
                    .join(" ← ")
            };
            out.push_str(&format!(
                "<tr><td>{}</td><td><code>{}</code></td><td>{}</td><td>{}</td>\
                 <td>{}</td><td>{}</td><td>{}</td></tr>\n",
                esc(&b.strategy),
                esc(&b.property),
                b.vectors,
                b.cycle,
                esc(&b.mechanism),
                goal,
                chain
            ));
        }
        out.push_str("</table>\n");
    }

    out.push_str(
        "<h2>Checkpoint and partial-reset savings</h2>\n\
         <table><tr><th>strategy</th><th>rollbacks</th><th>snapshot restores</th>\
         <th>replayed cycles</th><th>full resets</th><th>pages copied</th>\
         <th>pages shared</th><th>sharing ×</th></tr>\n",
    );
    for s in &r.strategies {
        out.push_str(&format!(
            "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td>\
             <td>{}</td><td>{}</td><td>{:.2}</td></tr>\n",
            esc(&s.strategy),
            s.rollbacks,
            s.snapshot_restores,
            s.replayed_cycles,
            s.full_resets,
            s.snapshot_pages_copied,
            s.snapshot_pages_shared,
            s.snapshot_sharing_milli as f64 / 1000.0
        ));
    }
    out.push_str("</table>\n");

    out.push_str("<h2>Uncovered frontier (SymbFuzz)</h2>\n");
    if r.frontier.is_empty() {
        out.push_str("<p>No uncovered control-register values within the sampled window.</p>\n");
    } else {
        out.push_str(
            "<table><tr><th>register</th><th>unobserved value</th><th>solve attempts</th>\
             <th>last status</th></tr>\n",
        );
        for f in &r.frontier {
            out.push_str(&format!(
                "<tr><td><code>{}</code></td><td>{}</td><td>{}</td><td>{}</td></tr>\n",
                esc(&f.register),
                f.value,
                f.attempts,
                esc(&f.last_status)
            ));
        }
        out.push_str("</table>\n");
    }

    if !r.trace.is_empty() {
        out.push_str(
            "<h2>Trace cross-check</h2>\n\
             <p>Per-mechanism <code>NodeCovered</code> / <code>EdgeCovered</code> tallies \
             from the joined JSONL trace (all tasks).</p>\n\
             <table><tr><th>mechanism</th><th>node events</th><th>edge events</th></tr>\n",
        );
        for t in &r.trace {
            out.push_str(&format!(
                "<tr><td>{}</td><td>{}</td><td>{}</td></tr>\n",
                esc(&t.mechanism),
                t.nodes,
                t.edges
            ));
        }
        out.push_str("</table>\n");
    }

    out.push_str("</body></html>\n");
    out
}

/// Renders the report's Markdown summary (the `covreport` binary's
/// stdout): the attribution table plus one line per bug.
pub fn render_markdown(r: &CovReport) -> String {
    let mut out = format!(
        "# Coverage provenance — `{}` ({} vectors per strategy)\n\n\
         | strategy | nodes | edges | random n/e | solver n/e | replay n/e |\n\
         |---|---|---|---|---|---|\n",
        r.design, r.budget
    );
    for s in &r.strategies {
        out.push_str(&format!("| {} | {} | {} |", s.strategy, s.nodes, s.edges));
        for m in &s.mechanisms {
            out.push_str(&format!(" {}/{} |", m.nodes, m.edges));
        }
        out.push('\n');
    }
    out.push('\n');
    for b in &r.bugs {
        let chain = b
            .chain
            .iter()
            .map(|l| format!("{}({})", l.node, l.mechanism))
            .collect::<Vec<_>>()
            .join(" <- ");
        out.push_str(&format!(
            "* `{}` by {} at vector {} via {}; chain: {}\n",
            b.property,
            b.strategy,
            b.vectors,
            b.mechanism,
            if chain.is_empty() {
                "—".into()
            } else {
                chain
            }
        ));
    }
    out.push_str(&format!(
        "\n{} uncovered frontier values recorded for SymbFuzz.\n",
        r.frontier.len()
    ));
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn tiny_report() -> CovReport {
        CovReport {
            version: COVREPORT_VERSION,
            design: "d".into(),
            budget: 100,
            strategies: vec![StrategyReport {
                strategy: "SymbFuzz".into(),
                vectors: 100,
                nodes: 2,
                edges: 1,
                node_coverage_ratio: 0.5,
                edge_coverage_ratio: 0.25,
                mechanisms: vec![
                    MechanismCount {
                        mechanism: "random".into(),
                        nodes: 1,
                        edges: 1,
                    },
                    MechanismCount {
                        mechanism: "solver".into(),
                        nodes: 1,
                        edges: 0,
                    },
                    MechanismCount {
                        mechanism: "replay".into(),
                        nodes: 0,
                        edges: 0,
                    },
                ],
                series: vec![
                    CoverageSample {
                        vectors: 50,
                        coverage: 2,
                    },
                    CoverageSample {
                        vectors: 100,
                        coverage: 3,
                    },
                ],
                rollbacks: 1,
                full_resets: 0,
                snapshot_restores: 1,
                replayed_cycles: 0,
                snapshot_pages_copied: 4,
                snapshot_pages_shared: 12,
                snapshot_sharing_milli: 4000,
            }],
            bugs: vec![BugReport {
                strategy: "SymbFuzz".into(),
                property: "p<q".into(),
                vectors: 60,
                cycle: 61,
                mechanism: "solver".into(),
                goal: Some(0),
                goal_register: Some("state".into()),
                goal_value: Some(3),
                goal_status: Some("sat".into()),
                chain: vec![ChainLink {
                    node: 1,
                    vector: 60,
                    mechanism: "solver".into(),
                    goal: Some(0),
                }],
            }],
            frontier: vec![FrontierRow {
                register: "state".into(),
                value: 7,
                attempts: 2,
                last_status: "unsat".into(),
            }],
            trace: Vec::new(),
        }
    }

    #[test]
    fn html_is_self_contained_and_escaped() {
        let html = render_html(&tiny_report());
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("<svg"));
        assert!(html.contains("p&lt;q"), "property name must be escaped");
        assert!(html.contains("node 1 (solver goal 0 @ 60)"));
        // Self-contained: no scripts, no external fetches.
        assert!(!html.contains("<script"));
        assert!(!html.contains("http://") && !html.contains("https://"));
    }

    #[test]
    fn markdown_summarises_bugs_and_frontier() {
        let md = render_markdown(&tiny_report());
        assert!(md.contains("| SymbFuzz | 2 | 1 | 1/1 | 1/0 | 0/0 |"));
        assert!(md.contains("`p<q` by SymbFuzz at vector 60 via solver"));
        assert!(md.contains("1 uncovered frontier values"));
    }

    #[test]
    fn trace_join_counts_mechanisms() {
        let text = "\
{\"t\":1,\"task\":0,\"kind\":\"NodeCovered\",\"node\":0,\"vector\":1,\
\"mechanism\":\"random\",\"goal\":null,\"checkpoint\":null}
{\"t\":2,\"task\":0,\"kind\":\"NodeCovered\",\"node\":1,\"vector\":2,\
\"mechanism\":\"solver\",\"goal\":0,\"checkpoint\":null}
{\"t\":3,\"task\":0,\"kind\":\"EdgeCovered\",\"edge\":0,\"src\":0,\"dst\":1,\
\"vector\":2,\"mechanism\":\"solver\"}
";
        let recs = crate::schema::parse_trace(text).unwrap();
        let counts = trace_mechanism_counts(&recs);
        assert_eq!(counts.len(), 3);
        assert_eq!((counts[0].nodes, counts[0].edges), (1, 0));
        assert_eq!((counts[1].nodes, counts[1].edges), (1, 1));
        assert_eq!((counts[2].nodes, counts[2].edges), (0, 0));
    }
}

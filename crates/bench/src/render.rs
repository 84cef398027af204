//! Markdown rendering and JSON persistence for experiment results.

use crate::experiments::*;
use serde::Serialize;
use std::fs;
use std::path::Path;
use symbfuzz_core::CampaignResult;

/// Writes `value` as pretty JSON under `results/<name>.json` (relative
/// to the workspace root when run via `cargo run`).
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn save_json<T: Serialize>(name: &str, value: &T) -> std::io::Result<()> {
    let dir = Path::new("results");
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.json"));
    fs::write(
        path,
        serde_json::to_string_pretty(value).expect("serializable"),
    )
}

fn check(b: bool) -> &'static str {
    if b {
        "✓"
    } else {
        "✗"
    }
}

/// Renders Table 1 as Markdown.
pub fn render_table1(rows: &[Table1Row]) -> String {
    let mut out = String::from(
        "| Bug | Sub-module | CWE | paper vectors | measured vectors |\n|---|---|---|---|---|\n",
    );
    for r in rows {
        out.push_str(&format!(
            "| {:02}. {} | {} | {} | {:.2e} | {} |\n",
            r.id,
            r.description,
            r.submodule,
            r.cwe,
            r.paper_vectors,
            r.measured_vectors
                .map(|v| v.to_string())
                .unwrap_or_else(|| "not found".into())
        ));
    }
    out
}

/// Renders the coverage-vs-budget profile as Markdown.
pub fn render_budget_profile(rows: &[BudgetProfileRow]) -> String {
    let mut out = String::from(
        "| design | conflict budget | vectors | coverage | exhaustions | \
         neg-cache hits | cache h/m | reuse | outcomes |\n\
         |---|---|---|---|---|---|---|---|---|\n",
    );
    for r in rows {
        let outcomes = r
            .solve_outcomes
            .iter()
            .map(|(s, n)| format!("{s}:{n}"))
            .collect::<Vec<_>>()
            .join(" ");
        let cache_total = r.bitblast_cache_hits + r.bitblast_cache_misses;
        let (cache, reuse) = if cache_total == 0 {
            ("-".to_string(), "-".to_string())
        } else {
            (
                format!("{}/{}", r.bitblast_cache_hits, r.bitblast_cache_misses),
                format!("{:.3}", r.session_reuse_milli as f64 / 1000.0),
            )
        };
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} | {cache} | {reuse} | {} |\n",
            r.design,
            r.solver_budget,
            r.vectors,
            r.coverage_points,
            r.budget_exhaustions,
            r.neg_cache_hits,
            outcomes
        ));
    }
    out
}

/// Renders Table 2 as Markdown, paper values in parentheses.
pub fn render_table2(m: &DetectionMatrix) -> String {
    let mut out =
        String::from("| Bug | SymbFuzz | RFuzz | DifuzzRTL | HWFP |\n|---|---|---|---|---|\n");
    for r in &m.rows {
        out.push_str(&format!(
            "| {:02}. {} | {} (✓) | {} ({}) | {} ({}) | {} ({}) |\n",
            r.id,
            r.name,
            check(r.symbfuzz),
            check(r.rfuzz),
            check(r.paper.0),
            check(r.difuzz),
            check(r.paper.1),
            check(r.hwfp),
            check(r.paper.2),
        ));
    }
    let (s, rf, df, hw) = m.missed();
    out.push_str(&format!(
        "\nmissed: SymbFuzz {s}, RFuzz {rf}, DifuzzRTL {df}, HWFP {hw} (paper: 0, 12, 6, 8)\n"
    ));
    out
}

/// Renders Table 3 as Markdown.
pub fn render_table3(rows: &[Table3Row]) -> String {
    let mut out = String::from(
        "| Benchmark | LoC | ctrl regs | CFG nodes (paper) | CFG edges (paper) | dep. eqns (paper) | constraints (paper) | latency |\n|---|---|---|---|---|---|---|---|\n",
    );
    for r in rows {
        out.push_str(&format!(
            "| {} (for {}) | {} | {} | {} ({}) | {} ({}) | {} ({}–{}) | {} (≈{}) | {:.2}s |\n",
            r.name,
            r.paper_counterpart,
            r.loc,
            r.control_registers,
            r.cfg_nodes,
            r.paper.0,
            r.cfg_edges,
            r.paper.1,
            r.dependency_eqns,
            r.paper.2,
            r.paper.3,
            r.constraints,
            r.paper.4,
            r.latency_s,
        ));
    }
    out
}

/// Renders Figure 4a data as CSV (`vectors,<strategy...>` columns).
pub fn render_fig4a_csv(race: &RaceResult) -> String {
    let mut out = String::from("vectors");
    for (name, _) in &race.curves {
        out.push(',');
        out.push_str(name);
    }
    out.push('\n');
    let nrows = race.curves.iter().map(|(_, s)| s.len()).min().unwrap_or(0);
    for i in 0..nrows {
        out.push_str(&race.curves[0].1[i].vectors.to_string());
        for (_, samples) in &race.curves {
            out.push(',');
            out.push_str(&samples[i].coverage.to_string());
        }
        out.push('\n');
    }
    out
}

/// Renders Figure 4b data as CSV.
pub fn render_fig4b_csv(points: &[VariancePoint]) -> String {
    let mut out = String::from("strategy,vectors,mean,variance\n");
    for p in points {
        out.push_str(&format!(
            "{},{},{:.2},{:.2}\n",
            p.strategy, p.vectors, p.mean, p.variance
        ));
    }
    out
}

/// Renders the speed-up table as Markdown.
pub fn render_speedup(s: &SpeedupResult) -> String {
    let mut out = format!(
        "UVM random saturates at {} coverage points on `{}` (paper: 6.8× speed-up for SymbFuzz).\n\n| Strategy | vectors to match | speed-up vs random |\n|---|---|---|\n",
        s.random_saturation, s.design
    );
    for (name, v, ratio) in &s.rows {
        out.push_str(&format!(
            "| {} | {} | {} |\n",
            name,
            v.map(|v| v.to_string()).unwrap_or_else(|| "—".into()),
            ratio
                .map(|r| format!("{r:.2}×"))
                .unwrap_or_else(|| "—".into())
        ));
    }
    out
}

/// Renders the resource profile as Markdown (relative to SymbFuzz = 1.0).
pub fn render_resources(rows: &[(String, CampaignResult)]) -> String {
    let base = rows
        .iter()
        .find(|(n, _)| n == "SymbFuzz")
        .map(|(_, r)| r.resources)
        .unwrap_or_default();
    let base_mem = base.peak_state_bytes.max(1) as f64;
    let base_cpu = base.cycles.max(1) as f64;
    let mut out = String::from(
        "| Strategy | cycles | solver calls | rollbacks | snapshots | mem vs SymbFuzz | cpu vs SymbFuzz |\n|---|---|---|---|---|---|---|\n",
    );
    for (name, r) in rows {
        let res = r.resources;
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {:.2}× | {:.2}× |\n",
            name,
            res.cycles,
            res.solver_calls,
            res.rollbacks,
            res.peak_snapshots,
            res.peak_state_bytes as f64 / base_mem,
            res.cycles as f64 / base_cpu,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use symbfuzz_core::CoverageSample;

    #[test]
    fn table_renderers_emit_markdown() {
        let row = Table1Row {
            id: 1,
            name: "x".into(),
            description: "desc".into(),
            submodule: "sub".into(),
            cwe: "CWE-1".into(),
            paper_vectors: 1e6,
            measured_vectors: Some(123),
        };
        let md = render_table1(&[row]);
        assert!(md.contains("| 01. desc | sub | CWE-1 |"));
        assert!(md.contains("| 123 |"));
    }

    #[test]
    fn fig4a_csv_has_header_and_rows() {
        let race = RaceResult {
            design: "d".into(),
            curves: vec![
                (
                    "A".into(),
                    vec![CoverageSample {
                        vectors: 10,
                        coverage: 5,
                    }],
                ),
                (
                    "B".into(),
                    vec![CoverageSample {
                        vectors: 10,
                        coverage: 7,
                    }],
                ),
            ],
        };
        let csv = render_fig4a_csv(&race);
        assert_eq!(csv.lines().next(), Some("vectors,A,B"));
        assert_eq!(csv.lines().nth(1), Some("10,5,7"));
    }

    #[test]
    fn budget_renderer_shows_cache_columns() {
        let row = BudgetProfileRow {
            design: "goalfabric".into(),
            solver_budget: 500,
            vectors: 400,
            coverage_points: 30,
            budget_exhaustions: 0,
            neg_cache_hits: 1,
            bitblast_cache_hits: 9,
            bitblast_cache_misses: 3,
            session_reuse_milli: 750,
            solve_outcomes: vec![("sat".into(), 4)],
        };
        let md = render_budget_profile(&[row]);
        assert!(md.contains("| 9/3 | 0.750 | sat:4 |"), "{md}");
    }

    #[test]
    fn detection_matrix_renders_with_paper_reference() {
        let m = DetectionMatrix {
            rows: vec![DetectionRow {
                id: 4,
                name: "aes_key_leak".into(),
                symbfuzz: true,
                rfuzz: true,
                difuzz: false,
                hwfp: false,
                paper: (true, false, false),
            }],
        };
        let md = render_table2(&m);
        assert!(md.contains("✓ (✓)"));
        assert!(md.contains("✗ (✗)"));
    }
}

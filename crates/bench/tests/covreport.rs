//! Acceptance tests for the coverage-provenance report: the JSON and
//! HTML artifacts are byte-identical at any `--jobs` count, the JSON
//! validates against its schema checker, and the attribution joins
//! line up with the underlying covmaps.

use symbfuzz_bench::covreport::{build_report, render_html};
use symbfuzz_bench::experiments::{resource_profile, Outputs};
use symbfuzz_bench::schema::{validate_covmap, validate_report};
use symbfuzz_core::FuzzConfig;

const BENCH: usize = 0; // ibex_like
const BUDGET: u64 = 1_500;

/// The PR's acceptance scenario: covmap and report bytes identical for
/// `--jobs 1` vs `--jobs 4` on `ibex_like`.
#[test]
fn report_and_covmaps_are_byte_identical_across_job_counts() {
    let serial = resource_profile(
        &FuzzConfig::builder(),
        &Outputs::default(),
        BENCH,
        BUDGET,
        1,
    );
    let wide = resource_profile(
        &FuzzConfig::builder(),
        &Outputs::default(),
        BENCH,
        BUDGET,
        4,
    );
    for ((n1, r1), (n4, r4)) in serial.iter().zip(&wide) {
        assert_eq!(n1, n4);
        assert_eq!(
            serde_json::to_string_pretty(&r1.covmap).unwrap(),
            serde_json::to_string_pretty(&r4.covmap).unwrap(),
            "covmap for {n1} differs between job counts"
        );
    }
    let report1 = build_report("ibex_like", BUDGET, &serial);
    let report4 = build_report("ibex_like", BUDGET, &wide);
    assert_eq!(
        serde_json::to_string_pretty(&report1).unwrap(),
        serde_json::to_string_pretty(&report4).unwrap()
    );
    assert_eq!(render_html(&report1), render_html(&report4));
}

#[test]
fn generated_artifacts_pass_their_schema_checkers() {
    let results = resource_profile(
        &FuzzConfig::builder(),
        &Outputs::default(),
        BENCH,
        BUDGET,
        4,
    );
    for (name, r) in &results {
        let covmap_json = serde_json::to_string_pretty(&r.covmap).unwrap();
        let m = validate_covmap(&covmap_json).unwrap_or_else(|e| panic!("{name} covmap: {e}"));
        assert_eq!(m.fuzzer, *name);
        assert_eq!(m.nodes.len() as u64, r.nodes);
        assert_eq!(m.edges.len() as u64, r.edges);
    }
    let report = build_report("ibex_like", BUDGET, &results);
    let json = serde_json::to_string_pretty(&report).unwrap();
    let back = validate_report(&json).expect("report validates");
    assert_eq!(back.strategies.len(), results.len());
    assert_eq!(back.design, "ibex_like");

    // The HTML is self-contained and carries every section.
    let html = render_html(&report);
    for heading in [
        "Coverage over time",
        "Mechanism attribution",
        "Bugs and their provenance chains",
        "Checkpoint and partial-reset savings",
        "Uncovered frontier",
    ] {
        assert!(html.contains(heading), "missing section `{heading}`");
    }
    assert!(!html.contains("<script"));
}

#[test]
fn attribution_joins_line_up_with_covmaps() {
    let results = resource_profile(
        &FuzzConfig::builder(),
        &Outputs::default(),
        BENCH,
        BUDGET,
        4,
    );
    let report = build_report("ibex_like", BUDGET, &results);
    // Per-strategy mechanism tallies account for every node and edge.
    for (s, (_, r)) in report.strategies.iter().zip(&results) {
        assert_eq!(s.mechanisms.iter().map(|m| m.nodes).sum::<u64>(), r.nodes);
        assert_eq!(s.mechanisms.iter().map(|m| m.edges).sum::<u64>(), r.edges);
    }
    // Baselines never carry solver or replay attribution.
    for s in &report.strategies {
        if s.strategy != "SymbFuzz" {
            assert_eq!(s.mechanisms[1].nodes, 0, "{}", s.strategy);
            assert_eq!(s.mechanisms[2].nodes, 0, "{}", s.strategy);
        }
    }
}

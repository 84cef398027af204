//! `perfbench compare`: bound direction, spread handling, and exact
//! verdict and count tallies.

use perfbench::compare::{compare, verdict, Verdict};
use perfbench::schema::{Metric, ResultSet, RunRecord, SCHEMA};
use perfbench::spec::{Better, Spec};

#[test]
fn a_drop_is_worse_for_higher_better_and_better_for_lower_better() {
    let a = [100.0, 100.0, 100.0];
    let b = [80.0, 80.0, 80.0];
    assert_eq!(verdict(&a, &b, Better::Higher, 0.1), Verdict::Worse);
    assert_eq!(verdict(&a, &b, Better::Lower, 0.1), Verdict::Better);
    assert_eq!(verdict(&b, &a, Better::Higher, 0.1), Verdict::Better);
    assert_eq!(verdict(&b, &a, Better::Lower, 0.1), Verdict::Worse);
}

#[test]
fn changes_inside_the_bound_are_within_bound() {
    let a = [100.0, 101.0, 99.0];
    let b = [95.0, 96.0, 94.0];
    assert_eq!(verdict(&a, &b, Better::Higher, 0.1), Verdict::WithinBound);
    assert_eq!(verdict(&a, &b, Better::Lower, 0.1), Verdict::WithinBound);
    // Exactly at the bound is still within it.
    assert_eq!(
        verdict(&[100.0], &[90.0], Better::Higher, 0.1),
        Verdict::WithinBound
    );
}

#[test]
fn a_spread_wider_than_the_bound_is_unresolved_unless_runs_separate() {
    let wide = [60.0, 100.0, 140.0];
    assert_eq!(
        verdict(&wide, &[70.0, 100.0, 130.0], Better::Higher, 0.1),
        Verdict::Unresolved
    );
    // Every run of B above every run of A: better despite the spread.
    assert_eq!(
        verdict(&wide, &[150.0, 200.0, 260.0], Better::Higher, 0.1),
        Verdict::Better
    );
    assert_eq!(
        verdict(&wide, &[150.0, 200.0, 260.0], Better::Lower, 0.1),
        Verdict::Worse
    );
}

fn run(workload: &str, seed: u64, values: &[(&str, f64)], conflicts: u64) -> RunRecord {
    let spec = Spec::load();
    RunRecord {
        workload: workload.into(),
        seed,
        seconds: 30.0,
        traced: false,
        available_parallelism: 2,
        correct: true,
        attempted: 10,
        failed: 0,
        metrics: values
            .iter()
            .map(|(name, value)| Metric {
                name: (*name).into(),
                value: *value,
                unit: spec.metric(name).expect("declared").unit.clone(),
                samples: 10,
                level: None,
            })
            .collect(),
        counts: vec![
            ("sim.steps".into(), 1000),
            ("smt.sat_conflicts".into(), conflicts),
        ],
        non_repeating: Vec::new(),
    }
}

fn set(runs: Vec<RunRecord>) -> ResultSet {
    ResultSet {
        schema: SCHEMA.into(),
        name: "t".into(),
        seed: 1,
        seconds: 30.0,
        repeat: 1,
        traced: false,
        smoke: false,
        available_parallelism: 2,
        runs,
    }
}

#[test]
fn report_tallies_verdicts_and_non_repeating_counts_exactly() {
    let a = set(vec![
        run(
            "ibex_campaign",
            1,
            &[("vectors_per_s", 1000.0), ("setup_s", 1.0)],
            10937,
        ),
        run(
            "bug_hunt",
            1,
            &[("vectors_per_s", 500.0), ("trial_ms_p50", 1.0)],
            5,
        ),
    ]);
    let b = set(vec![
        run(
            "ibex_campaign",
            1,
            &[("vectors_per_s", 700.0), ("setup_s", 1.0)],
            10947,
        ),
        run(
            "bug_hunt",
            1,
            &[("vectors_per_s", 505.0), ("trial_ms_p50", 0.5)],
            5,
        ),
    ]);
    let report = compare(&Spec::load(), &a, &b);
    assert_eq!(report.rows.len(), 4);
    let verdict_of = |w: &str, m: &str| {
        report
            .rows
            .iter()
            .find(|r| r.workload == w && r.metric == m)
            .map(|r| r.verdict)
    };
    assert_eq!(
        verdict_of("ibex_campaign", "vectors_per_s"),
        Some(Verdict::Worse)
    );
    assert_eq!(
        verdict_of("ibex_campaign", "setup_s"),
        Some(Verdict::WithinBound)
    );
    assert_eq!(
        verdict_of("bug_hunt", "vectors_per_s"),
        Some(Verdict::WithinBound)
    );
    assert_eq!(
        verdict_of("bug_hunt", "trial_ms_p50"),
        Some(Verdict::Better)
    );
    assert_eq!(report.count(Verdict::Better), 1);
    assert_eq!(report.count(Verdict::Worse), 1);
    assert_eq!(report.count(Verdict::WithinBound), 2);
    assert_eq!(report.count(Verdict::Unresolved), 0);
    assert_eq!(report.counts_compared, 4);
    assert_eq!(report.non_repeating.len(), 1);
    let n = &report.non_repeating[0];
    assert_eq!(
        (n.workload.as_str(), n.count.as_str()),
        ("ibex_campaign", "smt.sat_conflicts")
    );
    assert_eq!(n.values, vec![10937, 10947]);
    let text = report.to_string();
    assert!(text.ends_with(
        "compare: better 1, worse 1, within-bound 2, unresolved 0; exact counts: 4 compared, 1 non-repeating"
    ));
}

#[test]
fn counts_from_different_seeds_are_not_compared() {
    let a = set(vec![run("bug_hunt", 1, &[("setup_s", 1.0)], 5)]);
    let b = set(vec![run("bug_hunt", 2, &[("setup_s", 1.0)], 6)]);
    let report = compare(&Spec::load(), &a, &b);
    assert_eq!(report.counts_compared, 0);
    assert!(report.non_repeating.is_empty());
}

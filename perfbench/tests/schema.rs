//! Round trips through the result schema, and the shape of the one-line
//! summary.

use perfbench::schema::{Metric, ResultSet, RunRecord, SCHEMA};

fn sample() -> ResultSet {
    let run = |workload: &str, traced: bool| RunRecord {
        workload: workload.into(),
        seed: 0xCAB,
        seconds: 30.0,
        traced,
        available_parallelism: 2,
        correct: true,
        attempted: 17,
        failed: 0,
        metrics: vec![
            Metric {
                name: "vectors_per_s".into(),
                value: 81234.56789012345,
                unit: "vec/s".into(),
                samples: 17,
                level: None,
            },
            Metric {
                name: "trial_ms_tail".into(),
                value: 2.6543,
                unit: "ms".into(),
                samples: 52_000,
                level: Some(99.0),
            },
        ],
        counts: vec![
            ("sim.steps".into(), 100_662),
            ("smt.sat_conflicts".into(), 492),
        ],
        non_repeating: vec!["smt.sat_conflicts".into()],
    };
    ResultSet {
        schema: SCHEMA.into(),
        name: "run_a".into(),
        seed: 0xCAB,
        seconds: 30.0,
        repeat: 1,
        traced: false,
        smoke: false,
        available_parallelism: 2,
        runs: vec![run("ibex_campaign", false), run("bug_hunt", true)],
    }
}

#[test]
fn result_sets_round_trip_exactly() {
    let set = sample();
    let text = set.to_json();
    let back = ResultSet::from_json(&text).expect("parses");
    assert_eq!(back, set);
    assert_eq!(back.to_json(), text, "rendering is stable");
    assert_eq!(back.workloads(), vec!["ibex_campaign", "bug_hunt"]);
}

#[test]
fn foreign_or_malformed_files_are_rejected() {
    let mut set = sample();
    set.schema = "perfbench/0".into();
    assert!(ResultSet::from_json(&set.to_json()).is_err());
    assert!(ResultSet::from_json("{\"schema\": \"perfbench/1\"}").is_err());
    assert!(ResultSet::from_json("not json").is_err());
}

#[test]
fn summary_line_has_exactly_the_summary_keys() {
    let run = &sample().runs[0];
    let line = run.summary_line();
    let v: serde::Value = serde_json::from_str(&line).expect("one JSON object");
    let serde::Value::Object(fields) = v else {
        panic!("not an object: {line}");
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert!(!line.contains('\n'));
    assert!(line.contains("\"vectors_per_s\":{\"value\":81234.56789012345,\"unit\":\"vec/s\"}"));
}

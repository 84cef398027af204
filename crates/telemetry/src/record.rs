//! The JSONL trace schema: one table declaring every record kind's
//! fields, and the one writer that renders a record from it.
//!
//! A record is `{"t":…,"task":…,"kind":"…"` followed by its kind's
//! fields in table order. [`RECORDS`] lists the twelve [`Event`] kinds
//! (in [`Event::kind_index`] order) and then the three synthetic kinds
//! the collector, the campaign and the flight recorder write:
//! [`PHASE_RECORD`], [`SUMMARY_RECORD`] and [`FLIGHT_RECORD`].
//! Trace checkers read the same table, so a field is named once.

use crate::collector::Phase;
use crate::event::{Event, Mechanism, SolveStatus, UnknownReason};
use std::fmt::Write as _;

/// The type of one record field. The closed vocabularies are types of
/// their own, so a checker validates every field from the table alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldType {
    /// A non-negative integer.
    Num,
    /// A non-negative integer or `null`.
    NumOrNull,
    /// `true` or `false`.
    Bool,
    /// Any string.
    Str,
    /// An array of non-negative integers.
    NumArray,
    /// A [`SolveStatus::serial`] string.
    SolveStatus,
    /// An [`UnknownReason::name`] string.
    UnknownReason,
    /// A [`Phase::name`] string.
    Phase,
    /// A [`Mechanism::name`] string.
    Mechanism,
}

impl FieldType {
    /// Whether `word` is a value of this string type: any string for
    /// [`FieldType::Str`], a member of the vocabulary for the closed
    /// types, nothing for the non-string types.
    pub fn admits(self, word: &str) -> bool {
        match self {
            FieldType::Str => true,
            FieldType::SolveStatus => SolveStatus::parse(word).is_some(),
            FieldType::UnknownReason => UnknownReason::parse(word).is_some(),
            FieldType::Phase => Phase::parse(word).is_some(),
            FieldType::Mechanism => Mechanism::parse(word).is_some(),
            FieldType::Num | FieldType::NumOrNull | FieldType::Bool | FieldType::NumArray => false,
        }
    }
}

/// One field value handed to [`RecordSchema::line`]. Closed-vocabulary
/// fields pass their name as a [`FieldValue::Str`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FieldValue<'a> {
    /// A number.
    Num(u64),
    /// A number or `null`.
    NumOrNull(Option<u64>),
    /// A bool.
    Bool(bool),
    /// A string, escaped on output.
    Str(&'a str),
    /// An array of numbers.
    NumArray(&'a [u64]),
}

/// One record kind: its discriminator and its ordered fields.
#[derive(Debug, PartialEq, Eq)]
pub struct RecordSchema {
    /// The `kind` string.
    pub kind: &'static str,
    /// `(name, type)` per field after the `t`/`task`/`kind` header.
    pub fields: &'static [(&'static str, FieldType)],
}

use FieldType::{
    Bool, Mechanism as Mech, Num, NumArray, NumOrNull, Phase as PhaseName, SolveStatus as Status,
    Str, UnknownReason as Reason,
};

const fn rec(kind: &'static str, fields: &'static [(&'static str, FieldType)]) -> RecordSchema {
    RecordSchema { kind, fields }
}

/// Every trace record kind. The first [`Event::KIND_COUNT`] entries
/// are the [`Event`] kinds in [`Event::kind_index`] order.
pub const RECORDS: [RecordSchema; Event::KIND_COUNT + 3] = [
    rec(
        "CoverageDelta",
        &[("vectors", Num), ("coverage", Num), ("delta", Num)],
    ),
    rec("StagnationEnter", &[("vectors", Num), ("intervals", Num)]),
    rec(
        "SymbolicEpisode",
        &[
            ("checkpoint", NumOrNull),
            ("eqns", Num),
            ("solve_result", Status),
        ],
    ),
    rec(
        "SmtSolve",
        &[
            ("vars", Num),
            ("clauses", Num),
            ("sat", Bool),
            ("micros", Num),
        ],
    ),
    rec("PartialReset", &[("prefix_len", Num)]),
    rec("FullReset", &[]),
    rec("BugFired", &[("property", Str), ("vector", Num)]),
    rec(
        "BudgetExhausted",
        &[
            ("reason", Reason),
            ("level", Num),
            ("conflicts", Num),
            ("decisions", Num),
            ("propagations", Num),
        ],
    ),
    rec(
        "NodeCovered",
        &[
            ("node", Num),
            ("vector", Num),
            ("mechanism", Mech),
            ("goal", NumOrNull),
            ("checkpoint", NumOrNull),
        ],
    ),
    rec(
        "EdgeCovered",
        &[
            ("edge", Num),
            ("src", Num),
            ("dst", Num),
            ("vector", Num),
            ("mechanism", Mech),
        ],
    ),
    rec(
        "GoalSolveCost",
        &[
            ("register", Str),
            ("value", Num),
            ("status", Status),
            ("depth", Num),
            ("calls", Num),
            ("conflicts", Num),
            ("learned", Num),
            ("restarts", Num),
            ("hist", NumArray),
        ],
    ),
    rec(
        "CoreExtracted",
        &[
            ("register", Str),
            ("value", Num),
            ("core", Num),
            ("blamed", Num),
        ],
    ),
    rec("Phase", &[("phase", PhaseName), ("micros", Num)]),
    rec(
        "Summary",
        &[
            ("settle_fast_path", Num),
            ("settle_escapes", Num),
            ("x_island_cones", Num),
            ("settle_sweeps", Num),
            ("frame_hits", NumOrNull),
            ("frame_misses", NumOrNull),
            ("goals", NumOrNull),
            ("reused_goals", NumOrNull),
        ],
    ),
    rec(
        "Flight",
        &[
            ("interval", Num),
            ("vectors", Num),
            ("coverage", Num),
            ("stagnant", Num),
            ("d_vectors", Num),
            ("d_solver_calls", Num),
            ("d_settle_fast_path", Num),
            ("d_settle_escapes", Num),
        ],
    ),
];

/// A closed [`crate::PhaseTimer`] span, with its self time.
pub const PHASE_RECORD: &RecordSchema = &RECORDS[Event::KIND_COUNT];

/// The end-of-campaign summary a campaign writes each time it stops:
/// the settle-engine mix (compiled fast path, escapes, X-island
/// extent, sweeps) and the symbolic engine's frame-cache figures,
/// `null` when the campaign never built its engine.
pub const SUMMARY_RECORD: &RecordSchema = &RECORDS[Event::KIND_COUNT + 1];

/// The flight recorder's headline numbers, mirrored into the trace
/// ([`crate::Sampler::maybe_sample`]).
pub const FLIGHT_RECORD: &RecordSchema = &RECORDS[Event::KIND_COUNT + 2];

/// The schema of the record kind named `kind`.
pub fn record_schema(kind: &str) -> Option<&'static RecordSchema> {
    RECORDS.iter().find(|r| r.kind == kind)
}

impl RecordSchema {
    /// Renders one JSONL record (no trailing newline): the header, then
    /// `values` under this kind's field names, in table order.
    pub fn line(&self, t: u64, task: u64, values: &[FieldValue<'_>]) -> String {
        debug_assert_eq!(values.len(), self.fields.len(), "{}", self.kind);
        let mut s = String::with_capacity(96);
        let _ = write!(s, "{{\"t\":{t},\"task\":{task},\"kind\":\"{}\"", self.kind);
        for ((name, _), value) in self.fields.iter().zip(values) {
            let _ = write!(s, ",\"{name}\":");
            match *value {
                FieldValue::Num(n) | FieldValue::NumOrNull(Some(n)) => {
                    let _ = write!(s, "{n}");
                }
                FieldValue::NumOrNull(None) => s.push_str("null"),
                FieldValue::Bool(b) => {
                    let _ = write!(s, "{b}");
                }
                FieldValue::Str(text) => {
                    s.push('"');
                    escape_json_into(text, &mut s);
                    s.push('"');
                }
                FieldValue::NumArray(items) => push_nums(&mut s, items),
            }
        }
        s.push('}');
        s
    }
}

/// Appends `vals` to `out` as a JSON array.
pub(crate) fn push_nums(out: &mut String, vals: &[u64]) {
    out.push('[');
    for (i, v) in vals.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
}

/// Appends `s` to `out` with JSON string escaping.
pub(crate) fn escape_json_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::{Collector, Counter};
    use crate::sampler::{SampleState, Sampler};
    use crate::sink::BufferSink;
    use std::sync::Arc;

    /// One record of every kind, through the paths campaigns use, must
    /// render byte for byte as the hand-written writers before the
    /// table did.
    #[test]
    fn every_record_kind_renders_its_golden_line() {
        let events = [
            Event::CoverageDelta {
                vectors: 100,
                coverage: 20,
                delta: 3,
            },
            Event::StagnationEnter {
                vectors: 400,
                intervals: 2,
            },
            Event::SymbolicEpisode {
                checkpoint: Some(5),
                eqns: 12,
                solve_result: SolveStatus::Unknown(UnknownReason::Conflicts),
            },
            Event::SmtSolve {
                vars: 40,
                clauses: 90,
                sat: true,
                micros: 17,
            },
            Event::PartialReset { prefix_len: 9 },
            Event::FullReset,
            Event::BugFired {
                property: "a\"b\\c\n\t\u{1}é".into(),
                vector: 999,
            },
            Event::BudgetExhausted {
                reason: UnknownReason::WallClock,
                level: 2,
                conflicts: 10_000,
                decisions: 31_407,
                propagations: 918_222,
            },
            Event::NodeCovered {
                node: 4,
                vector: 120,
                mechanism: Mechanism::SolverGuided,
                goal: Some(2),
                checkpoint: None,
            },
            Event::EdgeCovered {
                edge: 9,
                src: 4,
                dst: 5,
                vector: 121,
                mechanism: Mechanism::ReplayPrefix,
            },
            Event::GoalSolveCost {
                register: "st".into(),
                value: 3,
                status: SolveStatus::Unknown(UnknownReason::Conflicts),
                depth: 4,
                calls: 10,
                conflicts: 40,
                learned: 30,
                restarts: 2,
                hist: vec![0, 8, 0, 2],
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
                hist: vec![],
            },
            Event::CoreExtracted {
                register: "lock\"r".into(),
                value: 7,
                core: 0,
                blamed: 1,
            },
        ];
        let mut lines: Vec<String> = events
            .iter()
            .enumerate()
            .map(|(i, e)| e.to_json_line(i as u64, 1))
            .collect();

        let sink = BufferSink::new();
        let handle = sink.handle();
        let c = Arc::new(Collector::deterministic());
        c.set_task(3);
        c.set_sink(Box::new(sink));
        c.set_time(10);
        {
            let _span = c.phase(Phase::Solve);
            c.set_time(30);
        }
        c.add(Counter::SettleFastPath, 75);
        c.add(Counter::SettleEscapes, 25);
        for cache in [[Some(30), Some(10), Some(4), Some(3)], [None; 4]] {
            let mut values = vec![
                FieldValue::Num(75),
                FieldValue::Num(25),
                FieldValue::Num(3),
                FieldValue::Num(100),
            ];
            values.extend(cache.map(FieldValue::NumOrNull));
            c.trace_record(30, SUMMARY_RECORD, &values);
        }
        c.add(Counter::Vectors, 1000);
        c.add(Counter::SolverCalls, 7);
        c.set_time(1000);
        let state = SampleState {
            vectors: 1000,
            coverage: 42,
            nodes: 20,
            edges: 22,
            stagnant: 1,
        };
        Sampler::new(500).maybe_sample(&c, &state).unwrap();
        lines.extend(handle.lines());

        let golden = [
            r#"{"t":0,"task":1,"kind":"CoverageDelta","vectors":100,"coverage":20,"delta":3}"#,
            r#"{"t":1,"task":1,"kind":"StagnationEnter","vectors":400,"intervals":2}"#,
            r#"{"t":2,"task":1,"kind":"SymbolicEpisode","checkpoint":5,"eqns":12,"solve_result":"unknown:conflicts"}"#,
            r#"{"t":3,"task":1,"kind":"SmtSolve","vars":40,"clauses":90,"sat":true,"micros":17}"#,
            r#"{"t":4,"task":1,"kind":"PartialReset","prefix_len":9}"#,
            r#"{"t":5,"task":1,"kind":"FullReset"}"#,
            r#"{"t":6,"task":1,"kind":"BugFired","property":"a\"b\\c\n\t\u0001é","vector":999}"#,
            r#"{"t":7,"task":1,"kind":"BudgetExhausted","reason":"wall_clock","level":2,"conflicts":10000,"decisions":31407,"propagations":918222}"#,
            r#"{"t":8,"task":1,"kind":"NodeCovered","node":4,"vector":120,"mechanism":"solver","goal":2,"checkpoint":null}"#,
            r#"{"t":9,"task":1,"kind":"EdgeCovered","edge":9,"src":4,"dst":5,"vector":121,"mechanism":"replay"}"#,
            r#"{"t":10,"task":1,"kind":"GoalSolveCost","register":"st","value":3,"status":"unknown:conflicts","depth":4,"calls":10,"conflicts":40,"learned":30,"restarts":2,"hist":[0,8,0,2]}"#,
            r#"{"t":11,"task":1,"kind":"GoalSolveCost","register":"mode","value":1,"status":"sat","depth":2,"calls":2,"conflicts":0,"learned":0,"restarts":0,"hist":[]}"#,
            r#"{"t":12,"task":1,"kind":"CoreExtracted","register":"lock\"r","value":7,"core":0,"blamed":1}"#,
            r#"{"t":30,"task":3,"kind":"Phase","phase":"solve","micros":20}"#,
            r#"{"t":30,"task":3,"kind":"Summary","settle_fast_path":75,"settle_escapes":25,"x_island_cones":3,"settle_sweeps":100,"frame_hits":30,"frame_misses":10,"goals":4,"reused_goals":3}"#,
            r#"{"t":30,"task":3,"kind":"Summary","settle_fast_path":75,"settle_escapes":25,"x_island_cones":3,"settle_sweeps":100,"frame_hits":null,"frame_misses":null,"goals":null,"reused_goals":null}"#,
            r#"{"t":1000,"task":3,"kind":"Flight","interval":2,"vectors":1000,"coverage":42,"stagnant":1,"d_vectors":1000,"d_solver_calls":7,"d_settle_fast_path":75,"d_settle_escapes":25}"#,
        ];
        assert_eq!(lines, golden);
        let mut kinds: Vec<&str> = golden
            .iter()
            .map(|l| {
                l.split("\"kind\":\"")
                    .nth(1)
                    .unwrap()
                    .split('"')
                    .next()
                    .unwrap()
            })
            .collect();
        kinds.dedup();
        assert_eq!(kinds, RECORDS.map(|r| r.kind));
    }

    #[test]
    fn kinds_are_unique_and_found_by_name() {
        for (i, r) in RECORDS.iter().enumerate() {
            assert_eq!(record_schema(r.kind), Some(r));
            assert!(RECORDS[..i].iter().all(|o| o.kind != r.kind), "{}", r.kind);
        }
        assert_eq!(record_schema("Nope"), None);
    }

    #[test]
    fn closed_vocabularies_admit_only_their_words() {
        assert!(FieldType::SolveStatus.admits("unknown:conflicts"));
        assert!(!FieldType::SolveStatus.admits("maybe"));
        assert!(FieldType::UnknownReason.admits("wall_clock"));
        assert!(!FieldType::Phase.admits("nap"));
        assert!(FieldType::Mechanism.admits("replay"));
        assert!(FieldType::Str.admits("anything"));
        assert!(!FieldType::Num.admits("1"));
    }
}

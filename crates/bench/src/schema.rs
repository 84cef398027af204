//! The `results/` artifact schemas: one JSON reader, every checker,
//! every back-compat rule and the one `--check` entry point.
//!
//! Every artifact is read with `serde_json` into a [`serde::Value`] and
//! checked through one set of accessors ([`uint`], [`num`]) and one
//! version check. [`check_file`] tells artifacts apart by file name and
//! first object; the `--check FILE...` of `tracedump`, `covreport` and
//! `solverscope` runs through it ([`check_files`]), and `monitor --check`
//! runs [`check_status`] and [`check_flight`] on its `--status` and
//! `--flight` pair, the checkers its dashboard reads them through:
//!
//! | artifact | identified by | checker |
//! |---|---|---|
//! | `BENCH_*.json` | file stem | [`validate_bench_artifact`] |
//! | JSONL trace (`--trace-out`) | `.jsonl`, first record has `kind` | [`parse_trace`] |
//! | flight stream (`flight.jsonl`) | `.jsonl`, first record has `v` | [`check_flight`] |
//! | heartbeat (`status.json`) | `.json` with `v` | [`check_status`] |
//! | coverage report | `.json` with `strategies` | [`validate_report`] |
//! | scope report | `.json` with `designs` | [`validate_scope_report`] |
//! | covmap | `.json` with `fuzzer` | [`validate_covmap`] |
//!
//! Trace records are checked against the telemetry crate's [`RECORDS`]
//! table, the one its writer renders from; a kind no longer in it
//! (`Metrics`, `SolverCache`) is an unknown kind. Old files load
//! through one rule here, for `BENCH_telemetry` files without
//! introspection rows; [`bench_telemetry_history`] reads legacy
//! `BENCH_telemetry` heads forward. Heartbeats carry one solver-section
//! shape, the versioned block ([`status_solver_profile`]).

use crate::args::{exit_usage, ArgError};
use crate::covreport::{CovReport, COVREPORT_VERSION};
use crate::solverscope::{ScopeReport, SCOPEREPORT_VERSION};
use serde::{Deserialize, Value};
use std::path::Path;
use std::process::ExitCode;
use symbfuzz_core::{CovMap, SolverProfileBlock, VmProfileBlock, COVMAP_VERSION};
use symbfuzz_telemetry::{
    record_schema, FieldType, Mechanism, SolveStatus, FLIGHT_VECTORS, FLIGHT_VERSION, RECORDS,
    STATUS_SCALARS, STATUS_SECTIONS,
};

// --- accessors -------------------------------------------------------------

/// `v` as a non-negative integer below 2^53: the integers a JSON
/// number, read as `f64`, holds exactly. The check is by value, so `1e3`
/// and `1.0` are the integers 1000 and 1, and `-0` is 0.
pub fn uint(v: &Value) -> Option<u64> {
    match v {
        Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < 9_007_199_254_740_992.0 => {
            Some(*n as u64)
        }
        _ => None,
    }
}

/// What [`uint`] accepts, for error messages.
const UINT: &str = "a non-negative integer below 2^53";

fn parse_json(text: &str) -> Result<Value, String> {
    serde_json::from_str(text.trim()).map_err(|e| format!("not valid JSON: {e}"))
}

fn show(v: &Value) -> String {
    serde_json::to_string(v).unwrap_or_default()
}

fn field<'v>(v: &'v Value, name: &str) -> Result<&'v Value, String> {
    v.field(name).map_err(|_| format!("missing `{name}`"))
}

/// Field `name` of `v` as a non-negative integer below 2^53.
///
/// # Errors
///
/// Names the field when it is absent or not such a number.
pub fn num(v: &Value, name: &str) -> Result<u64, String> {
    let x = field(v, name)?;
    uint(x).ok_or_else(|| format!("`{name}` must be {UINT}, got {}", show(x)))
}

/// Field `name` of `v` as a finite number above zero; `what` names it
/// in the error.
fn positive(v: &Value, name: &str, what: &str) -> Result<f64, String> {
    match field(v, name)? {
        Value::Num(x) if x.is_finite() && *x > 0.0 => Ok(*x),
        Value::Num(x) if x.is_finite() => Err(format!("non-positive {what} {x}")),
        other => Err(format!(
            "`{name}` must be a finite number, got {}",
            show(other)
        )),
    }
}

/// `v` as a non-empty array of rows.
fn rows<'v>(v: &'v Value, what: &str) -> Result<&'v [Value], String> {
    match v {
        Value::Array(rows) if !rows.is_empty() => Ok(rows),
        _ => Err(format!("{what}: expected a non-empty array of rows")),
    }
}

fn check_version(v: &Value, key: &str, what: &str, want: u64) -> Result<(), String> {
    match num(v, key)? {
        got if got == want => Ok(()),
        got => Err(format!(
            "unsupported {what} version v{got} (this checker reads v{want})"
        )),
    }
}

// --- JSONL traces ----------------------------------------------------------

/// One parsed and schema-checked trace record.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Timestamp (clock units; wall-clock micros under `--trace-out`).
    pub t: u64,
    /// Pool task index the record came from.
    pub task: u64,
    /// Record kind: a [`RECORDS`] entry.
    pub kind: String,
    /// The kind-specific fields, in record order.
    pub fields: Vec<(String, Value)>,
}

impl TraceRecord {
    /// Looks up a field by name.
    pub fn field(&self, name: &str) -> Option<&Value> {
        self.fields.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// A numeric field, or 0 when absent, null or not numeric.
    pub fn num(&self, name: &str) -> u64 {
        self.field(name).and_then(uint).unwrap_or(0)
    }

    /// A string field, or "" when absent or not a string.
    pub fn str(&self, name: &str) -> &str {
        match self.field(name) {
            Some(Value::Str(s)) => s,
            _ => "",
        }
    }

    /// A numeric-array field, or empty when absent.
    pub fn arr(&self, name: &str) -> Vec<u64> {
        match self.field(name) {
            Some(Value::Array(items)) => items.iter().filter_map(uint).collect(),
            _ => Vec::new(),
        }
    }

    /// The record as one canonical JSONL line (no newline): `t`,
    /// `task`, `kind`, then the fields in record order. A line the
    /// telemetry writer produced comes back byte for byte.
    pub fn to_json(&self) -> String {
        let mut fields = vec![
            ("t".to_string(), Value::Num(self.t as f64)),
            ("task".to_string(), Value::Num(self.task as f64)),
            ("kind".to_string(), Value::Str(self.kind.clone())),
        ];
        fields.extend(self.fields.iter().cloned());
        show(&Value::Object(fields))
    }
}

fn field_matches(ty: FieldType, v: &Value) -> bool {
    match (ty, v) {
        (FieldType::NumOrNull, Value::Null) | (FieldType::Bool, Value::Bool(_)) => true,
        (FieldType::Num | FieldType::NumOrNull, _) => uint(v).is_some(),
        (FieldType::NumArray, Value::Array(items)) => items.iter().all(|i| uint(i).is_some()),
        (_, Value::Str(word)) => ty.admits(word),
        _ => false,
    }
}

/// Parses and schema-checks one trace line against [`RECORDS`]: the
/// `t`/`task`/`kind` header, then exactly the kind's fields, each of
/// its declared type. Duplicated keys are rejected. Numbers are checked
/// by value ([`uint`]); [`TraceRecord::to_json`] writes them in the
/// telemetry writer's form, so only a line that writer produced is sure
/// to come back byte for byte.
///
/// # Errors
///
/// Returns a description of the first syntax or schema violation.
pub fn parse_line(line: &str) -> Result<TraceRecord, String> {
    let v = parse_json(line)?;
    let Value::Object(entries) = &v else {
        return Err("a trace record must be a JSON object".into());
    };
    for (i, (key, _)) in entries.iter().enumerate() {
        if entries[..i].iter().any(|(k, _)| k == key) {
            return Err(format!("duplicate key `{key}`"));
        }
    }
    let (t, task) = (num(&v, "t")?, num(&v, "task")?);
    let Value::Str(kind) = field(&v, "kind")? else {
        return Err("`kind` must be a string".into());
    };
    let schema = record_schema(kind).ok_or_else(|| {
        format!(
            "unknown kind `{kind}` (expected one of {:?})",
            RECORDS.map(|r| r.kind)
        )
    })?;
    let fields: Vec<(String, Value)> = entries
        .iter()
        .filter(|(n, _)| !["t", "task", "kind"].contains(&n.as_str()))
        .cloned()
        .collect();
    let names: Vec<&str> = fields.iter().map(|(n, _)| n.as_str()).collect();
    if names.len() != schema.fields.len() {
        let want: Vec<&str> = schema.fields.iter().map(|(n, _)| *n).collect();
        return Err(format!("`{kind}` expects fields {want:?}, got {names:?}"));
    }
    for (name, ty) in schema.fields {
        let i = names.iter().position(|n| n == name);
        let val = i
            .map(|i| &fields[i].1)
            .ok_or(format!("`{kind}` is missing `{name}`"))?;
        if !field_matches(*ty, val) {
            return Err(format!("`{kind}.{name}` must be {ty:?}, got {}", show(val)));
        }
    }
    Ok(TraceRecord {
        t,
        task,
        kind: kind.clone(),
        fields,
    })
}

/// Parses a whole JSONL trace, reporting the first bad line by number.
///
/// # Errors
///
/// Returns `"line N: <why>"` for the first syntax or schema violation,
/// or a description of an empty trace: the mark of a campaign that
/// wrote nothing or of a truncated copy, never of a healthy run.
pub fn parse_trace(text: &str) -> Result<Vec<TraceRecord>, String> {
    let records = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| parse_line(l).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect::<Result<Vec<_>, _>>()?;
    if records.is_empty() {
        return Err("no records (empty or truncated trace)".into());
    }
    Ok(records)
}

// --- flight recorder: status.json and flight.jsonl -------------------------

/// Validates a `status.json` heartbeat: schema version, the scalar
/// header, every cumulative-metrics section, and — when the profiler
/// sections are present — their internal row shapes.
///
/// # Errors
///
/// Returns a description of the first violation.
pub fn check_status(text: &str) -> Result<Value, String> {
    let v = parse_json(text)?;
    check_version(&v, "v", "flight schema", FLIGHT_VERSION)?;
    for name in STATUS_SCALARS {
        num(&v, name)?;
    }
    for name in STATUS_SECTIONS {
        let section = field(&v, name)?;
        let Value::Object(pairs) = section else {
            return Err(format!("`{name}` must be an object"));
        };
        for (key, _) in pairs {
            num(section, key).map_err(|e| format!("{name}: {e}"))?;
        }
    }
    if let Some(p) = status_vm_profile(&v) {
        p.map_err(|e| format!("vm_profile: {e}"))?;
    }
    if let Some(p) = status_solver_profile(&v) {
        p.map_err(|e| format!("solver_profile: {e}"))?;
    }
    Ok(v)
}

/// The heartbeat's VM profiler section, when present, read into its
/// report mirror.
pub fn status_vm_profile(status: &Value) -> Option<Result<VmProfileBlock, String>> {
    let p = status.field("vm_profile").ok()?;
    Some(VmProfileBlock::from_value(p).map_err(|e| e.to_string()))
}

/// The heartbeat's per-goal solver section, when present, read as the
/// versioned block and checked with [`SolverProfileBlock::check`].
/// Older section shapes were only ever written into version-1
/// heartbeats, which [`check_status`] rejects before reading sections.
pub fn status_solver_profile(status: &Value) -> Option<Result<SolverProfileBlock, String>> {
    let p = status.field("solver_profile").ok()?;
    Some(
        SolverProfileBlock::from_value(p)
            .map_err(|e| e.to_string())
            .and_then(|block| block.check().map(|()| block)),
    )
}

/// Validates a whole `flight.jsonl` stream: at least one record, every
/// line schema-clean, interval indexes strictly increasing.
///
/// # Errors
///
/// Returns `"line N: <why>"` for the first bad line, or a description
/// of an empty/truncated stream.
pub fn check_flight(text: &str) -> Result<Vec<Value>, String> {
    let mut samples: Vec<Value> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let at = |e: String| format!("line {}: {e}", i + 1);
        let v = parse_json(line).map_err(at)?;
        check_version(&v, "v", "flight schema", FLIGHT_VERSION).map_err(at)?;
        for name in STATUS_SCALARS.iter().chain(&["task"]) {
            num(&v, name).map_err(at)?;
        }
        for name in FLIGHT_VECTORS {
            match field(&v, name).map_err(at)? {
                Value::Array(items) if items.iter().all(|x| uint(x).is_some()) => {}
                _ => return Err(at(format!("`{name}` must be an array of counts"))),
            }
        }
        let interval = num(&v, "interval").map_err(at)?;
        if let Some(prev) = samples.last().map(|p| num(p, "interval").unwrap_or(0)) {
            if interval <= prev {
                return Err(at(format!(
                    "interval {interval} not above previous {prev} \
                     (stream must be strictly increasing)"
                )));
            }
        }
        samples.push(v);
    }
    if samples.is_empty() {
        return Err("no samples (empty or truncated flight stream)".into());
    }
    Ok(samples)
}

// --- covreport: coverage report and covmap ---------------------------------

fn check_mechanism(name: &str, what: &str) -> Result<(), String> {
    if Mechanism::parse(name).is_none() {
        return Err(format!("{what}: unknown mechanism `{name}`"));
    }
    Ok(())
}

fn check_solve_status(name: &str, what: &str) -> Result<(), String> {
    if name != "unattempted" && SolveStatus::parse(name).is_none() {
        return Err(format!("{what}: unknown solve status `{name}`"));
    }
    Ok(())
}

/// The version-checked `T` in `text`.
fn versioned<T: Deserialize>(text: &str, what: &str, want: u32) -> Result<T, String> {
    let v = parse_json(text)?;
    check_version(&v, "version", what, want.into())?;
    T::from_value(&v).map_err(|e| e.to_string())
}
/// Parses and schema-checks a report JSON document: version stamp,
/// closed mechanism / solve-status vocabularies, per-strategy
/// mechanism lists in [`Mechanism::ALL`] order, and monotone coverage
/// series.
///
/// # Errors
///
/// Returns a description of the first violation.
pub fn validate_report(text: &str) -> Result<CovReport, String> {
    let r: CovReport = versioned(text, "report", COVREPORT_VERSION)?;
    let want: Vec<&str> = Mechanism::ALL.iter().map(|m| m.name()).collect();
    for s in &r.strategies {
        let at = |e: String| format!("strategy `{}`: {e}", s.strategy);
        let got: Vec<&str> = s.mechanisms.iter().map(|m| m.mechanism.as_str()).collect();
        if got != want {
            return Err(at(format!("mechanisms {got:?} (expected {want:?})")));
        }
        let attributed: u64 = s.mechanisms.iter().map(|m| m.nodes).sum();
        if attributed != s.nodes {
            return Err(at(format!("{attributed} attributed nodes of {}", s.nodes)));
        }
        if s.series.windows(2).any(|w| w[0].coverage > w[1].coverage) {
            return Err(at("coverage series regresses".into()));
        }
    }
    for b in &r.bugs {
        check_mechanism(&b.mechanism, &format!("bug `{}`", b.property))?;
        for l in &b.chain {
            check_mechanism(&l.mechanism, &format!("bug `{}` chain", b.property))?;
        }
        if let Some(status) = &b.goal_status {
            check_solve_status(status, &format!("bug `{}` goal", b.property))?;
        }
    }
    for f in &r.frontier {
        check_solve_status(&f.last_status, &format!("frontier `{}`", f.register))?;
    }
    for t in &r.trace {
        check_mechanism(&t.mechanism, "trace join")?;
    }
    Ok(r)
}

/// Parses and schema-checks a standalone covmap JSON artifact: version
/// stamp, closed vocabularies, in-range goal ids and edge endpoints.
///
/// # Errors
///
/// Returns a description of the first violation.
pub fn validate_covmap(text: &str) -> Result<CovMap, String> {
    let m: CovMap = versioned(text, "covmap", COVMAP_VERSION)?;
    let (ngoals, nnodes) = (m.goals.len() as u64, m.nodes.len() as u64);
    for n in &m.nodes {
        check_mechanism(&n.provenance.mechanism, &format!("node {}", n.id))?;
        if n.provenance.goal.is_some_and(|g| g >= ngoals) {
            return Err(format!("node {}: goal id out of range", n.id));
        }
    }
    for e in &m.edges {
        check_mechanism(&e.provenance.mechanism, &format!("edge {}", e.id))?;
        if e.src >= nnodes || e.dst >= nnodes {
            return Err(format!("edge {}: endpoint out of range", e.id));
        }
    }
    for g in &m.goals {
        check_solve_status(&g.status, &format!("goal {}", g.id))?;
    }
    for f in &m.frontier {
        check_solve_status(&f.last_status, &format!("frontier `{}`", f.register))?;
    }
    Ok(m)
}

// --- solverscope and BENCH_* -----------------------------------------------

/// Parses and schema-checks a scope report JSON document: the version
/// stamp, every design's per-goal block ([`SolverProfileBlock::check`]),
/// and attribution and cache tallies that stay within their totals.
///
/// # Errors
///
/// Returns a description of the first violation.
pub fn validate_scope_report(text: &str) -> Result<ScopeReport, String> {
    let r: ScopeReport = versioned(text, "scope report", SCOPEREPORT_VERSION)?;
    for d in &r.designs {
        let at = |e: String| format!("design `{}`: {e}", d.design);
        d.profile.check().map_err(at)?;
        if d.campaigns == 0 {
            return Err(at("zero campaigns".into()));
        }
        if d.exhausted_blamed > d.exhausted_goals {
            let (b, g) = (d.exhausted_blamed, d.exhausted_goals);
            return Err(at(format!("{b} blamed of {g} exhausted goals")));
        }
        if let Some(c) = &d.solver_cache {
            if c.reused_goals > c.goals {
                let (r, g) = (c.reused_goals, c.goals);
                return Err(at(format!("{r} reused of {g} cached goals")));
            }
            if c.reuse_milli > 1000 {
                let m = c.reuse_milli;
                return Err(at(format!("session reuse {m} exceeds 1000 milli")));
            }
        }
    }
    Ok(r)
}

/// Schema-checks one `results/BENCH_*.json` artifact by file stem:
/// each known benchmark family must carry its headline rows and
/// finite-positive ratios; unknown `BENCH_` stems must at least parse
/// as non-null JSON.
///
/// # Errors
///
/// Returns a description of the first violation.
pub fn validate_bench_artifact(stem: &str, text: &str) -> Result<(), String> {
    let v = parse_json(text)?;
    bench_artifact(stem, &v).map_err(|e| format!("{stem}: {e}"))
}

fn bench_artifact(stem: &str, v: &Value) -> Result<(), String> {
    match stem {
        "BENCH_telemetry" => {
            for row in rows(field(v, "rows")?, "rows")? {
                positive(row, "ratio", "sampling ratio")?;
            }
            positive(v, "geomean_sampling_ratio", "geomean")?;
            // Files written before the introspection A/B have no rows.
            if let Ok(ab) = v.field("introspection_rows") {
                for row in rows(ab, "introspection_rows")? {
                    positive(row, "ratio", "introspection ratio")?;
                }
                positive(v, "geomean_introspection_ratio", "introspection geomean")?;
            }
        }
        "BENCH_budget" => {
            for row in rows(v, stem)? {
                field(row, "design")?;
                if !matches!(field(row, "solver_budget")?, Value::Num(n) if n.is_finite()) {
                    return Err("`solver_budget` must be a finite number".into());
                }
            }
        }
        _ if *v == Value::Null => return Err("null artifact".into()),
        _ => {}
    }
    Ok(())
}

/// The timed history a rewritten `BENCH_telemetry.json` carries
/// forward from the old file's `text`, oldest first: the old `history`
/// list, then the old head (`rows`, geomeans, ...) as one more entry. A
/// legacy file holding a bare telemetry block joins as one entry;
/// unreadable text yields nothing.
pub fn bench_telemetry_history(text: &str) -> Vec<Value> {
    let Ok(v) = parse_json(text) else {
        return Vec::new();
    };
    let mut history = match v.field("history") {
        Ok(Value::Array(h)) => h.clone(),
        _ => Vec::new(),
    };
    match v {
        Value::Object(fields) => {
            let head: Vec<(String, Value)> =
                fields.into_iter().filter(|(k, _)| k != "history").collect();
            if !head.is_empty() {
                history.push(Value::Object(head));
            }
        }
        other => history.push(other),
    }
    history
}

// --- the one `--check` -------------------------------------------------------

/// Reads the file at `path` and runs `check` on its text; an error
/// names the path.
///
/// # Errors
///
/// Returns `"<path>: <why>"` when the file cannot be read or fails
/// `check`.
pub fn read_checked<T>(
    path: &Path,
    check: impl FnOnce(&str) -> Result<T, String>,
) -> Result<T, String> {
    std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|text| check(&text))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Checks one `results/` artifact, identified by its file name and
/// first object (see the module table), and returns the line to print
/// on success.
///
/// # Errors
///
/// Returns `"<path>: <why>"` for an unreadable, unrecognised or
/// schema-violating file.
pub fn check_file(path: &Path) -> Result<String, String> {
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
    let what = read_checked(path, |text| check_text(name, text))?;
    Ok(format!("{}: {what}, schema OK", path.display()))
}

fn check_text(name: &str, text: &str) -> Result<String, String> {
    if let Some(stem) = name
        .strip_suffix(".json")
        .filter(|s| s.starts_with("BENCH_"))
    {
        return validate_bench_artifact(stem, text).map(|()| format!("{stem} artifact"));
    }
    // A JSONL stream is told apart by its first record.
    let jsonl = name.ends_with(".jsonl");
    let first = match text.lines().enumerate().find(|(_, l)| !l.trim().is_empty()) {
        _ if !jsonl => parse_json(text)?,
        Some((i, line)) => parse_json(line).map_err(|e| format!("line {}: {e}", i + 1))?,
        None => return Err("no records (empty or truncated stream)".into()),
    };
    let keys = ["kind", "v", "strategies", "designs", "fuzzer"];
    match (jsonl, keys.into_iter().find(|k| first.field(k).is_ok())) {
        (true, Some("kind")) => Ok(format!("trace, {} records", parse_trace(text)?.len())),
        (true, Some("v")) => Ok(format!(
            "flight stream, {} samples",
            check_flight(text)?.len()
        )),
        (false, Some("v")) => check_status(text).map(|_| "heartbeat".into()),
        (false, Some("strategies")) => validate_report(text).map(|_| "coverage report".into()),
        (false, Some("designs")) => validate_scope_report(text)
            .map(|r| format!("scope report, {} designs", r.designs.len())),
        (false, Some("fuzzer")) => validate_covmap(text).map(|_| "covmap".into()),
        _ => Err(
            "unrecognised artifact: a trace or flight stream (`.jsonl` whose first \
                  record has `kind` or `v`), or a `.json` heartbeat (`v`), coverage report \
                  (`strategies`), scope report (`designs`) or covmap (`fuzzer`) was expected"
                .into(),
        ),
    }
}

/// The `--check FILE...` of `tracedump`, `covreport` and
/// `solverscope`: runs [`check_file`] on each path, printing each
/// verdict (failures to stderr, prefixed with `bin`). Exits with status
/// 2 when `paths` is empty.
pub fn check_files<P: AsRef<Path>>(bin: &str, paths: &[P]) -> ExitCode {
    if paths.is_empty() {
        exit_usage(&ArgError::Missing("a file after `--check`".into()));
    }
    let mut ok = true;
    for p in paths {
        match check_file(p.as_ref()) {
            Ok(line) => println!("{line}"),
            Err(e) => {
                eprintln!("{bin}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::covreport::tests::tiny_report as tiny_cov_report;
    use crate::monitor::{parse_prometheus, render_dashboard, render_prometheus};
    use crate::solverscope::tests::tiny_report as tiny_scope_report;
    use symbfuzz_telemetry::{Event, UnknownReason};

    fn json_lines(records: &[TraceRecord]) -> String {
        records.iter().map(|r| r.to_json() + "\n").collect()
    }

    #[test]
    fn event_lines_round_trip_through_parser() {
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
                solve_result: SolveStatus::Sat,
            },
            Event::SymbolicEpisode {
                checkpoint: None,
                eqns: 12,
                solve_result: SolveStatus::Unknown(UnknownReason::Conflicts),
            },
            Event::BudgetExhausted {
                reason: UnknownReason::Conflicts,
                level: 2,
                conflicts: 10_000,
                decisions: 31_407,
                propagations: 918_222,
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
                property: "a\"b".into(),
                vector: 999,
            },
            Event::NodeCovered {
                node: 4,
                vector: 120,
                mechanism: Mechanism::SolverGuided,
                goal: Some(2),
                checkpoint: None,
            },
            Event::NodeCovered {
                node: 5,
                vector: 121,
                mechanism: Mechanism::ReplayPrefix,
                goal: None,
                checkpoint: Some(3),
            },
            Event::EdgeCovered {
                edge: 9,
                src: 4,
                dst: 5,
                vector: 121,
                mechanism: Mechanism::ConstrainedRandom,
            },
        ];
        for (i, e) in events.iter().enumerate() {
            let line = e.to_json_line(i as u64, 3);
            let rec = parse_line(&line).expect("valid line");
            assert_eq!(rec.t, i as u64);
            assert_eq!(rec.task, 3);
            assert_eq!(rec.kind, e.kind());
        }
        let rec = parse_line(&events[8].to_json_line(0, 0)).unwrap();
        assert_eq!(rec.str("property"), "a\"b");
    }

    #[test]
    fn schema_violations_are_rejected() {
        // Missing field.
        assert!(parse_line("{\"t\":1,\"task\":0,\"kind\":\"PartialReset\"}").is_err());
        // Wrong type.
        assert!(
            parse_line("{\"t\":1,\"task\":0,\"kind\":\"PartialReset\",\"prefix_len\":\"x\"}")
                .is_err()
        );
        // Unknown kind.
        assert!(parse_line("{\"t\":1,\"task\":0,\"kind\":\"Nope\"}").is_err());
        // Extra field.
        assert!(parse_line("{\"t\":1,\"task\":0,\"kind\":\"FullReset\",\"x\":1}").is_err());
        // Unknown solve outcome.
        assert!(parse_line(
            "{\"t\":1,\"task\":0,\"kind\":\"SymbolicEpisode\",\"checkpoint\":null,\
             \"eqns\":1,\"solve_result\":\"maybe\"}"
        )
        .is_err());
        // A structured unknown round-trips; an unknown ceiling name does not.
        assert!(parse_line(
            "{\"t\":1,\"task\":0,\"kind\":\"SymbolicEpisode\",\"checkpoint\":null,\
             \"eqns\":1,\"solve_result\":\"unknown:conflicts\"}"
        )
        .is_ok());
        // Unknown budget ceiling name.
        assert!(parse_line(
            "{\"t\":1,\"task\":0,\"kind\":\"BudgetExhausted\",\"reason\":\"patience\",\
             \"level\":0,\"conflicts\":1,\"decisions\":1,\"propagations\":1}"
        )
        .is_err());
        // Unknown phase name.
        assert!(parse_line(
            "{\"t\":1,\"task\":0,\"kind\":\"Phase\",\"phase\":\"nap\",\"micros\":4}"
        )
        .is_err());
        // Unknown coverage mechanism.
        assert!(parse_line(
            "{\"t\":1,\"task\":0,\"kind\":\"NodeCovered\",\"node\":1,\"vector\":2,\
             \"mechanism\":\"telepathy\",\"goal\":null,\"checkpoint\":null}"
        )
        .is_err());
        assert!(parse_line(
            "{\"t\":1,\"task\":0,\"kind\":\"EdgeCovered\",\"edge\":0,\"src\":1,\"dst\":2,\
             \"vector\":3,\"mechanism\":\"osmosis\"}"
        )
        .is_err());
        // Syntax errors and duplicated keys, each in an otherwise valid
        // record so that only the rule under test can reject it.
        let full_reset = "{\"t\":1,\"task\":0,\"kind\":\"FullReset\"}";
        assert!(parse_line(full_reset).is_ok());
        for bad in [
            &full_reset[..full_reset.len() - 1],
            &format!("{full_reset} x"),
        ] {
            let err = parse_line(bad).unwrap_err();
            assert!(err.contains("not valid JSON"), "{bad}: {err}");
        }
        let err = parse_line("{\"t\":1,\"t\":2,\"task\":0,\"kind\":\"FullReset\"}").unwrap_err();
        assert!(err.contains("duplicate key `t`"), "{err}");
    }

    #[test]
    fn trace_numbers_are_checked_by_value() {
        let reset = |n: &str| {
            parse_line(&format!(
                "{{\"t\":1,\"task\":0,\"kind\":\"PartialReset\",\"prefix_len\":{n}}}"
            ))
        };
        // 2^53 - 1 is the largest integer an `f64` holds exactly.
        let max = reset("9007199254740991").unwrap();
        assert_eq!(max.num("prefix_len"), 9_007_199_254_740_991);
        for bad in ["9007199254740992", "-1", "1.5", "\"7\"", "null"] {
            let err = reset(bad).unwrap_err();
            assert!(err.contains("`PartialReset.prefix_len`"), "{bad}: {err}");
        }
        // Other spellings of a non-negative integer pass as that integer
        // and are re-emitted in the writer's form.
        for (spelling, canonical) in [("1e3", "1000"), ("1.0", "1"), ("-0", "0")] {
            let line = reset(spelling).unwrap().to_json();
            assert!(
                line.ends_with(&format!(":{canonical}}}")),
                "{spelling}: {line}"
            );
        }
    }

    #[test]
    fn canonical_json_round_trips_through_the_schema_checker() {
        let events = [
            Event::NodeCovered {
                node: 7,
                vector: 42,
                mechanism: Mechanism::SolverGuided,
                goal: Some(1),
                checkpoint: Some(2),
            },
            Event::BugFired {
                property: "needs \"escaping\"".into(),
                vector: 9,
            },
            Event::FullReset,
        ];
        let text: String = events
            .iter()
            .enumerate()
            .map(|(i, e)| e.to_json_line(i as u64, 0) + "\n")
            .collect();
        let records = parse_trace(&text).unwrap();
        // The canonical re-serialization is byte-identical to what the
        // telemetry layer emitted, and re-validates cleanly.
        assert_eq!(json_lines(&records), text);
        assert_eq!(parse_trace(&json_lines(&records)).unwrap(), records);
    }

    #[test]
    fn trace_errors_carry_line_numbers() {
        let text = "{\"t\":0,\"task\":0,\"kind\":\"FullReset\"}\n\nnot json\n";
        let err = parse_trace(text).unwrap_err();
        assert!(err.starts_with("line 3:"), "{err}");
    }

    #[test]
    fn solver_cost_schema_violations_are_rejected() {
        // Unknown solve status.
        assert!(parse_line(
            "{\"t\":1,\"task\":0,\"kind\":\"GoalSolveCost\",\"register\":\"st\",\"value\":3,\
             \"status\":\"maybe\",\"depth\":1,\"calls\":1,\"conflicts\":0,\"learned\":0,\
             \"restarts\":0,\"hist\":[]}"
        )
        .is_err());
        // `hist` must be an array.
        assert!(parse_line(
            "{\"t\":1,\"task\":0,\"kind\":\"GoalSolveCost\",\"register\":\"st\",\"value\":3,\
             \"status\":\"sat\",\"depth\":1,\"calls\":1,\"conflicts\":0,\"learned\":0,\
             \"restarts\":0,\"hist\":7}"
        )
        .is_err());
        // Arrays hold numbers only, in valid JSON.
        let cost = |hist: &str| {
            parse_line(&format!(
                "{{\"t\":1,\"task\":0,\"kind\":\"GoalSolveCost\",\"register\":\"st\",\
                 \"value\":3,\"status\":\"sat\",\"depth\":1,\"calls\":1,\"conflicts\":0,\
                 \"learned\":0,\"restarts\":0,\"hist\":{hist}}}"
            ))
        };
        assert_eq!(cost("[1,2]").unwrap().arr("hist"), vec![1, 2]);
        let err = cost("[\"x\"]").unwrap_err();
        assert!(err.contains("`GoalSolveCost.hist`"), "{err}");
        let err = cost("[1,]").unwrap_err();
        assert!(err.contains("not valid JSON"), "{err}");
        // Missing field.
        assert!(parse_line(
            "{\"t\":1,\"task\":0,\"kind\":\"CoreExtracted\",\"register\":\"st\",\"value\":3,\
             \"core\":2}"
        )
        .is_err());
    }

    #[test]
    fn valid_coverage_report_round_trips() {
        let r = tiny_cov_report();
        let json = serde_json::to_string_pretty(&r).unwrap();
        let back = validate_report(&json).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn validation_rejects_bad_vocabulary() {
        let mut r = tiny_cov_report();
        r.bugs[0].mechanism = "luck".into();
        let json = serde_json::to_string(&r).unwrap();
        assert!(validate_report(&json).unwrap_err().contains("luck"));

        let mut r = tiny_cov_report();
        r.frontier[0].last_status = "pending".into();
        let json = serde_json::to_string(&r).unwrap();
        assert!(validate_report(&json).is_err());

        let mut r = tiny_cov_report();
        r.version = 99;
        let json = serde_json::to_string(&r).unwrap();
        assert!(validate_report(&json).unwrap_err().contains("version"));

        // Attribution must account for every covered node.
        let mut r = tiny_cov_report();
        r.strategies[0].mechanisms[0].nodes = 5;
        let json = serde_json::to_string(&r).unwrap();
        assert!(validate_report(&json).unwrap_err().contains("attributed"));
    }

    #[test]
    fn valid_scope_report_round_trips() {
        let r = tiny_scope_report();
        let json = serde_json::to_string_pretty(&r).unwrap();
        let back = validate_scope_report(&json).unwrap();
        assert_eq!(
            serde_json::to_string(&back).unwrap(),
            serde_json::to_string(&r).unwrap()
        );
    }

    #[test]
    fn validation_rejects_schema_violations() {
        let mut r = tiny_scope_report();
        r.version = 99;
        let json = serde_json::to_string(&r).unwrap();
        assert!(validate_scope_report(&json)
            .unwrap_err()
            .contains("version"));

        let mut r = tiny_scope_report();
        let intro = r.designs[0].profile.goals[0]
            .introspection
            .as_mut()
            .unwrap();
        intro.blame = vec!["st".into(), "lock".into()];
        let json = serde_json::to_string(&r).unwrap();
        assert!(validate_scope_report(&json).unwrap_err().contains("sorted"));

        let mut r = tiny_scope_report();
        r.designs[0].exhausted_blamed = 7;
        let json = serde_json::to_string(&r).unwrap();
        assert!(validate_scope_report(&json).unwrap_err().contains("blamed"));

        let mut r = tiny_scope_report();
        let intro = r.designs[0].profile.goals[0]
            .introspection
            .as_mut()
            .unwrap();
        intro.lbd_hist.pop();
        let json = serde_json::to_string(&r).unwrap();
        assert!(validate_scope_report(&json)
            .unwrap_err()
            .contains("buckets"));

        // v2 addition: cache reuse must be internally consistent.
        let mut r = tiny_scope_report();
        r.designs[0].solver_cache.as_mut().unwrap().reused_goals = 99;
        let json = serde_json::to_string(&r).unwrap();
        assert!(validate_scope_report(&json).unwrap_err().contains("reused"));
    }

    #[test]
    fn bench_artifact_checks_cover_known_families() {
        let ok = r#"{"rows":[{"ratio":0.98}],"geomean_sampling_ratio":0.99}"#;
        assert!(validate_bench_artifact("BENCH_telemetry", ok).is_ok());
        let bad = r#"{"rows":[{"ratio":-1.0}],"geomean_sampling_ratio":0.99}"#;
        assert!(validate_bench_artifact("BENCH_telemetry", bad)
            .unwrap_err()
            .contains("non-positive"));
        let with_ab = r#"{"rows":[{"ratio":1.0}],"geomean_sampling_ratio":1.0,
            "introspection_rows":[{"ratio":0.97}],"geomean_introspection_ratio":0.97}"#;
        assert!(validate_bench_artifact("BENCH_telemetry", with_ab).is_ok());

        assert!(validate_bench_artifact(
            "BENCH_budget",
            r#"[{"design":"hard_factor","solver_budget":500}]"#
        )
        .is_ok());
        assert!(
            validate_bench_artifact("BENCH_budget", r#"[{"design":"x"}]"#)
                .unwrap_err()
                .contains("solver_budget")
        );
        assert!(validate_bench_artifact("BENCH_future", r#"{"anything":true}"#).is_ok());
        assert!(validate_bench_artifact("BENCH_future", "null").is_err());
    }
    /// A heartbeat as campaigns write it now, with one introspected
    /// goal in its versioned solver section.
    const STATUS: &str = r#"{"v":2,"interval":2,"t":200,"vectors":200,
      "coverage":3,"nodes":2,"edges":1,"stagnant":0,"counters":{"vectors":200},
      "gauges":{},"events":{},"phase_self_micros":{},
      "solver_profile":{"version":2,"goals":[{"register":"st","value":2,"attempts":1,
        "sat":0,"unsat":1,"exhausted":0,"neg_cache_hits":3,"conflicts":12,"decisions":30,
        "propagations":99,"solver_calls":2,"deepest_unroll":4,"escalations":[0],
        "introspection":{"learned":11,"restarts":0,
          "learned_size_hist":[0,11,0,0,0,0,0,0,0,0,0,0],
          "lbd_hist":[0,11,0,0,0,0,0,0,0,0,0,0],
          "call_conflict_hist":[0,0,2,0,0,0,0,0,0,0,0,0],"restart_timeline":[],
          "conflict_depth_sum":20,"conflict_depth_max":4,"hot_signals":[["k",1000]],
          "blame":["st"]}}],
        "total_attempts":1,"total_neg_cache_hits":3}}"#;

    #[test]
    fn status_solver_sections_load_and_render() {
        let status = check_status(STATUS).expect("heartbeat validates");
        let block = status_solver_profile(&status).unwrap().unwrap();
        let i = block.goals[0].introspection.as_ref().unwrap();
        assert_eq!(
            (i.learned, block.goals[0].conflicts, i.blame.as_slice()),
            (11, 12, &["st".to_string()][..])
        );
        assert_eq!(block.total_attempts, 1);
        let dash = render_dashboard(&status, &[], 5);
        assert!(dash.contains("st==2"), "{dash}");
        let prom = render_prometheus(&status);
        assert!(
            prom.contains("symbfuzz_goal_attempts{register=\"st\",value=\"2\"} 1"),
            "{prom}"
        );
    }

    #[test]
    fn bad_status_solver_sections_are_named_and_shown_unreadable() {
        // A section that fails to read is named by the check and shown
        // by both renderers instead of silently dropped.
        let broken: Value =
            serde_json::from_str(&STATUS.replace("\"total_attempts\":1,", "")).unwrap();
        let err = check_status(&serde_json::to_string(&broken).unwrap()).unwrap_err();
        assert!(err.starts_with("solver_profile: "), "{err}");
        assert!(err.contains("total_attempts"), "{err}");
        let dash = render_dashboard(&broken, &[], 5);
        assert!(dash.contains("solver profile unreadable"), "{dash}");
        let prom = render_prometheus(&broken);
        assert!(prom.contains("# solver_profile unreadable"), "{prom}");
        assert!(parse_prometheus(&prom).is_ok(), "{prom}");
        // An unversioned section is not upgraded: no writer of a
        // version-2 heartbeat produced one.
        let unversioned = STATUS.replace("\"version\":2,", "");
        let err = check_status(&unversioned).unwrap_err();
        assert!(err.starts_with("solver_profile: "), "{err}");
        assert!(err.contains("version"), "{err}");
    }

    #[test]
    fn corrupted_introspected_status_names_the_goal() {
        let (status_text, _) = crate::monitor::tests::campaign_artifacts();
        let Value::Object(mut fields) = check_status(&status_text).unwrap() else {
            panic!("status is an object")
        };
        let (_, section) = fields
            .iter_mut()
            .find(|(k, _)| k == "solver_profile")
            .expect("heartbeat carries the solver section");
        let mut block = SolverProfileBlock::from_value(section).unwrap();
        let goal = block
            .goals
            .iter_mut()
            .find(|g| g.introspection.is_some())
            .expect("introspected campaign traces its goals");
        let name = format!("goal `{}`={}", goal.register, goal.value);
        goal.introspection
            .as_mut()
            .unwrap()
            .call_conflict_hist
            .push(0);
        *section = serde::Serialize::to_value(&block);
        let corrupted = serde_json::to_string(&Value::Object(fields)).unwrap();
        let err = check_status(&corrupted).unwrap_err();
        assert!(err.starts_with("solver_profile: "), "{err}");
        assert!(err.contains(&name), "{err}");
        assert!(err.contains("call-conflict"), "{err}");
    }

    #[test]
    fn status_violations_are_named() {
        assert!(check_status("").unwrap_err().contains("not valid JSON"));
        // Heartbeats share the flight stream's version, and v1 streams
        // carry another counter and gauge layout.
        assert!(check_status("{\"v\":1}").unwrap_err().contains("v1"));
        let err = check_status("{\"v\":2,\"interval\":0}").unwrap_err();
        assert!(err.contains("missing `t`"), "{err}");
        // A scalar of the wrong type is rejected.
        let err = check_status(
            "{\"v\":2,\"interval\":0,\"t\":0,\"vectors\":\"many\",\"coverage\":0,\
             \"nodes\":0,\"edges\":0,\"stagnant\":0}",
        )
        .unwrap_err();
        assert!(err.contains("`vectors`"), "{err}");
    }

    #[test]
    fn flight_violations_carry_line_numbers() {
        let good = "{\"v\":2,\"interval\":1,\"t\":5,\"task\":0,\"vectors\":100,\
                    \"coverage\":3,\"nodes\":2,\"edges\":1,\"stagnant\":0,\
                    \"d_counters\":[100],\"gauges\":[1],\"d_events\":[0],\"d_phase_micros\":[9]}";
        assert_eq!(check_flight(&format!("{good}\n")).unwrap().len(), 1);
        // Empty streams hard-error instead of passing vacuously.
        let err = check_flight("").unwrap_err();
        assert!(err.contains("empty or truncated"), "{err}");
        // Truncated tail line.
        let err = check_flight(&format!("{good}\n{{\"v\":2,\"interval\":2")).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        // Interval regression (e.g. two raw task streams concatenated
        // instead of merged): a repeated interval index is rejected.
        let err = check_flight(&format!("{good}\n{good}\n")).unwrap_err();
        assert!(err.contains("not above previous"), "{err}");
    }
}

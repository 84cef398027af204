//! Flight-recorder artifact validation and rendering for the
//! `monitor` binary.
//!
//! The fuzzer's [`symbfuzz_telemetry::Sampler`] leaves two artifacts
//! behind: an append-only `flight.jsonl` stream (one delta-compressed
//! sample per interval) and an atomically-rewritten `status.json`
//! heartbeat that is safe to poll mid-run. This module is their
//! consumer: schema checks that hard-error with the first offending
//! line, a terminal dashboard, and a Prometheus-style text exposition
//! for scraping. Everything here is pure text-in/text-out so the
//! binary stays a thin shell.

use serde::Value;
use std::fmt::Write as _;
use symbfuzz_core::SolverProfileBlock;
use symbfuzz_telemetry::FLIGHT_VERSION;

/// The scalar header fields every `status.json` and every
/// `flight.jsonl` record carries.
pub const STATUS_SCALARS: [&str; 7] = [
    "interval", "t", "vectors", "coverage", "nodes", "edges", "stagnant",
];

/// The cumulative-metrics sections of `status.json`, each an object of
/// `name → number` pairs.
pub const STATUS_SECTIONS: [&str; 4] = ["counters", "gauges", "events", "phase_self_micros"];

/// The per-sample delta/gauge vectors of a `flight.jsonl` record.
pub const FLIGHT_VECTORS: [&str; 4] = ["d_counters", "gauges", "d_events", "d_phase_micros"];

fn field_num(v: &Value, name: &str) -> Result<u64, String> {
    match v.field(name) {
        Ok(Value::Num(n)) => Ok(*n as u64),
        Ok(other) => Err(format!("`{name}` must be a number, got {other:?}")),
        Err(_) => Err(format!("missing `{name}`")),
    }
}

fn check_version(v: &Value) -> Result<(), String> {
    let got = field_num(v, "v")?;
    if got != FLIGHT_VERSION {
        return Err(format!(
            "unsupported flight schema v{got} (this monitor speaks v{FLIGHT_VERSION})"
        ));
    }
    Ok(())
}

fn check_pairs_object(v: &Value, name: &str) -> Result<(), String> {
    match v.field(name) {
        Ok(Value::Object(fields)) => {
            for (k, val) in fields {
                if !matches!(val, Value::Num(_)) {
                    return Err(format!("`{name}.{k}` must be a number, got {val:?}"));
                }
            }
            Ok(())
        }
        Ok(other) => Err(format!("`{name}` must be an object, got {other:?}")),
        Err(_) => Err(format!("missing `{name}`")),
    }
}

fn check_num_array(v: &Value, name: &str) -> Result<(), String> {
    match v.field(name) {
        Ok(Value::Array(items)) => {
            if items.iter().all(|i| matches!(i, Value::Num(_))) {
                Ok(())
            } else {
                Err(format!("`{name}` must contain only numbers"))
            }
        }
        Ok(other) => Err(format!("`{name}` must be an array, got {other:?}")),
        Err(_) => Err(format!("missing `{name}`")),
    }
}

/// Validates a `status.json` heartbeat: schema version, the scalar
/// header, every cumulative-metrics section, and — when the profiler
/// sections are present — their internal row shapes.
///
/// # Errors
///
/// Returns a description of the first violation.
pub fn check_status(text: &str) -> Result<Value, String> {
    let v: Value = serde_json::from_str(text.trim()).map_err(|e| format!("not valid JSON: {e}"))?;
    check_version(&v)?;
    for name in STATUS_SCALARS {
        field_num(&v, name)?;
    }
    for name in STATUS_SECTIONS {
        check_pairs_object(&v, name)?;
    }
    if let Ok(p) = v.field("vm_profile") {
        check_vm_profile(p).map_err(|e| format!("vm_profile: {e}"))?;
    }
    if let Some(p) = status_solver_profile(&v) {
        p.map_err(|e| format!("solver_profile: {e}"))?;
    }
    Ok(v)
}

fn check_vm_profile(p: &Value) -> Result<(), String> {
    for total in ["total_execs", "total_fast", "total_escaped"] {
        field_num(p, total)?;
    }
    match p.field("rows") {
        Ok(Value::Array(rows)) => {
            for (i, row) in rows.iter().enumerate() {
                for f in [
                    "proc_index",
                    "execs",
                    "fast",
                    "escaped_x",
                    "escaped_uncompiled",
                    "escaped_cyclic",
                    "op_units",
                ] {
                    field_num(row, f).map_err(|e| format!("rows[{i}]: {e}"))?;
                }
                if !matches!(row.field("label"), Ok(Value::Str(_))) {
                    return Err(format!("rows[{i}]: `label` must be a string"));
                }
            }
            Ok(())
        }
        _ => Err("missing `rows` array".into()),
    }
}

/// The heartbeat's per-goal solver section, when present: read
/// through [`SolverProfileBlock::from_sections`] (so heartbeats with a
/// v1 section and a `solver_scope` block still load), then checked with
/// [`SolverProfileBlock::check`].
fn status_solver_profile(status: &Value) -> Option<Result<SolverProfileBlock, String>> {
    let p = status.field("solver_profile").ok()?;
    Some(
        SolverProfileBlock::from_sections(p, status.field("solver_scope").ok())
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
    let mut samples = Vec::new();
    let mut last_interval = None;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let at = |e: String| format!("line {}: {e}", i + 1);
        let v: Value =
            serde_json::from_str(line).map_err(|e| at(format!("not valid JSON: {e}")))?;
        check_version(&v).map_err(at)?;
        for name in STATUS_SCALARS {
            field_num(&v, name).map_err(at)?;
        }
        field_num(&v, "task").map_err(at)?;
        for name in FLIGHT_VECTORS {
            check_num_array(&v, name).map_err(at)?;
        }
        let interval = field_num(&v, "interval").map_err(at)?;
        if let Some(prev) = last_interval {
            if interval <= prev {
                return Err(format!(
                    "line {}: interval {interval} not above previous {prev} \
                     (stream must be strictly increasing)",
                    i + 1
                ));
            }
        }
        last_interval = Some(interval);
        samples.push(v);
    }
    if samples.is_empty() {
        return Err("no samples (empty or truncated flight stream)".into());
    }
    Ok(samples)
}

fn pairs_of<'v>(v: &'v Value, name: &str) -> Vec<(&'v str, u64)> {
    match v.field(name) {
        Ok(Value::Object(fields)) => fields
            .iter()
            .filter_map(|(k, val)| match val {
                Value::Num(n) => Some((k.as_str(), *n as u64)),
                _ => None,
            })
            .collect(),
        _ => Vec::new(),
    }
}

/// Renders the terminal dashboard from a validated status heartbeat
/// and (possibly empty) flight stream: the headline campaign state,
/// non-zero counters, phase self-times, the hottest `top` cones with
/// their fast-path hit rates, and the `top` hardest solver goals with
/// their escalation histories.
pub fn render_dashboard(status: &Value, flight: &[Value], top: usize) -> String {
    let n = |name: &str| field_num(status, name).unwrap_or(0);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "SymbFuzz campaign monitor — interval {} (t={})",
        n("interval"),
        n("t")
    );
    let _ = writeln!(
        out,
        "  vectors {}  coverage {} ({} nodes, {} edges)  stagnant intervals {}",
        n("vectors"),
        n("coverage"),
        n("nodes"),
        n("edges"),
        n("stagnant")
    );
    let _ = writeln!(out, "  flight samples on disk: {}", flight.len());
    let counters: Vec<_> = pairs_of(status, "counters")
        .into_iter()
        .filter(|(_, v)| *v > 0)
        .collect();
    if !counters.is_empty() {
        let _ = writeln!(out, "\ncounters:");
        for (name, v) in counters {
            let _ = writeln!(out, "  {name:<24} {v}");
        }
    }
    let phases = pairs_of(status, "phase_self_micros");
    if phases.iter().any(|(_, v)| *v > 0) {
        let total: u64 = phases.iter().map(|(_, v)| v).sum();
        let _ = writeln!(out, "\nphase self time:");
        for (name, v) in phases {
            let _ = writeln!(
                out,
                "  {name:<10} {v:>10}µs  {:>5.1}%",
                100.0 * v as f64 / total.max(1) as f64
            );
        }
    }
    if let Ok(p) = status.field("vm_profile") {
        let _ = writeln!(out, "\nhot cones (by op units):");
        if let Ok(Value::Array(rows)) = p.field("rows") {
            for row in rows.iter().take(top) {
                let label = match row.field("label") {
                    Ok(Value::Str(s)) => s.as_str(),
                    _ => "?",
                };
                let (execs, fast) = (
                    field_num(row, "execs").unwrap_or(0),
                    field_num(row, "fast").unwrap_or(0),
                );
                let _ = writeln!(
                    out,
                    "  {label:<20} {:>12} op units  {execs:>10} execs  {:>5.1}% fast path",
                    field_num(row, "op_units").unwrap_or(0),
                    100.0 * fast as f64 / execs.max(1) as f64
                );
            }
        }
        let (te, tf) = (
            field_num(p, "total_execs").unwrap_or(0),
            field_num(p, "total_fast").unwrap_or(0),
        );
        let _ = writeln!(
            out,
            "  design-wide fast-path hit rate: {:.1}% of {te} dispatches",
            100.0 * tf as f64 / te.max(1) as f64
        );
    }
    match status_solver_profile(status) {
        Some(Ok(p)) => {
            if !p.goals.is_empty() {
                let _ = writeln!(out, "\nhardest solver goals (by cumulative conflicts):");
                for g in p.hardest_first().into_iter().take(top) {
                    let escalations: Vec<String> =
                        g.escalations.iter().map(|e| e.to_string()).collect();
                    let _ = writeln!(
                        out,
                        "  {}=={:<6} {:>8} conflicts  {:>4} attempts \
                         ({} sat / {} unsat / {} exhausted)  escalations [{}]",
                        g.register,
                        g.value,
                        g.conflicts,
                        g.attempts,
                        g.sat,
                        g.unsat,
                        g.exhausted,
                        escalations.join(",")
                    );
                }
            }
            let _ = writeln!(
                out,
                "  solver attempts {}  negative-cache hits {}",
                p.total_attempts, p.total_neg_cache_hits
            );
        }
        Some(Err(e)) => {
            let _ = writeln!(out, "\nsolver profile unreadable: {e}");
        }
        None => {}
    }
    out
}

fn prom_name(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Renders the heartbeat as Prometheus text exposition: campaign
/// scalars as gauges, cumulative counters as `_total` counters,
/// per-phase self-times and — when present — per-cone and per-goal
/// profiler series with `label`/`register` label pairs.
pub fn render_prometheus(status: &Value) -> String {
    let mut out = String::new();
    for name in STATUS_SCALARS {
        if let Ok(v) = field_num(status, name) {
            let _ = writeln!(out, "# TYPE symbfuzz_{name} gauge");
            let _ = writeln!(out, "symbfuzz_{name} {v}");
        }
    }
    for (name, v) in pairs_of(status, "counters") {
        let _ = writeln!(out, "symbfuzz_{}_total {v}", prom_name(name));
    }
    for (name, v) in pairs_of(status, "gauges") {
        let _ = writeln!(out, "symbfuzz_gauge_{} {v}", prom_name(name));
    }
    for (name, v) in pairs_of(status, "events") {
        let _ = writeln!(out, "symbfuzz_event_total{{kind=\"{name}\"}} {v}");
    }
    for (name, v) in pairs_of(status, "phase_self_micros") {
        let _ = writeln!(
            out,
            "symbfuzz_phase_self_micros{{phase=\"{}\"}} {v}",
            prom_name(name)
        );
    }
    if let Ok(p) = status.field("vm_profile") {
        for total in ["total_execs", "total_fast", "total_escaped"] {
            if let Ok(v) = field_num(p, total) {
                let _ = writeln!(out, "symbfuzz_vm_{total} {v}");
            }
        }
        if let Ok(Value::Array(rows)) = p.field("rows") {
            for row in rows {
                if let Ok(Value::Str(label)) = row.field("label") {
                    let _ = writeln!(
                        out,
                        "symbfuzz_cone_op_units{{cone=\"{}\"}} {}",
                        prom_name(label),
                        field_num(row, "op_units").unwrap_or(0)
                    );
                    let _ = writeln!(
                        out,
                        "symbfuzz_cone_fast_total{{cone=\"{}\"}} {}",
                        prom_name(label),
                        field_num(row, "fast").unwrap_or(0)
                    );
                }
            }
        }
    }
    match status_solver_profile(status) {
        Some(Ok(p)) => {
            let _ = writeln!(out, "symbfuzz_solver_total_attempts {}", p.total_attempts);
            let _ = writeln!(
                out,
                "symbfuzz_solver_total_neg_cache_hits {}",
                p.total_neg_cache_hits
            );
            for g in &p.goals {
                for (f, v) in [
                    ("attempts", g.attempts),
                    ("conflicts", g.conflicts),
                    ("exhausted", g.exhausted),
                ] {
                    let _ = writeln!(
                        out,
                        "symbfuzz_goal_{f}{{register=\"{}\",value=\"{}\"}} {v}",
                        prom_name(&g.register),
                        g.value
                    );
                }
            }
        }
        Some(Err(e)) => {
            let _ = writeln!(out, "# solver_profile unreadable: {e}");
        }
        None => {}
    }
    out
}

/// Parses a Prometheus text exposition back into `(series, value)`
/// pairs, where `series` is the metric name plus its literal label
/// block (e.g. `symbfuzz_event_total{kind="FullReset"}`). `# TYPE`
/// comments are skipped; the round-trip partner of
/// [`render_prometheus`].
///
/// # Errors
///
/// Returns `"line N: <why>"` for the first malformed line or
/// duplicated series.
pub fn parse_prometheus(text: &str) -> Result<Vec<(String, u64)>, String> {
    let mut series = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let at = |e: &str| format!("line {}: {e}", i + 1);
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| at("expected `series value`"))?;
        let bare = name.split('{').next().unwrap_or("");
        if bare.is_empty()
            || !bare
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return Err(at(&format!("bad metric name `{bare}`")));
        }
        if name.contains('{') && !name.ends_with('}') {
            return Err(at("unterminated label block"));
        }
        let value: u64 = value
            .parse()
            .map_err(|_| at(&format!("bad sample value `{value}`")))?;
        if series.iter().any(|(n, _): &(String, u64)| n == name) {
            return Err(at(&format!("duplicate series `{name}`")));
        }
        series.push((name.to_string(), value));
    }
    Ok(series)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Deserialize;
    use std::sync::Arc;
    use symbfuzz_core::{FuzzConfig, Strategy, SymbFuzz};

    /// Drives a real traced campaign so the artifacts under test are
    /// exactly what the fuzzer writes, not hand-rolled fixtures.
    fn campaign_artifacts() -> (String, String) {
        // One directory per call: tests run concurrently in-process.
        static CALLS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let call = CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("symbfuzz-monitor-{}-{call}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let d = Arc::new(
            symbfuzz_netlist::elaborate_src(
                "module m(input clk, input rst_n, input [15:0] k, output logic [1:0] st);
                   always_ff @(posedge clk or negedge rst_n)
                     if (!rst_n) st <= 2'd0;
                     else case (st)
                       2'd0: if (k == 16'h5AA5) st <= 2'd1;
                       2'd1: if (k == 16'hA55A) st <= 2'd2; else st <= 2'd0;
                       default: st <= 2'd2;
                     endcase
                 endmodule",
                "m",
            )
            .unwrap(),
        );
        let cfg = FuzzConfig::builder()
            .interval(100)
            .threshold(2)
            .max_vectors(5_000)
            .seed(7)
            .sample_every(500)
            .solver_introspection(true)
            .incremental_solving(true)
            .build()
            .unwrap();
        let mut fuzzer = SymbFuzz::new(d, Strategy::SymbFuzz, cfg, &[]).unwrap();
        let flight = dir.join("flight.jsonl");
        let status = dir.join("status.json");
        fuzzer
            .set_flight_outputs(Some(&flight), Some(&status))
            .unwrap();
        fuzzer.run();
        let out = (
            std::fs::read_to_string(&status).unwrap(),
            std::fs::read_to_string(&flight).unwrap(),
        );
        let _ = std::fs::remove_dir_all(&dir);
        out
    }

    #[test]
    fn real_campaign_artifacts_pass_the_checks_and_render() {
        let (status_text, flight_text) = campaign_artifacts();
        let status = check_status(&status_text).expect("status.json validates");
        let flight = check_flight(&flight_text).expect("flight.jsonl validates");
        assert_eq!(flight.len(), 10, "5000 vectors / sample_every 500");
        let dash = render_dashboard(&status, &flight, 10);
        assert!(dash.contains("vectors 5000"), "{dash}");
        assert!(dash.contains("hot cones"), "{dash}");
        assert!(dash.contains("fast path"), "{dash}");
        let prom = render_prometheus(&status);
        assert!(prom.contains("symbfuzz_vectors 5000"), "{prom}");
        assert!(prom.contains("symbfuzz_vectors_total 5000"), "{prom}");
        assert!(prom.contains("symbfuzz_vm_total_execs"), "{prom}");
    }

    #[test]
    fn corrupted_introspected_status_names_the_goal() {
        let (status_text, _) = campaign_artifacts();
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

    /// A heartbeat as written before the per-goal record was unified:
    /// an unversioned `solver_profile` plus a `solver_scope` block.
    const PRE_CHANGE_STATUS: &str = r#"{"v":1,"interval":2,"t":200,"vectors":200,
      "coverage":3,"nodes":2,"edges":1,"stagnant":0,"counters":{"vectors":200},
      "gauges":{},"events":{},"phase_self_micros":{},
      "solver_profile":{"goals":[{"register":"st","value":2,"attempts":1,"sat":0,
        "unsat":1,"exhausted":0,"neg_cache_hits":3,"conflicts":12,"decisions":30,
        "propagations":99,"solver_calls":2,"deepest_unroll":4,"escalations":[0]}],
        "total_attempts":1,"total_neg_cache_hits":3},
      "solver_scope":{"version":1,"goals":[{"register":"st","value":2,"attempts":1,
        "conflicts":12,"learned":11,"restarts":0,
        "learned_size_hist":[0,11,0,0,0,0,0,0,0,0,0,0],
        "lbd_hist":[0,11,0,0,0,0,0,0,0,0,0,0],
        "call_conflict_hist":[0,0,2,0,0,0,0,0,0,0,0,0],"restart_timeline":[],
        "conflict_depth_sum":20,"conflict_depth_max":4,"hot_signals":[["k",1000]],
        "blame":["st"],"sketch":[1,2],"depth":4}],
        "affinity":[[1000]],"mean_adjacent_affinity_milli":0}}"#;

    #[test]
    fn pre_change_status_loads_and_bad_solver_sections_are_reported() {
        let status = check_status(PRE_CHANGE_STATUS).expect("v1 heartbeat validates");
        let block = status_solver_profile(&status).unwrap().unwrap();
        let i = block.goals[0]
            .introspection
            .as_ref()
            .expect("joined by goal");
        assert_eq!((i.learned, block.goals[0].conflicts), (11, 12));
        let dash = render_dashboard(&status, &[], 5);
        assert!(dash.contains("st==2"), "{dash}");
        let prom = render_prometheus(&status);
        assert!(
            prom.contains("symbfuzz_goal_attempts{register=\"st\",value=\"2\"} 1"),
            "{prom}"
        );
        // A section that fails to read is named by the check and shown
        // by both renderers instead of silently dropped.
        let broken: Value =
            serde_json::from_str(&PRE_CHANGE_STATUS.replace("\"total_attempts\":1,", "")).unwrap();
        let err = check_status(&serde_json::to_string(&broken).unwrap()).unwrap_err();
        assert!(err.starts_with("solver_profile: "), "{err}");
        assert!(err.contains("total_attempts"), "{err}");
        let dash = render_dashboard(&broken, &[], 5);
        assert!(dash.contains("solver profile unreadable"), "{dash}");
        let prom = render_prometheus(&broken);
        assert!(prom.contains("# solver_profile unreadable"), "{prom}");
        assert!(parse_prometheus(&prom).is_ok(), "{prom}");
    }

    #[test]
    fn prometheus_exposition_round_trips_through_its_parser() {
        let (status_text, _) = campaign_artifacts();
        let status = check_status(&status_text).unwrap();
        let prom = render_prometheus(&status);
        let series = parse_prometheus(&prom).expect("exposition parses back");
        let value = |name: &str| {
            series
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("series `{name}` missing from:\n{prom}"))
        };
        // The introspection taxonomy's counters and gauge are exported
        // under the standard naming scheme.
        value("symbfuzz_learned_clauses_total");
        value("symbfuzz_core_extractions_total");
        value("symbfuzz_gauge_mean_affinity_milli");
        // So are the incremental-solver taxonomy additions (the
        // campaign above runs with `incremental_solving` on).
        value("symbfuzz_bitblast_cache_hits_total");
        value("symbfuzz_bitblast_cache_misses_total");
        value("symbfuzz_gauge_solver_session_reuse_milli");
        // Every cumulative counter in the heartbeat survives the
        // render → parse round trip with its value intact.
        for (name, v) in pairs_of(&status, "counters") {
            assert_eq!(value(&format!("symbfuzz_{}_total", prom_name(name))), v);
        }
        for (name, v) in pairs_of(&status, "gauges") {
            assert_eq!(value(&format!("symbfuzz_gauge_{}", prom_name(name))), v);
        }
        for (name, v) in pairs_of(&status, "events") {
            assert_eq!(
                value(&format!("symbfuzz_event_total{{kind=\"{name}\"}}")),
                v
            );
        }
        assert_eq!(value("symbfuzz_vectors"), 5_000);
    }

    #[test]
    fn prometheus_parser_rejects_malformed_lines() {
        assert!(parse_prometheus("symbfuzz_x 1\n# TYPE symbfuzz_x gauge\n").is_ok());
        let err = parse_prometheus("symbfuzz_x\n").unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
        assert!(parse_prometheus("bad name 1.5x\n").is_err());
        assert!(parse_prometheus("symbfuzz_x{kind=\"a\" 1\n")
            .unwrap_err()
            .contains("unterminated"));
        assert!(parse_prometheus("symbfuzz_x 1\nsymbfuzz_x 2\n")
            .unwrap_err()
            .contains("duplicate"));
    }

    #[test]
    fn status_violations_are_named() {
        assert!(check_status("").unwrap_err().contains("not valid JSON"));
        assert!(check_status("{\"v\":2}").unwrap_err().contains("v2"));
        let err = check_status("{\"v\":1,\"interval\":0}").unwrap_err();
        assert!(err.contains("missing `t`"), "{err}");
        // A scalar of the wrong type is rejected.
        let err = check_status(
            "{\"v\":1,\"interval\":0,\"t\":0,\"vectors\":\"many\",\"coverage\":0,\
             \"nodes\":0,\"edges\":0,\"stagnant\":0}",
        )
        .unwrap_err();
        assert!(err.contains("`vectors`"), "{err}");
    }

    #[test]
    fn flight_violations_carry_line_numbers() {
        let good = "{\"v\":1,\"interval\":1,\"t\":5,\"task\":0,\"vectors\":100,\
                    \"coverage\":3,\"nodes\":2,\"edges\":1,\"stagnant\":0,\
                    \"d_counters\":[100],\"gauges\":[1],\"d_events\":[0],\"d_phase_micros\":[9]}";
        assert_eq!(check_flight(&format!("{good}\n")).unwrap().len(), 1);
        // Empty streams hard-error instead of passing vacuously.
        let err = check_flight("").unwrap_err();
        assert!(err.contains("empty or truncated"), "{err}");
        // Truncated tail line.
        let err = check_flight(&format!("{good}\n{{\"v\":1,\"interval\":2")).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        // Interval regression (e.g. two raw task streams concatenated
        // instead of merged): a repeated interval index is rejected.
        let err = check_flight(&format!("{good}\n{good}\n")).unwrap_err();
        assert!(err.contains("not above previous"), "{err}");
    }
}

//! Flight-recorder artifact rendering for the `monitor` binary.
//!
//! The fuzzer's [`symbfuzz_telemetry::Sampler`] leaves two artifacts
//! behind: an append-only `flight.jsonl` stream (one delta-compressed
//! sample per interval) and an atomically-rewritten `status.json`
//! heartbeat that is safe to poll mid-run. This module renders them,
//! once [`crate::schema`] has checked them: a terminal dashboard and a
//! Prometheus-style text exposition for scraping. Everything here is
//! pure text-in/text-out so the binary stays a thin shell.

use crate::schema::{num, status_solver_profile, status_vm_profile, uint};
use serde::Value;
use std::fmt::Write as _;
use symbfuzz_telemetry::STATUS_SCALARS;

fn pairs_of<'v>(v: &'v Value, name: &str) -> Vec<(&'v str, u64)> {
    match v.field(name) {
        Ok(Value::Object(fields)) => fields
            .iter()
            .filter_map(|(k, val)| Some((k.as_str(), uint(val)?)))
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
    let n = |name: &str| num(status, name).unwrap_or(0);
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
    if let Some(Ok(p)) = status_vm_profile(status) {
        let _ = writeln!(out, "\nhot cones (by op units):");
        for row in p.rows.iter().take(top) {
            let _ = writeln!(
                out,
                "  {:<20} {:>12} op units  {:>10} execs  {:>5.1}% fast path",
                row.label,
                row.op_units,
                row.execs,
                100.0 * row.hit_rate()
            );
        }
        let _ = writeln!(
            out,
            "  design-wide fast-path hit rate: {:.1}% of {} dispatches",
            100.0 * p.hit_rate(),
            p.total_execs
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
        if let Ok(v) = num(status, name) {
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
    if let Some(Ok(p)) = status_vm_profile(status) {
        let _ = writeln!(out, "symbfuzz_vm_total_execs {}", p.total_execs);
        let _ = writeln!(out, "symbfuzz_vm_total_fast {}", p.total_fast);
        let _ = writeln!(out, "symbfuzz_vm_total_escaped {}", p.total_escaped);
        for row in &p.rows {
            let cone = prom_name(&row.label);
            let _ = writeln!(
                out,
                "symbfuzz_cone_op_units{{cone=\"{cone}\"}} {}",
                row.op_units
            );
            let _ = writeln!(
                out,
                "symbfuzz_cone_fast_total{{cone=\"{cone}\"}} {}",
                row.fast
            );
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
pub(crate) mod tests {
    use super::*;
    use crate::experiments::{run_campaign, Outputs};
    use crate::schema::{check_flight, check_status};
    use std::sync::Arc;
    use symbfuzz_core::{FuzzConfig, Strategy};

    /// Drives a real campaign as pool task 0, so the artifacts under
    /// test are the live files the fuzzer writes mid-run for `monitor`
    /// to poll, not hand-rolled fixtures (nor the post-pool merge,
    /// which `tests/campaign_outputs.rs` checks).
    pub(crate) fn campaign_artifacts() -> (String, String) {
        // One directory per test thread: tests run concurrently
        // in-process, and each call removes its directory.
        let thread = std::thread::current().id();
        let dir = std::env::temp_dir().join(format!(
            "symbfuzz-monitor-{}-{thread:?}",
            std::process::id()
        ));
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
            .build()
            .unwrap();
        let flight = dir.join("flight.jsonl");
        let status = dir.join("status.json");
        let mut out = Outputs::default();
        out.flight_out = Some(flight.clone());
        out.status_out = Some(status.clone());
        run_campaign(&out, 0, &d, Strategy::SymbFuzz, cfg, &[], None);
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
        // The introspection taxonomy's counters are exported under the
        // standard naming scheme.
        value("symbfuzz_learned_clauses_total");
        value("symbfuzz_core_extractions_total");
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
}

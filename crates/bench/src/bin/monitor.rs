//! Live campaign monitor over the flight-recorder artifacts.
//!
//! Reads the `status.json` heartbeat (atomically rewritten by the
//! campaign, so polling mid-run is always safe) and the `flight.jsonl`
//! sample stream, and renders a terminal dashboard: campaign headline,
//! counters, phase self-times, the hottest simulation cones and the
//! hardest solver goals.
//!
//! Usage: `monitor [--status PATH] [--flight PATH] [--once] [--json]
//! [--check] [--prom-out PATH] [--interval-ms N] [--top K]`
//!
//! * default paths: `results/status.json`, `results/flight.jsonl`;
//! * `--once` — render one snapshot and exit (default: poll forever
//!   every `--interval-ms`, default 1000);
//! * `--json` — with `--once`, emit the validated status heartbeat
//!   plus a flight-stream summary as one JSON object;
//! * `--check` — validate both artifacts with the checkers the
//!   dashboard reads them through ([`check_status`], [`check_flight`])
//!   and exit; any violation (including an empty or truncated stream)
//!   exits non-zero naming the first bad line;
//! * `--prom-out PATH` — additionally write a Prometheus-style text
//!   exposition of the heartbeat each refresh;
//! * `--top K` — rows in the hot-cone / hardest-goal tables (default
//!   10).
//!
//! Flags parse through the shared bench parser: an unknown flag
//! (including any of the campaign binaries' shared flags) or a
//! malformed value exits 2 with an `error:` line.

use serde::Value;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use symbfuzz_bench::monitor::{render_dashboard, render_prometheus};
use symbfuzz_bench::schema::{check_flight, check_status, read_checked};
use symbfuzz_bench::{exit_usage, parse_viewer_args, ArgError};

fn read_artifacts(status: &Path, flight: &Path) -> Result<(Value, Vec<Value>), String> {
    Ok((
        read_checked(status, check_status)?,
        read_checked(flight, check_flight)?,
    ))
}

fn main() -> ExitCode {
    let mut args = parse_viewer_args(&[
        "--status",
        "--flight",
        "--once",
        "--json",
        "--check",
        "--prom-out",
        "--interval-ms",
        "--top",
    ]);
    let status: PathBuf = args.flag("--status", "results/status.json".into());
    let flight: PathBuf = args.flag("--flight", "results/flight.jsonl".into());
    let prom_out: Option<PathBuf> = args
        .take_value("--prom-out")
        .unwrap_or_else(|e| exit_usage(&e))
        .map(PathBuf::from);
    let interval_ms: u64 = args.flag("--interval-ms", 1000);
    let top: usize = args.flag("--top", 10);
    let (check, json) = (args.take_switch("--check"), args.take_switch("--json"));
    // `--check` is one read that prints the verdict.
    let once = args.take_switch("--once") || check;
    if let Some(extra) = args.rest.first() {
        exit_usage(&ArgError::BadValue {
            what: "monitor, which takes no positional arguments".into(),
            value: extra.clone(),
        });
    }
    loop {
        match read_artifacts(&status, &flight) {
            Ok((_, samples)) if check => println!(
                "{}: schema OK; {}: {} samples, schema OK",
                status.display(),
                flight.display(),
                samples.len()
            ),
            Ok((status, flight)) => {
                if let Some(path) = &prom_out {
                    if let Err(e) = std::fs::write(path, render_prometheus(&status)) {
                        eprintln!("monitor: cannot write {}: {e}", path.display());
                        return ExitCode::FAILURE;
                    }
                }
                if json {
                    let last = flight.last().cloned().unwrap_or(Value::Null);
                    let summary = Value::Object(vec![
                        ("status".into(), status),
                        (
                            "flight".into(),
                            Value::Object(vec![
                                ("samples".into(), Value::Num(flight.len() as f64)),
                                ("last".into(), last),
                            ]),
                        ),
                    ]);
                    println!("{}", serde_json::to_string(&summary).expect("serializable"));
                } else {
                    if !once {
                        // Clear the terminal between refreshes.
                        print!("\x1b[2J\x1b[H");
                    }
                    print!("{}", render_dashboard(&status, &flight, top));
                }
            }
            Err(e) => {
                if once {
                    eprintln!("monitor: {e}");
                    return ExitCode::FAILURE;
                }
                // Mid-run the artifacts may not exist yet; keep polling.
                println!("monitor: waiting — {e}");
            }
        }
        if once {
            return ExitCode::SUCCESS;
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms.max(50)));
    }
}

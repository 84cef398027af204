//! Usage:
//!
//! ```text
//! perfbench run [--seed S] [--seconds T] [--repeat N] [--traced] [--smoke] [--out PATH]
//! perfbench compare A.json B.json
//! perfbench --workload W --seed S --seconds T --trace 0|1 [--smoke]
//! ```
//!
//! `run` measures every workload, each in its own child process, prints
//! `workload metric value unit samples` lines and writes a result set
//! (`results/latest.json` unless `--out` names another file). The third
//! form measures one workload in this process and prints a `record`
//! line followed by the one-line JSON summary.

use perfbench::compare::{compare, Verdict};
use perfbench::measure::available_parallelism;
use perfbench::schema::{ResultSet, RunRecord, SCHEMA};
use perfbench::spec::Spec;
use perfbench::{measure, traced, workload};
use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

#[global_allocator]
static ALLOC: perfbench::heap::Counting = perfbench::heap::Counting;

/// Base seed of `run` when `--seed` is not given.
const DEFAULT_SEED: u64 = 0xCAB;

/// Prefix of the line carrying a child's full record.
const RECORD_PREFIX: &str = "record ";

fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// Parsed `--key value` options and bare `--flag`s.
struct Args {
    values: HashMap<String, String>,
    flags: Vec<String>,
    positional: Vec<String>,
}

impl Args {
    fn parse(args: &[String], valued: &[&str], bare: &[&str]) -> Result<Args, String> {
        let mut out = Args {
            values: HashMap::new(),
            flags: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                if valued.contains(&key) {
                    let v = it.next().ok_or(format!("--{key} needs a value"))?;
                    out.values.insert(key.to_string(), v.clone());
                } else if bare.contains(&key) {
                    out.flags.push(key.to_string());
                } else {
                    return Err(format!("unknown option --{key}"));
                }
            } else {
                out.positional.push(a.clone());
            }
        }
        Ok(out)
    }

    fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    fn get<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.values
            .get(key)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{key}: invalid value `{v}`"))
            })
            .transpose()
    }
}

fn seconds_arg(args: &Args) -> Result<Option<f64>, String> {
    match args.get::<f64>("seconds")? {
        Some(s) if !(s.is_finite() && s >= 0.0) => Err("--seconds must be non-negative".into()),
        other => Ok(other),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        _ => cmd_workload(&args),
    };
    result.unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        ExitCode::from(2)
    })
}

/// Measures one workload in this process.
fn cmd_workload(raw: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(raw, &["workload", "seed", "seconds", "trace"], &["smoke"])?;
    if let Some(p) = args.positional.first() {
        return Err(format!("unexpected argument `{p}`"));
    }
    let name: String = args.get("workload")?.ok_or("--workload is required")?;
    let seed: u64 = args.get("seed")?.ok_or("--seed is required")?;
    let seconds = seconds_arg(&args)?.ok_or("--seconds is required")?;
    let traced = match args.get::<u8>("trace")?.ok_or("--trace is required")? {
        0 => false,
        1 => true,
        _ => return Err("--trace takes 0 or 1".into()),
    };
    let spec = Spec::load();
    let w =
        workload::by_name(&name, args.flag("smoke")).ok_or(format!("unknown workload `{name}`"))?;
    let record = if traced {
        let (record, spans) = traced::per_layer(&spec, &w, seed, seconds);
        let dir = results_dir();
        let path = dir.join(format!("spans-{name}.jsonl"));
        let write = || -> std::io::Result<()> {
            fs::create_dir_all(&dir)?;
            let mut out = std::io::BufWriter::new(fs::File::create(&path)?);
            spans.write_jsonl(&mut out)?;
            std::io::Write::flush(&mut out)
        };
        write().map_err(|e| format!("writing {}: {e}", path.display()))?;
        record
    } else {
        measure::end_to_end(&spec, &w, seed, seconds)
    };
    let json = serde_json::to_string(&record).expect("rendering never fails");
    println!("{RECORD_PREFIX}{json}");
    println!("{}", record.summary_line());
    Ok(if record.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs one workload in a child process and returns its record.
fn child(
    name: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
) -> Result<RunRecord, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating perfbench: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| format!("running {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix(RECORD_PREFIX))
        .ok_or(format!("{name}: no result ({})", out.status))?;
    serde_json::from_str(line).map_err(|e| format!("{name}: bad record: {e}"))
}

fn cmd_run(raw: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(
        raw,
        &["seed", "seconds", "repeat", "out"],
        &["traced", "smoke"],
    )?;
    if let Some(p) = args.positional.first() {
        return Err(format!("unexpected argument `{p}`"));
    }
    let spec = Spec::load();
    let smoke = args.flag("smoke");
    let seed = args.get("seed")?.unwrap_or(DEFAULT_SEED);
    let seconds = seconds_arg(&args)?.unwrap_or(if smoke { 0.0 } else { spec.run_seconds as f64 });
    let repeat: u64 = args.get("repeat")?.unwrap_or(1).max(1);
    // Smoke runs exercise both modes; otherwise one mode per invocation.
    let modes: &[bool] = if smoke {
        &[false, true]
    } else if args.flag("traced") {
        &[true]
    } else {
        &[false]
    };
    let out = args.get::<String>("out")?.map_or_else(
        || results_dir().join(if smoke { "smoke.json" } else { "latest.json" }),
        PathBuf::from,
    );
    let name = out
        .file_stem()
        .map_or_else(String::new, |s| s.to_string_lossy().into_owned());

    let mut runs = Vec::new();
    let mut ok = true;
    for _ in 0..repeat {
        for &traced in modes {
            for w in &spec.workloads {
                let record = child(w, seed, seconds, traced, smoke)?;
                for m in &record.metrics {
                    println!("{} {} {} {} {}", w, m.name, m.value, m.unit, m.samples);
                }
                let failed_frac = record.failed as f64 / record.attempted.max(1) as f64;
                println!(
                    "{} failed_frac {} ratio {}",
                    w, failed_frac, record.attempted
                );
                ok &= record.correct;
                runs.push(record);
            }
        }
    }
    runs.sort_by_key(|r| {
        (
            spec.workloads.iter().position(|w| *w == r.workload),
            r.traced,
        )
    });
    let set = ResultSet {
        schema: SCHEMA.to_string(),
        name,
        seed,
        seconds,
        repeat,
        traced: modes.contains(&true),
        smoke,
        available_parallelism: available_parallelism(),
        runs,
    };
    report_repeats(&spec, &set);
    if let Some(dir) = out.parent() {
        fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    fs::write(&out, set.to_json()).map_err(|e| format!("writing {}: {e}", out.display()))?;
    println!(
        "wrote {} (available_parallelism {})",
        out.display(),
        set.available_parallelism
    );
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// With several runs per workload: each metric's median and spread, and
/// every exact count that did not repeat across the runs (the set
/// compared with itself, so each value appears twice in `values`).
fn report_repeats(spec: &Spec, set: &ResultSet) {
    if set.repeat < 2 {
        return;
    }
    let report = compare(spec, set, set);
    for r in &report.rows {
        println!(
            "summary {} {} median {} spread {:.4}",
            r.workload, r.metric, r.a, r.spread
        );
    }
    for n in &report.non_repeating {
        let values = &n.values[..n.values.len() / 2];
        println!("non-repeating count {} {}: {values:?}", n.workload, n.count);
    }
}

fn cmd_compare(raw: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(raw, &[], &[])?;
    let [a, b] = args.positional.as_slice() else {
        return Err("usage: perfbench compare A.json B.json".into());
    };
    let load = |p: &str| {
        fs::read_to_string(p)
            .map_err(|e| format!("reading {p}: {e}"))
            .and_then(|t| ResultSet::from_json(&t).map_err(|e| format!("{p}: {e}")))
    };
    let report = compare(&Spec::load(), &load(a)?, &load(b)?);
    println!("{report}");
    Ok(if report.count(Verdict::Worse) == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

//! Shared command-line handling for the bench binaries.
//!
//! Every binary accepts, besides its positional arguments:
//!
//! * `--jobs N` / `-j N` / `-jN` / `--jobs=N` — worker threads
//!   (default [`crate::pool::default_jobs`], floored at 1);
//! * `--log-level LEVEL` — stderr logging verbosity (`off`, `warn`,
//!   `info`, `debug`; default `info`);
//! * `--trace-out PATH` — stream a wall-clock JSONL campaign trace to
//!   `PATH`, one `Summary` record closing each campaign;
//! * `--flight-out PATH` — canonical merged `flight.jsonl` destination
//!   (requires `--sample-every`);
//! * `--status-out PATH` — `status.json` heartbeat destination,
//!   atomically rewritten and pollable mid-run (requires
//!   `--sample-every`);
//!
//! and the campaign knobs, each folded into the [`FuzzConfigBuilder`]
//! carried on [`BenchArgs::config`]:
//!
//! * `--solver-budget N` — conflict ceiling per symbolic solve;
//!   exhausted solves degrade to random mutation;
//! * `--solve-wall-ms N` — wall-clock ceiling per symbolic solve in
//!   milliseconds (non-deterministic: reports may vary between runs and
//!   job counts);
//! * `--snapshot-budget N` — byte budget for the copy-on-write snapshot
//!   store; unique bytes beyond it trigger oldest-first eviction;
//! * `--introspect` — solver introspection: per-goal CDCL analytics,
//!   hot signals and blame sets for failed goals in the report's
//!   `solver_profile` block;
//! * `--sample-every N` — flight-recorder sampling interval in vectors;
//!   enables the sampler and the per-cone/per-goal profilers.
//!
//! The flight and status paths land on [`BenchArgs::outputs`], and
//! [`parse_bench_args`] opens the trace into it too; every experiment
//! runs its campaigns through it
//! ([`crate::experiments::run_campaign`]) and every campaign binary
//! finishes it ([`Outputs::finish`]) once its pool has drained.
//!
//! The read-only viewers `monitor` and `tracedump` run no campaign and
//! take none of these ([`parse_viewer_args`]).
//!
//! Value flags also take the `--flag=VALUE` spelling. An unknown flag,
//! a missing or malformed value, or a combination
//! [`FuzzConfig::validate`](symbfuzz_core::FuzzConfig::validate)
//! rejects is an [`ArgError`]; [`parse_bench_args`] prints it and exits
//! with status 2. Positional arguments parse the same way through the
//! [`BenchArgs`] accessors, before any campaign starts.

use crate::experiments::Outputs;
use crate::pool::default_jobs;
use std::fs::File;
use std::io::BufWriter;
use std::path::PathBuf;
use std::str::FromStr;
use std::sync::{Arc, Mutex};
use symbfuzz_core::{ConfigError, FuzzConfig, FuzzConfigBuilder};
use symbfuzz_designs::processor_benchmarks;
use symbfuzz_telemetry::{set_log_level, Level};

/// Parsed common bench arguments.
#[derive(Debug)]
pub struct BenchArgs {
    /// Positional arguments and bin-specific flags, in order.
    pub rest: Vec<String>,
    /// Worker thread count (≥ 1).
    pub jobs: usize,
    /// Requested stderr log level.
    pub log_level: Level,
    /// The `--trace-out` path; [`parse_bench_args`] opens it into
    /// [`outputs`](Self::outputs).
    pub trace_out: Option<PathBuf>,
    /// The `--flight-out` and `--status-out` destinations and, once
    /// [`parse_bench_args`] has opened it, the trace writer.
    pub outputs: Outputs,
    /// The campaign knobs from the command line, validated. Experiments
    /// set their own interval, threshold, vector budget and seed on a
    /// clone.
    pub config: FuzzConfigBuilder,
}

/// A bad bench command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// A `--flag` no bench binary (or not this one) understands.
    UnknownFlag(String),
    /// A value flag at the end of the command line.
    MissingValue(String),
    /// A required argument is absent.
    Missing(String),
    /// A value that does not parse for its flag or position.
    BadValue {
        /// The flag, or a name for the positional argument.
        what: String,
        /// The offending text.
        value: String,
    },
    /// The campaign knobs are inconsistent.
    Config(ConfigError),
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::UnknownFlag(flag) => write!(f, "unknown flag `{flag}`"),
            ArgError::MissingValue(flag) => write!(f, "`{flag}` needs a value"),
            ArgError::Missing(what) => write!(f, "missing {what}"),
            ArgError::BadValue { what, value } => write!(f, "bad value `{value}` for {what}"),
            ArgError::Config(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ArgError {}

impl From<ConfigError> for ArgError {
    fn from(e: ConfigError) -> ArgError {
        ArgError::Config(e)
    }
}

fn parse<T: FromStr>(what: &str, value: &str) -> Result<T, ArgError> {
    value.parse().map_err(|_| ArgError::BadValue {
        what: what.to_string(),
        value: value.to_string(),
    })
}

/// Prints `e` and exits with status 2, the fate of every bad command
/// line.
pub fn exit_usage(e: &ArgError) -> ! {
    eprintln!("error: {e}");
    std::process::exit(2)
}

impl BenchArgs {
    /// The `n`-th positional argument parsed as `T`, else `default`.
    ///
    /// # Errors
    ///
    /// [`ArgError::BadValue`] naming `what` when it does not parse.
    pub fn try_pos<T: FromStr>(&self, n: usize, what: &str, default: T) -> Result<T, ArgError> {
        self.rest.get(n).map_or(Ok(default), |v| parse(what, v))
    }

    /// [`try_pos`](Self::try_pos), exiting with status 2 on a bad value.
    pub fn pos<T: FromStr>(&self, n: usize, what: &str, default: T) -> T {
        self.try_pos(n, what, default)
            .unwrap_or_else(|e| exit_usage(&e))
    }

    /// The `n`-th positional argument as an index into
    /// [`processor_benchmarks`], else `default`.
    ///
    /// # Errors
    ///
    /// [`ArgError::BadValue`] when it is not a number or names no
    /// benchmark.
    pub fn try_bench_index(&self, n: usize, default: usize) -> Result<usize, ArgError> {
        let count = processor_benchmarks().len();
        let what = format!("the benchmark index (0 to {})", count - 1);
        let index = self.try_pos(n, &what, default)?;
        if index >= count {
            return Err(ArgError::BadValue {
                what,
                value: index.to_string(),
            });
        }
        Ok(index)
    }

    /// [`try_bench_index`](Self::try_bench_index), exiting with status 2
    /// on a bad index.
    pub fn bench_index(&self, n: usize, default: usize) -> usize {
        self.try_bench_index(n, default)
            .unwrap_or_else(|e| exit_usage(&e))
    }

    /// The `n`-th positional argument as a campaign vector budget (else
    /// `default`), checked against the command line's campaign knobs.
    ///
    /// # Errors
    ///
    /// [`ArgError::BadValue`] when it is not a number,
    /// [`ArgError::Config`] when the budget is zero.
    pub fn try_vectors(&self, n: usize, default: u64) -> Result<u64, ArgError> {
        let vectors = self.try_pos(n, "the vector budget", default)?;
        self.config.clone().max_vectors(vectors).build()?;
        Ok(vectors)
    }

    /// [`try_vectors`](Self::try_vectors), exiting with status 2 on a
    /// bad budget.
    pub fn vectors(&self, n: usize, default: u64) -> u64 {
        self.try_vectors(n, default)
            .unwrap_or_else(|e| exit_usage(&e))
    }

    /// The `n`-th positional argument as a per-solve conflict ceiling
    /// (else `default`), checked against the command line's campaign
    /// knobs.
    ///
    /// # Errors
    ///
    /// [`ArgError::BadValue`] when it is not a number,
    /// [`ArgError::Config`] when the ceiling is zero.
    pub fn try_solver_budget(&self, n: usize, default: u64) -> Result<u64, ArgError> {
        let budget = self.try_pos(n, "the solver budget", default)?;
        self.config.clone().solver_budget(budget).build()?;
        Ok(budget)
    }

    /// [`try_solver_budget`](Self::try_solver_budget), exiting with
    /// status 2 on a bad ceiling.
    pub fn solver_budget(&self, n: usize, default: u64) -> u64 {
        self.try_solver_budget(n, default)
            .unwrap_or_else(|e| exit_usage(&e))
    }

    /// Removes the bin-specific switch `flag` from [`rest`](Self::rest)
    /// and reports whether it was there.
    pub fn take_switch(&mut self, flag: &str) -> bool {
        let before = self.rest.len();
        self.rest.retain(|a| a != flag);
        self.rest.len() != before
    }

    /// Removes the bin-specific `flag VALUE` / `flag=VALUE` from
    /// [`rest`](Self::rest) and returns the value (the last one given).
    ///
    /// # Errors
    ///
    /// [`ArgError::MissingValue`] when `flag` ends the command line.
    pub fn take_value(&mut self, flag: &str) -> Result<Option<String>, ArgError> {
        let mut value = None;
        let mut kept = Vec::new();
        let mut it = std::mem::take(&mut self.rest).into_iter();
        while let Some(a) = it.next() {
            if a == flag {
                value = Some(it.next().ok_or(ArgError::MissingValue(a))?);
            } else if let Some(v) = a.strip_prefix(flag).and_then(|v| v.strip_prefix('=')) {
                value = Some(v.to_string());
            } else {
                kept.push(a);
            }
        }
        self.rest = kept;
        Ok(value)
    }

    /// The bin-specific `flag`'s value ([`take_value`](Self::take_value))
    /// parsed as `T`, else `default`; a missing or malformed value exits
    /// with status 2.
    pub fn flag<T: FromStr>(&mut self, flag: &str, default: T) -> T {
        let value = self.take_value(flag).and_then(|v| match v {
            Some(v) => parse(flag, &v),
            None => Ok(default),
        });
        value.unwrap_or_else(|e| exit_usage(&e))
    }
}

/// Splits the shared bench flags out of `args` (when `shared` is set;
/// otherwise they are unknown flags), folds the campaign knobs into a
/// [`FuzzConfig::builder`] and validates the result. Positional
/// arguments and the flags named in `bin_flags`, which belong to the
/// calling binary, stay in [`BenchArgs::rest`] (with their values) for
/// it to take; any other unknown `--flag` is an error.
///
/// # Errors
///
/// See [`ArgError`].
pub fn split_bench_args<A: Iterator<Item = String>>(
    mut args: A,
    bin_flags: &[&str],
    shared: bool,
) -> Result<BenchArgs, ArgError> {
    let mut jobs = default_jobs();
    let mut log_level = Level::Info;
    let mut trace_out = None;
    let mut outputs = Outputs::default();
    let mut config = FuzzConfig::builder();
    let mut rest = Vec::new();
    while let Some(a) = args.next() {
        let (flag, inline) = match a.split_once('=') {
            Some((f, v)) => (f, Some(v.to_string())),
            // `-jN` packs the value into the flag.
            None => match a.strip_prefix("-j").filter(|v| !v.is_empty()) {
                Some(v) => ("-j", Some(v.to_string())),
                None => (a.as_str(), None),
            },
        };
        if !(flag.starts_with("--") || flag == "-j") || bin_flags.contains(&flag) {
            rest.push(a);
            continue;
        }
        let mut value = || {
            inline
                .clone()
                .or_else(|| args.next())
                .ok_or_else(|| ArgError::MissingValue(flag.to_string()))
        };
        match flag {
            _ if !shared => return Err(ArgError::UnknownFlag(flag.to_string())),
            "--jobs" | "-j" => jobs = parse(flag, &value()?)?,
            "--introspect" => config = config.solver_introspection(true),
            "--log-level" => log_level = parse(flag, &value()?)?,
            "--trace-out" => trace_out = Some(PathBuf::from(value()?)),
            "--flight-out" => outputs.flight_out = Some(PathBuf::from(value()?)),
            "--status-out" => outputs.status_out = Some(PathBuf::from(value()?)),
            "--solver-budget" => config = config.solver_budget(parse(flag, &value()?)?),
            "--solve-wall-ms" => config = config.solve_wall_ms(parse(flag, &value()?)?),
            "--snapshot-budget" => config = config.snapshot_mem_budget(parse(flag, &value()?)?),
            "--sample-every" => config = config.sample_every(parse(flag, &value()?)?),
            _ => return Err(ArgError::UnknownFlag(flag.to_string())),
        }
    }
    config.clone().build()?;
    Ok(BenchArgs {
        rest,
        jobs: jobs.max(1),
        log_level,
        trace_out,
        outputs,
        config,
    })
}

/// [`split_bench_args`] over the process arguments (program name
/// skipped), exiting with status 2 on a bad command line. Sets the log
/// level and opens (truncates) the `--trace-out` file into
/// [`BenchArgs::outputs`].
pub fn parse_bench_args(bin_flags: &[&str]) -> BenchArgs {
    let mut parsed = split_bench_args(std::env::args().skip(1), bin_flags, true)
        .unwrap_or_else(|e| exit_usage(&e));
    set_log_level(parsed.log_level);
    if let Some(path) = &parsed.trace_out {
        match File::create(path) {
            Ok(file) => parsed
                .outputs
                .trace_to(Arc::new(Mutex::new(BufWriter::new(file)))),
            Err(e) => symbfuzz_telemetry::warn!("cannot open trace file {}: {e}", path.display()),
        }
    }
    parsed
}

/// The process arguments of a read-only viewer (`monitor`,
/// `tracedump`): positional arguments and the flags in `bin_flags`
/// only. A viewer runs no campaign, so the shared bench flags are
/// unknown flags here, and nothing is set or opened. A bad command line
/// exits with status 2.
pub fn parse_viewer_args(bin_flags: &[&str]) -> BenchArgs {
    split_bench_args(std::env::args().skip(1), bin_flags, false).unwrap_or_else(|e| exit_usage(&e))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn split(s: &str) -> BenchArgs {
        try_split(s).unwrap()
    }

    fn try_split(s: &str) -> Result<BenchArgs, ArgError> {
        split_bench_args(s.split_whitespace().map(String::from), &[], true)
    }

    fn knobs(s: &str) -> FuzzConfig {
        split(s).config.build().unwrap()
    }

    fn bad_value_for(e: Result<impl std::fmt::Debug, ArgError>) -> String {
        match e {
            Err(ArgError::BadValue { what, .. }) => what,
            other => panic!("not a bad value: {other:?}"),
        }
    }

    #[test]
    fn extracts_log_level_and_trace_out() {
        let a = split("5000 --log-level debug --trace-out /tmp/t.jsonl 2 -j 4");
        assert_eq!(a.rest, vec!["5000".to_string(), "2".to_string()]);
        assert_eq!(a.jobs, 4);
        assert_eq!(a.log_level, Level::Debug);
        assert_eq!(
            a.trace_out.as_deref(),
            Some(std::path::Path::new("/tmp/t.jsonl"))
        );
    }

    #[test]
    fn equals_spellings_and_defaults() {
        let a = split("--log-level=warn --trace-out=trace.jsonl --jobs=3");
        assert_eq!(a.log_level, Level::Warn);
        assert_eq!(
            a.trace_out.as_deref(),
            Some(std::path::Path::new("trace.jsonl"))
        );
        assert_eq!(a.jobs, 3);
        let b = split("1000");
        assert_eq!(b.log_level, Level::Info);
        assert!(b.trace_out.is_none());
        assert_eq!(b.try_pos(0, "n", 0u64), Ok(1000));
        assert_eq!(b.try_pos(1, "n", 7u64), Ok(7));
        assert_eq!(b.config.build().unwrap(), FuzzConfig::default());
    }

    #[test]
    fn jobs_accept_all_spellings() {
        let jobs = |s: &str| {
            let a = split(s);
            (a.rest, a.jobs)
        };
        assert_eq!(jobs("5000 --jobs 4"), (vec!["5000".into()], 4));
        assert_eq!(
            jobs("--jobs=2 5000 1"),
            (vec!["5000".into(), "1".into()], 2)
        );
        assert_eq!(jobs("-j 8"), (Vec::<String>::new(), 8));
        assert_eq!(jobs("-j3 42"), (vec!["42".into()], 3));
        assert_eq!(jobs("--jobs 0").1, 1);
        let (rest, n) = jobs("1000 2000");
        assert_eq!(rest, vec!["1000".to_string(), "2000".to_string()]);
        assert!(n >= 1);
    }

    #[test]
    fn malformed_jobs_are_errors() {
        // `solverscope --check --jobs lots FILE`, `solverscope --check -jfoo FILE`
        for (line, flag) in [
            ("--jobs lots 600", "--jobs"),
            ("--jobs=-1", "--jobs"),
            ("-jfoo 600", "-j"),
            ("-j two", "-j"),
        ] {
            assert_eq!(bad_value_for(try_split(line)), flag, "{line}");
        }
        for flag in ["-j", "--jobs"] {
            assert_eq!(
                try_split(&format!("600 {flag}")).unwrap_err(),
                ArgError::MissingValue(flag.into())
            );
        }
    }

    #[test]
    fn folds_campaign_knobs_into_the_builder() {
        let c = knobs(
            "2000 --solver-budget 10000 --solve-wall-ms=250 \
             --snapshot-budget=65536 --introspect --sample-every 250 -j 2",
        );
        assert_eq!(c.solver_budget, Some(10_000));
        assert_eq!(c.solve_wall_ms, Some(250));
        assert_eq!(c.snapshot_mem_budget, 65_536);
        assert!(c.solver_introspection);
        assert_eq!(c.sample_every, Some(250));
        let d = knobs("42");
        assert!(!d.solver_introspection);
        assert_eq!(d.solver_budget, None);
    }

    #[test]
    fn extracts_flight_recorder_paths() {
        let a = split("5000 --sample-every 250 --flight-out f.jsonl --status-out=s.json -j 2");
        assert_eq!(a.rest, vec!["5000".to_string()]);
        assert_eq!(
            a.outputs.flight_out.as_deref(),
            Some(std::path::Path::new("f.jsonl"))
        );
        assert_eq!(
            a.outputs.status_out.as_deref(),
            Some(std::path::Path::new("s.json"))
        );
        let c = split("100");
        assert!(c.outputs.flight_out.is_none() && c.outputs.status_out.is_none());
    }

    #[test]
    fn inconsistent_knobs_are_config_errors() {
        // `resources 2000 --snapshot-budget 10`
        assert_eq!(
            try_split("2000 --snapshot-budget 10").unwrap_err(),
            ArgError::Config(ConfigError::TinySnapshotBudget)
        );
        // `resources 2000 --solver-budget 0`
        assert_eq!(
            try_split("2000 --solver-budget 0").unwrap_err(),
            ArgError::Config(ConfigError::ZeroSolverBudget)
        );
        assert_eq!(
            try_split("--sample-every 0").unwrap_err(),
            ArgError::Config(ConfigError::ZeroSampleEvery)
        );
    }

    #[test]
    fn zero_vector_budget_is_a_config_error() {
        // `table2 0`
        let a = split("0");
        assert_eq!(
            a.try_vectors(0, 30_000).unwrap_err(),
            ArgError::Config(ConfigError::ZeroMaxVectors)
        );
        assert_eq!(split("500").try_vectors(0, 30_000), Ok(500));
        assert_eq!(split("").try_vectors(0, 30_000), Ok(30_000));
        assert!(matches!(
            split("many").try_vectors(0, 30_000),
            Err(ArgError::BadValue { .. })
        ));
    }

    #[test]
    fn positional_values_parse_like_flags() {
        // `fig4a 100 x`, `fig4b 100 often`
        assert_eq!(bad_value_for(split("100 x").try_bench_index(1, 0)), {
            let n = processor_benchmarks().len();
            format!("the benchmark index (0 to {})", n - 1)
        });
        assert_eq!(
            bad_value_for(split("100 often").try_pos::<u64>(1, "the run count", 4)),
            "the run count"
        );
        assert_eq!(split("100 3").try_pos(1, "the run count", 4u64), Ok(3));
    }

    #[test]
    fn bench_indexes_are_range_checked() {
        let last = processor_benchmarks().len() - 1;
        assert_eq!(split("100").try_bench_index(1, 0), Ok(0));
        assert_eq!(
            split(&format!("100 {last}")).try_bench_index(1, 0),
            Ok(last)
        );
        // `resources 200 9`, `fig4a 200 7`
        for line in ["200 9", "200 7", "200 4", "200 -1"] {
            let e = split(line).try_bench_index(1, 0).unwrap_err();
            assert!(e.to_string().starts_with("bad value `"), "{line}: {e}");
        }
    }

    #[test]
    fn solver_budgets_are_validated_through_the_builder() {
        // `solverscope 50 0`, `budgetbench 50 0`
        assert_eq!(
            split("50 0").try_solver_budget(1, 500),
            Err(ArgError::Config(ConfigError::ZeroSolverBudget))
        );
        // `budgetbench 50 lots`
        assert_eq!(
            bad_value_for(split("50 lots").try_solver_budget(1, 500)),
            "the solver budget"
        );
        assert_eq!(split("50 2000").try_solver_budget(1, 500), Ok(2_000));
        assert_eq!(split("50").try_solver_budget(1, 500), Ok(500));
    }

    #[test]
    fn unknown_and_retired_flags_are_errors() {
        // A retired flag must not shift the budget argument.
        assert_eq!(
            try_split("--portfolio 2 2000").unwrap_err(),
            ArgError::UnknownFlag("--portfolio".into())
        );
        for flag in [
            "--affinity",
            "--solver-cache-budget=4096",
            "--settle-mode compiled",
            "--smoke",
        ] {
            assert!(
                matches!(try_split(flag), Err(ArgError::UnknownFlag(_))),
                "{flag}"
            );
        }
        let e = try_split("--portfolio 2").unwrap_err();
        assert_eq!(e.to_string(), "unknown flag `--portfolio`");
    }

    #[test]
    fn malformed_and_missing_values_are_errors() {
        for (line, flag) in [
            ("--solver-budget lots", "--solver-budget"),
            ("--solve-wall-ms=soon", "--solve-wall-ms"),
            ("--snapshot-budget plenty", "--snapshot-budget"),
            ("--sample-every often", "--sample-every"),
            ("--log-level chatty 42", "--log-level"),
        ] {
            assert_eq!(bad_value_for(try_split(line)), flag, "{line}");
        }
        assert_eq!(
            try_split("2000 --trace-out").unwrap_err(),
            ArgError::MissingValue("--trace-out".into())
        );
    }

    #[test]
    fn bin_flags_pass_through_for_the_binary_to_take() {
        let mut a = split_bench_args(
            "--trace t1.jsonl --smoke 600 --trace=t2.jsonl -j 2"
                .split_whitespace()
                .map(String::from),
            &["--trace", "--smoke"],
            true,
        )
        .unwrap();
        assert!(a.take_switch("--smoke"));
        assert!(!a.take_switch("--smoke"));
        assert_eq!(a.take_value("--trace"), Ok(Some("t2.jsonl".into())));
        assert_eq!(a.rest, vec!["600".to_string()]);
        assert_eq!(a.jobs, 2);
        a.rest.extend(["--top".into(), "7".into()]);
        assert_eq!(a.flag("--top", 10usize), 7);
        assert_eq!(a.flag("--top", 10usize), 10);
        a.rest.push("--trace".into());
        assert_eq!(
            a.take_value("--trace"),
            Err(ArgError::MissingValue("--trace".into()))
        );
    }

    #[test]
    fn viewers_take_only_their_own_flags() {
        let viewer =
            |s: &str| split_bench_args(s.split_whitespace().map(String::from), &["--json"], false);
        // `tracedump --trace-out T` must not reach the trace writer,
        // which would truncate T.
        for (line, flag) in [
            ("--trace-out t.jsonl", "--trace-out"),
            ("t.jsonl --jobs 2", "--jobs"),
            ("-j2 t.jsonl", "-j"),
            ("--solver-budget=5", "--solver-budget"),
            ("--introspect", "--introspect"),
        ] {
            assert_eq!(
                viewer(line).unwrap_err(),
                ArgError::UnknownFlag(flag.into()),
                "{line}"
            );
        }
        let mut a = viewer("t.jsonl --json").unwrap();
        assert!(a.take_switch("--json"));
        assert_eq!(a.rest, vec!["t.jsonl".to_string()]);
    }
}

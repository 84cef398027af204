//! The result schema: one record per measured run, and the result-set
//! file `perfbench run` writes and `perfbench compare` reads.

use serde::{Deserialize, Serialize, Value};

/// Schema tag of result-set files.
pub const SCHEMA: &str = "perfbench/1";

/// One reported metric.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    /// Name, as declared in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, as declared in `BENCHMARK.json`.
    pub unit: String,
    /// Samples the value summarises.
    pub samples: u64,
    /// Percentile level in percent, for percentile metrics.
    pub level: Option<f64>,
}

/// Everything one measured run of one workload produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunRecord {
    /// Workload name.
    pub workload: String,
    /// `--seed` of the run.
    pub seed: u64,
    /// `--seconds` of the run.
    pub seconds: f64,
    /// Whether this was a traced (per-layer) run.
    pub traced: bool,
    /// `std::thread::available_parallelism` on the measuring host.
    pub available_parallelism: u64,
    /// No operation failed.
    pub correct: bool,
    /// Operations attempted: trials; traced runs add layer-loop trials
    /// and solver-model replays.
    pub attempted: u64,
    /// Operations that failed a correctness check.
    pub failed: u64,
    /// The run's metrics.
    pub metrics: Vec<Metric>,
    /// Work counts the program reports as exact for the run's first
    /// trial; they must repeat across runs with the same seed.
    pub counts: Vec<(String, u64)>,
    /// Exact counts that differed when the first trial was repeated in
    /// the same process (traced runs only).
    pub non_repeating: Vec<String>,
}

impl RunRecord {
    /// A metric by name.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The one-line summary a workload run prints last: exactly the
    /// keys `correct`, `attempted`, `failed` and `metrics`.
    pub fn summary_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let body = Value::Object(vec![
                    ("value".into(), Value::Num(m.value)),
                    ("unit".into(), Value::Str(m.unit.clone())),
                ]);
                (m.name.clone(), body)
            })
            .collect();
        let line = Value::Object(vec![
            ("correct".into(), Value::Bool(self.correct)),
            ("attempted".into(), Value::Num(self.attempted as f64)),
            ("failed".into(), Value::Num(self.failed as f64)),
            ("metrics".into(), Value::Object(metrics)),
        ]);
        serde_json::to_string(&line).expect("rendering never fails")
    }
}

/// A result-set file: every run of one `perfbench run` invocation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResultSet {
    /// Always [`SCHEMA`].
    pub schema: String,
    /// Name of the set (the file stem under `results/`).
    pub name: String,
    /// Base seed of every run.
    pub seed: u64,
    /// Seconds per run.
    pub seconds: f64,
    /// Runs per workload.
    pub repeat: u64,
    /// Whether the runs were traced.
    pub traced: bool,
    /// Whether the runs used the tiny smoke sizes.
    pub smoke: bool,
    /// `std::thread::available_parallelism` on the measuring host.
    pub available_parallelism: u64,
    /// The runs, workload-major.
    pub runs: Vec<RunRecord>,
}

impl ResultSet {
    /// Renders the file contents.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("rendering never fails") + "\n"
    }

    /// Parses a result-set file.
    ///
    /// # Errors
    ///
    /// Fails on malformed JSON, a shape mismatch, or a foreign schema.
    pub fn from_json(text: &str) -> Result<ResultSet, String> {
        let set: ResultSet = serde_json::from_str(text).map_err(|e| e.to_string())?;
        if set.schema != SCHEMA {
            return Err(format!("schema `{}` is not `{SCHEMA}`", set.schema));
        }
        Ok(set)
    }

    /// Workload names in first-seen order.
    pub fn workloads(&self) -> Vec<&str> {
        let mut names: Vec<&str> = Vec::new();
        for r in &self.runs {
            if !names.contains(&r.workload.as_str()) {
                names.push(&r.workload);
            }
        }
        names
    }

    /// The runs of one workload.
    pub fn runs_of<'a>(&'a self, workload: &'a str) -> impl Iterator<Item = &'a RunRecord> + 'a {
        self.runs.iter().filter(move |r| r.workload == workload)
    }
}

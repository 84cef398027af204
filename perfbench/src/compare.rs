//! `perfbench compare`: applies the `BENCHMARK.json` bounds to two
//! result sets, one (workload, metric) pair at a time.

use crate::schema::ResultSet;
use crate::spec::{Better, Spec};
use crate::stats::{median, spread};
use std::fmt;

/// The judgement on one (workload, metric) pair, B against A.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median beats A's by more than the bound.
    Better,
    /// B's median trails A's by more than the bound.
    Worse,
    /// The medians differ by no more than the bound.
    WithinBound,
    /// A spread exceeds the bound and the runs overlap, so the data
    /// cannot tell a change from noise.
    Unresolved,
    /// The metric has no bound (per-layer metrics); shown for
    /// information only.
    Info,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::WithinBound => "within-bound",
            Verdict::Unresolved => "unresolved",
            Verdict::Info => "info",
        })
    }
}

/// Relative change from `a` to `b`, signed so that positive means
/// improvement.
fn gain(a: f64, b: f64, better: Better) -> f64 {
    let sign = match better {
        Better::Higher => 1.0,
        Better::Lower => -1.0,
    };
    if a == b {
        0.0
    } else if a == 0.0 {
        sign * (b - a).signum() * f64::INFINITY
    } else {
        sign * (b - a) / a.abs()
    }
}

/// Judges runs `b` against runs `a` under a regression `bound`.
///
/// Where either side's spread exceeds the bound the pair is unresolved,
/// unless every run of `b` beats (or trails) every run of `a`.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let change = gain(median(a), median(b), better);
    if spread(a).max(spread(b)) > bound {
        let pairs = || {
            a.iter()
                .flat_map(|x| b.iter().map(move |y| gain(*x, *y, better)))
        };
        return if pairs().all(|g| g > 0.0) {
            Verdict::Better
        } else if pairs().all(|g| g < 0.0) {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    if change < -bound {
        Verdict::Worse
    } else if change > bound {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

/// One compared (workload, metric) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Unit.
    pub unit: String,
    /// Median over A's runs.
    pub a: f64,
    /// Median over B's runs.
    pub b: f64,
    /// Relative change, positive = improvement.
    pub change: f64,
    /// The larger of the two spreads.
    pub spread: f64,
    /// The regression bound, if the metric has one.
    pub bound: Option<f64>,
    /// The judgement.
    pub verdict: Verdict,
}

/// An exact count that did not repeat across the runs compared.
#[derive(Debug, Clone, PartialEq)]
pub struct NonRepeating {
    /// Workload name.
    pub workload: String,
    /// Count name.
    pub count: String,
    /// Every value read, A's runs first.
    pub values: Vec<u64>,
}

/// The full comparison.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Report {
    /// One row per (workload, metric) present in both sets.
    pub rows: Vec<Row>,
    /// Exact counts compared (per workload).
    pub counts_compared: usize,
    /// Exact counts that differ between any two runs.
    pub non_repeating: Vec<NonRepeating>,
}

impl Report {
    /// Rows with the given verdict.
    pub fn count(&self, v: Verdict) -> usize {
        self.rows.iter().filter(|r| r.verdict == v).count()
    }
}

/// Compares every (workload, metric) pair the two sets share. Exact
/// counts are compared only when every run used the same seed.
pub fn compare(spec: &Spec, a: &ResultSet, b: &ResultSet) -> Report {
    let mut report = Report::default();
    for workload in a.workloads() {
        if !b.workloads().contains(&workload) {
            continue;
        }
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            let values = |set: &ResultSet| -> Vec<f64> {
                set.runs_of(workload)
                    .filter_map(|r| r.metric(&m.name).map(|x| x.value))
                    .collect()
            };
            let (va, vb) = (values(a), values(b));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let verdict = match m.bound {
                Some(bound) => verdict(&va, &vb, m.better, bound),
                None => Verdict::Info,
            };
            report.rows.push(Row {
                workload: workload.to_string(),
                metric: m.name.clone(),
                unit: m.unit.clone(),
                a: median(&va),
                b: median(&vb),
                change: gain(median(&va), median(&vb), m.better),
                spread: spread(&va).max(spread(&vb)),
                bound: m.bound,
                verdict,
            });
        }
        let runs: Vec<_> = a.runs_of(workload).chain(b.runs_of(workload)).collect();
        if runs.iter().any(|r| r.seed != runs[0].seed) {
            continue;
        }
        for (name, _) in &runs[0].counts {
            let values: Vec<u64> = runs
                .iter()
                .filter_map(|r| r.counts.iter().find(|(n, _)| n == name).map(|(_, v)| *v))
                .collect();
            report.counts_compared += 1;
            if values.iter().any(|v| *v != values[0]) {
                report.non_repeating.push(NonRepeating {
                    workload: workload.to_string(),
                    count: name.clone(),
                    values,
                });
            }
        }
    }
    report
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<16} {:<32} {:>14} {:>14} {:>9} {:>7} {:>7}  verdict",
            "workload", "metric", "A", "B", "change", "spread", "bound"
        )?;
        for r in &self.rows {
            let bound = r
                .bound
                .map_or("-".to_string(), |b| format!("{:.1}%", b * 100.0));
            writeln!(
                f,
                "{:<16} {:<32} {:>14.6} {:>14.6} {:>8.2}% {:>6.1}% {:>7}  {}",
                r.workload,
                r.metric,
                r.a,
                r.b,
                r.change * 100.0,
                r.spread * 100.0,
                bound,
                r.verdict
            )?;
        }
        for n in &self.non_repeating {
            writeln!(
                f,
                "non-repeating count {} {}: {:?}",
                n.workload, n.count, n.values
            )?;
        }
        write!(
            f,
            "compare: better {}, worse {}, within-bound {}, unresolved {}; exact counts: {} compared, {} non-repeating",
            self.count(Verdict::Better),
            self.count(Verdict::Worse),
            self.count(Verdict::WithinBound),
            self.count(Verdict::Unresolved),
            self.counts_compared,
            self.non_repeating.len()
        )
    }
}

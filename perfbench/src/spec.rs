//! The metric catalogue, read from the repository's `BENCHMARK.json`.
//!
//! `BENCHMARK.json` is the one place a metric's unit, direction and
//! regression bound are written down; the binary embeds it at build
//! time, and every emitted metric takes its unit from here.

use serde::Value;

/// The embedded `BENCHMARK.json`.
pub const BENCHMARK_JSON: &str =
    include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better (throughput, coverage).
    Higher,
    /// Smaller values are better (latency, memory, work).
    Lower,
}

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name as printed and stored.
    pub name: String,
    /// Unit string.
    pub unit: String,
    /// Improvement direction.
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen
    /// before a change counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed benchmark definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Seconds one measured run lasts.
    pub run_seconds: u64,
    /// Workload names, in run order.
    pub workloads: Vec<String>,
    /// Metrics of an untraced run.
    pub end_to_end: Vec<MetricSpec>,
    /// Metrics of a traced run.
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    /// Parses the embedded `BENCHMARK.json`.
    ///
    /// # Panics
    ///
    /// Panics if the embedded file is malformed; the `spec` unit test
    /// parses it, so a bad edit fails the test suite first.
    pub fn load() -> Spec {
        Spec::parse(BENCHMARK_JSON).expect("BENCHMARK.json is well-formed")
    }

    /// Parses a `BENCHMARK.json` document.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first missing or ill-typed field.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let v: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let field = |v: &Value, k: &str| v.field(k).map_err(|e| e.to_string()).cloned();
        let run_seconds = match field(&v, "run_seconds")? {
            Value::Num(n) if n >= 1.0 => n as u64,
            _ => return Err("run_seconds must be a positive number".into()),
        };
        let workloads = array(&field(&v, "workloads")?)?
            .iter()
            .map(|w| string(&field(w, "name")?))
            .collect::<Result<_, _>>()?;
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            array(&field(&v, key)?)?
                .iter()
                .map(|m| {
                    let better = match string(&field(m, "better")?)?.as_str() {
                        "higher" => Better::Higher,
                        "lower" => Better::Lower,
                        other => return Err(format!("unknown direction `{other}`")),
                    };
                    let bound = match m.field("bound") {
                        Ok(Value::Num(b)) => Some(*b),
                        Ok(_) => return Err("bound must be a number".into()),
                        Err(_) => None,
                    };
                    Ok(MetricSpec {
                        name: string(&field(m, "name")?)?,
                        unit: string(&field(m, "unit")?)?,
                        better,
                        bound,
                    })
                })
                .collect()
        };
        Ok(Spec {
            run_seconds,
            workloads,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// The declared metrics of a traced (`true`) or untraced run.
    pub fn metrics(&self, traced: bool) -> &[MetricSpec] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    /// Looks a metric up in either list.
    pub fn metric(&self, name: &str) -> Option<&MetricSpec> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

fn array(v: &Value) -> Result<&[Value], String> {
    match v {
        Value::Array(items) => Ok(items),
        _ => Err("expected an array".into()),
    }
}

fn string(v: &Value) -> Result<String, String> {
    match v {
        Value::Str(s) => Ok(s.clone()),
        _ => Err("expected a string".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embedded_benchmark_json_parses() {
        let spec = Spec::load();
        assert_eq!(spec.workloads.len(), 4);
        assert!(spec.end_to_end.iter().all(|m| m.bound.is_some()));
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = spec.metric("setup_s").expect("setup_s is declared");
        let widest = spec
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(widest),
            "setup_s carries the widest bound"
        );
    }
}

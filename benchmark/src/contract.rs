//! The parts of `BENCHMARK.json` the harness acts on.

use crate::layers::PER_LAYER;
use crate::run::END_TO_END;
use crate::stats::Better;
use serde::{Deserialize, Value};

/// One end-to-end metric's direction and regression bound.
#[derive(Debug, Clone)]
pub struct MetricDef {
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

#[derive(Debug)]
pub struct Contract {
    pub run_seconds: f64,
    /// In [`END_TO_END`] order.
    pub end_to_end: Vec<MetricDef>,
}

impl Contract {
    /// Parses the file and insists it names the metrics of the harness's
    /// own tables, in their order: the harness prints from its tables, and
    /// the driver must not meet strangers.
    pub fn parse(json: &str) -> Result<Self, String> {
        let root = serde_json::parse_value(json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let metrics = |key: &str, table: &[(&str, &str)]| {
            let list = root
                .get(key)
                .and_then(Value::as_seq)
                .ok_or_else(|| format!("BENCHMARK.json: no `{key}` list"))?;
            let field = |m: &Value, key| m.get(key).and_then(Value::as_str).map(str::to_owned);
            let named: Vec<_> = list
                .iter()
                .map(|m| (field(m, "name"), field(m, "unit")))
                .collect();
            let expected: Vec<_> = table
                .iter()
                .map(|&(name, unit)| (Some(name.to_owned()), Some(unit.to_owned())))
                .collect();
            if named != expected {
                return Err(format!(
                    "BENCHMARK.json `{key}` and the harness's table disagree on names or units"
                ));
            }
            Ok(list)
        };
        metrics("per_layer", &PER_LAYER)?;
        let end_to_end = metrics("end_to_end", &END_TO_END)?
            .iter()
            .map(|m| {
                Ok(MetricDef {
                    better: m
                        .get("better")
                        .and_then(Value::as_str)
                        .and_then(Better::parse)
                        .ok_or("BENCHMARK.json: `better` is neither lower nor higher")?,
                    bound: m
                        .get("bound")
                        .and_then(|b| f64::from_value(b).ok())
                        .filter(|b| *b > 0.0 && *b <= 0.25)
                        .ok_or("BENCHMARK.json: an end-to-end `bound` is not in (0, 0.25]")?,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Self {
            run_seconds: root
                .get("run_seconds")
                .and_then(|s| f64::from_value(s).ok())
                .filter(|s| *s >= 1.0 && *s <= 60.0)
                .ok_or("BENCHMARK.json: `run_seconds` is not in 1..=60")?,
            end_to_end,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    const FILE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

    /// `BENCHMARK.json` names the metrics the harness prints, in order, with
    /// the same units (`parse` insists), and the workloads it runs.
    #[test]
    fn benchmark_json_matches_the_harness() {
        let json = std::fs::read_to_string(FILE).unwrap();
        let contract = Contract::parse(&json).unwrap();
        assert_eq!(contract.end_to_end.len(), END_TO_END.len());
        assert!((1.0..=60.0).contains(&contract.run_seconds));

        let root = serde_json::parse_value(&json).unwrap();
        let workloads: Vec<_> = root
            .get("workloads")
            .unwrap()
            .as_seq()
            .unwrap()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap().to_owned())
            .collect();
        assert_eq!(workloads, Workload::ALL.map(Workload::name));
    }

    #[test]
    fn a_renamed_metric_is_refused() {
        let json = std::fs::read_to_string(FILE).unwrap();
        let renamed = json.replace("\"work_per_s\"", "\"events_per_s\"");
        assert!(Contract::parse(&renamed)
            .unwrap_err()
            .contains("end_to_end"));
    }
}

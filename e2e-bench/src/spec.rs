//! The metric catalogue, read from the repository's `BENCHMARK.json` so the
//! names, units, directions and bounds exist in one place.

use meissa_testkit::json::Json;
use std::sync::OnceLock;

pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Regression bound as a share of the baseline median; end-to-end
    /// metrics only.
    pub bound: Option<f64>,
}

pub struct Spec {
    pub run_seconds: u64,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    pub fn metric(&self, name: &str) -> Option<&MetricSpec> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

const TEXT: &str = include_str!("../../BENCHMARK.json");

pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| parse(TEXT).expect("BENCHMARK.json is well formed"))
}

fn parse(text: &str) -> Result<Spec, String> {
    let doc = Json::parse(text).map_err(|e| e.to_string())?;
    let err = |e: meissa_testkit::json::JsonError| e.to_string();
    let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
        doc.field(key)
            .and_then(Json::as_arr)
            .map_err(err)?
            .iter()
            .map(|m| {
                Ok(MetricSpec {
                    name: m
                        .field("name")
                        .and_then(Json::as_str)
                        .map_err(err)?
                        .to_string(),
                    unit: m
                        .field("unit")
                        .and_then(Json::as_str)
                        .map_err(err)?
                        .to_string(),
                    lower_is_better: m.field("better").and_then(Json::as_str).map_err(err)?
                        == "lower",
                    bound: m.get("bound").map(Json::as_f64).transpose().map_err(err)?,
                })
            })
            .collect()
    };
    Ok(Spec {
        run_seconds: doc
            .field("run_seconds")
            .and_then(Json::as_u128)
            .map_err(err)? as u64,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::WORKLOADS;

    #[test]
    fn catalogue_matches_the_workload_table() {
        let s = spec();
        let doc = Json::parse(TEXT).unwrap();
        let listed: Vec<&str> = doc
            .field("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| w.field("name").unwrap().as_str().unwrap())
            .collect();
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(listed, names);
        assert!(s.end_to_end.iter().all(|m| m.bound.is_some()));
        assert!(s.per_layer.iter().all(|m| m.bound.is_none()));
        assert!(s.metric("setup_s").is_some());
    }
}

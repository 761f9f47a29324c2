//! `BENCHMARK.json`, embedded: the one place metric names, units,
//! directions and bounds are declared. The binary looks units up here when
//! it prints a value, `compare` takes its bounds from here, and a test
//! pins that what a run emits is exactly what the file declares.

use haec_sim::obs::json::Json;
use std::sync::OnceLock;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One declared metric.
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the base median by which an end-to-end metric may worsen;
    /// `None` for per-layer metrics.
    pub bound: Option<f64>,
}

impl MetricSpec {
    /// Wall-clock and memory readings vary run to run; everything else a
    /// run reports is a pure function of (workload, seed) and compares
    /// exactly. The unit tells them apart.
    pub fn is_wall_clock(&self) -> bool {
        matches!(self.unit.as_str(), "s" | "ns" | "ns/call" | "MB" | "x")
    }
}

/// The parsed declaration.
pub struct Spec {
    /// Workload names with why each was chosen.
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    /// The declaration of `name`, end-to-end or per-layer.
    pub fn metric(&self, name: &str) -> Option<&MetricSpec> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

fn metrics(doc: &Json, key: &str) -> Vec<MetricSpec> {
    let field = |m: &Json, k: &str| {
        m.get(k)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("BENCHMARK.json: {key} entry without {k}"))
            .to_string()
    };
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json: no {key}"))
        .iter()
        .map(|m| MetricSpec {
            name: field(m, "name"),
            unit: field(m, "unit"),
            higher_is_better: field(m, "better") == "higher",
            bound: m.get("bound").and_then(Json::as_f64),
        })
        .collect()
}

/// The embedded `BENCHMARK.json`, parsed once.
pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| {
        let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
        Spec {
            workloads: doc
                .get("workloads")
                .and_then(Json::as_arr)
                .expect("BENCHMARK.json: no workloads")
                .iter()
                .filter_map(|w| {
                    let field = |k| w.get(k).and_then(Json::as_str).map(str::to_string);
                    Some((field("name")?, field("why")?))
                })
                .collect(),
            end_to_end: metrics(&doc, "end_to_end"),
            per_layer: metrics(&doc, "per_layer"),
        }
    })
}

//! The metric catalogue: every workload and metric the benchmark
//! reports, with its unit and direction, read from `BENCHMARK.json` at
//! the repository root (compiled in).

use std::sync::OnceLock;

use tacos_report::Json;

/// Work counters that must read the same on every run of the same code;
/// a change means the schedule changed.
const EXACT: [&str; 6] = [
    "core.rounds",
    "core.transfers",
    "core.collective_time_ps",
    "sim.messages",
    "sim.collective_time_ps",
    "collective.compact_bytes",
];

/// One metric's definition.
#[derive(Debug, Clone)]
pub struct MetricSpec {
    /// Metric name as printed.
    pub name: String,
    /// Unit as printed.
    pub unit: String,
    /// `"lower"` or `"higher"`: which direction is better.
    pub better: String,
    /// One of the exact work counters.
    pub exact: bool,
}

/// What `BENCHMARK.json` lists.
#[derive(Debug)]
pub struct Catalog {
    /// Workload names, in listed order.
    pub workloads: Vec<String>,
    /// Reported by untraced runs (`--trace 0`).
    pub end_to_end: Vec<MetricSpec>,
    /// Reported by traced runs (`--trace 1`). A layer a workload does
    /// not reach reports 0 with 0 samples.
    pub per_layer: Vec<MetricSpec>,
}

impl Catalog {
    /// Whether `name` is a listed metric.
    pub fn has(&self, name: &str) -> bool {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .any(|s| s.name == name)
    }
}

/// The catalogue; panics if the compiled-in `BENCHMARK.json` is malformed.
pub fn catalog() -> &'static Catalog {
    static CATALOG: OnceLock<Catalog> = OnceLock::new();
    CATALOG.get_or_init(|| {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let items = |section: &str| -> &[Json] {
            doc.get(section)
                .and_then(Json::as_array)
                .unwrap_or_else(|| panic!("BENCHMARK.json: {section} is not an array"))
        };
        let field = |item: &Json, key: &str| -> String {
            item.get(key)
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("BENCHMARK.json: an entry has no string {key}"))
                .to_string()
        };
        let metrics = |section: &str| -> Vec<MetricSpec> {
            items(section)
                .iter()
                .map(|m| {
                    let name = field(m, "name");
                    MetricSpec {
                        exact: EXACT.contains(&name.as_str()),
                        unit: field(m, "unit"),
                        better: field(m, "better"),
                        name,
                    }
                })
                .collect()
        };
        Catalog {
            workloads: items("workloads")
                .iter()
                .map(|w| field(w, "name"))
                .collect(),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        }
    })
}

//! `BENCHMARK.json`: the names, units, directions and bounds every later
//! change is held to. The runner reads them from the file rather than
//! repeating them, so the file is the single definition.

use crate::json::Json;
use std::path::Path;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the base median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

impl Metric {
    /// Absolute change below which a difference is ignored, whatever its
    /// share: set-up under 50 ms and RSS under 2 MB are page-cache and
    /// allocator jitter, not the program. (`BENCHMARK.json`'s schema has
    /// no field for it, so it lives here and in the README.)
    pub fn floor(&self) -> f64 {
        match self.name.as_str() {
            "setup_s" => 0.05,
            "peak_rss_mb" => 2.0,
            _ => 0.0,
        }
    }
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Spec {
    pub fn load(root: &Path) -> Result<Spec, String> {
        let path = root.join("BENCHMARK.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Spec::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = Json::parse(text)?;
        let list = |key: &str| -> Result<&[Json], String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("missing array {key:?}"))
        };
        let string = |v: &Json, key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string {key:?}"))
        };
        let metrics = |key: &str| -> Result<Vec<Metric>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    Ok(Metric {
                        name: string(m, "name")?,
                        unit: string(m, "unit")?,
                        higher_is_better: string(m, "better")? == "higher",
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("missing run_seconds")?,
            workloads: list("workloads")?
                .iter()
                .map(|w| Ok((string(w, "name")?, string(w, "why")?)))
                .collect::<Result<_, String>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

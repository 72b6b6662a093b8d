//! `compare BASE.json NEW.json`: one verdict per workload × end-to-end
//! metric, from the bounds in `BENCHMARK.json`.

use crate::json::Json;
use crate::spec::{Metric, Spec};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The base's own run-to-run spread is wider than the bound, so
    /// neither "regressed" nor "unchanged" can be said.
    Unresolved,
}

#[derive(Debug)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub base: f64,
    pub new: f64,
    pub verdict: Verdict,
}

/// Median and, when the summary holds at least two runs, the
/// interquartile spread as a share of the median.
fn stat(summary: &Json, workload: &str, metric: &str) -> Option<(f64, Option<f64>)> {
    let m = summary
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?;
    let median = m.get("median")?.as_f64()?;
    let spread = match (
        m.get("q1").and_then(Json::as_f64),
        m.get("q3").and_then(Json::as_f64),
    ) {
        (Some(q1), Some(q3)) if median != 0.0 => Some((q3 - q1) / median.abs()),
        _ => None,
    };
    Some((median, spread))
}

fn failed_share(summary: &Json, workload: &str) -> Option<f64> {
    summary
        .get("workloads")?
        .get(workload)?
        .get("failed_share")?
        .as_f64()
}

fn judge(metric: &Metric, base: f64, spread: Option<f64>, new: f64) -> Verdict {
    let bound = metric.bound.unwrap_or(0.0);
    if spread.is_some_and(|s| s > bound) {
        return Verdict::Unresolved;
    }
    let worse_by = if metric.higher_is_better {
        base - new
    } else {
        new - base
    };
    if worse_by > bound * base.abs() && worse_by > metric.floor() {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

pub fn compare(spec: &Spec, base: &Json, new: &Json) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for (workload, _) in &spec.workloads {
        for metric in &spec.end_to_end {
            let (b, spread) = stat(base, workload, &metric.name)
                .ok_or_else(|| format!("base lacks {workload} × {}", metric.name))?;
            let (n, _) = stat(new, workload, &metric.name)
                .ok_or_else(|| format!("new lacks {workload} × {}", metric.name))?;
            rows.push(Row {
                workload: workload.clone(),
                metric: metric.name.clone(),
                unit: metric.unit.clone(),
                base: b,
                new: n,
                verdict: judge(metric, b, spread, n),
            });
        }
        // Not a bounded metric: any increase is a regression.
        let b = failed_share(base, workload)
            .ok_or_else(|| format!("base lacks {workload} × failed_share"))?;
        let n = failed_share(new, workload)
            .ok_or_else(|| format!("new lacks {workload} × failed_share"))?;
        rows.push(Row {
            workload: workload.clone(),
            metric: "failed_share".to_string(),
            unit: "share".to_string(),
            base: b,
            new: n,
            verdict: if n > b {
                Verdict::Regressed
            } else {
                Verdict::Ok
            },
        });
    }
    Ok(rows)
}

pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<18} {:<22} {:>12} {:>12} {:>8}  {}\n",
        "workload", "metric", "base", "new", "new/base", "verdict"
    );
    for r in rows {
        let ratio = if r.base == 0.0 {
            "-".to_string()
        } else {
            format!("{:.3}", r.new / r.base)
        };
        out.push_str(&format!(
            "{:<18} {:<22} {:>12.4} {:>12.4} {:>8}  {}\n",
            r.workload,
            format!("{} [{}]", r.metric, r.unit),
            r.base,
            r.new,
            ratio,
            match r.verdict {
                Verdict::Ok => "ok",
                Verdict::Regressed => "regressed",
                Verdict::Unresolved => "unresolved",
            }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{
      "run_seconds": 10,
      "workloads": [{"name": "w", "why": "test"}],
      "end_to_end": [
        {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}
      ],
      "per_layer": []
    }"#;

    fn summary(ops: f64, q1: f64, q3: f64, setup: f64, failed_share: f64) -> Json {
        Json::parse(&format!(
            r#"{{"workloads": {{"w": {{"failed_share": {failed_share}, "end_to_end": {{
                 "ops_per_s": {{"median": {ops}, "q1": {q1}, "q3": {q3}}},
                 "setup_s": {{"median": {setup}}}}}}}}}}}"#
        ))
        .unwrap()
    }

    fn verdicts(base: &Json, new: &Json) -> Vec<Verdict> {
        let spec = Spec::parse(SPEC).unwrap();
        compare(&spec, base, new)
            .unwrap()
            .iter()
            .map(|r| r.verdict)
            .collect()
    }

    #[test]
    fn a_a_passes() {
        let a = summary(100.0, 99.0, 101.0, 1.0, 0.0);
        assert_eq!(verdicts(&a, &a), [Verdict::Ok; 3]);
        // Within the bound, and an improvement, also pass.
        let better = summary(120.0, 119.0, 121.0, 0.5, 0.0);
        assert_eq!(verdicts(&a, &better), [Verdict::Ok; 3]);
    }

    #[test]
    fn fifteen_percent_throughput_drop_fails() {
        let a = summary(100.0, 99.0, 101.0, 1.0, 0.0);
        let slow = summary(85.0, 84.0, 86.0, 1.0, 0.0);
        assert_eq!(
            verdicts(&a, &slow),
            [Verdict::Regressed, Verdict::Ok, Verdict::Ok]
        );
    }

    #[test]
    fn failed_share_rise_fails() {
        let a = summary(100.0, 99.0, 101.0, 1.0, 0.0);
        let wrong = summary(100.0, 99.0, 101.0, 1.0, 0.002);
        assert_eq!(
            verdicts(&a, &wrong),
            [Verdict::Ok, Verdict::Ok, Verdict::Regressed]
        );
    }

    #[test]
    fn noisy_base_is_unresolved_and_floor_absorbs_small_deltas() {
        let noisy = summary(100.0, 90.0, 110.0, 0.10, 0.0);
        let slow = summary(85.0, 84.0, 86.0, 0.14, 0.0);
        // ops_per_s: base IQR is 20% of its median, wider than the 10% bound.
        // setup_s: 40% worse but only 40 ms, under the 50 ms floor.
        assert_eq!(
            verdicts(&noisy, &slow),
            [Verdict::Unresolved, Verdict::Ok, Verdict::Ok]
        );
    }
}

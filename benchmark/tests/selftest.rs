//! Drives the built runner at `--quick` scale: every metric named in
//! `BENCHMARK.json` comes out, nothing fails, the trace files parse,
//! inputs are a function of the seed, and the compare gate goes red on
//! an injected slowdown.

use gql_benchmark::json::Json;
use gql_benchmark::spec::Spec;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repository root")
        .to_path_buf()
}

fn runner(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bench-runner"))
        .current_dir(root())
        .args(args)
        .output()
        .expect("runner starts")
}

fn read_json(path: &Path) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn quick_run_reports_every_metric_and_compare_catches_a_slowdown() {
    let spec = Spec::load(&root()).unwrap();
    let results = root().join("benchmark/results");
    std::fs::create_dir_all(&results).unwrap();
    let base = results.join("selftest-base.json");
    let slow = results.join("selftest-slow.json");

    let out = runner(&["--quick", "--seed", "1", "--out", base.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "quick run failed:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let summary = read_json(&base);
    assert_eq!(
        summary.get("claim"),
        Some(&Json::Null),
        "no gain is claimed"
    );
    for key in ["machine_cores", "rustc", "commit", "seed", "flush_policy"] {
        assert!(summary.get(key).is_some(), "summary lacks {key}");
    }
    for (workload, _) in &spec.workloads {
        let w = summary
            .get("workloads")
            .and_then(|ws| ws.get(workload))
            .unwrap_or_else(|| panic!("summary lacks {workload}"));
        assert_eq!(
            w.get("failed_share").and_then(Json::as_f64),
            Some(0.0),
            "{workload}"
        );
        for (section, metrics) in [
            ("end_to_end", &spec.end_to_end),
            ("per_layer", &spec.per_layer),
        ] {
            for m in metrics {
                let entry = w
                    .get(section)
                    .and_then(|s| s.get(&m.name))
                    .unwrap_or_else(|| panic!("{workload} lacks {}", m.name));
                assert_eq!(
                    entry.get("unit").and_then(Json::as_str),
                    Some(m.unit.as_str())
                );
                let samples = entry.get("samples").and_then(Json::as_f64);
                assert!(
                    samples.is_some_and(|n| n >= 1.0),
                    "{workload} {}: samples",
                    m.name
                );
            }
        }
        let trace = read_json(&results.join(format!("{workload}.trace.json")));
        let spans = trace
            .get("spans")
            .and_then(Json::as_arr)
            .expect("spans array");
        assert!(!spans.is_empty(), "{workload}: no spans");
        for s in spans {
            for key in ["id", "op", "name", "start_us", "end_us", "parent"] {
                assert!(s.get(key).is_some(), "{workload}: span lacks {key}");
            }
        }
    }

    // A/A: a summary against itself passes.
    let same = runner(&["compare", base.to_str().unwrap(), base.to_str().unwrap()]);
    assert!(
        same.status.success(),
        "{}",
        String::from_utf8_lossy(&same.stdout)
    );

    // Live: every op 50% slower inside the runner's own loop — twice the
    // 0.25 bound, so the verdict does not hang on quick-scale noise.
    let out = runner(&[
        "--quick",
        "--seed",
        "1",
        "--inject-slowdown-pct",
        "50",
        "--out",
        slow.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let verdict = runner(&["compare", base.to_str().unwrap(), slow.to_str().unwrap()]);
    let table = String::from_utf8_lossy(&verdict.stdout);
    assert_eq!(
        verdict.status.code(),
        Some(1),
        "compare must go red:\n{table}"
    );
    assert!(table.contains("regressed"), "{table}");
}

#[test]
fn inputs_are_a_function_of_the_seed() {
    let spec = Spec::load(&root()).unwrap();
    for (workload, _) in &spec.workloads {
        let gen = |seed: &str| {
            let out = runner(&["inputs", "--quick", "--workload", workload, "--seed", seed]);
            assert!(
                out.status.success(),
                "{workload}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            out.stdout
        };
        let a = gen("3");
        assert!(!a.is_empty());
        assert!(
            a == gen("3"),
            "{workload}: seed 3 generated different inputs in two invocations"
        );
        assert!(
            a != gen("4"),
            "{workload}: seeds 3 and 4 generated the same inputs"
        );
    }
}

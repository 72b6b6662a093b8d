//! Regenerates the paper's evaluation figures.
//!
//! ```text
//! cargo run -p gql-bench --release --bin experiments -- all          # quick scale
//! cargo run -p gql-bench --release --bin experiments -- fig4_21 full
//! cargo run -p gql-bench --release --bin experiments -- smoke --threads 0
//! ```
//!
//! `smoke` compares sequential vs `--threads N` selection (0 = one
//! worker per core, the default) on one clique and one synthetic
//! workload and writes machine-readable `BENCH_parallel.json`.
//! `profile` times the optimized pipeline with the observability sink
//! disabled vs enabled and writes the captured per-phase report to
//! `BENCH_profile.json`. `trace` times the pipeline with the trace sink
//! absent vs attached and writes `BENCH_obs_overhead.json`. `planner`
//! compares cold-plan vs hot-plan-cache vs adaptive planning on a
//! repeated-query workload and writes `BENCH_planner.json`.
//! `propindex` compares index-probe retrieval against bucket-scan
//! predicate evaluation on a 12k-node attribute workload and writes
//! `BENCH_propindex.json`. `storage` compares cold-opening a
//! checkpointed (and a WAL-only) data directory against rebuilding the
//! same database in memory and writes `BENCH_storage.json`. `mmap`
//! compares a memory-mapped cold open (zero-copy index adoption)
//! against an owned read of the same checkpoint — time-to-first-answer
//! and peak RSS, each pass in its own child process — and writes
//! `BENCH_mmap.json`. `telemetry` compares engine-level query batches
//! with no telemetry vs the always-on registry attached (unscraped) vs
//! a concurrent `/metrics` scraper hammering the endpoint, and writes
//! `BENCH_telemetry.json`. `validate-prom FILE` checks that FILE is
//! well-formed Prometheus text exposition and exits nonzero if not.

use gql_bench::experiments::{
    bench_mmap, bench_parallel, bench_planner, bench_profile, bench_propindex, bench_storage,
    bench_telemetry, bench_trace, fig4_20, fig4_21, fig4_22, fig4_23a, fig4_23b, mmap_bench_json,
    mmap_child_main, parallel_bench_json, planner_bench_json, print_mmap_rows, print_parallel_rows,
    print_planner_rows, print_profile_result, print_propindex_rows, print_space_rows,
    print_step_rows, print_storage_rows, print_telemetry_rows, print_total_rows, print_trace_rows,
    profile_bench_json, propindex_bench_json, storage_bench_json, telemetry_bench_json,
    trace_bench_json, Scale,
};

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    // Hidden child mode for the mmap bench: each pass runs in a fresh
    // process so VmHWM reflects exactly one cold open.
    if raw.first().map(String::as_str) == Some("__mmap_child") {
        let dir = raw.get(1).expect("__mmap_child needs a directory");
        let mode = raw.get(2).expect("__mmap_child needs a mode");
        let threads = raw
            .get(3)
            .and_then(|v| v.parse().ok())
            .expect("__mmap_child needs a thread count");
        mmap_child_main(std::path::Path::new(dir), mode, threads);
        return;
    }
    let mut threads = 0usize;
    let mut args: Vec<String> = Vec::new();
    let mut it = raw.into_iter();
    while let Some(a) = it.next() {
        if a == "--threads" {
            let v = it.next().unwrap_or_default();
            threads = v.parse().unwrap_or_else(|_| {
                eprintln!("bad --threads value {v:?}");
                std::process::exit(2);
            });
        } else {
            args.push(a);
        }
    }
    let which = args.first().map(String::as_str).unwrap_or("all");
    let scale = match args.get(1).map(String::as_str) {
        Some("full") => Scale::Full,
        _ => Scale::Quick,
    };
    eprintln!("# experiment scale: {scale:?} (pass `full` as the 2nd arg for paper-sized runs)");

    let run_20 = || {
        let (low, high) = fig4_20(scale);
        print_space_rows(
            "Figure 4.20(a) — search-space reduction, clique queries, PPI graph, low hits",
            &low,
        );
        print_space_rows(
            "Figure 4.20(b) — search-space reduction, clique queries, PPI graph, high hits",
            &high,
        );
    };
    let run_21 = || {
        let (steps, totals) = fig4_21(scale);
        print_step_rows(
            "Figure 4.21(a) — per-step time, clique queries, PPI graph, low hits",
            &steps,
        );
        print_total_rows(
            "Figure 4.21(b) — total query time, clique queries, PPI graph, low hits",
            "clique",
            &totals,
        );
    };
    let run_22 = || {
        let (spaces, steps) = fig4_22(scale);
        print_space_rows(
            "Figure 4.22(a) — search-space reduction, synthetic 10K graph, low hits",
            &spaces,
        );
        print_step_rows(
            "Figure 4.22(b) — per-step time, synthetic 10K graph, low hits",
            &steps,
        );
    };
    let run_23 = || {
        print_total_rows(
            "Figure 4.23(a) — total time vs query size, synthetic 10K graph",
            "qsize",
            &fig4_23a(scale),
        );
        print_total_rows(
            "Figure 4.23(b) — total time vs graph size, query size 4",
            "nodes",
            &fig4_23b(scale),
        );
    };

    let run_profile = || {
        let r = bench_profile(scale, threads);
        print_profile_result("Pipeline observability — obs sink disabled vs enabled", &r);
        let json = profile_bench_json(scale, threads, &r);
        let path = "BENCH_profile.json";
        match std::fs::write(path, &json) {
            Ok(()) => eprintln!("# wrote {path}"),
            Err(e) => eprintln!("# could not write {path}: {e}"),
        }
    };
    let run_trace = || {
        let rows = bench_trace(scale, threads);
        print_trace_rows(
            "Trace sink — disabled vs enabled wall-clock, optimized pipeline",
            &rows,
        );
        let json = trace_bench_json(scale, threads, &rows);
        let path = "BENCH_obs_overhead.json";
        match std::fs::write(path, &json) {
            Ok(()) => eprintln!("# wrote {path}"),
            Err(e) => eprintln!("# could not write {path}: {e}"),
        }
    };
    let run_planner = || {
        let rows = bench_planner(scale, threads);
        print_planner_rows(
            "Plan cache — cold plan vs hot cache vs adaptive, optimized pipeline",
            &rows,
        );
        let json = planner_bench_json(scale, threads, &rows);
        let path = "BENCH_planner.json";
        match std::fs::write(path, &json) {
            Ok(()) => eprintln!("# wrote {path}"),
            Err(e) => eprintln!("# could not write {path}: {e}"),
        }
    };
    let run_propindex = || {
        let rows = bench_propindex(scale, threads);
        print_propindex_rows(
            "Property index — bucket-scan vs index-probe retrieval, optimized pipeline",
            &rows,
        );
        let json = propindex_bench_json(scale, threads, &rows);
        let path = "BENCH_propindex.json";
        match std::fs::write(path, &json) {
            Ok(()) => eprintln!("# wrote {path}"),
            Err(e) => eprintln!("# could not write {path}: {e}"),
        }
    };
    let run_storage = || {
        let rows = bench_storage(scale, threads);
        print_storage_rows(
            "Storage — cold open from checkpoint/WAL vs in-memory rebuild",
            &rows,
        );
        let json = storage_bench_json(scale, threads, &rows);
        let path = "BENCH_storage.json";
        match std::fs::write(path, &json) {
            Ok(()) => eprintln!("# wrote {path}"),
            Err(e) => eprintln!("# could not write {path}: {e}"),
        }
    };
    let run_mmap = || {
        let rows = bench_mmap(scale, threads);
        print_mmap_rows(
            "Zero-copy adoption — mapped vs owned cold open, time-to-first-answer + peak RSS",
            &rows,
        );
        let json = mmap_bench_json(scale, threads, &rows);
        let path = "BENCH_mmap.json";
        match std::fs::write(path, &json) {
            Ok(()) => eprintln!("# wrote {path}"),
            Err(e) => eprintln!("# could not write {path}: {e}"),
        }
    };
    let run_telemetry = || {
        let rows = bench_telemetry(scale, threads);
        print_telemetry_rows(
            "Live telemetry — none vs unscraped registry vs scraped under load",
            &rows,
        );
        let json = telemetry_bench_json(scale, threads, &rows);
        let path = "BENCH_telemetry.json";
        match std::fs::write(path, &json) {
            Ok(()) => eprintln!("# wrote {path}"),
            Err(e) => eprintln!("# could not write {path}: {e}"),
        }
    };
    let run_smoke = || {
        let rows = bench_parallel(scale, threads);
        print_parallel_rows(
            "Parallel selection — sequential vs threaded wall-clock",
            &rows,
        );
        let json = parallel_bench_json(scale, threads, &rows);
        let path = "BENCH_parallel.json";
        match std::fs::write(path, &json) {
            Ok(()) => eprintln!("# wrote {path}"),
            Err(e) => eprintln!("# could not write {path}: {e}"),
        }
    };

    match which {
        "fig4_20" => run_20(),
        "fig4_21" => run_21(),
        "fig4_22" => run_22(),
        "fig4_23" => run_23(),
        "profile" => run_profile(),
        "trace" => run_trace(),
        "planner" => run_planner(),
        "propindex" => run_propindex(),
        "storage" => run_storage(),
        "mmap" => run_mmap(),
        "telemetry" => run_telemetry(),
        "validate-prom" => {
            let path = args.get(1).map(String::as_str).unwrap_or_else(|| {
                eprintln!("validate-prom needs a file path");
                std::process::exit(2);
            });
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("cannot read {path:?}: {e}");
                std::process::exit(1);
            });
            if let Err(e) = gql_core::validate_prometheus(&text) {
                eprintln!("{path}: invalid Prometheus exposition: {e}");
                std::process::exit(1);
            }
            eprintln!("{path}: valid Prometheus exposition");
        }
        "smoke" => run_smoke(),
        "all" => {
            run_20();
            run_21();
            run_22();
            run_23();
            run_smoke();
        }
        other => {
            eprintln!(
                "unknown experiment {other:?}; use fig4_20|fig4_21|fig4_22|fig4_23|profile|trace|planner|propindex|storage|mmap|telemetry|validate-prom|smoke|all"
            );
            std::process::exit(2);
        }
    }
}

//! Regenerates the paper's evaluation figures.
//!
//! ```text
//! cargo run -p gql-bench --release --bin experiments -- all          # quick scale
//! cargo run -p gql-bench --release --bin experiments -- fig4_21 full
//! ```
//!
//! Timing questions about the system itself (per-layer cost, cold
//! start, thread scaling) belong to the standing benchmark under
//! `benchmark/`; this binary only reproduces Figures 4.20–4.23.

use gql_bench::experiments::{
    fig4_20, fig4_21, fig4_22, fig4_23a, fig4_23b, print_space_rows, print_step_rows,
    print_total_rows, Scale,
};

const USAGE: &str = "fig4_20|fig4_21|fig4_22|fig4_23|all [full]";

fn run_20(scale: Scale) {
    let (low, high) = fig4_20(scale);
    print_space_rows(
        "Figure 4.20(a) — search-space reduction, clique queries, PPI graph, low hits",
        &low,
    );
    print_space_rows(
        "Figure 4.20(b) — search-space reduction, clique queries, PPI graph, high hits",
        &high,
    );
}

fn run_21(scale: Scale) {
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
}

fn run_22(scale: Scale) {
    let (spaces, steps) = fig4_22(scale);
    print_space_rows(
        "Figure 4.22(a) — search-space reduction, synthetic 10K graph, low hits",
        &spaces,
    );
    print_step_rows(
        "Figure 4.22(b) — per-step time, synthetic 10K graph, low hits",
        &steps,
    );
}

fn run_23(scale: Scale) {
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
}

fn usage_exit(what: &str) -> ! {
    eprintln!("{what}; use {USAGE}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = args.first().map(String::as_str).unwrap_or("all");
    let figures: &[fn(Scale)] = match which {
        "fig4_20" => &[run_20],
        "fig4_21" => &[run_21],
        "fig4_22" => &[run_22],
        "fig4_23" => &[run_23],
        "all" => &[run_20, run_21, run_22, run_23],
        other => usage_exit(&format!("unknown experiment {other:?}")),
    };
    let scale = match args.get(1).map(String::as_str) {
        None => Scale::Quick,
        Some("full") => Scale::Full,
        Some(other) => usage_exit(&format!("unknown scale {other:?}")),
    };
    if args.len() > 2 {
        usage_exit(&format!("unexpected argument {:?}", args[2]));
    }
    eprintln!("# experiment scale: {scale:?} (pass `full` as the 2nd arg for paper-sized runs)");
    for run in figures {
        run(scale);
    }
}

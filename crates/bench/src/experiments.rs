//! Runners that regenerate every figure of the paper's §5 evaluation.
//!
//! Each `fig4_*` function produces printable rows with the same series
//! the paper plots; EXPERIMENTS.md records the paper-vs-measured
//! comparison. Absolute times differ (2008 MySQL/Java vs in-memory
//! Rust); the *shapes* are what must reproduce.

use crate::workload::{
    fmt_ratio, mean, Configs, HitClass, SqlWorkload, Workload, LOW_HITS, MAX_HITS,
};
use gql_core::Graph;
use std::time::Duration;

/// Scale knob: `quick` for CI-sized runs, `full` for paper-sized ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Few queries per point, small graphs: seconds.
    Quick,
    /// Paper-scale query counts: minutes.
    Full,
}

impl Scale {
    /// Queries generated per (size, class) point.
    pub fn queries_per_point(self) -> usize {
        match self {
            Scale::Quick => 150,
            Scale::Full => 1000,
        }
    }

    /// Time limit per SQL query.
    pub fn sql_limit(self) -> Duration {
        match self {
            Scale::Quick => Duration::from_secs(2),
            Scale::Full => Duration::from_secs(20),
        }
    }

    /// Largest synthetic graph for Fig 4.23(b).
    pub fn max_graph(self) -> usize {
        match self {
            Scale::Quick => 80_000,
            Scale::Full => 320_000,
        }
    }
}

// ---------------------------------------------------------------- 4.20

/// One row of Figure 4.20: mean log10 reduction ratios per clique size.
#[derive(Debug, Clone)]
pub struct SpaceRow {
    /// Query size (clique size or subgraph size).
    pub size: usize,
    /// Number of queries that contributed (answered, in class).
    pub queries: usize,
    /// Mean log10 ratio for retrieve-by-profiles.
    pub profiles_log10: f64,
    /// Mean log10 ratio for retrieve-by-subgraphs.
    pub subgraphs_log10: f64,
    /// Mean log10 ratio for the refined space.
    pub refined_log10: f64,
}

/// Figure 4.20: search-space reduction ratios for clique queries over
/// the PPI graph, split into low-hits (a) and high-hits (b).
pub fn fig4_20(scale: Scale) -> (Vec<SpaceRow>, Vec<SpaceRow>) {
    let w = Workload::ppi();
    let mut low_rows = Vec::new();
    let mut high_rows = Vec::new();
    for size in 2..=7usize {
        let queries = w.cliques(size, scale.queries_per_point(), 0xC11 + size as u64);
        let mut acc: [Vec<(f64, f64, f64)>; 2] = [Vec::new(), Vec::new()];
        for q in &queries {
            let Some(class) = w.classify(q) else { continue };
            let prof = w.run(q, &Configs::profiles());
            let sub = w.run(q, &Configs::subgraphs());
            let refined = w.run(q, &Configs::refined());
            let entry = (
                prof.spaces.local_ratio_log10(),
                sub.spaces.local_ratio_log10(),
                refined.spaces.refined_ratio_log10(),
            );
            // Empty spaces give -inf; clamp to a large negative value so
            // means stay finite (the paper's plots bottom out similarly).
            let clamp = |x: f64| if x.is_finite() { x } else { -40.0 };
            let entry = (clamp(entry.0), clamp(entry.1), clamp(entry.2));
            acc[(class == HitClass::High) as usize].push(entry);
        }
        for (class_idx, rows) in [(0usize, &mut low_rows), (1, &mut high_rows)] {
            let xs = &acc[class_idx];
            if xs.is_empty() {
                continue;
            }
            rows.push(SpaceRow {
                size,
                queries: xs.len(),
                profiles_log10: mean(&xs.iter().map(|x| x.0).collect::<Vec<_>>()),
                subgraphs_log10: mean(&xs.iter().map(|x| x.1).collect::<Vec<_>>()),
                refined_log10: mean(&xs.iter().map(|x| x.2).collect::<Vec<_>>()),
            });
        }
    }
    (low_rows, high_rows)
}

/// Prints a Figure 4.20-style table.
pub fn print_space_rows(title: &str, rows: &[SpaceRow]) {
    println!("\n{title}");
    println!(
        "{:>5} {:>8} {:>18} {:>18} {:>18}",
        "size", "queries", "by-profiles", "by-subgraphs", "refined"
    );
    for r in rows {
        println!(
            "{:>5} {:>8} {:>18} {:>18} {:>18}",
            r.size,
            r.queries,
            fmt_ratio(r.profiles_log10),
            fmt_ratio(r.subgraphs_log10),
            fmt_ratio(r.refined_log10)
        );
    }
}

// ---------------------------------------------------------------- 4.21

/// Per-step timings (Fig 4.21a / 4.22b), microseconds.
#[derive(Debug, Clone)]
pub struct StepRow {
    /// Query size.
    pub size: usize,
    /// Contributing queries.
    pub queries: usize,
    /// Retrieve-by-profiles time.
    pub retrieve_profiles_us: f64,
    /// Retrieve-by-subgraphs time.
    pub retrieve_subgraphs_us: f64,
    /// Refinement time.
    pub refine_us: f64,
    /// Search time with the optimized order.
    pub search_opt_us: f64,
    /// Search time with declaration order.
    pub search_noopt_us: f64,
}

/// Total-time comparison (Fig 4.21b / 4.23), microseconds.
#[derive(Debug, Clone)]
pub struct TotalRow {
    /// X-axis value (query size or graph size).
    pub x: usize,
    /// Contributing queries.
    pub queries: usize,
    /// Optimized pipeline total.
    pub optimized_us: f64,
    /// Baseline pipeline total.
    pub baseline_us: f64,
    /// SQL-based total.
    pub sql_us: f64,
    /// Fraction of SQL runs that hit the time limit (reported time is
    /// then a lower bound).
    pub sql_timeout_frac: f64,
}

/// Shared driver for the step/total measurements over a query set.
fn measure(
    w: &Workload,
    sql: &SqlWorkload,
    queries: &[Graph],
    keep: impl Fn(HitClass) -> bool,
    x: usize,
    sql_limit: Duration,
) -> (Option<StepRow>, Option<TotalRow>) {
    let mut retrieve_p = Vec::new();
    let mut retrieve_s = Vec::new();
    let mut refine = Vec::new();
    let mut search_opt = Vec::new();
    let mut search_noopt = Vec::new();
    let mut opt_total = Vec::new();
    let mut base_total = Vec::new();
    let mut sql_total = Vec::new();
    let mut sql_timeouts = 0usize;
    let mut n = 0usize;

    for q in queries {
        let Some(class) = w.classify(q) else { continue };
        if !keep(class) {
            continue;
        }
        n += 1;
        // Individual steps.
        let prof = w.run(q, &Configs::profiles());
        retrieve_p.push(prof.timings.retrieve.as_secs_f64() * 1e6);
        let sub = w.run(q, &Configs::subgraphs());
        retrieve_s.push(sub.timings.retrieve.as_secs_f64() * 1e6);
        // `refined` covers two series: its refine phase and its search
        // phase (which runs in declaration order = "w/o opt. order").
        let refined = w.run(q, &Configs::refined());
        refine.push(refined.timings.refine.as_secs_f64() * 1e6);
        search_noopt.push(refined.timings.search.as_secs_f64() * 1e6);
        let opt = w.run(q, &Configs::optimized());
        search_opt.push(opt.timings.search.as_secs_f64() * 1e6);
        // Totals.
        opt_total.push(opt.timings.total().as_secs_f64() * 1e6);
        let base = w.run(q, &Configs::baseline());
        base_total.push(base.timings.total().as_secs_f64() * 1e6);
        let (_, secs, timed_out) = sql.run(q, sql_limit);
        sql_total.push(secs * 1e6);
        sql_timeouts += timed_out as usize;
    }
    if n == 0 {
        return (None, None);
    }
    (
        Some(StepRow {
            size: x,
            queries: n,
            retrieve_profiles_us: mean(&retrieve_p),
            retrieve_subgraphs_us: mean(&retrieve_s),
            refine_us: mean(&refine),
            search_opt_us: mean(&search_opt),
            search_noopt_us: mean(&search_noopt),
        }),
        Some(TotalRow {
            x,
            queries: n,
            optimized_us: mean(&opt_total),
            baseline_us: mean(&base_total),
            sql_us: mean(&sql_total),
            sql_timeout_frac: sql_timeouts as f64 / n as f64,
        }),
    )
}

/// Figure 4.21: clique queries on the PPI graph (low hits) — per-step
/// times (a) and total Optimized/Baseline/SQL times (b).
pub fn fig4_21(scale: Scale) -> (Vec<StepRow>, Vec<TotalRow>) {
    let w = Workload::ppi();
    let sql = SqlWorkload::new(&w.graph);
    let mut steps = Vec::new();
    let mut totals = Vec::new();
    for size in 2..=7usize {
        let queries = w.cliques(size, scale.queries_per_point(), 0x421 + size as u64);
        let (s, t) = measure(
            &w,
            &sql,
            &queries,
            |c| c == HitClass::Low,
            size,
            scale.sql_limit(),
        );
        if let Some(s) = s {
            steps.push(s);
        }
        if let Some(t) = t {
            totals.push(t);
        }
    }
    (steps, totals)
}

/// Figure 4.22: synthetic 10K-node graph, query sizes 4–20 — search
/// spaces (a) and per-step times (b); low-hits queries.
pub fn fig4_22(scale: Scale) -> (Vec<SpaceRow>, Vec<StepRow>) {
    let w = Workload::synthetic(10_000, 0x5eed);
    let mut spaces = Vec::new();
    let mut steps = Vec::new();
    let sql = SqlWorkload::new(&w.graph);
    for size in [4usize, 8, 12, 16, 20] {
        let queries = w.subgraphs(size, scale.queries_per_point(), 0x422 + size as u64);
        // Spaces.
        let mut accs = Vec::new();
        for q in &queries {
            let Some(HitClass::Low) = w.classify(q) else {
                continue;
            };
            let prof = w.run(q, &Configs::profiles());
            let sub = w.run(q, &Configs::subgraphs());
            let refined = w.run(q, &Configs::refined());
            let clamp = |x: f64| if x.is_finite() { x } else { -40.0 };
            accs.push((
                clamp(prof.spaces.local_ratio_log10()),
                clamp(sub.spaces.local_ratio_log10()),
                clamp(refined.spaces.refined_ratio_log10()),
            ));
        }
        if !accs.is_empty() {
            spaces.push(SpaceRow {
                size,
                queries: accs.len(),
                profiles_log10: mean(&accs.iter().map(|x| x.0).collect::<Vec<_>>()),
                subgraphs_log10: mean(&accs.iter().map(|x| x.1).collect::<Vec<_>>()),
                refined_log10: mean(&accs.iter().map(|x| x.2).collect::<Vec<_>>()),
            });
        }
        let (s, _) = measure(
            &w,
            &sql,
            &queries,
            |c| c == HitClass::Low,
            size,
            scale.sql_limit(),
        );
        if let Some(s) = s {
            steps.push(s);
        }
    }
    (spaces, steps)
}

/// Figure 4.23(a): total time vs query size on the 10K synthetic graph.
pub fn fig4_23a(scale: Scale) -> Vec<TotalRow> {
    let w = Workload::synthetic(10_000, 0x5eed);
    let sql = SqlWorkload::new(&w.graph);
    let mut totals = Vec::new();
    for size in [4usize, 8, 12, 16, 20] {
        let queries = w.subgraphs(size, scale.queries_per_point(), 0x423 + size as u64);
        let (_, t) = measure(
            &w,
            &sql,
            &queries,
            |c| c == HitClass::Low,
            size,
            scale.sql_limit(),
        );
        if let Some(t) = t {
            totals.push(t);
        }
    }
    totals
}

/// Figure 4.23(b): total time vs graph size (10K–320K), query size 4.
pub fn fig4_23b(scale: Scale) -> Vec<TotalRow> {
    let mut totals = Vec::new();
    let mut n = 10_000usize;
    while n <= scale.max_graph() {
        let w = Workload::synthetic_light(n, 0x5eed ^ n as u64);
        let sql = SqlWorkload::new(&w.graph);
        let queries = w.subgraphs(4, scale.queries_per_point(), 0x423b + n as u64);
        let (_, t) = measure(
            &w,
            &sql,
            &queries,
            |c| c == HitClass::Low,
            n,
            scale.sql_limit(),
        );
        if let Some(t) = t {
            totals.push(t);
        }
        n *= 2;
    }
    totals
}

// ------------------------------------------------------- parallel bench

/// One sequential-vs-parallel comparison (a `BENCH_parallel.json` row).
#[derive(Debug, Clone)]
pub struct ParallelBenchRow {
    /// Workload name.
    pub name: String,
    /// Number of queries timed.
    pub queries: usize,
    /// Total matches found (identical for both runs by construction).
    pub hits: usize,
    /// Wall-clock for the whole query batch with `threads = 1`, µs.
    pub seq_us: f64,
    /// Wall-clock with the requested thread count, µs.
    pub par_us: f64,
    /// `seq_us / par_us`.
    pub speedup: f64,
}

fn bench_one(name: &str, w: &Workload, queries: &[Graph], threads: usize) -> ParallelBenchRow {
    let time = |opts: &gql_match::MatchOptions| {
        let t = std::time::Instant::now();
        let mut hits = 0usize;
        let mut mappings = Vec::new();
        for q in queries {
            let rep = w.run(q, opts);
            hits += rep.mappings.len();
            mappings.push(rep.mappings);
        }
        (t.elapsed().as_secs_f64() * 1e6, hits, mappings)
    };
    let seq_opts = Configs::optimized();
    let mut par_opts = Configs::optimized();
    par_opts.threads = threads;
    // Untimed warm-up so the first measured batch doesn't pay the
    // cold-cache cost the second one skips.
    let _ = time(&seq_opts);
    let (seq_us, seq_hits, seq_maps) = time(&seq_opts);
    let (par_us, par_hits, par_maps) = time(&par_opts);
    assert_eq!(
        seq_maps, par_maps,
        "parallel run diverged from sequential on {name}"
    );
    let _ = par_hits;
    ParallelBenchRow {
        name: name.to_string(),
        queries: queries.len(),
        hits: seq_hits,
        seq_us,
        par_us,
        speedup: seq_us / par_us,
    }
}

/// Sequential vs `threads`-worker selection on one clique workload (PPI
/// graph) and one §5 synthetic workload (10K-node Erdős–Rényi, query
/// size 8). Asserts that both runs return identical mappings.
pub fn bench_parallel(scale: Scale, threads: usize) -> Vec<ParallelBenchRow> {
    let threads = gql_core::resolve_threads(threads);
    let nq = match scale {
        Scale::Quick => 8,
        Scale::Full => 40,
    };
    let mut rows = Vec::new();
    let ppi = Workload::ppi();
    rows.push(bench_one(
        "ppi_clique_5",
        &ppi,
        &ppi.cliques(5, nq, 0xBE11C),
        threads,
    ));
    let syn = Workload::synthetic(10_000, 0x5eed);
    rows.push(bench_one(
        "synthetic10k_subgraph_8",
        &syn,
        &syn.subgraphs(8, nq, 0xBE5E8),
        threads,
    ));
    rows
}

/// Renders [`bench_parallel`] rows as the machine-readable
/// `BENCH_parallel.json` document.
pub fn parallel_bench_json(scale: Scale, threads: usize, rows: &[ParallelBenchRow]) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"machine_cores\": {cores},\n"));
    s.push_str(&format!(
        "  \"threads\": {},\n",
        gql_core::resolve_threads(threads)
    ));
    s.push_str(&format!(
        "  \"scale\": \"{}\",\n",
        if scale == Scale::Full {
            "full"
        } else {
            "quick"
        }
    ));
    s.push_str("  \"workloads\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"queries\": {}, \"hits\": {}, \"seq_us\": {:.1}, \"par_us\": {:.1}, \"speedup\": {:.3}}}{}\n",
            r.name,
            r.queries,
            r.hits,
            r.seq_us,
            r.par_us,
            r.speedup,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

// -------------------------------------------------------- profile bench

/// Result of the observability benchmark (a `BENCH_profile.json`
/// document): batch wall-clock with the obs sink disabled vs enabled,
/// plus the full profile report collected by the enabled run.
#[derive(Debug, Clone)]
pub struct ProfileBenchResult {
    /// Queries timed per batch.
    pub queries: usize,
    /// Batch wall-clock with `MatchOptions.obs = None`, µs.
    pub obs_off_us: f64,
    /// Batch wall-clock with an attached [`gql_core::Obs`] sink, µs.
    pub obs_on_us: f64,
    /// `obs_on_us / obs_off_us - 1` (fraction; negative = noise).
    pub overhead: f64,
    /// The report the enabled run produced.
    pub report: gql_core::ObsReport,
}

/// Runs the optimized pipeline over a PPI clique batch twice — obs sink
/// disabled then enabled — and captures the profile. Asserts both runs
/// return identical mappings (the sink must never change results).
pub fn bench_profile(scale: Scale, threads: usize) -> ProfileBenchResult {
    let threads = gql_core::resolve_threads(threads);
    let nq = match scale {
        Scale::Quick => 8,
        Scale::Full => 40,
    };
    let w = Workload::ppi();
    let queries = w.cliques(5, nq, 0x0B5E);
    let time = |opts: &gql_match::MatchOptions| {
        let t = std::time::Instant::now();
        let mut mappings = Vec::new();
        for q in &queries {
            mappings.push(w.run(q, opts).mappings);
        }
        (t.elapsed().as_secs_f64() * 1e6, mappings)
    };
    let mut off = Configs::optimized();
    off.threads = threads;
    let mut on = off.clone();
    let obs = gql_core::Obs::new();
    on.obs = Some(obs.clone());

    // Untimed warm-up, then timed batches.
    let _ = time(&off);
    let (obs_off_us, maps_off) = time(&off);
    let (obs_on_us, maps_on) = time(&on);
    assert_eq!(maps_off, maps_on, "obs sink changed the match results");

    ProfileBenchResult {
        queries: queries.len(),
        obs_off_us,
        obs_on_us,
        overhead: obs_on_us / obs_off_us - 1.0,
        report: obs.report(),
    }
}

/// Renders [`bench_profile`] as the machine-readable
/// `BENCH_profile.json` document (timing envelope + embedded report).
pub fn profile_bench_json(scale: Scale, threads: usize, r: &ProfileBenchResult) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"machine_cores\": {cores},\n"));
    s.push_str(&format!(
        "  \"threads\": {},\n",
        gql_core::resolve_threads(threads)
    ));
    s.push_str(&format!(
        "  \"scale\": \"{}\",\n",
        if scale == Scale::Full {
            "full"
        } else {
            "quick"
        }
    ));
    s.push_str(&format!("  \"queries\": {},\n", r.queries));
    s.push_str(&format!("  \"obs_off_us\": {:.1},\n", r.obs_off_us));
    s.push_str(&format!("  \"obs_on_us\": {:.1},\n", r.obs_on_us));
    s.push_str(&format!("  \"overhead\": {:.4},\n", r.overhead));
    // Embed the report verbatim; it is already a JSON object.
    let report = r.report.render_json();
    s.push_str("  \"profile\": ");
    for (i, line) in report.lines().enumerate() {
        if i > 0 {
            s.push_str("  ");
        }
        s.push_str(line);
        s.push('\n');
    }
    s.pop();
    s.push_str("\n}\n");
    s
}

/// Prints a profile-bench summary (timings + the text report).
pub fn print_profile_result(title: &str, r: &ProfileBenchResult) {
    println!("\n{title}");
    println!(
        "{:>8} {:>16} {:>16} {:>10}",
        "queries", "obs off (µs)", "obs on (µs)", "overhead"
    );
    println!(
        "{:>8} {:>16.1} {:>16.1} {:>9.1}%",
        r.queries,
        r.obs_off_us,
        r.obs_on_us,
        r.overhead * 100.0
    );
    println!("\n{}", r.report.render_text());
}

/// Prints a parallel-bench table.
pub fn print_parallel_rows(title: &str, rows: &[ParallelBenchRow]) {
    println!("\n{title}");
    println!(
        "{:>26} {:>8} {:>6} {:>14} {:>14} {:>8}",
        "workload", "queries", "hits", "seq (µs)", "par (µs)", "speedup"
    );
    for r in rows {
        println!(
            "{:>26} {:>8} {:>6} {:>14.1} {:>14.1} {:>7.2}x",
            r.name, r.queries, r.hits, r.seq_us, r.par_us, r.speedup
        );
    }
}

/// Prints a per-step table (Figures 4.21a / 4.22b).
pub fn print_step_rows(title: &str, rows: &[StepRow]) {
    println!("\n{title}  (mean microseconds per query)");
    println!(
        "{:>6} {:>8} {:>14} {:>14} {:>12} {:>14} {:>16}",
        "size",
        "queries",
        "ret-profiles",
        "ret-subgraphs",
        "refine",
        "search(opt)",
        "search(no-opt)"
    );
    for r in rows {
        println!(
            "{:>6} {:>8} {:>14.1} {:>14.1} {:>12.1} {:>14.1} {:>16.1}",
            r.size,
            r.queries,
            r.retrieve_profiles_us,
            r.retrieve_subgraphs_us,
            r.refine_us,
            r.search_opt_us,
            r.search_noopt_us
        );
    }
}

/// Prints a total-time table (Figures 4.21b / 4.23).
pub fn print_total_rows(title: &str, xlabel: &str, rows: &[TotalRow]) {
    println!("\n{title}  (mean microseconds per query)");
    println!(
        "{:>8} {:>8} {:>14} {:>14} {:>16} {:>10}",
        xlabel, "queries", "Optimized", "Baseline", "SQL-based", "SQL-t/o"
    );
    for r in rows {
        println!(
            "{:>8} {:>8} {:>14.1} {:>14.1} {:>16.1} {:>9.0}%",
            r.x,
            r.queries,
            r.optimized_us,
            r.baseline_us,
            r.sql_us,
            r.sql_timeout_frac * 100.0
        );
    }
}

const _: () = assert!(LOW_HITS < MAX_HITS);

// -------------------------------------------------------- trace bench

/// One tracing-overhead comparison (a `BENCH_obs_overhead.json` row):
/// batch wall-clock of the full optimized pipeline with the trace sink
/// absent and attached. The disabled path is sampled twice
/// (`off_us`/`off2_us`) so the spread between two identical
/// configurations bounds measurement noise; `disabled_overhead` is that
/// spread and must stay small for `enabled_overhead` to mean anything.
#[derive(Debug, Clone)]
pub struct TraceBenchRow {
    /// Workload name.
    pub name: String,
    /// Queries timed per pass.
    pub queries: usize,
    /// Total matches across the batch (identical for both paths by
    /// construction).
    pub hits: usize,
    /// Batch wall-clock with `MatchOptions.trace = None`, µs.
    pub off_us: f64,
    /// Second disabled sample under the same conditions, µs.
    pub off2_us: f64,
    /// Batch wall-clock with a [`gql_core::TraceSink`] attached, µs.
    pub on_us: f64,
    /// `off2_us / off_us - 1`: noise bound on the disabled path.
    pub disabled_overhead: f64,
    /// `on_us / off_us - 1`: cost of recording the timeline.
    pub enabled_overhead: f64,
    /// Trace events one enabled pass over the batch records.
    pub events: usize,
}

fn bench_trace_one(name: &str, w: &Workload, queries: &[Graph], threads: usize) -> TraceBenchRow {
    // One timed sample = 3 passes over the batch (µs reported per
    // pass), interleaved min-of-9 per path — same noise discipline as
    // the CSR bench.
    const PASSES: u32 = 3;
    let mut off = Configs::optimized();
    off.threads = threads;
    let time = |opts: &gql_match::MatchOptions| {
        let t = std::time::Instant::now();
        let mut hits = 0usize;
        let mut mappings = Vec::new();
        for _ in 0..PASSES {
            mappings.clear();
            hits = 0;
            for q in queries {
                let rep = w.run(q, opts);
                hits += rep.mappings.len();
                mappings.push(rep.mappings);
            }
        }
        (
            t.elapsed().as_secs_f64() * 1e6 / f64::from(PASSES),
            hits,
            mappings,
        )
    };
    // Each enabled sample gets a fresh sink so buffer growth across
    // samples never leaks into later timings.
    let time_on = || {
        let sink = gql_core::TraceSink::new();
        let mut on = off.clone();
        on.trace = Some(sink.clone());
        let (us, hits, mappings) = time(&on);
        (us, hits, mappings, sink.len() / PASSES as usize)
    };

    // Untimed warm-up, then interleaved timed samples.
    let _ = time(&off);
    let _ = time_on();
    let (mut off_us, hits, maps_off) = time(&off);
    let (mut on_us, _, maps_on, events) = time_on();
    let (mut off2_us, _, _) = time(&off);
    for _ in 0..8 {
        off_us = off_us.min(time(&off).0);
        on_us = on_us.min(time_on().0);
        off2_us = off2_us.min(time(&off).0);
    }
    assert_eq!(maps_off, maps_on, "tracing changed match results on {name}");

    TraceBenchRow {
        name: name.to_string(),
        queries: queries.len(),
        hits,
        off_us,
        off2_us,
        on_us,
        disabled_overhead: off2_us / off_us - 1.0,
        enabled_overhead: on_us / off_us - 1.0,
        events,
    }
}

/// Trace sink absent vs attached for the full optimized pipeline on one
/// PPI clique workload and one synthetic subgraph workload. Asserts the
/// mappings are identical before reporting the timing delta.
pub fn bench_trace(scale: Scale, threads: usize) -> Vec<TraceBenchRow> {
    let threads = gql_core::resolve_threads(threads);
    let nq = match scale {
        Scale::Quick => 8,
        Scale::Full => 40,
    };
    let mut rows = Vec::new();
    let ppi = Workload::ppi();
    rows.push(bench_trace_one(
        "ppi_clique_5",
        &ppi,
        &ppi.cliques(5, nq, 0x7ACE1),
        threads,
    ));
    let syn = Workload::synthetic(10_000, 0x5eed);
    rows.push(bench_trace_one(
        "synthetic10k_subgraph_8",
        &syn,
        &syn.subgraphs(8, nq, 0x7ACE2),
        threads,
    ));
    rows
}

/// Renders [`bench_trace`] rows as the machine-readable
/// `BENCH_obs_overhead.json` document.
pub fn trace_bench_json(scale: Scale, threads: usize, rows: &[TraceBenchRow]) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"machine_cores\": {cores},\n"));
    s.push_str(&format!(
        "  \"threads\": {},\n",
        gql_core::resolve_threads(threads)
    ));
    s.push_str(&format!(
        "  \"scale\": \"{}\",\n",
        if scale == Scale::Full {
            "full"
        } else {
            "quick"
        }
    ));
    s.push_str("  \"workloads\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"queries\": {}, \"hits\": {}, \"off_us\": {:.1}, \"off2_us\": {:.1}, \"on_us\": {:.1}, \"disabled_overhead\": {:.4}, \"enabled_overhead\": {:.4}, \"events\": {}}}{}\n",
            r.name,
            r.queries,
            r.hits,
            r.off_us,
            r.off2_us,
            r.on_us,
            r.disabled_overhead,
            r.enabled_overhead,
            r.events,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Prints a trace-bench table.
pub fn print_trace_rows(title: &str, rows: &[TraceBenchRow]) {
    println!("\n{title}");
    println!(
        "{:>26} {:>8} {:>6} {:>12} {:>12} {:>12} {:>9} {:>9} {:>8}",
        "workload",
        "queries",
        "hits",
        "off (µs)",
        "off2 (µs)",
        "on (µs)",
        "off Δ",
        "on Δ",
        "events"
    );
    for r in rows {
        println!(
            "{:>26} {:>8} {:>6} {:>12.1} {:>12.1} {:>12.1} {:>8.1}% {:>8.1}% {:>8}",
            r.name,
            r.queries,
            r.hits,
            r.off_us,
            r.off2_us,
            r.on_us,
            r.disabled_overhead * 100.0,
            r.enabled_overhead * 100.0,
            r.events
        );
    }
}

// ------------------------------------------------------ planner bench

/// One plan-cache comparison (a `BENCH_planner.json` row): batch
/// wall-clock of the full optimized pipeline over a repeated-query
/// workload with (a) a cold planner that compiles every plan from
/// scratch, (b) a hot shared plan cache serving validated hits, and
/// (c) the hot cache plus adaptivity and the feedback-driven `Auto`
/// refinement decision.
#[derive(Debug, Clone)]
pub struct PlannerBenchRow {
    /// Workload name.
    pub name: String,
    /// Queries timed per pass.
    pub queries: usize,
    /// Total answers across the batch (identical for all paths by
    /// construction).
    pub hits: usize,
    /// Batch wall-clock with a fresh planner per pass (every query is
    /// a cache miss: compile + insert), µs.
    pub cold_us: f64,
    /// Batch wall-clock over a pre-warmed shared plan cache, µs.
    pub hot_us: f64,
    /// Batch wall-clock over a pre-warmed cache with
    /// `RefineLevel::Auto` consulting recorded feedback, µs.
    pub adaptive_us: f64,
    /// `cold_us / hot_us` — what the cache saves on repeated queries.
    pub hot_speedup: f64,
    /// `hot_us / adaptive_us` — what the feedback-driven refinement
    /// decision adds on top of the hot cache (≥ 1.0 means the
    /// cost-based decision is no slower than always refining).
    pub adaptive_speedup: f64,
    /// Validated cache hits served during the hot timing runs.
    pub cache_hits: u64,
    /// Queries whose settled `Auto` decision skipped refinement.
    pub refine_skipped: usize,
}

fn bench_planner_one(
    name: &str,
    graph: &Graph,
    candidates: &[Graph],
    take: usize,
    threads: usize,
) -> PlannerBenchRow {
    use gql_match::{match_pattern, GraphIndex, MatchOptions, Pattern, Planner, RefineLevel};
    use std::sync::Arc;
    let index = GraphIndex::build_with_profiles_par(graph, 1, threads);

    // The plan cache targets the per-query planning overhead (edge-plan
    // construction, join-order optimization, cardinality estimation),
    // so — like the CSR bench — time the search-heavy queries of the
    // candidate pool where a planning mistake would also show up.
    let mut pool: Vec<(u64, &Graph)> = candidates
        .iter()
        .map(|q| {
            let mut opts = Configs::optimized();
            opts.max_matches = MAX_HITS + 1;
            opts.time_limit = Some(Duration::from_secs(10));
            let rep = match_pattern(&Pattern::structural(q.clone()), graph, &index, &opts);
            (rep.search_steps, q)
        })
        .collect();
    pool.sort_by_key(|&(steps, _)| std::cmp::Reverse(steps));
    let patterns: Vec<Pattern> = pool
        .iter()
        .take(take)
        .map(|&(_, q)| Pattern::structural(q.clone()))
        .collect();
    let mut base = Configs::optimized();
    base.threads = threads;
    base.max_matches = MAX_HITS + 1;
    base.time_limit = Some(Duration::from_secs(10));
    base.report_baseline_space = false;

    let hot_planner = Arc::new(Planner::new());
    let hot_opts = MatchOptions {
        planner: Some(Arc::clone(&hot_planner)),
        ..base.clone()
    };
    let auto_planner = Arc::new(Planner::new());
    let auto_opts = MatchOptions {
        planner: Some(Arc::clone(&auto_planner)),
        refine: RefineLevel::Auto,
        ..base.clone()
    };

    // One timed sample = 3 passes over the batch — the repeated-query
    // workload the cache exists for (µs reported per pass). `mk_opts`
    // runs per pass so the cold path can attach a fresh planner each
    // time, making every query a miss.
    const PASSES: u32 = 3;
    let time = |mk_opts: &dyn Fn() -> MatchOptions| {
        let t = std::time::Instant::now();
        let mut mappings = Vec::new();
        for _ in 0..PASSES {
            mappings.clear();
            let opts = mk_opts();
            for p in &patterns {
                let rep = match_pattern(p, graph, &index, &opts);
                mappings.push(rep.mappings);
            }
        }
        (
            t.elapsed().as_secs_f64() * 1e6 / f64::from(PASSES),
            mappings,
        )
    };
    let cold_opts = || MatchOptions {
        planner: Some(Arc::new(Planner::new())),
        ..base.clone()
    };
    let hot = || hot_opts.clone();
    let auto = || auto_opts.clone();

    // Untimed warm-up: fills the hot caches (twice for the Auto path so
    // its feedback-driven refinement decision settles before timing).
    let _ = time(&cold_opts);
    let _ = time(&hot);
    let _ = time(&auto);
    let hits_before = hot_planner.cache_stats().0;

    // Interleaved min-of-9 per path, as in the CSR bench: alternating
    // samples see the same load conditions, and the min is robust
    // against scheduler noise on a shared container.
    let (mut cold_us, maps_cold) = time(&cold_opts);
    let (mut hot_us, maps_hot) = time(&hot);
    let (mut adaptive_us, maps_auto) = time(&auto);
    for _ in 0..8 {
        cold_us = cold_us.min(time(&cold_opts).0);
        hot_us = hot_us.min(time(&hot).0);
        adaptive_us = adaptive_us.min(time(&auto).0);
    }
    let cache_hits = hot_planner.cache_stats().0 - hits_before;

    // Plans must never change answers: hot ≡ cold byte-for-byte; the
    // Auto path may legally enumerate in a different order when it
    // skips refinement, so compare it as a set.
    assert_eq!(
        maps_hot, maps_cold,
        "hot plan cache changed results on {name}"
    );
    let sorted = |maps: &[Vec<Vec<gql_core::NodeId>>]| -> Vec<Vec<Vec<gql_core::NodeId>>> {
        maps.iter()
            .map(|m| {
                let mut m = m.clone();
                m.sort();
                m
            })
            .collect()
    };
    assert_eq!(
        sorted(&maps_auto),
        sorted(&maps_cold),
        "adaptive planning changed the result set on {name}"
    );

    // Count queries whose settled Auto decision skips refinement
    // (untimed bookkeeping pass).
    let refine_skipped = patterns
        .iter()
        .filter(|p| {
            match_pattern(p, graph, &index, &auto_opts)
                .plan
                .is_some_and(|pl| pl.refine_skipped)
        })
        .count();

    PlannerBenchRow {
        name: name.to_string(),
        queries: patterns.len(),
        hits: maps_cold.iter().map(Vec::len).sum(),
        cold_us,
        hot_us,
        adaptive_us,
        hot_speedup: cold_us / hot_us,
        adaptive_speedup: hot_us / adaptive_us,
        cache_hits,
        refine_skipped,
    }
}

/// Cold-plan vs hot-cache vs adaptive planning for the full optimized
/// pipeline on PPI clique workloads and one synthetic subgraph
/// workload. `ppi_clique_4` doubles as the refine-decision check: its
/// `adaptive_speedup` compares the feedback-driven `Auto` refinement
/// decision against refinement forced on. Asserts result identity
/// across paths before reporting timing deltas.
pub fn bench_planner(scale: Scale, threads: usize) -> Vec<PlannerBenchRow> {
    let threads = gql_core::resolve_threads(threads);
    let nq = match scale {
        Scale::Quick => 8,
        Scale::Full => 40,
    };
    let mut rows = Vec::new();
    let ppi = gql_datagen::ppi_network(&gql_datagen::PpiConfig::default());
    rows.push(bench_planner_one(
        "ppi_clique_4",
        &ppi,
        &gql_datagen::clique_queries(&ppi, 4, nq * 10, 0x4EF1),
        nq,
        threads,
    ));
    rows.push(bench_planner_one(
        "ppi_clique_5",
        &ppi,
        &gql_datagen::clique_queries(&ppi, 5, nq * 10, 0x4EF3),
        nq,
        threads,
    ));
    let syn = gql_datagen::erdos_renyi(&gql_datagen::ErConfig::paper_default(10_000, 0x5eed));
    rows.push(bench_planner_one(
        "synthetic10k_subgraph_8",
        &syn,
        &gql_datagen::subgraph_queries(&syn, 8, nq * 10, 0x4EF2),
        nq,
        threads,
    ));
    rows
}

/// Renders [`bench_planner`] rows as the machine-readable
/// `BENCH_planner.json` document.
pub fn planner_bench_json(scale: Scale, threads: usize, rows: &[PlannerBenchRow]) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"machine_cores\": {cores},\n"));
    s.push_str(&format!(
        "  \"threads\": {},\n",
        gql_core::resolve_threads(threads)
    ));
    s.push_str(&format!(
        "  \"scale\": \"{}\",\n",
        if scale == Scale::Full {
            "full"
        } else {
            "quick"
        }
    ));
    s.push_str("  \"workloads\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"queries\": {}, \"hits\": {}, \"cold_us\": {:.1}, \"hot_us\": {:.1}, \"adaptive_us\": {:.1}, \"hot_speedup\": {:.3}, \"adaptive_speedup\": {:.3}, \"cache_hits\": {}, \"refine_skipped\": {}}}{}\n",
            r.name,
            r.queries,
            r.hits,
            r.cold_us,
            r.hot_us,
            r.adaptive_us,
            r.hot_speedup,
            r.adaptive_speedup,
            r.cache_hits,
            r.refine_skipped,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Prints a planner-bench table.
pub fn print_planner_rows(title: &str, rows: &[PlannerBenchRow]) {
    println!("\n{title}");
    println!(
        "{:>26} {:>8} {:>6} {:>12} {:>12} {:>12} {:>8} {:>8} {:>6} {:>5}",
        "workload",
        "queries",
        "hits",
        "cold (µs)",
        "hot (µs)",
        "auto (µs)",
        "hot Δ",
        "auto Δ",
        "c-hit",
        "skip"
    );
    for r in rows {
        println!(
            "{:>26} {:>8} {:>6} {:>12.1} {:>12.1} {:>12.1} {:>7.2}x {:>7.2}x {:>6} {:>5}",
            r.name,
            r.queries,
            r.hits,
            r.cold_us,
            r.hot_us,
            r.adaptive_us,
            r.hot_speedup,
            r.adaptive_speedup,
            r.cache_hits,
            r.refine_skipped
        );
    }
}

// ---------------------------------------------------- propindex bench

/// One property-index comparison (a `BENCH_propindex.json` row): batch
/// wall-clock of the optimized pipeline over a predicate workload with
/// retrieval (a) scanning label buckets (`IndexOptions::prop_index: false`) and
/// (b) probing the sorted secondary property index, plus the
/// access-path decision EXPLAIN reports for the predicate node.
#[derive(Debug, Clone)]
pub struct PropIndexBenchRow {
    /// Workload name.
    pub name: String,
    /// Queries timed per pass.
    pub queries: usize,
    /// Total answers across the batch (identical for both paths by
    /// construction).
    pub hits: usize,
    /// Batch wall-clock with predicate scans over label buckets, µs.
    pub scan_us: f64,
    /// Batch wall-clock with index-probe retrieval, µs.
    pub probe_us: f64,
    /// `scan_us / probe_us`.
    pub speedup: f64,
    /// Access path EXPLAIN reports for the predicate node
    /// (`index_probe`, `probe_residual`, or `bucket_scan`).
    pub access_path: String,
    /// Label-bucket size EXPLAIN reports for that node.
    pub bucket: u64,
    /// Ids the index probe produced for that node (actual).
    pub probed: u64,
    /// The planner statistics' estimate for that node's candidates.
    pub est_candidates: u64,
}

/// The 10k+-node attribute-decorated data graph: the paper's synthetic
/// G(n, 5n) with 100 Zipf labels, plus a `year` in `0..1000` and an
/// alternating Int/Float `score` on every node so equality and range
/// predicates have realistic selectivities.
fn propindex_data(nodes: usize, seed: u64) -> Graph {
    let mut g = gql_datagen::erdos_renyi(&gql_datagen::ErConfig::paper_default(nodes, seed));
    for i in 0..g.node_count() {
        let id = gql_core::NodeId(i as u32);
        let attrs = &mut g.node_mut(id).attrs;
        attrs.set("year", (i % 1000) as i64);
        if i % 2 == 0 {
            attrs.set("score", (i % 100) as i64);
        } else {
            attrs.set("score", (i % 100) as f64 + 0.5);
        }
    }
    g
}

fn bench_propindex_one(
    name: &str,
    graph: &Graph,
    patterns: &[gql_match::Pattern],
    threads: usize,
) -> PropIndexBenchRow {
    use gql_match::{match_pattern, GraphIndex, IndexOptions, MatchOptions};
    let build = |prop_index| {
        GraphIndex::build_with(
            graph,
            &IndexOptions {
                radius: 1,
                profiles: true,
                subgraphs: false,
                threads,
                prop_index,
            },
        )
    };
    // Both indexes are built once, untimed: the comparison targets the
    // per-query retrieval cost, not the one-off build.
    let probe_index = build(true);
    let scan_index = build(false);
    let mut base = Configs::optimized();
    base.threads = threads;
    base.max_matches = MAX_HITS + 1;
    base.time_limit = Some(Duration::from_secs(10));
    base.report_baseline_space = false;

    const PASSES: u32 = 3;
    let time = |index: &GraphIndex| {
        let t = std::time::Instant::now();
        let mut mappings = Vec::new();
        for _ in 0..PASSES {
            mappings.clear();
            for p in patterns {
                mappings.push(match_pattern(p, graph, index, &base).mappings);
            }
        }
        (
            t.elapsed().as_secs_f64() * 1e6 / f64::from(PASSES),
            mappings,
        )
    };
    // Untimed warm-up, then interleaved min-of-9 per path: alternating
    // samples see the same load conditions and the min is robust
    // against scheduler noise on a shared container.
    let _ = time(&scan_index);
    let _ = time(&probe_index);
    let (mut scan_us, maps_scan) = time(&scan_index);
    let (mut probe_us, maps_probe) = time(&probe_index);
    for _ in 0..8 {
        scan_us = scan_us.min(time(&scan_index).0);
        probe_us = probe_us.min(time(&probe_index).0);
    }
    assert_eq!(
        maps_probe, maps_scan,
        "index probes changed results on {name}"
    );

    // EXPLAIN the first query on the indexed path and surface the
    // access-path decision for the predicate node (node[0] of the
    // motif, by construction of the workloads).
    let explain_opts = MatchOptions {
        explain: true,
        ..base.clone()
    };
    let tree = match_pattern(&patterns[0], graph, &probe_index, &explain_opts)
        .explain
        .expect("explain requested");
    let retrieve = tree
        .children
        .iter()
        .find(|c| c.label == "retrieve")
        .expect("retrieve node");
    let node0 = retrieve
        .children
        .iter()
        .find(|c| c.label == "node[0]")
        .expect("per-node child");
    let prop_u64 = |n: &gql_core::ExplainNode, key: &str| {
        n.props.iter().find_map(|(k, v)| match v {
            gql_core::ArgValue::UInt(u) if k == key => Some(*u),
            _ => None,
        })
    };
    let access_path = node0
        .props
        .iter()
        .find_map(|(k, v)| match v {
            gql_core::ArgValue::Str(s) if k == "path" => Some(s.clone()),
            _ => None,
        })
        .expect("path prop");

    PropIndexBenchRow {
        name: name.to_string(),
        queries: patterns.len(),
        hits: maps_scan.iter().map(Vec::len).sum(),
        scan_us,
        probe_us,
        speedup: scan_us / probe_us,
        access_path,
        bucket: prop_u64(node0, "bucket").unwrap_or(0),
        probed: prop_u64(node0, "probed").unwrap_or(0),
        est_candidates: prop_u64(node0, "est_candidates").unwrap_or(0),
    }
}

/// Index-probe vs bucket-scan retrieval on a 12k-node synthetic graph:
/// selective equality, narrow range, probe-plus-residual, and an
/// unpredicated control (both paths take the bucket fast path, so its
/// speedup should hover around 1x). Asserts result identity before
/// reporting timing deltas.
pub fn bench_propindex(scale: Scale, threads: usize) -> Vec<PropIndexBenchRow> {
    use gql_core::Value;
    use gql_match::{BinOp, Expr, Pattern};
    let threads = gql_core::resolve_threads(threads);
    let nodes = match scale {
        Scale::Quick => 12_000,
        Scale::Full => 50_000,
    };
    let nq = match scale {
        Scale::Quick => 12,
        Scale::Full => 40,
    };
    let g = propindex_data(nodes, 0x9e3779b97f4a7c15);
    // L00 is the most frequent Zipf label: the biggest bucket, where
    // scanning hurts most and probing pays most.
    let motif = |preds: Vec<Expr>| {
        let mut m = Graph::new();
        let a = m.add_node(gql_core::Tuple::new().with("label", "L00"));
        let b = m.add_node(gql_core::Tuple::new().with("label", "L01"));
        m.add_edge(a, b, gql_core::Tuple::new()).unwrap();
        Pattern::new(m, preds)
    };
    let year = |u: usize| Expr::node_attr(u, "year");
    let lit = |v: i64| Expr::Literal(Value::Int(v));
    let eq_queries: Vec<Pattern> = (0..nq)
        .map(|i| motif(vec![Expr::node_attr_eq(0, "year", (i * 83 % 1000) as i64)]))
        .collect();
    let range_queries: Vec<Pattern> = (0..nq)
        .map(|i| {
            let lo = (i * 83 % 990) as i64;
            motif(vec![
                Expr::binary(BinOp::Ge, year(0), lit(lo)),
                Expr::binary(BinOp::Lt, year(0), lit(lo + 10)),
            ])
        })
        .collect();
    let residual_queries: Vec<Pattern> = (0..nq)
        .map(|i| {
            let lo = (i * 83 % 950) as i64;
            motif(vec![
                Expr::binary(BinOp::Ge, year(0), lit(lo)),
                Expr::binary(BinOp::Lt, year(0), lit(lo + 50)),
                Expr::binary(BinOp::Ne, Expr::node_attr(0, "score"), lit(7)),
            ])
        })
        .collect();
    let control_queries: Vec<Pattern> = (0..nq).map(|_| motif(vec![])).collect();
    vec![
        bench_propindex_one("eq_selective", &g, &eq_queries, threads),
        bench_propindex_one("range_narrow", &g, &range_queries, threads),
        bench_propindex_one("range_residual", &g, &residual_queries, threads),
        bench_propindex_one("no_predicate_control", &g, &control_queries, threads),
    ]
}

/// Renders [`bench_propindex`] rows as the machine-readable
/// `BENCH_propindex.json` document.
pub fn propindex_bench_json(scale: Scale, threads: usize, rows: &[PropIndexBenchRow]) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"machine_cores\": {cores},\n"));
    s.push_str(&format!(
        "  \"threads\": {},\n",
        gql_core::resolve_threads(threads)
    ));
    s.push_str(&format!(
        "  \"scale\": \"{}\",\n",
        if scale == Scale::Full {
            "full"
        } else {
            "quick"
        }
    ));
    s.push_str("  \"workloads\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"queries\": {}, \"hits\": {}, \"scan_us\": {:.1}, \"probe_us\": {:.1}, \"speedup\": {:.3}, \"access_path\": \"{}\", \"bucket\": {}, \"probed\": {}, \"est_candidates\": {}}}{}\n",
            r.name,
            r.queries,
            r.hits,
            r.scan_us,
            r.probe_us,
            r.speedup,
            r.access_path,
            r.bucket,
            r.probed,
            r.est_candidates,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Prints a propindex-bench table.
pub fn print_propindex_rows(title: &str, rows: &[PropIndexBenchRow]) {
    println!("\n{title}");
    println!(
        "{:>22} {:>8} {:>6} {:>12} {:>12} {:>8} {:>15} {:>8} {:>8} {:>6}",
        "workload",
        "queries",
        "hits",
        "scan (µs)",
        "probe (µs)",
        "Δ",
        "path",
        "bucket",
        "probed",
        "est"
    );
    for r in rows {
        println!(
            "{:>22} {:>8} {:>6} {:>12.1} {:>12.1} {:>7.2}x {:>15} {:>8} {:>8} {:>6}",
            r.name,
            r.queries,
            r.hits,
            r.scan_us,
            r.probe_us,
            r.speedup,
            r.access_path,
            r.bucket,
            r.probed,
            r.est_candidates
        );
    }
}

// ---------------------------------------------------- storage bench

/// One cold-start comparison (a `BENCH_storage.json` row): wall-clock
/// of bringing the 12k-node graph to its first query answer starting
/// from (a) on-disk persistence artifacts — a checkpoint segment or a
/// WAL — and (b) nothing, rebuilding the in-memory database and its
/// indexes from scratch. Results are asserted identical before any
/// timing is reported.
#[derive(Debug, Clone)]
pub struct StorageBenchRow {
    /// Workload name (`cold_open_checkpoint`, `cold_open_wal_replay`).
    pub name: String,
    /// Graph nodes.
    pub nodes: usize,
    /// Graph edges.
    pub edges: usize,
    /// Open-from-disk + first query batch, µs (min over passes).
    pub cold_us: f64,
    /// From-scratch rebuild — parse the `.gql` source text, register
    /// the graph, build indexes — + same query batch, µs (min over
    /// passes).
    pub rebuild_us: f64,
    /// `rebuild_us / cold_us` — above 1 means the disk path is faster.
    pub speedup: f64,
    /// On-disk footprint driving the cold path (segment or WAL bytes).
    pub bytes: u64,
    /// Graphs returned by the query (identical on both paths).
    pub hits: usize,
    /// `index.builds` observed on the cold path: 0 when the checkpoint
    /// segment's index arrays were adopted, 1 when replay had to build.
    pub index_builds: u64,
}

/// The query timed on both paths: an exhaustive two-label edge motif
/// over the persisted collection, exercising retrieval, the index, and
/// search.
const STORAGE_BENCH_QUERY: &str = r#"
    for graph Q {
        node a <label="L00">;
        node b <label="L01">;
        edge e (a, b);
    } exhaustive in doc("G")
    return graph { node n <who=Q.a.label>; };
"#;

fn storage_run_query(db: &mut gql_engine::Database) -> Vec<String> {
    let out = db
        .execute(STORAGE_BENCH_QUERY)
        .expect("storage bench query");
    out.returned
        .iter()
        .flat_map(|c| c.iter().map(|g| g.to_string()))
        .collect()
}

fn dir_bytes(dir: &std::path::Path, suffix: &str) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .filter(|e| e.file_name().to_string_lossy().ends_with(suffix))
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn bench_storage_one(
    name: &str,
    dir: &std::path::Path,
    g: &Graph,
    threads: usize,
    bytes: u64,
) -> StorageBenchRow {
    use gql_engine::Database;
    const PASSES: usize = 5;
    let cold_pass = || {
        let t = std::time::Instant::now();
        let mut db = Database::open(dir).expect("open").with_threads(threads);
        let obs = db.enable_profiling();
        let results = storage_run_query(&mut db);
        (
            t.elapsed().as_secs_f64() * 1e6,
            results,
            obs.report().counter("index.builds").unwrap_or(0),
        )
    };
    // The from-scratch path starts where a real cold start starts: the
    // `.gql` source text, which must be parsed before anything can be
    // registered or indexed.
    let text = format!("{g};");
    let rebuild_pass = || {
        let t = std::time::Instant::now();
        let mut db = Database::new().with_threads(threads);
        let parsed = gql_engine::graph_from_text(&text).expect("re-parse source text");
        db.add_graph("G", parsed);
        let results = storage_run_query(&mut db);
        (t.elapsed().as_secs_f64() * 1e6, results)
    };
    // Warm-up (page cache, lazy statics), then interleaved min-of-N.
    let (_, cold_results, index_builds) = cold_pass();
    let (_, rebuild_results) = rebuild_pass();
    assert_eq!(
        cold_results, rebuild_results,
        "{name}: disk path changed results"
    );
    let mut cold_us = f64::INFINITY;
    let mut rebuild_us = f64::INFINITY;
    for _ in 0..PASSES {
        cold_us = cold_us.min(cold_pass().0);
        rebuild_us = rebuild_us.min(rebuild_pass().0);
    }
    StorageBenchRow {
        name: name.to_string(),
        nodes: g.node_count(),
        edges: g.edge_count(),
        cold_us,
        rebuild_us,
        speedup: rebuild_us / cold_us,
        bytes,
        hits: cold_results.len(),
        index_builds,
    }
}

/// Cold-open cost of the persistence layer on the 12k-node synthetic
/// graph (50k at `full` scale): opening a checkpointed data directory
/// (segment read, index arrays adopted, zero index builds) and opening
/// a WAL-only directory (replay + index rebuild), each against the
/// same database rebuilt from scratch in memory. Result identity is
/// asserted on every pass before timings are reported.
pub fn bench_storage(scale: Scale, threads: usize) -> Vec<StorageBenchRow> {
    use gql_engine::Database;
    let threads = gql_core::resolve_threads(threads);
    let nodes = match scale {
        Scale::Quick => 12_000,
        Scale::Full => 50_000,
    };
    let g = gql_datagen::erdos_renyi(&gql_datagen::ErConfig::paper_default(nodes, 0x5105_4A11));
    let root = std::env::temp_dir().join(format!("gql-bench-storage-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    // Directory A: checkpointed (clean close). Reopen is a segment read.
    let ckpt_dir = root.join("checkpointed");
    let mut db = Database::open(&ckpt_dir).expect("create");
    db.add_graph("G", g.clone());
    db.close().expect("close");
    let seg_bytes = dir_bytes(&ckpt_dir, ".seg");

    // Directory B: WAL only (no checkpoint). Reopen replays + rebuilds.
    let wal_dir = root.join("wal-only");
    let mut db = Database::open(&wal_dir).expect("create");
    db.add_graph("G", g.clone());
    drop(db);
    let wal_bytes = dir_bytes(&wal_dir, "wal.log");

    let rows = vec![
        bench_storage_one("cold_open_checkpoint", &ckpt_dir, &g, threads, seg_bytes),
        bench_storage_one("cold_open_wal_replay", &wal_dir, &g, threads, wal_bytes),
    ];
    assert_eq!(
        rows[0].index_builds, 0,
        "checkpoint reopen must adopt index arrays, not rebuild"
    );
    let _ = std::fs::remove_dir_all(&root);
    rows
}

/// Renders [`bench_storage`] rows as the machine-readable
/// `BENCH_storage.json` document.
pub fn storage_bench_json(scale: Scale, threads: usize, rows: &[StorageBenchRow]) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"machine_cores\": {cores},\n"));
    s.push_str(&format!(
        "  \"threads\": {},\n",
        gql_core::resolve_threads(threads)
    ));
    s.push_str(&format!(
        "  \"scale\": \"{}\",\n",
        if scale == Scale::Full {
            "full"
        } else {
            "quick"
        }
    ));
    s.push_str("  \"workloads\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"nodes\": {}, \"edges\": {}, \"cold_us\": {:.1}, \"rebuild_us\": {:.1}, \"speedup\": {:.3}, \"bytes\": {}, \"hits\": {}, \"index_builds\": {}}}{}\n",
            r.name,
            r.nodes,
            r.edges,
            r.cold_us,
            r.rebuild_us,
            r.speedup,
            r.bytes,
            r.hits,
            r.index_builds,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Prints a storage-bench table.
pub fn print_storage_rows(title: &str, rows: &[StorageBenchRow]) {
    println!("\n{title}");
    println!(
        "{:>22} {:>8} {:>8} {:>12} {:>12} {:>8} {:>10} {:>6} {:>7}",
        "workload", "nodes", "edges", "cold (µs)", "rebuild (µs)", "Δ", "bytes", "hits", "builds"
    );
    for r in rows {
        println!(
            "{:>22} {:>8} {:>8} {:>12.1} {:>12.1} {:>7.2}x {:>10} {:>6} {:>7}",
            r.name,
            r.nodes,
            r.edges,
            r.cold_us,
            r.rebuild_us,
            r.speedup,
            r.bytes,
            r.hits,
            r.index_builds
        );
    }
}

// ------------------------------------------------------- mmap bench

/// One zero-copy-adoption comparison (a `BENCH_mmap.json` row):
/// time-to-first-answer and peak resident set of a cold open of the
/// 12k-node checkpoint, mapped (`mmap` adoption, pages fault in on
/// demand) vs owned (`OpenOptions::mmap: false`: segment read into memory, index
/// arrays copied out). Every pass runs in its own child process —
/// `VmHWM` is process-monotonic, so peaks measured in-process would
/// contaminate each other — and every pass's result digest is asserted
/// identical across modes before any timing is reported.
#[derive(Debug, Clone)]
pub struct MmapBenchRow {
    /// Open mode (`mapped`, `owned`).
    pub name: String,
    /// Graph nodes.
    pub nodes: usize,
    /// Graph edges.
    pub edges: usize,
    /// Cold open + first query batch, µs (min over passes).
    pub first_answer_us: f64,
    /// Peak resident set (`VmHWM`), KiB (min over passes; 0 where the
    /// platform has no `/proc/self/status`).
    pub peak_rss_kb: u64,
    /// Checkpoint segment bytes on disk.
    pub bytes: u64,
    /// Graphs returned by the query (identical in both modes).
    pub hits: usize,
}

/// FNV-1a digest of a query's rendered results — the identity check
/// exchanged between the bench parent and its child passes.
fn result_digest(results: &[String]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for r in results {
        for b in r.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^= 0xff;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Peak resident set size of this process in KiB (`VmHWM` from
/// `/proc/self/status`); 0 on platforms without procfs.
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|v| v.parse::<u64>().ok())
            })
        })
        .unwrap_or(0)
}

/// The hidden child mode behind [`bench_mmap`]: opens `dir` in `mode`
/// (`mapped` or `owned`), runs the storage bench query, and prints one
/// machine-readable line (`us=… rss_kb=… hits=… digest=…`) for the
/// parent to parse. Runs in a fresh process so its `VmHWM` is exactly
/// this open's peak.
pub fn mmap_child_main(dir: &std::path::Path, mode: &str, threads: usize) {
    use gql_engine::{Database, OpenOptions};
    let opts = match mode {
        "mapped" => OpenOptions {
            mmap: true,
            verify: false,
        },
        "owned" => OpenOptions {
            mmap: false,
            verify: false,
        },
        other => panic!("unknown mmap child mode {other:?}"),
    };
    let t = std::time::Instant::now();
    let mut db = Database::open_with(dir, opts)
        .expect("child open")
        .with_threads(threads);
    let results = storage_run_query(&mut db);
    let us = t.elapsed().as_secs_f64() * 1e6;
    if cfg!(unix) {
        assert_eq!(
            db.is_mapped(),
            mode == "mapped",
            "open mode did not take effect"
        );
    }
    println!(
        "us={us:.1} rss_kb={} hits={} digest={:016x}",
        peak_rss_kb(),
        results.len(),
        result_digest(&results)
    );
}

/// One child pass: spawn ourselves in `__mmap_child` mode and parse
/// the line it prints. Returns (µs, peak KiB, hits, digest).
fn spawn_mmap_pass(dir: &std::path::Path, mode: &str, threads: usize) -> (f64, u64, usize, u64) {
    let exe = std::env::current_exe().expect("current_exe");
    let out = std::process::Command::new(exe)
        .arg("__mmap_child")
        .arg(dir)
        .arg(mode)
        .arg(threads.to_string())
        .output()
        .expect("spawn mmap child");
    assert!(
        out.status.success(),
        "mmap child ({mode}) failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .find(|l| l.starts_with("us="))
        .unwrap_or_else(|| panic!("mmap child ({mode}) printed no result line: {stdout:?}"));
    let mut us = None;
    let mut rss = None;
    let mut hits = None;
    let mut digest = None;
    for field in line.split_whitespace() {
        if let Some(v) = field.strip_prefix("us=") {
            us = v.parse::<f64>().ok();
        } else if let Some(v) = field.strip_prefix("rss_kb=") {
            rss = v.parse::<u64>().ok();
        } else if let Some(v) = field.strip_prefix("hits=") {
            hits = v.parse::<usize>().ok();
        } else if let Some(v) = field.strip_prefix("digest=") {
            digest = u64::from_str_radix(v, 16).ok();
        }
    }
    (
        us.expect("us field"),
        rss.expect("rss_kb field"),
        hits.expect("hits field"),
        digest.expect("digest field"),
    )
}

/// Zero-copy mmap adoption on the 12k-node checkpoint (50k at `full`
/// scale): cold open + first answer, mapped vs owned, each pass in its
/// own child process so peak RSS is per-open. The result digest must
/// be identical across every pass of both modes.
///
/// The checkpoint holds the queried collection plus an equally sized
/// collection the first query never touches — the realistic shape of a
/// data directory serving point queries. Index adoption is validated
/// on first read, so the mapped open never faults the cold
/// collection's index sections in, while the owned open must read and
/// copy them: that difference is exactly the fault-on-demand win the
/// time and peak-RSS columns measure.
pub fn bench_mmap(scale: Scale, threads: usize) -> Vec<MmapBenchRow> {
    use gql_engine::Database;
    let threads = gql_core::resolve_threads(threads);
    let nodes = match scale {
        Scale::Quick => 12_000,
        Scale::Full => 50_000,
    };
    let g = gql_datagen::erdos_renyi(&gql_datagen::ErConfig::paper_default(nodes, 0x5105_4A11));
    let cold = gql_datagen::erdos_renyi(&gql_datagen::ErConfig::paper_default(nodes, 0x0C01_D001));
    let root = std::env::temp_dir().join(format!("gql-bench-mmap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let dir = root.join("checkpointed");
    let mut db = Database::open(&dir).expect("create");
    db.add_graph("G", g.clone());
    db.add_graph("COLD", cold);
    db.close().expect("close");
    let bytes = dir_bytes(&dir, ".seg");

    const PASSES: usize = 5;
    let mut rows = Vec::new();
    let mut digests: Vec<u64> = Vec::new();
    for mode in ["mapped", "owned"] {
        // Warm-up pass primes the page cache so both modes read warm.
        let _ = spawn_mmap_pass(&dir, mode, threads);
        let mut best_us = f64::INFINITY;
        let mut best_rss = u64::MAX;
        let mut hits = 0;
        for _ in 0..PASSES {
            let (us, rss, h, digest) = spawn_mmap_pass(&dir, mode, threads);
            digests.push(digest);
            best_us = best_us.min(us);
            best_rss = best_rss.min(rss);
            hits = h;
        }
        rows.push(MmapBenchRow {
            name: mode.to_string(),
            nodes: g.node_count(),
            edges: g.edge_count(),
            first_answer_us: best_us,
            peak_rss_kb: best_rss,
            bytes,
            hits,
        });
    }
    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "mapped and owned opens answered differently: {digests:x?}"
    );
    let _ = std::fs::remove_dir_all(&root);
    rows
}

/// Renders [`bench_mmap`] rows as the machine-readable
/// `BENCH_mmap.json` document.
pub fn mmap_bench_json(scale: Scale, threads: usize, rows: &[MmapBenchRow]) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"machine_cores\": {cores},\n"));
    s.push_str(&format!(
        "  \"threads\": {},\n",
        gql_core::resolve_threads(threads)
    ));
    s.push_str(&format!(
        "  \"scale\": \"{}\",\n",
        if scale == Scale::Full {
            "full"
        } else {
            "quick"
        }
    ));
    if let (Some(mapped), Some(owned)) = (
        rows.iter().find(|r| r.name == "mapped"),
        rows.iter().find(|r| r.name == "owned"),
    ) {
        s.push_str(&format!(
            "  \"mapped_time_speedup\": {:.3},\n",
            owned.first_answer_us / mapped.first_answer_us
        ));
        if mapped.peak_rss_kb > 0 && owned.peak_rss_kb > 0 {
            s.push_str(&format!(
                "  \"mapped_rss_ratio\": {:.3},\n",
                mapped.peak_rss_kb as f64 / owned.peak_rss_kb as f64
            ));
        }
    }
    s.push_str("  \"workloads\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"nodes\": {}, \"edges\": {}, \"first_answer_us\": {:.1}, \"peak_rss_kb\": {}, \"bytes\": {}, \"hits\": {}}}{}\n",
            r.name,
            r.nodes,
            r.edges,
            r.first_answer_us,
            r.peak_rss_kb,
            r.bytes,
            r.hits,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Prints an mmap-bench table.
pub fn print_mmap_rows(title: &str, rows: &[MmapBenchRow]) {
    println!("\n{title}");
    println!(
        "{:>8} {:>8} {:>8} {:>16} {:>12} {:>10} {:>6}",
        "mode", "nodes", "edges", "first ans (µs)", "peak (KiB)", "bytes", "hits"
    );
    for r in rows {
        println!(
            "{:>8} {:>8} {:>8} {:>16.1} {:>12} {:>10} {:>6}",
            r.name, r.nodes, r.edges, r.first_answer_us, r.peak_rss_kb, r.bytes, r.hits
        );
    }
}

// ------------------------------------------------- telemetry bench

/// One live-telemetry overhead comparison (a `BENCH_telemetry.json`
/// row): batch wall-clock of engine-level query execution with (a) no
/// telemetry attached, (b) the always-on metrics registry attached via
/// a running-but-unscraped HTTP endpoint, and (c) the same endpoint
/// hammered by a concurrent scraper for the whole run. The disabled
/// path is sampled twice (`off_us`/`off2_us`) so the spread between two
/// identical configurations bounds measurement noise. Results are
/// asserted identical across all three configurations before any
/// timing is reported.
#[derive(Debug, Clone)]
pub struct TelemetryBenchRow {
    /// Workload name.
    pub name: String,
    /// Queries timed per pass.
    pub queries: usize,
    /// Total result graphs across the batch (identical in every
    /// configuration by construction).
    pub hits: usize,
    /// Batch wall-clock with no registry obs attached, µs.
    pub off_us: f64,
    /// Second disabled sample under the same conditions, µs.
    pub off2_us: f64,
    /// Batch wall-clock with `serve_metrics` attached but no scraper, µs.
    pub registry_us: f64,
    /// Batch wall-clock with a concurrent `/metrics` scraper loop, µs.
    pub scraped_us: f64,
    /// `off2_us / off_us - 1`: noise bound on the disabled path.
    pub disabled_overhead: f64,
    /// `registry_us / off_us - 1`: cost of the attached-but-unscraped
    /// registry (the acceptance bound: ≤ 2%).
    pub registry_overhead: f64,
    /// `scraped_us / off_us - 1`: cost under continuous scraping.
    pub scraped_overhead: f64,
    /// `/metrics` scrapes the concurrent scraper completed.
    pub scrapes: usize,
}

/// Renders a datagen query pattern as a FLWR program over `doc("G")`.
fn flwr_program(q: &Graph) -> String {
    use std::fmt::Write as _;
    let mut s = String::from("for graph Q { ");
    for v in q.node_ids() {
        let label = q.node_label(v).expect("datagen patterns carry labels");
        let _ = write!(s, "node n{} <label={label}>; ", v.0);
    }
    for (i, e) in q.edges() {
        let _ = write!(s, "edge e{} (n{}, n{}); ", i.0, e.src.0, e.dst.0);
    }
    s.push_str("} exhaustive in doc(\"G\") return graph { node r <who=Q.n0.label>; };");
    s
}

fn telemetry_http_get(addr: std::net::SocketAddr, path: &str) -> String {
    use std::io::{Read as _, Write as _};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect metrics server");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    response
}

fn bench_telemetry_one(
    name: &str,
    g: &Graph,
    queries: &[Graph],
    threads: usize,
) -> TelemetryBenchRow {
    use gql_engine::Database;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;
    // One timed sample = 3 passes over the batch (µs reported per
    // pass), interleaved min-of-9 per configuration — same noise
    // discipline as the CSR and trace benches.
    const PASSES: u32 = 3;
    let programs: Vec<String> = queries.iter().map(flwr_program).collect();
    let fresh = || {
        let mut db = Database::new().with_threads(threads);
        db.add_graph("G", g.clone());
        db
    };
    let mut db_off = fresh();
    let mut db_reg = fresh();
    db_reg
        .serve_metrics("127.0.0.1:0")
        .expect("serve unscraped registry");
    let mut db_scr = fresh();
    let scr_addr = db_scr
        .serve_metrics("127.0.0.1:0")
        .expect("serve scraped registry");
    let stop = Arc::new(AtomicBool::new(false));
    // The scraper hammers `/metrics` only while a scraped-configuration
    // sample is being timed — otherwise it would contend for CPU with
    // the baseline samples and inflate the noise floor the overhead
    // numbers are judged against.
    let active = Arc::new(AtomicBool::new(false));
    let scrapes = Arc::new(AtomicUsize::new(0));
    let scraper = {
        let stop = Arc::clone(&stop);
        let active = Arc::clone(&active);
        let scrapes = Arc::clone(&scrapes);
        std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                if !active.load(Ordering::SeqCst) {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    continue;
                }
                let resp = telemetry_http_get(scr_addr, "/metrics");
                assert!(resp.starts_with("HTTP/1.1 200"), "scrape failed: {resp}");
                scrapes.fetch_add(1, Ordering::SeqCst);
                // Aggressive but not a busy-loop: ~1k scrapes/s is
                // already orders of magnitude past any real scrape
                // cadence without reducing the bench to a CPU
                // oversubscription test.
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        })
    };

    let batch = |db: &mut Database| -> (f64, Vec<String>) {
        let t = std::time::Instant::now();
        let mut results = Vec::new();
        for _ in 0..PASSES {
            results.clear();
            for p in &programs {
                let out = db.execute(p).expect("telemetry bench query");
                for coll in &out.returned {
                    for rg in coll {
                        results.push(rg.to_string());
                    }
                }
            }
        }
        (t.elapsed().as_secs_f64() * 1e6 / f64::from(PASSES), results)
    };

    let batch_scraped = |db: &mut Database| -> (f64, Vec<String>) {
        active.store(true, Ordering::SeqCst);
        let r = batch(db);
        active.store(false, Ordering::SeqCst);
        r
    };

    // Untimed warm-up per configuration, then interleaved timed samples
    // for the off/registry comparison (the acceptance-critical one —
    // kept free of any scraper activity), then a separate min-of-9
    // phase for the scraped-under-load configuration.
    let _ = batch(&mut db_off);
    let _ = batch(&mut db_reg);
    let (mut off_us, res_off) = batch(&mut db_off);
    let (mut reg_us, res_reg) = batch(&mut db_reg);
    let (mut off2_us, _) = batch(&mut db_off);
    for _ in 0..8 {
        off_us = off_us.min(batch(&mut db_off).0);
        reg_us = reg_us.min(batch(&mut db_reg).0);
        off2_us = off2_us.min(batch(&mut db_off).0);
    }
    let _ = batch_scraped(&mut db_scr);
    let (mut scr_us, res_scr) = batch_scraped(&mut db_scr);
    for _ in 0..8 {
        scr_us = scr_us.min(batch_scraped(&mut db_scr).0);
    }
    assert_eq!(
        res_off, res_reg,
        "{name}: attached registry changed results"
    );
    assert_eq!(
        res_off, res_scr,
        "{name}: concurrent scraping changed results"
    );
    stop.store(true, Ordering::SeqCst);
    scraper.join().expect("scraper thread");
    // Final scrape: the endpoint survived the whole run and its
    // exposition is still format-valid.
    let resp = telemetry_http_get(scr_addr, "/metrics");
    let body = resp.split_once("\r\n\r\n").map(|(_, b)| b).unwrap_or("");
    gql_core::validate_prometheus(body).expect("final exposition invalid");

    TelemetryBenchRow {
        name: name.to_string(),
        queries: programs.len(),
        hits: res_off.len(),
        off_us,
        off2_us,
        registry_us: reg_us,
        scraped_us: scr_us,
        disabled_overhead: off2_us / off_us - 1.0,
        registry_overhead: reg_us / off_us - 1.0,
        scraped_overhead: scr_us / off_us - 1.0,
        scrapes: scrapes.load(Ordering::SeqCst),
    }
}

/// Live-telemetry overhead of the always-on metrics registry and the
/// background HTTP endpoint at the engine level, on one PPI clique
/// workload and one synthetic subgraph workload. Asserts result
/// identity across no-telemetry / unscraped / scraped-under-load
/// before reporting the timing deltas.
pub fn bench_telemetry(scale: Scale, threads: usize) -> Vec<TelemetryBenchRow> {
    let threads = gql_core::resolve_threads(threads);
    let nq = match scale {
        Scale::Quick => 8,
        Scale::Full => 40,
    };
    let mut rows = Vec::new();
    let ppi = gql_datagen::ppi_network(&gql_datagen::PpiConfig::default());
    rows.push(bench_telemetry_one(
        "ppi_clique_5",
        &ppi,
        &gql_datagen::clique_queries(&ppi, 5, nq, 0x7E7E1),
        threads,
    ));
    let syn = gql_datagen::erdos_renyi(&gql_datagen::ErConfig::paper_default(10_000, 0x5eed));
    rows.push(bench_telemetry_one(
        "synthetic10k_subgraph_8",
        &syn,
        &gql_datagen::subgraph_queries(&syn, 8, nq, 0x7E7E2),
        threads,
    ));
    rows
}

/// Renders [`bench_telemetry`] rows as the machine-readable
/// `BENCH_telemetry.json` document.
pub fn telemetry_bench_json(scale: Scale, threads: usize, rows: &[TelemetryBenchRow]) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"machine_cores\": {cores},\n"));
    s.push_str(&format!(
        "  \"threads\": {},\n",
        gql_core::resolve_threads(threads)
    ));
    s.push_str(&format!(
        "  \"scale\": \"{}\",\n",
        if scale == Scale::Full {
            "full"
        } else {
            "quick"
        }
    ));
    s.push_str("  \"workloads\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"queries\": {}, \"hits\": {}, \"off_us\": {:.1}, \"off2_us\": {:.1}, \"registry_us\": {:.1}, \"scraped_us\": {:.1}, \"disabled_overhead\": {:.4}, \"registry_overhead\": {:.4}, \"scraped_overhead\": {:.4}, \"scrapes\": {}}}{}\n",
            r.name,
            r.queries,
            r.hits,
            r.off_us,
            r.off2_us,
            r.registry_us,
            r.scraped_us,
            r.disabled_overhead,
            r.registry_overhead,
            r.scraped_overhead,
            r.scrapes,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Prints a telemetry-bench table.
pub fn print_telemetry_rows(title: &str, rows: &[TelemetryBenchRow]) {
    println!("\n{title}");
    println!(
        "{:>26} {:>8} {:>6} {:>12} {:>12} {:>12} {:>12} {:>9} {:>9} {:>9} {:>8}",
        "workload",
        "queries",
        "hits",
        "off (µs)",
        "off2 (µs)",
        "reg (µs)",
        "scrape (µs)",
        "off Δ",
        "reg Δ",
        "scrape Δ",
        "scrapes"
    );
    for r in rows {
        println!(
            "{:>26} {:>8} {:>6} {:>12.1} {:>12.1} {:>12.1} {:>12.1} {:>8.1}% {:>8.1}% {:>8.1}% {:>8}",
            r.name,
            r.queries,
            r.hits,
            r.off_us,
            r.off2_us,
            r.registry_us,
            r.scraped_us,
            r.disabled_overhead * 100.0,
            r.registry_overhead * 100.0,
            r.scraped_overhead * 100.0,
            r.scrapes
        );
    }
}

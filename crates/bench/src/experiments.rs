//! Runners that regenerate every figure of the paper's §5 evaluation.
//!
//! Each `fig4_*` function produces printable rows with the same series
//! the paper plots; EXPERIMENTS.md records the paper-vs-measured
//! comparison. Absolute times differ (2008 MySQL/Java vs in-memory
//! Rust); the *shapes* are what must reproduce.

use crate::workload::{fmt_ratio, mean, Configs, HitClass, SqlWorkload, Workload};
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

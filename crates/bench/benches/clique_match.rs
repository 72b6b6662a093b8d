//! Criterion benches behind Figures 4.20/4.21: clique-query matching on
//! the PPI workload under each access-method configuration.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gql_bench::workload::{Configs, Workload};
use gql_match::{match_pattern, MatchOptions, Pattern};

fn pick_answered(w: &Workload, size: usize) -> Option<Pattern> {
    let queries = w.cliques(size, 400, 0xbe_0c + size as u64);
    for q in queries {
        let p = Pattern::structural(q);
        let rep = match_pattern(&p, &w.graph, &w.index, &MatchOptions::optimized());
        if !rep.mappings.is_empty() && rep.mappings.len() < 100 {
            return Some(p);
        }
    }
    None
}

fn bench_clique_configs(c: &mut Criterion) {
    let w = Workload::ppi();
    let mut group = c.benchmark_group("fig4_21_clique_total");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for size in [3usize, 4, 5] {
        let Some(pattern) = pick_answered(&w, size) else {
            continue;
        };
        for (name, opts) in [
            ("optimized", Configs::optimized()),
            ("baseline", Configs::baseline()),
            ("profiles", Configs::profiles()),
            ("refined", Configs::refined()),
        ] {
            let mut opts = opts.clone();
            opts.max_matches = 1001;
            group.bench_with_input(BenchmarkId::new(name, size), &pattern, |b, p| {
                b.iter(|| match_pattern(p, &w.graph, &w.index, &opts))
            });
        }
    }
    group.finish();
}

fn bench_clique_space_steps(c: &mut Criterion) {
    let w = Workload::ppi();
    let mut group = c.benchmark_group("fig4_20_clique_steps");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    if let Some(pattern) = pick_answered(&w, 4) {
        group.bench_function("retrieve_profiles", |b| {
            b.iter(|| {
                gql_match::feasible_mates(
                    &pattern,
                    &w.graph,
                    &w.index,
                    gql_match::LocalPruning::Profiles { radius: 1 },
                )
            })
        });
        group.bench_function("retrieve_subgraphs", |b| {
            b.iter(|| {
                gql_match::feasible_mates(
                    &pattern,
                    &w.graph,
                    &w.index,
                    gql_match::LocalPruning::Subgraphs { radius: 1 },
                )
            })
        });
        let mates = gql_match::feasible_mates(
            &pattern,
            &w.graph,
            &w.index,
            gql_match::LocalPruning::Profiles { radius: 1 },
        );
        group.bench_function("refine", |b| {
            b.iter(|| {
                let mut m = mates.clone();
                gql_match::refine_search_space_csr(
                    &pattern,
                    &w.graph,
                    w.index.csr(),
                    &mut m,
                    pattern.node_count(),
                    1,
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_clique_configs, bench_clique_space_steps);
criterion_main!(benches);

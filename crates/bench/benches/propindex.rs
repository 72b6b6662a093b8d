//! Microbenchmarks of the sorted secondary property index: raw probes
//! against a predicate scan of the label bucket, plus the end-to-end
//! optimized pipeline with index-probe retrieval vs bucket scans.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gql_core::{Graph, NodeId, ProbeOp, Run, Value};
use gql_datagen::{erdos_renyi, ErConfig};
use gql_match::{match_pattern, BinOp, Expr, GraphIndex, IndexOptions, MatchOptions, Pattern};

/// The synthetic data graph, decorated with a `year` attribute so
/// predicates have something to push down.
fn data_graph() -> Graph {
    let mut g = erdos_renyi(&ErConfig::paper_default(5_000, 0xC5A));
    for i in 0..g.node_count() {
        g.node_mut(NodeId(i as u32))
            .attrs
            .set("year", (i % 1000) as i64);
    }
    g
}

/// Raw access-method comparison: equal-range binary search over a
/// sorted run vs a compare-everything scan of the same entries.
fn bench_probe_vs_scan(c: &mut Criterion) {
    let entries: Vec<(Value, u32)> = (0..100_000u32)
        .map(|i| (Value::Int((i % 1000) as i64), i))
        .collect();
    let run = Run::build(entries.clone());
    let key = Value::Int(500);
    let mut group = c.benchmark_group("propindex_probe");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for op in [ProbeOp::Eq, ProbeOp::Lt] {
        group.bench_with_input(
            BenchmarkId::new("probe", format!("{op:?}")),
            &op,
            |b, &op| b.iter(|| run.probe(op, &key)),
        );
        group.bench_with_input(
            BenchmarkId::new("scan", format!("{op:?}")),
            &op,
            |b, &op| {
                b.iter(|| {
                    let admits = |ord: std::cmp::Ordering| match op {
                        ProbeOp::Eq => ord == std::cmp::Ordering::Equal,
                        ProbeOp::Lt => ord == std::cmp::Ordering::Less,
                        ProbeOp::Le => ord != std::cmp::Ordering::Greater,
                        ProbeOp::Gt => ord == std::cmp::Ordering::Greater,
                        ProbeOp::Ge => ord != std::cmp::Ordering::Less,
                    };
                    entries
                        .iter()
                        .filter(|(v, _)| v.compare(&key).is_some_and(admits))
                        .map(|&(_, id)| id)
                        .collect::<Vec<u32>>()
                })
            },
        );
    }
    group.finish();
}

/// End-to-end optimized matching with a selective equality predicate:
/// index-probe retrieval vs predicate scans over the label bucket.
fn bench_end_to_end(c: &mut Criterion) {
    let g = data_graph();
    let build = |prop_index| {
        GraphIndex::build_with(
            &g,
            &IndexOptions {
                radius: 1,
                profiles: true,
                subgraphs: false,
                threads: 1,
                prop_index,
            },
        )
    };
    let probe_index = build(true);
    let scan_index = build(false);
    let mut motif = Graph::new();
    let a = motif.add_node(gql_core::Tuple::new().with("label", "L00"));
    let b = motif.add_node(gql_core::Tuple::new().with("label", "L01"));
    motif.add_edge(a, b, gql_core::Tuple::new()).unwrap();
    let patterns: Vec<Pattern> = (0..8)
        .map(|i| {
            Pattern::new(
                motif.clone(),
                vec![Expr::binary(
                    BinOp::Eq,
                    Expr::node_attr(0, "year"),
                    Expr::Literal(Value::Int((i * 125) as i64)),
                )],
            )
        })
        .collect();
    let mut opts = MatchOptions::optimized();
    opts.max_matches = 1000;
    let mut group = c.benchmark_group("end_to_end_predicate_match");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));
    group.bench_function("bucket_scan", |b| {
        b.iter(|| {
            patterns
                .iter()
                .map(|p| match_pattern(p, &g, &scan_index, &opts).mappings.len())
                .sum::<usize>()
        })
    });
    group.bench_function("index_probe", |b| {
        b.iter(|| {
            patterns
                .iter()
                .map(|p| match_pattern(p, &g, &probe_index, &opts).mappings.len())
                .sum::<usize>()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_probe_vs_scan, bench_end_to_end);
criterion_main!(benches);

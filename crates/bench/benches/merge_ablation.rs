//! Ablations around the clustering/merging design:
//!
//! * signature (AND) clustering vs OR-rule union-find clustering on the
//!   same LSH family — the design DESIGN.md settles in favour of
//!   signature grouping;
//! * endpoint-aware vs label-only edge merging.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pg_bench::{bench_graph, bench_hive_config, BENCH_DATASETS};
use pg_hive::features::FeatureSpace;
use pg_hive::{LshMethod, PgHive};
use pg_lsh::EuclideanLsh;
use pg_store::load;
use std::hint::black_box;
use std::time::Duration;

fn merge_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("merge_ablation");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(4));

    for ds in BENCH_DATASETS {
        let (graph, _) = bench_graph(ds, 0.1, 1.0);
        let (nodes, edges) = load(&graph);
        let cfg = bench_hive_config(LshMethod::Elsh);
        let fs = FeatureSpace::build(&nodes, &edges, &cfg.embedding, 42);
        let vectors: Vec<_> = nodes
            .iter()
            .map(|n| fs.node_fingerprint_vector(&fs.node_fingerprint(n)))
            .collect();
        let lsh = EuclideanLsh::new(fs.node_dim().max(1), 25, 2.0, 42);

        group.bench_with_input(
            BenchmarkId::new("cluster_signature_and", ds),
            &vectors,
            |b, v| b.iter(|| black_box(lsh.cluster_signature(v))),
        );
        group.bench_with_input(
            BenchmarkId::new("cluster_unionfind_or", ds),
            &vectors,
            |b, v| b.iter(|| black_box(lsh.cluster(v))),
        );

        // Endpoint-aware vs label-only edge merging (full pipeline).
        group.bench_with_input(
            BenchmarkId::new("edges_endpoint_aware", ds),
            &graph,
            |b, g| {
                let engine = PgHive::new(bench_hive_config(LshMethod::Elsh));
                b.iter(|| black_box(engine.discover_graph(g)))
            },
        );
        group.bench_with_input(BenchmarkId::new("edges_label_only", ds), &graph, |b, g| {
            let mut cfg = bench_hive_config(LshMethod::Elsh);
            cfg.edge_endpoint_aware = false;
            let engine = PgHive::new(cfg);
            b.iter(|| black_box(engine.discover_graph(g)))
        });
    }
    group.finish();
}

criterion_group!(benches, merge_ablation);
criterion_main!(benches);

//! SEL / duplicate-aware k-NN benchmarks: the per-row reference path vs
//! the interned engine, plus the engine's build cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use transer_bench::biblio_pair;
use transer_core::{select_instances_per_row_with_pool, select_instances_with_pool, TransErConfig};
use transer_eval::sel_bench::{round_features, tile_rows};
use transer_knn::DedupKnn;
use transer_parallel::Pool;

fn bench_sel(c: &mut Criterion) {
    let pair = biblio_pair();
    let config = TransErConfig::default();
    let pool = Pool::sequential();

    // Duplicate-heavy variant: rounded to the 0.1 grid and tiled.
    let (dup_xs, dup_ys) = tile_rows(&round_features(&pair.source.x, 1), Some(&pair.source.y), 8);
    let (dup_xt, _) = tile_rows(&round_features(&pair.target.x, 1), None, 8);

    let mut g = c.benchmark_group("sel");
    for (name, xs, ys, xt) in [
        ("biblio", &pair.source.x, &pair.source.y, &pair.target.x),
        ("biblio_dup8", &dup_xs, &dup_ys, &dup_xt),
    ] {
        g.bench_function(BenchmarkId::new("per_row", name), |b| {
            b.iter(|| {
                select_instances_per_row_with_pool(
                    black_box(xs),
                    black_box(ys),
                    black_box(xt),
                    &config,
                    &pool,
                )
                .expect("selection")
            })
        });
        g.bench_function(BenchmarkId::new("dedup", name), |b| {
            b.iter(|| {
                select_instances_with_pool(
                    black_box(xs),
                    black_box(ys),
                    black_box(xt),
                    &config,
                    &pool,
                )
                .expect("selection")
            })
        });
    }
    g.finish();

    let mut g = c.benchmark_group("dedup_knn");
    for (name, m) in [("biblio", &pair.source.x), ("biblio_dup8", &dup_xs)] {
        g.bench_function(BenchmarkId::new("build", name), |b| {
            b.iter(|| DedupKnn::build(black_box(m)))
        });
        let engine = DedupKnn::build(m);
        let query = m.row(m.rows() / 2).to_vec();
        g.bench_function(BenchmarkId::new("k7_query", name), |b| {
            b.iter(|| engine.k_nearest(black_box(&query), 7))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_sel);
criterion_main!(benches);

//! k-NN index benchmarks: the SEL phase's dominant cost is two k-NN
//! queries per source instance.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;
use transer_common::FeatureMatrix;
use transer_knn::{brute_force_knn, BallTree};

fn cloud(n: usize, m: usize, seed: u64) -> FeatureMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let rows: Vec<Vec<f64>> =
        (0..n).map(|_| (0..m).map(|_| rng.random_range(0.0..1.0)).collect()).collect();
    FeatureMatrix::from_vecs(&rows).unwrap()
}

fn bench_knn(c: &mut Criterion) {
    let mut g = c.benchmark_group("knn");
    for &n in &[1_000usize, 10_000] {
        let points = cloud(n, 8, 7);
        let query = points.row(n / 2).to_vec();
        g.bench_with_input(BenchmarkId::new("balltree_build", n), &points, |b, p| {
            b.iter(|| BallTree::build(black_box(p)))
        });
        let ball = BallTree::build(&points);
        g.bench_with_input(BenchmarkId::new("balltree_k7_query", n), &ball, |b, t| {
            b.iter(|| t.k_nearest(black_box(&query), 7))
        });
        if n <= 1_000 {
            g.bench_with_input(BenchmarkId::new("brute_force_k7", n), &points, |b, p| {
                b.iter(|| brute_force_knn(black_box(p), black_box(&query), 7, None))
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench_knn);
criterion_main!(benches);

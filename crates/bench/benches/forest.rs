//! Tree-training benchmarks: presorted exact-greedy training of a single
//! deep tree and of a bagged forest, on the real bibliographic workload.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use transer_bench::biblio_pair;
use transer_ml::{Classifier, DecisionTree, RandomForest, RandomForestConfig};

fn bench_forest(c: &mut Criterion) {
    let pair = biblio_pair();
    let (x, y) = (&pair.source.x, &pair.source.y);

    let mut g = c.benchmark_group("tree_fit");
    g.bench_function(BenchmarkId::new("presorted", "biblio"), |b| {
        b.iter(|| {
            let mut tree = DecisionTree::default().with_threads(1);
            tree.fit(black_box(x), black_box(y)).expect("tree fit");
            tree
        })
    });
    g.finish();

    let mut g = c.benchmark_group("forest_fit");
    g.sample_size(10);
    let config = RandomForestConfig::default();
    for threads in [1, 4] {
        g.bench_function(BenchmarkId::new("presorted", format!("biblio_t{threads}")), |b| {
            b.iter(|| {
                let mut rf = RandomForest::new(config, 42).with_threads(threads);
                rf.fit(black_box(x), black_box(y)).expect("forest fit");
                rf
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_forest);
criterion_main!(benches);

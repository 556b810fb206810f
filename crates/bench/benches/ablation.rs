//! Ablation benchmarks for the design choices DESIGN.md calls out: the
//! cost of each TransER variant, so the runtime price of every component
//! (SEL's k-NN passes, GEN+TCL's extra training) is measurable in
//! isolation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use transer_bench::biblio_pair;
use transer_core::{TransEr, TransErConfig, Variant};
use transer_ml::ClassifierKind;

fn bench_ablation(c: &mut Criterion) {
    let pair = biblio_pair();
    let mut g = c.benchmark_group("ablation");
    g.sample_size(10);
    for (name, variant) in Variant::ablation_suite() {
        let cfg = TransErConfig { variant, ..Default::default() };
        let t = TransEr::new(cfg, ClassifierKind::LogisticRegression, 7).unwrap();
        g.bench_with_input(BenchmarkId::new("variant", name), &t, |b, t| {
            b.iter(|| {
                t.fit_predict(
                    black_box(&pair.source.x),
                    black_box(&pair.source.y),
                    black_box(&pair.target.x),
                )
                .unwrap()
            })
        });
    }
    // Neighbourhood size drives the SEL phase's k-NN cost.
    for k in [3usize, 7, 11] {
        let cfg = TransErConfig { k, ..Default::default() };
        let t = TransEr::new(cfg, ClassifierKind::LogisticRegression, 7).unwrap();
        g.bench_with_input(BenchmarkId::new("k", k), &t, |b, t| {
            b.iter(|| {
                t.fit_predict(
                    black_box(&pair.source.x),
                    black_box(&pair.source.y),
                    black_box(&pair.target.x),
                )
                .unwrap()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);

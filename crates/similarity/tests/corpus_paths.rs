//! Over the ER-shaped pair corpus: the prepared and interned scoring paths
//! equal the direct one bit for bit for every measure, and the Levenshtein
//! kernel's trace counters partition its runs.

mod corpus;

use corpus::{build_pairs, MEASURES};
use transer_common::StrInterner;
use transer_similarity::Measure;

#[test]
fn prepared_and_interned_paths_equal_the_direct_path() {
    let pairs = build_pairs(400, 0x5EED);
    for (label, measure) in MEASURES {
        let mut interner = StrInterner::new();
        for (a, b) in &pairs {
            let want = measure.text(a, b).to_bits();
            let got = measure.prepared(&measure.prepare(a), &measure.prepare(b));
            assert_eq!(got.to_bits(), want, "prepared {label} on ({a:?}, {b:?})");
            if measure.is_set() {
                let (mut ia, mut ib) = (Vec::new(), Vec::new());
                measure.push_interned_set(a, &mut interner, &mut ia);
                measure.push_interned_set(b, &mut interner, &mut ib);
                let got = measure.interned_set_score(&ia, &ib);
                assert_eq!(got.to_bits(), want, "interned {label} on ({a:?}, {b:?})");
            }
        }
    }
}

/// Every Levenshtein kernel run is exactly one of bit-parallel or
/// fallback, and the shorter string picks which: up to 64 chars fit one
/// Myers block. Equal pairs and empty strings never reach the kernel.
#[test]
fn levenshtein_runs_partition_into_bitparallel_and_fallback() {
    let pairs = build_pairs(400, 0x5EED);
    let shorter = |(a, b): &(String, String)| a.chars().count().min(b.chars().count());
    let runs: Vec<usize> = pairs.iter().filter(|(a, b)| a != b).map(shorter).collect();
    let runs: Vec<usize> = runs.into_iter().filter(|&n| n > 0).collect();
    let wide = runs.iter().filter(|&&n| n > 64).count() as u64;
    assert!(wide > 0 && wide < runs.len() as u64, "{wide} of {} runs past 64 chars", runs.len());
    transer_trace::set_enabled(true);
    let _ = transer_trace::drain_report();
    let sink: f64 = pairs.iter().map(|(a, b)| Measure::Levenshtein.text(a, b)).sum();
    std::hint::black_box(sink);
    let report = transer_trace::drain_report();
    transer_trace::set_enabled(false);
    let calls = report.counter("similarity.levenshtein.calls");
    let bitparallel = report.counter("similarity.kernel.bitparallel");
    let fallback = report.counter("similarity.kernel.fallback");
    assert_eq!(bitparallel + fallback, calls, "{bitparallel} bit-parallel + {fallback} fallback");
    assert_eq!((calls, fallback), (runs.len() as u64, wide));
}

//! The allocation-free steady-state invariant of the fast similarity
//! kernels, checked against the *real* global allocator: after one
//! warm-up pass (which may grow thread-local scratch), scoring prepared
//! pairs must perform **zero** heap allocations, for every measure.
//!
//! This turns the "allocation-free after warm-up" design claim of the
//! kernels from a code-review statement into a tier-1 tested
//! invariant — any future kernel change that sneaks a `Vec::push` or a
//! `String` into a scoring path fails here, not in a profile.

mod corpus;

use std::sync::Mutex;

use corpus::{build_pairs, MEASURES};
use transer_similarity::{Measure, PreparedText};

// An unused `--extern` crate is never loaded, and an unloaded crate's
// `#[global_allocator]` is never registered — this linkage is what swaps
// the test binary's allocator to the counting one.
use transer_common as _;

/// Allocation accounting is process-global; tests serialise here.
static TEST_LOCK: Mutex<()> = Mutex::new(());

/// ER-shaped corpus: names, multi-token titles (unicode, one longer than
/// 64 chars), years, plus empties and near-twins.
const CORPUS: [(&str, &str); 8] = [
    ("maria garcía", "maria garcia"),
    ("transfer learning for entity resolution", "transfer lerning for entity resolution"),
    ("smith-jones", "smith jones"),
    ("наука о данных", "наука о дачных"),
    (
        "entity entity entity entity entity entity entity entity entity entity entity one",
        "entity entity entity entity entity entity entity entity entity entity entity two",
    ),
    ("1999", "2001"),
    ("", "nonempty"),
    ("identical value", "identical value"),
];

fn prepared_corpus(measure: Measure) -> Vec<(PreparedText, PreparedText)> {
    CORPUS.iter().map(|(a, b)| (measure.prepare(a), measure.prepare(b))).collect()
}

#[test]
fn prepared_fast_scoring_is_allocation_free_after_warm_up() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let alloc = &transer_trace::alloc::set_enabled;
    let mut dirty: Vec<String> = Vec::new();
    for (label, measure) in MEASURES {
        let corpus = prepared_corpus(measure);
        // Warm-up: one full pass may grow thread-local kernel scratch.
        let mut sink = 0.0;
        for (a, b) in &corpus {
            sink += measure.prepared(a, b);
        }
        // Steady state: several passes under live allocation counting.
        alloc(true);
        let (c0, b0) = transer_trace::alloc::thread_counters();
        for _ in 0..3 {
            for (a, b) in &corpus {
                sink += measure.prepared(a, b);
            }
        }
        let (c1, b1) = transer_trace::alloc::thread_counters();
        alloc(false);
        std::hint::black_box(sink);
        if c1 != c0 || b1 != b0 {
            dirty.push(format!("{label}: {} allocations / {} bytes", c1 - c0, b1 - b0));
        }
    }
    assert!(dirty.is_empty(), "steady-state allocations in: {}", dirty.join(", "));
}

#[test]
fn preparation_itself_is_observed_as_allocating() {
    // Control for the invariant test above: the counting allocator must
    // actually be live in this binary, otherwise "zero allocations" would
    // be vacuous. Preparation builds owned profiles, so it must count.
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    transer_trace::alloc::set_enabled(true);
    let (c0, _) = transer_trace::alloc::thread_counters();
    let corpus = prepared_corpus(Measure::TokenJaccard);
    std::hint::black_box(&corpus);
    let (c1, _) = transer_trace::alloc::thread_counters();
    transer_trace::alloc::set_enabled(false);
    assert!(c1 > c0, "preparing {} pairs must allocate", corpus.len());
}

/// The invariant at corpus scale with tracing on (the kernels record trace
/// counters too): after a warm-up, a steady-state pass over every
/// measure's prepared pair corpus attributes no allocation to its span.
#[test]
fn traced_steady_state_over_the_pair_corpus_is_allocation_free() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let pairs = build_pairs(400, 0x5EED);
    let prepare = |m: Measure| pairs.iter().map(|(a, b)| (m.prepare(a), m.prepare(b))).collect();
    let corpora: Vec<(Measure, Vec<_>)> = MEASURES.iter().map(|&(_, m)| (m, prepare(m))).collect();
    let pass = || -> f64 {
        corpora.iter().flat_map(|(m, corpus)| corpus.iter().map(|(a, b)| m.prepared(a, b))).sum()
    };
    let mut sink = pass(); // warm-up
    transer_trace::alloc::set_enabled(true);
    transer_trace::set_enabled(true);
    let _ = transer_trace::drain_report();
    // A traced warm-up: a counter's first touch after a drain allocates.
    sink += pass();
    {
        let _span = transer_trace::span("similarity.steady");
        sink += pass();
    }
    let report = transer_trace::drain_report();
    transer_trace::set_enabled(false);
    transer_trace::alloc::set_enabled(false);
    std::hint::black_box(sink);
    let span = report.find_span("similarity.steady").expect("steady-state span recorded");
    assert_eq!((span.alloc_count, span.alloc_bytes), (0, 0), "steady-state (allocations, bytes)");
}

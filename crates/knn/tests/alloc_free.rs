//! A warm query allocates nothing, checked against the real global
//! allocator: once a [`QueryScratch`] and an output buffer have served a
//! pass of queries (which may grow them), 1,000 more weighted queries,
//! half on the k-d tree and half on the duplicate-aware engine, make zero
//! heap allocations.

use std::sync::Mutex;

use transer_common::{FeatureMatrix, RowInterning};
use transer_knn::{DedupKnn, KdTree, QueryScratch};
use transer_trace::alloc;

/// Allocation accounting is process-global; tests serialise here.
static TEST_LOCK: Mutex<()> = Mutex::new(());

/// A duplicated 8-column matrix of tie-heavy cells (0, ¼, ½, 1 and one
/// uniform-ish value), deep enough for several tree levels.
fn matrix() -> FeatureMatrix {
    let mut state = 42u64;
    let data = (0..600 * 8)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            [0.0, 0.25, 0.5, 1.0, 0.6180339887][(state >> 33) as usize % 5]
        })
        .collect();
    FeatureMatrix::from_rows(data, 600, 8).unwrap()
}

#[test]
fn warm_weighted_queries_allocate_nothing() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let m = matrix();
    let engine = DedupKnn::build(&m);
    let it = RowInterning::of(&m);
    let weights = it.multiplicities();
    let tree = KdTree::build(it.unique());
    let queries: Vec<&[f64]> = (0..500).map(|i| m.row(i)).collect();
    let mut scratch = QueryScratch::default();
    let mut out = Vec::new();
    let pass = |out: &mut Vec<_>, scratch: &mut QueryScratch| {
        for (i, q) in queries.iter().enumerate() {
            out.clear();
            tree.k_nearest_weighted_into(q, &weights, 8, scratch, out);
            engine.k_nearest_unique_into(q, 7 + i % 2, scratch, out);
        }
    };
    // The warm-up pass grows the buffers, and the counter sees it.
    alloc::set_enabled(true);
    let cold = alloc::thread_counters().0;
    pass(&mut out, &mut scratch);
    assert!(alloc::thread_counters().0 > cold, "the counting allocator is not live");
    let before = alloc::thread_counters();
    pass(&mut out, &mut scratch);
    let after = alloc::thread_counters();
    alloc::set_enabled(false);
    assert!(!out.is_empty());
    assert_eq!((after.0 - before.0, after.1 - before.1), (0, 0), "warm queries allocated");
}

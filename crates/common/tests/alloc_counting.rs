//! End-to-end tests of the counting global allocator: this binary links
//! `transer-common`, so `CountingAllocator` is the registered
//! `#[global_allocator]` and real heap traffic drives the counters in
//! `transer_trace::alloc`.

use std::sync::Mutex;

use transer_trace::alloc;

// An unused `--extern` crate is never loaded, and an unloaded crate's
// `#[global_allocator]` is never registered — so the linkage below is
// load-bearing: it is what swaps this test binary's allocator from the
// default shim to `CountingAllocator`.
use transer_common::{FeatureMatrix, RowInterning};

// The profiling switch is process-global; tests that flip it serialise
// here and restore "disabled" before returning.
static TEST_LOCK: Mutex<()> = Mutex::new(());

#[test]
fn real_allocations_are_counted_when_enabled() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    alloc::set_enabled(true);
    let (c0, b0) = alloc::thread_counters();
    let v: Vec<u8> = Vec::with_capacity(4096);
    std::hint::black_box(&v);
    let (c1, b1) = alloc::thread_counters();
    alloc::set_enabled(false);
    assert!(c1 > c0, "a fresh Vec allocation must count at least one event");
    assert!(b1 - b0 >= 4096, "at least the requested capacity in bytes, got {}", b1 - b0);
}

#[test]
fn disabled_profiling_counts_nothing() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    alloc::set_enabled(false);
    let before = alloc::thread_counters();
    let v: Vec<u64> = (0..10_000).collect();
    std::hint::black_box(&v);
    drop(v);
    assert_eq!(alloc::thread_counters(), before);
}

#[test]
fn realloc_growth_is_charged_incrementally() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    alloc::set_enabled(true);
    let mut v: Vec<u8> = Vec::with_capacity(64);
    let (_, b0) = alloc::thread_counters();
    v.reserve_exact(128); // grow 64 → 128: realloc charges the growth
    std::hint::black_box(&v);
    let (_, b1) = alloc::thread_counters();
    alloc::set_enabled(false);
    let grown = b1 - b0;
    // Whether the allocator realloc'd in place (64 fresh bytes) or moved
    // (a 128-byte alloc), the charge stays below a full double-count.
    assert!((64..=128).contains(&grown), "growth charged {grown} bytes");
}

#[test]
fn spans_capture_real_allocation_deltas() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _ = transer_trace::take_global_report();
    transer_trace::set_enabled(true);
    alloc::set_enabled(true);
    {
        let _span = transer_trace::span("test.alloc_span");
        let v: Vec<u8> = Vec::with_capacity(1 << 16);
        std::hint::black_box(&v);
    }
    let report = transer_trace::drain_report();
    alloc::set_enabled(false);
    transer_trace::set_enabled(false);
    let _ = transer_trace::take_global_report();
    let span = report.find_span("test.alloc_span").expect("span recorded");
    assert!(span.alloc_count >= 1);
    assert!(span.alloc_bytes >= 1 << 16, "span saw {} bytes", span.alloc_bytes);
}

#[test]
fn alloc_counted_measures_a_real_closure() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _ = transer_trace::take_global_report();
    transer_trace::set_enabled(true);
    alloc::set_enabled(true);
    let len = transer_trace::alloc_counted("test.alloc.count", "test.alloc.bytes", || {
        let v: Vec<u8> = Vec::with_capacity(8192);
        std::hint::black_box(&v);
        v.capacity()
    });
    let report = transer_trace::drain_report();
    alloc::set_enabled(false);
    transer_trace::set_enabled(false);
    let _ = transer_trace::take_global_report();
    assert_eq!(len, 8192);
    assert!(report.counter("test.alloc.count") >= 1);
    assert!(report.counter("test.alloc.bytes") >= 8192);
}

#[test]
fn row_interning_allocates_no_key_per_row() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // 10^4 rows of 4 columns, 5,000 distinct rows each seen twice.
    let rows = 10_000;
    let data: Vec<f64> = (0..rows * 4).map(|i| ((i / 4) % 5_000 + i % 4) as f64).collect();
    let matrix = FeatureMatrix::from_rows(data, rows, 4).unwrap();
    alloc::set_enabled(true);
    let (c0, _) = alloc::thread_counters();
    let interning = RowInterning::of(&matrix);
    let (c1, _) = alloc::thread_counters();
    alloc::set_enabled(false);
    assert_eq!(interning.unique_rows(), 5_000);
    // The map, the outputs and the unique matrix's doubling growth: a few
    // dozen allocations, where a key per row would make 10^4.
    assert!(c1 - c0 < 64, "interning {rows} rows made {} allocations", c1 - c0);
}

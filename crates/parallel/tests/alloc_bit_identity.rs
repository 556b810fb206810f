//! Allocation counters through the deterministic worker harvest: work
//! measured with `alloc_counted` inside pool workers must merge to
//! *bit-identical* counter totals at any worker count. The workload
//! allocates a deterministic amount per item, so the per-item deltas —
//! and therefore the merged sums — cannot depend on how items were
//! sharded across threads.

use std::sync::Mutex;

use transer_parallel::{CostHint, GrainMode, Pool};
use transer_trace::TraceReport;

// An unused `--extern` crate is never loaded, and an unloaded crate's
// `#[global_allocator]` is never registered — this linkage is what swaps
// the test binary's allocator to the counting one.
use transer_common as _;

/// Tracing state is process-global; tests that flip it serialise here.
static TEST_LOCK: Mutex<()> = Mutex::new(());

/// Per item: exactly one boxed slice of `64 + (x % 7) * 8` bytes, measured
/// by `alloc_counted` — fully deterministic in the item, not the thread.
fn traced_run(workers: usize) -> (u64, TraceReport) {
    let items: Vec<u64> = (0..499).collect();
    let pool = Pool::new(workers).with_grain(GrainMode::AlwaysPool);
    let hint = CostHint::with_per_item_nanos(items.len(), 2_000);
    let out = pool.par_map_costed(&items, hint, |&x| {
        transer_trace::alloc_counted("test.alloc.count", "test.alloc.bytes", || {
            let v: Vec<u8> = Vec::with_capacity(64 + (x as usize % 7) * 8);
            std::hint::black_box(&v);
            v.capacity() as u64
        })
    });
    (out.iter().sum(), transer_trace::drain_report())
}

#[test]
fn alloc_counters_are_bit_identical_across_worker_counts() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    transer_trace::set_enabled(true);
    transer_trace::alloc::set_enabled(true);
    let (sum1, report1) = traced_run(1);
    let others: Vec<_> = [2, 8, 64].iter().map(|&w| traced_run(w)).collect();
    transer_trace::alloc::set_enabled(false);
    transer_trace::set_enabled(false);
    let _ = transer_trace::take_global_report();

    let count = report1.counter("test.alloc.count");
    let bytes = report1.counter("test.alloc.bytes");
    assert!(count >= 499, "every item allocates at least once, saw {count}");
    assert!(bytes >= 499 * 64, "at least the requested capacities, saw {bytes}");
    for (w, (sum, report)) in [2usize, 8, 64].iter().zip(&others) {
        assert_eq!(*sum, sum1, "mapped output must be worker-count invariant");
        assert_eq!(
            report.counter("test.alloc.count"),
            count,
            "allocation event count diverged at {w} workers"
        );
        assert_eq!(
            report.counter("test.alloc.bytes"),
            bytes,
            "allocation byte count diverged at {w} workers"
        );
    }
}

#[test]
fn disabled_alloc_tracing_records_no_counters() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    transer_trace::set_enabled(true);
    transer_trace::alloc::set_enabled(false);
    let (_, report) = traced_run(4);
    transer_trace::set_enabled(false);
    let _ = transer_trace::take_global_report();
    assert_eq!(report.counter("test.alloc.count"), 0);
    assert_eq!(report.counter("test.alloc.bytes"), 0);
}

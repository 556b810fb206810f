//! Trace integration: counters and histograms recorded inside pool
//! workers merge to the same report at any worker count, and the disabled
//! path records nothing while leaving results bit-identical.

use std::sync::Mutex;

use transer_parallel::{CostHint, GrainMode, Pool};
use transer_trace::TraceReport;

/// Tracing state is process-global; tests that flip it serialise here.
static TEST_LOCK: Mutex<()> = Mutex::new(());

fn workload(workers: usize) -> (Vec<u64>, Vec<u64>, Vec<(usize, u64)>) {
    let items: Vec<u64> = (0..997).collect();
    // Pooled on any host. At 20 µs per item a pooled chunk holds 10 items
    // at every worker count here, so the recorded chunk sizes, like every
    // other counter, cannot depend on it.
    let pool = Pool::new(workers).with_grain(GrainMode::AlwaysPool);
    let hint = CostHint::with_per_item_nanos(items.len(), 20_000);
    let mapped = pool.par_map_costed(&items, hint, |&x| {
        transer_trace::counter("test.items", 1);
        if x % 3 == 0 {
            transer_trace::counter("test.fizz", 1);
        }
        transer_trace::observe("test.value", (x % 17) as f64);
        x.wrapping_mul(0x9e37_79b9) >> 7
    });
    let chunked = pool.par_chunks_costed(&items, Some(13), hint, |_, c| {
        transer_trace::counter("test.chunks", 1);
        transer_trace::observe("test.chunk_len", c.len() as f64);
        c.iter().map(|x| x + 1).collect()
    });
    // The scratch is a reusable buffer, as `par_map_init_costed` requires:
    // each item's result depends on the item alone, never on which items
    // the same worker saw before it.
    let initd = pool.par_map_init_costed(&items, hint, Vec::<u64>::new, |scratch, i, &x| {
        scratch.clear();
        scratch.extend([x, x >> 1, x >> 2]);
        transer_trace::counter("test.init_items", 1);
        (i, scratch.iter().fold(0, |acc, v| acc ^ v))
    });
    (mapped, chunked, initd)
}

type WorkloadOutput = (Vec<u64>, Vec<u64>, Vec<(usize, u64)>);

fn traced_run(workers: usize) -> (WorkloadOutput, TraceReport) {
    let out = workload(workers);
    (out, transer_trace::drain_report())
}

#[test]
fn merged_counters_and_histograms_are_worker_count_invariant() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    transer_trace::set_enabled(true);
    let (out1, report1) = traced_run(1);
    let results: Vec<_> = [2, 3, 8, 64].iter().map(|&w| traced_run(w)).collect();
    transer_trace::set_enabled(false);
    let _ = transer_trace::take_global_report();

    assert_eq!(report1.counter("test.items"), 997);
    assert_eq!(report1.counter("test.fizz"), 333);
    assert_eq!(report1.counter("test.chunks"), 997u64.div_ceil(13));
    assert_eq!(report1.counter("test.init_items"), 997);
    assert_eq!(report1.hists["test.value"].count, 997);
    for ((out, report), workers) in results.iter().zip([2, 3, 8, 64]) {
        assert_eq!(*out, out1, "results differ at workers={workers}");
        assert_eq!(report.counters, report1.counters, "counters differ at workers={workers}");
        assert_eq!(report.hists, report1.hists, "histograms differ at workers={workers}");
    }
}

#[test]
fn disabled_path_records_nothing_and_results_match() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    transer_trace::set_enabled(false);
    let (plain, empty_report) = traced_run(4);
    assert!(empty_report.is_empty(), "disabled run must record nothing");
    assert!(transer_trace::thread_buffer_is_clear());

    transer_trace::set_enabled(true);
    let (traced, report) = traced_run(4);
    transer_trace::set_enabled(false);
    let _ = transer_trace::take_global_report();

    assert!(!report.is_empty());
    assert_eq!(plain, traced, "tracing must not perturb results");
}

//! The `pool.dispatch` fault seam. A fault plan is armed for the whole
//! process, so these tests live in their own binary, apart from the unit
//! tests an armed plan would perturb, and serialise on
//! `transer_robust::test_lock`.

use transer_parallel::{CostHint, GrainMode, Pool};

#[test]
fn dispatch_fault_degrades_to_sequential_with_identical_results() {
    let _guard = transer_robust::test_lock();
    let items: Vec<u64> = (0..500).collect();
    // Pinned to the pooled path, so the fault meets a dispatch on any host.
    let pool = Pool::new(4).with_grain(GrainMode::AlwaysPool);
    let hint = CostHint::with_per_item_nanos(items.len(), 2_000);
    let clean = pool.par_map_costed(&items, hint, |x| x * 7 + 1);
    transer_robust::set_plan(Some("pool.dispatch:task_fail"));
    transer_trace::set_enabled(true);
    let faulted = pool.par_map_costed(&items, hint, |x| x * 7 + 1);
    let chunked = pool
        .par_chunks_costed(&items, Some(13), hint, |_, c| c.iter().map(|x| x * 7 + 1).collect());
    let with_init = pool.par_map_init_costed(&items, hint, || (), |_, _, x| x * 7 + 1);
    let report = transer_trace::drain_report();
    transer_trace::set_enabled(false);
    transer_robust::set_plan(None);
    assert_eq!(faulted, clean);
    assert_eq!(chunked, clean);
    assert_eq!(with_init, clean);
    assert_eq!(report.counter("robust.fallback.pool"), 3, "every call fell back");
}

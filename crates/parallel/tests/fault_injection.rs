//! The `pool.dispatch` fault seam. A fault plan is armed for the whole
//! process, so these tests live in their own binary, apart from the unit
//! tests an armed plan would perturb, and serialise on
//! `transer_robust::test_lock`.

use transer_parallel::Pool;

#[test]
fn dispatch_fault_degrades_to_sequential_with_identical_results() {
    let _guard = transer_robust::test_lock();
    let items: Vec<u64> = (0..500).collect();
    let clean = Pool::new(4).par_map(&items, |x| x * 7 + 1);
    transer_robust::set_plan(Some("pool.dispatch:task_fail"));
    let faulted = Pool::new(4).par_map(&items, |x| x * 7 + 1);
    let chunked = Pool::new(4).par_chunks(&items, 13, |_, c| c.iter().map(|x| x * 7 + 1).collect());
    let with_init = Pool::new(4).par_map_init(&items, || (), |_, _, x| x * 7 + 1);
    transer_robust::set_plan(None);
    assert_eq!(faulted, clean);
    assert_eq!(chunked, clean);
    assert_eq!(with_init, clean);
}

//! Property: every parallel primitive is exactly equivalent to its
//! sequential counterpart — same values, same order — for arbitrary
//! inputs (including empty and single-element), worker counts and grain
//! modes.

use proptest::prelude::*;
use transer_parallel::grain::INLINE_THRESHOLD_NANOS;
use transer_parallel::{CostHint, GrainMode, Pool};

/// Per-item estimates from arithmetic (40 ns) to a whole tree fit (1 ms).
const PER_ITEM_NANOS: [u64; 4] = [40, 2_000, 30_000, 1_000_000];

/// The dispatch cases every costed primitive must be invariant under: each
/// grain mode with the call's own hint, and `Auto` with the items hinted
/// at the inline threshold, so it takes the pooled path on a multi-core
/// host whatever the per-item class.
fn cases(hint: CostHint) -> [(GrainMode, CostHint); 4] {
    let per_item = INLINE_THRESHOLD_NANOS.div_ceil(hint.items().max(1) as u64);
    let at_threshold = CostHint::with_per_item_nanos(hint.items(), per_item);
    [
        (GrainMode::Auto, hint),
        (GrainMode::AlwaysInline, hint),
        (GrainMode::AlwaysPool, hint),
        (GrainMode::Auto, at_threshold),
    ]
}

proptest! {
    #[test]
    fn par_map_costed_equals_map_for_every_grain_mode(
        v in prop::collection::vec(any::<i64>(), 0..60),
        workers in 1usize..9,
        class in 0usize..4,
    ) {
        let f = |x: &i64| x.wrapping_mul(31).wrapping_add(7);
        let seq: Vec<i64> = v.iter().map(f).collect();
        let hint = CostHint::with_per_item_nanos(v.len(), PER_ITEM_NANOS[class]);
        for (mode, hint) in cases(hint) {
            let got = Pool::new(workers).with_grain(mode).par_map_costed(&v, hint, f);
            prop_assert_eq!(&got, &seq, "mode {:?} {:?}", mode, hint);
        }
    }

    #[test]
    fn par_map_init_costed_equals_indexed_map_for_every_grain_mode(
        v in prop::collection::vec(any::<u32>(), 0..60),
        workers in 1usize..9,
    ) {
        let seq: Vec<u64> = v
            .iter()
            .enumerate()
            .map(|(i, x)| (i as u64) ^ u64::from(x.to_le_bytes().iter().map(|&b| u32::from(b)).sum::<u32>()))
            .collect();
        let hint = CostHint::with_per_item_nanos(v.len(), 30_000);
        for (mode, hint) in cases(hint) {
            let got = Pool::new(workers).with_grain(mode).par_map_init_costed(
                &v,
                hint,
                || Vec::<u8>::with_capacity(8),
                |buf, i, x| {
                    buf.clear();
                    buf.extend(x.to_le_bytes());
                    (i as u64) ^ u64::from(buf.iter().map(|&b| u32::from(b)).sum::<u32>())
                },
            );
            prop_assert_eq!(&got, &seq, "mode {:?} {:?}", mode, hint);
        }
    }

    #[test]
    fn par_chunks_costed_pinned_equals_chunked_flat_map_for_every_grain_mode(
        v in prop::collection::vec(any::<i64>(), 0..60),
        workers in 1usize..9,
        chunk in 1usize..12,
    ) {
        // The closure output depends on chunk boundaries; pinning the
        // chunk must make every mode reproduce the sequential chunking.
        let f = |start: usize, c: &[i64]| -> Vec<i64> {
            c.iter().enumerate().map(|(k, x)| x.wrapping_add((start + k) as i64)).collect()
        };
        let mut seq = Vec::new();
        for start in (0..v.len()).step_by(chunk) {
            let end = (start + chunk).min(v.len());
            seq.extend(f(start, &v[start..end]));
        }
        let hint = CostHint::with_per_item_nanos(v.len(), 2_000);
        for (mode, hint) in cases(hint) {
            let got = Pool::new(workers).with_grain(mode).par_chunks_costed(&v, Some(chunk), hint, f);
            prop_assert_eq!(&got, &seq, "mode {:?} {:?}", mode, hint);
        }
    }

    #[test]
    fn par_chunks_costed_derived_equals_sequential_for_pure_items(
        v in prop::collection::vec(any::<i64>(), 0..60),
        workers in 1usize..9,
        class in 0usize..4,
    ) {
        let seq: Vec<i64> = v.iter().map(|x| x.wrapping_mul(13)).collect();
        let hint = CostHint::with_per_item_nanos(v.len(), PER_ITEM_NANOS[class]);
        for (mode, hint) in cases(hint) {
            let got = Pool::new(workers).with_grain(mode).par_chunks_costed(
                &v,
                None,
                hint,
                |_, c| c.iter().map(|x| x.wrapping_mul(13)).collect(),
            );
            prop_assert_eq!(&got, &seq, "mode {:?} {:?}", mode, hint);
        }
    }
}

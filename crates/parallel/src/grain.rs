//! Grain-size-aware dispatch: decide, per parallel call, whether spawning
//! workers can possibly pay for itself — and if it can, how big the work
//! chunks should be.
//!
//! The pool's scoped workers cost real time to spawn, join and merge.
//! `results/BENCH_parallel.json` showed that at small scales that fixed
//! cost *loses* against sequential execution (minhash 0.80×, forest_fit
//! 0.73× vs sequential at bench scale). The fix is not "more threads" but
//! a dispatch policy: every hot call site declares a [`CostHint`] — how
//! many items it has and roughly what one item costs — and the pool runs
//! the closure inline on the caller thread whenever the estimated total
//! work is below a measured threshold. Above the threshold, the chunk size
//! is derived from the hint (each chunk carries at least
//! [`CHUNK_TARGET_NANOS`] of estimated work) instead of the blind
//! `items / (workers * 4)` split.
//!
//! # Calibration
//!
//! The two constants below date from a calibration run that timed the
//! pool's spawn, join and merge overhead (`results/BENCH_grain.json`, kept
//! as history): the inline threshold sits two orders of magnitude above
//! it. Each call site declares its own per-item estimate in nanoseconds,
//! as a named constant beside the call. Compare's `PAIR_NANOS` and SEL's
//! `UNIQUE_ROW_NANOS` are timed on the workloads that run them; the
//! forest's and the presorted tree trainer's per-row costs come from that
//! calibration run; the MinHash value, index probe and per-row SEL
//! constants keep the figures of a retired per-class table (30 µs, 30 µs
//! and 2 µs), fitted to kernels several times slower than today's: about
//! 3 µs per distinct MinHash value is measured now. An estimate only needs
//! to be right to within an order of magnitude; a recalibration should
//! take seconds per item at each call site from traced spans.
//!
//! # Pinning the policy in tests
//!
//! Production pools run [`GrainMode::Auto`]. Tests pin
//! [`GrainMode::AlwaysInline`] or [`GrainMode::AlwaysPool`] per pool via
//! [`Pool::with_grain`](crate::Pool::with_grain) to check that both paths
//! give bit-identical results; to move an `Auto` call across the
//! boundary, they size its hint at [`INLINE_THRESHOLD_NANOS`].

use std::sync::OnceLock;

// ---------------------------------------------------------------------
// The dispatch constants (see "Calibration" above).
// ---------------------------------------------------------------------

/// Below this much estimated total work, dispatching to the pool cannot
/// recoup its spawn/join/merge overhead and the call runs inline.
pub const INLINE_THRESHOLD_NANOS: u64 = 1_000_000;

/// Pooled chunks are sized to carry at least this much estimated work, so
/// per-chunk dispatch overhead (an atomic claim plus a segment push) stays
/// far below the work itself.
pub const CHUNK_TARGET_NANOS: u64 = 200_000;

/// A call site's declaration of how much work a parallel call carries:
/// item count × estimated per-item cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostHint {
    items: usize,
    nanos_per_item: u64,
}

impl CostHint {
    /// Hint from an item count and a per-item estimate in nanoseconds,
    /// clamped to at least 1 ns.
    pub fn with_per_item_nanos(items: usize, nanos: u64) -> Self {
        CostHint { items, nanos_per_item: nanos.max(1) }
    }

    /// Number of items this call processes.
    pub fn items(&self) -> usize {
        self.items
    }

    /// Estimated total work in nanoseconds (saturating).
    pub fn estimated_nanos(&self) -> u64 {
        (self.items as u64).saturating_mul(self.nanos_per_item)
    }

    /// The pooled chunk size: each chunk carries at least
    /// [`CHUNK_TARGET_NANOS`] of estimated work, unless that would leave
    /// workers idle (never larger than `ceil(items / workers)`).
    pub fn chunk_size(&self, workers: usize) -> usize {
        let target = (CHUNK_TARGET_NANOS / self.nanos_per_item.max(1)).max(1) as usize;
        let fair = self.items.div_ceil(workers.max(1)).max(1);
        target.min(fair)
    }
}

/// The dispatch policy in force for a pool: the automatic threshold rule,
/// or one of the two paths pinned by a test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GrainMode {
    /// Inline below [`INLINE_THRESHOLD_NANOS`], pool at or above it.
    Auto,
    /// Every multi-item call takes the pooled path.
    AlwaysPool,
    /// Every call runs inline on the caller thread.
    AlwaysInline,
}

/// The machine's available parallelism, read once. When the host has a
/// single core, pooling can never win and the auto policy always inlines.
fn hardware_parallelism() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Should this call take the pooled path? `workers` is the pool's
/// effective worker count. Single-item calls always inline; a pinned mode
/// wins; the auto rule inlines when either the pool or the hardware is
/// effectively sequential, or when the estimated work is under threshold.
pub fn should_pool(hint: &CostHint, workers: usize, mode: GrainMode) -> bool {
    if hint.items() <= 1 {
        return false;
    }
    match mode {
        GrainMode::AlwaysInline => false,
        GrainMode::AlwaysPool => true,
        GrainMode::Auto => {
            if workers == 1 || hardware_parallelism() == 1 {
                return false;
            }
            hint.estimated_nanos() >= INLINE_THRESHOLD_NANOS
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimate_and_chunking() {
        let h = CostHint::with_per_item_nanos(1000, 2_000);
        assert_eq!(h.items(), 1000);
        assert_eq!(h.estimated_nanos(), 1000 * 2_000);
        // Chunks carry >= CHUNK_TARGET_NANOS of work...
        let chunk = h.chunk_size(2);
        assert!(chunk as u64 * 2_000 >= CHUNK_TARGET_NANOS.min(h.estimated_nanos() / 2));
        // ...but heavy items always split down to singles,
        assert_eq!(CostHint::with_per_item_nanos(24, 1_000_000).chunk_size(4), 1);
        // and no chunk starves the other workers.
        assert_eq!(CostHint::with_per_item_nanos(8, 40).chunk_size(4), 2);
        assert_eq!(CostHint::with_per_item_nanos(10, 0).chunk_size(0), 10);
    }

    #[test]
    fn estimate_saturates() {
        let h = CostHint::with_per_item_nanos(usize::MAX, u64::MAX);
        assert_eq!(h.estimated_nanos(), u64::MAX);
    }

    #[test]
    fn overrides_beat_the_threshold_rule() {
        let tiny = CostHint::with_per_item_nanos(10, 40);
        let huge = CostHint::with_per_item_nanos(1_000_000, 30_000);
        assert!(!should_pool(&tiny, 8, GrainMode::AlwaysInline));
        assert!(!should_pool(&huge, 8, GrainMode::AlwaysInline));
        assert!(should_pool(&tiny, 8, GrainMode::AlwaysPool));
        assert!(should_pool(&huge, 8, GrainMode::AlwaysPool));
        // Single-item calls inline no matter what.
        let heavy = |items| CostHint::with_per_item_nanos(items, 1_000_000);
        assert!(!should_pool(&heavy(1), 8, GrainMode::AlwaysPool));
        assert!(!should_pool(&heavy(0), 8, GrainMode::AlwaysPool));
    }

    #[test]
    fn auto_rule_respects_workers_and_threshold() {
        let big = CostHint::with_per_item_nanos(1_000_000, 30_000);
        assert!(!should_pool(&big, 1, GrainMode::Auto), "one worker is sequential");
        let small = CostHint::with_per_item_nanos(4, 40);
        assert!(!should_pool(&small, 8, GrainMode::Auto), "under threshold inlines");
        // The boundary: ten items pool once their estimate reaches the
        // threshold, and inline one nanosecond per item below it.
        let at = CostHint::with_per_item_nanos(10, INLINE_THRESHOLD_NANOS / 10);
        let below = CostHint::with_per_item_nanos(10, INLINE_THRESHOLD_NANOS / 10 - 1);
        // On a single-core host the auto rule still inlines; elsewhere it
        // must pool once the estimate reaches the threshold.
        let multi_core = std::thread::available_parallelism().map_or(1, |n| n.get()) > 1;
        assert_eq!(should_pool(&at, 8, GrainMode::Auto), multi_core);
        assert!(!should_pool(&below, 8, GrainMode::Auto));
    }
}

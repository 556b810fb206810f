//! A from-scratch, deterministic, std-only parallel executor for the
//! workspace's hot paths (pair comparison, SEL k-NN scoring, forest
//! training, MinHash signatures).
//!
//! # Design
//!
//! A [`Pool`] is a *worker-count policy*, not a set of persistent threads:
//! every parallel call spawns scoped workers via [`std::thread::scope`] and
//! joins them before returning, so borrowed inputs need no `'static`
//! lifetimes, no `unsafe`, and no shutdown protocol. Workers claim batches
//! of contiguous indices from an atomic cursor (dynamic load balancing for
//! ragged workloads like tree training) and each batch's results carry
//! their starting index, so the final merge reassembles the output **in
//! input order regardless of scheduling**. Combined with pure per-item
//! closures this makes every primitive bit-identical to its sequential
//! counterpart — the property the determinism tests across the workspace
//! pin down.
//!
//! # Worker count
//!
//! [`Pool::global`] reads the `TRANSER_THREADS` environment variable once
//! per process: unset, `0` or unparseable values mean
//! [`std::thread::available_parallelism`]. `TRANSER_THREADS=1` disables
//! threading entirely (the sequential fast path runs on the calling
//! thread), which is how the experiment harness reproduces the paper's
//! single-threaded runtimes.
//!
//! # Grain-size-aware dispatch
//!
//! Every primitive takes a [`CostHint`] and only spawns workers when the
//! estimated work can recoup the spawn/merge overhead; below the
//! threshold the closure runs inline on the caller thread, and above it
//! the chunk size is derived from the hint. Because every primitive is
//! bit-identical to its sequential form, the dispatch decision never
//! changes results — only where and in what grouping the work runs. See
//! the [`grain`] module for the policy and its constants.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod grain;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

pub use grain::{CostHint, GrainMode};

/// Environment variable selecting the global worker count.
pub const THREADS_ENV: &str = transer_common::env::THREADS;

/// A deterministic parallel executor with a fixed worker count.
///
/// Cheap to create and copy; threads only exist for the duration of a
/// single `par_*` call. All primitives return results in input order and
/// are bit-identical to their sequential equivalents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    workers: usize,
    /// Grain-dispatch policy: [`GrainMode::Auto`] unless a test pins it.
    grain: GrainMode,
}

fn global_workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| {
        match transer_common::env::parsed::<usize>(THREADS_ENV, "a worker count", "all cores") {
            Some(n) if n > 0 => n,
            _ => std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    })
}

impl Default for Pool {
    fn default() -> Self {
        Pool::global()
    }
}

impl Pool {
    /// A pool with an explicit worker count (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        Pool { workers: workers.max(1), grain: GrainMode::Auto }
    }

    /// The process-wide pool: worker count from `TRANSER_THREADS`, or
    /// [`std::thread::available_parallelism`] when unset. The variable is
    /// read once; later changes do not affect the global pool.
    pub fn global() -> Self {
        Pool { workers: global_workers(), grain: GrainMode::Auto }
    }

    /// A single-worker pool: every primitive runs sequentially on the
    /// calling thread.
    pub fn sequential() -> Self {
        Pool { workers: 1, grain: GrainMode::Auto }
    }

    /// Pin the grain-dispatch policy for this pool: how the bit-identity
    /// tests force the inline and pooled paths.
    pub fn with_grain(mut self, mode: GrainMode) -> Self {
        self.grain = mode;
        self
    }

    /// Number of workers this pool uses.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The worker count a primitive should actually use: the pool's count,
    /// or 1 when the `pool.dispatch` fault fires (simulated dispatch
    /// failure degrades to the sequential path, which is bit-identical by
    /// construction). A single relaxed load when `TRANSER_FAULT` is unset.
    fn effective_workers(&self) -> usize {
        if transer_robust::fired(transer_robust::site::POOL_DISPATCH).is_some() {
            transer_trace::counter("robust.fallback.pool", 1);
            1
        } else {
            self.workers
        }
    }

    /// Map `f` over `items`, preserving input order: equivalent to
    /// `items.iter().map(f).collect()`, including the exact output order,
    /// for any pure `f`. Runs inline on the caller thread when the hint's
    /// estimated work is under threshold, otherwise on the pool with a
    /// hint-derived chunk size.
    pub fn par_map_costed<T, R, F>(&self, items: &[T], hint: CostHint, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        debug_assert_eq!(hint.items(), items.len(), "cost hint item count");
        let workers = self.effective_workers();
        let batch = hint.chunk_size(workers);
        let fill = |start: usize, end: usize, out: &mut Vec<R>| {
            out.extend(items[start..end].iter().map(&f));
        };
        if self.pool_for(&hint, workers, batch) {
            self.run_batched(items.len(), batch, workers, fill)
        } else {
            let mut out = Vec::with_capacity(items.len());
            fill(0, items.len(), &mut out);
            out
        }
    }

    /// Indexed map with per-worker scratch state, dispatched as
    /// [`Pool::par_map_costed`]: `init` runs once per worker (once in total
    /// on the inline path) and `f` receives the scratch, the item's index
    /// and the item.
    ///
    /// The scratch must not influence results across items (use it for
    /// reusable buffers, not accumulators) — determinism requires
    /// `f(&mut fresh_state, i, item)` to equal `f(&mut reused_state, i,
    /// item)`.
    pub fn par_map_init_costed<T, R, S, I, F>(
        &self,
        items: &[T],
        hint: CostHint,
        init: I,
        f: F,
    ) -> Vec<R>
    where
        T: Sync,
        R: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize, &T) -> R + Sync,
    {
        debug_assert_eq!(hint.items(), items.len(), "cost hint item count");
        let workers = self.effective_workers();
        let batch = hint.chunk_size(workers);
        if self.pool_for(&hint, workers, batch) {
            self.run_init(items, batch, workers, &init, &f)
        } else {
            let mut state = init();
            items.iter().enumerate().map(|(i, t)| f(&mut state, i, t)).collect()
        }
    }

    /// Process `items` in contiguous chunks, dispatched as
    /// [`Pool::par_map_costed`]. `f` receives each chunk's starting index
    /// and slice and returns that chunk's output; the chunk outputs are
    /// concatenated in chunk order. The chunk size is derived from the
    /// hint unless `pinned` fixes it — call sites whose floating-point
    /// results depend on chunk boundaries pin the chunk so results never
    /// depend on the dispatch decision. The inline path iterates the same
    /// chunk boundaries the pooled path would use, so the two are
    /// bit-identical for *any* `f`, not just per-item-pure ones.
    ///
    /// # Panics
    /// Panics when `pinned` is `Some(0)`.
    pub fn par_chunks_costed<T, R, F>(
        &self,
        items: &[T],
        pinned: Option<usize>,
        hint: CostHint,
        f: F,
    ) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &[T]) -> Vec<R> + Sync,
    {
        debug_assert_eq!(hint.items(), items.len(), "cost hint item count");
        if let Some(chunk) = pinned {
            assert!(chunk > 0, "chunk size must be positive");
        }
        let workers = self.effective_workers();
        let chunk = pinned.unwrap_or_else(|| hint.chunk_size(workers));
        if self.pool_for(&hint, workers, chunk) {
            self.run_chunks(items, chunk, workers, f)
        } else {
            let mut out = Vec::new();
            for start in (0..items.len()).step_by(chunk) {
                let end = (start + chunk).min(items.len());
                out.extend(f(start, &items[start..end]));
            }
            out
        }
    }

    /// Apply the grain policy for one call and record the decision: `true`
    /// means take the pooled path with the given chunk size.
    fn pool_for(&self, hint: &CostHint, workers: usize, chunk: usize) -> bool {
        if grain::should_pool(hint, workers, self.grain) {
            transer_trace::counter("parallel.dispatch.pooled", 1);
            transer_trace::observe("parallel.chunk_size", chunk as f64);
            true
        } else {
            transer_trace::counter("parallel.dispatch.inline", 1);
            false
        }
    }

    /// The pooled engine behind `par_map_init_costed`: workers claim
    /// `batch`-sized index ranges from an atomic cursor.
    fn run_init<T, R, S, I, F>(
        &self,
        items: &[T],
        batch: usize,
        workers: usize,
        init: &I,
        f: &F,
    ) -> Vec<R>
    where
        T: Sync,
        R: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize, &T) -> R + Sync,
    {
        let cursor = AtomicUsize::new(0);
        let spawn = workers.min(items.len().div_ceil(batch));
        let mut segments: Vec<(usize, Vec<R>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..spawn)
                .map(|_| {
                    scope.spawn(|| {
                        let mut state = init();
                        let mut local: Vec<(usize, Vec<R>)> = Vec::new();
                        loop {
                            let start = cursor.fetch_add(batch, Ordering::Relaxed);
                            if start >= items.len() {
                                break;
                            }
                            let end = (start + batch).min(items.len());
                            let out: Vec<R> = items[start..end]
                                .iter()
                                .enumerate()
                                .map(|(k, t)| f(&mut state, start + k, t))
                                .collect();
                            local.push((start, out));
                        }
                        (local, transer_trace::worker_harvest())
                    })
                })
                .collect();
            join_absorbing(handles)
        });
        merge_segments(&mut segments, items.len())
    }

    /// The pooled engine behind `par_chunks_costed`: workers claim whole
    /// chunks from an atomic cursor; chunk outputs concatenate in
    /// ascending start order.
    fn run_chunks<T, R, F>(&self, items: &[T], chunk: usize, workers: usize, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &[T]) -> Vec<R> + Sync,
    {
        let cursor = AtomicUsize::new(0);
        let n_chunks = items.len().div_ceil(chunk);
        let spawn = workers.min(n_chunks);
        let mut segments: Vec<(usize, Vec<R>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..spawn)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local: Vec<(usize, Vec<R>)> = Vec::new();
                        loop {
                            let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                            if start >= items.len() {
                                break;
                            }
                            let end = (start + chunk).min(items.len());
                            local.push((start, f(start, &items[start..end])));
                        }
                        (local, transer_trace::worker_harvest())
                    })
                })
                .collect();
            join_absorbing(handles)
        });
        // Chunk outputs may have arbitrary lengths, so concatenate by
        // ascending start index rather than through `merge_segments` (which
        // checks the one-output-per-item invariant).
        segments.sort_unstable_by_key(|&(start, _)| start);
        segments.into_iter().flat_map(|(_, v)| v).collect()
    }

    /// The pooled engine behind `par_map_costed`: workers claim
    /// `batch`-sized index ranges from an atomic cursor and the segments
    /// merge back in input order.
    fn run_batched<R, F>(&self, n: usize, batch: usize, workers: usize, fill: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, usize, &mut Vec<R>) + Sync,
    {
        let cursor = AtomicUsize::new(0);
        let spawn = workers.min(n.div_ceil(batch));
        let mut segments: Vec<(usize, Vec<R>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..spawn)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local: Vec<(usize, Vec<R>)> = Vec::new();
                        loop {
                            let start = cursor.fetch_add(batch, Ordering::Relaxed);
                            if start >= n {
                                break;
                            }
                            let end = (start + batch).min(n);
                            let mut out = Vec::with_capacity(end - start);
                            fill(start, end, &mut out);
                            local.push((start, out));
                        }
                        (local, transer_trace::worker_harvest())
                    })
                })
                .collect();
            join_absorbing(handles)
        });
        merge_segments(&mut segments, n)
    }
}

/// What each worker thread returns: its ordered `(start, results)`
/// segments plus its harvested trace buffer.
type WorkerHandle<'scope, R> =
    std::thread::ScopedJoinHandle<'scope, (Vec<(usize, Vec<R>)>, transer_trace::WorkerTrace)>;

/// Join workers in spawn order, absorbing each worker's trace buffer into
/// the owning thread as it lands, and concatenate their segment lists.
///
/// Joining (and therefore absorbing) in spawn order — not completion
/// order — is what makes merged trace counters and histograms
/// deterministic for any worker count; segment order does not matter
/// because [`merge_segments`] sorts by start index.
fn join_absorbing<R: Send>(handles: Vec<WorkerHandle<'_, R>>) -> Vec<(usize, Vec<R>)> {
    let mut segments = Vec::new();
    for handle in handles {
        let (local, harvest) = handle.join().expect("worker panicked");
        transer_trace::absorb(harvest);
        segments.extend(local);
    }
    segments
}

/// Reassemble per-batch outputs into input order.
fn merge_segments<R>(segments: &mut Vec<(usize, Vec<R>)>, n: usize) -> Vec<R> {
    segments.sort_unstable_by_key(|&(start, _)| start);
    let mut out = Vec::with_capacity(n);
    for (start, seg) in segments.drain(..) {
        debug_assert_eq!(start, out.len(), "batch merge out of order");
        out.extend(seg);
    }
    assert_eq!(out.len(), n, "parallel map lost or duplicated items");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hint of `items` items at 20 µs each: 10 items per pooled chunk
    /// (`CHUNK_TARGET_NANOS / 20 µs`) at any worker count up to
    /// `items / 10`.
    fn hint(items: usize) -> CostHint {
        CostHint::with_per_item_nanos(items, 20_000)
    }

    /// A pool of `workers` that takes the pooled path on any host.
    fn pooled(workers: usize) -> Pool {
        Pool::new(workers).with_grain(GrainMode::AlwaysPool)
    }

    #[test]
    fn par_map_matches_sequential_map() {
        let items: Vec<u64> = (0..1000).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for workers in [1, 2, 3, 8, 64] {
            let got = pooled(workers).par_map_costed(&items, hint(items.len()), |x| x * x + 1);
            assert_eq!(got, expect, "workers={workers}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let pool = pooled(4);
        assert!(pool.par_map_costed(&[] as &[u8], hint(0), |x| *x).is_empty());
        assert_eq!(pool.par_map_costed(&[5u8], hint(1), |x| *x * 2), vec![10]);
        assert!(pool
            .par_chunks_costed(&[] as &[u8], Some(3), hint(0), |_, c| c.to_vec())
            .is_empty());
        let none: Vec<u8> =
            pool.par_map_init_costed(&[], hint(0), Vec::<u8>::new, |_, _, x: &u8| *x);
        assert!(none.is_empty());
    }

    #[test]
    fn par_map_init_sees_correct_indices() {
        let items: Vec<i32> = (0..503).map(|i| i * 3).collect();
        for workers in [1, 4] {
            let got = pooled(workers).par_map_init_costed(
                &items,
                hint(items.len()),
                || 0usize, // scratch: counts items this worker handled
                |seen, i, x| {
                    *seen += 1;
                    (i, *x)
                },
            );
            let expect: Vec<(usize, i32)> = items.iter().copied().enumerate().collect();
            assert_eq!(got, expect, "workers={workers}");
        }
    }

    #[test]
    fn par_chunks_concatenates_in_order() {
        let items: Vec<u32> = (0..257).collect();
        let expect: Vec<u32> = items.iter().map(|x| x + 7).collect();
        for (workers, chunk) in [(1, 10), (4, 1), (4, 10), (4, 300), (7, 13)] {
            let got = pooled(workers).par_chunks_costed(
                &items,
                Some(chunk),
                hint(items.len()),
                |_, c| c.iter().map(|x| x + 7).collect(),
            );
            assert_eq!(got, expect, "workers={workers} chunk={chunk}");
        }
    }

    #[test]
    fn par_chunks_passes_chunk_starts() {
        let items = [0u8; 95];
        let starts =
            pooled(3).par_chunks_costed(&items, Some(20), hint(items.len()), |start, c| {
                vec![(start, c.len())]
            });
        assert_eq!(starts, vec![(0, 20), (20, 20), (40, 20), (60, 20), (80, 15)]);
    }

    #[test]
    fn variable_length_chunk_outputs() {
        // Chunks may expand or filter; concatenation must stay in order.
        let items: Vec<usize> = (0..100).collect();
        let got = pooled(4).par_chunks_costed(&items, Some(7), hint(items.len()), |_, c| {
            c.iter().filter(|&&x| x % 2 == 0).copied().collect()
        });
        let expect: Vec<usize> = (0..100).filter(|x| x % 2 == 0).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn workers_clamped_and_queried() {
        assert_eq!(Pool::new(0).workers(), 1);
        assert_eq!(Pool::new(5).workers(), 5);
        assert_eq!(Pool::sequential().workers(), 1);
        assert!(Pool::global().workers() >= 1);
        assert_eq!(Pool::default(), Pool::global());
    }

    #[test]
    fn ragged_workloads_balance() {
        // Item cost varies by orders of magnitude; results must still be
        // exact and ordered.
        let items: Vec<u64> = (0..64).map(|i| if i % 8 == 0 { 200_000 } else { 10 }).collect();
        let busy = |n: &u64| (0..*n).fold(0u64, |a, x| a.wrapping_add(x * x));
        let seq: Vec<u64> = items.iter().map(busy).collect();
        let one_per_chunk = CostHint::with_per_item_nanos(items.len(), grain::CHUNK_TARGET_NANOS);
        assert_eq!(pooled(4).par_map_costed(&items, one_per_chunk, busy), seq);
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn zero_chunk_panics() {
        pooled(2).par_chunks_costed(&[1u8], Some(0), hint(1), |_, c| c.to_vec());
    }

    #[test]
    fn costed_primitives_match_sequential_under_every_mode() {
        let items: Vec<u64> = (0..777).collect();
        let map_expect: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        let init_expect: Vec<u64> = items.iter().enumerate().map(|(i, x)| x + i as u64).collect();
        let trivial = CostHint::with_per_item_nanos(items.len(), 40);
        // Sized at the inline threshold, so `Auto` pools on a multi-core host.
        let per_item = grain::INLINE_THRESHOLD_NANOS.div_ceil(items.len() as u64);
        let at_threshold = CostHint::with_per_item_nanos(items.len(), per_item);
        let cases = [
            (GrainMode::Auto, trivial),
            (GrainMode::AlwaysInline, trivial),
            (GrainMode::AlwaysPool, trivial),
            (GrainMode::Auto, at_threshold),
        ];
        for (mode, hint) in cases {
            for workers in [1, 4] {
                let pool = Pool::new(workers).with_grain(mode);
                assert_eq!(
                    pool.par_map_costed(&items, hint, |x| x * 3 + 1),
                    map_expect,
                    "{mode:?} {hint:?} workers={workers}"
                );
                assert_eq!(
                    pool.par_map_init_costed(&items, hint, || 0u64, |_, i, x| x + i as u64),
                    init_expect,
                    "{mode:?} {hint:?} workers={workers}"
                );
                // Per-item-pure chunk closure: any chunking is equivalent.
                assert_eq!(
                    pool.par_chunks_costed(&items, None, hint, |_, c| {
                        c.iter().map(|x| x * 3 + 1).collect()
                    }),
                    map_expect,
                    "{mode:?} {hint:?} workers={workers}"
                );
            }
        }
    }

    #[test]
    fn pinned_chunks_see_identical_boundaries_inline_and_pooled() {
        // The closure's output depends on the chunk start, so this only
        // passes when the inline path iterates the same boundaries the
        // pooled path claims.
        let items: Vec<u32> = (0..301).collect();
        let hint = CostHint::with_per_item_nanos(items.len(), 1_000_000);
        let f = |start: usize, c: &[u32]| -> Vec<u64> {
            c.iter().map(|x| u64::from(*x) * 1000 + start as u64).collect()
        };
        let inline = Pool::new(4).with_grain(GrainMode::AlwaysInline);
        assert_eq!(
            inline.par_chunks_costed(&items, Some(32), hint, f),
            pooled(4).par_chunks_costed(&items, Some(32), hint, f),
        );
    }

    #[test]
    fn dispatch_decisions_are_counted() {
        let items: Vec<u64> = (0..64).collect();
        let hint = CostHint::with_per_item_nanos(items.len(), 30_000);
        transer_trace::set_enabled(true);
        let inline = Pool::new(4).with_grain(GrainMode::AlwaysInline);
        let a = pooled(4).par_map_costed(&items, hint, |x| x + 1);
        let b = inline.par_map_costed(&items, hint, |x| x + 1);
        let report = transer_trace::drain_report();
        transer_trace::set_enabled(false);
        assert_eq!(a, b);
        assert!(report.counter("parallel.dispatch.pooled") >= 1);
        assert!(report.counter("parallel.dispatch.inline") >= 1);
        assert!(report.hists["parallel.chunk_size"].count >= 1);
    }
}

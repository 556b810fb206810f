//! **transer-trace** — a from-scratch, std-only structured observability
//! layer: hierarchical spans (monotonic-clock timings with parent/child
//! nesting), named counters and log2-bucketed histograms.
//!
//! # Zero overhead when disabled
//!
//! Tracing is off unless the `TRANSER_TRACE` environment variable is set
//! to something other than `0`/`false`/`off`/empty. Every recording entry
//! point starts with [`enabled`] — a single relaxed atomic load and a
//! compare, branch-predicted false after the first call — so instrumented
//! hot loops cost a handful of branch-predictable instructions when
//! disabled. Instrumentation is also *placed* at batch granularity (per
//! chunk, per query, per node) rather than per element wherever possible,
//! so even the enabled path stays cheap.
//!
//! Tracing never changes results: collectors are observers, all merged
//! state is commutative or order-pinned, and the workspace's bit-identity
//! tests run with tracing on and off.
//!
//! # Threading model
//!
//! Every thread records into a thread-local buffer — no locks, no atomics
//! beyond the enabled flag. The `transer-parallel` pool harvests each
//! worker's buffer ([`worker_harvest`]) as the worker finishes and the
//! owning thread absorbs them in worker spawn order ([`absorb`]), so the
//! merged counters and histograms are identical for any worker count.
//!
//! # Reports
//!
//! [`drain_report`] moves the calling thread's buffer into a
//! [`TraceReport`] (and folds a copy into a process-wide accumulator so
//! harnesses that run many pipelines can collect everything at the end via
//! [`take_global_report`]). Reports serialise to a versioned JSON schema
//! rendered by the `trace_report` bin.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
mod collect;
pub mod hist;
pub mod json;
pub mod ledger;
mod report;

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::Instant;

pub use collect::{absorb, worker_harvest, WorkerTrace};
pub use hist::Histogram;
pub use report::{SpanNode, TraceReport, Warning, REPORT_VERSION};

/// Environment variable enabling tracing (`0`/`false`/`off`/empty = off).
pub const TRACE_ENV: &str = "TRANSER_TRACE";

/// 0 = uninitialised, 1 = disabled, 2 = enabled.
static STATE: AtomicU8 = AtomicU8::new(0);

#[cold]
fn init_state() -> u8 {
    let on = match std::env::var(TRACE_ENV) {
        Ok(v) => {
            let t = v.trim();
            !(t.is_empty()
                || t == "0"
                || t.eq_ignore_ascii_case("false")
                || t.eq_ignore_ascii_case("off"))
        }
        Err(_) => false,
    };
    let state = if on { 2 } else { 1 };
    // A racing `set_enabled` wins; the stored state is what matters.
    match STATE.compare_exchange(0, state, Ordering::Relaxed, Ordering::Relaxed) {
        Ok(_) => state,
        Err(current) => current,
    }
}

/// Is tracing enabled? The fast path — one relaxed load and a compare —
/// is what every instrumented call site pays when tracing is off.
#[inline]
pub fn enabled() -> bool {
    let state = STATE.load(Ordering::Relaxed);
    if state == 0 {
        return init_state() == 2;
    }
    state == 2
}

/// Force tracing on or off for the whole process, overriding
/// `TRANSER_TRACE`. For tests and benchmarks (environment variables are
/// process-global and read once; this flips the same switch directly).
pub fn set_enabled(on: bool) {
    STATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// Increment the named counter by `delta`. No-op when disabled.
#[inline]
pub fn counter(name: &'static str, delta: u64) {
    if enabled() && delta > 0 {
        collect::with(|c| c.add_counter(name, delta));
    }
}

/// Record one observation into the named log2 histogram. No-op when
/// disabled.
#[inline]
pub fn observe(name: &'static str, value: f64) {
    if enabled() {
        collect::with(|c| c.observe(name, value, 1));
    }
}

/// Record `n` identical observations into the named histogram. No-op when
/// disabled.
#[inline]
pub fn observe_n(name: &'static str, value: f64, n: u64) {
    if enabled() && n > 0 {
        collect::with(|c| c.observe(name, value, n));
    }
}

/// An RAII span guard: the span closes (and its duration is recorded into
/// the thread-local span tree) when the guard drops.
#[must_use = "a span guard measures until it is dropped"]
pub struct Span {
    opened: bool,
}

/// Open a nested span. A complete no-op when disabled.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span { opened: false };
    }
    collect::with(|c| c.open_span(name));
    Span { opened: true }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.opened {
            collect::with(|c| c.close_span(None));
        }
    }
}

/// A span that *always* measures wall-clock time — [`TimedSpan::finish`]
/// returns the elapsed seconds whether or not tracing is enabled — and
/// records itself into the span tree only when tracing is on.
///
/// This is how pipeline diagnostics (`Diagnostics` phase seconds) derive
/// from the span tree without making timings depend on `TRANSER_TRACE`.
#[must_use = "call finish() to read the elapsed seconds"]
pub struct TimedSpan {
    start: Instant,
    opened: bool,
}

/// Open a timed span (see [`TimedSpan`]).
#[inline]
pub fn timed(name: &'static str) -> TimedSpan {
    let opened = enabled();
    if opened {
        collect::with(|c| c.open_span(name));
    }
    TimedSpan { start: Instant::now(), opened }
}

impl TimedSpan {
    /// Close the span and return its wall-clock duration in seconds.
    pub fn finish(mut self) -> f64 {
        let secs = self.start.elapsed().as_secs_f64();
        if self.opened {
            collect::with(|c| c.close_span(Some(secs)));
            self.opened = false;
        }
        secs
    }
}

impl Drop for TimedSpan {
    fn drop(&mut self) {
        if self.opened {
            let secs = self.start.elapsed().as_secs_f64();
            collect::with(|c| c.close_span(Some(secs)));
        }
    }
}

/// Run `f`, attributing the allocation events/bytes it performs on the
/// calling thread to the two named counters. A plain call to `f` unless
/// both tracing *and* allocation profiling (`TRANSER_ALLOC_TRACE`) are on.
///
/// Unlike per-span attribution, counters merge through the deterministic
/// worker harvest — so scoped alloc totals recorded inside pool workers
/// are bit-identical at any worker count, exactly like every other
/// counter.
#[inline]
pub fn alloc_counted<R>(
    count_name: &'static str,
    bytes_name: &'static str,
    f: impl FnOnce() -> R,
) -> R {
    if !enabled() || !alloc::enabled() {
        return f();
    }
    let (c0, b0) = alloc::thread_counters();
    let out = f();
    let (c1, b1) = alloc::thread_counters();
    counter(count_name, c1.wrapping_sub(c0));
    counter(bytes_name, b1.wrapping_sub(b0));
    out
}

/// Record a structured warning. The warning always goes to stderr (it
/// reports a misconfiguration the user should see regardless of tracing)
/// and is additionally kept in the report when tracing is enabled.
pub fn warn(context: &str, message: &str) {
    eprintln!("[transer] warning: {context}: {message}");
    if enabled() {
        collect::with(|c| {
            c.push_warning(Warning { context: context.to_string(), message: message.to_string() });
        });
    }
}

/// The standard warning for a set-but-unparsable `TRANSER_*` environment
/// variable that falls back to a default instead of failing.
pub fn warn_invalid_env(var: &str, value: &str, expected: &str, fallback: &str) {
    warn("env", &format!("{var}={value:?} is not {expected}; using {fallback}"));
}

/// Process-wide accumulator of everything [`drain_report`] has drained.
static GLOBAL: Mutex<Option<TraceReport>> = Mutex::new(None);

/// Move the calling thread's buffer into a [`TraceReport`]. A copy is
/// folded into the process-wide accumulator (see [`take_global_report`]).
/// Returns an empty report when tracing is disabled.
pub fn drain_report() -> TraceReport {
    if !enabled() {
        return TraceReport::default();
    }
    // Open spans stay on the thread's stack: they belong to a future drain
    // once they close.
    let report = collect::with(|c| c.take_report());
    if !report.is_empty() {
        // A panicking holder cannot corrupt the accumulator (every critical
        // section is a merge/take that leaves it valid), so recover the
        // report from a poisoned lock instead of propagating the panic.
        let mut global = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
        global.get_or_insert_with(TraceReport::default).merge(report.clone());
    }
    report
}

/// Drain the calling thread, then *copy* the process-wide accumulated
/// report without clearing it. For observers (e.g. the benchmark's
/// summary line) that want the counters-so-far while leaving [`take_global_report`]'s
/// take-and-clear semantics to the experiment harness.
pub fn peek_global_report() -> TraceReport {
    let _ = drain_report();
    GLOBAL.lock().unwrap_or_else(|e| e.into_inner()).clone().unwrap_or_default()
}

/// Drain the calling thread, then take (and clear) the process-wide
/// accumulated report: the union of every [`drain_report`] since the last
/// take. This is how experiment harnesses that run many pipelines write
/// one `TRACE_<task>.json` at the end.
pub fn take_global_report() -> TraceReport {
    // `drain_report` folds the thread's tail into the accumulator, so after
    // it the accumulator is the complete picture.
    let _ = drain_report();
    GLOBAL.lock().unwrap_or_else(|e| e.into_inner()).take().unwrap_or_default()
}

/// True when the calling thread's buffer holds nothing (no open spans, no
/// recorded data). Used by the disabled-path tests.
pub fn thread_buffer_is_clear() -> bool {
    collect::with(|c| c.is_clear())
}

#[cfg(test)]
mod tests {
    use super::*;

    // Tracing state is process-global; every test that flips it runs under
    // this lock and restores "disabled" at the end. Shared with the
    // `alloc` module's tests, which flip the (equally global) allocation
    // profiling switch.
    pub(crate) static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn with_tracing<R>(on: bool, f: impl FnOnce() -> R) -> R {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let _ = take_global_report(); // isolate from earlier tests
        set_enabled(on);
        let out = f();
        set_enabled(false);
        out
    }

    #[test]
    fn disabled_path_records_nothing() {
        with_tracing(false, || {
            counter("t.count", 3);
            observe("t.hist", 1.5);
            let s = span("t.span");
            drop(s);
            let t = timed("t.timed");
            assert!(t.finish() >= 0.0);
            assert!(thread_buffer_is_clear());
            assert!(drain_report().is_empty());
            assert!(take_global_report().is_empty());
        });
    }

    #[test]
    fn enabled_path_builds_a_nested_report() {
        let report = with_tracing(true, || {
            let root = timed("root");
            {
                let _child = span("child");
                counter("t.count", 2);
                counter("t.count", 3);
                observe("t.hist", 4.0);
                observe_n("t.hist", 0.5, 2);
            }
            let secs = root.finish();
            assert!(secs >= 0.0);
            drain_report()
        });
        assert_eq!(report.counter("t.count"), 5);
        let h = &report.hists["t.hist"];
        assert_eq!(h.count, 3);
        assert_eq!(h.buckets[&2], 1);
        assert_eq!(h.buckets[&-1], 2);
        let root = report.find_span("root").expect("root span");
        assert_eq!(root.children.len(), 1);
        assert_eq!(root.children[0].name, "child");
        assert!(root.secs >= root.children[0].secs);
        // Drained: the thread buffer is clear again.
        assert!(thread_buffer_is_clear());
    }

    #[test]
    fn harvest_and_absorb_move_worker_buffers() {
        let report = with_tracing(true, || {
            let _root = span("owner");
            let harvests: Vec<WorkerTrace> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..3)
                    .map(|i| {
                        scope.spawn(move || {
                            counter("w.count", i + 1);
                            observe("w.hist", (i + 1) as f64);
                            worker_harvest()
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            for h in harvests {
                absorb(h);
            }
            drop(_root);
            drain_report()
        });
        assert_eq!(report.counter("w.count"), 6);
        assert_eq!(report.hists["w.hist"].count, 3);
        assert!(report.find_span("owner").is_some());
    }

    #[test]
    fn global_accumulator_collects_across_drains() {
        let total = with_tracing(true, || {
            counter("g.count", 1);
            let first = drain_report();
            assert_eq!(first.counter("g.count"), 1);
            counter("g.count", 10);
            let _ = drain_report();
            let total = take_global_report();
            // Taking clears it. Checked under the same lock: once
            // `with_tracing` releases it, another test may drain into the
            // global accumulator.
            assert!(take_global_report().is_empty());
            total
        });
        assert_eq!(total.counter("g.count"), 11);
    }

    #[test]
    fn spans_attribute_simulated_allocations() {
        let report = with_tracing(true, || {
            alloc::set_enabled(true);
            let outer = span("alloc.outer");
            alloc::on_alloc(100);
            {
                let inner = span("alloc.inner");
                alloc::on_alloc(50);
                alloc::on_alloc(50);
                drop(inner);
            }
            drop(outer);
            alloc::set_enabled(false);
            drain_report()
        });
        let inner = report.find_span("alloc.inner").expect("inner span");
        assert_eq!((inner.alloc_count, inner.alloc_bytes), (2, 100));
        let outer = report.find_span("alloc.outer").expect("outer span");
        // Inclusive attribution: the outer span sees its own event plus the
        // inner span's two, plus whatever the trace machinery itself did
        // while closing the inner span (real allocator hooks would add
        // those; the simulated hook records exactly the explicit calls).
        assert_eq!((outer.alloc_count, outer.alloc_bytes), (3, 200));
        assert_eq!(report.alloc_totals("alloc.inner"), (2, 100));
    }

    #[test]
    fn alloc_counted_records_deltas_into_counters() {
        let report = with_tracing(true, || {
            alloc::set_enabled(true);
            let out = alloc_counted("t.alloc.count", "t.alloc.bytes", || {
                alloc::on_alloc(64);
                alloc::on_alloc(192);
                7
            });
            assert_eq!(out, 7);
            alloc::set_enabled(false);
            // Disabled profiling: no counters recorded, `f` still runs.
            let out = alloc_counted("t.alloc.count", "t.alloc.bytes", || 8);
            assert_eq!(out, 8);
            drain_report()
        });
        assert_eq!(report.counter("t.alloc.count"), 2);
        assert_eq!(report.counter("t.alloc.bytes"), 256);
    }

    #[test]
    fn peek_keeps_the_accumulator_intact() {
        let (peeked, taken) = with_tracing(true, || {
            counter("p.count", 4);
            let _ = drain_report();
            counter("p.count", 1);
            let peeked = peek_global_report();
            let taken = take_global_report();
            (peeked, taken)
        });
        assert_eq!(peeked.counter("p.count"), 5, "peek folds the thread tail in");
        assert_eq!(taken.counter("p.count"), 5, "peek must not clear the accumulator");
    }

    #[test]
    fn warnings_are_recorded_when_enabled() {
        let report = with_tracing(true, || {
            warn_invalid_env("TRANSER_DEMO", "seven", "an integer", "the default");
            drain_report()
        });
        assert_eq!(report.warnings.len(), 1);
        assert_eq!(report.warnings[0].context, "env");
        assert!(report.warnings[0].message.contains("TRANSER_DEMO"));
    }
}

//! The single home for `TRANSER_*` environment-variable reads.
//!
//! Every knob the workspace honours is declared here, and every read goes
//! through [`raw`] or [`parsed`]; [`parsed`] emits a structured warning
//! through `transer-trace` when a variable is *set but unusable* instead
//! of silently falling back. The call sites keep their own
//! fallback semantics (and their own read-once caching where they need
//! it); this module standardises reading and diagnostics.
//!
//! | Variable | Meaning |
//! |---|---|
//! | `TRANSER_THREADS` | worker count for the parallel pool |
//! | `TRANSER_TRACE` | enable structured tracing |
//! | `TRANSER_ALLOC_TRACE` | enable allocation profiling (per-span alloc counts/bytes) |
//! | `TRANSER_FAULT` | fault injection: `<site>:<kind>[:<rate>:<seed>]` |

/// Worker count for the parallel pool (unset/`0`/unparsable → all cores).
pub const THREADS: &str = "TRANSER_THREADS";
/// Enables structured tracing (`transer_trace::TRACE_ENV`).
pub const TRACE: &str = "TRANSER_TRACE";
/// Enables allocation profiling (`transer_trace::alloc::ALLOC_ENV`): the
/// counting global allocator attributes events/bytes to the enclosing span.
pub const ALLOC_TRACE: &str = "TRANSER_ALLOC_TRACE";
/// Fault-injection plan (`transer-robust`): `<site>:<kind>[:<rate>:<seed>]`.
pub const FAULT: &str = "TRANSER_FAULT";

/// The trimmed value of `var`, or `None` when unset, empty or not UTF-8.
pub fn raw(var: &str) -> Option<String> {
    let value = std::env::var(var).ok()?;
    let trimmed = value.trim();
    (!trimmed.is_empty()).then(|| trimmed.to_string())
}

/// Parse `var` with `FromStr`. `None` when unset or empty; when set but
/// unparsable, warns through the trace layer and returns `None` (the call
/// site applies its fallback).
pub fn parsed<T: std::str::FromStr>(var: &str, expected: &str, fallback: &str) -> Option<T> {
    let value = raw(var)?;
    let result = value.parse().ok();
    if result.is_none() {
        transer_trace::warn_invalid_env(var, &value, expected, fallback);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    // Process-global environment: each test uses its own variable name.
    #[test]
    fn raw_trims_and_treats_empty_as_unset() {
        std::env::set_var("TRANSER_TEST_RAW", "  hello ");
        assert_eq!(raw("TRANSER_TEST_RAW").as_deref(), Some("hello"));
        std::env::set_var("TRANSER_TEST_RAW", "   ");
        assert_eq!(raw("TRANSER_TEST_RAW"), None);
        std::env::remove_var("TRANSER_TEST_RAW");
        assert_eq!(raw("TRANSER_TEST_RAW"), None);
    }

    #[test]
    fn parsed_returns_value_or_warns_and_falls_back() {
        std::env::set_var("TRANSER_TEST_PARSED", "17");
        assert_eq!(parsed::<usize>("TRANSER_TEST_PARSED", "an integer", "default"), Some(17));
        std::env::set_var("TRANSER_TEST_PARSED", "seventeen");
        assert_eq!(parsed::<usize>("TRANSER_TEST_PARSED", "an integer", "default"), None);
        std::env::remove_var("TRANSER_TEST_PARSED");
        assert_eq!(parsed::<usize>("TRANSER_TEST_PARSED", "an integer", "default"), None);
    }

    #[test]
    fn invalid_value_is_recorded_in_the_trace_report() {
        transer_trace::set_enabled(true);
        std::env::set_var("TRANSER_TEST_WARNED", "nonsense");
        let got = parsed::<u32>("TRANSER_TEST_WARNED", "an integer", "42");
        assert_eq!(got, None);
        let report = transer_trace::drain_report();
        transer_trace::set_enabled(false);
        std::env::remove_var("TRANSER_TEST_WARNED");
        assert!(report
            .warnings
            .iter()
            .any(|w| w.context == "env" && w.message.contains("TRANSER_TEST_WARNED")));
    }
}

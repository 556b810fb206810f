//! Property-based tests: every comparator must behave like a similarity —
//! bounded in [0, 1], reflexive at 1, and (where documented) symmetric.

use proptest::prelude::*;
use transer_similarity::*;

fn word() -> impl Strategy<Value = String> {
    "[a-z '\\-]{0,24}"
}

fn all_text_measures() -> Vec<Measure> {
    vec![
        Measure::JaroWinkler,
        Measure::TokenJaccard,
        Measure::MongeElkanJw,
        Measure::Exact,
        Measure::Year,
        Measure::Numeric(10.0),
    ]
}

/// The measures that score any string against itself at 1 and are
/// symmetric; the numeric ones score unparseable words 0.
const STRING_MEASURES: [Measure; 4] =
    [Measure::JaroWinkler, Measure::TokenJaccard, Measure::MongeElkanJw, Measure::Exact];

proptest! {
    #[test]
    fn scores_bounded(a in word(), b in word()) {
        for m in all_text_measures() {
            let s = m.text(&a, &b);
            prop_assert!((0.0..=1.0).contains(&s), "{m:?} gave {s} on {a:?} / {b:?}");
        }
    }

    #[test]
    fn reflexive(a in word()) {
        for m in STRING_MEASURES {
            let s = m.text(&a, &a);
            prop_assert!((s - 1.0).abs() < 1e-12, "{m:?} not reflexive on {a:?}: {s}");
        }
    }

    #[test]
    fn symmetric_measures(a in word(), b in word()) {
        for m in STRING_MEASURES {
            let ab = m.text(&a, &b);
            let ba = m.text(&b, &a);
            prop_assert!((ab - ba).abs() < 1e-12, "{m:?} asymmetric on {a:?} / {b:?}");
        }
    }

    #[test]
    fn jaro_winkler_dominates_jaro(a in word(), b in word()) {
        prop_assert!(jaro_winkler(&a, &b) >= jaro(&a, &b) - 1e-12);
    }

    #[test]
    fn numeric_similarity_bounds(a in -1.0e6..1.0e6f64, b in -1.0e6..1.0e6f64, d in 0.001..1.0e5f64) {
        let s = numeric_similarity(a, b, d);
        prop_assert!((0.0..=1.0).contains(&s));
        prop_assert!((numeric_similarity(a, a, d) - 1.0).abs() < 1e-12);
        prop_assert!((s - numeric_similarity(b, a, d)).abs() < 1e-12);
    }
}

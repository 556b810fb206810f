//! A configurable, serialisable description of which comparator to apply to
//! an attribute, so feature spaces can be declared as data.

use crate::{
    exact, jaccard_tokens, jaro_winkler, monge_elkan, numeric_similarity, year_similarity,
};

/// The similarity measures this crate can apply, as plain data.
///
/// The homogeneous-TL assumption of the paper is that source and target use
/// the *same* `Measure` per attribute; the blocking crate enforces this by
/// sharing one comparison configuration between the two domains.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Measure {
    /// Jaro-Winkler with standard parameters (names).
    JaroWinkler,
    /// Jaccard over whitespace tokens (titles, venues, albums).
    TokenJaccard,
    /// Symmetrised Monge-Elkan with a Jaro-Winkler inner comparator.
    MongeElkanJw,
    /// Exact string equality.
    Exact,
    /// Linear numeric similarity with the given maximum difference, which
    /// must be positive: scoring panics otherwise, and the blocking crate's
    /// `Comparison::new` rejects such a bound.
    Numeric(f64),
    /// Year similarity (linear, 10-year horizon).
    Year,
}

impl Measure {
    /// Apply the measure to two textual values.
    ///
    /// Numeric measures parse the strings; unparseable values score 0.
    pub fn text(&self, a: &str, b: &str) -> f64 {
        match *self {
            Measure::JaroWinkler => jaro_winkler(a, b),
            Measure::TokenJaccard => jaccard_tokens(a, b),
            Measure::MongeElkanJw => {
                0.5 * (monge_elkan(a, b, jaro_winkler) + monge_elkan(b, a, jaro_winkler))
            }
            Measure::Exact => exact(a, b),
            Measure::Numeric(max_diff) => match (a.trim().parse(), b.trim().parse()) {
                (Ok(x), Ok(y)) => numeric_similarity(x, y, max_diff),
                _ => 0.0,
            },
            Measure::Year => match (a.trim().parse(), b.trim().parse()) {
                (Ok(x), Ok(y)) => year_similarity(x, y),
                _ => 0.0,
            },
        }
    }

    /// Apply the measure to two numeric values.
    ///
    /// String measures compare the shortest decimal representations.
    pub fn number(&self, a: f64, b: f64) -> f64 {
        match *self {
            Measure::Numeric(max_diff) => numeric_similarity(a, b, max_diff),
            Measure::Year => year_similarity(a, b),
            Measure::Exact => {
                if a == b {
                    1.0
                } else {
                    0.0
                }
            }
            _ => self.text(&a.to_string(), &b.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_matches_direct_calls() {
        assert_eq!(Measure::JaroWinkler.text("martha", "marhta"), jaro_winkler("martha", "marhta"));
        assert_eq!(Measure::TokenJaccard.text("a b", "b c"), jaccard_tokens("a b", "b c"));
        assert_eq!(Measure::Exact.text("x", "x"), 1.0);
    }

    #[test]
    fn numeric_measures_parse_text() {
        assert_eq!(Measure::Year.text("1970", "1970"), 1.0);
        assert!((Measure::Year.text(" 1970 ", "1971") - 0.9).abs() < 1e-12);
        assert_eq!(Measure::Year.text("unknown", "1970"), 0.0);
        assert_eq!(Measure::Numeric(5.0).text("1", "2"), 0.8);
    }

    #[test]
    fn number_dispatch() {
        assert_eq!(Measure::Year.number(1970.0, 1970.0), 1.0);
        assert_eq!(Measure::Exact.number(1.0, 1.0), 1.0);
        assert_eq!(Measure::Exact.number(1.0, 2.0), 0.0);
        // Falling back through text comparison still works.
        assert_eq!(Measure::JaroWinkler.number(123.0, 123.0), 1.0);
    }

    #[test]
    fn monge_elkan_is_symmetrised() {
        let ab = Measure::MongeElkanJw.text("smith", "smith jones");
        let ba = Measure::MongeElkanJw.text("smith jones", "smith");
        assert!((ab - ba).abs() < 1e-12);
    }

    #[test]
    fn engines_agree_across_all_measures() {
        use crate::kernel::oracle;
        let all = [
            Measure::JaroWinkler,
            Measure::TokenJaccard,
            Measure::MongeElkanJw,
            Measure::Exact,
            Measure::Numeric(5.0),
            Measure::Year,
        ];
        let samples =
            ["", "deep entity matching", "Deep  Entity-Matching!", "1999", "наука о данных"];
        for m in all {
            for a in samples {
                for b in samples {
                    assert_eq!(
                        m.text(a, b).to_bits(),
                        oracle::text(m, a, b).to_bits(),
                        "{m:?} on ({a:?}, {b:?})"
                    );
                    assert_eq!(
                        m.number(123.0, 124.5).to_bits(),
                        oracle::number(m, 123.0, 124.5).to_bits(),
                        "{m:?} number"
                    );
                }
            }
        }
    }
}

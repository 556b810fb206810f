//! Attribute values under exact equality: text by its bytes, a number by
//! its bits, missing equal to missing. The blocking kernel and the
//! comparison's preparations are pure functions of a value under this
//! equality, so a batch call runs each once per distinct value. Bits, not
//! `==`: `0.0` and `-0.0` tokenize to `num:0` and `num:-0`, and a NaN
//! must equal itself to be found again.

use std::hash::{Hash, Hasher};

use transer_common::AttrValue;

/// An [`AttrValue`] compared and hashed exactly (see the module docs).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Exact<'a>(pub(crate) &'a AttrValue);

impl PartialEq for Exact<'_> {
    fn eq(&self, other: &Self) -> bool {
        match (self.0, other.0) {
            (AttrValue::Text(a), AttrValue::Text(b)) => a == b,
            (AttrValue::Number(a), AttrValue::Number(b)) => a.to_bits() == b.to_bits(),
            (AttrValue::Missing, AttrValue::Missing) => true,
            _ => false,
        }
    }
}

impl Eq for Exact<'_> {}

impl Hash for Exact<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self.0 {
            AttrValue::Text(s) => s.hash(state),
            AttrValue::Number(x) => state.write_u64(x.to_bits()),
            AttrValue::Missing => state.write_u8(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equality_is_by_bytes_and_bits() {
        let v = |x: f64| AttrValue::Number(x);
        let t = |s: &str| AttrValue::Text(s.into());
        let nan = f64::NAN;
        let equal =
            [(v(1999.0), v(1999.0)), (v(nan), v(nan)), (AttrValue::Missing, AttrValue::Missing)];
        for (a, b) in &equal {
            assert_eq!(Exact(a), Exact(b), "{a:?} vs {b:?}");
        }
        let unequal = [
            (v(0.0), v(-0.0)),
            (v(nan), v(-nan)),
            (v(nan), v(f64::from_bits(nan.to_bits() | 1))),
            (t("Deep"), t("deep")),
            (t("1999"), v(1999.0)),
            (t(""), AttrValue::Missing),
        ];
        for (a, b) in &unequal {
            assert_ne!(Exact(a), Exact(b), "{a:?} vs {b:?}");
        }
    }
}

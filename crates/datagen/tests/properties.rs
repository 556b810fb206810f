//! Property tests on the workload generators: corruption invariants and
//! scenario structure.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use transer_common::AttrValue;
use transer_datagen::corrupt::{corrupt_number, corrupt_text, typo};
use transer_datagen::vectors::{generate, VectorDomainConfig};
use transer_datagen::CorruptionProfile;

fn value_text() -> impl Strategy<Value = String> {
    "[a-z]{2,10}( [a-z]{2,10}){0,3}"
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn typo_never_empties_or_explodes(s in value_text(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let out = typo(&s, &mut rng);
        let before = s.chars().count();
        let after = out.chars().count();
        prop_assert!(!out.is_empty());
        prop_assert!(after.abs_diff(before) <= 1, "{s:?} -> {out:?}");
    }

    #[test]
    fn none_profile_is_identity(s in value_text(), x in -1.0e4..1.0e4f64, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = CorruptionProfile::none();
        prop_assert_eq!(corrupt_text(&s, &p, &mut rng), AttrValue::Text(s.clone()));
        prop_assert_eq!(corrupt_number(x, &p, &mut rng), AttrValue::Number(x));
    }

    #[test]
    fn corruption_output_is_well_formed(s in value_text(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        for profile in [CorruptionProfile::clean(), CorruptionProfile::noisy(), CorruptionProfile::heavy()] {
            match corrupt_text(&s, &profile, &mut rng) {
                AttrValue::Text(t) => {
                    prop_assert!(!t.is_empty());
                    prop_assert!(t.chars().count() <= s.chars().count() + profile.max_typos + 2);
                }
                AttrValue::Missing => {}
                AttrValue::Number(_) => prop_assert!(false, "text never becomes a number"),
            }
        }
    }

    #[test]
    fn numeric_corruption_bounded(x in 1800.0..2000.0f64, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = CorruptionProfile::heavy();
        match corrupt_number(x, &p, &mut rng) {
            AttrValue::Number(y) => prop_assert!((y - x).abs() <= p.max_jitter),
            AttrValue::Missing => {}
            AttrValue::Text(_) => prop_assert!(false, "number never becomes text"),
        }
    }

    #[test]
    fn vector_generator_respects_config(
        n in 50usize..400,
        m in 2usize..8,
        match_rate in 0.05..0.5f64,
        seed in any::<u64>(),
    ) {
        let cfg = VectorDomainConfig { n, m, match_rate, seed, ..Default::default() };
        let ds = generate("p", &cfg).unwrap();
        prop_assert_eq!(ds.len(), n);
        prop_assert_eq!(ds.x.cols(), m);
        for row in ds.x.iter_rows() {
            for &v in row {
                prop_assert!((0.0..=1.0).contains(&v));
            }
        }
        // Deterministic per seed.
        prop_assert_eq!(generate("p", &cfg).unwrap(), ds);
    }
}

//! Over the ER-shaped pair corpus: the prepared and interned scoring paths
//! equal the direct one bit for bit for every measure.

mod corpus;

use corpus::{build_pairs, MEASURES};
use transer_common::StrInterner;

#[test]
fn prepared_and_interned_paths_equal_the_direct_path() {
    let pairs = build_pairs(400, 0x5EED);
    for (label, measure) in MEASURES {
        let mut interner = StrInterner::new();
        for (a, b) in &pairs {
            let want = measure.text(a, b).to_bits();
            let got = measure.prepared(&measure.prepare(a), &measure.prepare(b));
            assert_eq!(got.to_bits(), want, "prepared {label} on ({a:?}, {b:?})");
            if measure.is_set() {
                let (mut ia, mut ib) = (Vec::new(), Vec::new());
                measure.push_interned_set(a, |t| interner.intern(t), &mut ia);
                measure.push_interned_set(b, |t| interner.intern(t), &mut ib);
                let got = measure.interned_set_score(&ia, &ib);
                assert_eq!(got.to_bits(), want, "interned {label} on ({a:?}, {b:?})");
            }
        }
    }
}

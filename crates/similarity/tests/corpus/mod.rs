//! Shared by this crate's test binaries: every measure with a stable label,
//! and a deterministic corpus of ER-shaped value pairs (person names,
//! token-heavy titles with unicode and >64-char outliers, years).

use transer_similarity::Measure;

/// Every measure in the workspace, with the label used in failure
/// messages.
pub const MEASURES: [(&str, Measure); 6] = [
    ("jaro_winkler", Measure::JaroWinkler),
    ("token_jaccard", Measure::TokenJaccard),
    ("monge_elkan_jw", Measure::MongeElkanJw),
    ("exact", Measure::Exact),
    ("numeric_5", Measure::Numeric(5.0)),
    ("year", Measure::Year),
];

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn pick<'a>(words: &[&'a str], rng: &mut u64) -> &'a str {
    words[(splitmix(rng) as usize) % words.len()]
}

const FIRST: [&str; 8] = ["maria", "josé", "wei", "anna", "peter", "olga", "jean", "müller"];
const LAST: [&str; 8] =
    ["smith", "o'brien", "garcía", "иванов", "nguyen", "smith-jones", "lee", "schmidt"];
const TITLE_WORDS: &str = "transfer learning entity resolution homogeneous matching record \
                           linkage données наука scalable blocking similarity kernels";

/// A typo-perturbed twin of `s` (one or two swaps, replacements or
/// deletions), so pair scores land in the middle of `[0, 1]`.
fn perturb(s: &str, rng: &mut u64) -> String {
    let mut chars: Vec<char> = s.chars().collect();
    if chars.len() >= 2 {
        for _ in 0..1 + splitmix(rng) % 2 {
            let i = (splitmix(rng) as usize) % (chars.len() - 1);
            match splitmix(rng) % 3 {
                0 => chars.swap(i, i + 1),
                1 => chars[i] = 'x',
                _ => {
                    chars.remove(i);
                }
            }
        }
    }
    chars.into_iter().collect()
}

/// A name (`kind` 0), a title (1; one in eight longer than 64 chars) or a
/// year (2).
fn value(kind: u64, rng: &mut u64) -> String {
    match kind {
        0 => format!("{} {}", pick(&FIRST, rng), pick(&LAST, rng)),
        1 => {
            let vocabulary: Vec<&str> = TITLE_WORDS.split(' ').collect();
            let words = 3 + (splitmix(rng) as usize) % 6;
            let mut s = (0..words).map(|_| pick(&vocabulary, rng)).collect::<Vec<_>>().join(" ");
            if splitmix(rng).is_multiple_of(8) {
                s.push_str(&" entity".repeat(10));
            }
            s
        }
        _ => format!("{}", 1900 + splitmix(rng) % 120),
    }
}

/// `n` pairs, each value paired with itself, an unrelated value of its
/// kind or a perturbed twin: a pure function of `(n, seed)`.
pub fn build_pairs(n: usize, seed: u64) -> Vec<(String, String)> {
    let mut rng = seed;
    (0..n)
        .map(|i| {
            let a = value((i % 3) as u64, &mut rng);
            let b = match splitmix(&mut rng) % 4 {
                0 => a.clone(),
                1 => value((i % 3) as u64, &mut rng),
                _ => perturb(&a, &mut rng),
            };
            (a, b)
        })
        .collect()
}

//! Similarity kernel micro-benchmark: per-measure ns/pair through the
//! direct (`text`), prepared (`prepare` + `prepared`) and interned
//! (`prepare_interned`) paths, over a deterministic corpus of ER-shaped
//! values (person names, token-heavy titles with unicode and >64-char
//! outliers, years).
//!
//! Every timed pair is first *verified* bitwise-equal across the three
//! paths, so the artefact (`results/BENCH_similarity.json`) doubles as an
//! equivalence witness on realistic data.
//!
//! `--smoke` shrinks the corpus, validates the JSON artefact round-trip
//! and asserts the trace-counter partition invariant
//! (`similarity.kernel.bitparallel + fallback == levenshtein.calls`)
//! with non-zero counts — the tier-1 hook.

use std::time::Instant;

use transer_common::StrInterner;
use transer_similarity::{Measure, PreparedText};
use transer_trace::json::{self, obj, Json};
use transer_trace::RunLedger;

/// The benchmarked measures with stable artefact labels.
const MEASURES: [(&str, Measure); 15] = [
    ("jaro", Measure::Jaro),
    ("jaro_winkler", Measure::JaroWinkler),
    ("levenshtein", Measure::Levenshtein),
    ("lcs", Measure::Lcs),
    ("token_jaccard", Measure::TokenJaccard),
    ("token_dice", Measure::TokenDice),
    ("token_overlap", Measure::TokenOverlap),
    ("qgram_jaccard_2", Measure::QgramJaccard(2)),
    ("qgram_dice_3", Measure::QgramDice(3)),
    ("qgram_jaccard_4", Measure::QgramJaccard(4)),
    ("monge_elkan_jw", Measure::MongeElkanJw),
    ("soundex", Measure::Soundex),
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

const FIRST: [&str; 8] = ["maria", "josé", "wei", "anna", "peter", "olga", "jean", "müller"];
const LAST: [&str; 8] =
    ["smith", "o'brien", "garcía", "иванов", "nguyen", "smith-jones", "lee", "schmidt"];
const TITLE_WORDS: [&str; 14] = [
    "transfer",
    "learning",
    "entity",
    "resolution",
    "homogeneous",
    "matching",
    "record",
    "linkage",
    "données",
    "наука",
    "scalable",
    "blocking",
    "similarity",
    "kernels",
];

/// One corpus value plus a typo-perturbed twin, so pair scores land in the
/// interesting middle of `[0, 1]`.
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

/// The deterministic pair corpus: names, titles (some unicode, some past
/// the 64-char bit-parallel block), years; each paired with a perturbed
/// twin, an unrelated value, or itself.
fn value(kind: u64, rng: &mut u64) -> String {
    match kind {
        0 => format!(
            "{} {}",
            FIRST[(splitmix(rng) as usize) % FIRST.len()],
            LAST[(splitmix(rng) as usize) % LAST.len()]
        ),
        1 => {
            let words = 3 + (splitmix(rng) as usize) % 6;
            let mut s = String::new();
            for w in 0..words {
                if w > 0 {
                    s.push(' ');
                }
                s.push_str(TITLE_WORDS[(splitmix(rng) as usize) % TITLE_WORDS.len()]);
            }
            if splitmix(rng).is_multiple_of(8) {
                // Past the single-block Myers limit.
                for _ in 0..10 {
                    s.push_str(" entity");
                }
            }
            s
        }
        _ => format!("{}", 1900 + splitmix(rng) % 120),
    }
}

fn build_pairs(n: usize, seed: u64) -> Vec<(String, String)> {
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

/// Verify that the prepared and interned paths score every pair
/// bitwise-equal to the direct path.
fn verify(measure: Measure, pairs: &[(String, String)]) {
    let mut interner = StrInterner::new();
    for (a, b) in pairs {
        let want = measure.text(a, b);
        let got = measure.prepared(&measure.prepare(a), &measure.prepare(b));
        assert_eq!(got.to_bits(), want.to_bits(), "prepared {measure:?} on ({a:?}, {b:?})");
        let ia = measure.prepare_interned(a, &mut interner);
        let ib = measure.prepare_interned(b, &mut interner);
        let got = measure.prepared(&ia, &ib);
        assert_eq!(got.to_bits(), want.to_bits(), "interned {measure:?} on ({a:?}, {b:?})");
    }
}

/// Run `pass` repeatedly until `budget_ms` of wall time is spent (at least
/// twice), and return ns per pair. One warm-up pass populates the
/// thread-local scratch so allocation-free steady state is what's timed.
fn time_ns_per_pair(pairs: usize, budget_ms: u64, mut pass: impl FnMut() -> f64) -> f64 {
    let mut sink = pass();
    let start = Instant::now();
    let mut passes = 0u32;
    while passes < 2 || start.elapsed().as_millis() < u128::from(budget_ms) {
        sink += pass();
        passes += 1;
    }
    std::hint::black_box(sink);
    start.elapsed().as_nanos() as f64 / (f64::from(passes) * pairs as f64)
}

fn direct_pass(measure: Measure, pairs: &[(String, String)]) -> f64 {
    pairs.iter().map(|(a, b)| measure.text(a, b)).sum()
}

fn prepared_corpus(
    measure: Measure,
    pairs: &[(String, String)],
) -> Vec<(PreparedText, PreparedText)> {
    pairs.iter().map(|(a, b)| (measure.prepare(a), measure.prepare(b))).collect()
}

fn interned_corpus(
    measure: Measure,
    pairs: &[(String, String)],
) -> Vec<(PreparedText, PreparedText)> {
    let mut interner = StrInterner::new();
    pairs
        .iter()
        .map(|(a, b)| {
            (measure.prepare_interned(a, &mut interner), measure.prepare_interned(b, &mut interner))
        })
        .collect()
}

fn prepared_pass(measure: Measure, corpus: &[(PreparedText, PreparedText)]) -> f64 {
    corpus.iter().map(|(a, b)| measure.prepared(a, b)).sum()
}

/// The trace-counter partition invariant, asserted on live counts:
/// every Levenshtein kernel run is exactly one of bit-parallel or
/// fallback.
fn check_counter_partition(pairs: &[(String, String)]) {
    transer_trace::set_enabled(true);
    let _ = transer_trace::drain_report();
    let mut sink = 0.0;
    for (a, b) in pairs {
        sink += Measure::Levenshtein.text(a, b);
    }
    std::hint::black_box(sink);
    let report = transer_trace::drain_report();
    transer_trace::set_enabled(false);
    let get = |k: &str| report.counters.get(k).copied().unwrap_or(0);
    let calls = get("similarity.levenshtein.calls");
    let bitparallel = get("similarity.kernel.bitparallel");
    let fallback = get("similarity.kernel.fallback");
    assert!(calls > 0, "levenshtein kernel never ran over {} pairs", pairs.len());
    assert_eq!(
        bitparallel + fallback,
        calls,
        "bitparallel ({bitparallel}) + fallback ({fallback}) must partition calls ({calls})"
    );
    println!(
        "counter partition OK: {calls} calls = {bitparallel} bit-parallel + {fallback} fallback"
    );
}

/// Under `TRANSER_ALLOC_TRACE=1`: after a warm-up pass, a traced
/// steady-state scoring pass over every measure's prepared corpus must
/// attribute **zero** allocations to its span — the live-run form of the
/// allocation-free kernel invariant (`crates/similarity/tests/alloc_free.rs`
/// proves the same claim per measure at unit scale).
fn check_steady_state_alloc_free(pairs: &[(String, String)]) {
    let corpora: Vec<(Measure, Vec<(PreparedText, PreparedText)>)> =
        MEASURES.iter().map(|&(_, m)| (m, prepared_corpus(m, pairs))).collect();
    let mut sink = 0.0;
    for (measure, corpus) in &corpora {
        sink += prepared_pass(*measure, corpus); // warm-up
    }
    transer_trace::set_enabled(true);
    let _ = transer_trace::drain_report();
    // Second, *traced* warm-up pass: the kernels record trace counters,
    // and the very first touch of each counter key after a drain inserts
    // a map node — bookkeeping that would otherwise be charged to the
    // steady-state span.
    for (measure, corpus) in &corpora {
        sink += prepared_pass(*measure, corpus);
    }
    {
        let _span = transer_trace::span("similarity.steady");
        for (measure, corpus) in &corpora {
            sink += prepared_pass(*measure, corpus);
        }
    }
    let report = transer_trace::drain_report();
    transer_trace::set_enabled(false);
    std::hint::black_box(sink);
    let span = report.find_span("similarity.steady").expect("steady-state span recorded");
    assert_eq!(
        (span.alloc_count, span.alloc_bytes),
        (0, 0),
        "steady-state similarity scoring allocated {} times / {} bytes",
        span.alloc_count,
        span.alloc_bytes
    );
    println!("steady-state alloc-free OK: 0 allocations across {} measures", corpora.len());
}

fn main() {
    let mut ledger = RunLedger::new("bench_similarity");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let path = transer_trace::ledger::out_path(&args, "results/BENCH_similarity.json");
    let path = path.as_str();
    let (n_pairs, budget_ms) = if smoke { (400, 5) } else { (2000, 250) };
    let pairs = build_pairs(n_pairs, 0x5EED);

    let mut rows = Vec::new();
    for (label, measure) in MEASURES {
        verify(measure, &pairs);
        let direct = time_ns_per_pair(n_pairs, budget_ms, || direct_pass(measure, &pairs));
        let corpus = prepared_corpus(measure, &pairs);
        let corpus_ids = interned_corpus(measure, &pairs);
        let prepared = time_ns_per_pair(n_pairs, budget_ms, || prepared_pass(measure, &corpus));
        let interned = time_ns_per_pair(n_pairs, budget_ms, || prepared_pass(measure, &corpus_ids));
        println!(
            "{label:>16}  direct {direct:>8.1} ns/pair   prepared {prepared:>7.1} ns/pair   \
             interned {interned:>7.1} ns/pair"
        );
        rows.push(obj(vec![
            ("measure", Json::Str(label.to_string())),
            ("direct_ns_per_pair", Json::Num(direct)),
            ("prepared_ns_per_pair", Json::Num(prepared)),
            ("interned_ns_per_pair", Json::Num(interned)),
        ]));
    }

    check_counter_partition(&pairs);
    if transer_trace::alloc::enabled() {
        check_steady_state_alloc_free(&pairs);
    }

    let report = obj(vec![
        ("version", Json::Num(1.0)),
        ("smoke", Json::Num(f64::from(u8::from(smoke)))),
        ("pairs", Json::Num(n_pairs as f64)),
        ("measures", Json::Arr(rows)),
    ]);
    if let Err(e) = json::write_pretty(path, &report) {
        eprintln!("bench_similarity: cannot write {path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {path}");
    ledger.set_summary(obj(vec![("out", Json::Str(path.to_string()))]));

    if smoke {
        // Round-trip the artefact through the parser.
        let text = std::fs::read_to_string(path).expect("re-read artefact");
        let parsed = json::parse(&text).expect("artefact must parse");
        let n = parsed.get("measures").and_then(Json::as_arr).map_or(0, <[Json]>::len);
        assert_eq!(n, MEASURES.len(), "artefact must cover every measure");
        println!("smoke OK: {n} measures validated");
    }
}

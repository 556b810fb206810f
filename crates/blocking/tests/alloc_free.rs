//! The per-record blocking kernel allocates nothing on warm buffers,
//! checked against the real global allocator: after one pass over a
//! corpus (which may grow the scratch and key buffers), computing every
//! record's band keys again makes zero heap allocations.

use std::sync::Mutex;

use transer_blocking::{BandScratch, MinHashLsh, MinHashLshConfig};
use transer_common::{AttrValue, Record};
use transer_trace::alloc;

/// Allocation accounting is process-global; tests serialise here.
static TEST_LOCK: Mutex<()> = Mutex::new(());

fn corpus() -> Vec<Record> {
    let titles = [
        "transfer learning for entity resolution",
        "entity\x0Bresolution at scale",
        "İstanbul naïve résumé",
        "O'Brien & Smith-Jones",
        "",
        "x",
    ];
    titles
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let year =
                if i % 2 == 0 { AttrValue::Number(1990.0 + i as f64) } else { AttrValue::Missing };
            Record::new(i as u64, 0, vec![AttrValue::Text((*t).into()), year])
        })
        .collect()
}

#[test]
fn record_band_keys_into_is_allocation_free_when_warm() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let records = corpus();
    for config in [
        MinHashLshConfig::default(),
        MinHashLshConfig { num_hashes: 30, bands: 5, ..Default::default() },
    ] {
        let lsh = MinHashLsh::new(config).expect("valid layout");
        for attrs in [None, Some(&[0][..])] {
            let mut scratch = BandScratch::default();
            let mut keys = Vec::new();
            let mut sink = 0u64;
            // The warm-up pass grows the buffers, and the counter sees it.
            alloc::set_enabled(true);
            let cold = alloc::thread_counters().0;
            for record in &records {
                lsh.record_band_keys_into(record, attrs, &mut scratch, &mut keys);
            }
            assert!(alloc::thread_counters().0 > cold, "the counting allocator is not live");
            let (c0, b0) = alloc::thread_counters();
            for _ in 0..3 {
                for record in &records {
                    lsh.record_band_keys_into(record, attrs, &mut scratch, &mut keys);
                    sink ^= keys.iter().fold(0, |acc, &k| acc ^ k);
                }
            }
            let (c1, b1) = alloc::thread_counters();
            alloc::set_enabled(false);
            std::hint::black_box(sink);
            assert_eq!(
                (c1 - c0, b1 - b0),
                (0, 0),
                "{config:?} under {attrs:?}: warm kernel allocated"
            );
        }
    }
}

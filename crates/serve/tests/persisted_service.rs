//! The persisted serving round trip on the scale generator: train a
//! transfer model, save it and a blocking index to disk, reload both cold
//! with `MatchService::load`, and serve the query domain. The decisions,
//! probabilities bit for bit, must not depend on the worker count or on
//! the disk round trip, and their fold is pinned.

use transer_blocking::{LshIndex, MinHashLsh};
use transer_common::{FeatureMatrix, Label, Record};
use transer_core::{TransEr, TransErConfig};
use transer_datagen::{ScaleConfig, ScaleGen};
use transer_ml::{ClassifierKind, PersistedModel};
use transer_parallel::{GrainMode, Pool};
use transer_serve::MatchService;

/// Records per domain of the source (training) and target (serving) tasks.
const ROWS: usize = 2_000;
const SOURCE_SEED: u64 = 42;
const TARGET_SEED: u64 = 1042;
/// Query records per served batch.
const BATCH: usize = 256;
/// The FNV-1a fold of the decision stream at these settings, as committed
/// for the 2,000-row rung in `results/BENCH_serve.json`.
const DECISION_HASH: u64 = 0x1851_af9b_85a2_4565;

/// One linkage task: generate, block, compare.
fn build_task(seed: u64) -> (FeatureMatrix, Vec<Label>) {
    let gen = ScaleGen::new(ScaleConfig::new(ROWS).with_seed(seed)).expect("valid scale config");
    let (left, right) = gen.pair();
    let blocker = MinHashLsh::new(ScaleGen::lsh_config()).expect("valid LSH config");
    let pairs = blocker.candidate_pairs_masked(&left, &right, Some(ScaleGen::blocking_attrs()));
    ScaleGen::comparison().compare_pairs(&left, &right, &pairs).expect("comparison")
}

/// The classifier that labelled the target task in a transfer run from the
/// source task.
fn train_model() -> PersistedModel {
    let (xs, ys) = build_task(SOURCE_SEED);
    let (xt, _) = build_task(TARGET_SEED);
    let transer = TransEr::new(TransErConfig::default(), ClassifierKind::RandomForest, SOURCE_SEED)
        .expect("valid config");
    let (_, model) = transer.fit_predict_with_model(&xs, &ys, &xt).expect("pipeline");
    model.expect("random forest persists")
}

/// Every decision of the stream as (query, reference, proba bits, match),
/// with query indices counted across batches.
fn serve(service: &MatchService, queries: &[Record], pool: &Pool) -> Vec<[u64; 4]> {
    let mut decisions = Vec::new();
    for (b, batch) in queries.chunks(BATCH).enumerate() {
        let resp = service.query_batch_with_pool(batch, pool).expect("serve batch");
        decisions.extend(resp.decisions.iter().map(|d| {
            let query = (b * BATCH + d.query) as u64;
            [query, d.reference as u64, d.proba.to_bits(), u64::from(d.label.is_match())]
        }));
    }
    decisions
}

/// FNV-1a over each decision's query, reference and label.
fn fold(decisions: &[[u64; 4]]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    decisions.iter().fold(0xCBF2_9CE4_8422_2325, |h, &[query, reference, _, label]| {
        let h = (h ^ query).wrapping_mul(PRIME);
        let h = (h ^ reference).wrapping_mul(PRIME);
        (h ^ label).wrapping_mul(PRIME)
    })
}

#[test]
fn reloaded_service_decisions_hold_across_workers_and_the_disk_round_trip() {
    let model = train_model();
    let gen = ScaleGen::new(ScaleConfig::new(ROWS).with_seed(TARGET_SEED)).expect("valid config");
    let (reference, queries) = gen.pair();
    let attrs = Some(ScaleGen::blocking_attrs());
    let index = LshIndex::from_records(ScaleGen::lsh_config(), attrs, &reference)
        .expect("valid LSH config");

    let dir = std::env::temp_dir().join(format!("transer_served_{}", std::process::id()));
    let path = |name: &str| dir.join(name).to_str().expect("utf-8 temp path").to_string();
    let (model_path, index_path) = (path("model.json"), path("index.json"));
    model.save(&model_path).expect("write model artefact");
    index.save(&index_path).expect("write index artefact");
    let loaded =
        MatchService::load(ScaleGen::comparison(), &model_path, &index_path, reference.clone())
            .expect("reload persisted artefacts");
    let _ = std::fs::remove_dir_all(&dir);
    let in_memory = MatchService::with_index(ScaleGen::comparison(), model, index, reference)
        .expect("index fits its records");

    let sequential = serve(&loaded, &queries, &Pool::new(1));
    // Forced onto the pooled path, so it runs even on a one-core host.
    let pooled = serve(&loaded, &queries, &Pool::new(4).with_grain(GrainMode::AlwaysPool));
    assert!(!sequential.is_empty(), "the query domain must produce decisions");
    assert!(sequential == pooled, "decisions differ between 1 and 4 workers");
    assert!(
        sequential == serve(&in_memory, &queries, &Pool::new(1)),
        "decisions differ between the reloaded and the in-memory artefacts"
    );
    assert_eq!(fold(&sequential), DECISION_HASH, "{:016x}", fold(&sequential));
}

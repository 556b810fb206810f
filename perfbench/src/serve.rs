//! The `serve` workload: online matching under churn, as a closed loop
//! with one caller, against a model and index cold-loaded from disk.

use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

use transer_blocking::{LshIndex, MinHashLsh};
use transer_common::{FeatureMatrix, Label, Record};
use transer_core::{TransEr, TransErConfig};
use transer_datagen::ScaleGen;
use transer_metrics::ConfusionMatrix;
use transer_ml::{ClassifierKind, PersistedModel};
use transer_parallel::Pool;
use transer_serve::MatchService;
use transer_trace::{span, timed, SpanNode, TraceReport};

use crate::metrics::Metrics;
use crate::spans::totals;
use crate::stats::{Fnv, SplitMix64};
use crate::workloads::{err, ratio, scale_task, task_seeds, Job, Task, Workload};

/// Records per domain: the reference database and the query stream.
pub const SERVE_ROWS: usize = 10_000;
/// Requests in one replay of the script.
pub const REQUESTS: usize = 250;
/// Records per query request, and records an update removes.
pub const BATCH: usize = 16;
/// Every `UPDATE_EVERY`-th request is an update.
pub const UPDATE_EVERY: usize = 5;

/// One request of the script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Match these query-domain records against the live reference.
    Query(Vec<usize>),
    /// Remove the live reference ids `remove`, then re-insert the records
    /// in reference slots `reinsert` (the ones the previous update
    /// removed), which the service must assign the fresh ids `fresh_ids`.
    Update { remove: Vec<usize>, reinsert: Vec<usize>, fresh_ids: Vec<usize> },
}

/// The request script: a pure function of the seed and the two domain
/// sizes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Script {
    pub ops: Vec<Op>,
    /// Reference slot behind every id the service will hand out (ids are
    /// never reused, so this holds for the whole replay).
    pub slot_of_id: Vec<usize>,
}

impl Script {
    pub fn generate(seed: u64, references: usize, queries: usize) -> Script {
        let mut rng = SplitMix64::new(seed ^ 0x5E4F_E5C4_1E7A_0001);
        let mut live: Vec<usize> = (0..references).collect();
        let mut slot_of_id: Vec<usize> = (0..references).collect();
        let mut held: Vec<usize> = Vec::new();
        let mut ops = Vec::with_capacity(REQUESTS);
        for r in 0..REQUESTS {
            if r % UPDATE_EVERY == UPDATE_EVERY - 1 {
                let mut remove = Vec::with_capacity(BATCH);
                for _ in 0..BATCH.min(live.len()) {
                    remove.push(live.swap_remove(rng.below(live.len())));
                }
                let reinsert = std::mem::take(&mut held);
                let mut fresh_ids = Vec::with_capacity(reinsert.len());
                for &slot in &reinsert {
                    fresh_ids.push(slot_of_id.len());
                    live.push(slot_of_id.len());
                    slot_of_id.push(slot);
                }
                held = remove.iter().map(|&id| slot_of_id[id]).collect();
                ops.push(Op::Update { remove, reinsert, fresh_ids });
            } else {
                ops.push(Op::Query((0..BATCH).map(|_| rng.below(queries)).collect()));
            }
        }
        Script { ops, slot_of_id }
    }
}

/// Block and compare one training task, as `bench_serve` does.
fn features(task: &Task) -> Result<(FeatureMatrix, Vec<Label>), String> {
    let blocker = MinHashLsh::new(ScaleGen::lsh_config()).map_err(err("lsh config"))?;
    let pairs = blocker.candidate_pairs_masked(&task.0, &task.1, Some(ScaleGen::blocking_attrs()));
    ScaleGen::comparison().compare_pairs(&task.0, &task.1, &pairs).map_err(err("compare"))
}

pub struct Serve {
    model_path: String,
    index_path: String,
    reference: Vec<Record>,
    queries: Vec<Record>,
    /// `None` once a replay has mutated it; the next job reloads.
    service: Option<MatchService>,
    script: Script,
    /// True matches of the script's query records among the live
    /// reference (computed once).
    positives: Option<usize>,
    last: Option<ServeStats>,
}

#[derive(Debug, Default)]
struct ServeStats {
    query_requests: u64,
    query_records: u64,
    candidates: u64,
    /// Per request, the distinct records its candidate pairs touch,
    /// summed over requests.
    pair_records: u64,
    inserted: u64,
    removed: u64,
    tombstones: usize,
}

impl Serve {
    fn load(&self) -> Result<MatchService, String> {
        let model = {
            let _s = span("bench.ml.persist.load");
            PersistedModel::load(&self.model_path).map_err(err("load model"))?
        };
        let index = {
            let _s = span("bench.lsh_index.load");
            LshIndex::load(&self.index_path).map_err(err("load index"))?
        };
        MatchService::with_index(ScaleGen::comparison(), model, index, self.reference.clone())
            .map_err(err("service"))
    }

    fn entity_of(&self, id: usize) -> Option<u64> {
        let slot = *self.script.slot_of_id.get(id)?;
        self.reference.get(slot).map(|r| r.entity)
    }

    /// Replay the script's live-set changes and count, for every query
    /// record, the live references of the same entity.
    fn count_positives(&self) -> usize {
        let mut live: HashMap<u64, usize> = HashMap::new();
        for r in &self.reference {
            *live.entry(r.entity).or_default() += 1;
        }
        let mut total = 0;
        for op in &self.script.ops {
            match op {
                Op::Query(batch) => {
                    for &q in batch {
                        total += live.get(&self.queries[q].entity).copied().unwrap_or(0);
                    }
                }
                Op::Update { remove, reinsert, .. } => {
                    for &id in remove {
                        if let Some(n) = self.entity_of(id).and_then(|e| live.get_mut(&e)) {
                            *n -= 1;
                        }
                    }
                    for &slot in reinsert {
                        *live.entry(self.reference[slot].entity).or_default() += 1;
                    }
                }
            }
        }
        total
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.model_path);
        let _ = std::fs::remove_file(&self.index_path);
    }
}

fn artefact_path(out_dir: &Path, what: &str) -> String {
    out_dir.join(format!("serve-{}-{what}.json", std::process::id())).display().to_string()
}

fn file_bytes(path: &str) -> f64 {
    std::fs::metadata(path).map_or(0.0, |m| m.len() as f64)
}

impl Workload for Serve {
    /// Train like `bench_serve`'s 10^4 rung, persist the model and the
    /// reference index, and cold-load both into a fresh service.
    fn setup(seed: u64, out_dir: &Path) -> Result<Self, String> {
        let (s, t) = task_seeds(seed);
        let (source, target) = {
            let _datagen = span("bench.datagen");
            (scale_task(SERVE_ROWS, s)?, scale_task(SERVE_ROWS, t)?)
        };
        let (xs, ys) = features(&source)?;
        let (xt, _) = features(&target)?;
        let transer = TransEr::new(TransErConfig::default(), ClassifierKind::RandomForest, seed)
            .map_err(err("transer config"))?;
        let (_, model) = {
            let _s = span("bench.core.fit_predict");
            transer.fit_predict_with_model(&xs, &ys, &xt).map_err(err("fit_predict"))?
        };
        let model = model.ok_or("random forest has no persisted form")?;
        let (reference, queries) = target;
        let index = LshIndex::from_records(
            ScaleGen::lsh_config(),
            Some(ScaleGen::blocking_attrs()),
            &reference,
        )
        .map_err(err("index"))?;
        let model_path = artefact_path(out_dir, "model");
        let index_path = artefact_path(out_dir, "index");
        model.save(&model_path).map_err(err("save model"))?;
        index.save(&index_path).map_err(err("save index"))?;
        let script = Script::generate(seed, reference.len(), queries.len());
        let mut serve = Serve {
            model_path,
            index_path,
            reference,
            queries,
            service: None,
            script,
            positives: None,
            last: None,
        };
        serve.service = Some(serve.load()?);
        Ok(serve)
    }

    fn job(&mut self) -> Result<Job, String> {
        let mut service = match self.service.take() {
            Some(service) => service,
            None => self.load()?,
        };
        let positives = match self.positives {
            Some(p) => p,
            None => *self.positives.insert(self.count_positives()),
        };
        let pool = Pool::global();
        let mut job = Job::default();
        let mut stats = ServeStats::default();
        let mut hash = Fnv::default();
        let mut quality = ConfusionMatrix::default();
        let mut pair_refs: Vec<usize> = Vec::new();
        let mut pair_queries: Vec<usize> = Vec::new();
        let timer = timed("bench.job");
        for (r, op) in self.script.ops.iter().enumerate() {
            job.attempted += 1;
            hash.word(r as u64);
            match op {
                Op::Query(picks) => {
                    let batch: Vec<Record> =
                        picks.iter().map(|&q| self.queries[q].clone()).collect();
                    stats.query_requests += 1;
                    stats.query_records += batch.len() as u64;
                    let start = Instant::now();
                    let response = {
                        let _s = span("bench.serve.query");
                        service.query_batch_with_pool(&batch, &pool)
                    };
                    let ms = start.elapsed().as_secs_f64() * 1e3;
                    let Ok(response) = response else {
                        job.latencies_ms.push(f64::INFINITY);
                        job.failed += 1;
                        hash.word(u64::MAX);
                        continue;
                    };
                    job.latencies_ms.push(ms);
                    stats.candidates += response.candidates as u64;
                    pair_refs.clear();
                    pair_queries.clear();
                    for d in &response.decisions {
                        hash.word(d.query as u64);
                        hash.word(d.reference as u64);
                        hash.word(u64::from(d.label.is_match()));
                        pair_refs.push(d.reference);
                        pair_queries.push(d.query);
                        if d.label.is_match() {
                            if self.entity_of(d.reference) == Some(batch[d.query].entity) {
                                quality.tp += 1;
                            } else {
                                quality.fp += 1;
                            }
                        }
                    }
                    for ids in [&mut pair_refs, &mut pair_queries] {
                        ids.sort_unstable();
                        ids.dedup();
                        stats.pair_records += ids.len() as u64;
                    }
                }
                Op::Update { remove, reinsert, fresh_ids } => {
                    let fresh: Vec<Record> =
                        reinsert.iter().map(|&slot| self.reference[slot].clone()).collect();
                    let removed = {
                        let _s = span("bench.lsh_index.remove");
                        remove.iter().try_for_each(|&id| service.remove(id))
                    };
                    let inserted = {
                        let _s = span("bench.lsh_index.insert");
                        fresh
                            .into_iter()
                            .map(|rec| service.insert(rec))
                            .collect::<Result<Vec<_>, _>>()
                    };
                    stats.removed += remove.len() as u64;
                    stats.inserted += reinsert.len() as u64;
                    match (removed, inserted) {
                        (Ok(()), Ok(ids)) if ids == *fresh_ids => {
                            ids.iter().for_each(|&id| hash.word(id as u64));
                        }
                        _ => {
                            job.failed += 1;
                            hash.word(u64::MAX);
                        }
                    }
                }
            }
        }
        job.secs = timer.finish();
        stats.tombstones = service.index().tombstones();
        quality.fn_ = positives.saturating_sub(quality.tp);
        job.units = stats.query_records as f64;
        job.outputs = vec![("decisions", hash.hex())];
        job.confusion = quality;
        self.last = Some(stats);
        Ok(job)
    }

    fn layers(&self, report: &TraceReport, m: &mut Metrics) {
        let Some(stats) = &self.last else { return };
        let job: &[SpanNode] = match crate::spans::root(report, "bench.job") {
            Some(job) => std::slice::from_ref(job),
            None => &[],
        };
        let per_request = |secs: f64| ratio(secs * 1e3, stats.query_requests as f64);
        let compare = totals(job, "blocking.compare");
        m.value("blocking.compare.request_ms", per_request(compare.secs));
        let m_features = ScaleGen::comparison().num_features() as f64;
        let prepared = report.counter("compare.prepared") as f64 / m_features;
        m.value("blocking.compare.prepare_ratio", ratio(stats.pair_records as f64, prepared));
        m.value("blocking.lsh_index.query_ms", per_request(totals(job, "serve.block").secs));
        let insert = totals(job, "bench.lsh_index.insert").secs;
        let remove = totals(job, "bench.lsh_index.remove").secs;
        m.value("blocking.lsh_index.insert_us", ratio(insert * 1e6, stats.inserted as f64));
        m.value("blocking.lsh_index.remove_us", ratio(remove * 1e6, stats.removed as f64));
        m.value(
            "blocking.lsh_index.candidates_per_query",
            ratio(stats.candidates as f64, stats.query_records as f64),
        );
        m.value("blocking.lsh_index.tombstones", stats.tombstones as f64);
        m.value("blocking.lsh_index.load_s", totals(&report.spans, "bench.lsh_index.load").secs);
        m.value("blocking.lsh_index.bytes", file_bytes(&self.index_path));
        m.value("ml.persist.load_s", totals(&report.spans, "bench.ml.persist.load").secs);
        m.value("ml.persist.bytes", file_bytes(&self.model_path));
        m.value("ml.predict.request_ms", per_request(totals(job, "serve.predict").secs));
        let query = totals(job, "bench.serve.query");
        m.value(
            "serve.allocs_per_request",
            ratio(query.allocs as f64, stats.query_requests as f64),
        );
        m.value(
            "serve.alloc_kb_per_request",
            ratio(query.bytes as f64 / 1024.0, stats.query_requests as f64),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_is_a_pure_function_of_the_seed() {
        let a = Script::generate(42, 1_000, 500);
        assert_eq!(a, Script::generate(42, 1_000, 500));
        assert_ne!(a, Script::generate(43, 1_000, 500));
    }

    #[test]
    fn script_shape_and_churn() {
        let s = Script::generate(7, 1_000, 500);
        assert_eq!(s.ops.len(), REQUESTS);
        let mut live: Vec<bool> = vec![true; 1_000];
        let mut previous: Vec<usize> = Vec::new();
        for (r, op) in s.ops.iter().enumerate() {
            match op {
                Op::Query(picks) => {
                    assert_ne!(r % UPDATE_EVERY, UPDATE_EVERY - 1);
                    assert_eq!(picks.len(), BATCH);
                    assert!(picks.iter().all(|&q| q < 500));
                }
                Op::Update { remove, reinsert, fresh_ids } => {
                    assert_eq!(r % UPDATE_EVERY, UPDATE_EVERY - 1);
                    assert_eq!(remove.len(), BATCH);
                    for &id in remove {
                        assert!(live[id], "update {r} removes dead id {id}");
                        live[id] = false;
                    }
                    // Re-inserts what the previous update removed, under
                    // ids never handed out before.
                    assert_eq!(*reinsert, previous);
                    for (&slot, &id) in reinsert.iter().zip(fresh_ids) {
                        assert_eq!(id, live.len());
                        assert_eq!(s.slot_of_id[id], slot);
                        live.push(true);
                    }
                    previous = remove.iter().map(|&id| s.slot_of_id[id]).collect();
                }
            }
        }
        assert_eq!(s.slot_of_id.len(), live.len());
    }
}

//! The batch workloads, `link` and `transfer`, and the interface every
//! workload implements.

use std::collections::HashMap;
use std::path::Path;

use transer_blocking::MinHashLsh;
use transer_common::{DomainPair, Label, LabeledDataset, Record};
use transer_core::{Diagnostics, TransEr, TransErConfig};
use transer_datagen::{ScaleConfig, ScaleGen, ScenarioPair};
use transer_metrics::ConfusionMatrix;
use transer_ml::ClassifierKind;
use transer_trace::{span, timed, TraceReport};

use crate::metrics::Metrics;
use crate::spans::totals;
use crate::stats::{Fnv, SplitMix64};

/// One timed job and what it produced.
#[derive(Debug, Default)]
pub struct Job {
    /// Wall seconds of the job (the `bench.job` span).
    pub secs: f64,
    /// Input units the job consumed; `records_per_s` is `units / secs`.
    pub units: f64,
    /// Latency of each operation in milliseconds: the job itself for the
    /// batch workloads, each query request for `serve` (+∞ when it failed).
    pub latencies_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Named output fingerprints, compared across jobs and with the
    /// committed values for the default seed.
    pub outputs: Vec<(&'static str, String)>,
    /// Match quality; `f_star` is its F*.
    pub confusion: ConfusionMatrix,
}

/// A workload: a set-up phase that makes its inputs from the seed, and a
/// job that is timed and repeated. Set-up may write scratch artefacts
/// under `out_dir`.
pub trait Workload: Sized {
    fn setup(seed: u64, out_dir: &Path) -> Result<Self, String>;
    fn job(&mut self) -> Result<Job, String>;
    /// Per-layer metrics particular to this workload, read from the traced
    /// run's report (one set-up and one job).
    fn layers(&self, report: &TraceReport, metrics: &mut Metrics);
}

pub fn err(context: &str) -> impl Fn(transer_common::Error) -> String + '_ {
    move |e| format!("{context}: {e}")
}

/// FNV-1a over final labels, one word per label, as `bench_scale` hashes.
pub fn label_hash(labels: &[Label]) -> String {
    let mut h = Fnv::default();
    for l in labels {
        h.word(u64::from(l.is_match()));
    }
    h.hex()
}

/// Cross pairs that describe the same entity: the matches a perfect
/// blocker would hand to the classifier.
pub fn true_cross_pairs(left: &[Record], right: &[Record]) -> usize {
    let mut per_entity: HashMap<u64, (usize, usize)> = HashMap::new();
    for r in left {
        per_entity.entry(r.entity).or_default().0 += 1;
    }
    for r in right {
        per_entity.entry(r.entity).or_default().1 += 1;
    }
    per_entity.values().map(|&(l, r)| l * r).sum()
}

/// Records per domain of each `link` task.
pub const LINK_ROWS: usize = 100_000;

/// ScaleGen seeds of the source and target tasks: `seed` and `seed + 1000`,
/// so the default seed 42 gives `bench_scale`'s 42 / 1042.
pub fn task_seeds(seed: u64) -> (u64, u64) {
    (seed, seed.wrapping_add(1000))
}

/// The two record domains of one linkage task.
pub type Task = (Vec<Record>, Vec<Record>);

pub fn scale_task(rows: usize, seed: u64) -> Result<Task, String> {
    Ok(ScaleGen::new(ScaleConfig::new(rows).with_seed(seed)).map_err(err("scale config"))?.pair())
}

/// Batch record linkage, the paper's Fig. 1 pipeline end to end: MinHash
/// blocking and pair comparison on a source and a target task, then
/// TransER from the labelled source to the unlabelled target.
pub struct Link {
    seed: u64,
    source: Task,
    target: Task,
    /// True cross pairs of the source and target task (computed once).
    true_pairs: Option<[usize; 2]>,
    last: Option<LinkStats>,
}

struct LinkStats {
    pairs: [usize; 2],
    true_candidates: [usize; 2],
    diagnostics: Diagnostics,
}

impl Workload for Link {
    fn setup(seed: u64, _out_dir: &Path) -> Result<Self, String> {
        let (s, t) = task_seeds(seed);
        let _datagen = span("bench.datagen");
        let source = scale_task(LINK_ROWS, s)?;
        let target = scale_task(LINK_ROWS, t)?;
        Ok(Link { seed, source, target, true_pairs: None, last: None })
    }

    fn job(&mut self) -> Result<Job, String> {
        let transer =
            TransEr::new(TransErConfig::default(), ClassifierKind::RandomForest, self.seed)
                .map_err(err("transer config"))?;
        let job = timed("bench.job");
        let blocker = MinHashLsh::new(ScaleGen::lsh_config()).map_err(err("lsh config"))?;
        let attrs = Some(ScaleGen::blocking_attrs());
        let (ps, pt) = {
            let _s = span("bench.blocking.minhash");
            let ps = blocker.candidate_pairs_masked(&self.source.0, &self.source.1, attrs);
            let pt = blocker.candidate_pairs_masked(&self.target.0, &self.target.1, attrs);
            (ps, pt)
        };
        let comparison = ScaleGen::comparison();
        let ((xs, ys), (xt, yt)) = {
            let _s = span("bench.blocking.compare");
            let s = comparison.compare_pairs(&self.source.0, &self.source.1, &ps);
            let t = comparison.compare_pairs(&self.target.0, &self.target.1, &pt);
            (s.map_err(err("compare source"))?, t.map_err(err("compare target"))?)
        };
        let out = {
            let _s = span("bench.core.fit_predict");
            transer.fit_predict(&xs, &ys, &xt).map_err(err("fit_predict"))?
        };
        let secs = job.finish();

        let true_pairs = *self.true_pairs.get_or_insert_with(|| {
            [
                true_cross_pairs(&self.source.0, &self.source.1),
                true_cross_pairs(&self.target.0, &self.target.1),
            ]
        });
        let true_candidates = [
            ys.iter().filter(|l| l.is_match()).count(),
            yt.iter().filter(|l| l.is_match()).count(),
        ];
        // Target matches the blocker never proposed are missed matches too.
        let mut quality = ConfusionMatrix::from_labels(&out.labels, &yt);
        quality.fn_ += true_pairs[1].saturating_sub(true_candidates[1]);
        self.last = Some(LinkStats {
            pairs: [ps.len(), pt.len()],
            true_candidates,
            diagnostics: out.diagnostics,
        });
        Ok(Job {
            secs,
            units: (4 * LINK_ROWS) as f64,
            latencies_ms: vec![secs * 1e3],
            attempted: 1,
            failed: 0,
            outputs: vec![
                ("labels", label_hash(&out.labels)),
                ("pairs_source", ps.len().to_string()),
                ("pairs_target", pt.len().to_string()),
            ],
            confusion: quality,
        })
    }

    fn layers(&self, report: &TraceReport, m: &mut Metrics) {
        let Some(last) = &self.last else { return };
        let minhash = totals(&report.spans, "bench.blocking.minhash");
        let compare = totals(&report.spans, "bench.blocking.compare");
        let pairs = (last.pairs[0] + last.pairs[1]) as f64;
        let true_candidates = (last.true_candidates[0] + last.true_candidates[1]) as f64;
        let true_pairs = self.true_pairs.map_or(0, |[s, t]| s + t) as f64;
        m.value("blocking.minhash.s", minhash.secs);
        m.value("blocking.minhash.ns_per_record", minhash.secs * 1e9 / (4 * LINK_ROWS) as f64);
        m.value("blocking.minhash.pairs", pairs);
        m.value("blocking.minhash.pair_quality", ratio(true_candidates, pairs));
        m.value("blocking.minhash.pair_completeness", ratio(true_candidates, true_pairs));
        m.value("blocking.minhash.allocs", minhash.allocs as f64);
        m.value("blocking.minhash.alloc_mb", minhash.bytes as f64 / MIB);
        m.value("blocking.compare.s", compare.secs);
        m.value("blocking.compare.ns_per_pair", ratio(compare.secs * 1e9, pairs));
        m.value("blocking.compare.alloc_mb", compare.bytes as f64 / MIB);
        diagnostics_layers(&last.diagnostics, m);
    }
}

pub const MIB: f64 = 1024.0 * 1024.0;

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn diagnostics_layers(d: &Diagnostics, m: &mut Metrics) {
    m.value("core.selected_rows", d.selected_count as f64);
    m.value("core.balanced_rows", d.balanced_count as f64);
    m.value("core.fallbacks", d.fallbacks.iter().count() as f64);
}

/// The paper's own transfer task, KIL Bp-Dp → IOS Bp-Dp: continuous
/// 8-feature vectors, so SEL's k-NN does most of the work.
pub struct Transfer {
    seed: u64,
    task: DomainPair,
    last: Option<Diagnostics>,
}

/// Source and target rows of every `transfer` task: the sizes of the
/// Bp-Dp pair at scale 0.3 and seed 42. At scale 0.3 the sizes move with
/// the seed (55–73 k source and 9–17 k target rows over seeds 0–59), and
/// SEL's k-NN cost grows faster than the rows, so `records_per_s` is read
/// at this fixed size instead.
pub const TRANSFER_ROWS: [usize; 2] = [61_636, 12_249];

/// Scale the Bp-Dp pair is generated at before sampling `TRANSFER_ROWS`
/// from it: every seed from 0 to 59 yields at least 87 k source and 15 k
/// target rows here.
pub const TRANSFER_SCALE: f64 = 0.4;

/// Generator seed of the Bp-Dp pair every `transfer` run samples from.
/// The run's seed draws the sample. Letting it regenerate the pair as well
/// moved SEL's k-NN cost by about 13 % between seeds 101 and 105 at the
/// fixed sizes (the pair's shape changes with its generator seed), which
/// is more than a run's own timing noise. Seed 42's inputs are the same
/// either way.
pub const TRANSFER_PAIR_SEED: u64 = 42;

/// A seeded uniform sample of exactly `n` rows of `d`, in their original
/// order.
fn sample_rows(
    d: &LabeledDataset,
    n: usize,
    rng: &mut SplitMix64,
) -> Result<LabeledDataset, String> {
    if d.len() < n {
        return Err(format!("{} has {} rows, fewer than the {n} to sample", d.name, d.len()));
    }
    let mut rows: Vec<usize> = (0..d.len()).collect();
    for i in 0..n {
        let j = i + rng.below(rows.len() - i);
        rows.swap(i, j);
    }
    rows.truncate(n);
    rows.sort_unstable();
    Ok(d.select(&rows))
}

impl Workload for Transfer {
    fn setup(seed: u64, _out_dir: &Path) -> Result<Self, String> {
        let _datagen = span("bench.datagen");
        let pair = ScenarioPair::BpDp
            .domain_pair(TRANSFER_SCALE, TRANSFER_PAIR_SEED)
            .map_err(err("Bp-Dp scenario"))?
            .reversed();
        let mut rng = SplitMix64::new(seed);
        let source = sample_rows(&pair.source, TRANSFER_ROWS[0], &mut rng)?;
        let target = sample_rows(&pair.target, TRANSFER_ROWS[1], &mut rng)?;
        let task = DomainPair::new(source, target).map_err(err("Bp-Dp sample"))?;
        Ok(Transfer { seed, task, last: None })
    }

    fn job(&mut self) -> Result<Job, String> {
        let transer =
            TransEr::new(TransErConfig::default(), ClassifierKind::RandomForest, self.seed)
                .map_err(err("transer config"))?;
        let (source, target) = (&self.task.source, &self.task.target);
        let job = timed("bench.job");
        let out = {
            let _s = span("bench.core.fit_predict");
            transer.fit_predict(&source.x, &source.y, &target.x).map_err(err("fit_predict"))?
        };
        let secs = job.finish();
        self.last = Some(out.diagnostics);
        Ok(Job {
            secs,
            units: (source.x.rows() + target.x.rows()) as f64,
            latencies_ms: vec![secs * 1e3],
            attempted: 1,
            failed: 0,
            outputs: vec![("labels", label_hash(&out.labels))],
            confusion: ConfusionMatrix::from_labels(&out.labels, &target.y),
        })
    }

    fn layers(&self, _report: &TraceReport, m: &mut Metrics) {
        if let Some(d) = &self.last {
            diagnostics_layers(d, m);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f_star_on_a_fixed_confusion_matrix() {
        // The benchmark's F* is the metrics crate's: TP / (TP + FP + FN).
        let bits = |b: &[u8]| b.iter().map(|&x| Label::from_bool(x == 1)).collect::<Vec<_>>();
        let mut c = ConfusionMatrix::from_labels(&bits(&[1, 1, 0, 0, 1]), &bits(&[1, 0, 1, 0, 1]));
        assert_eq!((c.tp, c.fp, c.fn_), (2, 1, 1));
        assert_eq!(c.f_star(), 0.5);
        // `link` adds the true matches the blocker never proposed as FN.
        c.fn_ += 3;
        assert_eq!(c.f_star(), 2.0 / 7.0);
        let fixed = ConfusionMatrix { tp: 60, fp: 15, fn_: 25, tn: 0 };
        assert_eq!(fixed.f_star(), 0.6);
        assert_eq!(ConfusionMatrix::default().f_star(), 0.0);
    }
}

//! Phase (i) — the instance selector (SEL), Section 4.1 of the paper.
//!
//! For every source instance `x^S` the selector computes:
//!
//! * `sim_c(x^S)` (Eq. 1): the fraction of its `k` nearest source
//!   neighbours sharing its class label — the *class confidence*. Low
//!   values flag instances in ambiguous regions, where the same feature
//!   vector carries both labels.
//! * `sim_l(x^S)` (Eq. 2): `exp(-5 · ‖c_S − c_T‖₂ / √m)` where `c_S`/`c_T`
//!   are the centroids of its `k`-neighbourhoods in the source and target —
//!   the *local structural similarity* of the two marginal distributions
//!   around the instance.
//! * optionally `sim_v(x^S)`: the covariance analogue used by LocIT,
//!   `exp(-5 · ‖Σ_S − Σ_T‖_F / m)`, available for the `+ sim_v` ablation.
//!
//! An instance is transferred when every enabled score clears its
//! threshold.
//!
//! # The duplicate-aware fast path
//!
//! ER feature matrices are massively duplicated — many record pairs share
//! a rounded similarity vector — so the default path interns the source
//! and target rows ([`RowInterning`](transer_common::RowInterning)) and
//! does all k-NN and
//! centroid/covariance work once per *unique* source row on a
//! [`DedupKnn`] engine, broadcasting scores to the duplicates. The
//! neighbour order of a duplicated matrix is fully determined by the
//! unique rows, their multiplicities and the original row indices, so the
//! scores are **bit-identical** to the straightforward per-row path
//! (retained as [`select_instances_per_row_with_pool`] and pinned by
//! tests) at every worker count, on NaN and ±Inf cells too.

use transer_common::{Error, FeatureMatrix, Label, Result};
use transer_knn::{DedupKnn, KdTree, Neighbor, QueryScratch};
use transer_linalg::{covariance, Mat};
use transer_parallel::{CostHint, Pool};

use crate::config::{TransErConfig, Variant};
use crate::decay::exp_decay_5;

/// Cost of scoring one unique source row, its two weighted k-NN queries
/// included: the grain hint for the chunk loop. Timed on perfbench's
/// `transfer` (seed 42, one worker, 2-core x86-64 host): SEL takes
/// 0.64–0.74 s untraced for 52,020 unique rows, 12–14 µs each, of which
/// the two queries take 11–12 µs (`pipeline/sel` reads 0.78 s traced).
const UNIQUE_ROW_NANOS: u64 = 12_000;

/// Cost of scoring one source row on the per-row reference path: its
/// grain hint. Not timed; it keeps the retired per-class table's figure,
/// well under the 12 µs a row's two queries take on `transfer`.
const PER_ROW_NANOS: u64 = 2_000;

/// Unique source rows scored per parallel work item. Each row is scored
/// on its own, so results never depend on it; it is pinned so the
/// dispatch, and the chunk sizes the trace records, do not depend on the
/// worker count either.
const CHUNK: usize = 32;

/// The per-instance similarity scores computed by the selector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstanceScores {
    /// Class-confidence similarity `sim_c` (Eq. 1).
    pub sim_c: f64,
    /// Structural similarity `sim_l` (Eq. 2).
    pub sim_l: f64,
    /// Covariance similarity `sim_v` (only computed when the variant
    /// enables it; 1.0 otherwise).
    pub sim_v: f64,
}

/// Output of the SEL phase.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectionResult {
    /// Indices into `X^S` of the transferred instances `X^U`, ascending.
    pub indices: Vec<usize>,
    /// Scores for *every* source instance (selected or not), aligned with
    /// the rows of `X^S`; useful for diagnostics and the sensitivity
    /// experiments.
    pub scores: Vec<InstanceScores>,
}

impl SelectionResult {
    /// Materialise the transferred feature matrix `X^U` and labels `Y^U`.
    pub fn transferred(&self, xs: &FeatureMatrix, ys: &[Label]) -> (FeatureMatrix, Vec<Label>) {
        (xs.select_rows(&self.indices), self.indices.iter().map(|&i| ys[i]).collect())
    }
}

/// Run the SEL phase: score every source instance and keep those clearing
/// the enabled thresholds (lines 1–9 of Algorithm 1).
///
/// Scoring runs per *unique* source row on the duplicate-aware engine and
/// on the global [`Pool`] (`TRANSER_THREADS`). The result is bit-identical
/// for every worker count.
///
/// # Errors
/// Returns an error for empty inputs, mismatched shapes or an invalid
/// configuration.
pub fn select_instances(
    xs: &FeatureMatrix,
    ys: &[Label],
    xt: &FeatureMatrix,
    config: &TransErConfig,
) -> Result<SelectionResult> {
    select_instances_with_pool(xs, ys, xt, config, &Pool::global())
}

/// [`select_instances`] on an explicit [`Pool`] — the hook the determinism
/// tests and benchmarks use to pin the worker count.
///
/// # Errors
/// As for [`select_instances`].
pub fn select_instances_with_pool(
    xs: &FeatureMatrix,
    ys: &[Label],
    xt: &FeatureMatrix,
    config: &TransErConfig,
    pool: &Pool,
) -> Result<SelectionResult> {
    validate(xs, ys, xt, config)?;
    // Fault site `sel.knn`: float kinds corrupt a copy of the source the
    // scoring sees; shape/label kinds starve the selection outright (the
    // pipeline's degenerate-set check then takes the full-source rung).
    let corrupted;
    let xs = match transer_robust::fired(transer_robust::site::SEL_KNN) {
        Some(kind @ (transer_robust::FaultKind::Nan | transer_robust::FaultKind::Inf)) => {
            let mut c = xs.clone();
            transer_robust::corrupt_matrix(&mut c, kind);
            corrupted = c;
            &corrupted
        }
        Some(_) => {
            return Ok(SelectionResult {
                indices: Vec::new(),
                scores: vec![InstanceScores { sim_c: 0.0, sim_l: 0.0, sim_v: 0.0 }; xs.rows()],
            });
        }
        None => xs,
    };
    let k = config.k;
    let source = DedupKnn::build(xs);
    let target = DedupKnn::build(xt);
    let interning = source.interning();

    // Per unique row: two k-NN queries plus group scoring. Rows are scored
    // in the source index's leaf order, so consecutive source queries
    // start next to each other and walk the same nodes and leaves. The
    // chunk size is pinned (see [`CHUNK`]), so only the inline/pooled
    // decision comes from the grain policy. A chunk runs all its source
    // queries, then all its target queries: staying on one tree keeps its
    // upper levels in cache (alternating trees row by row ran the
    // `transfer` benchmark about 5 % slower on a 2-core x86-64 host).
    let unique_ids = source.unique_rows_in_leaf_order();
    let sel_hint = CostHint::with_per_item_nanos(unique_ids.len(), UNIQUE_ROW_NANOS);
    let groups: Vec<Vec<(u32, InstanceScores, bool)>> =
        pool.par_chunks_costed(unique_ids, Some(CHUNK), sel_hint, |_, chunk| {
            let mut scratch = QueryScratch::default();
            // Budget k + 1: after dropping the instance itself from the
            // expanded order, k neighbours are still covered.
            let rows = interning.unique();
            let (src, src_ends) = query_chunk(&source, rows, chunk, k + 1, &mut scratch);
            let (tgt, tgt_ends) = query_chunk(&target, rows, chunk, k, &mut scratch);
            chunk
                .iter()
                .zip(src_ends.windows(2).zip(tgt_ends.windows(2)))
                .map(|(&u, (s, t))| {
                    let (sw, tw) = (&src[s[0]..s[1]], &tgt[t[0]..t[1]]);
                    score_group(u as usize, sw, tw, xs, ys, xt, &source, &target, config)
                })
                .collect()
        });

    let n = xs.rows();
    let mut scores = vec![InstanceScores { sim_c: 0.0, sim_l: 0.0, sim_v: 0.0 }; n];
    let mut keep = vec![false; n];
    for group in &groups {
        for &(i, s, kept) in group {
            scores[i as usize] = s;
            keep[i as usize] = kept;
        }
    }
    let indices = keep.iter().enumerate().filter_map(|(i, &kept)| kept.then_some(i)).collect();
    Ok(SelectionResult { indices, scores })
}

/// Query `engine` at budget `k` from row `u` of `rows` for every `u` in
/// `chunk`, in order, collecting the weighted results into one flat
/// buffer. Returns it with its offsets: chunk row `j`'s neighbours are
/// `buffer[ends[j]..ends[j + 1]]`.
fn query_chunk(
    engine: &DedupKnn,
    rows: &FeatureMatrix,
    chunk: &[u32],
    k: usize,
    scratch: &mut QueryScratch,
) -> (Vec<Neighbor>, Vec<usize>) {
    let (mut buffer, mut ends) = (Vec::new(), Vec::with_capacity(chunk.len() + 1));
    ends.push(0);
    for &u in chunk {
        engine.k_nearest_unique_into(rows.row(u as usize), k, scratch, &mut buffer);
        ends.push(buffer.len());
    }
    (buffer, ends)
}

/// The "without SEL" ablation: transfer every source row, scoring none.
/// With every filter off SEL keeps every row whatever its scores, so the
/// k-NN queries are skipped, while the rest of [`select_instances`] holds:
/// inputs are validated with the same errors, and the `sel.knn` fault
/// site fires. A float kind would corrupt only scores, so every row is
/// still transferred; any other kind starves the selection. Each
/// transferred row counts `sel.accepted`, as a scored row does.
///
/// # Errors
/// As for [`select_instances`].
pub(crate) fn transfer_all(
    xs: &FeatureMatrix,
    ys: &[Label],
    xt: &FeatureMatrix,
    config: &TransErConfig,
) -> Result<(FeatureMatrix, Vec<Label>)> {
    validate(xs, ys, xt, config)?;
    match transer_robust::fired(transer_robust::site::SEL_KNN) {
        None | Some(transer_robust::FaultKind::Nan | transer_robust::FaultKind::Inf) => {
            transer_trace::counter("sel.accepted", xs.rows() as u64);
            Ok((xs.clone(), ys.to_vec()))
        }
        Some(_) => Ok((FeatureMatrix::empty(xs.cols()), Vec::new())),
    }
}

/// Score every member of unique source row `u` from the group's weighted
/// neighbour queries (`weighted_src` at budget `k + 1`, `weighted_tgt` at
/// budget `k`, both over unique rows).
///
/// Let `P` be the first `min(k + 1, n)` entries of the full neighbour
/// order of the original matrix (obtained by expanding `weighted_src`).
/// The per-row neighbourhood of a member `i` of the group is
///
/// * `P \ {i}` when `i ∈ P`, and
/// * `P[..k]` when `i ∉ P` (then `|P| = k + 1` and `i` sits beyond it in
///   the order, so removing it does not disturb the prefix).
///
/// A finite row is at squared distance exactly `+0.0` from itself. In the
/// common *clean* case — `P` opens with a zero-distance prefix and every
/// entry of it belongs to this group, hence is bitwise equal to the query
/// — the members in `P` are the first `zero_count` members, and the
/// row-value sequence of `P \ {i}` equals that of `P[1..]` for each of
/// them: the leading zero-distance entries all hold the same bits, so
/// removing any one of them leaves the same value sequence. Centroids and
/// covariances (functions of the value sequence) are therefore computed
/// once per variant, and `sim_c` reduces to label counting over `P`.
/// Every other case falls back to exact per-member scoring from `P` —
/// still without re-querying: a row numerically equal but not bitwise
/// equal to the query (e.g. `0.0` vs `-0.0`) inside the zero prefix, a
/// row with a NaN or ±Inf cell (at NaN from itself, so `P` has no zero
/// prefix), and a negative-NaN distance, which `total_cmp` ranks before
/// `+0.0`.
#[allow(clippy::too_many_arguments)]
fn score_group(
    u: usize,
    weighted_src: &[Neighbor],
    weighted_tgt: &[Neighbor],
    xs: &FeatureMatrix,
    ys: &[Label],
    xt: &FeatureMatrix,
    source: &DedupKnn,
    target: &DedupKnn,
    config: &TransErConfig,
) -> Vec<(u32, InstanceScores, bool)> {
    let k = config.k;
    let m = xs.cols() as f64;
    let variant = config.variant;
    let interning = source.interning();
    let members = interning.members(u);
    let row = interning.unique().row(u);

    let p = source.expand_to_original(weighted_src, k + 1, None);
    let nt = target.expand_to_original(weighted_tgt, k, None);

    // Target-side quantities, shared by the whole group.
    let ct = (!nt.is_empty()).then(|| centroid(xt, &nt, row));
    let cov_t = (variant.use_sim_v && !nt.is_empty())
        .then(|| covariance(&xt.select_rows(&nt.iter().map(|n| n.index).collect::<Vec<_>>())));

    // An empty zero prefix (a non-finite row, or a negative NaN ranked
    // first) is not clean: the members are not at the front of `P`.
    let zero_count = p.iter().take_while(|n| n.sq_dist == 0.0).count();
    let clean = zero_count > 0
        && p[..zero_count].iter().all(|n| interning.to_unique()[n.index] as usize == u);

    let mut out = Vec::with_capacity(members.len());
    if clean {
        let p_len = p.len();
        let k_prefix = k.min(p_len);
        let matches_full = p.iter().filter(|n| ys[n.index] == Label::Match).count();
        let matches_prefix = p[..k_prefix].iter().filter(|n| ys[n.index] == Label::Match).count();
        // Members inside `P` share the value sequence of `P[1..]`; members
        // beyond it share `P[..k]`. Memoise each variant's structural
        // scores lazily, so each is computed at most once and exactly when
        // a member needs it.
        let mut inside: Option<SharedScores> = None;
        let mut beyond: Option<SharedScores> = None;
        for (j, &i) in members.iter().enumerate() {
            let i = i as usize;
            let (ns_len, same, shared) = if j < zero_count {
                let same_full =
                    if ys[i] == Label::Match { matches_full } else { p_len - matches_full };
                let shared = &*inside.get_or_insert_with(|| {
                    shared_scores(&p[1..], ct.as_deref(), cov_t.as_ref(), xs, row, m, variant)
                });
                // `i` itself is in `P` and trivially shares its own label.
                (p_len - 1, same_full - 1, shared)
            } else {
                let same =
                    if ys[i] == Label::Match { matches_prefix } else { k_prefix - matches_prefix };
                let shared = &*beyond.get_or_insert_with(|| {
                    shared_scores(
                        &p[..k_prefix],
                        ct.as_deref(),
                        cov_t.as_ref(),
                        xs,
                        row,
                        m,
                        variant,
                    )
                });
                (k_prefix, same, shared)
            };
            let sim_c = if ns_len == 0 { 1.0 } else { same as f64 / ns_len as f64 };
            out.push(assemble(i, sim_c, shared, config));
        }
    } else {
        for &i in members {
            let i = i as usize;
            let ns: Vec<Neighbor> = match p.iter().position(|n| n.index == i) {
                Some(pos) => {
                    let mut v = p.clone();
                    v.remove(pos);
                    v
                }
                None => p[..k.min(p.len())].to_vec(),
            };
            let same = ns.iter().filter(|n| ys[n.index] == ys[i]).count();
            let sim_c = if ns.is_empty() { 1.0 } else { same as f64 / ns.len() as f64 };
            let shared = shared_scores(&ns, ct.as_deref(), cov_t.as_ref(), xs, row, m, variant);
            out.push(assemble(i, sim_c, &shared, config));
        }
    }
    out
}

/// The structural scores determined by a neighbourhood's value sequence:
/// `sim_l` from the centroid distance, `sim_v` from the covariance
/// distance (1.0 when disabled or undefined).
struct SharedScores {
    sim_l: f64,
    sim_v: f64,
}

fn shared_scores(
    ns: &[Neighbor],
    ct: Option<&[f64]>,
    cov_t: Option<&Mat>,
    xs: &FeatureMatrix,
    row: &[f64],
    m: f64,
    variant: Variant,
) -> SharedScores {
    // Eq. (2): decayed, normalised centroid distance; 0.0 when the target
    // neighbourhood is empty.
    let sim_l = match ct {
        None => 0.0,
        Some(ct) => {
            let cs = centroid(xs, ns, row);
            let dist: f64 = cs.iter().zip(ct).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt();
            exp_decay_5(dist / m.sqrt())
        }
    };
    // Optional LocIT covariance similarity for the + sim_v ablation.
    let sim_v = match cov_t {
        Some(cov_t) if variant.use_sim_v && !ns.is_empty() => {
            let cov_s =
                covariance(&xs.select_rows(&ns.iter().map(|n| n.index).collect::<Vec<_>>()));
            exp_decay_5(cov_s.frobenius_distance(cov_t) / m)
        }
        _ => 1.0,
    };
    SharedScores { sim_l, sim_v }
}

/// Apply the thresholds of every enabled score (line 6 of Algorithm 1).
fn assemble(
    i: usize,
    sim_c: f64,
    shared: &SharedScores,
    config: &TransErConfig,
) -> (u32, InstanceScores, bool) {
    let variant = config.variant;
    let keep = (!variant.use_sim_c || sim_c >= config.t_c)
        && (!variant.use_sim_l || shared.sim_l >= config.t_l)
        && (!variant.use_sim_v || shared.sim_v >= config.t_v);
    record_verdict(sim_c, shared.sim_l, shared.sim_v, config, keep);
    (i as u32, InstanceScores { sim_c, sim_l: shared.sim_l, sim_v: shared.sim_v }, keep)
}

/// Trace the SEL accept/reject breakdown: accepted rows bump `sel.accepted`;
/// rejected rows are attributed to the *first* enabled threshold they fail
/// (the order Algorithm 1 tests them in).
fn record_verdict(sim_c: f64, sim_l: f64, sim_v: f64, config: &TransErConfig, keep: bool) {
    if !transer_trace::enabled() {
        return;
    }
    let variant = config.variant;
    if keep {
        transer_trace::counter("sel.accepted", 1);
    } else if variant.use_sim_c && sim_c < config.t_c {
        transer_trace::counter("sel.rejected.sim_c", 1);
    } else if variant.use_sim_l && sim_l < config.t_l {
        transer_trace::counter("sel.rejected.sim_l", 1);
    } else if variant.use_sim_v && sim_v < config.t_v {
        transer_trace::counter("sel.rejected.sim_v", 1);
    } else {
        // A non-finite score fails its threshold without comparing below
        // it (`NaN < t` is false), so no filter above claims the row; only
        // reachable under fault injection.
        transer_trace::counter("sel.rejected.nan", 1);
    }
}

/// The straightforward per-row SEL path: two k-d tree queries plus
/// centroid / covariance work for every source row, with no interning or
/// memoization. Kept as the reference implementation the duplicate-aware
/// path is pinned against (bit-for-bit) by the equivalence tests.
///
/// # Errors
/// As for [`select_instances`].
pub fn select_instances_per_row_with_pool(
    xs: &FeatureMatrix,
    ys: &[Label],
    xt: &FeatureMatrix,
    config: &TransErConfig,
    pool: &Pool,
) -> Result<SelectionResult> {
    validate(xs, ys, xt, config)?;
    let k = config.k;
    let m = xs.cols() as f64;
    let source_tree = KdTree::build(xs);
    let target_tree = KdTree::build(xt);

    let variant = config.variant;
    let row_indices: Vec<usize> = (0..xs.rows()).collect();
    let row_hint = CostHint::with_per_item_nanos(row_indices.len(), PER_ROW_NANOS);
    let scored: Vec<(InstanceScores, bool)> = pool.par_map_costed(&row_indices, row_hint, |&i| {
        let row = xs.row(i);
        // Neighbourhoods N_x^S (excluding the instance itself) and N_x^T.
        let ns = source_tree.k_nearest_excluding(row, k, Some(i));
        let nt = target_tree.k_nearest(row, k);

        // Eq. (1): fraction of source neighbours sharing the label. The
        // paper divides by k; when fewer than k neighbours exist (tiny
        // sources) we divide by the actual count to keep the score in [0,1].
        let same = ns.iter().filter(|n| ys[n.index] == ys[i]).count();
        let sim_c = if ns.is_empty() { 1.0 } else { same as f64 / ns.len() as f64 };

        // Eq. (2): decayed, normalised centroid distance.
        let sim_l = if nt.is_empty() {
            0.0
        } else {
            let cs = centroid(xs, &ns, row);
            let ct = centroid(xt, &nt, row);
            let dist: f64 = cs.iter().zip(&ct).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt();
            exp_decay_5(dist / m.sqrt())
        };

        // Optional LocIT covariance similarity for the + sim_v ablation.
        let sim_v = if variant.use_sim_v && !ns.is_empty() && !nt.is_empty() {
            let cov_s =
                covariance(&xs.select_rows(&ns.iter().map(|n| n.index).collect::<Vec<_>>()));
            let cov_t =
                covariance(&xt.select_rows(&nt.iter().map(|n| n.index).collect::<Vec<_>>()));
            exp_decay_5(cov_s.frobenius_distance(&cov_t) / m)
        } else {
            1.0
        };

        let keep = (!variant.use_sim_c || sim_c >= config.t_c)
            && (!variant.use_sim_l || sim_l >= config.t_l)
            && (!variant.use_sim_v || sim_v >= config.t_v);
        record_verdict(sim_c, sim_l, sim_v, config, keep);
        (InstanceScores { sim_c, sim_l, sim_v }, keep)
    });

    let mut indices = Vec::new();
    let mut scores = Vec::with_capacity(xs.rows());
    for (i, (instance_scores, keep)) in scored.into_iter().enumerate() {
        if keep {
            indices.push(i);
        }
        scores.push(instance_scores);
    }
    Ok(SelectionResult { indices, scores })
}

fn validate(
    xs: &FeatureMatrix,
    ys: &[Label],
    xt: &FeatureMatrix,
    config: &TransErConfig,
) -> Result<()> {
    config.validate()?;
    if xs.rows() == 0 {
        return Err(Error::EmptyInput("source instances"));
    }
    if xt.rows() == 0 {
        return Err(Error::EmptyInput("target instances"));
    }
    if xs.rows() != ys.len() {
        return Err(Error::DimensionMismatch {
            what: "source rows vs labels",
            left: xs.rows(),
            right: ys.len(),
        });
    }
    if xs.cols() != xt.cols() {
        return Err(Error::DimensionMismatch {
            what: "source vs target feature columns",
            left: xs.cols(),
            right: xt.cols(),
        });
    }
    Ok(())
}

/// Mean of the neighbourhood rows; falls back to the instance itself when
/// the neighbourhood is empty (single-row matrices).
fn centroid(x: &FeatureMatrix, neighbours: &[Neighbor], fallback: &[f64]) -> Vec<f64> {
    if neighbours.is_empty() {
        return fallback.to_vec();
    }
    let mut c = vec![0.0; x.cols()];
    for n in neighbours {
        for (acc, &v) in c.iter_mut().zip(x.row(n.index)) {
            *acc += v;
        }
    }
    let k = neighbours.len() as f64;
    c.iter_mut().for_each(|v| *v /= k);
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use transer_parallel::GrainMode;

    /// Source: tight match cluster at (0.9, 0.9), tight non-match cluster
    /// at (0.1, 0.1), plus one contested instance at (0.5, 0.5) surrounded
    /// by opposite labels. Target mirrors the two clusters.
    fn fixture() -> (FeatureMatrix, Vec<Label>, FeatureMatrix) {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..10 {
            let j = i as f64 * 0.004;
            xs.push(vec![0.9 + j, 0.9 - j]);
            ys.push(Label::Match);
            xs.push(vec![0.1 + j, 0.1 - j]);
            ys.push(Label::NonMatch);
        }
        // A conflicted region: interleaved labels at the same spot.
        for i in 0..6 {
            let j = i as f64 * 0.003;
            xs.push(vec![0.5 + j, 0.5 - j]);
            ys.push(if i % 2 == 0 { Label::Match } else { Label::NonMatch });
        }
        let mut xt = Vec::new();
        for i in 0..10 {
            let j = i as f64 * 0.004;
            xt.push(vec![0.88 + j, 0.91 - j]);
            xt.push(vec![0.12 + j, 0.09 - j]);
        }
        (FeatureMatrix::from_vecs(&xs).unwrap(), ys, FeatureMatrix::from_vecs(&xt).unwrap())
    }

    /// A duplicate-heavy fixture: every source row repeated several times
    /// (with mixed labels at the contested prototype) and a duplicated
    /// target.
    fn duplicated_fixture() -> (FeatureMatrix, Vec<Label>, FeatureMatrix) {
        let protos = [
            (vec![0.9, 0.9], Label::Match),
            (vec![0.1, 0.1], Label::NonMatch),
            (vec![0.5, 0.5], Label::Match),
            (vec![0.5, 0.5], Label::NonMatch),
            (vec![0.7, 0.3], Label::Match),
        ];
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for rep in 0..8 {
            for (row, label) in &protos {
                // Skip some entries so multiplicities differ per prototype.
                if rep % ((xs.len() % 3) + 1) == 0 || rep < 4 {
                    xs.push(row.clone());
                    ys.push(*label);
                }
            }
        }
        let mut xt = Vec::new();
        for _ in 0..6 {
            xt.push(vec![0.88, 0.91]);
            xt.push(vec![0.12, 0.09]);
            xt.push(vec![0.52, 0.48]);
        }
        (FeatureMatrix::from_vecs(&xs).unwrap(), ys, FeatureMatrix::from_vecs(&xt).unwrap())
    }

    /// Duplicated rows with NaN, negative-NaN and ±Inf cells: a
    /// non-finite row is at NaN from itself, and a negative NaN ranks
    /// before +0.0, so neither may take the zero-prefix shortcut.
    fn non_finite_fixture() -> (FeatureMatrix, Vec<Label>, FeatureMatrix) {
        let protos = [
            vec![0.2, 0.4],
            vec![f64::NAN, 0.4],
            vec![f64::INFINITY, 0.1],
            vec![0.3, f64::NEG_INFINITY],
            vec![-f64::NAN, 0.9],
            vec![0.25, 0.35],
        ];
        let pattern = [0usize, 1, 2, 0, 3, 1, 4, 2, 5, 0, 2, 3, 1, 5, 4, 0];
        let xs = pattern.iter().map(|&p| protos[p].clone()).collect::<Vec<_>>();
        let ys = (0..pattern.len()).map(|i| Label::from_bool(i % 3 == 0)).collect();
        let xt =
            [vec![0.2, 0.5], vec![f64::INFINITY, 0.1], vec![0.3, 0.3], vec![f64::NAN, f64::NAN]];
        (FeatureMatrix::from_vecs(&xs).unwrap(), ys, FeatureMatrix::from_vecs(&xt).unwrap())
    }

    fn config(k: usize) -> TransErConfig {
        TransErConfig { k, ..Default::default() }
    }

    fn assert_bit_identical(a: &SelectionResult, b: &SelectionResult, what: &str) {
        assert_eq!(a.indices, b.indices, "{what}: indices differ");
        assert_eq!(a.scores.len(), b.scores.len(), "{what}: score count differs");
        for (i, (x, y)) in a.scores.iter().zip(&b.scores).enumerate() {
            assert_eq!(x.sim_c.to_bits(), y.sim_c.to_bits(), "{what}: sim_c row {i}");
            assert_eq!(x.sim_l.to_bits(), y.sim_l.to_bits(), "{what}: sim_l row {i}");
            assert_eq!(x.sim_v.to_bits(), y.sim_v.to_bits(), "{what}: sim_v row {i}");
        }
    }

    #[test]
    fn confident_cluster_instances_selected() {
        let (xs, ys, xt) = fixture();
        let sel = select_instances(&xs, &ys, &xt, &config(5)).unwrap();
        // The 20 cluster instances are confident and structurally aligned;
        // the 6 conflicted mid-points are not.
        for &i in &sel.indices {
            assert!(i < 20, "conflicted instance {i} selected");
        }
        assert!(sel.indices.len() >= 16, "selected {:?}", sel.indices.len());
    }

    #[test]
    fn conflicted_instances_have_low_sim_c() {
        let (xs, ys, xt) = fixture();
        let sel = select_instances(&xs, &ys, &xt, &config(5)).unwrap();
        for s in &sel.scores[20..] {
            assert!(s.sim_c < 0.9, "sim_c {} not low", s.sim_c);
        }
        for s in &sel.scores[..20] {
            assert!(s.sim_c >= 0.9, "cluster sim_c {} unexpectedly low", s.sim_c);
        }
    }

    #[test]
    fn structurally_absent_regions_have_low_sim_l() {
        let (xs, ys, _) = fixture();
        // Target far away from every source instance.
        let far = FeatureMatrix::from_vecs(
            &(0..10).map(|i| vec![0.0, 0.9 + i as f64 * 0.01]).collect::<Vec<_>>(),
        )
        .unwrap();
        let sel = select_instances(&xs, &ys, &far, &config(5)).unwrap();
        // Match-cluster instances at (0.9,0.9) are far from the target
        // cloud near (0.0,0.95): sim_l must be small.
        assert!(sel.scores[0].sim_l < 0.9);
    }

    #[test]
    fn scores_bounded() {
        let (xs, ys, xt) = fixture();
        let sel = select_instances(&xs, &ys, &xt, &config(7)).unwrap();
        for s in &sel.scores {
            assert!((0.0..=1.0).contains(&s.sim_c));
            assert!((0.0..=1.0).contains(&s.sim_l));
            assert!((0.0..=1.0).contains(&s.sim_v));
        }
    }

    #[test]
    fn thresholds_zero_select_everything() {
        let (xs, ys, xt) = fixture();
        let cfg = TransErConfig { t_c: 0.0, t_l: 0.0, ..config(5) };
        let sel = select_instances(&xs, &ys, &xt, &cfg).unwrap();
        assert_eq!(sel.indices.len(), xs.rows());
    }

    #[test]
    fn disabled_filters_ignore_thresholds() {
        let (xs, ys, xt) = fixture();
        let mut cfg = TransErConfig { t_c: 1.0, t_l: 1.0, ..config(5) };
        cfg.variant.use_sim_c = false;
        cfg.variant.use_sim_l = false;
        let sel = select_instances(&xs, &ys, &xt, &cfg).unwrap();
        assert_eq!(sel.indices.len(), xs.rows());
    }

    #[test]
    fn sim_v_filter_tightens_selection() {
        let (xs, ys, xt) = fixture();
        let plain = select_instances(&xs, &ys, &xt, &config(5)).unwrap();
        let mut cfg = config(5);
        cfg.variant.use_sim_v = true;
        cfg.t_v = 0.999; // extremely strict covariance agreement
        let with_v = select_instances(&xs, &ys, &xt, &cfg).unwrap();
        assert!(with_v.indices.len() <= plain.indices.len());
        for i in &with_v.indices {
            assert!(plain.indices.contains(i));
        }
    }

    #[test]
    fn transferred_materialisation() {
        let (xs, ys, xt) = fixture();
        let sel = select_instances(&xs, &ys, &xt, &config(5)).unwrap();
        let (xu, yu) = sel.transferred(&xs, &ys);
        assert_eq!(xu.rows(), sel.indices.len());
        assert_eq!(yu.len(), sel.indices.len());
        assert_eq!(xu.row(0), xs.row(sel.indices[0]));
    }

    #[test]
    fn parallel_selection_is_bit_identical_to_sequential() {
        let (xs, ys, xt) = fixture();
        let mut cfg = config(5);
        cfg.variant.use_sim_v = true; // exercise every score path
        let seq = select_instances_with_pool(&xs, &ys, &xt, &cfg, &Pool::new(1)).unwrap();
        for workers in [2, 4, 16] {
            let par = select_instances_with_pool(&xs, &ys, &xt, &cfg, &Pool::new(workers)).unwrap();
            assert_bit_identical(&seq, &par, &format!("workers={workers}"));
            // The fixture is below the inline threshold: force the pool.
            let pooled = Pool::new(workers).with_grain(GrainMode::AlwaysPool);
            let par = select_instances_with_pool(&xs, &ys, &xt, &cfg, &pooled).unwrap();
            assert_bit_identical(&seq, &par, &format!("workers={workers}, pooled"));
        }
    }

    #[test]
    fn dedup_path_is_bit_identical_to_per_row_path() {
        for (name, (xs, ys, xt)) in [
            ("clusters", fixture()),
            ("duplicated", duplicated_fixture()),
            ("non-finite", non_finite_fixture()),
        ] {
            for k in [1, 3, 5] {
                let mut cfg = config(k);
                cfg.variant.use_sim_v = true;
                let reference =
                    select_instances_per_row_with_pool(&xs, &ys, &xt, &cfg, &Pool::new(1)).unwrap();
                for workers in [1, 4] {
                    let fast = select_instances_with_pool(&xs, &ys, &xt, &cfg, &Pool::new(workers))
                        .unwrap();
                    assert_bit_identical(
                        &reference,
                        &fast,
                        &format!("{name} k={k} workers={workers}"),
                    );
                }
            }
        }
    }

    #[test]
    fn signed_zero_duplicates_fall_back_exactly() {
        // 0.0 and -0.0 rows are numerically identical but intern into
        // different groups: the non-clean fallback must still match the
        // per-row path bit for bit.
        let xs = FeatureMatrix::from_vecs(&[
            vec![0.0, 0.5],
            vec![-0.0, 0.5],
            vec![0.0, 0.5],
            vec![-0.0, 0.5],
            vec![0.3, 0.4],
            vec![0.9, 0.9],
        ])
        .unwrap();
        let ys = vec![
            Label::Match,
            Label::NonMatch,
            Label::Match,
            Label::Match,
            Label::NonMatch,
            Label::Match,
        ];
        let xt =
            FeatureMatrix::from_vecs(&[vec![0.1, 0.5], vec![0.8, 0.85], vec![-0.0, 0.5]]).unwrap();
        let mut cfg = config(3);
        cfg.variant.use_sim_v = true;
        let reference =
            select_instances_per_row_with_pool(&xs, &ys, &xt, &cfg, &Pool::new(1)).unwrap();
        for workers in [1, 4] {
            let fast =
                select_instances_with_pool(&xs, &ys, &xt, &cfg, &Pool::new(workers)).unwrap();
            assert_bit_identical(&reference, &fast, &format!("workers={workers}"));
        }
    }

    #[test]
    fn input_validation() {
        let (xs, ys, xt) = fixture();
        assert!(select_instances(&FeatureMatrix::empty(2), &[], &xt, &config(5)).is_err());
        assert!(select_instances(&xs, &ys, &FeatureMatrix::empty(2), &config(5)).is_err());
        assert!(select_instances(&xs, &ys[..3], &xt, &config(5)).is_err());
        let narrow = FeatureMatrix::from_vecs(&[vec![0.5]]).unwrap();
        assert!(select_instances(&xs, &ys, &narrow, &config(5)).is_err());
        assert!(select_instances(&xs, &ys, &xt, &config(0)).is_err());
    }
}

//! The TransER pipeline: SEL → GEN → TCL (Algorithm 1), with diagnostics,
//! phase timings, ablation variants and documented fallbacks for the
//! degenerate situations Algorithm 1 leaves implicit.

use transer_common::{Error, FeatureMatrix, Label, Result};
use transer_ml::{Classifier, ClassifierKind};
use transer_robust::{site, FaultKind};

use crate::config::TransErConfig;
use crate::pseudo::{generate_pseudo_labels, PseudoLabels};
use crate::selector::{select_instances, transfer_all};
use crate::target::train_target_classifier;

/// One step of the pipeline's graceful-degradation ladder: why a phase
/// abandoned its primary strategy and what it used instead.
///
/// Every step is recorded in [`Diagnostics::fallbacks`] and — when tracing
/// is enabled — as a `robust.fallback.*` counter, so degraded runs are
/// observable rather than silent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FallbackReason {
    /// SEL transferred too little (or a single class) to train `C^U`; GEN
    /// trained on the full source instead.
    SelectionStarved,
    /// GEN could not produce pseudo labels; the target was classified
    /// directly by a model trained on the transferred instances (the
    /// "without GEN & TCL" ablation shape).
    GenFailed,
    /// The direct classifier could not be trained on the transferred
    /// instances either; it was trained on the full source.
    SourceDirect,
    /// TCL could not be trained (no / single-class high-confidence pseudo
    /// labels); the pseudo labels were returned directly.
    TclFailed,
}

impl FallbackReason {
    /// Every ladder step, in pipeline order.
    pub const ALL: [FallbackReason; 4] = [
        FallbackReason::SelectionStarved,
        FallbackReason::GenFailed,
        FallbackReason::SourceDirect,
        FallbackReason::TclFailed,
    ];

    /// Stable snake_case name (used in reports and logs).
    pub fn as_str(self) -> &'static str {
        match self {
            FallbackReason::SelectionStarved => "selection_starved",
            FallbackReason::GenFailed => "gen_failed",
            FallbackReason::SourceDirect => "source_direct",
            FallbackReason::TclFailed => "tcl_failed",
        }
    }

    /// The trace counter bumped when this step is taken.
    fn counter_name(self) -> &'static str {
        match self {
            FallbackReason::SelectionStarved => "robust.fallback.sel",
            FallbackReason::GenFailed => "robust.fallback.gen",
            FallbackReason::SourceDirect => "robust.fallback.source",
            FallbackReason::TclFailed => "robust.fallback.tcl",
        }
    }
}

/// The set of [`FallbackReason`] steps taken during one run (a small
/// bitmask, so [`Diagnostics`] stays `Copy`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FallbackSet(u8);

impl FallbackSet {
    /// Whether `reason` was recorded.
    pub fn contains(self, reason: FallbackReason) -> bool {
        self.0 & (1 << reason as u8) != 0
    }

    /// Whether the run completed without any fallback.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The recorded reasons, in pipeline order.
    pub fn iter(self) -> impl Iterator<Item = FallbackReason> {
        FallbackReason::ALL.into_iter().filter(move |&r| self.contains(r))
    }

    fn insert(&mut self, reason: FallbackReason) {
        self.0 |= 1 << reason as u8;
    }
}

/// Counters and timings recorded while running the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Diagnostics {
    /// `|X^S|`.
    pub source_count: usize,
    /// `|X^U|` — instances transferred by SEL.
    pub selected_count: usize,
    /// `|X^V|` — target instances whose pseudo-label confidence cleared
    /// `t_p` (0 when GEN/TCL is ablated away).
    pub candidate_count: usize,
    /// `|X^V_b|` — size of the balanced final training sample.
    pub balanced_count: usize,
    /// SEL wall-clock seconds.
    pub sel_secs: f64,
    /// GEN wall-clock seconds.
    pub gen_secs: f64,
    /// TCL wall-clock seconds.
    pub tcl_secs: f64,
    /// End-to-end wall-clock seconds, measured by the root `pipeline` span
    /// (≥ the phase sum: it includes the glue between phases).
    pub total_secs: f64,
    /// SEL produced a set too degenerate to train on (empty or
    /// single-class); the full source was used instead. Mirrors
    /// `fallbacks.contains(FallbackReason::SelectionStarved)`.
    pub selection_fallback: bool,
    /// TCL could not be trained (no/single-class high-confidence pseudo
    /// labels); the pseudo labels were returned directly. Mirrors
    /// `fallbacks.contains(FallbackReason::TclFailed)`.
    pub tcl_fallback: bool,
    /// Every degradation-ladder step the run took.
    pub fallbacks: FallbackSet,
}

impl Diagnostics {
    /// Total wall-clock seconds (the `total_secs` field; kept as a method
    /// for backwards compatibility with callers of the old phase sum).
    pub fn total_secs(&self) -> f64 {
        self.total_secs
    }

    /// Record a degradation-ladder step: sets the typed [`FallbackSet`]
    /// bit, keeps the legacy boolean flags in sync, and bumps the
    /// `robust.fallback.*` trace counter.
    pub(crate) fn record_fallback(&mut self, reason: FallbackReason) {
        self.fallbacks.insert(reason);
        match reason {
            FallbackReason::SelectionStarved => self.selection_fallback = true,
            FallbackReason::TclFailed => self.tcl_fallback = true,
            FallbackReason::GenFailed | FallbackReason::SourceDirect => {}
        }
        transer_trace::counter(reason.counter_name(), 1);
    }
}

/// The result of running TransER on a domain pair.
#[derive(Debug, Clone, PartialEq)]
pub struct TransErOutput {
    /// Final labels `Y^T`, aligned with the target rows.
    pub labels: Vec<Label>,
    /// The intermediate pseudo labels `Y^P`/`Z^P` (equal to the final
    /// labels when the TCL phase fell back; absent when GEN/TCL is ablated
    /// away or when the GEN ladder degraded to direct classification —
    /// see [`Diagnostics::fallbacks`]).
    pub pseudo: Option<PseudoLabels>,
    /// Counters and timings.
    pub diagnostics: Diagnostics,
    /// The structured trace of this run (`Some` only when tracing is
    /// enabled — see [`transer_trace::enabled`]): the span tree behind
    /// [`Diagnostics`] plus every counter and histogram the run recorded.
    pub trace: Option<transer_trace::TraceReport>,
}

/// Drain the run's trace buffer into the output (`None` when disabled).
pub(crate) fn take_run_trace() -> Option<transer_trace::TraceReport> {
    transer_trace::enabled().then(transer_trace::drain_report)
}

/// Trace the GEN confidence distribution against `t_p`: the histogram
/// shows how sharply `C^U` separates the target, and the two counters are
/// the exact split TCL will see.
fn trace_confidences(pseudo: &PseudoLabels, t_p: f64) {
    if !transer_trace::enabled() {
        return;
    }
    let mut above = 0u64;
    for &c in &pseudo.confidences {
        transer_trace::observe("gen.confidence", c);
        if c >= t_p {
            above += 1;
        }
    }
    transer_trace::counter("gen.pseudo_labels", pseudo.labels.len() as u64);
    transer_trace::counter("gen.above_t_p", above);
    transer_trace::counter("gen.below_t_p", pseudo.confidences.len() as u64 - above);
}

/// What the GEN phase produced: pseudo labels for TCL, or — when every
/// pseudo-labelling attempt failed — target labels classified directly.
/// Either way the trained classifier rides along, so the serving layer can
/// persist whichever model produced the labels it will replay.
pub(crate) enum GenOutcome {
    /// Pseudo labels with confidences (and the trained `C^U`); TCL runs
    /// next.
    Pseudo(PseudoLabels, Box<dyn Classifier>),
    /// GEN fell back to direct classification; there is nothing for TCL
    /// to refine, so these are the final labels (and the direct model is
    /// the one that produced them).
    Direct(Vec<Label>, Box<dyn Classifier>),
}

/// Fit a fresh classifier on `(x, y)` and label the target — the shape of
/// the "without GEN & TCL" ablation, reused as the ladder's direct rungs.
fn direct_labels(
    classifier: ClassifierKind,
    seed: u64,
    x: &FeatureMatrix,
    y: &[Label],
    xt: &FeatureMatrix,
) -> Result<(Vec<Label>, Box<dyn Classifier>)> {
    let mut clf = classifier.build(seed);
    clf.fit(x, y)?;
    let labels = clf.predict(xt);
    Ok((labels, clf))
}

/// Run GEN with the graceful-degradation ladder:
///
/// 1. pseudo-label via `C^U` trained on the transferred set `(xu, yu)`;
/// 2. on failure, classify the target directly from the (clean)
///    transferred set ([`FallbackReason::GenFailed`]);
/// 3. on failure again, classify directly from the full source
///    ([`FallbackReason::SourceDirect`]);
/// 4. only then surface a typed error.
///
/// Resource-limit errors ([`Error::is_resource_exceeded`]) abort
/// immediately — retrying would blow the same budget.
///
/// Hosts the `gen.fit` fault site (corrupts a *copy* of the training pair,
/// so the ladder's clean-retry rungs stay meaningful) and the
/// `gen.predict` site (corrupts the produced confidences/labels).
#[allow(clippy::too_many_arguments)] // mirrors the pipeline inputs
pub(crate) fn gen_with_ladder(
    classifier: ClassifierKind,
    seed: u64,
    xu: &FeatureMatrix,
    yu: &[Label],
    xs: &FeatureMatrix,
    ys: &[Label],
    xt: &FeatureMatrix,
    diag: &mut Diagnostics,
) -> Result<GenOutcome> {
    let mut cu = classifier.build(seed);
    let generated = match transer_robust::fired(site::GEN_FIT) {
        Some(FaultKind::TaskFail) => Err(Error::FaultInjected(site::GEN_FIT)),
        Some(kind) => {
            let (fx, fy) = transer_robust::corrupted_pair(xu, yu, kind);
            generate_pseudo_labels(cu.as_mut(), &fx, &fy, xt)
        }
        None => generate_pseudo_labels(cu.as_mut(), xu, yu, xt),
    };
    let generated =
        generated.and_then(|mut pseudo| match transer_robust::fired(site::GEN_PREDICT) {
            Some(FaultKind::TaskFail | FaultKind::Empty) => {
                Err(Error::FaultInjected(site::GEN_PREDICT))
            }
            Some(kind) => {
                transer_robust::corrupt_confidences(&mut pseudo.confidences, kind);
                transer_robust::corrupt_labels(&mut pseudo.labels, kind);
                Ok(pseudo)
            }
            None => Ok(pseudo),
        });
    match generated {
        Ok(pseudo) => Ok(GenOutcome::Pseudo(pseudo, cu)),
        Err(e) if e.is_resource_exceeded() => Err(e),
        Err(_) => {
            diag.record_fallback(FallbackReason::GenFailed);
            if let Ok((labels, clf)) = direct_labels(classifier, seed, xu, yu, xt) {
                return Ok(GenOutcome::Direct(labels, clf));
            }
            diag.record_fallback(FallbackReason::SourceDirect);
            direct_labels(classifier, seed, xs, ys, xt)
                .map(|(labels, clf)| GenOutcome::Direct(labels, clf))
        }
    }
}

/// The TransER framework: configuration plus the classifier family used
/// for both `C^U` and `C^V`.
#[derive(Debug, Clone)]
pub struct TransEr {
    config: TransErConfig,
    classifier: ClassifierKind,
    seed: u64,
}

impl TransEr {
    /// Create a pipeline.
    ///
    /// # Errors
    /// Returns [`transer_common::Error::InvalidParameter`] when the
    /// configuration is invalid.
    pub fn new(config: TransErConfig, classifier: ClassifierKind, seed: u64) -> Result<Self> {
        config.validate()?;
        Ok(TransEr { config, classifier, seed })
    }

    /// The active configuration.
    pub fn config(&self) -> &TransErConfig {
        &self.config
    }

    /// Run Algorithm 1: predict labels for every target instance.
    ///
    /// Degenerate intermediate states walk a graceful-degradation ladder
    /// (each step typed in [`Diagnostics::fallbacks`]) rather than failing:
    ///
    /// * SEL transfers nothing / a single class → GEN trains on the full
    ///   source instead ([`FallbackReason::SelectionStarved`]).
    /// * GEN cannot produce pseudo labels → the target is classified
    ///   directly from the transferred set
    ///   ([`FallbackReason::GenFailed`]), and if that fails too, from the
    ///   full source ([`FallbackReason::SourceDirect`]).
    /// * No (two-class) high-confidence pseudo labels → the pseudo labels
    ///   are returned as the final labels ([`FallbackReason::TclFailed`]).
    ///
    /// # Errors
    /// Returns an error for empty/mismatched inputs or when even the
    /// fallback training sets are unusable (e.g. a single-class source).
    pub fn fit_predict(
        &self,
        xs: &FeatureMatrix,
        ys: &[Label],
        xt: &FeatureMatrix,
    ) -> Result<TransErOutput> {
        self.fit_predict_with_model(xs, ys, xt).map(|(out, _)| out)
    }

    /// [`TransEr::fit_predict`], additionally returning the trained model
    /// that produced the final labels — the TCL classifier `C^V` on the
    /// happy path, or whichever ladder rung answered (the GEN model `C^U`
    /// when TCL fell back, a direct classifier when GEN degraded). `None`
    /// when that classifier kind has no persistence format (SVM, MLP); the
    /// three serialisable kinds always yield `Some`.
    ///
    /// This is the offline half of the serving story: train once, persist
    /// the returned model, and replay it against query batches without
    /// refitting.
    ///
    /// # Errors
    /// See [`TransEr::fit_predict`].
    pub fn fit_predict_with_model(
        &self,
        xs: &FeatureMatrix,
        ys: &[Label],
        xt: &FeatureMatrix,
    ) -> Result<(TransErOutput, Option<transer_ml::PersistedModel>)> {
        let root = transer_trace::timed("pipeline");
        let mut diag = Diagnostics { source_count: xs.rows(), ..Default::default() };
        let variant = self.config.variant;

        // Phase (i): SEL.
        let sel_span = transer_trace::timed("sel");
        let (mut xu, mut yu) = if variant.use_selection {
            let sel = select_instances(xs, ys, xt, &self.config)?;
            sel.transferred(xs, ys)
        } else {
            transfer_all(xs, ys, xt, &self.config)?
        };
        diag.selected_count = xu.rows();

        // Fallback: a degenerate transferred set cannot train C^U.
        let matches = yu.iter().filter(|l| l.is_match()).count();
        if xu.rows() < 2 || matches == 0 || matches == yu.len() {
            diag.record_fallback(FallbackReason::SelectionStarved);
            xu = xs.clone();
            yu = ys.to_vec();
        }
        diag.sel_secs = sel_span.finish();

        if !variant.use_gen_tcl {
            // Ablation "without GEN & TCL": classify the target with a
            // model trained directly on the transferred instances.
            let gen_span = transer_trace::timed("gen");
            let mut clf = self.classifier.build(self.seed);
            clf.fit(&xu, &yu)?;
            let labels = clf.predict(xt);
            diag.gen_secs = gen_span.finish();
            diag.total_secs = root.finish();
            let model = transer_ml::PersistedModel::from_classifier(clf.as_ref());
            return Ok((
                TransErOutput { labels, pseudo: None, diagnostics: diag, trace: take_run_trace() },
                model,
            ));
        }

        // Phase (ii): GEN, with the degradation ladder.
        let gen_span = transer_trace::timed("gen");
        let outcome = gen_with_ladder(self.classifier, self.seed, &xu, &yu, xs, ys, xt, &mut diag)?;
        diag.gen_secs = gen_span.finish();
        let (pseudo, cu) = match outcome {
            GenOutcome::Pseudo(pseudo, cu) => (pseudo, cu),
            GenOutcome::Direct(labels, clf) => {
                // GEN degraded to direct classification: nothing for TCL
                // to refine.
                diag.total_secs = root.finish();
                let model = transer_ml::PersistedModel::from_classifier(clf.as_ref());
                return Ok((
                    TransErOutput {
                        labels,
                        pseudo: None,
                        diagnostics: diag,
                        trace: take_run_trace(),
                    },
                    model,
                ));
            }
        };
        trace_confidences(&pseudo, self.config.t_p);

        // Phase (iii): TCL.
        let tcl_span = transer_trace::timed("tcl");
        let mut cv: Box<dyn Classifier> = self.classifier.build(self.seed.wrapping_add(1));
        let (output, served_model) = match train_target_classifier(
            cv.as_mut(),
            xt,
            &pseudo,
            self.config.t_p,
            self.config.balance_ratio,
            self.seed,
        ) {
            Ok(out) => {
                diag.candidate_count = out.candidate_count;
                diag.balanced_count = out.balanced_count;
                (out.labels, cv.as_ref())
            }
            Err(e) if !e.is_resource_exceeded() => {
                // Fallback: the pseudo labels are the best available
                // answer, and the GEN model that produced them is the one
                // worth persisting.
                diag.record_fallback(FallbackReason::TclFailed);
                (pseudo.labels.clone(), cu.as_ref())
            }
            Err(e) => return Err(e),
        };
        diag.tcl_secs = tcl_span.finish();
        diag.total_secs = root.finish();
        let model = transer_ml::PersistedModel::from_classifier(served_model);

        Ok((
            TransErOutput {
                labels: output,
                pseudo: Some(pseudo),
                diagnostics: diag,
                trace: take_run_trace(),
            },
            model,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Variant;

    /// Source with a conflicted mid region; target is the two clean
    /// clusters, shifted slightly.
    fn fixture() -> (FeatureMatrix, Vec<Label>, FeatureMatrix, Vec<Label>) {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..20 {
            let j = (i % 10) as f64 * 0.006;
            xs.push(vec![0.9 - j, 0.85 + j]);
            ys.push(Label::Match);
            xs.push(vec![0.1 + j, 0.15 - j]);
            ys.push(Label::NonMatch);
            xs.push(vec![0.12 + j, 0.1 - j / 2.0]);
            ys.push(Label::NonMatch);
        }
        // Conflicted instances whose labels disagree with the target's
        // conditional distribution.
        for i in 0..8 {
            let j = i as f64 * 0.004;
            xs.push(vec![0.5 + j, 0.5 - j]);
            ys.push(if i % 2 == 0 { Label::Match } else { Label::NonMatch });
        }
        let mut xt = Vec::new();
        let mut yt = Vec::new();
        for i in 0..15 {
            let j = (i % 8) as f64 * 0.007;
            xt.push(vec![0.87 - j, 0.88 + j]);
            yt.push(Label::Match);
            xt.push(vec![0.13 + j, 0.12 - j]);
            yt.push(Label::NonMatch);
            xt.push(vec![0.16 + j, 0.14 - j / 2.0]);
            yt.push(Label::NonMatch);
        }
        (FeatureMatrix::from_vecs(&xs).unwrap(), ys, FeatureMatrix::from_vecs(&xt).unwrap(), yt)
    }

    fn run(config: TransErConfig) -> (TransErOutput, Vec<Label>) {
        let (xs, ys, xt, yt) = fixture();
        let t = TransEr::new(config, ClassifierKind::LogisticRegression, 42).unwrap();
        (t.fit_predict(&xs, &ys, &xt).unwrap(), yt)
    }

    fn accuracy(pred: &[Label], truth: &[Label]) -> f64 {
        pred.iter().zip(truth).filter(|(a, b)| a == b).count() as f64 / truth.len() as f64
    }

    #[test]
    fn full_pipeline_classifies_target() {
        let cfg = TransErConfig { k: 5, ..Default::default() };
        let (out, yt) = run(cfg);
        assert_eq!(out.labels.len(), yt.len());
        assert!(accuracy(&out.labels, &yt) > 0.95, "accuracy too low");
        let d = out.diagnostics;
        assert!(d.selected_count > 0 && d.selected_count < d.source_count);
        assert!(!d.selection_fallback);
        assert!(d.fallbacks.is_empty(), "clean run took a fallback: {:?}", d.fallbacks);
        assert!(out.pseudo.is_some());
        assert!(d.total_secs() >= 0.0);
    }

    #[test]
    fn selector_drops_conflicted_instances() {
        let cfg = TransErConfig { k: 5, ..Default::default() };
        let (out, _) = run(cfg);
        // The 8 conflicted mid instances cannot all survive selection.
        assert!(out.diagnostics.selected_count <= out.diagnostics.source_count - 4);
    }

    #[test]
    fn without_gen_tcl_variant() {
        let cfg = TransErConfig { k: 5, variant: Variant::without_gen_tcl(), ..Default::default() };
        let (out, yt) = run(cfg);
        assert!(out.pseudo.is_none());
        assert_eq!(out.diagnostics.candidate_count, 0);
        assert!(accuracy(&out.labels, &yt) > 0.9);
    }

    #[test]
    fn without_sel_transfers_everything() {
        let cfg = TransErConfig { k: 5, variant: Variant::without_sel(), ..Default::default() };
        let (out, _) = run(cfg);
        assert_eq!(out.diagnostics.selected_count, out.diagnostics.source_count);
    }

    #[test]
    fn tcl_fallback_on_impossible_threshold() {
        // t_p = 1.0 keeps almost nothing; logistic probabilities rarely
        // saturate exactly, so TCL falls back to the pseudo labels.
        let cfg = TransErConfig { k: 5, t_p: 1.0, ..Default::default() };
        let (out, yt) = run(cfg);
        assert_eq!(out.labels.len(), yt.len());
        if out.diagnostics.tcl_fallback {
            let pseudo = out.pseudo.expect("pseudo kept");
            assert_eq!(out.labels, pseudo.labels);
        }
    }

    #[test]
    fn selection_fallback_on_hostile_thresholds() {
        // Thresholds so strict nothing passes: pipeline must fall back to
        // the full source rather than fail.
        let cfg = TransErConfig { k: 5, t_c: 1.0, t_l: 1.0, ..Default::default() };
        let (xs, ys, xt, _) = fixture();
        // Force structural mismatch so sim_l = 1.0 never holds.
        let t = TransEr::new(cfg, ClassifierKind::LogisticRegression, 1).unwrap();
        let out = t.fit_predict(&xs, &ys, &xt).unwrap();
        assert_eq!(out.labels.len(), xt.rows());
    }

    #[test]
    fn deterministic_under_seed() {
        let cfg = TransErConfig { k: 5, ..Default::default() };
        let (xs, ys, xt, _) = fixture();
        let a = TransEr::new(cfg, ClassifierKind::RandomForest, 9).unwrap();
        let b = TransEr::new(cfg, ClassifierKind::RandomForest, 9).unwrap();
        assert_eq!(
            a.fit_predict(&xs, &ys, &xt).unwrap().labels,
            b.fit_predict(&xs, &ys, &xt).unwrap().labels
        );
    }

    #[test]
    fn tracing_never_changes_labels_and_reports_all_phases() {
        let cfg = TransErConfig { k: 5, ..Default::default() };
        let (xs, ys, xt, _) = fixture();
        let t = TransEr::new(cfg, ClassifierKind::RandomForest, 7).unwrap();
        let plain = t.fit_predict(&xs, &ys, &xt).unwrap();
        assert!(plain.trace.is_none(), "trace must be absent when disabled");

        // Flip the process-global switch for one traced run; restore after.
        transer_trace::set_enabled(true);
        let traced = t.fit_predict(&xs, &ys, &xt);
        transer_trace::set_enabled(false);
        let traced = traced.unwrap();

        assert_eq!(plain.labels, traced.labels, "tracing must not change outputs");
        let report = traced.trace.expect("trace present when enabled");
        let root = report.find_span("pipeline").expect("root span");
        for phase in ["sel", "gen", "tcl"] {
            let child = root.find(phase).unwrap_or_else(|| panic!("{phase} span missing"));
            assert!(child.secs >= 0.0);
        }
        assert!(root.secs >= root.children.iter().map(|c| c.secs).sum::<f64>());
        let d = traced.diagnostics;
        assert!(d.total_secs >= d.sel_secs + d.gen_secs + d.tcl_secs);
        // The accept/reject breakdown covers every source row, and GEN's
        // confidence histogram covers every target row.
        let verdicts = report.counter("sel.accepted")
            + report.counter("sel.rejected.sim_c")
            + report.counter("sel.rejected.sim_l")
            + report.counter("sel.rejected.sim_v");
        assert_eq!(verdicts, xs.rows() as u64);
        assert_eq!(report.counter("sel.accepted"), d.selected_count as u64);
        assert_eq!(report.hists["gen.confidence"].count, xt.rows() as u64);
        assert_eq!(report.counter("tcl.candidates"), d.candidate_count as u64);
        assert_eq!(report.counter("tcl.balanced"), d.balanced_count as u64);
        assert_eq!(report.counter("tcl.discarded"), (d.candidate_count - d.balanced_count) as u64);
    }

    #[test]
    fn fallback_set_is_a_typed_bitmask() {
        let mut set = FallbackSet::default();
        assert!(set.is_empty());
        assert!(set.iter().next().is_none());
        set.insert(FallbackReason::GenFailed);
        set.insert(FallbackReason::TclFailed);
        assert!(!set.is_empty());
        assert!(set.contains(FallbackReason::GenFailed));
        assert!(!set.contains(FallbackReason::SelectionStarved));
        assert_eq!(
            set.iter().collect::<Vec<_>>(),
            vec![FallbackReason::GenFailed, FallbackReason::TclFailed]
        );
        assert_eq!(FallbackReason::SourceDirect.as_str(), "source_direct");
        for reason in FallbackReason::ALL {
            assert!(!reason.as_str().is_empty());
        }
    }

    #[test]
    fn record_fallback_syncs_legacy_flags() {
        let mut diag = Diagnostics::default();
        diag.record_fallback(FallbackReason::SelectionStarved);
        assert!(diag.selection_fallback && !diag.tcl_fallback);
        diag.record_fallback(FallbackReason::TclFailed);
        assert!(diag.tcl_fallback);
        diag.record_fallback(FallbackReason::GenFailed);
        assert_eq!(diag.fallbacks.iter().count(), 3);
    }

    #[test]
    fn invalid_config_rejected_at_construction() {
        assert!(TransEr::new(TransErConfig { k: 0, ..Default::default() }, ClassifierKind::Svm, 0)
            .is_err());
    }

    #[test]
    fn works_with_all_paper_classifiers() {
        let (xs, ys, xt, yt) = fixture();
        for kind in ClassifierKind::PAPER_SET {
            let t = TransEr::new(TransErConfig { k: 5, ..Default::default() }, kind, 3).unwrap();
            let out = t.fit_predict(&xs, &ys, &xt).unwrap();
            let acc = accuracy(&out.labels, &yt);
            assert!(acc > 0.8, "{} accuracy {acc}", kind.name());
        }
    }
}

//! Fault-injection sweep: every injection site `fit_predict` reaches × every
//! fault kind, driven through the full pipeline for every paper classifier.
//! The contract under test is the panic-free guarantee — each run either
//! returns `Ok` (possibly via the degradation ladder) or a typed `Err`,
//! never a panic, and every run fires its site — plus the zero-overhead
//! promise that a disarmed harness leaves outputs bit-identical to the
//! baseline. A fault plan is armed for the whole process, so every test
//! that arms one lives in this binary and serialises on
//! `transer_robust::test_lock`; the `pipeline` and `target` modules hold
//! the phase-level seam tests.

use transer_common::{FeatureMatrix, Label};
use transer_core::{select_instances_with_pool, FallbackReason, TransEr, TransErConfig, Variant};
use transer_ml::ClassifierKind;
use transer_parallel::Pool;
use transer_robust::{site, FaultKind};

/// Source with two clean clusters plus a conflicted mid region; target is
/// the clusters, slightly shifted.
fn fixture() -> (FeatureMatrix, Vec<Label>, FeatureMatrix) {
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for i in 0..16 {
        let j = (i % 8) as f64 * 0.006;
        xs.push(vec![0.9 - j, 0.85 + j]);
        ys.push(Label::Match);
        xs.push(vec![0.1 + j, 0.15 - j]);
        ys.push(Label::NonMatch);
    }
    for i in 0..6 {
        let j = i as f64 * 0.004;
        xs.push(vec![0.5 + j, 0.5 - j]);
        ys.push(if i % 2 == 0 { Label::Match } else { Label::NonMatch });
    }
    let mut xt = Vec::new();
    for i in 0..12 {
        let j = (i % 6) as f64 * 0.007;
        xt.push(vec![0.87 - j, 0.88 + j]);
        xt.push(vec![0.13 + j, 0.12 - j]);
    }
    (FeatureMatrix::from_vecs(&xs).unwrap(), ys, FeatureMatrix::from_vecs(&xt).unwrap())
}

/// The sites `fit_predict` reaches. `compare` and `blocking` sit in
/// `transer-blocking`, upstream of the feature matrices; their sweeps live
/// in that crate's `tests/fault_injection.rs`.
const SITES: [&str; 6] = [
    site::SEL_KNN,
    site::GEN_FIT,
    site::GEN_PREDICT,
    site::TCL_BALANCE,
    site::TCL_FIT,
    site::POOL_DISPATCH,
];

#[test]
fn every_site_and_kind_is_ok_or_typed_err() {
    let _guard = transer_robust::test_lock();
    transer_trace::set_enabled(true);
    let (xs, ys, xt) = fixture();
    let cfg = TransErConfig { k: 5, ..Default::default() };
    for classifier in ClassifierKind::PAPER_SET {
        let t = TransEr::new(cfg, classifier, 7).unwrap();
        transer_robust::set_plan(None);
        let baseline = t.fit_predict(&xs, &ys, &xt).unwrap();
        for s in SITES {
            for fault in FaultKind::ALL {
                transer_robust::set_plan(Some(&format!("{s}:{}", fault.as_str())));
                let result = t.fit_predict(&xs, &ys, &xt);
                // A finished run drains its trace into the output; an
                // aborted one leaves it in the thread's buffer.
                let counter = format!("robust.fault.{s}");
                let fires = transer_trace::drain_report().counter(&counter)
                    + result
                        .as_ref()
                        .ok()
                        .and_then(|o| o.trace.as_ref())
                        .map_or(0, |r| r.counter(&counter));
                assert!(
                    fires >= 1,
                    "{s}:{} under {}: the site never fired",
                    fault.as_str(),
                    classifier.name()
                );
                match result {
                    Ok(out) => assert_eq!(
                        out.labels.len(),
                        xt.rows(),
                        "{s}:{} under {}: labels misaligned",
                        fault.as_str(),
                        classifier.name()
                    ),
                    // A typed error must render; the panic-free guarantee
                    // is that we got here at all.
                    Err(e) => assert!(!e.to_string().is_empty()),
                }
            }
        }
        // Disarmed again: outputs bit-identical to the pre-sweep baseline.
        transer_robust::set_plan(None);
        let again = t.fit_predict(&xs, &ys, &xt).unwrap();
        assert_eq!(baseline.labels, again.labels, "{}: disarmed run drifted", classifier.name());
        let (b, a) = (baseline.diagnostics, again.diagnostics);
        assert_eq!(b.selected_count, a.selected_count);
        assert_eq!(b.candidate_count, a.candidate_count);
        assert_eq!(b.balanced_count, a.balanced_count);
        assert_eq!(b.fallbacks, a.fallbacks);
    }
    transer_trace::set_enabled(false);
}

/// The "without SEL" ablation transfers every row without k-NN queries,
/// yet its `sel.knn` seam fires once per run with the effect of scoring
/// with every filter off: a float kind transfers every row, and any other
/// kind starves the selection into the full-source fallback.
#[test]
fn without_sel_seam_fires_as_filter_free_scoring_did() {
    let _guard = transer_robust::test_lock();
    let (xs, ys, xt) = fixture();
    let cfg = TransErConfig { k: 5, variant: Variant::without_sel(), ..Default::default() };
    let filters_off = TransErConfig {
        variant: Variant { use_sim_c: false, use_sim_l: false, use_sim_v: false, ..cfg.variant },
        ..cfg
    };
    let t = TransEr::new(cfg, ClassifierKind::RandomForest, 7).unwrap();
    transer_trace::set_enabled(true);
    for fault in FaultKind::ALL {
        transer_robust::set_plan(Some(&format!("{}:{}", site::SEL_KNN, fault.as_str())));
        let scored = select_instances_with_pool(&xs, &ys, &xt, &filters_off, &Pool::new(1));
        let _ = transer_trace::drain_report();
        let out = t.fit_predict(&xs, &ys, &xt).unwrap();
        let trace = out.trace.expect("a traced run");
        assert_eq!(trace.counter("robust.fault.sel.knn"), 1, "{}", fault.as_str());
        assert_eq!(trace.counter("knn.dedup.builds"), 0, "{}", fault.as_str());
        let kept = scored.unwrap().indices.len();
        let d = out.diagnostics;
        assert_eq!(d.selected_count, kept, "{}", fault.as_str());
        let starved = !matches!(fault, FaultKind::Nan | FaultKind::Inf);
        assert_eq!(kept, if starved { 0 } else { xs.rows() }, "{}", fault.as_str());
        assert_eq!(d.fallbacks.contains(FallbackReason::SelectionStarved), starved);
        assert_eq!(trace.counter("sel.accepted"), kept as u64, "{}", fault.as_str());
    }
    transer_robust::set_plan(None);
    transer_trace::set_enabled(false);
}

#[test]
fn hostile_matrices_are_bit_identical_across_worker_counts() {
    let _guard = transer_robust::test_lock();
    transer_robust::set_plan(None);
    // NaN/±Inf cells, a constant column and duplicate rows: SEL must not
    // panic on them, and its scores must not depend on the worker count.
    let mut rows = Vec::new();
    let mut ys = Vec::new();
    for i in 0..12 {
        let v = i as f64 / 12.0;
        rows.push(vec![v, 1.0, v * 0.5]);
        ys.push(Label::from_bool(i % 2 == 0));
    }
    rows.push(vec![f64::NAN, 1.0, 0.2]);
    ys.push(Label::Match);
    rows.push(vec![f64::INFINITY, 1.0, f64::NEG_INFINITY]);
    ys.push(Label::NonMatch);
    rows.push(vec![0.5, 1.0, 0.25]);
    ys.push(Label::Match);
    rows.push(vec![0.5, 1.0, 0.25]);
    ys.push(Label::NonMatch);
    let xs = FeatureMatrix::from_vecs(&rows).unwrap();
    let xt = FeatureMatrix::from_vecs(&[
        vec![0.4, 1.0, 0.2],
        vec![f64::NAN, 1.0, 0.9],
        vec![0.6, 1.0, 0.3],
    ])
    .unwrap();
    let cfg = TransErConfig { k: 3, ..Default::default() };
    let seq = select_instances_with_pool(&xs, &ys, &xt, &cfg, &Pool::new(1)).unwrap();
    let par = select_instances_with_pool(&xs, &ys, &xt, &cfg, &Pool::new(4)).unwrap();
    assert_eq!(seq.indices, par.indices);
    for (a, b) in seq.scores.iter().zip(&par.scores) {
        assert_eq!(a.sim_c.to_bits(), b.sim_c.to_bits());
        assert_eq!(a.sim_l.to_bits(), b.sim_l.to_bits());
        assert_eq!(a.sim_v.to_bits(), b.sim_v.to_bits());
    }
}

mod pipeline {
    use transer_common::{FeatureMatrix, Label};
    use transer_core::{FallbackReason, TransEr, TransErConfig};
    use transer_ml::ClassifierKind;

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

    fn accuracy(pred: &[Label], truth: &[Label]) -> f64 {
        pred.iter().zip(truth).filter(|(a, b)| a == b).count() as f64 / truth.len() as f64
    }

    #[test]
    fn gen_fault_degrades_to_direct_classification() {
        let _guard = transer_robust::test_lock();
        let (xs, ys, xt, yt) = fixture();
        let cfg = TransErConfig { k: 5, ..Default::default() };
        let t = TransEr::new(cfg, ClassifierKind::LogisticRegression, 42).unwrap();

        // GEN fails outright: rung 1 (direct classification from the
        // clean transferred set) answers, and records only GenFailed.
        transer_robust::set_plan(Some("gen.fit:task_fail"));
        let out = t.fit_predict(&xs, &ys, &xt);
        transer_robust::set_plan(None);
        let out = out.unwrap();
        assert!(out.pseudo.is_none(), "direct rung produces no pseudo labels");
        let d = out.diagnostics;
        assert!(d.fallbacks.contains(FallbackReason::GenFailed));
        assert!(!d.fallbacks.contains(FallbackReason::SourceDirect));
        assert!(accuracy(&out.labels, &yt) > 0.9, "direct rung must still classify well");
    }

    #[test]
    fn fallback_counters_appear_in_trace() {
        let _guard = transer_robust::test_lock();
        let (xs, ys, xt, _) = fixture();
        let cfg = TransErConfig { k: 5, ..Default::default() };
        let t = TransEr::new(cfg, ClassifierKind::LogisticRegression, 42).unwrap();
        transer_robust::set_plan(Some("gen.fit:task_fail"));
        transer_trace::set_enabled(true);
        let out = t.fit_predict(&xs, &ys, &xt);
        transer_trace::set_enabled(false);
        transer_robust::set_plan(None);
        let report = out.unwrap().trace.expect("trace enabled");
        assert_eq!(report.counter("robust.fallback.gen"), 1);
        assert_eq!(report.counter("robust.fault.gen.fit"), 1);
        assert_eq!(report.counter("robust.fallback.source"), 0);
    }
}

mod target {
    use transer_common::{Error, FeatureMatrix, Label};
    use transer_core::{train_target_classifier, PseudoLabels};
    use transer_ml::ClassifierKind;

    /// Target: clear match cluster near 1, big non-match cloud near 0, and
    /// pseudo labels that are confident on the clusters only.
    fn fixture() -> (FeatureMatrix, PseudoLabels) {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        let mut conf = Vec::new();
        for i in 0..10 {
            let j = i as f64 * 0.005;
            rows.push(vec![0.9 + j, 0.88 - j]);
            labels.push(Label::Match);
            conf.push(0.999);
        }
        for i in 0..60 {
            let j = (i % 10) as f64 * 0.005;
            rows.push(vec![0.1 + j, 0.12 - j]);
            labels.push(Label::NonMatch);
            conf.push(0.998);
        }
        // Uncertain middle points that must not enter training.
        for i in 0..5 {
            rows.push(vec![0.5, 0.5 + i as f64 * 0.01]);
            labels.push(Label::Match);
            conf.push(0.6);
        }
        (FeatureMatrix::from_vecs(&rows).unwrap(), PseudoLabels { labels, confidences: conf })
    }

    #[test]
    fn tcl_fault_sites_fail_typed_or_degrade() {
        let _guard = transer_robust::test_lock();
        let (xt, pseudo) = fixture();

        transer_robust::set_plan(Some("tcl.balance:task_fail"));
        let mut clf = ClassifierKind::LogisticRegression.build(0);
        let err = train_target_classifier(clf.as_mut(), &xt, &pseudo, 0.99, 3.0, 42);
        assert!(matches!(err, Err(Error::FaultInjected("tcl.balance"))));

        // NaN-corrupted confidences knock the affected rows out of the
        // `>= t_p` filter; the phase trains on what is left or reports a
        // typed error — either way, never a panic.
        transer_robust::set_plan(Some("tcl.balance:nan"));
        let mut clf = ClassifierKind::LogisticRegression.build(0);
        if let Ok(out) = train_target_classifier(clf.as_mut(), &xt, &pseudo, 0.99, 3.0, 42) {
            assert_eq!(out.labels.len(), xt.rows());
        }

        transer_robust::set_plan(Some("tcl.fit:task_fail"));
        let mut clf = ClassifierKind::LogisticRegression.build(0);
        let err = train_target_classifier(clf.as_mut(), &xt, &pseudo, 0.99, 3.0, 42);
        assert!(matches!(err, Err(Error::FaultInjected("tcl.fit"))));

        // Emptying the balanced sample surfaces as the classifier's own
        // typed empty-input error.
        transer_robust::set_plan(Some("tcl.fit:empty"));
        let mut clf = ClassifierKind::LogisticRegression.build(0);
        let err = train_target_classifier(clf.as_mut(), &xt, &pseudo, 0.99, 3.0, 42);
        assert!(matches!(err, Err(Error::EmptyInput(_))));

        // With the plan cleared the phase behaves normally again.
        transer_robust::set_plan(None);
        let mut clf = ClassifierKind::LogisticRegression.build(0);
        assert!(train_target_classifier(clf.as_mut(), &xt, &pseudo, 0.99, 3.0, 42).is_ok());
    }
}

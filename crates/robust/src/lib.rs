//! **transer-robust** — deterministic, env-gated fault injection for the
//! TransER pipeline, plus the shared corruption helpers behind it.
//!
//! # Plan format
//!
//! A fault plan is declared through the `TRANSER_FAULT` environment
//! variable as `<site>:<kind>[:<rate>[:<seed>]]`:
//!
//! * `site` — one of the registered injection points in [`site::ALL`]
//!   (`compare`, `blocking`, `sel.knn`, `gen.fit`, `gen.predict`,
//!   `tcl.balance`, `tcl.fit`, `pool.dispatch`, `serve.query`); any other
//!   site makes the plan malformed;
//! * `kind` — `nan`, `inf`, `empty`, `single_class` or `task_fail`
//!   ([`FaultKind`]);
//! * `rate` — firing probability in `[0, 1]`, default `1` (always fire);
//! * `seed` — seed of the deterministic firing sequence, default `0`.
//!
//! Example: `TRANSER_FAULT=gen.fit:nan:0.5:7` poisons the GEN training
//! matrix with NaNs on a deterministic half of the invocations. A
//! malformed plan (a typo such as `sel_knn:nan` included) prints a warning
//! and leaves the harness disarmed.
//!
//! # Zero overhead when unset
//!
//! Like `transer-trace`, every injection point starts with a single
//! relaxed atomic load and a compare — branch-predicted false after the
//! first call — so instrumented seams cost nothing measurable when
//! `TRANSER_FAULT` is unset. The slow path (plan lookup, counter bump,
//! firing decision) only runs when a plan is armed.
//!
//! # Determinism
//!
//! Firing is a pure function of the plan's seed and a per-plan invocation
//! counter hashed through SplitMix64 — no clocks, no thread identity.
//! Injection points are placed at owner-thread (sequential) seams only, so
//! a given plan fires at the same invocations regardless of
//! `TRANSER_THREADS`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use transer_common::{env, FeatureMatrix, Label};

/// Registered fault-injection sites: phase boundaries and engine seams.
pub mod site {
    /// Record-pair comparison output (`transer-blocking::compare_pairs`).
    pub const COMPARE: &str = "compare";
    /// Candidate-pair generation: once per batch blocking call
    /// (`transer-blocking::MinHashLsh::candidate_pairs_masked_with_pool`)
    /// and once per serving batch (`transer-blocking::LshIndex::query_batch`).
    pub const BLOCKING: &str = "blocking";
    /// SEL instance-selection k-NN scoring (`transer-core::select_instances`).
    pub const SEL_KNN: &str = "sel.knn";
    /// GEN pseudo-labeller training input (`generate_pseudo_labels`).
    pub const GEN_FIT: &str = "gen.fit";
    /// GEN pseudo-label output (labels and confidences).
    pub const GEN_PREDICT: &str = "gen.predict";
    /// TCL candidate filtering / class balancing input.
    pub const TCL_BALANCE: &str = "tcl.balance";
    /// TCL target-classifier training input.
    pub const TCL_FIT: &str = "tcl.fit";
    /// Thread-pool task dispatch (`transer-parallel::Pool`).
    pub const POOL_DISPATCH: &str = "pool.dispatch";
    /// Serving-path batch query (`transer-serve::MatchService::query_batch`).
    pub const SERVE_QUERY: &str = "serve.query";

    /// Every registered site; a plan naming any other site is malformed.
    pub const ALL: [&str; 9] = [
        COMPARE,
        BLOCKING,
        SEL_KNN,
        GEN_FIT,
        GEN_PREDICT,
        TCL_BALANCE,
        TCL_FIT,
        POOL_DISPATCH,
        SERVE_QUERY,
    ];
}

/// What an armed fault does when it fires at a site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Poison float cells with `NaN`.
    Nan,
    /// Poison float cells with `±Inf`.
    Inf,
    /// Degenerate the data to zero rows / no candidates.
    Empty,
    /// Collapse the label set to a single class.
    SingleClass,
    /// Simulate an outright task failure ([`transer_common::Error::FaultInjected`]).
    TaskFail,
}

impl FaultKind {
    /// Every kind, in plan-spec order. Useful for exhaustive harnesses.
    pub const ALL: [FaultKind; 5] = [
        FaultKind::Nan,
        FaultKind::Inf,
        FaultKind::Empty,
        FaultKind::SingleClass,
        FaultKind::TaskFail,
    ];

    fn parse(s: &str) -> Option<FaultKind> {
        match s.to_ascii_lowercase().as_str() {
            "nan" => Some(FaultKind::Nan),
            "inf" => Some(FaultKind::Inf),
            "empty" => Some(FaultKind::Empty),
            "single_class" => Some(FaultKind::SingleClass),
            "task_fail" => Some(FaultKind::TaskFail),
            _ => None,
        }
    }

    /// The plan-spec spelling (`nan`, `inf`, `empty`, `single_class`,
    /// `task_fail`).
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::Nan => "nan",
            FaultKind::Inf => "inf",
            FaultKind::Empty => "empty",
            FaultKind::SingleClass => "single_class",
            FaultKind::TaskFail => "task_fail",
        }
    }
}

/// A parsed fault plan: one site, one kind, a firing rate and a seed.
#[derive(Debug)]
struct FaultPlan {
    site: &'static str,
    kind: FaultKind,
    rate: f64,
    seed: u64,
    invocations: AtomicU64,
}

/// 0 = uninitialised, 1 = disarmed, 2 = armed.
static STATE: AtomicU8 = AtomicU8::new(0);
static PLAN: Mutex<Option<Arc<FaultPlan>>> = Mutex::new(None);
static TEST_LOCK: Mutex<()> = Mutex::new(());

fn lock_plan() -> MutexGuard<'static, Option<Arc<FaultPlan>>> {
    PLAN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn parse_plan(spec: &str) -> Option<FaultPlan> {
    let mut parts = spec.split(':');
    let name = parts.next()?.trim();
    let site = *site::ALL.iter().find(|&&known| known == name)?;
    let kind = FaultKind::parse(parts.next()?.trim())?;
    let rate = match parts.next() {
        Some(r) => r.trim().parse::<f64>().ok().filter(|r| (0.0..=1.0).contains(r))?,
        None => 1.0,
    };
    let seed = match parts.next() {
        Some(s) => s.trim().parse::<u64>().ok()?,
        None => 0,
    };
    if parts.next().is_some() {
        return None;
    }
    Some(FaultPlan { site, kind, rate, seed, invocations: AtomicU64::new(0) })
}

#[cold]
fn init_state() -> u8 {
    let plan = env::raw(env::FAULT).and_then(|spec| {
        let parsed = parse_plan(&spec);
        if parsed.is_none() {
            transer_trace::warn_invalid_env(
                env::FAULT,
                &spec,
                "<site>:<kind>[:<rate>[:<seed>]]",
                "fault injection disabled",
            );
        }
        parsed
    });
    let state = if plan.is_some() { 2 } else { 1 };
    let mut guard = lock_plan();
    // A racing `set_plan` wins; the stored state is what matters.
    match STATE.compare_exchange(0, state, Ordering::Relaxed, Ordering::Relaxed) {
        Ok(_) => {
            *guard = plan.map(Arc::new);
            state
        }
        Err(current) => current,
    }
}

/// Arm or disarm a fault plan for the whole process, overriding
/// `TRANSER_FAULT`. For tests (environment variables are process-global
/// and read once; this flips the same switch directly). An unparsable
/// spec disarms.
pub fn set_plan(spec: Option<&str>) {
    let plan = spec.and_then(parse_plan).map(Arc::new);
    let state = if plan.is_some() { 2 } else { 1 };
    let mut guard = lock_plan();
    *guard = plan;
    STATE.store(state, Ordering::Relaxed);
}

/// Serialise tests that arm fault plans: the plan is process-global, so
/// concurrent tests would race. Poisoning is absorbed (a failed test must
/// not cascade).
pub fn test_lock() -> MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// SplitMix64: the standard 64-bit finaliser, good avalanche, std-only.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn counter_name(site: &str) -> &'static str {
    match site {
        site::COMPARE => "robust.fault.compare",
        site::BLOCKING => "robust.fault.blocking",
        site::SEL_KNN => "robust.fault.sel.knn",
        site::GEN_FIT => "robust.fault.gen.fit",
        site::GEN_PREDICT => "robust.fault.gen.predict",
        site::TCL_BALANCE => "robust.fault.tcl.balance",
        site::TCL_FIT => "robust.fault.tcl.fit",
        site::POOL_DISPATCH => "robust.fault.pool.dispatch",
        site::SERVE_QUERY => "robust.fault.serve.query",
        _ => "robust.fault.other",
    }
}

#[cold]
fn fire_slow(site: &str) -> Option<FaultKind> {
    let plan = lock_plan().as_ref()?.clone();
    if plan.site != site {
        return None;
    }
    let n = plan.invocations.fetch_add(1, Ordering::Relaxed);
    let fires = plan.rate >= 1.0 || {
        // Top 53 bits of the hash as a uniform fraction in [0, 1).
        let fraction = (splitmix64(plan.seed ^ n) >> 11) as f64 / (1u64 << 53) as f64;
        fraction < plan.rate
    };
    if fires {
        transer_trace::counter(counter_name(plan.site), 1);
        Some(plan.kind)
    } else {
        None
    }
}

/// Did the armed fault fire at this injection point? `None` when no plan
/// is armed, the plan targets a different site, or the rate rolled a miss.
/// The fast path — one relaxed load and a compare — is what every
/// instrumented seam pays when `TRANSER_FAULT` is unset.
#[inline]
pub fn fired(site: &str) -> Option<FaultKind> {
    let state = STATE.load(Ordering::Relaxed);
    if state == 0 {
        if init_state() != 2 {
            return None;
        }
    } else if state != 2 {
        return None;
    }
    fire_slow(site)
}

/// Corrupt a feature matrix in place according to `kind`: `Nan`/`Inf`
/// poison every third cell, `Empty` truncates to zero rows,
/// `SingleClass`/`TaskFail` leave the matrix alone (they act on labels
/// and control flow respectively).
pub fn corrupt_matrix(x: &mut FeatureMatrix, kind: FaultKind) {
    match kind {
        FaultKind::Nan => {
            for v in x.as_mut_slice().iter_mut().step_by(3) {
                *v = f64::NAN;
            }
        }
        FaultKind::Inf => {
            for (i, v) in x.as_mut_slice().iter_mut().enumerate().step_by(3) {
                *v = if i % 2 == 0 { f64::INFINITY } else { f64::NEG_INFINITY };
            }
        }
        FaultKind::Empty => x.truncate_rows(0),
        FaultKind::SingleClass | FaultKind::TaskFail => {}
    }
}

/// Corrupt a label vector in place according to `kind`: `SingleClass`
/// collapses every label to [`Label::NonMatch`], `Empty` clears the
/// vector, the float kinds leave labels alone.
pub fn corrupt_labels(y: &mut Vec<Label>, kind: FaultKind) {
    match kind {
        FaultKind::SingleClass => y.iter_mut().for_each(|l| *l = Label::NonMatch),
        FaultKind::Empty => y.clear(),
        FaultKind::Nan | FaultKind::Inf | FaultKind::TaskFail => {}
    }
}

/// Corrupt a confidence slice in place: `Nan` poisons every second value,
/// `Inf` alternates `±Inf`; the shape-changing kinds are no-ops (the
/// slice must stay aligned with its labels).
pub fn corrupt_confidences(confidences: &mut [f64], kind: FaultKind) {
    match kind {
        FaultKind::Nan => {
            for v in confidences.iter_mut().step_by(2) {
                *v = f64::NAN;
            }
        }
        FaultKind::Inf => {
            for (i, v) in confidences.iter_mut().enumerate().step_by(2) {
                *v = if i % 4 == 0 { f64::INFINITY } else { f64::NEG_INFINITY };
            }
        }
        FaultKind::Empty | FaultKind::SingleClass | FaultKind::TaskFail => {}
    }
}

/// Corrupted *copies* of a training pair, leaving the originals intact so
/// a degradation ladder can still fall back to the clean data. Keeps the
/// matrix and label vector aligned (`Empty` shrinks both to zero).
pub fn corrupted_pair(
    x: &FeatureMatrix,
    y: &[Label],
    kind: FaultKind,
) -> (FeatureMatrix, Vec<Label>) {
    let mut cx = x.clone();
    let mut cy = y.to_vec();
    corrupt_matrix(&mut cx, kind);
    corrupt_labels(&mut cy, kind);
    (cx, cy)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_parsing() {
        let p = parse_plan("gen.fit:nan").unwrap();
        assert_eq!((p.site, p.kind, p.rate, p.seed), ("gen.fit", FaultKind::Nan, 1.0, 0));
        let p = parse_plan("compare:task_fail:0.25:9").unwrap();
        assert_eq!((p.site, p.kind, p.rate, p.seed), ("compare", FaultKind::TaskFail, 0.25, 9));
        let p = parse_plan(" tcl.fit : INF : 0.5 ").unwrap();
        assert_eq!((p.site, p.kind, p.rate), ("tcl.fit", FaultKind::Inf, 0.5));
        for bad in [
            "",
            "gen.fit",
            "gen.fit:frobnicate",
            "gen.fit:nan:2.0",
            "gen.fit:nan:0.5:x:y",
            ":nan",
            "sel_knn:nan",
        ] {
            assert!(parse_plan(bad).is_none(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn kind_spellings_round_trip() {
        for kind in FaultKind::ALL {
            assert_eq!(FaultKind::parse(kind.as_str()), Some(kind));
        }
    }

    #[test]
    fn firing_is_deterministic_and_site_scoped() {
        let _guard = test_lock();
        set_plan(Some("sel.knn:nan"));
        assert_eq!(fired(site::SEL_KNN), Some(FaultKind::Nan));
        assert_eq!(fired(site::GEN_FIT), None, "other sites never fire");

        set_plan(Some("sel.knn:nan:0.5:42"));
        let first: Vec<bool> = (0..64).map(|_| fired(site::SEL_KNN).is_some()).collect();
        set_plan(Some("sel.knn:nan:0.5:42"));
        let second: Vec<bool> = (0..64).map(|_| fired(site::SEL_KNN).is_some()).collect();
        assert_eq!(first, second, "same plan, same firing sequence");
        let hits = first.iter().filter(|&&f| f).count();
        assert!(hits > 8 && hits < 56, "rate 0.5 fires roughly half the time, got {hits}/64");

        set_plan(None);
        assert_eq!(fired(site::SEL_KNN), None);
    }

    #[test]
    fn rate_zero_never_fires() {
        let _guard = test_lock();
        set_plan(Some("compare:empty:0.0"));
        assert!((0..32).all(|_| fired(site::COMPARE).is_none()));
        set_plan(None);
    }

    #[test]
    fn matrix_corruption_kinds() {
        let base =
            FeatureMatrix::from_vecs(&[vec![0.1, 0.2], vec![0.3, 0.4], vec![0.5, 0.6]]).unwrap();
        let mut nan = base.clone();
        corrupt_matrix(&mut nan, FaultKind::Nan);
        assert!(nan.as_slice().iter().any(|v| v.is_nan()));
        assert_eq!(nan.rows(), 3);

        let mut inf = base.clone();
        corrupt_matrix(&mut inf, FaultKind::Inf);
        assert!(inf.as_slice().contains(&f64::INFINITY));

        let mut empty = base.clone();
        corrupt_matrix(&mut empty, FaultKind::Empty);
        assert!(empty.is_empty());
        assert_eq!(empty.cols(), 2);

        let mut untouched = base.clone();
        corrupt_matrix(&mut untouched, FaultKind::TaskFail);
        assert_eq!(untouched, base);
    }

    #[test]
    fn label_and_confidence_corruption() {
        let mut y = vec![Label::Match, Label::NonMatch, Label::Match];
        corrupt_labels(&mut y, FaultKind::SingleClass);
        assert!(y.iter().all(|l| *l == Label::NonMatch));
        corrupt_labels(&mut y, FaultKind::Empty);
        assert!(y.is_empty());

        let mut c = vec![0.9, 0.8, 0.7, 0.6];
        corrupt_confidences(&mut c, FaultKind::Nan);
        assert!(c[0].is_nan() && c[2].is_nan() && c[1] == 0.8);
        let mut c = vec![0.9, 0.8, 0.7, 0.6];
        corrupt_confidences(&mut c, FaultKind::Empty);
        assert_eq!(c, vec![0.9, 0.8, 0.7, 0.6]);
    }

    #[test]
    fn corrupted_pair_keeps_alignment_and_originals() {
        let x = FeatureMatrix::from_vecs(&[vec![0.1], vec![0.9]]).unwrap();
        let y = vec![Label::NonMatch, Label::Match];
        let (cx, cy) = corrupted_pair(&x, &y, FaultKind::Empty);
        assert!(cx.is_empty() && cy.is_empty());
        assert_eq!(x.rows(), 2, "original untouched");
        let (cx, cy) = corrupted_pair(&x, &y, FaultKind::SingleClass);
        assert_eq!(cx, x);
        assert!(cy.iter().all(|l| *l == Label::NonMatch));
    }

    #[test]
    fn fault_counter_recorded_in_trace() {
        let _guard = test_lock();
        transer_trace::set_enabled(true);
        set_plan(Some("tcl.fit:task_fail"));
        assert_eq!(fired(site::TCL_FIT), Some(FaultKind::TaskFail));
        set_plan(None);
        let report = transer_trace::drain_report();
        transer_trace::set_enabled(false);
        assert_eq!(report.counters.get("robust.fault.tcl.fit"), Some(&1));
    }
}

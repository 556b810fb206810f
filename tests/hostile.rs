//! Hostile-input property tests: arbitrary matrices carrying NaN / ±Inf
//! cells, constant columns, tiny (0–2 row) domains and duplicate rows are
//! driven through the full pipeline under every paper classifier and
//! every fault-injection site. The contract is the panic-free guarantee:
//! each run returns `Ok` (possibly via the degradation ladder) with
//! target-aligned labels, or a typed `Err` that renders — never a panic.

use proptest::prelude::*;
use transer::prelude::*;
use transer::robust::{self, site, FaultKind};
use transer_core::{select_instances_per_row_with_pool, select_instances_with_pool};
use transer_parallel::Pool;

const MAX_SRC: usize = 10;
const MAX_TGT: usize = 6;
const MAX_COLS: usize = 4;

/// Everything one hostile case needs, generated from flat pools so no
/// `prop_flat_map` is required: dimensions, a cell pool with per-cell
/// corruption selectors, a label pool, and structural mutations.
#[derive(Debug, Clone)]
struct HostileCase {
    n_src: usize,
    n_tgt: usize,
    cols: usize,
    cells: Vec<f64>,
    labels: Vec<Label>,
    duplicate_rows: bool,
    constant_col: bool,
}

fn cell(selector: u8, value: f64) -> f64 {
    match selector {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => 0.0,
        _ => value,
    }
}

fn case_strategy() -> impl Strategy<Value = HostileCase> {
    (
        0usize..=MAX_SRC,
        0usize..=MAX_TGT,
        1usize..=MAX_COLS,
        prop::collection::vec((0u8..16, 0.0f64..1.0), (MAX_SRC + MAX_TGT) * MAX_COLS),
        prop::collection::vec(0u8..2, MAX_SRC),
        0u8..2,
        0u8..2,
    )
        .prop_map(|(n_src, n_tgt, cols, pool, label_pool, dup, constant)| HostileCase {
            n_src,
            n_tgt,
            cols,
            cells: pool.into_iter().map(|(s, v)| cell(s, v)).collect(),
            labels: label_pool.into_iter().map(|b| Label::from_bool(b == 1)).collect(),
            duplicate_rows: dup == 1,
            constant_col: constant == 1,
        })
}

impl HostileCase {
    /// Build an `n x cols` matrix from the shared cell pool, applying the
    /// structural mutations. Zero-row matrices are built by truncation
    /// because `from_vecs` (correctly) rejects an empty row list.
    fn matrix(&self, n: usize, offset: usize) -> FeatureMatrix {
        let mut rows = Vec::with_capacity(n.max(1));
        for r in 0..n.max(1) {
            let src_row = if self.duplicate_rows { 0 } else { r };
            let start = (offset + src_row) * self.cols;
            let mut row = self.cells[start..start + self.cols].to_vec();
            if self.constant_col {
                row[0] = 1.0;
            }
            rows.push(row);
        }
        let mut m = FeatureMatrix::from_vecs(&rows).expect("pool rows are rectangular");
        m.truncate_rows(n);
        m
    }

    fn source(&self) -> (FeatureMatrix, Vec<Label>) {
        (self.matrix(self.n_src, 0), self.labels[..self.n_src].to_vec())
    }

    fn target(&self) -> FeatureMatrix {
        self.matrix(self.n_tgt, MAX_SRC)
    }
}

/// The fault plan for one case: index 0 disarms the harness, the rest
/// select a (site, kind) pair among the sites `fit_predict` reaches.
const FAULT_SITES: [&str; 6] = [
    site::SEL_KNN,
    site::GEN_FIT,
    site::GEN_PREDICT,
    site::TCL_BALANCE,
    site::TCL_FIT,
    site::POOL_DISPATCH,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Core tentpole property: hostile matrices through `fit_predict`
    /// under every classifier and an arbitrary armed fault site are
    /// always `Ok` with aligned labels or a typed error — never a panic.
    #[test]
    fn fit_predict_is_total_on_hostile_inputs(
        case in case_strategy(),
        fault_site in 0usize..=FAULT_SITES.len(),
        fault_kind in 0usize..FaultKind::ALL.len(),
    ) {
        let _guard = robust::test_lock();
        let (xs, ys) = case.source();
        let xt = case.target();
        let plan = fault_site
            .checked_sub(1)
            .map(|s| format!("{}:{}", FAULT_SITES[s], FaultKind::ALL[fault_kind].as_str()));
        robust::set_plan(plan.as_deref());
        for kind in ClassifierKind::PAPER_SET {
            let t = TransEr::new(TransErConfig { k: 3, ..Default::default() }, kind, 7)
                .expect("config");
            match t.fit_predict(&xs, &ys, &xt) {
                Ok(out) => prop_assert_eq!(
                    out.labels.len(),
                    xt.rows(),
                    "{}: labels misaligned under {:?}",
                    kind.name(),
                    plan
                ),
                Err(e) => prop_assert!(
                    !e.to_string().is_empty(),
                    "{}: error must render under {:?}",
                    kind.name(),
                    plan
                ),
            }
        }
        robust::set_plan(None);
    }

    /// Determinism rider: with the harness disarmed, instance selection
    /// over hostile matrices is bit-identical at 1 and 4 workers, and
    /// bit-identical to the per-row reference path.
    #[test]
    fn selection_on_hostile_inputs_ignores_worker_count(case in case_strategy()) {
        let _guard = robust::test_lock();
        robust::set_plan(None);
        let (xs, ys) = case.source();
        let xt = case.target();
        let cfg = TransErConfig { k: 3, ..Default::default() };
        let reference = select_instances_per_row_with_pool(&xs, &ys, &xt, &cfg, &Pool::new(1));
        for workers in [1, 4] {
            let got = select_instances_with_pool(&xs, &ys, &xt, &cfg, &Pool::new(workers));
            match (&reference, got) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(&a.indices, &b.indices, "workers {}", workers);
                    for (sa, sb) in a.scores.iter().zip(&b.scores) {
                        prop_assert_eq!(sa.sim_c.to_bits(), sb.sim_c.to_bits());
                        prop_assert_eq!(sa.sim_l.to_bits(), sb.sim_l.to_bits());
                        prop_assert_eq!(sa.sim_v.to_bits(), sb.sim_v.to_bits());
                    }
                }
                (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
                (a, b) => prop_assert!(
                    false,
                    "workers {} changed the outcome: {:?} vs {:?}",
                    workers,
                    a,
                    b
                ),
            }
        }
    }
}

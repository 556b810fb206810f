//! Table 1 — data set characteristics: match / non-match / ambiguous
//! shares per data set, and the class agreement of the feature vectors two
//! paired domains have in common.

use std::collections::HashMap;

use transer_common::LabeledDataset;
use transer_datagen::ScenarioPair;
use transer_trace::json::{obj, Json};

use crate::{Cell, Options};

/// Decimal places the paper rounds feature vectors to before comparing.
pub const ROUND_DECIMALS: u32 = 2;

/// Per-data-set characteristics (the left two thirds of Table 1).
#[derive(Debug, Clone)]
pub struct DatasetStats {
    /// Data set name.
    pub name: String,
    /// Number of similarity features.
    pub num_features: usize,
    /// Number of feature vectors (candidate record pairs).
    pub total: usize,
    /// Fraction of rows that are unambiguous matches.
    pub match_frac: f64,
    /// Fraction of rows that are unambiguous non-matches.
    pub non_match_frac: f64,
    /// Fraction of rows whose rounded feature vector carries both labels.
    pub ambiguous_frac: f64,
}

impl DatasetStats {
    /// Field names as keys.
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("name", Json::Str(self.name.clone())),
            ("num_features", Json::Num(self.num_features as f64)),
            ("total", Json::Num(self.total as f64)),
            ("match_frac", Json::Num(self.match_frac)),
            ("non_match_frac", Json::Num(self.non_match_frac)),
            ("ambiguous_frac", Json::Num(self.ambiguous_frac)),
        ])
    }
}

/// Group rows by rounded feature vector; value = (match rows, non-match
/// rows).
fn key_groups(ds: &LabeledDataset) -> HashMap<Vec<i64>, (usize, usize)> {
    let mut groups: HashMap<Vec<i64>, (usize, usize)> = HashMap::new();
    for i in 0..ds.len() {
        let e = groups.entry(ds.x.row_key(i, ROUND_DECIMALS)).or_default();
        if ds.y[i].is_match() {
            e.0 += 1;
        } else {
            e.1 += 1;
        }
    }
    groups
}

/// Compute the per-data-set statistics.
pub fn dataset_stats(ds: &LabeledDataset) -> DatasetStats {
    let groups = key_groups(ds);
    let mut matches = 0usize;
    let mut non_matches = 0usize;
    let mut ambiguous = 0usize;
    for (m, n) in groups.values() {
        if *m > 0 && *n > 0 {
            ambiguous += m + n;
        } else {
            matches += m;
            non_matches += n;
        }
    }
    let total = ds.len().max(1) as f64;
    DatasetStats {
        name: ds.name.clone(),
        num_features: ds.x.cols(),
        total: ds.len(),
        match_frac: matches as f64 / total,
        non_match_frac: non_matches as f64 / total,
        ambiguous_frac: ambiguous as f64 / total,
    }
}

/// Statistics of the feature vectors two domains have in common (the right
/// third of Table 1).
#[derive(Debug, Clone)]
pub struct CommonStats {
    /// Number of distinct rounded vectors present in both domains.
    pub total: usize,
    /// Fraction with the same unambiguous class in both domains.
    pub same_class_frac: f64,
    /// Fraction unambiguous in both but with different classes.
    pub diff_class_frac: f64,
    /// Fraction ambiguous in at least one domain.
    pub ambiguous_frac: f64,
}

impl CommonStats {
    /// Field names as keys.
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("total", Json::Num(self.total as f64)),
            ("same_class_frac", Json::Num(self.same_class_frac)),
            ("diff_class_frac", Json::Num(self.diff_class_frac)),
            ("ambiguous_frac", Json::Num(self.ambiguous_frac)),
        ])
    }
}

/// Compute the common-vector statistics of a domain pair.
pub fn common_stats(a: &LabeledDataset, b: &LabeledDataset) -> CommonStats {
    let ga = key_groups(a);
    let gb = key_groups(b);
    let mut total = 0usize;
    let mut same = 0usize;
    let mut diff = 0usize;
    let mut ambiguous = 0usize;
    for (key, (ma, na)) in &ga {
        let Some((mb, nb)) = gb.get(key) else { continue };
        total += 1;
        let amb_a = *ma > 0 && *na > 0;
        let amb_b = *mb > 0 && *nb > 0;
        if amb_a || amb_b {
            ambiguous += 1;
        } else if (*ma > 0) == (*mb > 0) {
            same += 1;
        } else {
            diff += 1;
        }
    }
    let t = total.max(1) as f64;
    CommonStats {
        total,
        same_class_frac: same as f64 / t,
        diff_class_frac: diff as f64 / t,
        ambiguous_frac: ambiguous as f64 / t,
    }
}

/// One Table 1 row: a scenario pair with both domains' statistics and
/// their common-vector statistics.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Left domain statistics.
    pub a: DatasetStats,
    /// Right domain statistics.
    pub b: DatasetStats,
    /// Common feature vector statistics.
    pub common: CommonStats,
}

impl Table1Row {
    /// Field names as keys.
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("a", self.a.to_json()),
            ("b", self.b.to_json()),
            ("common", self.common.to_json()),
        ])
    }
}

/// Compute Table 1 for all four scenario pairs.
///
/// # Errors
/// Propagates workload generation errors.
pub fn table1(opts: &Options) -> transer_common::Result<Vec<Table1Row>> {
    let mut rows = Vec::new();
    for pair in ScenarioPair::ALL {
        let dp = pair.domain_pair(opts.scale, opts.seed)?;
        rows.push(Table1Row {
            a: dataset_stats(&dp.source),
            b: dataset_stats(&dp.target),
            common: common_stats(&dp.source, &dp.target),
        });
    }
    Ok(rows)
}

/// Render Table 1 in the paper's layout.
pub fn render(rows: &[Table1Row]) -> String {
    let mut table = vec![vec![
        Cell::from("m"),
        Cell::from("Domain A"),
        Cell::from("total"),
        Cell::from("M%"),
        Cell::from("N%"),
        Cell::from("Amb%"),
        Cell::from("Domain B"),
        Cell::from("total"),
        Cell::from("M%"),
        Cell::from("N%"),
        Cell::from("Amb%"),
        Cell::from("common"),
        Cell::from("Same%"),
        Cell::from("Diff%"),
        Cell::from("Amb%"),
    ]];
    for r in rows {
        table.push(vec![
            Cell::Num(r.a.num_features as f64),
            Cell::from(r.a.name.clone()),
            Cell::Num(r.a.total as f64),
            Cell::Num(r.a.match_frac * 100.0),
            Cell::Num(r.a.non_match_frac * 100.0),
            Cell::Num(r.a.ambiguous_frac * 100.0),
            Cell::from(r.b.name.clone()),
            Cell::Num(r.b.total as f64),
            Cell::Num(r.b.match_frac * 100.0),
            Cell::Num(r.b.non_match_frac * 100.0),
            Cell::Num(r.b.ambiguous_frac * 100.0),
            Cell::Num(r.common.total as f64),
            Cell::Num(r.common.same_class_frac * 100.0),
            Cell::Num(r.common.diff_class_frac * 100.0),
            Cell::Num(r.common.ambiguous_frac * 100.0),
        ]);
    }
    crate::format_table(&table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use transer_common::{FeatureMatrix, Label};

    fn ds(rows: &[(f64, Label)]) -> LabeledDataset {
        let x = FeatureMatrix::from_vecs(&rows.iter().map(|(v, _)| vec![*v]).collect::<Vec<_>>())
            .unwrap();
        LabeledDataset::new("t", x, rows.iter().map(|(_, l)| *l).collect()).unwrap()
    }

    #[test]
    fn fractions_partition_the_rows() {
        let d = ds(&[
            (0.9, Label::Match),
            (0.9, Label::Match),
            (0.5, Label::Match),
            (0.5, Label::NonMatch), // ambiguous key 0.5
            (0.1, Label::NonMatch),
        ]);
        let s = dataset_stats(&d);
        assert_eq!(s.total, 5);
        assert!((s.match_frac - 0.4).abs() < 1e-12);
        assert!((s.non_match_frac - 0.2).abs() < 1e-12);
        assert!((s.ambiguous_frac - 0.4).abs() < 1e-12);
        assert!((s.match_frac + s.non_match_frac + s.ambiguous_frac - 1.0).abs() < 1e-12);
    }

    #[test]
    fn common_vector_classification() {
        let a = ds(&[
            (0.9, Label::Match), // common, same class
            (0.5, Label::Match), // common, diff class
            (0.3, Label::Match),
            (0.3, Label::NonMatch), // ambiguous in a, common
            (0.7, Label::Match),    // not common
        ]);
        let b = ds(&[
            (0.9, Label::Match),
            (0.5, Label::NonMatch),
            (0.3, Label::NonMatch),
            (0.2, Label::NonMatch), // not common
        ]);
        let c = common_stats(&a, &b);
        assert_eq!(c.total, 3);
        assert!((c.same_class_frac - 1.0 / 3.0).abs() < 1e-12);
        assert!((c.diff_class_frac - 1.0 / 3.0).abs() < 1e-12);
        assert!((c.ambiguous_frac - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn table1_generates_and_renders() {
        let opts = Options { scale: 0.02, ..Options::default() };
        let rows = table1(&opts).unwrap();
        assert_eq!(rows.len(), 4);
        // Feature-space widths follow the paper: 4, 5, 8, 11.
        assert_eq!(rows.iter().map(|r| r.a.num_features).collect::<Vec<_>>(), vec![4, 5, 8, 11]);
        let text = render(&rows);
        assert!(text.contains("DBLP-ACM"));
        assert!(text.contains("KIL Bp-Bp"));
    }
}

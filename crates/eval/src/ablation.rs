//! Table 4 — ablation of TransER's components on the paper's three
//! representative pairs (one bibliographic, one music, one demographic).

use transer_common::Result;
use transer_core::{TransErConfig, Variant};
use transer_trace::json::{obj, Json};

use crate::tasks::{directed_tasks, named, run_transer, QualityNumbers};
use crate::{Cell, Options};

/// Results of all six variants on one task.
#[derive(Debug, Clone)]
pub struct Table4Row {
    /// `"source -> target"`.
    pub task: String,
    /// `(variant name, quality)` in the paper's column order.
    pub variants: Vec<(String, QualityNumbers)>,
}

impl Table4Row {
    /// Field names as keys; each variant a `[name, quality]` array.
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("task", Json::Str(self.task.clone())),
            ("variants", named(&self.variants, QualityNumbers::to_json)),
        ])
    }
}

/// The paper's three ablation tasks (Section 5.4).
pub const ABLATION_TASKS: [&str; 3] =
    ["DBLP-ACM -> DBLP-Scholar", "MB -> MSD", "KIL Bp-Dp -> IOS Bp-Dp"];

/// Run the Table 4 experiment.
///
/// # Errors
/// Propagates workload generation and TransER errors.
pub fn table4(opts: &Options) -> Result<Vec<Table4Row>> {
    let classifiers = opts.classifier_set();
    let tasks = directed_tasks(opts.scale, opts.seed)?;
    let mut rows = Vec::new();
    for task in tasks.iter().filter(|t| ABLATION_TASKS.contains(&t.name.as_str())) {
        let mut variants = Vec::new();
        for (name, variant) in Variant::ablation_suite() {
            let config = TransErConfig { variant, ..TransErConfig::default() };
            let (q, _, _) = run_transer(config, task, &classifiers, opts.seed)?;
            variants.push((name.to_string(), q));
        }
        rows.push(Table4Row { task: task.name.clone(), variants });
    }
    Ok(rows)
}

/// Render Table 4 in the paper's layout.
pub fn render(rows: &[Table4Row]) -> String {
    let mut table = Vec::new();
    let mut header = vec![Cell::from("Task"), Cell::from("")];
    if let Some(first) = rows.first() {
        header.extend(first.variants.iter().map(|(n, _)| Cell::from(n.clone())));
    }
    table.push(header);
    let metric_names = ["P", "R", "F*", "F1"];
    for row in rows {
        for (mi, mn) in metric_names.iter().enumerate() {
            let mut line = vec![
                if mi == 0 { Cell::from(row.task.clone()) } else { Cell::Empty },
                Cell::from(*mn),
            ];
            for (_, q) in &row.variants {
                let (m, s) = q.metrics()[mi];
                line.push(Cell::Pct(m, s));
            }
            table.push(line);
        }
    }
    crate::format_table(&table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_ablation_smoke() {
        let opts = Options { scale: 0.02, quick: true, ..Options::default() };
        let rows = table4(&opts).unwrap();
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert_eq!(row.variants.len(), 6);
            assert_eq!(row.variants[0].0, "TransER");
            assert_eq!(row.variants[2].0, "without SEL");
        }
        let text = render(&rows);
        assert!(text.contains("without sim_c"));
    }
}

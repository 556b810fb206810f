//! Table 3 — feature-matrix sizes and per-method runtimes.

use transer_baselines::all_baselines;
use transer_core::TransErConfig;
use transer_ml::ClassifierKind;
use transer_trace::json::{obj, Json};

use crate::tasks::{directed_tasks, named, run_baseline, run_transer, MethodOutcome};
use crate::{Cell, Options};

/// Sizes and runtimes for one directed task.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// `"source -> target"`.
    pub task: String,
    /// `|X^S|`.
    pub source_rows: usize,
    /// `|X^T|`.
    pub target_rows: usize,
    /// `(method, runtime seconds or None for ME/TE)` — TransER first.
    pub runtimes: Vec<(String, Option<f64>)>,
}

impl Table3Row {
    /// Field names as keys; each runtime a `[method, secs]` array, `null`
    /// secs for ME/TE.
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("task", Json::Str(self.task.clone())),
            ("source_rows", Json::Num(self.source_rows as f64)),
            ("target_rows", Json::Num(self.target_rows as f64)),
            ("runtimes", named(&self.runtimes, |secs| secs.map_or(Json::Null, Json::Num))),
        ])
    }
}

/// Run the Table 3 experiment. Runtimes are measured with a single
/// classifier (logistic regression), matching the per-experiment
/// measurements of the paper.
///
/// # Errors
/// Propagates workload generation and TransER errors.
pub fn table3(opts: &Options) -> transer_common::Result<Vec<Table3Row>> {
    let classifiers = [ClassifierKind::LogisticRegression];
    let tasks = directed_tasks(opts.scale, opts.seed)?;
    let baselines = all_baselines();
    let mut rows = Vec::new();
    for task in &tasks {
        let mut runtimes = Vec::new();
        let (_, secs, _) = run_transer(TransErConfig::default(), task, &classifiers, opts.seed)?;
        runtimes.push(("TransER".to_string(), Some(secs)));
        for baseline in &baselines {
            let outcome =
                run_baseline(baseline.as_ref(), task, &classifiers, opts.seed, opts.budget);
            let secs = match outcome {
                MethodOutcome::Ok { secs, .. } => Some(secs),
                _ => None,
            };
            runtimes.push((baseline.name().to_string(), secs));
        }
        rows.push(Table3Row {
            task: task.name.clone(),
            source_rows: task.source.len(),
            target_rows: task.target.len(),
            runtimes,
        });
    }
    Ok(rows)
}

/// Render Table 3.
pub fn render(rows: &[Table3Row]) -> String {
    let mut table = Vec::new();
    let mut header = vec![Cell::from("Task"), Cell::from("|X^S|"), Cell::from("|X^T|")];
    if let Some(first) = rows.first() {
        header.extend(first.runtimes.iter().map(|(n, _)| Cell::from(n.clone())));
    }
    table.push(header);
    for row in rows {
        let mut line = vec![
            Cell::from(row.task.clone()),
            Cell::Num(row.source_rows as f64),
            Cell::Num(row.target_rows as f64),
        ];
        line.extend(row.runtimes.iter().map(|(_, s)| match s {
            Some(v) => Cell::Num(*v),
            None => Cell::from("ME/TE"),
        }));
        table.push(line);
    }
    crate::format_table(&table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_table3_smoke() {
        let opts = Options {
            scale: 0.02,
            budget: transer_baselines::ResourceBudget {
                max_memory_bytes: 64 << 20,
                max_secs: 120.0,
            },
            ..Options::default()
        };
        let rows = table3(&opts).unwrap();
        assert_eq!(rows.len(), 8);
        for row in &rows {
            assert!(row.source_rows > 0 && row.target_rows > 0);
            assert_eq!(row.runtimes[0].0, "TransER");
            assert!(row.runtimes[0].1.is_some());
        }
        let text = render(&rows);
        assert!(text.contains("|X^S|"));
    }
}

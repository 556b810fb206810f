//! Table 2 — linkage quality of TransER against every baseline on all
//! eight directed transfer tasks, averaged over the classifier set.

use transer_baselines::all_baselines;
use transer_core::TransErConfig;
use transer_metrics::MeanStd;
use transer_trace::json::{obj, Json};

use crate::tasks::{
    directed_tasks, named, run_baseline, run_transer, MethodOutcome, QualityNumbers,
};
use crate::{Cell, Options};

/// All method results for one directed task.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// `"source -> target"`.
    pub task: String,
    /// `(method name, outcome)` — TransER first, then the baselines in the
    /// paper's column order.
    pub methods: Vec<(String, MethodOutcome)>,
}

impl Table2Row {
    /// Field names as keys; each method a `[name, outcome]` array.
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("task", Json::Str(self.task.clone())),
            ("methods", named(&self.methods, MethodOutcome::to_json)),
        ])
    }
}

/// The full Table 2.
#[derive(Debug, Clone)]
pub struct Table2 {
    /// Per-task rows.
    pub rows: Vec<Table2Row>,
    /// Per-method average quality over the tasks the method completed.
    pub averages: Vec<(String, QualityNumbers)>,
}

impl Table2 {
    /// Field names as keys; each average a `[name, quality]` array.
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("rows", Json::Arr(self.rows.iter().map(Table2Row::to_json).collect())),
            ("averages", named(&self.averages, QualityNumbers::to_json)),
        ])
    }
}

/// Run the Table 2 experiment.
///
/// # Errors
/// Propagates workload generation and TransER errors (baseline failures
/// are captured per-cell as `ME`/`TE`/`Failed`).
pub fn table2(opts: &Options) -> transer_common::Result<Table2> {
    let classifiers = opts.classifier_set();
    let tasks = directed_tasks(opts.scale, opts.seed)?;
    let baselines = all_baselines();

    let mut rows = Vec::with_capacity(tasks.len());
    for task in &tasks {
        let mut methods = Vec::new();
        let (q, secs, _) = run_transer(TransErConfig::default(), task, &classifiers, opts.seed)?;
        methods.push(("TransER".to_string(), MethodOutcome::Ok { quality: q, secs }));
        for baseline in &baselines {
            let outcome =
                run_baseline(baseline.as_ref(), task, &classifiers, opts.seed, opts.budget);
            methods.push((baseline.name().to_string(), outcome));
        }
        rows.push(Table2Row { task: task.name.clone(), methods });
    }

    // Per-method averages over completed tasks (mean of per-task means;
    // std across tasks).
    let method_names: Vec<String> = rows
        .first()
        .map(|r| r.methods.iter().map(|(n, _)| n.clone()).collect())
        .unwrap_or_default();
    let mut averages = Vec::new();
    for name in method_names {
        let mut stats = [MeanStd::new(); 4];
        for row in &rows {
            if let Some((_, MethodOutcome::Ok { quality, .. })) =
                row.methods.iter().find(|(n, _)| *n == name)
            {
                stats.iter_mut().zip(quality.metrics()).for_each(|(s, (mean, _))| s.push(mean));
            }
        }
        averages.push((name, QualityNumbers::from_stats(stats)));
    }
    Ok(Table2 { rows, averages })
}

fn metric_cell(outcome: &MethodOutcome, metric: usize) -> Cell {
    match outcome {
        MethodOutcome::Ok { quality, .. } => {
            let (m, s) = quality.metrics()[metric];
            Cell::Pct(m, s)
        }
        MethodOutcome::MemoryExceeded => Cell::from("ME"),
        MethodOutcome::TimeExceeded => Cell::from("TE"),
        MethodOutcome::Failed(_) => Cell::from("—"),
    }
}

/// Render Table 2 in the paper's layout (P/R/F*/F1 rows per task).
pub fn render(t: &Table2) -> String {
    let mut rows = Vec::new();
    let mut header = vec![Cell::from("Task"), Cell::from("")];
    if let Some(first) = t.rows.first() {
        header.extend(first.methods.iter().map(|(n, _)| Cell::from(n.clone())));
    }
    rows.push(header);
    let metric_names = ["P", "R", "F*", "F1"];
    for row in &t.rows {
        for (mi, mn) in metric_names.iter().enumerate() {
            let mut line = vec![
                if mi == 0 { Cell::from(row.task.clone()) } else { Cell::Empty },
                Cell::from(*mn),
            ];
            line.extend(row.methods.iter().map(|(_, o)| metric_cell(o, mi)));
            rows.push(line);
        }
    }
    for (mi, mn) in metric_names.iter().enumerate() {
        let mut line =
            vec![if mi == 0 { Cell::from("Averages") } else { Cell::Empty }, Cell::from(*mn)];
        for (_, q) in &t.averages {
            let (m, s) = q.metrics()[mi];
            line.push(Cell::Pct(m, s));
        }
        rows.push(line);
    }
    crate::format_table(&rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_table2_smoke() {
        // Tiny scale + single classifier keeps this a unit test.
        let opts = Options {
            scale: 0.02,
            quick: true,
            budget: transer_baselines::ResourceBudget {
                max_memory_bytes: 64 << 20,
                max_secs: 120.0,
            },
            ..Options::default()
        };
        let t = table2(&opts).unwrap();
        assert_eq!(t.rows.len(), 8);
        // TransER plus six baselines.
        assert_eq!(t.rows[0].methods.len(), 7);
        assert_eq!(t.rows[0].methods[0].0, "TransER");
        assert!(t.rows[0].methods[0].1.is_ok(), "TransER must complete");
        let text = render(&t);
        assert!(text.contains("TransER"));
        assert!(text.contains("Averages"));
    }
}

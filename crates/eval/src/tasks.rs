//! Task generation and method execution shared by the experiments.

use std::time::Instant;

use transer_baselines::{ResourceBudget, RunContext, TaskView, TransferMethod};
use transer_common::{Label, LabeledDataset, Result};
use transer_core::{Diagnostics, TransEr, TransErConfig};
use transer_datagen::ScenarioPair;
use transer_metrics::{evaluate, MeanStd};
use transer_ml::ClassifierKind;
use transer_trace::json::{obj, Json};

/// One directed transfer task with the raw pair texts the deep baselines
/// embed.
#[derive(Debug, Clone)]
pub struct EvalTask {
    /// `"source -> target"`.
    pub name: String,
    /// Labelled source domain.
    pub source: LabeledDataset,
    /// Target domain (labels used for evaluation only).
    pub target: LabeledDataset,
    /// Raw record-pair text per source row.
    pub source_texts: Vec<(String, String)>,
    /// Raw record-pair text per target row.
    pub target_texts: Vec<(String, String)>,
}

impl EvalTask {
    /// Borrowed view for the baselines.
    pub fn view(&self) -> TaskView<'_> {
        TaskView {
            xs: &self.source.x,
            ys: &self.source.y,
            xt: &self.target.x,
            source_texts: Some(&self.source_texts),
            target_texts: Some(&self.target_texts),
        }
    }
}

/// Generate the eight directed tasks of Table 2 (both directions of the
/// four scenario pairs), at the given scale.
///
/// # Errors
/// Propagates generation errors.
pub fn directed_tasks(scale: f64, seed: u64) -> Result<Vec<EvalTask>> {
    let mut out = Vec::with_capacity(8);
    for pair in ScenarioPair::ALL {
        let (a, b) = pair.scenarios();
        let (da, ta) = a.generate_with_text(scale, seed)?;
        let (db, tb) = b.generate_with_text(scale, seed)?;
        out.push(EvalTask {
            name: format!("{} -> {}", da.name, db.name),
            source: da.clone(),
            target: db.clone(),
            source_texts: ta.clone(),
            target_texts: tb.clone(),
        });
        out.push(EvalTask {
            name: format!("{} -> {}", db.name, da.name),
            source: db,
            target: da,
            source_texts: tb,
            target_texts: ta,
        });
    }
    Ok(out)
}

/// The paper's quality quadruple, as mean ± std over the classifier set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityNumbers {
    /// Mean / std of precision.
    pub precision: (f64, f64),
    /// Mean / std of recall.
    pub recall: (f64, f64),
    /// Mean / std of the F* measure.
    pub f_star: (f64, f64),
    /// Mean / std of F1.
    pub f1: (f64, f64),
}

impl QualityNumbers {
    /// Each field a `[mean, std]` array.
    pub fn to_json(&self) -> Json {
        let pair = |(mean, std): (f64, f64)| nums(&[mean, std]);
        obj(vec![
            ("precision", pair(self.precision)),
            ("recall", pair(self.recall)),
            ("f_star", pair(self.f_star)),
            ("f1", pair(self.f1)),
        ])
    }

    /// The `(mean, std)` pairs in the paper's P, R, F*, F1 row order.
    pub fn metrics(&self) -> [(f64, f64); 4] {
        [self.precision, self.recall, self.f_star, self.f1]
    }

    /// Aggregate per-classifier outcomes.
    pub fn from_runs(predictions: &[Vec<Label>], truth: &[Label]) -> Self {
        let mut stats = [MeanStd::new(); 4];
        for pred in predictions {
            let cm = evaluate(pred, truth);
            let values = [cm.precision(), cm.recall(), cm.f_star(), cm.f1()];
            stats.iter_mut().zip(values).for_each(|(s, v)| s.push(v));
        }
        QualityNumbers::from_stats(stats)
    }

    /// From accumulators in P, R, F*, F1 order.
    pub(crate) fn from_stats([p, r, fs, f1]: [MeanStd; 4]) -> Self {
        let pair = |s: MeanStd| (s.mean(), s.std());
        QualityNumbers { precision: pair(p), recall: pair(r), f_star: pair(fs), f1: pair(f1) }
    }
}

/// Outcome of running one method on one task with the full classifier set.
#[derive(Debug, Clone)]
pub enum MethodOutcome {
    /// Completed: quality numbers and total runtime in seconds.
    Ok {
        /// Aggregated linkage quality.
        quality: QualityNumbers,
        /// Total wall-clock seconds across the classifier set.
        secs: f64,
    },
    /// Exceeded the memory budget (`ME` in the paper's tables).
    MemoryExceeded,
    /// Exceeded the runtime budget (`TE`).
    TimeExceeded,
    /// Failed for another reason (degenerate data); the message is kept.
    Failed(String),
}

impl MethodOutcome {
    /// Whether the method completed (the quality columns have numbers).
    pub fn is_ok(&self) -> bool {
        matches!(self, MethodOutcome::Ok { .. })
    }

    /// Tagged by variant name: `{"Ok": {"quality": …, "secs": …}}`,
    /// `"MemoryExceeded"`, `"TimeExceeded"` or `{"Failed": "<message>"}`.
    pub fn to_json(&self) -> Json {
        match self {
            MethodOutcome::Ok { quality, secs } => obj(vec![(
                "Ok",
                obj(vec![("quality", quality.to_json()), ("secs", Json::Num(*secs))]),
            )]),
            MethodOutcome::MemoryExceeded => Json::Str("MemoryExceeded".to_string()),
            MethodOutcome::TimeExceeded => Json::Str("TimeExceeded".to_string()),
            MethodOutcome::Failed(message) => obj(vec![("Failed", Json::Str(message.clone()))]),
        }
    }
}

/// A float slice as a JSON array.
pub(crate) fn nums(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())
}

/// A `(name, value)` list as arrays of two elements, `[[name, value], …]`.
pub(crate) fn named<T>(entries: &[(String, T)], value: impl Fn(&T) -> Json) -> Json {
    Json::Arr(
        entries
            .iter()
            .map(|(name, v)| Json::Arr(vec![Json::Str(name.clone()), value(v)]))
            .collect(),
    )
}

/// Run one baseline with every classifier in the set and aggregate.
pub fn run_baseline(
    method: &dyn TransferMethod,
    task: &EvalTask,
    classifiers: &[ClassifierKind],
    seed: u64,
    budget: ResourceBudget,
) -> MethodOutcome {
    let mut predictions = Vec::with_capacity(classifiers.len());
    let started = Instant::now();
    for (i, &kind) in classifiers.iter().enumerate() {
        let ctx = RunContext::new(kind, seed.wrapping_add(i as u64), budget);
        match method.run(&task.view(), &ctx) {
            Ok(labels) => predictions.push(labels),
            Err(transer_common::Error::MemoryExceeded { .. }) => {
                return MethodOutcome::MemoryExceeded
            }
            Err(transer_common::Error::TimeExceeded { .. }) => return MethodOutcome::TimeExceeded,
            Err(e) => return MethodOutcome::Failed(e.to_string()),
        }
    }
    MethodOutcome::Ok {
        quality: QualityNumbers::from_runs(&predictions, &task.target.y),
        secs: started.elapsed().as_secs_f64(),
    }
}

/// Run TransER with every classifier in the set and aggregate; also
/// returns the per-classifier diagnostics.
pub fn run_transer(
    config: TransErConfig,
    task: &EvalTask,
    classifiers: &[ClassifierKind],
    seed: u64,
) -> Result<(QualityNumbers, f64, Vec<Diagnostics>)> {
    let mut predictions = Vec::with_capacity(classifiers.len());
    let mut diagnostics = Vec::with_capacity(classifiers.len());
    let started = Instant::now();
    for (i, &kind) in classifiers.iter().enumerate() {
        let transer = TransEr::new(config, kind, seed.wrapping_add(i as u64))?;
        let out = transer.fit_predict(&task.source.x, &task.source.y, &task.target.x)?;
        predictions.push(out.labels);
        diagnostics.push(out.diagnostics);
    }
    Ok((
        QualityNumbers::from_runs(&predictions, &task.target.y),
        started.elapsed().as_secs_f64(),
        diagnostics,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use transer_baselines::Naive;

    fn tiny_tasks() -> Vec<EvalTask> {
        directed_tasks(0.02, 3).expect("generation succeeds")
    }

    #[test]
    fn eight_directed_tasks() {
        let tasks = tiny_tasks();
        assert_eq!(tasks.len(), 8);
        let names: Vec<&str> = tasks.iter().map(|t| t.name.as_str()).collect();
        assert!(names.contains(&"DBLP-ACM -> DBLP-Scholar"));
        assert!(names.contains(&"KIL Bp-Bp -> IOS Bp-Bp"));
        for t in &tasks {
            assert_eq!(t.source.len(), t.source_texts.len());
            assert_eq!(t.target.len(), t.target_texts.len());
            assert!(t.view().validate().is_ok());
        }
    }

    #[test]
    fn naive_runs_and_aggregates() {
        let tasks = tiny_tasks();
        let out = run_baseline(
            &Naive,
            &tasks[0],
            &[ClassifierKind::LogisticRegression, ClassifierKind::DecisionTree],
            1,
            ResourceBudget::default(),
        );
        match out {
            MethodOutcome::Ok { quality, secs } => {
                assert!(secs >= 0.0);
                assert!((0.0..=1.0).contains(&quality.f_star.0));
                assert!(quality.f_star.1 >= 0.0);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn transer_runs_and_reports_diagnostics() {
        let tasks = tiny_tasks();
        let (q, secs, diags) = run_transer(
            TransErConfig::default(),
            &tasks[1],
            &[ClassifierKind::LogisticRegression],
            1,
        )
        .unwrap();
        assert_eq!(diags.len(), 1);
        assert!(secs > 0.0);
        assert!((0.0..=1.0).contains(&q.recall.0));
    }

    #[test]
    fn quality_aggregation_matches_hand_computation() {
        let truth = vec![Label::Match, Label::NonMatch, Label::Match];
        let runs = vec![
            vec![Label::Match, Label::NonMatch, Label::Match], // perfect
            vec![Label::Match, Label::Match, Label::NonMatch], // P=.5 R=.5
        ];
        let q = QualityNumbers::from_runs(&runs, &truth);
        assert!((q.precision.0 - 0.75).abs() < 1e-12);
        assert!((q.recall.0 - 0.75).abs() < 1e-12);
        assert!((q.precision.1 - 0.25).abs() < 1e-12);
    }
}

//! Figures 6 and 7 — sensitivity of TransER to the labelled-source size
//! and to its four parameters, on the paper's three representative pairs.

use transer_common::Result;
use transer_core::TransErConfig;
use transer_ml::stratified_fraction;
use transer_trace::json::{obj, Json};

use crate::tasks::{directed_tasks, nums, run_transer, EvalTask, QualityNumbers};
use crate::{Cell, Options};

/// The three tasks the sensitivity experiments run on (Section 5.2.3).
pub const SENSITIVITY_TASKS: [&str; 3] =
    ["DBLP-ACM -> DBLP-Scholar", "MB -> MSD", "KIL Bp-Dp -> IOS Bp-Dp"];

/// One sensitivity series: quality per swept value on one task.
#[derive(Debug, Clone)]
pub struct SensitivitySeries {
    /// Task name.
    pub task: String,
    /// Parameter values swept.
    pub values: Vec<f64>,
    /// Quality at each value.
    pub quality: Vec<QualityNumbers>,
}

impl SensitivitySeries {
    /// Field names as keys.
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("task", Json::Str(self.task.clone())),
            ("values", nums(&self.values)),
            ("quality", Json::Arr(self.quality.iter().map(QualityNumbers::to_json).collect())),
        ])
    }
}

fn sensitivity_tasks(opts: &Options) -> Result<Vec<EvalTask>> {
    Ok(directed_tasks(opts.scale, opts.seed)?
        .into_iter()
        .filter(|t| SENSITIVITY_TASKS.contains(&t.name.as_str()))
        .collect())
}

/// Figure 6: vary the labelled fraction of the source domain over
/// 25%, 50%, 75%, 100% (stratified so the class mix is preserved).
///
/// # Errors
/// Propagates workload generation and TransER errors.
pub fn fig6(opts: &Options) -> Result<Vec<SensitivitySeries>> {
    let classifiers = opts.classifier_set();
    let fractions = [0.25, 0.5, 0.75, 1.0];
    let mut out = Vec::new();
    for task in sensitivity_tasks(opts)? {
        let mut quality = Vec::new();
        for &fraction in &fractions {
            let keep = stratified_fraction(&task.source.y, fraction, opts.seed);
            let reduced = EvalTask {
                name: task.name.clone(),
                source: task.source.select(&keep),
                target: task.target.clone(),
                source_texts: keep.iter().map(|&i| task.source_texts[i].clone()).collect(),
                target_texts: task.target_texts.clone(),
            };
            let (q, _, _) =
                run_transer(TransErConfig::default(), &reduced, &classifiers, opts.seed)?;
            quality.push(q);
        }
        out.push(SensitivitySeries {
            task: task.name.clone(),
            values: fractions.to_vec(),
            quality,
        });
    }
    Ok(out)
}

/// Which parameter a Figure 7 sweep varies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweptParameter {
    /// Instance confidence threshold `t_c`.
    Tc,
    /// Structural similarity threshold `t_l`.
    Tl,
    /// Pseudo-label confidence threshold `t_p`.
    Tp,
    /// Neighbourhood size `k`.
    K,
}

impl SweptParameter {
    /// All four panels of Fig. 7.
    pub const ALL: [SweptParameter; 4] =
        [SweptParameter::Tc, SweptParameter::Tl, SweptParameter::Tp, SweptParameter::K];

    /// The variant name (`"Tc"`, `"Tl"`, `"Tp"` or `"K"`) as a string.
    pub fn to_json(&self) -> Json {
        Json::Str(format!("{self:?}"))
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            SweptParameter::Tc => "t_c",
            SweptParameter::Tl => "t_l",
            SweptParameter::Tp => "t_p",
            SweptParameter::K => "k",
        }
    }

    /// The paper's sweep range for this parameter.
    pub fn values(self) -> Vec<f64> {
        match self {
            SweptParameter::Tc | SweptParameter::Tl | SweptParameter::Tp => {
                vec![0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
            }
            SweptParameter::K => vec![3.0, 5.0, 7.0, 9.0, 11.0],
        }
    }

    /// A configuration with this parameter set to `v`, others at default.
    pub fn config(self, v: f64) -> TransErConfig {
        let mut c = TransErConfig::default();
        match self {
            SweptParameter::Tc => c.t_c = v,
            SweptParameter::Tl => c.t_l = v,
            SweptParameter::Tp => c.t_p = v,
            SweptParameter::K => c.k = v as usize,
        }
        c
    }
}

/// One Figure 7 panel: a parameter swept across the three tasks.
#[derive(Debug, Clone)]
pub struct Fig7Panel {
    /// Which parameter this panel varies.
    pub parameter: SweptParameter,
    /// One series per task.
    pub series: Vec<SensitivitySeries>,
}

impl Fig7Panel {
    /// Field names as keys.
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("parameter", self.parameter.to_json()),
            ("series", Json::Arr(self.series.iter().map(SensitivitySeries::to_json).collect())),
        ])
    }
}

/// Figure 7: sweep each parameter with the others at their defaults.
///
/// # Errors
/// Propagates workload generation and TransER errors.
pub fn fig7(opts: &Options) -> Result<Vec<Fig7Panel>> {
    let classifiers = opts.classifier_set();
    let tasks = sensitivity_tasks(opts)?;
    let mut panels = Vec::new();
    for parameter in SweptParameter::ALL {
        let values = parameter.values();
        let mut series = Vec::new();
        for task in &tasks {
            let mut quality = Vec::new();
            for &v in &values {
                let (q, _, _) = run_transer(parameter.config(v), task, &classifiers, opts.seed)?;
                quality.push(q);
            }
            series.push(SensitivitySeries {
                task: task.name.clone(),
                values: values.clone(),
                quality,
            });
        }
        panels.push(Fig7Panel { parameter, series });
    }
    Ok(panels)
}

/// Render a set of series as a table: one row per swept value.
pub fn render_series(title: &str, series: &[SensitivitySeries]) -> String {
    let mut rows = Vec::new();
    let mut header = vec![Cell::from(title)];
    for s in series {
        header.push(Cell::from(format!("{} F*", s.task)));
        header.push(Cell::from(format!("{} F1", s.task)));
    }
    rows.push(header);
    if let Some(first) = series.first() {
        for (i, &v) in first.values.iter().enumerate() {
            let mut line = vec![Cell::Num(v)];
            for s in series {
                line.push(Cell::Pct(s.quality[i].f_star.0, s.quality[i].f_star.1));
                line.push(Cell::Pct(s.quality[i].f1.0, s.quality[i].f1.1));
            }
            rows.push(line);
        }
    }
    crate::format_table(&rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opts() -> Options {
        Options { scale: 0.02, quick: true, ..Options::default() }
    }

    #[test]
    fn fig6_produces_three_series() {
        let series = fig6(&quick_opts()).unwrap();
        assert_eq!(series.len(), 3);
        for s in &series {
            assert_eq!(s.values, vec![0.25, 0.5, 0.75, 1.0]);
            assert_eq!(s.quality.len(), 4);
        }
    }

    #[test]
    fn swept_parameter_configs() {
        let c = SweptParameter::Tc.config(0.6);
        assert_eq!(c.t_c, 0.6);
        assert_eq!(c.t_l, TransErConfig::default().t_l);
        let c = SweptParameter::K.config(9.0);
        assert_eq!(c.k, 9);
        assert_eq!(SweptParameter::K.values().len(), 5);
        assert_eq!(SweptParameter::Tp.values().len(), 6);
    }

    #[test]
    fn render_series_shape() {
        let s = SensitivitySeries {
            task: "A -> B".into(),
            values: vec![0.5, 1.0],
            quality: vec![
                QualityNumbers {
                    precision: (0.9, 0.0),
                    recall: (0.8, 0.0),
                    f_star: (0.7, 0.0),
                    f1: (0.8, 0.0),
                };
                2
            ],
        };
        let text = render_series("t_c", &[s]);
        assert!(text.contains("A -> B F*"));
        assert_eq!(text.lines().count(), 4);
    }
}

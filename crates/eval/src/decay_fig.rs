//! Figure 5 — behaviour of the exponential decay functions the structural
//! similarity could use; the paper picks `e^{-5d}`.

use transer_core::decay::{exp_decay_1, exp_decay_10, exp_decay_5};
use transer_trace::json::{obj, Json};

use crate::tasks::nums;

/// The three decay curves sampled over `[0, 1]`.
#[derive(Debug, Clone)]
pub struct DecayCurves {
    /// Sample positions.
    pub x: Vec<f64>,
    /// `e^{-x}`.
    pub rate1: Vec<f64>,
    /// `e^{-5x}` (the paper's choice).
    pub rate5: Vec<f64>,
    /// `e^{-10x}`.
    pub rate10: Vec<f64>,
}

impl DecayCurves {
    /// Field names as keys, each curve an array.
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("x", nums(&self.x)),
            ("rate1", nums(&self.rate1)),
            ("rate5", nums(&self.rate5)),
            ("rate10", nums(&self.rate10)),
        ])
    }
}

/// Sample the curves at `steps + 1` points.
pub fn fig5(steps: usize) -> DecayCurves {
    let x: Vec<f64> = (0..=steps).map(|i| i as f64 / steps as f64).collect();
    DecayCurves {
        rate1: x.iter().map(|&d| exp_decay_1(d)).collect(),
        rate5: x.iter().map(|&d| exp_decay_5(d)).collect(),
        rate10: x.iter().map(|&d| exp_decay_10(d)).collect(),
        x,
    }
}

/// Render as a small table.
pub fn render(c: &DecayCurves) -> String {
    let mut rows = vec![vec![
        crate::Cell::from("x"),
        crate::Cell::from("e^-x"),
        crate::Cell::from("e^-5x"),
        crate::Cell::from("e^-10x"),
    ]];
    for i in 0..c.x.len() {
        rows.push(vec![
            crate::Cell::Num(c.x[i]),
            crate::Cell::Num(c.rate1[i]),
            crate::Cell::Num(c.rate5[i]),
            crate::Cell::Num(c.rate10[i]),
        ]);
    }
    crate::format_table(&rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curves_have_expected_shape() {
        let c = fig5(20);
        assert_eq!(c.x.len(), 21);
        assert_eq!(c.rate5[0], 1.0);
        // Strictly decreasing, ordered by steepness.
        for i in 1..c.x.len() {
            assert!(c.rate5[i] < c.rate5[i - 1]);
            assert!(c.rate1[i] > c.rate5[i]);
            assert!(c.rate5[i] > c.rate10[i]);
        }
    }

    #[test]
    fn render_contains_header() {
        let text = render(&fig5(4));
        assert!(text.contains("e^-5x"));
        assert_eq!(text.lines().count(), 7);
    }
}

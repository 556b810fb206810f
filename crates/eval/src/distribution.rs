//! Figure 2 — the skewed, bi-modal distributions of mean record-pair
//! similarity, shown in the paper for Musicbrainz and DBLP-ACM.

use transer_datagen::Scenario;
use transer_metrics::Histogram;
use transer_trace::json::{obj, Json};

use crate::tasks::nums;
use crate::Options;

/// One distribution: scenario name and the per-bin relative frequencies.
#[derive(Debug, Clone)]
pub struct DistributionSeries {
    /// Scenario name.
    pub name: String,
    /// Bin centres on the mean-similarity axis.
    pub bin_centers: Vec<f64>,
    /// Relative frequency per bin.
    pub frequencies: Vec<f64>,
    /// Indices of local maxima — two entries confirm bi-modality.
    pub peaks: Vec<usize>,
}

impl DistributionSeries {
    /// Field names as keys.
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("name", Json::Str(self.name.clone())),
            ("bin_centers", nums(&self.bin_centers)),
            ("frequencies", nums(&self.frequencies)),
            ("peaks", Json::Arr(self.peaks.iter().map(|&p| Json::Num(p as f64)).collect())),
        ])
    }
}

/// Number of histogram bins used by the figure.
pub const BINS: usize = 20;

/// Compute the Fig. 2 distributions (Musicbrainz and DBLP-ACM, as in the
/// paper).
///
/// # Errors
/// Propagates workload generation errors.
pub fn fig2(opts: &Options) -> transer_common::Result<Vec<DistributionSeries>> {
    let mut out = Vec::new();
    for scenario in [Scenario::Musicbrainz, Scenario::DblpAcm] {
        let ds = scenario.generate(opts.scale, opts.seed)?;
        let hist = Histogram::from_values(BINS, ds.x.row_means());
        out.push(DistributionSeries {
            name: scenario.name().to_string(),
            bin_centers: (0..BINS).map(|i| hist.bin_center(i)).collect(),
            frequencies: hist.frequencies(),
            peaks: hist.peaks(),
        });
    }
    Ok(out)
}

/// ASCII rendering of one series.
pub fn render(series: &DistributionSeries) -> String {
    let mut out = format!("{} (mean pair similarity)\n", series.name);
    let max = series.frequencies.iter().cloned().fold(0.0, f64::max).max(1e-9);
    for (i, f) in series.frequencies.iter().enumerate() {
        let bar = "#".repeat((f / max * 50.0).round() as usize);
        out.push_str(&format!("{:>5.2} |{bar}\n", series.bin_centers[i]));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distributions_are_skewed_and_bimodal() {
        let opts = Options { scale: 0.1, ..Options::default() };
        let series = fig2(&opts).unwrap();
        assert_eq!(series.len(), 2);
        for s in &series {
            let sum: f64 = s.frequencies.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "{}: {sum}", s.name);
            // Skew: substantial mass in the lower half (non-matches),
            // strongest for Musicbrainz as in the paper's figure.
            let low: f64 = s.frequencies[..BINS / 2].iter().sum();
            let threshold = if s.name == "MB" { 0.5 } else { 0.35 };
            assert!(low > threshold, "{} low mass {low}", s.name);
            // Bi-modality: at least two local maxima.
            assert!(s.peaks.len() >= 2, "{} peaks {:?}", s.name, s.peaks);
        }
    }

    #[test]
    fn render_produces_bars() {
        let s = DistributionSeries {
            name: "X".into(),
            bin_centers: vec![0.25, 0.75],
            frequencies: vec![0.8, 0.2],
            peaks: vec![0],
        };
        let art = render(&s);
        assert!(art.contains('#'));
        assert!(art.starts_with("X"));
    }
}

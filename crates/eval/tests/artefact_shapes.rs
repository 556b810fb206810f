//! The JSON shape of every eval artefact type. Each test renders a fixed
//! value with `to_json`, writes and re-reads it, and compares it with the
//! text the eval bins' previous writer printed for the same value
//! (captured at a9a606f, before the bins moved onto `transer_trace::json`).
//! Key order and integral floats (`2.0` then, `2` now) differ;
//! `json::parse` reads both renderings as the same value.

use transer_eval::ablation::Table4Row;
use transer_eval::characteristics::{CommonStats, DatasetStats, Table1Row};
use transer_eval::controlled::ConflictPoint;
use transer_eval::decay_fig::DecayCurves;
use transer_eval::distribution::DistributionSeries;
use transer_eval::quality::{Table2, Table2Row};
use transer_eval::runtime::Table3Row;
use transer_eval::sensitivity::{Fig7Panel, SensitivitySeries, SweptParameter};
use transer_eval::{MethodOutcome, QualityNumbers};
use transer_trace::json::{self, Json};

fn assert_shape(doc: &Json, parent_text: &str) {
    let written = doc.to_pretty();
    assert_eq!(json::parse(&written).unwrap(), json::parse(parent_text).unwrap(), "{written}");
}

/// Integral, long, tiny and NaN (written as `null`) floats.
fn quality() -> QualityNumbers {
    let (precision, recall) = ((0.9278, 0.0513), (1.0, 0.0));
    QualityNumbers { precision, recall, f_star: (2.0 / 3.0, 1e-7), f1: (0.1 + 0.2, f64::NAN) }
}

fn dataset(name: &str, total: usize) -> DatasetStats {
    let name = name.to_string();
    let (match_frac, non_match_frac, ambiguous_frac) = (0.25, 0.7, 0.05);
    DatasetStats { name, num_features: 4, total, match_frac, non_match_frac, ambiguous_frac }
}

fn common() -> CommonStats {
    CommonStats { total: 12, same_class_frac: 0.75, diff_class_frac: 0.0, ambiguous_frac: 0.25 }
}

fn series(values: Vec<f64>, quality: Vec<QualityNumbers>) -> SensitivitySeries {
    SensitivitySeries { task: "MB -> MSD".to_string(), values, quality }
}

#[test]
fn quality_numbers_keeps_its_shape() {
    let parent_text = r#"{
  "precision": [
    0.9278,
    0.0513
  ],
  "recall": [
    1.0,
    0.0
  ],
  "f_star": [
    0.6666666666666666,
    0.0000001
  ],
  "f1": [
    0.30000000000000004,
    null
  ]
}"#;
    assert_shape(&quality().to_json(), parent_text);
}

#[test]
fn method_outcome_keeps_its_shape() {
    let outcomes = [
        MethodOutcome::Ok { quality: quality(), secs: 2.0 },
        MethodOutcome::MemoryExceeded,
        MethodOutcome::TimeExceeded,
        MethodOutcome::Failed("degenerate \"data\"\n".to_string()),
    ];
    let doc = Json::Arr(outcomes.iter().map(MethodOutcome::to_json).collect());
    let parent_text = r#"[
  {
    "Ok": {
      "quality": {
        "precision": [
          0.9278,
          0.0513
        ],
        "recall": [
          1.0,
          0.0
        ],
        "f_star": [
          0.6666666666666666,
          0.0000001
        ],
        "f1": [
          0.30000000000000004,
          null
        ]
      },
      "secs": 2.0
    }
  },
  "MemoryExceeded",
  "TimeExceeded",
  {
    "Failed": "degenerate \"data\"\n"
  }
]"#;
    assert_shape(&doc, parent_text);
}

#[test]
fn dataset_stats_keeps_its_shape() {
    let parent_text = r#"{
  "name": "DBLP-ACM",
  "num_features": 4,
  "total": 633,
  "match_frac": 0.25,
  "non_match_frac": 0.7,
  "ambiguous_frac": 0.05
}"#;
    assert_shape(&dataset("DBLP-ACM", 633).to_json(), parent_text);
}

#[test]
fn common_stats_keeps_its_shape() {
    let parent_text = r#"{
  "total": 12,
  "same_class_frac": 0.75,
  "diff_class_frac": 0.0,
  "ambiguous_frac": 0.25
}"#;
    assert_shape(&common().to_json(), parent_text);
}

#[test]
fn table1_row_keeps_its_shape() {
    let row =
        Table1Row { a: dataset("DBLP-ACM", 633), b: dataset("DBLP-Scholar", 0), common: common() };
    let parent_text = r#"{
  "a": {
    "name": "DBLP-ACM",
    "num_features": 4,
    "total": 633,
    "match_frac": 0.25,
    "non_match_frac": 0.7,
    "ambiguous_frac": 0.05
  },
  "b": {
    "name": "DBLP-Scholar",
    "num_features": 4,
    "total": 0,
    "match_frac": 0.25,
    "non_match_frac": 0.7,
    "ambiguous_frac": 0.05
  },
  "common": {
    "total": 12,
    "same_class_frac": 0.75,
    "diff_class_frac": 0.0,
    "ambiguous_frac": 0.25
  }
}"#;
    assert_shape(&row.to_json(), parent_text);
}

#[test]
fn conflict_point_keeps_its_shape() {
    let point = ConflictPoint {
        conflict_mass: 0.3,
        full_f_star: 0.95,
        without_sel_f_star: 0.6,
        without_gen_tcl_f_star: 0.9,
        naive_f_star: 0.0,
    };
    let parent_text = r#"{
  "conflict_mass": 0.3,
  "full_f_star": 0.95,
  "without_sel_f_star": 0.6,
  "without_gen_tcl_f_star": 0.9,
  "naive_f_star": 0.0
}"#;
    assert_shape(&point.to_json(), parent_text);
}

#[test]
fn decay_curves_keeps_its_shape() {
    let rate = |r: f64| vec![(-r).exp()];
    let curves =
        DecayCurves { x: vec![1.0], rate1: rate(1.0), rate5: rate(5.0), rate10: rate(10.0) };
    let parent_text = r#"{
  "x": [
    1.0
  ],
  "rate1": [
    0.36787944117144233
  ],
  "rate5": [
    0.006737946999085467
  ],
  "rate10": [
    0.000045399929762484854
  ]
}"#;
    assert_shape(&curves.to_json(), parent_text);
}

#[test]
fn distribution_series_keeps_its_shape() {
    let (bin_centers, frequencies, peaks) = (vec![0.975], vec![0.4], vec![19]);
    let series = DistributionSeries { name: "MB".to_string(), bin_centers, frequencies, peaks };
    let parent_text = r#"{
  "name": "MB",
  "bin_centers": [
    0.975
  ],
  "frequencies": [
    0.4
  ],
  "peaks": [
    19
  ]
}"#;
    assert_shape(&series.to_json(), parent_text);
}

#[test]
fn table2_row_keeps_its_shape() {
    let parent_text = r#"{
  "task": "MB -> MSD",
  "methods": [
    [
      "TCA",
      "MemoryExceeded"
    ]
  ]
}"#;
    let methods = vec![("TCA".to_string(), MethodOutcome::MemoryExceeded)];
    assert_shape(&Table2Row { task: "MB -> MSD".to_string(), methods }.to_json(), parent_text);
}

#[test]
fn table2_keeps_its_shape() {
    let table = Table2 { rows: vec![], averages: vec![("TransER".to_string(), quality())] };
    let parent_text = r#"{
  "rows": [],
  "averages": [
    [
      "TransER",
      {
        "precision": [
          0.9278,
          0.0513
        ],
        "recall": [
          1.0,
          0.0
        ],
        "f_star": [
          0.6666666666666666,
          0.0000001
        ],
        "f1": [
          0.30000000000000004,
          null
        ]
      }
    ]
  ]
}"#;
    assert_shape(&table.to_json(), parent_text);
}

#[test]
fn table3_row_keeps_its_shape() {
    let runtimes = vec![("TransER".to_string(), Some(1.5)), ("TCA".to_string(), None)];
    let task = "DBLP-ACM -> DBLP-Scholar".to_string();
    let row = Table3Row { task, source_rows: 1200, target_rows: 800, runtimes };
    let parent_text = r#"{
  "task": "DBLP-ACM -> DBLP-Scholar",
  "source_rows": 1200,
  "target_rows": 800,
  "runtimes": [
    [
      "TransER",
      1.5
    ],
    [
      "TCA",
      null
    ]
  ]
}"#;
    assert_shape(&row.to_json(), parent_text);
}

#[test]
fn table4_row_keeps_its_shape() {
    let variants = vec![("without SEL".to_string(), quality())];
    let row = Table4Row { task: "KIL Bp-Dp -> IOS Bp-Dp".to_string(), variants };
    let parent_text = r#"{
  "task": "KIL Bp-Dp -> IOS Bp-Dp",
  "variants": [
    [
      "without SEL",
      {
        "precision": [
          0.9278,
          0.0513
        ],
        "recall": [
          1.0,
          0.0
        ],
        "f_star": [
          0.6666666666666666,
          0.0000001
        ],
        "f1": [
          0.30000000000000004,
          null
        ]
      }
    ]
  ]
}"#;
    assert_shape(&row.to_json(), parent_text);
}

#[test]
fn sensitivity_series_keeps_its_shape() {
    let parent_text = r#"{
  "task": "MB -> MSD",
  "values": [
    0.5
  ],
  "quality": [
    {
      "precision": [
        0.9278,
        0.0513
      ],
      "recall": [
        1.0,
        0.0
      ],
      "f_star": [
        0.6666666666666666,
        0.0000001
      ],
      "f1": [
        0.30000000000000004,
        null
      ]
    }
  ]
}"#;
    assert_shape(&series(vec![0.5], vec![quality()]).to_json(), parent_text);
}

#[test]
fn swept_parameter_keeps_its_shape() {
    let doc = Json::Arr(SweptParameter::ALL.iter().map(SweptParameter::to_json).collect());
    let parent_text = r#"[
  "Tc",
  "Tl",
  "Tp",
  "K"
]"#;
    assert_shape(&doc, parent_text);
}

#[test]
fn fig7_panel_keeps_its_shape() {
    let panel = Fig7Panel { parameter: SweptParameter::K, series: vec![series(vec![], vec![])] };
    let parent_text = r#"{
  "parameter": "K",
  "series": [
    {
      "task": "MB -> MSD",
      "values": [],
      "quality": []
    }
  ]
}"#;
    assert_shape(&panel.to_json(), parent_text);
}

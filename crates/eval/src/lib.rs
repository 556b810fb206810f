//! Experiment harness regenerating every table and figure of the TransER
//! paper (EDBT 2022) on the synthetic workload substrate.
//!
//! One module — and one binary under `src/bin/` — per experiment:
//!
//! | Paper artefact | Module | Binary |
//! |---|---|---|
//! | Table 1 (data set characteristics) | [`characteristics`] | `table1` |
//! | Figure 2 (bi-modal similarity distributions) | [`distribution`] | `fig2` |
//! | Figure 5 (exponential decay behaviour) | [`decay_fig`] | `fig5` |
//! | Table 2 (linkage quality vs baselines) | [`quality`] | `table2` |
//! | Table 3 (runtimes) | [`runtime`] | `table3` |
//! | Figure 6 (labelled-source-size sensitivity) | [`sensitivity`] | `fig6` |
//! | Figure 7 (parameter sensitivity) | [`sensitivity`] | `fig7` |
//! | Table 4 (ablation) | [`ablation`] | `table4` |
//!
//! Every experiment binary accepts `--scale <f>` (entity-count multiplier relative to
//! the paper's Table 1 sizes, default 0.1), `--seed <n>` and `--quick`
//! (restrict the classifier set to logistic regression); an unknown flag or
//! a bad value exits 2. Results print as aligned text tables; `--json
//! <path>` (alias `--out`) also writes the raw numbers, each result type
//! building its [`transer_trace::json`] value with `to_json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod characteristics;
pub mod controlled;
pub mod decay_fig;
pub mod distribution;
pub mod quality;
pub mod runtime;
pub mod sensitivity;

mod options;
mod report;
mod tasks;
mod tracefile;

pub use options::Options;
pub use report::{format_table, Cell};
pub use tasks::{
    directed_tasks, run_baseline, run_transer, EvalTask, MethodOutcome, QualityNumbers,
};
pub use tracefile::write_trace_report;

//! The Table 4 −SEL collapse, demonstrated at the paper's conflict
//! intensities with the controllable generator (see EXPERIMENTS.md).
use transer_eval::{controlled, Options};
use transer_trace::json::Json;

fn main() {
    // Appends one provenance record to results/ledger.jsonl on exit.
    let _ledger = transer_trace::RunLedger::new("ablation_controlled");
    let opts = Options::from_env();
    match controlled::conflict_sweep(&opts) {
        Ok(points) => {
            println!(
                "Controlled ablation — SEL advantage vs cross-domain conflict rate (scale {})\n",
                opts.scale
            );
            print!("{}", controlled::render(&points));
            opts.maybe_write_json(&Json::Arr(points.iter().map(|r| r.to_json()).collect()));
            if transer_trace::enabled() {
                // The sweep is vector-based; one tiny record probe gives
                // the trace its blocking/compare/ml coverage.
                if let Err(e) = controlled::traced_record_probe(opts.seed) {
                    eprintln!("warning: traced record probe failed: {e}");
                }
                transer_eval::write_trace_report("controlled");
            }
        }
        Err(e) => {
            eprintln!("ablation_controlled failed: {e}");
            std::process::exit(1);
        }
    }
}

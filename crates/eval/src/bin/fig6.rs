//! Regenerate Figure 6 (sensitivity to labelled source size).
use transer_eval::{sensitivity, Options};
use transer_trace::json::Json;

fn main() {
    // Appends one provenance record to results/ledger.jsonl on exit.
    let _ledger = transer_trace::RunLedger::new("fig6");
    let opts = Options::from_env();
    match sensitivity::fig6(&opts) {
        Ok(series) => {
            println!("Figure 6 — sensitivity to labelled source fraction (scale {})\n", opts.scale);
            print!("{}", sensitivity::render_series("fraction", &series));
            opts.maybe_write_json(&Json::Arr(series.iter().map(|r| r.to_json()).collect()));
        }
        Err(e) => {
            eprintln!("fig6 failed: {e}");
            std::process::exit(1);
        }
    }
}

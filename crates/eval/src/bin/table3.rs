//! Regenerate Table 3 (runtimes).
use transer_eval::{runtime, Options};
use transer_trace::json::Json;

fn main() {
    // Appends one provenance record to results/ledger.jsonl on exit.
    let _ledger = transer_trace::RunLedger::new("table3");
    let opts = Options::from_env();
    match runtime::table3(&opts) {
        Ok(rows) => {
            println!(
                "Table 3 — feature matrix sizes and runtimes in seconds (scale {})\n",
                opts.scale
            );
            print!("{}", runtime::render(&rows));
            opts.maybe_write_json(&Json::Arr(rows.iter().map(|r| r.to_json()).collect()));
        }
        Err(e) => {
            eprintln!("table3 failed: {e}");
            std::process::exit(1);
        }
    }
}

//! Regenerate Table 1 (data set characteristics).
use transer_eval::{characteristics, Options};
use transer_trace::json::Json;

fn main() {
    // Appends one provenance record to results/ledger.jsonl on exit.
    let _ledger = transer_trace::RunLedger::new("table1");
    let opts = Options::from_env();
    match characteristics::table1(&opts) {
        Ok(rows) => {
            println!(
                "Table 1 — data set characteristics (scale {}, seed {})\n",
                opts.scale, opts.seed
            );
            print!("{}", characteristics::render(&rows));
            opts.maybe_write_json(&Json::Arr(rows.iter().map(|r| r.to_json()).collect()));
        }
        Err(e) => {
            eprintln!("table1 failed: {e}");
            std::process::exit(1);
        }
    }
}

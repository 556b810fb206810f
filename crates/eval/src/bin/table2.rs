//! Regenerate Table 2 (linkage quality of TransER vs the baselines).
use transer_eval::{quality, Options};

fn main() {
    // Appends one provenance record to results/ledger.jsonl on exit.
    let _ledger = transer_trace::RunLedger::new("table2");
    let opts = Options::from_env();
    eprintln!(
        "Running Table 2 at scale {} with {} classifier(s); this is the heavyweight experiment...",
        opts.scale,
        opts.classifier_set().len()
    );
    match quality::table2(&opts) {
        Ok(t) => {
            println!("Table 2 — linkage quality (scale {}, seed {})\n", opts.scale, opts.seed);
            print!("{}", quality::render(&t));
            opts.maybe_write_json(&t.to_json());
        }
        Err(e) => {
            eprintln!("table2 failed: {e}");
            std::process::exit(1);
        }
    }
}

//! Regenerate Table 4 (ablation analysis).
use transer_eval::{ablation, Options};
use transer_trace::json::Json;

fn main() {
    let opts = Options::from_env();
    match ablation::table4(&opts) {
        Ok(rows) => {
            println!("Table 4 — ablation analysis (scale {}, seed {})\n", opts.scale, opts.seed);
            print!("{}", ablation::render(&rows));
            opts.maybe_write_json(&Json::Arr(rows.iter().map(|r| r.to_json()).collect()));
        }
        Err(e) => {
            eprintln!("table4 failed: {e}");
            std::process::exit(1);
        }
    }
}

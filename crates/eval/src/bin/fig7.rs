//! Regenerate Figure 7 (parameter sensitivity).
use transer_eval::{sensitivity, Options};
use transer_trace::json::Json;

fn main() {
    let opts = Options::from_env();
    match sensitivity::fig7(&opts) {
        Ok(panels) => {
            println!("Figure 7 — parameter sensitivity (scale {})\n", opts.scale);
            for p in &panels {
                println!("{}", sensitivity::render_series(p.parameter.name(), &p.series));
            }
            opts.maybe_write_json(&Json::Arr(panels.iter().map(|r| r.to_json()).collect()));
        }
        Err(e) => {
            eprintln!("fig7 failed: {e}");
            std::process::exit(1);
        }
    }
}

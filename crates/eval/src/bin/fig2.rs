//! Regenerate Figure 2 (bi-modal similarity distributions).
use transer_eval::{distribution, Options};
use transer_trace::json::Json;

fn main() {
    let opts = Options::from_env();
    match distribution::fig2(&opts) {
        Ok(series) => {
            println!("Figure 2 — mean pair-similarity distributions (scale {})\n", opts.scale);
            for s in &series {
                println!("{}", distribution::render(s));
                println!("peaks at bins {:?}\n", s.peaks);
            }
            opts.maybe_write_json(&Json::Arr(series.iter().map(|r| r.to_json()).collect()));
        }
        Err(e) => {
            eprintln!("fig2 failed: {e}");
            std::process::exit(1);
        }
    }
}

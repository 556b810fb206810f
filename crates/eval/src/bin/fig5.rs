//! Regenerate Figure 5 (exponential decay behaviour).
use transer_eval::{decay_fig, Options};

fn main() {
    let opts = Options::from_env();
    let curves = decay_fig::fig5(20);
    println!("Figure 5 — exponential decay functions\n");
    print!("{}", decay_fig::render(&curves));
    opts.maybe_write_json(&curves.to_json());
}

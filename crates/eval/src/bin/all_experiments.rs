//! Run every table and figure in sequence (the full reproduction).
use transer_eval::{
    ablation, characteristics, controlled, decay_fig, distribution, quality, runtime, sensitivity,
    Options,
};

fn main() {
    let opts = Options::from_env();
    let run = |name: &str, body: &mut dyn FnMut() -> Result<String, transer_common::Error>| {
        eprintln!(">>> {name}");
        match body() {
            Ok(text) => println!("{name}\n\n{text}"),
            Err(e) => println!("{name}: FAILED ({e})\n"),
        }
    };
    run("Table 1", &mut || characteristics::table1(&opts).map(|r| characteristics::render(&r)));
    run("Figure 2", &mut || {
        distribution::fig2(&opts)
            .map(|s| s.iter().map(distribution::render).collect::<Vec<_>>().join("\n"))
    });
    run("Figure 5", &mut || Ok(decay_fig::render(&decay_fig::fig5(20))));
    run("Table 2", &mut || quality::table2(&opts).map(|t| quality::render(&t)));
    run("Table 3", &mut || runtime::table3(&opts).map(|r| runtime::render(&r)));
    run("Table 4", &mut || ablation::table4(&opts).map(|r| ablation::render(&r)));
    run("Figure 6", &mut || {
        sensitivity::fig6(&opts).map(|s| sensitivity::render_series("fraction", &s))
    });
    run("Figure 7", &mut || {
        sensitivity::fig7(&opts).map(|p| {
            p.iter()
                .map(|panel| sensitivity::render_series(panel.parameter.name(), &panel.series))
                .collect::<Vec<_>>()
                .join("\n")
        })
    });
    run("Controlled conflict experiment", &mut || {
        controlled::conflict_sweep(&opts).map(|p| controlled::render(&p))
    });
}

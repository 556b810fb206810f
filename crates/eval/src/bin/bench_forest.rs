//! Benchmark forest training with the presorted exact-greedy engine, per
//! dataset shape and worker count, recording `results/BENCH_forest.json`. Accepts the shared eval flags
//! plus `--threads <n>` (default: the global pool, i.e. `TRANSER_THREADS`
//! or the machine's available parallelism).

use transer_eval::{forest_bench, Options};

fn main() {
    // Appends one provenance record to results/ledger.jsonl on exit.
    let _ledger = transer_trace::RunLedger::new("bench_forest");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Options::parse(args.iter().cloned());
    if opts.json.is_none() {
        opts.json = Some("results/BENCH_forest.json".to_string());
    }
    let threads = args.windows(2).find(|w| w[0] == "--threads").and_then(|w| w[1].parse().ok());
    match forest_bench::forest_benchmark(&opts, threads, &[8000, 32000]) {
        Ok(report) => {
            println!(
                "Forest benchmark — presorted engine ({} trees, depth {}, {} core(s) available)",
                report.n_trees, report.max_depth, report.available_parallelism
            );
            for d in &report.datasets {
                println!("\n{}: {} rows × {} features\n", d.name, d.rows, d.features);
                print!("{}", forest_bench::render(d));
            }
            opts.maybe_write_json(&report);
        }
        Err(e) => {
            eprintln!("bench_forest failed: {e}");
            std::process::exit(1);
        }
    }
}

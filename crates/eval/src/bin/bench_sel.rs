//! Benchmark the SEL phase: per-row reference path vs the duplicate-aware
//! k-NN engine, per dataset and worker count. Records
//! `results/BENCH_sel.json`. Accepts the shared eval flags plus
//! `--threads <n>` (default: the global pool, i.e. `TRANSER_THREADS` or
//! the machine's available parallelism) and `--smoke` (tier-1 mode: the
//! k-d tree and the duplicate-aware engine asserted bitwise-identical to
//! brute force on one small deterministic matrix, on a copy with NaN and
//! ±Inf cells and on a tie-heavy 4-column matrix, one timed k-d tree cell
//! as the artefact).

use transer_eval::{sel_bench, Options};

fn main() {
    // Appends one provenance record to results/ledger.jsonl on exit.
    let _ledger = transer_trace::RunLedger::new("bench_sel");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Options::parse(args.iter().cloned());
    let smoke = args.iter().any(|a| a == "--smoke");
    if opts.json.is_none() {
        opts.json = Some(
            if smoke { "target/BENCH_sel_smoke.json" } else { "results/BENCH_sel.json" }
                .to_string(),
        );
    }

    if smoke {
        // Panics (failing the tier-1 gate) if the k-d tree or the engine
        // disagrees with the brute-force reference.
        let cell = sel_bench::smoke(opts.seed);
        println!(
            "SEL smoke: k-d tree and dedup engine bitwise-identical to brute force \
             on {} rows × {} dims, finite and with NaN/±Inf cells, and on a tie-heavy \
             matrix; k-d tree build \
             {:.6} s, {:.0} ns per k={} query",
            cell.rows, cell.dim, cell.build_secs, cell.ns_per_query, cell.k
        );
        opts.maybe_write_json(&cell);
        return;
    }

    let threads = args.windows(2).find(|w| w[0] == "--threads").and_then(|w| w[1].parse().ok());
    match sel_bench::sel_benchmark(&opts, threads) {
        Ok(report) => {
            println!(
                "SEL benchmark — per-row path vs duplicate-aware engine (scale {}, k {}, {} core(s) available)",
                report.scale, report.k, report.available_parallelism
            );
            for d in &report.datasets {
                println!(
                    "\n{}: {} source rows ({} unique, dedup {:.2}×), {} target rows ({} unique)\n",
                    d.name,
                    d.source_rows,
                    d.source_unique_rows,
                    d.source_dedup_ratio,
                    d.target_rows,
                    d.target_unique_rows,
                );
                print!("{}", sel_bench::render(d));
            }
            opts.maybe_write_json(&report);
        }
        Err(e) => {
            eprintln!("bench_sel failed: {e}");
            std::process::exit(1);
        }
    }
}

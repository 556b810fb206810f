//! Shared fixtures for the benchmark binaries in `src/bin/`: the
//! end-to-end scale ladder (`bench_scale`), the serving benchmark
//! (`bench_serve`) and the grain-dispatch calibration (`bench_grain`).

#![forbid(unsafe_code)]

use transer_common::DomainPair;
use transer_datagen::ScenarioPair;

/// Scale of the bench fixtures: large enough to be representative, small
/// enough for repeated timing.
pub const BENCH_SCALE: f64 = 0.05;

/// Deterministic seed for all bench fixtures.
pub const BENCH_SEED: u64 = 42;

/// The bibliographic transfer task at bench scale.
pub fn biblio_pair() -> DomainPair {
    ScenarioPair::Bibliographic
        .domain_pair(BENCH_SCALE, BENCH_SEED)
        .expect("bench workload generation")
}

// Peak RSS moved into the run ledger (`transer_trace::ledger`), which
// every bench/eval bin already links; re-exported here for the bench
// bins' per-cell reporting (`bench_scale` runs every grid cell in a
// fresh child process precisely because `VmHWM` is per process).
pub use transer_trace::ledger::peak_rss_bytes;

#[cfg(test)]
mod tests {
    #[test]
    #[cfg(target_os = "linux")]
    fn peak_rss_reads_a_positive_high_water_mark() {
        let rss = super::peak_rss_bytes().expect("VmHWM on linux");
        assert!(rss > 1024 * 1024, "peak RSS {rss} implausibly small");
    }
}

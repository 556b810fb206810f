//! The host-speed probe.
//!
//! The benchmark runs on shared hosts whose single-thread speed moves by
//! tens of percent within minutes while the code stays the same: the same
//! `serve` script took 30 ms and then 41 ms per request a few minutes
//! apart. A background thread therefore times a fixed kernel every
//! [`PERIOD`] while the workload runs. The median kernel time over an
//! interval, divided by [`REFERENCE_MS`], is the host's slowness over that
//! interval; the end-to-end timings are divided by it, so they read as on
//! a host where the kernel takes [`REFERENCE_MS`].
//!
//! The kernel is frozen benchmark code: it calls nothing in the program,
//! allocates nothing while timed, and works in under 1 MiB, so a change to
//! the program cannot move it. It hashes byte trigrams into an
//! open-addressing table and sorts the hashes: the hashing, table probes
//! and sorting the three workloads spend their time on. `run.py` pins the
//! process to one CPU, so the probe shares the job's core and sees what
//! slows that core (a probe on the other core missed most of `transfer`'s
//! swings). It takes about 1.5 % of the core, a cost every run pays
//! alike.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::stats::{SplitMix64, Summary};

/// Time between two kernel runs.
pub const PERIOD: Duration = Duration::from_millis(100);
/// The kernel's typical time on the 2-core x86-64 host the bounds were set
/// on (its medians over runs there read 1.45 to 1.6 ms).
pub const REFERENCE_MS: f64 = 1.5;
/// Samples an interval's slowness rests on at least: the nearest ones
/// when fewer were taken inside it.
pub const MIN_SAMPLES: usize = 9;

/// Trigrams hashed per kernel run; also the length of the sorted buffer.
const WORDS: usize = 1 << 15;

/// The kernel's state, allocated once.
struct Kernel {
    text: Vec<u8>,
    table: Vec<u64>,
    hashes: Vec<u64>,
}

impl Kernel {
    fn new() -> Kernel {
        let mut rng = SplitMix64::new(0x005E_ED0F_4057);
        let alphabet = b"abcdefghijklmnopqrstuvwxyz      ";
        let text = (0..WORDS + 2).map(|_| alphabet[rng.below(alphabet.len())]).collect();
        Kernel { text, table: vec![0; 2 * WORDS], hashes: vec![0; WORDS] }
    }

    /// One run: the distinct trigrams of the text, which never changes.
    fn run(&mut self) -> usize {
        self.table.fill(0);
        let mask = self.table.len() - 1;
        let mut distinct = 0;
        for (i, w) in self.text.windows(3).enumerate() {
            let h = w.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
            }) | 1;
            let mut slot = h as usize & mask;
            while self.table[slot] != 0 && self.table[slot] != h {
                slot = (slot + 1) & mask;
            }
            if self.table[slot] == 0 {
                self.table[slot] = h;
                distinct += 1;
            }
            self.hashes[i] = h ^ i as u64;
        }
        self.hashes.sort_unstable();
        distinct + (self.hashes[0] & 1) as usize
    }
}

/// A kernel time and when it was taken (the middle of the run).
#[derive(Debug, Clone, Copy)]
struct Sample {
    at: Instant,
    ms: f64,
}

/// The running probe. [`Probe::stop`] stops the thread and reports a
/// panic in it; dropping the probe stops it too, on every other way out.
pub struct Probe {
    stop: Arc<AtomicBool>,
    samples: Arc<Mutex<Vec<Sample>>>,
    thread: Option<JoinHandle<()>>,
}

impl Probe {
    pub fn start() -> Probe {
        let stop = Arc::new(AtomicBool::new(false));
        let samples = Arc::new(Mutex::new(Vec::new()));
        let (flag, sink) = (Arc::clone(&stop), Arc::clone(&samples));
        let thread = std::thread::spawn(move || {
            let mut kernel = Kernel::new();
            while !flag.load(Ordering::Relaxed) {
                std::thread::sleep(PERIOD);
                let start = Instant::now();
                black_box(kernel.run());
                let took = start.elapsed();
                let sample = Sample { at: start + took / 2, ms: took.as_secs_f64() * 1e3 };
                sink.lock().expect("the probe thread alone writes samples").push(sample);
            }
        });
        Probe { stop, samples, thread: Some(thread) }
    }

    /// The host's slowness over `[from, to]`: the median kernel time of the
    /// samples taken in it (the [`MIN_SAMPLES`] nearest when fewer fall
    /// inside), divided by [`REFERENCE_MS`]. 1 when there is no sample.
    pub fn slowness(&self, from: Instant, to: Instant) -> f64 {
        // A push is the only update, so the samples are whole even if the
        // probe thread panicked.
        let samples = self.samples.lock().unwrap_or_else(|e| e.into_inner());
        slowness(&samples, from, to)
    }

    /// Stop the thread and wait for it; `Err` if it panicked.
    pub fn stop(mut self) -> Result<(), String> {
        self.halt().map_err(|_| "the host-speed probe thread panicked".to_string())
    }

    fn halt(&mut self) -> std::thread::Result<()> {
        self.stop.store(true, Ordering::Relaxed);
        self.thread.take().map_or(Ok(()), JoinHandle::join)
    }
}

impl Drop for Probe {
    fn drop(&mut self) {
        if self.halt().is_err() {
            eprintln!("transer-perfbench: the host-speed probe thread panicked");
        }
    }
}

fn slowness(samples: &[Sample], from: Instant, to: Instant) -> f64 {
    // Distance of a sample from the interval; 0 inside it.
    let away = |s: &Sample| {
        if s.at < from {
            from - s.at
        } else {
            s.at.saturating_duration_since(to)
        }
    };
    let mut near: Vec<&Sample> = samples.iter().collect();
    near.sort_by_key(|s| away(s));
    let inside = near.iter().take_while(|s| away(s).is_zero()).count();
    let ms: Vec<f64> = near.iter().take(inside.max(MIN_SAMPLES)).map(|s| s.ms).collect();
    Summary::of(&ms).map_or(1.0, |s| s.median / REFERENCE_MS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_does_the_same_work_every_run() {
        let mut k = Kernel::new();
        let first = k.run();
        assert!(first > 1_000, "{first} distinct trigrams");
        assert_eq!(k.run(), first);
    }

    #[test]
    fn slowness_reads_the_samples_in_the_interval() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        // Twenty samples at 2 ms, then twenty at 4 ms, 10 ms apart.
        let samples: Vec<Sample> = (0..40)
            .map(|i| Sample { at: at(10 * i), ms: if i < 20 { 2.0 } else { 4.0 } })
            .collect();
        let ratio = |from, to| slowness(&samples, at(from), at(to)) * REFERENCE_MS;
        assert_eq!(ratio(0, 190), 2.0);
        assert_eq!(ratio(200, 390), 4.0);
        // A short interval borrows its nearest neighbours.
        assert_eq!(ratio(150, 151), 2.0);
        assert_eq!(ratio(600, 700), 4.0);
        assert_eq!(slowness(&[], at(0), at(1)), 1.0);
    }

    #[test]
    fn probe_samples_while_running_and_stops() {
        let start = Instant::now();
        let probe = Probe::start();
        let deadline = start + Duration::from_secs(30);
        while probe.samples.lock().unwrap().is_empty() {
            assert!(Instant::now() < deadline, "no sample in 30 s");
            std::thread::sleep(PERIOD / 10);
        }
        let s = probe.slowness(start, Instant::now());
        assert!(s > 0.0 && s.is_finite());
        probe.stop().unwrap();
    }
}

//! Machine-speed calibration for the time metrics.
//!
//! The benchmark runs on a shared host whose speed drifts by tens of
//! percent within seconds and switches between regimes up to twice apart
//! for minutes at a time, with no steal reported: CPU time drifts with wall
//! time. A fixed kernel that hashes into a 20 000-entry table and sorts a
//! 30 000-element array, timed between ops, slows and speeds up with the
//! analysis ops; in sizing it took the spread over 20 s windows of quantify
//! op time from 0.33 to 0.07 of the median (solve-large from 0.14 to 0.08),
//! where an arithmetic loop or a pointer chase through 8 MiB removed a
//! quarter of the spread or less. Every time metric is therefore reported at
//! reference speed: as measured, times [`REFERENCE_MS`] over the median
//! kernel time of the same stretch of the run.
//!
//! The kernel is the benchmark's own code and allocates nothing while
//! timed, so no change to the analysis crates (their code, or the heap state
//! they leave behind) changes its duration.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::time::Instant;

use crate::median;

/// The kernel's duration on the sizing machine in its usual state. Times
/// read as they would on a machine where one kernel run takes this long.
pub const REFERENCE_MS: f64 = 2.5;

/// Op time (ms) between two kernel runs on the closed loops and between
/// two on serve-mixed's client; the kernel then adds about a tenth to a
/// run's wall time.
const EVERY_MS: f64 = 20.0;

const ENTRIES: u64 = 20_000;
const LOOKUPS: u64 = 40_000;
const SORTED: u64 = 30_000;

type Table = HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>;

/// The calibration kernel with its preallocated buffers and the durations
/// it has measured.
pub struct Calibration {
    table: Table,
    scratch: Vec<u64>,
    samples: Vec<f64>,
    since_sample_ms: f64,
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Calibration {
    pub fn new() -> Self {
        let mut calibration = Calibration {
            table: Table::with_capacity_and_hasher(ENTRIES as usize, Default::default()),
            scratch: Vec::with_capacity(SORTED as usize),
            samples: Vec::new(),
            since_sample_ms: 0.0,
        };
        // A first run warms the buffers; it is not kept.
        calibration.run();
        calibration.samples.clear();
        calibration
    }

    /// Runs the kernel once and records its duration in ms.
    fn run(&mut self) {
        self.table.clear();
        self.scratch.clear();
        let start = Instant::now();
        for i in 0..ENTRIES {
            self.table.insert(mix(i), i);
        }
        let hits = (0..LOOKUPS)
            .filter(|&i| self.table.contains_key(&mix(i)))
            .count();
        self.scratch.extend((0..SORTED).map(mix));
        self.scratch.sort_unstable();
        std::hint::black_box((hits, self.scratch.first()));
        self.samples.push(crate::ms(start.elapsed()));
        self.since_sample_ms = 0.0;
    }

    /// Counts `op_ms` of measured work and runs the kernel once [`EVERY_MS`]
    /// of it has gone by since the last run. Call it outside timed work.
    pub fn after(&mut self, op_ms: f64) {
        self.since_sample_ms += op_ms;
        if self.since_sample_ms >= EVERY_MS {
            self.run();
        }
    }

    /// How many kernel runs have been recorded; marks a point of the run.
    pub fn mark(&self) -> usize {
        self.samples.len()
    }

    /// The factor that takes times measured between marks `from` and `to`
    /// to reference speed. A stretch with fewer than three kernel runs
    /// widens to the nearest three.
    pub fn factor(&self, from: usize, to: usize) -> f64 {
        let n = self.samples.len();
        assert!(n > 0, "the kernel has run");
        let (mut from, mut to) = (from.min(n), to.min(n));
        while to - from < 3.min(n) {
            from = from.saturating_sub(1);
            to = (to + 1).min(n);
        }
        REFERENCE_MS / median(&self.samples[from..to])
    }

    /// Runs the kernel three times and returns the factor of their median:
    /// the machine's speed around a stretch of work that is not paced by
    /// [`Calibration::after`], such as one set-up.
    pub fn spot_factor(&mut self) -> f64 {
        let from = self.mark();
        for _ in 0..3 {
            self.run();
        }
        self.factor(from, self.mark())
    }

    /// Median kernel time of the whole run, in ms (printed with the census).
    pub fn median_ms(&self) -> f64 {
        median(&self.samples)
    }
}

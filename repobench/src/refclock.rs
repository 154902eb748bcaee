//! The reference clock: a fixed calibration kernel, timed between the
//! measured pieces of work, that converts a run's times into seconds on a
//! reference host.
//!
//! On a shared host both the core clock and the cache the attack shares
//! with other guests follow their load: on a 2-vCPU Intel Xeon guest the
//! same `fullcopy_attack` pass took from 10.5 to 13.8 CPU seconds within
//! ten minutes. The kernel mixes the two kinds of work a CDCL search
//! does, dependent arithmetic and dependent loads from a working set that
//! overflows the core's L2, about 7:3 by time; a run's times are scaled by
//! how much slower than on the reference host it ran. The kernel is the
//! benchmark's own code, so no change to the program moves it.

use full_lock::harness::json::Json;

use crate::host::process_cpu_s;
use crate::stats::median;
use crate::SplitMix;

/// Rounds of the arithmetic part: an OR then a 64-bit multiply, each
/// waiting for the one before.
const ROUNDS: u64 = 15_000_000;
/// The load part: a walk around one random cycle through 4 MiB.
const RING_ENTRIES: usize = 1 << 20;
const RING_STEPS: usize = 80_000;
/// The kernel's median CPU time on the reference host, an idle 2-vCPU
/// Intel Xeon (Sapphire Rapids) guest, so that times read close to CPU
/// seconds there.
const REFERENCE_KERNEL_S: f64 = 0.032;

/// Calibration samples of one run.
#[derive(Debug)]
pub struct RefClock {
    ring: Vec<u32>,
    samples: Vec<f64>,
}

impl RefClock {
    pub fn new() -> RefClock {
        RefClock {
            ring: single_cycle(RING_ENTRIES, 0x5EED_C10C),
            samples: Vec::new(),
        }
    }

    /// Times one run of the kernel in process CPU seconds.
    pub fn sample(&mut self) {
        let start = process_cpu_s();
        std::hint::black_box(dependent_chain(std::hint::black_box(ROUNDS)));
        std::hint::black_box(walk(&self.ring, std::hint::black_box(RING_STEPS)));
        self.samples.push(process_cpu_s() - start);
    }

    /// Seconds on the reference host per second measured here: multiply a
    /// time by it, divide a rate by it. The kernel's median over the run
    /// is the measure of this host's speed.
    pub fn factor(&self) -> Option<f64> {
        median(&self.samples)
            .filter(|&s| s > 0.0)
            .map(|s| REFERENCE_KERNEL_S / s)
    }

    pub fn to_json(&self) -> Json {
        Json::Object(vec![
            (
                "sample_s".into(),
                Json::Array(self.samples.iter().map(|&s| Json::Float(s)).collect()),
            ),
            ("reference_s".into(), Json::Float(REFERENCE_KERNEL_S)),
            (
                "factor".into(),
                self.factor().map_or(Json::Null, Json::Float),
            ),
        ])
    }
}

/// `x * (x | 1)` cannot be reassociated or folded the way a chain of
/// multiplies by a constant can, so the compiler keeps every round.
fn dependent_chain(n: u64) -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for _ in 0..n {
        x = x.wrapping_mul(x | 1);
    }
    x
}

/// Follows `ring` from entry 0 for `steps` loads, each address the value
/// the last load returned.
fn walk(ring: &[u32], steps: usize) -> u32 {
    let mut at = 0u32;
    for _ in 0..steps {
        at = ring[at as usize];
    }
    at
}

/// A successor table that visits all `n` entries in one cycle, in a
/// seeded random order (Sattolo's shuffle), so no prefetcher can follow it.
fn single_cycle(n: usize, seed: u64) -> Vec<u32> {
    let mut ring: Vec<u32> = (0..n as u32).collect();
    let mut rng = SplitMix(seed);
    for i in (1..n).rev() {
        let j = (rng.next_u64() % i as u64) as usize;
        ring.swap(i, j);
    }
    ring
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clock(samples: Vec<f64>) -> RefClock {
        RefClock {
            ring: Vec::new(),
            samples,
        }
    }

    #[test]
    fn factor_rescales_by_the_median_sample() {
        // A median kernel of twice the reference time: the host ran at
        // half the reference speed, so a measured second is half a
        // reference second.
        let c = clock(vec![
            8.0 * REFERENCE_KERNEL_S,
            2.0 * REFERENCE_KERNEL_S,
            REFERENCE_KERNEL_S,
        ]);
        assert!((c.factor().unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn no_samples_give_no_factor() {
        assert_eq!(clock(vec![]).factor(), None);
        assert_eq!(clock(vec![0.0]).factor(), None);
    }

    #[test]
    fn the_ring_is_one_cycle_through_every_entry() {
        let ring = single_cycle(1000, 7);
        let mut seen = vec![false; ring.len()];
        let mut at = 0usize;
        for _ in 0..ring.len() {
            assert!(!seen[at], "entry {at} visited twice");
            seen[at] = true;
            at = ring[at] as usize;
        }
        assert_eq!(at, 0);
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn a_sample_takes_time() {
        let mut c = RefClock::new();
        c.sample();
        assert!(c.samples[0] > 0.0);
    }
}

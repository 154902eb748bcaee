//! The benchmark's own arithmetic: medians, geometric means, the
//! tail-percentile rule, and `SolverStats` delta accounting.

use full_lock::sat::cdcl::SolverStats;

/// Median of `values` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Geometric mean of strictly positive `values`; `None` when empty or when
/// any value is not positive (a zero time means nothing was measured).
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v.is_nan() || v <= 0.0) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// The `p`-th percentile (0..=100) of `values` by linear interpolation
/// between closest ranks; `None` when empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// The highest whole percentile that still has at least `min_beyond`
/// samples above it among `n` samples, or `None` if not even the median
/// has. At 512 samples and `min_beyond = 10` this is 98 (10.24 samples lie
/// beyond p98, only 5.12 beyond p99).
pub fn highest_supported_percentile(n: usize, min_beyond: usize) -> Option<u32> {
    (50..100)
        .rev()
        .find(|&p| n as f64 * f64::from(100 - p) / 100.0 >= min_beyond as f64)
}

/// The solver counters one measured interval consumed: the difference of
/// two cumulative [`SolverStats`] snapshots, field by field.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StatsDelta {
    pub propagate_ns: u64,
    pub analyze_ns: u64,
    pub conflicts: u64,
    pub propagations: u64,
    pub decisions: u64,
    pub restarts: u64,
    pub solves: u64,
    pub learnts_carried: u64,
    pub inprocessings: u64,
    pub vars_eliminated: u64,
    pub lbd_histogram: [u64; 8],
}

impl StatsDelta {
    /// `after - before`. Counters are cumulative, so a counter that went
    /// backwards means the snapshots are not of one solver history.
    ///
    /// # Errors
    ///
    /// Names the first counter that decreased.
    pub fn between(before: &SolverStats, after: &SolverStats) -> Result<StatsDelta, String> {
        let sub = |name: &str, b: u64, a: u64| {
            a.checked_sub(b)
                .ok_or_else(|| format!("solver counter {name} went backwards ({b} -> {a})"))
        };
        let mut delta = StatsDelta {
            propagate_ns: sub("propagate_ns", before.propagate_ns, after.propagate_ns)?,
            analyze_ns: sub("analyze_ns", before.analyze_ns, after.analyze_ns)?,
            conflicts: sub("conflicts", before.conflicts, after.conflicts)?,
            propagations: sub("propagations", before.propagations, after.propagations)?,
            decisions: sub("decisions", before.decisions, after.decisions)?,
            restarts: sub("restarts", before.restarts, after.restarts)?,
            solves: sub("solves", before.solves, after.solves)?,
            learnts_carried: sub(
                "learnts_carried",
                before.learnts_carried,
                after.learnts_carried,
            )?,
            inprocessings: sub("inprocessings", before.inprocessings, after.inprocessings)?,
            vars_eliminated: sub(
                "vars_eliminated",
                before.vars_eliminated,
                after.vars_eliminated,
            )?,
            lbd_histogram: [0; 8],
        };
        for (i, slot) in delta.lbd_histogram.iter_mut().enumerate() {
            *slot = sub(
                "lbd_histogram",
                before.lbd_histogram[i],
                after.lbd_histogram[i],
            )?;
        }
        Ok(delta)
    }

    /// Adds another interval's counters to this one.
    pub fn add(&mut self, other: &StatsDelta) {
        self.propagate_ns += other.propagate_ns;
        self.analyze_ns += other.analyze_ns;
        self.conflicts += other.conflicts;
        self.propagations += other.propagations;
        self.decisions += other.decisions;
        self.restarts += other.restarts;
        self.solves += other.solves;
        self.learnts_carried += other.learnts_carried;
        self.inprocessings += other.inprocessings;
        self.vars_eliminated += other.vars_eliminated;
        for (mine, theirs) in self.lbd_histogram.iter_mut().zip(other.lbd_histogram) {
            *mine += theirs;
        }
    }

    /// Mean learnt-clause LBD over the interval (the overflow bucket counts
    /// as 8); 0 without conflicts.
    pub fn mean_lbd(&self) -> f64 {
        let total: u64 = self.lbd_histogram.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let weighted: u64 = (1u64..)
            .zip(self.lbd_histogram)
            .map(|(lbd, n)| lbd * n)
            .sum();
        weighted as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn geomean_weights_small_values_like_large_ones() {
        let g = geomean(&[1.0, 100.0]).expect("positive");
        assert!((g - 10.0).abs() < 1e-9, "{g}");
        let g = geomean(&[2.0, 2.0, 2.0]).expect("positive");
        assert!((g - 2.0).abs() < 1e-12, "{g}");
        // Halving one cell moves the geomean as much as halving any other.
        let a = geomean(&[0.5, 8.0]).expect("positive");
        let b = geomean(&[1.0, 4.0]).expect("positive");
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn geomean_refuses_empty_and_non_positive_input() {
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, -2.0]), None);
        assert_eq!(geomean(&[f64::NAN]), None);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 50.0), Some(3.0));
        assert_eq!(percentile(&v, 100.0), Some(5.0));
        assert_eq!(percentile(&v, 25.0), Some(2.0));
        assert_eq!(percentile(&v, 90.0), Some(4.6));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(512, 10), Some(98));
        assert_eq!(highest_supported_percentile(1000, 10), Some(99));
        assert_eq!(highest_supported_percentile(999, 10), Some(98));
        assert_eq!(highest_supported_percentile(100, 10), Some(90));
        assert_eq!(highest_supported_percentile(20, 10), Some(50));
        assert_eq!(highest_supported_percentile(19, 10), None);
        assert_eq!(highest_supported_percentile(0, 10), None);
        for n in [20, 37, 100, 512, 4096] {
            let p = highest_supported_percentile(n, 10).expect("enough samples");
            assert!(n as f64 * f64::from(100 - p) / 100.0 >= 10.0);
            if p < 99 {
                assert!(n as f64 * f64::from(100 - (p + 1)) / 100.0 < 10.0);
            }
        }
    }

    fn stats(conflicts: u64, propagate_ns: u64, lbd1: u64) -> SolverStats {
        let mut lbd_histogram = [0; 8];
        lbd_histogram[0] = lbd1;
        lbd_histogram[7] = conflicts - lbd1;
        SolverStats {
            conflicts,
            propagations: conflicts * 10,
            propagate_ns,
            solves: conflicts / 100,
            lbd_histogram,
            ..SolverStats::default()
        }
    }

    #[test]
    fn deltas_of_consecutive_snapshots_sum_to_the_whole_interval() {
        let snaps = [
            stats(0, 0, 0),
            stats(150, 900, 50),
            stats(400, 2_000, 60),
            stats(1_000, 7_500, 200),
        ];
        let mut summed = StatsDelta::default();
        for w in snaps.windows(2) {
            summed.add(&StatsDelta::between(&w[0], &w[1]).expect("monotone"));
        }
        let whole = StatsDelta::between(&snaps[0], &snaps[3]).expect("monotone");
        assert_eq!(summed, whole);
        assert_eq!(whole.conflicts, 1_000);
        assert_eq!(whole.propagations, 10_000);
        assert_eq!(whole.propagate_ns, 7_500);
        assert_eq!(whole.solves, 10);
    }

    #[test]
    fn a_counter_going_backwards_is_an_error() {
        let err = StatsDelta::between(&stats(10, 50, 1), &stats(5, 60, 1)).expect_err("backwards");
        assert!(err.contains("conflicts"), "{err}");
    }

    #[test]
    fn mean_lbd_matches_the_solver_definition() {
        let s = stats(100, 0, 25);
        let d = StatsDelta::between(&SolverStats::default(), &s).expect("monotone");
        assert!((d.mean_lbd() - s.mean_lbd()).abs() < 1e-12);
        assert!((d.mean_lbd() - (25.0 + 8.0 * 75.0) / 100.0).abs() < 1e-12);
        assert_eq!(StatsDelta::default().mean_lbd(), 0.0);
    }
}

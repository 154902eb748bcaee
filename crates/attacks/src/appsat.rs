//! AppSAT: the approximate SAT attack (Shamsi et al., HOST 2017).
//!
//! Against point-function schemes (SARLock, Anti-SAT) the exact SAT attack
//! needs `2^m` iterations, but almost every key is *almost* correct —
//! AppSAT exploits this by interleaving DIP iterations with random-query
//! probing and settling for a key whose measured error rate is below a
//! threshold. Against high-corruption schemes like Full-Lock, an
//! approximate key is as useless as a random one, which is exactly the
//! property §4.2 claims (and [`AppSatConfig`]'s reports quantify —
//! run it through the [`Attack`] trait).

use std::time::Duration;

use fulllock_locking::{Key, LockedCircuit};
use fulllock_sat::cdcl::SolverStats;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::oracle::Oracle;
use crate::report::{Attack, AttackDetails, AttackOutcome, AttackReport};
use crate::sat_attack::{key_matches, SatAttack, SatAttackConfig, Step};
use crate::Result;

/// Configuration of an AppSAT run.
#[derive(Debug, Clone, Copy)]
pub struct AppSatConfig {
    /// DIP iterations between settlement probes.
    pub probe_interval: u64,
    /// Random patterns per probe.
    pub probe_samples: usize,
    /// Settle when the measured error rate is ≤ this threshold.
    pub error_threshold: f64,
    /// Base SAT attack limits (timeout / iteration cap).
    pub base: SatAttackConfig,
    /// RNG seed for probing.
    pub seed: u64,
}

impl Default for AppSatConfig {
    fn default() -> Self {
        AppSatConfig {
            probe_interval: 4,
            probe_samples: 64,
            error_threshold: 0.01,
            base: SatAttackConfig {
                timeout: Some(Duration::from_secs(60)),
                ..Default::default()
            },
            seed: 0,
        }
    }
}

/// Result of an AppSAT run.
#[derive(Debug, Clone)]
pub struct AppSatReport {
    /// The best (possibly approximate) key found, if any.
    pub key: Option<Key>,
    /// Error rate of that key measured on the final probe (fraction of
    /// sampled patterns with any wrong output).
    pub measured_error: f64,
    /// Whether the attack settled below the threshold (approximate
    /// success) rather than running out of budget.
    pub settled: bool,
    /// Whether the DIP loop actually converged (exact success).
    pub exact: bool,
    /// DIP iterations performed.
    pub iterations: u64,
    /// Wall-clock time spent.
    pub elapsed: Duration,
    /// SAT solver counters accumulated over the run (merged across
    /// portfolio workers when the backend is a portfolio).
    pub solver: SolverStats,
}

#[cfg(test)]
fn run_appsat(
    locked: &LockedCircuit,
    oracle: &dyn Oracle,
    config: AppSatConfig,
) -> Result<AppSatReport> {
    let mut engine = SatAttack::new(locked, oracle, config.base)?;
    engine.set_checkpoint_label("appsat");
    drive_appsat(&mut engine, locked, oracle, config)
}

/// The AppSAT loop over a pre-built engine (fresh or resumed from a
/// checkpoint — the engine-level I/O log covers DIPs *and* reinforcement
/// queries, so a restored engine carries both back).
fn drive_appsat(
    engine: &mut SatAttack<'_>,
    locked: &LockedCircuit,
    oracle: &dyn Oracle,
    config: AppSatConfig,
) -> Result<AppSatReport> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut best: Option<(Key, f64)> = None;
    let cyclic = engine.is_cyclic();

    loop {
        // A settlement probe runs before the first DIP too: point-function
        // schemes are approximately broken by *any* consistent key.
        if engine.iterations().is_multiple_of(config.probe_interval) {
            if let Some(key) = engine.extract_key()? {
                let (error, mismatches) =
                    probe_error(locked, cyclic, oracle, &key, config.probe_samples, &mut rng);
                // AppSAT reinforcement: failed probes become constraints.
                let reinforced = !mismatches.is_empty();
                for (x, y) in mismatches {
                    engine.assert_io(&x, &y);
                }
                if best.as_ref().is_none_or(|(_, e)| error < *e) {
                    engine.set_candidate_key(key.clone());
                    best = Some((key.clone(), error));
                }
                if reinforced {
                    // Persist the reinforcement constraints too — they cost
                    // oracle queries, same as DIPs.
                    engine.checkpoint_now();
                }
                if error <= config.error_threshold {
                    return Ok(AppSatReport {
                        key: Some(key),
                        measured_error: error,
                        settled: true,
                        exact: false,
                        iterations: engine.iterations(),
                        elapsed: engine.elapsed(),
                        solver: engine.solver_stats(),
                    });
                }
            }
        }
        match engine.step()? {
            Step::Dip(_) => continue,
            Step::NoMoreDips => {
                let key = engine.extract_key()?;
                let (error, _) = match &key {
                    Some(k) => {
                        probe_error(locked, cyclic, oracle, k, config.probe_samples, &mut rng)
                    }
                    None => (1.0, Vec::new()),
                };
                return Ok(AppSatReport {
                    settled: error <= config.error_threshold,
                    exact: key.is_some(),
                    measured_error: error,
                    key,
                    iterations: engine.iterations(),
                    elapsed: engine.elapsed(),
                    solver: engine.solver_stats(),
                });
            }
            Step::Budget => {
                let (key, error) = match best {
                    Some((k, e)) => (Some(k), e),
                    // A resumed run may not have re-probed yet; fall back
                    // to the checkpoint's candidate key with unknown
                    // (pessimistic) error.
                    None => (engine.candidate_key().cloned(), 1.0),
                };
                return Ok(AppSatReport {
                    key,
                    measured_error: error,
                    settled: false,
                    exact: false,
                    iterations: engine.iterations(),
                    elapsed: engine.elapsed(),
                    solver: engine.solver_stats(),
                });
            }
        }
    }
}

impl Attack for AppSatConfig {
    fn name(&self) -> &'static str {
        "appsat"
    }

    /// Runs AppSAT and folds its settlement data into the common
    /// envelope: an exact convergence maps to
    /// [`AttackOutcome::KeyRecovered`], a settled approximate key to
    /// [`AttackOutcome::ApproximateKey`], and budget exhaustion to
    /// [`AttackOutcome::Timeout`].
    ///
    /// # Example
    ///
    /// ```no_run
    /// use fulllock_attacks::{AppSatConfig, Attack, SimOracle};
    /// use fulllock_locking::{LockingScheme, SarLock};
    /// use fulllock_netlist::benchmarks;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let original = benchmarks::load("c432")?;
    /// let locked = SarLock::new(16, 0).lock(&original)?;
    /// let oracle = SimOracle::new(&original)?;
    /// // SARLock's error rate is 2^-16: AppSAT settles almost immediately.
    /// let report = AppSatConfig::default().run(&locked, &oracle)?;
    /// assert!(matches!(
    ///     report.outcome,
    ///     fulllock_attacks::AttackOutcome::ApproximateKey { .. }
    /// ));
    /// # Ok(())
    /// # }
    /// ```
    fn run(&self, locked: &LockedCircuit, oracle: &dyn Oracle) -> Result<AttackReport> {
        let mut engine = SatAttack::new(locked, oracle, self.base)?;
        engine.set_checkpoint_label("appsat");
        envelope(&mut engine, locked, oracle, *self)
    }

    fn run_checkpointed(
        &self,
        locked: &LockedCircuit,
        oracle: &dyn Oracle,
        checkpoint: &std::path::Path,
        resume: bool,
    ) -> Result<AttackReport> {
        let mut engine = SatAttack::new(locked, oracle, self.base)?;
        engine.set_checkpoint_label("appsat");
        engine.checkpoint_to(checkpoint, resume)?;
        envelope(&mut engine, locked, oracle, *self)
    }
}

/// Drives the AppSAT loop and folds its settlement data into the common
/// envelope, capturing the fault-tolerance record and certifying the
/// recovered (or settled approximate) key. A certification failure on
/// any solve aborts with [`AttackError`](crate::AttackError).
fn envelope(
    engine: &mut SatAttack<'_>,
    locked: &LockedCircuit,
    oracle: &dyn Oracle,
    config: AppSatConfig,
) -> Result<AttackReport> {
    let report = drive_appsat(engine, locked, oracle, config)?;
    if let Some(failure) = engine.certify_failure() {
        return Err(crate::AttackError::Certification(failure.clone()));
    }
    let outcome = match (&report.key, report.exact, report.settled) {
        (Some(key), true, _) => AttackOutcome::KeyRecovered {
            key: key.clone(),
            verified: report.measured_error == 0.0,
        },
        (Some(key), false, true) => AttackOutcome::ApproximateKey {
            key: key.clone(),
            measured_error: report.measured_error,
        },
        _ => AttackOutcome::Timeout,
    };
    let key_certificate = match &outcome {
        AttackOutcome::KeyRecovered { key, .. } | AttackOutcome::ApproximateKey { key, .. } => {
            Some(crate::certificate::certify_key(
                locked, oracle, key, 64, 0xCE87,
            ))
        }
        _ => None,
    };
    Ok(AttackReport {
        attack: "appsat",
        outcome,
        iterations: report.iterations,
        elapsed: report.elapsed,
        oracle_queries: engine.oracle_queries(),
        solver: report.solver,
        resilience: engine.resilience(),
        key_certificate,
        details: AttackDetails::AppSat(report),
    })
}

/// Measures a key's error rate on random patterns; returns the rate and
/// the mismatching (input, oracle-output) pairs for reinforcement.
/// `cyclic` is the engine's flag for `locked` (see [`key_matches`]).
#[allow(clippy::type_complexity)]
fn probe_error(
    locked: &LockedCircuit,
    cyclic: bool,
    oracle: &dyn Oracle,
    key: &Key,
    samples: usize,
    rng: &mut StdRng,
) -> (f64, Vec<(Vec<bool>, Vec<bool>)>) {
    let width = locked.data_inputs.len();
    let mut wrong = 0usize;
    let mut mismatches = Vec::new();
    for _ in 0..samples {
        let x: Vec<bool> = (0..width).map(|_| rng.gen_bool(0.5)).collect();
        let want = oracle.query(&x);
        if !key_matches(locked, cyclic, key, &x, &want) {
            wrong += 1;
            if mismatches.len() < 8 {
                mismatches.push((x, want));
            }
        }
    }
    (wrong as f64 / samples.max(1) as f64, mismatches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimOracle;
    use fulllock_locking::{FullLock, FullLockConfig, LockingScheme, SarLock};
    use fulllock_netlist::random::{generate, RandomCircuitConfig};

    fn host(seed: u64) -> fulllock_netlist::Netlist {
        generate(RandomCircuitConfig {
            inputs: 12,
            outputs: 6,
            gates: 120,
            max_fanin: 3,
            seed,
        })
        .unwrap()
    }

    #[test]
    fn appsat_settles_on_sarlock_quickly() {
        // SARLock with 10 key bits: exact attack needs ~2^10 iterations;
        // AppSAT should settle in a handful (error 2^-10 < threshold).
        let original = host(1);
        let locked = SarLock::new(10, 2).lock(&original).unwrap();
        let oracle = SimOracle::new(&original).unwrap();
        let report = run_appsat(&locked, &oracle, AppSatConfig::default()).unwrap();
        assert!(report.settled, "AppSAT should settle on SARLock");
        assert!(
            report.iterations < 100,
            "needed {} iterations",
            report.iterations
        );
        assert!(report.measured_error <= 0.01);
    }

    #[test]
    fn appsat_gains_nothing_on_fulllock() {
        // Full-Lock's corruption is high: within a small budget AppSAT
        // neither settles nor converges, and its best key stays badly
        // wrong — the paper's §4.2 claim.
        let original = host(2);
        let locked = FullLock::new(FullLockConfig::single_plr(16))
            .lock(&original)
            .unwrap();
        let oracle = SimOracle::new(&original).unwrap();
        let config = AppSatConfig {
            base: SatAttackConfig {
                timeout: Some(Duration::from_millis(300)),
                ..Default::default()
            },
            ..Default::default()
        };
        let report = run_appsat(&locked, &oracle, config).unwrap();
        assert!(!report.settled);
        assert!(!report.exact);
        assert!(
            report.measured_error > 0.05,
            "approximate key suspiciously good: {}",
            report.measured_error
        );
    }

    #[test]
    fn appsat_is_exact_on_small_schemes() {
        let original = host(3);
        let locked = fulllock_locking::Rll::new(8, 1).lock(&original).unwrap();
        let oracle = SimOracle::new(&original).unwrap();
        let report = run_appsat(&locked, &oracle, AppSatConfig::default()).unwrap();
        // Either settles early (error 0 measured) or converges exactly;
        // both count as breaking RLL.
        assert!(report.settled || report.exact);
        let key = report.key.expect("a key must be produced");
        // The key must be near-perfect functionally.
        let mut rng = StdRng::seed_from_u64(9);
        let sim = fulllock_netlist::Simulator::new(&original).unwrap();
        let mut errors = 0;
        for _ in 0..64 {
            let x: Vec<bool> = (0..original.inputs().len())
                .map(|_| rng.gen_bool(0.5))
                .collect();
            if locked.eval(&x, &key).unwrap() != sim.run(&x).unwrap() {
                errors += 1;
            }
        }
        assert!(errors <= 2, "{errors}/64 errors");
    }
}

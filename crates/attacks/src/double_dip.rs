//! Double DIP: the 2-DIP attack (Shen & Zhou, GLSVLSI 2017).
//!
//! The plain SAT attack's DIP may eliminate only a single wrong key —
//! which is exactly the regime SARLock engineers. Double DIP strengthens
//! the query: it searches for an input on which **two key pairs** disagree
//! across pairs while agreeing within each pair:
//!
//! ```text
//! ∃ X, K1..K4:  C(X,K1) = C(X,K2),  C(X,K3) = C(X,K4),  C(X,K1) ≠ C(X,K3)
//! ```
//!
//! with `K1 ≠ K2` and `K3 ≠ K4`. Whatever the oracle answers on such an
//! `X`, at least one whole *pair* (two distinct keys) is wrong — every
//! 2-DIP eliminates ≥ 2 keys. Once no 2-DIP exists the attack cleans up
//! with plain DIPs.
//!
//! Two instructive facts the tests pin down: pure SARLock admits **no**
//! strict 2-DIP (each input flips exactly one key — that is SARLock's
//! defining guarantee, and it holds against this attack too), while
//! redundancy-rich schemes like RLL offer 2-DIPs in abundance. Against
//! Full-Lock the attack buys nothing either way: iterations were never
//! the bottleneck.
//!
//! Double DIP has no loop of its own: it is the SAT-attack engine
//! ([`SatAttack`]) over a four-key miter whose two phases are switched on
//! by their own activation literals. It therefore shares the plain
//! attack's cone-reduced encoding, certification, checkpoint/resume, and
//! lying-oracle quarantine.

use std::path::Path;
use std::time::Duration;

use fulllock_locking::LockedCircuit;
use fulllock_sat::cdcl::SolverStats;

use crate::oracle::Oracle;
use crate::report::{Attack, AttackDetails, AttackOutcome, AttackReport};
use crate::sat_attack::{envelope, MiterShape, SatAttack, SatAttackConfig, SatAttackReport};
use crate::Result;

/// The Double-DIP attack as an [`Attack`] object: the SAT-attack engine
/// over the four-key Double-DIP miter, configured by the
/// base SAT-attack configuration (timeout, iteration cap, backend,
/// encoding, oracle resilience). Checkpoints carry the label
/// `"double-dip"` and record the phase (1 = 2-DIP search, 2 = clean-up).
#[derive(Debug, Clone, Copy, Default)]
pub struct DoubleDip {
    /// Base limits and solving backend.
    pub base: SatAttackConfig,
}

impl DoubleDip {
    fn engine<'a>(
        &self,
        locked: &'a LockedCircuit,
        oracle: &'a dyn Oracle,
    ) -> Result<SatAttack<'a>> {
        let mut engine = SatAttack::with_shape(locked, oracle, self.base, MiterShape::DoubleDip)?;
        engine.set_checkpoint_label("double-dip");
        Ok(engine)
    }
}

impl Attack for DoubleDip {
    fn name(&self) -> &'static str {
        "double-dip"
    }

    fn run(&self, locked: &LockedCircuit, oracle: &dyn Oracle) -> Result<AttackReport> {
        envelope(&mut self.engine(locked, oracle)?, "double-dip", details)
    }

    fn run_checkpointed(
        &self,
        locked: &LockedCircuit,
        oracle: &dyn Oracle,
        checkpoint: &Path,
        resume: bool,
    ) -> Result<AttackReport> {
        let mut engine = self.engine(locked, oracle)?;
        engine.checkpoint_to(checkpoint, resume)?;
        envelope(&mut engine, "double-dip", details)
    }
}

/// Splits the engine's DIP count into the two phases.
fn details(engine: &SatAttack<'_>, report: SatAttackReport) -> AttackDetails {
    let dips = engine.phase_iterations();
    AttackDetails::DoubleDip(DoubleDipReport {
        outcome: report.outcome,
        iterations: dips[0],
        cleanup_iterations: dips[1],
        elapsed: report.elapsed,
        solver: report.solver,
    })
}

/// Result of a Double-DIP run.
#[derive(Debug, Clone)]
pub struct DoubleDipReport {
    /// Why the run ended (key recovery / timeout / iteration limit).
    pub outcome: AttackOutcome,
    /// 2-DIP iterations completed.
    pub iterations: u64,
    /// Plain-DIP iterations of the clean-up phase (once no 2-DIP exists,
    /// the attack falls back to single DIPs to finish).
    pub cleanup_iterations: u64,
    /// Wall-clock time.
    pub elapsed: Duration,
    /// SAT solver counters accumulated over the run (merged across
    /// portfolio workers when the backend is a portfolio).
    pub solver: SolverStats,
}

#[cfg(test)]
fn run_double_dip(
    locked: &LockedCircuit,
    oracle: &dyn Oracle,
    config: SatAttackConfig,
) -> Result<DoubleDipReport> {
    match (DoubleDip { base: config }).run(locked, oracle)?.details {
        AttackDetails::DoubleDip(report) => Ok(report),
        other => unreachable!("Double DIP reported {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimOracle;
    use fulllock_locking::{
        FullLock, FullLockConfig, LockingScheme, PlrSpec, Rll, SarLock, WireSelection,
    };
    use fulllock_netlist::random::{generate, RandomCircuitConfig};
    use fulllock_netlist::{topo, Simulator};
    use rand::{Rng, SeedableRng};

    fn host(seed: u64) -> fulllock_netlist::Netlist {
        generate(RandomCircuitConfig {
            inputs: 10,
            outputs: 5,
            gates: 90,
            max_fanin: 3,
            seed,
        })
        .unwrap()
    }

    #[test]
    fn breaks_rll_with_correct_key() {
        let original = host(1);
        let locked = Rll::new(8, 2).lock(&original).unwrap();
        let oracle = SimOracle::new(&original).unwrap();
        let report = run_double_dip(&locked, &oracle, SatAttackConfig::default()).unwrap();
        let AttackOutcome::KeyRecovered { verified, .. } = report.outcome else {
            panic!("RLL must fall to Double DIP, got {:?}", report.outcome);
        };
        assert!(verified);
    }

    #[test]
    fn rll_offers_2dips_in_abundance() {
        // Many distinct RLL keys alias to the same function classes, so
        // strict 2-DIPs exist and phase 1 does real work.
        let original = host(2);
        let locked = Rll::new(10, 3).lock(&original).unwrap();
        let oracle = SimOracle::new(&original).unwrap();
        let report = run_double_dip(&locked, &oracle, SatAttackConfig::default()).unwrap();
        assert!(report.outcome.is_broken());
        assert!(report.iterations >= 1, "expected at least one 2-DIP on RLL");
    }

    #[test]
    fn sarlock_admits_no_2dip() {
        // SARLock's guarantee — each input eliminates exactly one key —
        // holds against Double DIP: phase 1 finds nothing, the clean-up
        // phase pays the full ~2^m - 1 queries, matching the plain attack.
        let original = host(2);
        let m = 5;
        let locked = SarLock::new(m, 3).lock(&original).unwrap();

        let oracle = SimOracle::new(&original).unwrap();
        let plain = SatAttackConfig::default().run(&locked, &oracle).unwrap();
        assert!(plain.outcome.is_broken());

        let oracle2 = SimOracle::new(&original).unwrap();
        let double = run_double_dip(&locked, &oracle2, SatAttackConfig::default()).unwrap();
        assert!(double.outcome.is_broken());
        assert_eq!(double.iterations, 0, "no strict 2-DIP may exist on SARLock");
        assert!(double.cleanup_iterations >= plain.iterations / 2);
    }

    #[test]
    fn respects_iteration_limit() {
        let original = host(3);
        let locked = SarLock::new(10, 1).lock(&original).unwrap();
        let oracle = SimOracle::new(&original).unwrap();
        let report = run_double_dip(
            &locked,
            &oracle,
            SatAttackConfig {
                max_iterations: Some(2),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(report.outcome, AttackOutcome::IterationLimit);
    }

    #[test]
    fn breaks_cyclic_fulllock_with_a_settling_key() {
        // Cyclic insertion takes the cut-edge cone + CycSAT no-cycle
        // clause path: the recovered key must open every loop (all
        // outputs settle) and match the oracle.
        let original = generate(RandomCircuitConfig {
            inputs: 8,
            outputs: 5,
            gates: 60,
            max_fanin: 3,
            seed: 4,
        })
        .unwrap();
        let locked = FullLock::new(FullLockConfig {
            plrs: vec![PlrSpec::new(4)],
            selection: WireSelection::Cyclic,
            twist_probability: 0.5,
            seed: 3,
        })
        .lock(&original)
        .unwrap();
        assert!(topo::is_cyclic(&locked.netlist));
        let oracle = SimOracle::new(&original).unwrap();
        let report = run_double_dip(&locked, &oracle, SatAttackConfig::default()).unwrap();
        let AttackOutcome::KeyRecovered { key, verified } = report.outcome else {
            panic!("cyclic Full-Lock must fall, got {:?}", report.outcome);
        };
        assert!(verified);
        let sim = Simulator::new(&original).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for _ in 0..64 {
            let x: Vec<bool> = (0..original.inputs().len())
                .map(|_| rng.gen_bool(0.5))
                .collect();
            let eval = locked.eval_cyclic(&x, &key).unwrap();
            assert!(
                eval.all_outputs_known(),
                "recovered key leaves a loop floating"
            );
            let got: Vec<Option<bool>> = eval.outputs.iter().map(|t| t.to_bool()).collect();
            let want: Vec<Option<bool>> = sim.run(&x).unwrap().into_iter().map(Some).collect();
            assert_eq!(got, want);
        }
    }
}

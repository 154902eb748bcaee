//! Chaos tests at the oracle boundary: inject bit-flips, drops, and
//! stuck-at faults into the activated-chip oracle underneath a running
//! DIP loop, and assert the resilient attack layer quarantines the
//! poison instead of returning a wrong key or a spurious UNSAT.
//!
//! These tests require the `failpoints` feature:
//!
//! ```text
//! cargo test -p fulllock-attacks --features failpoints --test chaos_oracle
//! ```
//!
//! They compose with `FULLLOCK_CERTIFY=model`: every solve of the
//! healed runs is then model-checked while quarantine rewrites the
//! constraint ledger underneath the solver.
//!
//! The fault-plan registry is process-global, so every test serializes
//! on [`chaos_lock`] and installs its own plan (an empty plan where a
//! clean oracle is required — shadowing any ambient
//! `FULLLOCK_FAILPOINTS` row from the CI chaos matrix).
#![cfg(feature = "failpoints")]

use std::sync::{Mutex, MutexGuard, PoisonError};

use fulllock_attacks::{
    Attack, AttackCheckpoint, AttackOutcome, DoubleDip, Oracle, SatAttackConfig, SimOracle,
};
use fulllock_locking::{
    FullLock, FullLockConfig, Key, LockedCircuit, LockingScheme, PlrSpec, SarLock, WireSelection,
};
use fulllock_netlist::random::{generate, RandomCircuitConfig};
use fulllock_netlist::{topo, Netlist, Simulator};
use fulllock_sat::faults::{self, site, Failpoint, FaultAction, FaultPlan};

/// Serializes tests that install a global fault plan.
fn chaos_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A c432-class combinational host: comparable input/output interface
/// and gate count to the ISCAS-85 channel-interrupt controller.
fn host(seed: u64) -> Netlist {
    generate(RandomCircuitConfig {
        inputs: 12,
        outputs: 7,
        gates: 160,
        max_fanin: 3,
        seed,
    })
    .expect("valid circuit config")
}

/// Locks the host with a 4x4 configurable logic-and-routing network.
fn cln_locked(original: &Netlist) -> LockedCircuit {
    fulllock_4x4(original, WireSelection::Acyclic, 9)
}

fn fulllock_4x4(original: &Netlist, selection: WireSelection, seed: u64) -> LockedCircuit {
    FullLock::new(FullLockConfig {
        plrs: vec![PlrSpec::new(4)],
        selection,
        twist_probability: 0.5,
        seed,
    })
    .lock(original)
    .expect("lock")
}

/// The recovered key must restore the oracle's function exactly — checked
/// by exhaustive-ish random simulation, independently of the attack's own
/// verification. On a cyclic lock every output must also settle.
fn assert_key_correct(original: &Netlist, locked: &LockedCircuit, key: &Key) {
    let cyclic = topo::is_cyclic(&locked.netlist);
    let sim = Simulator::new(original).expect("simulator");
    let width = locked.data_inputs.len();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..256 {
        let x: Vec<bool> = (0..width)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state & 1 == 1
            })
            .collect();
        let want = sim.run(&x).expect("oracle sim");
        let got = if cyclic {
            let eval = locked.eval_cyclic(&x, key).expect("unlock eval");
            assert!(
                eval.all_outputs_known(),
                "recovered key leaves a loop floating"
            );
            eval.outputs
                .iter()
                .map(|t| t.to_bool().expect("settled"))
                .collect()
        } else {
            locked.eval(&x, key).expect("unlock eval")
        };
        assert_eq!(got, want, "recovered key diverges from the oracle");
    }
}

/// Deterministic stand-in for "each response flipped with p = 0.02":
/// one output bit of every 50th oracle query is inverted, far past any
/// plausible query count.
fn two_percent_flip_plan() -> FaultPlan {
    let mut plan = FaultPlan::new();
    for k in 0..200 {
        plan = plan.with(Failpoint::new(
            site::ORACLE_QUERY,
            Some(2 + 50 * k),
            FaultAction::Flip,
        ));
    }
    plan
}

/// The headline scenario: a CLN-locked c432-class host behind an oracle
/// that flips an output bit on ~2% of queries. The unguarded loop would
/// accumulate poisoned constraints and return a wrong key or a spurious
/// UNSAT; the resilient loop must quarantine the poison, recover the
/// exact key, and stay within a bounded query-inflation factor. The SAT
/// attack and Double DIP run on the same engine and must both heal, on
/// an acyclic lock and on a cyclic one (CycSAT's no-cycle clauses plus
/// the cut-edge cone).
#[test]
fn flipped_responses_are_quarantined_and_the_exact_key_recovered() {
    let _guard = chaos_lock();
    let original = host(42);
    let locks = [
        cln_locked(&original),
        fulllock_4x4(&original, WireSelection::Cyclic, 3),
    ];
    assert!(topo::is_cyclic(&locks[1].netlist));

    let attacks: [&dyn Attack; 2] = [&SatAttackConfig::default(), &DoubleDip::default()];
    for (locked, attack) in locks
        .iter()
        .flat_map(|locked| attacks.iter().map(move |&attack| (locked, attack)))
    {
        // Clean baseline for the inflation bound (empty plan shadows any
        // ambient FULLLOCK_FAILPOINTS row).
        faults::install(FaultPlan::new());
        let clean_oracle = SimOracle::new(&original).expect("oracle");
        let baseline = attack.run(locked, &clean_oracle).expect("clean attack");
        assert!(baseline.outcome.is_broken(), "{:?}", baseline.outcome);

        faults::install(two_percent_flip_plan());
        let noisy_oracle = SimOracle::new(&original).expect("oracle");
        let report = attack.run(locked, &noisy_oracle).expect("resilient attack");
        faults::clear();

        let cyclic = topo::is_cyclic(&locked.netlist);
        let name = format!("{} (cyclic: {cyclic})", attack.name());
        let AttackOutcome::KeyRecovered { key, verified } = &report.outcome else {
            panic!(
                "{name}: the resilient loop must still break the lock, got {:?}",
                report.outcome
            );
        };
        assert!(
            verified,
            "{name}: the recovered key must pass trusted verification"
        );
        assert_key_correct(&original, locked, key);
        // The healing machinery must have actually fired: suspects were
        // re-queried and at least one poisoned pair was quarantined.
        assert!(
            report.resilience.oracle_requeries > 0,
            "{name}: no suspect re-queries recorded: {:?}",
            report.resilience
        );
        assert!(
            report.resilience.quarantined_pairs > 0,
            "{name}: no pair quarantined: {:?}",
            report.resilience
        );
        assert!(report.resilience.is_eventful());
        // Healing buys correctness with extra queries, but the inflation
        // must stay bounded — re-querying is per-suspect, not
        // per-constraint.
        assert!(
            report.oracle_queries <= 8 * baseline.oracle_queries + 64,
            "{name}: query inflation out of bounds: {} noisy vs {} clean",
            report.oracle_queries,
            baseline.oracle_queries
        );
    }
}

/// The persistence half of the threat model: a run is killed after a
/// poisoned pair entered the checkpoint, resumed (healing quarantines the
/// poison mid-flight), and then resumed once more from the post-heal
/// snapshot — which must NOT resurrect the quarantined pair.
#[test]
fn resume_does_not_resurrect_quarantined_pairs() {
    let _guard = chaos_lock();
    let original = host(7);
    // SARLock over 5 bits forces ~31 DIPs, so a small iteration cap
    // reliably "kills" the run long before convergence.
    let locked = SarLock::new(5, 2).lock(&original).expect("lock");
    let path = std::env::temp_dir().join(format!(
        "fulllock-{}-oracle-quarantine.ckpt",
        std::process::id()
    ));
    let previous = path.with_extension("ckpt.1");
    for p in [&path, &previous] {
        let _ = std::fs::remove_file(p);
    }

    // Phase 1: the third oracle response is flipped; the run is capped
    // ("killed") right after that iteration, so the poisoned pair lands
    // in the checkpoint unquarantined — exactly what a crashed attacker
    // process leaves behind.
    faults::install(FaultPlan::new().with(Failpoint::new(
        site::ORACLE_QUERY,
        Some(2),
        FaultAction::Flip,
    )));
    let capped_oracle = SimOracle::new(&original).expect("oracle");
    let capped = SatAttackConfig {
        max_iterations: Some(3),
        ..Default::default()
    }
    .run_checkpointed(&locked, &capped_oracle, &path, false)
    .expect("capped run");
    faults::clear();
    assert_eq!(capped.outcome, AttackOutcome::IterationLimit);

    let truth = SimOracle::new(&original).expect("oracle");
    let snapshot = AttackCheckpoint::load(&path).expect("checkpoint");
    assert_eq!(snapshot.io_pairs.len(), 3);
    assert!(
        snapshot.io_pairs.iter().all(|p| !p.quarantined),
        "the kill must land before any quarantine"
    );
    let poisoned = snapshot
        .io_pairs
        .iter()
        .filter(|p| truth.query(&p.inputs) != p.outputs)
        .count();
    assert_eq!(poisoned, 1, "exactly the flipped response must be recorded");

    // Phase 2: resume against a now-healthy oracle. The restored poison
    // must be diagnosed (UNSAT core -> re-query -> quarantine) and the
    // exact key still recovered.
    let resume_oracle = SimOracle::new(&original).expect("oracle");
    let resumed = SatAttackConfig::default()
        .resume(&locked, &resume_oracle, &path)
        .expect("resumed run");
    assert_eq!(resumed.resilience.resumed_from, Some(3));
    let AttackOutcome::KeyRecovered { key, verified } = &resumed.outcome else {
        panic!("resume must break the lock, got {:?}", resumed.outcome);
    };
    assert!(verified);
    assert_key_correct(&original, &locked, key);
    assert!(resumed.resilience.oracle_requeries > 0);
    assert!(resumed.resilience.quarantined_pairs > 0);

    // Phase 3: the post-heal snapshot records the quarantine; resuming
    // from it must keep the pair dead. If restore re-asserted the
    // poisoned constraints, this run would need healing all over again
    // (nonzero re-queries) or lose the key.
    let healed = AttackCheckpoint::load(&path).expect("post-heal checkpoint");
    let quarantined_in_snapshot = healed.io_pairs.iter().filter(|p| p.quarantined).count();
    assert!(
        quarantined_in_snapshot > 0,
        "the post-heal checkpoint must persist the quarantine verdict"
    );
    let final_oracle = SimOracle::new(&original).expect("oracle");
    let replayed = SatAttackConfig::default()
        .resume(&locked, &final_oracle, &path)
        .expect("replayed run");
    let AttackOutcome::KeyRecovered { key, verified } = &replayed.outcome else {
        panic!("replay must break the lock, got {:?}", replayed.outcome);
    };
    assert!(verified);
    assert_key_correct(&original, &locked, key);
    assert_eq!(
        replayed.resilience.oracle_requeries, 0,
        "a resurrected poisoned pair would have forced another healing round"
    );
    assert_eq!(
        replayed.resilience.quarantined_pairs as usize, quarantined_in_snapshot,
        "the quarantine ledger must survive the round trip unchanged"
    );

    for p in [&path, &previous] {
        let _ = std::fs::remove_file(p);
    }
}

/// Dropped responses (a flaky harness link) are absorbed by the retry
/// loop without any quarantine — the attack result is byte-identical to
/// a clean run's key.
#[test]
fn dropped_responses_are_retried_transparently() {
    let _guard = chaos_lock();
    let original = host(11);
    let locked = cln_locked(&original);
    faults::install(
        FaultPlan::new().with(
            // The 4th query drops once; the immediate retry succeeds.
            Failpoint::new(site::ORACLE_QUERY, None, FaultAction::Drop)
                .after(3)
                .times(1),
        ),
    );
    let oracle = SimOracle::new(&original).expect("oracle");
    let report = SatAttackConfig::default()
        .run(&locked, &oracle)
        .expect("attack");
    faults::clear();
    let AttackOutcome::KeyRecovered { key, verified } = &report.outcome else {
        panic!("drops must be absorbed, got {:?}", report.outcome);
    };
    assert!(verified);
    assert_key_correct(&original, &locked, key);
    assert!(
        report.resilience.oracle_retries > 0,
        "the absorbed drop must be on record: {:?}",
        report.resilience
    );
    assert_eq!(report.resilience.quarantined_pairs, 0);
}

/// Run by the CI chaos matrix with `FULLLOCK_FAILPOINTS` set (e.g.
/// `oracle.query=flip@10x3` or `oracle.query=delay:25x10`): whatever the
/// ambient plan injects at the oracle site, the attack must either break
/// the scheme with a verified key or end in a clean budget outcome —
/// never panic, hang, or report an unverified key as verified.
#[test]
fn ambient_oracle_plan_never_escapes_the_attack() {
    let _guard = chaos_lock();
    faults::clear(); // fall back to the FULLLOCK_FAILPOINTS plan, if any
    let original = host(13);
    let locked = cln_locked(&original);
    let oracle = SimOracle::new(&original).expect("oracle");
    let report = SatAttackConfig::default()
        .run(&locked, &oracle)
        .expect("attack");
    match &report.outcome {
        AttackOutcome::KeyRecovered { key, verified } => {
            assert!(verified);
            assert_key_correct(&original, &locked, key);
        }
        AttackOutcome::Timeout | AttackOutcome::IterationLimit => {}
        other => panic!("unexpected outcome under ambient oracle faults: {other:?}"),
    }
}

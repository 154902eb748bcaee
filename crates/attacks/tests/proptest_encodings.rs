//! Property-based tests of the cone-reduced, structure-aware encoders:
//! the Generic and Structured styles must be equisatisfiable with each
//! other and with circuit evaluation on arbitrary lockings (and with the
//! full Tseytin copy on cyclic ones), and the full attack must recover
//! equivalent keys whichever encoding path it takes.

use fulllock_attacks::{
    encode_locked, Attack, AttackOutcome, CircuitEncoder, DoubleDip, EncodeStyle, SatAttackConfig,
    SimOracle,
};
use fulllock_locking::{
    FullLock, FullLockConfig, Key, LockedCircuit, LockingScheme, LutLock, PlrSpec, Rll,
    WireSelection,
};
use fulllock_netlist::random::{generate, RandomCircuitConfig};
use fulllock_netlist::{Netlist, Simulator};
use fulllock_sat::cdcl::{SolveResult, Solver};
use fulllock_sat::{Cnf, Lit, Var};
use proptest::prelude::*;

fn host(seed: u64) -> Netlist {
    generate(RandomCircuitConfig {
        inputs: 8,
        outputs: 4,
        gates: 70,
        max_fanin: 3,
        seed,
    })
    .expect("valid config")
}

/// Asserts one observation with `style` and checks every given key: the
/// cone must be satisfiable under exactly the keys whose evaluation
/// reproduces the observed outputs.
fn check_observation_cone(
    locked: &LockedCircuit,
    style: EncodeStyle,
    inputs: &[bool],
    keys: impl Iterator<Item = Vec<bool>>,
) -> Result<(), TestCaseError> {
    let outputs = locked
        .eval(inputs, &locked.correct_key)
        .expect("acyclic locked circuit");
    let enc = CircuitEncoder::new(locked, style).expect("acyclic");
    let mut cnf = Cnf::new();
    let key_vars: Vec<Var> = locked.key_inputs.iter().map(|_| cnf.new_var()).collect();
    enc.encode_observation(&mut cnf, inputs, &outputs, &key_vars);
    let mut solver = Solver::from_cnf(&cnf);
    for bits in keys {
        let assumptions: Vec<Lit> = key_vars
            .iter()
            .zip(&bits)
            .map(|(&v, &b)| Lit::with_polarity(v, b))
            .collect();
        let key = Key::from_bits(bits.iter().copied());
        let consistent = locked.eval(inputs, &key).expect("interface") == outputs;
        let verdict = solver.solve(&assumptions);
        prop_assert_eq!(
            verdict,
            if consistent {
                SolveResult::Sat
            } else {
                SolveResult::Unsat
            },
            "style {:?}, key {:?}: cone verdict disagrees with evaluation",
            style,
            bits
        );
    }
    Ok(())
}

/// Asserts one observation through the cone encoder (in both styles) and
/// through a full [`encode_locked`] copy with pinned inputs and outputs,
/// and checks that every given key gets the same verdict from all three.
/// Cyclic netlists have no evaluation to compare against: a key may
/// leave a loop floating, which the full copy models as free signals.
fn check_cone_against_full_copy(
    locked: &LockedCircuit,
    inputs: &[bool],
    outputs: &[bool],
    keys: &[Vec<bool>],
) -> Result<(), TestCaseError> {
    let mut full = Cnf::new();
    let data: Vec<Var> = inputs.iter().map(|_| full.new_var()).collect();
    let full_keys: Vec<Var> = locked.key_inputs.iter().map(|_| full.new_var()).collect();
    let copy = encode_locked(locked, &mut full, &data, &full_keys);
    for (&v, &b) in data.iter().zip(inputs) {
        full.add_clause([Lit::with_polarity(v, b)]);
    }
    for (&v, &b) in copy.output_vars.iter().zip(outputs) {
        full.add_clause([Lit::with_polarity(v, b)]);
    }
    let mut reference = Solver::from_cnf(&full);
    for style in [EncodeStyle::Generic, EncodeStyle::Structured] {
        let enc = CircuitEncoder::new(locked, style).expect("cut order covers cyclic netlists");
        let mut cnf = Cnf::new();
        let key_vars: Vec<Var> = locked.key_inputs.iter().map(|_| cnf.new_var()).collect();
        enc.encode_observation(&mut cnf, inputs, outputs, &key_vars);
        let mut cone = Solver::from_cnf(&cnf);
        for bits in keys {
            let pin = |vars: &[Var]| -> Vec<Lit> {
                vars.iter()
                    .zip(bits)
                    .map(|(&v, &b)| Lit::with_polarity(v, b))
                    .collect()
            };
            prop_assert_eq!(
                cone.solve(&pin(&key_vars)),
                reference.solve(&pin(&full_keys)),
                "style {:?}, key {:?}: cone verdict disagrees with the full copy",
                style,
                bits
            );
        }
    }
    Ok(())
}

/// Every key over `bits` variables (callers keep `bits` small).
fn all_keys(bits: usize) -> impl Iterator<Item = Vec<bool>> {
    (0..1u32 << bits).map(move |k| (0..bits).map(|i| k >> i & 1 == 1).collect())
}

/// The correct key plus `samples` random keys over `bits` variables.
fn sampled_keys(locked: &LockedCircuit, samples: usize, seed: u64) -> Vec<Vec<bool>> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let bits = locked.key_inputs.len();
    let mut keys = vec![locked.correct_key.bits().to_vec()];
    keys.extend((0..samples).map(|_| (0..bits).map(|_| rng.gen_bool(0.5)).collect::<Vec<bool>>()));
    keys
}

/// Runs the attack with `config` and asserts a functionally correct key.
fn assert_breaks(
    original: &Netlist,
    locked: &LockedCircuit,
    attack: &dyn Attack,
) -> Result<Key, TestCaseError> {
    let oracle = SimOracle::new(original).expect("acyclic");
    let report = attack.run(locked, &oracle).expect("interfaces");
    let AttackOutcome::KeyRecovered { key, verified } = report.outcome else {
        return Err(TestCaseError::fail("scheme must fall"));
    };
    prop_assert!(verified);
    let sim = Simulator::new(original).expect("acyclic");
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    for _ in 0..16 {
        let x: Vec<bool> = (0..original.inputs().len())
            .map(|_| rng.gen_bool(0.5))
            .collect();
        prop_assert_eq!(
            locked.eval(&x, &key).expect("interface"),
            sim.run(&x).expect("sized")
        );
    }
    Ok(key)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Generic and Structured observation cones are both exactly the set
    /// of keys consistent with the observation — equisatisfiable with
    /// each other and with evaluation — on random LUT-Lock instances
    /// (MUX trees).
    #[test]
    fn lut_cones_match_evaluation_in_both_styles(
        host_seed in any::<u64>(),
        lock_seed in any::<u64>(),
        input_bits in any::<u32>(),
    ) {
        let original = host(host_seed);
        let locked = LutLock::new(2, lock_seed).lock(&original).expect("fits");
        let inputs: Vec<bool> = (0..original.inputs().len())
            .map(|i| input_bits >> (i % 32) & 1 == 1)
            .collect();
        let bits = locked.key_inputs.len();
        prop_assert!(bits <= 12, "exhaustive sweep needs a small key space");
        check_observation_cone(&locked, EncodeStyle::Generic, &inputs, all_keys(bits))?;
        check_observation_cone(&locked, EncodeStyle::Structured, &inputs, all_keys(bits))?;
    }

    /// Same equisatisfiability on acyclic Full-Lock instances (CLN
    /// switch-box swap pairs, exercising the pair-linking clauses).
    #[test]
    fn cln_cones_match_evaluation_in_both_styles(
        host_seed in any::<u64>(),
        lock_seed in any::<u64>(),
        input_bits in any::<u32>(),
    ) {
        let original = host(host_seed);
        let config = FullLockConfig {
            plrs: vec![PlrSpec::new(4)],
            selection: WireSelection::Acyclic,
            twist_probability: 0.5,
            seed: lock_seed,
        };
        let locked = FullLock::new(config).lock(&original).expect("fits");
        let inputs: Vec<bool> = (0..original.inputs().len())
            .map(|i| input_bits >> (i % 32) & 1 == 1)
            .collect();
        // 36 key bits: sample the space instead of sweeping it.
        let keys = sampled_keys(&locked, 48, lock_seed ^ 0xA5A5);
        check_observation_cone(&locked, EncodeStyle::Generic, &inputs, keys.iter().cloned())?;
        check_observation_cone(&locked, EncodeStyle::Structured, &inputs, keys.into_iter())?;
    }

    /// The attack, and Double DIP on the same engine, recover a
    /// functionally correct key whichever encoding path they take: legacy
    /// full copies, Generic cones, or Structured cones.
    #[test]
    fn attack_succeeds_under_every_encoding_path(
        host_seed in any::<u64>(),
        lock_seed in any::<u64>(),
        bits in 2usize..10,
    ) {
        let original = host(host_seed);
        let locked = Rll::new(bits, lock_seed).lock(&original).expect("fits");
        for (cone_reduce, encode_style) in [
            (false, EncodeStyle::Generic),
            (true, EncodeStyle::Generic),
            (true, EncodeStyle::Structured),
        ] {
            let base = SatAttackConfig {
                cone_reduce,
                encode_style,
                ..Default::default()
            };
            assert_breaks(&original, &locked, &base)?;
            assert_breaks(&original, &locked, &DoubleDip { base })?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On cyclic Full-Lock instances the cut-edge cone agrees with the
    /// full Tseytin copy key by key, in both styles.
    #[test]
    fn cyclic_cones_match_the_full_copy(
        host_seed in any::<u64>(),
        lock_seed in any::<u64>(),
        input_bits in any::<u32>(),
    ) {
        let original = host(host_seed);
        let config = FullLockConfig {
            plrs: vec![PlrSpec::new(4)],
            selection: WireSelection::Cyclic,
            twist_probability: 0.5,
            seed: lock_seed,
        };
        let locked = FullLock::new(config).lock(&original).expect("fits");
        prop_assume!(fulllock_netlist::topo::is_cyclic(&locked.netlist));
        let inputs: Vec<bool> = (0..original.inputs().len())
            .map(|i| input_bits >> (i % 32) & 1 == 1)
            .collect();
        let outputs = Simulator::new(&original)
            .expect("acyclic host")
            .run(&inputs)
            .expect("sized");
        let keys = sampled_keys(&locked, 48, lock_seed ^ 0x5A5A);
        check_cone_against_full_copy(&locked, &inputs, &outputs, &keys)?;
    }
}

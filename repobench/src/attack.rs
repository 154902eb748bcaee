//! The attack workloads (`cone_attack`, `fullcopy_attack`): every paper
//! cell attacked in one process on `BackendSpec::Single`, each verdict
//! checked.

use std::cell::Cell as StdCell;
use std::time::{Duration, Instant};

use full_lock::attacks::sat_attack::Step;
use full_lock::attacks::{
    certify_key, cycsat, encode_locked, Attack, AttackOutcome, AttackReport, CircuitEncoder,
    DoubleDip, EncodeStyle, Oracle, OracleError, SatAttack, SatAttackConfig, SimOracle,
};
use full_lock::attacks::{AttackDetails, KeyCertificate};
use full_lock::locking::Key;
use full_lock::netlist::Netlist;
use full_lock::sat::backend::BackendSpec;
use full_lock::sat::cdcl::SolverStats;
use full_lock::sat::{Cnf, Lit, Var};

use crate::cells::{AttackKind, Cell};
use crate::host::process_cpu_s;
use crate::stats::StatsDelta;
use crate::trace::{SpanId, Trace};
use crate::SplitMix;

/// Per-cell attack budget.
pub const CELL_TIMEOUT: Duration = Duration::from_secs(20);

/// The attack configuration every cell runs with. The environment was
/// checked clean of `FULLLOCK_*` settings, so the defaults are the
/// program's own.
pub fn attack_config() -> SatAttackConfig {
    SatAttackConfig {
        timeout: Some(CELL_TIMEOUT),
        backend: BackendSpec::Single,
        ..Default::default()
    }
}

/// How one attack on one cell ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Key recovered and certified (and proven, on acyclic locks).
    Solved,
    /// The budget ran out: counts against `solved_frac`, not a failure.
    Timeout,
    /// A wrong or uncertified key, or an error: fails the run.
    Failed(String),
}

/// One attack on one cell, with its deterministic work counters.
#[derive(Debug, Clone)]
pub struct CellRun {
    pub id: String,
    pub attack: AttackKind,
    /// Wall time to verdict, key certification included.
    pub seconds: f64,
    /// The same interval in process CPU time (untraced runs only; 0 on
    /// traced runs, which compare wall times).
    pub cpu_seconds: f64,
    pub verdict: Verdict,
    pub dips: u64,
    pub conflicts: u64,
    pub propagations: u64,
    /// Final attack formula size (0 where the attack does not report it).
    pub final_clauses: u64,
    pub final_vars: u64,
    pub clause_var_ratio: f64,
}

impl CellRun {
    /// The counters compared across passes and processes.
    pub fn counters(&self) -> [u64; 4] {
        [
            self.dips,
            self.conflicts,
            self.propagations,
            self.final_clauses,
        ]
    }
}

/// Judges a recovered key: the certificate must be clean, acyclic keys
/// must be proven, and the key must agree with the oracle on patterns
/// drawn from the benchmark seed.
fn judge_key(cell: &Cell, key: &Key, certificate: Option<&KeyCertificate>, seed: u64) -> Verdict {
    let Some(certificate) = certificate else {
        return Verdict::Failed("recovered key has no certificate".into());
    };
    if !certificate.is_clean() {
        return Verdict::Failed(format!("key certificate not clean: {certificate:?}"));
    }
    if !cell.cyclic && !certificate.is_proven() {
        return Verdict::Failed(format!("acyclic key not proven: {:?}", certificate.formal));
    }
    match spot_check(cell, key, seed) {
        Ok(()) => Verdict::Solved,
        Err(why) => Verdict::Failed(why),
    }
}

/// Simulates the unlocked circuit against the host on 64 seeded patterns.
fn spot_check(cell: &Cell, key: &Key, seed: u64) -> Result<(), String> {
    let oracle = SimOracle::new(&cell.host).map_err(|e| format!("oracle: {e}"))?;
    let mut rng = SplitMix(seed ^ 0x5EED_C4EC);
    let width = cell.locked.data_inputs.len();
    for _ in 0..64 {
        let x: Vec<bool> = (0..width).map(|_| rng.next_u64() & 1 == 1).collect();
        let want = oracle.query(&x);
        let got: Option<Vec<bool>> = if cell.cyclic {
            cell.locked
                .eval_cyclic(&x, key)
                .ok()
                .and_then(|e| e.outputs.iter().map(|t| t.to_bool()).collect())
        } else {
            cell.locked.eval(&x, key).ok()
        };
        if got.as_ref() != Some(&want) {
            return Err(format!("key disagrees with the oracle on {x:?}"));
        }
    }
    Ok(())
}

fn verdict_of(cell: &Cell, report: &AttackReport, seed: u64) -> Verdict {
    match &report.outcome {
        AttackOutcome::KeyRecovered { key, .. } => {
            judge_key(cell, key, report.key_certificate.as_ref(), seed)
        }
        AttackOutcome::Timeout => Verdict::Timeout,
        other => Verdict::Failed(format!("attack ended {other:?}")),
    }
}

/// Runs one cell the way a user would: `Attack::run` (which certifies the
/// key), timed from the outside in wall and CPU time.
pub fn run_untraced(cell: &Cell, seed: u64) -> CellRun {
    let oracle = match SimOracle::new(&cell.host) {
        Ok(o) => o,
        Err(e) => return failed_run(cell, 0.0, format!("oracle: {e}")),
    };
    let config = attack_config();
    let start = Instant::now();
    let cpu_start = process_cpu_s();
    let result = match cell.attack {
        AttackKind::SatCone | AttackKind::CycSat => config.run(&cell.locked, &oracle),
        AttackKind::DoubleDip => DoubleDip { base: config }.run(&cell.locked, &oracle),
    };
    let cpu_seconds = process_cpu_s() - cpu_start;
    let seconds = start.elapsed().as_secs_f64();
    let report = match result {
        Ok(r) => r,
        Err(e) => return failed_run(cell, seconds, format!("attack error: {e}")),
    };
    let (final_vars, final_clauses, clause_var_ratio) = match &report.details {
        AttackDetails::Sat(sat) => (
            sat.formula.0 as u64,
            sat.formula.1 as u64,
            sat.mean_clause_var_ratio,
        ),
        _ => (0, 0, 0.0),
    };
    CellRun {
        id: cell.id.clone(),
        attack: cell.attack,
        seconds,
        cpu_seconds,
        verdict: verdict_of(cell, &report, seed),
        dips: report.iterations,
        conflicts: report.solver.conflicts,
        propagations: report.solver.propagations,
        final_clauses,
        final_vars,
        clause_var_ratio,
    }
}

fn failed_run(cell: &Cell, seconds: f64, why: String) -> CellRun {
    CellRun {
        id: cell.id.clone(),
        attack: cell.attack,
        seconds,
        cpu_seconds: 0.0,
        verdict: Verdict::Failed(why),
        dips: 0,
        conflicts: 0,
        propagations: 0,
        final_clauses: 0,
        final_vars: 0,
        clause_var_ratio: 0.0,
    }
}

/// An [`Oracle`] that times and counts the queries it forwards.
pub struct TimedOracle<'a> {
    inner: SimOracle<'a>,
    busy: StdCell<Duration>,
    count: StdCell<u64>,
}

impl<'a> TimedOracle<'a> {
    pub fn new(host: &'a Netlist) -> Result<TimedOracle<'a>, String> {
        Ok(TimedOracle {
            inner: SimOracle::new(host).map_err(|e| format!("oracle: {e}"))?,
            busy: StdCell::new(Duration::ZERO),
            count: StdCell::new(0),
        })
    }

    pub fn busy(&self) -> Duration {
        self.busy.get()
    }

    pub fn count(&self) -> u64 {
        self.count.get()
    }
}

impl Oracle for TimedOracle<'_> {
    fn num_inputs(&self) -> usize {
        self.inner.num_inputs()
    }

    fn num_outputs(&self) -> usize {
        self.inner.num_outputs()
    }

    fn query(&self, inputs: &[bool]) -> Vec<bool> {
        let start = Instant::now();
        let out = self.inner.query(inputs);
        self.busy.set(self.busy.get() + start.elapsed());
        self.count.set(self.count.get() + 1);
        out
    }

    fn try_query(&self, inputs: &[bool]) -> Result<Vec<bool>, OracleError> {
        let start = Instant::now();
        let out = self.inner.try_query(inputs);
        self.busy.set(self.busy.get() + start.elapsed());
        self.count.set(self.count.get() + 1);
        out
    }

    fn queries(&self) -> u64 {
        self.inner.queries()
    }

    fn netlist(&self) -> Option<&Netlist> {
        self.inner.netlist()
    }
}

/// Per-layer sums over a traced pass.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Solver counters over every DIP step, key extraction and
    /// Double-DIP run.
    pub cdcl: StatsDelta,
    /// Wall time of the solver-driving intervals `cdcl` covers.
    pub solver_wall: Duration,
    pub sat_step: Duration,
    pub sat_dips: u64,
    pub sat_extract: Duration,
    pub dd_loop: Duration,
    pub dd_dips: u64,
    /// Oracle time and queries inside the solver-driving intervals.
    pub oracle_in_loop: Duration,
    pub oracle_total: Duration,
    pub oracle_queries: u64,
    pub certify_key: Duration,
    pub certify_prove: Duration,
    pub observation: Duration,
    pub observation_clauses: u64,
    pub observation_dips: u64,
    pub full_copy: Duration,
    pub full_copy_clauses: u64,
    pub full_copy_dips: u64,
    pub no_cycle_clauses: u64,
    pub final_clauses: u64,
    pub final_vars: u64,
    pub ratio_sum: f64,
    pub ratio_cells: u64,
}

/// Runs one cell with its DIP loop driven from here, so each layer's
/// calls are timed: `SatAttack::step` with `SolverStats` deltas,
/// `extract_key`, `certify_key`; `DoubleDip` as a whole. The replays of
/// the encoder and the formal proof come after the timed verdict.
pub fn run_traced(
    cell: &Cell,
    seed: u64,
    layers: &mut Layers,
    trace: &mut Trace,
    root: Option<SpanId>,
) -> CellRun {
    run_traced_with(cell, seed, layers, trace, root, attack_config(), true)
}

/// [`run_traced`] with an explicit attack configuration; `certify` off
/// skips `certify_key` and the proof (the atlas executor certifies
/// nothing), leaving the seeded spot check as the key's verdict.
pub fn run_traced_with(
    cell: &Cell,
    seed: u64,
    layers: &mut Layers,
    trace: &mut Trace,
    root: Option<SpanId>,
    config: SatAttackConfig,
    certify: bool,
) -> CellRun {
    let oracle = match TimedOracle::new(&cell.host) {
        Ok(o) => o,
        Err(e) => return failed_run(cell, 0.0, e),
    };
    let cell_span = trace.open("cell", &cell.id, root);
    let (mut run, key, dips) = match cell.attack {
        AttackKind::DoubleDip => traced_double_dip(cell, &oracle, seed, layers, trace, cell_span),
        _ => traced_sat(
            cell,
            &oracle,
            seed,
            layers,
            trace,
            cell_span,
            (config, certify),
        ),
    };
    trace.close(cell_span);
    layers.oracle_total += oracle.busy();
    layers.oracle_queries += oracle.count();

    // Extras outside the timed verdict.
    if let Some(key) = key.as_ref().filter(|_| certify) {
        if !cell.cyclic {
            let span = trace.open("certify.prove_key", &cell.id, Some(cell_span));
            let start = Instant::now();
            let proof = cell.locked.prove_key(key, &cell.host);
            layers.certify_prove += start.elapsed();
            trace.close(span);
            if let Err(e) = proof {
                run.verdict = Verdict::Failed(format!("prove_key: {e}"));
            }
        }
    }
    if let Err(e) = replay_encoders(cell, &dips, layers, trace, cell_span) {
        run.verdict = Verdict::Failed(e);
    }
    layers.final_clauses += run.final_clauses;
    layers.final_vars += run.final_vars;
    if run.final_vars > 0 {
        layers.ratio_sum += run.clause_var_ratio;
        layers.ratio_cells += 1;
    }
    run
}

type Traced = (CellRun, Option<Key>, Vec<Vec<bool>>);

fn traced_sat(
    cell: &Cell,
    oracle: &TimedOracle<'_>,
    seed: u64,
    layers: &mut Layers,
    trace: &mut Trace,
    cell_span: SpanId,
    (config, certify): (SatAttackConfig, bool),
) -> Traced {
    let start = Instant::now();
    let mut engine = match SatAttack::new(&cell.locked, oracle, config) {
        Ok(e) => e,
        Err(e) => {
            return (
                failed_run(cell, 0.0, format!("attack setup: {e}")),
                None,
                vec![],
            )
        }
    };
    let mut dips: Vec<Vec<bool>> = Vec::new();
    let mut before = engine.solver_stats();
    let mut solver_interval = |layers: &mut Layers, after: &SolverStats, wall, oracle_wall| {
        let delta = StatsDelta::between(&before, after);
        before = *after;
        layers.solver_wall += wall;
        layers.oracle_in_loop += oracle_wall;
        delta.map(|d| layers.cdcl.add(&d))
    };
    let finished = loop {
        let span = trace.open("dip.step", &cell.id, Some(cell_span));
        let oracle_before = oracle.busy();
        let t = Instant::now();
        let step = engine.step();
        let wall = t.elapsed();
        trace.close(span);
        layers.sat_step += wall;
        let stats = engine.solver_stats();
        if let Err(e) = solver_interval(layers, &stats, wall, oracle.busy() - oracle_before) {
            return (failed_run(cell, 0.0, e), None, dips);
        }
        match step {
            Ok(Step::Dip(x)) => {
                layers.sat_dips += 1;
                dips.push(x);
            }
            Ok(Step::NoMoreDips) => break true,
            Ok(Step::Budget) => break false,
            Err(e) => return (failed_run(cell, 0.0, format!("step: {e}")), None, dips),
        }
    };
    let mut key = None;
    let mut verdict = Verdict::Timeout;
    if finished {
        let span = trace.open("dip.extract_key", &cell.id, Some(cell_span));
        let oracle_before = oracle.busy();
        let t = Instant::now();
        let extracted = engine.extract_key();
        let wall = t.elapsed();
        trace.close(span);
        layers.sat_extract += wall;
        let stats = engine.solver_stats();
        if let Err(e) = solver_interval(layers, &stats, wall, oracle.busy() - oracle_before) {
            return (failed_run(cell, 0.0, e), None, dips);
        }
        verdict = match extracted {
            Ok(Some(k)) => {
                if !engine.verify_key(&k, 32, 0xF17) {
                    Verdict::Failed("extracted key fails verification".into())
                } else if !certify {
                    let v = match spot_check(cell, &k, seed) {
                        Ok(()) => Verdict::Solved,
                        Err(why) => Verdict::Failed(why),
                    };
                    key = Some(k);
                    v
                } else {
                    let span = trace.open("certify.certify_key", &cell.id, Some(cell_span));
                    let t = Instant::now();
                    let certificate = certify_key(&cell.locked, oracle, &k, 64, 0xCE87);
                    layers.certify_key += t.elapsed();
                    trace.close(span);
                    let v = judge_key(cell, &k, Some(&certificate), seed);
                    key = Some(k);
                    v
                }
            }
            Ok(None) => Verdict::Failed("no key satisfies the recorded I/O pairs".into()),
            Err(e) => Verdict::Failed(format!("extract_key: {e}")),
        };
    }
    if let Some(failure) = engine.certify_failure() {
        verdict = Verdict::Failed(format!("solver certification: {failure:?}"));
    }
    let seconds = start.elapsed().as_secs_f64();
    let report = engine.report(AttackOutcome::Timeout);
    let run = CellRun {
        id: cell.id.clone(),
        attack: cell.attack,
        seconds,
        cpu_seconds: 0.0,
        verdict,
        dips: report.iterations,
        conflicts: report.solver.conflicts,
        propagations: report.solver.propagations,
        final_clauses: report.formula.1 as u64,
        final_vars: report.formula.0 as u64,
        clause_var_ratio: report.mean_clause_var_ratio,
    };
    (run, key, dips)
}

fn traced_double_dip(
    cell: &Cell,
    oracle: &TimedOracle<'_>,
    seed: u64,
    layers: &mut Layers,
    trace: &mut Trace,
    cell_span: SpanId,
) -> Traced {
    let span = trace.open("dip.double_dip", &cell.id, Some(cell_span));
    let start = Instant::now();
    let result = DoubleDip {
        base: attack_config(),
    }
    .run(&cell.locked, oracle);
    let seconds = start.elapsed();
    trace.close(span);
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            return (
                failed_run(cell, seconds.as_secs_f64(), format!("attack error: {e}")),
                None,
                vec![],
            )
        }
    };
    // The loop's own wall time is the report's; the rest of the envelope
    // is key certification.
    layers.dd_loop += report.elapsed;
    layers.dd_dips += report.iterations;
    layers.certify_key += seconds.saturating_sub(report.elapsed);
    layers.solver_wall += report.elapsed;
    layers.oracle_in_loop += oracle.busy();
    match StatsDelta::between(&SolverStats::default(), &report.solver) {
        Ok(d) => layers.cdcl.add(&d),
        Err(e) => return (failed_run(cell, seconds.as_secs_f64(), e), None, vec![]),
    }
    let key = match &report.outcome {
        AttackOutcome::KeyRecovered { key, .. } => Some(key.clone()),
        _ => None,
    };
    let run = CellRun {
        id: cell.id.clone(),
        attack: cell.attack,
        seconds: seconds.as_secs_f64(),
        cpu_seconds: 0.0,
        verdict: verdict_of(cell, &report, seed),
        dips: report.iterations,
        conflicts: report.solver.conflicts,
        propagations: report.solver.propagations,
        final_clauses: 0,
        final_vars: 0,
        clause_var_ratio: 0.0,
    };
    (run, key, vec![])
}

/// Replays the encoder the cell's attack used on the DIPs it found: the
/// cone-reduced `CircuitEncoder::encode_observation` on acyclic SAT cells,
/// full-copy `encode_locked` (and the CycSAT constraints) on cyclic ones.
/// Each observation is encoded for two key copies, as the attack does.
fn replay_encoders(
    cell: &Cell,
    dips: &[Vec<bool>],
    layers: &mut Layers,
    trace: &mut Trace,
    cell_span: SpanId,
) -> Result<(), String> {
    let oracle = SimOracle::new(&cell.host).map_err(|e| format!("oracle: {e}"))?;
    let observed: Vec<(&Vec<bool>, Vec<bool>)> =
        dips.iter().map(|x| (x, oracle.query(x))).collect();
    let mut cnf = Cnf::new();
    let keys = |cnf: &mut Cnf| -> Vec<Var> {
        cell.locked
            .key_inputs
            .iter()
            .map(|_| cnf.new_var())
            .collect()
    };
    let k1 = keys(&mut cnf);
    let k2 = keys(&mut cnf);
    match cell.attack {
        AttackKind::SatCone => {
            let encoder = CircuitEncoder::new(&cell.locked, EncodeStyle::default())
                .ok_or("acyclic cell has no cone encoder")?;
            let span = trace.open("encode.observation", &cell.id, Some(cell_span));
            let start = Instant::now();
            for (x, y) in &observed {
                for k in [&k1, &k2] {
                    encoder.encode_observation(&mut cnf, x, y, k);
                }
            }
            layers.observation += start.elapsed();
            trace.close(span);
            layers.observation_clauses += cnf.num_clauses() as u64;
            layers.observation_dips += observed.len() as u64;
        }
        AttackKind::CycSat => {
            let span = trace.open("encode.full_copy", &cell.id, Some(cell_span));
            let start = Instant::now();
            for (x, y) in &observed {
                for k in [&k1, &k2] {
                    let data: Vec<Var> = x.iter().map(|_| cnf.new_var()).collect();
                    let enc = encode_locked(&cell.locked, &mut cnf, &data, k);
                    for (&v, &bit) in data.iter().zip(x.iter()) {
                        cnf.add_clause([Lit::with_polarity(v, bit)]);
                    }
                    for (&v, &bit) in enc.output_vars.iter().zip(y) {
                        cnf.add_clause([Lit::with_polarity(v, bit)]);
                    }
                }
            }
            layers.full_copy += start.elapsed();
            trace.close(span);
            layers.full_copy_clauses += cnf.num_clauses() as u64;
            layers.full_copy_dips += observed.len() as u64;

            let mut cycles = Cnf::new();
            for _ in 0..2 {
                let k = keys(&mut cycles);
                cycsat::add_no_cycle_clauses(&cell.locked, &mut cycles, &k);
            }
            layers.no_cycle_clauses += cycles.num_clauses() as u64;
        }
        AttackKind::DoubleDip => {}
    }
    Ok(())
}

/// A pass order: the paper cells are fixed, the benchmark seed shuffles
/// the order they run in.
pub fn pass_order(n: usize, seed: u64, pass: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = SplitMix(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ pass);
    for i in (1..n).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

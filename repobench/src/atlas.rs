//! The `atlas_sweep` workload: the real `fulllock sweep --executor atlas`
//! coordinator and worker processes over 512 attack units.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use full_lock::atlas::AtlasUnitExecutor;
use full_lock::attacks::{certify_key, AttackOutcome, SatAttack, SatAttackConfig, SimOracle};
use full_lock::harness::sweep::segment::SampleRecord;
use full_lock::harness::sweep::worker::{count_settled, ExecContext, UnitExecutor};
use full_lock::harness::sweep::{fold_segments, SweepGrid, SweepPlan, WorkUnit};
use full_lock::locking::{FullLock, FullLockConfig, LockingScheme, PlrSpec, WireSelection};
use full_lock::netlist::random::{generate, RandomCircuitConfig};

use crate::attack::Layers;
use crate::trace::Trace;

/// Units in the main sweep.
pub const UNITS: usize = 512;
/// Worker processes (the host has two cores).
pub const WORKERS: usize = 2;
/// Per-unit attack budget handed to the sweep.
pub const UNIT_TIMEOUT_SECS: u64 = 20;
/// CLN size and host gate count of every unit.
const CLN: u64 = 4;
const GATES: u64 = 24;

/// The sweep's base seed. The executor XORs it into each unit's `seed`
/// param, so a base below `UNITS` permutes the 512 host circuits of the
/// grid `seed=0..511` over the units: the instance set stays the same for
/// every benchmark seed (runs compare), the seed decides which unit runs
/// which circuit, and so the order the workers meet them in.
pub fn base_seed(seed: u64) -> u64 {
    seed % UNITS as u64
}

/// The grid over host circuits: one unit per `seed` param value.
fn grid_spec(params: &[u64]) -> String {
    let seeds: Vec<String> = params.iter().map(u64::to_string).collect();
    format!("cln={CLN};gates={GATES};seed={}", seeds.join(","))
}

/// The main sweep's `seed` params: the grid `seed=0..511`.
pub fn main_params() -> Vec<u64> {
    (0..UNITS as u64).collect()
}

/// `seed` params whose units run host circuits `0..k` under this seed.
pub fn probe_params(k: usize, seed: u64) -> Vec<u64> {
    (0..k as u64).map(|c| c ^ base_seed(seed)).collect()
}

/// The plan the sweep runs, rebuilt in-process for the re-run checks.
pub fn plan(seed: u64) -> SweepPlan {
    let grid = SweepGrid::parse_spec("bench-atlas", &grid_spec(&main_params()))
        .expect("the generated grid spec is well formed");
    let mut plan = SweepPlan::new(grid);
    plan.executor = "atlas".into();
    plan.unit_timeout_secs = UNIT_TIMEOUT_SECS as f64;
    plan.seed = base_seed(seed);
    plan
}

/// One finished `fulllock sweep` launch.
pub struct SweepRun {
    /// Launch to coordinator exit.
    pub wall: Duration,
    /// Launch to the first settle marker.
    pub first_settle: Duration,
    /// Records folded first-wins per unit.
    pub records: Vec<SampleRecord>,
    pub duplicates: usize,
    pub stolen: usize,
    pub speculative: usize,
    pub respawns: u64,
}

/// Launches `fulllock sweep` over the grid `params` in a fresh directory under
/// `out`, waits for it, folds its segments and removes the directory.
///
/// # Errors
///
/// A coordinator that fails to start or exits non-zero, or unreadable
/// sweep state.
pub fn launch(
    fulllock: &Path,
    out: &Path,
    tag: &str,
    params: &[u64],
    seed: u64,
) -> Result<SweepRun, String> {
    let dir: PathBuf = out.join(format!("sweep-{tag}"));
    let log_path = out.join(format!("sweep-{tag}.log"));
    let _ = std::fs::remove_dir_all(&dir);
    let log =
        std::fs::File::create(&log_path).map_err(|e| format!("{}: {e}", log_path.display()))?;
    let log_err = log
        .try_clone()
        .map_err(|e| format!("{}: {e}", log_path.display()))?;
    let start = Instant::now();
    let mut child = Command::new(fulllock)
        .arg("sweep")
        .args(["--grid", &grid_spec(params)])
        .args(["--name", "bench-atlas", "--executor", "atlas"])
        .args(["--workers", &WORKERS.to_string()])
        .args(["--unit-timeout-secs", &UNIT_TIMEOUT_SECS.to_string()])
        .args(["--seed", &base_seed(seed).to_string()])
        .args(["--max-wall-secs", "150"])
        .arg("--out-dir")
        .arg(&dir)
        .stdin(Stdio::null())
        .stdout(Stdio::from(log))
        .stderr(Stdio::from(log_err))
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", fulllock.display()))?;
    let mut first_settle = None;
    let status = loop {
        if first_settle.is_none() && count_settled(&dir) > 0 {
            first_settle = Some(start.elapsed());
        }
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) => std::thread::sleep(Duration::from_millis(if first_settle.is_none() {
                1
            } else {
                20
            })),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("wait for sweep: {e}"));
            }
        }
    };
    let wall = start.elapsed();
    let log_text = std::fs::read_to_string(&log_path).unwrap_or_default();
    if !status.success() {
        return Err(format!("sweep exited {status}: {log_text}"));
    }
    let fold = fold_segments(&dir).map_err(|e| format!("fold segments: {e}"))?;
    let respawns = log_text
        .lines()
        .find_map(|l| l.strip_prefix("sweep done: "))
        .and_then(|l| l.split_once(" respawn"))
        .and_then(|(head, _)| head.rsplit_once('(').map(|(_, n)| n.trim().to_string()))
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| format!("no respawn count in the coordinator log: {log_text}"))?;
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&log_path);
    Ok(SweepRun {
        wall,
        first_settle: first_settle.unwrap_or(wall),
        duplicates: fold.duplicates,
        stolen: fold.stolen,
        speculative: fold.speculative,
        records: fold.samples.into_values().collect(),
        respawns,
    })
}

/// Checks a sweep settled each unit exactly once with a known verdict.
/// Returns the count of recovered units.
///
/// # Errors
///
/// Missing or duplicated units, or a verdict other than recovered/timeout.
pub fn check_settlement(run: &SweepRun, units: usize) -> Result<usize, String> {
    if run.records.len() != units {
        return Err(format!("{} samples for {units} units", run.records.len()));
    }
    if run.duplicates != 0 {
        return Err(format!("{} duplicate records", run.duplicates));
    }
    let mut recovered = 0;
    for r in &run.records {
        match r.verdict.as_str() {
            "recovered" => recovered += 1,
            "timeout" => {}
            other => return Err(format!("{}: verdict {other}", r.unit)),
        }
    }
    Ok(recovered)
}

/// One unit rebuilt in-process the way the atlas executor builds it, then
/// attacked with `SatAttack` so its DIPs and key are visible.
pub struct Replica {
    pub host: full_lock::netlist::Netlist,
    pub locked: full_lock::locking::LockedCircuit,
    /// Time spent generating the host and locking it.
    pub generate: Duration,
    pub lock: Duration,
}

/// Rebuilds a unit's host and lock (host generation and `FullLock::lock`
/// exactly as `AtlasUnitExecutor` does them).
///
/// # Errors
///
/// A unit whose host or lock cannot be built.
pub fn replica(plan: &SweepPlan, unit: &WorkUnit) -> Result<Replica, String> {
    let param = |k: &str| -> Result<u64, String> {
        unit.param(k)
            .ok_or_else(|| format!("{}: no {k}", unit.id))?
            .parse()
            .map_err(|e| format!("{}: {k}: {e}", unit.id))
    };
    let seed = plan.seed ^ param("seed")?;
    let start = Instant::now();
    let host = generate(RandomCircuitConfig {
        inputs: 12,
        outputs: 6,
        gates: param("gates")? as usize,
        max_fanin: 3,
        seed,
    })
    .map_err(|e| format!("{}: host: {e}", unit.id))?;
    let generate = start.elapsed();
    let start = Instant::now();
    let locked = FullLock::new(FullLockConfig {
        plrs: vec![PlrSpec::new(param("cln")? as usize)],
        selection: WireSelection::Acyclic,
        twist_probability: 0.5,
        seed: seed.wrapping_add(1),
    })
    .lock(&host)
    .map_err(|e| format!("{}: lock: {e}", unit.id))?;
    Ok(Replica {
        host,
        locked,
        generate,
        lock: start.elapsed(),
    })
}

/// The atlas executor's attack configuration.
pub fn unit_config() -> SatAttackConfig {
    SatAttackConfig {
        timeout: Some(Duration::from_secs(UNIT_TIMEOUT_SECS)),
        ..Default::default()
    }
}

/// Re-runs sampled units in-process and checks them against the sweep:
/// `AtlasUnitExecutor::execute` must spend the recorded conflicts, and
/// the replica must spend them too, recover a key, and have it certified
/// and proven. Returns the replicas' DIPs.
///
/// # Errors
///
/// The first disagreement.
pub fn check_sample(run: &SweepRun, plan: &SweepPlan, sample: &[usize]) -> Result<u64, String> {
    let executor = AtlasUnitExecutor::from_plan(plan);
    let units = plan.grid.units();
    let ctx = ExecContext {
        worker: "bench",
        stolen: false,
        speculative: false,
    };
    let mut dips = 0;
    for &i in sample {
        let unit = &units[i];
        let record = run
            .records
            .iter()
            .find(|r| r.unit == unit.id)
            .ok_or_else(|| format!("{}: no record", unit.id))?;
        let sample = executor.execute(unit, &ctx)?;
        if sample.conflicts != record.conflicts || sample.verdict != record.verdict {
            return Err(format!(
                "{}: in-process execute gave {} conflicts ({}), the sweep recorded {} ({})",
                unit.id, sample.conflicts, sample.verdict, record.conflicts, record.verdict
            ));
        }
        if record.verdict != "recovered" {
            continue;
        }
        let rep = replica(plan, unit)?;
        let oracle = SimOracle::new(&rep.host).map_err(|e| format!("oracle: {e}"))?;
        let report = SatAttack::new(&rep.locked, &oracle, unit_config())
            .and_then(|mut a| a.run())
            .map_err(|e| format!("{}: replica attack: {e}", unit.id))?;
        if report.solver.conflicts != record.conflicts {
            return Err(format!(
                "{}: replica spent {} conflicts, the sweep recorded {}; the replica no longer \
                 builds units the way AtlasUnitExecutor does",
                unit.id, report.solver.conflicts, record.conflicts
            ));
        }
        let AttackOutcome::KeyRecovered { key, .. } = &report.outcome else {
            return Err(format!("{}: replica ended {:?}", unit.id, report.outcome));
        };
        let certificate = certify_key(&rep.locked, &oracle, key, 64, 0xCE87);
        if !certificate.is_proven() {
            return Err(format!("{}: key not proven: {certificate:?}", unit.id));
        }
        dips += report.iterations;
    }
    Ok(dips)
}

/// The units that run host circuits `0..k` under this seed (unit `i`
/// runs circuit `i ^ base_seed`): a fixed instance sample, so the
/// re-checked work and its DIP count do not depend on the seed.
pub fn instance_units(k: usize, seed: u64) -> Vec<usize> {
    let base = base_seed(seed) as usize;
    let mut units: Vec<usize> = (0..k.min(UNITS)).map(|c| c ^ base).collect();
    units.sort_unstable();
    units
}

/// Timings of the traced in-process half of the atlas run.
pub struct InProcess {
    /// `AtlasUnitExecutor::execute` over every unit.
    pub exec: Duration,
    /// Host generation and locking of the traced sample.
    pub generate: Duration,
    pub lock: Duration,
}

/// The traced in-process half of the atlas run: every unit through
/// `AtlasUnitExecutor::execute` (the sweep layer's payload, timed), and
/// the sampled units' replicas through the traced DIP loop for the
/// per-layer solver and encoder numbers.
///
/// # Errors
///
/// A unit that fails to execute, or a traced replica that fails.
pub fn traced_in_process(
    plan: &SweepPlan,
    sample: &[usize],
    seed: u64,
    layers: &mut Layers,
    trace: &mut Trace,
) -> Result<InProcess, String> {
    let executor = AtlasUnitExecutor::from_plan(plan);
    let ctx = ExecContext {
        worker: "bench",
        stolen: false,
        speculative: false,
    };
    let units = plan.grid.units();
    let mut timings = InProcess {
        exec: Duration::ZERO,
        generate: Duration::ZERO,
        lock: Duration::ZERO,
    };
    for unit in &units {
        let span = trace.open("sweep.execute", &unit.id, None);
        let start = Instant::now();
        executor.execute(unit, &ctx)?;
        timings.exec += start.elapsed();
        trace.close(span);
    }
    for &i in sample {
        let unit = &units[i];
        let rep = replica(plan, unit)?;
        timings.generate += rep.generate;
        timings.lock += rep.lock;
        let cell = crate::cells::Cell {
            id: unit.id.clone(),
            attack: crate::cells::AttackKind::SatCone,
            host: rep.host,
            locked: rep.locked,
            cyclic: false,
        };
        let run =
            crate::attack::run_traced_with(&cell, seed, layers, trace, None, unit_config(), false);
        if let crate::attack::Verdict::Failed(why) = run.verdict {
            return Err(format!("{}: {why}", unit.id));
        }
    }
    Ok(timings)
}

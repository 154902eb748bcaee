//! The sweep coordinator: spawns worker processes, respawns casualties,
//! reconciles resumes, and folds segments into the final atlas.
//!
//! The coordinator is deliberately dumb about work distribution — the
//! lease files in the sweep directory are the only scheduler, so a
//! coordinator crash (or a partition between coordinator and workers)
//! never stalls unit migration. What the coordinator *does* own:
//!
//! * **Plan identity.** A resume recomputes the plan's config hash
//!   (which folds in the `FULLLOCK_*` ambient fingerprint) and refuses
//!   to continue a sweep whose parameters or environment drifted.
//! * **Reconciliation.** On `--resume`, stale leases are cleared,
//!   settle markers without a valid folded record (a marker landed but
//!   the segment append tore) are deleted so those units re-run, and
//!   valid records without a marker are settled on the worker's behalf.
//! * **Worker lifecycle.** Dead workers are respawned under *fresh*
//!   worker names (their segments and leases are never reused); once
//!   every unit is settled, lingering workers get a grace period and
//!   are then killed — a straggling execution whose unit was already
//!   won by speculation must not hold the sweep open.
//! * **The fold.** Segments are folded first-wins, verified to cover
//!   every unit exactly once, aggregated into percentile summaries
//!   (`atlas.json`) and a compact columnar store (`columns.json`).

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::process::Stdio;
use std::time::{Duration, Instant};

use crate::child::{self, LiveChild};
use crate::sweep::aggregate::{aggregate, write_columns, SweepAggregates};
use crate::sweep::grid::SweepPlan;
use crate::sweep::lease::LeaseDir;
use crate::sweep::segment::{fold_segments, SegmentFold};
use crate::sweep::worker::{count_settled, is_settled, remove_marker, try_settle, WorkerArgs};
use crate::{HarnessError, Result};

/// How a coordinator runs a sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Sweep directory (plan, leases, segments, markers, atlas).
    pub out_dir: PathBuf,
    /// Worker processes to keep alive.
    pub workers: usize,
    /// Program spawned per worker (usually the current executable).
    pub worker_program: PathBuf,
    /// Arguments placed before the generated worker flags (e.g.
    /// `["sweep-worker"]` to select the subcommand).
    pub worker_args_prefix: Vec<String>,
    /// Extra environment for workers, on top of the inherited one.
    pub worker_env: Vec<(String, String)>,
    /// Lease time-to-live handed to workers.
    pub lease_ttl: Duration,
    /// Coordinator poll interval (reap + progress checks).
    pub poll: Duration,
    /// Continue an existing sweep directory instead of requiring a
    /// fresh one.
    pub resume: bool,
    /// Respawn budget for dead workers across the whole run.
    pub max_respawns: usize,
    /// Bounded re-run rounds for orphan markers discovered at fold
    /// time (marker present, record torn).
    pub max_rerun_rounds: usize,
    /// Overall wall-clock budget; exceeding it kills the fleet and
    /// fails the sweep. `None` means unbounded.
    pub max_wall: Option<Duration>,
    /// Grace period for workers to exit on their own after the last
    /// unit settles, before they are killed.
    pub shutdown_grace: Duration,
    /// Speculation age floor handed to workers.
    pub speculation_min_age: Duration,
    /// Speculation p95 factor handed to workers.
    pub speculation_factor: f64,
    /// Ambient `FULLLOCK_*` fingerprint override (`None` reads the
    /// current process environment).
    pub ambient_hash: Option<u64>,
}

impl SweepConfig {
    /// A config with house defaults for `out_dir`, spawning
    /// `worker_program` with `worker_args_prefix`.
    pub fn new(
        out_dir: impl Into<PathBuf>,
        worker_program: impl Into<PathBuf>,
        worker_args_prefix: Vec<String>,
    ) -> SweepConfig {
        SweepConfig {
            out_dir: out_dir.into(),
            workers: 4,
            worker_program: worker_program.into(),
            worker_args_prefix,
            worker_env: Vec::new(),
            lease_ttl: Duration::from_millis(2000),
            poll: Duration::from_millis(50),
            resume: false,
            max_respawns: 16,
            max_rerun_rounds: 3,
            max_wall: Some(Duration::from_secs(1800)),
            shutdown_grace: Duration::from_millis(1500),
            speculation_min_age: Duration::from_millis(500),
            speculation_factor: 4.0,
            ambient_hash: None,
        }
    }
}

/// What resume reconciliation found and repaired.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResumeReport {
    /// Units already settled with a valid record (skipped entirely).
    pub settled: usize,
    /// Orphan markers removed (marker present, record missing or torn —
    /// those units re-run).
    pub orphans_cleared: usize,
    /// Valid records that were missing their marker (settled on the
    /// recovering worker's behalf).
    pub records_settled: usize,
    /// Stale lease files cleared.
    pub leases_cleared: usize,
}

/// The coordinator's account of a finished sweep.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// Final aggregates (also persisted to `atlas.json`).
    pub aggregates: SweepAggregates,
    /// Where the aggregates were written.
    pub atlas_path: PathBuf,
    /// Where the columnar samples were written.
    pub columns_path: PathBuf,
    /// Dead workers respawned.
    pub respawns: usize,
    /// Orphan-marker re-run rounds that were needed.
    pub rerun_rounds: usize,
    /// Reconciliation performed before the run (all zero on a fresh
    /// sweep).
    pub resume: ResumeReport,
    /// Total coordinator wall time.
    pub elapsed: Duration,
}

fn io_err(path: &Path, what: &str, e: io::Error) -> HarnessError {
    HarnessError::Io {
        path: path.to_path_buf(),
        message: format!("{what}: {e}"),
    }
}

/// Reconciles an interrupted sweep directory back to a consistent
/// state: every unit either has (valid record + marker) or (neither).
/// Stale leases are cleared — no worker is running when this is called.
pub fn reconcile_resume(dir: &Path, plan: &SweepPlan) -> Result<ResumeReport> {
    let mut report = ResumeReport::default();
    let leases = LeaseDir::new(dir, "coordinator", 0);
    report.leases_cleared = leases
        .clear_all()
        .map_err(|e| io_err(dir, "clear stale leases", e))?;
    let fold = fold_segments(dir).map_err(|e| io_err(dir, "fold segments", e))?;
    for unit in plan.grid.units() {
        let has_record = fold.samples.contains_key(&unit.id);
        let has_marker = is_settled(dir, &unit.id);
        match (has_record, has_marker) {
            (true, true) => report.settled += 1,
            (true, false) => {
                // The worker appended durably but died before the
                // marker; its result is valid — settle it.
                try_settle(dir, &unit.id, "coordinator")
                    .map_err(|e| io_err(dir, "settle recovered record", e))?;
                report.settled += 1;
                report.records_settled += 1;
            }
            (false, true) => {
                // Marker without a record: the append tore (or was
                // injected to tear) after reporting success. The marker
                // lies; remove it so the unit re-runs.
                remove_marker(dir, &unit.id).map_err(|e| io_err(dir, "clear orphan marker", e))?;
                report.orphans_cleared += 1;
            }
            (false, false) => {}
        }
    }
    Ok(report)
}

struct Fleet {
    children: Vec<(usize, LiveChild)>,
    next_index: usize,
    respawns: usize,
}

impl Fleet {
    fn spawn_one(&mut self, config: &SweepConfig) -> Result<()> {
        let index = self.next_index;
        self.next_index += 1;
        let worker_args = WorkerArgs {
            dir: config.out_dir.clone(),
            worker_index: index,
            lease_ttl_millis: config.lease_ttl.as_millis() as u64,
            poll_millis: config.poll.as_millis().max(1) as u64,
            spec_min_age_millis: config.speculation_min_age.as_millis() as u64,
            spec_factor: config.speculation_factor,
        };
        let logs = config.out_dir.join("logs");
        std::fs::create_dir_all(&logs).map_err(|e| io_err(&logs, "create logs dir", e))?;
        let log_path = logs.join(format!("w{index}.log"));
        let log = std::fs::File::create(&log_path)
            .map_err(|e| io_err(&log_path, "create worker log", e))?;
        let log_err = log
            .try_clone()
            .map_err(|e| io_err(&log_path, "clone worker log", e))?;
        let child = child::spawn(
            &config.worker_program,
            config
                .worker_args_prefix
                .iter()
                .cloned()
                .chain(worker_args.to_args()),
            config.worker_env.iter().map(|(k, v)| (k, v)),
            Stdio::from(log),
            Stdio::from(log_err),
        )
        .map_err(|e| io_err(&config.worker_program, "spawn worker", e))?;
        self.children.push((index, child));
        Ok(())
    }

    /// Reaps exited children; returns how many died abnormally. Workers
    /// are never asked to stop here, and one whose status cannot be read
    /// counts as alive.
    fn reap(&mut self) -> usize {
        let mut casualties = 0;
        self.children
            .retain_mut(|(index, child)| match child.poll(None) {
                Ok(Some(status)) => {
                    if !status.success() {
                        eprintln!("sweep: worker w{index} died: {status}");
                        casualties += 1;
                    }
                    false
                }
                Ok(None) | Err(_) => true,
            });
        casualties
    }

    fn kill_all(&mut self) {
        for (_, mut child) in self.children.drain(..) {
            child.kill();
        }
    }
}

/// Runs a sweep end to end: persist/verify the plan, reconcile (on
/// resume), run the worker fleet to full settlement, bounded re-run
/// rounds for orphan markers, final fold + aggregation.
///
/// # Errors
///
/// Fails on plan/environment drift during resume, an exhausted respawn
/// or re-run budget, the wall-clock budget, and any coordinator-side IO
/// failure. The sweep directory is left intact for `--resume` in every
/// failure mode.
pub fn run_sweep(plan: &SweepPlan, config: &SweepConfig) -> Result<SweepOutcome> {
    let started = Instant::now();
    plan.validate()?;
    if config.workers == 0 {
        return Err(HarnessError::PlanFormat {
            path: None,
            message: "sweep needs at least one worker".to_string(),
        });
    }
    let dir = &config.out_dir;
    std::fs::create_dir_all(dir).map_err(|e| io_err(dir, "create sweep dir", e))?;
    let ambient = config
        .ambient_hash
        .unwrap_or_else(crate::plan::current_ambient_fingerprint);

    let plan_path = crate::sweep::grid::plan_path(dir);
    let mut resume_report = ResumeReport::default();
    if plan_path.exists() {
        if !config.resume {
            return Err(HarnessError::PlanFormat {
                path: Some(plan_path),
                message: "sweep directory already holds a plan; pass resume to continue it"
                    .to_string(),
            });
        }
        let (stored_plan, stored_hash) = SweepPlan::load(dir)?;
        let current_hash = plan.config_hash(ambient);
        if stored_hash != current_hash {
            let drift = if stored_plan.config_hash(ambient) == stored_hash {
                "the sweep parameters changed"
            } else {
                "the FULLLOCK_* environment drifted since the sweep started"
            };
            return Err(HarnessError::PlanFormat {
                path: Some(plan_path),
                message: format!(
                    "refusing to resume: {drift} (stored config hash {stored_hash:016x}, \
                     current {current_hash:016x})"
                ),
            });
        }
        resume_report = reconcile_resume(dir, plan)?;
    } else {
        plan.save(dir, ambient)?;
    }

    let units = plan.grid.unit_count();
    let mut fleet = Fleet {
        children: Vec::new(),
        next_index: 0,
        respawns: 0,
    };
    let mut rerun_rounds = 0usize;

    let outcome = loop {
        // Keep the fleet at strength until every unit is settled.
        while fleet.children.len() < config.workers && count_settled(dir) < units {
            fleet.spawn_one(config)?;
        }
        loop {
            let casualties = fleet.reap();
            if casualties > 0 && count_settled(dir) < units {
                for _ in 0..casualties {
                    if fleet.respawns >= config.max_respawns {
                        fleet.kill_all();
                        return Err(HarnessError::Io {
                            path: dir.clone(),
                            message: format!(
                                "respawn budget exhausted ({} respawns) with {}/{units} units settled",
                                fleet.respawns,
                                count_settled(dir)
                            ),
                        });
                    }
                    fleet.respawns += 1;
                    fleet.spawn_one(config)?;
                }
            }
            if count_settled(dir) >= units {
                break;
            }
            if fleet.children.is_empty() {
                return Err(HarnessError::Io {
                    path: dir.clone(),
                    message: format!(
                        "all workers exited with {}/{units} units settled",
                        count_settled(dir)
                    ),
                });
            }
            if let Some(max_wall) = config.max_wall {
                if started.elapsed() > max_wall {
                    fleet.kill_all();
                    return Err(HarnessError::Io {
                        path: dir.clone(),
                        message: format!(
                            "sweep exceeded wall budget {:.0?} with {}/{units} units settled \
                             (directory kept for resume)",
                            max_wall,
                            count_settled(dir)
                        ),
                    });
                }
            }
            std::thread::sleep(config.poll);
        }

        // All units settled. Let workers drain on their own, then kill
        // stragglers: an execution that lost its race (a neutralized
        // straggler) must not hold the sweep open.
        let grace_until = Instant::now() + config.shutdown_grace;
        while !fleet.children.is_empty() && Instant::now() < grace_until {
            fleet.reap();
            std::thread::sleep(config.poll);
        }
        fleet.kill_all();

        // Fold and check marker/record agreement: a torn append can
        // leave a marker whose record never landed. Bounded re-runs.
        let fold = fold_segments(dir).map_err(|e| io_err(dir, "fold segments", e))?;
        let orphans = orphan_markers(dir, plan, &fold);
        if orphans.is_empty() {
            break finish(plan, dir, fold, units)?;
        }
        if rerun_rounds >= config.max_rerun_rounds {
            return Err(HarnessError::Io {
                path: dir.clone(),
                message: format!(
                    "{} units still lack a durable record after {rerun_rounds} re-run rounds",
                    orphans.len()
                ),
            });
        }
        rerun_rounds += 1;
        for unit in &orphans {
            remove_marker(dir, unit).map_err(|e| io_err(dir, "clear orphan marker", e))?;
        }
    };

    Ok(SweepOutcome {
        aggregates: outcome.0,
        atlas_path: outcome.1,
        columns_path: outcome.2,
        respawns: fleet.respawns,
        rerun_rounds,
        resume: resume_report,
        elapsed: started.elapsed(),
    })
}

/// Settle markers whose unit has no valid folded record.
fn orphan_markers(dir: &Path, plan: &SweepPlan, fold: &SegmentFold) -> Vec<String> {
    plan.grid
        .units()
        .into_iter()
        .filter(|unit| is_settled(dir, &unit.id) && !fold.samples.contains_key(&unit.id))
        .map(|unit| unit.id)
        .collect()
}

/// Final verification + persistence: exactly-once coverage, aggregate
/// summaries, columnar store.
fn finish(
    plan: &SweepPlan,
    dir: &Path,
    fold: SegmentFold,
    units: usize,
) -> Result<(SweepAggregates, PathBuf, PathBuf)> {
    let ids: BTreeMap<&String, ()> = fold.samples.keys().map(|k| (k, ())).collect();
    for unit in plan.grid.units() {
        if !ids.contains_key(&unit.id) {
            return Err(HarnessError::Io {
                path: dir.to_path_buf(),
                message: format!("unit {} settled without a folded record", unit.id),
            });
        }
    }
    if fold.samples.len() != units {
        return Err(HarnessError::Io {
            path: dir.to_path_buf(),
            message: format!(
                "fold holds {} samples for {units} units — exactly-once violated",
                fold.samples.len()
            ),
        });
    }
    let aggregates = aggregate(&fold, units);
    let atlas_path = dir.join("atlas.json");
    aggregates
        .save(&atlas_path)
        .map_err(|e| io_err(&atlas_path, "write atlas", e))?;
    let columns_path = dir.join("columns.json");
    write_columns(&columns_path, fold.samples.values())
        .map_err(|e| io_err(&columns_path, "write columns", e))?;
    Ok((aggregates, atlas_path, columns_path))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::grid::SweepGrid;
    use crate::sweep::segment::{SampleRecord, SegmentWriter};

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fulllock-coord-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    fn plan_of(units: usize) -> SweepPlan {
        let seeds: Vec<String> = (0..units).map(|i| i.to_string()).collect();
        SweepPlan::new(SweepGrid::new("t").axis("seed", seeds))
    }

    fn record(unit: &str) -> SampleRecord {
        SampleRecord {
            unit: unit.to_string(),
            worker: "w0".to_string(),
            stolen: false,
            speculative: false,
            verdict: "sat".to_string(),
            conflicts: 10,
            vars: 20,
            clauses: 60,
            clause_var_ratio: 3.0,
            wall_secs: 0.01,
        }
    }

    #[test]
    fn reconcile_repairs_markers_both_ways() {
        let dir = scratch("reconcile");
        let plan = plan_of(3);
        // unit-00000: record + marker (fine). unit-00001: record, no
        // marker (worker died pre-settle). unit-00002: marker, no
        // record (torn append) — the orphan.
        let mut seg = SegmentWriter::open(&dir, "w0", 0).expect("segment");
        seg.append(&record("unit-00000")).expect("append");
        seg.append(&record("unit-00001")).expect("append");
        try_settle(&dir, "unit-00000", "w0").expect("settle");
        try_settle(&dir, "unit-00002", "w0").expect("settle");
        let report = reconcile_resume(&dir, &plan).expect("reconcile");
        assert_eq!(report.settled, 2);
        assert_eq!(report.records_settled, 1);
        assert_eq!(report.orphans_cleared, 1);
        assert!(is_settled(&dir, "unit-00001"), "recovered record settled");
        assert!(!is_settled(&dir, "unit-00002"), "orphan marker cleared");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fresh_dir_refuses_to_run_without_resume_once_planned() {
        let dir = scratch("refuse");
        let plan = plan_of(2);
        plan.save(&dir, 7).expect("save plan");
        let config = SweepConfig::new(&dir, "/nonexistent-worker", vec![]);
        let err = run_sweep(&plan, &config).expect_err("must refuse");
        assert!(err.to_string().contains("resume"), "got: {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_detects_ambient_drift() {
        let dir = scratch("drift");
        let plan = plan_of(2);
        plan.save(&dir, 7).expect("save plan");
        let mut config = SweepConfig::new(&dir, "/nonexistent-worker", vec![]);
        config.resume = true;
        config.ambient_hash = Some(8); // drifted FULLLOCK_* fingerprint
        let err = run_sweep(&plan, &config).expect_err("must refuse");
        assert!(
            err.to_string().contains("environment drifted"),
            "got: {err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_detects_plan_change() {
        let dir = scratch("replan");
        plan_of(2).save(&dir, 7).expect("save plan");
        let changed = plan_of(3);
        let mut config = SweepConfig::new(&dir, "/nonexistent-worker", vec![]);
        config.resume = true;
        config.ambient_hash = Some(7);
        let err = run_sweep(&changed, &config).expect_err("must refuse");
        assert!(err.to_string().contains("parameters changed"), "got: {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn orphan_markers_lists_only_marker_without_record() {
        let dir = scratch("orphans");
        let plan = plan_of(2);
        let mut seg = SegmentWriter::open(&dir, "w0", 0).expect("segment");
        seg.append(&record("unit-00000")).expect("append");
        try_settle(&dir, "unit-00000", "w0").expect("settle");
        try_settle(&dir, "unit-00001", "w0").expect("settle");
        let fold = fold_segments(&dir).expect("fold");
        assert_eq!(orphan_markers(&dir, &plan, &fold), vec!["unit-00001"]);
        std::fs::remove_dir_all(&dir).ok();
    }
}

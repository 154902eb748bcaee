//! The campaign supervisor: runs plan jobs as isolated child processes
//! with timeouts, retries, bounded parallelism, and graceful degradation.
//!
//! Per job, the supervisor enforces a wall-clock budget (SIGTERM at the
//! deadline, SIGKILL after a grace period for children that ignore it)
//! and a bounded retry schedule with exponential backoff
//! ([`crate::retry::RetryPolicy`]) for *transient* failures — non-zero
//! exits and signal kills. *Permanent* failures (the program cannot be
//! spawned at all — bad config) are never retried. A job that exhausts
//! its budget is recorded as `failed`/`timed_out` and the campaign moves
//! on; one bad experiment no longer aborts a multi-hour sweep.
//!
//! Children run through the crate's one child runner; the supervisor
//! asks it to stop a child once that job's deadline has passed. Child
//! stdout/stderr go to per-attempt files under `<out_dir>/logs/`, and
//! every state transition atomically rewrites
//! `<out_dir>/campaign.json` (see [`crate::manifest`]) so a killed
//! supervisor can `--resume`.

use std::collections::VecDeque;
use std::fs::File;
use std::path::PathBuf;
use std::process::{ExitStatus, Stdio};
use std::time::{Duration, Instant};

use crate::child::{self, LiveChild};
use crate::manifest::{CampaignManifest, JobRecord, JobStatus};
use crate::plan::CampaignPlan;
use crate::retry::RetryPolicy;
use crate::{HarnessError, Result};

/// Supervisor knobs. The defaults suit the paper sweep on a laptop.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Maximum concurrently running jobs (`--jobs N`).
    pub parallelism: usize,
    /// Wall-clock budget for jobs without a per-job override.
    pub default_timeout: Duration,
    /// After SIGTERM, how long a child may linger before SIGKILL.
    pub grace: Duration,
    /// Retry schedule for transient failures; a job's
    /// [`max_attempts`](crate::plan::JobSpec::max_attempts) overrides the
    /// attempt budget.
    pub retry: RetryPolicy,
    /// Where the manifest (`campaign.json`) and `logs/` land.
    pub out_dir: PathBuf,
    /// Resume from an existing manifest: jobs already `succeeded` with an
    /// unchanged config hash are skipped, everything else re-runs.
    pub resume: bool,
    /// How often running children are polled (reap, RSS sample, deadline
    /// check).
    pub poll_interval: Duration,
    /// Ambient `FULLLOCK_*` fingerprint mixed into every job's config
    /// hash (see [`crate::plan::ambient_fingerprint`]); `None` (the
    /// default) fingerprints this process's actual environment. Because
    /// children inherit that environment, flipping e.g.
    /// `FULLLOCK_CERTIFY` between runs changes every job's effective
    /// config, and `--resume` re-runs them instead of skipping them as
    /// "unchanged". Tests inject a fixed value for determinism.
    pub ambient_hash: Option<u64>,
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig {
            parallelism: 1,
            default_timeout: Duration::from_secs(3600),
            grace: Duration::from_secs(2),
            retry: RetryPolicy::default(),
            out_dir: PathBuf::from("campaign"),
            resume: false,
            poll_interval: Duration::from_millis(20),
            ambient_hash: None,
        }
    }
}

/// Aggregate result of a finished campaign. Counts cover the plan's
/// jobs; `skipped` are resume-time skips of previously succeeded jobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignOutcome {
    /// Jobs in the plan.
    pub total: usize,
    /// Jobs that exited 0 this run.
    pub succeeded: usize,
    /// Jobs that exhausted their attempts (or failed permanently).
    pub failed: usize,
    /// Jobs whose final attempt exceeded its wall-clock budget.
    pub timed_out: usize,
    /// Jobs skipped on resume (already succeeded, config unchanged).
    pub skipped: usize,
    /// Where the manifest was written.
    pub manifest_path: PathBuf,
}

impl CampaignOutcome {
    /// True when every job of the plan ended well (succeeded or skipped).
    pub fn all_succeeded(&self) -> bool {
        self.failed == 0 && self.timed_out == 0
    }

    /// `"success"`, `"partial"` (some jobs failed but others finished),
    /// or `"failed"` (nothing finished).
    pub fn status_word(&self) -> &'static str {
        if self.all_succeeded() {
            "success"
        } else if self.succeeded + self.skipped > 0 {
            "partial"
        } else {
            "failed"
        }
    }
}

/// A queued execution: the job at `idx` in the plan, about to run its
/// `attempt`-th attempt once `eligible_at` passes (backoff).
struct QueuedRun {
    idx: usize,
    attempt: u32,
    eligible_at: Instant,
}

/// A live child process under supervision.
struct RunningJob {
    idx: usize,
    attempt: u32,
    child: LiveChild,
    started: Instant,
    deadline: Instant,
    timed_out: bool,
}

/// Runs the whole plan under the wall clock. See the module docs for
/// the supervision semantics.
///
/// # Errors
///
/// Only supervisor-level problems are errors (invalid plan, unreadable
/// manifest, filesystem failures on the output directory). Job failures
/// are recorded in the manifest and reflected in the
/// [`CampaignOutcome`], not raised.
pub fn run_campaign(plan: &CampaignPlan, config: &SupervisorConfig) -> Result<CampaignOutcome> {
    plan.validate()?;
    let logs_dir = config.out_dir.join("logs");
    std::fs::create_dir_all(&logs_dir).map_err(|e| HarnessError::Io {
        path: logs_dir.clone(),
        message: format!("create logs directory: {e}"),
    })?;
    let manifest_path = config.out_dir.join("campaign.json");

    // Reconcile a previous manifest (resume) or start fresh.
    let mut manifest = if config.resume && manifest_path.exists() {
        CampaignManifest::load(&manifest_path)?
    } else {
        CampaignManifest::new(&plan.name)
    };
    let ambient = config
        .ambient_hash
        .unwrap_or_else(crate::plan::current_ambient_fingerprint);
    let mut queue: VecDeque<QueuedRun> = VecDeque::new();
    let start = Instant::now();
    for (idx, job) in plan.jobs.iter().enumerate() {
        let hash = job.config_hash_with(ambient);
        let prior = manifest.job(&job.id);
        let already_done = config.resume
            && prior.is_some_and(|rec| {
                rec.config_hash == hash
                    && matches!(rec.status, JobStatus::Succeeded | JobStatus::Skipped)
            });
        if already_done {
            let rec = manifest
                .job_mut(&job.id)
                .expect("record existence checked above");
            if rec.status != JobStatus::Skipped {
                rec.status = JobStatus::Skipped;
                manifest.push_event(&job.id, 0, JobStatus::Skipped.as_str());
            }
        } else {
            // Fresh record: an interrupted (`running`), failed, timed-out,
            // pending, or config-drifted entry re-runs from scratch.
            manifest.upsert(JobRecord::new(&job.id, hash));
            queue.push_back(QueuedRun {
                idx,
                attempt: 1,
                eligible_at: start,
            });
        }
    }
    manifest.save(&manifest_path)?;

    let parallelism = config.parallelism.max(1);
    let mut running: Vec<RunningJob> = Vec::new();
    while !queue.is_empty() || !running.is_empty() {
        let now = Instant::now();

        // Reap finished children and enforce deadlines: past its
        // deadline a job is asked to stop (SIGTERM, then SIGKILL after
        // the grace period).
        let mut i = 0;
        while i < running.len() {
            let slot = &mut running[i];
            let overdue = now >= slot.deadline;
            let end = match slot.child.poll(overdue.then_some(config.grace)) {
                Ok(None) => {
                    slot.timed_out |= overdue;
                    i += 1;
                    continue;
                }
                Ok(Some(status)) => Ok(status),
                Err(e) => {
                    slot.child.kill();
                    Err(format!("wait failed: {e}"))
                }
            };
            let slot = running.swap_remove(i);
            finish_attempt(
                plan,
                config,
                &mut manifest,
                &manifest_path,
                &mut queue,
                slot,
                end,
            )?;
        }

        // Fill free slots with eligible queued runs.
        while running.len() < parallelism {
            let Some(pos) = queue.iter().position(|q| q.eligible_at <= now) else {
                break;
            };
            let queued = queue.remove(pos).expect("position comes from the queue");
            start_attempt(
                plan,
                config,
                &mut manifest,
                &manifest_path,
                &mut running,
                queued,
            )?;
        }

        if queue.is_empty() && running.is_empty() {
            break;
        }
        let sleep = if running.is_empty() {
            // Everything left is backing off: sleep straight to the
            // earliest eligibility.
            queue
                .iter()
                .map(|q| q.eligible_at.saturating_duration_since(now))
                .min()
                .unwrap_or(config.poll_interval)
                .max(Duration::from_millis(1))
        } else {
            config.poll_interval
        };
        std::thread::sleep(sleep);
    }

    manifest.save(&manifest_path)?;
    Ok(CampaignOutcome {
        total: plan.jobs.len(),
        succeeded: manifest.count(JobStatus::Succeeded),
        failed: manifest.count(JobStatus::Failed),
        timed_out: manifest.count(JobStatus::TimedOut),
        skipped: manifest.count(JobStatus::Skipped),
        manifest_path,
    })
}

/// Spawns one attempt of a queued job, or records a permanent failure if
/// the program cannot be spawned at all (bad config — never retried).
fn start_attempt(
    plan: &CampaignPlan,
    config: &SupervisorConfig,
    manifest: &mut CampaignManifest,
    manifest_path: &std::path::Path,
    running: &mut Vec<RunningJob>,
    queued: QueuedRun,
) -> Result<()> {
    let job = &plan.jobs[queued.idx];
    let stdout_rel = format!("logs/{}.attempt{}.stdout.log", job.id, queued.attempt);
    let stderr_rel = format!("logs/{}.attempt{}.stderr.log", job.id, queued.attempt);
    let open = |rel: &str| {
        let path = config.out_dir.join(rel);
        File::create(&path).map_err(|e| HarnessError::Io {
            path,
            message: format!("create log file: {e}"),
        })
    };
    let stdout = open(&stdout_rel)?;
    let stderr = open(&stderr_rel)?;

    let rec = manifest
        .job_mut(&job.id)
        .expect("every plan job was upserted before the loop");
    rec.attempts = queued.attempt;
    rec.stdout_log = Some(stdout_rel);
    rec.stderr_log = Some(stderr_rel);
    let spawned = child::spawn(
        &job.program,
        &job.args,
        job.env.iter().map(|(k, v)| (k, v)),
        Stdio::from(stdout),
        Stdio::from(stderr),
    );
    match spawned {
        Ok(child) => {
            rec.status = JobStatus::Running;
            manifest.push_event(&job.id, queued.attempt, JobStatus::Running.as_str());
            let now = Instant::now();
            running.push(RunningJob {
                idx: queued.idx,
                attempt: queued.attempt,
                child,
                started: now,
                deadline: now + job.timeout(config.default_timeout),
                timed_out: false,
            });
        }
        Err(e) => {
            rec.status = JobStatus::Failed;
            rec.last_error = Some(format!("spawn failed: {e} (permanent, not retried)"));
            manifest.push_event(&job.id, queued.attempt, JobStatus::Failed.as_str());
        }
    }
    manifest.save(manifest_path)
}

/// Records a finished attempt — its exit status, or why it could not be
/// waited for: success, retry with backoff, or final failure/timeout.
fn finish_attempt(
    plan: &CampaignPlan,
    config: &SupervisorConfig,
    manifest: &mut CampaignManifest,
    manifest_path: &std::path::Path,
    queue: &mut VecDeque<QueuedRun>,
    slot: RunningJob,
    end: std::result::Result<ExitStatus, String>,
) -> Result<()> {
    let job = &plan.jobs[slot.idx];
    let now = Instant::now();
    let rec = manifest
        .job_mut(&job.id)
        .expect("every plan job was upserted before the loop");
    rec.duration_secs += now.duration_since(slot.started).as_secs_f64();
    if let Some(rss) = slot.child.peak_rss_kb() {
        rec.peak_rss_kb = Some(rec.peak_rss_kb.unwrap_or(0).max(rss));
    }
    let status = end.as_ref().ok().copied();
    rec.exit_code = status.and_then(|s| s.code()).map(i64::from);
    rec.signal = child::exit_signal(status);

    let succeeded = !slot.timed_out && status.is_some_and(|s| s.success());
    if succeeded {
        rec.status = JobStatus::Succeeded;
        rec.last_error = None;
        manifest.push_event(&job.id, slot.attempt, JobStatus::Succeeded.as_str());
        return manifest.save(manifest_path);
    }

    let reason = if slot.timed_out {
        "wall-clock budget exceeded".to_string()
    } else if let Err(message) = end {
        message
    } else {
        match (rec.exit_code, rec.signal) {
            (Some(code), _) => format!("exited with status {code}"),
            (None, Some(sig)) => format!("killed by signal {sig}"),
            (None, None) => "terminated abnormally".to_string(),
        }
    };
    rec.last_error = Some(reason);

    // Transient failure (non-zero exit, signal kill, timeout): retry
    // with exponential backoff while the attempt budget lasts.
    if let Some(delay) = job.retry_policy(config.retry).delay_after(slot.attempt) {
        rec.status = JobStatus::Pending;
        manifest.push_event(&job.id, slot.attempt, "retrying");
        queue.push_back(QueuedRun {
            idx: slot.idx,
            attempt: slot.attempt + 1,
            eligible_at: now + delay,
        });
    } else {
        let terminal = if slot.timed_out {
            JobStatus::TimedOut
        } else {
            JobStatus::Failed
        };
        rec.status = terminal;
        manifest.push_event(&job.id, slot.attempt, terminal.as_str());
    }
    manifest.save(manifest_path)
}

//! The `fulllock serve` daemon: listener, worker pool, quota ledger,
//! graceful drain.
//!
//! One thread accepts connections (Unix or TCP socket, newline-delimited
//! JSON — see [`super::protocol`]) and hands each to a short-lived
//! handler thread; a bounded pool of worker threads pulls pending jobs
//! off the [`super::queue::ShardedQueue`] in FIFO order and runs each as
//! a supervised child process through the crate's child runner, the same
//! one the campaign supervisor uses. A worker asks its child to stop
//! (SIGTERM → grace → SIGKILL) on cancel, drain, or the job's deadline;
//! failed attempts retry with backoff.
//!
//! ## Tenancy
//!
//! Every job belongs to a tenant, and every tenant has a
//! [`TenantQuota`]: an in-flight job cap enforced at *submit* time (an
//! over-quota submission is refused with a typed `concurrency_full`
//! error rather than queued) and cumulative conflict/wall budgets
//! enforced at submit and launch time. Completed jobs charge the solver
//! conflicts parsed from their `report.json` (if the child wrote one)
//! plus their wall time; charges are persisted per job and preloaded on
//! restart, so a tenant cannot reset its ledger by killing the server.
//!
//! ## Drain and crash recovery
//!
//! When the shutdown flag flips (SIGTERM in the CLI), the server stops
//! accepting connections, SIGTERMs in-flight children (attack jobs write
//! an `AttackCheckpoint` on the way down), re-queues those jobs as
//! `pending`/`interrupted` without consuming an attempt, flushes every
//! queue shard, and returns. A SIGKILL gets no courtesy, but the queue
//! is sealed-and-synced at every transition, so a restarted server
//! replays the same recovery path from disk: `running` jobs re-queue and
//! resume from their checkpoints, `done` jobs stay done — completions
//! are recorded exactly once.
//!
//! ## Overload and environment hardening
//!
//! The daemon assumes hostile clients and a hostile disk:
//!
//! * **Admission control** — submissions beyond
//!   [`ServiceConfig::max_pending`] queued jobs are refused with a typed
//!   `overloaded` error instead of queued, and connections beyond
//!   [`ServiceConfig::max_connections`] are turned away the same way, so
//!   load is shed at the edge and admitted jobs keep their latency.
//! * **Socket deadlines** — request lines are read in short timeout
//!   slices against a per-line deadline ([`ServiceConfig::io_timeout`]):
//!   a slow-loris client trickling bytes is disconnected with
//!   `deadline_exceeded`, an idle connection is closed quietly, and a
//!   line over [`ServiceConfig::max_request_line`] is refused with
//!   `request_too_large` before it can exhaust memory.
//! * **Accept backoff** — persistent `accept()` errors (EMFILE and
//!   friends) back the accept loop off exponentially instead of
//!   hot-spinning a warning loop.
//! * **Disk faults** — every queue seal runs through the `queue.seal` /
//!   `persist.write` / `persist.sync` fault sites. A shard that cannot
//!   be sealed is quarantined: submissions routed to it are refused with
//!   `shard_quarantined` (never acked-but-unsealed), and the watchdog
//!   retries the seal until the shard recovers.
//! * **Self-observation** — the `health` verb reports queue depth,
//!   worker liveness, quota pressure, connection load, and last-persist
//!   status; a watchdog thread recycles workers whose heartbeat goes
//!   stale past [`ServiceConfig::watchdog_timeout`].
//!
//! ## Fault injection
//!
//! Workers evaluate the [`fault site`](fulllock_sat::faults::site::SERVICE_WORKER)
//! `service.worker` before each launch (`panic` is caught and consumes
//! an attempt, `trigger` fails the launch spuriously, `delay:<ms>` slows
//! the worker), so the chaos suite can exercise the retry and recovery
//! paths deterministically. The disk-fault sites live further down the
//! stack, in [`crate::persist`] and [`super::queue`].

use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpListener;
#[cfg(unix)]
use std::os::unix::net::UnixListener;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::Stdio;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use fulllock_sat::faults::{self, FaultAction};
use fulllock_sat::{QuotaSpec, TenantQuota};

use crate::child;
use crate::retry::RetryPolicy;
use crate::service::protocol::{self, parse_request, ProtocolError, Request, PROTOCOL_VERSION};
use crate::service::queue::{JobState, ServiceJob, ShardedQueue};
use crate::{HarnessError, Result};

/// Where the daemon listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A Unix domain socket at this path (created at bind, removed on
    /// drain).
    Unix(PathBuf),
    /// A TCP address, e.g. `127.0.0.1:7171`.
    Tcp(String),
}

impl Endpoint {
    /// Parses a CLI endpoint: `tcp:HOST:PORT`, `unix:PATH`, or a bare
    /// filesystem path (treated as a Unix socket).
    pub fn parse(s: &str) -> std::result::Result<Endpoint, String> {
        if let Some(addr) = s.strip_prefix("tcp:") {
            if addr.is_empty() {
                return Err("empty TCP address".to_string());
            }
            Ok(Endpoint::Tcp(addr.to_string()))
        } else if let Some(path) = s.strip_prefix("unix:") {
            if path.is_empty() {
                return Err("empty socket path".to_string());
            }
            Ok(Endpoint::Unix(PathBuf::from(path)))
        } else if s.is_empty() {
            Err("empty endpoint".to_string())
        } else {
            Ok(Endpoint::Unix(PathBuf::from(s)))
        }
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Unix(p) => write!(f, "unix:{}", p.display()),
            Endpoint::Tcp(a) => write!(f, "tcp:{a}"),
        }
    }
}

/// Configuration of one `fulllock serve` instance.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Where to listen.
    pub endpoint: Endpoint,
    /// State directory: `queue/` shards and per-job `jobs/<id>/` scratch
    /// directories live here.
    pub state_dir: PathBuf,
    /// Worker threads executing jobs (≥ 1).
    pub workers: usize,
    /// Queue shard files (≥ 1; more shards = smaller rewrites per
    /// transition).
    pub shards: u32,
    /// Wall-clock budget per job attempt when the job has no override.
    pub default_timeout: Duration,
    /// SIGTERM-to-SIGKILL escalation window.
    pub grace: Duration,
    /// Retry policy for failed attempts (per-job `max_attempts`
    /// overrides the attempt cap).
    pub retry: RetryPolicy,
    /// Scheduler/reaper poll interval.
    pub poll_interval: Duration,
    /// Per-tenant quota overrides.
    pub quotas: Vec<(String, QuotaSpec)>,
    /// Quota for tenants with no override (default: unlimited).
    pub default_quota: QuotaSpec,
    /// Open-connection cap; connections beyond it are refused with a
    /// typed `overloaded` error.
    pub max_connections: usize,
    /// Pending-queue depth cap; submissions beyond it are refused with a
    /// typed `overloaded` error (admission control, not queuing).
    pub max_pending: usize,
    /// Per-request-line socket deadline: a line that has not completed
    /// within this window disconnects the client (`deadline_exceeded`
    /// when bytes arrived, silently when idle). Also the write timeout.
    pub io_timeout: Duration,
    /// Longest request line accepted, in bytes; beyond it the client is
    /// refused with `request_too_large` and disconnected.
    pub max_request_line: usize,
    /// Worker heartbeat staleness after which the watchdog declares the
    /// worker stuck and recycles its slot.
    pub watchdog_timeout: Duration,
}

impl ServiceConfig {
    /// A config with the given endpoint and state directory and
    /// defaults everywhere else: 2 workers, 4 shards, 1 h timeout, 2 s
    /// grace, default retry (2 attempts), 10 ms poll, unlimited quotas,
    /// 128 connections, 4096 pending jobs, 30 s socket deadline, 256 KiB
    /// request lines, 60 s worker watchdog.
    pub fn new(endpoint: Endpoint, state_dir: impl Into<PathBuf>) -> ServiceConfig {
        ServiceConfig {
            endpoint,
            state_dir: state_dir.into(),
            workers: 2,
            shards: 4,
            default_timeout: Duration::from_secs(3600),
            grace: Duration::from_secs(2),
            retry: RetryPolicy::default(),
            poll_interval: Duration::from_millis(10),
            quotas: Vec::new(),
            default_quota: QuotaSpec::unlimited(),
            max_connections: 128,
            max_pending: 4096,
            io_timeout: Duration::from_secs(30),
            max_request_line: 256 * 1024,
            watchdog_timeout: Duration::from_secs(60),
        }
    }
}

/// What a completed `serve` call reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeSummary {
    /// Jobs recovered from a previous server's death (were `running`).
    pub recovered: usize,
    /// Jobs accepted over this server's lifetime.
    pub submitted: u64,
    /// Jobs that reached `done` under this server.
    pub completed: u64,
    /// Jobs that reached `failed` under this server.
    pub failed: u64,
    /// Jobs that reached `canceled` under this server.
    pub canceled: u64,
    /// Jobs re-queued (interrupted mid-run) by the drain.
    pub drained: u64,
    /// Requests refused by admission control (`overloaded`).
    pub shed: u64,
    /// Stuck workers recycled by the watchdog.
    pub recycled: u64,
}

struct Counters {
    submitted: u64,
    completed: u64,
    failed: u64,
    canceled: u64,
    drained: u64,
    shed: u64,
}

/// Last-persist health, reported by the `health` verb.
struct PersistStatus {
    /// `false` after a failed save until the next one succeeds.
    healthy: bool,
    /// Saves that failed over the server's lifetime.
    failures: u64,
    /// What the most recent failure said.
    last_error: Option<String>,
}

struct Shared {
    config: ServiceConfig,
    queue: Mutex<ShardedQueue>,
    quotas: Mutex<HashMap<String, Arc<TenantQuota>>>,
    /// Running jobs asked to cancel; workers poll this.
    cancels: Mutex<HashSet<String>>,
    /// Jobs serving a retry backoff: not eligible before the instant.
    backoff: Mutex<HashMap<String, Instant>>,
    /// Flips when the shutdown flag is observed: stop accepting, stop
    /// picking, interrupt children.
    draining: AtomicBool,
    counters: Mutex<Counters>,
    /// Currently open connections (admission control + health).
    connections: AtomicUsize,
    /// When the server came up: uptime, and the heartbeat clock base.
    started: Instant,
    /// Per-worker-slot heartbeat, in milliseconds since `started`.
    heartbeats: Vec<AtomicU64>,
    /// Per-worker-slot generation: the watchdog bumps it to retire a
    /// stuck worker, whose loop exits at its next generation check.
    generations: Vec<AtomicU64>,
    /// Workers recycled by the watchdog over the server's lifetime.
    recycled: AtomicU64,
    /// Replacement worker threads the watchdog spawned (joined at drain).
    replacements: Mutex<Vec<std::thread::JoinHandle<()>>>,
    persist: Mutex<PersistStatus>,
}

impl Shared {
    fn quota(&self, tenant: &str) -> Arc<TenantQuota> {
        let mut quotas = lock(&self.quotas);
        if let Some(q) = quotas.get(tenant) {
            return Arc::clone(q);
        }
        let spec = self
            .config
            .quotas
            .iter()
            .find(|(t, _)| t == tenant)
            .map(|(_, s)| *s)
            .unwrap_or(self.config.default_quota);
        let q = Arc::new(TenantQuota::new(spec));
        quotas.insert(tenant.to_string(), Arc::clone(&q));
        q
    }

    /// Stamps the worker slot's heartbeat (milliseconds since start).
    fn beat(&self, slot: usize) {
        if let Some(beat) = self.heartbeats.get(slot) {
            beat.store(self.started.elapsed().as_millis() as u64, Ordering::Relaxed);
        }
    }

    /// Records a persistence outcome for the health report.
    fn note_persist<T>(&self, result: &Result<T>) {
        match result {
            Ok(_) => lock(&self.persist).healthy = true,
            Err(e) => self.note_persist_failure(&e.to_string()),
        }
    }

    /// Records a failed save for the health report.
    fn note_persist_failure(&self, message: &str) {
        let mut status = lock(&self.persist);
        status.healthy = false;
        status.failures += 1;
        status.last_error = Some(message.to_string());
    }

    /// Counts one admission-control refusal.
    fn shed_one(&self) {
        lock(&self.counters).shed += 1;
    }
}

/// Holds one slot of the open-connection count; dropping releases it.
struct ConnGuard<'a>(&'a Shared);

impl Drop for ConnGuard<'_> {
    fn drop(&mut self) {
        self.0.connections.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A poisoned lock means a worker panicked mid-section; the data is a
/// plain queue/ledger snapshot, still safe to read, and the server must
/// keep serving the other tenants.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

enum Listener {
    #[cfg(unix)]
    Unix(UnixListener),
    Tcp(TcpListener),
}

trait Conn: Read + Write + Send {
    fn try_clone_conn(&self) -> std::io::Result<Box<dyn Conn>>;
    /// Applies socket-level read/write timeouts (shared by clones of the
    /// same underlying socket).
    fn set_io_timeouts(
        &self,
        read: Option<Duration>,
        write: Option<Duration>,
    ) -> std::io::Result<()>;
}

#[cfg(unix)]
impl Conn for std::os::unix::net::UnixStream {
    fn try_clone_conn(&self) -> std::io::Result<Box<dyn Conn>> {
        Ok(Box::new(self.try_clone()?))
    }

    fn set_io_timeouts(
        &self,
        read: Option<Duration>,
        write: Option<Duration>,
    ) -> std::io::Result<()> {
        self.set_read_timeout(read)?;
        self.set_write_timeout(write)
    }
}

impl Conn for std::net::TcpStream {
    fn try_clone_conn(&self) -> std::io::Result<Box<dyn Conn>> {
        Ok(Box::new(self.try_clone()?))
    }

    fn set_io_timeouts(
        &self,
        read: Option<Duration>,
        write: Option<Duration>,
    ) -> std::io::Result<()> {
        self.set_read_timeout(read)?;
        self.set_write_timeout(write)
    }
}

impl Listener {
    fn bind(endpoint: &Endpoint) -> Result<Listener> {
        let io_err = |path: PathBuf, e: std::io::Error| HarnessError::Io {
            path,
            message: format!("bind: {e}"),
        };
        match endpoint {
            #[cfg(unix)]
            Endpoint::Unix(path) => {
                // A socket file left by a dead server would fail the bind.
                let _ = std::fs::remove_file(path);
                let l = UnixListener::bind(path).map_err(|e| io_err(path.clone(), e))?;
                l.set_nonblocking(true)
                    .map_err(|e| io_err(path.clone(), e))?;
                Ok(Listener::Unix(l))
            }
            #[cfg(not(unix))]
            Endpoint::Unix(path) => Err(HarnessError::Io {
                path: path.clone(),
                message: "unix sockets are not available on this platform".to_string(),
            }),
            Endpoint::Tcp(addr) => {
                let l = TcpListener::bind(addr).map_err(|e| io_err(PathBuf::from(addr), e))?;
                l.set_nonblocking(true)
                    .map_err(|e| io_err(PathBuf::from(addr), e))?;
                Ok(Listener::Tcp(l))
            }
        }
    }

    /// Accepts one connection if one is waiting (non-blocking).
    fn accept(&self) -> std::io::Result<Option<Box<dyn Conn>>> {
        match self {
            #[cfg(unix)]
            Listener::Unix(l) => match l.accept() {
                Ok((s, _)) => Ok(Some(Box::new(s))),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e),
            },
            Listener::Tcp(l) => match l.accept() {
                Ok((s, _)) => Ok(Some(Box::new(s))),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e),
            },
        }
    }
}

/// Runs the daemon until `shutdown` flips to `true`, then drains:
/// stops accepting, interrupts in-flight children (they re-queue without
/// consuming an attempt), flushes every shard, and returns the lifetime
/// summary.
///
/// # Errors
///
/// [`HarnessError::Io`] when the endpoint cannot be bound or the state
/// directory is unusable; [`HarnessError::ManifestFormat`] when a
/// recovered queue shard is unreadable. Per-connection and per-job
/// failures are handled internally and never abort the server.
pub fn serve(config: ServiceConfig, shutdown: Arc<AtomicBool>) -> Result<ServeSummary> {
    let queue = ShardedQueue::open(&config.state_dir.join("queue"), config.shards)?;
    let recovered = queue.recovered;
    let workers = config.workers.max(1);
    let shared = Arc::new(Shared {
        queue: Mutex::new(queue),
        quotas: Mutex::new(HashMap::new()),
        cancels: Mutex::new(HashSet::new()),
        backoff: Mutex::new(HashMap::new()),
        draining: AtomicBool::new(false),
        counters: Mutex::new(Counters {
            submitted: 0,
            completed: 0,
            failed: 0,
            canceled: 0,
            drained: 0,
            shed: 0,
        }),
        connections: AtomicUsize::new(0),
        started: Instant::now(),
        heartbeats: (0..workers).map(|_| AtomicU64::new(0)).collect(),
        generations: (0..workers).map(|_| AtomicU64::new(0)).collect(),
        recycled: AtomicU64::new(0),
        replacements: Mutex::new(Vec::new()),
        persist: Mutex::new(PersistStatus {
            healthy: true,
            failures: 0,
            last_error: None,
        }),
        config,
    });

    // Rebuild the quota ledger from the recovered queue: terminal jobs
    // preload their persisted charges, live jobs re-occupy their
    // in-flight slots.
    {
        let queue = lock(&shared.queue);
        for job in queue.jobs() {
            let quota = shared.quota(&job.tenant);
            if job.state.is_terminal() {
                quota.preload(
                    job.charged_conflicts,
                    Duration::from_secs_f64(job.charged_wall_secs.max(0.0)),
                );
            } else {
                // Occupy the slot directly: these jobs were admitted by a
                // previous server and must not be dropped even if the
                // quota config shrank since.
                let _ = quota.admit();
            }
        }
    }

    let listener = Listener::bind(&shared.config.endpoint)?;

    let mut worker_handles = Vec::new();
    for index in 0..workers {
        let shared = Arc::clone(&shared);
        worker_handles.push(
            std::thread::Builder::new()
                .name(format!("serve-worker-{index}"))
                .spawn(move || worker_loop(&shared, index, 0))
                .map_err(|e| HarnessError::Io {
                    path: PathBuf::new(),
                    message: format!("spawn worker thread: {e}"),
                })?,
        );
    }
    let watchdog = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("serve-watchdog".to_string())
            .spawn(move || watchdog_loop(&shared))
            .map_err(|e| HarnessError::Io {
                path: PathBuf::new(),
                message: format!("spawn watchdog thread: {e}"),
            })?
    };

    // Accept loop. Handler threads are detached: they die with their
    // connection, and drain only has to stop the accept loop. Persistent
    // accept errors (EMFILE when clients hold every descriptor) back off
    // exponentially instead of hot-spinning the warning.
    let min_backoff = shared.config.poll_interval.max(Duration::from_millis(1));
    let max_backoff = Duration::from_secs(1);
    let mut accept_backoff = min_backoff;
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok(Some(conn)) => {
                accept_backoff = min_backoff;
                shared.connections.fetch_add(1, Ordering::SeqCst);
                let handler_shared = Arc::clone(&shared);
                let spawned = std::thread::Builder::new()
                    .name("serve-conn".to_string())
                    .spawn(move || handle_connection(&handler_shared, conn));
                if spawned.is_err() {
                    // The guard lives in the handler; undo by hand.
                    shared.connections.fetch_sub(1, Ordering::SeqCst);
                }
            }
            Ok(None) => {
                accept_backoff = min_backoff;
                std::thread::sleep(shared.config.poll_interval);
            }
            Err(e) => {
                eprintln!(
                    "warning: accept failed: {e}; backing off {}ms",
                    accept_backoff.as_millis()
                );
                std::thread::sleep(accept_backoff);
                accept_backoff = (accept_backoff * 2).min(max_backoff);
            }
        }
    }

    // Drain: stop pickers, wait for workers to park their children.
    shared.draining.store(true, Ordering::SeqCst);
    drop(listener);
    if let Endpoint::Unix(path) = &shared.config.endpoint {
        let _ = std::fs::remove_file(path);
    }
    let _ = watchdog.join();
    for h in worker_handles {
        let _ = h.join();
    }
    loop {
        // Replacement workers can themselves be replaced mid-join.
        let batch: Vec<_> = lock(&shared.replacements).drain(..).collect();
        if batch.is_empty() {
            break;
        }
        for h in batch {
            let _ = h.join();
        }
    }
    {
        let mut queue = lock(&shared.queue);
        queue.retry_quarantined();
        queue.save_all()?;
    }
    let counters = lock(&shared.counters);
    Ok(ServeSummary {
        recovered,
        submitted: counters.submitted,
        completed: counters.completed,
        failed: counters.failed,
        canceled: counters.canceled,
        drained: counters.drained,
        shed: counters.shed,
        recycled: shared.recycled.load(Ordering::Relaxed),
    })
}

/// Detects stuck workers by heartbeat staleness and recycles their slot
/// (the stale thread retires at its next generation check; a fresh one
/// takes over), and periodically retries quarantined queue shards.
fn watchdog_loop(shared: &Arc<Shared>) {
    let interval = shared
        .config
        .poll_interval
        .max(Duration::from_millis(10))
        .min(Duration::from_millis(250));
    let mut last_shard_retry = Instant::now();
    while !shared.draining.load(Ordering::SeqCst) {
        std::thread::sleep(interval);
        let now_ms = shared.started.elapsed().as_millis() as u64;
        let stale_ms = shared.config.watchdog_timeout.as_millis() as u64;
        for slot in 0..shared.heartbeats.len() {
            let beat = shared.heartbeats[slot].load(Ordering::Relaxed);
            if now_ms.saturating_sub(beat) <= stale_ms {
                continue;
            }
            let generation = shared.generations[slot].fetch_add(1, Ordering::SeqCst) + 1;
            shared.recycled.fetch_add(1, Ordering::Relaxed);
            shared.beat(slot); // fresh worker starts with a fresh clock
            eprintln!(
                "warning: worker {slot} heartbeat stale for {}ms; recycling",
                now_ms.saturating_sub(beat)
            );
            let shared_worker = Arc::clone(shared);
            let spawned = std::thread::Builder::new()
                .name(format!("serve-worker-{slot}-gen{generation}"))
                .spawn(move || worker_loop(&shared_worker, slot, generation));
            match spawned {
                Ok(handle) => lock(&shared.replacements).push(handle),
                Err(e) => eprintln!("warning: respawn worker {slot}: {e}"),
            }
        }
        if last_shard_retry.elapsed() >= Duration::from_millis(500) {
            last_shard_retry = Instant::now();
            let recovered = lock(&shared.queue).retry_quarantined();
            if recovered > 0 {
                shared.note_persist(&Ok(()));
                eprintln!("info: {recovered} quarantined shard(s) recovered");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Connection handling
// ---------------------------------------------------------------------

/// How one attempt to read a request line ended.
enum LineOutcome {
    /// A complete line arrived within the deadline and size cap.
    Line(String),
    /// The peer closed (or went idle past the deadline with no bytes
    /// buffered, or errored) — close quietly.
    Closed,
    /// The line outgrew [`ServiceConfig::max_request_line`].
    TooLarge,
    /// Bytes arrived but no newline within [`ServiceConfig::io_timeout`]
    /// — the slow-loris case.
    Deadline,
}

/// Reads one newline-terminated request line in short timeout slices,
/// enforcing the per-line deadline and size cap. `carry` holds bytes
/// already read past the previous line's newline.
fn read_request_line(
    reader: &mut Box<dyn Conn>,
    carry: &mut Vec<u8>,
    shared: &Shared,
) -> LineOutcome {
    let deadline = Instant::now() + shared.config.io_timeout;
    loop {
        if let Some(pos) = carry.iter().position(|&b| b == b'\n') {
            // `pos` is the line length sans newline; the cap applies even
            // when the whole oversized line landed inside one read chunk.
            if pos > shared.config.max_request_line {
                return LineOutcome::TooLarge;
            }
            let rest = carry.split_off(pos + 1);
            let mut line = std::mem::replace(carry, rest);
            line.pop(); // the newline itself
            return LineOutcome::Line(String::from_utf8_lossy(&line).into_owned());
        }
        if carry.len() > shared.config.max_request_line {
            return LineOutcome::TooLarge;
        }
        if shared.draining.load(Ordering::SeqCst) {
            return LineOutcome::Closed;
        }
        let mut chunk = [0u8; 4096];
        match reader.read(&mut chunk) {
            Ok(0) => return LineOutcome::Closed,
            Ok(n) => carry.extend_from_slice(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) => {}
            Err(_) => return LineOutcome::Closed,
        }
        if Instant::now() >= deadline {
            return if carry.is_empty() {
                LineOutcome::Closed
            } else {
                LineOutcome::Deadline
            };
        }
    }
}

fn handle_connection(shared: &Shared, conn: Box<dyn Conn>) {
    // The accept loop already counted this connection; release on exit.
    let _guard = ConnGuard(shared);
    let refuse = |mut writer: Box<dyn Conn>, error: ProtocolError| {
        let _ = writer.write_all(format!("{}\n", error.to_response()).as_bytes());
        let _ = writer.flush();
    };
    // Read in short slices (so deadlines and drain are observed), write
    // with the full io_timeout so a peer that stops reading cannot pin
    // this thread either.
    let slice = shared
        .config
        .io_timeout
        .min(Duration::from_millis(100))
        .max(Duration::from_millis(5));
    if conn
        .set_io_timeouts(Some(slice), Some(shared.config.io_timeout))
        .is_err()
    {
        return;
    }
    if shared.connections.load(Ordering::SeqCst) > shared.config.max_connections {
        shared.shed_one();
        refuse(
            conn,
            ProtocolError::new(
                "overloaded",
                format!(
                    "connection limit reached ({}); retry later",
                    shared.config.max_connections
                ),
            ),
        );
        return;
    }
    let mut reader = match conn.try_clone_conn() {
        Ok(r) => r,
        Err(_) => return,
    };
    let mut writer = conn;
    let mut carry: Vec<u8> = Vec::new();
    loop {
        let line = match read_request_line(&mut reader, &mut carry, shared) {
            LineOutcome::Line(line) => line,
            LineOutcome::Closed => return,
            LineOutcome::TooLarge => {
                return refuse(
                    writer,
                    ProtocolError::new(
                        "request_too_large",
                        format!(
                            "request line exceeds {} bytes",
                            shared.config.max_request_line
                        ),
                    ),
                );
            }
            LineOutcome::Deadline => {
                // Best-effort notice: the slow client may not even read it.
                return refuse(
                    writer,
                    ProtocolError::new(
                        "deadline_exceeded",
                        format!(
                            "request line not completed within {:?}",
                            shared.config.io_timeout
                        ),
                    ),
                );
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        let outcome = match parse_request(&line) {
            Ok(request) => handle_request(shared, &request, &mut writer),
            Err(e) => writer
                .write_all(format!("{}\n", e.to_response()).as_bytes())
                .map(|()| true),
        };
        match outcome {
            Ok(true) => {
                let _ = writer.flush();
            }
            _ => return,
        }
    }
}

/// Handles one request; `Ok(true)` keeps the connection open.
fn handle_request(
    shared: &Shared,
    request: &Request,
    writer: &mut Box<dyn Conn>,
) -> std::io::Result<bool> {
    let mut send = |line: String| {
        writer
            .write_all(format!("{line}\n").as_bytes())
            .map(|()| true)
    };
    match request {
        Request::Submit { tenant, job } => {
            if shared.draining.load(Ordering::SeqCst) {
                return send(
                    ProtocolError::new("draining", "server is draining; resubmit after restart")
                        .to_response(),
                );
            }
            let quota = shared.quota(tenant);
            let mut queue = lock(&shared.queue);
            // Admission control: a full pending queue sheds load with a
            // typed error instead of queuing unboundedly.
            let pending = queue.counts().pending;
            if pending >= shared.config.max_pending {
                drop(queue);
                shared.shed_one();
                return send(
                    ProtocolError::new(
                        "overloaded",
                        format!("pending queue is full ({pending} jobs); retry later"),
                    )
                    .to_response(),
                );
            }
            // A quarantined shard cannot durably record the submission;
            // refuse rather than ack unsealed state.
            if queue.is_quarantined(&job.id) {
                drop(queue);
                return send(
                    ProtocolError::new(
                        "shard_quarantined",
                        format!(
                            "the queue shard for job {:?} cannot persist; retry later",
                            job.id
                        ),
                    )
                    .to_response(),
                );
            }
            if let Err(e) = quota.admit() {
                return send(ProtocolError::new(e.code(), e.to_string()).to_response());
            }
            let submitted = queue.submit(tenant, job.clone());
            match submitted {
                Ok(accepted) => {
                    let line = protocol::job_response(accepted);
                    drop(queue);
                    lock(&shared.counters).submitted += 1;
                    send(line)
                }
                Err(e) => {
                    drop(queue);
                    quota.release();
                    let code = match &e {
                        HarnessError::PlanFormat { .. } => "duplicate_job",
                        HarnessError::Io { .. } => {
                            shared.note_persist_failure(&e.to_string());
                            "persist_failed"
                        }
                        _ => "internal",
                    };
                    send(ProtocolError::new(code, e.to_string()).to_response())
                }
            }
        }
        Request::Health => send(health_response(shared)),
        Request::Status { job } => {
            let queue = lock(&shared.queue);
            match queue.job(job) {
                Some(j) => send(protocol::job_response(j)),
                None => send(unknown_job(job).to_response()),
            }
        }
        Request::List { tenant } => {
            let queue = lock(&shared.queue);
            let jobs: Vec<&ServiceJob> = queue
                .jobs()
                .iter()
                .filter(|j| tenant.as_deref().is_none_or(|t| j.tenant == t))
                .collect();
            send(protocol::list_response(&jobs))
        }
        Request::Cancel { job } => {
            let mut queue = lock(&shared.queue);
            let Some(entry) = queue.job_mut(job) else {
                return send(unknown_job(job).to_response());
            };
            match entry.state {
                JobState::Pending => {
                    entry.state = JobState::Canceled;
                    entry.last_error = Some("canceled while pending".to_string());
                    let tenant = entry.tenant.clone();
                    let line = protocol::job_response(entry);
                    let save = queue.save_shard_of(job);
                    drop(queue);
                    shared.quota(&tenant).release();
                    lock(&shared.counters).canceled += 1;
                    shared.note_persist(&save);
                    if let Err(e) = save {
                        eprintln!("warning: persisting cancel of {job:?}: {e}");
                    }
                    send(line)
                }
                JobState::Running => {
                    // The owning worker observes the flag and escalates.
                    lock(&shared.cancels).insert(job.clone());
                    let line = protocol::job_response(entry);
                    drop(queue);
                    send(line)
                }
                _ => send(
                    ProtocolError::new(
                        "not_cancelable",
                        format!("job {job:?} is already {}", entry.state.as_str()),
                    )
                    .to_response(),
                ),
            }
        }
        Request::Stream { job } => {
            // Emit a line per observed state change until terminal.
            let mut last: Option<(JobState, u32)> = None;
            loop {
                let (line, state) = {
                    let queue = lock(&shared.queue);
                    match queue.job(job) {
                        Some(j) => (protocol::job_response(j), Some((j.state, j.attempts))),
                        None => (unknown_job(job).to_response(), None),
                    }
                };
                let Some(state) = state else {
                    return send(line);
                };
                if last != Some(state) {
                    last = Some(state);
                    send(line)?;
                    if state.0.is_terminal() {
                        return Ok(true);
                    }
                }
                if shared.draining.load(Ordering::SeqCst) {
                    // Don't hold streams open across a drain.
                    return Ok(true);
                }
                std::thread::sleep(shared.config.poll_interval);
            }
        }
    }
}

fn unknown_job(id: &str) -> ProtocolError {
    ProtocolError::new("unknown_job", format!("no job {id:?}"))
}

/// Builds the `health` response: queue depth, worker liveness, quota
/// pressure, connection load, and last-persist status, in one line.
fn health_response(shared: &Shared) -> String {
    use crate::json::Json;

    let (counts, quarantined) = {
        let queue = lock(&shared.queue);
        (queue.counts(), queue.quarantined_shards())
    };
    let now_ms = shared.started.elapsed().as_millis() as u64;
    let stalest_beat_ms = shared
        .heartbeats
        .iter()
        .map(|b| now_ms.saturating_sub(b.load(Ordering::Relaxed)))
        .max()
        .unwrap_or(0);
    let tenants: Vec<Json> = {
        let quotas = lock(&shared.quotas);
        let mut rows: Vec<(String, Json)> = quotas
            .iter()
            .map(|(tenant, quota)| {
                let usage = quota.usage();
                (
                    tenant.clone(),
                    Json::Object(vec![
                        ("tenant".to_string(), Json::Str(tenant.clone())),
                        ("in_flight".to_string(), Json::Int(usage.in_flight)),
                        ("conflicts".to_string(), Json::Int(usage.conflicts)),
                        (
                            "wall_secs".to_string(),
                            Json::Float(usage.wall.as_secs_f64()),
                        ),
                    ]),
                )
            })
            .collect();
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        rows.into_iter().map(|(_, json)| json).collect()
    };
    let (persist, counters_json) = {
        let status = lock(&shared.persist);
        let persist = Json::Object(vec![
            ("healthy".to_string(), Json::Bool(status.healthy)),
            ("failures".to_string(), Json::Int(status.failures)),
            (
                "last_error".to_string(),
                match &status.last_error {
                    Some(e) => Json::Str(e.clone()),
                    None => Json::Null,
                },
            ),
            (
                "quarantined_shards".to_string(),
                Json::Array(
                    quarantined
                        .iter()
                        .map(|&s| Json::Int(u64::from(s)))
                        .collect(),
                ),
            ),
        ]);
        let counters = lock(&shared.counters);
        let counters_json = Json::Object(vec![
            ("submitted".to_string(), Json::Int(counters.submitted)),
            ("completed".to_string(), Json::Int(counters.completed)),
            ("failed".to_string(), Json::Int(counters.failed)),
            ("canceled".to_string(), Json::Int(counters.canceled)),
            ("drained".to_string(), Json::Int(counters.drained)),
            ("shed".to_string(), Json::Int(counters.shed)),
        ]);
        (persist, counters_json)
    };
    let status = if shared.draining.load(Ordering::SeqCst) {
        "draining"
    } else {
        "ok"
    };
    Json::Object(vec![
        ("ok".to_string(), Json::Bool(true)),
        ("protocol".to_string(), Json::Int(PROTOCOL_VERSION)),
        (
            "health".to_string(),
            Json::Object(vec![
                ("status".to_string(), Json::Str(status.to_string())),
                (
                    "uptime_secs".to_string(),
                    Json::Float(shared.started.elapsed().as_secs_f64()),
                ),
                (
                    "queue".to_string(),
                    Json::Object(vec![
                        ("pending".to_string(), Json::Int(counts.pending as u64)),
                        ("running".to_string(), Json::Int(counts.running as u64)),
                        ("done".to_string(), Json::Int(counts.done as u64)),
                        ("failed".to_string(), Json::Int(counts.failed as u64)),
                        ("canceled".to_string(), Json::Int(counts.canceled as u64)),
                        ("completions".to_string(), Json::Int(counts.completions)),
                    ]),
                ),
                (
                    "workers".to_string(),
                    Json::Object(vec![
                        (
                            "configured".to_string(),
                            Json::Int(shared.heartbeats.len() as u64),
                        ),
                        (
                            "recycled".to_string(),
                            Json::Int(shared.recycled.load(Ordering::Relaxed)),
                        ),
                        ("stalest_beat_ms".to_string(), Json::Int(stalest_beat_ms)),
                    ]),
                ),
                (
                    "connections".to_string(),
                    Json::Object(vec![
                        (
                            "open".to_string(),
                            Json::Int(shared.connections.load(Ordering::SeqCst) as u64),
                        ),
                        (
                            "max".to_string(),
                            Json::Int(shared.config.max_connections as u64),
                        ),
                    ]),
                ),
                ("counters".to_string(), counters_json),
                ("persist".to_string(), persist),
                ("tenants".to_string(), Json::Array(tenants)),
            ]),
        ),
    ])
    .to_text()
}

// ---------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------

/// Why an attempt ended.
enum AttemptEnd {
    /// Exit status 0.
    Success,
    /// Non-zero exit, launch failure, or injected fault — retryable.
    Failure(String),
    /// Deadline exceeded (SIGTERM → grace → SIGKILL) — retryable.
    Timeout(f64),
    /// Canceled by request.
    Canceled,
    /// Interrupted by the drain; re-queue without consuming an attempt.
    Interrupted,
}

fn worker_loop(shared: &Shared, index: usize, generation: u64) {
    let current_generation = |shared: &Shared| {
        shared
            .generations
            .get(index)
            .map(|g| g.load(Ordering::SeqCst))
            .unwrap_or(generation)
    };
    while !shared.draining.load(Ordering::SeqCst) && current_generation(shared) == generation {
        shared.beat(index);
        let Some((id, tenant)) = claim_next(shared) else {
            std::thread::sleep(shared.config.poll_interval);
            continue;
        };
        // A panicking attempt (the `service.worker` panic action, or a
        // harness bug) is caught here and charged as a failed attempt —
        // the worker thread itself survives and keeps serving.
        let attempt_start = Instant::now();
        let end = catch_unwind(AssertUnwindSafe(|| run_attempt(shared, index, &id)))
            .unwrap_or_else(|payload| {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "worker panicked".to_string());
                AttemptEnd::Failure(format!("worker panic: {msg}"))
            });
        settle_attempt(shared, &id, &tenant, end, attempt_start.elapsed());
    }
}

/// Claims the oldest eligible pending job: flips it to `running`,
/// increments its attempt counter, persists the shard. Jobs whose tenant
/// has exhausted a cumulative budget are failed on the spot (typed quota
/// error) rather than left to clog the queue.
fn claim_next(shared: &Shared) -> Option<(String, String)> {
    let now = Instant::now();
    let mut queue = lock(&shared.queue);
    let backoff = lock(&shared.backoff);
    let skip = |j: &ServiceJob| backoff.get(&j.id).is_some_and(|&until| until > now);
    let candidate = queue.next_pending(&skip)?;
    let id = candidate.id.clone();
    let tenant = candidate.tenant.clone();
    drop(backoff);

    let quota = shared.quota(&tenant);
    if let Err(e) = quota.check_cumulative() {
        if !e.is_transient() {
            let job = queue.job_mut(&id).expect("claimed job exists");
            job.state = JobState::Failed;
            job.last_error = Some(format!("{} ({})", e, e.code()));
            let save = queue.save_shard_of(&id);
            drop(queue);
            quota.release();
            lock(&shared.counters).failed += 1;
            shared.note_persist(&save);
            if let Err(e) = save {
                eprintln!("warning: persisting quota failure of {id:?}: {e}");
            }
            return None;
        }
    }

    let job = queue.job_mut(&id).expect("claimed job exists");
    job.state = JobState::Running;
    job.attempts += 1;
    let save = queue.save_shard_of(&id);
    shared.note_persist(&save);
    if let Err(e) = save {
        // Cannot record the claim durably: revert, try again later.
        let job = queue.job_mut(&id).expect("claimed job exists");
        job.state = JobState::Pending;
        job.attempts -= 1;
        eprintln!("warning: persisting claim of {id:?}: {e}");
        return None;
    }
    lock(&shared.backoff).remove(&id);
    Some((id, tenant))
}

/// Runs one attempt of a claimed job to completion (or interruption).
fn run_attempt(shared: &Shared, index: usize, id: &str) -> AttemptEnd {
    // Chaos hook: see module docs.
    match faults::evaluate(faults::site::SERVICE_WORKER, index) {
        Some(FaultAction::Panic) => panic!("service.worker failpoint"),
        Some(FaultAction::Trigger) => {
            return AttemptEnd::Failure("service.worker failpoint trigger".to_string())
        }
        Some(delay @ FaultAction::DelayMs(_)) => faults::apply_delay(delay),
        _ => {}
    }

    let (spec, attempt) = {
        let queue = lock(&shared.queue);
        let job = queue.job(id).expect("claimed job exists");
        (job.spec.clone(), job.attempts)
    };
    let job_dir = shared.config.state_dir.join("jobs").join(id);
    if let Err(e) = std::fs::create_dir_all(&job_dir) {
        return AttemptEnd::Failure(format!("create job dir: {e}"));
    }
    let job_dir_str = job_dir.to_string_lossy().to_string();
    let subst = |s: &str| s.replace("{job_dir}", &job_dir_str);

    let stdout_log = job_dir.join(format!("attempt{attempt}.stdout.log"));
    let stderr_log = job_dir.join(format!("attempt{attempt}.stderr.log"));
    let (stdout, stderr) = match (
        std::fs::File::create(&stdout_log),
        std::fs::File::create(&stderr_log),
    ) {
        (Ok(out), Ok(err)) => (Stdio::from(out), Stdio::from(err)),
        _ => (Stdio::null(), Stdio::null()),
    };
    let spawned = child::spawn(
        subst(&spec.program),
        spec.args.iter().map(|a| subst(a)),
        spec.env.iter().map(|(k, v)| (k, subst(v))),
        stdout,
        stderr,
    );
    let mut child = match spawned {
        Ok(c) => c,
        Err(e) => return AttemptEnd::Failure(format!("spawn {:?}: {e}", spec.program)),
    };

    let timeout = spec.timeout(shared.config.default_timeout);
    let deadline = Instant::now() + timeout;
    // Why the child is being stopped, once a stop has been requested.
    let mut end_after_kill: Option<AttemptEnd> = None;

    loop {
        // Supervising a long child is not "stuck": keep the heartbeat
        // fresh so the watchdog only recycles workers wedged *outside*
        // this loop (e.g. a blocking fault injection or harness bug).
        shared.beat(index);
        // A stop observed now only escalates a still-running child: one
        // that has already exited keeps its own outcome.
        let stop_now = if end_after_kill.is_some() {
            None
        } else if lock(&shared.cancels).contains(id) {
            Some(AttemptEnd::Canceled)
        } else if shared.draining.load(Ordering::SeqCst) {
            Some(AttemptEnd::Interrupted)
        } else if Instant::now() >= deadline {
            Some(AttemptEnd::Timeout(timeout.as_secs_f64()))
        } else {
            None
        };
        let stopping = end_after_kill.is_some() || stop_now.is_some();
        match child.poll(stopping.then_some(shared.config.grace)) {
            Ok(Some(status)) => {
                if let Some(end) = end_after_kill {
                    return end;
                }
                if status.success() {
                    return AttemptEnd::Success;
                }
                let detail = match child::exit_signal(Some(status)) {
                    Some(sig) => format!("killed by signal {sig}"),
                    None => format!("exit status {}", status.code().unwrap_or(-1)),
                };
                return AttemptEnd::Failure(detail);
            }
            Ok(None) => {}
            Err(e) => {
                child.kill();
                return AttemptEnd::Failure(format!("wait: {e}"));
            }
        }
        end_after_kill = end_after_kill.or(stop_now);
        std::thread::sleep(shared.config.poll_interval);
    }
}

/// Applies an attempt's outcome to the queue, the quota ledger, and the
/// counters, and persists the job's shard. Wall time is charged to the
/// tenant for every attempt the *job* caused (success, failure, timeout,
/// cancel); a drain interruption is the server's fault and costs the
/// tenant nothing.
fn settle_attempt(shared: &Shared, id: &str, tenant: &str, end: AttemptEnd, elapsed: Duration) {
    let quota = shared.quota(tenant);
    let mut queue = lock(&shared.queue);
    let Some(job) = queue.job_mut(id) else { return };
    let mut charge_wall = true;
    match end {
        AttemptEnd::Success => {
            // Charge solver conflicts from the job's report, if it wrote
            // one in the standard location.
            let conflicts = report_conflicts(&shared.config.state_dir.join("jobs").join(id));
            job.state = JobState::Done;
            job.completions += 1;
            job.last_error = None;
            job.charged_conflicts += conflicts;
            quota.charge(conflicts, Duration::ZERO);
            lock(&shared.counters).completed += 1;
        }
        AttemptEnd::Canceled => {
            job.state = JobState::Canceled;
            job.last_error = Some("canceled".to_string());
            lock(&shared.cancels).remove(id);
            lock(&shared.counters).canceled += 1;
        }
        AttemptEnd::Interrupted => {
            job.state = JobState::Pending;
            job.interrupted = true;
            // The interruption was the server's fault, not the job's:
            // give the attempt back and don't bill the wall time.
            job.attempts = job.attempts.saturating_sub(1);
            charge_wall = false;
            lock(&shared.counters).drained += 1;
        }
        AttemptEnd::Failure(_) | AttemptEnd::Timeout(_) => {
            let detail = match end {
                AttemptEnd::Timeout(secs) => format!("timed out after {secs:.1}s"),
                AttemptEnd::Failure(detail) => detail,
                _ => unreachable!("outer match covers only these two"),
            };
            job.last_error = Some(detail);
            match job
                .spec
                .retry_policy(shared.config.retry)
                .delay_after(job.attempts)
            {
                Some(delay) => {
                    job.state = JobState::Pending;
                    lock(&shared.backoff).insert(id.to_string(), Instant::now() + delay);
                }
                None => {
                    job.state = JobState::Failed;
                    lock(&shared.counters).failed += 1;
                }
            }
        }
    }
    if charge_wall {
        job.charged_wall_secs += elapsed.as_secs_f64();
        quota.charge(0, elapsed);
    }
    let state = job.state;
    if state.is_terminal() {
        quota.release();
    }
    let save = queue.save_shard_of(id);
    shared.note_persist(&save);
    if let Err(e) = save {
        eprintln!("warning: persisting outcome of {id:?}: {e}");
    }
}

/// Solver conflicts claimed by a job's `report.json`, when present.
/// The report is read as opaque JSON (the harness does not depend on the
/// attacks crate): `solver.conflicts` at the top level, else 0.
fn report_conflicts(job_dir: &std::path::Path) -> u64 {
    let Ok(text) = std::fs::read_to_string(job_dir.join("report.json")) else {
        return 0;
    };
    crate::json::Json::parse(&text)
        .ok()
        .as_ref()
        .and_then(|j| j.get("solver"))
        .and_then(|s| s.get("conflicts"))
        .and_then(crate::json::Json::as_u64)
        .unwrap_or(0)
}

/// Connects, sends one encoded request line, reads one response line.
/// The blocking client used by the CLI, the bench harness, and tests
/// lives in [`super::client`]; this helper is its transport primitive.
pub(crate) fn one_shot(endpoint: &Endpoint, line: &str) -> std::io::Result<String> {
    let mut conn: Box<dyn Conn> = match endpoint {
        #[cfg(unix)]
        Endpoint::Unix(path) => Box::new(std::os::unix::net::UnixStream::connect(path)?),
        #[cfg(not(unix))]
        Endpoint::Unix(_) => {
            return Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "unix sockets are not available on this platform",
            ))
        }
        Endpoint::Tcp(addr) => Box::new(std::net::TcpStream::connect(addr)?),
    };
    conn.write_all(format!("{line}\n").as_bytes())?;
    conn.flush()?;
    let mut reader = BufReader::new(conn);
    let mut response = String::new();
    reader.read_line(&mut response)?;
    Ok(response.trim_end().to_string())
}

/// `PROTOCOL_VERSION` is part of this module's contract too (responses
/// embed it); re-assert the linkage for readers of either module.
const _: () = assert!(PROTOCOL_VERSION == 1);

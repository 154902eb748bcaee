//! The one child runner: spawns a job or worker process and supervises
//! it until it exits.
//!
//! Campaign jobs, `serve` attempts and sweep workers all run through
//! [`spawn`] and [`LiveChild::poll`]; each caller keeps its own policy
//! (when to stop a child, what a failure means) and passes the stop
//! decision in. Escalation lives only here: once a stop is requested the
//! child gets SIGTERM, and SIGKILL once the caller's grace has passed
//! since.

use std::ffi::OsStr;
use std::io;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

/// A spawned child under supervision.
pub(crate) struct LiveChild {
    child: Child,
    term_sent: Option<Instant>,
    peak_rss_kb: Option<u64>,
}

/// Spawns `program` with `args` and extra `env` (on top of the inherited
/// environment), stdin closed, and the caller's stdout/stderr.
pub(crate) fn spawn(
    program: impl AsRef<OsStr>,
    args: impl IntoIterator<Item = impl AsRef<OsStr>>,
    env: impl IntoIterator<Item = (impl AsRef<OsStr>, impl AsRef<OsStr>)>,
    stdout: Stdio,
    stderr: Stdio,
) -> io::Result<LiveChild> {
    let child = Command::new(program)
        .args(args)
        .envs(env)
        .stdin(Stdio::null())
        .stdout(stdout)
        .stderr(stderr)
        .spawn()?;
    // First RSS sample right at spawn: a child that exits within one
    // poll interval becomes an unreadable zombie before any poll sees it
    // alive, and would otherwise record no peak at all.
    let peak_rss_kb = sample_rss_kb(child.id());
    Ok(LiveChild {
        child,
        term_sent: None,
        peak_rss_kb,
    })
}

impl LiveChild {
    /// Non-blocking check on the child: `Ok(Some(status))` once it has
    /// exited, `Ok(None)` while it runs. `stop` is `Some(grace)` once the
    /// caller wants the child gone: the first such poll of a live child
    /// sends SIGTERM, and a poll `grace` after that sends SIGKILL.
    ///
    /// RSS is sampled *before* `try_wait`: reaping collects the zombie
    /// and tears down `/proc/<pid>`, so a sample after a successful wait
    /// always misses.
    pub(crate) fn poll(&mut self, stop: Option<Duration>) -> io::Result<Option<ExitStatus>> {
        if let Some(rss) = sample_rss_kb(self.child.id()) {
            self.peak_rss_kb = Some(self.peak_rss_kb.unwrap_or(0).max(rss));
        }
        if let Some(status) = self.child.try_wait()? {
            return Ok(Some(status));
        }
        if let Some(grace) = stop {
            let now = Instant::now();
            match self.term_sent {
                None => {
                    send_sigterm(&mut self.child);
                    self.term_sent = Some(now);
                }
                Some(at) if now.duration_since(at) >= grace => {
                    // The child ignored SIGTERM: escalate.
                    let _ = self.child.kill();
                }
                Some(_) => {}
            }
        }
        Ok(None)
    }

    /// Kills the child outright (SIGKILL) and reaps it.
    pub(crate) fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Highest `VmHWM` seen by any sample so far, in kB.
    pub(crate) fn peak_rss_kb(&self) -> Option<u64> {
        self.peak_rss_kb
    }
}

/// Signal number that terminated the child, if any (Unix only).
#[cfg(unix)]
pub(crate) fn exit_signal(status: Option<ExitStatus>) -> Option<i64> {
    use std::os::unix::process::ExitStatusExt as _;
    status.and_then(|s| s.signal()).map(i64::from)
}

#[cfg(not(unix))]
pub(crate) fn exit_signal(_status: Option<ExitStatus>) -> Option<i64> {
    None
}

/// Asks the child to terminate gracefully. On Unix this delivers
/// SIGTERM via the `kill` utility (std exposes only SIGKILL); elsewhere
/// it goes straight to [`Child::kill`].
#[cfg(unix)]
fn send_sigterm(child: &mut Child) {
    let delivered = Command::new("kill")
        .arg("-TERM")
        .arg(child.id().to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map(|s| s.success())
        .unwrap_or(false);
    if !delivered {
        // No `kill` utility (or it failed): fall back to a hard kill so
        // the deadline still holds.
        let _ = child.kill();
    }
}

#[cfg(not(unix))]
fn send_sigterm(child: &mut Child) {
    let _ = child.kill();
}

/// Peak resident set size of a live process in kB (Linux `VmHWM`).
#[cfg(target_os = "linux")]
fn sample_rss_kb(pid: u32) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = text.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.trim().trim_end_matches("kB").trim().parse().ok()
}

#[cfg(not(target_os = "linux"))]
fn sample_rss_kb(_pid: u32) -> Option<u64> {
    None
}

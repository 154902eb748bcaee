//! Host fingerprint, hermetic-environment check and memory readings.

use full_lock::harness::json::Json;

/// Environment variables the program reads to change what it does
/// (`FULLLOCK_CERTIFY`, `FULLLOCK_ORACLE_*`, `FULLLOCK_INPROCESS`,
/// `FULLLOCK_THREADS`, `FULLLOCK_FAILPOINTS`, ...). A measured run must
/// not inherit any of them.
pub fn ambient_program_settings() -> Vec<String> {
    let mut names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("FULLLOCK_"))
        .collect();
    names.sort();
    names
}

/// nproc, CPU model, source revision and build profile.
pub fn fingerprint(git_rev: &str, source_digest: &str) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    Json::Object(vec![
        ("nproc".into(), Json::Int(nproc as u64)),
        ("cpu_model".into(), Json::Str(cpu)),
        ("git_rev".into(), Json::Str(git_rev.into())),
        ("source_digest".into(), Json::Str(source_digest.into())),
        ("build_profile".into(), Json::Str(profile.into())),
    ])
}

/// CPU time this process has used, in seconds
/// (`CLOCK_PROCESS_CPUTIME_ID`). Unlike wall time it leaves out time the
/// hypervisor gave this guest's CPU to another guest (steal time), which
/// on a shared host varies from minute to minute.
pub fn process_cpu_s() -> f64 {
    /// Linux `struct timespec` on 64-bit targets.
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable value laid out as Linux's
    // `struct timespec` on 64-bit targets (checked below), and
    // `clock_gettime` writes only within it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// This process's peak resident set (`VmHWM`) in MB.
pub fn own_peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Peak resident set in MB of the largest descendant process this
/// process has waited for (`getrusage(RUSAGE_CHILDREN).ru_maxrss`).
pub fn children_peak_rss_mb() -> Option<f64> {
    /// Linux `struct rusage`: two `timeval`s, then 14 longs starting with
    /// `ru_maxrss` (in KB).
    #[repr(C)]
    struct RUsage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value laid out as Linux's
    // `struct rusage` on 64-bit targets (checked below), and `getrusage`
    // writes only within it.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    (rc == 0 && usage.maxrss > 0).then(|| usage.maxrss as f64 / 1024.0)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("process_cpu_s and children_peak_rss_mb assume the 64-bit Linux struct layouts");

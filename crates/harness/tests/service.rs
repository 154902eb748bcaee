//! In-process integration tests of the `fulllock serve` daemon: the
//! protocol's typed errors, the job lifecycle, tenant quotas, cancel,
//! and graceful drain.

#![cfg(unix)]

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use fulllock_harness::json::Json;
use fulllock_harness::plan::JobSpec;
use fulllock_harness::service::{serve, Client, Endpoint, ServeSummary, ServiceConfig};
use fulllock_sat::QuotaSpec;

struct TestServer {
    dir: PathBuf,
    endpoint: Endpoint,
    shutdown: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<ServeSummary>>,
}

impl TestServer {
    fn start(tag: &str, configure: impl FnOnce(&mut ServiceConfig)) -> TestServer {
        let dir =
            std::env::temp_dir().join(format!("fulllock-service-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("temp dir");
        let endpoint = Endpoint::Unix(dir.join("serve.sock"));
        let mut config = ServiceConfig::new(endpoint.clone(), dir.join("state"));
        config.poll_interval = Duration::from_millis(2);
        config.default_timeout = Duration::from_secs(20);
        config.grace = Duration::from_millis(200);
        configure(&mut config);
        let shutdown = Arc::new(AtomicBool::new(false));
        let handle = {
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || serve(config, shutdown).expect("serve"))
        };
        let client = Client::new(endpoint.clone());
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !client.is_up() {
            assert!(std::time::Instant::now() < deadline, "server never came up");
            std::thread::sleep(Duration::from_millis(10));
        }
        TestServer {
            dir,
            endpoint,
            shutdown,
            handle: Some(handle),
        }
    }

    fn client(&self) -> Client {
        Client::new(self.endpoint.clone())
    }

    fn stop(&mut self) -> ServeSummary {
        self.shutdown.store(true, Ordering::SeqCst);
        self.handle
            .take()
            .expect("server still running")
            .join()
            .expect("server thread")
    }
}

impl Drop for TestServer {
    fn drop(&mut self) {
        if self.handle.is_some() {
            self.stop();
        }
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// Sends one raw line over the socket and returns the raw response line
/// (for malformed-input tests the typed [`Client`] cannot produce).
fn raw_round_trip(endpoint: &Endpoint, line: &str) -> String {
    let Endpoint::Unix(path) = endpoint else {
        panic!("tests use unix sockets")
    };
    let mut stream = UnixStream::connect(path).expect("connect");
    stream
        .write_all(format!("{line}\n").as_bytes())
        .expect("write");
    let mut reader = BufReader::new(stream);
    let mut response = String::new();
    reader.read_line(&mut response).expect("read");
    response.trim_end().to_string()
}

fn error_code(response: &str) -> String {
    let json = Json::parse(response).expect("response is JSON");
    assert_eq!(json.get("ok").and_then(Json::as_bool), Some(false));
    json.get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_str)
        .expect("typed error code")
        .to_string()
}

fn sh_job(id: &str, script: &str) -> JobSpec {
    JobSpec::new(id, "/bin/sh").arg("-c").arg(script)
}

#[test]
fn submit_runs_to_done_and_list_sees_it() {
    let mut server = TestServer::start("lifecycle", |_| {});
    let client = server.client();

    let reply = client
        .submit("acme", sh_job("hello", "echo hi > {job_dir}/proof"))
        .expect("submit");
    assert!(reply.error_code().is_none(), "{reply:?}");

    let done = client.wait("hello", Duration::from_secs(20)).expect("wait");
    assert_eq!(
        done.job_state().map(|s| s.as_str()),
        Some("done"),
        "{done:?}"
    );

    // {job_dir} was substituted and the child really ran there.
    let proof = server.dir.join("state/jobs/hello/proof");
    assert!(proof.exists(), "missing {}", proof.display());

    // list (all tenants and filtered) includes the job exactly once.
    for tenant in [None, Some("acme")] {
        let list = client.list(tenant).expect("list");
        let fulllock_harness::service::ServiceReply::Ok(json) = &list else {
            panic!("list failed: {list:?}")
        };
        assert_eq!(json.get("count").and_then(Json::as_u64), Some(1));
    }
    let other = client.list(Some("nobody")).expect("list");
    let fulllock_harness::service::ServiceReply::Ok(json) = &other else {
        panic!("list failed: {other:?}")
    };
    assert_eq!(json.get("count").and_then(Json::as_u64), Some(0));

    let summary = server.stop();
    assert_eq!(summary.submitted, 1);
    assert_eq!(summary.completed, 1);
}

#[test]
fn protocol_errors_are_typed() {
    let mut server = TestServer::start("protocol", |_| {});
    let client = server.client();

    // Malformed / unknown inputs straight over the socket.
    for (line, want) in [
        ("this is not json", "malformed_request"),
        ("{\"verb\":\"explode\"}", "unknown_verb"),
        (
            "{\"verb\":\"submit\",\"tenant\":\"t\"}",
            "malformed_request",
        ),
        (
            "{\"verb\":\"submit\",\"tenant\":\"t\",\"job\":{\"id\":\"..x\",\"program\":\"p\"}}",
            "invalid_job",
        ),
        ("{\"verb\":\"status\",\"job\":\"ghost\"}", "unknown_job"),
        ("{\"verb\":\"cancel\",\"job\":\"ghost\"}", "unknown_job"),
    ] {
        let response = raw_round_trip(&server.endpoint, line);
        assert_eq!(error_code(&response), want, "request: {line}");
    }

    // Duplicate ids are refused with a typed error.
    client
        .submit("t", sh_job("dup", "true"))
        .expect("first submit");
    let second = client.submit("t", sh_job("dup", "true")).expect("send");
    assert_eq!(second.error_code(), Some("duplicate_job"), "{second:?}");

    // A finished job cannot be canceled.
    client.wait("dup", Duration::from_secs(20)).expect("wait");
    let cancel = client.cancel("dup").expect("send");
    assert_eq!(cancel.error_code(), Some("not_cancelable"), "{cancel:?}");

    server.stop();
}

#[test]
fn tenant_quotas_refuse_over_limit_submissions() {
    let mut server = TestServer::start("quota", |config| {
        config.quotas = vec![
            (
                "narrow".to_string(),
                QuotaSpec {
                    max_in_flight: Some(1),
                    max_conflicts: None,
                    max_wall: None,
                },
            ),
            (
                "bankrupt".to_string(),
                QuotaSpec {
                    max_in_flight: None,
                    max_conflicts: Some(0),
                    max_wall: None,
                },
            ),
        ];
    });
    let client = server.client();

    // In-flight cap: the first job occupies the only slot while it
    // sleeps; the second submission is refused, not queued.
    client
        .submit("narrow", sh_job("slot-holder", "sleep 5"))
        .expect("submit");
    let refused = client
        .submit("narrow", sh_job("over-quota", "true"))
        .expect("send");
    assert_eq!(
        refused.error_code(),
        Some("concurrency_full"),
        "{refused:?}"
    );

    // Another tenant is unaffected (default quota is unlimited).
    let ok = client
        .submit("other", sh_job("bystander", "true"))
        .expect("send");
    assert!(ok.error_code().is_none(), "{ok:?}");

    // Exhausted cumulative budget refuses even the first submission.
    let broke = client
        .submit("bankrupt", sh_job("no-funds", "true"))
        .expect("send");
    assert_eq!(broke.error_code(), Some("conflicts_exhausted"), "{broke:?}");

    // Cancel frees the slot: the tenant can submit again.
    client.cancel("slot-holder").expect("cancel");
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let reply = client
            .submit(
                "narrow",
                sh_job(&format!("retry-{}", deadline.elapsed().as_millis()), "true"),
            )
            .expect("send");
        match reply.error_code() {
            None => break,
            Some("concurrency_full") if std::time::Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Some(code) => panic!("unexpected refusal {code}"),
        }
    }

    server.stop();
}

#[test]
fn cancel_interrupts_a_running_job() {
    let mut server = TestServer::start("cancel", |_| {});
    let client = server.client();

    client
        .submit("t", sh_job("long", "sleep 30"))
        .expect("submit");
    // Wait until it is actually running before canceling.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let state = client.status("long").expect("status").job_state();
        if state.map(|s| s.as_str()) == Some("running") {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "never started");
        std::thread::sleep(Duration::from_millis(10));
    }
    client.cancel("long").expect("cancel");
    let done = client.wait("long", Duration::from_secs(20)).expect("wait");
    assert_eq!(done.job_state().map(|s| s.as_str()), Some("canceled"));

    let summary = server.stop();
    assert_eq!(summary.canceled, 1);
}

#[test]
fn failed_jobs_retry_then_fail_with_the_exit_detail() {
    let mut server = TestServer::start("retry", |config| {
        config.retry.max_attempts = 2;
        config.retry.base_delay = Duration::from_millis(5);
    });
    let client = server.client();

    client
        .submit("t", sh_job("doomed", "exit 3"))
        .expect("submit");
    let done = client
        .wait("doomed", Duration::from_secs(20))
        .expect("wait");
    assert_eq!(done.job_state().map(|s| s.as_str()), Some("failed"));
    let fulllock_harness::service::ServiceReply::Ok(json) = &done else {
        panic!("{done:?}")
    };
    let job = json.get("job").expect("job");
    assert_eq!(job.get("attempts").and_then(Json::as_u64), Some(2));
    assert!(
        job.get("last_error")
            .and_then(Json::as_str)
            .is_some_and(|e| e.contains("exit status 3")),
        "{done:?}"
    );

    let summary = server.stop();
    assert_eq!(summary.failed, 1);
}

#[test]
fn overrunning_job_is_escalated_past_ignored_sigterm_and_fails_timed_out() {
    let mut server = TestServer::start("timeout", |_| {});
    let client = server.client();

    // The child ignores SIGTERM, so only the SIGKILL after the 200 ms
    // grace can end it well before its own 30 s run time.
    let started = std::time::Instant::now();
    client
        .submit(
            "t",
            sh_job("stubborn", "trap '' TERM; exec sleep 30")
                .timeout_secs(0.5)
                .max_attempts(1),
        )
        .expect("submit");
    let done = client
        .wait("stubborn", Duration::from_secs(20))
        .expect("wait");
    let elapsed = started.elapsed();
    assert_eq!(done.job_state().map(|s| s.as_str()), Some("failed"));
    let fulllock_harness::service::ServiceReply::Ok(json) = &done else {
        panic!("{done:?}")
    };
    let job = json.get("job").expect("job");
    assert!(
        job.get("last_error")
            .and_then(Json::as_str)
            .is_some_and(|e| e.starts_with("timed out after")),
        "{done:?}"
    );
    assert!(elapsed < Duration::from_secs(10), "took {elapsed:?}");

    let summary = server.stop();
    assert_eq!(summary.failed, 1);
}

#[test]
fn overload_sheds_submissions_with_a_typed_error() {
    let mut server = TestServer::start("overload", |config| {
        config.workers = 1;
        config.max_pending = 2;
    });
    let client = server.client();

    // Fill the single worker, then the pending queue.
    client
        .submit("t", sh_job("occupier", "sleep 10"))
        .expect("submit");
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let state = client.status("occupier").expect("status").job_state();
        if state.map(|s| s.as_str()) == Some("running") {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "never started");
        std::thread::sleep(Duration::from_millis(10));
    }
    for i in 0..2 {
        let ok = client
            .submit("t", sh_job(&format!("queued-{i}"), "true"))
            .expect("send");
        assert!(ok.error_code().is_none(), "{ok:?}");
    }

    // The queue is at max_pending: the next submission is shed, typed.
    let shed = client.submit("t", sh_job("excess", "true")).expect("send");
    assert_eq!(shed.error_code(), Some("overloaded"), "{shed:?}");

    // Health sees the shed and the queue depth.
    let health = client.health().expect("health");
    let fulllock_harness::service::ServiceReply::Ok(json) = &health else {
        panic!("health failed: {health:?}")
    };
    let h = json.get("health").expect("health body");
    assert_eq!(
        h.get("counters")
            .and_then(|c| c.get("shed"))
            .and_then(Json::as_u64),
        Some(1),
        "{health:?}"
    );
    assert_eq!(
        h.get("queue")
            .and_then(|q| q.get("pending"))
            .and_then(Json::as_u64),
        Some(2),
        "{health:?}"
    );

    client.cancel("occupier").expect("cancel");
    let summary = server.stop();
    assert_eq!(summary.shed, 1);
}

#[test]
fn oversized_request_lines_are_refused() {
    let mut server = TestServer::start("bigline", |config| {
        config.max_request_line = 1024;
    });

    let huge = format!(
        "{{\"verb\":\"status\",\"job\":\"{}\"}}",
        "x".repeat(4 * 1024)
    );
    let response = raw_round_trip(&server.endpoint, &huge);
    assert_eq!(error_code(&response), "request_too_large", "{response}");

    // An oversized line that fits inside a single read chunk (here 2 KiB,
    // under the server's 4 KiB read buffer) must be refused too — the cap
    // is about the line, not about how it happened to arrive.
    let small_but_over = format!(
        "{{\"verb\":\"status\",\"job\":\"{}\"}}",
        "y".repeat(2 * 1024)
    );
    let response = raw_round_trip(&server.endpoint, &small_but_over);
    assert_eq!(error_code(&response), "request_too_large", "{response}");

    // The server is unharmed: a well-formed request still works.
    let ok = server.client().list(None).expect("list");
    assert!(ok.error_code().is_none(), "{ok:?}");
    server.stop();
}

#[test]
fn slow_loris_clients_are_disconnected_without_stalling_others() {
    let mut server = TestServer::start("loris", |config| {
        config.io_timeout = Duration::from_millis(300);
    });
    let Endpoint::Unix(path) = &server.endpoint else {
        panic!("tests use unix sockets")
    };

    // The loris: open a connection and trickle a partial line, never
    // finishing it.
    let mut loris = UnixStream::connect(path).expect("connect");
    loris.write_all(b"{\"verb\":\"lis").expect("partial write");
    loris
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");

    // Meanwhile other clients are not stalled.
    for _ in 0..3 {
        let ok = server.client().list(None).expect("list");
        assert!(ok.error_code().is_none(), "{ok:?}");
    }

    // The deadline fires: the loris gets a typed best-effort error, then
    // the connection closes (EOF).
    let mut reader = BufReader::new(&mut loris);
    let mut response = String::new();
    reader.read_line(&mut response).expect("read error line");
    assert_eq!(
        error_code(response.trim_end()),
        "deadline_exceeded",
        "{response}"
    );
    let mut rest = String::new();
    let n = reader.read_line(&mut rest).expect("read EOF");
    assert_eq!(n, 0, "connection must be closed, got {rest:?}");

    server.stop();
}

#[test]
fn connection_cap_sheds_excess_connections() {
    let mut server = TestServer::start("conncap", |config| {
        config.max_connections = 1;
    });
    let Endpoint::Unix(path) = &server.endpoint else {
        panic!("tests use unix sockets")
    };

    // Occupy the only slot and prove its handler passed admission.
    let mut holder = UnixStream::connect(path).expect("connect");
    holder.write_all(b"{\"verb\":\"list\"}\n").expect("write");
    let mut holder_reader = BufReader::new(holder.try_clone().expect("clone"));
    let mut response = String::new();
    holder_reader.read_line(&mut response).expect("read");
    let parsed = Json::parse(response.trim_end()).expect("response is JSON");
    assert_eq!(
        parsed.get("ok").and_then(Json::as_bool),
        Some(true),
        "{response}"
    );

    // The second connection is turned away with a typed error.
    let over = UnixStream::connect(path).expect("connect");
    let mut over_reader = BufReader::new(over);
    let mut refusal = String::new();
    over_reader.read_line(&mut refusal).expect("read refusal");
    assert_eq!(error_code(refusal.trim_end()), "overloaded", "{refusal}");

    // Releasing the slot admits new connections again.
    drop(holder);
    drop(holder_reader);
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        match server.client().list(None) {
            Ok(reply) if reply.error_code().is_none() => break,
            _ if std::time::Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(20));
            }
            other => panic!("connection slot never freed: {other:?}"),
        }
    }
    server.stop();
}

#[test]
fn health_reports_queue_workers_and_tenants() {
    let mut server = TestServer::start("health", |config| {
        config.workers = 2;
    });
    let client = server.client();
    client
        .submit("acme", sh_job("observed", "true"))
        .expect("submit");
    client
        .wait("observed", Duration::from_secs(20))
        .expect("wait");

    let health = client.health().expect("health");
    let fulllock_harness::service::ServiceReply::Ok(json) = &health else {
        panic!("health failed: {health:?}")
    };
    let h = json.get("health").expect("health body");
    let field = |path: &[&str]| {
        let mut cursor = h;
        for p in path {
            cursor = cursor.get(p).unwrap_or_else(|| panic!("missing {p}"));
        }
        cursor.clone()
    };
    assert_eq!(field(&["status"]).as_str(), Some("ok"));
    assert_eq!(field(&["queue", "done"]).as_u64(), Some(1));
    assert_eq!(field(&["queue", "completions"]).as_u64(), Some(1));
    assert_eq!(field(&["workers", "configured"]).as_u64(), Some(2));
    assert_eq!(field(&["workers", "recycled"]).as_u64(), Some(0));
    assert_eq!(field(&["persist", "healthy"]).as_bool(), Some(true));
    assert_eq!(field(&["persist", "failures"]).as_u64(), Some(0));
    assert_eq!(field(&["counters", "submitted"]).as_u64(), Some(1));
    let tenants = field(&["tenants"]);
    let rows = tenants.as_array().expect("tenants array");
    assert!(
        rows.iter().any(|r| {
            r.get("tenant").and_then(Json::as_str) == Some("acme")
                && r.get("in_flight").and_then(Json::as_u64) == Some(0)
        }),
        "{health:?}"
    );
    server.stop();
}

/// The restart edge case where a tenant's *only* jobs are interrupted
/// ones (re-queued without a consumed attempt): the rebuilt ledger must
/// re-occupy exactly their in-flight slots and preload zero cumulative
/// charges, reconciling exactly with what the first server recorded.
#[test]
fn quota_ledger_rebuild_reconciles_interrupted_only_tenants() {
    let dir =
        std::env::temp_dir().join(format!("fulllock-service-qrebuild-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir");
    let endpoint = Endpoint::Unix(dir.join("serve.sock"));
    let narrow_quota = || {
        vec![(
            "narrow".to_string(),
            QuotaSpec {
                max_in_flight: Some(1),
                max_conflicts: None,
                max_wall: None,
            },
        )]
    };
    let make_config = || {
        let mut config = ServiceConfig::new(endpoint.clone(), dir.join("state"));
        config.poll_interval = Duration::from_millis(2);
        config.grace = Duration::from_millis(200);
        config.quotas = narrow_quota();
        config
    };
    let start = |config: ServiceConfig| {
        let shutdown = Arc::new(AtomicBool::new(false));
        let handle = {
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || serve(config, shutdown).expect("serve"))
        };
        let client = Client::new(endpoint.clone());
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !client.is_up() {
            assert!(std::time::Instant::now() < deadline, "server never came up");
            std::thread::sleep(Duration::from_millis(10));
        }
        (shutdown, handle, client)
    };

    // Server 1: the tenant's only job is mid-run when the drain hits.
    let (shutdown, handle, client) = start(make_config());
    client
        .submit("narrow", sh_job("only-job", "sleep 30"))
        .expect("submit");
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let state = client.status("only-job").expect("status").job_state();
        if state.map(|s| s.as_str()) == Some("running") {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "never started");
        std::thread::sleep(Duration::from_millis(10));
    }
    shutdown.store(true, Ordering::SeqCst);
    let summary = handle.join().expect("server thread");
    assert_eq!(summary.drained, 1);

    // Server 2 rebuilds the ledger from a queue whose only entry for
    // "narrow" is pending+interrupted with zero consumed attempts.
    let (shutdown, handle, client) = start(make_config());
    let health = client.health().expect("health");
    let fulllock_harness::service::ServiceReply::Ok(json) = &health else {
        panic!("health failed: {health:?}")
    };
    let rows = json
        .get("health")
        .and_then(|h| h.get("tenants"))
        .and_then(Json::as_array)
        .expect("tenants array");
    let narrow = rows
        .iter()
        .find(|r| r.get("tenant").and_then(Json::as_str) == Some("narrow"))
        .expect("narrow tenant in ledger");
    // Exactly one in-flight slot (the interrupted job), zero charges:
    // the interruption was the server's fault and cost the tenant
    // nothing.
    assert_eq!(narrow.get("in_flight").and_then(Json::as_u64), Some(1));
    assert_eq!(narrow.get("conflicts").and_then(Json::as_u64), Some(0));
    assert_eq!(
        narrow.get("wall_secs").and_then(Json::as_f64),
        Some(0.0),
        "{narrow:?}"
    );

    // The slot is genuinely occupied: a second submission is refused.
    let refused = client
        .submit("narrow", sh_job("second", "true"))
        .expect("send");
    assert_eq!(
        refused.error_code(),
        Some("concurrency_full"),
        "{refused:?}"
    );

    // Canceling the interrupted job releases exactly that slot.
    client.cancel("only-job").expect("cancel");
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let reply = client
            .submit("narrow", sh_job("after-cancel", "true"))
            .expect("send");
        match reply.error_code() {
            None => break,
            Some("concurrency_full") if std::time::Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Some(code) => panic!("unexpected refusal {code}"),
        }
    }
    client
        .wait("after-cancel", Duration::from_secs(20))
        .expect("wait");

    shutdown.store(true, Ordering::SeqCst);
    handle.join().expect("server thread");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn drain_requeues_in_flight_jobs_without_consuming_attempts() {
    let mut server = TestServer::start("drain", |_| {});
    let client = server.client();

    client
        .submit("t", sh_job("interrupted", "sleep 30"))
        .expect("submit");
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let state = client.status("interrupted").expect("status").job_state();
        if state.map(|s| s.as_str()) == Some("running") {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "never started");
        std::thread::sleep(Duration::from_millis(10));
    }

    let state_dir = server.dir.join("state");
    let summary = server.stop();
    assert_eq!(summary.drained, 1);

    // The persisted queue re-queues it with the attempt given back —
    // visible to the next server that opens the same state directory.
    let queue =
        fulllock_harness::service::ShardedQueue::open(&state_dir.join("queue"), 4).expect("open");
    let job = queue.job("interrupted").expect("persisted");
    assert_eq!(job.state, fulllock_harness::service::JobState::Pending);
    assert!(job.interrupted);
    assert_eq!(job.attempts, 0);
    assert_eq!(job.completions, 0);
}

//! Integration tests for `repro serve`: admission control, poisoned-job
//! quarantine, result caching, and graceful SIGTERM drain — driven over
//! the real HTTP surface with a minimal hand-rolled client.
//!
//! The contract under test: a job served by the daemon produces bytes
//! identical to the one-shot CLI run; a job that panics twice is parked
//! with a replayable artifact while other jobs keep completing; pushing
//! past the queue bound yields a typed `429` with a `retry-after` hint
//! while `/healthz` stays responsive; and SIGTERM drains to exit 0 and
//! removes the port file.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sbgp-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// One blocking HTTP/1.1 exchange. The daemon always answers
/// `Connection: close`, so reading to EOF delimits the response.
fn http(addr: &str, method: &str, path: &str, body: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to daemon");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("set read timeout");
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes()).expect("write request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8_lossy(&raw).into_owned();
    let (head, payload) = text
        .split_once("\r\n\r\n")
        .expect("response has a header/body split");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line has a numeric code");
    (status, head.to_string(), payload.to_string())
}

/// Pull a `"key":"value"` or `"key":123` field out of a flat JSON body.
fn field(body: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\":");
    let start = body.find(&needle)? + needle.len();
    let rest = &body[start..];
    if let Some(inner) = rest.strip_prefix('"') {
        inner.split('"').next().map(str::to_string)
    } else {
        rest.split(&[',', '}'][..])
            .next()
            .map(|s| s.trim().to_string())
    }
}

struct Daemon {
    child: Child,
    addr: String,
    port_file: PathBuf,
}

impl Daemon {
    fn spawn(dir: &Path, extra: &[&str]) -> Daemon {
        let pf = dir.join("serve.port");
        let mut cmd = repro();
        cmd.args(["serve", "--listen", "127.0.0.1:0", "--port-file"])
            .arg(&pf)
            .arg("--out")
            .arg(dir)
            .args(extra)
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        let child = cmd.spawn().expect("daemon spawns");
        let deadline = Instant::now() + Duration::from_secs(15);
        let addr = loop {
            if let Ok(a) = std::fs::read_to_string(&pf) {
                let a = a.trim().to_string();
                if !a.is_empty() {
                    break a;
                }
            }
            assert!(Instant::now() < deadline, "daemon never published a port");
            std::thread::sleep(Duration::from_millis(20));
        };
        Daemon {
            child,
            addr,
            port_file: pf,
        }
    }

    /// `kill -TERM`, then insist on a clean exit 0 within the deadline.
    fn sigterm_and_wait(mut self) {
        let pid = self.child.id().to_string();
        let ok = Command::new("kill")
            .args(["-TERM", &pid])
            .status()
            .expect("kill runs")
            .success();
        assert!(ok, "kill -TERM failed");
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            match self.child.try_wait().expect("try_wait") {
                Some(status) => {
                    assert!(status.success(), "drain did not exit 0: {status:?}");
                    break;
                }
                None => {
                    assert!(Instant::now() < deadline, "daemon never drained");
                    std::thread::sleep(Duration::from_millis(50));
                }
            }
        }
        assert!(
            !self.port_file.exists(),
            "port file survived a graceful drain"
        );
        // Disarm the Drop kill: the child is already reaped.
        self.child = Command::new("true").spawn().expect("spawn true");
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

const CONFIG: &str = "ases = 300\\nseed = 7\\n";

fn submit(addr: &str, cmd: &str, config: &str) -> (u16, String, String) {
    let body = format!("{{\"cmd\":\"{cmd}\",\"config\":\"{config}\",\"client\":\"itest\"}}");
    http(addr, "POST", "/jobs", &body)
}

#[test]
fn serve_quarantines_poison_serves_results_and_drains_on_sigterm() {
    // One-shot twin: the daemon must serve byte-identical CSV bytes.
    let reference = tmp("ref");
    let o = repro()
        .args(["fig9", "--ases", "300", "--seed", "7", "--out"])
        .arg(&reference)
        .output()
        .expect("reference runs");
    assert!(o.status.success(), "reference run failed");
    let want = std::fs::read(reference.join("fig9_secure_paths.csv")).expect("reference CSV");

    let dir = tmp("daemon");
    let d = Daemon::spawn(&dir, &["--queue-bound", "2"]);

    // A deterministic panicker: two strikes, then quarantine.
    let (st, _, body) = submit(&d.addr, "__poison", CONFIG);
    assert_eq!(st, 202, "poison admission: {body}");
    let poison_id = field(&body, "id").expect("poison id");

    // A real job right behind it must still complete.
    let (st, _, body) = submit(&d.addr, "fig9", CONFIG);
    assert_eq!(st, 202, "fig9 admission: {body}");
    let fig9_id = field(&body, "id").expect("fig9 id");

    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        let (st, _, body) = http(&d.addr, "GET", &format!("/jobs/{fig9_id}"), "");
        assert_eq!(st, 200, "status poll: {body}");
        let phase = field(&body, "status").expect("status field");
        assert_ne!(phase, "parked", "fig9 was quarantined: {body}");
        if phase == "done" {
            break;
        }
        assert!(Instant::now() < deadline, "fig9 never finished");
        std::thread::sleep(Duration::from_millis(100));
    }
    let (st, _, served) = http(&d.addr, "GET", &format!("/jobs/{fig9_id}/result"), "");
    assert_eq!(st, 200, "result fetch: {served}");
    assert_eq!(
        served.as_bytes(),
        &want[..],
        "served CSV diverged from the one-shot CLI run"
    );

    // Idempotent resubmission: same canonical config → cached bytes.
    let (st, _, body) = submit(&d.addr, "fig9", CONFIG);
    assert_eq!(st, 200, "resubmission was not served from cache: {body}");
    assert_eq!(field(&body, "id").as_deref(), Some(fig9_id.as_str()));
    assert_eq!(field(&body, "cached").as_deref(), Some("true"));

    // The poison job must land in quarantine with a replayable artifact.
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (_, _, body) = http(&d.addr, "GET", &format!("/jobs/{poison_id}"), "");
        if field(&body, "status").as_deref() == Some("parked") {
            break;
        }
        assert!(Instant::now() < deadline, "poison job never parked: {body}");
        std::thread::sleep(Duration::from_millis(100));
    }
    let (st, _, body) = http(&d.addr, "GET", &format!("/jobs/{poison_id}/result"), "");
    assert_eq!(st, 409, "parked result must be a typed conflict: {body}");
    let artifact = dir
        .join("serve")
        .join("parked")
        .join(format!("{poison_id}.job"));
    let text = std::fs::read_to_string(&artifact).expect("parked artifact exists");
    assert!(text.contains("# replay:"), "artifact lacks replay line");
    assert!(text.contains("# cmd: __poison"), "artifact lacks cmd line");

    // Resubmitting a parked job reports the quarantine, not a re-run.
    let (st, _, body) = submit(&d.addr, "__poison", CONFIG);
    assert_eq!(st, 409, "parked resubmission must conflict: {body}");

    // Overload: distinct configs past the queue bound must draw a typed
    // 429 with a retry-after hint, and /healthz must stay responsive.
    let mut overloaded = false;
    for i in 0..8 {
        let cfg = format!("ases = 300\\nseed = {}\\n", 100 + i);
        let (st, head, body) = submit(&d.addr, "fig9", &cfg);
        if st == 429 {
            assert!(
                head.to_ascii_lowercase().contains("retry-after:"),
                "429 without retry-after hint: {head}"
            );
            assert!(body.contains("overloaded"), "untyped 429: {body}");
            overloaded = true;
            break;
        }
        assert_eq!(st, 202, "filler admission: {body}");
    }
    assert!(overloaded, "queue bound 2 never produced a 429");
    let (st, _, body) = http(&d.addr, "GET", "/healthz", "");
    assert_eq!(st, 200, "healthz under overload: {body}");
    assert!(body.contains("\"ok\":true"));

    // Graceful drain: exit 0, port file gone, journal retained on disk
    // for the next start.
    d.sigterm_and_wait();
    assert!(
        dir.join("serve").join("jobs.joblog").exists(),
        "journal vanished at drain"
    );
    let _ = std::fs::remove_dir_all(&reference);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn worker_drains_gracefully_on_sigterm() {
    let dir = tmp("worker");
    let pf = dir.join("worker.port");
    let mut child = repro()
        .args(["worker", "--listen", "127.0.0.1:0", "--port-file"])
        .arg(&pf)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("worker spawns");
    let deadline = Instant::now() + Duration::from_secs(10);
    while !pf.exists() {
        assert!(Instant::now() < deadline, "worker never published a port");
        std::thread::sleep(Duration::from_millis(20));
    }
    let ok = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("kill runs")
        .success();
    assert!(ok, "kill -TERM failed");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match child.try_wait().expect("try_wait") {
            Some(status) => {
                assert!(status.success(), "worker drain did not exit 0: {status:?}");
                break;
            }
            None => {
                assert!(Instant::now() < deadline, "worker never exited on SIGTERM");
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
    assert!(!pf.exists(), "worker port file survived a graceful drain");
    let _ = std::fs::remove_dir_all(&dir);
}

/// One raw request (the caller writes every byte, `Content-Length`
/// included) → `(status, body)`; a silent close reads as status 0.
fn raw_exchange(addr: &str, request: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to daemon");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("set read timeout");
    stream.write_all(request.as_bytes()).expect("write request");
    let mut raw = Vec::new();
    let _ = stream.read_to_end(&mut raw);
    let text = String::from_utf8_lossy(&raw).into_owned();
    let (head, body) = text.split_once("\r\n\r\n").unwrap_or(("", ""));
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    (status, body.to_string())
}

#[test]
fn post_jobs_length_errors_are_typed() {
    let dir = tmp("length");
    let daemon = Daemon::spawn(&dir, &[]);
    // A length past the body cap is refused up front, not closed on.
    let (status, body) = raw_exchange(
        &daemon.addr,
        "POST /jobs HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n",
    );
    assert_eq!(status, 413, "oversized length not refused: {body:?}");
    assert!(body.starts_with("{\"error\":"), "not a JSON error: {body}");
    // A length that is not a number is a bad request, not a zero-byte
    // body: the JSON after the head must not be read as empty.
    let job = format!("{{\"cmd\":\"fig9\",\"config\":\"{CONFIG}\"}}");
    let (status, body) = raw_exchange(
        &daemon.addr,
        &format!("POST /jobs HTTP/1.1\r\nContent-Length: 12abc\r\n\r\n{job}"),
    );
    assert_eq!(status, 400, "unparseable length not refused: {body:?}");
    assert!(
        body.contains("content-length"),
        "400 does not name the length: {body}"
    );
    // The daemon is unharmed.
    let (status, _, _) = http(&daemon.addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    daemon.sigterm_and_wait();
    let _ = std::fs::remove_dir_all(&dir);
}

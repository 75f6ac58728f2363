//! Integration tests for distributed sweep dispatch over TCP workers.
//!
//! The contract: `--workers host:port,...` changes *where* a sweep is
//! computed (long-lived `repro worker` processes reached over TCP)
//! but never *what* it computes — final CSVs are byte-identical to
//! the single-process run, the worker fleet survives a SIGKILL of the
//! coordinator, and a `--resume`d coordinator re-dispatches leased
//! units to the same fleet without merging anything twice.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sbgp-net-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn csv(dir: &Path) -> Vec<u8> {
    std::fs::read(dir.join("fig9_secure_paths.csv")).expect("fig9 CSV exists")
}

/// A TCP worker child on an ephemeral port, killed on drop.
struct Worker {
    child: Child,
    addr: String,
}

impl Worker {
    fn spawn(dir: &Path, i: usize) -> Worker {
        let pf = dir.join(format!("worker-{i}.port"));
        let child = repro()
            .args(["worker", "--listen", "127.0.0.1:0", "--port-file"])
            .arg(&pf)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("worker spawns");
        let deadline = Instant::now() + Duration::from_secs(10);
        let addr = loop {
            if let Ok(a) = std::fs::read_to_string(&pf) {
                let a = a.trim().to_string();
                if !a.is_empty() {
                    break a;
                }
            }
            assert!(
                Instant::now() < deadline,
                "worker {i} never published a port"
            );
            std::thread::sleep(Duration::from_millis(20));
        };
        Worker { child, addr }
    }

    fn alive(&mut self) -> bool {
        matches!(self.child.try_wait(), Ok(None))
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Does the sweep log hold a unit record yet? The log exists from the
/// moment the sweep opens it and leases precede units, so existence
/// alone does not mean a unit is saved.
fn has_unit_record(log: &std::path::Path) -> bool {
    std::fs::read(log).is_ok_and(|b| b.split(|&c| c == b'\n').any(|l| l.starts_with(b"unit ")))
}

#[test]
fn tcp_workers_match_single_process_and_survive_coordinator_sigkill() {
    let reference = tmp("ref");
    let crashed = tmp("crashed");
    let o = repro()
        .args(["fig9", "--ases", "400", "--out"])
        .arg(&reference)
        .output()
        .expect("reference runs");
    assert!(o.status.success(), "reference run failed");

    let mut w0 = Worker::spawn(&crashed, 0);
    let mut w1 = Worker::spawn(&crashed, 1);
    let workers = format!("{},{}", w0.addr, w1.addr);

    // Coordinator with the sweep log on, SIGKILLed once the first unit
    // record lands — lock and log (with live leases) are left exactly
    // as a crash leaves them.
    let mut coord = repro()
        .args([
            "fig9",
            "--ases",
            "400",
            "--workers",
            &workers,
            "--resume",
            "--out",
        ])
        .arg(&crashed)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("coordinator starts");
    let ckpt = crashed.join("checkpoints").join("fig9.ckpt");
    let deadline = Instant::now() + Duration::from_secs(120);
    while !has_unit_record(&ckpt) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(
        has_unit_record(&ckpt),
        "no unit record was logged before the deadline"
    );
    coord.kill().expect("kill coordinator");
    let _ = coord.wait();

    // The fleet must shrug the dead coordinator off and keep serving.
    std::thread::sleep(Duration::from_millis(200));
    assert!(w0.alive(), "worker 0 died with the coordinator");
    assert!(w1.alive(), "worker 1 died with the coordinator");

    // Resume against the same live fleet.
    let o = repro()
        .args([
            "fig9",
            "--ases",
            "400",
            "--workers",
            &workers,
            "--resume",
            "--out",
        ])
        .arg(&crashed)
        .output()
        .expect("resume runs");
    let err = String::from_utf8_lossy(&o.stderr);
    assert!(o.status.success(), "resume failed:\n{err}");

    assert_eq!(
        csv(&reference),
        csv(&crashed),
        "CSV diverged after coordinator SIGKILL + resume:\n{err}"
    );
    // Exactly-once across the crash: the resumed dispatch only asked
    // for units the log was missing, so the merge count plus
    // the reused count covers the sweep with no unit counted twice.
    assert!(
        err.contains("[shards] merged") || err.contains("already checkpointed"),
        "resume did not go through the dispatcher:\n{err}"
    );
    // finish() releases the lock and keeps the completed log.
    assert!(ckpt.exists(), "sweep log removed by finish");
    assert!(
        !crashed.join("checkpoints").join("fig9.lock").exists(),
        "stale lock survived a clean finish"
    );
    let _ = std::fs::remove_dir_all(&reference);
    let _ = std::fs::remove_dir_all(&crashed);
}

#[test]
fn remote_pool_degrades_to_local_shards_when_no_worker_is_reachable() {
    let single = tmp("degrade-ref");
    let degraded = tmp("degrade-run");
    let o = repro()
        .args(["fig9", "--ases", "150", "--out"])
        .arg(&single)
        .output()
        .expect("reference runs");
    assert!(o.status.success(), "reference run failed");

    // Nothing listens on these ports; every dial fails and the pool
    // must fall back to local process shards rather than abort.
    let o = repro()
        .args([
            "fig9",
            "--ases",
            "150",
            "--workers",
            "127.0.0.1:9,127.0.0.1:10",
            "--out",
        ])
        .arg(&degraded)
        .output()
        .expect("degraded run executes");
    let err = String::from_utf8_lossy(&o.stderr);
    assert!(o.status.success(), "degraded run failed:\n{err}");
    assert!(
        err.contains("local fallback spawn"),
        "pool never degraded to local shards:\n{err}"
    );
    assert_eq!(
        csv(&single),
        csv(&degraded),
        "CSV diverged under graceful degradation:\n{err}"
    );
    let _ = std::fs::remove_dir_all(&single);
    let _ = std::fs::remove_dir_all(&degraded);
}

//! `repro chaos` — the fault-injection torture command.
//!
//! Runs the Figure 9 sweep twice: once single-process with no faults
//! (the reference), once sharded across worker processes that are
//! SIGKILLed at the configured rate after delivering units. The two
//! figure CSVs must be **byte-identical**; any drift under crash
//! schedules is a supervisor bug and the command exits non-zero. This
//! is the end-to-end claim of the process-sharding design: crashes may
//! cost time, never answers.
//!
//! With `--net`, the torture moves to the network: two local TCP
//! workers (`repro worker --listen`) serve the sweep while the
//! coordinator's links run under seeded adversarial fault schedules —
//! frame drops/duplicates/delays, torn mid-frame disconnects with
//! one-way partitions, and finally a SIGKILL of the coordinator itself
//! mid-sweep followed by `--resume` against the same live fleet. Every
//! schedule must land the same bytes as the clean single-process run.
//!
//! With `--storage`, the torture moves to the disk: the sweep's
//! artifact store runs under seeded disk-fault schedules — injected
//! EIO, ENOSPC, torn and short writes, crash-before-rename, detected
//! read corruption, latency — and the last schedule SIGKILLs the run
//! after its first unit record, then `--resume`s under the same
//! fault profile. The figure CSV must come out byte-identical to the
//! clean run under every schedule: disk faults may cost retries,
//! never answers.
//!
//! With `--serve`, the torture moves to the simulation service: three
//! seeded schedules against a live `repro serve` daemon — SIGKILL
//! mid-job + restart over the same journal, shard-worker kills under a
//! served job plus a client disconnect mid-request, and `--disk-chaos`
//! under the job journal itself. Every served CSV must be
//! byte-identical to its one-shot CLI twin, with zero lost or
//! duplicated jobs across the crashes.

use crate::cli::Options;
use crate::error::ExperimentError;
use crate::json;
use crate::sweeps;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The figure CSV both runs must agree on.
const FIGURE_CSV: &str = "fig9_secure_paths.csv";

/// Run the torture comparison. `--process-shards` defaults to 4 and
/// `--kill-workers` to 0.2 here (elsewhere both default off). With
/// `--net`, runs the network-fault schedules instead.
pub fn chaos(opts: &Options) -> Result<(), ExperimentError> {
    let base = opts
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from("results"))
        .join("chaos");
    if opts.net {
        return chaos_net(opts, &base);
    }
    if opts.storage {
        return chaos_storage(opts, &base);
    }
    if opts.serve {
        return chaos_serve(opts, &base);
    }

    let mut reference = opts.clone();
    reference.out = Some(base.join("reference"));
    reference.process_shards = 0;
    reference.kill_workers = 0.0;
    reference.resume = false;

    let mut sharded = opts.clone();
    sharded.out = Some(base.join("sharded"));
    sharded.process_shards = if opts.process_shards == 0 {
        4
    } else {
        opts.process_shards
    };
    sharded.kill_workers = if opts.kill_workers == 0.0 {
        0.2
    } else {
        opts.kill_workers
    };
    // Persistence on, so the torture run also exercises the sweep log
    // under crash pressure.
    persist_fresh(&mut sharded, &base.join("sharded"));

    eprintln!("[chaos] reference run (single process, no faults)");
    sweeps::fig9(&reference)?;
    eprintln!(
        "[chaos] torture run ({} shards, kill rate {})",
        sharded.process_shards, sharded.kill_workers
    );
    sweeps::fig9(&sharded)?;

    let ref_csv = base.join("reference").join(FIGURE_CSV);
    let tor_csv = base.join("sharded").join(FIGURE_CSV);
    let a = std::fs::read(&ref_csv)
        .map_err(|e| ExperimentError::Harness(format!("reading {}: {e}", ref_csv.display())))?;
    let b = std::fs::read(&tor_csv)
        .map_err(|e| ExperimentError::Harness(format!("reading {}: {e}", tor_csv.display())))?;
    if a != b {
        return Err(ExperimentError::Harness(format!(
            "chaos: {} differs between the reference and the sharded torture run \
             ({} vs {}) — crash recovery changed results",
            FIGURE_CSV,
            ref_csv.display(),
            tor_csv.display()
        )));
    }
    println!(
        "[chaos] PASS: {} byte-identical across {} shard(s) at kill rate {} ({} bytes)",
        FIGURE_CSV,
        sharded.process_shards,
        sharded.kill_workers,
        a.len()
    );
    Ok(())
}

// ---------------------------------------------------------------------
// `chaos --net`: network-fault torture over live TCP workers
// ---------------------------------------------------------------------

/// The seeded fault schedules the transport must survive. Each is a
/// [`sbgp_core::supervise::ChaosProfile`] spec; the third schedule
/// additionally SIGKILLs the coordinator mid-sweep and `--resume`s.
const SCHEDULES: [(&str, &str); 3] = [
    (
        "net-drop",
        "drop=0.08,dup=0.05,delay=0.05,delay-ms=5,seed=7",
    ),
    (
        "net-torn",
        "torn=0.08,partition=0.03,partition-frames=2,seed=11",
    ),
    ("net-resume", "drop=0.05,torn=0.03,seed=13"),
];

fn chaos_net(opts: &Options, base: &Path) -> Result<(), ExperimentError> {
    let mut reference = opts.clone();
    reference.out = Some(base.join("reference"));
    reference.process_shards = 0;
    reference.kill_workers = 0.0;
    reference.workers = Vec::new();
    reference.net_chaos = None;
    reference.resume = false;
    eprintln!("[chaos] reference run (single process, no faults)");
    sweeps::fig9(&reference)?;
    let ref_csv = base.join("reference").join(FIGURE_CSV);
    let want = std::fs::read(&ref_csv)
        .map_err(|e| ExperimentError::Harness(format!("reading {}: {e}", ref_csv.display())))?;

    // A fleet of two long-lived TCP workers on ephemeral localhost
    // ports; they survive every coordinator crash below.
    let fleet = WorkerFleet::spawn(base, 2)?;
    eprintln!("[chaos] worker fleet: {}", fleet.addrs.join(", "));

    for (name, spec) in SCHEDULES {
        let dir = base.join(name);
        let mut torture = opts.clone();
        torture.out = Some(dir.clone());
        torture.process_shards = 0;
        torture.kill_workers = 0.0;
        torture.workers = fleet.addrs.clone();
        torture.net_chaos = Some(
            sbgp_core::supervise::ChaosProfile::parse(spec)
                .map_err(|e| ExperimentError::Harness(format!("schedule {name}: {e}")))?,
        );
        // Tight lease/watchdog so partition-eaten Assign frames requeue
        // in seconds, not minutes; the sweep log always on so every
        // schedule also exercises the persistence path.
        torture.lease_secs = 10.0;
        torture.watchdog_secs = 15.0;
        persist_fresh(&mut torture, &dir);

        if name == "net-resume" {
            eprintln!(
                "[chaos] schedule {name} ({spec}): coordinator SIGKILL mid-sweep, then --resume"
            );
            sigkill_coordinator_mid_sweep(&torture, &dir)?;
        } else {
            eprintln!("[chaos] schedule {name} ({spec})");
        }
        sweeps::fig9(&torture)?;

        let got_csv = dir.join(FIGURE_CSV);
        let got = std::fs::read(&got_csv)
            .map_err(|e| ExperimentError::Harness(format!("reading {}: {e}", got_csv.display())))?;
        if got != want {
            return Err(ExperimentError::Harness(format!(
                "chaos --net: {FIGURE_CSV} differs under schedule {name} ({spec}) \
                 ({} vs {}) — network-fault recovery changed results",
                ref_csv.display(),
                got_csv.display()
            )));
        }
        eprintln!(
            "[chaos] schedule {name}: byte-identical ({} bytes)",
            got.len()
        );
    }
    println!(
        "[chaos] PASS: {} byte-identical across {} network-fault schedule(s) \
         ({} TCP worker(s), {} bytes)",
        FIGURE_CSV,
        SCHEDULES.len(),
        fleet.addrs.len(),
        want.len()
    );
    Ok(())
}

// ---------------------------------------------------------------------
// `chaos --storage`: disk-fault torture through the artifact store
// ---------------------------------------------------------------------

/// The seeded disk-fault schedules the storage layer must survive.
/// Each is a [`sbgp_core::storage::DiskChaosProfile`] spec wrapped
/// around the sweep's `LocalDisk` store; the third schedule
/// additionally SIGKILLs the run after its first unit record and
/// `--resume`s under the same fault profile.
const DISK_SCHEDULES: [(&str, &str); 3] = [
    (
        "disk-flaky",
        "eio=0.05,corrupt=0.03,latency=0.05,latency-ms=2,seed=7",
    ),
    ("disk-enospc", "enospc=0.05,torn=0.04,seed=11"),
    ("disk-resume", "eio=0.03,crash=0.04,torn=0.03,seed=13"),
];

fn chaos_storage(opts: &Options, base: &Path) -> Result<(), ExperimentError> {
    let mut reference = opts.clone();
    reference.out = Some(base.join("reference"));
    reference.process_shards = 0;
    reference.kill_workers = 0.0;
    reference.workers = Vec::new();
    reference.net_chaos = None;
    reference.disk_chaos = None;
    reference.resume = false;
    eprintln!("[chaos] reference run (single process, no faults)");
    sweeps::fig9(&reference)?;
    let ref_csv = base.join("reference").join(FIGURE_CSV);
    let want = std::fs::read(&ref_csv)
        .map_err(|e| ExperimentError::Harness(format!("reading {}: {e}", ref_csv.display())))?;

    for (name, spec) in DISK_SCHEDULES {
        let dir = base.join(name);
        let mut torture = opts.clone();
        torture.out = Some(dir.clone());
        torture.process_shards = 0;
        torture.kill_workers = 0.0;
        torture.workers = Vec::new();
        torture.net_chaos = None;
        torture.disk_chaos = Some(
            sbgp_core::storage::DiskChaosProfile::parse(spec)
                .map_err(|e| ExperimentError::Harness(format!("schedule {name}: {e}")))?,
        );
        // The sweep log on, so every schedule hammers the log append
        // and lock paths — not just the final CSV write.
        persist_fresh(&mut torture, &dir);

        if name == "disk-resume" {
            eprintln!("[chaos] schedule {name} ({spec}): SIGKILL mid-sweep, then --resume");
            sigkill_coordinator_mid_sweep(&torture, &dir)?;
        } else {
            eprintln!("[chaos] schedule {name} ({spec})");
        }
        sweeps::fig9(&torture)?;

        let got_csv = dir.join(FIGURE_CSV);
        let got = std::fs::read(&got_csv)
            .map_err(|e| ExperimentError::Harness(format!("reading {}: {e}", got_csv.display())))?;
        if got != want {
            return Err(ExperimentError::Harness(format!(
                "chaos --storage: {FIGURE_CSV} differs under schedule {name} ({spec}) \
                 ({} vs {}) — disk-fault recovery changed results",
                ref_csv.display(),
                got_csv.display()
            )));
        }
        eprintln!(
            "[chaos] schedule {name}: byte-identical ({} bytes)",
            got.len()
        );
    }
    println!(
        "[chaos] PASS: {} byte-identical across {} disk-fault schedule(s) ({} bytes)",
        FIGURE_CSV,
        DISK_SCHEDULES.len(),
        want.len()
    );
    Ok(())
}

/// Turn on the sweep log for a torture run in `dir`, starting from no
/// log: `--resume` alone would reuse a previous chaos run's units.
fn persist_fresh(opts: &mut Options, dir: &Path) {
    let _ = std::fs::remove_file(dir.join("checkpoints").join("fig9.ckpt"));
    opts.resume = true;
}

/// Does the sweep log at `path` hold a unit record yet? (The log
/// exists from open, and leases precede units, so existence alone
/// says nothing.)
fn log_has_unit(path: &Path) -> bool {
    std::fs::read(path).is_ok_and(|b| b.split(|&c| c == b'\n').any(|l| l.starts_with(b"unit ")))
}

/// Launch a child coordinator running the torture sweep, wait for the
/// first unit record in its log, and SIGKILL it — no cleanup handlers
/// run, so the lock and the log (with live leases) are left exactly as
/// a crash leaves them. Supervision flags (workers,
/// chaos profiles) are reconstructed from `torture`, so the same
/// staging works for `--net` and `--storage` schedules.
fn sigkill_coordinator_mid_sweep(torture: &Options, dir: &Path) -> Result<(), ExperimentError> {
    let exe = std::env::current_exe()
        .map_err(|e| ExperimentError::Harness(format!("current_exe: {e}")))?;
    // Science knobs travel as a config file (the same vocabulary the
    // workers get); supervision knobs go on the command line.
    let cfg = dir.join("coordinator.conf");
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&cfg, torture.to_worker_config()))
        .map_err(|e| ExperimentError::Harness(format!("writing {}: {e}", cfg.display())))?;
    let mut cmd = Command::new(&exe);
    cmd.arg("fig9")
        .args(["--config".as_ref(), cfg.as_os_str()])
        .args(["--out".as_ref(), dir.as_os_str()])
        .arg("--resume");
    if !torture.workers.is_empty() {
        // Tight lease/watchdog so partition-eaten Assign frames
        // requeue in seconds, not minutes.
        cmd.args(["--workers", &torture.workers.join(",")]).args([
            "--lease-secs",
            "10",
            "--watchdog-secs",
            "15",
        ]);
    }
    if let Some(profile) = &torture.net_chaos {
        cmd.args(["--net-chaos", &profile.spec()]);
    }
    if let Some(profile) = &torture.disk_chaos {
        cmd.args(["--disk-chaos", &profile.spec()]);
    }
    let mut child = cmd
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| ExperimentError::Harness(format!("spawning coordinator: {e}")))?;
    let log = dir.join("checkpoints").join("fig9.ckpt");
    let deadline = Instant::now() + Duration::from_secs(120);
    while !log_has_unit(&log) && Instant::now() < deadline {
        if let Ok(Some(status)) = child.try_wait() {
            // Finished before we could kill it — the resume run then
            // just replays a complete log, which is still a fair (if
            // gentler) test.
            eprintln!("[chaos] coordinator finished before SIGKILL ({status})");
            return Ok(());
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    if !log_has_unit(&log) {
        let _ = child.kill();
        let _ = child.wait();
        return Err(ExperimentError::Harness(
            "chaos: no unit record was logged within 120s; cannot stage the crash".into(),
        ));
    }
    child
        .kill()
        .map_err(|e| ExperimentError::Harness(format!("SIGKILLing coordinator: {e}")))?;
    let _ = child.wait();
    eprintln!("[chaos] coordinator SIGKILLed after its first unit record");
    Ok(())
}

// ---------------------------------------------------------------------
// `chaos --serve`: torture the simulation service daemon
// ---------------------------------------------------------------------

/// A child `repro serve` daemon on an ephemeral localhost port,
/// discovered through `--port-file`, killed on drop.
struct ServeDaemon {
    child: Child,
    addr: String,
}

impl ServeDaemon {
    fn spawn(dir: &Path, extra_args: &[&str]) -> Result<ServeDaemon, ExperimentError> {
        let exe = std::env::current_exe()
            .map_err(|e| ExperimentError::Harness(format!("current_exe: {e}")))?;
        std::fs::create_dir_all(dir)
            .map_err(|e| ExperimentError::Harness(format!("creating {}: {e}", dir.display())))?;
        let pf = dir.join("serve.port");
        let _ = std::fs::remove_file(&pf);
        let child = Command::new(&exe)
            .args(["serve", "--listen", "127.0.0.1:0", "--port-file"])
            .arg(&pf)
            .args(["--out".as_ref(), dir.as_os_str()])
            .args(extra_args)
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| ExperimentError::Harness(format!("spawning serve daemon: {e}")))?;
        let deadline = Instant::now() + Duration::from_secs(15);
        let addr = loop {
            if let Ok(addr) = std::fs::read_to_string(&pf) {
                let addr = addr.trim().to_string();
                if !addr.is_empty() {
                    break addr;
                }
            }
            if Instant::now() >= deadline {
                return Err(ExperimentError::Harness(format!(
                    "serve daemon never published its port ({})",
                    pf.display()
                )));
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        Ok(ServeDaemon { child, addr })
    }

    /// `Child::kill` is SIGKILL: the crash the journal must survive.
    fn sigkill(&mut self) -> Result<(), ExperimentError> {
        self.child
            .kill()
            .map_err(|e| ExperimentError::Harness(format!("SIGKILLing serve daemon: {e}")))?;
        let _ = self.child.wait();
        Ok(())
    }

    /// Graceful stop: SIGTERM, then insist the drain exits 0.
    fn sigterm_and_wait(mut self) -> Result<(), ExperimentError> {
        let pid = self.child.id().to_string();
        let _ = Command::new("kill").args(["-TERM", &pid]).status();
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    if status.success() {
                        return Ok(());
                    }
                    return Err(ExperimentError::Harness(format!(
                        "serve daemon drain exited non-zero: {status}"
                    )));
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(50))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err(ExperimentError::Harness(
                        "serve daemon did not drain within 60s of SIGTERM".into(),
                    ));
                }
            }
        }
    }
}

impl Drop for ServeDaemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One field of a flat JSON response, as raw text.
fn json_get(body: &[u8], key: &str) -> Option<String> {
    json::parse_object(&String::from_utf8_lossy(body))
        .ok()?
        .remove(key)
}

/// A numeric field of a flat JSON response (0 when absent).
fn json_count(body: &[u8], key: &str) -> u64 {
    json_get(body, key)
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Submit a job, retrying through overload, faults, and daemon
/// restarts. Returns `(id, was_cached)`.
fn submit_job(addr: &str, cmd: &str, config: &str) -> Result<(String, bool), ExperimentError> {
    let body = format!(
        "{{\"cmd\":\"{}\",\"config\":\"{}\",\"client\":\"chaos\"}}",
        json::escape(cmd),
        json::escape(config)
    );
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        match crate::serve::http_request(addr, "POST", "/jobs", Some(&body)) {
            Ok((status @ (200 | 202), bytes)) => {
                let id = json_get(&bytes, "id").ok_or_else(|| {
                    ExperimentError::Harness(format!(
                        "submission response without id: {}",
                        String::from_utf8_lossy(&bytes)
                    ))
                })?;
                return Ok((id, status == 200));
            }
            // Overload, a fault-injected journal append, or a drain:
            // typed, retryable.
            Ok((429 | 500 | 503, _)) | Err(_) => {}
            Ok((status, bytes)) => {
                return Err(ExperimentError::Harness(format!(
                    "submitting {cmd}: unexpected HTTP {status}: {}",
                    String::from_utf8_lossy(&bytes)
                )));
            }
        }
        if Instant::now() >= deadline {
            return Err(ExperimentError::Harness(format!(
                "submitting {cmd}: not accepted within 60s"
            )));
        }
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// Poll a job to `done`, then fetch its result bytes (retrying reads
/// through injected faults). A `parked` job is a hard failure.
fn await_result(addr: &str, id: &str) -> Result<Vec<u8>, ExperimentError> {
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        if let Ok((200, bytes)) =
            crate::serve::http_request(addr, "GET", &format!("/jobs/{id}"), None)
        {
            match json_get(&bytes, "status").as_deref() {
                Some("done") => break,
                Some("parked") => {
                    return Err(ExperimentError::Harness(format!(
                        "job {id} was parked as poisoned: {}",
                        String::from_utf8_lossy(&bytes)
                    )))
                }
                _ => {}
            }
        }
        if Instant::now() >= deadline {
            return Err(ExperimentError::Harness(format!(
                "job {id} did not finish within 300s"
            )));
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    loop {
        match crate::serve::http_request(addr, "GET", &format!("/jobs/{id}/result"), None) {
            Ok((200, bytes)) => return Ok(bytes),
            Ok((status, bytes)) if status != 500 => {
                return Err(ExperimentError::Harness(format!(
                    "fetching result of done job {id}: HTTP {status}: {}",
                    String::from_utf8_lossy(&bytes)
                )))
            }
            // 500 (injected read fault) or connect error: retry.
            _ => {}
        }
        if Instant::now() >= deadline {
            return Err(ExperimentError::Harness(format!(
                "result of job {id} unreadable within the deadline"
            )));
        }
        std::thread::sleep(Duration::from_millis(100));
    }
}

fn byte_compare(name: &str, got: &[u8], want: &[u8]) -> Result<(), ExperimentError> {
    if got != want {
        return Err(ExperimentError::Harness(format!(
            "chaos --serve: {name} differs from its one-shot CLI twin \
             ({} vs {} bytes) — the service changed results",
            got.len(),
            want.len()
        )));
    }
    Ok(())
}

/// The serve torture: three seeded schedules against live daemons.
fn chaos_serve(opts: &Options, base: &Path) -> Result<(), ExperimentError> {
    let config = format!("ases = {}\nseed = {}\n", opts.ases, opts.seed);

    // One-shot CLI twins: the bytes every served result must match.
    let mut reference = opts.clone();
    reference.out = Some(base.join("reference"));
    reference.process_shards = 0;
    reference.kill_workers = 0.0;
    reference.workers = Vec::new();
    reference.net_chaos = None;
    reference.disk_chaos = None;
    reference.serve = false;
    reference.resume = false;
    eprintln!("[chaos] one-shot CLI twins (fig9, fig8)");
    sweeps::fig9(&reference)?;
    sweeps::fig8(&reference)?;
    let want9 = std::fs::read(base.join("reference").join(FIGURE_CSV))
        .map_err(|e| ExperimentError::Harness(format!("reading fig9 twin: {e}")))?;
    let want8 = std::fs::read(base.join("reference").join("fig8a_ases.csv"))
        .map_err(|e| ExperimentError::Harness(format!("reading fig8 twin: {e}")))?;

    // Schedule 1: SIGKILL the daemon mid-job, restart over the same
    // journal, and demand exactly-once completion with byte-identical
    // results — plus an idempotent repeat submission served from cache.
    {
        let dir = base.join("serve-sigkill");
        eprintln!("[chaos] schedule serve-sigkill: daemon SIGKILL mid-job + restart");
        let mut daemon = ServeDaemon::spawn(&dir, &[])?;
        let (id9, _) = submit_job(&daemon.addr, "fig9", &config)?;
        // Catch the job queued or mid-run; if it outraces us the
        // restart still has to serve it from the journal's done state.
        let kill_deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < kill_deadline {
            if let Ok((200, bytes)) =
                crate::serve::http_request(&daemon.addr, "GET", "/stats", None)
            {
                if json_count(&bytes, "running") > 0 || json_count(&bytes, "done") > 0 {
                    break;
                }
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        daemon.sigkill()?;
        eprintln!("[chaos] daemon SIGKILLed; restarting over the same journal");
        drop(daemon);
        let daemon = ServeDaemon::spawn(&dir, &[])?;
        let got9 = await_result(&daemon.addr, &id9)?;
        byte_compare("fig9 (after SIGKILL + restart)", &got9, &want9)?;
        let (id8, _) = submit_job(&daemon.addr, "fig8", &config)?;
        let got8 = await_result(&daemon.addr, &id8)?;
        byte_compare("fig8", &got8, &want8)?;
        // Idempotent repeat: byte-identical cached result, no third job.
        let (id9_again, cached) = submit_job(&daemon.addr, "fig9", &config)?;
        if id9_again != id9 || !cached {
            return Err(ExperimentError::Harness(format!(
                "repeat fig9 submission was not served from cache (id {id9_again}, cached {cached})"
            )));
        }
        let again = await_result(&daemon.addr, &id9)?;
        byte_compare("fig9 (cached repeat)", &again, &want9)?;
        let (_, stats) = crate::serve::http_request(&daemon.addr, "GET", "/stats", None)
            .map_err(|e| ExperimentError::Harness(format!("final /stats: {e}")))?;
        if json_count(&stats, "done") != 2 || json_count(&stats, "parked") != 0 {
            return Err(ExperimentError::Harness(format!(
                "exactly-once violated across the crash: expected 2 done / 0 parked, got {}",
                String::from_utf8_lossy(&stats)
            )));
        }
        daemon.sigterm_and_wait()?;
        eprintln!("[chaos] schedule serve-sigkill: byte-identical, exactly-once, clean drain");
    }

    // Schedule 2: shard-worker kills under a served job, plus a client
    // disconnect mid-request — the daemon must stay healthy throughout.
    {
        let dir = base.join("serve-workerkill");
        eprintln!("[chaos] schedule serve-workerkill: --process-shards 2 --kill-workers 0.4");
        let daemon = ServeDaemon::spawn(&dir, &["--process-shards", "2", "--kill-workers", "0.4"])?;
        let (id9, _) = submit_job(&daemon.addr, "fig9", &config)?;
        // Mid-stream client disconnect: a partial request, then drop.
        if let Ok(mut s) = std::net::TcpStream::connect(&daemon.addr) {
            use std::io::Write as _;
            let _ = s.write_all(b"POST /jobs HTTP/1.1\r\ncontent-len");
            drop(s);
        }
        let (status, body) = crate::serve::http_request(&daemon.addr, "GET", "/healthz", None)
            .map_err(|e| ExperimentError::Harness(format!("/healthz after disconnect: {e}")))?;
        if status != 200 {
            return Err(ExperimentError::Harness(format!(
                "/healthz after client disconnect: HTTP {status}: {}",
                String::from_utf8_lossy(&body)
            )));
        }
        let got9 = await_result(&daemon.addr, &id9)?;
        byte_compare("fig9 (under worker kills)", &got9, &want9)?;
        daemon.sigterm_and_wait()?;
        eprintln!("[chaos] schedule serve-workerkill: byte-identical under worker kills");
    }

    // Schedule 3: seeded disk faults under the job journal itself —
    // admissions and completions retry through injected EIO/torn
    // appends, and a restart over the chaos-torn journal still serves
    // the finished job from cache.
    {
        let dir = base.join("serve-disk");
        let spec = "eio=0.05,torn=0.04,latency=0.05,latency-ms=2,seed=11";
        eprintln!("[chaos] schedule serve-disk: --disk-chaos {spec} under the journal");
        let daemon = ServeDaemon::spawn(&dir, &["--disk-chaos", spec])?;
        let (id9, _) = submit_job(&daemon.addr, "fig9", &config)?;
        let got9 = await_result(&daemon.addr, &id9)?;
        byte_compare("fig9 (under disk chaos)", &got9, &want9)?;
        daemon.sigterm_and_wait()?;
        let daemon = ServeDaemon::spawn(&dir, &["--disk-chaos", spec])?;
        let (id9_again, cached) = submit_job(&daemon.addr, "fig9", &config)?;
        if id9_again != id9 || !cached {
            return Err(ExperimentError::Harness(format!(
                "fig9 not served from cache after a restart over the chaos journal \
                 (id {id9_again}, cached {cached})"
            )));
        }
        let again = await_result(&daemon.addr, &id9)?;
        byte_compare("fig9 (cached after disk-chaos restart)", &again, &want9)?;
        daemon.sigterm_and_wait()?;
        eprintln!("[chaos] schedule serve-disk: journal survived seeded disk faults");
    }

    println!(
        "[chaos] PASS: served results byte-identical to one-shot CLI twins across \
         3 serve schedule(s) (SIGKILL+restart, worker kills + client disconnect, disk chaos); \
         zero lost or duplicated jobs"
    );
    Ok(())
}

/// `n` child `repro worker` processes on ephemeral localhost ports,
/// killed on drop. Ports are discovered through `--port-file`.
struct WorkerFleet {
    children: Vec<Child>,
    addrs: Vec<String>,
}

impl WorkerFleet {
    fn spawn(base: &Path, n: usize) -> Result<WorkerFleet, ExperimentError> {
        let exe = std::env::current_exe()
            .map_err(|e| ExperimentError::Harness(format!("current_exe: {e}")))?;
        std::fs::create_dir_all(base)
            .map_err(|e| ExperimentError::Harness(format!("creating {}: {e}", base.display())))?;
        let mut fleet = WorkerFleet {
            children: Vec::new(),
            addrs: Vec::new(),
        };
        let mut port_files = Vec::new();
        for i in 0..n {
            let pf = base.join(format!("worker-{i}.port"));
            let _ = std::fs::remove_file(&pf);
            let child = Command::new(&exe)
                .args(["worker", "--listen", "127.0.0.1:0", "--port-file"])
                .arg(&pf)
                .stdout(Stdio::null())
                .stderr(Stdio::inherit())
                .spawn()
                .map_err(|e| ExperimentError::Harness(format!("spawning worker {i}: {e}")))?;
            fleet.children.push(child);
            port_files.push(pf);
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        for (i, pf) in port_files.iter().enumerate() {
            loop {
                if let Ok(addr) = std::fs::read_to_string(pf) {
                    let addr = addr.trim().to_string();
                    if !addr.is_empty() {
                        fleet.addrs.push(addr);
                        break;
                    }
                }
                if Instant::now() >= deadline {
                    return Err(ExperimentError::Harness(format!(
                        "worker {i} never published its port ({})",
                        pf.display()
                    )));
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        }
        Ok(fleet)
    }
}

impl Drop for WorkerFleet {
    fn drop(&mut self) {
        for c in &mut self.children {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

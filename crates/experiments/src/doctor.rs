//! `repro doctor` — validate input artifacts before a long run.
//!
//! Given graph files, sweep checkpoints, config files, or supervisor
//! artifacts (or directories of them), the doctor classifies each by
//! content and runs the strictest available validator:
//!
//! * record logs — sweep logs (`.ckpt`) and `repro serve` job logs
//!   (`.joblog`), or any file starting with a `rec ` frame — get one
//!   check ([`sbgp_core::recordlog`]): a torn tail is reported with
//!   the salvageable record count and byte offset, damage before valid
//!   records with its byte offset, an older build's file (a
//!   `sbgp-checkpoint`/`sbgp-joblog 1` file, a `.journal`) with a
//!   delete-and-rerun diagnosis; a healthy log gets a short summary of
//!   its kind (completed units and open leases of a sweep, the queue of
//!   a job log, fingerprint check skipped — the doctor doesn't know
//!   which sweep will consume the file);
//! * `.lock` files are sweep locks: held by a live process is healthy,
//!   a dead owner is a stale leftover;
//! * `.port` files are daemon/worker address advertisements: healthy
//!   iff something still answers at the published address, stale when
//!   the process died without cleanup;
//! * `.job` files are parked poisoned-job artifacts quarantined by the
//!   serve daemon — always surfaced as needing attention, with the
//!   replay command; `--fix` discards them;
//! * `__shard-worker-*` directories are worker scratch space: live
//!   owners are healthy, dead ones were SIGKILLed mid-unit;
//! * `.cfg`/`.conf` files are parsed with the `key = value` option
//!   grammar of [`crate::cli::Options::from_config_str`];
//! * everything else is read as a serial-2 graph in strict mode
//!   ([`sbgp_asgraph::io::load_from_path_strict`]), which additionally
//!   rejects reserved AS numbers and implausible dump sizes.
//!
//! One line per entry (`ok:` or `error:` with a line-precise message);
//! any failure makes the command exit non-zero. With `--fix`, the
//! doctor salvages what it safely can — truncating torn log tails to
//! the last valid record, cutting a damaged log at the damage (naming
//! the valid records that drops), and deleting stale locks and scratch
//! dirs — and reports what it did.
//!
//! Validation itself runs through [`sbgp_core::storage::Store`]
//! ([`check_artifact`]), so any backend — local disk here, in-memory
//! in tests — is checked by exactly the same code path.

use crate::error::ExperimentError;
use sbgp_core::recordlog::{self, LogError, Scan};
use sbgp_core::storage::Store;
use sbgp_core::{checkpoint, serve};
use std::path::{Path, PathBuf};

/// Run the doctor over the given paths (files or directories).
/// `--fix` anywhere in the arguments enables salvage mode.
pub fn doctor(args: &[String]) -> Result<(), ExperimentError> {
    let fix = args.iter().any(|a| a == "--fix");
    let paths: Vec<&String> = args.iter().filter(|a| *a != "--fix").collect();
    if paths.is_empty() {
        eprintln!("usage: repro doctor [--fix] <file-or-dir>...");
        return Err(ExperimentError::Doctor { failures: 1 });
    }
    let mut files = Vec::new();
    let mut failures = 0usize;
    for p in paths {
        let path = PathBuf::from(p);
        if path.is_dir() && !is_worker_scratch(&path) {
            collect_files(&path, &mut files);
        } else {
            files.push(path);
        }
    }
    files.sort();
    let checked = files.len();
    for f in &files {
        match check_one(f, fix) {
            Ok(summary) => println!("ok: {}: {summary}", f.display()),
            Err(msg) => {
                failures += 1;
                eprintln!("error: {}: {msg}", f.display());
            }
        }
    }
    println!(
        "doctor: {checked} file(s) checked, {failures} invalid{}",
        if failures == 0 { " — all good" } else { "" }
    );
    if failures > 0 {
        Err(ExperimentError::Doctor { failures })
    } else {
        Ok(())
    }
}

/// Is this a shard worker's scratch directory (`__shard-worker-<pid>`)?
fn is_worker_scratch(path: &Path) -> bool {
    path.file_name()
        .and_then(|n| n.to_str())
        .is_some_and(|n| n.starts_with("__shard-worker-"))
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        out.push(dir.to_path_buf()); // surfaces as an unreadable file
        return;
    };
    for entry in entries.flatten() {
        let p = entry.path();
        if p.is_dir() {
            if is_worker_scratch(&p) {
                // Inspected as a unit, not recursed into: its contents
                // are breadcrumbs, not standalone artifacts.
                out.push(p);
            } else {
                collect_files(&p, out);
            }
        } else {
            out.push(p);
        }
    }
}

/// Is `pid` a live process? (linux: `/proc/<pid>`; elsewhere assume
/// live, which errs toward not deleting another run's state.)
fn pid_alive(pid: u32) -> bool {
    if cfg!(target_os = "linux") {
        Path::new(&format!("/proc/{pid}")).exists()
    } else {
        true
    }
}

/// Validate one entry; `Ok` carries a one-line summary, `Err` a
/// diagnostic (line- or byte-precise where the underlying parser
/// provides it). With `fix`, salvageable problems are repaired and
/// reported as `Ok`. Files are checked through a `LocalDisk` store
/// rooted at the parent directory, so the validation logic itself is
/// backend-generic ([`check_artifact`]).
fn check_one(path: &Path, fix: bool) -> Result<String, String> {
    if is_worker_scratch(path) {
        return check_worker_scratch(path, fix);
    }
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| "path has no usable file name".to_string())?;
    check_artifact(&Store::localdisk(dir), name, fix)
}

/// Validate the artifact stored at `key`, classifying it by key suffix
/// and content exactly as the path-based doctor always has. Works
/// against any [`Store`] backend — `repro doctor` hands it a
/// `LocalDisk`, tests hand it an `InMemory`.
pub fn check_artifact(store: &Store, key: &str, fix: bool) -> Result<String, String> {
    let is_config = key.ends_with(".cfg") || key.ends_with(".conf");
    let is_lock = key.ends_with(".lock");
    let is_port = key.ends_with(".port");
    let is_parked = key.ends_with(".job");
    let bytes = store
        .get(key)
        .map_err(|e| e.to_string())?
        .ok_or_else(|| "no such artifact".to_string())?;
    let is_log = [".ckpt", ".joblog", ".journal"]
        .iter()
        .any(|s| key.ends_with(s))
        || ["rec ", "sbgp-checkpoint", "sbgp-joblog"]
            .iter()
            .any(|p| bytes.starts_with(p.as_bytes()));
    if is_log {
        return check_log(store, key, &bytes, fix);
    }
    let text = String::from_utf8(bytes).map_err(|_| "not valid UTF-8".to_string())?;
    if is_lock {
        return check_lock(store, key, &text, fix);
    }
    if is_port {
        return check_port_file(store, key, &text, fix);
    }
    if is_parked {
        return check_parked(store, key, &text, fix);
    }
    if is_config {
        let opts = crate::cli::Options::from_config_str(&text)?;
        return Ok(format!(
            "config (ases={}, seed={}, theta={})",
            opts.ases, opts.seed, opts.theta
        ));
    }
    let g = sbgp_asgraph::io::read_graph_strict(std::io::Cursor::new(text))
        .map_err(|e| e.to_string())?;
    Ok(format!(
        "graph with {} ASes, {} edges ({} stubs, {} CPs)",
        g.len(),
        g.num_edges(),
        g.nodes().filter(|&n| g.is_stub(n)).count(),
        g.content_providers().len()
    ))
}

/// The record-log kinds this build reads.
const LOG_KINDS: [&str; 2] = [checkpoint::LOG_KIND, serve::LOG_KIND];

/// A record log (sweep or job log): report a torn tail or damage (or
/// with `fix` truncate it), else summarize what the log holds.
fn check_log(store: &Store, key: &str, bytes: &[u8], fix: bool) -> Result<String, String> {
    let scan = match recordlog::scan(key, bytes, &LOG_KINDS) {
        Ok(scan) => scan,
        Err(LogError::Corrupt { offset, .. }) if fix => {
            let r = recordlog::repair(store, key, &LOG_KINDS).map_err(|e| e.to_string())?;
            return Ok(format!(
                "fixed: damaged journal cut at byte {offset} — kept {} record(s), dropped \
                 {} valid record(s) after the damage ({} bytes)",
                r.scan.records.len(),
                r.dropped_records,
                r.cut_bytes
            ));
        }
        Err(e) => return Err(e.to_string()),
    };
    if scan.torn_bytes == 0 {
        return log_summary(key, &scan);
    }
    if fix {
        let r = recordlog::repair(store, key, &LOG_KINDS).map_err(|e| e.to_string())?;
        return Ok(format!(
            "fixed: torn journal truncated to last valid record — kept {} record(s) \
             ({} bytes), dropped {} torn byte(s)",
            r.scan.records.len(),
            r.scan.valid_bytes,
            r.cut_bytes
        ));
    }
    Err(format!(
        "torn journal tail: {} complete record(s) end at byte {}, followed by {} \
         unparseable byte(s) (a crash mid-append); rerun with --fix to truncate to the \
         last valid record",
        scan.records.len(),
        scan.valid_bytes,
        scan.torn_bytes
    ))
}

/// One line on what a clean log holds, per kind.
fn log_summary(key: &str, scan: &Scan) -> Result<String, String> {
    if scan.header.starts_with(serve::LOG_KIND) {
        let r = serve::summarize(scan).map_err(|e| e.to_string())?;
        let mut notes = String::new();
        if r.running > 0 {
            notes.push_str(&format!(
                ", {} job(s) were running at crash time (requeued at the front on the \
                 next daemon start)",
                r.running
            ));
        }
        if r.parked > 0 {
            notes.push_str(&format!(
                ", {} parked poisoned job(s) (see the .job artifacts)",
                r.parked
            ));
        }
        return Ok(format!(
            "serve job log with {} record(s): {} queued, {} done{notes}",
            scan.records.len(),
            r.queued,
            r.done
        ));
    }
    if scan.header.is_empty() {
        return Ok("empty record log".into());
    }
    let r = checkpoint::replay(key, scan).map_err(|e| e.to_string())?;
    let lease_note = if r.leases.is_empty() {
        String::new()
    } else {
        let holders: Vec<String> = r
            .leases
            .iter()
            .take(4)
            .map(|(k, p)| format!("{k:?} @ {p}"))
            .collect();
        format!(
            ", {} unit(s) still leased to workers ({}{}) — a coordinator died \
             mid-dispatch; a resumed run re-dispatches them",
            r.leases.len(),
            holders.join(", "),
            if r.leases.len() > holders.len() {
                ", …"
            } else {
                ""
            }
        )
    };
    Ok(format!(
        "sweep log (fingerprint {:016x}) with {} complete record(s): {} completed \
         unit(s){lease_note}",
        r.fingerprint,
        scan.records.len(),
        r.units.len()
    ))
}

/// A `.port` address advertisement (`repro worker --port-file`,
/// `repro serve --port-file`): healthy iff a listener still answers at
/// the published address.
fn check_port_file(store: &Store, key: &str, text: &str, fix: bool) -> Result<String, String> {
    use std::net::ToSocketAddrs;
    let addr = text.trim();
    let resolved: Vec<std::net::SocketAddr> = addr
        .to_socket_addrs()
        .map_err(|e| format!("line 1: {addr:?} is not a socket address: {e}"))?
        .collect();
    let live = resolved.iter().any(|a| {
        std::net::TcpStream::connect_timeout(a, std::time::Duration::from_millis(300)).is_ok()
    });
    if live {
        return Ok(format!("port file: a listener answers at {addr}"));
    }
    if fix {
        store.delete(key).map_err(|e| e.to_string())?;
        Ok(format!(
            "fixed: removed stale port file (nothing listens at {addr})"
        ))
    } else {
        Err(format!(
            "stale port file: nothing listens at {addr} (the daemon or worker died \
             without cleanup); rerun with --fix to remove it"
        ))
    }
}

/// A parked poisoned-job artifact: a job the serve daemon quarantined
/// after repeated crashes. Always flagged — it encodes work somebody
/// asked for that never materialized — with the replay command; `--fix`
/// discards it.
fn check_parked(store: &Store, key: &str, text: &str, fix: bool) -> Result<String, String> {
    let cmd = text
        .lines()
        .find_map(|l| l.strip_prefix("# cmd: "))
        .unwrap_or("?");
    let last_error = text
        .lines()
        .find_map(|l| l.strip_prefix("# last error: "))
        .unwrap_or("?");
    // The artifact's body must re-parse as a config file — that's what
    // makes it replayable (comments are ignored by the grammar).
    crate::cli::Options::from_config_str(text)
        .map_err(|e| format!("parked job artifact does not re-parse as a config: {e}"))?;
    if fix {
        store.delete(key).map_err(|e| e.to_string())?;
        Ok(format!(
            "fixed: discarded parked poisoned-job artifact ({cmd}; last error: {last_error})"
        ))
    } else {
        Err(format!(
            "parked poisoned job ({cmd}; last error: {last_error}); replay it with \
             `repro {cmd} --config <this file>` after fixing the cause, or rerun \
             doctor with --fix to discard it"
        ))
    }
}

/// A sweep lockfile: healthy iff its owner is alive.
fn check_lock(store: &Store, key: &str, text: &str, fix: bool) -> Result<String, String> {
    let pid: Option<u32> = text
        .strip_prefix("pid ")
        .and_then(|r| r.trim().parse().ok());
    match pid {
        Some(pid) if pid_alive(pid) => Ok(format!("sweep lock held by live process {pid}")),
        Some(pid) => {
            if fix {
                store.delete(key).map_err(|e| e.to_string())?;
                Ok(format!(
                    "fixed: removed stale sweep lock (owner {pid} is gone)"
                ))
            } else {
                Err(format!(
                    "stale sweep lock: owner process {pid} is gone (crashed supervisor?); \
                     rerun with --fix to remove it"
                ))
            }
        }
        None => Err(format!(
            "line 1: expected `pid <N>`, got {:?}",
            text.lines().next().unwrap_or("")
        )),
    }
}

/// A `__shard-worker-<pid>` scratch directory: leftover breadcrumbs
/// from a worker process.
fn check_worker_scratch(path: &Path, fix: bool) -> Result<String, String> {
    let pid: Option<u32> = path
        .file_name()
        .and_then(|n| n.to_str())
        .and_then(|n| n.strip_prefix("__shard-worker-"))
        .and_then(|p| p.parse().ok());
    let Some(pid) = pid else {
        return Err("scratch dir name does not end in a pid".to_string());
    };
    if pid_alive(pid) {
        return Ok(format!("shard worker scratch (worker {pid} is live)"));
    }
    let in_flight = std::fs::read_to_string(path.join("current"))
        .map(|k| format!(" — unit {k:?} was in flight"))
        .unwrap_or_default();
    if fix {
        std::fs::remove_dir_all(path).map_err(|e| e.to_string())?;
        Ok(format!(
            "fixed: removed scratch dir of dead worker {pid}{in_flight}"
        ))
    } else {
        Err(format!(
            "leftover scratch dir: worker {pid} is gone (SIGKILLed?){in_flight}; \
             rerun with --fix to remove it"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbgp_core::checkpoint::{params_fingerprint, SweepLog};

    /// The same validation code path runs against a pure in-memory
    /// backend: the doctor's classification is store-generic, not a
    /// filesystem special case.
    #[test]
    fn check_artifact_validates_in_memory_backend() {
        let store = Store::in_memory();

        let fp = params_fingerprint(&["doctor-test".to_string()]);
        SweepLog::open(&store, "checkpoints/fig9.ckpt", fp).unwrap();
        let summary = check_artifact(&store, "checkpoints/fig9.ckpt", false).unwrap();
        assert!(
            summary.contains("with 0 complete record(s): 0 completed unit(s)"),
            "{summary}"
        );
        assert!(summary.contains(&format!("{fp:016x}")), "{summary}");

        // A pre-header unit journal is an older build's file.
        store
            .put_atomic("checkpoints/fig9.journal", b"rec 3 0000000000000000\nabc\n")
            .unwrap();
        let err = check_artifact(&store, "checkpoints/fig9.journal", true).unwrap_err();
        assert!(err.contains("delete it and rerun"), "{err}");

        store
            .put_atomic("run.conf", b"ases = 250\nseed = 9\n")
            .unwrap();
        let summary = check_artifact(&store, "run.conf", false).unwrap();
        assert!(summary.contains("ases=250"), "{summary}");

        assert!(check_artifact(&store, "nope.ckpt", false)
            .unwrap_err()
            .contains("no such artifact"));
    }

    #[test]
    fn check_artifact_fixes_torn_journal_and_stale_lock_in_memory() {
        let store = Store::in_memory();

        // A log with a torn tail: a valid (empty) sweep log plus a
        // half-written record frame, as a crash mid-append leaves it.
        let (mut log, _) = SweepLog::open(&store, "s.ckpt", 1).unwrap();
        store
            .append_durable("s.ckpt", b"rec 999 deadbeefdeadbeef\ntorn")
            .unwrap();
        let err = check_artifact(&store, "s.ckpt", false).unwrap_err();
        assert!(err.contains("torn journal tail"), "{err}");
        let summary = check_artifact(&store, "s.ckpt", true).unwrap();
        assert!(
            summary.contains("fixed: torn journal truncated"),
            "{summary}"
        );
        let summary = check_artifact(&store, "s.ckpt", false).unwrap();
        assert!(summary.contains("with 0 complete record(s)"), "{summary}");

        // Damage before a valid record: corruption, cut only by --fix,
        // which names the record it drops.
        log.lease("a", "pid 1").unwrap();
        log.lease("b", "pid 1").unwrap();
        let text = String::from_utf8(store.get("s.ckpt").unwrap().unwrap()).unwrap();
        let damaged = text.replacen("lease 61", "lease 62", 1);
        store.put_atomic("s.ckpt", damaged.as_bytes()).unwrap();
        let err = check_artifact(&store, "s.ckpt", false).unwrap_err();
        assert!(err.contains("followed by 1 valid record(s)"), "{err}");
        let summary = check_artifact(&store, "s.ckpt", true).unwrap();
        assert!(
            summary.contains("dropped 1 valid record(s) after the damage"),
            "{summary}"
        );
        assert!(check_artifact(&store, "s.ckpt", false).is_ok());

        // A stale lock: the recorded owner pid does not exist.
        store.put_atomic("s.lock", b"pid 999999999\n").unwrap();
        let err = check_artifact(&store, "s.lock", false).unwrap_err();
        assert!(err.contains("stale sweep lock"), "{err}");
        let summary = check_artifact(&store, "s.lock", true).unwrap();
        assert!(
            summary.contains("fixed: removed stale sweep lock"),
            "{summary}"
        );
        assert!(store.get("s.lock").unwrap().is_none());
    }

    #[test]
    fn check_artifact_classifies_port_files_by_liveness() {
        let store = Store::in_memory();

        // Live: a real listener on an ephemeral port.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        store
            .put_atomic("live.port", format!("{addr}\n").as_bytes())
            .unwrap();
        let summary = check_artifact(&store, "live.port", false).unwrap();
        assert!(summary.contains("a listener answers"), "{summary}");

        // Stale: the listener is gone (drop frees the port).
        drop(listener);
        store
            .put_atomic("stale.port", format!("{addr}\n").as_bytes())
            .unwrap();
        let err = check_artifact(&store, "stale.port", false).unwrap_err();
        assert!(err.contains("stale port file"), "{err}");
        let summary = check_artifact(&store, "stale.port", true).unwrap();
        assert!(
            summary.contains("fixed: removed stale port file"),
            "{summary}"
        );
        assert!(store.get("stale.port").unwrap().is_none());

        // Not an address at all: line-precise parse error.
        store.put_atomic("bad.port", b"not-an-address\n").unwrap();
        let err = check_artifact(&store, "bad.port", false).unwrap_err();
        assert!(err.contains("line 1"), "{err}");
    }

    #[test]
    fn check_artifact_replays_and_salvages_serve_joblogs() {
        use sbgp_core::serve::{JobBoard, JobSpec};
        let store = Store::in_memory();

        // A healthy journal: one submitted job, one completed job.
        let (mut board, _) = JobBoard::open(&store, "serve/jobs.joblog", 8, 8).unwrap();
        board
            .submit(JobSpec::new("fig9", "ases = 200\n"), "t")
            .unwrap();
        let (id, _, _) = board.start_next().unwrap().unwrap();
        board.complete(&id, b"csv\n").unwrap();
        board
            .submit(JobSpec::new("fig8", "ases = 200\n"), "t")
            .unwrap();
        let summary = check_artifact(&store, "serve/jobs.joblog", false).unwrap();
        assert!(summary.contains("1 queued, 1 done"), "{summary}");

        // Tear the tail as a crash mid-append leaves it.
        store
            .append_durable("serve/jobs.joblog", b"sta torn-half")
            .unwrap();
        let err = check_artifact(&store, "serve/jobs.joblog", false).unwrap_err();
        assert!(err.contains("torn journal tail"), "{err}");
        let summary = check_artifact(&store, "serve/jobs.joblog", true).unwrap();
        assert!(summary.contains("fixed: torn journal"), "{summary}");
        let summary = check_artifact(&store, "serve/jobs.joblog", false).unwrap();
        assert!(summary.contains("1 queued, 1 done"), "{summary}");
    }

    #[test]
    fn check_artifact_surfaces_parked_job_artifacts() {
        let store = Store::in_memory();
        let artifact = "# parked poisoned job abc123 (failed 2 attempt(s))\n\
                        # cmd: fig9\n\
                        # client: t\n\
                        # last error: attempt panicked: boom\n\
                        # replay: repro fig9 --config <this file>\n\
                        ases = 200\nseed = 7\n";
        store
            .put_atomic("serve/parked/abc123.job", artifact.as_bytes())
            .unwrap();
        let err = check_artifact(&store, "serve/parked/abc123.job", false).unwrap_err();
        assert!(err.contains("parked poisoned job (fig9"), "{err}");
        assert!(err.contains("repro fig9 --config"), "{err}");
        let summary = check_artifact(&store, "serve/parked/abc123.job", true).unwrap();
        assert!(summary.contains("fixed: discarded parked"), "{summary}");
        assert!(store.get("serve/parked/abc123.job").unwrap().is_none());

        // An artifact whose body is not valid config is its own error.
        store
            .put_atomic("serve/parked/bad.job", b"# cmd: fig9\nnot an option line\n")
            .unwrap();
        let err = check_artifact(&store, "serve/parked/bad.job", false).unwrap_err();
        assert!(err.contains("does not re-parse as a config"), "{err}");
    }
}

//! Disk-fault torture for the storage layer's durability claims.
//!
//! Three invariants, each under a seeded fault schedule:
//!
//! * **Fully-old-or-fully-new** — an ENOSPC or crash-before-rename
//!   during `put_atomic` (a figure CSV, a served result) leaves the
//!   previous bytes intact, never a torn file; at worst a stray `.tmp`
//!   remains.
//! * **Torn appends never corrupt** — a short record-log append either
//!   retries to exactly one clean copy (the `Store` truncate-on-retry
//!   protocol) or, when the failure is terminal, leaves a tail the
//!   log detects and truncates on the next open.
//! * **Faults cost retries, never answers** — a sweep log written
//!   through a flaky store is byte-identical to one written cleanly,
//!   and reads back equal.

use sbgp_asgraph::gen::{generate, GenParams};
use sbgp_asgraph::Weights;
use sbgp_core::checkpoint::{params_fingerprint, SweepLog, LOG_KIND};
use sbgp_core::recordlog;
use sbgp_core::storage::{DiskChaosProfile, InMemory, LocalDisk, RetryPolicy, Store};
use sbgp_core::{EarlyAdopters, SimConfig, SimResult, Simulation};
use sbgp_routing::HashTieBreak;
use std::path::PathBuf;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sbgp-storefault-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A small real simulation result, so the logs under torture
/// carry actual unit payloads (hex-encoded f64s and all).
fn sample_result() -> SimResult {
    let g = generate(&GenParams::new(120, 7)).graph;
    let w = Weights::with_cp_fraction(&g, 0.10);
    let cfg = SimConfig {
        theta: 0.05,
        ..SimConfig::default()
    };
    let adopters = EarlyAdopters::ContentProvidersPlusTopIsps(3).select(&g);
    Simulation::new(&g, &w, &HashTieBreak, cfg).run(&adopters)
}

/// A chaos store over the same root as `clean`, with retries disabled
/// so the first injected fault is terminal (the crash model).
fn chaos_store_at(dir: &PathBuf, spec: &str) -> Store {
    Store::with_chaos(LocalDisk::new(dir), DiskChaosProfile::parse(spec).unwrap())
        .with_retry(RetryPolicy::none())
}

#[test]
fn enospc_during_checkpoint_save_leaves_fully_old_bytes() {
    let dir = tmp_dir("enospc-log");
    let clean = Store::localdisk(&dir);
    let fp = params_fingerprint(&["v=1"]);
    let (mut log, _) = SweepLog::open(&clean, "sweep.ckpt", fp).unwrap();
    log.insert("unit-a".to_string(), sample_result()).unwrap();
    let old = clean.get("sweep.ckpt").unwrap().unwrap();

    // Every write now hits ENOSPC; saving the next unit must fail as
    // transient and leave the log exactly as it was.
    let full = chaos_store_at(&dir, "enospc=1,seed=1");
    let (mut log, _) = SweepLog::open(&full, "sweep.ckpt", fp).unwrap();
    let err = log
        .insert("unit-b".to_string(), sample_result())
        .unwrap_err();
    assert!(err.to_string().contains("ENOSPC"), "{err}");
    assert_eq!(clean.get("sweep.ckpt").unwrap().unwrap(), old);
    let (reloaded, resumed) = SweepLog::open(&clean, "sweep.ckpt", fp).unwrap();
    assert_eq!(reloaded.len(), 1);
    assert_eq!(resumed.torn_bytes, 0);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn enospc_during_atomic_replace_leaves_fully_old_bytes() {
    let dir = tmp_dir("enospc");
    let clean = Store::localdisk(&dir);
    clean.put_atomic("fig9.csv", b"old,bytes\n").unwrap();

    // Every write now hits ENOSPC; the replace must fail as transient
    // (a retrying caller would eventually succeed on a real disk) and
    // must not have touched the published file.
    let full = chaos_store_at(&dir, "enospc=1,seed=1");
    let err = full.put_atomic("fig9.csv", b"new,bytes\n").unwrap_err();
    assert!(err.to_string().contains("ENOSPC"), "{err}");
    assert!(err.is_transient());
    assert_eq!(
        clean.get("fig9.csv").unwrap().as_deref(),
        Some(&b"old,bytes\n"[..])
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn crash_before_rename_leaves_fully_old_bytes_and_stray_tmp() {
    let dir = tmp_dir("crash");
    let clean = Store::localdisk(&dir);
    clean.put_atomic("fig9.csv", b"old,bytes\n").unwrap();

    let crashing = chaos_store_at(&dir, "crash=1,seed=2");
    crashing.put_atomic("fig9.csv", b"new,bytes\n").unwrap_err();

    // The published file is fully old; the orphaned tmp holds the
    // aborted write, exactly as a real crash between write and rename
    // leaves the directory.
    assert_eq!(
        clean.get("fig9.csv").unwrap().as_deref(),
        Some(&b"old,bytes\n"[..])
    );
    assert!(dir.join("fig9.csv.tmp").exists());
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn torn_appends_retry_to_exactly_one_copy() {
    // Frequent torn/short writes, with the default retry budget: the
    // truncate-before-retry protocol must land each record exactly
    // once, in order, with no torn prefixes in between.
    let profile = DiskChaosProfile::parse("torn=0.2,seed=5").unwrap();
    let store = Store::with_chaos(InMemory::default(), profile);
    let record = b"0123456789";
    for _ in 0..40 {
        store.append_durable("j", record).unwrap();
    }
    let got = store.get("j").unwrap().unwrap();
    assert_eq!(got.len(), 400);
    assert!(got.chunks(10).all(|c| c == record));
    let ledger = store.fault_ledger().unwrap();
    assert!(ledger.total() > 0, "schedule never fired — test is vacuous");
    let _ = ledger;
}

#[test]
fn terminal_torn_journal_append_is_detected_and_salvaged() {
    let dir = tmp_dir("torn-journal");
    let clean = Store::localdisk(&dir);
    let (mut log, _) = SweepLog::open(&clean, "s.ckpt", 1).unwrap();
    log.lease("unit-a", "pid 1").unwrap();
    let good_len = clean.len("s.ckpt").unwrap().unwrap();

    // A torn append with no retry budget — the crash model: half a
    // record lands and the process dies.
    let torn = chaos_store_at(&dir, "torn=1,seed=6");
    let (mut dying, _) = SweepLog::open(&torn, "s.ckpt", 1).unwrap();
    dying.lease("unit-b", "pid 1").unwrap_err();
    assert!(clean.len("s.ckpt").unwrap().unwrap() > good_len);

    // The scan sees the torn tail after the complete record; the next
    // open truncates back to it.
    let scan = recordlog::scan(
        "s.ckpt",
        &clean.get("s.ckpt").unwrap().unwrap(),
        &[LOG_KIND],
    )
    .unwrap();
    assert_eq!(scan.records.len(), 1);
    assert!(scan.torn_bytes > 0);
    assert_eq!(scan.valid_bytes, good_len);
    let (_, resumed) = SweepLog::open(&clean, "s.ckpt", 1).unwrap();
    assert_eq!(resumed.leases.len(), 1);
    assert_eq!(resumed.torn_bytes, scan.torn_bytes);
    assert_eq!(clean.len("s.ckpt").unwrap().unwrap(), good_len);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn flaky_store_saves_byte_identical_checkpoints() {
    let dir = tmp_dir("flaky");
    let result = sample_result();
    let fp = params_fingerprint(&["v=2"]);

    let clean = Store::localdisk(&dir);
    let (mut log, _) = SweepLog::open(&clean, "clean.ckpt", fp).unwrap();
    log.insert("unit-a".to_string(), result.clone()).unwrap();

    // Aggressive-but-survivable schedule with the default retry
    // budget: EIO, detected read corruption, and torn writes on every
    // category of operation.
    let profile = DiskChaosProfile::parse("eio=0.2,corrupt=0.15,torn=0.2,seed=9").unwrap();
    let flaky = Store::with_chaos(LocalDisk::new(&dir), profile);
    let (mut log, _) = SweepLog::open(&flaky, "flaky.ckpt", fp).unwrap();
    log.insert("unit-a".to_string(), result.clone()).unwrap();

    let a = clean.get("clean.ckpt").unwrap().unwrap();
    let b = clean.get("flaky.ckpt").unwrap().unwrap();
    assert_eq!(a, b, "injected faults changed the persisted bytes");
    assert!(flaky.fault_ledger().unwrap().total() > 0);

    // And the flaky copy reads back equal through the flaky store too.
    let (back, _) = SweepLog::open(&flaky, "flaky.ckpt", fp).unwrap();
    assert_eq!(back.get("unit-a"), Some(&result));
    let _ = std::fs::remove_dir_all(dir);
}

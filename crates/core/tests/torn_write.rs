//! Crash-consistency property suite for the sweep record log.
//!
//! A power loss or SIGKILL can truncate a file at **any** byte. The
//! contract under test: for every possible truncation point, the log
//! opens to the salvaged record prefix exactly (the longest prefix of
//! appends whose records survived intact) and reports the torn
//! remainder — never an error, never a panic, never a wrong or
//! reordered unit. Opened under other parameters, every truncation
//! either starts fresh (the header never landed) or is refused with a
//! typed [`CheckpointError`] — never a panic, never a foreign unit.
//!
//! Exhaustive over offsets rather than sampled: the files are small
//! and the failure modes (cut inside a header, inside a checksum,
//! inside a payload, at a record boundary) all occur at specific bytes.

use sbgp_asgraph::gen::{generate, GenParams};
use sbgp_asgraph::Weights;
use sbgp_core::checkpoint::{CheckpointError, SweepLog, LOG_KIND};
use sbgp_core::recordlog;
use sbgp_core::storage::Store;
use sbgp_core::{EarlyAdopters, EngineStats, SimConfig, SimResult, Simulation};
use sbgp_routing::HashTieBreak;
use std::path::PathBuf;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sbgp-torn-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Two distinct, deterministic results to populate files with.
fn sample_results() -> Vec<(String, SimResult)> {
    let g = generate(&GenParams::new(120, 5)).graph;
    let w = Weights::with_cp_fraction(&g, 0.10);
    [
        ("cps;theta=0.05", EarlyAdopters::ContentProviders, 0.05),
        (
            "cps+top5;theta=0.1",
            EarlyAdopters::ContentProvidersPlusTopIsps(5),
            0.10,
        ),
    ]
    .into_iter()
    .map(|(key, adopters, theta)| {
        let cfg = SimConfig {
            theta,
            ..SimConfig::default()
        };
        let seeds = adopters.select(&g);
        let mut res = Simulation::new(&g, &w, &HashTieBreak, cfg).run(&seeds);
        // Persisted results carry zeroed stats by the codec's contract;
        // zero them up front so prefix comparisons are exact.
        res.stats = EngineStats::default();
        (key.to_string(), res)
    })
    .collect()
}

#[test]
fn checkpoint_truncated_at_every_byte_never_panics() {
    let store = Store::in_memory();
    let (mut log, _) = SweepLog::open(&store, "full.ckpt", 7).expect("open log");
    for (key, res) in sample_results() {
        log.insert(key, res).expect("append");
    }
    drop(log);
    let full = store.get("full.ckpt").unwrap().expect("log exists");

    let (mut fresh, mut refused) = (0usize, 0usize);
    for cut in 0..=full.len() {
        store.put_atomic("cut.ckpt", &full[..cut]).unwrap();
        match SweepLog::open(&store, "cut.ckpt", 8) {
            Ok((log, _)) => {
                fresh += 1;
                assert!(log.is_empty(), "cut at {cut}: a foreign unit resumed");
            }
            Err(e @ CheckpointError::ParamsMismatch { .. }) => {
                refused += 1;
                assert!(!e.to_string().is_empty(), "cut at {cut}: empty diagnostic");
            }
            Err(e) => panic!("cut at {cut}: {e}"),
        }
    }
    // Once the header is whole, every cut names the other parameters.
    let header_len = recordlog::scan("full.ckpt", &full, &[LOG_KIND])
        .unwrap()
        .records[0]
        .0 as usize;
    assert_eq!((fresh, refused), (header_len, full.len() + 1 - header_len));
}

#[test]
fn journal_truncated_at_every_byte_salvages_an_exact_prefix() {
    let dir = tmp_dir("journal");
    let store = Store::localdisk(&dir);
    let units = sample_results();
    let (mut log, _) = SweepLog::open(&store, "full.ckpt", 7).expect("open log");
    for (key, res) in &units {
        log.insert(key.clone(), res.clone()).expect("append");
    }
    drop(log);
    let full = store.get("full.ckpt").unwrap().expect("log exists");

    let mut boundary_cuts = 0usize;
    for cut in 0..=full.len() {
        store.put_atomic("cut.ckpt", &full[..cut]).unwrap();
        let scan = recordlog::scan(
            "cut.ckpt",
            &store.get("cut.ckpt").unwrap().unwrap(),
            &[LOG_KIND],
        )
        .unwrap_or_else(|e| panic!("cut at {cut}: {e}"));
        // Salvage accounting: valid + torn covers the cut exactly.
        assert_eq!(
            scan.valid_bytes + scan.torn_bytes,
            cut as u64,
            "cut at {cut}: salvage ranges must partition the file"
        );
        if scan.torn_bytes == 0 {
            boundary_cuts += 1;
        }
        let (salvaged, resumed) =
            SweepLog::open(&store, "cut.ckpt", 7).unwrap_or_else(|e| panic!("cut at {cut}: {e}"));
        assert_eq!(resumed.torn_bytes, scan.torn_bytes, "cut at {cut}");
        // The salvaged units must be an exact prefix of what was
        // appended — same keys, same results, same order.
        assert_eq!(salvaged.len(), scan.records.len(), "cut at {cut}");
        for (i, (key, res)) in salvaged.iter().enumerate() {
            assert_eq!(key, units[i].0, "cut at {cut}: key {i} diverged");
            assert_eq!(res, &units[i].1, "cut at {cut}: result {i} diverged");
        }
        // Open truncated the tail: the log is clean and keeps the prefix.
        let again = recordlog::scan(
            "cut.ckpt",
            &store.get("cut.ckpt").unwrap().unwrap(),
            &[LOG_KIND],
        )
        .unwrap();
        assert_eq!(again.torn_bytes, 0, "cut at {cut}: open left a torn tail");
        assert_eq!(again.records.len(), salvaged.len(), "cut at {cut}");
    }
    // Clean cuts are exactly the record boundaries: the empty file,
    // the end of the header, and one per unit.
    assert_eq!(
        boundary_cuts,
        units.len() + 2,
        "unexpected number of clean truncation points"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

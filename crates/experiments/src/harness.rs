//! Checkpointed sweep execution.
//!
//! A [`SweepRunner`] wraps the unit loop of a θ-sweep (or any other
//! multi-run figure): each unit is keyed by a label. With `--resume`,
//! every finished unit (and every lease of a unit to a worker) is one
//! fsync'd append to the sweep's record log
//! `results/checkpoints/<cmd>.ckpt` (see [`sbgp_core::checkpoint`]),
//! and units the log already holds are skipped. Because every
//! simulation is deterministic, a resumed sweep is bit-identical to an
//! uninterrupted one — `tests/determinism.rs` pins this down.
//!
//! Persistence is off by default (no files written); `--resume` turns
//! it on, starting a fresh log when none exists.

use crate::cli::Options;
use crate::error::ExperimentError;
use sbgp_core::checkpoint::{params_fingerprint, SweepLog};
use sbgp_core::storage::{LockOutcome, Store};
use sbgp_core::{EngineStats, SimResult};
use std::path::{Path, PathBuf};

/// Fold one unit's engine counters into the sweep totals. Work and
/// lookup counters (destinations, trees, passes, atlas hits/misses,
/// delta projections) are attributed per engine — each unit's snapshot
/// covers only that unit's traffic, even over a shared atlas — so they
/// sum across units. The storage gauges (bytes, stored, evicted,
/// build time) describe the shared per-graph atlas itself; the latest
/// snapshot is kept.
fn absorb(total: &mut EngineStats, s: &EngineStats) {
    total.contexts_computed += s.contexts_computed;
    total.trees_computed += s.trees_computed;
    total.dests_computed += s.dests_computed;
    total.dests_reused += s.dests_reused;
    total.passes += s.passes;
    total.compute_ns += s.compute_ns;
    total.atlas_hits += s.atlas_hits;
    total.atlas_misses += s.atlas_misses;
    total.atlas_stored = s.atlas_stored;
    total.atlas_evicted = s.atlas_evicted;
    total.atlas_bytes = s.atlas_bytes;
    total.atlas_raw_bytes = s.atlas_raw_bytes;
    total.atlas_build_ns = s.atlas_build_ns;
    total.delta_hits += s.delta_hits;
    total.delta_fallbacks += s.delta_fallbacks;
    total.delta_touched_nodes += s.delta_touched_nodes;
    total.delta_full_nodes += s.delta_full_nodes;
}

/// A checkpoint key, made filesystem-safe for artifact filenames.
fn sanitize(key: &str) -> String {
    key.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '.' || c == '-' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Runs a sweep's units with optional checkpoint/resume.
pub struct SweepRunner {
    /// The sweep's name (the subcommand) — used for artifact filenames.
    name: String,
    /// The durable-artifact store everything below persists through
    /// (local disk, optionally wrapped in `--disk-chaos` injection).
    store: Store,
    /// The log's human-facing path, for progress messages; `None` when
    /// persistence is off.
    log_display: Option<PathBuf>,
    /// Where self-check counterexample artifacts are dumped (a key
    /// prefix in the store; displayed as a path under the out dir).
    artifact_dir: PathBuf,
    /// Completed units, appended to the sweep log as they finish.
    log: SweepLog,
    reused: usize,
    /// Differential audits performed across all units this run.
    self_checked: usize,
    /// Self-check violations observed across all units this run.
    violations: usize,
    /// Engine work counters summed over freshly computed units
    /// (log-reused units carry zeroed stats by design).
    engine: EngineStats,
    /// The sweep's advisory lock key, released by [`Self::finish`].
    lock: Option<String>,
}

/// Is `pid` a live process? (linux: `/proc/<pid>` exists; elsewhere
/// assume live, which errs toward refusing to steal a lock.)
fn pid_alive(pid: u32) -> bool {
    if cfg!(target_os = "linux") {
        Path::new(&format!("/proc/{pid}")).exists()
    } else {
        true
    }
}

/// The lock-owner string for this process (the on-storage lock value
/// keeps the historical `pid <N>\n` byte format).
pub(crate) fn lock_owner() -> String {
    format!("pid {}", std::process::id())
}

/// Take the sweep lock at `key`, stealing it only from a dead owner —
/// first-writer-wins acquisition via the store's compare-and-swap, a
/// CAS takeover when the recorded owner's pid no longer exists.
/// (Shared with `repro serve`, whose daemon lock follows the same
/// steal-only-from-the-dead discipline across SIGKILL restarts.)
pub(crate) fn take_lock(store: &Store, key: &str) -> Result<(), ExperimentError> {
    let me = lock_owner();
    match store.try_lock(key, &me)? {
        LockOutcome::Acquired => Ok(()),
        LockOutcome::Held { owner } => {
            let pid: Option<u32> = owner
                .strip_prefix("pid ")
                .and_then(|r| r.trim().parse().ok());
            if let Some(pid) = pid {
                if pid_alive(pid) {
                    return Err(ExperimentError::Harness(format!(
                        "sweep lock {key} is held by live process {pid}; \
                         is another run of this sweep in flight?"
                    )));
                }
            }
            eprintln!("[checkpoint] taking over stale sweep lock {key} (owner {owner:?} is gone)");
            if store.takeover(key, &owner, &me)? {
                Ok(())
            } else {
                Err(ExperimentError::Harness(format!(
                    "sweep lock {key} changed hands while taking it over; \
                     is another run of this sweep in flight?"
                )))
            }
        }
    }
}

impl SweepRunner {
    /// Open the runner for the sweep named `name` (the subcommand).
    ///
    /// The log's fingerprint covers every option that changes results
    /// (`--ases`, `--seed`, `--cp-fraction`, `--fail-links`) plus
    /// `extra` sweep-specific parameters — never `--threads`, which
    /// determinism tests guarantee is result-neutral. With `--resume`,
    /// an existing log for the same fingerprint is replayed; a log from
    /// different parameters is a hard error.
    pub fn open(name: &str, opts: &Options, extra: &[String]) -> Result<Self, ExperimentError> {
        let base_dir = match &opts.out {
            Some(out) => out.clone(),
            None => PathBuf::from("results"),
        };
        let mut runner = SweepRunner {
            name: name.to_string(),
            store: opts.storage_at(&base_dir),
            log_display: None,
            artifact_dir: base_dir.join("diffcheck"),
            log: SweepLog::in_memory(),
            reused: 0,
            self_checked: 0,
            violations: 0,
            engine: EngineStats::default(),
            lock: None,
        };
        if !opts.resume {
            return Ok(runner);
        }
        let mut parts = vec![
            format!("cmd={name}"),
            format!("ases={}", opts.ases),
            format!("seed={}", opts.seed),
            format!("cp={}", opts.cp_fraction),
            format!("fail_links={}", opts.fail_links),
        ];
        parts.extend(extra.iter().cloned());
        let lock_key = format!("checkpoints/{name}.lock");
        take_lock(&runner.store, &lock_key)?;
        runner.lock = Some(lock_key);
        let log_key = format!("checkpoints/{name}.ckpt");
        let (log, resumed) = SweepLog::open(&runner.store, &log_key, params_fingerprint(&parts))?;
        if resumed.torn_bytes > 0 {
            eprintln!(
                "[resume] {log_key} had a torn tail (a crash mid-append): dropped {} \
                 trailing byte(s)",
                resumed.torn_bytes
            );
        }
        if !resumed.leases.is_empty() {
            eprintln!(
                "[resume] {} unit(s) were leased to workers and never completed \
                 (coordinator died mid-dispatch); they will be re-dispatched",
                resumed.leases.len()
            );
        }
        let display = base_dir.join(&log_key);
        if !log.is_empty() {
            println!(
                "[resume] {} completed units loaded from {}",
                log.len(),
                display.display()
            );
        }
        runner.log = log;
        runner.log_display = Some(display);
        Ok(runner)
    }

    /// The logged result for `key`, if it has already completed (in
    /// this run, a resumed one, or a merged shard).
    pub fn get(&self, key: &str) -> Option<&SimResult> {
        self.log.get(key)
    }

    /// Log a lease: `key` is about to be dispatched to `peer`. Written
    /// (and fsynced) before the assignment leaves the coordinator, so a
    /// resumed run knows which units were in flight at the moment of
    /// death. No-op when persistence is off.
    pub fn lease(&mut self, key: &str, peer: &str) -> Result<(), ExperimentError> {
        Ok(self.log.lease(key, peer)?)
    }

    /// Run one unit: return the logged result if `key` already
    /// completed, else compute it via `f` and record it. Partial
    /// results (a quarantined destination task) are reported but do not
    /// abort the sweep.
    pub fn run(
        &mut self,
        key: String,
        f: impl FnOnce() -> SimResult,
    ) -> Result<SimResult, ExperimentError> {
        if let Some(prev) = self.log.get(&key) {
            self.reused += 1;
            return Ok(prev.clone());
        }
        let result = f();
        let stats = result.stats;
        self.record(key, result.clone(), &stats)?;
        Ok(result)
    }

    /// Merge a unit computed by a shard worker process. The engine
    /// counters arrive separately because the result codec
    /// deliberately zeroes `SimResult::stats` — the shard result frame
    /// carries them alongside so `[engine]` summaries stay accurate in
    /// sharded mode.
    ///
    /// A key the log already holds is dropped, not re-counted:
    /// a shard retried after a hard crash can complete twice, and
    /// completeness/engine accounting must count unique units, not
    /// attempts.
    pub fn absorb_remote(
        &mut self,
        key: &str,
        result: SimResult,
        stats: &EngineStats,
    ) -> Result<(), ExperimentError> {
        if self.log.get(key).is_some() {
            return Ok(());
        }
        self.record(key.to_string(), result, stats)
    }

    /// Shared bookkeeping for a freshly completed unit: integrity
    /// warnings, self-check artifacts, engine counters, and the log
    /// append.
    fn record(
        &mut self,
        key: String,
        result: SimResult,
        stats: &EngineStats,
    ) -> Result<(), ExperimentError> {
        if result.completeness < 1.0 {
            let dests: Vec<String> = result
                .quarantined
                .iter()
                .map(|q| format!("{} ({} attempts: {})", q.dest, q.attempts, q.message))
                .collect();
            eprintln!(
                "warning: unit {key:?} is partial (completeness {:.4}); quarantined: {}",
                result.completeness,
                dests.join("; ")
            );
        }
        if !result.deadline_skipped.is_empty() {
            eprintln!(
                "warning: unit {key:?} skipped {} destination(s) past --deadline",
                result.deadline_skipped.len()
            );
        }
        self.self_checked += result.self_checked;
        self.violations += result.violations.len();
        absorb(&mut self.engine, stats);
        for v in &result.violations {
            let file = self.artifact_dir.join(format!(
                "{}-{}-dest{}.txt",
                self.name,
                sanitize(&key),
                v.dest.0
            ));
            eprintln!(
                "SELF-CHECK VIOLATION: unit {key:?}: {} (artifact: {})",
                v.detail,
                file.display()
            );
            if let Err(e) = std::fs::create_dir_all(&self.artifact_dir)
                .and_then(|()| std::fs::write(&file, &v.artifact))
            {
                eprintln!("warning: could not write artifact {}: {e}", file.display());
            }
        }
        Ok(self.log.insert(key, result)?)
    }

    /// Summaries, a resume note, and the lock release. The log is kept
    /// so the sweep can be re-emitted or extended without
    /// recomputation; delete it to start over.
    pub fn finish(self) -> Result<(), ExperimentError> {
        let e = &self.engine;
        if e.dests_computed + e.dests_reused > 0 {
            println!(
                "[engine] {} passes: {} destinations computed, {} reused ({:.1}% reuse); \
                 atlas hit rate {:.1}% ({} contexts recomputed)",
                e.passes,
                e.dests_computed,
                e.dests_reused,
                100.0 * e.reuse_rate(),
                100.0 * e.atlas_hit_rate(),
                e.contexts_computed,
            );
            if e.delta_hits + e.delta_fallbacks > 0 {
                println!(
                    "[engine] delta projections: {} repaired, {} fell back to full \
                     recompute; repaired region averaged {:.1}% of reachable nodes",
                    e.delta_hits,
                    e.delta_fallbacks,
                    100.0 * e.delta_touched_fraction(),
                );
            }
            if e.atlas_bytes > 0 {
                println!(
                    "[engine] atlas resident: {:.1} MiB compressed ({:.1} MiB dense \
                     equivalent, {:.2}x), {} stored / {} evicted",
                    e.atlas_bytes as f64 / (1u64 << 20) as f64,
                    e.atlas_raw_bytes as f64 / (1u64 << 20) as f64,
                    e.atlas_raw_bytes as f64 / e.atlas_bytes as f64,
                    e.atlas_stored,
                    e.atlas_evicted,
                );
            }
        }
        if self.self_checked > 0 || self.violations > 0 {
            println!(
                "[self-check] {} destination audits, {} violation(s){}",
                self.self_checked,
                self.violations,
                if self.violations > 0 {
                    format!(" — artifacts in {}", self.artifact_dir.display())
                } else {
                    String::new()
                }
            );
        }
        if let Some(display) = &self.log_display {
            println!(
                "[checkpoint] {} units in {}{}",
                self.log.len(),
                display.display(),
                if self.reused > 0 {
                    format!(" ({} reused)", self.reused)
                } else {
                    String::new()
                }
            );
        }
        if let Some(ledger) = self.store.fault_ledger() {
            if ledger.total() > 0 {
                let counts: Vec<String> = ledger
                    .counts()
                    .iter()
                    .map(|(name, n)| format!("{name}={n}"))
                    .collect();
                println!(
                    "[storage] survived {} injected disk fault(s): {}",
                    ledger.total(),
                    counts.join(", ")
                );
            }
        }
        // A lingering lock would only confuse the next run (and `repro
        // doctor`). Release is best-effort: under fault injection a
        // failed delete must not fail an otherwise completed sweep.
        if let Some(lock) = &self.lock {
            let _ = self.store.unlock(lock, &lock_owner());
        }
        Ok(())
    }
}

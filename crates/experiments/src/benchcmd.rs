//! `repro bench` — the engine's perf smoke test.
//!
//! Runs the MEDIUM round kernel (one warm-up pass, then a number of
//! timed passes of `UtilityEngine::compute_in` scaled to the graph
//! size) twice over one shared frozen-context atlas — once with the
//! configured `--delta-projections` mode and once with the delta
//! kernel forced off — and prints a machine-readable JSON record:
//! rounds/sec for both runs, their ratio (`delta_speedup`), plus the
//! [`sbgp_core::EngineStats`] work counters (atlas hit rate and
//! resident/raw bytes, cross-round reuse rate, delta hit/fallback
//! counts, the repaired fraction of reachable nodes). CI captures the
//! stdout record and fails if the counters show the frozen-context
//! atlas or the delta kernel was never hit — the guard that keeps the
//! perf work from silently regressing into recompute-everything.
//!
//! `BENCH_engine.json` is a **keyed history**: one record per
//! `n × threads` configuration, so benching at a new scale (e.g.
//! `--n 36964`) appends a row instead of overwriting the n=1,000
//! trajectory. Re-benching an existing configuration replaces its row.

use crate::cli::Options;
use crate::error::ExperimentError;
use crate::output::heading;
use crate::world::{weights, World, TIEBREAK};
use sbgp_asgraph::AsId;
use sbgp_core::{initial_state, DeltaMode, EarlyAdopters, EngineStats, SimConfig, UtilityEngine};
use sbgp_routing::RoutingAtlas;
use std::sync::Arc;
use std::time::Instant;

/// Timed engine passes after the warm-up pass, scaled down at large
/// `n` so a 36K-AS bench finishes in minutes on one machine while the
/// default 1K config keeps its low-variance 10-pass measurement.
fn timed_rounds(n: usize) -> u32 {
    if n >= 20_000 {
        2
    } else if n >= 5_000 {
        3
    } else {
        10
    }
}

/// One warm-up pass, then `rounds` timed passes over the shared
/// `atlas`; returns the timed seconds and the engine's counters
/// (hit/miss counts are relative to this engine, not the atlas's
/// lifetime).
fn timed_passes(
    g: &sbgp_asgraph::AsGraph,
    w: &sbgp_asgraph::Weights,
    cfg: SimConfig,
    atlas: &Arc<RoutingAtlas>,
    state: &sbgp_routing::SecureSet,
    candidates: &[AsId],
    rounds: u32,
) -> (f64, EngineStats) {
    let engine = UtilityEngine::with_atlas(g, w, &TIEBREAK, cfg, Arc::clone(atlas));
    let secs = engine.with_pool(|pool| {
        // Warm-up: the pass a real simulation's first round performs.
        // It fills the cross-round reuse cache, so the timed passes
        // below measure the steady state of rounds 2..N.
        engine.compute_in(pool, state, candidates);
        let t0 = Instant::now();
        for _ in 0..rounds {
            engine.compute_in(pool, state, candidates);
        }
        t0.elapsed().as_secs_f64()
    });
    (secs, engine.stats())
}

/// A record's history key: one row per `family × n × threads`
/// configuration. Engine records predate families and carry no
/// `family` field; they default to `engine`, so the serving-path
/// records (`family: "serve"`) never collide with the kernel
/// trajectory at the same scale.
fn record_key(record: &str) -> (String, u64, u64) {
    let fields = crate::json::parse_object(record).unwrap_or_default();
    let num = |key: &str| fields.get(key).and_then(|v| v.parse().ok()).unwrap_or(0);
    (
        fields
            .get("family")
            .map_or("engine", String::as_str)
            .to_string(),
        num("n"),
        num("threads"),
    )
}

/// Merge a compact single-line `record` into the history file text.
/// Understands both shapes on disk: the schema-2 keyed history, and
/// the legacy single-object file (absorbed as one record so the old
/// trajectory survives the migration). Rows are kept sorted by
/// `(n, threads)` for stable diffs.
fn merge_history(existing: Option<&str>, record: &str) -> String {
    let mut records: Vec<String> = Vec::new();
    if let Some(text) = existing {
        if text.contains("\"schema\"") {
            for line in text.lines() {
                let t = line.trim().trim_end_matches(',');
                if t.starts_with('{') && t.ends_with('}') && t.len() > 2 {
                    records.push(t.to_string());
                }
            }
        } else if text.trim_start().starts_with('{') {
            // Legacy single-object file. No string value in the bench
            // vocabulary contains whitespace, so stripping all of it
            // yields the same JSON as one compact record.
            let compact: String = text.chars().filter(|c| !c.is_whitespace()).collect();
            if compact.len() > 2 {
                records.push(compact);
            }
        }
    }
    let key = record_key(record);
    if let Some(pos) = records.iter().position(|r| record_key(r) == key) {
        records[pos] = record.to_string();
    } else {
        records.push(record.to_string());
    }
    records.sort_by_key(|r| {
        // `engine` rows stay first (the historical file shape), then
        // other families alphabetically; within a family, by scale.
        let (family, n, threads) = record_key(r);
        (family != "engine", family, n, threads)
    });
    let mut out = String::from("{\n  \"schema\": 2,\n  \"records\": [\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str("    ");
        out.push_str(r);
        if i + 1 < records.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

/// Merge one compact single-line record into `BENCH_engine.json`
/// through `store` (atomic replace; a torn history is impossible).
/// Returns the post-merge record count. Shared by `repro bench`
/// (family `engine`, implicit) and the `repro serve` drain path
/// (family `serve`).
pub(crate) fn write_history_record(
    store: &sbgp_core::storage::Store,
    record: &str,
) -> Result<usize, ExperimentError> {
    let existing = store
        .get("BENCH_engine.json")
        .ok()
        .flatten()
        .and_then(|b| String::from_utf8(b).ok());
    let history = merge_history(existing.as_deref(), record);
    store.put_atomic("BENCH_engine.json", history.as_bytes())?;
    Ok(history
        .lines()
        .filter(|l| l.trim_start().starts_with('{') && l.trim().len() > 2)
        .count())
}

/// Run the round-kernel benchmark, print the record, and merge it into
/// the `BENCH_engine.json` history.
pub fn bench(opts: &Options) -> Result<(), ExperimentError> {
    heading("bench: engine round kernel");
    let world = World::build(opts)?;
    let g = world.base();
    let w = weights(g, opts);
    let cfg = SimConfig {
        theta: opts.theta,
        threads: opts.threads,
        ctx_cache_mb: opts.ctx_cache_mb,
        delta_projections: opts.delta_projections,
        ..SimConfig::default()
    };

    let state = initial_state(g, &EarlyAdopters::ContentProvidersPlusTopIsps(5).select(g));
    let candidates: Vec<AsId> = g.isps().filter(|&n| !state.get(n)).collect();

    // One atlas shared by both runs: the build is the dominant cost at
    // large n and is identical for every `--delta-projections` mode.
    let atlas = Arc::new(RoutingAtlas::build(
        g,
        &TIEBREAK,
        cfg.ctx_cache_bytes(),
        cfg.effective_threads(),
    ));
    let rounds = timed_rounds(g.len());

    let (secs, s) = timed_passes(g, &w, cfg, &atlas, &state, &candidates, rounds);
    let rps = f64::from(rounds) / secs.max(1e-9);
    // Baseline with the delta kernel forced off: same world, same
    // passes, full recompute per projection. The ratio is the delta
    // kernel's round-level speedup (1.0 when the main run is `off`).
    let off_cfg = SimConfig {
        delta_projections: DeltaMode::Off,
        ..cfg
    };
    let (off_secs, _) = timed_passes(g, &w, off_cfg, &atlas, &state, &candidates, rounds);
    let off_rps = f64::from(rounds) / off_secs.max(1e-9);
    let speedup = off_secs / secs.max(1e-9);
    let compression = if s.atlas_bytes == 0 {
        1.0
    } else {
        s.atlas_raw_bytes as f64 / s.atlas_bytes as f64
    };

    let json = format!(
        "{{\n  \
         \"n\": {n},\n  \
         \"threads\": {threads},\n  \
         \"ctx_cache_mb\": {ccm},\n  \
         \"rounds\": {rounds},\n  \
         \"secs\": {secs:.6},\n  \
         \"rounds_per_sec\": {rps:.3},\n  \
         \"full_recompute_secs\": {osecs:.6},\n  \
         \"full_recompute_rounds_per_sec\": {orps:.3},\n  \
         \"delta_speedup\": {speedup:.3},\n  \
         \"contexts_computed\": {ctx},\n  \
         \"trees_computed\": {trees},\n  \
         \"dests_computed\": {dc},\n  \
         \"dests_reused\": {dr},\n  \
         \"reuse_rate\": {rr:.6},\n  \
         \"atlas_hits\": {ah},\n  \
         \"atlas_misses\": {am},\n  \
         \"atlas_hit_rate\": {ahr:.6},\n  \
         \"atlas_bytes\": {ab},\n  \
         \"atlas_raw_bytes\": {arb},\n  \
         \"atlas_compression\": {ac:.3},\n  \
         \"atlas_mib\": {amib:.2},\n  \
         \"atlas_build_ms\": {abm:.3},\n  \
         \"atlas_ever_hit\": {ever},\n  \
         \"delta_hits\": {dh},\n  \
         \"delta_fallbacks\": {df},\n  \
         \"delta_touched_fraction\": {dtf:.6},\n  \
         \"delta_ever_hit\": {dever}\n}}\n",
        n = g.len(),
        threads = cfg.effective_threads(),
        ccm = opts.ctx_cache_mb,
        osecs = off_secs,
        orps = off_rps,
        ctx = s.contexts_computed,
        trees = s.trees_computed,
        dc = s.dests_computed,
        dr = s.dests_reused,
        rr = s.reuse_rate(),
        ah = s.atlas_hits,
        am = s.atlas_misses,
        ahr = s.atlas_hit_rate(),
        ab = s.atlas_bytes,
        arb = s.atlas_raw_bytes,
        ac = compression,
        amib = s.atlas_bytes as f64 / (1u64 << 20) as f64,
        abm = s.atlas_build_ns as f64 / 1e6,
        ever = s.atlas_hits > 0,
        dh = s.delta_hits,
        df = s.delta_fallbacks,
        dtf = s.delta_touched_fraction(),
        dever = s.delta_hits > 0,
    );
    print!("{json}");

    let dir = opts
        .out
        .clone()
        .unwrap_or_else(|| std::path::PathBuf::from("results"));
    let path = dir.join("BENCH_engine.json");
    let store = opts.storage_at(&dir);
    let compact: String = json.chars().filter(|c| !c.is_whitespace()).collect();
    // Atomic replace through the artifact store: a crash mid-write
    // never leaves a torn history file, and a failed write fails the
    // command instead of silently dropping the benchmark record.
    let count = write_history_record(&store, &compact)?;
    println!("[bench] wrote {} ({count} record(s))", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const REC_1K: &str = "{\"n\":1000,\"threads\":1,\"rounds_per_sec\":31.9}";
    const REC_36K: &str = "{\"n\":36964,\"threads\":1,\"rounds_per_sec\":0.02}";

    #[test]
    fn history_starts_empty_and_appends() {
        let h1 = merge_history(None, REC_1K);
        assert!(h1.contains("\"schema\": 2"));
        assert!(h1.contains(REC_1K));
        let h2 = merge_history(Some(&h1), REC_36K);
        assert!(h2.contains(REC_1K), "old row survives: {h2}");
        assert!(h2.contains(REC_36K), "new row added: {h2}");
        // Sorted ascending by n.
        assert!(h2.find(REC_1K).unwrap() < h2.find(REC_36K).unwrap());
    }

    #[test]
    fn history_replaces_matching_configuration() {
        let h1 = merge_history(None, REC_1K);
        let updated = "{\"n\":1000,\"threads\":1,\"rounds_per_sec\":40.0}";
        let h2 = merge_history(Some(&h1), updated);
        assert!(!h2.contains("31.9"), "stale row replaced: {h2}");
        assert!(h2.contains("40.0"));
        // Same n, different thread count: a distinct row.
        let threads4 = "{\"n\":1000,\"threads\":4,\"rounds_per_sec\":90.0}";
        let h3 = merge_history(Some(&h2), threads4);
        assert!(h3.contains("40.0") && h3.contains("90.0"));
    }

    #[test]
    fn legacy_single_object_file_is_absorbed() {
        let legacy = "{\n  \"n\": 1000,\n  \"threads\": 1,\n  \"rounds_per_sec\": 31.9,\n  \
                      \"atlas_ever_hit\": true\n}\n";
        let h = merge_history(Some(legacy), REC_36K);
        assert!(h.contains("\"schema\": 2"));
        assert!(
            h.contains(
                "{\"n\":1000,\"threads\":1,\"rounds_per_sec\":31.9,\"atlas_ever_hit\":true}"
            ),
            "legacy row compacted and kept: {h}"
        );
        assert!(h.contains(REC_36K));
        // Re-benching the legacy configuration replaces it in place.
        let h2 = merge_history(Some(&h), REC_1K);
        assert!(!h2.contains("atlas_ever_hit"), "legacy row replaced: {h2}");
        assert!(h2.contains(REC_1K));
    }

    #[test]
    fn families_key_independently() {
        // A serve record at the same n × threads as an engine record
        // is a distinct row, not a replacement.
        let serve = "{\"family\":\"serve\",\"n\":1000,\"threads\":1,\"jobs_served\":3}";
        let h1 = merge_history(None, REC_1K);
        let h2 = merge_history(Some(&h1), serve);
        assert!(h2.contains(REC_1K), "engine row survives: {h2}");
        assert!(h2.contains(serve), "serve row added: {h2}");
        // Engine rows sort first regardless of insertion order.
        assert!(h2.find(REC_1K).unwrap() < h2.find(serve).unwrap());
        // Re-recording the serve configuration replaces only that row.
        let serve2 = "{\"family\":\"serve\",\"n\":1000,\"threads\":1,\"jobs_served\":9}";
        let h3 = merge_history(Some(&h2), serve2);
        assert!(!h3.contains("jobs_served\":3"), "{h3}");
        assert!(h3.contains(REC_1K) && h3.contains(serve2));
    }

    #[test]
    fn timed_rounds_scales_down_with_n() {
        assert_eq!(timed_rounds(1_000), 10);
        assert_eq!(timed_rounds(8_000), 3);
        assert_eq!(timed_rounds(36_964), 2);
    }
}

//! Model set-up shared by the in-process workloads, the layer probes
//! and the engine replay.
//!
//! The settings mirror what `repro` passes (`sweeps::run_once`,
//! `world::case_study_config`): outgoing utility, stubs prefer secure
//! routes, one retry per destination task, the hash tiebreaker and
//! x = 10% CP traffic.

use crate::report::Report;
use crate::stats::median;
use crate::trace::Tracer;
use sbgp_asgraph::gen::{generate_checked, GenParams};
use sbgp_asgraph::{AsGraph, AsId, Weights};
use sbgp_core::{DeltaMode, EngineStats, SimConfig, SimResult, UtilityEngine, UtilityModel};
use sbgp_routing::{
    accumulate_flows, compute_tree, delta_project, fold_utilities, AtlasScratch, DeltaScratch,
    DestContext, HashTieBreak, RouteTree, RoutingAtlas, SecureSet, TbDependents, TreePolicy,
};
use std::sync::Arc;
use std::time::Instant;

/// Worker threads for every workload (the benchmark host has 2 cores).
pub const THREADS: usize = 2;
/// The paper's shared hash tiebreaker, as `repro` uses it.
pub const TIEBREAK: HashTieBreak = HashTieBreak;
/// `repro`'s default CP traffic share and atlas budget.
pub const CP_FRACTION: f64 = 0.10;
pub const CTX_CACHE_MB: usize = 256;
pub const POLICY: TreePolicy = TreePolicy {
    stubs_prefer_secure: true,
};
/// The θ grid of the sweep figures.
pub const THETAS: [f64; 7] = [0.0, 0.05, 0.10, 0.20, 0.30, 0.40, 0.50];

/// The seed of every in-process workload's topology: `repro`'s
/// default, so fig9-sweep is the ROADMAP reference cell. The topology
/// stays fixed across `--seed` values because work varies with it: a
/// fresh n=1500 graph per seed moved fig9-sweep's `run_s` by ±16%,
/// more than any change the benchmark must resolve.
pub const TOPOLOGY_SEED: u64 = 42;

/// SplitMix64 of `seed` and `salt`: independent sub-seeds (graph,
/// pair sampling, job script) from the one `--seed` argument.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Fisher–Yates driven by [`mix`].
pub fn shuffle<T>(xs: &mut [T], seed: u64) {
    for i in (1..xs.len()).rev() {
        let j = (mix(seed, i as u64) % (i as u64 + 1)) as usize;
        xs.swap(i, j);
    }
}

pub fn generate(n: usize, seed: u64) -> AsGraph {
    generate_checked(&GenParams::new(n, seed))
        .expect("benchmark graph sizes are valid generator input")
        .graph
}

pub fn build_atlas(g: &AsGraph, budget_mb: usize) -> Arc<RoutingAtlas> {
    Arc::new(RoutingAtlas::build(
        g,
        &TIEBREAK,
        budget_mb.saturating_mul(1 << 20),
        THREADS,
    ))
}

pub fn weights(g: &AsGraph) -> Weights {
    Weights::with_cp_fraction(g, CP_FRACTION)
}

pub fn sim_config(theta: f64, max_rounds: usize, threads: usize, delta: DeltaMode) -> SimConfig {
    SimConfig {
        theta,
        model: UtilityModel::Outgoing,
        tree_policy: POLICY,
        max_rounds,
        threads,
        max_task_retries: 1,
        ctx_cache_mb: CTX_CACHE_MB,
        delta_projections: delta,
        ..SimConfig::default()
    }
}

/// A healthy result: every destination task contributed, none was
/// quarantined or skipped, and no self-check fired.
pub fn check_sim(r: &mut Report, label: &str, res: &SimResult) {
    r.check(
        res.completeness == 1.0
            && res.quarantined.is_empty()
            && res.violations.is_empty()
            && res.deadline_skipped.is_empty(),
        || {
            format!(
                "{label}: completeness {}, {} quarantined, {} violations, {} deadline-skipped",
                res.completeness,
                res.quarantined.len(),
                res.violations.len(),
                res.deadline_skipped.len()
            )
        },
    );
}

pub fn add_stats(total: &mut EngineStats, s: &EngineStats) {
    total.contexts_computed += s.contexts_computed;
    total.trees_computed += s.trees_computed;
    total.dests_computed += s.dests_computed;
    total.dests_reused += s.dests_reused;
    total.passes += s.passes;
    total.compute_ns += s.compute_ns;
    total.atlas_hits += s.atlas_hits;
    total.atlas_misses += s.atlas_misses;
    total.delta_hits += s.delta_hits;
    total.delta_fallbacks += s.delta_fallbacks;
    total.delta_touched_nodes += s.delta_touched_nodes;
    total.delta_full_nodes += s.delta_full_nodes;
}

/// The engine's counters over a timed body, as layer metrics.
/// `sim_s` is the summed wall time of the `Simulation::run` calls.
pub fn engine_metrics(r: &mut Report, s: &EngineStats, sim_s: f64) {
    let busy = s.compute_ns as f64 / 1e9;
    r.metric("engine.busy_s", busy, "s");
    r.metric("engine.passes", s.passes as f64, "count");
    r.metric("engine.trees", s.trees_computed as f64, "count");
    r.metric("engine.reuse_rate", s.reuse_rate(), "ratio");
    r.metric("sim.self_s", (sim_s - busy).max(0.0), "s");
    r.metric("atlas.hit_rate", s.atlas_hit_rate(), "ratio");
    r.metric("delta.hits", s.delta_hits as f64, "count");
    r.metric("delta.fallbacks", s.delta_fallbacks as f64, "count");
    r.metric(
        "delta.touched_fraction",
        s.delta_touched_fraction(),
        "ratio",
    );
}

/// Static atlas figures: resident size and compression.
pub fn atlas_metrics(r: &mut Report, atlas: &RoutingAtlas) {
    let a = atlas.stats();
    r.metric("atlas.mib", a.bytes as f64 / (1 << 20) as f64, "MiB");
    r.metric("atlas.compression", a.compression_ratio(), "ratio");
}

/// Destinations the probes sample: secure ones first (only they make a
/// candidate's projection non-trivial), then any, deterministically.
fn probe_dests(g: &AsGraph, state: &SecureSet, k: usize, seed: u64) -> Vec<AsId> {
    let n = g.len() as u64;
    let mut out: Vec<AsId> = Vec::with_capacity(k);
    let mut i = 0u64;
    while out.len() < k && i < 64 * k as u64 {
        let d = AsId((mix(seed, i) % n) as u32);
        let want_secure = i < 32 * k as u64;
        if !out.contains(&d) && (!want_secure || state.get(d)) {
            out.push(d);
        }
        i += 1;
    }
    out
}

/// Per-call cost of each routing layer on `k` sampled destinations of
/// `state`: atlas decode vs fresh BFS (Observation C.1), base tree
/// (App. C.2), utility fold (Eqs. 1–2) and one candidate's delta
/// projection (C.4-3). Reports medians in microseconds.
#[allow(clippy::too_many_arguments)]
pub fn probe_layers(
    r: &mut Report,
    tracer: &Tracer,
    g: &AsGraph,
    w: &Weights,
    atlas: &RoutingAtlas,
    state: &SecureSet,
    candidates: &[AsId],
    seed: u64,
) {
    const K: usize = 32;
    let n = g.len();
    let mut scratch = AtlasScratch::new();
    let mut ctx = DestContext::new(n);
    let mut tree = RouteTree::new(n);
    let mut flow = Vec::new();
    let mut base_flow = Vec::new();
    let (mut u_out, mut u_in) = (vec![0.0; n], vec![0.0; n]);
    let mut deps = TbDependents::new(n);
    let mut dscratch = DeltaScratch::new(n);
    let mut samples: [Vec<f64>; 5] = Default::default();
    let us = |t: Instant| t.elapsed().as_nanos() as f64 / 1e3;
    let probe = tracer.open("probe.layers", None);
    for (i, d) in probe_dests(g, state, K, seed).into_iter().enumerate() {
        let t = Instant::now();
        ctx.compute(g, d, &TIEBREAK);
        samples[1].push(us(t));

        let t = Instant::now();
        let Some(view) = atlas.get(d, &mut scratch) else {
            // Evicted by the budget: the engine recomputes it, and so
            // does the probe (the BFS sample above).
            continue;
        };
        samples[0].push(us(t));

        let t = Instant::now();
        compute_tree(g, &view, state, POLICY, &mut tree);
        samples[2].push(us(t));

        let t = Instant::now();
        fold_utilities(&view, &tree, w, &mut flow, &mut u_out, &mut u_in);
        samples[3].push(us(t));

        if candidates.is_empty() {
            continue;
        }
        let c = candidates[(mix(seed ^ 0xde17a, i as u64) % candidates.len() as u64) as usize];
        let mut flipped = state.clone();
        let mut flips = vec![c];
        flipped.set(c, true);
        for s in g.stub_customers_of(c) {
            if !flipped.get(s) {
                flipped.set(s, true);
                flips.push(s);
            }
        }
        deps.build(&view);
        accumulate_flows(&view, &tree, w, &mut base_flow);
        let t = Instant::now();
        let out = delta_project(
            g,
            &view,
            &deps,
            &tree,
            &base_flow,
            &flipped,
            &flips,
            POLICY,
            w,
            c,
            usize::MAX,
            &mut dscratch,
        );
        samples[4].push(us(t));
        r.check(out.is_some(), || {
            format!("delta_project without a cutoff gave no answer for dest {d:?}")
        });
    }
    tracer.close(probe);
    let names = [
        "atlas.get_us",
        "atlas.bfs_us",
        "tree.compute_us",
        "flows.fold_us",
        "delta.project_us",
    ];
    for (name, xs) in names.iter().zip(&samples) {
        r.metric(name, median(xs).unwrap_or(0.0), "us");
    }
}

/// Which part of a recorded run [`replay_passes`] recomputes.
pub struct Replay {
    /// Rounds to replay, from round 1.
    pub rounds: usize,
    /// Start with the all-insecure pass that fills the cross-round
    /// cache, as `Simulation::run` does.
    pub warm: bool,
    /// Project every `stride`-th candidate of a round (1 = all),
    /// starting at `offset`; every node's base utility is always
    /// recomputed.
    pub stride: usize,
    pub offset: usize,
}

impl Replay {
    pub const ALL: Replay = Replay {
        rounds: usize::MAX,
        warm: true,
        stride: 1,
        offset: 0,
    };
}

/// Replay a finished simulation's engine passes on a fresh engine
/// built from `cfg`, checking every recomputed utility against the
/// recorded run (`==`). Returns each pass's wall seconds.
#[allow(clippy::too_many_arguments)]
pub fn replay_passes(
    r: &mut Report,
    label: &str,
    g: &AsGraph,
    w: &Weights,
    atlas: &Arc<RoutingAtlas>,
    res: &SimResult,
    cfg: SimConfig,
    what: &Replay,
) -> Vec<f64> {
    let engine = UtilityEngine::with_atlas(g, w, &TIEBREAK, cfg, Arc::clone(atlas));
    let states = res.states_by_round();
    let mut secs = Vec::new();
    let mut ok = true;
    engine.with_pool(|pool| {
        if what.warm {
            let t = Instant::now();
            let comp = engine.compute_in(pool, &SecureSet::new(g.len()), &[]);
            secs.push(t.elapsed().as_secs_f64());
            ok &= comp.base_out == res.starting_utilities;
        }
        for (k, rec) in res.rounds.iter().take(what.rounds).enumerate() {
            let picked: Vec<(AsId, f64)> = rec
                .projected
                .iter()
                .copied()
                .skip(what.offset % what.stride)
                .step_by(what.stride)
                .collect();
            let cands: Vec<AsId> = picked.iter().map(|&(n, _)| n).collect();
            let t = Instant::now();
            let comp = engine.compute_in(pool, &states[k], &cands);
            secs.push(t.elapsed().as_secs_f64());
            ok &= comp.base_out == rec.utilities
                && picked
                    .iter()
                    .all(|&(n, p)| comp.projected(UtilityModel::Outgoing, n) == p)
                && comp.completeness == 1.0;
        }
    });
    r.check(ok, || {
        format!(
            "{label}: replayed engine passes ({} threads, delta {:?}) differ from the recorded run",
            cfg.threads, cfg.delta_projections
        )
    });
    secs
}

/// Peak resident set (VmHWM) of a process, in MiB.
pub fn peak_rss_mib(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sub_seeds_are_deterministic_and_distinct() {
        assert_eq!(mix(7, 1), mix(7, 1));
        assert_ne!(mix(7, 1), mix(7, 2));
        assert_ne!(mix(7, 1), mix(8, 1));
    }

    #[test]
    fn probe_destinations_are_deterministic_per_seed() {
        let g = generate(200, 3);
        let mut state = SecureSet::new(g.len());
        for i in 0..40 {
            state.set(AsId(i), true);
        }
        let a = probe_dests(&g, &state, 8, 11);
        assert_eq!(a, probe_dests(&g, &state, 8, 11));
        assert_ne!(a, probe_dests(&g, &state, 8, 12));
        assert!(a.iter().all(|&d| state.get(d)));
    }
}

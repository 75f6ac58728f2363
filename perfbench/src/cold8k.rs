//! `cold-8k`: the fig3 case-study cell (CPs plus the top 5 ISPs, θ =
//! 0.05) at n=8000, stopped after round 2.
//!
//! At this size the atlas build is about a third of the wall clock and
//! most of the peak memory, so set-up and memory changes show here and
//! stay hidden on `fig9-sweep`. The atlas budget holds every context
//! (as the 8K scale run does), so each lookup is a decode, not a BFS.
//! A job is one two-round `Simulation::run` on the built atlas.
//!
//! The cell has no random input: `--seed` only picks the destinations
//! the traced run's layer probes sample.

use crate::report::Report;
use crate::trace::Tracer;
use crate::world::{self, Replay, THREADS, TIEBREAK};
use crate::{latency_metrics, Ctx};
use sbgp_asgraph::{AsGraph, AsId, Weights};
use sbgp_core::{DeltaMode, EarlyAdopters, SimResult, Simulation};
use sbgp_routing::RoutingAtlas;
use std::sync::Arc;

const N: usize = 8000;
const ROUNDS: usize = 2;
const THETA: f64 = 0.05;
/// Enough for all 8,000 compressed contexts (about 400 MiB).
const ATLAS_MB: usize = 512;

struct World {
    g: AsGraph,
    w: Weights,
    atlas: Arc<RoutingAtlas>,
    adopters: Vec<AsId>,
}

fn setup(tr: &Tracer, seed: u64) -> World {
    let (g, _) = tr.time("asgraph.generate", None, || world::generate(N, seed));
    let w = world::weights(&g);
    let (atlas, _) = tr.time("atlas.build", None, || world::build_atlas(&g, ATLAS_MB));
    let adopters = EarlyAdopters::ContentProvidersPlusTopIsps(5).select(&g);
    World {
        g,
        w,
        atlas,
        adopters,
    }
}

fn cell(tr: &Tracer, w: &World) -> SimResult {
    let (res, _) = tr.time("sim.run", None, || {
        let cfg = world::sim_config(THETA, ROUNDS, THREADS, DeltaMode::Auto);
        Simulation::new(&w.g, &w.w, &TIEBREAK, cfg)
            .with_shared_atlas(Arc::clone(&w.atlas))
            .run(&w.adopters)
    });
    res
}

/// `engine.pass_p50_s` and `engine.scaling_2t`: replay `res`'s engine
/// passes at 1 and at 2 threads (each replay also checks every
/// utility against the recorded run).
pub fn scaling_metrics(
    r: &mut Report,
    tr: &Tracer,
    label: &str,
    g: &AsGraph,
    w: &Weights,
    atlas: &Arc<RoutingAtlas>,
    res: &SimResult,
) {
    let mut total = [0.0; 2];
    let mut passes_2t = Vec::new();
    for (i, threads) in [1, THREADS].into_iter().enumerate() {
        let cfg = world::sim_config(0.0, 0, threads, DeltaMode::Auto);
        let span = tr.open("engine.replay", None);
        let secs = world::replay_passes(r, label, g, w, atlas, res, cfg, &Replay::ALL);
        tr.close(span);
        total[i] = secs.iter().sum();
        if threads == THREADS {
            passes_2t = secs;
        }
    }
    r.metric(
        "engine.pass_p50_s",
        crate::stats::median(&passes_2t).unwrap_or(0.0),
        "s",
    );
    r.metric("engine.scaling_2t", total[0] / total[1], "ratio");
}

pub fn run(ctx: &mut Ctx) {
    let (w, setup_s) = ctx.repeat_setup(|tr| setup(tr, world::TOPOLOGY_SEED));
    let iters = ctx.iterate(|tr| cell(tr, &w));
    let peak_rss = if ctx.traced() { 0.0 } else { ctx.peak_rss() };
    let r = &mut ctx.report;

    let all = iters.outs.iter().chain(iters.traced.iter().map(|(s, _)| s));
    for (k, res) in all.enumerate() {
        r.attempt(1);
        world::check_sim(r, &format!("cold-8k iteration {k}"), res);
        r.check(res == &iters.outs[0] && res.rounds.len() == ROUNDS, || {
            format!(
                "cold-8k iteration {k}: {} rounds, or differs from iteration 0",
                res.rounds.len()
            )
        });
    }
    // Round 1's engine pass again on the reference path: a cold engine
    // with full projections (no delta kernel) on one thread. It
    // recomputes every node's base utility but only a seeded eighth of
    // the candidates' projections: all of them take ~15 s at this size,
    // longer than the timed body.
    let cfg = world::sim_config(THETA, ROUNDS, 1, DeltaMode::Off);
    let round1 = Replay {
        rounds: 1,
        warm: false,
        stride: 8,
        offset: ctx.seed as usize,
    };
    r.attempt(1);
    world::replay_passes(
        r,
        "cold-8k round 1",
        &w.g,
        &w.w,
        &w.atlas,
        &iters.outs[0],
        cfg,
        &round1,
    );

    if !ctx.tracer.enabled() {
        r.metric("setup_s", setup_s, "s");
        iters.report_run(r, false);
        r.metric("peak_rss_mib", peak_rss, "MiB");
        latency_metrics(r, &iters);
        return;
    }

    let (res, _) = iters
        .traced
        .as_ref()
        .expect("traced run has a traced iteration");
    let spans = ctx.tracer.spans();
    let span_s = |name: &str| {
        spans
            .iter()
            .filter(|x| x.name == name)
            .map(|x| x.dur_ns() as f64 / 1e9)
            .sum::<f64>()
    };
    r.metric("asgraph.generate_s", span_s("asgraph.generate"), "s");
    r.metric("atlas.build_s", span_s("atlas.build"), "s");
    world::atlas_metrics(r, &w.atlas);
    world::engine_metrics(r, &res.stats, span_s("sim.run"));
    iters.report_run(r, true);
    let states = res.states_by_round();
    let cands: Vec<AsId> = res.rounds[1].projected.iter().map(|&(n, _)| n).collect();
    world::probe_layers(
        r,
        &ctx.tracer,
        &w.g,
        &w.w,
        &w.atlas,
        &states[1],
        &cands,
        ctx.seed,
    );
    scaling_metrics(r, &ctx.tracer, "cold-8k", &w.g, &w.w, &w.atlas, res);
}

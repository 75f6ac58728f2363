//! `fig9-sweep`: exactly `repro fig9 --ases 1500 --threads 2`.
//!
//! One shared atlas, then 14 cells — content providers plus the top 5
//! ISPs, and the top fifth of ISPs by degree, each at the 7 θ values —
//! each a `Simulation::run` followed by `metrics::secure_path_fraction`
//! on its final state. A job is one sweep. `--seed` shuffles the order
//! the cells run in (results do not depend on it) and picks the cell
//! the reference check reruns.

use crate::trace::Tracer;
use crate::world::{self, mix, POLICY, THETAS, THREADS, TIEBREAK};
use crate::{latency_metrics, Ctx};
use sbgp_asgraph::{AsGraph, AsId, Weights};
use sbgp_core::{metrics, DeltaMode, EarlyAdopters, EngineStats, SimResult, Simulation};
use sbgp_routing::RoutingAtlas;
use std::sync::Arc;

const N: usize = 1500;
/// CPs + top 5 ISPs at θ = 0.05: the case-study cell, whose recorded
/// rounds the traced run's probes and replay use.
const CASE_STUDY_CELL: usize = 1;

struct World {
    g: AsGraph,
    w: Weights,
    atlas: Arc<RoutingAtlas>,
}

/// Build the graph and the shared atlas, as `repro fig9` does.
fn setup(tr: &Tracer, seed: u64) -> World {
    let (g, _) = tr.time("asgraph.generate", None, || world::generate(N, seed));
    let w = world::weights(&g);
    let (atlas, _) = tr.time("atlas.build", None, || {
        world::build_atlas(&g, world::CTX_CACHE_MB)
    });
    World { g, w, atlas }
}

struct Cell {
    adopters: Vec<AsId>,
    theta: f64,
}

fn cells(g: &AsGraph) -> Vec<Cell> {
    let big = (g.isps().count() / 5).clamp(12, 200);
    let mut out = Vec::new();
    for adopters in [
        EarlyAdopters::ContentProvidersPlusTopIsps(5),
        EarlyAdopters::TopIspsByDegree(big),
    ] {
        let seeds = adopters.select(g);
        for &theta in &THETAS {
            out.push(Cell {
                adopters: seeds.clone(),
                theta,
            });
        }
    }
    out
}

/// What one sweep produced and where its time went.
struct Sweep {
    results: Vec<SimResult>,
    fractions: Vec<f64>,
    sim_s: f64,
    metric_s: f64,
    stats: EngineStats,
}

/// Run the cells in `order`; results come back in cell order.
fn sweep(tr: &Tracer, w: &World, cells: &[Cell], order: &[usize]) -> Sweep {
    let mut s = Sweep {
        results: Vec::new(),
        fractions: Vec::new(),
        sim_s: 0.0,
        metric_s: 0.0,
        stats: EngineStats::default(),
    };
    let top = tr.open("fig9.sweep", None);
    let mut done = Vec::with_capacity(cells.len());
    for &i in order {
        let c = &cells[i];
        let cell = tr.open("fig9.cell", top.id());
        let (res, d_sim) = tr.time("sim.run", cell.id(), || {
            let cfg = world::sim_config(c.theta, 100, THREADS, DeltaMode::Auto);
            Simulation::new(&w.g, &w.w, &TIEBREAK, cfg)
                .with_shared_atlas(Arc::clone(&w.atlas))
                .run(&c.adopters)
        });
        let (frac, d_metric) = tr.time("metrics.secure_path", cell.id(), || {
            metrics::secure_path_fraction(&w.g, &res.final_state, POLICY, &TIEBREAK)
        });
        tr.close(cell);
        s.sim_s += d_sim.as_secs_f64();
        s.metric_s += d_metric.as_secs_f64();
        world::add_stats(&mut s.stats, &res.stats);
        done.push((i, res, frac));
    }
    tr.close(top);
    done.sort_by_key(|&(i, _, _)| i);
    for (_, res, frac) in done {
        s.results.push(res);
        s.fractions.push(frac);
    }
    s
}

pub fn run(ctx: &mut Ctx) {
    let (w, setup_s) = ctx.repeat_setup(|tr| setup(tr, world::TOPOLOGY_SEED));
    let cells = cells(&w.g);
    let mut order: Vec<usize> = (0..cells.len()).collect();
    world::shuffle(&mut order, mix(ctx.seed, 0xf19));
    let iters = ctx.iterate(|tr| sweep(tr, &w, &cells, &order));
    let peak_rss = if ctx.traced() { 0.0 } else { ctx.peak_rss() };
    let r = &mut ctx.report;

    // Output checks, outside every timed window.
    let all = iters.outs.iter().chain(iters.traced.iter().map(|(s, _)| s));
    for (k, s) in all.enumerate() {
        r.attempt(s.results.len() as u64);
        for (i, res) in s.results.iter().enumerate() {
            world::check_sim(r, &format!("fig9 iteration {k} cell {i}"), res);
        }
        r.check(
            s.results == iters.outs[0].results && s.fractions == iters.outs[0].fractions,
            || format!("fig9 iteration {k} differs from iteration 0"),
        );
        r.check(s.fractions.iter().all(|f| (0.0..=1.0).contains(f)), || {
            format!("fig9 iteration {k}: secure-path fraction outside [0, 1]")
        });
    }
    // One cell again on the reference path: full projections (no
    // delta kernel), one thread. Results must be bit-identical. The
    // cell is drawn from θ ≥ 0.2, whose few rounds keep this check
    // short; on this path a low-θ cell added up to 15 s to a run.
    let cheap: Vec<usize> = (0..cells.len())
        .filter(|&i| cells[i].theta >= 0.2)
        .collect();
    let pick = cheap[(mix(ctx.seed, 0xc4ec) % cheap.len() as u64) as usize];
    let cfg = world::sim_config(cells[pick].theta, 100, 1, DeltaMode::Off);
    let reference = Simulation::new(&w.g, &w.w, &TIEBREAK, cfg)
        .with_shared_atlas(Arc::clone(&w.atlas))
        .run(&cells[pick].adopters);
    r.attempt(1);
    r.check(reference == iters.outs[0].results[pick], || {
        format!("fig9 cell {pick}: delta-off single-thread rerun differs")
    });

    if !ctx.tracer.enabled() {
        r.metric("setup_s", setup_s, "s");
        iters.report_run(r, false);
        r.metric("peak_rss_mib", peak_rss, "MiB");
        latency_metrics(r, &iters);
        return;
    }

    // Per-layer metrics from the traced iteration.
    let (s, traced_s) = iters
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
    world::engine_metrics(r, &s.stats, s.sim_s);
    r.metric("metrics.secure_path_s", s.metric_s, "s");
    let busy = s.stats.compute_ns as f64 / 1e9;
    let sim_self = (s.sim_s - busy).max(0.0);
    println!(
        "[trace] engine.busy_s {busy:.4} + metrics.secure_path_s {:.4} + sim.self_s {sim_self:.4} \
         = {:.4} s of traced run_s {traced_s:.4} s ({:.1}%)",
        s.metric_s,
        busy + s.metric_s + sim_self,
        100.0 * (busy + s.metric_s + sim_self) / traced_s
    );
    iters.report_run(r, true);

    let res = &s.results[CASE_STUDY_CELL];
    let states = res.states_by_round();
    let mid = res.rounds.len() / 2;
    let cands: Vec<AsId> = res.rounds[mid].projected.iter().map(|&(n, _)| n).collect();
    world::probe_layers(
        r,
        &ctx.tracer,
        &w.g,
        &w.w,
        &w.atlas,
        &states[mid],
        &cands,
        ctx.seed,
    );
    crate::cold8k::scaling_metrics(r, &ctx.tracer, "fig9", &w.g, &w.w, &w.atlas, res);
}

//! The θ-sweep figures (8, 9, 11, 12), with checkpoint/resume.
//!
//! Each sweep cell (one early-adopter set × one θ, plus any per-figure
//! dimensions) is a checkpoint unit: with `--resume`, each finished
//! cell is appended to the sweep's record log as it completes, and a
//! rerun reuses the cells the log holds instead of recomputing them —
//! see [`crate::harness::SweepRunner`].

use crate::cli::Options;
use crate::error::ExperimentError;
use crate::harness::SweepRunner;
use crate::output::{f3, heading, Table};
use crate::world::{weights, World, THETAS, TIEBREAK};
use sbgp_asgraph::{AsGraph, Weights};
use sbgp_core::{metrics, EarlyAdopters, SimConfig, SimResult, Simulation, UtilityModel};
use sbgp_routing::{RoutingAtlas, TreePolicy};
use std::sync::Arc;

/// One frozen-context atlas per graph, shared read-only by every
/// simulation a figure runs over that graph — all θ values, adopter
/// sets, sweep repetitions, and both stub tiebreak policies, since
/// per-destination route contexts are state-independent (Observation
/// C.1) and do not depend on [`TreePolicy`].
///
/// Under `repro serve` the daemon's hot atlas cache sits in front:
/// repeat jobs over the same world reuse the built atlas instead of
/// rebuilding it. One-shot CLI runs never install the cache, so their
/// path is exactly the bare build.
pub(crate) fn build_atlas(g: &AsGraph, opts: &Options) -> Arc<RoutingAtlas> {
    let threads = if opts.threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        opts.threads
    };
    crate::serve::cached_atlas(g, opts, || {
        Arc::new(RoutingAtlas::build(
            g,
            &TIEBREAK,
            opts.ctx_cache_mb.saturating_mul(1 << 20),
            threads,
        ))
    })
}

pub(crate) fn run_once(
    g: &AsGraph,
    w: &Weights,
    atlas: &Arc<RoutingAtlas>,
    adopters: &EarlyAdopters,
    theta: f64,
    stubs_prefer_secure: bool,
    opts: &Options,
) -> SimResult {
    let cfg = SimConfig {
        theta,
        model: UtilityModel::Outgoing,
        tree_policy: TreePolicy {
            stubs_prefer_secure,
        },
        max_rounds: 100,
        threads: opts.threads,
        max_task_retries: opts.max_retries,
        self_check: opts.self_check,
        task_deadline: opts.task_deadline(),
        deadline: opts.deadline_at,
        ctx_cache_mb: opts.ctx_cache_mb,
        delta_projections: opts.delta_projections,
        ..SimConfig::default()
    };
    let seeds = adopters.select(g);
    Simulation::new(g, w, &TIEBREAK, cfg)
        .with_shared_atlas(Arc::clone(atlas))
        .run(&seeds)
}

/// Figure 8: fraction of ASes (a) and ISPs (b) that end up secure, for
/// each θ and each early-adopter set.
pub fn fig8(opts: &Options) -> Result<(), ExperimentError> {
    heading("Figure 8: secure fraction vs theta per early-adopter set");
    let world = World::build(opts)?;
    let g = world.base();
    let w = weights(g, opts);
    let atlas = build_atlas(g, opts);
    let mut runner = SweepRunner::open("fig8", opts, &[])?;
    crate::shards::prefetch("fig8", opts, &world, &mut runner)?;
    let mut ta = Table::new("fig8a_ases", &columns());
    let mut tb = Table::new("fig8b_isps", &columns());
    for adopters in crate::world::figure8_adopter_sets(g) {
        let mut row_a = vec![adopters.label()];
        let mut row_b = vec![adopters.label()];
        for &theta in &THETAS {
            let key = crate::shards::theta_key(&adopters.label(), theta);
            let res = runner.run(key, || {
                run_once(g, &w, &atlas, &adopters, theta, true, opts)
            })?;
            row_a.push(f3(res.secure_as_fraction(g)));
            row_b.push(f3(res.secure_isp_fraction(g)));
        }
        ta.row(row_a);
        tb.row(row_b);
    }
    runner.finish()?;
    println!("(a) fraction of ASes secure");
    ta.emit(opts)?;
    println!("(b) fraction of ISPs secure");
    tb.emit(opts)?;
    Ok(())
}

fn columns() -> Vec<&'static str> {
    let mut c = vec!["early adopters"];
    c.extend(["theta=0", "0.05", "0.10", "0.20", "0.30", "0.40", "0.50"]);
    c
}

/// Figure 9: fraction of all (src, dst) paths fully secure at
/// termination, vs θ; the paper observes it lands just under f².
pub fn fig9(opts: &Options) -> Result<(), ExperimentError> {
    heading("Figure 9: secure-path fraction vs theta (and f^2 check)");
    let world = World::build(opts)?;
    let g = world.base();
    let w = weights(g, opts);
    let atlas = build_atlas(g, opts);
    let mut runner = SweepRunner::open("fig9", opts, &[])?;
    crate::shards::prefetch("fig9", opts, &world, &mut runner)?;
    let mut t = Table::new(
        "fig9_secure_paths",
        &[
            "early adopters",
            "theta",
            "f (secure ASes)",
            "secure paths",
            "f^2",
        ],
    );
    let big = (g.isps().count() / 5).clamp(12, 200);
    for adopters in [
        EarlyAdopters::ContentProvidersPlusTopIsps(5),
        EarlyAdopters::TopIspsByDegree(big),
    ] {
        for &theta in &THETAS {
            let key = crate::shards::theta_key(&adopters.label(), theta);
            let res = runner.run(key, || {
                run_once(g, &w, &atlas, &adopters, theta, true, opts)
            })?;
            let f = res.secure_as_fraction(g);
            let frac = metrics::secure_path_fraction(
                g,
                &res.final_state,
                TreePolicy {
                    stubs_prefer_secure: true,
                },
                &TIEBREAK,
            );
            t.row(vec![
                adopters.label(),
                format!("{theta}"),
                f3(f),
                f3(frac),
                f3(f * f),
            ]);
        }
    }
    runner.finish()?;
    t.emit(opts)?;
    Ok(())
}

/// Figure 11: the stub-tiebreak sensitivity — rerun the Figure 8
/// sweep with stubs ignoring security; results should barely move for
/// θ > 0 (Section 6.7).
pub fn fig11(opts: &Options) -> Result<(), ExperimentError> {
    heading("Figure 11: sensitivity to stubs breaking ties on security");
    let world = World::build(opts)?;
    let g = world.base();
    let w = weights(g, opts);
    let atlas = build_atlas(g, opts);
    let mut runner = SweepRunner::open("fig11", opts, &[])?;
    crate::shards::prefetch("fig11", opts, &world, &mut runner)?;
    let mut t = Table::new(
        "fig11_stub_sensitivity",
        &[
            "early adopters",
            "theta",
            "ASes (stubs prefer)",
            "ASes (stubs ignore)",
            "delta",
        ],
    );
    let big = (g.isps().count() / 5).clamp(12, 200);
    for adopters in [
        EarlyAdopters::ContentProvidersPlusTopIsps(5),
        EarlyAdopters::TopIspsByDegree(big),
    ] {
        for &theta in &THETAS {
            let with = runner.run(
                crate::shards::stubs_key(&adopters.label(), theta, true),
                || run_once(g, &w, &atlas, &adopters, theta, true, opts),
            )?;
            let without = runner.run(
                crate::shards::stubs_key(&adopters.label(), theta, false),
                || run_once(g, &w, &atlas, &adopters, theta, false, opts),
            )?;
            let a = with.secure_as_fraction(g);
            let b = without.secure_as_fraction(g);
            t.row(vec![
                adopters.label(),
                format!("{theta}"),
                f3(a),
                f3(b),
                f3(a - b),
            ]);
        }
    }
    runner.finish()?;
    t.emit(opts)?;
    Ok(())
}

/// Figure 12: five CPs vs top five Tier-1s as early adopters, across
/// CP traffic shares x ∈ {10, 20, 33, 50}% and on the base vs
/// augmented graph.
pub fn fig12(opts: &Options) -> Result<(), ExperimentError> {
    heading("Figure 12: CPs vs Tier-1s as early adopters");
    let world = World::build(opts)?;
    let mut runner = SweepRunner::open("fig12", opts, &[])?;
    crate::shards::prefetch("fig12", opts, &world, &mut runner)?;
    let mut t = Table::new(
        "fig12_cp_vs_tier1",
        &["graph", "x", "early adopters", "theta", "secure ASes"],
    );
    for (glabel, g) in [("base", world.base()), ("augmented", &world.augmented)] {
        let atlas = build_atlas(g, opts);
        for &x in &[0.10, 0.20, 0.33, 0.50] {
            let w = Weights::with_cp_fraction(g, x);
            for adopters in [
                EarlyAdopters::ContentProviders,
                EarlyAdopters::TopIspsByDegree(5),
            ] {
                for &theta in &[0.0, 0.05, 0.10, 0.30] {
                    let key = crate::shards::fig12_key(glabel, x, &adopters.label(), theta);
                    let res = runner.run(key, || {
                        run_once(g, &w, &atlas, &adopters, theta, true, opts)
                    })?;
                    t.row(vec![
                        glabel.to_string(),
                        format!("{x}"),
                        adopters.label(),
                        format!("{theta}"),
                        f3(res.secure_as_fraction(g)),
                    ]);
                }
            }
        }
    }
    runner.finish()?;
    t.emit(opts)?;
    Ok(())
}

//! `scenario-surface`: `repro scenario --ases 1000 --threads 2`.
//!
//! Set-up runs the case-study simulation and takes its snapshots (pre
//! plus at most 8 rounds, as `repro scenario` does); the timed body is
//! one `run_surface` over all 4 attacks × the 4 default policies × 40
//! seeded random (attacker, victim) pairs. The engine does no timed
//! work here, so engine changes must leave this workload flat. A job
//! is one surface. `--seed` draws the (attacker, victim) pairs.

use crate::trace::Tracer;
use crate::world::{self, mix, THREADS, TIEBREAK};
use crate::{latency_metrics, Ctx};
use sbgp_asgraph::{AsGraph, Weights};
use sbgp_core::scenario::{
    run_surface, select_pairs, simulate_scenario, PairStrategy, ScenarioConfig, ScenarioSnapshot,
    ScenarioSurface,
};
use sbgp_core::{DeltaMode, EarlyAdopters, SimResult, Simulation};
use sbgp_routing::{AttackModel, ScenarioPolicy, SecureSet};

const N: usize = 1000;
const PAIRS: usize = 40;
/// Round snapshots besides `pre` (`repro scenario`'s cap).
const MAX_ROUND_SNAPSHOTS: usize = 8;

struct World {
    g: AsGraph,
    w: Weights,
    sim: SimResult,
    snaps: Vec<ScenarioSnapshot>,
}

/// `pre`, then at most [`MAX_ROUND_SNAPSHOTS`] evenly thinned round
/// states, the last labeled `final` — the same schedule as `repro
/// scenario`.
fn snapshot_schedule(n: usize, states: Vec<SecureSet>) -> Vec<ScenarioSnapshot> {
    let mut snaps = vec![ScenarioSnapshot {
        label: "pre".into(),
        state: SecureSet::new(n),
    }];
    let rounds = states.len();
    let picks: Vec<usize> = if rounds <= MAX_ROUND_SNAPSHOTS {
        (0..rounds).collect()
    } else {
        (0..MAX_ROUND_SNAPSHOTS)
            .map(|k| k * (rounds - 1) / (MAX_ROUND_SNAPSHOTS - 1))
            .collect()
    };
    for i in picks {
        snaps.push(ScenarioSnapshot {
            label: if i + 1 == rounds {
                "final".into()
            } else {
                format!("round{i}")
            },
            state: states[i].clone(),
        });
    }
    snaps
}

fn setup(tr: &Tracer, seed: u64) -> World {
    let (g, _) = tr.time("asgraph.generate", None, || world::generate(N, seed));
    let w = world::weights(&g);
    let (sim, _) = tr.time("sim.run", None, || {
        let cfg = world::sim_config(0.05, 100, THREADS, DeltaMode::Auto);
        Simulation::new(&g, &w, &TIEBREAK, cfg)
            .run(&EarlyAdopters::ContentProvidersPlusTopIsps(5).select(&g))
    });
    let snaps = snapshot_schedule(g.len(), sim.states_by_round());
    World { g, w, sim, snaps }
}

fn config(seed: u64, pairs: usize, self_check: f64) -> ScenarioConfig {
    ScenarioConfig {
        attacks: AttackModel::ALL.to_vec(),
        policies: vec![
            ScenarioPolicy::security_third(),
            ScenarioPolicy::security_third().with_rov(),
            ScenarioPolicy::security_second(),
            ScenarioPolicy::security_first(),
        ],
        pairs,
        strategy: PairStrategy::SeededRandom,
        seed,
        threads: THREADS,
        self_check,
    }
}

pub fn run(ctx: &mut Ctx) {
    let pair_seed = mix(ctx.seed, 0x9a1);
    let (w, setup_s) = ctx.repeat_setup(|tr| setup(tr, world::TOPOLOGY_SEED));
    let cfg = config(pair_seed, PAIRS, 0.0);
    let iters = ctx.iterate(|tr| {
        let (surface, _) = tr.time("scenario.surface", None, || {
            run_surface(&w.g, &w.snaps, &cfg, &TIEBREAK)
        });
        surface
    });
    let peak_rss = if ctx.traced() { 0.0 } else { ctx.peak_rss() };
    let r = &mut ctx.report;

    world::check_sim(r, "scenario snapshot simulation", &w.sim);
    let all = iters.outs.iter().chain(iters.traced.iter().map(|(s, _)| s));
    for (k, s) in all.enumerate() {
        check_surface(r, k, s, &iters.outs[0]);
    }
    // A small audited surface: every scenario replayed through the
    // reference oracle, which must agree with the fast engine.
    let audit = run_surface(
        &w.g,
        &w.snaps[..2],
        &config(pair_seed ^ 1, 4, 1.0),
        &TIEBREAK,
    );
    r.attempt(audit.stats.scenarios_run);
    r.check(
        audit.stats.oracle_checked > 0 && audit.stats.oracle_mismatches == 0,
        || {
            format!(
                "scenario self-check: {} audits, {} mismatches: {:?}",
                audit.stats.oracle_checked,
                audit.stats.oracle_mismatches,
                audit.mismatches.first()
            )
        },
    );

    if !ctx.tracer.enabled() {
        r.metric("setup_s", setup_s, "s");
        iters.report_run(r, false);
        r.metric("peak_rss_mib", peak_rss, "MiB");
        latency_metrics(r, &iters);
        return;
    }

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
    // The snapshot simulation builds its own atlas (set-up).
    r.metric(
        "atlas.build_s",
        w.sim.stats.atlas_build_ns as f64 / 1e9,
        "s",
    );
    r.metric(
        "atlas.mib",
        w.sim.stats.atlas_bytes as f64 / (1 << 20) as f64,
        "MiB",
    );
    r.metric(
        "atlas.compression",
        w.sim.stats.atlas_raw_bytes as f64 / w.sim.stats.atlas_bytes.max(1) as f64,
        "ratio",
    );
    iters.report_run(r, true);
    let st = s.stats;
    r.metric("scenario.surface_s", *traced_s, "s");
    r.metric("scenario.scenarios", st.scenarios_run as f64, "count");
    r.metric("scenario.fixpoint_iters", st.fixpoint_iters as f64, "count");
    r.metric(
        "scenario.iters_per_scenario",
        st.fixpoint_iters as f64 / st.scenarios_run.max(1) as f64,
        "count",
    );
    r.metric("scenario.quarantined", st.quarantined as f64, "count");
    let (_, select) = ctx.tracer.time("scenario.select", None, || {
        select_pairs(&w.g, cfg.strategy, cfg.pairs, cfg.seed)
    });
    r.metric("scenario.select_s", select.as_secs_f64(), "s");
    // One sampled scenario per (attack, policy) on the final snapshot.
    let fin = &w.snaps.last().expect("pre is always present").state;
    let mut us = Vec::new();
    for (i, &attack) in cfg.attacks.iter().enumerate() {
        for (j, policy) in cfg.policies.iter().enumerate() {
            let (a, v) = s.pairs[(i * cfg.policies.len() + j) % s.pairs.len()];
            let (out, d) = ctx.tracer.time("scenario.simulate", None, || {
                simulate_scenario(&w.g, fin, policy, attack, a, v, &TIEBREAK)
            });
            us.push(d.as_secs_f64() * 1e6);
            r.check(out.is_ok(), || {
                format!("scenario {attack} {a:?}->{v:?} did not converge")
            });
        }
    }
    r.metric(
        "scenario.simulate_us",
        crate::stats::median(&us).unwrap_or(0.0),
        "us",
    );
    // The routing layers on this workload's graph and final state (the
    // surface itself does not use them: predicted flat).
    let atlas = world::build_atlas(&w.g, world::CTX_CACHE_MB);
    let cands: Vec<_> = w.g.isps().filter(|&n| !fin.get(n)).collect();
    world::probe_layers(r, &ctx.tracer, &w.g, &w.w, &atlas, fin, &cands, ctx.seed);
}

fn check_surface(
    r: &mut crate::report::Report,
    k: usize,
    s: &ScenarioSurface,
    first: &ScenarioSurface,
) {
    r.attempt(s.stats.scenarios_run);
    let quarantined: usize = s.cells.iter().map(|c| c.quarantined.len()).sum();
    if quarantined > 0 {
        r.fail_ops(
            quarantined as u64,
            format!("scenario iteration {k}: {quarantined} scenario(s) failed to converge"),
        );
    }
    r.check(
        s.cells.iter().all(|c| {
            c.sampled > 0
                && [c.mean_deceived, c.mean_reached, c.mean_unreachable]
                    .iter()
                    .all(|f| (0.0..=1.0).contains(f))
        }),
        || format!("scenario iteration {k}: a cell has no samples or a fraction outside [0, 1]"),
    );
    r.check(s == first, || {
        format!("scenario iteration {k} differs from iteration 0")
    });
}

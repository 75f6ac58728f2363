//! Sharded sweep execution (`--process-shards N`, `--workers`).
//!
//! The sweep figures enumerate their unit grid here **once**, shared by
//! three consumers that must agree exactly:
//!
//! 1. the in-process loops in [`crate::sweeps`] (via the `*_key`
//!    helpers),
//! 2. the supervisor's prefetch pass ([`prefetch`]), which dispatches
//!    every not-yet-checkpointed unit to worker processes, and
//! 3. every `repro worker` ([`worker_setup`]), which rebuilds the same
//!    registry from the job config and computes whatever keys the
//!    supervisor assigns.
//!
//! Workers speak the [`sbgp_core::supervise`] frame protocol over TCP:
//! local shards are one-connection `repro worker` children this
//! process spawns ([`crate::net::WorkerPool`]), remote ones long-lived
//! `repro worker`s it dials. Because each unit is a deterministic
//! simulation and merged results land in the same checkpoint the
//! in-process path reads, figure output is bit-identical to a
//! single-process run at any shard count and under any crash or kill
//! schedule.

use crate::cli::Options;
use crate::error::ExperimentError;
use crate::harness::SweepRunner;
use crate::world::{weights, World, THETAS};
use sbgp_asgraph::Weights;
use sbgp_core::supervise::{self, ShardPolicy};
use sbgp_core::{EarlyAdopters, EngineStats, SimResult};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

// ---------------------------------------------------------------------
// Unit keys — the single source of truth for checkpoint labels
// ---------------------------------------------------------------------

/// The standard sweep-cell key: `<adopters>;theta=<θ>`.
pub fn theta_key(label: &str, theta: f64) -> String {
    format!("{label};theta={theta}")
}

/// Figure 11's key: the standard key plus the stub tiebreak policy.
pub fn stubs_key(label: &str, theta: f64, prefer: bool) -> String {
    let policy = if prefer { "prefer" } else { "ignore" };
    format!("{};stubs={policy}", theta_key(label, theta))
}

/// Figure 12's key: graph flavor and CP traffic share come first.
pub fn fig12_key(glabel: &str, x: f64, label: &str, theta: f64) -> String {
    format!("{glabel};x={x};{label};theta={theta}")
}

/// Which of the world's graphs a unit runs on.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum GraphSel {
    /// `World::base()` — the (possibly fault-degraded) base topology.
    Base,
    /// `World::augmented` — the CP-peering-augmented topology.
    Augmented,
}

/// Everything needed to recompute one sweep cell from a [`World`].
#[derive(Clone, Debug)]
pub struct UnitSpec {
    /// The graph the unit runs on.
    pub graph: GraphSel,
    /// CP traffic share override (figure 12); `None` uses
    /// `--cp-fraction`.
    pub cp_x: Option<f64>,
    /// The early-adopter set.
    pub adopters: EarlyAdopters,
    /// Deployment threshold θ.
    pub theta: f64,
    /// Whether stubs break ties on security.
    pub stubs_prefer_secure: bool,
}

/// Enumerate `cmd`'s sweep grid in the exact order the in-process
/// loops visit it. `None` means the command has no sharded form.
pub fn sweep_units(cmd: &str, world: &World) -> Option<Vec<(String, UnitSpec)>> {
    let g = world.base();
    let big = (g.isps().count() / 5).clamp(12, 200);
    let mut units = Vec::new();
    match cmd {
        "fig8" => {
            for adopters in crate::world::figure8_adopter_sets(g) {
                for &theta in &THETAS {
                    units.push((
                        theta_key(&adopters.label(), theta),
                        UnitSpec {
                            graph: GraphSel::Base,
                            cp_x: None,
                            adopters: adopters.clone(),
                            theta,
                            stubs_prefer_secure: true,
                        },
                    ));
                }
            }
        }
        "fig9" => {
            for adopters in [
                EarlyAdopters::ContentProvidersPlusTopIsps(5),
                EarlyAdopters::TopIspsByDegree(big),
            ] {
                for &theta in &THETAS {
                    units.push((
                        theta_key(&adopters.label(), theta),
                        UnitSpec {
                            graph: GraphSel::Base,
                            cp_x: None,
                            adopters: adopters.clone(),
                            theta,
                            stubs_prefer_secure: true,
                        },
                    ));
                }
            }
        }
        "fig11" => {
            for adopters in [
                EarlyAdopters::ContentProvidersPlusTopIsps(5),
                EarlyAdopters::TopIspsByDegree(big),
            ] {
                for &theta in &THETAS {
                    for prefer in [true, false] {
                        units.push((
                            stubs_key(&adopters.label(), theta, prefer),
                            UnitSpec {
                                graph: GraphSel::Base,
                                cp_x: None,
                                adopters: adopters.clone(),
                                theta,
                                stubs_prefer_secure: prefer,
                            },
                        ));
                    }
                }
            }
        }
        "fig12" => {
            for (glabel, graph) in [("base", GraphSel::Base), ("augmented", GraphSel::Augmented)] {
                for &x in &[0.10, 0.20, 0.33, 0.50] {
                    for adopters in [
                        EarlyAdopters::ContentProviders,
                        EarlyAdopters::TopIspsByDegree(5),
                    ] {
                        for &theta in &[0.0, 0.05, 0.10, 0.30] {
                            units.push((
                                fig12_key(glabel, x, &adopters.label(), theta),
                                UnitSpec {
                                    graph,
                                    cp_x: Some(x),
                                    adopters: adopters.clone(),
                                    theta,
                                    stubs_prefer_secure: true,
                                },
                            ));
                        }
                    }
                }
            }
        }
        _ => return None,
    }
    Some(units)
}

// ---------------------------------------------------------------------
// Supervisor side
// ---------------------------------------------------------------------

/// Where a sweep's shard scratch directories and local workers' port
/// files live.
pub(crate) fn shards_dir(opts: &Options) -> PathBuf {
    opts.out
        .clone()
        .unwrap_or_else(|| PathBuf::from("results"))
        .join("shards")
}

/// Compute every unit of `cmd` that `runner`'s checkpoint does not
/// already hold, using a fleet of `--process-shards` local or
/// `--workers` remote worker processes.
/// No-op when sharding is off or nothing is missing; afterwards the
/// in-process sweep loop finds every unit checkpointed and only
/// formats output.
pub fn prefetch(
    cmd: &str,
    opts: &Options,
    world: &World,
    runner: &mut SweepRunner,
) -> Result<(), ExperimentError> {
    if opts.process_shards == 0 && opts.workers.is_empty() {
        return Ok(());
    }
    let Some(units) = sweep_units(cmd, world) else {
        return Ok(());
    };
    let missing: Vec<String> = units
        .iter()
        .map(|(k, _)| k.clone())
        .filter(|k| runner.get(k).is_none())
        .collect();
    if missing.is_empty() {
        eprintln!("[shards] all {} units already checkpointed", units.len());
        return Ok(());
    }
    let remote = !opts.workers.is_empty();
    let policy = ShardPolicy {
        shards: if remote {
            opts.workers.len()
        } else {
            opts.process_shards
        },
        watchdog: Duration::from_secs_f64(opts.watchdog_secs),
        lease: Duration::from_secs_f64(opts.lease_secs),
        restart_budget: opts.restart_budget,
        kill_rate: opts.kill_workers,
        kill_seed: opts.seed ^ 0xc4a0_5c4a,
        ..ShardPolicy::default()
    };
    eprintln!(
        "[shards] dispatching {} of {} units across {} worker {}{}{}",
        missing.len(),
        units.len(),
        policy.shards.clamp(1, missing.len()),
        if remote {
            "remote link(s)"
        } else {
            "process(es)"
        },
        if opts.kill_workers > 0.0 {
            format!(" (chaos: kill rate {})", opts.kill_workers)
        } else {
            String::new()
        },
        match &opts.net_chaos {
            Some(p) => format!(" (net chaos: seed {})", p.seed),
            None => String::new(),
        }
    );
    // The supervisor drives two callbacks that both need the runner
    // (merge, lease journal); its event loop is single-threaded, so a
    // RefCell resolves the shared borrow.
    let runner = std::cell::RefCell::new(runner);
    let mut pool = crate::net::WorkerPool::new(opts);
    let report = supervise::run_supervised(
        &policy,
        cmd,
        &opts.to_worker_config(),
        &missing,
        |slot| pool.connect(slot),
        |key, result, stats| {
            runner
                .borrow_mut()
                .absorb_remote(key, result, &stats)
                .map_err(|e| e.to_string())
        },
        |key, peer| {
            runner
                .borrow_mut()
                .lease(key, peer)
                .map_err(|e| e.to_string())
        },
    )?;
    eprintln!(
        "[shards] merged {} unit(s) from {} worker(s): {} restart(s) \
         ({} transport fault(s)), {} injected kill(s) + {} injected net fault(s), \
         {} duplicate(s) dropped, {} unit(s) requeued, {} batch split(s)",
        report.units,
        report.workers,
        report.restarts,
        report.transport_faults,
        report.injected_kills,
        report.injected_faults,
        report.duplicates_dropped,
        report.requeued,
        report.splits
    );
    pool.report();
    Ok(())
}

// ---------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------

/// What a worker's unit handler returns for one key.
pub(crate) type UnitOutcome = Result<(SimResult, EngineStats), String>;
/// A ready worker: the unit handler, the registry size, and the
/// scratch breadcrumb dir to remove on clean exit.
pub(crate) type WorkerSetup<H> = Result<(H, usize, Option<PathBuf>), String>;

/// Build the unit handler a `repro worker` serves with, from the job's
/// command and config text: the world, the unit registry, and per-graph
/// lazy atlas/weight caches. Returns the handler, the registry size,
/// and the scratch breadcrumb dir (if one was created) for the caller
/// to clean up on graceful exit.
pub(crate) fn worker_setup(
    cmd: &str,
    config: &str,
) -> WorkerSetup<impl FnMut(&str) -> UnitOutcome> {
    let opts = Options::from_config_str(config).map_err(|e| format!("job config: {e}"))?;
    let world = World::build(&opts).map_err(|e| format!("building world: {e}"))?;
    let units =
        sweep_units(cmd, &world).ok_or_else(|| format!("command {cmd:?} has no sharded form"))?;
    let registry: HashMap<String, UnitSpec> = units.into_iter().collect();
    let n = registry.len();

    // Scratch dir breadcrumb: removed by the caller on clean exit. A
    // SIGKILL leaves it behind for `repro doctor`.
    let dir = shards_dir(&opts).join(format!("__shard-worker-{}", std::process::id()));
    let scratch = if std::fs::create_dir_all(&dir).is_ok() {
        let _ = std::fs::write(
            dir.join("meta"),
            format!("pid {}\ncmd {cmd}\n", std::process::id()),
        );
        Some(dir.clone())
    } else {
        None
    };

    // Atlases are built lazily per graph and shared across every
    // unit this worker computes on that graph.
    let mut atlases: HashMap<GraphSel, Arc<sbgp_routing::RoutingAtlas>> = HashMap::new();
    let mut weight_cache: HashMap<(GraphSel, u64), Weights> = HashMap::new();
    let handler = move |key: &str| {
        let spec = registry
            .get(key)
            .ok_or_else(|| format!("unknown unit key {key:?}"))?;
        // Breadcrumb for doctor: which unit was in flight if this
        // worker is killed.
        let _ = std::fs::write(dir.join("current"), key);
        let g = match spec.graph {
            GraphSel::Base => world.base(),
            GraphSel::Augmented => &world.augmented,
        };
        let atlas = atlases
            .entry(spec.graph)
            .or_insert_with(|| crate::sweeps::build_atlas(g, &opts));
        let w = weight_cache
            .entry((spec.graph, spec.cp_x.map_or(u64::MAX, f64::to_bits)))
            .or_insert_with(|| match spec.cp_x {
                Some(x) => Weights::with_cp_fraction(g, x),
                None => weights(g, &opts),
            });
        let result = crate::sweeps::run_once(
            g,
            w,
            atlas,
            &spec.adopters,
            spec.theta,
            spec.stubs_prefer_secure,
            &opts,
        );
        let stats = result.stats;
        Ok((result, stats))
    };
    Ok((handler, n, scratch))
}

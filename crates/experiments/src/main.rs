//! `repro` — the reproduction harness.
//!
//! One subcommand per table and figure of the paper's evaluation; see
//! `repro help` (or DESIGN.md's per-experiment index). Each command
//! prints the rows/series the paper reports and, when `--out DIR` is
//! given, writes the same data as CSV. Commands return typed errors
//! ([`error::ExperimentError`]) — bad parameters, fault-injection
//! misuse, or checkpoint problems exit non-zero with a one-line
//! message instead of panicking.

mod cli;
mod doctor;
mod error;
mod harness;
mod json;
mod output;
mod world;

mod benchcmd;
mod casestudy;
mod census;
mod chaos;
mod extensions;
mod faults;
mod gadget_demos;
mod net;
mod projection;
mod scenario;
mod serve;
mod shards;
mod signals;
mod sweeps;
mod tables;

use cli::Options;
use error::ExperimentError;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        help();
        std::process::exit(2);
    }
    let cmd = args.remove(0);
    // Hidden mode: this process is a shard worker child of a
    // `--process-shards` supervisor. It speaks frames on stdin/stdout,
    // so it must be dispatched before anything can print there.
    if cmd == "__shard-worker" {
        std::process::exit(shards::worker_main());
    }
    // `worker` takes its own small flag set (`--listen`, `--port-file`),
    // not the experiment options — dispatch before Options::parse.
    if cmd == "worker" {
        if let Err(e) = net::worker_cmd(&args) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
        return;
    }
    // `doctor` takes file paths, not options — dispatch before flag
    // parsing so graph/checkpoint/config paths aren't read as flags.
    if cmd == "doctor" {
        if let Err(e) = doctor::doctor(&args) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
        return;
    }
    let opts = match Options::parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match cmd.as_str() {
        "table1" => tables::table1(&opts),
        "table2" => tables::table2(&opts),
        "table3" => tables::table3(&opts),
        "table4" => tables::table4(&opts),
        "fig2" => gadget_demos::fig2(&opts),
        "fig3" => casestudy::fig3(&opts),
        "fig4" => casestudy::fig4(&opts),
        "fig5" => casestudy::fig5(&opts),
        "fig6" => casestudy::fig6(&opts),
        "fig7" => extensions::fig7(&opts),
        "fig8" => sweeps::fig8(&opts),
        "fig9" => sweeps::fig9(&opts),
        "fig10" => census::fig10(&opts),
        "fig11" => sweeps::fig11(&opts),
        "fig12" => sweeps::fig12(&opts),
        "fig13" => gadget_demos::fig13(&opts),
        "fig14" => projection::fig14(&opts),
        "fig15" => gadget_demos::fig15(&opts),
        "fig16" => gadget_demos::fig16(&opts),
        "fig17" => gadget_demos::fig17(&opts),
        "fig20" => gadget_demos::fig20(&opts),
        "fig21" => gadget_demos::fig21(&opts),
        "fault" => faults::fault(&opts),
        "chaos" => chaos::chaos(&opts),
        "bench" => benchcmd::bench(&opts),
        "scenario" => scenario::scenario(&opts),
        "serve" => serve::serve_cmd(&opts),
        "ext-resilience" => extensions::ext_resilience(&opts),
        "ext-theta" => extensions::ext_theta(&opts),
        "ext-disable" => extensions::ext_disable(&opts),
        "ext-greedy" => extensions::ext_greedy(&opts),
        "ext-incoming" => extensions::ext_incoming(&opts),
        "all" => run_all(&opts),
        "help" | "--help" | "-h" => {
            help();
            Ok(())
        }
        other => {
            eprintln!("unknown command {other:?}; try `repro help`");
            std::process::exit(2);
        }
    };
    if let Err(e) = outcome {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn run_all(opts: &Options) -> Result<(), ExperimentError> {
    tables::table1(opts)?;
    tables::table2(opts)?;
    tables::table3(opts)?;
    tables::table4(opts)?;
    gadget_demos::fig2(opts)?;
    casestudy::fig3(opts)?;
    casestudy::fig4(opts)?;
    casestudy::fig5(opts)?;
    casestudy::fig6(opts)?;
    extensions::fig7(opts)?;
    sweeps::fig8(opts)?;
    sweeps::fig9(opts)?;
    census::fig10(opts)?;
    sweeps::fig11(opts)?;
    sweeps::fig12(opts)?;
    gadget_demos::fig13(opts)?;
    projection::fig14(opts)?;
    gadget_demos::fig15(opts)?;
    gadget_demos::fig16(opts)?;
    gadget_demos::fig17(opts)?;
    gadget_demos::fig20(opts)?;
    gadget_demos::fig21(opts)?;
    faults::fault(opts)?;
    scenario::scenario(opts)?;
    extensions::ext_resilience(opts)?;
    extensions::ext_theta(opts)?;
    extensions::ext_disable(opts)?;
    extensions::ext_greedy(opts)?;
    extensions::ext_incoming(opts)?;
    Ok(())
}

fn help() {
    println!(
        "repro — regenerate every table and figure of
'Let the Market Drive Deployment' (SIGCOMM 2011) on a synthetic topology.

USAGE: repro <command> [--ases N] [--seed S] [--theta T] [--cp-fraction X]
             [--threads K] [--out DIR] [--census] [--config FILE]
             [--resume] [--fail-links R] [--max-retries N]
             [--self-check RATE] [--deadline SECS] [--task-deadline SECS]
       repro doctor [--fix] <file-or-dir>...
       repro worker --listen ADDR [--port-file PATH]
       repro serve [--listen ADDR] [--port-file PATH] [--queue-bound N]
             [--client-inflight N] [--ctx-cache-mb MB] [--out DIR]

COMMANDS
  table1   diamond counts per early adopter
  table2   topology summaries (base vs augmented graph)
  table3   CP mean path lengths (base vs augmented)
  table4   CP vs Tier-1 degrees (base vs augmented)
  fig2     the DIAMOND competition narrative
  fig3     case study: newly secure ASes/ISPs per round
  fig4     case study: normalized utility traces
  fig5     case study: median (projected) utility of next-round adopters
  fig6     case study: cumulative ISP adoption by degree
  fig7     deployment chain reactions
  fig8     fraction of ASes (a) and ISPs (b) secure vs theta, per adopter set
  fig9     fraction of secure paths vs theta; f^2 comparison
  fig10    tiebreak-set census (+ section 6.7 decision fractions)
  fig11    sensitivity to stubs breaking ties on security
  fig12    CPs vs Tier-1s: traffic share x sweep, base vs augmented
  fig13    buyer's remorse (turn-off incentive); --census runs the 7.3 search
  fig14    projected vs actual utility accuracy
  fig15    partial-security attack demo
  fig16    set-cover reduction demo (Theorem 6.1)
  fig17    oscillator: endless on/off cycling (incoming model)
  fig20    AND gadget truth table
  fig21    CHICKEN gadget bimatrix (Table 5)
  fault    hijack deception per link-failure rate (topology churn)
  chaos    torture test: run a sweep sharded with worker kills, prove the
           output byte-identical to the single-process no-fault run;
           --net adds TCP workers under seeded network-fault schedules
           (frame drops, torn mid-frame disconnects, coordinator
           SIGKILL + --resume) with the same byte-identical gate;
           --storage runs seeded disk-fault schedules (EIO, ENOSPC,
           torn writes, crash-before-rename, read corruption, plus
           SIGKILL + --resume) against the artifact store instead;
           --serve tortures the simulation service (daemon SIGKILL +
           journal replay, worker kills, disk faults under the journal)
           gated on served results byte-identical to one-shot runs
  worker   long-lived TCP sweep worker; coordinators dispatch to it via
           --workers and it survives their crashes
  serve    long-lived simulation service: accepts sweep jobs over HTTP
           (POST /jobs, GET /jobs/:id[/result], /healthz, /stats), keeps
           hot routing atlases cached across jobs, journals the queue for
           crash recovery, and drains gracefully on SIGTERM
  bench    time the engine's round kernel; write BENCH_engine.json
  scenario adversarial scenario surface: attack models × defense policies ×
           sampled (attacker, victim) pairs, evaluated against per-round
           deployment snapshots (--pairs, --attacks, --policies,
           --pair-strategy; --self-check audits against the oracle)
  ext-resilience  origin-hijack deception across the deployment process
  ext-theta       randomized per-ISP thresholds (Section 8.2)
  ext-disable     optimal per-destination disable (Section 7.1)
  ext-greedy      greedy early-adopter selection vs degree heuristic
  ext-incoming    the case study under the incoming-utility model
  all      everything above
  doctor   validate graph/config files, sweep and job logs, and supervisor
           artifacts (torn or damaged logs, stale locks/scratch dirs);
           --fix salvages them

FAULT TOLERANCE
  --resume              log every finished sweep unit (fig8/9/11/12) to
                        checkpoints/<cmd>.ckpt, one fsync'd append each,
                        and skip the units an existing log already holds
  --fail-links R        degrade the topology: drop each link w.p. R (seeded)
  --max-retries N       retries before a panicking task is quarantined
  --disk-chaos SPEC     seeded fault injection on every artifact-store
                        operation (sweep/job logs, locks, CSVs);
                        SPEC is `eio=P,enospc=P,torn=P,crash=P,corrupt=P,
                        latency=P,latency-ms=MS,seed=S` (any subset)

PROCESS SHARDING (sweep commands)
  --process-shards N    dispatch sweep units to N crash-isolated worker
                        processes; results bit-identical at any shard count
  --kill-workers R      chaos: SIGKILL a worker w.p. R after each unit
  --watchdog-secs S     declare a silent worker dead after S seconds (30)
  --restart-budget N    worker restarts allowed per run (8; chaos kills exempt)
  --worker-mem-mb MB    per-worker address-space ulimit (unix; 0 = unlimited)

DISTRIBUTED SWEEPS (sweep commands)
  --workers H:P,...     dispatch sweep units to remote `repro worker`s over
                        TCP instead of local processes; byte-identical output
  --remote-floor N      when fewer than N remote workers stay reachable,
                        degrade to local process shards (default 1)
  --lease-secs S        requeue a dispatched unit if its worker makes no
                        progress for S seconds (default 120)
  --net-chaos SPEC      seeded fault injection on every remote link; SPEC is
                        `drop=P,dup=P,delay=P,delay-ms=MS,torn=P,
                        partition=P,partition-frames=N,seed=S` (any subset)

SELF-CHECKING
  --self-check RATE     replay this fraction of destinations through the
                        reference oracle; mismatches are shrunk to minimal
                        counterexample artifacts and reported, not fatal
  --deadline SECS       global wall-clock budget; remaining destinations are
                        skipped with an honest completeness fraction
  --task-deadline SECS  quarantine any destination task slower than this
  --config FILE         load `key = value` options (later flags override)

ADVERSARIAL SCENARIOS (scenario command)
  --pairs N             (attacker, victim) pairs sampled per surface cell (40)
  --attacks LIST        comma list of hijack|forgery|leak|downgrade, or `all`
  --policies LIST       comma list of sec1|sec2|sec3 with optional +rov,
                        +symmetric, +stubs-ignore suffixes
  --pair-strategy S     random | degree | greedy[:K] (probe K candidate
                        attackers per victim, keep the most damaging)

SIMULATION SERVICE (serve command)
  --listen ADDR         bind address (default 127.0.0.1:7411; port 0 = any)
  --port-file PATH      publish the bound address atomically (for port 0)
  --queue-bound N       admission bound on queued jobs; beyond it POSTs get
                        a typed 429 with a retry-after hint (default 16)
  --client-inflight N   per-client cap on unfinished jobs (default 8)

PERFORMANCE
  --ctx-cache-mb MB     memory budget for the frozen-context routing atlas
                        (default 256; 0 disables it — results identical)
  --delta-projections M candidate projections: `auto` (delta repair with a
                        size cutoff, default), `on` (delta always), `off`
                        (full recompute) — results bit-identical either way

DEFAULTS: --ases 1000  --seed 42  --theta 0.05  --cp-fraction 0.10 --threads 1"
    );
}

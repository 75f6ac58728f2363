//! `serve-mix`: two closed-loop clients against a `repro serve` child
//! with one compute thread.
//!
//! Each client waits for its result before it submits again, following
//! a seeded script of small jobs — fig9, fig8 and scenario at n=150 —
//! over a fixed pool of graph seeds with varying `cp-fraction`, so the
//! daemon's atlas cache both hits and misses. Every third submission
//! resubmits one of the client's own finished specs, which the result
//! cache must answer with the first result's bytes. This is the only
//! workload where HTTP, admission, the fsync'd job journal and the
//! result cache are a large share of the time.
//!
//! A job is one computed submission, timed from its `POST /jobs` to
//! its result bytes in hand; a cached job is a resubmission, timed the
//! same way.

use crate::report::Report;
use crate::stats::median;
use crate::trace::Tracer;
use crate::world::{self, mix, shuffle, THREADS, TIEBREAK};
use crate::Ctx;
use sbgp_core::serve::{Admission, JobBoard, JobSpec};
use sbgp_core::storage::Store;
use sbgp_core::{DeltaMode, EarlyAdopters, Simulation};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const CLIENTS: usize = 2;
/// Computed jobs per client: 2 × 60 = 120, so every command meets
/// every graph of the pool five times and the p90 has 12 samples
/// beyond it.
const NEW_PER_CLIENT: usize = 60;
/// Every `RESUBMIT_EVERY`-th submission is a resubmission (a third).
const RESUBMIT_EVERY: usize = 3;
const ASES: usize = 150;
const GRAPH_POOL: u64 = 8;
const CMDS: [&str; 3] = ["fig9", "fig8", "scenario"];
const POLL: Duration = Duration::from_millis(10);
/// Upper end of the seeded think time before each submission. Without
/// it, a client whose next request follows a response at once stays in
/// step with the daemon's 50 ms accept poll, and every latency lands on
/// a multiple of 50 ms: the median then jumps a whole step between
/// runs.
const THINK_MS: u64 = 50;
const DEADLINE: Duration = Duration::from_secs(120);
/// Compute threads of the daemon. One, so the second core serves HTTP
/// and the clients: a 150-AS job forks and joins its two engine threads
/// so often that, with one core busy elsewhere on the host, `job_p50_ms`
/// rose by a third at `--threads 2` and by 3% at `--threads 1`. Engine
/// scaling is measured on fig9-sweep and cold-8k.
pub const DAEMON_THREADS: usize = 1;

/// One scripted submission.
#[derive(Clone, Debug, PartialEq)]
pub struct Submission {
    pub cmd: &'static str,
    pub config: String,
    /// Index of the client's earlier *computed* submission this one
    /// repeats, if it is a resubmission.
    pub repeat_of: Option<usize>,
}

/// The CSV a served command materializes as its result.
fn result_csv(cmd: &str) -> &'static str {
    match cmd {
        "fig9" => "fig9_secure_paths.csv",
        "fig8" => "fig8a_ases.csv",
        _ => "scenario_surface.csv",
    }
}

/// The generator seeds of the graph pool, the same for every `--seed`:
/// a job's work depends on its graph, and a pool drawn per seed moved
/// `job_p50_ms` by 10% and `job_p90_ms` by 16% between seeds, against
/// 2–3% between runs of one seed.
fn graph_pool() -> Vec<u64> {
    (0..GRAPH_POOL)
        .map(|i| mix(world::TOPOLOGY_SEED, 0x6a + i) % 100_000)
        .collect()
}

/// The per-client scripts for `seed`. The computed specs are the same
/// set for every seed — command `i mod 3` on graph `i mod 8` with the
/// `i`-th `cp-fraction` — and so is each client's share: every other
/// run of three consecutive specs, one of each command. The seed orders
/// each client's runs of three and the commands within each, and picks
/// which finished spec each resubmission (a third of submissions)
/// repeats. Fixed shares and evenly spread commands keep the two
/// clients' jobs from meeting in the queue more often on one seed than
/// on another: with one shuffle over both clients, five seeds spread
/// `job_p90_ms` by 10%.
pub fn script(seed: u64) -> Vec<Vec<Submission>> {
    let total = CLIENTS * NEW_PER_CLIENT;
    let graphs = graph_pool();
    let specs: Vec<Submission> = (0..total)
        .map(|i| {
            let cmd = CMDS[i % CMDS.len()];
            let mut config = format!(
                "ases = {ASES}\nseed = {}\ncp-fraction = {:.4}\n",
                graphs[i % graphs.len()],
                0.05 + 0.0025 * i as f64
            );
            if cmd == "scenario" {
                config.push_str("pairs = 10\n");
            }
            Submission {
                cmd,
                config,
                repeat_of: None,
            }
        })
        .collect();
    (0..CLIENTS)
        .map(|c| {
            let mut runs: Vec<Vec<Submission>> = specs
                .chunks(CMDS.len())
                .skip(c)
                .step_by(CLIENTS)
                .map(<[Submission]>::to_vec)
                .collect();
            shuffle(&mut runs, mix(seed, 1 + c as u64));
            for (k, run) in runs.iter_mut().enumerate() {
                shuffle(run, mix(seed, ((c * 1000 + k) as u64) ^ 0x3c));
            }
            let mut fresh = runs.into_iter().flatten();
            let mut subs = Vec::new();
            let mut computed: Vec<Submission> = Vec::new();
            while subs.len() < NEW_PER_CLIENT * RESUBMIT_EVERY / (RESUBMIT_EVERY - 1) {
                if (subs.len() + 1) % RESUBMIT_EVERY == 0 {
                    let k = (mix(seed, (c * 1000 + subs.len()) as u64 ^ 0x7e5)
                        % computed.len() as u64) as usize;
                    subs.push(Submission {
                        repeat_of: Some(k),
                        ..computed[k].clone()
                    });
                } else {
                    let s = fresh.next().expect("one fresh spec per computed job");
                    computed.push(s.clone());
                    subs.push(s);
                }
            }
            subs
        })
        .collect()
}

/// One HTTP/1.1 exchange; the daemon answers `Connection: close`.
pub trait Transport {
    fn request(&mut self, method: &str, path: &str, body: &str) -> Result<(u16, Vec<u8>), String>;
}

/// The real client: one TCP connection per request, each a span.
struct Http<'a> {
    addr: String,
    tracer: &'a Tracer,
    parent: Option<u64>,
    /// Seconds spent in `POST /jobs` requests.
    admit: Vec<f64>,
}

impl Transport for Http<'_> {
    fn request(&mut self, method: &str, path: &str, body: &str) -> Result<(u16, Vec<u8>), String> {
        let span = self.tracer.open(
            if method == "POST" {
                "serve.post"
            } else {
                "serve.get"
            },
            self.parent,
        );
        let out = exchange(&self.addr, method, path, body);
        let d = self.tracer.close(span);
        if method == "POST" {
            self.admit.push(d.as_secs_f64());
        }
        out
    }
}

fn exchange(addr: &str, method: &str, path: &str, body: &str) -> Result<(u16, Vec<u8>), String> {
    let io = |e: std::io::Error| format!("{method} {path}: {e}");
    let mut stream = TcpStream::connect(addr).map_err(io)?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(io)?;
    let req = format!(
        "{method} {path} HTTP/1.1\r\nhost: perfbench\r\ncontent-type: application/json\r\n\
         content-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes()).map_err(io)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(io)?;
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| format!("{method} {path}: response has no header end"))?;
    let status = String::from_utf8_lossy(&raw[..head_end])
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{method} {path}: no status code"))?;
    Ok((status, raw[head_end + 4..].to_vec()))
}

/// A `"key":"value"` or `"key":123` field of a flat JSON body.
fn field(body: &[u8], key: &str) -> Option<String> {
    let body = String::from_utf8_lossy(body);
    let needle = format!("\"{key}\":");
    let rest = &body[body.find(&needle)? + needle.len()..];
    Some(match rest.strip_prefix('"') {
        Some(inner) => inner.split('"').next()?.to_string(),
        None => rest.split([',', '}']).next()?.trim().to_string(),
    })
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// How one submission ended.
#[derive(Debug, PartialEq)]
pub enum Outcome {
    /// Result bytes of a computed job.
    Computed(Vec<u8>),
    /// Result bytes of a resubmission served from the cache.
    Cached(Vec<u8>),
    Failed(String),
}

/// Submit `sub`, wait for its result, and check every status on the
/// way: a computed job is admitted (202), polled until `done`, and
/// fetched (200); a resubmission must be answered from the cache (200,
/// `"cached":true`) and fetched (200).
pub fn run_job(t: &mut impl Transport, sub: &Submission, client: &str) -> Outcome {
    let body = format!(
        "{{\"cmd\":\"{}\",\"config\":\"{}\",\"client\":\"{client}\"}}",
        sub.cmd,
        json_escape(&sub.config)
    );
    let (status, reply) = match t.request("POST", "/jobs", &body) {
        Ok(x) => x,
        Err(e) => return Outcome::Failed(e),
    };
    let Some(id) = field(&reply, "id") else {
        return Outcome::Failed(format!("POST /jobs {status} without an id"));
    };
    let cached = field(&reply, "cached").as_deref() == Some("true");
    match (sub.repeat_of.is_some(), status, cached) {
        (false, 202, false) | (true, 200, true) => {}
        (repeat, status, cached) => {
            return Outcome::Failed(format!(
                "POST /jobs for a {} answered {status} (cached: {cached})",
                if repeat { "resubmission" } else { "new job" }
            ))
        }
    }
    if !cached {
        let deadline = Instant::now() + DEADLINE;
        loop {
            match t.request("GET", &format!("/jobs/{id}"), "") {
                Ok((200, b)) => match field(&b, "status").as_deref() {
                    Some("done") => break,
                    Some("queued" | "running") => {}
                    other => return Outcome::Failed(format!("job {id} ended {other:?}")),
                },
                Ok((s, _)) => return Outcome::Failed(format!("GET /jobs/{id} answered {s}")),
                Err(e) => return Outcome::Failed(e),
            }
            if Instant::now() > deadline {
                return Outcome::Failed(format!("job {id} still not done after {DEADLINE:?}"));
            }
            std::thread::sleep(POLL);
        }
    }
    match t.request("GET", &format!("/jobs/{id}/result"), "") {
        Ok((200, bytes)) if cached => Outcome::Cached(bytes),
        Ok((200, bytes)) => Outcome::Computed(bytes),
        Ok((s, _)) => Outcome::Failed(format!("GET /jobs/{id}/result answered {s}")),
        Err(e) => Outcome::Failed(e),
    }
}

/// Latency samples and failures of a run. Only successful jobs are
/// latency samples; a failed or refused job counts against
/// `failed` and never as a (fast) sample.
#[derive(Default)]
pub struct Tally {
    pub computed_ms: Vec<f64>,
    pub cached_ms: Vec<f64>,
    pub failures: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, outcome: &Outcome, ms: f64) {
        match outcome {
            Outcome::Computed(_) => self.computed_ms.push(ms),
            Outcome::Cached(_) => self.cached_ms.push(ms),
            Outcome::Failed(e) => self.failures.push(e.clone()),
        }
    }
}

/// A `repro serve` child; killed (and waited for) if dropped running.
struct Daemon {
    child: Option<Child>,
    addr: String,
}

impl Daemon {
    fn start(repro: &Path, dir: &Path) -> Result<Daemon, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let log = std::fs::File::create(dir.join("serve.log")).map_err(|e| e.to_string())?;
        let port = dir.join("serve.port");
        let child = Command::new(repro)
            .args(["serve", "--listen", "127.0.0.1:0", "--threads"])
            .arg(DAEMON_THREADS.to_string())
            .arg("--port-file")
            .arg(&port)
            .arg("--out")
            .arg(dir.join("state"))
            .current_dir(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", repro.display()))?;
        let mut d = Daemon {
            child: Some(child),
            addr: String::new(),
        };
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            if d.addr.is_empty() {
                if let Ok(a) = std::fs::read_to_string(&port) {
                    d.addr = a.trim().to_string();
                }
            }
            if !d.addr.is_empty()
                && matches!(exchange(&d.addr, "GET", "/healthz", ""), Ok((200, _)))
            {
                return Ok(d);
            }
            if let Some(status) = d.child.as_mut().and_then(|c| c.try_wait().ok().flatten()) {
                return Err(format!("daemon exited during start-up: {status}"));
            }
            if Instant::now() > deadline {
                return Err("daemon did not answer /healthz within 60 s".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn pid(&self) -> String {
        self.child.as_ref().map_or(0, Child::id).to_string()
    }

    /// SIGTERM drain; the daemon must exit 0. On any error the daemon
    /// is still owned here, so `Drop` kills and reaps it.
    fn stop(mut self) -> Result<(), String> {
        let child = self.child.as_mut().expect("a running daemon");
        let sent = Command::new("kill")
            .args(["-TERM", &child.id().to_string()])
            .status()
            .map_err(|e| format!("kill -TERM: {e}"))?;
        let deadline = Instant::now() + Duration::from_secs(60);
        let status = loop {
            if let Some(status) = child.try_wait().map_err(|e| e.to_string())? {
                break status;
            }
            if Instant::now() > deadline {
                return Err("daemon did not drain within 60 s of SIGTERM".into());
            }
            std::thread::sleep(Duration::from_millis(10));
        };
        self.child = None;
        if status.success() && sent.success() {
            Ok(())
        } else {
            Err(format!("daemon drain ended with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut c) = self.child.take() {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

/// What one pass of the script against one daemon produced.
struct Pass {
    run_s: f64,
    tally: Tally,
    /// Per client: the computed results, in script order.
    results: Vec<Vec<Vec<u8>>>,
    admit_s: Vec<f64>,
    stats: Vec<u8>,
    peak_rss_mib: f64,
}

fn drive(d: &Daemon, scripts: &[Vec<Submission>], tracer: &Tracer, seed: u64) -> Pass {
    let top = tracer.open("serve.mix", None);
    let start = Instant::now();
    let per_client: Vec<(Tally, Vec<Vec<u8>>, Vec<f64>)> = std::thread::scope(|s| {
        let handles: Vec<_> = scripts
            .iter()
            .enumerate()
            .map(|(c, subs)| {
                let addr = d.addr.clone();
                let parent = top.id();
                s.spawn(move || {
                    let client = format!("perfbench-{c}");
                    let mut http = Http {
                        addr,
                        tracer,
                        parent: None,
                        admit: Vec::new(),
                    };
                    let mut tally = Tally::default();
                    let mut firsts: Vec<Vec<u8>> = Vec::new();
                    for (i, sub) in subs.iter().enumerate() {
                        let think = mix(seed, (c * 1000 + i) as u64 ^ 0x711) % THINK_MS;
                        std::thread::sleep(Duration::from_millis(think));
                        let job = tracer.open("serve.job", parent);
                        http.parent = job.id();
                        let out = run_job(&mut http, sub, &client);
                        let ms = tracer.close(job).as_secs_f64() * 1e3;
                        let out = match (out, sub.repeat_of) {
                            (Outcome::Cached(b), Some(k)) if firsts.get(k) != Some(&b) => {
                                Outcome::Failed(format!(
                                    "resubmission of {client}'s job {k} returned different bytes"
                                ))
                            }
                            (out, _) => out,
                        };
                        tally.record(&out, ms);
                        if let Outcome::Computed(b) = out {
                            firsts.push(b);
                        } else if sub.repeat_of.is_none() {
                            // Keep indices aligned with the script.
                            firsts.push(Vec::new());
                        }
                    }
                    (tally, firsts, http.admit)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let run_s = start.elapsed().as_secs_f64();
    tracer.close(top);
    let mut pass = Pass {
        run_s,
        tally: Tally::default(),
        results: Vec::new(),
        admit_s: Vec::new(),
        stats: exchange(&d.addr, "GET", "/stats", "")
            .map(|(_, b)| b)
            .unwrap_or_default(),
        peak_rss_mib: world::peak_rss_mib(&d.pid()).unwrap_or(0.0),
    };
    for (tally, firsts, admit) in per_client {
        pass.tally.computed_ms.extend(tally.computed_ms);
        pass.tally.cached_ms.extend(tally.cached_ms);
        pass.tally.failures.extend(tally.failures);
        pass.results.push(firsts);
        pass.admit_s.extend(admit);
    }
    pass
}

/// Start a daemon on a fresh state directory, run the script, drain.
fn daemon_pass(
    ctx: &mut Ctx,
    repro: &Path,
    tag: &str,
    scripts: &[Vec<Submission>],
    traced: bool,
) -> Option<Pass> {
    let dir = ctx.tmp.join(tag);
    let daemon = match Daemon::start(repro, &dir) {
        Ok(d) => d,
        Err(e) => {
            ctx.report.fail(e);
            return None;
        }
    };
    let tracer = if traced { &ctx.tracer } else { &ctx.quiet };
    let pass = drive(&daemon, scripts, tracer, ctx.seed);
    if traced {
        let mut probes = Vec::new();
        for _ in 0..20 {
            let span = ctx.tracer.open("serve.healthz", None);
            let ok = matches!(exchange(&daemon.addr, "GET", "/healthz", ""), Ok((200, _)));
            probes.push(ctx.tracer.close(span).as_secs_f64() * 1e3);
            ctx.report
                .check(ok, || "GET /healthz did not answer 200".into());
        }
        ctx.report
            .metric("serve.request_ms", median(&probes).unwrap_or(0.0), "ms");
    }
    if let Err(e) = daemon.stop() {
        ctx.report.fail(e);
    }
    Some(pass)
}

/// Check a pass: every job succeeded, and the daemon's own counters
/// agree with what the clients saw.
fn check_pass(r: &mut Report, pass: &Pass, scripts: &[Vec<Submission>]) {
    let subs: usize = scripts.iter().map(Vec::len).sum();
    let fresh: usize = scripts
        .iter()
        .flatten()
        .filter(|s| s.repeat_of.is_none())
        .count();
    r.attempt(subs as u64);
    for f in &pass.tally.failures {
        r.fail(f.clone());
    }
    let stat = |k: &str| field(&pass.stats, k).and_then(|v| v.parse::<f64>().ok());
    r.check(
        stat("jobs_served") == Some(fresh as f64)
            && stat("result_cache_hits") == Some((subs - fresh) as f64)
            && stat("failures") == Some(0.0)
            && stat("parked") == Some(0.0),
        || {
            format!(
                "daemon /stats disagrees with {fresh} computed and {} cached jobs: {}",
                subs - fresh,
                String::from_utf8_lossy(&pass.stats)
            )
        },
    );
}

/// One computed job must be byte-identical to a one-shot `repro` run
/// of its config.
fn check_one_shot(ctx: &mut Ctx, repro: &Path, scripts: &[Vec<Submission>], pass: &Pass) {
    let c = (mix(ctx.seed, 0x1e) % CLIENTS as u64) as usize;
    let k = (mix(ctx.seed, 0x2e) % NEW_PER_CLIENT as u64) as usize;
    let sub = scripts[c]
        .iter()
        .filter(|s| s.repeat_of.is_none())
        .nth(k)
        .expect("the script has NEW_PER_CLIENT computed jobs per client");
    let dir = ctx.tmp.join("one-shot");
    let cfg = dir.join("job.cfg");
    let out = dir.join("out");
    let ran = std::fs::create_dir_all(&dir)
        .and_then(|_| std::fs::write(&cfg, &sub.config))
        .map_err(|e| e.to_string())
        .and_then(|_| {
            Command::new(repro)
                .arg(sub.cmd)
                .arg("--config")
                .arg(&cfg)
                .arg("--threads")
                .arg(THREADS.to_string())
                .arg("--out")
                .arg(&out)
                .current_dir(&dir)
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .status()
                .map_err(|e| e.to_string())
        });
    ctx.report.attempt(1);
    let bytes = std::fs::read(out.join(result_csv(sub.cmd))).unwrap_or_default();
    let ok = matches!(ran, Ok(s) if s.success())
        && !bytes.is_empty()
        && pass.results[c].get(k) == Some(&bytes);
    ctx.report.check(ok, || {
        format!(
            "served {} job ({:?}) is not byte-identical to its one-shot run ({ran:?})",
            sub.cmd, sub.config
        )
    });
}

/// Replay the script's journal traffic through the job board on a
/// local-disk store: the fsync'd submit / start / complete records
/// without HTTP or compute.
fn joblog_metrics(ctx: &mut Ctx, scripts: &[Vec<Submission>], pass: &Pass) {
    let store = Store::localdisk(ctx.tmp.join("joblog"));
    let (mut board, _) = JobBoard::open(&store, "serve/jobs.joblog", 16, 8)
        .expect("a fresh job board opens on an empty directory");
    let mut ms: [Vec<f64>; 3] = Default::default();
    let mut ok = true;
    let longest = scripts.iter().map(Vec::len).max().unwrap_or(0);
    let span = ctx.tracer.open("joblog.replay", None);
    for i in 0..longest {
        for (c, subs) in scripts.iter().enumerate() {
            let Some(sub) = subs.get(i) else { continue };
            let client = format!("perfbench-{c}");
            let t = Instant::now();
            let adm = board.submit(JobSpec::new(sub.cmd, &sub.config), &client);
            ms[0].push(t.elapsed().as_secs_f64() * 1e3);
            match (adm, sub.repeat_of) {
                (Ok(Admission::Cached { .. }), Some(_)) => {}
                (Ok(Admission::Accepted { id }), None) => {
                    let t = Instant::now();
                    let started = board.start_next();
                    ms[1].push(t.elapsed().as_secs_f64() * 1e3);
                    ok &= matches!(&started, Ok(Some((sid, _, _))) if *sid == id);
                    let k = subs[..i].iter().filter(|s| s.repeat_of.is_none()).count();
                    let bytes = pass.results[c].get(k).cloned().unwrap_or_default();
                    let t = Instant::now();
                    ok &= board.complete(&id, &bytes).is_ok();
                    ms[2].push(t.elapsed().as_secs_f64() * 1e3);
                }
                _ => ok = false,
            }
        }
    }
    ctx.tracer.close(span);
    ctx.report.check(ok, || {
        "job-board replay of the serve-mix script misbehaved".into()
    });
    for (name, xs) in ["joblog.submit_ms", "joblog.start_ms", "joblog.complete_ms"]
        .iter()
        .zip(&ms)
    {
        ctx.report.metric(name, median(xs).unwrap_or(0.0), "ms");
    }
}

/// Routing layers on one of the script's graphs (the daemon runs them
/// out of sight; the probes time the same calls in-process).
fn layer_probes(ctx: &mut Ctx) {
    let pool = graph_pool();
    let gseed = pool[(mix(ctx.seed, 0x6a) % GRAPH_POOL) as usize];
    let (g, _) = ctx
        .tracer
        .time("asgraph.generate", None, || world::generate(ASES, gseed));
    let w = world::weights(&g);
    let (atlas, d) = ctx.tracer.time("atlas.build", None, || {
        world::build_atlas(&g, world::CTX_CACHE_MB)
    });
    let r = &mut ctx.report;
    r.metric("atlas.build_s", d.as_secs_f64(), "s");
    world::atlas_metrics(r, &atlas);
    let cfg = world::sim_config(0.05, 100, THREADS, DeltaMode::Auto);
    let res = Simulation::new(&g, &w, &TIEBREAK, cfg)
        .with_shared_atlas(std::sync::Arc::clone(&atlas))
        .run(&EarlyAdopters::ContentProvidersPlusTopIsps(5).select(&g));
    world::check_sim(r, "serve-mix probe simulation", &res);
    let states = res.states_by_round();
    let cands: Vec<_> = res.rounds[0].projected.iter().map(|&(n, _)| n).collect();
    world::probe_layers(r, &ctx.tracer, &g, &w, &atlas, &states[0], &cands, ctx.seed);
}

pub fn run(ctx: &mut Ctx) {
    let Some(repro) = ctx.repro.clone().filter(|p| p.is_file()) else {
        ctx.report
            .fail("serve-mix needs the repro binary (--repro PATH)".to_string());
        return;
    };
    let scripts = script(ctx.seed);

    // Set-up: daemon start until /healthz answers, several times; the
    // earlier daemons drain right away.
    let reps = if ctx.traced() { 1 } else { crate::SETUP_REPS };
    let mut setup = Vec::new();
    for i in 0..reps {
        let t = Instant::now();
        match Daemon::start(&repro, &ctx.tmp.join(format!("setup-{i}"))) {
            Ok(d) => {
                setup.push(t.elapsed().as_secs_f64());
                if let Err(e) = d.stop() {
                    ctx.report.fail(e);
                }
            }
            Err(e) => ctx.report.fail(e),
        }
    }

    let Some(pass) = daemon_pass(ctx, &repro, "mix", &scripts, false) else {
        return;
    };
    check_pass(&mut ctx.report, &pass, &scripts);
    check_one_shot(ctx, &repro, &scripts, &pass);

    if !ctx.traced() {
        let r = &mut ctx.report;
        r.metric("setup_s", median(&setup).unwrap_or(0.0), "s");
        r.metric("run_s", pass.run_s, "s");
        r.metric("peak_rss_mib", pass.peak_rss_mib, "MiB");
        crate::job_latency_metrics(r, &pass.tally.computed_ms, &pass.tally.cached_ms);
        return;
    }

    // Traced: the same script on a fresh daemon with spans on.
    let Some(traced) = daemon_pass(ctx, &repro, "mix-traced", &scripts, true) else {
        return;
    };
    check_pass(&mut ctx.report, &traced, &scripts);
    let r = &mut ctx.report;
    r.metric("trace.overhead_s", traced.run_s - pass.run_s, "s");
    println!(
        "[trace] traced run_s {:.4} s vs untraced {:.4} s",
        traced.run_s, pass.run_s
    );
    let stat = |k: &str| field(&traced.stats, k).and_then(|v| v.parse::<f64>().ok());
    let exec = stat("mean_job_ms").unwrap_or(0.0);
    let job_p50 = median(&traced.tally.computed_ms).unwrap_or(0.0);
    r.metric(
        "serve.admit_ms",
        median(&traced.admit_s).unwrap_or(0.0) * 1e3,
        "ms",
    );
    r.metric("serve.exec_ms", exec, "ms");
    r.metric("serve.overhead_ms", job_p50 - exec, "ms");
    let (hits, misses) = (
        stat("atlas_cache_hits").unwrap_or(0.0),
        stat("atlas_cache_misses").unwrap_or(0.0),
    );
    r.metric(
        "serve.atlas_cache_hit_rate",
        hits / (hits + misses).max(1.0),
        "ratio",
    );
    r.metric(
        "serve.result_cache_hits",
        stat("result_cache_hits").unwrap_or(0.0),
        "count",
    );
    joblog_metrics(ctx, &scripts, &traced);
    layer_probes(ctx);
    let spans = ctx.tracer.spans();
    let gen: f64 = spans
        .iter()
        .filter(|s| s.name == "asgraph.generate")
        .map(|s| s.dur_ns() as f64 / 1e9)
        .sum();
    ctx.report.metric("asgraph.generate_s", gen, "s");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_is_deterministic_per_seed() {
        assert_eq!(script(7), script(7));
        assert_ne!(script(7), script(8));
    }

    #[test]
    fn every_seed_deals_each_client_the_same_specs() {
        let shares = |seed| -> Vec<Vec<(&str, String)>> {
            script(seed)
                .into_iter()
                .map(|subs| {
                    let mut v: Vec<_> = subs
                        .into_iter()
                        .filter(|x| x.repeat_of.is_none())
                        .map(|x| (x.cmd, x.config))
                        .collect();
                    v.sort();
                    v
                })
                .collect()
        };
        assert_eq!(shares(7), shares(8));
        // Each client's computed jobs come one of each command per three.
        for subs in script(7) {
            let cmds: Vec<&str> = subs
                .iter()
                .filter(|x| x.repeat_of.is_none())
                .map(|x| x.cmd)
                .collect();
            for run in cmds.chunks(CMDS.len()) {
                let mut run = run.to_vec();
                run.sort();
                assert_eq!(run, ["fig8", "fig9", "scenario"]);
            }
        }
    }

    #[test]
    fn script_has_the_stated_mix() {
        let s = script(11);
        assert_eq!(s.len(), CLIENTS);
        let all: Vec<&Submission> = s.iter().flatten().collect();
        let fresh: Vec<&&Submission> = all.iter().filter(|x| x.repeat_of.is_none()).collect();
        assert_eq!(fresh.len(), CLIENTS * NEW_PER_CLIENT);
        assert_eq!(all.len() - fresh.len(), fresh.len() / 2, "a third resubmit");
        for cmd in CMDS {
            let n = fresh.iter().filter(|x| x.cmd == cmd).count();
            assert!(n.abs_diff(fresh.len() / 3) <= 1, "{cmd}: {n}");
        }
        // Computed specs are distinct, so each one really computes.
        let mut ids: Vec<String> = fresh
            .iter()
            .map(|x| JobSpec::new(x.cmd, &x.config).id())
            .collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), fresh.len());
        // Resubmissions only repeat the client's own earlier jobs.
        for subs in &s {
            for (i, sub) in subs.iter().enumerate() {
                if let Some(k) = sub.repeat_of {
                    let earlier: Vec<&Submission> =
                        subs[..i].iter().filter(|x| x.repeat_of.is_none()).collect();
                    assert!(k < earlier.len());
                    assert_eq!(earlier[k].config, sub.config);
                }
            }
        }
    }

    /// Replays canned responses, as a daemon would send them.
    struct Canned(Vec<(u16, &'static str)>);

    impl Transport for Canned {
        fn request(&mut self, _: &str, _: &str, _: &str) -> Result<(u16, Vec<u8>), String> {
            let (s, b) = self.0.remove(0);
            Ok((s, b.as_bytes().to_vec()))
        }
    }

    fn sub(repeat_of: Option<usize>) -> Submission {
        Submission {
            cmd: "fig9",
            config: "ases = 150\n".into(),
            repeat_of,
        }
    }

    #[test]
    fn a_poison_job_counts_as_failed_never_as_a_latency_sample() {
        // What `repro serve` answers for `__poison`: admitted, then
        // parked after its second attempt; the result is refused.
        let mut t = Canned(vec![
            (202, "{\"id\":\"abc\",\"status\":\"queued\"}"),
            (
                200,
                "{\"id\":\"abc\",\"status\":\"running\",\"attempts\":1}",
            ),
            (200, "{\"id\":\"abc\",\"status\":\"parked\",\"attempts\":2}"),
        ]);
        let out = run_job(&mut t, &sub(None), "c");
        assert!(matches!(out, Outcome::Failed(_)), "{out:?}");
        let mut tally = Tally::default();
        tally.record(&out, 12.0);
        assert!(tally.computed_ms.is_empty() && tally.cached_ms.is_empty());
        assert_eq!(tally.failures.len(), 1);
    }

    #[test]
    fn computed_and_cached_jobs_are_samples_and_refusals_are_failures() {
        let mut t = Canned(vec![
            (202, "{\"id\":\"abc\",\"status\":\"queued\"}"),
            (200, "{\"id\":\"abc\",\"status\":\"done\",\"attempts\":1}"),
            (200, "a,b\n1,2\n"),
        ]);
        assert_eq!(
            run_job(&mut t, &sub(None), "c"),
            Outcome::Computed(b"a,b\n1,2\n".to_vec())
        );
        let mut t = Canned(vec![
            (200, "{\"id\":\"abc\",\"status\":\"done\",\"cached\":true}"),
            (200, "a,b\n1,2\n"),
        ]);
        assert_eq!(
            run_job(&mut t, &sub(Some(0)), "c"),
            Outcome::Cached(b"a,b\n1,2\n".to_vec())
        );
        // Overload (429) and a resubmission that recomputes are both
        // failures, not samples.
        let mut t = Canned(vec![(
            429,
            "{\"error\":\"overloaded\",\"retry_after_ms\":5}",
        )]);
        assert!(matches!(
            run_job(&mut t, &sub(None), "c"),
            Outcome::Failed(_)
        ));
        let mut t = Canned(vec![(202, "{\"id\":\"abc\",\"status\":\"queued\"}")]);
        assert!(matches!(
            run_job(&mut t, &sub(Some(0)), "c"),
            Outcome::Failed(_)
        ));
        let mut tally = Tally::default();
        tally.record(&Outcome::Computed(vec![]), 5.0);
        tally.record(&Outcome::Cached(vec![]), 1.0);
        tally.record(&Outcome::Failed("x".into()), 0.1);
        assert_eq!(tally.computed_ms, vec![5.0]);
        assert_eq!(tally.cached_ms, vec![1.0]);
        assert_eq!(tally.failures.len(), 1);
    }

    #[test]
    fn fields_parse_from_flat_json() {
        let b = br#"{"id":"00ff","status":"done","cached":true,"mean_job_ms":12.500}"#;
        assert_eq!(field(b, "id").as_deref(), Some("00ff"));
        assert_eq!(field(b, "cached").as_deref(), Some("true"));
        assert_eq!(field(b, "mean_job_ms").as_deref(), Some("12.500"));
        assert_eq!(field(b, "nope"), None);
    }
}

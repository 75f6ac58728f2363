//! `repro serve` — a crash-survivable simulation service.
//!
//! A long-lived daemon that keeps hot [`RoutingAtlas`] instances
//! resident (bounded by `--ctx-cache-mb`) and accepts figure/scenario
//! jobs over a tiny hand-rolled HTTP/1.1 + JSON API:
//!
//! * `POST /jobs` `{"cmd": "fig9", "config": "ases = 200\n..."}` —
//!   admission-controlled submission (bounded queue → typed `429
//!   Overloaded` with a retry-after hint; per-client in-flight caps).
//! * `GET /jobs/:id` — job status; `GET /jobs/:id/result` — the
//!   canonical CSV bytes, byte-identical to a one-shot CLI run.
//! * `GET /healthz`, `GET /stats` — liveness and counters.
//!
//! Every state transition is journaled write-ahead through the
//! [`sbgp_core::serve::JobBoard`], so `kill -9` + restart resumes the
//! queue with exactly-once result materialization; SIGTERM drains
//! gracefully (stop admitting, finish the in-flight job, flush, exit
//! 0). A job that kills its attempt twice is parked as poisoned with a
//! replayable `--config` artifact while other jobs keep flowing.

use crate::cli::Options;
use crate::error::ExperimentError;
use crate::json;
use sbgp_core::serve::{Admission, JobBoard, JobSpec, Phase};
use sbgp_core::storage::Store;
use sbgp_routing::RoutingAtlas;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// The journal key (relative to the store base) the daemon queues under.
pub(crate) const JOBLOG_KEY: &str = "serve/jobs.joblog";
/// The daemon's single-instance lock key.
const LOCK_KEY: &str = "serve/daemon.lock";
/// Listen address when `--listen` is not given.
const DEFAULT_LISTEN: &str = "127.0.0.1:7411";

// ---------------------------------------------------------------------
// Atlas cache: hot frozen-context atlases shared across jobs
// ---------------------------------------------------------------------

/// Everything that determines a built atlas's contents: the world
/// parameters that shaped the graph plus the graph's own dimensions
/// (fig12 builds base *and* augmented atlases from one option set —
/// node/edge counts tell them apart).
type AtlasKey = (u64, usize, bool, u64, usize, usize);

struct AtlasCache {
    budget_bytes: usize,
    /// LRU order: the back is the most recently used entry.
    entries: Vec<(AtlasKey, Arc<RoutingAtlas>)>,
    hits: u64,
    misses: u64,
}

impl AtlasCache {
    fn total_bytes(&self) -> usize {
        self.entries.iter().map(|(_, a)| a.stats().bytes).sum()
    }
}

/// Installed once by [`serve_cmd`]; one-shot CLI runs never install it,
/// so [`cached_atlas`] is a plain pass-through for them.
static ATLAS_CACHE: OnceLock<Mutex<AtlasCache>> = OnceLock::new();

fn atlas_key(g: &sbgp_asgraph::AsGraph, opts: &Options) -> AtlasKey {
    (
        opts.seed,
        opts.ases,
        opts.paper_scale,
        opts.fail_links.to_bits(),
        g.len(),
        g.num_edges(),
    )
}

/// Serve a routing atlas from the daemon's hot cache, building (and
/// caching) it on a miss. Outside the daemon the cache is not
/// installed and this just calls `build` — the one-shot CLI path is
/// unchanged.
pub(crate) fn cached_atlas(
    g: &sbgp_asgraph::AsGraph,
    opts: &Options,
    build: impl FnOnce() -> Arc<RoutingAtlas>,
) -> Arc<RoutingAtlas> {
    let Some(cache) = ATLAS_CACHE.get() else {
        return build();
    };
    let key = atlas_key(g, opts);
    {
        let mut c = cache.lock().expect("atlas cache poisoned");
        if let Some(pos) = c.entries.iter().position(|(k, _)| *k == key) {
            let entry = c.entries.remove(pos);
            let atlas = Arc::clone(&entry.1);
            c.entries.push(entry);
            c.hits += 1;
            return atlas;
        }
        c.misses += 1;
    }
    // Build outside the lock: atlas construction is the expensive part
    // and must not block the HTTP threads reading cache stats.
    let atlas = build();
    let mut c = cache.lock().expect("atlas cache poisoned");
    if c.budget_bytes > 0 {
        c.entries.push((key, Arc::clone(&atlas)));
        while c.entries.len() > 1 && c.total_bytes() > c.budget_bytes {
            c.entries.remove(0);
        }
    }
    atlas
}

/// `(hits, misses, entries, resident bytes)` — zeros when the cache is
/// not installed (one-shot runs).
fn atlas_cache_stats() -> (u64, u64, usize, usize) {
    match ATLAS_CACHE.get() {
        Some(cache) => {
            let c = cache.lock().expect("atlas cache poisoned");
            (c.hits, c.misses, c.entries.len(), c.total_bytes())
        }
        None => (0, 0, 0, 0),
    }
}

// ---------------------------------------------------------------------
// Job execution
// ---------------------------------------------------------------------

/// The entry point a served command dispatches to.
type JobRunner = fn(&Options) -> Result<(), ExperimentError>;

/// The commands the service runs, mapped to their entry points. The
/// hidden `__poison` command panics deterministically — the chaos and
/// integration suites use it to prove the quarantine path.
pub(crate) fn job_runner(cmd: &str) -> Option<JobRunner> {
    Some(match cmd {
        "fig8" => crate::sweeps::fig8,
        "fig9" => crate::sweeps::fig9,
        "fig11" => crate::sweeps::fig11,
        "fig12" => crate::sweeps::fig12,
        "scenario" => crate::scenario::scenario,
        "__poison" => poison_job,
        _ => return None,
    })
}

/// The canonical CSV each command materializes as its job result.
pub(crate) fn result_csv_name(cmd: &str) -> Option<&'static str> {
    Some(match cmd {
        "fig8" => "fig8a_ases.csv",
        "fig9" => "fig9_secure_paths.csv",
        "fig11" => "fig11_stub_sensitivity.csv",
        "fig12" => "fig12_cp_vs_tier1.csv",
        "scenario" => "scenario_surface.csv",
        "__poison" => "poison.csv",
        _ => return None,
    })
}

fn poison_job(_opts: &Options) -> Result<(), ExperimentError> {
    panic!("__poison: deterministic panic for quarantine testing");
}

#[derive(Default)]
struct ServeStats {
    jobs_served: u64,
    failures: u64,
    total_ms: u64,
    max_ms: u64,
}

struct Daemon {
    board: Mutex<JobBoard>,
    store: Store,
    opts: Options,
    base: PathBuf,
    stats: Mutex<ServeStats>,
}

/// Run one job to its canonical CSV bytes. The job's own config
/// controls the science (topology, seeds, θ grid); the daemon's fleet
/// and supervision flags (`--threads`, `--process-shards`, `--workers`,
/// chaos schedules, …) are overlaid because results are bit-identical
/// under any of them — scheduling belongs to the service, science to
/// the client. `--disk-chaos` is deliberately *not* inherited: the
/// daemon's torture schedule targets its own journal, not job outputs.
fn execute_spec(d: &Daemon, id: &str, spec: &JobSpec) -> Result<Vec<u8>, String> {
    let mut jopts =
        Options::from_config_str(&spec.config).map_err(|e| format!("bad config: {e}"))?;
    let job_dir = d.base.join("serve").join("jobs").join(id);
    jopts.out = Some(job_dir.clone());
    jopts.threads = d.opts.threads;
    jopts.ctx_cache_mb = d.opts.ctx_cache_mb;
    jopts.process_shards = d.opts.process_shards;
    jopts.kill_workers = d.opts.kill_workers;
    jopts.watchdog_secs = d.opts.watchdog_secs;
    jopts.restart_budget = d.opts.restart_budget;
    jopts.worker_mem_mb = d.opts.worker_mem_mb;
    jopts.workers = d.opts.workers.clone();
    jopts.net_chaos = d.opts.net_chaos;
    jopts.lease_secs = d.opts.lease_secs;
    let run = job_runner(&spec.cmd).ok_or_else(|| format!("unsupported command {:?}", spec.cmd))?;
    let csv = result_csv_name(&spec.cmd).expect("every runnable command names its CSV");
    match catch_unwind(AssertUnwindSafe(|| run(&jopts))) {
        Ok(Ok(())) => std::fs::read(job_dir.join(csv))
            .map_err(|e| format!("job finished but {csv} is unreadable: {e}")),
        Ok(Err(e)) => Err(e.to_string()),
        Err(panic) => Err(format!("attempt panicked: {}", panic_message(&panic))),
    }
}

fn panic_message(panic: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn first_line(s: &str) -> &str {
    s.lines().next().unwrap_or(s)
}

/// The executor thread: pop → run → complete/fail, until SIGTERM. The
/// in-flight job always finishes (drain checks only happen between
/// jobs); the queue behind it stays journaled for the next start.
fn executor(d: &Daemon) {
    while !crate::signals::term_requested() {
        let started = d.board.lock().expect("board poisoned").start_next();
        let (id, spec, attempt) = match started {
            Ok(Some(t)) => t,
            Ok(None) => {
                std::thread::sleep(Duration::from_millis(100));
                continue;
            }
            Err(e) => {
                eprintln!("[serve] journaling a job start failed: {e} (will retry)");
                std::thread::sleep(Duration::from_millis(250));
                continue;
            }
        };
        if attempt > 1 {
            // Linearly capped exponential backoff before a retry; the
            // failed attempt's journal record already survived.
            let backoff = Duration::from_millis(250u64 << (attempt - 2).min(3));
            eprintln!("[serve] job {id}: retry attempt {attempt} after {backoff:?}");
            std::thread::sleep(backoff);
        }
        let t0 = Instant::now();
        let outcome = execute_spec(d, &id, &spec);
        let ms = t0.elapsed().as_millis() as u64;
        match outcome {
            Ok(bytes) => {
                // The completion record is the exactly-once commit
                // point; under disk chaos an append can fail
                // transiently, so insist a few times before falling
                // back to crash-recovery semantics (replay re-runs the
                // job and re-puts identical bytes).
                let mut committed = false;
                for _ in 0..8 {
                    match d
                        .board
                        .lock()
                        .expect("board poisoned")
                        .complete(&id, &bytes)
                    {
                        Ok(()) => {
                            committed = true;
                            break;
                        }
                        Err(e) => eprintln!("[serve] job {id}: completion journal: {e} (retrying)"),
                    }
                    std::thread::sleep(Duration::from_millis(100));
                }
                if committed {
                    let mut s = d.stats.lock().expect("stats poisoned");
                    s.jobs_served += 1;
                    s.total_ms += ms;
                    s.max_ms = s.max_ms.max(ms);
                    eprintln!("[serve] job {id} ({}) done in {ms} ms", spec.cmd);
                } else {
                    eprintln!(
                        "[serve] job {id}: completion never journaled; a restart will re-run it"
                    );
                }
            }
            Err(msg) => {
                d.stats.lock().expect("stats poisoned").failures += 1;
                match d.board.lock().expect("board poisoned").fail(&id, &msg) {
                    Ok(Phase::Parked) => eprintln!(
                        "[serve] job {id} ({}) PARKED as poisoned after {attempt} attempt(s): {}",
                        spec.cmd,
                        first_line(&msg)
                    ),
                    Ok(_) => eprintln!(
                        "[serve] job {id} failed (attempt {attempt}): {}; requeued",
                        first_line(&msg)
                    ),
                    Err(e) => eprintln!("[serve] job {id}: journaling the failure failed: {e}"),
                }
            }
        }
    }
    eprintln!("[serve] executor drained");
}

// ---------------------------------------------------------------------
// Minimal HTTP/1.1
// ---------------------------------------------------------------------

struct Request {
    method: String,
    path: String,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

impl Request {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// A request refused on its head alone, before any body is read:
/// status, reason phrase, JSON error body.
type Refusal = (u16, &'static str, String);

/// Read one request. `Ok(None)` means the client went away before a
/// full request arrived (the chaos suite's mid-stream disconnect probe
/// — not an error, just a closed connection); a read fault counts the
/// same. `Err` is a typed refusal: an unparseable `Content-Length`
/// (400) or one past the body cap (413).
fn read_request(stream: &mut TcpStream) -> Result<Option<Request>, Refusal> {
    const MAX_HEAD: usize = 64 * 1024;
    const MAX_BODY: u64 = 1024 * 1024;
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = find_subslice(&buf, b"\r\n\r\n") {
            break pos;
        }
        if buf.len() > MAX_HEAD {
            return Ok(None);
        }
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => return Ok(None),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
        }
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let mut lines = head.lines();
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(path)) = (parts.next(), parts.next()) else {
        return Ok(None);
    };
    let headers: Vec<(String, String)> = lines
        .filter_map(|l| {
            l.split_once(':')
                .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
        })
        .collect();
    let mut body: Vec<u8> = buf[head_end + 4..].to_vec();
    let length = headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .map(|(_, v)| v.parse::<u64>());
    let too_large = || {
        let body =
            format!("{{\"error\":\"content-length exceeds the {MAX_BODY}-byte body limit\"}}");
        (413, "Payload Too Large", body)
    };
    let want = match length {
        None => 0,
        Some(Ok(n)) if n > MAX_BODY => return Err(too_large()),
        Some(Ok(n)) => n as usize,
        Some(Err(e)) if *e.kind() == std::num::IntErrorKind::PosOverflow => return Err(too_large()),
        Some(Err(_)) => {
            let body = "{\"error\":\"content-length is not a byte count\"}".to_string();
            return Err((400, "Bad Request", body));
        }
    };
    while body.len() < want {
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => return Ok(None),
            Ok(n) => body.extend_from_slice(&chunk[..n]),
        }
    }
    body.truncate(want);
    Ok(Some(Request {
        method: method.to_string(),
        path: path.to_string(),
        headers,
        body,
    }))
}

fn find_subslice(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

fn respond(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &[u8],
    extra: &[(&str, String)],
) {
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\nconnection: close\r\n",
        body.len()
    );
    for (k, v) in extra {
        head.push_str(&format!("{k}: {v}\r\n"));
    }
    head.push_str("\r\n");
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body);
    let _ = stream.flush();
}

fn respond_json(stream: &mut TcpStream, status: u16, reason: &str, json: &str) {
    respond(
        stream,
        status,
        reason,
        "application/json",
        json.as_bytes(),
        &[],
    );
}

// ---------------------------------------------------------------------
// Endpoints
// ---------------------------------------------------------------------

fn job_status_json(d: &Daemon, id: &str) -> Option<String> {
    let board = d.board.lock().expect("board poisoned");
    let j = board.job(id)?;
    let error = match &j.error {
        Some(e) => format!(",\"error\":\"{}\"", json::escape(first_line(e))),
        None => String::new(),
    };
    Some(format!(
        "{{\"id\":\"{id}\",\"status\":\"{}\",\"attempts\":{}{error}}}",
        j.phase.label(),
        j.attempts
    ))
}

fn post_job(d: &Daemon, req: &Request, fallback_client: &str, stream: &mut TcpStream) {
    let text = String::from_utf8_lossy(&req.body).into_owned();
    let fields = match json::parse_object(&text) {
        Ok(f) => f,
        Err(e) => {
            let body = format!("{{\"error\":\"bad request body: {}\"}}", json::escape(&e));
            return respond_json(stream, 400, "Bad Request", &body);
        }
    };
    let Some(cmd) = fields.get("cmd") else {
        return respond_json(stream, 400, "Bad Request", "{\"error\":\"missing cmd\"}");
    };
    let config = fields.get("config").cloned().unwrap_or_default();
    let client = fields
        .get("client")
        .map(String::as_str)
        .unwrap_or(fallback_client);
    // Validate before admission: a spec that can never run must not
    // occupy a queue slot or burn a retry.
    if job_runner(cmd).is_none() {
        let body = format!(
            "{{\"error\":\"unsupported cmd {}; serve runs fig8|fig9|fig11|fig12|scenario\"}}",
            json::escape(cmd)
        );
        return respond_json(stream, 400, "Bad Request", &body);
    }
    if let Err(e) = Options::from_config_str(&config) {
        let body = format!("{{\"error\":\"bad config: {}\"}}", json::escape(&e));
        return respond_json(stream, 400, "Bad Request", &body);
    }
    let spec = JobSpec::new(cmd, &config);
    let admission = d.board.lock().expect("board poisoned").submit(spec, client);
    match admission {
        Err(e) => {
            let body = format!("{{\"error\":\"{}\"}}", json::escape(&e.to_string()));
            respond_json(stream, 500, "Internal Server Error", &body);
        }
        Ok(Admission::Accepted { id }) => {
            let body = format!("{{\"id\":\"{id}\",\"status\":\"queued\"}}");
            respond_json(stream, 202, "Accepted", &body);
        }
        Ok(Admission::Pending { id }) => {
            let body = format!("{{\"id\":\"{id}\",\"status\":\"pending\"}}");
            respond_json(stream, 202, "Accepted", &body);
        }
        Ok(Admission::Cached { id }) => {
            let body = format!(
                "{{\"id\":\"{id}\",\"status\":\"done\",\"result\":\"/jobs/{id}/result\",\"cached\":true}}"
            );
            respond_json(stream, 200, "OK", &body);
        }
        Ok(Admission::Parked { id }) => {
            let body = format!(
                "{{\"id\":\"{id}\",\"status\":\"parked\",\"error\":\"quarantined as poisoned; see serve/parked/{id}.job\"}}"
            );
            respond_json(stream, 409, "Conflict", &body);
        }
        Ok(Admission::Overloaded { retry_after_ms }) => {
            let secs = retry_after_ms.div_ceil(1000).max(1);
            let body = format!(
                "{{\"error\":\"overloaded: queue is full\",\"retry_after_ms\":{retry_after_ms}}}"
            );
            respond(
                stream,
                429,
                "Too Many Requests",
                "application/json",
                body.as_bytes(),
                &[("retry-after", secs.to_string())],
            );
        }
        Ok(Admission::ClientSaturated { in_flight, cap }) => {
            let body = format!(
                "{{\"error\":\"client saturated: {in_flight} of {cap} in-flight slots used\"}}"
            );
            respond(
                stream,
                429,
                "Too Many Requests",
                "application/json",
                body.as_bytes(),
                &[("retry-after", "1".to_string())],
            );
        }
        Ok(Admission::Draining) => {
            respond_json(
                stream,
                503,
                "Service Unavailable",
                "{\"error\":\"draining: the daemon is shutting down\"}",
            );
        }
    }
}

fn get_result(d: &Daemon, id: &str, stream: &mut TcpStream) {
    let phase = {
        let board = d.board.lock().expect("board poisoned");
        board.job(id).map(|j| j.phase)
    };
    match phase {
        None => respond_json(stream, 404, "Not Found", "{\"error\":\"no such job\"}"),
        Some(Phase::Done) => match d.store.get(&JobBoard::result_key(id)) {
            Ok(Some(bytes)) => respond(stream, 200, "OK", "text/csv", &bytes, &[]),
            Ok(None) => respond_json(
                stream,
                500,
                "Internal Server Error",
                "{\"error\":\"result missing behind a done record\"}",
            ),
            Err(e) => {
                let body = format!("{{\"error\":\"{}\"}}", json::escape(&e.to_string()));
                respond_json(stream, 500, "Internal Server Error", &body);
            }
        },
        Some(Phase::Parked) => respond_json(
            stream,
            409,
            "Conflict",
            "{\"error\":\"job is parked as poisoned; no result will materialize\"}",
        ),
        Some(_) => respond_json(
            stream,
            409,
            "Conflict",
            "{\"error\":\"result not ready; poll /jobs/:id\"}",
        ),
    }
}

fn stats_json(d: &Daemon) -> String {
    let (queued, running, done, parked, cache_hits, draining) = {
        let board = d.board.lock().expect("board poisoned");
        let (q, r, dn, p) = board.counts();
        (q, r, dn, p, board.cache_hits, board.draining())
    };
    let (jobs_served, failures, total_ms, max_ms) = {
        let s = d.stats.lock().expect("stats poisoned");
        (s.jobs_served, s.failures, s.total_ms, s.max_ms)
    };
    let mean_ms = if jobs_served > 0 {
        total_ms as f64 / jobs_served as f64
    } else {
        0.0
    };
    let (ahits, amisses, aentries, abytes) = atlas_cache_stats();
    format!(
        "{{\"queued\":{queued},\"running\":{running},\"done\":{done},\"parked\":{parked},\
         \"result_cache_hits\":{cache_hits},\"jobs_served\":{jobs_served},\"failures\":{failures},\
         \"mean_job_ms\":{mean_ms:.3},\"max_job_ms\":{max_ms},\
         \"atlas_cache_hits\":{ahits},\"atlas_cache_misses\":{amisses},\
         \"atlas_cache_entries\":{aentries},\"atlas_cache_bytes\":{abytes},\
         \"draining\":{draining}}}"
    )
}

fn handle_connection(mut stream: TcpStream, peer: SocketAddr, d: &Daemon) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let req = match read_request(&mut stream) {
        Ok(Some(r)) => r,
        // EOF mid-request (client disconnect) or a read fault: nothing
        // to answer, and nothing daemon-side may wedge on it.
        Ok(None) => return,
        Err((status, reason, body)) => return respond_json(&mut stream, status, reason, &body),
    };
    let fallback_client = req
        .header("x-client")
        .map(str::to_string)
        .unwrap_or_else(|| peer.ip().to_string());
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/jobs") => post_job(d, &req, &fallback_client, &mut stream),
        ("GET", "/healthz") => {
            let draining = d.board.lock().expect("board poisoned").draining();
            let body = format!("{{\"ok\":true,\"draining\":{draining}}}");
            respond_json(&mut stream, 200, "OK", &body);
        }
        ("GET", "/stats") => {
            let body = stats_json(d);
            respond_json(&mut stream, 200, "OK", &body);
        }
        ("GET", path) => {
            if let Some(rest) = path.strip_prefix("/jobs/") {
                if let Some(id) = rest.strip_suffix("/result") {
                    get_result(d, id, &mut stream);
                } else {
                    match job_status_json(d, rest) {
                        Some(body) => respond_json(&mut stream, 200, "OK", &body),
                        None => respond_json(
                            &mut stream,
                            404,
                            "Not Found",
                            "{\"error\":\"no such job\"}",
                        ),
                    }
                }
            } else {
                respond_json(
                    &mut stream,
                    404,
                    "Not Found",
                    "{\"error\":\"no such path\"}",
                );
            }
        }
        _ => respond_json(
            &mut stream,
            405,
            "Method Not Allowed",
            "{\"error\":\"only POST /jobs and GETs\"}",
        ),
    }
}

/// A minimal one-request HTTP client for the chaos suite and tests:
/// returns `(status, body bytes)`.
pub(crate) fn http_request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<(u16, Vec<u8>)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    let b = body.unwrap_or("");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nhost: repro-serve\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        b.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(b.as_bytes())?;
    stream.flush()?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let head_end = find_subslice(&raw, b"\r\n\r\n")
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no header end"))?;
    let head_text = String::from_utf8_lossy(&raw[..head_end]).into_owned();
    let status: u16 = head_text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no status"))?;
    Ok((status, raw[head_end + 4..].to_vec()))
}

// ---------------------------------------------------------------------
// The daemon entry point
// ---------------------------------------------------------------------

/// Publish `bound` in the port file `pf` (`repro serve --port-file`,
/// `repro worker --port-file`). The write is atomic (write-tmp, fsync,
/// rename via the storage layer) so a poller never reads a torn
/// half-written address.
pub(crate) fn publish_port_file(pf: &std::path::Path, bound: &str) -> Result<(), ExperimentError> {
    let (dir, name) = match (pf.parent(), pf.file_name().and_then(|n| n.to_str())) {
        (Some(dir), Some(name)) if !name.is_empty() => (
            if dir.as_os_str().is_empty() {
                std::path::Path::new(".")
            } else {
                dir
            },
            name,
        ),
        _ => {
            return Err(ExperimentError::Harness(format!(
                "--port-file {} has no usable file name",
                pf.display()
            )))
        }
    };
    Store::localdisk(dir)
        .put_atomic(name, format!("{bound}\n").as_bytes())
        .map_err(ExperimentError::Storage)
}

fn write_serve_bench(d: &Daemon) {
    let (jobs_served, total_ms, max_ms) = {
        let s = d.stats.lock().expect("stats poisoned");
        (s.jobs_served, s.total_ms, s.max_ms)
    };
    let cache_hits = d.board.lock().expect("board poisoned").cache_hits;
    let (ahits, amisses, _, abytes) = atlas_cache_stats();
    let mean_ms = if jobs_served > 0 {
        total_ms as f64 / jobs_served as f64
    } else {
        0.0
    };
    let hit_rate = if ahits + amisses > 0 {
        ahits as f64 / (ahits + amisses) as f64
    } else {
        0.0
    };
    let record = format!(
        "{{\"family\":\"serve\",\"n\":{},\"threads\":{},\"jobs_served\":{jobs_served},\
         \"mean_job_ms\":{mean_ms:.3},\"max_job_ms\":{max_ms},\"result_cache_hits\":{cache_hits},\
         \"atlas_cache_hits\":{ahits},\"atlas_cache_misses\":{amisses},\
         \"atlas_cache_hit_rate\":{hit_rate:.3},\"atlas_cache_bytes\":{abytes}}}",
        d.opts.ases, d.opts.threads
    );
    match crate::benchcmd::write_history_record(&d.store, &record) {
        Ok(n) => eprintln!(
            "[serve] bench history: {jobs_served} job(s), mean {mean_ms:.1} ms, \
             atlas hit rate {hit_rate:.2} ({n} record(s) in BENCH_engine.json)"
        ),
        Err(e) => eprintln!("[serve] bench history write failed: {e}"),
    }
}

/// `repro serve [--listen ADDR] [--port-file PATH] [--queue-bound N]
/// [--client-inflight N] [--out DIR]` — run the simulation service
/// until SIGTERM.
pub fn serve_cmd(opts: &Options) -> Result<(), ExperimentError> {
    let base = opts.out.clone().unwrap_or_else(|| PathBuf::from("results"));
    let store = opts.storage_at(&base);
    crate::harness::take_lock(&store, LOCK_KEY)?;
    let _ = ATLAS_CACHE.set(Mutex::new(AtlasCache {
        budget_bytes: opts.ctx_cache_mb.saturating_mul(1 << 20),
        entries: Vec::new(),
        hits: 0,
        misses: 0,
    }));
    let (board, replay) =
        JobBoard::open(&store, JOBLOG_KEY, opts.queue_bound, opts.client_inflight)?;
    eprintln!(
        "[serve] journal replay: {} queued, {} requeued from running, {} parked at replay, \
         {} done, {} torn byte(s) truncated",
        replay.resumed_queued,
        replay.requeued_running,
        replay.parked_on_replay,
        replay.done,
        replay.torn_bytes
    );
    let listen = opts.listen.as_deref().unwrap_or(DEFAULT_LISTEN);
    let listener = TcpListener::bind(listen)
        .map_err(|e| ExperimentError::Harness(format!("binding {listen}: {e}")))?;
    let bound = listener
        .local_addr()
        .map_err(|e| ExperimentError::Harness(format!("local_addr: {e}")))?;
    eprintln!(
        "[serve] listening on {bound} (queue bound {}, per-client cap {}, atlas budget {} MiB)",
        opts.queue_bound, opts.client_inflight, opts.ctx_cache_mb
    );
    if let Some(pf) = &opts.port_file {
        publish_port_file(pf, &bound.to_string())?;
    }
    crate::signals::install_term_handler();
    listener
        .set_nonblocking(true)
        .map_err(|e| ExperimentError::Harness(format!("set_nonblocking: {e}")))?;
    let daemon = Arc::new(Daemon {
        board: Mutex::new(board),
        store: store.clone(),
        opts: opts.clone(),
        base,
        stats: Mutex::new(ServeStats::default()),
    });
    let exec = {
        let d = Arc::clone(&daemon);
        std::thread::spawn(move || executor(&d))
    };
    let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    // Nonblocking accept + poll: glibc's SA_RESTART means SIGTERM never
    // interrupts a blocking accept on its own (same loop as `repro
    // worker`).
    while !crate::signals::term_requested() {
        match listener.accept() {
            Ok((stream, peer)) => {
                let d = Arc::clone(&daemon);
                handlers.push(std::thread::spawn(move || {
                    handle_connection(stream, peer, &d)
                }));
                handlers.retain(|h| !h.is_finished());
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => eprintln!("[serve] accept: {e}"),
        }
    }
    eprintln!("[serve] SIGTERM: draining — no new admissions, finishing the in-flight job");
    daemon.board.lock().expect("board poisoned").begin_drain();
    let _ = exec.join();
    for h in handlers {
        let _ = h.join();
    }
    write_serve_bench(&daemon);
    store
        .unlock(LOCK_KEY, &crate::harness::lock_owner())
        .map_err(ExperimentError::Storage)?;
    if let Some(pf) = &opts.port_file {
        // Remove the advertisement so clients dial a dead address (fast
        // typed failure) instead of finding a stale file.
        let _ = std::fs::remove_file(pf);
    }
    let (queued, running, done, parked) = daemon.board.lock().expect("board poisoned").counts();
    eprintln!(
        "[serve] drained: {done} done, {parked} parked; journal retains {} job(s) for the next start",
        queued + running
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runners_and_csvs_cover_the_same_commands() {
        for cmd in ["fig8", "fig9", "fig11", "fig12", "scenario", "__poison"] {
            assert!(job_runner(cmd).is_some(), "{cmd} must be runnable");
            assert!(result_csv_name(cmd).is_some(), "{cmd} must name a CSV");
        }
        assert!(job_runner("fig10").is_none());
        assert!(result_csv_name("table1").is_none());
    }

    #[test]
    fn find_subslice_locates_header_end() {
        assert_eq!(find_subslice(b"ab\r\n\r\ncd", b"\r\n\r\n"), Some(2));
        assert_eq!(find_subslice(b"abcd", b"\r\n\r\n"), None);
    }
}

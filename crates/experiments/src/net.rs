//! Sweep workers over TCP — the one transport between a coordinator
//! and its workers.
//!
//! Three pieces:
//!
//! * [`worker_cmd`] — `repro worker --listen ADDR` serves sweep units
//!   over the length-prefixed frame protocol. By default it is
//!   long-lived: connections are served serially, and when a
//!   coordinator vanishes (crash, chaos-severed socket) the worker logs
//!   the error and goes back to accepting, so a `--resume`d coordinator
//!   finds the same fleet still listening. With `--once-for PID` it is
//!   a coordinator's local shard: it serves exactly one connection and
//!   exits, and exits early if PID stops being its parent, so a
//!   SIGKILLed coordinator leaves no listener behind.
//!
//! * [`spawn_worker`] — start a `repro worker` on an ephemeral
//!   localhost port and wait for it to publish its address.
//!
//! * [`WorkerPool`] — the coordinator's connect factory. Without
//!   `--workers`, every supervisor slot spawns a one-connection local
//!   worker (`--process-shards N`). With `--workers host:port,...`, a
//!   slot dials its preferred address, then the other live ones, and
//!   only when none answers spawns a local worker instead, so a sweep
//!   finishes (byte-identically) even if every remote host dies.
//!
//! With `--net-chaos`, every link, local or remote, is wrapped in the
//! seeded fault-injecting transport
//! ([`sbgp_core::supervise::ChaosProfile`]); faults injected there are
//! ledgered and exempt from the restart budget, exactly like
//! `--kill-workers` chaos.

use crate::cli::Options;
use crate::error::ExperimentError;
use sbgp_core::supervise::{self, ChaosProfile, SuperviseError, WorkerLink};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a single dial attempt may take before we try the next
/// candidate address (or fall back to a local worker).
const DIAL_TIMEOUT: Duration = Duration::from_secs(5);

/// How long a spawned worker may take to publish its address.
const PUBLISH_TIMEOUT: Duration = Duration::from_secs(10);

/// Consecutive dial failures after which an address is written off for
/// the rest of the run.
const DEAD_AFTER: u32 = 3;

// ---------------------------------------------------------------------
// Coordinator side: the worker pool
// ---------------------------------------------------------------------

/// Per-address dial bookkeeping.
struct Endpoint {
    addr: String,
    consec_fail: u32,
    connects: usize,
}

impl Endpoint {
    fn dead(&self) -> bool {
        self.consec_fail >= DEAD_AFTER
    }
}

/// The coordinator's worker fleet; the supervisor's connect factory
/// delegates here. Never returns an error unless a local worker cannot
/// be spawned — a connect error aborts the whole supervised run, and a
/// dead remote host should not do that.
pub struct WorkerPool<'a> {
    opts: &'a Options,
    endpoints: Vec<Endpoint>,
    chaos: Option<ChaosProfile>,
    /// Distinct chaos seed per link, monotonically increasing across
    /// reconnects so a restarted link gets a fresh fault schedule.
    next_link: u64,
    /// Local workers spawned so far; numbers their port files.
    spawned: usize,
    /// Of those, how many stood in for an unreachable remote pool.
    local_fallbacks: usize,
}

impl<'a> WorkerPool<'a> {
    /// Build a pool over `opts.workers` (empty: local workers only).
    pub fn new(opts: &'a Options) -> Self {
        WorkerPool {
            endpoints: opts
                .workers
                .iter()
                .map(|a| Endpoint {
                    addr: a.clone(),
                    consec_fail: 0,
                    connects: 0,
                })
                .collect(),
            chaos: opts.net_chaos,
            next_link: 0,
            spawned: 0,
            local_fallbacks: 0,
            opts,
        }
    }

    /// Connect supervisor slot `slot` to a worker: the slot's preferred
    /// address first (slot i ↦ address i mod n), then any other live
    /// address, then — with no addresses, or nothing reachable — a
    /// freshly spawned local worker.
    pub fn connect(&mut self, slot: usize) -> Result<WorkerLink, SuperviseError> {
        let n = self.endpoints.len();
        // Preferred address first, then the rest in ring order.
        for i in (0..n).map(|i| (slot + i) % n) {
            if self.endpoints[i].dead() {
                continue;
            }
            match dial(&self.endpoints[i].addr) {
                Ok(stream) => {
                    let ep = &mut self.endpoints[i];
                    ep.consec_fail = 0;
                    ep.connects += 1;
                    return self.link(stream);
                }
                Err(e) => {
                    let ep = &mut self.endpoints[i];
                    ep.consec_fail += 1;
                    eprintln!(
                        "[net] dial {} failed ({e}); {}",
                        ep.addr,
                        if ep.dead() {
                            "writing the address off"
                        } else {
                            "will retry on the next connect"
                        }
                    );
                }
            }
        }
        if n > 0 {
            eprintln!("[net] no remote worker reachable; spawning a local shard instead");
            self.local_fallbacks += 1;
        }
        self.spawn_local()
    }

    /// Spawn a one-connection local worker and dial it.
    fn spawn_local(&mut self) -> Result<WorkerLink, SuperviseError> {
        let spawn_err = |message: String| SuperviseError::Spawn { message };
        let dir = crate::shards::shards_dir(self.opts);
        std::fs::create_dir_all(&dir)
            .map_err(|e| spawn_err(format!("creating {}: {e}", dir.display())))?;
        let port_file = dir.join(format!(
            "local-{}-{}.port",
            std::process::id(),
            self.spawned
        ));
        self.spawned += 1;
        let (mut child, addr) = spawn_worker(&port_file, true, self.opts.worker_mem_mb)
            .map_err(|e| spawn_err(format!("local worker: {e}")))?;
        // The address is read; nobody else needs the advertisement.
        let _ = std::fs::remove_file(&port_file);
        match dial(&addr)
            .map_err(|e| spawn_err(format!("dialing local worker at {addr}: {e}")))
            .and_then(|stream| self.link(stream))
        {
            Ok(link) => Ok(link.with_child(child)),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(e)
            }
        }
    }

    /// Split a dialed stream into a link, under this link's chaos
    /// schedule when `--net-chaos` is on.
    fn link(&mut self, stream: TcpStream) -> Result<WorkerLink, SuperviseError> {
        let schedule = self.chaos.as_ref().map(|p| p.schedule(self.next_link));
        self.next_link += 1;
        supervise::tcp_link(stream, schedule)
    }

    /// One-line end-of-run summary of the remote pool on stderr
    /// (nothing without `--workers`).
    pub fn report(&self) {
        if self.endpoints.is_empty() {
            return;
        }
        let per: Vec<String> = self
            .endpoints
            .iter()
            .map(|e| {
                format!(
                    "{} ({} connect(s){})",
                    e.addr,
                    e.connects,
                    if e.dead() { ", written off" } else { "" }
                )
            })
            .collect();
        eprintln!(
            "[net] pool: {}{}",
            per.join(", "),
            if self.local_fallbacks > 0 {
                format!("; {} local fallback spawn(s)", self.local_fallbacks)
            } else {
                String::new()
            }
        );
    }
}

/// Resolve and dial `host:port` with a per-candidate timeout.
fn dial(addr: &str) -> std::io::Result<TcpStream> {
    let mut last = None;
    let candidates: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
    for sa in &candidates {
        match TcpStream::connect_timeout(sa, DIAL_TIMEOUT) {
            Ok(s) => return Ok(s),
            Err(e) => last = Some(e),
        }
    }
    Err(last.unwrap_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::NotFound,
            format!("{addr} resolved to no addresses"),
        )
    }))
}

/// Spawn `repro worker --listen 127.0.0.1:0 --port-file PORT_FILE`
/// and wait for it to publish its address; returns the child and the
/// address. With `once`, the worker serves one connection for this
/// process and exits. With `mem_mb > 0` on unix, it runs under
/// `ulimit -v` via `sh`, so an over-budget worker dies with an
/// allocation failure the supervisor converts into a batch split — no
/// unsafe code needed. A child that exits before publishing, or does
/// not publish within [`PUBLISH_TIMEOUT`], is an error (and is killed).
pub(crate) fn spawn_worker(
    port_file: &Path,
    once: bool,
    mem_mb: usize,
) -> std::io::Result<(Child, String)> {
    let exe = std::env::current_exe()?;
    let _ = std::fs::remove_file(port_file);
    let mut cmd = if mem_mb > 0 && cfg!(unix) {
        let kib = mem_mb.saturating_mul(1024);
        let mut c = Command::new("sh");
        c.arg("-c")
            .arg(format!("ulimit -v {kib} 2>/dev/null; exec \"$0\" \"$@\""))
            .arg(&exe);
        c
    } else {
        Command::new(&exe)
    };
    cmd.args(["worker", "--listen", "127.0.0.1:0", "--port-file"])
        .arg(port_file);
    if once {
        cmd.args(["--once-for", &std::process::id().to_string()]);
    }
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()?;
    let deadline = Instant::now() + PUBLISH_TIMEOUT;
    loop {
        if let Ok(addr) = std::fs::read_to_string(port_file) {
            let addr = addr.trim();
            if !addr.is_empty() {
                return Ok((child, addr.to_string()));
            }
        }
        let exited = child.try_wait()?;
        if exited.is_some() || Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            return Err(std::io::Error::other(match exited {
                Some(status) => format!("worker exited ({status}) before publishing its address"),
                None => format!("worker did not publish its address within {PUBLISH_TIMEOUT:?}"),
            }));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

// ---------------------------------------------------------------------
// Worker side: `repro worker --listen ADDR`
// ---------------------------------------------------------------------

/// `repro worker --listen ADDR [--port-file PATH] [--once-for PID]`:
/// bind, optionally publish the bound address (for callers binding
/// port 0), and serve coordinator connections one at a time — forever,
/// surviving each coordinator's death or disconnect, or, with
/// `--once-for PID`, for exactly one connection from the coordinator
/// PID that spawned this worker.
pub fn worker_cmd(args: &[String]) -> Result<(), ExperimentError> {
    const USAGE: &str = "usage: repro worker --listen ADDR [--port-file PATH] [--once-for PID]";
    let mut listen: Option<String> = None;
    let mut port_file: Option<String> = None;
    let mut once_for: Option<u32> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| harness_err(&format!("{a} needs an argument ({USAGE})")))
        };
        match a.as_str() {
            "--listen" => listen = Some(value()?),
            "--port-file" => port_file = Some(value()?),
            "--once-for" => {
                let pid = value()?;
                once_for = Some(
                    pid.parse()
                        .map_err(|_| harness_err(&format!("--once-for: bad PID {pid:?}")))?,
                );
            }
            other => {
                return Err(harness_err(&format!(
                    "unknown worker flag {other:?} ({USAGE})"
                )));
            }
        }
    }
    let listen = listen.ok_or_else(|| harness_err("repro worker requires --listen ADDR"))?;
    let listener =
        TcpListener::bind(&listen).map_err(|e| harness_err(&format!("binding {listen}: {e}")))?;
    let bound = listener
        .local_addr()
        .map_err(|e| harness_err(&format!("local_addr: {e}")))?;
    let once = once_for.is_some();
    if !once {
        eprintln!("[worker] listening on {bound}");
    }
    if let Some(pf) = &port_file {
        crate::serve::publish_port_file(Path::new(pf), &bound.to_string())?;
    }
    // Graceful SIGTERM: latch the signal and poll it from a
    // nonblocking accept loop (glibc's SA_RESTART means the signal
    // never interrupts a blocking accept on its own). Mid-connection,
    // `serve_worker_until` consults the same latch at unit boundaries:
    // the in-flight unit finishes, a goodbye frame goes out, and the
    // coordinator requeues the rest without burning restart budget.
    crate::signals::install_term_handler();
    listener
        .set_nonblocking(true)
        .map_err(|e| harness_err(&format!("set_nonblocking: {e}")))?;
    while !crate::signals::term_requested() {
        if once_for.is_some_and(orphaned) {
            eprintln!("[worker] coordinator gone before connecting; exiting");
            break;
        }
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(50));
                continue;
            }
            Err(e) => {
                eprintln!("[worker] accept failed: {e}");
                continue;
            }
        };
        let peer = stream
            .peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "?".to_string());
        if !once {
            eprintln!("[worker] coordinator connected from {peer}");
        }
        let _ = stream.set_nodelay(true);
        // The accepted stream inherits the listener's nonblocking
        // flag; frame reads must block again.
        match stream.set_nonblocking(false) {
            Ok(()) => serve_connection(stream, &peer, once),
            Err(e) => eprintln!("[worker] set_nonblocking(false) on {peer} failed: {e}"),
        }
        if once {
            break;
        }
    }
    if crate::signals::term_requested() {
        eprintln!("[worker] SIGTERM: draining done, removing port file and exiting");
    }
    if let Some(pf) = &port_file {
        // Remove the advertisement so coordinators dial a dead address
        // (fast typed failure) instead of finding a stale file.
        let _ = std::fs::remove_file(pf);
    }
    Ok(())
}

/// Has the coordinator `pid` stopped being this process's parent? Its
/// death reparents us, so this is how a one-connection worker notices
/// a SIGKILLed coordinator before it ever connected.
#[cfg(unix)]
fn orphaned(pid: u32) -> bool {
    std::os::unix::process::parent_id() != pid
}

#[cfg(not(unix))]
fn orphaned(_pid: u32) -> bool {
    false
}

/// Serve one coordinator connection to completion; errors (the
/// coordinator died, chaos severed the socket, a torn frame) are logged
/// and swallowed so a long-lived worker's accept loop keeps it alive.
fn serve_connection(stream: TcpStream, peer: &str, once: bool) {
    let scratch: std::cell::RefCell<Option<std::path::PathBuf>> = std::cell::RefCell::new(None);
    let result = match stream.try_clone() {
        Ok(write_half) => supervise::serve_worker_until(
            stream,
            write_half,
            |cmd, config| {
                let (handler, n, dir) = crate::shards::worker_setup(cmd, config)?;
                *scratch.borrow_mut() = dir;
                Ok((handler, n))
            },
            crate::signals::term_flag(),
        ),
        Err(e) => Err(SuperviseError::Io {
            context: "cloning connection".to_string(),
            message: e.to_string(),
        }),
    };
    if let Some(dir) = scratch.borrow_mut().take() {
        let _ = std::fs::remove_dir_all(&dir);
    }
    match result {
        Ok(()) if once => {}
        Ok(()) => eprintln!("[worker] coordinator {peer} finished cleanly"),
        Err(e) if once => eprintln!("[worker] connection from {peer} ended: {e}"),
        Err(e) => eprintln!("[worker] connection from {peer} ended: {e} — back to listening"),
    }
}

fn harness_err(msg: &str) -> ExperimentError {
    ExperimentError::Harness(msg.to_string())
}

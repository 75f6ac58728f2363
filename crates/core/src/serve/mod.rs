//! The simulation service's crash-survivable job board.
//!
//! `repro serve` keeps its queue state here: a [`JobBoard`] backed by a
//! write-ahead [`recordlog`](crate::recordlog) on any [`Store`] backend
//! — the same checksummed format the sweep log uses. Every state
//! transition is an fsync'd append, replay rebuilds the exact queue,
//! and results materialize exactly once (dedup by job id, idempotent
//! re-puts of deterministic bytes).
//!
//! The log's header is `joblog 2`; the record payloads (strings
//! hex-armored, as in the sweep codec):
//!
//! ```text
//! sub <hex cmd> <hex config> <hex client>   job submitted
//! sta <id> <attempt>                        attempt started
//! don <id>                                  result materialized
//! fai <id> <hex error>                      attempt failed
//! par <id>                                  quarantined (poisoned)
//! ```
//!
//! A `sub` record carries no id: replay derives it from `(cmd,
//! config)` with [`JobSpec::id`], so a record can never bind one spec
//! to another spec's id. A crash mid-append leaves a torn tail that
//! [`JobBoard::open`] truncates — the record either fully happened or
//! never happened; a damaged record followed by valid ones is a typed
//! [`ServeError::Corrupt`] and the board does not open.
//!
//! Poisoned-job quarantine: a job whose attempt record appears
//! [`MAX_ATTEMPTS`] times with no completion took its executor (or the
//! whole daemon) down that many times. Replay parks it instead of
//! requeuing, writing a replayable artifact under `serve/parked/`, so
//! one poisoned spec can never crash-loop the service.

use crate::checkpoint::codec::{hex_str, unhex_str};
use crate::recordlog::{self, LogError, RecordLog, Scan};
use crate::storage::{StorageError, Store};
use std::collections::{HashMap, VecDeque};
use std::fmt;

/// Kind and version of the job log header (versioned like
/// [`crate::checkpoint::LOG_KIND`]).
pub const LOG_KIND: &str = "joblog 2";

/// Attempts a job gets before it is parked as poisoned: a job that has
/// killed its executor twice never gets a third shot at the daemon.
pub const MAX_ATTEMPTS: u32 = 2;

/// Errors from the serve-side job board.
#[derive(Debug)]
pub enum ServeError {
    /// The backing store failed.
    Storage(StorageError),
    /// The journal's contents are not a valid job log.
    Corrupt {
        /// What was wrong (byte-precise where possible).
        message: String,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Storage(e) => write!(f, "{e}"),
            ServeError::Corrupt { message } => write!(f, "corrupt job journal: {message}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Storage(e) => Some(e),
            ServeError::Corrupt { .. } => None,
        }
    }
}

impl From<StorageError> for ServeError {
    fn from(e: StorageError) -> Self {
        ServeError::Storage(e)
    }
}

impl From<LogError> for ServeError {
    fn from(e: LogError) -> Self {
        match e {
            LogError::Storage(e) => ServeError::Storage(e),
            e => ServeError::Corrupt {
                message: e.to_string(),
            },
        }
    }
}

/// What a client asked the service to run: a figure/scenario command
/// plus its options as canonical `key = value` config text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// The subcommand (`fig8`, `fig9`, `fig11`, `fig12`, `scenario`, …).
    pub cmd: String,
    /// Canonicalized config text (see [`JobSpec::new`]).
    pub config: String,
}

impl JobSpec {
    /// Build a spec with canonicalized config: lines trimmed, comments
    /// and blanks dropped, remainder sorted. Two submissions that
    /// differ only in option order or whitespace therefore share one
    /// job id — the dedup key of the idempotent result cache.
    pub fn new(cmd: &str, config: &str) -> JobSpec {
        let mut lines: Vec<&str> = config
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect();
        lines.sort_unstable();
        let mut canon = lines.join("\n");
        if !canon.is_empty() {
            canon.push('\n');
        }
        JobSpec {
            cmd: cmd.trim().to_string(),
            config: canon,
        }
    }

    /// The job's content-derived id: 16 hex digits of FNV-1a over
    /// `cmd \n config`. Identical specs always get identical ids, so
    /// repeat submissions hit the result cache instead of recomputing.
    pub fn id(&self) -> String {
        let h = recordlog::fnv1a([self.cmd.as_bytes(), b"\n", self.config.as_bytes()]);
        format!("{h:016x}")
    }
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Waiting in the queue (possibly after a failed attempt).
    Queued,
    /// An executor is (or was, at crash time) running it.
    Running,
    /// Result materialized; served from the cache forever after.
    Done,
    /// Quarantined as poisoned after [`MAX_ATTEMPTS`] failed attempts.
    Parked,
}

impl Phase {
    /// Lower-case label for status APIs and logs.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Queued => "queued",
            Phase::Running => "running",
            Phase::Done => "done",
            Phase::Parked => "parked",
        }
    }
}

/// One job's full board state.
#[derive(Debug, Clone)]
pub struct Job {
    /// What to run.
    pub spec: JobSpec,
    /// Who submitted it (per-client in-flight caps key off this).
    pub client: String,
    /// Attempts started so far (including any in-flight one).
    pub attempts: u32,
    /// Lifecycle phase.
    pub phase: Phase,
    /// The most recent attempt's error, if any.
    pub error: Option<String>,
}

/// The typed admission-control verdict for one submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Admission {
    /// Journaled and queued.
    Accepted {
        /// The job id.
        id: String,
    },
    /// Identical spec already completed — serve the cached result.
    Cached {
        /// The job id.
        id: String,
    },
    /// Identical spec already queued or running — no duplicate work.
    Pending {
        /// The job id.
        id: String,
    },
    /// Identical spec is quarantined as poisoned.
    Parked {
        /// The job id.
        id: String,
    },
    /// The bounded queue is full; retry after the hinted delay.
    Overloaded {
        /// Suggested client backoff in milliseconds.
        retry_after_ms: u64,
    },
    /// This client already has too many jobs in flight.
    ClientSaturated {
        /// The client's current queued+running count.
        in_flight: usize,
        /// The per-client cap.
        cap: usize,
    },
    /// The daemon is draining and admits nothing new.
    Draining,
}

/// What replaying the journal at open time found and did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplaySummary {
    /// Jobs restored to the queue (never started, or requeued after a
    /// journaled failure).
    pub resumed_queued: usize,
    /// Jobs that were running at crash time and went back to the front
    /// of the queue.
    pub requeued_running: usize,
    /// Jobs parked at replay because the crash was their
    /// [`MAX_ATTEMPTS`]th strike.
    pub parked_on_replay: usize,
    /// Jobs already done (results served from cache).
    pub done: usize,
    /// Torn trailing bytes truncated from the journal.
    pub torn_bytes: u64,
}

/// A job log's queue, as `repro doctor` reports it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JoblogReport {
    /// Jobs currently queued.
    pub queued: usize,
    /// Jobs that were running when the daemon stopped.
    pub running: usize,
    /// Jobs completed.
    pub done: usize,
    /// Jobs quarantined.
    pub parked: usize,
}

/// One parsed journal record.
enum Record {
    Sub { spec: JobSpec, client: String },
    Sta { id: String, attempt: u32 },
    Don { id: String },
    Fai { id: String, error: String },
    Par { id: String },
}

fn parse_record(payload: &str) -> Option<Record> {
    let mut t = payload.split(' ');
    let rec = match t.next()? {
        "sub" => Record::Sub {
            spec: JobSpec {
                cmd: unhex_str(t.next()?)?,
                config: unhex_str(t.next()?)?,
            },
            client: unhex_str(t.next()?)?,
        },
        "sta" => Record::Sta {
            id: t.next()?.to_string(),
            attempt: t.next()?.parse().ok()?,
        },
        "don" => Record::Don {
            id: t.next()?.to_string(),
        },
        "fai" => Record::Fai {
            id: t.next()?.to_string(),
            error: unhex_str(t.next()?)?,
        },
        "par" => Record::Par {
            id: t.next()?.to_string(),
        },
        _ => return None,
    };
    if t.next().is_some() {
        return None; // trailing tokens: not a record this codec wrote
    }
    Some(rec)
}

/// The board state a journal replay reconstructs: the jobs and the
/// queue (submit order, minus terminal jobs).
type ReplayedBoard = (HashMap<String, Job>, VecDeque<String>);

/// Replay a scanned job log into board state without touching storage.
fn replay(scan: &Scan) -> Result<ReplayedBoard, ServeError> {
    let mut jobs: HashMap<String, Job> = HashMap::new();
    let mut queue: VecDeque<String> = VecDeque::new();
    for (offset, payload) in &scan.records {
        // The checksum verified, so an unparseable payload is a writer
        // bug, not a torn write.
        let rec = parse_record(payload).ok_or_else(|| ServeError::Corrupt {
            message: format!("record at byte {offset} does not parse: {payload:?}"),
        })?;
        match rec {
            Record::Sub { spec, client } => {
                let id = spec.id();
                jobs.entry(id.clone()).or_insert_with(|| {
                    queue.push_back(id);
                    Job {
                        spec,
                        client,
                        attempts: 0,
                        phase: Phase::Queued,
                        error: None,
                    }
                });
            }
            Record::Sta { id, attempt } => {
                if let Some(j) = jobs.get_mut(&id) {
                    j.attempts = j.attempts.max(attempt);
                    j.phase = Phase::Running;
                    queue.retain(|q| q != &id);
                }
            }
            Record::Don { id } => {
                if let Some(j) = jobs.get_mut(&id) {
                    j.phase = Phase::Done;
                    queue.retain(|q| q != &id);
                }
            }
            Record::Fai { id, error } => {
                if let Some(j) = jobs.get_mut(&id) {
                    j.error = Some(error);
                    if j.attempts >= MAX_ATTEMPTS {
                        j.phase = Phase::Parked;
                        queue.retain(|q| q != &id);
                    } else if j.phase != Phase::Queued {
                        j.phase = Phase::Queued;
                        queue.push_front(id.clone());
                    }
                }
            }
            Record::Par { id } => {
                if let Some(j) = jobs.get_mut(&id) {
                    j.phase = Phase::Parked;
                    queue.retain(|q| q != &id);
                }
            }
        }
    }
    Ok((jobs, queue))
}

/// Count the queue a scanned job log encodes (`repro doctor`'s
/// summary; nothing is written).
pub fn summarize(scan: &Scan) -> Result<JoblogReport, ServeError> {
    let (jobs, _) = replay(scan)?;
    let mut report = JoblogReport::default();
    for j in jobs.values() {
        match j.phase {
            Phase::Done => report.done += 1,
            Phase::Parked => report.parked += 1,
            Phase::Running => report.running += 1,
            Phase::Queued => report.queued += 1,
        }
    }
    Ok(report)
}

/// The serve daemon's job queue: bounded admission in front, a
/// write-ahead journal underneath, exactly-once results behind.
pub struct JobBoard {
    store: Store,
    log: RecordLog,
    jobs: HashMap<String, Job>,
    queue: VecDeque<String>,
    queue_bound: usize,
    client_cap: usize,
    draining: bool,
    /// Submissions answered from the result cache (repeat specs).
    pub cache_hits: u64,
}

impl JobBoard {
    /// Where a job's result bytes live.
    pub fn result_key(id: &str) -> String {
        format!("serve/results/{id}.csv")
    }

    /// Where a parked job's replayable artifact lives.
    pub fn parked_key(id: &str) -> String {
        format!("serve/parked/{id}.job")
    }

    /// Open (or create) the board over the journal at `key`, replaying
    /// any prior state: queued jobs come back in submit order, jobs
    /// that were running when the daemon died are requeued at the
    /// front — unless the crash was their [`MAX_ATTEMPTS`]th strike,
    /// in which case they are parked with a replayable artifact. Torn
    /// tails are truncated (the crashed append never happened).
    pub fn open(
        store: &Store,
        key: &str,
        queue_bound: usize,
        client_cap: usize,
    ) -> Result<(JobBoard, ReplaySummary), ServeError> {
        let (log, scan) = RecordLog::open(store, key, LOG_KIND)?;
        let (mut jobs, mut queue) = replay(&scan)?;
        let mut summary = ReplaySummary {
            resumed_queued: jobs.values().filter(|j| j.phase == Phase::Queued).count(),
            done: jobs.values().filter(|j| j.phase == Phase::Done).count(),
            torn_bytes: scan.torn_bytes,
            ..ReplaySummary::default()
        };
        // Jobs mid-run at crash time: requeue at the front, or park on
        // the final strike. The park is journaled now so the *next*
        // replay sees it directly.
        let running: Vec<String> = jobs
            .iter()
            .filter(|(_, j)| j.phase == Phase::Running)
            .map(|(id, _)| id.clone())
            .collect();
        let mut board = JobBoard {
            store: store.clone(),
            log,
            jobs: HashMap::new(),
            queue: VecDeque::new(),
            queue_bound: queue_bound.max(1),
            client_cap: client_cap.max(1),
            draining: false,
            cache_hits: 0,
        };
        for id in running {
            let j = jobs.get_mut(&id).expect("collected from jobs");
            if j.attempts >= MAX_ATTEMPTS {
                j.phase = Phase::Parked;
                j.error
                    .get_or_insert_with(|| "daemon died during the final attempt".into());
                board.log.append(&format!("par {id}"))?;
                write_parked_artifact(store, &id, j)?;
                summary.parked_on_replay += 1;
            } else {
                j.phase = Phase::Queued;
                queue.push_front(id.clone());
                summary.requeued_running += 1;
            }
        }
        board.jobs = jobs;
        board.queue = queue;
        Ok((board, summary))
    }

    /// Admission control: the one front door for submissions.
    pub fn submit(&mut self, spec: JobSpec, client: &str) -> Result<Admission, ServeError> {
        let id = spec.id();
        if let Some(j) = self.jobs.get(&id) {
            return Ok(match j.phase {
                Phase::Done => {
                    self.cache_hits += 1;
                    Admission::Cached { id }
                }
                Phase::Queued | Phase::Running => Admission::Pending { id },
                Phase::Parked => Admission::Parked { id },
            });
        }
        if self.draining {
            return Ok(Admission::Draining);
        }
        if self.queue.len() >= self.queue_bound {
            // Hint scaled to the backlog: a deeper queue means a longer
            // wait before a retry can possibly be admitted.
            return Ok(Admission::Overloaded {
                retry_after_ms: 500 * self.queue.len() as u64,
            });
        }
        let in_flight = self
            .jobs
            .values()
            .filter(|j| j.client == client && matches!(j.phase, Phase::Queued | Phase::Running))
            .count();
        if in_flight >= self.client_cap {
            return Ok(Admission::ClientSaturated {
                in_flight,
                cap: self.client_cap,
            });
        }
        self.log.append(&format!(
            "sub {} {} {}",
            hex_str(&spec.cmd),
            hex_str(&spec.config),
            hex_str(client)
        ))?;
        self.jobs.insert(
            id.clone(),
            Job {
                spec,
                client: client.to_string(),
                attempts: 0,
                phase: Phase::Queued,
                error: None,
            },
        );
        self.queue.push_back(id.clone());
        Ok(Admission::Accepted { id })
    }

    /// Pop the next queued job and journal the attempt start. Returns
    /// `(id, spec, attempt)` — attempt is 1-based.
    pub fn start_next(&mut self) -> Result<Option<(String, JobSpec, u32)>, ServeError> {
        let Some(id) = self.queue.front().cloned() else {
            return Ok(None);
        };
        let attempt = self
            .jobs
            .get(&id)
            .expect("queued ids are registered")
            .attempts
            + 1;
        // Journal first, pop second: if the append fails (disk chaos)
        // the queue is untouched and the job is simply retried later,
        // never stranded in a popped-but-not-started limbo.
        self.log.append(&format!("sta {id} {attempt}"))?;
        self.queue.pop_front();
        let j = self.jobs.get_mut(&id).expect("queued ids are registered");
        j.attempts = attempt;
        j.phase = Phase::Running;
        Ok(Some((id.clone(), j.spec.clone(), attempt)))
    }

    /// Materialize a result exactly once: the bytes land atomically
    /// *before* the completion record, so a crash between the two
    /// re-runs the job and re-puts identical bytes — never a torn or
    /// missing result behind a `don` record.
    pub fn complete(&mut self, id: &str, result: &[u8]) -> Result<(), ServeError> {
        self.store.put_atomic(&Self::result_key(id), result)?;
        self.log.append(&format!("don {id}"))?;
        if let Some(j) = self.jobs.get_mut(id) {
            j.phase = Phase::Done;
            j.error = None;
        }
        Ok(())
    }

    /// Record a failed attempt: requeue at the front with backoff owed,
    /// or park as poisoned on the [`MAX_ATTEMPTS`]th strike. Returns
    /// the job's new phase.
    pub fn fail(&mut self, id: &str, error: &str) -> Result<Phase, ServeError> {
        self.log.append(&format!("fai {id} {}", hex_str(error)))?;
        let Some(j) = self.jobs.get_mut(id) else {
            return Err(ServeError::Corrupt {
                message: format!("fail for unknown job {id}"),
            });
        };
        j.error = Some(error.to_string());
        if j.attempts >= MAX_ATTEMPTS {
            j.phase = Phase::Parked;
            self.log.append(&format!("par {id}"))?;
            write_parked_artifact(&self.store, id, &self.jobs[id])?;
            Ok(Phase::Parked)
        } else {
            j.phase = Phase::Queued;
            self.queue.push_front(id.to_string());
            Ok(Phase::Queued)
        }
    }

    /// Stop admitting new jobs (graceful drain).
    pub fn begin_drain(&mut self) {
        self.draining = true;
    }

    /// Is the board draining?
    pub fn draining(&self) -> bool {
        self.draining
    }

    /// Look a job up by id.
    pub fn job(&self, id: &str) -> Option<&Job> {
        self.jobs.get(id)
    }

    /// Queue depth (jobs waiting, not running).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// `(queued, running, done, parked)` counts.
    pub fn counts(&self) -> (usize, usize, usize, usize) {
        let mut c = (0, 0, 0, 0);
        for j in self.jobs.values() {
            match j.phase {
                Phase::Queued => c.0 += 1,
                Phase::Running => c.1 += 1,
                Phase::Done => c.2 += 1,
                Phase::Parked => c.3 += 1,
            }
        }
        c
    }
}

fn write_parked_artifact(store: &Store, id: &str, j: &Job) -> Result<(), ServeError> {
    let artifact = format!(
        "# parked poisoned job {id} (failed {} attempt(s))\n\
         # cmd: {}\n\
         # client: {}\n\
         # last error: {}\n\
         # replay: repro {} --config <this file>\n\
         {}",
        j.attempts,
        j.spec.cmd,
        j.client,
        j.error
            .as_deref()
            .unwrap_or("?")
            .lines()
            .next()
            .unwrap_or("?"),
        j.spec.cmd,
        j.spec.config,
    );
    store.put_atomic(&JobBoard::parked_key(id), artifact.as_bytes())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(theta: &str) -> JobSpec {
        JobSpec::new("fig9", &format!("ases = 150\ntheta = {theta}\n"))
    }

    const KEY: &str = "serve/jobs.joblog";

    fn board(store: &Store) -> JobBoard {
        JobBoard::open(store, KEY, 4, 2).unwrap().0
    }

    #[test]
    fn spec_ids_are_canonical_and_content_derived() {
        let a = JobSpec::new("fig9", "ases = 150\nseed = 42\n");
        let b = JobSpec::new("fig9", "  seed = 42  \n# comment\n\nases = 150");
        assert_eq!(a.id(), b.id(), "order/whitespace/comments cannot fork ids");
        let c = JobSpec::new("fig9", "ases = 151\nseed = 42\n");
        assert_ne!(a.id(), c.id());
        let d = JobSpec::new("fig8", "ases = 150\nseed = 42\n");
        assert_ne!(a.id(), d.id(), "the command is part of the identity");
    }

    #[test]
    fn admission_accepts_dedupes_and_bounds_the_queue() {
        let store = Store::in_memory();
        let mut b = board(&store);
        let id = match b.submit(spec("0.1"), "alice").unwrap() {
            Admission::Accepted { id } => id,
            other => panic!("expected Accepted, got {other:?}"),
        };
        // Identical spec → Pending, not a second queue slot.
        assert_eq!(
            b.submit(spec("0.1"), "bob").unwrap(),
            Admission::Pending { id: id.clone() }
        );
        assert_eq!(b.queue_len(), 1);
        // Fill the queue (bound 4) from distinct clients, then overflow.
        for (i, who) in [("0.2", "bob"), ("0.3", "carol"), ("0.4", "dave")] {
            assert!(matches!(
                b.submit(spec(i), who).unwrap(),
                Admission::Accepted { .. }
            ));
        }
        match b.submit(spec("0.5"), "erin").unwrap() {
            Admission::Overloaded { retry_after_ms } => assert!(retry_after_ms > 0),
            other => panic!("expected Overloaded, got {other:?}"),
        }
        assert_eq!(b.queue_len(), 4);
    }

    #[test]
    fn per_client_in_flight_cap_holds() {
        let store = Store::in_memory();
        let mut b = JobBoard::open(&store, "serve/jobs.joblog", 16, 2)
            .unwrap()
            .0;
        assert!(matches!(
            b.submit(spec("0.1"), "a").unwrap(),
            Admission::Accepted { .. }
        ));
        assert!(matches!(
            b.submit(spec("0.2"), "a").unwrap(),
            Admission::Accepted { .. }
        ));
        match b.submit(spec("0.3"), "a").unwrap() {
            Admission::ClientSaturated { in_flight, cap } => {
                assert_eq!((in_flight, cap), (2, 2));
            }
            other => panic!("expected ClientSaturated, got {other:?}"),
        }
        // A different client is unaffected.
        assert!(matches!(
            b.submit(spec("0.3"), "b").unwrap(),
            Admission::Accepted { .. }
        ));
    }

    #[test]
    fn draining_rejects_new_but_answers_cached() {
        let store = Store::in_memory();
        let mut b = board(&store);
        let Admission::Accepted { id } = b.submit(spec("0.1"), "a").unwrap() else {
            panic!()
        };
        let (sid, _, _) = b.start_next().unwrap().unwrap();
        assert_eq!(sid, id);
        b.complete(&id, b"csv,bytes\n").unwrap();
        b.begin_drain();
        assert_eq!(b.submit(spec("0.9"), "a").unwrap(), Admission::Draining);
        assert_eq!(
            b.submit(spec("0.1"), "a").unwrap(),
            Admission::Cached { id }
        );
        assert_eq!(b.cache_hits, 1);
    }

    #[test]
    fn replay_resumes_queued_and_requeues_running_at_front() {
        let store = Store::in_memory();
        {
            let mut b = board(&store);
            b.submit(spec("0.1"), "a").unwrap();
            b.submit(spec("0.2"), "b").unwrap();
            b.submit(spec("0.3"), "c").unwrap();
            // First job starts, then the daemon "dies" (drop the board).
            let (id, _, attempt) = b.start_next().unwrap().unwrap();
            assert_eq!(attempt, 1);
            assert_eq!(id, spec("0.1").id());
        }
        let (mut b, summary) = JobBoard::open(&store, "serve/jobs.joblog", 4, 2).unwrap();
        assert_eq!(summary.requeued_running, 1);
        assert_eq!(summary.resumed_queued, 2);
        // The crashed job retries first, counting its second attempt.
        let (id, _, attempt) = b.start_next().unwrap().unwrap();
        assert_eq!(id, spec("0.1").id());
        assert_eq!(attempt, 2);
        // The rest follow in submit order.
        let (id2, _, _) = b.start_next().unwrap().unwrap();
        assert_eq!(id2, spec("0.2").id());
    }

    #[test]
    fn results_are_exactly_once_across_restart() {
        let store = Store::in_memory();
        let id;
        {
            let mut b = board(&store);
            let Admission::Accepted { id: got } = b.submit(spec("0.1"), "a").unwrap() else {
                panic!()
            };
            id = got;
            b.start_next().unwrap().unwrap();
            b.complete(&id, b"theta,frac\n0.1,0.5\n").unwrap();
        }
        let (mut b, summary) = JobBoard::open(&store, "serve/jobs.joblog", 4, 2).unwrap();
        assert_eq!(summary.done, 1);
        assert_eq!(summary.requeued_running + summary.resumed_queued, 0);
        assert_eq!(
            b.submit(spec("0.1"), "z").unwrap(),
            Admission::Cached { id: id.clone() }
        );
        assert_eq!(
            store.get(&JobBoard::result_key(&id)).unwrap().unwrap(),
            b"theta,frac\n0.1,0.5\n"
        );
        assert!(b.start_next().unwrap().is_none(), "nothing left to run");
    }

    #[test]
    fn two_failures_park_with_a_replayable_artifact() {
        let store = Store::in_memory();
        let mut b = board(&store);
        let Admission::Accepted { id } = b.submit(spec("0.1"), "a").unwrap() else {
            panic!()
        };
        b.start_next().unwrap().unwrap();
        assert_eq!(b.fail(&id, "unit panicked: boom").unwrap(), Phase::Queued);
        b.start_next().unwrap().unwrap();
        assert_eq!(b.fail(&id, "unit panicked: boom").unwrap(), Phase::Parked);
        let artifact = store.get(&JobBoard::parked_key(&id)).unwrap().unwrap();
        let text = String::from_utf8(artifact).unwrap();
        assert!(text.contains("# cmd: fig9"), "{text}");
        assert!(text.contains("boom"), "{text}");
        assert!(text.contains("ases = 150"), "replayable config: {text}");
        // Parked survives replay and answers submissions as Parked.
        let (mut b, _) = JobBoard::open(&store, "serve/jobs.joblog", 4, 2).unwrap();
        assert_eq!(
            b.submit(spec("0.1"), "a").unwrap(),
            Admission::Parked { id }
        );
        assert!(b.start_next().unwrap().is_none());
    }

    #[test]
    fn a_job_that_kills_the_daemon_twice_is_parked_at_replay() {
        let store = Store::in_memory();
        {
            let mut b = board(&store);
            b.submit(spec("0.1"), "a").unwrap();
            b.start_next().unwrap().unwrap(); // attempt 1, then SIGKILL
        }
        {
            let (mut b, s) = JobBoard::open(&store, "serve/jobs.joblog", 4, 2).unwrap();
            assert_eq!(s.requeued_running, 1);
            b.start_next().unwrap().unwrap(); // attempt 2, then SIGKILL
        }
        let (b, s) = JobBoard::open(&store, "serve/jobs.joblog", 4, 2).unwrap();
        assert_eq!(s.parked_on_replay, 1, "second strike parks at replay");
        let id = spec("0.1").id();
        assert_eq!(b.job(&id).unwrap().phase, Phase::Parked);
        assert!(store.get(&JobBoard::parked_key(&id)).unwrap().is_some());
    }

    #[test]
    fn torn_tail_is_reported_by_inspect_and_truncated_by_open() {
        let store = Store::in_memory();
        {
            let mut b = board(&store);
            b.submit(spec("0.1"), "a").unwrap();
        }
        store.append_durable(KEY, b"rec 20 0123").unwrap(); // a crashed append
        let scan = recordlog::scan(KEY, &store.get(KEY).unwrap().unwrap(), &[LOG_KIND]).unwrap();
        assert_eq!(scan.records.len(), 1, "the header is not counted");
        assert_eq!(scan.torn_bytes, 11);
        let (b, summary) = JobBoard::open(&store, KEY, 4, 2).unwrap();
        assert_eq!(summary.torn_bytes, 11);
        assert_eq!(b.queue_len(), 1, "the complete record survives");
        let scan = recordlog::scan(KEY, &store.get(KEY).unwrap().unwrap(), &[LOG_KIND]).unwrap();
        assert_eq!(scan.torn_bytes, 0, "open truncated the tail");
        assert_eq!(summarize(&scan).unwrap().queued, 1);
    }

    #[test]
    fn salvage_truncates_without_losing_records() {
        let store = Store::in_memory();
        {
            let mut b = board(&store);
            b.submit(spec("0.1"), "a").unwrap();
            b.submit(spec("0.2"), "b").unwrap();
        }
        store.append_durable(KEY, b"rec 7 00").unwrap(); // a crashed append
        let r = recordlog::repair(&store, KEY, &[LOG_KIND]).unwrap();
        assert_eq!(r.scan.records.len(), 2);
        assert_eq!(
            (r.scan.torn_bytes, r.cut_bytes, r.dropped_records),
            (0, 8, 0)
        );
        let (b, summary) = JobBoard::open(&store, KEY, 4, 2).unwrap();
        assert_eq!(summary.torn_bytes, 0);
        assert_eq!(b.queue_len(), 2);
    }

    #[test]
    fn foreign_header_is_a_typed_corruption() {
        // A well-formed log of another kind: a sweep log is not a job
        // board, and must not be truncated into one.
        let store = Store::in_memory();
        crate::checkpoint::SweepLog::open(&store, KEY, 7).unwrap();
        let sweep = store.get(KEY).unwrap().unwrap();
        let err = match JobBoard::open(&store, KEY, 4, 2) {
            Err(e) => e,
            Ok(_) => panic!("foreign header must not open"),
        };
        assert!(matches!(err, ServeError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains("line 1"), "{err}");
        assert_eq!(store.get(KEY).unwrap().unwrap(), sweep);
    }

    #[test]
    fn a_flipped_digit_in_a_submission_is_corruption_not_another_job() {
        let store = Store::in_memory();
        {
            let mut b = board(&store);
            let id = match b.submit(spec("0.1"), "a").unwrap() {
                Admission::Accepted { id } => id,
                other => panic!("expected Accepted, got {other:?}"),
            };
            assert_eq!(id, "29c28158a95da19f", "job ids are pinned");
            assert_eq!(spec("0.2").id(), "29c5f758a9609ff8");
            b.submit(spec("0.3"), "b").unwrap();
            b.start_next().unwrap().unwrap();
        }
        let text = String::from_utf8(store.get(KEY).unwrap().unwrap()).unwrap();
        assert_eq!(text.matches("302e31").count(), 1, "{text}");
        let flipped = text.replacen("302e31", "302e32", 1);
        store.put_atomic(KEY, flipped.as_bytes()).unwrap();
        match JobBoard::open(&store, KEY, 4, 2) {
            Err(ServeError::Corrupt { .. }) => {}
            Err(e) => panic!("expected typed corruption, got {e}"),
            Ok((b, _)) => panic!(
                "flipped journal opened: job 29c28158a95da19f now holds {:?}",
                b.job("29c28158a95da19f").map(|j| j.spec.config.clone())
            ),
        }
        assert_eq!(store.get(KEY).unwrap().unwrap(), flipped.as_bytes());
    }

    #[test]
    fn a_damaged_record_before_valid_ones_is_corruption_not_a_torn_tail() {
        let store = Store::in_memory();
        {
            let mut b = JobBoard::open(&store, KEY, 4, 4).unwrap().0;
            for theta in ["0.1", "0.2", "0.3"] {
                assert!(matches!(
                    b.submit(spec(theta), "a").unwrap(),
                    Admission::Accepted { .. }
                ));
            }
        }
        let text = String::from_utf8(store.get(KEY).unwrap().unwrap()).unwrap();
        let damaged = text.replacen("sub ", "sxb ", 1);
        store.put_atomic(KEY, damaged.as_bytes()).unwrap();
        match JobBoard::open(&store, KEY, 4, 4) {
            Err(e @ ServeError::Corrupt { .. }) => {
                assert!(e.to_string().contains("byte"), "no offset named: {e}")
            }
            Err(e) => panic!("expected typed corruption, got {e}"),
            Ok((b, s)) => panic!(
                "damaged journal opened with {} queued job(s) after dropping {} byte(s)",
                b.queue_len(),
                s.torn_bytes
            ),
        }
        assert_eq!(
            store.get(KEY).unwrap().unwrap(),
            damaged.as_bytes(),
            "a damaged journal must not be truncated by open"
        );
    }

    #[test]
    fn older_job_logs_are_refused_untouched() {
        let store = Store::in_memory();
        let v1 = "sbgp-joblog 1\nsub 29c28158a95da19f 66696739 2d 61\n";
        store.put_atomic(KEY, v1.as_bytes()).unwrap();
        let err = match JobBoard::open(&store, KEY, 4, 2) {
            Err(e) => e,
            Ok(_) => panic!("an sbgp-joblog 1 file must not open"),
        };
        assert!(matches!(err, ServeError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains("line 1"), "{err}");
        assert!(err.to_string().contains("delete it and rerun"), "{err}");
        assert_eq!(store.get(KEY).unwrap().unwrap(), v1.as_bytes());
    }
}

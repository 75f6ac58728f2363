//! Transport abstraction under the frame protocol.
//!
//! A [`FrameSend`]/[`FrameRecv`] pair moves whole frames between the
//! supervisor and one worker. Every worker is reached the same way: a
//! [`std::net::TcpStream`] to a `repro worker`, split into two halves
//! by [`tcp_link`] — whether the worker is a long-lived remote process
//! (`--workers`) or a one-connection child the coordinator spawned on
//! localhost (`--process-shards`). The bytes on the link are the
//! 4-byte big-endian length prefix and UTF-8 payload of
//! [`super::protocol`].
//!
//! With a [`ChaosProfile`], both directions are wrapped in
//! [`ChaosSender`]/[`ChaosReceiver`], which inject drops, delays,
//! duplicated frames, torn mid-frame disconnects, and one-way
//! partitions from a seeded, deterministic schedule. Every injected
//! fault increments a shared [`FaultLedger`]; the supervisor snapshots
//! it per connection so link deaths caused by injected chaos are
//! exempt from the restart budget, exactly like the seeded
//! `--kill-workers` SIGKILLs.

use super::protocol::{write_frame, MAX_FRAME_BYTES};
use super::{protocol, SuperviseError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::process::Child;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The sending half of a frame link.
pub trait FrameSend: Send {
    /// Send one whole frame (or fail with a typed transport error).
    fn send_frame(&mut self, payload: &str) -> Result<(), SuperviseError>;
}

/// The receiving half of a frame link.
pub trait FrameRecv: Send {
    /// Receive the next frame; `Ok(None)` is a clean close between
    /// frames, [`SuperviseError::TornFrame`] a close mid-frame.
    fn recv_frame(&mut self) -> Result<Option<String>, SuperviseError>;
}

/// [`FrameSend`] over any raw byte sink (a socket half, a `Vec<u8>`).
pub struct IoSender<W: Write + Send>(pub W);

impl<W: Write + Send> FrameSend for IoSender<W> {
    fn send_frame(&mut self, payload: &str) -> Result<(), SuperviseError> {
        write_frame(&mut self.0, payload)
    }
}

/// [`FrameRecv`] over any raw byte source.
pub struct IoReceiver<R: Read + Send>(pub R);

impl<R: Read + Send> FrameRecv for IoReceiver<R> {
    fn recv_frame(&mut self) -> Result<Option<String>, SuperviseError> {
        protocol::read_frame(&mut self.0)
    }
}

/// What the supervisor holds to end a worker link: a clone of the
/// link's socket (so `shutdown` also unblocks a reader thread parked
/// in a blocking `read`) and, for a worker this coordinator spawned,
/// the child process.
pub struct WorkerHandle {
    stream: TcpStream,
    child: Option<Child>,
}

impl WorkerHandle {
    /// Terminate the link as hard as the handle allows: shut the
    /// socket, then kill and reap a spawned child. A remote worker
    /// survives and returns to listening.
    pub fn sever(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(child) = &mut self.child {
            let _ = child.kill();
            let _ = child.wait();
        }
    }

    /// Let go of a worker that was sent `Shutdown`: half-close the
    /// socket (EOF even if the frame was lost), give a spawned child
    /// until `patience` to exit on its own, then [`Self::sever`].
    pub fn retire(mut self, patience: Instant) {
        let _ = self.stream.shutdown(Shutdown::Write);
        if let Some(child) = &mut self.child {
            while matches!(child.try_wait(), Ok(None)) && Instant::now() < patience {
                std::thread::sleep(Duration::from_millis(20));
            }
        }
        self.sever();
    }

    /// A short human description for log lines.
    pub fn describe(&self) -> String {
        match &self.child {
            Some(child) => format!("process {}", child.id()),
            None => self
                .stream
                .peer_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| "remote".into()),
        }
    }
}

/// One connected worker, however it is reached: the two frame halves,
/// the termination handle, and (when the link is chaos-wrapped) the
/// injected-fault ledger the supervisor checks before charging a link
/// death to the restart budget.
pub struct WorkerLink {
    /// Supervisor → worker frames.
    pub tx: Box<dyn FrameSend>,
    /// Worker → supervisor frames (moved into the reader thread).
    pub rx: Box<dyn FrameRecv>,
    /// How to kill/sever this worker.
    pub handle: WorkerHandle,
    /// Injected-fault counter, shared with the chaos wrappers on this
    /// link; `None` for clean transports.
    pub ledger: Option<FaultLedger>,
}

impl WorkerLink {
    /// Attach the child process serving this link, so severing the
    /// link also kills it.
    pub fn with_child(mut self, child: Child) -> WorkerLink {
        self.handle.child = Some(child);
        self
    }
}

/// Split a connected [`TcpStream`] into a [`WorkerLink`], optionally
/// wrapping both directions in chaos injection with `schedule`.
pub fn tcp_link(
    stream: TcpStream,
    chaos: Option<ChaosSchedule>,
) -> Result<WorkerLink, SuperviseError> {
    let io_err = |context: &str, e: std::io::Error| SuperviseError::Io {
        context: context.to_string(),
        message: e.to_string(),
    };
    stream.set_nodelay(true).ok();
    let write_half = stream
        .try_clone()
        .map_err(|e| io_err("cloning tcp stream (write half)", e))?;
    let handle_half = stream
        .try_clone()
        .map_err(|e| io_err("cloning tcp stream (handle)", e))?;
    let (tx, rx, ledger): (Box<dyn FrameSend>, Box<dyn FrameRecv>, _) = match chaos {
        Some(schedule) => {
            let ledger = schedule.ledger.clone();
            let severer = stream
                .try_clone()
                .map_err(|e| io_err("cloning tcp stream (severer)", e))?;
            let recv_schedule = schedule.fork();
            (
                Box::new(ChaosSender {
                    inner: write_half,
                    schedule,
                    severer: Some(severer),
                    dead: false,
                }),
                Box::new(ChaosReceiver {
                    inner: stream,
                    schedule: recv_schedule,
                    replay: None,
                }),
                Some(ledger),
            )
        }
        None => (
            Box::new(IoSender(write_half)),
            Box::new(IoReceiver(stream)),
            None,
        ),
    };
    Ok(WorkerLink {
        tx,
        rx,
        handle: WorkerHandle {
            stream: handle_half,
            child: None,
        },
        ledger,
    })
}

// ---------------------------------------------------------------------
// Chaos injection
// ---------------------------------------------------------------------

/// Shared count of injected transport faults on one link. The
/// supervisor snapshots it when the link comes up; a link death with a
/// grown ledger is charged to chaos, not the restart budget.
#[derive(Debug, Clone, Default)]
pub struct FaultLedger(Arc<AtomicU64>);

impl FaultLedger {
    /// Total faults injected so far.
    pub fn count(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn bump(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

/// Per-direction fault rates of a chaos schedule. All probabilities
/// are per frame event; `delay_ms` applies when a delay fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosProfile {
    /// Probability a frame is silently discarded.
    pub drop: f64,
    /// Probability a frame is delivered twice.
    pub dup: f64,
    /// Probability a frame is delayed by [`Self::delay_ms`].
    pub delay: f64,
    /// Delay length when a delay fires.
    pub delay_ms: u64,
    /// Probability the link is torn mid-frame (a partial frame is
    /// written, then the socket is severed).
    pub torn: f64,
    /// Probability a one-way partition starts: the next
    /// [`Self::partition_frames`] frames in that direction vanish
    /// (heartbeats included, so the peer's watchdog fires).
    pub partition: f64,
    /// Length of an injected one-way partition, in frames.
    pub partition_frames: u32,
    /// Seed of the deterministic schedule.
    pub seed: u64,
}

impl Default for ChaosProfile {
    fn default() -> Self {
        ChaosProfile {
            drop: 0.0,
            dup: 0.0,
            delay: 0.0,
            delay_ms: 10,
            torn: 0.0,
            partition: 0.0,
            partition_frames: 8,
            seed: 0,
        }
    }
}

impl ChaosProfile {
    /// Parse a compact spec like
    /// `drop=0.05,dup=0.05,delay=0.1,delay-ms=10,torn=0.02,partition=0.01,seed=7`.
    /// Unknown keys, out-of-range rates, and malformed numbers are
    /// errors naming the offending field.
    pub fn parse(spec: &str) -> Result<ChaosProfile, String> {
        let mut p = ChaosProfile::default();
        for field in spec.split(',').filter(|f| !f.trim().is_empty()) {
            let (key, value) = field
                .split_once('=')
                .ok_or_else(|| format!("chaos spec field {field:?}: expected key=value"))?;
            let key = key.trim();
            let value = value.trim();
            let rate = |what: &str| -> Result<f64, String> {
                let r: f64 = value
                    .parse()
                    .map_err(|_| format!("chaos spec {what}: bad rate {value:?}"))?;
                if !(0.0..=1.0).contains(&r) {
                    return Err(format!("chaos spec {what}: rate {r} outside [0, 1]"));
                }
                Ok(r)
            };
            match key {
                "drop" => p.drop = rate("drop")?,
                "dup" => p.dup = rate("dup")?,
                "delay" => p.delay = rate("delay")?,
                "torn" => p.torn = rate("torn")?,
                "partition" => p.partition = rate("partition")?,
                "delay-ms" => {
                    p.delay_ms = value
                        .parse()
                        .map_err(|_| format!("chaos spec delay-ms: bad value {value:?}"))?
                }
                "partition-frames" => {
                    let n: u32 = value
                        .parse()
                        .map_err(|_| format!("chaos spec partition-frames: bad value {value:?}"))?;
                    if n == 0 {
                        return Err("chaos spec partition-frames: must be at least 1".into());
                    }
                    p.partition_frames = n;
                }
                "seed" => {
                    p.seed = value
                        .parse()
                        .map_err(|_| format!("chaos spec seed: bad value {value:?}"))?
                }
                other => return Err(format!("chaos spec: unknown key {other:?}")),
            }
        }
        Ok(p)
    }

    /// Render the profile back to the compact spec [`Self::parse`]
    /// accepts — `parse(p.spec()) == p` — so a profile can be handed
    /// to a child coordinator on its command line.
    pub fn spec(&self) -> String {
        format!(
            "drop={},dup={},delay={},delay-ms={},torn={},partition={},partition-frames={},seed={}",
            self.drop,
            self.dup,
            self.delay,
            self.delay_ms,
            self.torn,
            self.partition,
            self.partition_frames,
            self.seed
        )
    }

    /// Whether this profile injects anything at all.
    pub fn is_active(&self) -> bool {
        self.drop > 0.0
            || self.dup > 0.0
            || self.delay > 0.0
            || self.torn > 0.0
            || self.partition > 0.0
    }

    /// A schedule for one link, keyed so every (connection, direction)
    /// draws an independent deterministic stream.
    pub fn schedule(&self, link_id: u64) -> ChaosSchedule {
        ChaosSchedule {
            profile: *self,
            rng: StdRng::seed_from_u64(self.seed ^ link_id.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            partition_left: 0,
            ledger: FaultLedger::default(),
        }
    }
}

/// The per-link, per-direction fault stream: a seeded RNG drawing one
/// decision per frame event, plus partition state.
pub struct ChaosSchedule {
    profile: ChaosProfile,
    rng: StdRng,
    /// Frames still to swallow in the current one-way partition.
    partition_left: u32,
    ledger: FaultLedger,
}

/// What the schedule decided for one frame.
enum Fault {
    None,
    Drop,
    Dup,
    Delay(Duration),
    Torn,
}

impl ChaosSchedule {
    /// Derive an independent schedule for the opposite direction of
    /// the same link (same ledger, decorrelated RNG).
    fn fork(&self) -> ChaosSchedule {
        ChaosSchedule {
            profile: self.profile,
            rng: StdRng::seed_from_u64(self.profile.seed ^ 0x5bf0_3635_dcaa_01c9),
            partition_left: 0,
            ledger: self.ledger.clone(),
        }
    }

    /// The shared injected-fault ledger.
    pub fn ledger(&self) -> FaultLedger {
        self.ledger.clone()
    }

    fn next_fault(&mut self) -> Fault {
        let p = self.profile;
        if self.partition_left > 0 {
            self.partition_left -= 1;
            self.ledger.bump();
            return Fault::Drop;
        }
        // One draw per category, in a fixed order, so the schedule is
        // a pure function of (seed, frame index).
        let start_partition = p.partition > 0.0 && self.rng.gen_bool(p.partition);
        let drop = p.drop > 0.0 && self.rng.gen_bool(p.drop);
        let dup = p.dup > 0.0 && self.rng.gen_bool(p.dup);
        let delay = p.delay > 0.0 && self.rng.gen_bool(p.delay);
        let torn = p.torn > 0.0 && self.rng.gen_bool(p.torn);
        if start_partition {
            self.partition_left = p.partition_frames.saturating_sub(1);
            self.ledger.bump();
            return Fault::Drop;
        }
        if torn {
            self.ledger.bump();
            return Fault::Torn;
        }
        if drop {
            self.ledger.bump();
            return Fault::Drop;
        }
        if dup {
            self.ledger.bump();
            return Fault::Dup;
        }
        if delay {
            self.ledger.bump();
            return Fault::Delay(Duration::from_millis(p.delay_ms));
        }
        Fault::None
    }
}

/// Chaos-injecting [`FrameSend`]: encodes frames itself (the same
/// bytes [`write_frame`] produces) so it can tear one mid-write.
pub struct ChaosSender<W: Write + Send> {
    inner: W,
    schedule: ChaosSchedule,
    /// Socket clone used to hard-close the link after a torn write,
    /// so the peer sees EOF mid-frame rather than a stall.
    severer: Option<TcpStream>,
    dead: bool,
}

impl<W: Write + Send> FrameSend for ChaosSender<W> {
    fn send_frame(&mut self, payload: &str) -> Result<(), SuperviseError> {
        if self.dead {
            return Err(SuperviseError::PeerClosed {
                context: "chaos link severed".into(),
            });
        }
        match self.schedule.next_fault() {
            Fault::None => write_frame(&mut self.inner, payload),
            Fault::Drop => Ok(()), // vanished on the wire
            Fault::Dup => {
                write_frame(&mut self.inner, payload)?;
                write_frame(&mut self.inner, payload)
            }
            Fault::Delay(d) => {
                std::thread::sleep(d);
                write_frame(&mut self.inner, payload)
            }
            Fault::Torn => {
                // Write the header and a strict prefix of the payload,
                // then sever: the peer reads a torn frame, never a
                // valid-but-wrong one.
                let bytes = payload.as_bytes();
                let len = u32::try_from(bytes.len())
                    .ok()
                    .filter(|&l| l <= MAX_FRAME_BYTES)
                    .ok_or(SuperviseError::Oversize {
                        len: bytes.len() as u64,
                        limit: MAX_FRAME_BYTES,
                    })?;
                let keep = bytes.len() / 2;
                let _ = self.inner.write_all(&len.to_be_bytes());
                let _ = self.inner.write_all(&bytes[..keep]);
                let _ = self.inner.flush();
                if let Some(s) = &self.severer {
                    let _ = s.shutdown(Shutdown::Both);
                }
                self.dead = true;
                Err(SuperviseError::TornFrame {
                    context: format!("chaos: frame torn after {keep} of {len} payload bytes"),
                })
            }
        }
    }
}

/// Chaos-injecting [`FrameRecv`]: drops, duplicates, delays, and
/// partitions inbound frames. Torn inbound frames come "for free" —
/// the peer's [`ChaosSender`] tears the bytes on the wire.
pub struct ChaosReceiver<R: Read + Send> {
    inner: R,
    schedule: ChaosSchedule,
    /// A duplicated frame pending redelivery.
    replay: Option<String>,
}

impl<R: Read + Send> FrameRecv for ChaosReceiver<R> {
    fn recv_frame(&mut self) -> Result<Option<String>, SuperviseError> {
        if let Some(frame) = self.replay.take() {
            return Ok(Some(frame));
        }
        loop {
            let Some(frame) = protocol::read_frame(&mut self.inner)? else {
                return Ok(None);
            };
            match self.schedule.next_fault() {
                Fault::None | Fault::Torn => return Ok(Some(frame)),
                Fault::Drop => continue, // swallowed
                Fault::Dup => {
                    self.replay = Some(frame.clone());
                    return Ok(Some(frame));
                }
                Fault::Delay(d) => {
                    std::thread::sleep(d);
                    return Ok(Some(frame));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_profile_parses_and_rejects() {
        let p =
            ChaosProfile::parse("drop=0.1,dup=0.05,delay=0.2,delay-ms=3,torn=0.01,seed=9").unwrap();
        assert_eq!(p.drop, 0.1);
        assert_eq!(p.dup, 0.05);
        assert_eq!(p.delay_ms, 3);
        assert_eq!(p.seed, 9);
        assert!(p.is_active());
        assert!(!ChaosProfile::parse("").unwrap().is_active());
        assert!(ChaosProfile::parse("drop=1.5").is_err());
        assert!(ChaosProfile::parse("bogus=0.1").is_err());
        assert!(ChaosProfile::parse("drop").is_err());
        assert!(ChaosProfile::parse("partition-frames=0").is_err());
    }

    #[test]
    fn chaos_schedule_is_deterministic() {
        let p = ChaosProfile::parse("drop=0.3,dup=0.2,seed=42").unwrap();
        let mut a = p.schedule(7);
        let mut b = p.schedule(7);
        for _ in 0..64 {
            let fa = matches!(a.next_fault(), Fault::None);
            let fb = matches!(b.next_fault(), Fault::None);
            assert_eq!(fa, fb);
        }
        assert_eq!(a.ledger().count(), b.ledger().count());
        // Different link ids draw different streams.
        let mut c = p.schedule(8);
        let mut diverged = false;
        let mut a2 = p.schedule(7);
        for _ in 0..64 {
            if matches!(a2.next_fault(), Fault::None) != matches!(c.next_fault(), Fault::None) {
                diverged = true;
            }
        }
        assert!(diverged, "link ids did not decorrelate the schedules");
    }

    #[test]
    fn chaos_sender_drops_and_duplicates_frames() {
        // drop=1 ⇒ nothing on the wire; dup=1 ⇒ everything twice.
        let p = ChaosProfile::parse("drop=1.0,seed=1").unwrap();
        let mut out = Vec::new();
        {
            let mut tx = ChaosSender {
                inner: &mut out,
                schedule: p.schedule(0),
                severer: None,
                dead: false,
            };
            tx.send_frame("hello").unwrap();
        }
        assert!(out.is_empty(), "dropped frame reached the wire");

        let p = ChaosProfile::parse("dup=1.0,seed=1").unwrap();
        let mut out = Vec::new();
        {
            let mut tx = ChaosSender {
                inner: &mut out,
                schedule: p.schedule(0),
                severer: None,
                dead: false,
            };
            tx.send_frame("hello").unwrap();
        }
        let mut r = &out[..];
        assert_eq!(
            protocol::read_frame(&mut r).unwrap().as_deref(),
            Some("hello")
        );
        assert_eq!(
            protocol::read_frame(&mut r).unwrap().as_deref(),
            Some("hello")
        );
        assert_eq!(protocol::read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn chaos_torn_write_is_a_torn_frame_for_the_reader() {
        let p = ChaosProfile::parse("torn=1.0,seed=1").unwrap();
        let mut out = Vec::new();
        let err = {
            let mut tx = ChaosSender {
                inner: &mut out,
                schedule: p.schedule(0),
                severer: None,
                dead: false,
            };
            tx.send_frame("a frame that will be torn").unwrap_err()
        };
        assert!(matches!(err, SuperviseError::TornFrame { .. }), "{err}");
        let mut r = &out[..];
        let read = protocol::read_frame(&mut r).unwrap_err();
        assert!(matches!(read, SuperviseError::TornFrame { .. }), "{read}");
    }

    #[test]
    fn chaos_receiver_swallows_dropped_frames() {
        let mut wire = Vec::new();
        write_frame(&mut wire, "one").unwrap();
        write_frame(&mut wire, "two").unwrap();
        let p = ChaosProfile::parse("drop=1.0,seed=3").unwrap();
        let mut rx = ChaosReceiver {
            inner: &wire[..],
            schedule: p.schedule(0),
            replay: None,
        };
        // Everything is dropped; the stream ends cleanly.
        assert_eq!(rx.recv_frame().unwrap(), None);
    }
}

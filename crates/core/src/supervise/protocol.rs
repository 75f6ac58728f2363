//! The wire protocol: length-prefixed frames and the supervisor ↔
//! worker message vocabulary.
//!
//! The frame encoding is the contract every [`transport`](super::transport)
//! must preserve **byte for byte**: a 4-byte big-endian payload length
//! followed by the UTF-8 payload. It is deliberately transport-blind —
//! the same bytes travel over a clean TCP socket or through a chaos
//! wrapper injecting faults on one, and over any in-memory buffer.
//!
//! Frame faults are *typed* ([`SuperviseError::TornFrame`],
//! [`SuperviseError::Oversize`], [`SuperviseError::PeerClosed`]) so the
//! supervisor's restart accounting can tell a transport failure (link
//! died, frame torn mid-write) from a worker failure (a unit panicked)
//! — the former is a reason to reconnect, the latter a reason to burn
//! restart budget on a poisonous unit.
//!
//! The message payloads reuse the bit-exact checkpoint codec
//! ([`crate::checkpoint::codec`]) — no serialization crate involved,
//! and `f64`s cross the link as IEEE-754 bit patterns.

use super::SuperviseError;
use crate::checkpoint::codec::{self, DecodeError, Parser};
use crate::engine::EngineStats;
use crate::sim::SimResult;
use std::io::{self, Read, Write};

/// Upper bound on a single frame payload; anything larger is treated
/// as stream corruption rather than an allocation request.
pub const MAX_FRAME_BYTES: u32 = 256 * 1024 * 1024;

/// Classify a write-side I/O failure: a closed peer is a typed
/// [`SuperviseError::PeerClosed`], anything else stays an I/O error.
fn write_err(context: &str, e: io::Error) -> SuperviseError {
    match e.kind() {
        io::ErrorKind::BrokenPipe
        | io::ErrorKind::ConnectionReset
        | io::ErrorKind::ConnectionAborted
        | io::ErrorKind::NotConnected => SuperviseError::PeerClosed {
            context: context.to_string(),
        },
        _ => SuperviseError::Io {
            context: context.to_string(),
            message: e.to_string(),
        },
    }
}

/// Write one frame: a 4-byte big-endian payload length, then the
/// UTF-8 payload, then flush (frames must not sit in a BufWriter while
/// the peer waits).
pub fn write_frame<W: Write>(w: &mut W, payload: &str) -> Result<(), SuperviseError> {
    let bytes = payload.as_bytes();
    let len = u32::try_from(bytes.len())
        .ok()
        .filter(|&l| l <= MAX_FRAME_BYTES)
        .ok_or(SuperviseError::Oversize {
            len: bytes.len() as u64,
            limit: MAX_FRAME_BYTES,
        })?;
    w.write_all(&len.to_be_bytes())
        .map_err(|e| write_err("frame header", e))?;
    w.write_all(bytes)
        .map_err(|e| write_err("frame payload", e))?;
    w.flush().map_err(|e| write_err("frame flush", e))
}

/// Read one frame. `Ok(None)` is a clean end-of-stream (the peer
/// closed the link *between* frames); EOF mid-frame is a typed
/// [`SuperviseError::TornFrame`] — the peer died mid-write.
/// `Interrupted`-style transient errors are retried, so a signal
/// landing mid-read never tears a healthy stream.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<String>, SuperviseError> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(None);
                }
                return Err(SuperviseError::TornFrame {
                    context: format!("stream ended mid frame header ({filled} of 4 bytes)"),
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => {
                return Err(SuperviseError::Io {
                    context: "reading frame header".into(),
                    message: e.to_string(),
                })
            }
        }
    }
    let len = u32::from_be_bytes(len_buf);
    if len > MAX_FRAME_BYTES {
        return Err(SuperviseError::Oversize {
            len: len as u64,
            limit: MAX_FRAME_BYTES,
        });
    }
    let mut payload = vec![0u8; len as usize];
    let mut got = 0;
    while got < payload.len() {
        match r.read(&mut payload[got..]) {
            Ok(0) => {
                return Err(SuperviseError::TornFrame {
                    context: format!("stream ended mid frame payload ({got} of {len} bytes)"),
                })
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => {
                return Err(SuperviseError::Io {
                    context: "reading frame payload".into(),
                    message: e.to_string(),
                })
            }
        }
    }
    String::from_utf8(payload)
        .map(Some)
        .map_err(|e| SuperviseError::Protocol {
            message: format!("non-UTF-8 frame: {e}"),
        })
}

// ---------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------

/// Supervisor → worker messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ToWorker {
    /// The job description, sent once right after spawn: the sweep
    /// command, its options as config-file text, and how often the
    /// worker must heartbeat.
    Job {
        /// The sweep subcommand (e.g. `fig8`).
        cmd: String,
        /// `key = value` option text ([`codec::hex_str`]-encoded on
        /// the wire).
        config: String,
        /// Heartbeat cadence the supervisor expects.
        heartbeat_ms: u64,
    },
    /// A batch of unit keys to compute, in order.
    Assign {
        /// The unit keys.
        keys: Vec<String>,
    },
    /// No more work; exit cleanly.
    Shutdown,
}

/// Worker → supervisor messages.
///
/// `Unit` dwarfs the other variants (it carries a full [`SimResult`]),
/// but it is also the overwhelming majority of traffic — boxing it
/// would add an allocation to the hot path to slim down rare variants.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum FromWorker {
    /// Setup succeeded; the worker can resolve `units` unit keys.
    Ready {
        /// How many units the worker's registry holds.
        units: usize,
    },
    /// Liveness signal (sent from a dedicated thread, so a long unit
    /// computation does not look like a hang).
    Heartbeat,
    /// One completed unit.
    Unit {
        /// The unit key.
        key: String,
        /// The deterministic result (bit-exact over the wire).
        result: SimResult,
        /// Engine counters for this unit, summed supervisor-side so
        /// `[engine]` summaries stay accurate in sharded mode.
        stats: EngineStats,
    },
    /// The current [`ToWorker::Assign`] batch is fully done.
    BatchDone,
    /// The worker is draining (SIGTERM): it finished its in-flight
    /// unit and is closing the link on purpose. The supervisor treats
    /// this as a voluntary departure — remaining units are requeued
    /// without burning restart budget.
    Goodbye,
    /// Unrecoverable worker-side failure.
    Fatal {
        /// What went wrong.
        message: String,
    },
}

/// Encode a supervisor → worker message.
pub fn encode_to_worker(msg: &ToWorker) -> String {
    let mut out = String::new();
    match msg {
        ToWorker::Job {
            cmd,
            config,
            heartbeat_ms,
        } => {
            out.push_str(&format!("job {heartbeat_ms}\n"));
            out.push_str(&format!("cmd {}\n", codec::hex_str(cmd)));
            out.push_str(&format!("config {}\n", codec::hex_str(config)));
        }
        ToWorker::Assign { keys } => {
            out.push_str(&format!("assign {}\n", keys.len()));
            for k in keys {
                out.push_str(&format!("key {}\n", codec::hex_str(k)));
            }
        }
        ToWorker::Shutdown => out.push_str("shutdown\n"),
    }
    out
}

/// Decode a supervisor → worker message.
pub fn decode_to_worker(text: &str) -> Result<ToWorker, DecodeError> {
    let tag = first_tag(text);
    let mut p = Parser::new(text);
    match tag {
        "job" => {
            let heartbeat_ms = p.tagged_usize("job")? as u64;
            let cmd = p.tagged_hex_str("cmd")?;
            let config = p.tagged_hex_str("config")?;
            Ok(ToWorker::Job {
                cmd,
                config,
                heartbeat_ms,
            })
        }
        "assign" => {
            let n = p.tagged_usize("assign")?;
            let mut keys = Vec::with_capacity(n);
            for _ in 0..n {
                keys.push(p.tagged_hex_str("key")?);
            }
            Ok(ToWorker::Assign { keys })
        }
        "shutdown" => Ok(ToWorker::Shutdown),
        other => Err(DecodeError {
            line: 1,
            message: format!("unknown supervisor message {other:?}"),
        }),
    }
}

/// Encode a worker → supervisor message.
pub fn encode_from_worker(msg: &FromWorker) -> String {
    let mut out = String::new();
    match msg {
        FromWorker::Ready { units } => out.push_str(&format!("ready {units}\n")),
        FromWorker::Heartbeat => out.push_str("heartbeat\n"),
        FromWorker::Unit { key, result, stats } => {
            out.push_str(&format!("unit {}\n", codec::hex_str(key)));
            codec::encode_stats(&mut out, stats);
            codec::encode_result(&mut out, result);
        }
        FromWorker::BatchDone => out.push_str("batch-done\n"),
        FromWorker::Goodbye => out.push_str("goodbye\n"),
        FromWorker::Fatal { message } => {
            out.push_str(&format!("fatal {}\n", codec::hex_str(message)))
        }
    }
    out
}

/// Decode a worker → supervisor message.
pub fn decode_from_worker(text: &str) -> Result<FromWorker, DecodeError> {
    let tag = first_tag(text);
    let mut p = Parser::new(text);
    match tag {
        "ready" => Ok(FromWorker::Ready {
            units: p.tagged_usize("ready")?,
        }),
        "heartbeat" => Ok(FromWorker::Heartbeat),
        "unit" => {
            let key = p.tagged_hex_str("unit")?;
            let stats = codec::decode_stats(&mut p)?;
            let result = codec::decode_result(&mut p)?;
            Ok(FromWorker::Unit { key, result, stats })
        }
        "batch-done" => Ok(FromWorker::BatchDone),
        "goodbye" => Ok(FromWorker::Goodbye),
        "fatal" => Ok(FromWorker::Fatal {
            message: p.tagged_hex_str("fatal")?,
        }),
        other => Err(DecodeError {
            line: 1,
            message: format!("unknown worker message {other:?}"),
        }),
    }
}

fn first_tag(text: &str) -> &str {
    text.lines()
        .next()
        .and_then(|l| l.split_whitespace().next())
        .unwrap_or("")
}

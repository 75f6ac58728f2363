//! Sweep progress that survives a crash: the sweep record log.
//!
//! The paper's evaluation ground per-destination routing trees for a
//! 36K-AS graph on a 200-node cluster; at that scale a mid-sweep crash
//! must not discard hours of finished work. A sweep run with
//! `--resume` keeps one append-only [`recordlog`] per sweep
//! (`checkpoints/<cmd>.ckpt`): a header `sweep 3 <fingerprint>`, then
//! one fsync'd record per event —
//!
//! ```text
//! unit <hex key>\n<result>     a completed unit (one (adopter set, θ) cell, …)
//! lease <hex key>\npeer <hex peer>\n
//!                              the unit was dispatched to a worker
//! ```
//!
//! A unit record for a key discharges every earlier lease on it; a
//! lease with no later unit record was in flight when the coordinator
//! died, and the resumed run simply dispatches it again.
//!
//! # Bit-exact by construction
//!
//! Resume must be indistinguishable from an uninterrupted run (the
//! guarantee `tests/determinism.rs` pins down), so the codec
//! round-trips [`SimResult`]s exactly: every `f64` is stored as the
//! hex of its IEEE-754 bits, never through decimal formatting. The
//! format is a self-contained line-oriented text encoding
//! ([`codec`]) — persistence does not depend on any serialization
//! crate — and no unit record is appended unless it decodes back to
//! the result it encodes.
//!
//! The header's fingerprint hashes the sweep parameters (graph size,
//! seed, thread-irrelevant knobs — whatever the caller passes to
//! [`params_fingerprint`]); [`SweepLog::open`] refuses to resume a log
//! written under different parameters instead of silently mixing
//! incompatible results.

use crate::recordlog::{self, LogError, RecordLog, Scan};
use crate::sim::SimResult;
use crate::storage::Store;
use std::collections::HashMap;
use std::fmt;

/// Kind and version of the sweep log header. Bump the version with any
/// change to the record vocabulary: a log of another version is refused
/// with a delete-and-rerun diagnosis, never half-read.
pub const LOG_KIND: &str = "sweep 3";

/// Errors from sweep persistence.
#[derive(Debug)]
pub enum CheckpointError {
    /// The log could not be read or appended to: storage failure, a
    /// foreign (older-format) file, or damage before valid records.
    Log(LogError),
    /// A record's checksum verifies but its payload does not decode —
    /// a writer bug, not a torn write.
    Corrupt {
        /// The log's storage key.
        key: String,
        /// Byte offset of the record.
        offset: u64,
        /// 1-based line within the record's payload.
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// The log was written by a run with different parameters and
    /// cannot be resumed against this one.
    ParamsMismatch {
        /// The log's storage key.
        key: String,
        /// Fingerprint of the current run's parameters.
        expected: u64,
        /// Fingerprint stored in the file.
        found: u64,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Log(e) => write!(f, "{e}"),
            CheckpointError::Corrupt {
                key,
                offset,
                line,
                message,
            } => write!(
                f,
                "corrupt sweep log {key}: record at byte {offset}, line {line}: {message}"
            ),
            CheckpointError::ParamsMismatch {
                key,
                expected,
                found,
            } => write!(
                f,
                "checkpoint {key} was written with different sweep parameters \
                 (fingerprint {found:016x}, this run is {expected:016x}); \
                 delete it to start the sweep over"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<LogError> for CheckpointError {
    fn from(e: LogError) -> Self {
        CheckpointError::Log(e)
    }
}

/// FNV-1a fingerprint of the parameter strings that define a sweep.
/// Order matters; include everything that changes the results (graph
/// size, seed, θ grid, model…) and nothing that doesn't (thread count).
pub fn params_fingerprint<S: AsRef<str>>(parts: &[S]) -> u64 {
    // A 0x1f separator after each part, so ["ab", "c"] != ["a", "bc"].
    recordlog::fnv1a_by(
        0x1000_0000_01b3,
        parts
            .iter()
            .flat_map(|p| [p.as_ref().as_bytes(), &[0x1f][..]]),
    )
}

/// One decoded record.
enum Record {
    Unit { key: String, result: Box<SimResult> },
    Lease { key: String, peer: String },
}

fn encode_unit(key: &str, result: &SimResult) -> String {
    let mut payload = format!("unit {}\n", codec::hex_str(key));
    codec::encode_result(&mut payload, result);
    payload
}

fn decode_record(payload: &str) -> Result<Record, codec::DecodeError> {
    let mut p = codec::Parser::new(payload);
    if payload.starts_with("lease ") {
        let key = p.tagged_hex_str("lease")?;
        let peer = p.tagged_hex_str("peer")?;
        return Ok(Record::Lease { key, peer });
    }
    let key = p.tagged_hex_str("unit")?;
    let result = Box::new(codec::decode_result(&mut p)?);
    Ok(Record::Unit { key, result })
}

/// A sweep log read back: what `repro doctor` summarizes and
/// [`SweepLog::open`] resumes from.
#[derive(Debug)]
pub struct Replay {
    /// The parameter fingerprint in the header.
    pub fingerprint: u64,
    /// Completed units in write order (a re-completed key keeps its
    /// first position and latest result).
    pub units: SweepLog,
    /// Keys whose latest mention is a lease — dispatched, never
    /// completed — with the peer that held each, in first-lease order.
    pub leases: Vec<(String, String)>,
}

/// What [`SweepLog::open`] found in an existing log.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Resumed {
    /// Torn trailing bytes (a crash mid-append) that open truncated.
    pub torn_bytes: u64,
    /// Units leased to workers and never completed.
    pub leases: Vec<(String, String)>,
}

/// Decode a scanned sweep log.
pub fn replay(key: &str, scan: &Scan) -> Result<Replay, CheckpointError> {
    let fingerprint = scan
        .header
        .strip_prefix(LOG_KIND)
        .and_then(|fp| u64::from_str_radix(fp.trim(), 16).ok())
        .ok_or_else(|| CheckpointError::Corrupt {
            key: key.to_string(),
            offset: 0,
            line: 1,
            message: format!("header {:?} carries no fingerprint", scan.header),
        })?;
    let mut units = SweepLog::in_memory();
    let mut leases: Vec<(String, String)> = Vec::new();
    for (offset, payload) in &scan.records {
        let record = decode_record(payload).map_err(|e| CheckpointError::Corrupt {
            key: key.to_string(),
            offset: *offset,
            line: e.line,
            message: e.message,
        })?;
        match record {
            Record::Lease { key, peer } => match leases.iter_mut().find(|(k, _)| *k == key) {
                Some(slot) => slot.1 = peer,
                None => leases.push((key, peer)),
            },
            Record::Unit { key, result } => {
                leases.retain(|(k, _)| *k != key);
                units.remember(key, *result);
            }
        }
    }
    Ok(Replay {
        fingerprint,
        units,
        leases,
    })
}

/// A sweep's completed units, keyed by a caller-chosen label (e.g.
/// `"adopters=CP+5;theta=0.10"`) — in memory, and in the sweep's
/// record log when opened over a store.
#[derive(Debug, Default)]
pub struct SweepLog {
    units: Vec<(String, SimResult)>,
    index: HashMap<String, usize>,
    log: Option<RecordLog>,
}

impl SweepLog {
    /// Progress that is never persisted (a run without `--resume`).
    pub fn in_memory() -> Self {
        Self::default()
    }

    /// Open the log at `key`, starting a fresh one when none exists.
    /// A log from other parameters, a damaged log, or an older build's
    /// file is an error, never a silent restart.
    pub fn open(
        store: &Store,
        key: &str,
        fingerprint: u64,
    ) -> Result<(SweepLog, Resumed), CheckpointError> {
        let header = format!("{LOG_KIND} {fingerprint:016x}");
        let (log, scan) = RecordLog::open(store, key, &header).map_err(|e| match e {
            LogError::HeaderMismatch { found, .. } => CheckpointError::ParamsMismatch {
                key: key.to_string(),
                expected: fingerprint,
                found: found
                    .rsplit(' ')
                    .next()
                    .and_then(|fp| u64::from_str_radix(fp, 16).ok())
                    .unwrap_or(0),
            },
            e => CheckpointError::Log(e),
        })?;
        let Replay {
            mut units, leases, ..
        } = replay(key, &scan)?;
        units.log = Some(log);
        let resumed = Resumed {
            torn_bytes: scan.torn_bytes,
            leases,
        };
        Ok((units, resumed))
    }

    /// Number of completed units.
    pub fn len(&self) -> usize {
        self.units.len()
    }

    /// Whether no unit has completed yet.
    pub fn is_empty(&self) -> bool {
        self.units.is_empty()
    }

    /// The recorded result for `key`, if that unit already completed.
    pub fn get(&self, key: &str) -> Option<&SimResult> {
        self.index.get(key).map(|&i| &self.units[i].1)
    }

    /// Completed units in completion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &SimResult)> {
        self.units.iter().map(|(k, r)| (k.as_str(), r))
    }

    fn remember(&mut self, key: String, result: SimResult) {
        match self.index.get(&key) {
            Some(&i) => self.units[i].1 = result,
            None => {
                self.index.insert(key.clone(), self.units.len());
                self.units.push((key, result));
            }
        }
    }

    /// Record a completed unit; when persisted, append it first (and
    /// fsync), so it survives any crash after this returns. The record
    /// must decode back to the same key and result before it is
    /// written: a codec bug caught here costs one unit, caught at
    /// resume time it would cost the sweep.
    pub fn insert(&mut self, key: String, result: SimResult) -> Result<(), CheckpointError> {
        if let Some(log) = self.log.as_mut() {
            let payload = encode_unit(&key, &result);
            let same = matches!(decode_record(&payload),
                Ok(Record::Unit { key: k, result: r }) if k == key && *r == result);
            if !same {
                return Err(CheckpointError::Corrupt {
                    key: log.key().to_string(),
                    offset: 0,
                    line: 0,
                    message: format!(
                        "unit {key:?}: encode/decode round-trip mismatch (codec bug); \
                         refusing to append"
                    ),
                });
            }
            log.append(&payload).map_err(LogError::from)?;
        }
        self.remember(key, result);
        Ok(())
    }

    /// Record that `key` is about to be dispatched to `peer`, before
    /// the assignment leaves the coordinator, so a resumed run knows
    /// which units were in flight (and with whom) at the moment of
    /// death. A no-op when not persisted.
    pub fn lease(&mut self, key: &str, peer: &str) -> Result<(), CheckpointError> {
        if let Some(log) = self.log.as_mut() {
            let payload = format!(
                "lease {}\npeer {}\n",
                codec::hex_str(key),
                codec::hex_str(peer)
            );
            log.append(&payload).map_err(LogError::from)?;
        }
        Ok(())
    }
}

/// The self-contained, bit-exact text codec behind [`SweepLog`] records.
///
/// Line-oriented: every record is `tag value…`; every `f64` travels as
/// the 16-hex-digit IEEE-754 bit pattern, every string as hex-encoded
/// UTF-8, so decode(encode(x)) == x exactly.
pub mod codec {
    use crate::engine::{QuarantinedTask, SelfCheckViolation, TaskFault};
    use crate::sim::{Outcome, RoundRecord, SimResult};
    use sbgp_asgraph::AsId;
    use sbgp_routing::SecureSet;
    use std::fmt::Write as _;

    /// A decode failure: 1-based line and description.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct DecodeError {
        /// 1-based line number in the encoded text.
        pub line: usize,
        /// What was wrong.
        pub message: String,
    }

    /// Hex-encode a string's UTF-8 bytes (empty string → `-`).
    pub fn hex_str(s: &str) -> String {
        if s.is_empty() {
            return "-".to_string();
        }
        let mut out = String::with_capacity(s.len() * 2);
        for b in s.bytes() {
            let _ = write!(out, "{b:02x}");
        }
        out
    }

    /// Decode [`hex_str`]'s output (`None` if it is not hex UTF-8).
    pub fn unhex_str(tok: &str) -> Option<String> {
        if tok == "-" {
            return Some(String::new());
        }
        if !tok.len().is_multiple_of(2) {
            return None;
        }
        let mut bytes = Vec::with_capacity(tok.len() / 2);
        for i in (0..tok.len()).step_by(2) {
            bytes.push(u8::from_str_radix(tok.get(i..i + 2)?, 16).ok()?);
        }
        String::from_utf8(bytes).ok()
    }

    fn push_f64s(out: &mut String, tag: &str, xs: &[f64]) {
        let _ = write!(out, "{tag} {}", xs.len());
        for x in xs {
            let _ = write!(out, " {:016x}", x.to_bits());
        }
        out.push('\n');
    }

    fn push_ids(out: &mut String, tag: &str, ids: &[AsId]) {
        let _ = write!(out, "{tag} {}", ids.len());
        for id in ids {
            let _ = write!(out, " {}", id.0);
        }
        out.push('\n');
    }

    fn push_state(out: &mut String, tag: &str, s: &SecureSet) {
        let _ = write!(out, "{tag} {}", s.capacity());
        for id in s.iter() {
            let _ = write!(out, " {}", id.0);
        }
        out.push('\n');
    }

    /// Append the encoding of one [`SimResult`].
    pub fn encode_result(out: &mut String, r: &SimResult) {
        push_f64s(out, "starting_utilities", &r.starting_utilities);
        push_state(out, "initial_state", &r.initial_state);
        let _ = writeln!(out, "rounds {}", r.rounds.len());
        for round in &r.rounds {
            let _ = writeln!(
                out,
                "round {} {} {}",
                round.round, round.secure_ases_after, round.secure_isps_after
            );
            push_f64s(out, "utilities", &round.utilities);
            let _ = write!(out, "projected {}", round.projected.len());
            for (n, p) in &round.projected {
                let _ = write!(out, " {}:{:016x}", n.0, p.to_bits());
            }
            out.push('\n');
            push_ids(out, "turned_on", &round.turned_on);
            push_ids(out, "turned_off", &round.turned_off);
            push_ids(out, "newly_secure_stubs", &round.newly_secure_stubs);
        }
        push_state(out, "final_state", &r.final_state);
        match r.outcome {
            Outcome::Stable { round } => {
                let _ = writeln!(out, "outcome stable {round}");
            }
            Outcome::Oscillation { first_seen, period } => {
                let _ = writeln!(out, "outcome oscillation {first_seen} {period}");
            }
            Outcome::MaxRounds => {
                let _ = writeln!(out, "outcome maxrounds");
            }
        }
        push_ids(out, "early_adopters", &r.early_adopters);
        let _ = writeln!(out, "completeness {:016x}", r.completeness.to_bits());
        let _ = writeln!(out, "quarantined {}", r.quarantined.len());
        for q in &r.quarantined {
            let _ = writeln!(
                out,
                "quarantine {} {} {} {}",
                q.dest.0,
                q.attempts,
                q.kind,
                hex_str(&q.message)
            );
        }
        let _ = writeln!(out, "self_checked {}", r.self_checked);
        let _ = writeln!(out, "violations {}", r.violations.len());
        for v in &r.violations {
            let _ = writeln!(
                out,
                "violation {} {} {}",
                v.dest.0,
                hex_str(&v.detail),
                hex_str(&v.artifact)
            );
        }
        push_ids(out, "deadline_skipped", &r.deadline_skipped);
    }

    /// Append the encoding of an [`EngineStats`](crate::engine::EngineStats)
    /// as one `stats` line — the 17 counters in declaration order.
    /// Checkpoints deliberately do *not* persist stats (they describe
    /// the producing run, not the result); this exists for the shard
    /// worker protocol, where the supervisor must sum per-worker
    /// counters to keep `[engine]` summaries accurate.
    pub fn encode_stats(out: &mut String, s: &crate::engine::EngineStats) {
        let _ = writeln!(
            out,
            "stats {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {}",
            s.contexts_computed,
            s.trees_computed,
            s.dests_computed,
            s.dests_reused,
            s.passes,
            s.compute_ns,
            s.atlas_hits,
            s.atlas_misses,
            s.atlas_stored,
            s.atlas_evicted,
            s.atlas_bytes,
            s.atlas_raw_bytes,
            s.atlas_build_ns,
            s.delta_hits,
            s.delta_fallbacks,
            s.delta_touched_nodes,
            s.delta_full_nodes,
        );
    }

    /// Decode one `stats` line written by [`encode_stats`].
    pub fn decode_stats(p: &mut Parser<'_>) -> Result<crate::engine::EngineStats, DecodeError> {
        let vals = p.tagged_u64s("stats", 17)?;
        Ok(crate::engine::EngineStats {
            contexts_computed: vals[0],
            trees_computed: vals[1],
            dests_computed: vals[2],
            dests_reused: vals[3],
            passes: vals[4],
            compute_ns: vals[5],
            atlas_hits: vals[6],
            atlas_misses: vals[7],
            atlas_stored: vals[8],
            atlas_evicted: vals[9],
            atlas_bytes: vals[10],
            atlas_raw_bytes: vals[11],
            atlas_build_ns: vals[12],
            delta_hits: vals[13],
            delta_fallbacks: vals[14],
            delta_touched_nodes: vals[15],
            delta_full_nodes: vals[16],
        })
    }

    /// Line-cursor over encoded text, tracking 1-based line numbers
    /// for error reporting.
    pub struct Parser<'a> {
        lines: std::str::Lines<'a>,
        line_no: usize,
    }

    impl<'a> Parser<'a> {
        /// Parse from the start of `text`.
        pub fn new(text: &'a str) -> Self {
            Parser {
                lines: text.lines(),
                line_no: 0,
            }
        }

        fn err(&self, message: impl Into<String>) -> DecodeError {
            DecodeError {
                line: self.line_no,
                message: message.into(),
            }
        }

        fn next_line(&mut self) -> Result<&'a str, DecodeError> {
            self.line_no += 1;
            self.lines
                .next()
                .ok_or_else(|| self.err("unexpected end of file"))
        }

        /// Consume a line that must equal `expected` exactly.
        pub fn expect_line(&mut self, expected: &str) -> Result<(), DecodeError> {
            let line = self.next_line()?;
            if line != expected {
                return Err(self.err(format!("expected {expected:?}, found {line:?}")));
            }
            Ok(())
        }

        /// Consume `tag <rest>` and return the tokens after the tag.
        fn tagged(&mut self, tag: &str) -> Result<std::str::SplitWhitespace<'a>, DecodeError> {
            let line = self.next_line()?;
            let mut toks = line.split_whitespace();
            match toks.next() {
                Some(t) if t == tag => Ok(toks),
                other => Err(self.err(format!("expected tag {tag:?}, found {other:?}"))),
            }
        }

        fn one_token(&mut self, tag: &str) -> Result<&'a str, DecodeError> {
            let mut toks = self.tagged(tag)?;
            let tok = toks
                .next()
                .ok_or_else(|| self.err(format!("{tag}: missing value")))?;
            if toks.next().is_some() {
                return Err(self.err(format!("{tag}: trailing tokens")));
            }
            Ok(tok)
        }

        /// Consume `tag <decimal>`.
        pub fn tagged_usize(&mut self, tag: &str) -> Result<usize, DecodeError> {
            let tok = self.one_token(tag)?;
            tok.parse()
                .map_err(|_| self.err(format!("{tag}: bad count {tok:?}")))
        }

        /// Consume `tag <16-digit hex>`.
        pub fn tagged_u64_hex(&mut self, tag: &str) -> Result<u64, DecodeError> {
            let tok = self.one_token(tag)?;
            u64::from_str_radix(tok, 16).map_err(|_| self.err(format!("{tag}: bad hex {tok:?}")))
        }

        /// Consume `tag <v0> <v1> … <v(count-1)>` — exactly `count`
        /// decimal `u64` values.
        pub fn tagged_u64s(&mut self, tag: &str, count: usize) -> Result<Vec<u64>, DecodeError> {
            let toks = self.tagged(tag)?;
            let mut out = Vec::with_capacity(count);
            for tok in toks {
                let v: u64 = tok
                    .parse()
                    .map_err(|_| self.err(format!("{tag}: bad value {tok:?}")))?;
                out.push(v);
            }
            if out.len() != count {
                return Err(self.err(format!("{tag}: expected {count} values, got {}", out.len())));
            }
            Ok(out)
        }

        /// Consume `tag <hex string>` and decode it.
        pub fn tagged_hex_str(&mut self, tag: &str) -> Result<String, DecodeError> {
            let tok = self.one_token(tag)?;
            unhex_str(tok).ok_or_else(|| self.err(format!("{tag}: bad hex string")))
        }

        fn tagged_f64s(&mut self, tag: &str) -> Result<Vec<f64>, DecodeError> {
            let mut toks = self.tagged(tag)?;
            let count: usize = toks
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| self.err(format!("{tag}: bad count")))?;
            let mut out = Vec::with_capacity(count);
            for tok in toks.by_ref() {
                let bits = u64::from_str_radix(tok, 16)
                    .map_err(|_| self.err(format!("{tag}: bad f64 bits {tok:?}")))?;
                out.push(f64::from_bits(bits));
            }
            if out.len() != count {
                return Err(self.err(format!("{tag}: expected {count} values, got {}", out.len())));
            }
            Ok(out)
        }

        fn tagged_ids(&mut self, tag: &str) -> Result<Vec<AsId>, DecodeError> {
            let mut toks = self.tagged(tag)?;
            let count: usize = toks
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| self.err(format!("{tag}: bad count")))?;
            let mut out = Vec::with_capacity(count);
            for tok in toks.by_ref() {
                let id: u32 = tok
                    .parse()
                    .map_err(|_| self.err(format!("{tag}: bad node id {tok:?}")))?;
                out.push(AsId(id));
            }
            if out.len() != count {
                return Err(self.err(format!("{tag}: expected {count} ids, got {}", out.len())));
            }
            Ok(out)
        }

        fn tagged_state(&mut self, tag: &str) -> Result<SecureSet, DecodeError> {
            let mut toks = self.tagged(tag)?;
            let capacity: usize = toks
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| self.err(format!("{tag}: bad capacity")))?;
            let mut s = SecureSet::new(capacity);
            for tok in toks {
                let id: u32 = tok
                    .parse()
                    .map_err(|_| self.err(format!("{tag}: bad node id {tok:?}")))?;
                if id as usize >= capacity {
                    return Err(self.err(format!("{tag}: id {id} out of capacity {capacity}")));
                }
                s.set(AsId(id), true);
            }
            Ok(s)
        }
    }

    /// Decode one [`SimResult`] from the cursor.
    pub fn decode_result(p: &mut Parser<'_>) -> Result<SimResult, DecodeError> {
        let starting_utilities = p.tagged_f64s("starting_utilities")?;
        let initial_state = p.tagged_state("initial_state")?;
        let n_rounds = p.tagged_usize("rounds")?;
        let mut rounds = Vec::with_capacity(n_rounds);
        for _ in 0..n_rounds {
            let mut toks = p.tagged("round")?;
            let next_usize = |what: &str, toks: &mut std::str::SplitWhitespace<'_>| {
                toks.next()
                    .and_then(|t| t.parse::<usize>().ok())
                    .ok_or_else(|| DecodeError {
                        line: 0,
                        message: format!("round: bad {what}"),
                    })
            };
            let round = next_usize("number", &mut toks)?;
            let secure_ases_after = next_usize("secure_ases_after", &mut toks)?;
            let secure_isps_after = next_usize("secure_isps_after", &mut toks)?;
            let utilities = p.tagged_f64s("utilities")?;
            let mut ptoks = p.tagged("projected")?;
            let count: usize = ptoks
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| p.err("projected: bad count"))?;
            let mut projected = Vec::with_capacity(count);
            for tok in ptoks {
                let (id, bits) = tok
                    .split_once(':')
                    .ok_or_else(|| p.err(format!("projected: bad pair {tok:?}")))?;
                let id: u32 = id
                    .parse()
                    .map_err(|_| p.err(format!("projected: bad node id {id:?}")))?;
                let bits = u64::from_str_radix(bits, 16)
                    .map_err(|_| p.err(format!("projected: bad f64 bits {bits:?}")))?;
                projected.push((AsId(id), f64::from_bits(bits)));
            }
            if projected.len() != count {
                return Err(p.err(format!(
                    "projected: expected {count} pairs, got {}",
                    projected.len()
                )));
            }
            let turned_on = p.tagged_ids("turned_on")?;
            let turned_off = p.tagged_ids("turned_off")?;
            let newly_secure_stubs = p.tagged_ids("newly_secure_stubs")?;
            rounds.push(RoundRecord {
                round,
                utilities,
                projected,
                turned_on,
                turned_off,
                newly_secure_stubs,
                secure_ases_after,
                secure_isps_after,
            });
        }
        let final_state = p.tagged_state("final_state")?;
        let mut otoks = p.tagged("outcome")?;
        let outcome = match otoks.next() {
            Some("stable") => Outcome::Stable {
                round: otoks
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| p.err("outcome stable: bad round"))?,
            },
            Some("oscillation") => {
                let first_seen = otoks
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| p.err("outcome oscillation: bad first_seen"))?;
                let period = otoks
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| p.err("outcome oscillation: bad period"))?;
                Outcome::Oscillation { first_seen, period }
            }
            Some("maxrounds") => Outcome::MaxRounds,
            other => return Err(p.err(format!("outcome: unknown kind {other:?}"))),
        };
        let early_adopters = p.tagged_ids("early_adopters")?;
        let completeness = f64::from_bits(p.tagged_u64_hex("completeness")?);
        let n_quarantined = p.tagged_usize("quarantined")?;
        let mut quarantined = Vec::with_capacity(n_quarantined);
        for _ in 0..n_quarantined {
            let mut qtoks = p.tagged("quarantine")?;
            let dest: u32 = qtoks
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| p.err("quarantine: bad dest"))?;
            let attempts: u32 = qtoks
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| p.err("quarantine: bad attempts"))?;
            let kind = match qtoks.next() {
                Some("panic") => TaskFault::Panic,
                Some("timeout") => TaskFault::TimedOut,
                other => return Err(p.err(format!("quarantine: unknown fault kind {other:?}"))),
            };
            let message = qtoks
                .next()
                .and_then(unhex_str)
                .ok_or_else(|| p.err("quarantine: bad message"))?;
            quarantined.push(QuarantinedTask {
                dest: AsId(dest),
                attempts,
                kind,
                message,
            });
        }
        let self_checked = p.tagged_usize("self_checked")?;
        let n_violations = p.tagged_usize("violations")?;
        let mut violations = Vec::with_capacity(n_violations);
        for _ in 0..n_violations {
            let mut vtoks = p.tagged("violation")?;
            let dest: u32 = vtoks
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| p.err("violation: bad dest"))?;
            let detail = vtoks
                .next()
                .and_then(unhex_str)
                .ok_or_else(|| p.err("violation: bad detail"))?;
            let artifact = vtoks
                .next()
                .and_then(unhex_str)
                .ok_or_else(|| p.err("violation: bad artifact"))?;
            violations.push(SelfCheckViolation {
                dest: AsId(dest),
                detail,
                artifact,
            });
        }
        let deadline_skipped = p.tagged_ids("deadline_skipped")?;
        Ok(SimResult {
            starting_utilities,
            initial_state,
            rounds,
            final_state,
            outcome,
            early_adopters,
            completeness,
            quarantined,
            self_checked,
            violations,
            deadline_skipped,
            // Work counters are diagnostics of the producing run, not
            // results; they are not encoded and decode to zeros.
            stats: crate::engine::EngineStats::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ChaosPlan, SimConfig};
    use crate::early::EarlyAdopters;
    use crate::sim::Simulation;
    use sbgp_asgraph::gen::{generate, GenParams};
    use sbgp_asgraph::Weights;
    use sbgp_routing::HashTieBreak;

    const KEY: &str = "checkpoints/fig9.ckpt";

    fn sample_result(seed: u64, chaos: Option<ChaosPlan>) -> SimResult {
        let g = generate(&GenParams::new(120, seed)).graph;
        let w = Weights::with_cp_fraction(&g, 0.10);
        let cfg = SimConfig {
            theta: 0.05,
            max_task_retries: 0,
            chaos,
            ..SimConfig::default()
        };
        let adopters = EarlyAdopters::ContentProvidersPlusTopIsps(5).select(&g);
        Simulation::new(&g, &w, &HashTieBreak, cfg).run(&adopters)
    }

    #[test]
    fn codec_round_trips_bit_exactly() {
        for chaos in [
            None,
            Some(ChaosPlan {
                dest: 7,
                fail_attempts: u32::MAX,
                ..ChaosPlan::default()
            }),
        ] {
            let r = sample_result(42, chaos);
            let mut text = String::new();
            codec::encode_result(&mut text, &r);
            let mut p = codec::Parser::new(&text);
            let back = codec::decode_result(&mut p).unwrap();
            assert_eq!(back, r);
            // Bit-exact, not just PartialEq-equal.
            for (a, b) in r
                .starting_utilities
                .iter()
                .zip(back.starting_utilities.iter())
            {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn save_load_round_trip() {
        let store = Store::in_memory();
        let fp = params_fingerprint(&["ases=120", "seed=42"]);
        let (mut log, _) = SweepLog::open(&store, KEY, fp).unwrap();
        log.insert("theta=0.05".into(), sample_result(42, None))
            .unwrap();
        log.insert("theta=0.10".into(), sample_result(43, None))
            .unwrap();
        drop(log);
        let (back, resumed) = SweepLog::open(&store, KEY, fp).unwrap();
        assert!(resumed.leases.is_empty());
        let keys: Vec<&str> = back.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, ["theta=0.05", "theta=0.10"]);
        assert_eq!(back.get("theta=0.05"), Some(&sample_result(42, None)));
        assert!(back.get("theta=0.20").is_none());
        // One header plus one record per unit, nothing rewritten.
        let text = String::from_utf8(store.get(KEY).unwrap().unwrap()).unwrap();
        assert_eq!(text.matches("\nunit ").count(), 2);
        assert!(text.contains(&format!("sweep 3 {fp:016x}\n")), "{text}");
    }

    #[test]
    fn load_or_new_on_missing_file() {
        let store = Store::in_memory();
        let (log, resumed) = SweepLog::open(&store, KEY, 9).unwrap();
        assert!(log.is_empty());
        assert_eq!(resumed, Resumed::default());
        // The fresh log holds just its header, so a resume under the
        // same parameters finds it and one under others refuses it.
        let scan = recordlog::scan(KEY, &store.get(KEY).unwrap().unwrap(), &[LOG_KIND]).unwrap();
        assert_eq!(scan.header, format!("sweep 3 {:016x}", 9));
        assert!(scan.records.is_empty());
        assert!(SweepLog::open(&store, KEY, 9).unwrap().0.is_empty());
        assert!(matches!(
            SweepLog::open(&store, KEY, 10),
            Err(CheckpointError::ParamsMismatch { .. })
        ));
    }

    #[test]
    fn missing_journal_replays_empty() {
        // A crash before the header landed leaves an empty file; it
        // resumes exactly like a missing one.
        let store = Store::in_memory();
        store.put_atomic(KEY, b"").unwrap();
        let (log, resumed) = SweepLog::open(&store, KEY, 7).unwrap();
        assert!(log.is_empty());
        assert_eq!(resumed, Resumed::default());
        let scan = recordlog::scan(KEY, &store.get(KEY).unwrap().unwrap(), &[LOG_KIND]).unwrap();
        assert_eq!(scan.torn_bytes, 0);
        assert!(scan.records.is_empty());
    }

    #[test]
    fn journal_append_replay_round_trip() {
        let store = Store::in_memory();
        let r1 = sample_result(42, None);
        let r2 = sample_result(43, None);
        assert_ne!(r1.stats, crate::engine::EngineStats::default());
        {
            let (mut log, _) = SweepLog::open(&store, KEY, 7).unwrap();
            log.insert("theta=0.05".into(), r1.clone()).unwrap();
            log.insert("theta=0.10".into(), r1.clone()).unwrap();
            // A re-completed unit keeps its first position and takes
            // the latest result.
            log.insert("theta=0.05".into(), r2.clone()).unwrap();
        }
        let scan = recordlog::scan(KEY, &store.get(KEY).unwrap().unwrap(), &[LOG_KIND]).unwrap();
        assert_eq!(scan.records.len(), 3);
        let replayed = replay(KEY, &scan).unwrap();
        assert_eq!(replayed.fingerprint, 7);
        assert!(replayed.leases.is_empty());
        let units: Vec<(&str, &SimResult)> = replayed.units.iter().collect();
        assert_eq!(units.len(), 2);
        assert_eq!(units[0].0, "theta=0.05");
        assert_eq!(units[1].0, "theta=0.10");
        assert_eq!(units[0].1, &r2);
        // Stats are not persisted: they decode to zeros.
        assert_eq!(units[1].1.stats, crate::engine::EngineStats::default());
    }

    #[test]
    fn params_mismatch_is_refused() {
        let store = Store::in_memory();
        SweepLog::open(&store, KEY, 1).unwrap();
        match SweepLog::open(&store, KEY, 2) {
            Err(CheckpointError::ParamsMismatch {
                expected, found, ..
            }) => assert_eq!((expected, found), (2, 1)),
            other => panic!("expected ParamsMismatch, got {other:?}"),
        }
    }

    #[test]
    fn journal_leases_replay_and_discharge() {
        let store = Store::in_memory();
        {
            let (mut log, _) = SweepLog::open(&store, KEY, 7).unwrap();
            log.lease("theta=0.05", "127.0.0.1:9001").unwrap();
            log.lease("theta=0.10", "process 4242").unwrap();
            log.insert("theta=0.05".into(), sample_result(42, None))
                .unwrap();
            // Re-lease after a requeue: a second lease on the same key
            // updates the holder rather than duplicating the entry.
            log.lease("theta=0.10", "127.0.0.1:9002").unwrap();
        }
        let (log, resumed) = SweepLog::open(&store, KEY, 7).unwrap();
        assert_eq!(log.len(), 1);
        assert_eq!(
            resumed.leases,
            vec![("theta=0.10".to_string(), "127.0.0.1:9002".to_string())]
        );
        let scan = recordlog::scan(KEY, &store.get(KEY).unwrap().unwrap(), &[LOG_KIND]).unwrap();
        assert_eq!(scan.records.len(), 4, "the header is not counted");
    }

    #[test]
    fn torn_journal_tail_is_salvaged_not_fatal() {
        let store = Store::in_memory();
        {
            let (mut log, _) = SweepLog::open(&store, KEY, 7).unwrap();
            log.insert("good".into(), sample_result(42, None)).unwrap();
            log.insert("doomed".into(), sample_result(43, None))
                .unwrap();
        }
        let full = store.get(KEY).unwrap().unwrap();
        store.put_atomic(KEY, &full[..full.len() - 10]).unwrap();
        let (log, resumed) = SweepLog::open(&store, KEY, 7).unwrap();
        assert_eq!(log.len(), 1);
        assert!(log.get("good").is_some());
        assert!(resumed.torn_bytes > 0);
        let scan = recordlog::scan(KEY, &store.get(KEY).unwrap().unwrap(), &[LOG_KIND]).unwrap();
        assert_eq!(scan.torn_bytes, 0, "open truncated the torn tail");
    }

    #[test]
    fn a_damaged_unit_before_a_valid_one_is_corruption() {
        let store = Store::in_memory();
        {
            let (mut log, _) = SweepLog::open(&store, KEY, 7).unwrap();
            log.insert("first".into(), sample_result(42, None)).unwrap();
            log.lease("second", "pid 1").unwrap();
        }
        let text = String::from_utf8(store.get(KEY).unwrap().unwrap()).unwrap();
        let offset = text.find("\nrec ").unwrap() as u64 + 1;
        let damaged = text.replacen("completeness", "c0mpleteness", 1);
        store.put_atomic(KEY, damaged.as_bytes()).unwrap();
        match SweepLog::open(&store, KEY, 7) {
            Err(CheckpointError::Log(LogError::Corrupt {
                offset: at,
                dropped,
                ..
            })) => assert_eq!((at, dropped), (offset, 1)),
            other => panic!("expected corruption, got {other:?}"),
        }
        assert_eq!(store.get(KEY).unwrap().unwrap(), damaged.as_bytes());
    }

    #[test]
    fn corrupt_file_is_a_typed_error() {
        let store = Store::in_memory();
        store
            .put_atomic(KEY, &recordlog::frame("sweep 3 zzzz"))
            .unwrap();
        let scan = recordlog::scan(KEY, &store.get(KEY).unwrap().unwrap(), &[LOG_KIND]).unwrap();
        assert!(matches!(
            replay(KEY, &scan),
            Err(CheckpointError::Corrupt { line: 1, .. })
        ));
    }

    #[test]
    fn older_sweep_formats_are_refused_untouched() {
        let store = Store::in_memory();
        for old in [
            "sbgp-checkpoint v2\nfingerprint 0000000000000007\nunits 0\nend\n".to_string(),
            // A pre-header unit journal: a valid record, but no header.
            String::from_utf8(recordlog::frame(&encode_unit(
                "k",
                &sample_result(42, None),
            )))
            .unwrap(),
        ] {
            store.put_atomic(KEY, old.as_bytes()).unwrap();
            match SweepLog::open(&store, KEY, 7) {
                Err(e @ CheckpointError::Log(LogError::Foreign { .. })) => {
                    assert!(e.to_string().contains("delete it and rerun"), "{e}")
                }
                other => panic!("expected a foreign-format refusal, got {other:?}"),
            }
            assert_eq!(store.get(KEY).unwrap().unwrap(), old.as_bytes());
        }
    }

    #[test]
    fn stats_codec_round_trips() {
        let s = crate::engine::EngineStats {
            contexts_computed: 1,
            trees_computed: 2,
            dests_computed: 3,
            dests_reused: 4,
            passes: 5,
            compute_ns: 6,
            atlas_hits: 7,
            atlas_misses: 8,
            atlas_stored: 9,
            atlas_evicted: 10,
            atlas_bytes: 11,
            atlas_raw_bytes: 12,
            atlas_build_ns: 13,
            delta_hits: 14,
            delta_fallbacks: 15,
            delta_touched_nodes: 16,
            delta_full_nodes: 17,
        };
        let mut text = String::new();
        codec::encode_stats(&mut text, &s);
        let mut p = codec::Parser::new(&text);
        assert_eq!(codec::decode_stats(&mut p).unwrap(), s);
    }

    #[test]
    fn fingerprint_separates_parts() {
        assert_ne!(
            params_fingerprint(&["ab", "c"]),
            params_fingerprint(&["a", "bc"])
        );
        // The fingerprint the fig9 harness computes for
        // `--ases 150` at the default seed: resumable logs depend on
        // this value never drifting.
        assert_eq!(
            params_fingerprint(&["cmd=fig9", "ases=150", "seed=42", "cp=0.1", "fail_links=0"]),
            0x280a_9314_8892_497b
        );
    }
}

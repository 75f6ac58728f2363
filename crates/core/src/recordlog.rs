//! The one persisted format: an append-only, checksummed record log.
//!
//! Sweep progress (`checkpoints/<cmd>.ckpt`) and the serve job board
//! (`serve/jobs.joblog`) are both sequences of records, each appended
//! and fsync'd as one self-delimiting frame
//!
//! ```text
//! rec <payload-bytes> <fnv64-hex>\n
//! <payload>\n
//! ```
//!
//! where the checksum is FNV-1a ([`fnv1a`]) over the payload bytes.
//! The first record of every log is a **header** whose payload names
//! the log's kind and format version (`sweep 3 <fingerprint>`,
//! `joblog 2`); everything after it is the caller's vocabulary.
//!
//! Reading a log distinguishes three kinds of damage:
//!
//! * **torn tail** — invalid bytes running to end of file with no
//!   valid record after them. That is what a crash mid-append leaves
//!   (injected tears are prefixes too, see `storage/chaos.rs`); it is
//!   reported, and [`RecordLog::open`] / [`repair`] truncate it — the
//!   record either fully happened or never happened;
//! * **corruption** — an invalid record followed by a valid one. No
//!   crash produces that, so it is a typed [`LogError::Corrupt`]
//!   naming the byte offset; only [`repair`] (`repro doctor --fix`)
//!   truncates it, reporting how many later records it drops;
//! * **foreign file** — first bytes that are neither this build's
//!   header nor a prefix of one record: an older build's format (or
//!   another program's file). It is refused with a delete-and-rerun
//!   diagnosis and never truncated; there is no compatibility reader.

use crate::storage::{StorageError, Store};
use std::fmt;

/// FNV-1a over the concatenation of `chunks` — the hash behind record
/// checksums and serve job ids.
pub fn fnv1a<'a>(chunks: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    fnv1a_by(0x0000_0100_0000_01b3, chunks)
}

/// FNV-1a with a caller-chosen multiplier. Sweep parameter
/// fingerprints have always multiplied by `0x1000_0000_01b3` (one hex
/// digit more than the FNV prime); they keep it so a fingerprint never
/// changes value.
pub fn fnv1a_by<'a>(multiplier: u64, chunks: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for chunk in chunks {
        for &b in chunk {
            h ^= u64::from(b);
            h = h.wrapping_mul(multiplier);
        }
    }
    h
}

/// Why a log could not be read (or opened) as-is.
#[derive(Debug)]
pub enum LogError {
    /// The backing store failed.
    Storage(StorageError),
    /// The file does not start with a header of an accepted kind and
    /// version: an older build (or another program) wrote it.
    Foreign {
        /// The log's storage key.
        key: String,
        /// The file's first line, for the diagnosis.
        first_line: String,
        /// The header(s) this build accepts.
        expected: String,
    },
    /// Right kind and version, different parameters (e.g. a sweep log
    /// written under another parameter fingerprint).
    HeaderMismatch {
        /// The log's storage key.
        key: String,
        /// The header payload found in the file.
        found: String,
        /// The header payload the caller asked for.
        expected: String,
    },
    /// An invalid record followed by valid ones: damage, not a tear.
    Corrupt {
        /// The log's storage key.
        key: String,
        /// Byte offset of the first invalid record.
        offset: u64,
        /// Valid records after the damage that a repair would drop.
        dropped: usize,
    },
}

impl fmt::Display for LogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogError::Storage(e) => write!(f, "{e}"),
            LogError::Foreign {
                key,
                first_line,
                expected,
            } => write!(
                f,
                "{key}: line 1: {first_line:?} is not a {expected} record-log header; an \
                 older build wrote this file in a format this build does not read — delete \
                 it and rerun"
            ),
            LogError::HeaderMismatch {
                key,
                found,
                expected,
            } => write!(f, "{key}: log header is {found:?}, expected {expected:?}"),
            LogError::Corrupt {
                key,
                offset,
                dropped,
            } => write!(
                f,
                "{key}: invalid record at byte {offset} is followed by {dropped} valid \
                 record(s) — the log is damaged, not torn; `repro doctor --fix` truncates it \
                 at byte {offset}, dropping them"
            ),
        }
    }
}

impl std::error::Error for LogError {}

impl From<StorageError> for LogError {
    fn from(e: StorageError) -> Self {
        LogError::Storage(e)
    }
}

/// A log read back: its header, the records after it, and any torn
/// tail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scan {
    /// The header record's payload (`sweep 3 <fingerprint>`, …).
    pub header: String,
    /// Every valid record after the header, as `(byte offset,
    /// payload)` in write order.
    pub records: Vec<(u64, String)>,
    /// Bytes up to the end of the last valid record.
    pub valid_bytes: u64,
    /// Torn bytes after `valid_bytes` (`0` when the log ends cleanly).
    pub torn_bytes: u64,
}

/// Frame one payload as a record.
pub(crate) fn frame(payload: &str) -> Vec<u8> {
    let mut rec = format!(
        "rec {} {:016x}\n",
        payload.len(),
        fnv1a([payload.as_bytes()])
    )
    .into_bytes();
    rec.extend_from_slice(payload.as_bytes());
    rec.push(b'\n');
    rec
}

/// The record starting at `offset`: its payload and the offset one
/// past it, or `None` if the bytes there are not one complete valid
/// record.
fn next_record(bytes: &[u8], offset: usize) -> Option<(&str, usize)> {
    let rest = &bytes[offset..];
    let nl = rest.iter().position(|&b| b == b'\n')?;
    let mut toks = std::str::from_utf8(&rest[..nl]).ok()?.split(' ');
    if toks.next() != Some("rec") {
        return None;
    }
    let len: usize = toks.next()?.parse().ok()?;
    let sum = toks.next().filter(|t| t.len() == 16)?;
    let sum = u64::from_str_radix(sum, 16).ok()?;
    if toks.next().is_some() {
        return None;
    }
    let body = nl + 1;
    let payload = rest.get(body..body + len)?;
    if rest.get(body + len) != Some(&b'\n') || fnv1a([payload]) != sum {
        return None;
    }
    Some((std::str::from_utf8(payload).ok()?, offset + body + len + 1))
}

/// Could `bytes` be the start of one record cut short by a crash?
fn is_record_prefix(bytes: &[u8]) -> bool {
    let nl = bytes.iter().position(|&b| b == b'\n');
    let head = &bytes[..nl.unwrap_or(bytes.len())];
    let Ok(head) = std::str::from_utf8(head) else {
        return false;
    };
    let mut toks = head.split(' ');
    let tag = toks.next().unwrap_or("");
    if !"rec".starts_with(tag) {
        return false;
    }
    let (len, sum) = (toks.next(), toks.next());
    let digits = |t: Option<&str>, max: usize, radix: u32| {
        t.is_none_or(|t| t.len() <= max && t.chars().all(|c| c.is_digit(radix)))
    };
    if (tag != "rec" && len.is_some())
        || toks.next().is_some()
        || !digits(len, 20, 10)
        || !digits(sum, 16, 16)
    {
        return false;
    }
    match nl {
        None => true,
        // A complete frame header: the payload (plus its newline) must
        // still be missing, or the record was complete and invalid.
        Some(nl) => {
            let (Some(len), Some(sum)) = (len.and_then(|l| l.parse::<usize>().ok()), sum) else {
                return false;
            };
            sum.len() == 16 && bytes.len() - nl - 1 <= len
        }
    }
}

/// Valid records at or after `from`, found by trying every line start
/// (the damage-accounting path; never on a clean log).
fn valid_records_after(bytes: &[u8], from: usize) -> usize {
    let mut count = 0;
    let mut pos = from;
    while pos < bytes.len() {
        match next_record(bytes, pos) {
            Some((_, end)) => {
                count += 1;
                pos = end;
            }
            None => match bytes[pos..].iter().position(|&b| b == b'\n') {
                Some(i) => pos += i + 1,
                None => break,
            },
        }
    }
    count
}

/// Does header payload `header` belong to one of `kinds` (each a
/// `"<kind> <version>"` prefix)?
fn accepts(kinds: &[&str], header: &str) -> bool {
    kinds.iter().any(|k| {
        header
            .strip_prefix(k)
            .is_some_and(|rest| rest.is_empty() || rest.starts_with(' '))
    })
}

/// Classify a log's bytes. A missing header (empty file, or a header
/// torn mid-append) scans as an empty header with the whole file torn.
pub fn scan(key: &str, bytes: &[u8], kinds: &[&str]) -> Result<Scan, LogError> {
    let mut out = Scan {
        header: String::new(),
        records: Vec::new(),
        valid_bytes: 0,
        torn_bytes: bytes.len() as u64,
    };
    let Some((header, mut pos)) = next_record(bytes, 0).filter(|(h, _)| accepts(kinds, h)) else {
        if is_record_prefix(bytes) {
            return Ok(out);
        }
        let first = bytes.split(|&b| b == b'\n').next().unwrap_or_default();
        return Err(LogError::Foreign {
            key: key.to_string(),
            first_line: String::from_utf8_lossy(first).into_owned(),
            expected: kinds.join(" or "),
        });
    };
    out.header = header.to_string();
    while let Some((payload, end)) = next_record(bytes, pos) {
        out.records.push((pos as u64, payload.to_string()));
        pos = end;
    }
    if pos < bytes.len() {
        let dropped = valid_records_after(bytes, pos + 1);
        if dropped > 0 {
            return Err(LogError::Corrupt {
                key: key.to_string(),
                offset: pos as u64,
                dropped,
            });
        }
    }
    out.valid_bytes = pos as u64;
    out.torn_bytes = (bytes.len() - pos) as u64;
    Ok(out)
}

/// What [`repair`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Repair {
    /// The log as it stands after the repair.
    pub scan: Scan,
    /// Bytes cut off the end.
    pub cut_bytes: u64,
    /// Valid records after the damage that the cut dropped.
    pub dropped_records: usize,
}

/// Truncate a torn tail or a damaged suffix (the doctor's `--fix`).
/// Foreign files are refused, never touched.
pub fn repair(store: &Store, key: &str, kinds: &[&str]) -> Result<Repair, LogError> {
    let bytes = store.get(key)?.unwrap_or_default();
    let (cut_at, dropped_records) = match scan(key, &bytes, kinds) {
        Ok(s) => (s.valid_bytes, 0),
        Err(LogError::Corrupt {
            offset, dropped, ..
        }) => (offset, dropped),
        Err(e) => return Err(e),
    };
    store.truncate(key, cut_at)?;
    Ok(Repair {
        scan: scan(key, &bytes[..cut_at as usize], kinds)?,
        cut_bytes: bytes.len() as u64 - cut_at,
        dropped_records,
    })
}

/// An open log: appends go to the end of the last valid record.
#[derive(Debug)]
pub struct RecordLog {
    store: Store,
    key: String,
    /// Length of the log as of the last successful append.
    end: u64,
    /// A failed append may have left a torn prefix past `end`.
    dirty: bool,
}

impl RecordLog {
    /// Open the log at `key`, creating it with `header` when it is
    /// missing or holds nothing but a torn header. An existing log must
    /// carry exactly `header`; its torn tail is truncated, its records
    /// returned. Corrupt and foreign files are errors and stay as they
    /// are.
    pub fn open(store: &Store, key: &str, header: &str) -> Result<(RecordLog, Scan), LogError> {
        let kind: String = header.split(' ').take(2).collect::<Vec<_>>().join(" ");
        let bytes = store.get(key)?.unwrap_or_default();
        let mut scan = scan(key, &bytes, &[&kind])?;
        if !scan.header.is_empty() && scan.header != header {
            return Err(LogError::HeaderMismatch {
                key: key.to_string(),
                found: scan.header,
                expected: header.to_string(),
            });
        }
        if scan.torn_bytes > 0 {
            store.truncate(key, scan.valid_bytes)?;
        }
        let mut log = RecordLog {
            store: store.clone(),
            key: key.to_string(),
            end: scan.valid_bytes,
            dirty: false,
        };
        if scan.header.is_empty() {
            log.append(header)?;
            scan.header = header.to_string();
            scan.valid_bytes = log.end;
        }
        Ok((log, scan))
    }

    /// The log's storage key.
    pub fn key(&self) -> &str {
        &self.key
    }

    /// Append one record and fsync. [`Store::append_durable`] cuts its
    /// own torn retries; if the append fails for good, the next one
    /// first cuts back to the last good record, so a failed append can
    /// never sit in front of a later valid record.
    pub fn append(&mut self, payload: &str) -> Result<(), StorageError> {
        if self.dirty {
            self.store.truncate(&self.key, self.end)?;
            self.dirty = false;
        }
        let rec = frame(payload);
        match self.store.append_durable(&self.key, &rec) {
            Ok(()) => {
                self.end += rec.len() as u64;
                Ok(())
            }
            Err(e) => {
                self.dirty = true;
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEY: &str = "t.log";

    fn inspect(store: &Store, key: &str, kinds: &[&str]) -> Result<Scan, LogError> {
        scan(key, &store.get(key)?.unwrap_or_default(), kinds)
    }

    fn log_with(store: &Store, payloads: &[&str]) -> Vec<u8> {
        let (mut log, _) = RecordLog::open(store, KEY, "test 1 abc").unwrap();
        for p in payloads {
            log.append(p).unwrap();
        }
        store.get(KEY).unwrap().unwrap()
    }

    #[test]
    fn fnv1a_chunks_hash_as_their_concatenation() {
        assert_eq!(fnv1a([&b"ab"[..], b"c"]), fnv1a([&b"abc"[..]]));
        assert_eq!(fnv1a([]), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn open_writes_the_header_and_replays_records() {
        let store = Store::in_memory();
        let bytes = log_with(&store, &["one", "two\nlines"]);
        assert!(bytes.starts_with(b"rec 10 "), "{bytes:?}");
        let (_, scan) = RecordLog::open(&store, KEY, "test 1 abc").unwrap();
        assert_eq!(scan.header, "test 1 abc");
        let payloads: Vec<&str> = scan.records.iter().map(|(_, p)| p.as_str()).collect();
        assert_eq!(payloads, ["one", "two\nlines"]);
        assert_eq!(scan.torn_bytes, 0);
        assert_eq!(scan.valid_bytes, bytes.len() as u64);
    }

    #[test]
    fn every_cut_is_a_torn_tail_that_open_truncates() {
        let store = Store::in_memory();
        let full = log_with(&store, &["alpha", "beta"]);
        let mut clean_cuts = 0;
        for cut in 0..=full.len() {
            store.put_atomic(KEY, &full[..cut]).unwrap();
            let scan = inspect(&store, KEY, &["test 1"]).unwrap_or_else(|e| panic!("{cut}: {e}"));
            assert_eq!(scan.valid_bytes + scan.torn_bytes, cut as u64);
            clean_cuts += usize::from(scan.torn_bytes == 0);
            let (_, opened) = RecordLog::open(&store, KEY, "test 1 abc").unwrap();
            assert_eq!(opened.records.len(), scan.records.len());
            let after = inspect(&store, KEY, &["test 1"]).unwrap();
            assert_eq!(after.torn_bytes, 0, "cut at {cut}: open left a torn tail");
        }
        // Clean cuts: the empty file plus one per record boundary.
        assert_eq!(clean_cuts, 4);
    }

    #[test]
    fn an_invalid_record_before_a_valid_one_is_corrupt() {
        let store = Store::in_memory();
        let full = log_with(&store, &["alpha", "beta", "gamma"]);
        let text = String::from_utf8(full).unwrap();
        let offset = text.find("rec 5 ").unwrap();
        let damaged = text.replacen("alpha", "alpho", 1);
        store.put_atomic(KEY, damaged.as_bytes()).unwrap();
        match RecordLog::open(&store, KEY, "test 1 abc") {
            Err(LogError::Corrupt {
                offset: at,
                dropped,
                ..
            }) => assert_eq!((at, dropped), (offset as u64, 2)),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        assert_eq!(store.get(KEY).unwrap().unwrap(), damaged.as_bytes());
        let fixed = repair(&store, KEY, &["test 1"]).unwrap();
        assert_eq!(fixed.dropped_records, 2);
        assert!(fixed.scan.records.is_empty());
        assert_eq!(
            store.len(KEY).unwrap().unwrap(),
            offset as u64,
            "repair cuts at the damage"
        );
    }

    #[test]
    fn foreign_files_are_refused_and_left_alone() {
        let store = Store::in_memory();
        for old in [
            &b"sbgp-joblog 1\nsub 29c28158a95da19f 66 61 63\n"[..],
            b"sbgp-checkpoint v2\nfingerprint 00\n",
            b"rec 3 0000000000000000\nabc\n",
            b"garbage",
        ] {
            store.put_atomic(KEY, old).unwrap();
            let err = RecordLog::open(&store, KEY, "test 1 abc").unwrap_err();
            assert!(matches!(err, LogError::Foreign { .. }), "{err}");
            assert!(err.to_string().contains("delete it and rerun"), "{err}");
            assert!(err.to_string().contains("line 1"), "{err}");
            assert_eq!(store.get(KEY).unwrap().unwrap(), old);
            assert!(repair(&store, KEY, &["test 1"]).is_err());
            assert_eq!(store.get(KEY).unwrap().unwrap(), old);
        }
        // Same kind, another version: just as foreign.
        let (_, _) = RecordLog::open(&store, "v2.log", "test 2").unwrap();
        assert!(matches!(
            RecordLog::open(&store, "v2.log", "test 1"),
            Err(LogError::Foreign { .. })
        ));
        // Same kind and version, other parameters: a mismatch.
        RecordLog::open(&store, "m.log", "test 1 a").unwrap();
        assert!(matches!(
            RecordLog::open(&store, "m.log", "test 1 b"),
            Err(LogError::HeaderMismatch { .. })
        ));
    }

    #[test]
    fn a_failed_append_is_cut_before_the_next_one() {
        use crate::storage::{DiskChaosProfile, LocalDisk, RetryPolicy};
        let dir = std::env::temp_dir().join(format!("sbgp-recordlog-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let clean = Store::localdisk(&dir);
        let (mut dying, _) = RecordLog::open(&clean, KEY, "test 1").unwrap();
        dying.append("kept").unwrap();
        let torn = Store::with_chaos(
            LocalDisk::new(&dir),
            DiskChaosProfile::parse("torn=1,seed=1").unwrap(),
        )
        .with_retry(RetryPolicy::none());
        dying.store = torn;
        dying.append("lost").unwrap_err();
        assert!(inspect(&clean, KEY, &["test 1"]).unwrap().torn_bytes > 0);
        dying.store = clean.clone();
        dying.append("next").unwrap();
        let scan = inspect(&clean, KEY, &["test 1"]).unwrap();
        let payloads: Vec<&str> = scan.records.iter().map(|(_, p)| p.as_str()).collect();
        assert_eq!(payloads, ["kept", "next"]);
        assert_eq!(scan.torn_bytes, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

//! Pluggable, fault-injectable storage for durable sweep artifacts.
//!
//! Every durable artifact the harness produces — sweep checkpoints,
//! write-ahead unit journals, advisory sweep locks, figure CSVs, bench
//! history — used to be a bespoke path on one machine's disk with its
//! own hand-rolled fsync/rename code. This module carves that into a
//! [`StorageBackend`] trait whose contract codifies the invariants the
//! checkpoint layer has always fought for:
//!
//! * **Atomic replace** ([`StorageBackend::put_atomic`]): a reader (or
//!   a crash) at any instant sees either the fully-old or the
//!   fully-new value, never a torn mixture, and the new value is
//!   durable (parent-directory fsync included) when the call returns;
//! * **Durable appends** ([`StorageBackend::append_durable`]): bytes
//!   are on stable storage when the call returns; on failure a
//!   *prefix* of the bytes may have landed (a torn tail), which is why
//!   the record log checksums its records and truncates torn tails;
//! * **Advisory locks** ([`StorageBackend::try_lock`] /
//!   [`StorageBackend::takeover`]): first-writer-wins acquisition with
//!   an explicit compare-and-swap takeover path for locks whose owner
//!   died;
//! * **Compare-and-swap** ([`StorageBackend::compare_and_swap`]):
//!   conditional replace, the primitive locks and takeover build on.
//!
//! Three implementations ship:
//!
//! * [`LocalDisk`] — the extraction of the checkpoint/journal/lock
//!   file code, byte-for-byte compatible with artifacts written before
//!   this module existed;
//! * [`InMemory`] — a `HashMap` behind a mutex, for tests and the
//!   future serve daemon;
//! * [`FaultStore`] — a chaos wrapper injecting EIO, ENOSPC, torn and
//!   short writes, crash-before-rename, read corruption, and latency
//!   from a deterministic per-operation schedule
//!   ([`DiskChaosProfile`], the `--disk-chaos` spec — the storage
//!   sibling of the transport's `--net-chaos`).
//!
//! On top of the trait sits [`Store`], the handle consumers actually
//! hold: it classifies every failure as transient or permanent
//! ([`StorageError::is_transient`]) and retries transient ones with
//! bounded exponential backoff ([`RetryPolicy`]), un-tearing its own
//! retried appends so a short write never corrupts a journal mid-file.

mod chaos;
mod localdisk;
mod memory;

pub use chaos::{DiskChaosProfile, DiskFaultLedger, FaultStore};
pub use localdisk::LocalDisk;
pub use memory::InMemory;

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// How a storage failure should be treated by the retry layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorClass {
    /// Worth retrying: interrupted syscalls, timeouts, device-level
    /// read errors, and `ENOSPC` (on shared scratch disks space is
    /// routinely freed by a compaction or another run finishing — a
    /// bounded retry converts a blip into a non-event, and a truly
    /// full disk still fails after the budget).
    Transient,
    /// Retrying cannot help: permission errors, invalid keys, a lock
    /// held by a live owner, corruption the caller must handle.
    Permanent,
}

/// A typed storage failure: which backend, which operation, which key,
/// and whether retrying may help.
#[derive(Debug, Clone)]
pub struct StorageError {
    /// The backend that failed (`localdisk`, `memory`, `fault(…)`).
    pub backend: &'static str,
    /// The operation that failed (`put_atomic`, `append_durable`, …).
    pub op: &'static str,
    /// The key involved.
    pub key: String,
    /// Transient (retry) or permanent (give up).
    pub class: ErrorClass,
    /// What went wrong.
    pub message: String,
}

impl StorageError {
    /// Whether the retry layer should try again.
    pub fn is_transient(&self) -> bool {
        self.class == ErrorClass::Transient
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} on {:?}: {} ({})",
            self.backend,
            self.op,
            self.key,
            self.message,
            match self.class {
                ErrorClass::Transient => "transient",
                ErrorClass::Permanent => "permanent",
            }
        )
    }
}

impl std::error::Error for StorageError {}

/// Classify an I/O error: interruptions, timeouts, and full disks are
/// transient (see [`ErrorClass::Transient`]); everything else is
/// permanent.
pub fn classify_io(e: &std::io::Error) -> ErrorClass {
    use std::io::ErrorKind;
    match e.kind() {
        ErrorKind::Interrupted | ErrorKind::WouldBlock | ErrorKind::TimedOut => {
            ErrorClass::Transient
        }
        // ENOSPC / EDQUOT: space comes back on busy scratch disks.
        _ if matches!(e.raw_os_error(), Some(28) | Some(122)) => ErrorClass::Transient,
        _ => ErrorClass::Permanent,
    }
}

/// Outcome of a lock acquisition attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LockOutcome {
    /// The lock is now (or already was, re-entrantly) held by the
    /// requesting owner.
    Acquired,
    /// Someone else holds it; the caller decides whether the holder is
    /// dead and a [`StorageBackend::takeover`] is warranted.
    Held {
        /// The current holder's owner string (e.g. `pid 4242`).
        owner: String,
    },
}

/// The pluggable persistence contract for durable sweep artifacts.
///
/// Keys are relative, `/`-separated paths (`checkpoints/fig9.ckpt`).
/// Implementations must reject absolute keys and `..` components.
/// All methods take `&self`: backends are shared (`Arc`) across the
/// harness and use interior mutability where they need it.
pub trait StorageBackend: Send + Sync {
    /// Short backend name for error messages and `doctor` output.
    fn name(&self) -> &'static str;

    /// Atomically replace `key` with `bytes`, durably: after `Ok`, a
    /// crash (or power loss) leaves the new value; on `Err`, the old
    /// value (or absence) is untouched. Never leaves a torn mixture.
    fn put_atomic(&self, key: &str, bytes: &[u8]) -> Result<(), StorageError>;

    /// The full value of `key`, or `None` if it does not exist.
    fn get(&self, key: &str) -> Result<Option<Vec<u8>>, StorageError>;

    /// Keys starting with `prefix`, sorted. A prefix matching nothing
    /// lists empty, not an error.
    fn list(&self, prefix: &str) -> Result<Vec<String>, StorageError>;

    /// Append `bytes` to `key` (creating it if missing) and flush to
    /// stable storage. On `Err`, a *prefix* of `bytes` may have landed
    /// — callers needing record integrity must frame/checksum their
    /// records (the record log does) or go through [`Store`], which
    /// truncates back before retrying.
    fn append_durable(&self, key: &str, bytes: &[u8]) -> Result<(), StorageError>;

    /// Current length of `key` in bytes, or `None` if it is missing.
    fn len(&self, key: &str) -> Result<Option<u64>, StorageError>;

    /// Truncate `key` to `len` bytes, durably. `truncate(key, 0)` on a
    /// missing key creates it empty (journal reset); truncating a
    /// missing key to a non-zero length is a permanent error.
    fn truncate(&self, key: &str, len: u64) -> Result<(), StorageError>;

    /// Remove `key`; removing a missing key is a no-op, not an error.
    fn delete(&self, key: &str) -> Result<(), StorageError>;

    /// Conditionally replace `key`: succeeds (returning `true`) iff the
    /// current value matches `expected` (`None` = key must not exist).
    /// On `false`, nothing changed. The swap itself has `put_atomic`
    /// durability.
    fn compare_and_swap(
        &self,
        key: &str,
        expected: Option<&[u8]>,
        new: &[u8],
    ) -> Result<bool, StorageError>;

    /// Try to take the advisory lock `key` for `owner` (an arbitrary
    /// string, conventionally `pid <N>`). First writer wins; holding
    /// it already is re-entrant `Acquired`.
    fn try_lock(&self, key: &str, owner: &str) -> Result<LockOutcome, StorageError> {
        let want = lock_bytes(owner);
        if self.compare_and_swap(key, None, &want)? {
            return Ok(LockOutcome::Acquired);
        }
        match self.get(key)? {
            Some(held) if held == want => Ok(LockOutcome::Acquired),
            Some(held) => Ok(LockOutcome::Held {
                owner: lock_owner(&held),
            }),
            // Raced with an unlock: the caller simply tries again.
            None => Ok(LockOutcome::Held {
                owner: String::new(),
            }),
        }
    }

    /// Steal the lock `key` from `from` (a dead owner, per the
    /// caller's liveness policy) for `to`. Returns `false` if the
    /// holder changed in the meantime — never steals from a holder the
    /// caller did not name.
    fn takeover(&self, key: &str, from: &str, to: &str) -> Result<bool, StorageError> {
        self.compare_and_swap(key, Some(&lock_bytes(from)), &lock_bytes(to))
    }

    /// Release the lock `key` if `owner` holds it (a no-op otherwise —
    /// a lock stolen after our death is not ours to remove).
    fn unlock(&self, key: &str, owner: &str) -> Result<(), StorageError> {
        if let Some(held) = self.get(key)? {
            if held == lock_bytes(owner) {
                self.delete(key)?;
            }
        }
        Ok(())
    }

    /// Chaos hook: leave whatever artifact a crash between the
    /// temporary write and the atomic publish of `put_atomic(key,
    /// bytes)` would leave (for [`LocalDisk`], a fully-written stray
    /// `<key>.tmp`). Real backends never call this; [`FaultStore`]
    /// does, so crash-before-rename torture leaves authentic debris
    /// for loaders and `doctor` to prove themselves against.
    fn spill_tmp(&self, _key: &str, _bytes: &[u8]) -> Result<(), StorageError> {
        Ok(())
    }
}

/// The canonical on-storage encoding of a lock owner (`<owner>\n` —
/// exactly what the pre-trait lock files contained).
fn lock_bytes(owner: &str) -> Vec<u8> {
    format!("{owner}\n").into_bytes()
}

/// Decode a lock value back to its owner string.
fn lock_owner(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).trim_end().to_string()
}

/// Validate a storage key: relative, non-empty, no `..`, no absolute
/// or drive-ish components. Shared by every backend.
pub(crate) fn check_key(
    backend: &'static str,
    op: &'static str,
    key: &str,
) -> Result<(), StorageError> {
    let bad = |message: String| StorageError {
        backend,
        op,
        key: key.to_string(),
        class: ErrorClass::Permanent,
        message,
    };
    if key.is_empty() {
        return Err(bad("empty key".into()));
    }
    if key.starts_with('/') || key.starts_with('\\') {
        return Err(bad("absolute keys are not allowed".into()));
    }
    for part in key.split(['/', '\\']) {
        if part.is_empty() {
            return Err(bad("empty path component".into()));
        }
        if part == ".." {
            return Err(bad("`..` components are not allowed".into()));
        }
    }
    Ok(())
}

/// Bounded exponential backoff for transient storage failures.
///
/// Deterministic (no jitter): attempt `i` sleeps `base · 2^i`, capped
/// at `max_delay`. The defaults (5 retries from 2 ms, capped at 100
/// ms) keep a flaky-disk blip invisible while bounding a truly dead
/// disk's cost to well under a second per operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 = fail fast).
    pub max_retries: u32,
    /// Sleep before the first retry.
    pub base_delay: Duration,
    /// Ceiling on any single sleep.
    pub max_delay: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 5,
            base_delay: Duration::from_millis(2),
            max_delay: Duration::from_millis(100),
        }
    }
}

impl RetryPolicy {
    /// No retries at all — the raw backend behavior, for tests that
    /// assert on individual fault points.
    pub fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
        }
    }

    /// The sleep before retry number `retry` (0-based).
    fn delay(&self, retry: u32) -> Duration {
        let mul = 1u32.checked_shl(retry).unwrap_or(u32::MAX);
        self.base_delay
            .checked_mul(mul)
            .unwrap_or(self.max_delay)
            .min(self.max_delay)
    }

    /// Run `op`, retrying transient failures within the budget.
    fn run<T>(&self, mut op: impl FnMut() -> Result<T, StorageError>) -> Result<T, StorageError> {
        let mut retry = 0u32;
        loop {
            match op() {
                Ok(v) => return Ok(v),
                Err(e) if e.is_transient() && retry < self.max_retries => {
                    std::thread::sleep(self.delay(retry));
                    retry += 1;
                }
                Err(mut e) => {
                    if retry > 0 {
                        e.message = format!("{} (after {} retries)", e.message, retry);
                    }
                    return Err(e);
                }
            }
        }
    }
}

/// The handle consumers hold: a shared backend plus the retry policy,
/// cheap to clone. All idempotent operations retry transparently;
/// [`Store::append_durable`] additionally truncates its own torn
/// retries back to the pre-append length, so going through `Store`
/// never leaves a half-record *followed by* its complete twin.
#[derive(Clone)]
pub struct Store {
    backend: Arc<dyn StorageBackend>,
    retry: RetryPolicy,
    /// Injected-fault counters when the backend chain contains a
    /// [`FaultStore`]; lets the harness report what the run survived.
    ledger: Option<DiskFaultLedger>,
}

impl fmt::Debug for Store {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Store")
            .field("backend", &self.backend.name())
            .field("retry", &self.retry)
            .finish()
    }
}

impl Store {
    /// A store over `backend` with the default retry policy.
    pub fn new(backend: impl StorageBackend + 'static) -> Self {
        Store {
            backend: Arc::new(backend),
            retry: RetryPolicy::default(),
            ledger: None,
        }
    }

    /// A local-disk store rooted at `root`.
    pub fn localdisk(root: impl Into<std::path::PathBuf>) -> Self {
        Self::new(LocalDisk::new(root))
    }

    /// An in-memory store (tests, the future serve daemon).
    pub fn in_memory() -> Self {
        Self::new(InMemory::new())
    }

    /// Wrap `backend` in seeded disk-fault injection. The ledger is
    /// kept so [`Store::fault_ledger`] can report injected counts.
    pub fn with_chaos(backend: impl StorageBackend + 'static, profile: DiskChaosProfile) -> Self {
        let fault = FaultStore::new(backend, profile);
        let ledger = fault.ledger();
        Store {
            backend: Arc::new(fault),
            retry: RetryPolicy::default(),
            ledger: Some(ledger),
        }
    }

    /// Replace the retry policy (builder-style).
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// The injected-fault ledger, if this store injects faults.
    pub fn fault_ledger(&self) -> Option<&DiskFaultLedger> {
        self.ledger.as_ref()
    }

    /// The underlying backend's name.
    pub fn backend_name(&self) -> &'static str {
        self.backend.name()
    }

    /// See [`StorageBackend::put_atomic`]; transient failures retry.
    pub fn put_atomic(&self, key: &str, bytes: &[u8]) -> Result<(), StorageError> {
        self.retry.run(|| self.backend.put_atomic(key, bytes))
    }

    /// See [`StorageBackend::get`]; transient failures retry.
    pub fn get(&self, key: &str) -> Result<Option<Vec<u8>>, StorageError> {
        self.retry.run(|| self.backend.get(key))
    }

    /// See [`StorageBackend::list`]; transient failures retry.
    pub fn list(&self, prefix: &str) -> Result<Vec<String>, StorageError> {
        self.retry.run(|| self.backend.list(prefix))
    }

    /// Append with torn-retry protection: the pre-append length is
    /// recorded, and every retry first truncates back to it, so a
    /// short write followed by a successful retry leaves exactly one
    /// copy of `bytes` — never a torn prefix in front of it.
    pub fn append_durable(&self, key: &str, bytes: &[u8]) -> Result<(), StorageError> {
        let start = self.len(key)?.unwrap_or(0);
        let mut first = true;
        self.retry.run(|| {
            if !first {
                // A failed attempt may have landed a prefix; cut it.
                self.backend.truncate(key, start)?;
            }
            first = false;
            self.backend.append_durable(key, bytes)
        })
    }

    /// See [`StorageBackend::len`]; transient failures retry.
    pub fn len(&self, key: &str) -> Result<Option<u64>, StorageError> {
        self.retry.run(|| self.backend.len(key))
    }

    /// See [`StorageBackend::truncate`]; transient failures retry.
    pub fn truncate(&self, key: &str, len: u64) -> Result<(), StorageError> {
        self.retry.run(|| self.backend.truncate(key, len))
    }

    /// See [`StorageBackend::delete`]; transient failures retry.
    pub fn delete(&self, key: &str) -> Result<(), StorageError> {
        self.retry.run(|| self.backend.delete(key))
    }

    /// See [`StorageBackend::compare_and_swap`]; transient failures
    /// retry (safe: a CAS that already applied fails its retry with
    /// `false` only if the value moved on, which callers treat as a
    /// lost race — the conservative outcome).
    pub fn compare_and_swap(
        &self,
        key: &str,
        expected: Option<&[u8]>,
        new: &[u8],
    ) -> Result<bool, StorageError> {
        self.retry
            .run(|| self.backend.compare_and_swap(key, expected, new))
    }

    /// See [`StorageBackend::try_lock`]; transient failures retry.
    pub fn try_lock(&self, key: &str, owner: &str) -> Result<LockOutcome, StorageError> {
        self.retry.run(|| self.backend.try_lock(key, owner))
    }

    /// See [`StorageBackend::takeover`]; transient failures retry.
    pub fn takeover(&self, key: &str, from: &str, to: &str) -> Result<bool, StorageError> {
        self.retry.run(|| self.backend.takeover(key, from, to))
    }

    /// See [`StorageBackend::unlock`]; transient failures retry.
    pub fn unlock(&self, key: &str, owner: &str) -> Result<(), StorageError> {
        self.retry.run(|| self.backend.unlock(key, owner))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_policy_backoff_is_bounded() {
        let p = RetryPolicy::default();
        assert_eq!(p.delay(0), Duration::from_millis(2));
        assert_eq!(p.delay(1), Duration::from_millis(4));
        assert!(p.delay(40) <= p.max_delay);
    }

    #[test]
    fn retry_runs_transient_until_budget() {
        let p = RetryPolicy {
            max_retries: 3,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
        };
        let mut calls = 0;
        let out: Result<(), _> = p.run(|| {
            calls += 1;
            Err(StorageError {
                backend: "test",
                op: "op",
                key: "k".into(),
                class: ErrorClass::Transient,
                message: "flaky".into(),
            })
        });
        assert_eq!(calls, 4);
        let e = out.unwrap_err();
        assert!(e.message.contains("after 3 retries"), "{e}");

        let mut calls = 0;
        let out: Result<(), _> = p.run(|| {
            calls += 1;
            Err(StorageError {
                backend: "test",
                op: "op",
                key: "k".into(),
                class: ErrorClass::Permanent,
                message: "dead".into(),
            })
        });
        assert_eq!(calls, 1, "permanent errors must not retry");
        assert!(out.is_err());
    }

    #[test]
    fn keys_are_validated() {
        assert!(check_key("t", "op", "a/b/c.ckpt").is_ok());
        assert!(check_key("t", "op", "").is_err());
        assert!(check_key("t", "op", "/abs").is_err());
        assert!(check_key("t", "op", "a/../b").is_err());
        assert!(check_key("t", "op", "a//b").is_err());
    }

    #[test]
    fn enospc_classifies_transient() {
        let e = std::io::Error::from_raw_os_error(28);
        assert_eq!(classify_io(&e), ErrorClass::Transient);
        let e = std::io::Error::new(std::io::ErrorKind::PermissionDenied, "nope");
        assert_eq!(classify_io(&e), ErrorClass::Permanent);
    }
}

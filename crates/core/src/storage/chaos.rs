//! Seeded disk-fault injection — the storage sibling of the frame
//! transport's `--net-chaos`.
//!
//! [`FaultStore`] wraps any [`StorageBackend`] and injects EIO,
//! ENOSPC, torn/short writes, crash-before-rename, detected read
//! corruption, and latency from a deterministic schedule: a seeded RNG
//! draws one decision per fault category per storage operation, in a
//! fixed order, so the fault sequence is a pure function of
//! `(seed, operation index)` — rerunning the same sweep under the same
//! [`DiskChaosProfile`] injects the same faults at the same points.
//!
//! Fault semantics are chosen to match what real disks do *and* what
//! the recovery layer can legitimately survive:
//!
//! * **crash** (before rename): `put_atomic` writes the full
//!   temporary file via [`StorageBackend::spill_tmp`] and then fails —
//!   the target key keeps its old value and a stray `.tmp` is left
//!   behind, exactly the debris a power cut between tmp-write and
//!   rename leaves;
//! * **torn**: `put_atomic` spills *half* the temporary file;
//!   `append_durable` really appends half the record to the inner
//!   backend, then fails — the record log's torn-tail truncation must
//!   cut the partial record off;
//! * **enospc** / **eio**: the operation fails before touching the
//!   inner backend (a full disk rejects the write; a flaky bus errors
//!   it);
//! * **corrupt** (reads): surfaced as a *detected* transient read
//!   error, the way a checksumming block layer reports a bad sector —
//!   not as silently flipped bytes. Silent corruption cannot be
//!   survived by any recovery protocol (it is indistinguishable from
//!   valid data); detected corruption must be, via retry;
//! * **latency**: the operation sleeps, then proceeds — recovery code
//!   must not depend on storage being fast.
//!
//! All injected failures classify as [`ErrorClass::Transient`], and
//! every injection increments a shared [`DiskFaultLedger`], so the
//! harness can report what a torture run actually survived.

use super::{ErrorClass, StorageBackend, StorageError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Per-operation fault rates of a disk-chaos schedule. All
/// probabilities are per storage operation; `latency_ms` applies when
/// a latency fault fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskChaosProfile {
    /// Probability an operation fails with an injected I/O error.
    pub eio: f64,
    /// Probability a write fails as if the disk were full.
    pub enospc: f64,
    /// Probability a write lands only a torn prefix before failing.
    pub torn: f64,
    /// Probability an atomic replace dies after the temporary write
    /// but before the rename (full stray `.tmp`, old value intact).
    pub crash: f64,
    /// Probability a read fails with detected (checksum-style)
    /// corruption.
    pub corrupt: f64,
    /// Probability an operation is delayed by [`Self::latency_ms`].
    pub latency: f64,
    /// Delay length when a latency fault fires.
    pub latency_ms: u64,
    /// Seed of the deterministic schedule.
    pub seed: u64,
}

impl Default for DiskChaosProfile {
    fn default() -> Self {
        DiskChaosProfile {
            eio: 0.0,
            enospc: 0.0,
            torn: 0.0,
            crash: 0.0,
            corrupt: 0.0,
            latency: 0.0,
            latency_ms: 5,
            seed: 0,
        }
    }
}

impl DiskChaosProfile {
    /// Parse a compact spec like
    /// `eio=0.05,enospc=0.02,torn=0.03,crash=0.02,corrupt=0.03,latency=0.1,latency-ms=5,seed=7`
    /// (the `--disk-chaos` grammar, mirroring `--net-chaos`). Unknown
    /// keys, out-of-range rates, and malformed numbers are errors
    /// naming the offending field.
    pub fn parse(spec: &str) -> Result<DiskChaosProfile, String> {
        let mut p = DiskChaosProfile::default();
        for field in spec.split(',').filter(|f| !f.trim().is_empty()) {
            let (key, value) = field
                .split_once('=')
                .ok_or_else(|| format!("disk-chaos spec field {field:?}: expected key=value"))?;
            let key = key.trim();
            let value = value.trim();
            let rate = |what: &str| -> Result<f64, String> {
                let r: f64 = value
                    .parse()
                    .map_err(|_| format!("disk-chaos spec {what}: bad rate {value:?}"))?;
                if !(0.0..=1.0).contains(&r) {
                    return Err(format!("disk-chaos spec {what}: rate {r} outside [0, 1]"));
                }
                Ok(r)
            };
            match key {
                "eio" => p.eio = rate("eio")?,
                "enospc" => p.enospc = rate("enospc")?,
                "torn" => p.torn = rate("torn")?,
                "crash" => p.crash = rate("crash")?,
                "corrupt" => p.corrupt = rate("corrupt")?,
                "latency" => p.latency = rate("latency")?,
                "latency-ms" => {
                    p.latency_ms = value
                        .parse()
                        .map_err(|_| format!("disk-chaos spec latency-ms: bad value {value:?}"))?
                }
                "seed" => {
                    p.seed = value
                        .parse()
                        .map_err(|_| format!("disk-chaos spec seed: bad value {value:?}"))?
                }
                other => return Err(format!("disk-chaos spec: unknown key {other:?}")),
            }
        }
        Ok(p)
    }

    /// Render the profile back to the compact spec [`Self::parse`]
    /// accepts — `parse(p.spec()) == p` — so a profile can be handed
    /// to a child coordinator on its command line.
    pub fn spec(&self) -> String {
        format!(
            "eio={},enospc={},torn={},crash={},corrupt={},latency={},latency-ms={},seed={}",
            self.eio,
            self.enospc,
            self.torn,
            self.crash,
            self.corrupt,
            self.latency,
            self.latency_ms,
            self.seed
        )
    }

    /// Whether this profile injects anything at all.
    pub fn is_active(&self) -> bool {
        self.eio > 0.0
            || self.enospc > 0.0
            || self.torn > 0.0
            || self.crash > 0.0
            || self.corrupt > 0.0
            || self.latency > 0.0
    }
}

/// Per-kind counts of injected disk faults, shared between the
/// [`FaultStore`] and the harness's end-of-run report.
#[derive(Debug, Clone, Default)]
pub struct DiskFaultLedger {
    eio: Arc<AtomicU64>,
    enospc: Arc<AtomicU64>,
    torn: Arc<AtomicU64>,
    crash: Arc<AtomicU64>,
    corrupt: Arc<AtomicU64>,
    latency: Arc<AtomicU64>,
}

impl DiskFaultLedger {
    /// Total injected faults of every kind.
    pub fn total(&self) -> u64 {
        self.eio.load(Ordering::Relaxed)
            + self.enospc.load(Ordering::Relaxed)
            + self.torn.load(Ordering::Relaxed)
            + self.crash.load(Ordering::Relaxed)
            + self.corrupt.load(Ordering::Relaxed)
            + self.latency.load(Ordering::Relaxed)
    }

    /// `(kind, count)` pairs for every kind that fired at least once.
    pub fn counts(&self) -> Vec<(&'static str, u64)> {
        [
            ("eio", self.eio.load(Ordering::Relaxed)),
            ("enospc", self.enospc.load(Ordering::Relaxed)),
            ("torn", self.torn.load(Ordering::Relaxed)),
            ("crash", self.crash.load(Ordering::Relaxed)),
            ("corrupt", self.corrupt.load(Ordering::Relaxed)),
            ("latency", self.latency.load(Ordering::Relaxed)),
        ]
        .into_iter()
        .filter(|&(_, n)| n > 0)
        .collect()
    }
}

/// What the schedule decided for one storage operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    None,
    Eio,
    Enospc,
    Torn,
    Crash,
    Corrupt,
    Latency(u64),
}

/// The deterministic per-operation fault stream.
struct Schedule {
    profile: DiskChaosProfile,
    rng: StdRng,
}

impl Schedule {
    /// One draw per category, in a fixed order, so the schedule is a
    /// pure function of (seed, operation index). `write`/`read` select
    /// which faults can apply to this operation kind; inapplicable
    /// categories still consume their draw, keeping later operations'
    /// decisions independent of this one's kind.
    fn next_fault(&mut self, write: bool, read: bool) -> Fault {
        let p = self.profile;
        let eio = p.eio > 0.0 && self.rng.gen_bool(p.eio);
        let enospc = p.enospc > 0.0 && self.rng.gen_bool(p.enospc);
        let torn = p.torn > 0.0 && self.rng.gen_bool(p.torn);
        let crash = p.crash > 0.0 && self.rng.gen_bool(p.crash);
        let corrupt = p.corrupt > 0.0 && self.rng.gen_bool(p.corrupt);
        let latency = p.latency > 0.0 && self.rng.gen_bool(p.latency);
        if crash && write {
            return Fault::Crash;
        }
        if torn && write {
            return Fault::Torn;
        }
        if enospc && write {
            return Fault::Enospc;
        }
        if corrupt && read {
            return Fault::Corrupt;
        }
        if eio {
            return Fault::Eio;
        }
        if latency {
            return Fault::Latency(p.latency_ms);
        }
        Fault::None
    }
}

/// [`StorageBackend`] wrapper injecting faults from a
/// [`DiskChaosProfile`] schedule before delegating to the inner
/// backend.
pub struct FaultStore<B> {
    inner: B,
    schedule: Mutex<Schedule>,
    ledger: DiskFaultLedger,
}

impl<B: StorageBackend> FaultStore<B> {
    /// Wrap `inner` in the seeded fault schedule of `profile`.
    pub fn new(inner: B, profile: DiskChaosProfile) -> Self {
        FaultStore {
            inner,
            schedule: Mutex::new(Schedule {
                rng: StdRng::seed_from_u64(profile.seed ^ 0xd15c_c4a0_5bad_d15c),
                profile,
            }),
            ledger: DiskFaultLedger::default(),
        }
    }

    /// The shared injected-fault ledger.
    pub fn ledger(&self) -> DiskFaultLedger {
        self.ledger.clone()
    }

    /// The inner backend (tests inspect post-fault state through it).
    pub fn inner(&self) -> &B {
        &self.inner
    }

    fn draw(&self, write: bool, read: bool) -> Fault {
        let fault = match self.schedule.lock() {
            Ok(mut s) => s.next_fault(write, read),
            Err(_) => Fault::None,
        };
        let counter = match fault {
            Fault::None => None,
            Fault::Eio => Some(&self.ledger.eio),
            Fault::Enospc => Some(&self.ledger.enospc),
            Fault::Torn => Some(&self.ledger.torn),
            Fault::Crash => Some(&self.ledger.crash),
            Fault::Corrupt => Some(&self.ledger.corrupt),
            Fault::Latency(_) => Some(&self.ledger.latency),
        };
        if let Some(c) = counter {
            c.fetch_add(1, Ordering::Relaxed);
        }
        if let Fault::Latency(ms) = fault {
            std::thread::sleep(Duration::from_millis(ms));
            return Fault::None;
        }
        fault
    }

    fn injected(&self, op: &'static str, key: &str, what: &str) -> StorageError {
        StorageError {
            backend: "fault",
            op,
            key: key.to_string(),
            // Everything injected is transient: the schedule moves on,
            // so a retry hits a fresh draw — exactly how a flaky disk
            // behaves.
            class: ErrorClass::Transient,
            message: format!("injected {what}"),
        }
    }
}

impl<B: StorageBackend> StorageBackend for FaultStore<B> {
    fn name(&self) -> &'static str {
        "fault"
    }

    fn put_atomic(&self, key: &str, bytes: &[u8]) -> Result<(), StorageError> {
        let op = "put_atomic";
        match self.draw(true, false) {
            Fault::Crash => {
                // Power cut between tmp-write and rename: the full tmp
                // file exists, the target is untouched.
                self.inner.spill_tmp(key, bytes)?;
                Err(self.injected(op, key, "crash before rename (power cut)"))
            }
            Fault::Torn => {
                self.inner.spill_tmp(key, &bytes[..bytes.len() / 2])?;
                Err(self.injected(op, key, "torn write (partial temporary file)"))
            }
            Fault::Enospc => Err(self.injected(op, key, "ENOSPC (disk full)")),
            Fault::Eio => Err(self.injected(op, key, "EIO (write error)")),
            _ => self.inner.put_atomic(key, bytes),
        }
    }

    fn get(&self, key: &str) -> Result<Option<Vec<u8>>, StorageError> {
        match self.draw(false, true) {
            Fault::Corrupt => Err(self.injected(
                "get",
                key,
                "read corruption (device-level checksum mismatch)",
            )),
            Fault::Eio => Err(self.injected("get", key, "EIO (read error)")),
            _ => self.inner.get(key),
        }
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>, StorageError> {
        match self.draw(false, true) {
            Fault::Corrupt | Fault::Eio => {
                Err(self.injected("list", prefix, "EIO (directory read error)"))
            }
            _ => self.inner.list(prefix),
        }
    }

    fn append_durable(&self, key: &str, bytes: &[u8]) -> Result<(), StorageError> {
        let op = "append_durable";
        match self.draw(true, false) {
            Fault::Torn | Fault::Crash => {
                // A torn append really lands its prefix: the record
                // log's torn-tail truncation has to cut it off.
                self.inner.append_durable(key, &bytes[..bytes.len() / 2])?;
                Err(self.injected(op, key, "torn append (partial record on disk)"))
            }
            Fault::Enospc => Err(self.injected(op, key, "ENOSPC (disk full)")),
            Fault::Eio => Err(self.injected(op, key, "EIO (write error)")),
            _ => self.inner.append_durable(key, bytes),
        }
    }

    fn len(&self, key: &str) -> Result<Option<u64>, StorageError> {
        match self.draw(false, true) {
            Fault::Corrupt | Fault::Eio => Err(self.injected("len", key, "EIO (stat error)")),
            _ => self.inner.len(key),
        }
    }

    fn truncate(&self, key: &str, len: u64) -> Result<(), StorageError> {
        match self.draw(true, false) {
            Fault::Enospc | Fault::Eio | Fault::Torn | Fault::Crash => {
                Err(self.injected("truncate", key, "EIO (truncate error)"))
            }
            _ => self.inner.truncate(key, len),
        }
    }

    fn delete(&self, key: &str) -> Result<(), StorageError> {
        match self.draw(true, false) {
            Fault::Enospc | Fault::Eio | Fault::Torn | Fault::Crash => {
                Err(self.injected("delete", key, "EIO (unlink error)"))
            }
            _ => self.inner.delete(key),
        }
    }

    fn compare_and_swap(
        &self,
        key: &str,
        expected: Option<&[u8]>,
        new: &[u8],
    ) -> Result<bool, StorageError> {
        // CAS backs the lock protocol; injecting mid-CAS faults would
        // test the injector, not the recovery layer (the real
        // primitive is atomic). EIO/latency still apply.
        match self.draw(false, false) {
            Fault::Eio => Err(self.injected("compare_and_swap", key, "EIO")),
            _ => self.inner.compare_and_swap(key, expected, new),
        }
    }

    fn spill_tmp(&self, key: &str, bytes: &[u8]) -> Result<(), StorageError> {
        self.inner.spill_tmp(key, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::InMemory;

    #[test]
    fn spec_round_trips() {
        let p = DiskChaosProfile::parse(
            "eio=0.05,enospc=0.02,torn=0.03,crash=0.02,corrupt=0.03,latency=0.1,latency-ms=7,seed=9",
        )
        .unwrap();
        assert_eq!(DiskChaosProfile::parse(&p.spec()).unwrap(), p);
        assert!(p.is_active());
        assert!(!DiskChaosProfile::default().is_active());
    }

    #[test]
    fn bad_specs_name_the_field() {
        for (spec, needle) in [
            ("eio=1.5", "outside [0, 1]"),
            ("bogus=0.1", "unknown key"),
            ("eio", "expected key=value"),
            ("seed=x", "bad value"),
        ] {
            let err = DiskChaosProfile::parse(spec).unwrap_err();
            assert!(err.contains(needle), "{spec}: {err}");
        }
    }

    #[test]
    fn schedule_is_deterministic() {
        let profile = DiskChaosProfile::parse("eio=0.3,torn=0.2,seed=5").unwrap();
        let draw_seq = |n: usize| -> Vec<Fault> {
            let mut s = Schedule {
                rng: StdRng::seed_from_u64(profile.seed ^ 0xd15c_c4a0_5bad_d15c),
                profile,
            };
            (0..n)
                .map(|i| s.next_fault(i % 2 == 0, i % 2 == 1))
                .collect()
        };
        assert_eq!(draw_seq(200), draw_seq(200));
        assert!(draw_seq(200).iter().any(|f| *f != Fault::None));
    }

    #[test]
    fn certain_enospc_leaves_old_value() {
        let profile = DiskChaosProfile::parse("enospc=1,seed=1").unwrap();
        let f = FaultStore::new(InMemory::new(), profile);
        f.inner().put_atomic("k", b"old").unwrap();
        let err = f.put_atomic("k", b"new").unwrap_err();
        assert!(err.is_transient());
        assert!(err.message.contains("ENOSPC"), "{err}");
        assert_eq!(f.inner().get("k").unwrap().unwrap(), b"old");
        assert_eq!(f.ledger().counts(), vec![("enospc", 1)]);
    }

    #[test]
    fn torn_append_lands_a_prefix() {
        let profile = DiskChaosProfile::parse("torn=1,seed=1").unwrap();
        let f = FaultStore::new(InMemory::new(), profile);
        assert!(f.append_durable("j", b"12345678").is_err());
        assert_eq!(f.inner().get("j").unwrap().unwrap(), b"1234");
    }
}

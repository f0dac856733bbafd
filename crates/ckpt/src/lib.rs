//! # ls3df-ckpt
//!
//! Checkpoint/restart substrate for long LS3DF runs. The paper's
//! production calculations (ZnTe₁₋ₓOₓ on 131,072 BlueGene/P cores) are
//! multi-hour jobs; an interrupted SCF must be resumable, and a resumed
//! run must be **bit-identical** to an uninterrupted one. This crate owns
//! the machinery that makes that safe:
//!
//! * [`snapshot`] — the versioned container format: magic + format
//!   version + section table, CRC32 per section, so corruption is caught
//!   at the section that suffered it (never propagated into physics);
//! * [`atomic`] — write-temp + fsync + rename atomic replacement plus
//!   keep-last-K rotation, so a crash mid-write can never destroy the
//!   previous good snapshot;
//! * [`Fingerprint`] — FNV-1a digest accumulator used to fingerprint the
//!   physical options of a run, so a snapshot cannot silently resume
//!   under different physics;
//! * [`CheckpointPolicy`]/[`CheckpointConfig`] — when and where the SCF
//!   loop snapshots.
//!
//! The crate is deliberately dependency-free and knows nothing about
//! grids or wavefunctions: higher layers (`ls3df-grid`, `ls3df-core`)
//! encode their state into sections via [`codec`] and hand the bytes
//! here.

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![cfg_attr(not(test), warn(clippy::float_cmp))]
#![warn(missing_docs)]

pub mod atomic;
pub mod codec;
mod crc32;
mod error;
pub mod snapshot;

pub use atomic::{
    latest_snapshot, list_snapshots, read_bytes, snapshot_name, write_rotated, AtomicWrite,
};
pub use codec::{ByteReader, ByteWriter};
pub use crc32::crc32;
pub use error::{CkptError, CkptErrorKind};
pub use snapshot::{Section, SectionId, Snapshot, FORMAT_VERSION, MAGIC};

use std::path::PathBuf;

/// When the SCF loop writes a snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckpointPolicy {
    /// Never snapshot (the default when no [`CheckpointConfig`] is set).
    Off,
    /// Snapshot after every `N`-th completed outer iteration, and once
    /// more when the run converges (so the final state is always on
    /// disk). `EveryN(0)` behaves like [`CheckpointPolicy::Off`].
    EveryN(usize),
    /// Snapshot only when the ΔV tolerance is reached.
    OnConvergence,
}

impl CheckpointPolicy {
    /// Should a snapshot be written after this completed iteration?
    pub fn wants_snapshot(self, iteration: usize, converged: bool) -> bool {
        match self {
            CheckpointPolicy::Off => false,
            CheckpointPolicy::EveryN(0) => false,
            CheckpointPolicy::EveryN(n) => converged || iteration.is_multiple_of(n),
            CheckpointPolicy::OnConvergence => converged,
        }
    }
}

/// Where and how often the SCF loop checkpoints.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Directory that receives rotated `scf-NNNNNN.ls3df` snapshots
    /// (created on first write).
    pub dir: PathBuf,
    /// Write cadence.
    pub policy: CheckpointPolicy,
    /// How many snapshots to keep; older ones are pruned after every
    /// successful write. `0` is treated as 1 (the snapshot just written
    /// is never deleted).
    pub keep_last: usize,
}

impl CheckpointConfig {
    /// Convenience constructor: snapshot into `dir` after every `n`-th
    /// iteration (and at convergence), keeping the last 3.
    pub fn every_n(dir: impl Into<PathBuf>, n: usize) -> Self {
        CheckpointConfig {
            dir: dir.into(),
            policy: CheckpointPolicy::EveryN(n),
            keep_last: 3,
        }
    }
}

/// FNV-1a accumulator for options fingerprints. Field order is part of
/// the fingerprint: push values in one fixed, documented order and never
/// reorder without bumping the snapshot format version.
#[derive(Clone, Copy, Debug)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Self::new()
    }
}

impl Fingerprint {
    /// Starts a fresh digest (FNV-1a offset basis).
    pub fn new() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }

    /// Folds raw bytes into the digest.
    pub fn push_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Folds a `u64` (little-endian) into the digest.
    pub fn push_u64(&mut self, x: u64) -> &mut Self {
        self.push_bytes(&x.to_le_bytes())
    }

    /// Folds an `f64` bit pattern into the digest (bit-exact: two values
    /// fingerprint equal iff they are the same IEEE double).
    pub fn push_f64(&mut self, x: f64) -> &mut Self {
        self.push_bytes(&x.to_bits().to_le_bytes())
    }

    /// Folds a string (length-prefixed so `"ab","c"` ≠ `"a","bc"`).
    pub fn push_str(&mut self, s: &str) -> &mut Self {
        self.push_u64(s.len() as u64);
        self.push_bytes(s.as_bytes())
    }

    /// The digest value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_cadence() {
        assert!(!CheckpointPolicy::Off.wants_snapshot(5, true));
        assert!(!CheckpointPolicy::EveryN(0).wants_snapshot(5, false));
        let p = CheckpointPolicy::EveryN(3);
        assert!(!p.wants_snapshot(1, false));
        assert!(!p.wants_snapshot(2, false));
        assert!(p.wants_snapshot(3, false));
        assert!(p.wants_snapshot(6, false));
        assert!(p.wants_snapshot(7, true)); // convergence always snapshots
        let c = CheckpointPolicy::OnConvergence;
        assert!(!c.wants_snapshot(3, false));
        assert!(c.wants_snapshot(3, true));
    }

    #[test]
    fn fingerprint_is_order_sensitive_and_stable() {
        let mut a = Fingerprint::new();
        a.push_u64(1).push_f64(2.5).push_str("kerker");
        let mut b = Fingerprint::new();
        b.push_u64(1).push_f64(2.5).push_str("kerker");
        assert_eq!(a.finish(), b.finish());
        let mut c = Fingerprint::new();
        c.push_f64(2.5).push_u64(1).push_str("kerker");
        assert_ne!(a.finish(), c.finish());
        // Length prefixing: "ab"+"c" must differ from "a"+"bc".
        let mut d = Fingerprint::new();
        d.push_str("ab").push_str("c");
        let mut e = Fingerprint::new();
        e.push_str("a").push_str("bc");
        assert_ne!(d.finish(), e.finish());
    }

    #[test]
    fn fingerprint_distinguishes_nearby_doubles() {
        let mut a = Fingerprint::new();
        a.push_f64(0.1 + 0.2);
        let mut b = Fingerprint::new();
        b.push_f64(0.3);
        assert_ne!(a.finish(), b.finish(), "bit-exact, not approximate");
    }
}

//! Checkpoint I/O for fields, built on the `ls3df-ckpt` container.
//!
//! Long LS3DF runs (the fig6/fig7 science binaries) checkpoint the
//! converged global potential and density so post-processing (folded
//! spectrum, analysis) can restart without redoing the SCF. A saved field
//! is a one-section `ls3df-ckpt` snapshot — magic, format version, and a
//! CRC32 over the payload — written atomically (temp + fsync + rename),
//! so a torn or bit-rotted file is reported as a typed error instead of
//! feeding garbage samples into analysis.

use crate::{Grid3, RealField};
use ls3df_ckpt::{AtomicWrite, ByteReader, ByteWriter, CkptError, SectionId, Snapshot};
use std::io;
use std::path::Path;

/// Section id holding the field payload inside a saved-field snapshot.
pub const FIELD_SECTION: SectionId = SectionId::new("FIELD");

/// Largest plausible per-axis grid dimension in a checkpoint.
const MAX_DIM: u64 = 100_000;

/// Errors from field checkpoint I/O.
#[derive(Debug)]
pub enum IoError {
    /// Underlying filesystem error.
    Io(io::Error),
    /// Typed container-layer failure (bad magic, CRC mismatch, truncation…).
    Ckpt(CkptError),
}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        IoError::Io(e)
    }
}

impl From<CkptError> for IoError {
    fn from(e: CkptError) -> Self {
        IoError::Ckpt(e)
    }
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "I/O error: {e}"),
            IoError::Ckpt(e) => write!(f, "bad checkpoint: {e}"),
        }
    }
}

impl std::error::Error for IoError {}

/// Encodes a field into a section payload: `dims` (3×u64), `lengths`
/// (3×f64), then the raw little-endian samples. Bit-exact round trip.
pub fn encode_field(field: &RealField) -> Vec<u8> {
    let g = field.grid();
    let mut w = ByteWriter::with_capacity(48 + field.as_slice().len() * 8);
    for d in 0..3 {
        w.put_u64(g.dims[d] as u64);
    }
    for d in 0..3 {
        w.put_f64(g.lengths[d]);
    }
    w.put_f64_slice(field.as_slice());
    w.into_bytes()
}

/// Decodes a field from a section payload produced by [`encode_field`].
pub fn decode_field(payload: &[u8]) -> Result<RealField, CkptError> {
    let mut r = ByteReader::new(payload);
    let mut dims = [0usize; 3];
    for (d, slot) in dims.iter_mut().enumerate() {
        *slot = r.get_count(MAX_DIM, &format!("field dims[{d}]"))?;
    }
    let mut lengths = [0f64; 3];
    for (d, slot) in lengths.iter_mut().enumerate() {
        *slot = r.get_f64(&format!("field lengths[{d}]"))?;
    }
    if dims.contains(&0) {
        return Err(CkptError::Malformed {
            section: FIELD_SECTION.name(),
            detail: format!("implausible dims {dims:?}"),
        });
    }
    if lengths.iter().any(|&l| l <= 0.0 || !l.is_finite()) {
        return Err(CkptError::Malformed {
            section: FIELD_SECTION.name(),
            detail: format!("implausible lengths {lengths:?}"),
        });
    }
    let n = dims[0] * dims[1] * dims[2];
    let data = r.get_f64_vec(n, &format!("{n} field samples ({dims:?} grid)"))?;
    if r.remaining() != 0 {
        return Err(CkptError::Malformed {
            section: FIELD_SECTION.name(),
            detail: format!("{} trailing bytes after the samples", r.remaining()),
        });
    }
    Ok(RealField::from_vec(Grid3::new(dims, lengths), data))
}

/// Writes a field checkpoint: a one-section snapshot, placed atomically.
pub fn save_field(field: &RealField, path: &Path) -> Result<(), IoError> {
    let mut snap = Snapshot::new();
    snap.push(FIELD_SECTION, encode_field(field));
    let bytes = snap.encode()?;
    AtomicWrite::commit(path, &bytes)?;
    Ok(())
}

/// Reads a field checkpoint written by [`save_field`].
pub fn load_field(path: &Path) -> Result<RealField, IoError> {
    let bytes = ls3df_ckpt::read_bytes(path)?;
    let snap = Snapshot::decode(&bytes)?;
    Ok(decode_field(snap.require(FIELD_SECTION)?)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ls3df_ckpt::CkptErrorKind;

    fn tmpdir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ls3df_io_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn roundtrip_preserves_field_exactly() {
        let g = Grid3::new([5, 7, 3], [2.0, 3.5, 1.25]);
        let f = RealField::from_fn(g, |r| (r[0] * 1.3).sin() + r[1] - 7.0 * r[2]);
        let path = tmpdir().join("field.ck");
        save_field(&f, &path).unwrap();
        let back = load_field(&path).unwrap();
        assert_eq!(back.grid(), f.grid());
        assert_eq!(back.as_slice(), f.as_slice());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_garbage() {
        let path = tmpdir().join("garbage.ck");
        std::fs::write(&path, b"not a checkpoint at all").unwrap();
        match load_field(&path) {
            Err(IoError::Ckpt(e)) => assert_eq!(e.kind(), CkptErrorKind::BadMagic),
            other => panic!("expected BadMagic, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn flipped_sample_byte_is_caught_by_crc() {
        let g = Grid3::new([4, 4, 4], [1.0, 1.0, 1.0]);
        let f = RealField::from_fn(g, |r| r[0] + 2.0 * r[1]);
        let path = tmpdir().join("flipped.ck");
        save_field(&f, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01; // single bit, deep in the sample data
        std::fs::write(&path, &bytes).unwrap();
        match load_field(&path) {
            Err(IoError::Ckpt(e)) => assert_eq!(e.kind(), CkptErrorKind::CrcMismatch),
            other => panic!("expected CrcMismatch, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncation_is_typed() {
        let g = Grid3::new([4, 4, 4], [1.0, 1.0, 1.0]);
        let f = RealField::from_fn(g, |r| r[0]);
        let path = tmpdir().join("truncated.ck");
        save_field(&f, &path).unwrap();
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 24]).unwrap(); // drop 3 samples
        match load_field(&path) {
            Err(IoError::Ckpt(e)) => assert_eq!(e.kind(), CkptErrorKind::Truncated),
            other => panic!("expected Truncated, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let path = tmpdir().join("definitely_missing.ck");
        match load_field(&path) {
            Err(IoError::Ckpt(e)) => assert_eq!(e.kind(), CkptErrorKind::Io),
            other => panic!("expected Io error, got {other:?}"),
        }
    }

    #[test]
    fn atomic_save_leaves_no_temp_litter() {
        let dir = tmpdir().join("no_litter");
        std::fs::create_dir_all(&dir).unwrap();
        let g = Grid3::new([2, 2, 2], [1.0, 1.0, 1.0]);
        let f = RealField::from_fn(g, |r| r[0]);
        save_field(&f, &dir.join("a.ck")).unwrap();
        save_field(&f, &dir.join("a.ck")).unwrap(); // overwrite in place
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["a.ck".to_string()]);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Arbitrary and damaged payloads through [`decode_field`], which
    /// reads every field a rank receives and every saved field: a typed
    /// error or a whole field, never a panic.
    mod fuzz {
        use super::*;
        use proptest::prelude::*;
        use proptest::test_runner::TestCaseError;

        fn genuine() -> Vec<u8> {
            let g = Grid3::new([3, 2, 4], [1.5, 2.0, 0.75]);
            encode_field(&RealField::from_fn(g, |r| r[0] - 2.0 * r[2]))
        }

        fn decode(payload: &[u8]) -> Result<(), TestCaseError> {
            if let Ok(f) = decode_field(payload) {
                let g = f.grid();
                prop_assert_eq!(f.as_slice().len(), g.len());
                prop_assert!(g.dims.iter().all(|&d| d > 0));
                prop_assert!(g.lengths.iter().all(|&l| l > 0.0 && l.is_finite()));
            }
            Ok(())
        }

        proptest! {
            #[test]
            fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(0u32..256, 0..400)) {
                let payload: Vec<u8> = bytes.iter().map(|&b| b as u8).collect();
                decode(&payload)?;
            }

            #[test]
            fn damaged_genuine_payloads_never_panic(
                at in 0usize..4096,
                word in 0u64..u64::MAX,
                cut in 0usize..4096,
            ) {
                // Overwrite one 8-byte word (a dimension, a length or a
                // sample) with anything, then maybe truncate.
                let mut payload = genuine();
                let at = at % payload.len().saturating_sub(7).max(1);
                let end = (at + 8).min(payload.len());
                payload[at..end].copy_from_slice(&word.to_le_bytes()[..end - at]);
                decode(&payload)?;
                payload.truncate(cut % (payload.len() + 1));
                decode(&payload)?;
            }
        }
    }
}

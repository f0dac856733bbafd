//! The field codec, built on the `ls3df-ckpt` byte codec.
//!
//! A field travels as one section payload — `dims`, `lengths`, then the
//! raw samples — inside an `ls3df-ckpt` container: the global potential
//! and density of an SCF snapshot (`core::ckpt`) and every field a rank
//! broadcasts (`core::distrib`). The container carries the magic, format
//! version and CRC; [`decode_field`] turns any payload that survives them
//! into a whole field or a typed error, never a panic.

use crate::{Grid3, RealField};
use ls3df_ckpt::{ByteReader, ByteWriter, CkptError, SectionId};

/// Section id that names the field payload in [`decode_field`]'s errors.
const FIELD_SECTION: SectionId = SectionId::new("FIELD");

/// Largest plausible per-axis grid dimension in a payload.
const MAX_DIM: u64 = 100_000;

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_preserves_field_exactly() {
        let g = Grid3::new([5, 7, 3], [2.0, 3.5, 1.25]);
        let f = RealField::from_fn(g, |r| (r[0] * 1.3).sin() + r[1] - 7.0 * r[2]);
        let back = decode_field(&encode_field(&f)).unwrap();
        assert_eq!(back.grid(), f.grid());
        assert_eq!(back.as_slice(), f.as_slice());
    }

    /// Arbitrary and damaged payloads through [`decode_field`], which
    /// reads every field a rank receives and every snapshot field: a typed
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

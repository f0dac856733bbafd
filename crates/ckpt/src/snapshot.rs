//! The snapshot container format.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"LS3DFCKP"
//! 8       4     format version (= FORMAT_VERSION)
//! 12      4     section count
//! then per section:
//!         8     section id (ASCII, space-padded)
//!         8     payload length in bytes
//!         4     CRC32 of the payload
//!         len   payload
//! ```
//!
//! Every section is independently checksummed, so a flipped bit anywhere
//! in a multi-GB snapshot is caught at the section that suffered it and
//! reported by name — never silently resumed into physics. Unknown
//! section ids are preserved on read (forward compatibility: an older
//! build can rotate newer snapshots without understanding them), but
//! a version bump is required for layout changes inside known sections.

use crate::crc32::crc32;
use crate::CkptError;

/// Magic tag opening every snapshot file.
pub const MAGIC: [u8; 8] = *b"LS3DFCKP";

/// Format version this build writes and reads. Version 2 made an LS3DF
/// snapshot's `PSI` blocks packed real rows (one `f64` per coefficient,
/// not a `(re, im)` pair) and gave each step record `q/N_e`. Version 3
/// drops the `SCHEME` section and the fragmentation-scheme words of the
/// options fingerprint. Version 4 gives each step record the minimum
/// fragment charge retention after `q/N_e`. A file of any other version
/// is refused as [`CkptError::UnsupportedVersion`].
pub const FORMAT_VERSION: u32 = 4;

/// Hard cap on a single section payload (64 GiB) — guards the reader
/// against allocating off a corrupt length field.
const MAX_SECTION_LEN: u64 = 64 << 30;

/// An 8-byte ASCII section identifier (shorter names space-padded).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct SectionId(pub [u8; 8]);

impl SectionId {
    /// Builds an id from a short name (≤ 8 bytes; padded with spaces).
    /// Longer names are truncated — use distinct 8-byte prefixes.
    pub const fn new(name: &str) -> Self {
        let bytes = name.as_bytes();
        let mut id = [b' '; 8];
        let mut i = 0;
        while i < bytes.len() && i < 8 {
            id[i] = bytes[i];
            i += 1;
        }
        SectionId(id)
    }

    /// The trimmed ASCII name.
    pub fn name(&self) -> String {
        String::from_utf8_lossy(&self.0).trim_end().to_string()
    }
}

impl std::fmt::Debug for SectionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SectionId({})", self.name())
    }
}

/// One named, checksummed payload.
#[derive(Clone, Debug)]
pub struct Section {
    /// Identifier.
    pub id: SectionId,
    /// Raw payload bytes.
    pub payload: Vec<u8>,
}

/// An in-memory snapshot: an ordered list of sections.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Sections in file order.
    pub sections: Vec<Section>,
}

impl Snapshot {
    /// Empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a section (ids must be unique; duplicates are rejected at
    /// encode time).
    pub fn push(&mut self, id: SectionId, payload: Vec<u8>) -> &mut Self {
        self.sections.push(Section { id, payload });
        self
    }

    /// The payload of section `id`, if present.
    pub fn get(&self, id: SectionId) -> Option<&[u8]> {
        self.sections
            .iter()
            .find(|s| s.id == id)
            .map(|s| s.payload.as_slice())
    }

    /// The payload of section `id`, or a typed missing-section error.
    pub fn require(&self, id: SectionId) -> Result<&[u8], CkptError> {
        self.get(id)
            .ok_or_else(|| CkptError::MissingSection { section: id.name() })
    }

    /// Serializes the snapshot (magic, version, section table with
    /// per-section CRC32).
    pub fn encode(&self) -> Result<Vec<u8>, CkptError> {
        for (i, s) in self.sections.iter().enumerate() {
            if self.sections[..i].iter().any(|t| t.id == s.id) {
                return Err(CkptError::DuplicateSection {
                    section: s.id.name(),
                });
            }
        }
        let total: usize = 16
            + self
                .sections
                .iter()
                .map(|s| 20 + s.payload.len())
                .sum::<usize>();
        let mut out = Vec::with_capacity(total);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        for s in &self.sections {
            out.extend_from_slice(&s.id.0);
            out.extend_from_slice(&(s.payload.len() as u64).to_le_bytes());
            out.extend_from_slice(&crc32(&s.payload).to_le_bytes());
            out.extend_from_slice(&s.payload);
        }
        Ok(out)
    }

    /// Parses and CRC-verifies a serialized snapshot. The bytes must hold
    /// exactly the sections the header counts: bytes after the last
    /// section (say, behind a damaged count) are [`CkptError::Malformed`].
    pub fn decode(bytes: &[u8]) -> Result<Self, CkptError> {
        let mut r = crate::ByteReader::new(bytes);
        let magic = r.get_bytes(8, "magic tag")?;
        if magic != MAGIC {
            let mut got = [0u8; 8];
            got.copy_from_slice(magic);
            return Err(CkptError::BadMagic { got });
        }
        let version = r.get_u32("format version")?;
        if version != FORMAT_VERSION {
            return Err(CkptError::UnsupportedVersion {
                got: version,
                supported: FORMAT_VERSION,
            });
        }
        let n_sections = r.get_u32("section count")?;
        let mut sections = Vec::with_capacity(n_sections.min(1024) as usize);
        for i in 0..n_sections {
            let mut id = [0u8; 8];
            id.copy_from_slice(r.get_bytes(8, &format!("section {i} id"))?);
            let id = SectionId(id);
            let name = id.name();
            let len = r.get_u64(&format!("section `{name}` length"))?;
            if len > MAX_SECTION_LEN {
                return Err(CkptError::Malformed {
                    section: name,
                    detail: format!("implausible payload length {len}"),
                });
            }
            let stored = r.get_u32(&format!("section `{name}` checksum"))?;
            let payload = r.get_bytes(len as usize, &format!("section `{name}` payload"))?;
            let computed = crc32(payload);
            if computed != stored {
                return Err(CkptError::CrcMismatch {
                    section: name,
                    stored,
                    computed,
                });
            }
            if sections.iter().any(|s: &Section| s.id == id) {
                return Err(CkptError::DuplicateSection { section: name });
            }
            sections.push(Section {
                id,
                payload: payload.to_vec(),
            });
        }
        if r.remaining() != 0 {
            return Err(CkptError::Malformed {
                section: String::new(),
                detail: format!("{} trailing bytes after the last section", r.remaining()),
            });
        }
        Ok(Snapshot { sections })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CkptErrorKind;

    fn sample() -> Snapshot {
        let mut s = Snapshot::new();
        s.push(SectionId::new("VIN"), vec![1, 2, 3, 4, 5]);
        s.push(
            SectionId::new("RHO"),
            (0..200u16).flat_map(|x| x.to_le_bytes()).collect(),
        );
        s.push(SectionId::new("MIXER"), Vec::new()); // empty payload is legal
        s
    }

    #[test]
    fn roundtrip() {
        let s = sample();
        let bytes = s.encode().unwrap();
        let back = Snapshot::decode(&bytes).unwrap();
        assert_eq!(back.sections.len(), 3);
        assert_eq!(
            back.require(SectionId::new("VIN")).unwrap(),
            &[1, 2, 3, 4, 5]
        );
        assert_eq!(back.get(SectionId::new("MIXER")).unwrap().len(), 0);
        assert!(back.get(SectionId::new("NOPE")).is_none());
        assert_eq!(
            back.require(SectionId::new("NOPE")).unwrap_err().kind(),
            CkptErrorKind::MissingSection
        );
    }

    #[test]
    fn every_flipped_payload_byte_is_caught() {
        let bytes = sample().encode().unwrap();
        // Flip one byte inside each section's payload region and confirm
        // the CRC catches it and names the right section.
        let decoded = Snapshot::decode(&bytes).unwrap();
        let mut offset = 16usize;
        for s in &decoded.sections {
            offset += 20; // section header
            if !s.payload.is_empty() {
                let mut bad = bytes.clone();
                bad[offset + s.payload.len() / 2] ^= 0x40;
                match Snapshot::decode(&bad) {
                    Err(CkptError::CrcMismatch { section, .. }) => {
                        assert_eq!(section, s.id.name())
                    }
                    other => panic!("expected CrcMismatch for {:?}, got {other:?}", s.id),
                }
            }
            offset += s.payload.len();
        }
    }

    #[test]
    fn truncation_and_bad_magic_and_version() {
        let bytes = sample().encode().unwrap();
        for cut in [3, 10, 20, bytes.len() - 1] {
            let err = Snapshot::decode(&bytes[..cut]).unwrap_err();
            assert_eq!(err.kind(), CkptErrorKind::Truncated, "cut at {cut}");
        }
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert_eq!(
            Snapshot::decode(&bad).unwrap_err().kind(),
            CkptErrorKind::BadMagic
        );
        let mut v2 = bytes.clone();
        v2[8] = 0xff; // version
        assert_eq!(
            Snapshot::decode(&v2).unwrap_err().kind(),
            CkptErrorKind::UnsupportedVersion
        );
    }

    #[test]
    fn duplicate_sections_rejected_both_ways() {
        let mut s = Snapshot::new();
        s.push(SectionId::new("A"), vec![1]);
        s.push(SectionId::new("A"), vec![2]);
        assert_eq!(
            s.encode().unwrap_err().kind(),
            CkptErrorKind::DuplicateSection
        );
    }

    #[test]
    fn bytes_after_the_counted_sections_are_malformed() {
        // The section count is outside every CRC: a count one short must
        // not silently drop the last section.
        let mut bad = sample().encode().unwrap();
        bad[12..16].copy_from_slice(&2u32.to_le_bytes());
        assert_eq!(
            Snapshot::decode(&bad).unwrap_err().kind(),
            CkptErrorKind::Malformed
        );
    }

    /// Arbitrary and damaged containers: a typed error, or a snapshot
    /// that re-encodes to exactly the bytes it was read from.
    mod fuzz {
        use super::*;
        use proptest::prelude::*;
        use proptest::test_runner::TestCaseError;

        fn decode(bytes: &[u8]) -> Result<(), TestCaseError> {
            if let Ok(snap) = Snapshot::decode(bytes) {
                prop_assert_eq!(snap.encode().unwrap(), bytes.to_vec());
            }
            Ok(())
        }

        proptest! {
            #[test]
            fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(0u32..256, 0..400)) {
                let mut payload: Vec<u8> = bytes.iter().map(|&b| b as u8).collect();
                decode(&payload)?;
                // Behind a valid magic and version, so the section table
                // is what gets read.
                let mut framed = MAGIC.to_vec();
                framed.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
                framed.append(&mut payload);
                decode(&framed)?;
            }

            #[test]
            fn damaged_genuine_snapshots_never_panic(
                at in 0usize..4096,
                word in 0u64..u64::MAX,
                cut in 0usize..4096,
            ) {
                // Overwrite one 8-byte word (a count, an id, a length, a
                // checksum or payload) with anything, then maybe truncate.
                let mut bytes = sample().encode().unwrap();
                let at = at % bytes.len().saturating_sub(7).max(1);
                let end = (at + 8).min(bytes.len());
                bytes[at..end].copy_from_slice(&word.to_le_bytes()[..end - at]);
                decode(&bytes)?;
                bytes.truncate(cut % (bytes.len() + 1));
                decode(&bytes)?;
            }
        }
    }

    #[test]
    fn section_ids_pad_and_trim() {
        let id = SectionId::new("SCFHIST");
        assert_eq!(id.0, *b"SCFHIST ");
        assert_eq!(id.name(), "SCFHIST");
    }
}

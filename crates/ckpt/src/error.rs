//! Typed checkpoint errors.
//!
//! Every failure mode of the snapshot pipeline is a distinct variant so
//! callers (and tests) can react per cause: a CRC mismatch means the file
//! is damaged and another rotation candidate should be tried; a
//! fingerprint mismatch means the *caller* changed the physics and must
//! not resume. I/O errors are rendered to strings at the boundary so the
//! error type stays `Clone + PartialEq + Eq` and can travel through
//! `Ls3dfError` without losing those derives.

/// Why a snapshot could not be written or restored.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CkptError {
    /// Underlying filesystem failure (message rendered from
    /// `std::io::Error`).
    Io {
        /// Path involved.
        path: String,
        /// Rendered OS error.
        detail: String,
    },
    /// The file does not start with the snapshot magic.
    BadMagic {
        /// The 8 bytes actually found.
        got: [u8; 8],
    },
    /// The file's format version is newer (or older) than this build
    /// understands.
    UnsupportedVersion {
        /// Version stored in the file.
        got: u32,
        /// Version this build reads/writes.
        supported: u32,
    },
    /// The file ended before the named piece could be read.
    Truncated {
        /// What was being read when the bytes ran out.
        what: String,
    },
    /// A section's payload does not match its stored CRC32 — the bytes
    /// were damaged at rest or in flight.
    CrcMismatch {
        /// Section name.
        section: String,
        /// CRC stored in the section header.
        stored: u32,
        /// CRC computed over the payload actually read.
        computed: u32,
    },
    /// A required section is absent.
    MissingSection {
        /// Section name.
        section: String,
    },
    /// The same section id appears twice (ambiguous restore).
    DuplicateSection {
        /// Section name.
        section: String,
    },
    /// The snapshot was written under different physical options than
    /// the calculation trying to resume from it.
    FingerprintMismatch {
        /// Fingerprint stored in the snapshot.
        stored: u64,
        /// Fingerprint of the resuming calculation.
        current: u64,
    },
    /// A section decoded structurally but its contents are inconsistent
    /// with the resuming calculation (wrong grid, wrong fragment count…).
    Malformed {
        /// Section name.
        section: String,
        /// What was inconsistent.
        detail: String,
    },
}

/// Data-free classification of a [`CkptError`] (stable across message
/// wording changes; what corruption tests match on).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)] // mirrors CkptError variant-for-variant
pub enum CkptErrorKind {
    Io,
    BadMagic,
    UnsupportedVersion,
    Truncated,
    CrcMismatch,
    MissingSection,
    DuplicateSection,
    FingerprintMismatch,
    Malformed,
}

impl CkptError {
    /// The variant, without its payload.
    pub fn kind(&self) -> CkptErrorKind {
        match self {
            CkptError::Io { .. } => CkptErrorKind::Io,
            CkptError::BadMagic { .. } => CkptErrorKind::BadMagic,
            CkptError::UnsupportedVersion { .. } => CkptErrorKind::UnsupportedVersion,
            CkptError::Truncated { .. } => CkptErrorKind::Truncated,
            CkptError::CrcMismatch { .. } => CkptErrorKind::CrcMismatch,
            CkptError::MissingSection { .. } => CkptErrorKind::MissingSection,
            CkptError::DuplicateSection { .. } => CkptErrorKind::DuplicateSection,
            CkptError::FingerprintMismatch { .. } => CkptErrorKind::FingerprintMismatch,
            CkptError::Malformed { .. } => CkptErrorKind::Malformed,
        }
    }

    /// Builds the I/O variant from an `std::io::Error` at the boundary.
    pub fn io(path: &std::path::Path, e: &std::io::Error) -> Self {
        CkptError::Io {
            path: path.display().to_string(),
            detail: e.to_string(),
        }
    }
}

impl std::fmt::Display for CkptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CkptError::Io { path, detail } => write!(f, "checkpoint I/O error on {path}: {detail}"),
            CkptError::BadMagic { got } => write!(
                f,
                "not an LS3DF snapshot: magic {:?}",
                String::from_utf8_lossy(got)
            ),
            CkptError::UnsupportedVersion { got, supported } => write!(
                f,
                "snapshot format version {got} not supported (this build reads {supported})"
            ),
            CkptError::Truncated { what } => {
                write!(f, "snapshot truncated while reading {what}")
            }
            CkptError::CrcMismatch {
                section,
                stored,
                computed,
            } => write!(
                f,
                "section `{section}` is corrupt: stored CRC32 {stored:08x}, \
                 payload hashes to {computed:08x}"
            ),
            CkptError::MissingSection { section } => {
                write!(f, "snapshot has no `{section}` section")
            }
            CkptError::DuplicateSection { section } => {
                write!(f, "snapshot carries `{section}` twice — ambiguous restore")
            }
            CkptError::FingerprintMismatch { stored, current } => write!(
                f,
                "options fingerprint mismatch: snapshot written under {stored:016x}, \
                 this calculation is {current:016x} — refusing to resume under different physics"
            ),
            CkptError::Malformed { section, detail } => {
                write!(f, "section `{section}` is inconsistent: {detail}")
            }
        }
    }
}

impl std::error::Error for CkptError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_match_variants_and_display_is_informative() {
        let e = CkptError::CrcMismatch {
            section: "RHO".into(),
            stored: 0xdead_beef,
            computed: 0x1234_5678,
        };
        assert_eq!(e.kind(), CkptErrorKind::CrcMismatch);
        let msg = e.to_string();
        assert!(msg.contains("RHO") && msg.contains("deadbeef"), "{msg}");

        let f = CkptError::FingerprintMismatch {
            stored: 1,
            current: 2,
        };
        assert_eq!(f.kind(), CkptErrorKind::FingerprintMismatch);
        let msg = f.to_string();
        assert!(msg.contains("different physics"), "{msg}");
    }
}

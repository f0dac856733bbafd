//! Corruption handling: every way a snapshot can be damaged or misused
//! must surface as a *typed* `CkptError` at resume time — never a panic,
//! never a silent resume into wrong physics.
//!
//! One short checkpointed SCF run writes a genuine snapshot; each test
//! then damages a copy (truncation, a flipped byte per section, a wrong
//! format version, a wrong magic) or misuses it (resume under different
//! physics) and matches the resulting `CkptErrorKind`.

use ls3df::core::{Ls3df, Ls3dfError, Ls3dfOptions, Passivation};
use ls3df::{CheckpointConfig, CheckpointPolicy, CkptError, CkptErrorKind};
use ls3df_atoms::{model_crystal, Structure};
use ls3df_pseudo::PseudoTable;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

fn small_opts() -> Ls3dfOptions {
    Ls3dfOptions {
        ecut: 1.5,
        piece_pts: [6, 6, 6],
        buffer_pts: [2, 2, 2],
        passivation: Passivation::WallOnly,
        wall_height: 1.5,
        n_extra_bands: 2,
        cg_steps: 4,
        initial_cg_steps: 12,
        fragment_tol: 1e-6,
        max_scf: 1,
        tol: 1e-6,
        pseudo: PseudoTable::deep_well(2.0, 0.8),
        ..Default::default()
    }
}

fn builder(s: &Structure, opts: Ls3dfOptions) -> ls3df::Ls3dfBuilder<'_> {
    Ls3df::builder(s).fragments([2, 2, 2]).options(opts)
}

/// Writes one genuine snapshot (single SCF iteration, checkpoint on
/// convergence-or-iteration) and caches its bytes for all tests.
fn snapshot_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("ls3df-ckpt-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let s = model_crystal([2, 2, 2], 6.5);
        let mut calc = builder(&s, small_opts())
            .checkpoint(CheckpointConfig {
                dir: dir.clone(),
                policy: CheckpointPolicy::EveryN(1),
                keep_last: 1,
            })
            .build()
            .expect("valid test geometry");
        let _ = calc.scf();
        let path = ls3df::ckpt::latest_snapshot(&dir)
            .expect("list snapshots")
            .expect("SCF must have written a snapshot");
        let bytes = std::fs::read(path).expect("read snapshot");
        let _ = std::fs::remove_dir_all(&dir);
        bytes
    })
}

/// Writes `bytes` to a unique temp file and tries to resume from it,
/// returning the typed failure (panics if the resume *succeeds*).
fn resume_error(tag: &str, bytes: &[u8]) -> CkptError {
    let path = std::env::temp_dir().join(format!(
        "ls3df-ckpt-corrupt-{}-{tag}.ls3df",
        std::process::id()
    ));
    std::fs::write(&path, bytes).expect("write damaged snapshot");
    let err = resume_error_at(&path, small_opts());
    let _ = std::fs::remove_file(&path);
    err
}

fn resume_error_at(path: &Path, opts: Ls3dfOptions) -> CkptError {
    let s = model_crystal([2, 2, 2], 6.5);
    match builder(&s, opts).resume_from(path).build() {
        Ok(_) => panic!("resume from {} must fail", path.display()),
        Err(Ls3dfError::Resume(e)) => e,
        Err(other) => panic!("expected Ls3dfError::Resume, got {other:?}"),
    }
}

/// Walks the container layout (magic 8 + version 4 + count 4, then per
/// section: id 8 + len 8 + crc 4 + payload) and returns each section's
/// (name, payload offset, payload length).
fn section_spans(bytes: &[u8]) -> Vec<(String, usize, usize)> {
    let count = u32::from_le_bytes(bytes[12..16].try_into().expect("count")) as usize;
    let mut spans = Vec::new();
    let mut at = 16;
    for _ in 0..count {
        let name = String::from_utf8_lossy(&bytes[at..at + 8])
            .trim_end()
            .to_string();
        let len = u64::from_le_bytes(bytes[at + 8..at + 16].try_into().expect("len")) as usize;
        let payload = at + 20;
        spans.push((name, payload, len));
        at = payload + len;
    }
    spans
}

#[test]
fn truncated_snapshot_is_a_typed_error() {
    let good = snapshot_bytes();
    // Cut mid-payload of the last section…
    let err = resume_error("trunc-payload", &good[..good.len() - good.len() / 4]);
    assert_eq!(err.kind(), CkptErrorKind::Truncated, "{err}");
    // …and mid-header.
    let err = resume_error("trunc-header", &good[..10]);
    assert_eq!(err.kind(), CkptErrorKind::Truncated, "{err}");
}

#[test]
fn one_flipped_byte_in_any_section_is_caught_by_that_sections_crc() {
    let good = snapshot_bytes();
    let spans = section_spans(good);
    assert!(spans.len() >= 7, "snapshot should carry all 7 sections");
    for (name, payload, len) in spans {
        assert!(len > 0, "section {name} is empty");
        let mut bad = good.to_vec();
        bad[payload + len / 2] ^= 0x40;
        let err = resume_error(&format!("flip-{name}"), &bad);
        assert_eq!(err.kind(), CkptErrorKind::CrcMismatch, "{name}: {err}");
        let msg = err.to_string();
        assert!(
            msg.contains(&name),
            "CRC error must name the damaged section `{name}`: {msg}"
        );
    }
}

#[test]
fn wrong_format_version_and_magic_are_typed_errors() {
    let good = snapshot_bytes();
    let mut wrong_version = good.to_vec();
    wrong_version[8..12].copy_from_slice(&99u32.to_le_bytes());
    let err = resume_error("version", &wrong_version);
    assert_eq!(err.kind(), CkptErrorKind::UnsupportedVersion, "{err}");
    // Version 1 stored full-sphere `(re, im)` blocks and version 2 a
    // `SCHEME` section and scheme words in the fingerprint: both are
    // refused by version, never decoded.
    assert_eq!(ls3df::ckpt::FORMAT_VERSION, 3);
    for old in [1u32, 2] {
        let mut stale = good.to_vec();
        stale[8..12].copy_from_slice(&old.to_le_bytes());
        let err = resume_error(&format!("version-{old}"), &stale);
        assert_eq!(err.kind(), CkptErrorKind::UnsupportedVersion, "{err}");
    }

    let mut wrong_magic = good.to_vec();
    wrong_magic[..8].copy_from_slice(b"NOTLS3DF");
    let err = resume_error("magic", &wrong_magic);
    assert_eq!(err.kind(), CkptErrorKind::BadMagic, "{err}");
}

#[test]
fn resume_under_different_physics_is_refused() {
    let good = snapshot_bytes();
    let path = std::env::temp_dir().join(format!(
        "ls3df-ckpt-corrupt-{}-fingerprint.ls3df",
        std::process::id()
    ));
    std::fs::write(&path, good).expect("write snapshot");
    // Same geometry, different cutoff: different physics fingerprint.
    let hot = Ls3dfOptions {
        ecut: 2.5,
        ..small_opts()
    };
    let err = resume_error_at(&path, hot);
    assert_eq!(err.kind(), CkptErrorKind::FingerprintMismatch, "{err}");
    assert!(err.to_string().contains("different physics"), "{err}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn missing_snapshot_file_is_an_io_error() {
    let ghost = PathBuf::from("/nonexistent/ls3df/scf-000001.ls3df");
    let err = resume_error_at(&ghost, small_opts());
    assert_eq!(err.kind(), CkptErrorKind::Io, "{err}");
}

//! Atomic snapshot placement and rotation.
//!
//! A crash mid-write must never destroy the previous good snapshot, so
//! all writes go through [`AtomicWrite`]: the bytes land in a temp file
//! in the *same directory* (rename across filesystems is not atomic),
//! are fsynced, and only then renamed over the final name. On POSIX the
//! rename is atomic, so readers observe either the old complete file or
//! the new complete file — never a torn one. The directory itself is
//! fsynced best-effort afterwards so the rename survives power loss.
//!
//! Rotation keeps the last K snapshots (`scf-NNNNNN.ls3df`), pruning
//! older ones only after the new write has fully committed.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::CkptError;

/// File extension used by rotated SCF snapshots.
pub const SNAPSHOT_EXT: &str = "ls3df";

/// Atomic replace-file writer (temp + fsync + rename).
pub struct AtomicWrite;

impl AtomicWrite {
    /// Atomically replaces `path` with `bytes`.
    ///
    /// This is the only sanctioned way to put snapshot bytes on disk.
    pub fn commit(path: &Path, bytes: &[u8]) -> Result<(), CkptError> {
        let dir = path.parent().unwrap_or_else(|| Path::new("."));
        let file_name = path
            .file_name()
            .ok_or_else(|| CkptError::Io {
                path: path.display().to_string(),
                detail: "snapshot path has no file name".to_string(),
            })?
            .to_string_lossy()
            .into_owned();
        let tmp = dir.join(format!(".{file_name}.tmp"));
        // The temp file is fsynced and renamed over the final path below.
        let mut f = fs::File::create(&tmp).map_err(|e| CkptError::io(&tmp, &e))?;
        f.write_all(bytes).map_err(|e| CkptError::io(&tmp, &e))?;
        f.sync_all().map_err(|e| CkptError::io(&tmp, &e))?;
        drop(f);
        if let Err(e) = fs::rename(&tmp, path) {
            let _ = fs::remove_file(&tmp);
            return Err(CkptError::io(path, &e));
        }
        // Best-effort directory fsync so the rename itself is durable;
        // some filesystems reject opening directories, which is fine.
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
        Ok(())
    }
}

/// The rotated snapshot name for outer iteration `iteration`.
pub fn snapshot_name(iteration: usize) -> String {
    format!("scf-{iteration:06}.{SNAPSHOT_EXT}")
}

/// Parses an iteration index out of a `scf-NNNNNN.ls3df` file name.
fn parse_snapshot_name(name: &str) -> Option<usize> {
    let rest = name.strip_prefix("scf-")?;
    let digits = rest.strip_suffix(&format!(".{SNAPSHOT_EXT}"))?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Atomically writes `bytes` as the snapshot for `iteration` inside
/// `dir` (created if absent), then prunes all but the newest
/// `keep_last` snapshots. Returns the path written.
pub fn write_rotated(
    dir: &Path,
    iteration: usize,
    bytes: &[u8],
    keep_last: usize,
) -> Result<PathBuf, CkptError> {
    fs::create_dir_all(dir).map_err(|e| CkptError::io(dir, &e))?;
    let path = dir.join(snapshot_name(iteration));
    AtomicWrite::commit(&path, bytes)?;
    let keep = keep_last.max(1);
    let mut snaps = list_snapshots(dir)?;
    // list_snapshots sorts ascending by iteration; prune from the front.
    while snaps.len() > keep {
        let (_, old) = snaps.remove(0);
        // Never prune the file just written, even under a weird clock of
        // iteration indices (e.g. resume wrote a lower index).
        if old != path {
            let _ = fs::remove_file(&old);
        }
    }
    Ok(path)
}

/// All rotated snapshots in `dir`, sorted by iteration (ascending).
/// A missing directory is an empty list, not an error.
pub fn list_snapshots(dir: &Path) -> Result<Vec<(usize, PathBuf)>, CkptError> {
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(ref e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(CkptError::io(dir, &e)),
    };
    let mut out = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| CkptError::io(dir, &e))?;
        let name = entry.file_name();
        if let Some(iter) = parse_snapshot_name(&name.to_string_lossy()) {
            out.push((iter, entry.path()));
        }
    }
    out.sort();
    Ok(out)
}

/// The newest rotated snapshot in `dir`, if any.
pub fn latest_snapshot(dir: &Path) -> Result<Option<PathBuf>, CkptError> {
    Ok(list_snapshots(dir)?.pop().map(|(_, p)| p))
}

/// Reads a whole snapshot file, mapping I/O failures to [`CkptError`].
pub fn read_bytes(path: &Path) -> Result<Vec<u8>, CkptError> {
    fs::read(path).map_err(|e| CkptError::io(path, &e))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("ls3df-ckpt-atomic-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn commit_replaces_without_tearing() {
        let d = tmpdir("commit");
        let p = d.join("snap.ls3df");
        AtomicWrite::commit(&p, b"first").unwrap();
        assert_eq!(fs::read(&p).unwrap(), b"first");
        AtomicWrite::commit(&p, b"second, longer payload").unwrap();
        assert_eq!(fs::read(&p).unwrap(), b"second, longer payload");
        // No temp litter left behind.
        let names: Vec<_> = fs::read_dir(&d)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["snap.ls3df".to_string()]);
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn rotation_keeps_newest_k() {
        let d = tmpdir("rotate");
        for it in 1..=5 {
            write_rotated(&d, it, format!("iter {it}").as_bytes(), 2).unwrap();
        }
        let snaps = list_snapshots(&d).unwrap();
        let iters: Vec<usize> = snaps.iter().map(|(i, _)| *i).collect();
        assert_eq!(iters, vec![4, 5]);
        assert_eq!(
            latest_snapshot(&d).unwrap().unwrap(),
            d.join(snapshot_name(5))
        );
        assert_eq!(read_bytes(&d.join(snapshot_name(5))).unwrap(), b"iter 5");
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn keep_zero_still_keeps_the_new_snapshot() {
        let d = tmpdir("keep0");
        write_rotated(&d, 1, b"a", 0).unwrap();
        write_rotated(&d, 2, b"b", 0).unwrap();
        let snaps = list_snapshots(&d).unwrap();
        assert_eq!(snaps.len(), 1);
        assert_eq!(snaps[0].0, 2);
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn listing_ignores_foreign_files_and_missing_dir() {
        let d = tmpdir("foreign");
        fs::write(d.join("notes.txt"), b"x").unwrap();
        fs::write(d.join("scf-abc.ls3df"), b"x").unwrap();
        fs::write(d.join("scf-000007.ls3df.bak"), b"x").unwrap();
        write_rotated(&d, 3, b"real", 5).unwrap();
        let snaps = list_snapshots(&d).unwrap();
        assert_eq!(snaps.len(), 1);
        assert_eq!(snaps[0].0, 3);
        assert!(list_snapshots(&d.join("does-not-exist"))
            .unwrap()
            .is_empty());
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn missing_file_reads_as_typed_io_error() {
        let e = read_bytes(Path::new("/definitely/not/here.ls3df")).unwrap_err();
        assert_eq!(e.kind(), crate::CkptErrorKind::Io);
    }
}

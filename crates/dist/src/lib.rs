//! MPI-shaped transport for two-level processor-group execution.
//!
//! The LS3DF paper (§III) runs as a two-level hierarchy: `M` processor
//! groups each solve their own set of fragments independently, and a thin
//! global layer stitches the patched density together and broadcasts the
//! GENPOT potential. This crate provides the communication substrate for
//! that hierarchy as an MPI-shaped [`Communicator`] trait with two
//! backends:
//!
//! * [`SingleProcess`] — the `M = 1` world: rank 0 of a size-1 world, so
//!   it is the one group and the global layer at once. Its broadcast
//!   hands the payload back.
//! * [`LocalProcs`] — worker processes spawned by a launcher (rank 0),
//!   exchanging length-prefixed CRC-checked frames over Unix-domain
//!   sockets. See [`LocalProcs`] for the topology.
//!
//! The trait carries exactly the SCF's traffic: point-to-point sends to
//! rank 0 (the gathers) and a broadcast from rank 0 (the next
//! potential). A real MPI binding can later slot in behind the same
//! trait without touching the SCF driver.
//!
//! # Bootstrap
//!
//! [`communicator`] is the single entry point. The process model is SPMD
//! re-exec: the launcher re-runs its own executable with
//! [`ENV_RANK`]/[`ENV_SIZE`]/[`ENV_SOCKET`] set, and the child's own call
//! to `communicator` notices [`ENV_RANK`] and connects as a worker
//! instead of spawning. Errors are *fatal by default* at the SCF driver
//! layer (the MPI `MPI_ERRORS_ARE_FATAL` analogue); callers that want to
//! handle [`CommError`] use the driver's `try_scf` entry points.

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![cfg_attr(not(test), warn(clippy::float_cmp))]
#![warn(missing_docs)]

mod collect;
mod local;
mod single;
mod telemetry;
pub(crate) mod wire;

pub use collect::{collect_rank_telemetry, rank_telemetry};
pub use local::LocalProcs;
pub use single::SingleProcess;
pub use telemetry::drain_telemetry;

use ls3df_ckpt::Snapshot;
use std::process::Child;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

/// Env var carrying a worker's rank (set by the launcher; its presence
/// marks the process as a spawned worker).
pub const ENV_RANK: &str = "LS3DF_DIST_RANK";
/// Env var carrying the world size (launcher + workers).
pub const ENV_SIZE: &str = "LS3DF_DIST_SIZE";
/// Env var carrying the Unix-socket path workers connect back to.
pub const ENV_SOCKET: &str = "LS3DF_DIST_SOCKET";
/// Env var bounding every blocking receive, in milliseconds
/// (default [`DEFAULT_TIMEOUT_MS`]). A dead peer therefore surfaces as a
/// typed error instead of a hang.
pub const ENV_TIMEOUT_MS: &str = "LS3DF_DIST_TIMEOUT_MS";
/// Default bounded-receive timeout (two minutes — generous next to any
/// in-repo solve, tiny next to a hung CI job).
pub const DEFAULT_TIMEOUT_MS: u64 = 120_000;

/// Tag bit reserved for post-run telemetry shipment (workers → rank 0).
/// Disjoint from the SCF's plain iteration tags and from the psi-gather
/// bit (bit 31), so a late telemetry frame can never be mistaken for
/// SCF data; the transport's histograms also use it to classify frames.
pub const TELEMETRY_TAG: u32 = 0x4000_0000;

/// Transport-layer failure, always naming the peer rank where one is
/// involved.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CommError {
    /// A peer process exited or its connection was lost.
    RankDown {
        /// The rank that went away.
        rank: usize,
    },
    /// A bounded receive expired with no matching message.
    Timeout {
        /// The rank we were waiting on.
        from: usize,
        /// The message tag we were waiting for.
        tag: u32,
        /// How long we waited, in milliseconds.
        waited_ms: u64,
    },
    /// Malformed or out-of-contract traffic (bad frame, CRC mismatch,
    /// rank out of range, send-to-self, ...).
    Protocol {
        /// Human-readable description.
        detail: String,
    },
    /// An OS-level transport failure that is not a clean peer loss.
    Io {
        /// Human-readable description.
        detail: String,
    },
    /// The communicator could not be constructed (spawn failure, socket
    /// bind failure, malformed bootstrap environment, ...).
    Bootstrap {
        /// Human-readable description.
        detail: String,
    },
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::RankDown { rank } => {
                write!(
                    f,
                    "communicator peer rank {rank} is down (process exited or connection lost)"
                )
            }
            CommError::Timeout {
                from,
                tag,
                waited_ms,
            } => write!(
                f,
                "timed out after {waited_ms} ms waiting for a message from rank {from} (tag {tag})"
            ),
            CommError::Protocol { detail } => write!(f, "communicator protocol error: {detail}"),
            CommError::Io { detail } => write!(f, "communicator transport error: {detail}"),
            CommError::Bootstrap { detail } => write!(f, "communicator bootstrap failed: {detail}"),
        }
    }
}

impl std::error::Error for CommError {}

impl CommError {
    /// Stable kind string, stamped on `down` rank sections in merged run
    /// reports.
    pub fn kind(&self) -> &'static str {
        match self {
            CommError::RankDown { .. } => "rank_down",
            CommError::Timeout { .. } => "timeout",
            CommError::Protocol { .. } => "protocol",
            CommError::Io { .. } => "io",
            CommError::Bootstrap { .. } => "bootstrap",
        }
    }
}

/// MPI-shaped process-group transport.
///
/// [`broadcast`](Communicator::broadcast) must be called by **every**
/// rank in the same order; the backends match calls up with a sequence
/// number, exactly as in MPI.
pub trait Communicator: Send + Sync {
    /// This process's rank in `0..size()`. Rank 0 is the global layer.
    fn rank(&self) -> usize;

    /// Number of cooperating processes (≥ 1).
    fn size(&self) -> usize;

    /// Sends `payload` to rank `to`. Tags disambiguate concurrent
    /// logical streams; a receive only matches the same `(from, tag)`.
    fn send(&self, to: usize, tag: u32, payload: &[u8]) -> Result<(), CommError>;

    /// Blocks (bounded by the configured timeout) for a message from
    /// rank `from` with tag `tag`.
    fn recv(&self, from: usize, tag: u32) -> Result<Vec<u8>, CommError>;

    /// Sends rank 0's `payload` to every rank; every rank returns rank
    /// 0's bytes (rank 0 gets its own payload back untouched, and the
    /// other ranks' `payload` is ignored).
    fn broadcast(&self, payload: Vec<u8>) -> Result<Vec<u8>, CommError>;

    /// Sends a typed section container (the `ls3df-ckpt` [`Snapshot`]
    /// format, so payloads are CRC-checked and versioned on the wire).
    fn send_sections(&self, to: usize, tag: u32, snapshot: &Snapshot) -> Result<(), CommError> {
        let bytes = snapshot.encode().map_err(|e| CommError::Protocol {
            detail: format!("section container encode: {e}"),
        })?;
        self.send(to, tag, &bytes)
    }

    /// Receives and validates a typed section container from `from`.
    fn recv_sections(&self, from: usize, tag: u32) -> Result<Snapshot, CommError> {
        let bytes = self.recv(from, tag)?;
        Snapshot::decode(&bytes).map_err(|e| CommError::Protocol {
            detail: format!("section container decode: {e}"),
        })
    }
}

/// Locks a mutex, recovering the guard if a communicator thread panicked
/// while holding it — the guarded state is a message queue that remains
/// structurally valid, and the failure itself surfaces through the
/// dead-rank machinery rather than a poison panic.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// The bounded-receive timeout from [`ENV_TIMEOUT_MS`] (default
/// [`DEFAULT_TIMEOUT_MS`] when unset).
pub(crate) fn recv_timeout() -> Result<Duration, CommError> {
    let value = std::env::var_os(ENV_TIMEOUT_MS).map(|v| v.to_string_lossy().into_owned());
    parse_timeout(value.as_deref())
}

/// Parses an [`ENV_TIMEOUT_MS`] value: `None` is the default, anything
/// but a positive whole number of milliseconds is a bootstrap error
/// naming the variable and the value.
fn parse_timeout(value: Option<&str>) -> Result<Duration, CommError> {
    match value.map(|v| (v, v.trim().parse::<u64>())) {
        None => Ok(Duration::from_millis(DEFAULT_TIMEOUT_MS)),
        Some((_, Ok(ms))) if ms >= 1 => Ok(Duration::from_millis(ms)),
        Some((value, _)) => Err(CommError::Bootstrap {
            detail: format!("{ENV_TIMEOUT_MS}={value:?} is not a positive number of milliseconds"),
        }),
    }
}

/// The process-wide communicator, installed by the first
/// [`communicator`] call that builds a multi-process world.
static GLOBAL: OnceLock<Arc<dyn Communicator>> = OnceLock::new();
/// Serializes bootstrap so concurrent builders cannot spawn two worker
/// fleets.
static INIT_LOCK: Mutex<()> = Mutex::new(());
/// Spawned worker processes, kept for [`worker_pids`]/[`kill_worker`]
/// (validation hooks in the spirit of the fault-injection API) and so
/// the launcher outlives its children.
static CHILDREN: OnceLock<Mutex<Vec<(usize, Child)>>> = OnceLock::new();

/// Builds (or returns) the communicator for a `groups`-way world.
///
/// Resolution order:
/// 1. a multi-process communicator already installed in this process;
/// 2. [`ENV_RANK`] present → this process is a spawned worker: connect
///    back to the launcher's socket (ignoring `groups`);
/// 3. `groups <= 1` → a fresh [`SingleProcess`] (not cached, so a later
///    build with more groups can still spawn);
/// 4. otherwise → spawn `groups - 1` workers re-execing the current
///    executable and return the hub.
///
/// Multi-process worlds are installed process-wide: every subsequent
/// call returns the same instance regardless of `groups`, matching the
/// once-per-run semantics of `MPI_Init`.
pub fn communicator(groups: usize) -> Result<Arc<dyn Communicator>, CommError> {
    let _init = lock(&INIT_LOCK);
    if let Some(c) = GLOBAL.get() {
        return Ok(Arc::clone(c));
    }
    let timeout = recv_timeout()?;
    if std::env::var_os(ENV_RANK).is_some() {
        let worker = local::bootstrap_worker(timeout)?;
        let arc: Arc<dyn Communicator> = Arc::new(worker);
        return Ok(Arc::clone(GLOBAL.get_or_init(|| arc)));
    }
    if groups <= 1 {
        return Ok(Arc::new(SingleProcess::new()));
    }
    let (hub, children) = local::bootstrap_hub(groups, timeout)?;
    let _ = CHILDREN.set(Mutex::new(children));
    let arc: Arc<dyn Communicator> = Arc::new(hub);
    Ok(Arc::clone(GLOBAL.get_or_init(|| arc)))
}

/// Ranks and OS pids of the spawned workers (empty unless this process
/// is a [`LocalProcs`] launcher).
pub fn worker_pids() -> Vec<(usize, u32)> {
    match CHILDREN.get() {
        Some(children) => lock(children).iter().map(|(r, c)| (*r, c.id())).collect(),
        None => Vec::new(),
    }
}

/// Kills the worker process holding `rank`, returning whether a worker
/// was found and signalled. A validation hook for robustness tests — the
/// production failure path is a worker dying on its own.
pub fn kill_worker(rank: usize) -> bool {
    let Some(children) = CHILDREN.get() else {
        return false;
    };
    let mut children = lock(children);
    for (r, child) in children.iter_mut() {
        if *r == rank {
            let killed = child.kill().is_ok();
            if killed {
                let _ = child.wait();
            }
            return killed;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comm_error_display_names_the_rank() {
        let down = CommError::RankDown { rank: 3 }.to_string();
        assert!(down.contains("rank 3"), "{down}");
        let timeout = CommError::Timeout {
            from: 2,
            tag: 7,
            waited_ms: 5000,
        }
        .to_string();
        assert!(
            timeout.contains("rank 2") && timeout.contains("5000"),
            "{timeout}"
        );
    }

    #[test]
    fn timeout_is_positive_milliseconds_or_a_bootstrap_error_naming_the_value() {
        let default = Duration::from_millis(DEFAULT_TIMEOUT_MS);
        assert_eq!(parse_timeout(None), Ok(default));
        assert_eq!(parse_timeout(Some(" 15000 ")), Ok(Duration::from_secs(15)));
        let max = Duration::from_millis(u64::MAX);
        assert_eq!(parse_timeout(Some(&u64::MAX.to_string())), Ok(max));
        for bad in ["", "0", "-5", "2s", "1.5", "18446744073709551616"] {
            let err = parse_timeout(Some(bad));
            assert!(
                matches!(&err, Err(CommError::Bootstrap { detail })
                    if detail.contains(ENV_TIMEOUT_MS) && detail.contains(&format!("{bad:?}"))),
                "{bad:?} gave {err:?}"
            );
        }
    }
}

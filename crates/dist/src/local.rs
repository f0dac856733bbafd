//! `LocalProcs`: worker processes over Unix-domain sockets.
//!
//! # Topology
//!
//! Rank 0 (the *launcher*) binds a Unix-domain socket in the temp
//! directory, re-execs its own binary `size - 1` times with
//! [`ENV_RANK`](crate::ENV_RANK)/[`ENV_SIZE`](crate::ENV_SIZE)/
//! [`ENV_SOCKET`](crate::ENV_SOCKET) set, and accepts one connection per
//! worker (each announces its rank with a `HELLO` frame). The transport
//! is hub-and-spoke and carries exactly the SCF's two patterns: workers
//! send to rank 0 (the gathers), and rank 0 sends to every worker (the
//! broadcast). A worker addresses rank 0 only; a frame between two
//! workers is out of contract, so the hub never writes a frame it did
//! not originate.
//!
//! The SPMD model matches `mpirun` re-exec semantics: the worker runs
//! the *same* program, and its own `communicator()` call notices
//! [`ENV_RANK`](crate::ENV_RANK) and connects instead of spawning.
//! Worker stdout is routed to null so rank-0 output (digest lines,
//! bench JSON) stays unpolluted; stderr is inherited for diagnostics.
//!
//! # Failure semantics
//!
//! Every blocking receive is bounded by the configured timeout, and a
//! connection EOF marks the peer rank *down*; both surface as typed
//! [`CommError`]s naming the rank instead of hanging the run. A receive
//! that times out mid-frame leaves the stream desynchronized — that is
//! acceptable because every `CommError` is terminal for the SCF run
//! (the `MPI_ERRORS_ARE_FATAL` analogue).

use crate::telemetry::{record_frame, DIR_RECV, DIR_SEND};
use crate::wire::{self, KIND_BCAST, KIND_DATA, KIND_HELLO};
use crate::{lock, CommError, Communicator};
use ls3df_obs::clock::epoch_nanos;
use ls3df_obs::span;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::ErrorKind;
use std::os::unix::net::{UnixListener, UnixStream};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
// obs-audit: deadline/timeout bookkeeping only — comm *measurement*
// goes through ls3df-obs spans and the telemetry histograms.
use std::time::{Duration, Instant};

/// Messages queued at the hub, keyed by `(src, kind, tag)`.
#[derive(Default)]
struct HubState {
    queues: BTreeMap<(usize, u32, u32), VecDeque<Vec<u8>>>,
    dead: BTreeSet<usize>,
}

#[derive(Default)]
struct HubShared {
    state: Mutex<HubState>,
    cv: Condvar,
}

/// Worker-side receive state: the read half of the hub connection plus
/// messages already pulled off the wire for other `(src, kind, tag)`
/// keys than the one currently awaited.
struct WorkerRecv {
    stream: UnixStream,
    pending: BTreeMap<(usize, u32, u32), VecDeque<Vec<u8>>>,
}

enum Role {
    Hub {
        /// Write halves to each worker; index `r - 1` holds rank `r`.
        writers: Vec<Mutex<UnixStream>>,
        shared: Arc<HubShared>,
    },
    Worker {
        writer: Mutex<UnixStream>,
        reader: Mutex<WorkerRecv>,
    },
}

/// Multi-process communicator over Unix-domain sockets (hub-and-spoke,
/// rank 0 at the hub). Built via [`communicator`](crate::communicator),
/// never directly.
pub struct LocalProcs {
    rank: usize,
    size: usize,
    timeout: Duration,
    /// Broadcast sequence counter used as the matching tag, so every
    /// rank's n-th broadcast pairs with every other rank's n-th
    /// regardless of user-level tag traffic.
    bcast_seq: AtomicU32,
    role: Role,
}

fn io_err(context: &str, e: &std::io::Error) -> CommError {
    CommError::Io {
        detail: format!("{context}: {e}"),
    }
}

fn mark_dead(shared: &HubShared, rank: usize) {
    lock(&shared.state).dead.insert(rank);
    shared.cv.notify_all();
}

impl LocalProcs {
    /// Worker `rank` of a size-`size` world over its connection to the
    /// hub.
    fn worker(
        rank: usize,
        size: usize,
        timeout: Duration,
        stream: UnixStream,
    ) -> std::io::Result<Self> {
        let reader = stream.try_clone()?;
        Ok(LocalProcs {
            rank,
            size,
            timeout,
            bcast_seq: AtomicU32::new(0),
            role: Role::Worker {
                writer: Mutex::new(stream),
                reader: Mutex::new(WorkerRecv {
                    stream: reader,
                    pending: BTreeMap::new(),
                }),
            },
        })
    }

    /// The next broadcast's tag: 1 for the first, wrapping.
    fn next_bcast_seq(&self) -> u32 {
        self.bcast_seq
            .fetch_add(1, Ordering::Relaxed)
            .wrapping_add(1)
    }

    fn timed_out(&self, from: usize, tag: u32) -> CommError {
        CommError::Timeout {
            from,
            tag,
            waited_ms: self.timeout.as_millis() as u64,
        }
    }

    /// Rank 0 addresses any worker; a worker addresses rank 0 only.
    fn check_peer(&self, peer: usize, what: &str) -> Result<(), CommError> {
        if peer == self.rank || peer >= self.size || (self.rank != 0 && peer != 0) {
            return Err(CommError::Protocol {
                detail: format!(
                    "{what} rank {peer} invalid from rank {} of a size-{} world",
                    self.rank, self.size
                ),
            });
        }
        Ok(())
    }

    /// Sends one frame, feeding the transport histograms (payload size
    /// and blocking time of the write) when observability is on.
    fn send_frame(&self, dst: usize, kind: u32, tag: u32, payload: &[u8]) -> Result<(), CommError> {
        let t0 = if ls3df_obs::ENABLED { epoch_nanos() } else { 0 };
        let result = self.send_frame_inner(dst, kind, tag, payload);
        if ls3df_obs::ENABLED && result.is_ok() {
            record_frame(
                DIR_SEND,
                kind,
                tag,
                payload.len() as u64,
                epoch_nanos().saturating_sub(t0),
            );
        }
        result
    }

    fn send_frame_inner(
        &self,
        dst: usize,
        kind: u32,
        tag: u32,
        payload: &[u8],
    ) -> Result<(), CommError> {
        self.check_peer(dst, "send to")?;
        let bytes = wire::encode_frame(self.rank, dst, kind, tag, payload)?;
        let (writer, hub) = match &self.role {
            Role::Hub { writers, shared } => {
                if lock(&shared.state).dead.contains(&dst) {
                    return Err(CommError::RankDown { rank: dst });
                }
                (&writers[dst - 1], Some(shared))
            }
            Role::Worker { writer, .. } => (writer, None),
        };
        wire::write_frame(&mut *lock(writer), &bytes).map_err(|e| {
            if let Some(shared) = hub {
                mark_dead(shared, dst);
            }
            if e.kind() == ErrorKind::BrokenPipe {
                CommError::RankDown { rank: dst }
            } else {
                io_err("send", &e)
            }
        })
    }

    /// Receives one frame, feeding the transport histograms (payload
    /// size and blocking wait time) when observability is on.
    fn recv_frame(&self, from: usize, kind: u32, tag: u32) -> Result<Vec<u8>, CommError> {
        let t0 = if ls3df_obs::ENABLED { epoch_nanos() } else { 0 };
        let result = self.recv_frame_inner(from, kind, tag);
        if ls3df_obs::ENABLED {
            if let Ok(payload) = &result {
                record_frame(
                    DIR_RECV,
                    kind,
                    tag,
                    payload.len() as u64,
                    epoch_nanos().saturating_sub(t0),
                );
            }
        }
        result
    }

    fn recv_frame_inner(&self, from: usize, kind: u32, tag: u32) -> Result<Vec<u8>, CommError> {
        self.check_peer(from, "recv from")?;
        // obs-audit: bounded-receive deadline, not a measurement.
        let deadline = Instant::now() + self.timeout;
        let key = (from, kind, tag);
        match &self.role {
            Role::Hub { shared, .. } => {
                let mut st = lock(&shared.state);
                loop {
                    if let Some(msg) = st.queues.get_mut(&key).and_then(VecDeque::pop_front) {
                        return Ok(msg);
                    }
                    if st.dead.contains(&from) {
                        return Err(CommError::RankDown { rank: from });
                    }
                    // obs-audit: deadline arithmetic, not a measurement.
                    let now = Instant::now();
                    if now >= deadline {
                        return Err(self.timed_out(from, tag));
                    }
                    st = match shared.cv.wait_timeout(st, deadline - now) {
                        Ok((guard, _)) => guard,
                        Err(poisoned) => poisoned.into_inner().0,
                    };
                }
            }
            Role::Worker { reader, .. } => {
                let mut r = lock(reader);
                loop {
                    if let Some(msg) = r.pending.get_mut(&key).and_then(VecDeque::pop_front) {
                        return Ok(msg);
                    }
                    // obs-audit: deadline arithmetic, not a measurement.
                    let now = Instant::now();
                    if now >= deadline {
                        return Err(self.timed_out(from, tag));
                    }
                    r.stream
                        .set_read_timeout(Some(deadline - now))
                        .map_err(|e| io_err("set read timeout", &e))?;
                    match wire::read_frame(&mut r.stream) {
                        Ok(bytes) => {
                            let frame = wire::decode_frame(&bytes)?;
                            if frame.src != 0 || frame.dst != self.rank {
                                return Err(CommError::Protocol {
                                    detail: format!(
                                        "rank {} got a frame from rank {} to rank {}; \
                                         workers hear from rank 0 only",
                                        self.rank, frame.src, frame.dst
                                    ),
                                });
                            }
                            r.pending
                                .entry((frame.src, frame.kind, frame.tag))
                                .or_default()
                                .push_back(frame.payload);
                        }
                        Err(e)
                            if e.kind() == ErrorKind::WouldBlock
                                || e.kind() == ErrorKind::TimedOut =>
                        {
                            return Err(self.timed_out(from, tag));
                        }
                        // EOF stays EOF: every later receive lands here too.
                        Err(e) if e.kind() == ErrorKind::UnexpectedEof => {
                            return Err(CommError::RankDown { rank: 0 });
                        }
                        Err(e) => return Err(io_err("worker recv", &e)),
                    }
                }
            }
        }
    }
}

impl Communicator for LocalProcs {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn send(&self, to: usize, tag: u32, payload: &[u8]) -> Result<(), CommError> {
        let _span = span!("comm_send");
        self.send_frame(to, KIND_DATA, tag, payload)
    }

    fn recv(&self, from: usize, tag: u32) -> Result<Vec<u8>, CommError> {
        let _span = span!("comm_recv");
        self.recv_frame(from, KIND_DATA, tag)
    }

    fn broadcast(&self, payload: Vec<u8>) -> Result<Vec<u8>, CommError> {
        let _span = span!("comm_bcast");
        let seq = self.next_bcast_seq();
        if self.rank == 0 {
            for r in 1..self.size {
                self.send_frame(r, KIND_BCAST, seq, &payload)?;
            }
            Ok(payload)
        } else {
            self.recv_frame(0, KIND_BCAST, seq)
        }
    }
}

/// Monotonic suffix for socket paths, so two worlds bootstrapped by one
/// process (e.g. sequential tests) never collide.
static SOCKET_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Spawns `groups - 1` workers and returns the hub communicator plus the
/// child handles (for `worker_pids`/`kill_worker`).
pub(crate) fn bootstrap_hub(
    groups: usize,
    timeout: Duration,
) -> Result<(LocalProcs, Vec<(usize, Child)>), CommError> {
    let boot = |detail: String| CommError::Bootstrap { detail };
    let exe = std::env::current_exe().map_err(|e| boot(format!("current_exe: {e}")))?;
    let socket_path = std::env::temp_dir().join(format!(
        "ls3df-dist-{}-{}.sock",
        std::process::id(),
        SOCKET_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    // A stale path from a crashed earlier run with the same pid would
    // fail the bind; clear it.
    let _ = std::fs::remove_file(&socket_path);
    let listener = UnixListener::bind(&socket_path)
        .map_err(|e| boot(format!("bind {}: {e}", socket_path.display())))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| boot(format!("listener nonblocking: {e}")))?;

    let mut children: Vec<(usize, Child)> = Vec::with_capacity(groups - 1);
    let mut slots: Vec<Option<UnixStream>> = (1..groups).map(|_| None).collect();
    let started: Result<(), CommError> = (|| {
        // SPMD re-exec: same binary, same CLI args, ranked environment.
        let args: Vec<String> = std::env::args().skip(1).collect();
        for rank in 1..groups {
            let child = Command::new(&exe)
                .args(&args)
                .env(crate::ENV_RANK, rank.to_string())
                .env(crate::ENV_SIZE, groups.to_string())
                .env(crate::ENV_SOCKET, &socket_path)
                .stdout(Stdio::null())
                .stderr(Stdio::inherit())
                .spawn()
                .map_err(|e| boot(format!("spawn worker rank {rank}: {e}")))?;
            children.push((rank, child));
        }

        // Accept one connection per worker; each opens with a HELLO frame
        // carrying its rank, so connection order does not matter.
        // obs-audit: bootstrap deadline bookkeeping, not a measurement.
        let deadline = Instant::now() + timeout;
        let mut connected = 0usize;
        while connected < groups - 1 {
            match listener.accept() {
                Ok((stream, _)) => {
                    stream
                        .set_nonblocking(false)
                        .map_err(|e| boot(format!("stream blocking: {e}")))?;
                    stream
                        .set_read_timeout(Some(
                            deadline
                                // obs-audit: remaining-deadline math.
                                .saturating_duration_since(Instant::now())
                                .max(Duration::from_millis(1)),
                        ))
                        .map_err(|e| boot(format!("hello timeout: {e}")))?;
                    let mut s = &stream;
                    let bytes =
                        wire::read_frame(&mut s).map_err(|e| boot(format!("read hello: {e}")))?;
                    let hello = wire::decode_frame(&bytes)?;
                    if hello.kind != KIND_HELLO || hello.src == 0 || hello.src >= groups {
                        return Err(boot(format!(
                            "bad hello (kind {}, claimed rank {})",
                            hello.kind, hello.src
                        )));
                    }
                    let slot = &mut slots[hello.src - 1];
                    if slot.is_some() {
                        return Err(boot(format!("rank {} connected twice", hello.src)));
                    }
                    *slot = Some(stream);
                    connected += 1;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    // obs-audit: bootstrap deadline check, not a measurement.
                    if Instant::now() >= deadline {
                        return Err(boot(format!(
                            "timed out waiting for workers ({connected}/{} connected)",
                            groups - 1
                        )));
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => return Err(boot(format!("accept: {e}"))),
            }
        }
        Ok(())
    })();
    // Connected or not, the filesystem name is no longer needed.
    let _ = std::fs::remove_file(&socket_path);
    if let Err(e) = started {
        for (_, c) in children.iter_mut() {
            let _ = c.kill();
            let _ = c.wait();
        }
        return Err(e);
    }

    let shared = Arc::new(HubShared::default());
    let mut writers = Vec::with_capacity(groups - 1);
    for (i, slot) in slots.into_iter().enumerate() {
        let rank = i + 1;
        let stream = slot.ok_or_else(|| boot(format!("rank {rank} never connected")))?;
        stream
            .set_read_timeout(None)
            .map_err(|e| boot(format!("clear read timeout: {e}")))?;
        let read_half = stream
            .try_clone()
            .map_err(|e| boot(format!("clone stream for rank {rank}: {e}")))?;
        // One reader thread per worker. Readers block indefinitely —
        // bounded waiting lives at the recv() condvar, so an idle
        // connection is never mistaken for a dead one.
        spawn_reader(rank, read_half, Arc::clone(&shared))
            .map_err(|e| boot(format!("spawn reader thread: {e}")))?;
        writers.push(Mutex::new(stream));
    }

    let hub = LocalProcs {
        rank: 0,
        size: groups,
        timeout,
        bcast_seq: AtomicU32::new(0),
        role: Role::Hub { writers, shared },
    };
    Ok((hub, children))
}

/// The hub's reader for rank `rank`'s connection: queues every frame
/// that rank sends to rank 0 until a `recv` takes it. EOF, a corrupt
/// frame, or a frame claiming another sender or addressed to another
/// rank marks the connection down and ends the thread.
fn spawn_reader(
    rank: usize,
    mut stream: UnixStream,
    shared: Arc<HubShared>,
) -> std::io::Result<()> {
    std::thread::Builder::new()
        .name(format!("ls3df-dist-reader-{rank}"))
        .spawn(move || loop {
            let frame = match wire::read_frame(&mut stream) {
                Ok(bytes) => wire::decode_frame(&bytes),
                Err(_) => {
                    mark_dead(&shared, rank);
                    break;
                }
            };
            match frame {
                Ok(frame) if frame.src == rank && frame.dst == 0 => {
                    lock(&shared.state)
                        .queues
                        .entry((frame.src, frame.kind, frame.tag))
                        .or_default()
                        .push_back(frame.payload);
                    shared.cv.notify_all();
                }
                _ => {
                    // Corrupt or out-of-contract traffic: treat the
                    // connection as lost.
                    mark_dead(&shared, rank);
                    break;
                }
            }
        })
        .map(drop)
}

/// Connects back to the launcher using the ranked environment.
pub(crate) fn bootstrap_worker(timeout: Duration) -> Result<LocalProcs, CommError> {
    let boot = |detail: String| CommError::Bootstrap { detail };
    let env_num = |key: &str| -> Result<usize, CommError> {
        std::env::var(key)
            .map_err(|_| boot(format!("{key} not set")))?
            .parse::<usize>()
            .map_err(|e| boot(format!("{key}: {e}")))
    };
    let rank = env_num(crate::ENV_RANK)?;
    let size = env_num(crate::ENV_SIZE)?;
    if rank == 0 || rank >= size {
        return Err(boot(format!(
            "worker rank {rank} out of range for size {size}"
        )));
    }
    let path = std::env::var(crate::ENV_SOCKET)
        .map_err(|_| boot(format!("{} not set", crate::ENV_SOCKET)))?;

    // The launcher binds before spawning, so the first attempt normally
    // succeeds; retry briefly to absorb filesystem races.
    // obs-audit: connect-retry deadline bookkeeping, not a measurement.
    let deadline = Instant::now() + timeout;
    let stream = loop {
        match UnixStream::connect(&path) {
            Ok(s) => break s,
            Err(e) => {
                // obs-audit: deadline check, not a measurement.
                if Instant::now() >= deadline {
                    return Err(boot(format!("connect {path}: {e}")));
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    };
    let worker = LocalProcs::worker(rank, size, timeout, stream)
        .map_err(|e| boot(format!("clone worker stream: {e}")))?;
    // Announce our rank so the hub can slot the connection.
    worker
        .send_frame(0, KIND_HELLO, 0, &[])
        .map_err(|e| boot(format!("hello: {e}")))?;
    Ok(worker)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write(stream: &mut UnixStream, src: usize, dst: usize, payload: &[u8]) {
        let bytes = wire::encode_frame(src, dst, KIND_DATA, 7, payload).unwrap();
        wire::write_frame(stream, &bytes).unwrap();
    }

    /// Worker rank 1 of a size-3 world, and the hub's end of its
    /// connection with `frame` (src, dst) already sent down it.
    fn worker_after(frame: (usize, usize), timeout_ms: u64) -> (LocalProcs, UnixStream) {
        let (worker_end, mut hub_end) = UnixStream::pair().unwrap();
        write(&mut hub_end, frame.0, frame.1, b"frame");
        let timeout = Duration::from_millis(timeout_ms);
        (
            LocalProcs::worker(1, 3, timeout, worker_end).unwrap(),
            hub_end,
        )
    }

    #[test]
    fn a_worker_addresses_rank_0_only_without_touching_the_socket() {
        let (worker, mut hub_end) = worker_after((0, 1), 5_000);
        let send = worker.send(2, 7, b"for rank 2");
        assert!(matches!(send, Err(CommError::Protocol { .. })), "{send:?}");
        let recv = worker.recv(2, 7);
        assert!(matches!(recv, Err(CommError::Protocol { .. })), "{recv:?}");
        // Nothing went toward the hub, and the hub's frame is still the
        // next one on the wire.
        hub_end.set_nonblocking(true).unwrap();
        let unread = std::io::Read::read(&mut hub_end, &mut [0u8; 1]);
        assert!(
            matches!(&unread, Err(e) if e.kind() == ErrorKind::WouldBlock),
            "{unread:?}"
        );
        assert_eq!(worker.recv(0, 7).unwrap(), b"frame");
    }

    #[test]
    fn a_frame_for_another_rank_is_a_protocol_error_at_the_worker() {
        let (worker, _hub_end) = worker_after((0, 2), 500);
        match worker.recv(0, 7) {
            Err(CommError::Protocol { detail }) => {
                assert!(detail.contains("to rank 2"), "{detail}")
            }
            other => panic!("expected a protocol error, got {other:?}"),
        }
    }

    #[test]
    fn a_frame_for_another_rank_marks_its_sender_down_at_the_hub() {
        let shared = Arc::new(HubShared::default());
        let (mut worker_end, hub_end) = UnixStream::pair().unwrap();
        spawn_reader(1, hub_end, Arc::clone(&shared)).unwrap();
        write(&mut worker_end, 1, 0, b"gathered");
        write(&mut worker_end, 1, 2, b"relay me");
        // The connection stays open, so only the out-of-contract frame
        // can mark it down; the legitimate frame before it is queued.
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut state = lock(&shared.state);
        while !state.dead.contains(&1) && Instant::now() < deadline {
            state = shared
                .cv
                .wait_timeout(state, Duration::from_millis(20))
                .unwrap()
                .0;
        }
        assert!(state.dead.contains(&1), "the sender was not marked down");
        let queued: Vec<_> = state.queues.keys().collect();
        assert_eq!(queued, [&(1, KIND_DATA, 7)]);
    }
}

//! Simulated MPI substrate with pluggable transports.
//!
//! JSweep's runtime was built on MPI + threads on Tianhe-II. This crate
//! reproduces the slice of MPI semantics the runtime consumes — ranks
//! with asynchronous, per-pair-ordered point-to-point messages, plus a
//! few collectives and distributed termination detection — behind a
//! pluggable [`CommBackend`] transport seam:
//!
//! * [`Comm`] provides tagged `send` / `try_recv` / `recv_match`,
//!   collectives (`barrier`, `allreduce_sum_f64_slice`) and epoch-boundary
//!   [`Comm::drain_user`] over any backend;
//! * [`backend`] defines the [`CommBackend`] trait and the default
//!   [`ThreadBackend`] (ranks as OS threads, crossbeam channels as the
//!   fabric — see DESIGN.md §2 for why this substitution preserves the
//!   behaviour under study);
//! * [`socket`] is the process-grade backend: ranks connected over
//!   UNIX-domain sockets, so a rank can be a separate OS process;
//! * [`Universe::run`] spawns `n` rank threads over the thread fabric,
//!   [`socket::SocketUniverse`] does the same over sockets;
//! * [`termination`] implements both termination detectors the paper
//!   supports (§IV-C): the general Dijkstra–Safra token protocol and
//!   the workload-counting shortcut for algorithms with known totals;
//! * [`pack`] is the byte-level stream codec (the pack/unpack cost that
//!   Fig. 16 profiles);
//! * [`doorbell`] is each rank's one wake source: the fabric rings it
//!   when a message arrives, the runtime's workers when they hand the
//!   master something, and [`Comm::wait`] parks on it.
//!
//! Transport failure is a first-class outcome, not a panic: every
//! operation that touches the fabric returns `Result<_, `[`CommError`]`>`,
//! and the runtime maps a dead peer into its fault taxonomy (rank
//! death) so retry/relaunch machinery covers the transport too.

#![deny(missing_docs)]

pub mod backend;
pub mod doorbell;
pub mod pack;
pub mod socket;
pub mod termination;

pub use backend::{CommBackend, CommError, ThreadBackend};
pub use doorbell::Doorbell;

use bytes::Bytes;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

/// Tags at or above this value are reserved for the substrate
/// (collectives, termination). User code must stay below.
pub const RESERVED_TAG_BASE: u32 = u32::MAX - 16;
/// Collective phase tag (barrier / reductions).
pub const TAG_COLLECTIVE: u32 = RESERVED_TAG_BASE;
/// Dijkstra–Safra token.
pub const TAG_TOKEN: u32 = RESERVED_TAG_BASE + 1;
/// Global termination announcement.
pub const TAG_TERMINATE: u32 = RESERVED_TAG_BASE + 2;
/// "This rank finished its known workload" report (counting detector).
pub const TAG_LOCAL_DONE: u32 = RESERVED_TAG_BASE + 3;

/// Which transport fabric connects the ranks of a world.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// Ranks as threads in one address space, crossbeam channels as the
    /// wire ([`ThreadBackend`]). The fast default.
    #[default]
    Thread,
    /// Ranks connected over UNIX-domain sockets
    /// ([`socket::SocketBackend`]); ranks may live in separate
    /// processes.
    Socket,
}

/// A received message.
#[derive(Debug, Clone)]
pub struct Message {
    /// Sending rank.
    pub src: usize,
    /// User or reserved tag.
    pub tag: u32,
    /// Opaque payload (see [`pack`]).
    pub payload: Bytes,
}

impl Message {
    /// The payload, if it is exactly `len` bytes. Protocol payloads —
    /// collectives, the termination token — are bytes off a wire: a
    /// peer that sends one of the wrong length is treated as gone (the
    /// mapping `socket.rs` uses for a corrupt header), so the failure
    /// names the sender instead of panicking the rank that looked.
    pub(crate) fn exactly(&self, len: usize) -> Result<&[u8], CommError> {
        if self.payload.len() == len {
            Ok(&self.payload)
        } else {
            Err(CommError::PeerClosed { peer: self.src })
        }
    }
}

/// One rank's endpoint of the communicator.
///
/// Owns a boxed [`CommBackend`] for raw tagged delivery plus the
/// transport-independent machinery every backend shares: the stash of
/// messages set aside by [`Comm::recv_match`], the collectives, and the
/// epoch-boundary [`Comm::drain_user`] sweep.
pub struct Comm {
    backend: Box<dyn CommBackend>,
    /// Messages received while waiting for a specific tag.
    stash: VecDeque<Message>,
}

impl Comm {
    /// Wrap a transport endpoint into a full communicator.
    pub fn from_backend(backend: Box<dyn CommBackend>) -> Comm {
        Comm {
            backend,
            stash: VecDeque::new(),
        }
    }

    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.backend.rank()
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.backend.size()
    }

    /// Asynchronous tagged send. Sending to self is allowed (the message
    /// is delivered through the same receive path as remote ones).
    /// Fails if the destination is dead instead of unwinding the caller.
    pub fn send(&self, to: usize, tag: u32, payload: Bytes) -> Result<(), CommError> {
        self.backend.send(to, tag, payload)
    }

    /// Non-blocking receive of the next message of *any* tag, checking
    /// the stash first. `Ok(None)` means "nothing available right now";
    /// an error means a peer died (delivered only after everything it
    /// managed to send has been drained).
    pub fn try_recv(&mut self) -> Result<Option<Message>, CommError> {
        if let Some(m) = self.stash.pop_front() {
            return Ok(Some(m));
        }
        self.backend.try_recv()
    }

    /// Park until a message may be waiting or this rank's
    /// [`Doorbell`] rings, for at most `timeout` (`None`: no bound).
    /// Returns at once if a message is already stashed or buffered; may
    /// return spuriously, so callers re-check with [`Comm::try_recv`].
    pub fn wait(&mut self, timeout: Option<Duration>) {
        if self.stash.is_empty() {
            self.backend.wait(timeout);
        }
    }

    /// This rank's wake source, for whoever must wake a rank parked in
    /// [`Comm::wait`].
    pub fn doorbell(&self) -> Arc<Doorbell> {
        self.backend.doorbell()
    }

    /// Blocking receive of any message.
    pub fn recv(&mut self) -> Result<Message, CommError> {
        if let Some(m) = self.stash.pop_front() {
            return Ok(m);
        }
        self.backend.recv()
    }

    /// Blocking receive of the next message with the given tag;
    /// other messages are stashed (and later returned by
    /// `try_recv`/`recv` in arrival order).
    pub fn recv_match(&mut self, tag: u32) -> Result<Message, CommError> {
        // Check the stash first.
        if let Some(pos) = self.stash.iter().position(|m| m.tag == tag) {
            return Ok(self.stash.remove(pos).unwrap());
        }
        loop {
            let m = self.backend.recv()?;
            if m.tag == tag {
                return Ok(m);
            }
            self.stash.push_back(m);
        }
    }

    /// Discard every currently queued or stashed **user** message
    /// (tag below [`RESERVED_TAG_BASE`]), preserving reserved-tag
    /// protocol messages in arrival order. Returns the number of user
    /// messages dropped.
    ///
    /// This is the epoch-boundary cleanup of a persistent runtime:
    /// after global termination, anything user-tagged still queued is
    /// residue of the finished epoch, while reserved traffic (e.g. a
    /// peer's barrier message for the *next* synchronisation) must
    /// survive the sweep.
    pub fn drain_user(&mut self) -> Result<usize, CommError> {
        let mut kept = VecDeque::new();
        let mut dropped = 0;
        loop {
            let m = match self.try_recv() {
                Ok(Some(m)) => m,
                Ok(None) => break,
                Err(e) => {
                    // Keep what we already sorted, then report the death.
                    self.stash = kept;
                    return Err(e);
                }
            };
            if m.tag >= RESERVED_TAG_BASE {
                kept.push_back(m);
            } else {
                dropped += 1;
            }
        }
        // `try_recv` drained the stash first, so it is empty now.
        self.stash = kept;
        Ok(dropped)
    }

    /// Synchronise all ranks. Must be called collectively; no other
    /// collective may be in flight concurrently.
    pub fn barrier(&mut self) -> Result<(), CommError> {
        if self.rank() == 0 {
            for _ in 1..self.size() {
                let _ = self.recv_match(TAG_COLLECTIVE)?;
            }
            for r in 1..self.size() {
                self.send(r, TAG_COLLECTIVE, Bytes::new())?;
            }
        } else {
            self.send(0, TAG_COLLECTIVE, Bytes::new())?;
            let _ = self.recv_match(TAG_COLLECTIVE)?;
        }
        Ok(())
    }

    /// Elementwise sum of an `f64` slice across all ranks (collective),
    /// in place. Rank 0 accumulates contributions **in rank order**
    /// (deterministic, bit-exact regardless of arrival order) and
    /// broadcasts the result.
    ///
    /// This is the SPMD flux reduction: each rank deposits only its own
    /// patches' cells (disjoint supports, zeros elsewhere), and the
    /// reduction assembles the full field identically on every rank.
    pub fn allreduce_sum_f64_slice(&mut self, xs: &mut [f64]) -> Result<(), CommError> {
        if self.size() == 1 {
            return Ok(());
        }
        if self.rank() == 0 {
            let mut parts: Vec<Option<Bytes>> = vec![None; self.size()];
            for _ in 1..self.size() {
                let m = self.recv_match(TAG_COLLECTIVE)?;
                m.exactly(xs.len() * 8)?;
                parts[m.src] = Some(m.payload);
            }
            for part in parts.into_iter().flatten() {
                for (x, c) in xs.iter_mut().zip(part.chunks_exact(8)) {
                    *x += f64::from_le_bytes(c.try_into().unwrap());
                }
            }
            let mut buf = Vec::with_capacity(xs.len() * 8);
            for x in xs.iter() {
                buf.extend_from_slice(&x.to_le_bytes());
            }
            let payload = Bytes::from(buf);
            for r in 1..self.size() {
                self.send(r, TAG_COLLECTIVE, payload.clone())?;
            }
        } else {
            let mut buf = Vec::with_capacity(xs.len() * 8);
            for x in xs.iter() {
                buf.extend_from_slice(&x.to_le_bytes());
            }
            self.send(0, TAG_COLLECTIVE, Bytes::from(buf))?;
            let m = self.recv_match(TAG_COLLECTIVE)?;
            let sum = m.exactly(xs.len() * 8)?;
            for (x, c) in xs.iter_mut().zip(sum.chunks_exact(8)) {
                *x = f64::from_le_bytes(c.try_into().unwrap());
            }
        }
        Ok(())
    }

    /// Gracefully tear down the endpoint: peers will see the following
    /// silence as intentional rather than a death. Idempotent.
    pub fn close(&mut self) {
        self.backend.close();
    }
}

/// The simulated "MPI world" over the thread fabric: spawns rank
/// threads and joins them.
pub struct Universe;

impl Universe {
    /// Create the `n` connected [`Comm`] endpoints of a simulated MPI
    /// world without running anything, in rank order.
    ///
    /// This is the substrate of long-lived (resident) runtimes: the
    /// caller owns the rank threads and their lifetimes, while
    /// [`Universe::run`] remains the one-shot spawn-and-join wrapper.
    pub fn endpoints(n: usize) -> Vec<Comm> {
        ThreadBackend::endpoints(n)
            .into_iter()
            .map(|b| Comm::from_backend(Box::new(b)))
            .collect()
    }

    /// Run `f` on `n` rank threads; returns each rank's result in rank
    /// order. Panics in any rank propagate.
    pub fn run<R, F>(n: usize, f: F) -> Vec<R>
    where
        R: Send + 'static,
        F: Fn(Comm) -> R + Send + Sync + 'static,
    {
        let f = std::sync::Arc::new(f);
        let mut handles = Vec::with_capacity(n);
        for comm in Universe::endpoints(n) {
            let rank = comm.rank();
            let f = f.clone();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("rank-{rank}"))
                    .spawn(move || f(comm))
                    .expect("spawn rank thread"),
            );
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread panicked"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_pass() {
        let results = Universe::run(4, |mut comm| {
            let next = (comm.rank() + 1) % comm.size();
            comm.send(next, 7, Bytes::copy_from_slice(&[comm.rank() as u8]))
                .unwrap();
            let m = comm.recv_match(7).unwrap();
            (m.src, m.payload[0])
        });
        for (rank, (src, byte)) in results.into_iter().enumerate() {
            assert_eq!(src, (rank + 3) % 4);
            assert_eq!(byte as usize, src);
        }
    }

    #[test]
    fn single_rank_universe() {
        let r = Universe::run(1, |mut comm| {
            comm.barrier().unwrap();
            let mut xs = [2.5];
            comm.allreduce_sum_f64_slice(&mut xs).unwrap();
            xs[0]
        });
        assert_eq!(r, vec![2.5]);
    }

    #[test]
    fn barrier_synchronises() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static BEFORE: AtomicUsize = AtomicUsize::new(0);
        let _ = Universe::run(4, |mut comm| {
            BEFORE.fetch_add(1, Ordering::SeqCst);
            comm.barrier().unwrap();
            assert_eq!(BEFORE.load(Ordering::SeqCst), 4);
        });
    }

    #[test]
    fn allreduce_slice_sums_disjoint_supports() {
        let results = Universe::run(3, |mut comm| {
            // Each rank deposits into its own third of the field.
            let mut xs = vec![0.0f64; 6];
            xs[comm.rank() * 2] = comm.rank() as f64 + 1.0;
            xs[comm.rank() * 2 + 1] = 10.0 * (comm.rank() as f64 + 1.0);
            comm.allreduce_sum_f64_slice(&mut xs).unwrap();
            xs
        });
        for xs in results {
            assert_eq!(xs, vec![1.0, 10.0, 2.0, 20.0, 3.0, 30.0]);
        }
    }

    #[test]
    fn recv_match_stashes_other_tags() {
        let r = Universe::run(2, |mut comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, Bytes::copy_from_slice(b"first")).unwrap();
                comm.send(1, 2, Bytes::copy_from_slice(b"second")).unwrap();
                0
            } else {
                // Wait for tag 2 first; tag 1 must be stashed, not lost.
                let m2 = comm.recv_match(2).unwrap();
                assert_eq!(&m2.payload[..], b"second");
                let m1 = comm.try_recv().unwrap().expect("stashed message lost");
                assert_eq!(m1.tag, 1);
                assert_eq!(&m1.payload[..], b"first");
                1
            }
        });
        assert_eq!(r, vec![0, 1]);
    }

    #[test]
    fn self_send_is_delivered() {
        let r = Universe::run(1, |mut comm| {
            comm.send(0, 9, Bytes::copy_from_slice(b"me")).unwrap();
            comm.recv_match(9).unwrap().payload
        });
        assert_eq!(&r[0][..], b"me");
    }

    #[test]
    fn blocking_recv_returns_stashed_first() {
        let r = Universe::run(1, |mut comm| {
            comm.send(0, 3, Bytes::copy_from_slice(b"a")).unwrap();
            comm.send(0, 4, Bytes::copy_from_slice(b"b")).unwrap();
            // Match tag 4 first, stashing tag 3; blocking recv must then
            // return the stashed message before any new one.
            let _ = comm.recv_match(4).unwrap();
            let m = comm.recv().unwrap();
            m.tag
        });
        assert_eq!(r, vec![3]);
    }

    #[test]
    fn per_pair_ordering_preserved() {
        let r = Universe::run(2, |mut comm| {
            if comm.rank() == 0 {
                for i in 0..100u32 {
                    comm.send(1, 5, Bytes::copy_from_slice(&i.to_le_bytes()))
                        .unwrap();
                }
                Vec::new()
            } else {
                (0..100)
                    .map(|_| {
                        let m = comm.recv_match(5).unwrap();
                        u32::from_le_bytes(m.payload[..4].try_into().unwrap())
                    })
                    .collect()
            }
        });
        assert_eq!(r[1], (0..100).collect::<Vec<u32>>());
    }
}

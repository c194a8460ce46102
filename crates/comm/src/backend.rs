//! The pluggable transport seam: [`CommBackend`] and the default
//! in-process [`ThreadBackend`].
//!
//! [`crate::Comm`] owns everything transport-independent — the stash,
//! `recv_match`, `drain_user`, barriers and reductions — and delegates
//! raw tagged delivery to a boxed [`CommBackend`]. A backend provides
//! exactly five operations (send, non-blocking recv, blocking recv,
//! wait, close) plus its identity and its rank's [`Doorbell`];
//! everything a backend promises is pinned by
//! `tests/comm_conformance.rs`, the executable contract any future
//! transport (TCP, shared-memory rings) must pass.

use crate::{Doorbell, Message};
use bytes::Bytes;
use crossbeam::channel::{Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::time::Duration;

/// A transport-level failure surfaced by a [`CommBackend`].
///
/// Errors are *sticky* diagnoses of a broken world, not transient
/// conditions: once a peer is gone the endpoint keeps reporting it
/// (after first delivering any messages that were already buffered).
/// The runtime maps this into the fault taxonomy as a rank-death
/// `EpochFault`, so the session's retry/relaunch machinery covers
/// transport failure the same way it covers panics and stalls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommError {
    /// The connection to `peer` is gone without a graceful close —
    /// the process or thread behind it died.
    PeerClosed {
        /// Rank id of the vanished peer.
        peer: usize,
    },
    /// A blocking receive found nothing buffered and every peer has
    /// closed gracefully: no message can ever arrive.
    AllPeersClosed,
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::PeerClosed { peer } => write!(f, "peer rank {peer} hung up"),
            CommError::AllPeersClosed => {
                write!(f, "blocking receive after every peer closed gracefully")
            }
        }
    }
}

impl std::error::Error for CommError {}

/// One rank's raw transport endpoint.
///
/// Contract (pinned by `tests/comm_conformance.rs`):
///
/// * **Per-pair FIFO** — messages from one sender arrive in send order;
///   no ordering is promised across senders.
/// * **Self-send** — `send(rank, ..)` is delivered through the same
///   receive path as remote messages.
/// * **Buffered-then-error** — when a peer dies, messages it sent
///   before dying are still delivered; only once the buffer is dry does
///   `try_recv`/`recv` return [`CommError::PeerClosed`].
/// * **Graceful close is silent** — a peer that called [`close`]
///   (rather than dying) simply never delivers again; it is not an
///   error. Only a blocking `recv` that could therefore never return
///   — nothing buffered, every peer closed — fails, with
///   [`CommError::AllPeersClosed`], where the backend can observe it.
/// * `send` takes `&self` so the master can send while logically
///   holding the endpoint; `try_recv` must be cheap enough to poll in
///   the master drain loop.
/// * **One wake source** — every message that arrives for a rank wakes
///   a [`wait`] parked on that rank, and so does a ring of its
///   [`doorbell`]; a ring that comes before the wait makes it return at
///   once. A wait never needs a timer to notice traffic.
///
/// [`wait`]: CommBackend::wait
/// [`doorbell`]: CommBackend::doorbell
///
/// [`close`]: CommBackend::close
pub trait CommBackend: Send {
    /// This endpoint's rank id.
    fn rank(&self) -> usize;

    /// Number of ranks in the world.
    fn size(&self) -> usize;

    /// Asynchronous tagged send. Fails with [`CommError::PeerClosed`]
    /// if the destination endpoint is gone.
    fn send(&self, to: usize, tag: u32, payload: Bytes) -> Result<(), CommError>;

    /// Non-blocking receive of the next message of any tag.
    /// `Ok(None)` means "nothing available right now".
    fn try_recv(&mut self) -> Result<Option<Message>, CommError>;

    /// Blocking receive of the next message of any tag.
    fn recv(&mut self) -> Result<Message, CommError>;

    /// Park until a message may have arrived or the rank's doorbell
    /// rang, for at most `timeout` (`None`: no bound). Returns at once
    /// if a message is already buffered. May return spuriously.
    fn wait(&mut self, timeout: Option<Duration>);

    /// This rank's wake source (shared: the runtime's workers ring it).
    fn doorbell(&self) -> Arc<Doorbell>;

    /// Gracefully tear down this endpoint, telling peers the silence
    /// that follows is intentional (not a death). Idempotent. Dropping
    /// an endpoint *without* closing it is how peers detect a death.
    fn close(&mut self);
}

/// The default fabric: ranks as threads in one address space, crossbeam
/// channels as the wire. Zero-copy, unbounded, never drops. Every send
/// rings the destination rank's [`Doorbell`] after queueing.
///
/// One asymmetry with process-grade backends is inherent: because every
/// endpoint holds a sender to itself, the receive side can never
/// disconnect, so a dead peer is only observable on **send** (the
/// channel to it is gone). A blocking `recv` from a peer that died
/// without sending will wait forever — acceptable in-process, where the
/// runtime always detects the death through its own send traffic or the
/// watchdog. See `docs/transport.md` for the backend matrix.
pub struct ThreadBackend {
    rank: usize,
    senders: Vec<Sender<Message>>,
    /// One bell per rank, shared by every endpoint of the world.
    bells: Vec<Arc<Doorbell>>,
    receiver: Receiver<Message>,
}

impl ThreadBackend {
    /// Create the `n` connected endpoints of an in-process world, in
    /// rank order.
    pub fn endpoints(n: usize) -> Vec<ThreadBackend> {
        assert!(n > 0, "need at least one rank");
        let mut senders = Vec::with_capacity(n);
        let mut receivers = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = crossbeam::channel::unbounded();
            senders.push(tx);
            receivers.push(rx);
        }
        let bells: Vec<Arc<Doorbell>> = (0..n).map(|_| Arc::new(Doorbell::new())).collect();
        receivers
            .into_iter()
            .enumerate()
            .map(|(rank, receiver)| ThreadBackend {
                rank,
                senders: senders.clone(),
                bells: bells.clone(),
                receiver,
            })
            .collect()
    }
}

impl CommBackend for ThreadBackend {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.senders.len()
    }

    fn send(&self, to: usize, tag: u32, payload: Bytes) -> Result<(), CommError> {
        self.senders[to]
            .send(Message {
                src: self.rank,
                tag,
                payload,
            })
            .map_err(|_| CommError::PeerClosed { peer: to })?;
        self.bells[to].ring();
        Ok(())
    }

    fn try_recv(&mut self) -> Result<Option<Message>, CommError> {
        match self.receiver.try_recv() {
            Ok(m) => Ok(Some(m)),
            Err(TryRecvError::Empty) => Ok(None),
            // Unreachable while this endpoint is alive (it holds a
            // sender to itself), but diagnose rather than panic.
            Err(TryRecvError::Disconnected) => Err(CommError::PeerClosed { peer: self.rank }),
        }
    }

    fn recv(&mut self) -> Result<Message, CommError> {
        self.receiver
            .recv()
            .map_err(|_| CommError::PeerClosed { peer: self.rank })
    }

    fn wait(&mut self, timeout: Option<Duration>) {
        if self.receiver.is_empty() {
            self.bells[self.rank].wait(timeout);
        }
    }

    fn doorbell(&self) -> Arc<Doorbell> {
        self.bells[self.rank].clone()
    }

    fn close(&mut self) {
        // Channels tear down when dropped; nothing to announce — the
        // thread world has no death-vs-close ambiguity to resolve.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_send_to_dropped_peer_is_an_error_not_a_panic() {
        let mut world = ThreadBackend::endpoints(2);
        let b1 = world.pop().unwrap();
        let b0 = world.pop().unwrap();
        drop(b1);
        let err = b0.send(1, 7, Bytes::new()).unwrap_err();
        assert_eq!(err, CommError::PeerClosed { peer: 1 });
        // Self-send still works after a peer death.
        b0.send(0, 7, Bytes::new()).unwrap();
    }
}

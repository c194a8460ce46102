//! Backend-generic conformance suite for the `Comm` endpoint surface.
//!
//! The same battery of behavioural pins runs over every transport
//! backend (thread-channel fabric and UNIX-socket fabric), proving the
//! [`jsweep::comm::CommBackend`] contract is honoured identically:
//! per-pair FIFO delivery, `recv_match` stash ordering, `drain_user`
//! preserving reserved-tag protocol traffic, collectives under
//! concurrent user traffic, rank-ordered slice sums, self-sends, both
//! termination detectors, malformed protocol payloads blamed on their
//! sender, and the wake source (`Comm::wait` ends on a peer's send or a
//! doorbell ring, never loses a ring, and otherwise runs to its
//! timeout). Socket-only behaviours (multi-process rendezvous, a dying
//! peer waking a parked rank) get their own tests outside the macro.

use bytes::Bytes;
use jsweep::comm::socket::SocketUniverse;
use jsweep::comm::termination::{Counting, Safra, Verdict};
use jsweep::comm::{Comm, CommError, Universe, RESERVED_TAG_BASE, TAG_COLLECTIVE, TAG_TOKEN};
use std::time::{Duration, Instant};

/// A reserved tag no protocol component uses (collective/token/
/// terminate/done occupy base..base+3), so tests can emit reserved
/// traffic without colliding with real collectives.
const TAG_TEST_RESERVED: u32 = RESERVED_TAG_BASE + 9;

/// The timeout of a wait that something should end early: a wake that
/// is lost shows as a wait that ran this long.
const PATIENCE: Duration = Duration::from_secs(10);

/// Instantiate the conformance battery for one backend. `$world` is a
/// `fn(n, Fn(Comm) -> R) -> Vec<R>` world runner (spawn + join).
macro_rules! conformance_suite {
    ($backend:ident, $world:path) => {
        mod $backend {
            use super::*;

            fn world<R, F>(n: usize, f: F) -> Vec<R>
            where
                R: Send + 'static,
                F: Fn(Comm) -> R + Send + Sync + 'static,
            {
                $world(n, f)
            }

            /// Each rank passes a token around the ring; content and
            /// provenance must survive the trip.
            #[test]
            fn ring_pass() {
                let out = world(4, |mut comm| {
                    let next = (comm.rank() + 1) % comm.size();
                    let prev = (comm.rank() + comm.size() - 1) % comm.size();
                    comm.send(
                        next,
                        7,
                        Bytes::copy_from_slice(&(comm.rank() as u64).to_le_bytes()),
                    )
                    .unwrap();
                    let m = comm.recv().unwrap();
                    assert_eq!(m.src, prev);
                    assert_eq!(m.tag, 7);
                    u64::from_le_bytes(m.payload[..8].try_into().unwrap())
                });
                assert_eq!(out, vec![3, 0, 1, 2]);
            }

            /// 100 messages between every ordered pair of ranks must
            /// arrive in send order (per-pair FIFO), whatever the
            /// interleaving across pairs.
            #[test]
            fn per_pair_fifo_ordering() {
                const MSGS: u64 = 100;
                world(3, |mut comm| {
                    let (rank, size) = (comm.rank(), comm.size());
                    for seq in 0..MSGS {
                        for peer in (0..size).filter(|&p| p != rank) {
                            comm.send(peer, 1, Bytes::copy_from_slice(&seq.to_le_bytes()))
                                .unwrap();
                        }
                    }
                    let mut last = vec![None::<u64>; size];
                    for _ in 0..MSGS * (size as u64 - 1) {
                        let m = comm.recv().unwrap();
                        let seq = u64::from_le_bytes(m.payload[..8].try_into().unwrap());
                        match last[m.src] {
                            None => assert_eq!(seq, 0, "first msg from {} out of order", m.src),
                            Some(prev) => assert_eq!(
                                seq,
                                prev + 1,
                                "pair ({}, {rank}) delivered out of order",
                                m.src
                            ),
                        }
                        last[m.src] = Some(seq);
                    }
                    for (src, l) in last.iter().enumerate() {
                        if src != rank {
                            assert_eq!(*l, Some(MSGS - 1));
                        }
                    }
                });
            }

            /// `recv_match` skips non-matching messages into the stash;
            /// later receives must replay the stash in arrival order.
            #[test]
            fn recv_match_stashes_in_arrival_order() {
                world(2, |mut comm| {
                    if comm.rank() == 0 {
                        for &(tag, val) in &[(1u32, 10u8), (2, 20), (1, 11), (3, 30)] {
                            comm.send(1, tag, Bytes::copy_from_slice(&[val])).unwrap();
                        }
                        // Hold rank 0 alive until rank 1 is done, so a
                        // socket EOF can't race the receives.
                        let _ = comm.recv_match(4).unwrap();
                    } else {
                        let m = comm.recv_match(3).unwrap();
                        assert_eq!((m.tag, m.payload[0]), (3, 30));
                        // The three stashed messages come back in the
                        // order they originally arrived.
                        let order: Vec<(u32, u8)> = (0..3)
                            .map(|_| {
                                let m = comm.recv().unwrap();
                                (m.tag, m.payload[0])
                            })
                            .collect();
                        assert_eq!(order, vec![(1, 10), (2, 20), (1, 11)]);
                        comm.send(0, 4, Bytes::new()).unwrap();
                    }
                });
            }

            /// `drain_user` discards queued user messages but must keep
            /// reserved-tag protocol traffic, in arrival order.
            #[test]
            fn drain_user_preserves_reserved_traffic() {
                world(2, |mut comm| {
                    if comm.rank() == 0 {
                        comm.send(1, 5, Bytes::copy_from_slice(b"stale")).unwrap();
                        comm.send(1, TAG_TEST_RESERVED, Bytes::copy_from_slice(b"keep"))
                            .unwrap();
                        comm.send(1, 6, Bytes::copy_from_slice(b"stale2")).unwrap();
                        comm.barrier().unwrap();
                    } else {
                        // The barrier's recv_match stashes everything
                        // rank 0 sent first (per-pair FIFO guarantees
                        // it all precedes the collective release).
                        comm.barrier().unwrap();
                        let dropped = comm.drain_user().unwrap();
                        assert_eq!(dropped, 2, "both user messages dropped");
                        let m = comm.recv().unwrap();
                        assert_eq!(m.tag, TAG_TEST_RESERVED);
                        assert_eq!(&m.payload[..], b"keep");
                    }
                });
            }

            /// Collectives must work while unrelated user traffic is in
            /// flight, and that traffic must survive them untouched.
            #[test]
            fn collectives_under_user_traffic() {
                world(4, |mut comm| {
                    let (rank, size) = (comm.rank(), comm.size());
                    let next = (rank + 1) % size;
                    comm.send(next, 42, Bytes::copy_from_slice(&[rank as u8]))
                        .unwrap();

                    comm.barrier().unwrap();
                    let mut slice = [rank as f64, 1.0];
                    comm.allreduce_sum_f64_slice(&mut slice).unwrap();
                    assert_eq!(slice, [6.0, 4.0]);
                    comm.barrier().unwrap();

                    let m = comm.recv_match(42).unwrap();
                    assert_eq!(m.src, (rank + size - 1) % size);
                    assert_eq!(m.payload[0], m.src as u8);
                });
            }

            /// The slice reduction sums in rank order whatever order
            /// the contributions arrive in: only rank order rounds
            /// `1e100 + 1 − 1e100` to 0, which is what makes the SPMD
            /// flux bit-identical to the single-process fold. Rank 2
            /// speaks the collective's wire part by hand, so its
            /// contribution is sent before rank 1 starts its own.
            #[test]
            fn slice_sum_is_in_rank_order_whatever_arrives_first() {
                const GO: u32 = 5;
                let out = world(3, |mut comm| {
                    let rank = comm.rank();
                    let mut xs: [f64; 1] = [[1e100, 1.0, -1e100][rank]];
                    if rank == 2 {
                        let mine = Bytes::copy_from_slice(&xs[0].to_le_bytes());
                        comm.send(0, TAG_COLLECTIVE, mine).unwrap();
                        comm.send(1, GO, Bytes::new()).unwrap();
                        let sum = comm.recv_match(TAG_COLLECTIVE).unwrap().payload;
                        return f64::from_le_bytes(sum[..].try_into().unwrap());
                    }
                    if rank == 1 {
                        comm.recv_match(GO).unwrap();
                    }
                    comm.allreduce_sum_f64_slice(&mut xs).unwrap();
                    xs[0]
                });
                assert_eq!(out, vec![0.0; 3]);
            }

            /// A rank may send to itself; the message loops back
            /// through the normal receive path.
            #[test]
            fn self_send_loops_back() {
                world(2, |mut comm| {
                    let rank = comm.rank();
                    comm.send(rank, 9, Bytes::copy_from_slice(b"me")).unwrap();
                    // By tag: the peer may already be in its barrier,
                    // whose message can overtake the loop-back.
                    let m = comm.recv_match(9).unwrap();
                    assert_eq!((m.src, m.tag, &m.payload[..]), (rank, 9, &b"me"[..]));
                    comm.barrier().unwrap();
                });
            }

            /// Safra's ring token must detect quiescence only after a
            /// multi-hop message cascade has fully drained.
            #[test]
            fn safra_terminates_after_cascade() {
                const HOPS: u32 = 5;
                let hops = world(3, |mut comm| {
                    let mut safra = Safra::new(comm.rank(), comm.size());
                    let mut done = 0u64;
                    comm.send(
                        (comm.rank() + 1) % comm.size(),
                        1,
                        Bytes::copy_from_slice(&HOPS.to_le_bytes()),
                    )
                    .unwrap();
                    safra.on_send();
                    loop {
                        while let Some(m) = comm.try_recv().unwrap() {
                            match safra.on_message(&m, &comm).unwrap() {
                                Verdict::NotMine => {
                                    safra.on_receive();
                                    done += 1;
                                    let left =
                                        u32::from_le_bytes(m.payload[..4].try_into().unwrap());
                                    if left > 1 {
                                        comm.send(
                                            (comm.rank() + 2) % comm.size(),
                                            1,
                                            Bytes::copy_from_slice(&(left - 1).to_le_bytes()),
                                        )
                                        .unwrap();
                                        safra.on_send();
                                    }
                                }
                                Verdict::Terminated => return done,
                                Verdict::Continue => {}
                            }
                        }
                        if safra.maybe_advance(true, &comm).unwrap() == Verdict::Terminated {
                            return done;
                        }
                        std::thread::yield_now();
                    }
                });
                assert_eq!(hops.iter().sum::<u64>(), 3 * HOPS as u64);
            }

            /// The counting detector must fire exactly when every rank
            /// has reported a drained workload, never before.
            #[test]
            fn counting_terminates_when_all_report() {
                world(3, |mut comm| {
                    let mut counting = Counting::new(comm.rank(), comm.size());
                    // Ranks drain staggered workloads before reporting.
                    let mut remaining = (comm.rank() as u64) * 3;
                    loop {
                        remaining = remaining.saturating_sub(1);
                        if counting.maybe_report(remaining, &comm).unwrap() == Verdict::Terminated {
                            break;
                        }
                        while let Some(m) = comm.try_recv().unwrap() {
                            if counting.on_message(&m, &comm).unwrap() == Verdict::Terminated {
                                break;
                            }
                        }
                        if counting.is_terminated() {
                            break;
                        }
                        std::thread::yield_now();
                    }
                    assert!(counting.is_terminated());
                });
            }

            /// Protocol payloads are bytes off a wire. A collective
            /// contribution of the wrong length must come back as the
            /// *sender's* loss, not panic the rank that decodes it
            /// (which the universe would report as that rank's death).
            #[test]
            fn short_collective_payload_blames_its_sender() {
                let out = world(2, |mut comm| {
                    if comm.rank() == 1 {
                        comm.send(0, TAG_COLLECTIVE, Bytes::copy_from_slice(&[1, 2, 3]))
                            .unwrap();
                        return None;
                    }
                    Some(comm.allreduce_sum_f64_slice(&mut [1.0]))
                });
                assert_eq!(out[0], Some(Err(CommError::PeerClosed { peer: 1 })));
            }

            /// The same for Safra's ring token.
            #[test]
            fn short_token_payload_blames_its_sender() {
                let out = world(2, |mut comm| {
                    if comm.rank() == 1 {
                        comm.send(0, TAG_TOKEN, Bytes::copy_from_slice(&[0; 4]))
                            .unwrap();
                        return None;
                    }
                    let mut safra = Safra::new(comm.rank(), comm.size());
                    let m = comm.recv().unwrap();
                    Some(safra.on_message(&m, &comm))
                });
                assert_eq!(out[0], Some(Err(CommError::PeerClosed { peer: 1 })));
            }

            /// A peer's send wakes a rank parked in `wait` long before
            /// the wait's timeout: no timer stands between a message
            /// and the rank it is for.
            #[test]
            fn a_peer_send_wakes_a_parked_wait() {
                world(2, |mut comm| {
                    if comm.rank() == 1 {
                        std::thread::sleep(Duration::from_millis(50));
                        comm.send(0, 3, Bytes::copy_from_slice(b"wake")).unwrap();
                        // Stay alive until rank 0 has looked: on sockets
                        // a closing peer would wake it too.
                        let _ = comm.recv_match(4).unwrap();
                        return;
                    }
                    let t0 = Instant::now();
                    let m = loop {
                        if let Some(m) = comm.try_recv().unwrap() {
                            break m;
                        }
                        comm.wait(Some(PATIENCE));
                    };
                    let waited = t0.elapsed();
                    assert!(waited < PATIENCE / 2, "the send woke nobody: {waited:?}");
                    assert_eq!((m.src, m.tag, &m.payload[..]), (1, 3, &b"wake"[..]));
                    comm.send(1, 4, Bytes::new()).unwrap();
                });
            }

            /// A ring that comes before the wait is not lost: the wait
            /// returns at once. One rank, so no peer traffic can stand
            /// in for the ring.
            #[test]
            fn a_ring_before_the_wait_returns_at_once() {
                world(1, |mut comm| {
                    comm.doorbell().ring();
                    let t0 = Instant::now();
                    comm.wait(Some(PATIENCE));
                    let waited = t0.elapsed();
                    assert!(waited < PATIENCE / 2, "the ring was lost: {waited:?}");
                });
            }

            /// With no traffic and no ring, a wait runs to its timeout.
            #[test]
            fn an_idle_wait_returns_at_its_timeout() {
                const TIMEOUT: Duration = Duration::from_millis(50);
                world(2, |mut comm| {
                    if comm.rank() == 1 {
                        let _ = comm.recv_match(5).unwrap();
                        return;
                    }
                    let t0 = Instant::now();
                    comm.wait(Some(TIMEOUT));
                    let waited = t0.elapsed();
                    assert!(
                        waited >= TIMEOUT && waited < PATIENCE,
                        "an idle wait of {TIMEOUT:?} took {waited:?}"
                    );
                    comm.send(1, 5, Bytes::new()).unwrap();
                });
            }
        }
    };
}

conformance_suite!(thread_backend, Universe::run);
conformance_suite!(socket_backend, SocketUniverse::run);

/// Socket-only: the multi-process rendezvous (`connect`) must assemble
/// a working world even when "processes" (threads here; real processes
/// in `tests/spmd.rs`) arrive at different times.
#[test]
fn socket_connect_rendezvous_staggered() {
    use std::time::Duration;
    let dir = std::env::temp_dir().join(format!("jsweep-conf-rdv-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut handles = Vec::new();
    for rank in 0..3usize {
        let dir = dir.clone();
        handles.push(std::thread::spawn(move || {
            // Stagger arrivals so late listeners exercise the retry loop.
            std::thread::sleep(Duration::from_millis(rank as u64 * 40));
            let mut comm = SocketUniverse::connect(&dir, rank, 3, Duration::from_secs(10)).unwrap();
            let mut sum = [rank as f64 + 1.0];
            comm.allreduce_sum_f64_slice(&mut sum).unwrap();
            comm.close();
            sum[0]
        }));
    }
    for h in handles {
        assert_eq!(h.join().unwrap(), 6.0);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Socket-only: a peer that dies wakes a rank parked in `wait` — its
/// raw EOF makes the connection readable — and the next `try_recv`
/// names it. The thread fabric cannot see a death on the receive side
/// (see `socket_blocking_recv_after_every_peer_closed_is_an_error`).
#[test]
fn socket_peer_death_wakes_a_parked_wait() {
    let mut world = SocketUniverse::endpoints(2);
    let c1 = world.pop().unwrap();
    let mut c0 = world.pop().unwrap();
    let dying = std::thread::spawn(move || {
        let _hold = c1;
        std::thread::sleep(Duration::from_millis(50));
        panic!("simulated rank death");
    });
    let t0 = Instant::now();
    c0.wait(Some(PATIENCE));
    let waited = t0.elapsed();
    assert!(waited < PATIENCE / 2, "the death woke nobody: {waited:?}");
    assert!(dying.join().is_err());
    assert_eq!(
        c0.try_recv().unwrap_err(),
        CommError::PeerClosed { peer: 1 }
    );
}

/// Socket-only: byte accounting covers wire framing. With no wire
/// counter, a frame's cost on the wire is its payload plus the fixed
/// `WIRE_HEADER_BYTES`: the 32 payload bytes a rank sends arrive as 32
/// bytes, and the same frame written to a real socket costs the reader
/// 40 bytes of stream.
#[test]
fn socket_bytes_accounting_includes_framing() {
    use jsweep::comm::socket::{encode_frame, WireDecoder, WIRE_HEADER_BYTES};
    use std::io::{Read, Write};
    use std::os::unix::net::UnixStream;

    let out = SocketUniverse::run(2, |mut comm| {
        if comm.rank() == 0 {
            comm.send(1, 3, Bytes::copy_from_slice(&[0u8; 32])).unwrap();
            comm.barrier().unwrap();
            0
        } else {
            let m = comm.recv_match(3).unwrap();
            comm.barrier().unwrap();
            m.payload.len()
        }
    });
    assert_eq!(out[1], 32, "framing leaked into the payload");

    let frame = encode_frame(3, &[0u8; 32]);
    assert_eq!(frame.len(), 32 + WIRE_HEADER_BYTES);
    let (mut tx, mut rx) = UnixStream::pair().unwrap();
    tx.write_all(&frame).unwrap();
    drop(tx);
    let mut wire = Vec::new();
    rx.read_to_end(&mut wire).unwrap();
    let mut dec = WireDecoder::new();
    dec.push(&wire);
    let (tag, payload) = dec.next_frame().unwrap();
    assert_eq!((tag, payload.len()), (3, 32));
    assert!(
        dec.bytes_consumed() >= 40,
        "framing bytes unaccounted: {}",
        dec.bytes_consumed()
    );
    assert_eq!(dec.bytes_consumed(), wire.len() as u64);
}

/// Socket-only: a blocking `recv` with nothing buffered after every
/// peer closed gracefully can never return a message, so it fails with
/// `AllPeersClosed` instead of waiting forever; a peer that *died*
/// (raw EOF, no close marker) is still `PeerClosed`. The thread backend
/// cannot observe either on the receive side — each endpoint holds a
/// sender to itself, so its channel never disconnects — which is why
/// this case sits outside the macro. Run under a deadline: before the
/// variant existed this `recv` spun forever.
#[test]
fn socket_blocking_recv_after_every_peer_closed_is_an_error() {
    use jsweep::comm::CommError;
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let out = SocketUniverse::run(3, |mut comm| {
            if comm.rank() != 0 {
                comm.send(0, 5, Bytes::copy_from_slice(&[comm.rank() as u8]))
                    .unwrap();
                comm.close();
                return None;
            }
            // Buffered messages are delivered first, then the verdict.
            let mut from: Vec<usize> = (0..2).map(|_| comm.recv().unwrap().src).collect();
            from.sort_unstable();
            assert_eq!(from, vec![1, 2]);
            Some(comm.recv().unwrap_err())
        });
        let _ = tx.send(out[0]);
    });
    let verdict = rx
        .recv_timeout(std::time::Duration::from_secs(20))
        .expect("blocking recv after graceful closes must return, not spin");
    assert_eq!(verdict, Some(CommError::AllPeersClosed));

    let mut world = SocketUniverse::endpoints(2);
    let c1 = world.pop().unwrap();
    let mut c0 = world.pop().unwrap();
    let died = std::thread::spawn(move || {
        let _hold = c1;
        panic!("simulated rank death");
    });
    assert!(died.join().is_err());
    assert_eq!(c0.recv().unwrap_err(), CommError::PeerClosed { peer: 1 });
}

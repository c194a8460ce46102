//! Distributed termination detection (paper §IV-C).
//!
//! The runtime supports two detectors, matching the paper:
//!
//! * [`Safra`] — the general token-based consensus protocol
//!   (Dijkstra–Feijen–van Gasteren / Safra style, the reference 14 the
//!   paper cites): a coloured token circulates a ring carrying a message-count
//!   balance; rank 0 announces termination when a white token returns
//!   with balance zero. Works for *any* data-driven computation.
//! * [`Counting`] — the workload-counting shortcut for algorithms whose
//!   total work is known in advance (sweeps: every `(cell, angle)` is
//!   computed exactly once). Each rank reports "locally done" once its
//!   committed workload is exhausted; rank 0 announces termination when
//!   all ranks have reported. No negotiation rounds are needed.
//!
//! Both emit/consume messages through a [`Comm`] using the reserved
//! tags; the runtime master polls `on_message` for anything it does not
//! recognise and calls `maybe_advance` when its rank is idle. Every
//! call that may touch the fabric returns `Result<Verdict, CommError>`
//! so a dead peer surfaces to the caller instead of unwinding.

use crate::{Comm, CommError, Message, TAG_LOCAL_DONE, TAG_TERMINATE, TAG_TOKEN};
use bytes::Bytes;

/// Outcome of feeding a substrate message to a detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Not a termination-protocol message; the caller should handle it.
    NotMine,
    /// Consumed by the protocol; keep running.
    Continue,
    /// Global termination has been established.
    Terminated,
}

/// Dijkstra–Safra token-ring termination detector.
#[derive(Debug)]
pub struct Safra {
    rank: usize,
    size: usize,
    /// Messages sent minus messages received (user traffic only).
    counter: i64,
    /// Black = this rank received a message since last passing the token.
    black: bool,
    /// Token held by this rank: `(accumulated count, token is black)`.
    token: Option<(i64, bool)>,
    terminated: bool,
}

impl Safra {
    /// Fresh detector; rank 0 will initiate the first token when idle.
    pub fn new(rank: usize, size: usize) -> Safra {
        Safra {
            rank,
            size,
            counter: 0,
            black: false,
            // Rank 0 starts as if it must create the first token.
            token: None,
            terminated: false,
        }
    }

    /// Record a user message sent.
    pub fn on_send(&mut self) {
        self.counter += 1;
    }

    /// Record a user message received.
    pub fn on_receive(&mut self) {
        self.counter -= 1;
        self.black = true;
    }

    /// True once global termination has been announced.
    pub fn is_terminated(&self) -> bool {
        self.terminated
    }

    /// Feed a substrate message; returns the verdict.
    pub fn on_message(&mut self, m: &Message, comm: &Comm) -> Result<Verdict, CommError> {
        match m.tag {
            TAG_TOKEN => {
                let token = m.exactly(9)?;
                let count = i64::from_le_bytes(token[..8].try_into().expect("8 of 9 bytes"));
                self.token = Some((count, token[8] != 0));
                let _ = comm;
                Ok(Verdict::Continue)
            }
            TAG_TERMINATE => {
                self.terminated = true;
                Ok(Verdict::Terminated)
            }
            _ => Ok(Verdict::NotMine),
        }
    }

    /// Call when this rank is idle (no local work, no unprocessed input).
    /// Forwards or initiates the token; rank 0 decides termination and
    /// broadcasts `TAG_TERMINATE` (returned verdict is `Terminated` for
    /// rank 0 in that instant; other ranks learn via the broadcast).
    pub fn maybe_advance(&mut self, idle: bool, comm: &Comm) -> Result<Verdict, CommError> {
        if self.terminated {
            return Ok(Verdict::Terminated);
        }
        if !idle {
            return Ok(Verdict::Continue);
        }
        if self.rank == 0 {
            match self.token.take() {
                None => {
                    // Initiate a fresh white probe.
                    self.send_token(comm, 0, false)?;
                    self.black = false;
                    Ok(Verdict::Continue)
                }
                Some((count, black)) => {
                    if !black && !self.black && count + self.counter == 0 {
                        // White token, zero balance: quiescence.
                        for r in 0..self.size {
                            if r != 0 {
                                comm.send(r, TAG_TERMINATE, Bytes::new())?;
                            }
                        }
                        self.terminated = true;
                        Ok(Verdict::Terminated)
                    } else {
                        // Failed probe: start another round.
                        self.send_token(comm, 0, false)?;
                        self.black = false;
                        Ok(Verdict::Continue)
                    }
                }
            }
        } else if let Some((count, black)) = self.token.take() {
            let out_black = black || self.black;
            self.send_token(comm, count + self.counter, out_black)?;
            self.black = false;
            Ok(Verdict::Continue)
        } else {
            Ok(Verdict::Continue)
        }
    }

    fn send_token(&self, comm: &Comm, count: i64, black: bool) -> Result<(), CommError> {
        let next = (self.rank + 1) % self.size;
        let mut payload = Vec::with_capacity(9);
        payload.extend_from_slice(&count.to_le_bytes());
        payload.push(black as u8);
        comm.send(next, TAG_TOKEN, Bytes::from(payload))
    }
}

/// Workload-counting termination for known-total computations.
#[derive(Debug)]
pub struct Counting {
    rank: usize,
    size: usize,
    reported: bool,
    done_ranks: usize,
    terminated: bool,
}

impl Counting {
    /// Fresh detector.
    pub fn new(rank: usize, size: usize) -> Counting {
        Counting {
            rank,
            size,
            reported: false,
            done_ranks: 0,
            terminated: false,
        }
    }

    /// True once global termination has been announced.
    pub fn is_terminated(&self) -> bool {
        self.terminated
    }

    /// Call whenever local remaining workload may have reached zero.
    /// Reports to rank 0 exactly once; rank 0 broadcasts termination
    /// when every rank (including itself) has reported.
    pub fn maybe_report(
        &mut self,
        remaining_workload: u64,
        comm: &Comm,
    ) -> Result<Verdict, CommError> {
        if self.terminated {
            return Ok(Verdict::Terminated);
        }
        if remaining_workload == 0 && !self.reported {
            self.reported = true;
            if self.rank == 0 {
                self.done_ranks += 1;
                return self.check_all_done(comm);
            } else {
                comm.send(0, TAG_LOCAL_DONE, Bytes::new())?;
            }
        }
        Ok(Verdict::Continue)
    }

    /// Feed a substrate message.
    pub fn on_message(&mut self, m: &Message, comm: &Comm) -> Result<Verdict, CommError> {
        match m.tag {
            TAG_LOCAL_DONE => {
                debug_assert_eq!(self.rank, 0, "only rank 0 collects done reports");
                self.done_ranks += 1;
                self.check_all_done(comm)
            }
            TAG_TERMINATE => {
                self.terminated = true;
                Ok(Verdict::Terminated)
            }
            _ => Ok(Verdict::NotMine),
        }
    }

    fn check_all_done(&mut self, comm: &Comm) -> Result<Verdict, CommError> {
        if self.done_ranks == self.size {
            for r in 1..self.size {
                comm.send(r, TAG_TERMINATE, Bytes::new())?;
            }
            self.terminated = true;
            Ok(Verdict::Terminated)
        } else {
            Ok(Verdict::Continue)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Universe;

    /// Drive Safra on a workload where each rank sends `n` messages to
    /// the next rank and consumes `n` from the previous, then idles.
    #[test]
    fn safra_detects_quiescence_after_traffic() {
        let results = Universe::run(3, |mut comm| {
            let mut safra = Safra::new(comm.rank(), comm.size());
            let next = (comm.rank() + 1) % comm.size();
            let mut to_send = 5u32;
            let mut received = 0u32;
            let mut spins = 0u64;
            loop {
                if to_send > 0 {
                    comm.send(next, 1, Bytes::new()).unwrap();
                    safra.on_send();
                    to_send -= 1;
                }
                while let Some(m) = comm.try_recv().unwrap() {
                    match safra.on_message(&m, &comm).unwrap() {
                        Verdict::NotMine => {
                            received += 1;
                            safra.on_receive();
                        }
                        Verdict::Terminated => return (received, spins),
                        Verdict::Continue => {}
                    }
                }
                let idle = to_send == 0 && received == 5;
                if safra.maybe_advance(idle, &comm).unwrap() == Verdict::Terminated {
                    return (received, spins);
                }
                spins += 1;
                std::thread::yield_now();
                assert!(spins < 20_000_000, "termination never detected");
            }
        });
        for (received, _) in results {
            assert_eq!(received, 5);
        }
    }

    #[test]
    fn safra_single_rank_terminates_immediately() {
        let r = Universe::run(1, |mut comm| {
            let mut safra = Safra::new(0, 1);
            let mut spins = 0;
            loop {
                while let Some(m) = comm.try_recv().unwrap() {
                    if safra.on_message(&m, &comm).unwrap() == Verdict::Terminated {
                        return spins;
                    }
                }
                if safra.maybe_advance(true, &comm).unwrap() == Verdict::Terminated {
                    return spins;
                }
                spins += 1;
                assert!(spins < 1000);
            }
        });
        assert!(r[0] < 1000);
    }

    #[test]
    fn safra_does_not_fire_while_messages_outstanding() {
        // Rank 0 idles immediately but rank 1 still owes it a message;
        // termination must wait for that message.
        let results = Universe::run(2, |mut comm| {
            let mut safra = Safra::new(comm.rank(), comm.size());
            let mut got_message = comm.rank() == 1; // rank 1 expects none
            if comm.rank() == 1 {
                // Delay, then send one message to rank 0.
                std::thread::sleep(std::time::Duration::from_millis(20));
                comm.send(0, 1, Bytes::new()).unwrap();
                safra.on_send();
            }
            loop {
                while let Some(m) = comm.try_recv().unwrap() {
                    match safra.on_message(&m, &comm).unwrap() {
                        Verdict::NotMine => {
                            got_message = true;
                            safra.on_receive();
                        }
                        Verdict::Terminated => return got_message,
                        Verdict::Continue => {}
                    }
                }
                let idle = comm.rank() == 1 || got_message || comm.rank() == 0;
                if safra.maybe_advance(idle, &comm).unwrap() == Verdict::Terminated {
                    return got_message;
                }
                std::thread::yield_now();
            }
        });
        // Rank 0 must have received the late message before terminating.
        assert!(results[0], "terminated before delivering in-flight message");
    }

    #[test]
    fn counting_terminates_when_all_report() {
        let results = Universe::run(4, |mut comm| {
            let mut det = Counting::new(comm.rank(), comm.size());
            // Pretend each rank finishes after rank*1ms.
            std::thread::sleep(std::time::Duration::from_millis(comm.rank() as u64));
            let mut spins = 0u64;
            loop {
                if det.maybe_report(0, &comm).unwrap() == Verdict::Terminated {
                    return true;
                }
                while let Some(m) = comm.try_recv().unwrap() {
                    if det.on_message(&m, &comm).unwrap() == Verdict::Terminated {
                        return true;
                    }
                }
                spins += 1;
                std::thread::yield_now();
                if spins > 50_000_000 {
                    return false;
                }
            }
        });
        assert!(results.into_iter().all(|ok| ok));
    }

    #[test]
    fn counting_waits_for_nonzero_workload() {
        let r = Universe::run(1, |comm| {
            let mut det = Counting::new(0, 1);
            assert_eq!(det.maybe_report(3, &comm).unwrap(), Verdict::Continue);
            assert!(!det.is_terminated());
            assert_eq!(det.maybe_report(0, &comm).unwrap(), Verdict::Terminated);
            det.is_terminated()
        });
        assert!(r[0]);
    }
}

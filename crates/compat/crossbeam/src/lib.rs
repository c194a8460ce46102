//! Offline, API-compatible stand-in for the subset of the
//! [`crossbeam`] crate that jsweep uses: multi-producer,
//! multi-consumer unbounded [`channel`]s with blocking, non-blocking
//! and timed receives, and crossbeam's disconnect semantics (a channel
//! is dead once every `Sender` — or every `Receiver` — is dropped; the
//! last `Receiver` drops whatever is still queued).
//!
//! [`crossbeam`]: https://docs.rs/crossbeam

pub mod channel {
    //! Unbounded MPMC channels.

    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    struct Inner<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    struct Shared<T> {
        inner: Mutex<Inner<T>>,
        ready: Condvar,
    }

    /// The sending half of an unbounded channel. Cloneable.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// The receiving half of an unbounded channel. Cloneable.
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    /// Error returned by [`Sender::send`] when every receiver is gone;
    /// carries the undeliverable message back.
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error returned by [`Receiver::recv`] when the channel is empty
    /// and every sender is gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// No message available right now.
        Empty,
        /// Empty and every sender is gone.
        Disconnected,
    }

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// No message arrived within the timeout.
        Timeout,
        /// Empty and every sender is gone.
        Disconnected,
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "sending on a disconnected channel")
        }
    }

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "receiving on an empty and disconnected channel")
        }
    }

    /// Create an unbounded MPMC channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
            }),
            ready: Condvar::new(),
        });
        (
            Sender {
                shared: shared.clone(),
            },
            Receiver { shared },
        )
    }

    impl<T> Sender<T> {
        /// Enqueue a message; fails only when every receiver is gone.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            let mut g = self.shared.inner.lock().unwrap();
            if g.receivers == 0 {
                return Err(SendError(msg));
            }
            g.queue.push_back(msg);
            drop(g);
            self.shared.ready.notify_one();
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Sender<T> {
            self.shared.inner.lock().unwrap().senders += 1;
            Sender {
                shared: self.shared.clone(),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut g = self.shared.inner.lock().unwrap();
            g.senders -= 1;
            if g.senders == 0 {
                drop(g);
                // Wake blocked receivers so they observe disconnection.
                self.shared.ready.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Non-blocking receive.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut g = self.shared.inner.lock().unwrap();
            match g.queue.pop_front() {
                Some(msg) => Ok(msg),
                None if g.senders == 0 => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }

        /// Blocking receive; fails once the channel is empty and every
        /// sender is gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut g = self.shared.inner.lock().unwrap();
            loop {
                if let Some(msg) = g.queue.pop_front() {
                    return Ok(msg);
                }
                if g.senders == 0 {
                    return Err(RecvError);
                }
                g = self.shared.ready.wait(g).unwrap();
            }
        }

        /// Blocking receive with an upper bound on the wait.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut g = self.shared.inner.lock().unwrap();
            loop {
                if let Some(msg) = g.queue.pop_front() {
                    return Ok(msg);
                }
                if g.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (guard, result) = self.shared.ready.wait_timeout(g, deadline - now).unwrap();
                g = guard;
                if result.timed_out() && g.queue.is_empty() {
                    return Err(RecvTimeoutError::Timeout);
                }
            }
        }

        /// Number of queued messages.
        pub fn len(&self) -> usize {
            self.shared.inner.lock().unwrap().queue.len()
        }

        /// True when no message is queued.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Receiver<T> {
            self.shared.inner.lock().unwrap().receivers += 1;
            Receiver {
                shared: self.shared.clone(),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut g = self.shared.inner.lock().unwrap();
            g.receivers -= 1;
            if g.receivers == 0 {
                // Nothing can receive what is queued: drop it, as
                // crossbeam does, but after the unlock, because a
                // message's own drop may touch this channel.
                let queue = std::mem::take(&mut g.queue);
                drop(g);
                drop(queue);
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn fifo_ordering() {
            let (tx, rx) = unbounded();
            for i in 0..100 {
                tx.send(i).unwrap();
            }
            for i in 0..100 {
                assert_eq!(rx.recv().unwrap(), i);
            }
        }

        #[test]
        fn disconnect_on_all_senders_dropped() {
            let (tx, rx) = unbounded::<u8>();
            let tx2 = tx.clone();
            drop(tx);
            tx2.send(1).unwrap();
            drop(tx2);
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv(), Err(RecvError));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        }

        #[test]
        fn send_fails_without_receivers() {
            let (tx, rx) = unbounded::<u8>();
            drop(rx);
            assert_eq!(tx.send(9), Err(SendError(9)));
        }

        #[test]
        fn last_receiver_drops_the_queue() {
            // The message also carries a sender of its own channel,
            // whose drop locks the channel: dropping the queue under the
            // lock would deadlock here.
            struct Flag {
                dropped: Arc<Mutex<bool>>,
                _tx: Option<Sender<Flag>>,
            }
            impl Drop for Flag {
                fn drop(&mut self) {
                    *self.dropped.lock().unwrap() = true;
                }
            }
            let dropped = Arc::new(Mutex::new(false));
            let (tx, rx) = unbounded();
            let rx2 = rx.clone();
            let queued = Flag {
                dropped: dropped.clone(),
                _tx: Some(tx.clone()),
            };
            assert!(tx.send(queued).is_ok());
            drop(rx);
            assert!(!*dropped.lock().unwrap(), "a receiver is left");
            drop(rx2);
            assert!(
                *dropped.lock().unwrap(),
                "queued message outlived every receiver"
            );
            let late = Flag { dropped, _tx: None };
            assert!(tx.send(late).is_err());
        }

        #[test]
        fn recv_timeout_expires() {
            let (_tx, rx) = unbounded::<u8>();
            let t0 = Instant::now();
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(20)),
                Err(RecvTimeoutError::Timeout)
            );
            assert!(t0.elapsed() >= Duration::from_millis(15));
        }

        #[test]
        fn cross_thread_wakeup() {
            let (tx, rx) = unbounded();
            let h = std::thread::spawn(move || rx.recv().unwrap());
            std::thread::sleep(Duration::from_millis(10));
            tx.send(42u32).unwrap();
            assert_eq!(h.join().unwrap(), 42);
        }
    }
}

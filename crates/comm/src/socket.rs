//! Process-grade transport: ranks connected over UNIX-domain sockets.
//!
//! This is the backend that takes the runtime out of one address
//! space: each ordered rank pair gets its own unidirectional stream
//! connection (blocking on the write side so `send(&self)` needs no
//! reactor, non-blocking on the read side so the master drain loop can
//! sweep it), and ranks may be threads, or — the point — separate OS
//! processes rendezvousing on a filesystem directory.
//!
//! ## Waiting
//!
//! A rank with nothing to read sleeps in one `poll(2)` over every live
//! read side plus its [`Doorbell`]'s wake end
//! ([`Doorbell::wait_on`]): a frame, a peer's EOF or a ring — a worker
//! report, a self-send — wakes it, and nothing else does.
//! [`CommBackend::wait`] is that sleep, and the blocking `recv` the
//! collectives and the epoch fence use loops `try_recv` around it.
//!
//! ## Wire format
//!
//! Every message is one self-delimiting frame:
//!
//! ```text
//! [tag: u32 LE] [len: u32 LE] [payload: len bytes]
//! ```
//!
//! The sending rank is implied by the connection (established by the
//! handshake), so frames carry no source field. A frame with tag
//! [`WIRE_CLOSE_TAG`] and length 0 is the **graceful-close marker**:
//! "the silence after this is intentional". An EOF *without* a close
//! marker is a peer death and surfaces as
//! [`CommError::PeerClosed`] — after every complete frame that made it
//! into the buffer has been delivered.
//!
//! ## Connection lifecycle
//!
//! 1. every rank binds a listener at `dir/rank-<r>.sock`;
//! 2. every rank connects to every peer's listener and writes a
//!    16-byte handshake (`magic, version, sender rank, world size`);
//! 3. every rank accepts `n - 1` connections, reads the handshakes to
//!    learn who is on each, and switches the read sides non-blocking.
//!
//! Connect happens through the listener backlog, so the three phases
//! need no cross-rank interleaving — a single thread can build a whole
//! in-process world ([`SocketUniverse::endpoints`]), and separate
//! processes rendezvous by retrying connect until the peer's listener
//! appears ([`SocketUniverse::connect`]).

use crate::backend::{CommBackend, CommError};
use crate::{Comm, Doorbell, Message};
use bytes::Bytes;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Handshake magic: `b"JSWP"` as a little-endian u32.
pub const WIRE_MAGIC: u32 = 0x5057_534A;
/// Wire protocol version carried in the handshake.
pub const WIRE_VERSION: u32 = 1;
/// Reserved wire-level tag of the graceful-close marker frame. Lives
/// above every protocol tag (`RESERVED_TAG_BASE + 16 < u32::MAX`), so
/// it can never collide with user or substrate traffic.
pub const WIRE_CLOSE_TAG: u32 = u32::MAX;
/// Bytes of framing prepended to every payload on the wire.
pub const WIRE_HEADER_BYTES: usize = 8;
/// Largest payload a wire frame may carry. Senders refuse to encode
/// more; a header announcing more is corruption, not a frame to wait
/// 4 GiB for (see [`WireDecoder::corrupt`]).
pub const MAX_WIRE_FRAME_BYTES: usize = 1 << 28;

/// Encode one wire frame (header + payload) into a fresh buffer.
pub fn encode_frame(tag: u32, payload: &[u8]) -> Vec<u8> {
    assert!(
        payload.len() <= MAX_WIRE_FRAME_BYTES,
        "wire frame payload of {} bytes exceeds MAX_WIRE_FRAME_BYTES",
        payload.len()
    );
    let mut buf = Vec::with_capacity(WIRE_HEADER_BYTES + payload.len());
    buf.extend_from_slice(&tag.to_le_bytes());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(payload);
    buf
}

/// Incremental decoder for the socket wire format.
///
/// Feed it arbitrarily fragmented byte chunks with [`push`]; pull
/// complete `(tag, payload)` frames with [`next_frame`]. Reassembly is
/// byte-exact no matter where the fragment boundaries fall — pinned by
/// the adversarial-fragmentation proptest in `tests/properties.rs`.
///
/// [`push`]: WireDecoder::push
/// [`next_frame`]: WireDecoder::next_frame
#[derive(Debug, Default)]
pub struct WireDecoder {
    buf: Vec<u8>,
    /// Consumed prefix of `buf` (compacted opportunistically).
    start: usize,
    bytes_consumed: u64,
    closed: bool,
    corrupt: bool,
}

impl WireDecoder {
    /// Fresh decoder.
    pub fn new() -> WireDecoder {
        WireDecoder::default()
    }

    /// Append raw bytes read off the wire.
    pub fn push(&mut self, chunk: &[u8]) {
        if self.start > 4096 && self.start * 2 > self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(chunk);
    }

    /// Next complete frame, if one is fully buffered. Returns `None`
    /// once the graceful-close marker has been seen, and for good once
    /// a header announces more than [`MAX_WIRE_FRAME_BYTES`].
    pub fn next_frame(&mut self) -> Option<(u32, Bytes)> {
        if self.closed || self.corrupt {
            return None;
        }
        let avail = self.buf.len() - self.start;
        if avail < WIRE_HEADER_BYTES {
            return None;
        }
        let at = self.start;
        let tag = u32::from_le_bytes(self.buf[at..at + 4].try_into().unwrap());
        let len = u32::from_le_bytes(self.buf[at + 4..at + 8].try_into().unwrap()) as usize;
        if tag == WIRE_CLOSE_TAG {
            self.closed = true;
            self.start += WIRE_HEADER_BYTES;
            self.bytes_consumed += WIRE_HEADER_BYTES as u64;
            return None;
        }
        if len > MAX_WIRE_FRAME_BYTES {
            self.corrupt = true;
            return None;
        }
        if avail < WIRE_HEADER_BYTES + len {
            return None;
        }
        let payload = Bytes::copy_from_slice(&self.buf[at + 8..at + 8 + len]);
        self.start += WIRE_HEADER_BYTES + len;
        self.bytes_consumed += (WIRE_HEADER_BYTES + len) as u64;
        Some((tag, payload))
    }

    /// True once the graceful-close marker has been decoded.
    pub fn closed(&self) -> bool {
        self.closed
    }

    /// True once an oversize length header has been seen: the byte
    /// stream can no longer be framed, so the peer is as good as dead.
    pub fn corrupt(&self) -> bool {
        self.corrupt
    }

    /// Total bytes consumed as complete frames (headers included).
    pub fn bytes_consumed(&self) -> u64 {
        self.bytes_consumed
    }

    /// Bytes buffered but not yet part of a complete frame.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.start
    }
}

/// Read side of one peer connection.
struct RecvPeer {
    stream: UnixStream,
    decoder: WireDecoder,
    /// Read side hit EOF or a hard error.
    eof: bool,
}

/// One rank's socket endpoint.
///
/// See the [module docs](self) for the wire format and lifecycle.
pub struct SocketBackend {
    rank: usize,
    size: usize,
    /// Blocking write halves, indexed by destination rank (`None` at
    /// `rank` and for peers that are gone).
    writers: Vec<Option<Mutex<UnixStream>>>,
    /// Non-blocking read halves, indexed by source rank.
    readers: Vec<Option<RecvPeer>>,
    /// Self-sends loop through here, never touching the wire.
    loopback: Mutex<VecDeque<Message>>,
    /// This rank's wake source: rung by self-sends and by the runtime.
    bell: Arc<Doorbell>,
    /// Decoded frames awaiting delivery.
    ready: VecDeque<Message>,
    /// Round-robin poll cursor for fairness across peers.
    next_poll: usize,
    closed: bool,
}

impl SocketBackend {
    /// Pull everything currently readable from `p` into its decoder.
    /// Returns decoded messages' byte total; flags EOF/hard errors.
    fn fill(peer: &mut RecvPeer) {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match peer.stream.read(&mut chunk) {
                Ok(0) => {
                    peer.eof = true;
                    return;
                }
                Ok(n) => peer.decoder.push(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                // ECONNRESET and friends: the peer is gone.
                Err(_) => {
                    peer.eof = true;
                    return;
                }
            }
        }
    }
}

impl CommBackend for SocketBackend {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn send(&self, to: usize, tag: u32, payload: Bytes) -> Result<(), CommError> {
        if to == self.rank {
            self.loopback.lock().unwrap().push_back(Message {
                src: self.rank,
                tag,
                payload,
            });
            self.bell.ring();
            return Ok(());
        }
        let frame = encode_frame(tag, &payload);
        let writer = self.writers[to]
            .as_ref()
            .ok_or(CommError::PeerClosed { peer: to })?;
        let mut stream = writer.lock().unwrap();
        // A blocking write_all: frames are small relative to the socket
        // buffer, and the receive side drains continuously (see
        // docs/transport.md on head-of-line limits).
        stream
            .write_all(&frame)
            .map_err(|_| CommError::PeerClosed { peer: to })
    }

    fn try_recv(&mut self) -> Result<Option<Message>, CommError> {
        if let Some(m) = self.ready.pop_front() {
            return Ok(Some(m));
        }
        if let Some(m) = self.loopback.lock().unwrap().pop_front() {
            return Ok(Some(m));
        }
        // Poll every peer once, round-robin start for fairness; decode
        // everything available so buffered traffic from a dying peer is
        // delivered before its EOF is diagnosed.
        let mut dead: Option<usize> = None;
        for k in 0..self.size {
            let p = (self.next_poll + k) % self.size;
            let Some(peer) = self.readers[p].as_mut() else {
                continue;
            };
            if !peer.eof {
                SocketBackend::fill(peer);
            }
            while let Some((tag, payload)) = peer.decoder.next_frame() {
                self.ready.push_back(Message {
                    src: p,
                    tag,
                    payload,
                });
            }
            // An unframeable stream is read no further.
            peer.eof |= peer.decoder.corrupt();
            if peer.eof && !peer.decoder.closed() && dead.is_none() {
                // Raw EOF, truncated frame or corrupt header: death,
                // not a close.
                dead = Some(p);
            }
        }
        self.next_poll = (self.next_poll + 1) % self.size;
        if let Some(m) = self.ready.pop_front() {
            return Ok(Some(m));
        }
        if let Some(peer) = dead {
            return Err(CommError::PeerClosed { peer });
        }
        Ok(None)
    }

    fn recv(&mut self) -> Result<Message, CommError> {
        loop {
            if let Some(m) = self.try_recv()? {
                return Ok(m);
            }
            // Every remote reader saw the close marker and then EOF:
            // no byte can ever arrive, so waiting would never end.
            if self
                .readers
                .iter()
                .flatten()
                .all(|p| p.eof && p.decoder.closed())
            {
                return Err(CommError::AllPeersClosed);
            }
            self.wait(None);
        }
    }

    fn wait(&mut self, timeout: Option<Duration>) {
        let looped = !self.loopback.lock().expect("loopback lock").is_empty();
        if looped || !self.ready.is_empty() {
            return;
        }
        // A read side at EOF is always readable: it has been diagnosed
        // already and would only turn the sleep into a spin.
        let live: Vec<RawFd> = self
            .readers
            .iter()
            .flatten()
            .filter(|p| !p.eof)
            .map(|p| p.stream.as_raw_fd())
            .collect();
        self.bell.wait_on(&live, timeout);
    }

    fn doorbell(&self) -> Arc<Doorbell> {
        self.bell.clone()
    }

    fn close(&mut self) {
        if self.closed {
            return;
        }
        self.closed = true;
        let marker = encode_frame(WIRE_CLOSE_TAG, &[]);
        for writer in self.writers.iter().flatten() {
            let mut stream = writer.lock().unwrap();
            let _ = stream.write_all(&marker);
            let _ = stream.shutdown(std::net::Shutdown::Write);
        }
    }
}

impl Drop for SocketBackend {
    /// A *clean* drop closes gracefully, so ranks that simply finish
    /// at different times never read as deaths to their peers. A drop
    /// during panic unwind deliberately sends no marker: the raw EOF
    /// is exactly how peers detect that this rank died.
    fn drop(&mut self) {
        if !std::thread::panicking() {
            self.close();
        }
    }
}

fn listener_path(dir: &Path, rank: usize) -> PathBuf {
    dir.join(format!("rank-{rank}.sock"))
}

fn write_handshake(stream: &mut UnixStream, rank: usize, size: usize) -> std::io::Result<()> {
    let mut hs = [0u8; 16];
    hs[0..4].copy_from_slice(&WIRE_MAGIC.to_le_bytes());
    hs[4..8].copy_from_slice(&WIRE_VERSION.to_le_bytes());
    hs[8..12].copy_from_slice(&(rank as u32).to_le_bytes());
    hs[12..16].copy_from_slice(&(size as u32).to_le_bytes());
    stream.write_all(&hs)
}

fn read_handshake(stream: &mut UnixStream, expect_size: usize) -> std::io::Result<usize> {
    let mut hs = [0u8; 16];
    stream.read_exact(&mut hs)?;
    let magic = u32::from_le_bytes(hs[0..4].try_into().unwrap());
    let version = u32::from_le_bytes(hs[4..8].try_into().unwrap());
    let rank = u32::from_le_bytes(hs[8..12].try_into().unwrap()) as usize;
    let size = u32::from_le_bytes(hs[12..16].try_into().unwrap()) as usize;
    let bad = |what: String| std::io::Error::new(std::io::ErrorKind::InvalidData, what);
    if magic != WIRE_MAGIC {
        return Err(bad(format!("bad handshake magic {magic:#x}")));
    }
    if version != WIRE_VERSION {
        return Err(bad(format!(
            "wire version {version}, expected {WIRE_VERSION}"
        )));
    }
    if size != expect_size || rank >= size {
        return Err(bad(format!(
            "handshake claims rank {rank} of {size}, expected world of {expect_size}"
        )));
    }
    Ok(rank)
}

fn assemble(
    rank: usize,
    size: usize,
    writers: Vec<Option<Mutex<UnixStream>>>,
    readers: Vec<Option<RecvPeer>>,
) -> SocketBackend {
    SocketBackend {
        rank,
        size,
        writers,
        readers,
        loopback: Mutex::new(VecDeque::new()),
        bell: Arc::new(Doorbell::new()),
        ready: VecDeque::new(),
        next_poll: (rank + 1) % size,
        closed: false,
    }
}

/// World builder for the socket fabric — the [`crate::Universe`]
/// counterpart for process-grade transport.
pub struct SocketUniverse;

impl SocketUniverse {
    /// Build all `n` endpoints of a socket world rendezvousing in
    /// `dir` (created if absent), in rank order, from a single thread.
    /// Socket files are unlinked before returning — once connections
    /// exist the filesystem names are no longer needed.
    pub fn endpoints_in(dir: &Path, n: usize) -> std::io::Result<Vec<Comm>> {
        assert!(n > 0, "need at least one rank");
        std::fs::create_dir_all(dir)?;
        // Phase 1: every rank listens.
        let mut listeners = Vec::with_capacity(n);
        for r in 0..n {
            let path = listener_path(dir, r);
            let _ = std::fs::remove_file(&path);
            listeners.push(UnixListener::bind(&path)?);
        }
        // Phase 2: every rank connects to every peer. Connect completes
        // through the listener backlog, no accept needed yet, and the
        // 16-byte handshake fits any socket buffer without blocking.
        let mut writers: Vec<Vec<Option<Mutex<UnixStream>>>> =
            (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
        for (r, row) in writers.iter_mut().enumerate() {
            for (p, slot) in row.iter_mut().enumerate() {
                if p == r {
                    continue;
                }
                let mut stream = UnixStream::connect(listener_path(dir, p))?;
                write_handshake(&mut stream, r, n)?;
                *slot = Some(Mutex::new(stream));
            }
        }
        // Phase 3: every rank accepts n-1 connections and learns who is
        // on each from the handshake.
        let mut readers: Vec<Vec<Option<RecvPeer>>> =
            (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
        for (r, listener) in listeners.iter().enumerate() {
            for _ in 0..n - 1 {
                let (mut stream, _) = listener.accept()?;
                let src = read_handshake(&mut stream, n)?;
                stream.set_nonblocking(true)?;
                readers[r][src] = Some(RecvPeer {
                    stream,
                    decoder: WireDecoder::new(),
                    eof: false,
                });
            }
        }
        for r in 0..n {
            let _ = std::fs::remove_file(listener_path(dir, r));
        }
        Ok(writers
            .into_iter()
            .zip(readers)
            .enumerate()
            .map(|(r, (w, rd))| Comm::from_backend(Box::new(assemble(r, n, w, rd))))
            .collect())
    }

    /// Build all `n` endpoints in a fresh private directory under the
    /// system temp dir (removed before returning). Panics on I/O
    /// failure — failing to stand up local IPC is a fatal environment
    /// error, like failing to spawn a thread.
    pub fn endpoints(n: usize) -> Vec<Comm> {
        static WORLD_SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = WORLD_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("jsweep-sock-{}-{}", std::process::id(), seq));
        let comms = SocketUniverse::endpoints_in(&dir, n)
            .unwrap_or_else(|e| panic!("socket world rendezvous in {} failed: {e}", dir.display()));
        let _ = std::fs::remove_dir_all(&dir);
        comms
    }

    /// Join a multi-process world as rank `rank` of `n`, rendezvousing
    /// in `dir` (each process calls this once; any process may create
    /// the directory). Retries connecting until every peer's listener
    /// appears or `timeout` elapses.
    pub fn connect(dir: &Path, rank: usize, n: usize, timeout: Duration) -> std::io::Result<Comm> {
        assert!(n > 0 && rank < n, "rank {rank} out of world of {n}");
        std::fs::create_dir_all(dir)?;
        let own = listener_path(dir, rank);
        let _ = std::fs::remove_file(&own);
        let listener = UnixListener::bind(&own)?;
        let deadline = Instant::now() + timeout;
        let mut writers: Vec<Option<Mutex<UnixStream>>> = (0..n).map(|_| None).collect();
        for (p, slot) in writers.iter_mut().enumerate() {
            if p == rank {
                continue;
            }
            let path = listener_path(dir, p);
            let mut stream = loop {
                match UnixStream::connect(&path) {
                    Ok(s) => break s,
                    Err(e) => {
                        if Instant::now() >= deadline {
                            return Err(std::io::Error::new(
                                std::io::ErrorKind::TimedOut,
                                format!(
                                    "rank {rank}: peer {p} never listened at {}: {e}",
                                    path.display()
                                ),
                            ));
                        }
                        std::thread::sleep(Duration::from_millis(2));
                    }
                }
            };
            write_handshake(&mut stream, rank, n)?;
            *slot = Some(Mutex::new(stream));
        }
        let mut readers: Vec<Option<RecvPeer>> = (0..n).map(|_| None).collect();
        for _ in 0..n - 1 {
            let (mut stream, _) = listener.accept()?;
            let src = read_handshake(&mut stream, n)?;
            stream.set_nonblocking(true)?;
            readers[src] = Some(RecvPeer {
                stream,
                decoder: WireDecoder::new(),
                eof: false,
            });
        }
        // Every peer has connected to us; the filesystem name is done.
        let _ = std::fs::remove_file(&own);
        Ok(Comm::from_backend(Box::new(assemble(
            rank, n, writers, readers,
        ))))
    }

    /// Run `f` on `n` rank threads over the socket fabric; returns each
    /// rank's result in rank order. Panics in any rank propagate. The
    /// socket twin of [`crate::Universe::run`].
    pub fn run<R, F>(n: usize, f: F) -> Vec<R>
    where
        R: Send + 'static,
        F: Fn(Comm) -> R + Send + Sync + 'static,
    {
        let f = std::sync::Arc::new(f);
        let mut handles = Vec::with_capacity(n);
        for comm in SocketUniverse::endpoints(n) {
            let rank = comm.rank();
            let f = f.clone();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("sock-rank-{rank}"))
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
    fn decoder_handles_split_header_and_payload() {
        let mut frame = encode_frame(7, b"hello");
        frame.extend_from_slice(&encode_frame(9, b""));
        let mut dec = WireDecoder::new();
        for b in &frame {
            dec.push(std::slice::from_ref(b));
        }
        let (tag, payload) = dec.next_frame().unwrap();
        assert_eq!((tag, &payload[..]), (7, &b"hello"[..]));
        let (tag, payload) = dec.next_frame().unwrap();
        assert_eq!((tag, payload.len()), (9, 0));
        assert!(dec.next_frame().is_none());
        assert_eq!(dec.bytes_consumed(), frame.len() as u64);
        assert_eq!(dec.pending_bytes(), 0);
    }

    #[test]
    fn decoder_close_marker_ends_the_stream() {
        let mut bytes = encode_frame(3, b"last");
        bytes.extend_from_slice(&encode_frame(WIRE_CLOSE_TAG, &[]));
        bytes.extend_from_slice(&encode_frame(4, b"never seen"));
        let mut dec = WireDecoder::new();
        dec.push(&bytes);
        assert_eq!(dec.next_frame().unwrap().0, 3);
        assert!(dec.next_frame().is_none());
        assert!(dec.closed());
    }

    #[test]
    fn decoder_refuses_an_oversize_length_header() {
        let mut bytes = encode_frame(3, b"ok");
        bytes.extend_from_slice(&5u32.to_le_bytes());
        bytes.extend_from_slice(&0xFFFF_FFFFu32.to_le_bytes());
        bytes.extend_from_slice(b"garbage that is not 4 GiB long");
        let mut dec = WireDecoder::new();
        dec.push(&bytes);
        assert_eq!(dec.next_frame().unwrap().0, 3, "frames before it decode");
        assert!(dec.next_frame().is_none());
        assert!(dec.corrupt() && !dec.closed());
        // Nothing after the bad header is ever framed.
        dec.push(&encode_frame(4, b"late"));
        assert!(dec.next_frame().is_none());
        assert_eq!(dec.bytes_consumed(), encode_frame(3, b"ok").len() as u64);
    }

    #[test]
    fn oversize_header_on_the_wire_is_a_peer_death() {
        let (mut raw, stream) = UnixStream::pair().unwrap();
        stream.set_nonblocking(true).unwrap();
        let reader = RecvPeer {
            stream,
            decoder: WireDecoder::new(),
            eof: false,
        };
        let mut backend = assemble(0, 2, vec![None, None], vec![None, Some(reader)]);
        let mut bytes = encode_frame(5, b"intact");
        bytes.extend_from_slice(&6u32.to_le_bytes());
        bytes.extend_from_slice(&0xFFFF_FFFFu32.to_le_bytes());
        raw.write_all(&bytes).unwrap();
        // The intact frame is delivered, then the corrupt header is
        // diagnosed as the peer's death — with the connection still
        // open, so nothing waits for 4 GiB that will never come.
        let m = backend.try_recv().unwrap().expect("buffered frame");
        assert_eq!((m.src, m.tag, &m.payload[..]), (1, 5, &b"intact"[..]));
        assert_eq!(
            backend.try_recv().unwrap_err(),
            CommError::PeerClosed { peer: 1 }
        );
    }

    #[test]
    fn socket_world_ring_pass() {
        let results = SocketUniverse::run(4, |mut comm| {
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
    fn peer_death_surfaces_after_buffered_delivery() {
        let mut world = SocketUniverse::endpoints(2);
        let c1 = world.pop().unwrap();
        let mut c0 = world.pop().unwrap();
        // Rank 1 dies mid-panic: its endpoint unwinds without sending a
        // close marker, leaving a raw EOF on the wire.
        let h = std::thread::spawn(move || {
            c1.send(0, 5, Bytes::copy_from_slice(b"before dying"))
                .unwrap();
            panic!("simulated rank death");
        });
        assert!(h.join().is_err());
        // Rank 0: the buffered message arrives first, then the EOF is
        // diagnosed as a death.
        let m = c0.recv_match(5).unwrap();
        assert_eq!(&m.payload[..], b"before dying");
        let err = loop {
            match c0.try_recv() {
                Ok(Some(_)) => panic!("no further message expected"),
                Ok(None) => std::thread::yield_now(),
                Err(e) => break e,
            }
        };
        assert_eq!(err, CommError::PeerClosed { peer: 1 });
    }

    #[test]
    fn graceful_close_is_silent() {
        let results = SocketUniverse::run(2, |mut comm| {
            if comm.rank() == 1 {
                comm.send(0, 5, Bytes::copy_from_slice(b"bye")).unwrap();
                comm.close();
                return true;
            }
            let m = comm.recv_match(5).unwrap();
            assert_eq!(&m.payload[..], b"bye");
            // The peer closed gracefully: silence, not an error.
            let deadline = Instant::now() + Duration::from_millis(100);
            while Instant::now() < deadline {
                assert!(comm.try_recv().unwrap().is_none());
            }
            true
        });
        assert!(results.into_iter().all(|ok| ok));
    }

    #[test]
    fn multi_process_connect_rendezvous_on_threads() {
        // Exercise the process-entry path (bind first, retry connect,
        // accept by handshake) even though these "processes" share one
        // address space.
        let dir = std::env::temp_dir().join(format!("jsweep-mp-rendezvous-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut handles = Vec::new();
        for rank in 0..3 {
            let dir = dir.clone();
            handles.push(std::thread::spawn(move || {
                let mut comm =
                    SocketUniverse::connect(&dir, rank, 3, Duration::from_secs(10)).unwrap();
                let mut total = [rank as f64 + 1.0];
                comm.allreduce_sum_f64_slice(&mut total).unwrap();
                comm.close();
                total[0]
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), 6.0);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

//! The patch-program interface (paper §III-A, Fig. 6).

use bytes::Bytes;
use jsweep_mesh::PatchId;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Task tag distinguishing multiple tasks on the same patch.
///
/// For Sn sweeps the tag is the sweeping angle id, enabling patch-angle
/// parallelism (§V-B); other data-driven components are free to encode
/// anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskTag(pub u32);

/// Identity of a patch-program: `(patch, task)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProgramId {
    /// Hosting patch.
    pub patch: PatchId,
    /// Task on that patch (for Sn sweeps, the angle id).
    pub task: TaskTag,
}

impl ProgramId {
    /// Convenience constructor.
    pub fn new(patch: PatchId, task: TaskTag) -> ProgramId {
        ProgramId { patch, task }
    }
}

/// Multiply-mix hasher for [`ProgramId`] keys (two `u32` writes).
/// SipHash's DoS resistance buys nothing for the runtime's internal id
/// map — the pool's slots — and costs real time on the
/// take/deliver/finish hot path.
#[derive(Default)]
pub(crate) struct IdHasher {
    state: u64,
}

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.state
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state = (self.state ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    fn write_u32(&mut self, v: u32) {
        self.state =
            (self.state.rotate_left(29) ^ u64::from(v)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// A map keyed by [`ProgramId`] under [`IdHasher`].
pub(crate) type IdMap<V> = HashMap<ProgramId, V, BuildHasherDefault<IdHasher>>;

/// A unit of inter-program communication (paper Fig. 6 `Stream`).
#[derive(Debug, Clone)]
pub struct Stream {
    /// Producing program.
    pub src: ProgramId,
    /// Consuming program; a stream *activates* its target.
    pub dst: ProgramId,
    /// User-defined data (see `jsweep_comm::pack` for the codec used by
    /// the sweep component).
    pub payload: Bytes,
}

/// Context handed to [`PatchProgram::compute`]: collects output streams
/// and fine-grained timing.
///
/// The runtime can only distinguish "time inside compute"; the split
/// between numerical kernel time and DAG bookkeeping ("graph-op" in
/// Fig. 16) is known to the program, which reports it through
/// [`ComputeCtx::kernel`].
#[derive(Debug, Default)]
pub struct ComputeCtx {
    /// Output streams produced by this compute call.
    pub out: Vec<Stream>,
    /// Workload units completed by this call (e.g. vertices computed);
    /// drives the counting termination detector and progress tracking.
    pub work_done: u64,
    /// Seconds spent in the numerical kernel (via [`ComputeCtx::kernel`]).
    pub kernel_seconds: f64,
}

impl ComputeCtx {
    /// Run the numerical kernel portion of a compute call, attributing
    /// its wall time to the `kernel` category. The closure is handed
    /// the output list, so streams packed as part of the kernel's work
    /// are pushed where they are produced.
    pub fn kernel<R>(&mut self, f: impl FnOnce(&mut Vec<Stream>) -> R) -> R {
        let t0 = std::time::Instant::now();
        let r = f(&mut self.out);
        self.kernel_seconds += t0.elapsed().as_secs_f64();
        r
    }

    /// Emit an output stream.
    pub fn send(&mut self, stream: Stream) {
        self.out.push(stream);
    }
}

/// Opaque per-epoch input handed to every program by
/// [`crate::Universe::run_epoch`] — the only carrier of per-epoch
/// state.
///
/// The runtime never interprets it: a program downcasts to the concrete
/// epoch type its factory's universe is driven with (e.g. the sweep
/// solver's per-iteration emission density, materials and scheduling
/// mode). Epochs that carry no input use `Arc::new(())`.
pub type EpochInput = dyn std::any::Any + Send + Sync;

/// A data-driven patch-program (paper Fig. 6).
///
/// Lifecycle (Alg. 1): `init` once, right after `create` and its first
/// `reset`; then any number of rounds of `input*` → `compute` →
/// (outputs collected from the [`ComputeCtx`]) → `vote_to_halt`. The runtime guarantees
/// `compute` is never invoked concurrently for the same program.
///
/// Under a [`crate::Universe`] the rounds repeat per **epoch**, and
/// every epoch — the first included — arms the program through
/// [`PatchProgram::reset`] with the epoch's input: right after
/// `create` (so before `init`) for a program that materialises in the
/// epoch, at the epoch boundary for a resident one (instead of
/// recreating it). The `input*`/`compute` rounds then run to
/// quiescence.
pub trait PatchProgram: Send {
    /// Initialise local context. Called exactly once, right after
    /// `create` and the first `reset`, before the first
    /// `input`/`compute`.
    fn init(&mut self);

    /// Receive one stream sent to this program.
    fn input(&mut self, src: ProgramId, payload: Bytes);

    /// Perform (partial) computation; emit streams and account work via
    /// the context.
    fn compute(&mut self, ctx: &mut ComputeCtx);

    /// True when no ready work remains (the program will deactivate
    /// until the next stream arrives).
    fn vote_to_halt(&self) -> bool;

    /// Remaining committed workload (counting termination, §III-B).
    fn remaining_work(&self) -> u64;

    /// Arm this program for an epoch of a [`crate::Universe`] with
    /// the input passed to [`crate::Universe::run_epoch`], reusing its
    /// buffers in place.
    ///
    /// Called once per epoch before the program's first
    /// `input`/`compute` of that epoch: at the epoch boundary for a
    /// resident program (while the rank is quiescent, so never
    /// concurrently with `input`/`compute`), right after `create` for
    /// one that materialises during the epoch — so a new program and a
    /// resident one adopt the epoch's state the same way. The default
    /// is a no-op, for programs whose epochs carry no input.
    fn reset(&mut self, epoch: &EpochInput) {
        let _ = epoch;
    }
}

/// Creates patch-programs and describes their placement and priority.
///
/// The factory is shared by every rank thread; it is the runtime's view
/// of the problem setup (decomposition, priorities, per-program
/// workload) and its only route table.
pub trait ProgramFactory: Send + Sync + 'static {
    /// Concrete program type.
    type Program: PatchProgram + 'static;

    /// Instantiate the program for `id` (called lazily, on the rank that
    /// hosts it). Describes the program's shape only: the runtime
    /// follows every `create` with a [`PatchProgram::reset`] carrying
    /// the current epoch's input.
    fn create(&self, id: ProgramId) -> Self::Program;

    /// All program ids hosted by `rank`.
    fn programs_on_rank(&self, rank: usize) -> Vec<ProgramId>;

    /// The rank hosting `id` (the route table). O(1) and constant:
    /// called per stream, by workers and masters alike.
    fn rank_of(&self, id: ProgramId) -> usize;

    /// Scheduling priority `prior(p, a)`; larger runs earlier. O(1)
    /// and constant per `id`: the pool fixes it when it first registers
    /// `id` (at activation, or a delivery that races ahead of it) and
    /// never re-prioritises a program.
    fn priority(&self, id: ProgramId) -> i64;

    /// Committed workload of `id` (e.g. number of local vertices), used
    /// by counting termination.
    fn initial_workload(&self, id: ProgramId) -> u64;
}

/// Wire overhead of one stream record inside a frame: 4×u32 ids +
/// u32 payload length. Frames themselves add no further header — a
/// frame is just a concatenation of self-delimiting stream records, so
/// `bytes_sent` accounting is independent of how streams are grouped.
pub const STREAM_WIRE_OVERHEAD: usize = 20;

/// Append one stream record to a frame under construction.
///
/// The caller keeps one long-lived [`Writer`] per destination rank and
/// pushes every stream bound there during a drain round; flushing with
/// [`Writer::take`] yields a multi-stream frame in a single buffer
/// (the paper's §II communication aggregation on the wire).
///
/// [`Writer`]: jsweep_comm::pack::Writer
/// [`Writer::take`]: jsweep_comm::pack::Writer::take
pub fn frame_push(w: &mut jsweep_comm::pack::Writer, stream: &Stream) {
    w.put_u32(stream.src.patch.0);
    w.put_u32(stream.src.task.0);
    w.put_u32(stream.dst.patch.0);
    w.put_u32(stream.dst.task.0);
    w.put_u32(stream.payload.len() as u32);
    w.put_bytes(&stream.payload);
}

/// Pack a batch of streams into one frame (convenience over
/// [`frame_push`] + [`Writer::take`] for tests and benches).
///
/// [`Writer::take`]: jsweep_comm::pack::Writer::take
pub fn pack_frame(streams: &[Stream]) -> Bytes {
    let cap: usize = streams
        .iter()
        .map(|s| STREAM_WIRE_OVERHEAD + s.payload.len())
        .sum();
    let mut w = jsweep_comm::pack::Writer::with_capacity(cap);
    for s in streams {
        frame_push(&mut w, s);
    }
    w.finish()
}

/// Decode a frame back into its streams, or `None` when the bytes are
/// not a whole number of stream records (frames arrive off the wire:
/// a record header cut short, or a payload length that overruns the
/// frame, is a garbled peer, not a reason to panic).
///
/// Payloads are zero-copy windows into the frame's allocation
/// ([`Bytes::slice`]), so unpacking a frame of `k` streams performs no
/// payload copies — only `k` header reads.
pub fn unpack_frame(mut frame: Bytes) -> Option<Vec<Stream>> {
    use bytes::Buf;
    let mut out = Vec::new();
    while frame.has_remaining() {
        if frame.remaining() < STREAM_WIRE_OVERHEAD {
            return None;
        }
        let src_patch = frame.get_u32_le();
        let src_task = frame.get_u32_le();
        let dst_patch = frame.get_u32_le();
        let dst_task = frame.get_u32_le();
        let len = frame.get_u32_le() as usize;
        if frame.remaining() < len {
            return None;
        }
        let payload = frame.slice(0..len);
        frame.advance(len);
        out.push(Stream {
            src: ProgramId::new(PatchId(src_patch), TaskTag(src_task)),
            dst: ProgramId::new(PatchId(dst_patch), TaskTag(dst_task)),
            payload,
        });
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip_many_streams() {
        let streams: Vec<Stream> = (0..9u32)
            .map(|i| Stream {
                src: ProgramId::new(PatchId(i), TaskTag(i % 3)),
                dst: ProgramId::new(PatchId(100 + i), TaskTag(0)),
                payload: Bytes::from(vec![i as u8; i as usize]),
            })
            .collect();
        let frame = pack_frame(&streams);
        assert_eq!(
            frame.len(),
            streams
                .iter()
                .map(|s| STREAM_WIRE_OVERHEAD + s.payload.len())
                .sum::<usize>()
        );
        let back = unpack_frame(frame).expect("well-formed frame");
        assert_eq!(back.len(), streams.len());
        for (a, b) in back.iter().zip(&streams) {
            assert_eq!(a.src, b.src);
            assert_eq!(a.dst, b.dst);
            assert_eq!(a.payload, b.payload);
        }
    }

    #[test]
    fn frame_push_reuses_one_writer_across_flushes() {
        let mut w = jsweep_comm::pack::Writer::new();
        let s = Stream {
            src: ProgramId::new(PatchId(1), TaskTag(0)),
            dst: ProgramId::new(PatchId(2), TaskTag(0)),
            payload: Bytes::copy_from_slice(b"abc"),
        };
        frame_push(&mut w, &s);
        frame_push(&mut w, &s);
        let first = w.take();
        assert_eq!(unpack_frame(first).unwrap().len(), 2);
        // Same writer keeps serving the next frame.
        frame_push(&mut w, &s);
        assert_eq!(unpack_frame(w.take()).unwrap().len(), 1);
        assert!(unpack_frame(w.take()).unwrap().is_empty());
    }

    #[test]
    fn unpack_frame_payloads_share_frame_allocation() {
        let payload = Bytes::from(vec![7u8; 32]);
        let s = Stream {
            src: ProgramId::new(PatchId(0), TaskTag(0)),
            dst: ProgramId::new(PatchId(1), TaskTag(0)),
            payload,
        };
        let frame = pack_frame(&[s.clone(), s]);
        let whole = frame.clone(); // same allocation, independent cursor
        let back = unpack_frame(frame).expect("well-formed frame");
        let base = whole.as_ref().as_ptr() as usize;
        let end = base + whole.len();
        for b in &back {
            assert_eq!(&b.payload[..], &[7u8; 32][..]);
            // Zero-copy: the payload points into the frame allocation.
            let p = b.payload.as_ref().as_ptr() as usize;
            assert!(p >= base && p + b.payload.len() <= end);
        }
    }

    #[test]
    fn unpack_frame_rejects_truncated_and_overlong_records() {
        let s = Stream {
            src: ProgramId::new(PatchId(1), TaskTag(2)),
            dst: ProgramId::new(PatchId(3), TaskTag(4)),
            payload: Bytes::copy_from_slice(b"payload!"),
        };
        let frame = pack_frame(&[s.clone(), s]);
        let record = STREAM_WIRE_OVERHEAD + 8;
        assert_eq!(frame.len(), 2 * record);
        // Cut inside the second record's header, and inside its payload.
        assert!(unpack_frame(frame.slice(0..record + 7)).is_none());
        assert!(unpack_frame(frame.slice(0..2 * record - 1)).is_none());
        // A cut on a record boundary is a shorter, well-formed frame.
        assert_eq!(unpack_frame(frame.slice(0..record)).unwrap().len(), 1);
        // A length field larger than everything that follows it.
        let mut bytes = frame.to_vec();
        bytes[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(unpack_frame(Bytes::from(bytes)).is_none());
    }

    #[test]
    fn compute_ctx_accumulates_kernel_time() {
        let mut ctx = ComputeCtx::default();
        let v = ctx.kernel(|_| 41 + 1);
        assert_eq!(v, 42);
        ctx.kernel(|_| std::thread::sleep(std::time::Duration::from_millis(2)));
        assert!(ctx.kernel_seconds >= 0.002);
    }

    #[test]
    fn program_id_ordering_is_patch_major() {
        let a = ProgramId::new(PatchId(1), TaskTag(9));
        let b = ProgramId::new(PatchId(2), TaskTag(0));
        assert!(a < b);
    }
}

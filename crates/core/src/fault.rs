//! Fault taxonomy and deterministic fault injection.
//!
//! The runtime's containment contract (the robustness counterpart of
//! the paper's §IV data-driven execution, which assumes every
//! patch-program computes to completion): a panicking `compute` —
//! or a rank that stops making progress — poisons the **epoch**, not
//! the process. Workers catch the panic at the claim site, report an
//! [`EpochFault`] through the normal report channel, and keep
//! serving; the master broadcasts an abort to its peers and
//! `run_epoch` returns `Err` instead of tearing the world down. A
//! faulted [`crate::Universe`] is then shut down and a fresh one
//! launched in its place; coarse plans survive because they key on the
//! mesh generation, not the universe (see `docs/replay.md`).
//!
//! [`FaultPlan`] is the deterministic injection harness driving
//! `tests/chaos.rs`. Each hook is defined once, with the
//! `fault-inject` cargo feature gating the statement that consults
//! the plan; in default builds every hook is therefore an inlined
//! constant `None`/`false`, so production claim paths carry no
//! injection cost and a configured plan is inert.

use crate::program::ProgramId;
use bytes::{BufMut, Bytes, BytesMut};
use std::fmt;
use std::time::Duration;

#[cfg(feature = "fault-inject")]
use std::sync::atomic::{AtomicU64, Ordering};

/// How an epoch came to fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A patch-program panicked inside `init`/`input`/`compute`.
    Panic,
    /// The epoch watchdog expired: the rank held active work but saw
    /// no worker progress for the configured deadline
    /// ([`crate::RuntimeConfig::watchdog`]).
    Stall,
    /// A rank thread died outright (an engine bug, not a program
    /// panic — program panics are contained as [`FaultKind::Panic`]).
    RankDeath,
    /// Synthesized by the fault-injection harness at the session
    /// tier (`fail epoch E of campaign C`); never produced by the
    /// runtime itself.
    Injected,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FaultKind::Panic => "panic",
            FaultKind::Stall => "stall",
            FaultKind::RankDeath => "rank death",
            FaultKind::Injected => "injected",
        };
        f.write_str(s)
    }
}

/// A contained epoch failure: where it happened and why.
///
/// Returned by [`crate::Universe::run_epoch`] as the `Err` arm; the
/// universe that produced it refuses further epochs: shut it down and
/// launch a fresh one.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EpochFault {
    /// Rank on which the fault originated.
    pub rank: usize,
    /// Worker index on that rank (the stalled worker's best-guess
    /// index for [`FaultKind::Stall`]).
    pub worker: usize,
    /// Offending patch-program, when one can be blamed (`None` for
    /// stalls and rank deaths).
    pub program: Option<ProgramId>,
    /// Panic payload rendered to a string, or a description of the
    /// stall/death.
    pub payload: String,
    /// Fault class.
    pub kind: FaultKind,
}

impl fmt::Display for EpochFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} on rank {} worker {}",
            self.kind, self.rank, self.worker
        )?;
        if let Some(id) = self.program {
            write!(f, " (patch {} task {})", id.patch.0, id.task.0)?;
        }
        write!(f, ": {}", self.payload)
    }
}

impl EpochFault {
    /// Wire form for the master's abort broadcast (`TAG_ABORT`).
    pub(crate) fn pack(&self) -> Bytes {
        let mut w = BytesMut::with_capacity(32 + self.payload.len());
        w.put_u32_le(self.rank as u32);
        w.put_u32_le(self.worker as u32);
        w.put_u8(match self.kind {
            FaultKind::Panic => 0,
            FaultKind::Stall => 1,
            FaultKind::RankDeath => 2,
            FaultKind::Injected => 3,
        });
        match self.program {
            Some(id) => {
                w.put_u8(1);
                w.put_u32_le(id.patch.0);
                w.put_u32_le(id.task.0);
            }
            None => w.put_u8(0),
        }
        w.put_slice(self.payload.as_bytes());
        w.freeze()
    }

    /// Inverse of [`EpochFault::pack`]; `None` for a payload too short
    /// to hold what its own flags announce (it came off the wire).
    pub(crate) fn unpack(mut b: &[u8]) -> Option<EpochFault> {
        use bytes::Buf;
        use jsweep_mesh::PatchId;
        if b.remaining() < 10 {
            return None;
        }
        let rank = b.get_u32_le() as usize;
        let worker = b.get_u32_le() as usize;
        let kind = match b.get_u8() {
            0 => FaultKind::Panic,
            1 => FaultKind::Stall,
            2 => FaultKind::RankDeath,
            _ => FaultKind::Injected,
        };
        let program = if b.get_u8() == 1 {
            if b.remaining() < 8 {
                return None;
            }
            let (patch, task) = (b.get_u32_le(), b.get_u32_le());
            Some(ProgramId::new(
                PatchId(patch),
                crate::program::TaskTag(task),
            ))
        } else {
            None
        };
        Some(EpochFault {
            rank,
            worker,
            program,
            payload: String::from_utf8_lossy(b).into_owned(),
            kind,
        })
    }
}

/// Render a `catch_unwind`/`join` panic payload as a string.
///
/// Panic payloads are `Box<dyn Any>`; in practice they are `&str`
/// (literal messages) or `String` (formatted messages). Anything else
/// renders as an opaque placeholder rather than being lost.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// One counted trigger: fires on the `nth` (1-based) event at
/// `target`. The counter lives in the shared plan — process-wide — so
/// a trigger fires exactly once even across universe relaunches: an
/// injected fault is *transient*, which is what lets retry-policy
/// tests recover.
#[cfg(feature = "fault-inject")]
#[derive(Debug)]
struct Trigger<T> {
    target: T,
    nth: u64,
    hits: AtomicU64,
}

#[cfg(feature = "fault-inject")]
impl<T: PartialEq> Trigger<T> {
    fn new(target: T, nth: u64) -> Trigger<T> {
        Trigger {
            target,
            nth,
            hits: AtomicU64::new(0),
        }
    }

    /// Count one event at `at`; `true` when it is this trigger's
    /// `nth` event there.
    fn hit(&self, at: &T) -> bool {
        self.target == *at && self.hits.fetch_add(1, Ordering::Relaxed) + 1 == self.nth
    }
}

/// A deterministic, seedable fault-injection plan.
///
/// Built once (usually per test) and installed via
/// [`crate::RuntimeConfig::fault_plan`]; the runtime consults it at
/// three hook points — compute calls, claim batches, and session
/// epoch attempts. All triggers are counted events (the Nth compute
/// of a patch, the Nth claim of a worker, the Nth epoch attempt of a
/// campaign), so a deterministic workload faults at a deterministic
/// point regardless of thread scheduling.
///
/// With the `fault-inject` cargo feature disabled the plan still
/// constructs (so configs stay source-compatible) but every hook is a
/// compiled-out constant and the plan is inert.
#[derive(Debug, Default)]
pub struct FaultPlan {
    /// Patch → its `nth` compute call, counted across every task of
    /// the patch, panics.
    #[cfg(feature = "fault-inject")]
    panics: Vec<Trigger<u32>>,
    /// `(rank, worker)` → its `nth` claim batch sleeps for the
    /// duration while holding its claims, keeping the pool un-quiet so
    /// the epoch watchdog can observe a stuck rank.
    #[cfg(feature = "fault-inject")]
    stalls: Vec<(Trigger<(usize, usize)>, Duration)>,
    /// `(campaign, 0-based epoch attempt)` → that attempt is reported
    /// as faulted without running.
    #[cfg(feature = "fault-inject")]
    epoch_fails: Vec<Trigger<(u64, u64)>>,
    /// Rank → the `nth` epoch it enters kills the whole rank thread
    /// (master and all), simulating a crashed rank process. Peers
    /// observe it through the transport (a raw EOF on a socket
    /// fabric), not through any in-process side channel.
    #[cfg(feature = "fault-inject")]
    kills: Vec<Trigger<usize>>,
}

#[cfg_attr(not(feature = "fault-inject"), allow(unused_variables, unused_mut))]
impl FaultPlan {
    /// Start building an empty plan.
    pub fn builder() -> FaultPlanBuilder {
        FaultPlanBuilder {
            plan: FaultPlan::default(),
        }
    }

    /// A seeded one-panic plan for soak tests: splitmix64 over `seed`
    /// picks a target patch in `0..num_patches` and a trigger count in
    /// `1..=max_nth`. Same seed, same plan.
    pub fn seeded(seed: u64, num_patches: u32, max_nth: u64) -> FaultPlanBuilder {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let patch = (next() % u64::from(num_patches.max(1))) as u32;
        let nth = 1 + next() % max_nth.max(1);
        FaultPlan::builder().panic_on_compute(patch, nth)
    }

    /// Should this compute call panic? Counts the call against every
    /// trigger on its patch.
    #[inline]
    pub fn should_panic(&self, id: ProgramId) -> bool {
        let mut fire = false;
        #[cfg(feature = "fault-inject")]
        for t in &self.panics {
            fire |= t.hit(&id.patch.0);
        }
        fire
    }

    /// How long (if at all) this claim batch should stall. Counts the
    /// batch against every trigger on this worker.
    #[inline]
    pub(crate) fn stall_for(&self, rank: usize, worker: usize) -> Option<Duration> {
        let mut stall = None;
        #[cfg(feature = "fault-inject")]
        for (t, duration) in &self.stalls {
            if t.hit(&(rank, worker)) {
                stall = Some(*duration);
            }
        }
        stall
    }

    /// Should this session epoch attempt be failed without running?
    /// One-shot: attempt numbers never repeat within a campaign.
    #[inline]
    pub fn take_epoch_fail(&self, campaign: u64, epoch_attempt: u64) -> bool {
        let mut fail = false;
        #[cfg(feature = "fault-inject")]
        for t in &self.epoch_fails {
            fail |= t.hit(&(campaign, epoch_attempt));
        }
        fail
    }

    /// Should this rank die on entering the current epoch? Counts the
    /// epoch entry against every trigger on the rank.
    #[inline]
    pub(crate) fn should_kill_rank(&self, rank: usize) -> bool {
        let mut fire = false;
        #[cfg(feature = "fault-inject")]
        for t in &self.kills {
            fire |= t.hit(&rank);
        }
        fire
    }
}

/// Builder for [`FaultPlan`]. With the `fault-inject` feature
/// disabled every method is a no-op, so test helpers compile either
/// way.
#[derive(Debug, Default)]
pub struct FaultPlanBuilder {
    plan: FaultPlan,
}

#[cfg_attr(
    not(feature = "fault-inject"),
    allow(unused_variables, unused_mut, clippy::needless_pass_by_value)
)]
impl FaultPlanBuilder {
    /// Panic on the `nth` (1-based) compute call of any task of patch
    /// `patch`, once.
    pub fn panic_on_compute(mut self, patch: u32, nth: u64) -> FaultPlanBuilder {
        #[cfg(feature = "fault-inject")]
        self.plan.panics.push(Trigger::new(patch, nth));
        self
    }

    /// Stall worker `worker` of rank `rank` for `duration` on its
    /// `nth` (1-based) claim batch, once.
    pub fn stall_worker(
        mut self,
        rank: usize,
        worker: usize,
        nth: u64,
        duration: Duration,
    ) -> FaultPlanBuilder {
        #[cfg(feature = "fault-inject")]
        self.plan
            .stalls
            .push((Trigger::new((rank, worker), nth), duration));
        self
    }

    /// Fail the `epoch`-th (0-based) epoch attempt of campaign
    /// `campaign` at the session tier, once, without running it.
    pub fn fail_epoch(mut self, campaign: u64, epoch: u64) -> FaultPlanBuilder {
        #[cfg(feature = "fault-inject")]
        self.plan
            .epoch_fails
            .push(Trigger::new((campaign, epoch), 1));
        self
    }

    /// Kill rank `rank` (panic the whole rank thread, master included)
    /// on the `nth` (1-based) epoch it enters, once across relaunches.
    pub fn kill_rank(mut self, rank: usize, nth: u64) -> FaultPlanBuilder {
        #[cfg(feature = "fault-inject")]
        self.plan.kills.push(Trigger::new(rank, nth));
        self
    }

    /// Finish the plan.
    pub fn build(self) -> FaultPlan {
        self.plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::TaskTag;
    use jsweep_mesh::PatchId;

    #[test]
    fn fault_roundtrips_through_wire_form() {
        let f = EpochFault {
            rank: 3,
            worker: 1,
            program: Some(ProgramId::new(PatchId(7), TaskTag(2))),
            payload: "boom".to_string(),
            kind: FaultKind::Panic,
        };
        assert_eq!(EpochFault::unpack(&f.pack()), Some(f.clone()));
        let g = EpochFault {
            rank: 0,
            worker: 4,
            program: None,
            payload: "no progress for 100ms".to_string(),
            kind: FaultKind::Stall,
        };
        assert_eq!(EpochFault::unpack(&g.pack()), Some(g));
        // Truncated payloads: empty, one byte short of the fixed
        // header, and a program flag with only 2 of its 8 id bytes.
        let wire = f.pack();
        for cut in [0, 9, 12] {
            assert_eq!(EpochFault::unpack(&wire[..cut]), None, "{cut} bytes");
        }
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn panic_spec_fires_exactly_once_on_nth_compute() {
        let plan = FaultPlan::builder().panic_on_compute(5, 3).build();
        let id = ProgramId::new(PatchId(5), TaskTag(0));
        let other = ProgramId::new(PatchId(4), TaskTag(0));
        assert!(!plan.should_panic(other));
        assert!(!plan.should_panic(id)); // 1st
        assert!(!plan.should_panic(id)); // 2nd
        assert!(plan.should_panic(id)); // 3rd fires
        assert!(!plan.should_panic(id)); // spent
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn kill_spec_fires_exactly_once_on_nth_epoch_entry() {
        let plan = FaultPlan::builder().kill_rank(1, 2).build();
        assert!(!plan.should_kill_rank(0));
        assert!(!plan.should_kill_rank(1)); // 1st epoch entry
        assert!(plan.should_kill_rank(1)); // 2nd fires
        assert!(!plan.should_kill_rank(1)); // spent, incl. after relaunch
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn stall_and_epoch_specs_are_one_shot() {
        let plan = FaultPlan::builder()
            .stall_worker(1, 0, 1, Duration::from_millis(5))
            .fail_epoch(9, 2)
            .build();
        assert_eq!(plan.stall_for(0, 0), None);
        assert_eq!(plan.stall_for(1, 0), Some(Duration::from_millis(5)));
        assert_eq!(plan.stall_for(1, 0), None);
        assert!(!plan.take_epoch_fail(9, 1));
        assert!(plan.take_epoch_fail(9, 2));
        assert!(!plan.take_epoch_fail(9, 2));
    }

    #[test]
    fn seeded_plans_are_reproducible() {
        let a = format!("{:?}", FaultPlan::seeded(42, 8, 10).build());
        let b = format!("{:?}", FaultPlan::seeded(42, 8, 10).build());
        assert_eq!(a, b);
    }
}

//! Sweep-as-a-service: a resident [`SolverSession`] serving queued
//! solves from many concurrent campaigns.
//!
//! [`solve_parallel_cached`](crate::solver::solve_parallel_cached) is
//! one-shot: it launches a resident universe, runs one solve's source
//! iterations as epochs, and tears the universe down. Multi-solve
//! workloads — time stepping, eigenvalue iteration, material sweeps,
//! uncertainty campaigns — pay that launch/teardown once per solve and
//! re-enter the runtime from scratch each time, even though every
//! solve of a given problem shape could run on the *same* resident
//! programs with the *same* compiled replay plan.
//!
//! A [`SolverSession`] keeps exactly one
//! [`EpochWorld`](crate::solver) alive on a dedicated driver thread:
//! one resident [`jsweep_core::Universe`], one shared [`PlanCache`].
//! Campaigns (independent clients, typically one per thread) obtain a
//! [`CampaignHandle`] and submit [`SolveRequest`]s asynchronously; each
//! request is reduced to a sequence of sweep epochs and interleaved
//! with other campaigns' epochs by a pluggable [`AdmissionPolicy`].
//! Every completed request resolves its [`SolveTicket`] with a
//! [`SolveOutcome`] whose flux is **bit-identical** to a solo
//! `solve_parallel_cached` call of the same request: an epoch of a
//! session *is* the loop body of the solo solver (see
//! `advance_one_epoch`), and the replay plan a request runs is compiled
//! once per problem shape, at the first admission of that shape, and
//! served from the session's [`PlanCache`] to every later one — fine
//! and replay iterations produce the same flux bit-for-bit (§V-E), so
//! interleaving changes wall clock, never physics.
//!
//! # Lifecycle
//!
//! ```text
//!      launch()                 submit()          epochs (policy-picked)
//!   ┌────────────┐  campaign() ┌─────────┐ admit ┌─────────┐ done ┌──────────┐
//!   │ SolverSession│──────────▶│ queued  │──────▶│ running │─────▶│ resolved │
//!   └────────────┘             └─────────┘       └─────────┘      └──────────┘
//!        │  refine(mesh', problem'): drain admitted work, retire the
//!        │  universe, swap the world, drop the old generation's plans
//!        │  — the next admission compiles a fresh one under the new stamp
//!        │  (stale plans are structurally unreachable: the generation
//!        │  is in the PlanKey; the barrier is where they are freed).
//!        ▼
//!     shutdown(): drain admitted work, resolve everything still queued
//!     with SessionError::Closed, retire the universe, join the driver.
//! ```
//!
//! Pause/resume gate *epoch execution* only: a paused session still
//! admits submissions (the deterministic-interleaving tests rely on
//! this to stage a known backlog before any epoch runs).
//!
//! The driver keeps one record per campaign — its queue of admitted
//! solves, its consecutive-fault streak, its quarantine flag and its
//! epoch-attempt count — and a faulted epoch needs no clean-up beyond
//! retiring the universe: the world's output sink is replaced with it
//! (see `EpochWorld::retire`).
//!
//! See `docs/session.md` for the full state diagram, the admission
//! policies, and the stats glossary.

use crate::replay::PlanCache;
use crate::solver::{advance_one_epoch, EpochWorld, SnConfig, SnSolution, SolveProgress};
use crate::xs::MaterialSet;
use jsweep_core::fault::{EpochFault, FaultKind};
use jsweep_graph::SweepProblem;
use jsweep_mesh::SweepTopology;
use jsweep_quadrature::QuadratureSet;
use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// One queued solve: the physics that varies per request. The problem
/// shape (mesh, decomposition, quadrature, solver knobs) is session
/// state — requests that need a different shape need a different
/// session (or a [`SolverSession::refine`]).
#[derive(Clone)]
pub struct SolveRequest {
    /// Cross sections and sources for this solve. Must cover the
    /// session's mesh; with a live resident universe the group count
    /// must match the resident programs (their buffer shapes are fixed
    /// at launch) — violations resolve the ticket with
    /// [`SessionError::Rejected`] instead of panicking the driver.
    pub materials: Arc<MaterialSet>,
    /// Override of [`SnConfig::max_iterations`] for this request.
    pub max_iterations: Option<usize>,
    /// Override of [`SnConfig::tolerance`] for this request.
    pub tolerance: Option<f64>,
    /// Override of the session-wide [`SessionOptions::retry`] policy
    /// for this request.
    pub retry: Option<RetryPolicy>,
}

impl SolveRequest {
    /// A request with the session's default iteration budget,
    /// tolerance and retry policy.
    pub fn new(materials: Arc<MaterialSet>) -> Self {
        SolveRequest {
            materials,
            max_iterations: None,
            tolerance: None,
            retry: None,
        }
    }
}

/// How a request responds to a faulted epoch (a contained program
/// panic, a watchdog-detected stall, or an injected failure — see
/// [`EpochFault`]).
///
/// A retried epoch reruns the *same* source iteration on a relaunched
/// universe: a faulted epoch never touches the solve's flux iterate,
/// so a retry that succeeds continues the bit-identical iteration
/// sequence as if the fault never happened. The default policy is no
/// retries: every fault resolves the ticket
/// [`SessionError::Failed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RetryPolicy {
    /// Faulted epochs to retry before the request fails. Each retry
    /// costs a universe relaunch.
    pub max_retries: u32,
    /// Driver-side delay before each retry (a persistent hardware or
    /// state problem often needs time to clear; zero retries
    /// immediately).
    pub backoff: Duration,
}

/// Why (and where) a request failed: the terminal fault of a solve
/// whose retry budget is exhausted. Carried by
/// [`SessionError::Failed`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultReport {
    /// Campaign of the failed request.
    pub campaign: u64,
    /// Sequence number of the failed request within its campaign.
    pub seq: u64,
    /// The source iteration the faulted epoch was attempting
    /// (1-based); iterations before it completed normally.
    pub iteration: usize,
    /// Retries already spent on this request before the terminal
    /// fault.
    pub retries: u32,
    /// The fault itself, as reported by the runtime.
    pub fault: EpochFault,
}

/// Why a [`SolveTicket`] resolved without a solution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// The session shut down before the request was served.
    Closed,
    /// The request was incompatible with the session's world (wrong
    /// mesh coverage, or a group count the resident programs cannot
    /// adopt).
    Rejected(String),
    /// The request's epochs faulted past its retry budget. Only the
    /// offending request fails: the universe is relaunched and the
    /// rest of the queue keeps being served.
    Failed(FaultReport),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Closed => write!(f, "session closed before the request was served"),
            SessionError::Rejected(why) => write!(f, "request rejected: {why}"),
            SessionError::Failed(r) => write!(
                f,
                "request failed at iteration {} after {} retries: {}",
                r.iteration, r.retries, r.fault
            ),
        }
    }
}

impl std::error::Error for SessionError {}

/// The resolved result of one [`SolveRequest`].
#[derive(Debug, Clone)]
pub struct SolveOutcome {
    /// Campaign the request belonged to.
    pub campaign: u64,
    /// Submission sequence number within the campaign (0-based).
    pub seq: u64,
    /// The solve result — bit-identical to a solo
    /// [`crate::solver::solve_parallel_cached`] of the same request,
    /// including per-epoch [`jsweep_core::RunStats`] in
    /// [`SnSolution::stats`].
    pub solution: SnSolution,
    /// Mesh generation the solve ran against.
    pub mesh_generation: u64,
    /// Seconds between submission and the request's first epoch (its
    /// time at the back of the queue).
    pub queue_wait_seconds: f64,
    /// Telemetry span id stamped on every epoch this request ran (the
    /// `b` payload of its `Epoch` events in an exported Chrome trace —
    /// see `docs/observability.md`). Assigned at admission as
    /// `admission_index + 1`, so it is nonzero and deterministic; `0`
    /// for a degenerate request that ran no epochs.
    pub span_id: u64,
}

/// A solve the admission policy can schedule an epoch for: the head
/// request of one campaign's queue. Requests within a campaign are
/// strictly ordered; campaigns are independent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochCandidate {
    /// Campaign id.
    pub campaign: u64,
    /// Request sequence number within the campaign.
    pub seq: u64,
    /// Global admission order of the request (monotone across the
    /// session) — the FIFO sort key.
    pub admission_index: u64,
    /// Epochs already run for this request.
    pub epochs_run: usize,
}

/// Decides which admitted solve runs the next epoch.
///
/// Called by the driver with one candidate per campaign that has work
/// (never empty); must return an index into `candidates`. Policies are
/// deterministic functions of the candidate list and their own state —
/// the deterministic-interleaving tests replay a seeded submission
/// order against a policy and assert the exact epoch schedule.
pub trait AdmissionPolicy: Send {
    /// Pick the candidate whose solve runs the next epoch.
    fn next_epoch(&mut self, candidates: &[EpochCandidate]) -> usize;
}

/// Strict first-come-first-served: the earliest-admitted request runs
/// to completion before any later one gets an epoch.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fifo;

impl AdmissionPolicy for Fifo {
    fn next_epoch(&mut self, candidates: &[EpochCandidate]) -> usize {
        candidates
            .iter()
            .enumerate()
            .min_by_key(|(_, c)| c.admission_index)
            .map(|(i, _)| i)
            .expect("candidates is never empty")
    }
}

/// Per-campaign round-robin: one epoch to the smallest campaign id
/// strictly greater than the last-served id, wrapping. Keeps every
/// campaign's latency bounded regardless of how many requests the
/// others have queued.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobin {
    last: Option<u64>,
}

impl AdmissionPolicy for RoundRobin {
    fn next_epoch(&mut self, candidates: &[EpochCandidate]) -> usize {
        let after = |floor: u64| {
            candidates
                .iter()
                .enumerate()
                .filter(|(_, c)| c.campaign > floor)
                .min_by_key(|(_, c)| c.campaign)
        };
        let first = || {
            candidates
                .iter()
                .enumerate()
                .min_by_key(|(_, c)| c.campaign)
        };
        let (i, c) = match self.last {
            Some(l) => after(l).or_else(first),
            None => first(),
        }
        .expect("candidates is never empty");
        self.last = Some(c.campaign);
        i
    }
}

/// Per-campaign accounting, aggregated over the campaign's lifetime.
/// Per-epoch [`jsweep_core::RunStats`] deltas ride in each
/// [`SolveOutcome::solution`]; these are the running totals a monitor
/// would poll.
#[derive(Debug, Clone, Default)]
pub struct CampaignStats {
    /// Requests submitted.
    pub submitted: u64,
    /// Requests completed with a solution.
    pub completed: u64,
    /// Requests rejected at admission.
    pub rejected: u64,
    /// Requests that resolved [`SessionError::Failed`] (fault past the
    /// retry budget).
    pub failed: u64,
    /// Faulted epochs attributed to this campaign's requests
    /// (including ones a retry later recovered).
    pub faults: u64,
    /// Epoch retries spent by this campaign's requests.
    pub retries: u64,
    /// The campaign hit [`SessionOptions::quarantine_after`]
    /// consecutive faults: its queue was flushed and every later
    /// submission resolves [`SessionError::Rejected`].
    pub quarantined: bool,
    /// Epochs run on behalf of this campaign.
    pub epochs_run: u64,
    /// Admissions that found their replay plan in the session cache.
    pub plan_cache_hits: u64,
    /// Admissions that missed the cache (each compiled the plan and
    /// stored it for every later admission of its shape).
    pub plan_cache_misses: u64,
    /// Total seconds the campaign's requests spent queued before their
    /// first epoch.
    pub queue_wait_seconds: f64,
    /// Total aggregated epoch wall seconds.
    pub epoch_wall_seconds: f64,
    /// Total units of sweep work executed.
    pub work_done: u64,
    /// Total patch-program compute calls.
    pub compute_calls: u64,
    /// Total end-of-epoch worker drain seconds (see
    /// [`jsweep_core::RunStats::worker_drain_seconds`]).
    pub worker_drain_seconds: f64,
}

/// One line of the session's epoch log: which solve ran, in which
/// scheduling mode, against which plan and mesh generation. The
/// deterministic-interleaving tests compare this log against a
/// reference schedule; the soak test asserts no replayed epoch ever
/// used a plan from a superseded generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochRecord {
    /// Campaign served.
    pub campaign: u64,
    /// Request sequence number within the campaign.
    pub seq: u64,
    /// The request's iteration count after this epoch (1-based). A
    /// faulted epoch records the iteration it was *attempting* — the
    /// solve's own count did not advance.
    pub iteration: usize,
    /// The epoch faulted: it contributed no flux and no stats, and
    /// the universe was relaunched afterwards.
    pub faulted: bool,
    /// Generation stamp of the replayed plan (`None` on fine and
    /// faulted epochs).
    pub plan_generation: Option<u64>,
    /// Mesh generation of the world the epoch ran against.
    pub mesh_generation: u64,
}

/// Snapshot of a session's accounting.
#[derive(Debug, Clone, Default)]
pub struct SessionStats {
    /// Mesh generation currently served.
    pub mesh_generation: u64,
    /// Resident universes launched over the session's lifetime (one
    /// per world that ran at least one epoch).
    pub universes_launched: u64,
    /// Resident universes retired (shutdown or refinement). Equal to
    /// `universes_launched` after shutdown — the no-leak invariant the
    /// soak test pins.
    pub universes_retired: u64,
    /// Total epochs run.
    pub epochs_run: u64,
    /// Faulted epochs across the session (each also appears in its
    /// campaign's [`CampaignStats::faults`]).
    pub faults: u64,
    /// Epoch retries spent across the session.
    pub retries: u64,
    /// Universe relaunches forced by faults. Every relaunch also
    /// counts one `universes_retired` and (lazily, on the next epoch)
    /// one `universes_launched`, so the no-leak invariant
    /// `launched == retired after shutdown` is unchanged.
    pub relaunches: u64,
    /// Per-campaign accounting.
    pub campaigns: BTreeMap<u64, CampaignStats>,
    /// Ordered log of every epoch run.
    pub epoch_log: Vec<EpochRecord>,
}

/// Configuration of a [`SolverSession`].
pub struct SessionOptions {
    /// Solver knobs shared by every request ([`SolveRequest`] may
    /// override `max_iterations` / `tolerance` per solve).
    pub solver: SnConfig,
    /// Epoch scheduling policy across campaigns.
    pub admission: Box<dyn AdmissionPolicy>,
    /// Session-wide default [`RetryPolicy`]; a [`SolveRequest::retry`]
    /// overrides it per request. Default: no retries.
    pub retry: RetryPolicy,
    /// Quarantine a campaign after this many *consecutive* terminal
    /// faults (a completed request resets the count): its queued
    /// requests and all later submissions resolve
    /// [`SessionError::Rejected`]. `0` (the default) disables
    /// quarantine.
    pub quarantine_after: u32,
}

impl Default for SessionOptions {
    fn default() -> Self {
        SessionOptions {
            solver: SnConfig::default(),
            admission: Box::new(Fifo),
            retry: RetryPolicy::default(),
            quarantine_after: 0,
        }
    }
}

/// One-shot result slot a submitter blocks on.
#[derive(Default)]
struct TicketCell {
    slot: Mutex<Option<Result<SolveOutcome, SessionError>>>,
    cv: Condvar,
}

impl TicketCell {
    fn fulfill(&self, result: Result<SolveOutcome, SessionError>) {
        let mut slot = self.slot.lock();
        debug_assert!(slot.is_none(), "ticket fulfilled twice");
        *slot = Some(result);
        self.cv.notify_all();
    }
}

/// Future of one submitted request.
pub struct SolveTicket {
    cell: Arc<TicketCell>,
}

impl SolveTicket {
    /// Block until the request resolves.
    pub fn wait(self) -> Result<SolveOutcome, SessionError> {
        let mut slot = self.cell.slot.lock();
        while slot.is_none() {
            self.cell.cv.wait(&mut slot);
        }
        slot.take().expect("slot checked non-empty")
    }

    /// Non-blocking check; `None` while the request is still queued or
    /// running.
    pub fn poll(&self) -> Option<Result<SolveOutcome, SessionError>> {
        self.cell.slot.lock().clone()
    }

    /// Block at most `timeout` for the request to resolve; `None` on
    /// timeout. The ticket stays usable afterwards — a later
    /// [`SolveTicket::wait`], `wait_timeout` or
    /// [`SolveTicket::poll`] still observes the result.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<SolveOutcome, SessionError>> {
        let deadline = Instant::now() + timeout;
        let mut slot = self.cell.slot.lock();
        loop {
            if slot.is_some() {
                return slot.clone();
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            self.cell.cv.wait_for(&mut slot, deadline - now);
        }
    }
}

enum Cmd<T: SweepTopology + Send + Sync + 'static> {
    Submit {
        campaign: u64,
        seq: u64,
        request: SolveRequest,
        reply: Arc<TicketCell>,
        submitted: Instant,
    },
    Refine {
        mesh: Arc<T>,
        problem: Arc<SweepProblem>,
    },
    Shutdown,
}

/// Ingress queue shared by every handle and the driver. Closing and
/// draining happen under the same lock as submission, so a submit
/// either lands before the drain (and is resolved `Closed` by the
/// driver) or observes `closed` and resolves immediately — a ticket
/// can never be abandoned unresolved.
struct Ingress<T: SweepTopology + Send + Sync + 'static> {
    queue: VecDeque<Cmd<T>>,
    closed: bool,
    /// Epoch execution is gated. A flag beside the queue, not a
    /// command in it: it applies the moment the driver next looks —
    /// even while a refinement or shutdown is stalled waiting for the
    /// backlog.
    paused: bool,
}

struct Shared<T: SweepTopology + Send + Sync + 'static> {
    ingress: Mutex<Ingress<T>>,
    cv: Condvar,
}

impl<T: SweepTopology + Send + Sync + 'static> Shared<T> {
    fn push(&self, cmd: Cmd<T>) -> bool {
        let mut g = self.ingress.lock();
        if g.closed {
            return false;
        }
        g.queue.push_back(cmd);
        self.cv.notify_one();
        true
    }

    fn set_paused(&self, paused: bool) {
        self.ingress.lock().paused = paused;
        self.cv.notify_one();
    }
}

/// An admitted request being served.
struct ActiveSolve {
    seq: u64,
    admission_index: u64,
    submitted: Instant,
    queue_wait: Option<f64>,
    progress: SolveProgress,
    reply: Arc<TicketCell>,
    /// Resolved at admission: the request's override or the session
    /// default.
    retry: RetryPolicy,
    /// Faulted epochs already retried for this request.
    retries: u32,
}

/// A resident sweep service: one world, one plan cache, one driver
/// thread serving queued solves from any number of concurrent
/// campaigns. See the [module docs](self) for the lifecycle.
pub struct SolverSession<T: SweepTopology + Send + Sync + 'static> {
    shared: Arc<Shared<T>>,
    driver: Option<JoinHandle<()>>,
    stats: Arc<Mutex<SessionStats>>,
    cache: Arc<PlanCache>,
    next_campaign: AtomicU64,
}

impl<T: SweepTopology + Send + Sync + 'static> SolverSession<T> {
    /// Launch the session's driver thread over one problem shape. The
    /// resident universe itself launches lazily on the first epoch.
    pub fn launch(
        mesh: Arc<T>,
        problem: Arc<SweepProblem>,
        quadrature: QuadratureSet,
        options: SessionOptions,
    ) -> Self {
        let stats = Arc::new(Mutex::new(SessionStats {
            mesh_generation: problem.mesh_generation,
            ..Default::default()
        }));
        let cache = Arc::new(PlanCache::new());
        let shared = Arc::new(Shared {
            ingress: Mutex::new(Ingress {
                queue: VecDeque::new(),
                closed: false,
                paused: false,
            }),
            cv: Condvar::new(),
        });
        let world = EpochWorld::new(mesh, problem, quadrature, options.solver);
        let driver = Driver {
            shared: shared.clone(),
            world,
            cache: cache.clone(),
            policy: options.admission,
            stats: stats.clone(),
            campaigns: BTreeMap::new(),
            pending: VecDeque::new(),
            admission_counter: 0,
            default_retry: options.retry,
            quarantine_after: options.quarantine_after,
        };
        let handle = thread::Builder::new()
            .name("jsweep-session".into())
            .spawn(move || driver.run())
            .expect("spawn session driver");
        SolverSession {
            shared,
            driver: Some(handle),
            stats,
            cache,
            next_campaign: AtomicU64::new(0),
        }
    }

    /// Open a new campaign. Handles are cheap, clonable, and safe to
    /// move to other threads; clones share the campaign's sequence
    /// numbering.
    pub fn campaign(&self) -> CampaignHandle<T> {
        CampaignHandle {
            campaign: self.next_campaign.fetch_add(1, Ordering::Relaxed),
            shared: self.shared.clone(),
            seq: Arc::new(AtomicU64::new(0)),
            stats: self.stats.clone(),
        }
    }

    /// Swap the session's world for a refined (or otherwise rebuilt)
    /// mesh. In-flight admitted work drains on the old world first;
    /// the first request admitted after the swap compiles a fresh plan
    /// under the new generation stamp. A stale plan is structurally unreachable
    /// (the generation is part of the [`crate::replay::PlanKey`]).
    pub fn refine(&self, mesh: Arc<T>, problem: Arc<SweepProblem>) {
        assert_eq!(
            mesh.generation(),
            problem.mesh_generation,
            "mesh topology changed since SweepProblem::build; rebuild the problem"
        );
        self.shared.push(Cmd::Refine { mesh, problem });
    }

    /// Stop running epochs (submission stays open). Queued work keeps
    /// accumulating until [`SolverSession::resume`].
    pub fn pause(&self) {
        self.shared.set_paused(true);
    }

    /// Resume epoch execution after a [`SolverSession::pause`].
    pub fn resume(&self) {
        self.shared.set_paused(false);
    }

    /// Snapshot the session's accounting.
    pub fn stats(&self) -> SessionStats {
        self.stats.lock().clone()
    }

    /// Snapshot one campaign's accounting, if it ever submitted.
    pub fn campaign_stats(&self, campaign: u64) -> Option<CampaignStats> {
        self.stats.lock().campaigns.get(&campaign).cloned()
    }

    /// The session's shared plan cache (for hit/miss and footprint
    /// introspection; plans are inserted and served by the driver,
    /// which drops a superseded generation's at the refine barrier).
    pub fn plan_cache(&self) -> &PlanCache {
        &self.cache
    }

    /// Drain admitted work, resolve everything still queued with
    /// [`SessionError::Closed`], retire the resident universe and join
    /// the driver. Idempotent; also runs on drop. A paused session is
    /// resumed first — shutdown waits for admitted work.
    pub fn shutdown(&mut self) {
        if let Some(joined) = self.stop_driver() {
            joined.expect("session driver panicked");
        }
    }

    /// Resume, queue the shutdown and join the driver; `None` when it
    /// was stopped before.
    fn stop_driver(&mut self) -> Option<thread::Result<()>> {
        let handle = self.driver.take()?;
        self.resume();
        self.shared.push(Cmd::Shutdown);
        Some(handle.join())
    }
}

impl<T: SweepTopology + Send + Sync + 'static> Drop for SolverSession<T> {
    fn drop(&mut self) {
        // Propagating a panic out of drop would abort; the explicit
        // `shutdown` path surfaces driver panics instead.
        let _ = self.stop_driver();
    }
}

/// A campaign's submission endpoint. Obtained from
/// [`SolverSession::campaign`]; clonable across threads.
pub struct CampaignHandle<T: SweepTopology + Send + Sync + 'static> {
    campaign: u64,
    shared: Arc<Shared<T>>,
    seq: Arc<AtomicU64>,
    stats: Arc<Mutex<SessionStats>>,
}

impl<T: SweepTopology + Send + Sync + 'static> Clone for CampaignHandle<T> {
    fn clone(&self) -> Self {
        CampaignHandle {
            campaign: self.campaign,
            shared: self.shared.clone(),
            seq: self.seq.clone(),
            stats: self.stats.clone(),
        }
    }
}

impl<T: SweepTopology + Send + Sync + 'static> CampaignHandle<T> {
    /// This campaign's id (the key into
    /// [`SessionStats::campaigns`]).
    pub fn id(&self) -> u64 {
        self.campaign
    }

    /// Queue a solve. Returns immediately with the ticket to wait or
    /// poll on; requests of one campaign are served strictly in
    /// submission order.
    pub fn submit(&self, request: SolveRequest) -> SolveTicket {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let cell = Arc::new(TicketCell::default());
        book(&self.stats, self.campaign, |_, cs| cs.submitted += 1);
        let sent = self.shared.push(Cmd::Submit {
            campaign: self.campaign,
            seq,
            request,
            reply: cell.clone(),
            submitted: Instant::now(),
        });
        if !sent {
            cell.fulfill(Err(SessionError::Closed));
        }
        SolveTicket { cell }
    }

    /// Snapshot this campaign's accounting.
    pub fn stats(&self) -> CampaignStats {
        self.stats
            .lock()
            .campaigns
            .get(&self.campaign)
            .cloned()
            .unwrap_or_default()
    }
}

/// Everything the driver keeps about one campaign.
#[derive(Default)]
struct Campaign {
    /// Admitted solves; the head is the campaign's running request.
    queue: VecDeque<ActiveSolve>,
    /// Terminal faults since the campaign's last completed epoch.
    fault_streak: u32,
    /// Locked out by quarantine.
    quarantined: bool,
    /// Epoch *attempts* — faulted ones included, which is what makes
    /// "fail epoch E of campaign C" fault injection deterministic
    /// under retries.
    attempts: u64,
}

struct Driver<T: SweepTopology + Send + Sync + 'static> {
    shared: Arc<Shared<T>>,
    world: EpochWorld<T>,
    cache: Arc<PlanCache>,
    policy: Box<dyn AdmissionPolicy>,
    stats: Arc<Mutex<SessionStats>>,
    /// One record per campaign that ever had a request admitted.
    campaigns: BTreeMap<u64, Campaign>,
    /// Ingested commands not yet processed — `Refine`/`Shutdown` stall
    /// here until the admitted work drains.
    pending: VecDeque<Cmd<T>>,
    admission_counter: u64,
    /// Session-wide default retry policy (see [`SessionOptions`]).
    default_retry: RetryPolicy,
    /// Consecutive-fault quarantine threshold; 0 disables.
    quarantine_after: u32,
}

impl<T: SweepTopology + Send + Sync + 'static> Driver<T> {
    fn run(mut self) {
        loop {
            // Ingest everything available without blocking.
            let paused = {
                let mut g = self.shared.ingress.lock();
                self.pending.extend(g.queue.drain(..));
                g.paused
            };
            if self.process_pending() {
                self.finish();
                return;
            }
            if !paused && self.has_work() {
                self.run_one_epoch();
                continue;
            }
            // Idle (or paused): sleep until a handle has news.
            let mut g = self.shared.ingress.lock();
            while g.queue.is_empty() && g.paused == paused {
                self.shared.cv.wait(&mut g);
            }
        }
    }

    fn has_work(&self) -> bool {
        self.campaigns.values().any(|c| !c.queue.is_empty())
    }

    /// Work through pending commands in arrival order. Returns `true`
    /// when a shutdown is due now.
    fn process_pending(&mut self) -> bool {
        while let Some(cmd) = self.pending.pop_front() {
            // Refinement and shutdown are barriers: the admitted
            // backlog finishes on the old world first.
            if !matches!(cmd, Cmd::Submit { .. }) && self.has_work() {
                self.pending.push_front(cmd);
                return false;
            }
            match cmd {
                Cmd::Submit {
                    campaign,
                    seq,
                    request,
                    reply,
                    submitted,
                } => self.admit(campaign, seq, request, reply, submitted),
                Cmd::Refine { mesh, problem } => self.apply_refine(mesh, problem),
                Cmd::Shutdown => return true,
            }
        }
        false
    }

    fn admit(
        &mut self,
        campaign: u64,
        seq: u64,
        request: SolveRequest,
        reply: Arc<TicketCell>,
        submitted: Instant,
    ) {
        if self.campaigns.get(&campaign).is_some_and(|c| c.quarantined) {
            return self.reject(
                campaign,
                reply,
                format!(
                    "campaign quarantined after {} consecutive faults",
                    self.quarantine_after
                ),
            );
        }
        if request.materials.num_cells() != self.world.mesh.num_cells() {
            return self.reject(
                campaign,
                reply,
                format!(
                    "materials cover {} cells, mesh has {}",
                    request.materials.num_cells(),
                    self.world.mesh.num_cells()
                ),
            );
        }
        // Resident programs cannot change their group count; the
        // constraint extends to the not-yet-launched backlog (its
        // first epoch will fix the universe's shape).
        let current = self.world.resident_groups().or_else(|| {
            self.campaigns
                .values()
                .flat_map(|c| c.queue.iter())
                .next()
                .map(|s| s.progress.materials.num_groups())
        });
        if let Some(groups) = current {
            if groups != request.materials.num_groups() {
                return self.reject(
                    campaign,
                    reply,
                    format!(
                        "request has {} energy groups, resident programs have {groups}",
                        request.materials.num_groups()
                    ),
                );
            }
        }
        let max_iterations = request
            .max_iterations
            .unwrap_or(self.world.config.max_iterations);
        let tolerance = request.tolerance.unwrap_or(self.world.config.tolerance);
        let retry = request.retry.unwrap_or(self.default_retry);
        let mut progress =
            self.world
                .begin_solve(request.materials, max_iterations, tolerance, &self.cache);
        if self.world.config.coarsen {
            book(&self.stats, campaign, |_, cs| {
                if progress.plan_from_cache {
                    cs.plan_cache_hits += 1;
                } else {
                    cs.plan_cache_misses += 1;
                }
            });
        }
        if max_iterations == 0 {
            // Degenerate request: nothing to run — mirror the solo
            // solver, which returns the zero-flux starting state.
            let wait = submitted.elapsed().as_secs_f64();
            book(&self.stats, campaign, |_, cs| cs.completed += 1);
            reply.fulfill(Ok(SolveOutcome {
                campaign,
                seq,
                solution: progress.into_solution(),
                mesh_generation: self.world.problem.mesh_generation,
                queue_wait_seconds: wait,
                span_id: 0,
            }));
            return;
        }
        let admission_index = self.admission_counter;
        self.admission_counter += 1;
        // The request's trace span id: nonzero (0 means "untracked")
        // and deterministic under any admission policy, so a ticket's
        // epochs can be located in an exported trace by id alone.
        progress.span = admission_index + 1;
        self.campaigns
            .entry(campaign)
            .or_default()
            .queue
            .push_back(ActiveSolve {
                seq,
                admission_index,
                submitted,
                queue_wait: None,
                progress,
                reply,
                retry,
                retries: 0,
            });
    }

    fn reject(&mut self, campaign: u64, reply: Arc<TicketCell>, why: String) {
        book(&self.stats, campaign, |_, cs| cs.rejected += 1);
        reply.fulfill(Err(SessionError::Rejected(why)));
    }

    fn run_one_epoch(&mut self) {
        let candidates: Vec<EpochCandidate> = self
            .campaigns
            .iter()
            .filter_map(|(&campaign, c)| {
                let s = c.queue.front()?;
                Some(EpochCandidate {
                    campaign,
                    seq: s.seq,
                    admission_index: s.admission_index,
                    epochs_run: s.progress.iterations,
                })
            })
            .collect();
        let pick = self.policy.next_epoch(&candidates);
        assert!(
            pick < candidates.len(),
            "admission policy returned candidate {pick} of {}",
            candidates.len()
        );
        let campaign = candidates[pick].campaign;
        let launches_before = self.world.launches;
        let record = self
            .campaigns
            .get_mut(&campaign)
            .expect("picked campaign exists");
        let solve = record.queue.front_mut().expect("candidates have a head");
        if solve.queue_wait.is_none() {
            solve.queue_wait = Some(solve.submitted.elapsed().as_secs_f64());
        }
        let plan_generation = solve.progress.plan.as_ref().map(|p| p.mesh_generation);
        // Count the attempt before running it: "fail epoch E of
        // campaign C" injection keys on attempt numbers, faulted
        // attempts included, which keeps the injection deterministic
        // under retries.
        let attempt = record.attempts;
        record.attempts += 1;
        let injected = self
            .world
            .config
            .fault_plan
            .as_ref()
            .is_some_and(|p| p.take_epoch_fail(campaign, attempt));
        let done = if injected {
            Err(EpochFault {
                rank: 0,
                worker: 0,
                program: None,
                payload: format!("injected failure of campaign {campaign} epoch attempt {attempt}"),
                kind: FaultKind::Injected,
            })
        } else {
            advance_one_epoch(&mut self.world, &mut solve.progress)
        };
        // The world launches lazily inside the epoch, and a faulted
        // epoch may still have launched the universe it faulted in:
        // count the launch here, `Ok` and `Err` alike, or the no-leak
        // invariant (launched == retired) would drift on every fault.
        self.stats.lock().universes_launched += self.world.launches - launches_before;
        let done = match done {
            Ok(done) => done,
            Err(fault) => return self.handle_fault(campaign, fault),
        };
        // A completed epoch clears the campaign's consecutive-fault
        // streak: quarantine is for campaigns that *keep* failing.
        record.fault_streak = 0;
        let epoch_stats = solve.progress.stats.last().expect("epoch recorded stats");
        let logged = EpochRecord {
            campaign,
            seq: solve.seq,
            iteration: solve.progress.iterations,
            plan_generation,
            mesh_generation: self.world.problem.mesh_generation,
            faulted: false,
        };
        let done_wait = done.then(|| solve.queue_wait.unwrap_or(0.0));
        book(&self.stats, campaign, |s, cs| {
            s.epochs_run += 1;
            s.epoch_log.push(logged);
            cs.epochs_run += 1;
            cs.epoch_wall_seconds += epoch_stats.wall_seconds;
            cs.work_done += epoch_stats.work_done;
            cs.compute_calls += epoch_stats.compute_calls;
            cs.worker_drain_seconds += epoch_stats.worker_drain_seconds.iter().sum::<f64>();
            if let Some(wait) = done_wait {
                cs.completed += 1;
                cs.queue_wait_seconds += wait;
            }
        });
        if let Some(wait) = done_wait {
            let solve = record.queue.pop_front().expect("head just served");
            let span_id = solve.progress.span;
            solve.reply.fulfill(Ok(SolveOutcome {
                campaign,
                seq: solve.seq,
                solution: solve.progress.into_solution(),
                mesh_generation: self.world.problem.mesh_generation,
                queue_wait_seconds: wait,
                span_id,
            }));
        }
    }

    /// Contain a faulted epoch: account it, decide between retry and
    /// terminal failure for the offending request (only that one —
    /// the rest of the queue keeps being served), then relaunch the
    /// universe.
    ///
    /// Ordering matters: the ticket resolves *before*
    /// [`Driver::retire_world`], because retiring joins the faulted
    /// universe's threads — after a watchdog stall that join waits out
    /// the stuck compute, and the requester should not.
    fn handle_fault(&mut self, campaign: u64, fault: EpochFault) {
        let record = self
            .campaigns
            .get_mut(&campaign)
            .expect("faulted campaign exists");
        let solve = record
            .queue
            .front_mut()
            .expect("faulted campaign has a head");
        // The attempted iteration: the faulted epoch would have been
        // iteration `iterations + 1`, and `progress` was untouched.
        let iteration = solve.progress.iterations + 1;
        let retrying = solve.retries < solve.retry.max_retries;
        let backoff = solve.retry.backoff;
        let logged = EpochRecord {
            campaign,
            seq: solve.seq,
            iteration,
            plan_generation: None,
            mesh_generation: self.world.problem.mesh_generation,
            faulted: true,
        };
        book(&self.stats, campaign, |s, cs| {
            s.faults += 1;
            s.epoch_log.push(logged);
            cs.faults += 1;
            s.retries += u64::from(retrying);
            cs.retries += u64::from(retrying);
            cs.failed += u64::from(!retrying);
        });
        if retrying {
            // The solve stays at the head of its queue with its
            // progress untouched: the retried epoch reruns the same
            // source iteration, so a recovered solve's flux sequence
            // is bit-identical to an unfaulted one.
            solve.retries += 1;
        } else {
            let solve = record.queue.pop_front().expect("head just faulted");
            let retries = solve.retries;
            solve.reply.fulfill(Err(SessionError::Failed(FaultReport {
                campaign,
                seq: solve.seq,
                iteration,
                retries,
                fault,
            })));
            record.fault_streak += 1;
            if self.quarantine_after > 0 && record.fault_streak >= self.quarantine_after {
                self.quarantine(campaign);
            }
        }
        // Relaunch last: the offending ticket already resolved (or is
        // queued for retry), so blocking on the faulted universe's
        // threads here delays no requester. The next epoch launches a
        // fresh universe lazily on the same mesh generation — every
        // plan in the shared cache keys on the generation, not the
        // universe, so replay-mode requests keep hitting.
        if self.retire_world() {
            self.stats.lock().relaunches += 1;
        }
        if retrying && !backoff.is_zero() {
            thread::sleep(backoff);
        }
    }

    /// Lock a campaign out: flush its queued requests as rejected and
    /// refuse everything it submits from now on.
    fn quarantine(&mut self, campaign: u64) {
        let record = self
            .campaigns
            .get_mut(&campaign)
            .expect("quarantined campaign exists");
        record.quarantined = true;
        let flushed = std::mem::take(&mut record.queue);
        let why = format!(
            "campaign quarantined after {} consecutive faults",
            self.quarantine_after
        );
        book(&self.stats, campaign, |_, cs| {
            cs.quarantined = true;
            cs.rejected += flushed.len() as u64;
        });
        for solve in flushed {
            solve
                .reply
                .fulfill(Err(SessionError::Rejected(why.clone())));
        }
    }

    fn apply_refine(&mut self, mesh: Arc<T>, problem: Arc<SweepProblem>) {
        self.retire_world();
        let config = self.world.config.clone();
        let quadrature = self.world.quadrature.clone();
        self.world = EpochWorld::new(mesh, problem, quadrature, config);
        let generation = self.world.problem.mesh_generation;
        // The barrier has drained every solve of the old generation, so
        // its plans are unreachable from here on.
        self.cache.retain_generations(&[generation]);
        self.stats.lock().mesh_generation = generation;
    }

    /// Retire the world's universe, if it has one (returned).
    fn retire_world(&mut self) -> bool {
        let retired = self.world.retire();
        self.stats.lock().universes_retired += u64::from(retired);
        retired
    }

    /// Close the ingress and resolve everything unserved. Closing and
    /// draining under the ingress lock means no submit can slip
    /// between the drain and the close with a forever-pending ticket.
    fn finish(&mut self) {
        self.retire_world();
        let leftovers: Vec<Cmd<T>> = {
            let mut g = self.shared.ingress.lock();
            g.closed = true;
            g.queue.drain(..).collect()
        };
        for cmd in self.pending.drain(..).chain(leftovers) {
            if let Cmd::Submit { reply, .. } = cmd {
                reply.fulfill(Err(SessionError::Closed));
            }
        }
    }
}

/// Book one event in the session ledger: one lock, one campaign entry.
/// `event` gets the session totals and `campaign`'s line (the map
/// itself is set aside while it runs).
fn book(
    stats: &Mutex<SessionStats>,
    campaign: u64,
    event: impl FnOnce(&mut SessionStats, &mut CampaignStats),
) {
    let mut s = stats.lock();
    let mut campaigns = std::mem::take(&mut s.campaigns);
    event(&mut s, campaigns.entry(campaign).or_default());
    s.campaigns = campaigns;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xs::Material;
    use jsweep_graph::problem::ProblemOptions;
    use jsweep_mesh::{partition, StructuredMesh};

    fn candidate(campaign: u64, admission_index: u64) -> EpochCandidate {
        EpochCandidate {
            campaign,
            seq: 0,
            admission_index,
            epochs_run: 0,
        }
    }

    #[test]
    fn fifo_serves_earliest_admission() {
        let mut p = Fifo;
        let c = [candidate(3, 7), candidate(1, 2), candidate(2, 5)];
        assert_eq!(p.next_epoch(&c), 1);
        assert_eq!(p.next_epoch(&c), 1, "stateless: same pick again");
    }

    #[test]
    fn round_robin_cycles_campaigns() {
        let mut p = RoundRobin::default();
        let c = [candidate(1, 0), candidate(4, 1), candidate(9, 2)];
        let picks: Vec<u64> = (0..6).map(|_| c[p.next_epoch(&c)].campaign).collect();
        assert_eq!(picks, vec![1, 4, 9, 1, 4, 9]);
        // A vanished campaign (completed) is skipped naturally.
        let c2 = [candidate(1, 0), candidate(9, 2)];
        assert_eq!(c2[p.next_epoch(&c2)].campaign, 1, "wraps past missing 4");
    }

    fn session_world() -> (
        Arc<StructuredMesh>,
        Arc<SweepProblem>,
        QuadratureSet,
        Arc<MaterialSet>,
    ) {
        let m = Arc::new(StructuredMesh::unit(4, 4, 4));
        let quad = QuadratureSet::sn(2);
        let ps = partition::decompose_structured(&m, (2, 2, 2), 2);
        let prob = Arc::new(SweepProblem::build(
            m.as_ref(),
            ps,
            &quad,
            &ProblemOptions::default(),
        ));
        let mats = Arc::new(MaterialSet::homogeneous(
            64,
            Material::uniform(1, 1.0, 0.3, 1.0),
        ));
        (m, prob, quad, mats)
    }

    fn quick_options() -> SessionOptions {
        SessionOptions {
            solver: SnConfig {
                max_iterations: 4,
                grain: 16,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn session_round_trips_a_solve() {
        let (m, prob, quad, mats) = session_world();
        let cfg = quick_options();
        let solo = crate::solver::solve_parallel(
            m.clone(),
            prob.clone(),
            &quad,
            mats.clone(),
            &cfg.solver,
        );
        let mut session = SolverSession::launch(m, prob, quad, cfg);
        let campaign = session.campaign();
        let out = campaign
            .submit(SolveRequest {
                materials: mats,
                max_iterations: None,
                tolerance: None,
                retry: None,
            })
            .wait()
            .expect("solve served");
        assert_eq!(out.solution.phi, solo.phi, "session flux == solo flux");
        assert_eq!(out.solution.iterations, solo.iterations);
        session.shutdown();
        let stats = session.stats();
        assert_eq!(stats.universes_launched, 1);
        assert_eq!(stats.universes_retired, 1);
        assert_eq!(stats.campaigns[&campaign.id()].completed, 1);
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn session_assigns_span_ids() {
        use jsweep_core::telemetry::{obs, TelemetryHandle};
        let (m, prob, quad, mats) = session_world();
        let t = Arc::new(obs::Telemetry::new());
        t.arm();
        let mut cfg = quick_options();
        cfg.solver.telemetry = TelemetryHandle::attach(t.clone());
        let mut session = SolverSession::launch(m, prob, quad, cfg);
        let campaign = session.campaign();
        let first = campaign
            .submit(SolveRequest::new(mats.clone()))
            .wait()
            .expect("first solve served");
        let second = campaign
            .submit(SolveRequest::new(mats))
            .wait()
            .expect("second solve served");
        assert_eq!(first.span_id, 1, "first admission gets span 1");
        assert_eq!(second.span_id, 2, "spans are the admission order");
        // Every epoch event of a request carries its ticket's span id.
        let lanes = t.snapshot();
        let epoch_spans: Vec<u64> = lanes
            .iter()
            .flat_map(|l| l.events.iter())
            .filter(|e| e.kind == obs::EventKind::Epoch)
            .map(|e| e.b)
            .collect();
        assert!(epoch_spans.contains(&first.span_id), "{epoch_spans:?}");
        assert!(epoch_spans.contains(&second.span_id), "{epoch_spans:?}");
        // The first solve compiles the plan (miss), the second replays
        // it (hit).
        let cache = session.plan_cache();
        assert_eq!((cache.misses(), cache.hits()), (1, 1));
        session.shutdown();
    }

    #[test]
    fn mismatched_materials_are_rejected_not_panicked() {
        let (m, prob, quad, mats) = session_world();
        let mut session = SolverSession::launch(m, prob, quad, quick_options());
        let campaign = session.campaign();
        // Wrong cell count.
        let bad = Arc::new(MaterialSet::homogeneous(
            27,
            Material::uniform(1, 1.0, 0.3, 1.0),
        ));
        let err = campaign
            .submit(SolveRequest {
                materials: bad,
                max_iterations: None,
                tolerance: None,
                retry: None,
            })
            .wait()
            .expect_err("rejected");
        assert!(matches!(err, SessionError::Rejected(_)));
        // Wrong group count once the resident shape is fixed.
        let ok = campaign.submit(SolveRequest {
            materials: mats,
            max_iterations: None,
            tolerance: None,
            retry: None,
        });
        let two_group = Arc::new(MaterialSet::homogeneous(
            64,
            Material::uniform(2, 1.0, 0.3, 1.0),
        ));
        let bad_groups = campaign.submit(SolveRequest {
            materials: two_group,
            max_iterations: None,
            tolerance: None,
            retry: None,
        });
        assert!(ok.wait().is_ok());
        assert!(matches!(bad_groups.wait(), Err(SessionError::Rejected(_))));
        session.shutdown();
        assert_eq!(session.campaign_stats(campaign.id()).unwrap().rejected, 2);
    }

    #[test]
    fn submits_after_shutdown_resolve_closed() {
        let (m, prob, quad, mats) = session_world();
        let mut session = SolverSession::launch(m, prob, quad, quick_options());
        let campaign = session.campaign();
        session.shutdown();
        let err = campaign
            .submit(SolveRequest {
                materials: mats,
                max_iterations: None,
                tolerance: None,
                retry: None,
            })
            .wait()
            .expect_err("session is gone");
        assert_eq!(err, SessionError::Closed);
    }
}

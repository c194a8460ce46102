//! Sweep-as-a-service: a resident [`SolverSession`] serving queued
//! solves from many concurrent campaigns.
//!
//! [`solve_parallel_cached`](crate::solver::solve_parallel_cached)
//! launches a universe per solve. A [`SolverSession`] keeps exactly one
//! [`EpochWorld`](crate::solver) alive on a session thread — one
//! resident [`jsweep_core::Universe`], one shared [`PlanCache`] — for
//! workloads that solve one problem shape many times (time steps,
//! eigenvalue iterations, material sweeps). Campaigns (independent
//! clients, typically one per thread) obtain a [`CampaignHandle`] and
//! submit [`SolveRequest`]s asynchronously; each request is a sequence
//! of sweep epochs, and campaigns take epochs round-robin: one epoch to
//! the smallest campaign id after the last one served, wrapping. Every
//! completed request resolves its [`SolveTicket`] with a
//! [`SolveOutcome`] whose flux is **bit-identical** to a solo
//! `solve_parallel_cached` call of the same request: an epoch of a
//! session *is* the loop body of the solo solver (`advance_one_epoch`),
//! and a shape's replay plan is compiled at its first admission and
//! served from the cache to every later one, so interleaving changes
//! wall clock, never physics.
//!
//! # Lifecycle
//!
//! ```text
//!   launch() ─▶ campaign() ─▶ submit() ─▶ admitted ─▶ epochs (round-robin) ─▶ resolved
//!   shutdown(): close the ingress (later submits resolve Closed), serve
//!               everything submitted before it, retire the universe, join
//! ```
//!
//! The session thread only waits for submissions and hands them to a
//! `Driver`, which owns the world and one record per campaign (its
//! queue of admitted solves and its consecutive-fault streak). The
//! driver's `admit`, `run_one_epoch` and `finish` run on whichever
//! thread calls them, so tests drive it directly, with no thread and no
//! sleep. A faulted epoch needs no clean-up beyond retiring the
//! universe: the world's output sink is replaced with it (see
//! `EpochWorld::retire`). `docs/session.md` has the fault path and the
//! stats glossary.

use crate::replay::PlanCache;
use crate::solver::{advance_one_epoch, EpochWorld, SnConfig, SnSolution, SolveProgress};
use crate::xs::MaterialSet;
use jsweep_core::fault::{EpochFault, FaultKind};
use jsweep_graph::SweepProblem;
use jsweep_mesh::SweepTopology;
use jsweep_quadrature::QuadratureSet;
use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeMap, VecDeque};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Instant;

/// One queued solve: the physics that varies per request. The problem
/// shape (mesh, decomposition, quadrature, solver knobs) is session
/// state — requests that need a different shape need a different
/// session.
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
    /// Override of [`SessionOptions::max_retries`] for this request.
    pub max_retries: Option<u32>,
}

impl SolveRequest {
    /// A request with the session's default iteration budget,
    /// tolerance and retry budget.
    pub fn new(materials: Arc<MaterialSet>) -> Self {
        SolveRequest {
            materials,
            max_iterations: None,
            tolerance: None,
            max_retries: None,
        }
    }
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
    /// The request was submitted after the session shut down.
    Closed,
    /// The request was incompatible with the session's world (wrong
    /// mesh coverage, or a group count the resident programs cannot
    /// adopt), or its campaign is quarantined.
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
    /// Seconds between submission and the request's first epoch (its
    /// time at the back of the queue).
    pub queue_wait_seconds: f64,
    /// Telemetry span id stamped on every epoch this request ran (the
    /// `b` payload of its `Epoch` events in an exported Chrome trace —
    /// see `docs/observability.md`): the request's 1-based admission
    /// number, so it is nonzero and deterministic; `0` for a degenerate
    /// request that ran no epochs.
    pub span_id: u64,
}

/// The session's one admission rule, named. Campaigns always take
/// epochs round-robin — one epoch to the smallest campaign id after
/// the last one served, wrapping — which bounds every campaign's
/// latency whatever the others have queued; with one campaign it is
/// first-come-first-served. The type carries no choice: it only keeps
/// [`SessionOptions::admission`] spelt the way existing callers write
/// it.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobin;

/// Per-campaign accounting, aggregated over the campaign's lifetime.
/// Per-epoch [`jsweep_core::RunStats`] ride in each
/// [`SolveOutcome::solution`].
#[derive(Debug, Clone, Default)]
pub struct CampaignStats {
    /// Requests completed with a solution.
    pub completed: u64,
    /// Requests rejected at admission or flushed by quarantine.
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
}

/// One line of the session's epoch log: which solve ran, and whether
/// it replayed a plan. The exact-schedule test compares this log
/// against a reference schedule.
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
    /// The epoch replayed a compiled plan (`false` on fine and faulted
    /// epochs).
    pub replayed: bool,
}

/// Snapshot of a session's accounting.
#[derive(Debug, Clone, Default)]
pub struct SessionStats {
    /// Resident universes launched over the session's lifetime.
    pub universes_launched: u64,
    /// Resident universes retired (shutdown or fault). Equal to
    /// `universes_launched` after shutdown — the no-leak invariant the
    /// soak tests pin.
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
#[derive(Default)]
pub struct SessionOptions {
    /// Solver knobs shared by every request ([`SolveRequest`] may
    /// override `max_iterations` / `tolerance` per solve).
    pub solver: SnConfig,
    /// The admission rule; [`RoundRobin`] is the only one.
    pub admission: Box<RoundRobin>,
    /// Faulted epochs a request reruns before it fails (a faulted
    /// epoch never touches the solve's flux iterate, so a rerun that
    /// succeeds continues the bit-identical iteration sequence; each
    /// costs a universe relaunch). [`SolveRequest::max_retries`]
    /// overrides it per request. Default: 0.
    pub max_retries: u32,
    /// Quarantine a campaign after this many *consecutive* terminal
    /// faults (a completed request resets the count): its queued
    /// requests and all later submissions resolve
    /// [`SessionError::Rejected`]. `0` (the default) disables
    /// quarantine.
    pub quarantine_after: u32,
}

/// One-shot result slot a submitter blocks on.
#[derive(Default)]
struct TicketCell {
    slot: Mutex<Option<Result<SolveOutcome, SessionError>>>,
    cv: Condvar,
}

/// The one writer of a ticket's slot, consumed by `fulfill`. Dropped
/// unfulfilled (a closed ingress, an unwinding session thread), it
/// resolves [`SessionError::Closed`]: no waiter outlives the driver.
struct Reply(Option<Arc<TicketCell>>);

impl Reply {
    fn fulfill(mut self, result: Result<SolveOutcome, SessionError>) {
        self.put(result);
    }

    fn put(&mut self, result: Result<SolveOutcome, SessionError>) {
        if let Some(cell) = self.0.take() {
            *cell.slot.lock() = Some(result);
            cell.cv.notify_all();
        }
    }
}

impl Drop for Reply {
    fn drop(&mut self) {
        self.put(Err(SessionError::Closed));
    }
}

/// Future of one submitted request.
pub struct SolveTicket(Arc<TicketCell>);

impl SolveTicket {
    /// Block until the request resolves.
    pub fn wait(self) -> Result<SolveOutcome, SessionError> {
        let mut slot = self.0.slot.lock();
        while slot.is_none() {
            self.0.cv.wait(&mut slot);
        }
        slot.take().expect("slot checked non-empty")
    }
}

/// A request on its way from a [`CampaignHandle`] to the driver.
struct Submission {
    campaign: u64,
    seq: u64,
    request: SolveRequest,
    reply: Reply,
    submitted: Instant,
}

/// Submissions not yet admitted. Closing happens under the same lock
/// as submission, so a submit either lands before the close (and is
/// served) or observes `closed` and resolves at once — a ticket can
/// never be abandoned unresolved.
#[derive(Default)]
struct Ingress {
    queue: Vec<Submission>,
    closed: bool,
}

/// The ingress and the condvar the session thread sleeps on.
#[derive(Default)]
struct Shared {
    ingress: Mutex<Ingress>,
    cv: Condvar,
}

/// An admitted request being served.
struct ActiveSolve {
    seq: u64,
    submitted: Instant,
    queue_wait: Option<f64>,
    progress: SolveProgress,
    reply: Reply,
    /// Resolved at admission: the request's override or the session
    /// default.
    max_retries: u32,
    /// Faulted epochs already retried for this request.
    retries: u32,
}

/// A resident sweep service: one world, one plan cache, one session
/// thread serving queued solves from any number of concurrent
/// campaigns. See the [module docs](self) for the lifecycle.
pub struct SolverSession<T: SweepTopology + Send + Sync + 'static> {
    shared: Arc<Shared>,
    driver: Option<JoinHandle<()>>,
    stats: Arc<Mutex<SessionStats>>,
    cache: Arc<PlanCache>,
    next_campaign: AtomicU64,
    /// The mesh type the session thread's world is built on.
    mesh: PhantomData<fn() -> T>,
}

impl<T: SweepTopology + Send + Sync + 'static> SolverSession<T> {
    /// Launch the session thread over one problem shape. The resident
    /// universe itself launches lazily on the first epoch.
    pub fn launch(
        mesh: Arc<T>,
        problem: Arc<SweepProblem>,
        quadrature: QuadratureSet,
        options: SessionOptions,
    ) -> Self {
        let driver = Driver::new(mesh, problem, quadrature, options);
        let (stats, cache) = (driver.stats.clone(), driver.cache.clone());
        let shared = Arc::new(Shared::default());
        let serving = shared.clone();
        let handle = thread::Builder::new()
            .name("jsweep-session".into())
            .spawn(move || serve(&serving, driver))
            .expect("spawn session thread");
        SolverSession {
            shared,
            driver: Some(handle),
            stats,
            cache,
            next_campaign: AtomicU64::new(0),
            mesh: PhantomData,
        }
    }

    /// Open a new campaign. Handles are cheap, clonable, and safe to
    /// move to other threads; clones share the campaign's sequence
    /// numbering.
    pub fn campaign(&self) -> CampaignHandle {
        CampaignHandle {
            campaign: self.next_campaign.fetch_add(1, Ordering::Relaxed),
            shared: self.shared.clone(),
            seq: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Snapshot the session's accounting.
    pub fn stats(&self) -> SessionStats {
        self.stats.lock().clone()
    }

    /// The session's shared plan cache (for hit/miss and footprint
    /// introspection; plans are inserted and served by the driver).
    pub fn plan_cache(&self) -> &PlanCache {
        &self.cache
    }

    /// Close the ingress, serve everything submitted before the close,
    /// retire the resident universe and join the session thread.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        if let Some(joined) = self.stop_driver() {
            joined.expect("session driver panicked");
        }
    }

    /// Close the ingress and join the session thread; `None` when it
    /// was stopped before.
    fn stop_driver(&mut self) -> Option<thread::Result<()>> {
        let handle = self.driver.take()?;
        self.shared.ingress.lock().closed = true;
        self.shared.cv.notify_one();
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

/// Closes the ingress as the session thread leaves [`serve`], unwinding
/// included: queued replies resolve `Closed`, and so do later submits.
struct CloseOnExit<'a>(&'a Shared);

impl Drop for CloseOnExit<'_> {
    fn drop(&mut self) {
        let mut g = self.0.ingress.lock();
        g.closed = true;
        g.queue.clear();
    }
}

/// The session thread: wait for submissions or a close, admit what
/// arrived, run one epoch while there is work, and finish once the
/// ingress is closed and everything admitted has been served.
fn serve<T: SweepTopology + Send + Sync + 'static>(shared: &Shared, mut driver: Driver<T>) {
    let _close = CloseOnExit(shared);
    loop {
        let (arrived, closed) = {
            let mut g = shared.ingress.lock();
            while g.queue.is_empty() && !g.closed && !driver.has_work() {
                shared.cv.wait(&mut g);
            }
            (std::mem::take(&mut g.queue), g.closed)
        };
        arrived.into_iter().for_each(|s| driver.admit(s));
        if driver.has_work() {
            driver.run_one_epoch();
        } else if closed {
            return driver.finish();
        }
    }
}

/// A campaign's submission endpoint. Obtained from
/// [`SolverSession::campaign`]; clonable across threads.
#[derive(Clone)]
pub struct CampaignHandle {
    campaign: u64,
    shared: Arc<Shared>,
    seq: Arc<AtomicU64>,
}

impl CampaignHandle {
    /// This campaign's id (the key into
    /// [`SessionStats::campaigns`]).
    pub fn id(&self) -> u64 {
        self.campaign
    }

    /// Queue a solve. Returns immediately with the ticket to wait on;
    /// requests of one campaign are served strictly in submission
    /// order.
    pub fn submit(&self, request: SolveRequest) -> SolveTicket {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let cell = Arc::new(TicketCell::default());
        let reply = Reply(Some(cell.clone()));
        let mut g = self.shared.ingress.lock();
        // A closed ingress drops the reply, which resolves `Closed`.
        if !g.closed {
            g.queue.push(Submission {
                campaign: self.campaign,
                seq,
                request,
                reply,
                submitted: Instant::now(),
            });
            self.shared.cv.notify_one();
        }
        SolveTicket(cell)
    }
}

/// Everything the driver keeps about one campaign.
#[derive(Default)]
struct Campaign {
    /// Admitted solves; the head is the campaign's running request.
    queue: VecDeque<ActiveSolve>,
    /// Terminal faults since the campaign's last completed epoch.
    fault_streak: u32,
}

/// The session's state machine: the world, the plan cache, the books
/// and one record per campaign. Every step runs on the calling thread.
struct Driver<T: SweepTopology + Send + Sync + 'static> {
    world: EpochWorld<T>,
    cache: Arc<PlanCache>,
    stats: Arc<Mutex<SessionStats>>,
    /// One record per campaign that ever had a request admitted.
    campaigns: BTreeMap<u64, Campaign>,
    /// Campaign that ran the last epoch; round-robin resumes after it.
    last_served: Option<u64>,
    admissions: u64,
    /// Session default of [`SessionOptions::max_retries`].
    max_retries: u32,
    /// Consecutive-fault quarantine threshold; 0 disables.
    quarantine_after: u32,
}

impl<T: SweepTopology + Send + Sync + 'static> Driver<T> {
    fn new(
        mesh: Arc<T>,
        problem: Arc<SweepProblem>,
        quadrature: QuadratureSet,
        options: SessionOptions,
    ) -> Self {
        Driver {
            world: EpochWorld::new(mesh, problem, quadrature, options.solver),
            cache: Arc::new(PlanCache::new()),
            stats: Arc::default(),
            campaigns: BTreeMap::new(),
            last_served: None,
            admissions: 0,
            max_retries: options.max_retries,
            quarantine_after: options.quarantine_after,
        }
    }

    fn has_work(&self) -> bool {
        self.campaigns.values().any(|c| !c.queue.is_empty())
    }

    fn admit(&mut self, s: Submission) {
        let (campaign, request) = (s.campaign, s.request);
        if let Err(why) = self.admissible(campaign, &request.materials) {
            book(&self.stats, campaign, |_, cs| cs.rejected += 1);
            return s.reply.fulfill(Err(SessionError::Rejected(why)));
        }
        let max_iterations = request
            .max_iterations
            .unwrap_or(self.world.config.max_iterations);
        let tolerance = request.tolerance.unwrap_or(self.world.config.tolerance);
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
            book(&self.stats, campaign, |_, cs| cs.completed += 1);
            s.reply.fulfill(Ok(SolveOutcome {
                campaign,
                seq: s.seq,
                solution: progress.into_solution(),
                queue_wait_seconds: s.submitted.elapsed().as_secs_f64(),
                span_id: 0,
            }));
            return;
        }
        // The request's trace span id: nonzero (0 means "untracked")
        // and deterministic, so a ticket's epochs can be located in an
        // exported trace by id alone.
        self.admissions += 1;
        progress.span = self.admissions;
        self.campaigns
            .entry(campaign)
            .or_default()
            .queue
            .push_back(ActiveSolve {
                seq: s.seq,
                submitted: s.submitted,
                queue_wait: None,
                progress,
                reply: s.reply,
                max_retries: request.max_retries.unwrap_or(self.max_retries),
                retries: 0,
            });
    }

    /// Why `campaign` may not run `materials` on this world, if it may
    /// not.
    fn admissible(&self, campaign: u64, materials: &MaterialSet) -> Result<(), String> {
        if self
            .stats
            .lock()
            .campaigns
            .get(&campaign)
            .is_some_and(|c| c.quarantined)
        {
            return Err(self.quarantined_why());
        }
        let cells = self.world.mesh.num_cells();
        if materials.num_cells() != cells {
            return Err(format!(
                "materials cover {} cells, mesh has {cells}",
                materials.num_cells()
            ));
        }
        // Resident programs cannot change their group count; the
        // constraint extends to the not-yet-launched backlog (its
        // first epoch will fix the universe's shape).
        let resident = self.world.resident_groups().or_else(|| {
            self.campaigns
                .values()
                .flat_map(|c| c.queue.iter())
                .next()
                .map(|s| s.progress.materials.num_groups())
        });
        match resident {
            Some(groups) if groups != materials.num_groups() => Err(format!(
                "request has {} energy groups, resident programs have {groups}",
                materials.num_groups()
            )),
            _ => Ok(()),
        }
    }

    fn quarantined_why(&self) -> String {
        format!(
            "campaign quarantined after {} consecutive faults",
            self.quarantine_after
        )
    }

    /// The campaign whose head request runs the next epoch: the
    /// smallest id with admitted work after the last one served,
    /// wrapping to the smallest overall.
    fn next_campaign(&self) -> Option<u64> {
        let busy = || {
            self.campaigns
                .iter()
                .filter(|(_, c)| !c.queue.is_empty())
                .map(|(&id, _)| id)
        };
        busy()
            .find(|&id| Some(id) > self.last_served)
            .or_else(|| busy().next())
    }

    /// Run one epoch of the next campaign's head request (see
    /// [`Driver::next_campaign`]).
    fn run_one_epoch(&mut self) {
        let campaign = self.next_campaign().expect("an epoch needs admitted work");
        self.last_served = Some(campaign);
        let launches_before = self.world.launches;
        let record = self
            .campaigns
            .get_mut(&campaign)
            .expect("picked campaign exists");
        let solve = record.queue.front_mut().expect("picked campaign has work");
        if solve.queue_wait.is_none() {
            solve.queue_wait = Some(solve.submitted.elapsed().as_secs_f64());
        }
        let replayed = solve.progress.plan.is_some();
        // "Fail epoch E of campaign C" injection keys on attempt
        // numbers, faulted attempts included (every attempt books an
        // epoch or a fault), which keeps it deterministic under
        // retries.
        let attempt = self
            .stats
            .lock()
            .campaigns
            .get(&campaign)
            .map_or(0, |cs| cs.epochs_run + cs.faults);
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
        let logged = EpochRecord {
            campaign,
            seq: solve.seq,
            iteration: solve.progress.iterations,
            faulted: false,
            replayed,
        };
        book(&self.stats, campaign, |s, cs| {
            s.epochs_run += 1;
            s.epoch_log.push(logged);
            cs.epochs_run += 1;
            cs.completed += u64::from(done);
        });
        if done {
            let solve = record.queue.pop_front().expect("head just served");
            let span_id = solve.progress.span;
            solve.reply.fulfill(Ok(SolveOutcome {
                campaign,
                seq: solve.seq,
                solution: solve.progress.into_solution(),
                queue_wait_seconds: solve.queue_wait.unwrap_or(0.0),
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
        let retrying = solve.retries < solve.max_retries;
        let logged = EpochRecord {
            campaign,
            seq: solve.seq,
            iteration,
            faulted: true,
            replayed: false,
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
        // Relaunch last, so joining the faulted universe's threads
        // delays no requester. The next epoch launches a fresh one on
        // the same mesh generation, which every cached plan keys on.
        if self.retire_world() {
            self.stats.lock().relaunches += 1;
        }
    }

    /// Lock a campaign out: flush its queued requests as rejected and
    /// refuse everything it submits from now on.
    fn quarantine(&mut self, campaign: u64) {
        let record = self
            .campaigns
            .get_mut(&campaign)
            .expect("quarantined campaign exists");
        let flushed = std::mem::take(&mut record.queue);
        let why = self.quarantined_why();
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

    /// Retire the world's universe, if it has one (returned).
    fn retire_world(&mut self) -> bool {
        let retired = self.world.retire();
        self.stats.lock().universes_retired += u64::from(retired);
        retired
    }

    /// Retire the universe once everything admitted has been served.
    fn finish(&mut self) {
        assert!(!self.has_work(), "finish with admitted work unserved");
        self.retire_world();
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

    /// Admit a request straight into `driver`, as the session thread
    /// would; the ticket resolves once the driver serves it.
    fn admit(
        driver: &mut Driver<StructuredMesh>,
        campaign: u64,
        seq: u64,
        mats: &Arc<MaterialSet>,
    ) -> SolveTicket {
        let cell = Arc::new(TicketCell::default());
        driver.admit(Submission {
            campaign,
            seq,
            request: SolveRequest::new(mats.clone()),
            reply: Reply(Some(cell.clone())),
            submitted: Instant::now(),
        });
        SolveTicket(cell)
    }

    /// What a panic on the session thread leaves behind: two requests
    /// admitted into the driver, a third still in the ingress. The
    /// unwinding drops the driver and runs `serve`'s guard; every
    /// ticket must then hold `Closed`, and a later submit must resolve
    /// at once. The slots are read directly, so a reply left empty
    /// fails here instead of hanging a `wait()`.
    #[test]
    fn an_unwinding_driver_resolves_every_ticket_closed() {
        let (m, prob, quad, mats) = session_world();
        let mut driver = Driver::new(m, prob, quad, quick_options());
        let shared = Arc::new(Shared::default());
        let campaign = CampaignHandle {
            campaign: 7,
            shared: shared.clone(),
            seq: Arc::default(),
        };
        let mut tickets = vec![
            admit(&mut driver, 0, 0, &mats),
            admit(&mut driver, 1, 0, &mats),
        ];
        tickets.push(campaign.submit(SolveRequest::new(mats.clone())));
        assert!(driver.has_work());
        assert_eq!(shared.ingress.lock().queue.len(), 1);
        drop(CloseOnExit(&shared));
        drop(driver);
        tickets.push(campaign.submit(SolveRequest::new(mats)));
        for (i, t) in tickets.iter().enumerate() {
            assert!(
                matches!(*t.0.slot.lock(), Some(Err(SessionError::Closed))),
                "ticket {i} was left unresolved"
            );
        }
    }

    /// Five requests over three campaigns, all admitted before any
    /// epoch runs, in the seeded order A0, B0, A1, C0, C1. Zero
    /// scattering makes every solve finish in exactly two epochs
    /// (iteration 2 reproduces iteration 1's flux bit-for-bit, the
    /// residual is 0), so the schedule is a pure function of the
    /// admission rule.
    #[test]
    fn round_robin_schedule_is_deterministic() {
        let (m, prob, quad, _) = session_world();
        let mats = Arc::new(MaterialSet::homogeneous(
            64,
            Material::uniform(1, 1.0, 0.0, 1.0),
        ));
        let options = SessionOptions {
            solver: SnConfig {
                grain: 16,
                max_iterations: 8,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut driver = Driver::new(m, prob, quad, options);
        let tickets: Vec<SolveTicket> = [(0, 0), (1, 0), (0, 1), (2, 0), (2, 1)]
            .into_iter()
            .map(|(campaign, seq)| admit(&mut driver, campaign, seq, &mats))
            .collect();
        while driver.has_work() {
            driver.run_one_epoch();
        }
        driver.finish();
        for t in tickets {
            let out = t.wait().expect("seeded solve served");
            assert_eq!(out.solution.iterations, 2, "zero scattering: two epochs");
        }
        let stats = driver.stats.lock().clone();
        let schedule: Vec<_> = stats
            .epoch_log
            .iter()
            .map(|e| (e.campaign, e.seq, e.iteration, e.replayed))
            .collect();
        // One epoch to the next campaign id each turn, wrapping; a
        // drained campaign drops out of the rotation. The first
        // admission compiled the plan, so every epoch replays.
        let expected = vec![
            (0, 0, 1, true),
            (1, 0, 1, true),
            (2, 0, 1, true),
            (0, 0, 2, true),
            (1, 0, 2, true),
            (2, 0, 2, true),
            (0, 1, 1, true),
            (2, 1, 1, true),
            (0, 1, 2, true),
            (2, 1, 2, true),
        ];
        assert_eq!(schedule, expected);
        assert_eq!((driver.cache.misses(), driver.cache.hits()), (1, 4));
        assert_eq!((stats.universes_launched, stats.universes_retired), (1, 1));
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
            .submit(SolveRequest::new(mats))
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
            .submit(SolveRequest::new(bad))
            .wait()
            .expect_err("rejected");
        assert!(matches!(err, SessionError::Rejected(_)));
        // Wrong group count once the resident shape is fixed.
        let ok = campaign.submit(SolveRequest::new(mats));
        let two_group = Arc::new(MaterialSet::homogeneous(
            64,
            Material::uniform(2, 1.0, 0.3, 1.0),
        ));
        let bad_groups = campaign.submit(SolveRequest::new(two_group));
        assert!(ok.wait().is_ok());
        assert!(matches!(bad_groups.wait(), Err(SessionError::Rejected(_))));
        session.shutdown();
        assert_eq!(session.stats().campaigns[&campaign.id()].rejected, 2);
    }

    #[test]
    fn submits_after_shutdown_resolve_closed() {
        let (m, prob, quad, mats) = session_world();
        let mut session = SolverSession::launch(m, prob, quad, quick_options());
        let campaign = session.campaign();
        session.shutdown();
        let err = campaign
            .submit(SolveRequest::new(mats))
            .wait()
            .expect_err("session is gone");
        assert_eq!(err, SessionError::Closed);
    }
}

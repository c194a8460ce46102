//! One run of one workload: set-up, correctness gate, measured passes,
//! probes, metrics.
//!
//! An untraced run (`trace = false`) reports the end-to-end metrics
//! with span recording off. A traced run reports the per-layer
//! metrics: it repeats the measured pass at reduced length once with
//! recording off and once with it on (their difference is the tracing
//! overhead), runs the other entry point and the layer probes, and
//! writes the spans as a Chrome trace.

use crate::catalog::{MetricDef, END_TO_END, PER_LAYER};
use crate::inputs::{BenchMesh, Case, StageSeconds};
use crate::numeric::{lower_quartile, median, percentile};
use crate::passes::{gate, launch_session, session_pass, solo_reference, solver_pass, Ops};
use crate::probes;
use crate::spans::Recorder;
use crate::spec::{MeshKind, Mode, Spec};
use jsweep_core::stats::Category;
use jsweep_core::TransportKind;
use jsweep_mesh::{StructuredMesh, TetMesh};
use jsweep_transport::{MaterialSet, SolveRequest};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Share of a run's `seconds` spent repeating the set-up, half of it
/// before the measured phase and half after; `setup_s` and the stage
/// metrics are lower quartiles over the repetitions. A set-up takes
/// milliseconds and the speed of a shared box comes in modes that last
/// seconds, so a handful of repetitions at one moment is not enough.
const SETUP_SHARE: f64 = 0.10;
/// Fewest set-ups per burst, however short the run.
const MIN_SETUPS: usize = 2;

/// Arguments of one run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Draws the materials.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end).
    pub trace: bool,
    /// Where the trace file goes.
    pub out_dir: PathBuf,
    /// The `e2e` executable to re-execute for the memory pass (see
    /// [`memory_pass`]); `None` reads this process's own peak instead
    /// (in-process smoke runs, whose numbers are not a baseline).
    pub memory_exe: Option<PathBuf>,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct MetricValue {
    /// Its catalogue entry.
    pub def: &'static MetricDef,
    /// The value as measured.
    pub value: f64,
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// Workload name.
    pub workload: &'static str,
    /// Traced or untraced.
    pub trace: bool,
    /// No operation failed and every metric was measured.
    pub correct: bool,
    /// Operations attempted (solves, requests, correctness checks).
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<MetricValue>,
    /// Sample counts behind the medians, and other context.
    pub notes: Vec<(&'static str, f64)>,
    /// Self time per layer from the span record (traced runs).
    pub layer_self_ms: BTreeMap<&'static str, f64>,
    /// The Chrome trace written (traced runs).
    pub trace_file: Option<PathBuf>,
}

/// Run `spec` once.
pub fn run(spec: &Spec, args: &RunArgs) -> RunOutput {
    match spec.mesh {
        MeshKind::Hex { .. } => run_on::<StructuredMesh>(spec, args),
        MeshKind::Tet { .. } => run_on::<TetMesh>(spec, args),
    }
}

/// Collects a run's metrics against the catalogue list it must fill.
struct Sink {
    defs: &'static [MetricDef],
    values: Vec<Option<f64>>,
}

impl Sink {
    fn new(defs: &'static [MetricDef]) -> Sink {
        Sink {
            defs,
            values: vec![None; defs.len()],
        }
    }

    fn set(&mut self, name: &str, value: f64) {
        let i = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in this run's catalogue list"));
        self.values[i] = Some(value);
    }

    /// Every metric of the list, measured and finite — anything else is
    /// a failed operation.
    fn finish(self, ops: &mut Ops) -> Vec<MetricValue> {
        self.defs
            .iter()
            .zip(self.values)
            .map(|(def, v)| {
                let value = v.unwrap_or(f64::NAN);
                ops.check(value.is_finite(), || {
                    format!("metric {} was not measured", def.name)
                });
                MetricValue { def, value }
            })
            .collect()
    }
}

/// Peak resident set of this process, MB (`VmHWM`).
fn own_peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The memory pass: set-up plus two operations of `spec` (three
/// requests per client for a session) and nothing else, so the
/// process's peak resident set is the workload's, not the harness's.
/// Returns whether every operation passed and the peak, MB.
///
/// An untraced run executes this in a child process with
/// `MALLOC_ARENA_MAX=1`. Every solve spawns fresh runtime threads, and
/// with glibc's default of one malloc arena per thread the peak depends
/// on which arena each short-lived thread lands in: the same binary on
/// the same inputs read 52 to 68 MB. With one arena it repeats within
/// 0.5%, so the number follows what the program asks for. Timings are
/// never taken under that setting.
pub fn memory_pass(spec: &Spec, seed: u64) -> (bool, f64) {
    fn on<T: BenchMesh>(spec: &Spec, seed: u64) -> bool {
        let mut rec = Recorder::new(false);
        let mut ops = Ops::default();
        let case = Case::<T>::build(spec, &mut rec);
        match spec.mode {
            Mode::Solver => {
                let materials = case.materials(seed, 0);
                solver_pass(
                    &case,
                    &materials,
                    Duration::ZERO,
                    2,
                    &mut None,
                    &mut rec,
                    &mut ops,
                );
            }
            Mode::Session { clients } => {
                let materials: Vec<_> = (0..clients as u64)
                    .map(|c| case.materials(seed, c))
                    .collect();
                let (phis, _, _) = references(&case, &materials, 0, &mut rec, &mut ops);
                session_pass(
                    &case,
                    &materials,
                    &phis,
                    Duration::ZERO,
                    3,
                    &mut rec,
                    &mut ops,
                );
            }
        }
        ops.failed == 0
    }
    let ok = match spec.mesh {
        MeshKind::Hex { .. } => on::<StructuredMesh>(spec, seed),
        MeshKind::Tet { .. } => on::<TetMesh>(spec, seed),
    };
    (ok, own_peak_rss_mb())
}

/// `peak_rss_mb` of an untraced run: the memory pass in a child process
/// (see [`memory_pass`]), or this process's own peak without an
/// executable to re-execute.
fn peak_rss_mb(spec: &Spec, args: &RunArgs, ops: &mut Ops) -> f64 {
    let Some(exe) = &args.memory_exe else {
        return own_peak_rss_mb();
    };
    let child = std::process::Command::new(exe)
        .env("MALLOC_ARENA_MAX", "1")
        .args(["--memory-pass", "--workload", spec.name])
        .args(["--seed", &args.seed.to_string()])
        .stdin(std::process::Stdio::null())
        .stderr(std::process::Stdio::inherit())
        .output();
    let mb = child
        .as_ref()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .trim()
                .parse::<f64>()
                .ok()
        });
    ops.check(mb.is_some(), || format!("memory pass failed: {child:?}"));
    mb.unwrap_or(f64::NAN)
}

/// The session workload's share of set-up: launch a session and serve
/// its first, cold request (universe launch, recording iteration, plan
/// compile) — what every later request finds in place.
fn cold_session_seconds<T: BenchMesh>(
    case: &Case<T>,
    materials: &Arc<MaterialSet>,
    rec: &mut Recorder,
    ops: &mut Ops,
) -> f64 {
    let (mut session, seconds) = rec.scope("session.cold_start", "session", |_| {
        let t0 = Instant::now();
        let session = launch_session(case);
        let served = session
            .campaign()
            .submit(SolveRequest::new(materials.clone()))
            .wait();
        let seconds = t0.elapsed().as_secs_f64();
        ops.check(served.is_ok(), || "cold session request failed".to_string());
        (session, seconds)
    });
    session.shutdown();
    seconds
}

fn run_on<T: BenchMesh>(spec: &Spec, args: &RunArgs) -> RunOutput {
    let mut rec = Recorder::new(args.trace);
    let mut ops = Ops::default();
    let mut notes: Vec<(&'static str, f64)> = Vec::new();
    let seconds = Duration::from_secs_f64(args.seconds);
    let clients = match spec.mode {
        Mode::Solver => 1,
        Mode::Session { clients } => clients,
    };

    // Set-up, repeated; the first burst's last build is measured on.
    let mut setups = Vec::new();
    let mut stages: Vec<StageSeconds> = Vec::new();
    let mut setup_burst = |rec: &mut Recorder, ops: &mut Ops| {
        let burst = Instant::now();
        let mut built = None;
        let mut n = 0;
        while n < MIN_SETUPS || burst.elapsed() < seconds.mul_f64(SETUP_SHARE / 2.0) {
            rec.scope("setup", "bench", |rec| {
                let case = Case::<T>::build(spec, rec);
                let mut total = case.stages.total();
                if spec.mode != Mode::Solver {
                    total += cold_session_seconds(&case, &case.materials(args.seed, 0), rec, ops);
                }
                setups.push(total);
                stages.push(case.stages);
                built = Some(case);
            });
            n += 1;
        }
        built.expect("MIN_SETUPS > 0")
    };
    let case = setup_burst(&mut rec, &mut ops);
    let materials: Vec<Arc<MaterialSet>> = (0..clients as u64)
        .map(|c| case.materials(args.seed, c))
        .collect();

    gate(&case, &materials[0], &mut rec, &mut ops);

    let mut sink = Sink::new(if args.trace { PER_LAYER } else { END_TO_END });
    if args.trace {
        // The stage metrics make do with the first burst.
        traced(
            &case, &materials, seconds, &stages, &mut rec, &mut ops, &mut sink, &mut notes,
        );
    } else {
        untraced(
            &case, &materials, seconds, &mut rec, &mut ops, &mut sink, &mut notes,
        );
        setup_burst(&mut rec, &mut ops);
        sink.set("setup_s", lower_quartile(&setups));
        sink.set("peak_rss_mb", peak_rss_mb(spec, args, &mut ops));
    }
    notes.push(("setups", setups.len() as f64));
    let metrics = sink.finish(&mut ops);

    let mut trace_file = None;
    if args.trace {
        let path = args.out_dir.join(format!("e2e_trace_{}.json", spec.name));
        let written = std::fs::create_dir_all(&args.out_dir)
            .and_then(|()| std::fs::write(&path, rec.chrome_trace(spec.name).to_string()));
        ops.check(written.is_ok(), || {
            format!("could not write {}: {written:?}", path.display())
        });
        trace_file = Some(path);
    }
    RunOutput {
        workload: spec.name,
        trace: args.trace,
        correct: ops.failed == 0,
        attempted: ops.attempted,
        failed: ops.failed,
        metrics,
        notes,
        layer_self_ms: rec.layer_self_ms(),
        trace_file,
    }
}

/// Solo references of every campaign's materials (the flux each
/// session outcome must reproduce bit for bit); campaign 0's comes
/// with `warm` timed warm-cache solves.
fn references<T: BenchMesh>(
    case: &Case<T>,
    materials: &[Arc<MaterialSet>],
    warm: usize,
    rec: &mut Recorder,
    ops: &mut Ops,
) -> (Vec<Vec<f64>>, f64, usize) {
    let first = solo_reference(case, &materials[0], warm, rec, ops);
    let mut phis = vec![first.phi];
    for m in &materials[1..] {
        phis.push(solo_reference(case, m, 0, rec, ops).phi);
    }
    (phis, first.warm_solve_s, first.plan_bytes)
}

/// What the end-to-end metrics are taken from, for either entry point.
struct EndToEnd {
    /// Wall seconds of each measured operation.
    op_s: Vec<f64>,
    /// Wall seconds of each steady iteration.
    iter_s: Vec<f64>,
    /// Operations in flight at once (closed-loop clients).
    concurrent: usize,
}

#[allow(clippy::too_many_arguments)]
fn untraced<T: BenchMesh>(
    case: &Case<T>,
    materials: &[Arc<MaterialSet>],
    seconds: Duration,
    rec: &mut Recorder,
    ops: &mut Ops,
    sink: &mut Sink,
    notes: &mut Vec<(&'static str, f64)>,
) {
    let e2e = match case.spec.mode {
        Mode::Solver => {
            let mut reference = None;
            // One discarded warm-up solve, then the measured phase.
            solver_pass(
                case,
                &materials[0],
                Duration::ZERO,
                1,
                &mut reference,
                rec,
                ops,
            );
            let s = solver_pass(case, &materials[0], seconds, 2, &mut reference, rec, ops);
            EndToEnd {
                op_s: s.solve_s,
                iter_s: s.iter_s,
                concurrent: 1,
            }
        }
        Mode::Session { .. } => {
            let (phis, _, _) = references(case, materials, 0, rec, ops);
            let s = session_pass(case, materials, &phis, seconds, 3, rec, ops);
            EndToEnd {
                op_s: s.latency_s,
                iter_s: s.iter_s,
                concurrent: materials.len(),
            }
        }
    };
    notes.push(("operations", e2e.op_s.len() as f64));
    notes.push(("iteration_samples", e2e.iter_s.len() as f64));
    let cores = (case.spec.ranks * case.spec.workers) as f64;
    let op_s = lower_quartile(&e2e.op_s);
    // The rate of that operation, not phase work over phase wall: one
    // stalled solve in ten moves a mean and leaves this alone.
    let updates_per_op = case.spec.iterations as f64 * case.updates_per_iteration();
    sink.set("solve_ms", op_s * 1e3);
    sink.set("iter_ms", lower_quartile(&e2e.iter_s) * 1e3);
    sink.set(
        "updates_per_s_per_core",
        e2e.concurrent as f64 * updates_per_op / op_s / cores,
    );
}

#[allow(clippy::too_many_arguments)]
fn traced<T: BenchMesh>(
    case: &Case<T>,
    materials: &[Arc<MaterialSet>],
    seconds: Duration,
    stages: &[StageSeconds],
    rec: &mut Recorder,
    ops: &mut Ops,
    sink: &mut Sink,
    notes: &mut Vec<(&'static str, f64)>,
) {
    let spec = &case.spec;
    let stage_ms = |f: fn(&StageSeconds) -> f64| {
        lower_quartile(&stages.iter().map(f).collect::<Vec<_>>()) * 1e3
    };
    sink.set("mesh.build_ms", stage_ms(|s| s.mesh_build));
    sink.set("mesh.partition_ms", stage_ms(|s| s.partition));
    sink.set("mesh.rank_edge_cut", case.partition.rank_edge_cut as f64);
    sink.set("mesh.rank_imbalance", case.partition.rank_imbalance);
    sink.set("graph.problem_build_ms", stage_ms(|s| s.problem_build));

    // The measured pass at reduced length, recording off then on.
    let half = seconds.mul_f64(0.3);
    let (phis, solo_s, plan_bytes) = references(case, materials, 2, rec, ops);
    let idle_materials = &materials[..1];
    let (plain_iter_s, solver, session) = match spec.mode {
        Mode::Solver => {
            let mut reference = Some(phis[0].clone());
            rec.set_enabled(false);
            let plain = solver_pass(case, &materials[0], half, 2, &mut reference, rec, ops);
            rec.set_enabled(true);
            let on = solver_pass(case, &materials[0], half, 2, &mut reference, rec, ops);
            // The other entry point: one client on an idle session.
            let idle = session_pass(
                case,
                idle_materials,
                &phis,
                seconds.mul_f64(0.05),
                2,
                rec,
                ops,
            );
            (plain.iter_s, on, idle)
        }
        Mode::Session { .. } => {
            rec.set_enabled(false);
            let plain = session_pass(case, materials, &phis, half, 3, rec, ops);
            rec.set_enabled(true);
            let on = session_pass(case, materials, &phis, half, 3, rec, ops);
            // The other entry point: whole solves of one request.
            let mut reference = Some(phis[0].clone());
            let solves = solver_pass(
                case,
                &materials[0],
                seconds.mul_f64(0.05),
                2,
                &mut reference,
                rec,
                ops,
            );
            (plain.iter_s, solves, on)
        }
    };
    // Iterations and their summed stats of the recorded main pass.
    let (traced_iter_s, steady) = match spec.mode {
        Mode::Solver => (&solver.iter_s, &solver.steady),
        Mode::Session { .. } => (&session.iter_s, &session.steady),
    };
    let iter_s = lower_quartile(traced_iter_s);
    notes.push(("iteration_samples", traced_iter_s.len() as f64));
    sink.set(
        "bench.trace_overhead_pct",
        (iter_s / lower_quartile(&plain_iter_s) - 1.0) * 100.0,
    );
    sink.set("bench.iter_p90_ms", percentile(&plain_iter_s, 0.9) * 1e3);

    // Counts and Breakdown of the steady iterations of the traced pass.
    sink.set(
        "comm.streams_sent_per_iter",
        steady.per_iter(steady.streams_sent as f64),
    );
    sink.set(
        "comm.frames_sent_per_iter",
        steady.per_iter(steady.frames_sent as f64),
    );
    sink.set(
        "comm.bytes_sent_per_iter",
        steady.per_iter(steady.bytes_sent as f64),
    );
    sink.set(
        "comm.streams_per_frame",
        steady.streams_sent as f64 / steady.frames_sent.max(1) as f64,
    );
    for (name, cat) in [
        ("core.master_route_ms", Category::Route),
        ("core.master_pack_ms", Category::Pack),
        ("core.master_unpack_ms", Category::Unpack),
        ("core.master_comm_ms", Category::Comm),
        ("core.master_idle_ms", Category::Idle),
    ] {
        sink.set(name, steady.master_ms(cat));
    }
    for (name, cat) in [
        ("core.worker_kernel_ms", Category::Kernel),
        ("core.worker_graphop_ms", Category::GraphOp),
        ("core.worker_input_ms", Category::Input),
        ("core.worker_output_ms", Category::Output),
        ("core.worker_idle_ms", Category::Idle),
        ("core.worker_other_ms", Category::Other),
    ] {
        sink.set(name, steady.worker_ms(cat));
    }
    sink.set(
        "core.worker_drain_ms",
        steady.per_iter(steady.drain_seconds) * 1e3,
    );
    sink.set(
        "core.compute_calls_per_iter",
        steady.per_iter(steady.compute_calls as f64),
    );
    sink.set(
        "core.streams_local_per_iter",
        steady.per_iter(steady.streams_local as f64),
    );
    sink.set(
        "core.vertices_per_compute_call",
        steady.work_done as f64 / steady.compute_calls.max(1) as f64,
    );

    // Whole-solve anatomy, from the solver entry point.
    sink.set(
        "transport.first_iter_ms",
        median(&solver.first_iter_s) * 1e3,
    );
    sink.set(
        "transport.plan_build_ms",
        median(&solver.plan_build_s) * 1e3,
    );
    sink.set("transport.plan_bytes", plan_bytes as f64);
    sink.set(
        "transport.launch_shutdown_ms",
        median(&solver.launch_shutdown_s) * 1e3,
    );

    // The session tier. On a solver workload the one-client pass is
    // also the idle pass; the session workload runs it separately.
    let idle = match spec.mode {
        Mode::Solver => None,
        Mode::Session { .. } => Some(session_pass(
            case,
            idle_materials,
            &phis,
            seconds.mul_f64(0.05),
            3,
            rec,
            ops,
        )),
    };
    let idle_s = median(&idle.as_ref().unwrap_or(&session).latency_s);
    sink.set("session.launch_ms", session.launch_s * 1e3);
    sink.set(
        "session.queue_wait_p50_ms",
        median(&session.queue_wait_s) * 1e3,
    );
    sink.set(
        "session.latency_p99_ms",
        percentile(&session.latency_s, 0.99) * 1e3,
    );
    sink.set("session.idle_solve_ms", idle_s * 1e3);
    sink.set("session.solo_solve_ms", solo_s * 1e3);
    sink.set("session.overhead_per_solve_ms", (idle_s - solo_s) * 1e3);
    sink.set(
        "session.epochs_per_s",
        session.phase_epochs as f64 / session.phase_s,
    );
    sink.set("session.plan_cache_hit_ratio", session.plan_cache_hit_ratio);
    sink.set("session.faults", session.stats.faults as f64);
    notes.push(("session_requests", session.latency_s.len() as f64));

    // Layer probes, each with an equal share of the remaining budget.
    let share = seconds.mul_f64(0.3 / 10.0);
    let g = rec.scope("probe.graph", "graph", |_| {
        probes::graph(case, &materials[0], share * 2)
    });
    sink.set("graph.fine_ns_per_vertex", g.fine_ns_per_vertex);
    sink.set("graph.coarse_ns_per_vertex", g.coarse_ns_per_vertex);
    sink.set("graph.coarse_build_ms", g.coarse_build_ms);
    sink.set("graph.vertices_per_cluster", g.vertices_per_cluster);

    sink.set(
        "comm.thread_pingpong_us",
        rec.scope("probe.thread_pingpong", "comm", |_| {
            probes::pingpong_us(jsweep_comm::Universe::endpoints(2), share)
        }),
    );
    sink.set(
        "comm.socket_pingpong_us",
        rec.scope("probe.socket_pingpong", "comm", |_| {
            probes::pingpong_us(jsweep_comm::socket::SocketUniverse::endpoints(2), share)
        }),
    );
    sink.set(
        "comm.socket_MB_per_s",
        rec.scope("probe.socket_throughput", "comm", |_| {
            probes::socket_mb_per_s(share)
        }),
    );
    sink.set(
        "comm.barrier_us",
        rec.scope("probe.barrier", "comm", |_| probes::barrier_us(share)),
    );

    // Round trips per ping-pong epoch, sized so an epoch is tens of
    // milliseconds at full length (a local hop is an order of magnitude
    // cheaper than a cross-rank one) and a smoke run stays short.
    let remote_trips = ((seconds.as_secs_f64() * 20.0) as u64).clamp(20, 200);
    sink.set(
        "core.hop_local_us",
        rec.scope("probe.hop_local", "core", |_| {
            probes::hop_us(None, 10 * remote_trips, share)
        }),
    );
    sink.set(
        "core.hop_remote_thread_us",
        rec.scope("probe.hop_remote_thread", "core", |_| {
            probes::hop_us(Some(TransportKind::Thread), remote_trips, share)
        }),
    );
    sink.set(
        "core.hop_remote_socket_us",
        rec.scope("probe.hop_remote_socket", "core", |_| {
            probes::hop_us(Some(TransportKind::Socket), remote_trips, share)
        }),
    );
    let (noop_us, launch_ms) = rec.scope("probe.noop_universe", "core", |_| {
        probes::noop_universe(share)
    });
    sink.set("core.noop_epoch_us", noop_us);
    sink.set("core.universe_launch_ms", launch_ms);
    sink.set(
        "core.pool_ns_per_stream",
        rec.scope("probe.pool", "core", |_| {
            probes::pool_ns_per_stream(share / 2)
        }),
    );
    let (pack_ns, unpack_ns) = rec.scope("probe.frame_codec", "core", |_| {
        probes::frame_codec_ns_per_stream(spec.groups, share / 2)
    });
    sink.set("core.pack_frame_ns_per_stream", pack_ns);
    sink.set("core.unpack_frame_ns_per_stream", unpack_ns);

    let k = rec.scope("probe.kernel", "transport", |_| {
        probes::kernel(case, &materials[0], share)
    });
    sink.set("transport.kernel_ns_per_update", k.blocked_ns_per_update);
    sink.set(
        "transport.kernel_scalar_ns_per_update",
        k.scalar_ns_per_update,
    );
    sink.set("transport.geom_ns_per_cell_angle", k.geom_ns_per_cell_angle);
    sink.set(
        "transport.kernel_bytes_per_update_computed",
        k.bytes_per_update_computed,
    );
    let cores = (spec.ranks * spec.workers) as f64;
    sink.set(
        "transport.kernel_share_of_wall",
        case.updates_per_iteration() * k.blocked_ns_per_update * 1e-9 / (iter_s * cores),
    );

    let serial_iter_s = rec.scope("probe.solve_serial", "transport", |_| {
        let mut config = case.config.clone();
        config.max_iterations = 2;
        let t0 = Instant::now();
        let sol =
            jsweep_transport::solve_serial(case.mesh.as_ref(), &case.quad, &materials[0], &config);
        std::hint::black_box(sol);
        t0.elapsed().as_secs_f64() / 2.0
    });
    sink.set("transport.serial_iter_ms", serial_iter_s * 1e3);
    sink.set("transport.speedup_vs_serial", serial_iter_s / iter_s);
}

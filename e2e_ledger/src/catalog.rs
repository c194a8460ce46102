//! Every metric the ledger prints: name, unit, direction, definition.
//!
//! `BENCHMARK.json` repeats the names, units and directions (and fixes
//! the regression bounds); `tests/e2e_contract.rs` holds the two in
//! step. A per-layer name is its crate plus a dot plus the measure.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's definition.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, unique across both lists.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// What is measured, in one line.
    pub what: &'static str,
}

const fn lower(name: &'static str, unit: &'static str, what: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        what,
    }
}

const fn higher(name: &'static str, unit: &'static str, what: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        what,
    }
}

/// End-to-end metrics: what a user of the solver sees. Measured with
/// span recording off.
pub const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s", "lower quartile of the repeated set-ups (a burst before and one after the measured phase): mesh build + decomposition + SweepProblem::build (session workload: + SolverSession::launch and its first, cold request)"),
    lower("solve_ms", "ms", "lower quartile of the wall of one operation: a whole solve_parallel call (launch, recording iteration, plan compile, every iteration, shutdown) or one session request, submit to wait()"),
    lower("iter_ms", "ms", "lower quartile of RunStats::wall_seconds over steady iterations (every iteration but a solve's first), pooled over the measured operations"),
    higher("updates_per_s_per_core", "1/s", "cell x angle x group updates of one operation (all its iterations; x concurrent closed-loop clients) / solve_ms / (ranks x workers)"),
    lower("peak_rss_mb", "MB", "VmHWM of a child process that runs set-up and two operations of the workload with MALLOC_ARENA_MAX=1 (run::memory_pass)"),
];

/// Per-layer metrics: one crate each. Measured in the traced run.
pub const PER_LAYER: &[MetricDef] = &[
    // mesh
    lower("mesh.build_ms", "ms", "mesh construction (lower quartile of the set-ups)"),
    lower("mesh.partition_ms", "ms", "patch decomposition + rank distribution (lower quartile of the set-ups)"),
    lower("mesh.rank_edge_cut", "count", "cell faces crossing a rank boundary (partition_stats)"),
    lower("mesh.rank_imbalance", "ratio", "largest rank load / mean rank load (partition_stats)"),
    // graph
    lower("graph.problem_build_ms", "ms", "SweepProblem::build (lower quartile of the set-ups)"),
    lower("graph.fine_ns_per_vertex", "ns", "SweepState reset + receive/pop_cluster over every (patch, angle) subgraph, no kernel, single thread"),
    lower("graph.coarse_ns_per_vertex", "ns", "CoarseSweepState reset + receive/pop over the compiled tasks, per original vertex, single thread"),
    lower("graph.coarse_build_ms", "ms", "build_coarse over record_cluster_traces output, all canonical angles"),
    higher("graph.vertices_per_cluster", "count", "mean cluster size in the recorded traces"),
    // comm
    lower("comm.thread_pingpong_us", "us", "16-byte round trip between two thread-backend Comm endpoints"),
    lower("comm.socket_pingpong_us", "us", "16-byte round trip between two socket-backend Comm endpoints"),
    higher("comm.socket_MB_per_s", "MB/s", "one-way 64 KiB frames over the socket backend"),
    lower("comm.barrier_us", "us", "Comm::barrier over 2 thread ranks"),
    lower("comm.streams_sent_per_iter", "count", "cross-rank streams per steady iteration (RunStats)"),
    lower("comm.frames_sent_per_iter", "count", "cross-rank frames per steady iteration (RunStats)"),
    lower("comm.bytes_sent_per_iter", "B", "cross-rank bytes per steady iteration (RunStats)"),
    higher("comm.streams_per_frame", "count", "aggregation: streams_sent / frames_sent (0 when nothing is sent)"),
    // core
    lower("core.hop_local_us", "us", "one stream hop between two patch-programs on the same rank (ping-pong through Universe::run_epoch)"),
    lower("core.hop_remote_thread_us", "us", "one cross-rank stream hop over thread channels"),
    lower("core.hop_remote_socket_us", "us", "one cross-rank stream hop over the socket fabric"),
    lower("core.noop_epoch_us", "us", "fence + termination floor: one no-op epoch of a resident 2-rank universe"),
    lower("core.universe_launch_ms", "ms", "Universe::launch + shutdown of a 2-rank no-op universe"),
    lower("core.pool_ns_per_stream", "ns", "Pool deliver_batch -> try_take_batch -> finish_batch per stream, single thread"),
    lower("core.pack_frame_ns_per_stream", "ns", "pack_frame per stream (64 streams of 8 x G bytes)"),
    lower("core.unpack_frame_ns_per_stream", "ns", "unpack_frame per stream (same frame)"),
    lower("core.master_route_ms", "ms", "master Route seconds per steady iteration, summed over ranks"),
    lower("core.master_pack_ms", "ms", "master Pack, same"),
    lower("core.master_unpack_ms", "ms", "master Unpack, same"),
    lower("core.master_comm_ms", "ms", "master Comm, same"),
    lower("core.master_idle_ms", "ms", "master Idle, same"),
    lower("core.worker_kernel_ms", "ms", "worker Kernel seconds per steady iteration, summed over workers"),
    lower("core.worker_graphop_ms", "ms", "worker GraphOp, same"),
    lower("core.worker_input_ms", "ms", "worker Input, same"),
    lower("core.worker_output_ms", "ms", "worker Output, same"),
    lower("core.worker_idle_ms", "ms", "worker Idle, same"),
    lower("core.worker_other_ms", "ms", "worker Other, same"),
    lower("core.worker_drain_ms", "ms", "worker end-of-epoch drain, same"),
    lower("core.compute_calls_per_iter", "count", "patch-program compute calls per steady iteration"),
    lower("core.streams_local_per_iter", "count", "same-rank streams routed through the master per steady iteration"),
    higher("core.vertices_per_compute_call", "count", "work_done / compute_calls"),
    // transport
    lower("transport.kernel_ns_per_update", "ns", "CellGeom::new + solve_cell_block_geom (the path production calls) per cell x angle x group, workload's kernel and G"),
    lower("transport.kernel_scalar_ns_per_update", "ns", "solve_cell (scalar oracle), same"),
    lower("transport.geom_ns_per_cell_angle", "ns", "CellGeom::new alone"),
    lower("transport.kernel_bytes_per_update_computed", "B", "bytes the kernel touches per update, computed from array sizes (not measured traffic)"),
    higher("transport.kernel_share_of_wall", "ratio", "updates x kernel_ns_per_update / (iter_ms x ranks x workers)"),
    lower("transport.first_iter_ms", "ms", "a solve's first iteration (fine path, recording when replay is on)"),
    lower("transport.plan_build_ms", "ms", "replay plan compile (0 with replay off)"),
    lower("transport.plan_bytes", "B", "compiled replay plan footprint (0 with replay off)"),
    lower("transport.launch_shutdown_ms", "ms", "solve wall - sum of iteration walls - plan build"),
    lower("transport.serial_iter_ms", "ms", "solve_serial iteration: the plain single-threaded baseline"),
    higher("transport.speedup_vs_serial", "ratio", "serial_iter_ms / iter_ms"),
    // session
    lower("session.launch_ms", "ms", "SolverSession::launch"),
    lower("session.queue_wait_p50_ms", "ms", "median submit -> first epoch"),
    lower("session.latency_p99_ms", "ms", "99th percentile submit -> wait()"),
    lower("session.idle_solve_ms", "ms", "median request latency with one client on an otherwise idle session"),
    lower("session.solo_solve_ms", "ms", "the same request through solve_parallel_cached with a warm plan cache"),
    lower("session.overhead_per_solve_ms", "ms", "idle_solve_ms - solo_solve_ms (negative when the resident session wins)"),
    higher("session.epochs_per_s", "1/s", "epochs the session ran per second of its measured phase"),
    higher("session.plan_cache_hit_ratio", "ratio", "plan-cache hits / lookups over the session's life"),
    lower("session.faults", "count", "faulted epochs (0 on these workloads)"),
    // the harness itself
    lower("bench.trace_overhead_pct", "%", "iter_ms with span recording on vs off, same process"),
    lower("bench.iter_p90_ms", "ms", "90th percentile of the steady iteration walls with recording off: the tail behind iter_ms, too noisy on a shared box to carry a bound"),
];

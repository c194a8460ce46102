//! Telemetry overhead benchmark: what span recording costs a real
//! solve.
//!
//! Three variants of the same 8³-cell, 2-rank fine-path solve, all in
//! one `--features telemetry` binary:
//!
//! - **detached** — the default [`TelemetryHandle`]: hooks compiled in
//!   but pointing nowhere. The baseline.
//! - **disarmed** — a [`Telemetry`] attached but never armed: every
//!   hook pays one relaxed atomic load and nothing else.
//! - **armed** — recording live: every region a master or worker
//!   stopwatch books lands in a lock-free lane ring as a span, and
//!   every frame a master sends or receives as an instant.
//!
//! The acceptance bars (full mode only): armed overhead under 5% of
//! the detached baseline, and bit-identical flux across all three
//! variants — recording must never change physics. The compiled-out
//! configuration (no `telemetry` feature at all) is what the e2e
//! ledger runs; this bench cannot measure it from inside a feature-on
//! binary.
//!
//! Full mode writes a machine-readable baseline to
//! `BENCH_telemetry.json` at the workspace root; the `--test` smoke
//! pass (the CI `obs` job) only proves the bench still runs. Without
//! the `telemetry` feature the bench is a no-op so `cargo bench` of the
//! whole workspace stays green.

#[cfg(feature = "telemetry")]
mod run {
    use jsweep_bench::setups::{replay_scenario, ReplayScenario};
    use jsweep_core::telemetry::{obs::Telemetry, TelemetryHandle};
    use jsweep_transport::{solve_parallel, SnSolution};
    use std::sync::Arc;
    use std::time::Instant;

    const N: usize = 8;
    const RANKS: usize = 2;
    /// Enough iterations that sweep compute dominates the one-off
    /// universe launch: thread spawn/join jitter is several percent of
    /// a short solve and would drown the effect being measured.
    const ITERATIONS: usize = 160;
    const ARMED_BAR_PCT: f64 = 5.0;
    /// Events per lane. A master lane records a `Route` and a `Pack`
    /// span per remote stream — ~28k events over the 160 iterations —
    /// which overflows the default 16 384-event ring; a lossless record
    /// keeps `events_dropped` an honest zero.
    const RING_CAPACITY: usize = 1 << 15;

    fn solve_with(sc: &ReplayScenario, telemetry: TelemetryHandle) -> SnSolution {
        let mut config = sc.config.clone();
        // Fine path every iteration: every per-claim and per-stream
        // region fires, so this is the worst case for recording
        // overhead.
        config.coarsen = false;
        config.telemetry = telemetry;
        solve_parallel(
            sc.mesh.clone(),
            sc.problem.clone(),
            &sc.quad,
            sc.materials.clone(),
            &config,
        )
    }

    struct Numbers {
        detached_s: f64,
        disarmed_s: f64,
        armed_s: f64,
        events_recorded: u64,
        events_dropped: u64,
    }

    impl Numbers {
        fn disarmed_pct(&self) -> f64 {
            (self.disarmed_s / self.detached_s - 1.0) * 100.0
        }
        fn armed_pct(&self) -> f64 {
            (self.armed_s / self.detached_s - 1.0) * 100.0
        }
    }

    /// Best-of-`runs` wall time per variant. The variant order rotates
    /// every round: clock boost and thermal drift systematically favor
    /// whichever solve runs first after a lull, so a fixed order would
    /// bias the comparison far more than the effect being measured.
    fn measure(runs: usize) -> Numbers {
        let sc = replay_scenario(N, 4, RANKS, ITERATIONS, 16);
        let golden = solve_with(&sc, TelemetryHandle::default());
        let mut best = [f64::INFINITY; 3];
        let mut events_recorded = 0;
        let mut events_dropped = 0;
        for round in 0..runs {
            for k in 0..3 {
                match (round + k) % 3 {
                    0 => {
                        let t = Instant::now();
                        let sol = solve_with(&sc, TelemetryHandle::default());
                        best[0] = best[0].min(t.elapsed().as_secs_f64());
                        assert_eq!(sol.phi, golden.phi, "detached flux mismatch");
                    }
                    1 => {
                        let idle = Arc::new(Telemetry::new());
                        let t = Instant::now();
                        let sol = solve_with(&sc, TelemetryHandle::attach(idle));
                        best[1] = best[1].min(t.elapsed().as_secs_f64());
                        assert_eq!(sol.phi, golden.phi, "disarmed flux mismatch");
                    }
                    _ => {
                        let live = Arc::new(Telemetry::with_ring_capacity(RING_CAPACITY));
                        live.arm();
                        let t = Instant::now();
                        let sol = solve_with(&sc, TelemetryHandle::attach(live.clone()));
                        best[2] = best[2].min(t.elapsed().as_secs_f64());
                        assert_eq!(sol.phi, golden.phi, "armed flux mismatch");
                        let lanes = live.snapshot();
                        events_recorded = lanes.iter().map(|l| l.events.len() as u64).sum();
                        events_dropped = lanes.iter().map(|l| l.dropped).sum();
                        assert!(events_recorded > 0, "armed run recorded nothing");
                    }
                }
            }
        }
        Numbers {
            detached_s: best[0],
            disarmed_s: best[1],
            armed_s: best[2],
            events_recorded,
            events_dropped,
        }
    }

    pub fn main() {
        let test_mode = std::env::args().any(|a| a == "--test");
        // Oversubscribed boxes (CI runs this on a single core) need
        // many samples before best-of converges past scheduler noise.
        let runs = if test_mode { 1 } else { 10 };
        let n = measure(runs);

        println!(
            "telemetry ({}^3 cells, {} ranks, {} iterations): detached {:>8.3} ms | disarmed {:>8.3} ms ({:+.2}%) | armed {:>8.3} ms ({:+.2}%) | {} events ({} dropped)",
            N,
            RANKS,
            ITERATIONS,
            n.detached_s * 1e3,
            n.disarmed_s * 1e3,
            n.disarmed_pct(),
            n.armed_s * 1e3,
            n.armed_pct(),
            n.events_recorded,
            n.events_dropped,
        );

        // The bar and the baseline are full-mode only (best-of-10); a
        // single smoke sample on a loaded CI core would flake, and is
        // no baseline.
        if test_mode {
            return;
        }
        assert!(
            n.armed_pct() < ARMED_BAR_PCT,
            "armed telemetry overhead {:.2}% exceeds the {ARMED_BAR_PCT}% bar",
            n.armed_pct()
        );

        let json = format!(
            concat!(
                "{{\n",
                "  \"bench\": \"telemetry\",\n",
                "  \"mode\": \"full\",\n",
                "  \"config\": {{\n",
                "    \"cells\": {cells},\n",
                "    \"ranks\": {ranks},\n",
                "    \"workers_per_rank\": 2,\n",
                "    \"iterations\": {iters},\n",
                "    \"grain\": 16\n",
                "  }},\n",
                "  \"detached_seconds\": {det:.6},\n",
                "  \"disarmed_seconds\": {dis:.6},\n",
                "  \"armed_seconds\": {arm:.6},\n",
                "  \"disarmed_overhead_pct\": {disp:.3},\n",
                "  \"armed_overhead_pct\": {armp:.3},\n",
                "  \"armed_overhead_bar_pct\": {bar:.1},\n",
                "  \"events_recorded\": {ev},\n",
                "  \"events_dropped\": {drop},\n",
                "  \"phi_bit_identical\": true\n",
                "}}\n"
            ),
            cells = N * N * N,
            ranks = RANKS,
            iters = ITERATIONS,
            det = n.detached_s,
            dis = n.disarmed_s,
            arm = n.armed_s,
            disp = n.disarmed_pct(),
            armp = n.armed_pct(),
            bar = ARMED_BAR_PCT,
            ev = n.events_recorded,
            drop = n.events_dropped,
        );
        let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join("BENCH_telemetry.json");
        std::fs::write(&out, json).expect("write BENCH_telemetry.json");
        println!("baseline written to {}", out.display());
    }
}

#[cfg(feature = "telemetry")]
fn main() {
    run::main();
}

#[cfg(not(feature = "telemetry"))]
fn main() {
    println!("telemetry bench skipped: rebuild with --features telemetry");
}

//! One steady CPU for the timed passes.
//!
//! The benchmark box gives the harness a couple of virtual CPUs of a
//! shared host, and a workload runs 2 to 7 runtime threads that hand
//! work to each other every few microseconds. Two things then decide
//! wall time that are no property of the program: which vCPU the
//! scheduler puts each thread on (a wake-up that crosses vCPUs costs
//! 40 us against 3 us on the same one, and the placement is sticky
//! for minutes), and how long the hypervisor takes to bring back a
//! vCPU that halted because every thread was parked (it comes in modes
//! that last seconds). So a run confines itself to one CPU — every
//! thread the program spawns inherits the mask — and keeps a thread of
//! the lowest scheduling class spinning there, which any runtime
//! thread preempts at once, so the vCPU never halts. The timings are
//! then the program's total cost on one core, park and hop latencies
//! included; they say nothing about how two cores would share it
//! (`transport.speedup_vs_serial` and the hop probes remain, unbounded).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Words of the kernel's CPU mask the calls below pass (1024 CPUs).
const MASK_WORDS: usize = 16;
/// Linux `SCHED_IDLE`: runs only when nothing else on the CPU wants to.
const SCHED_IDLE: i32 = 5;

// The C library `std` already links; Linux only.
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
}

/// The confinement of a run; dropping it stops the spinning thread.
#[derive(Debug)]
pub struct SteadyCpu {
    /// The CPU the process is confined to (`None`: the call failed and
    /// the run is not confined).
    pub cpu: Option<usize>,
    /// Whether the keep-awake thread got its `SCHED_IDLE` class (it
    /// does not run otherwise).
    pub kept_awake: bool,
    stop: Arc<AtomicBool>,
    spinner: Option<JoinHandle<()>>,
}

impl SteadyCpu {
    /// Confine the calling process to the last CPU it is allowed on
    /// (the first usually serves the box's interrupts) and start the
    /// keep-awake thread there. Failure of either step is recorded,
    /// not fatal: the run is then as noisy as the box.
    pub fn claim() -> SteadyCpu {
        let mut mask = [0u64; MASK_WORDS];
        let size = std::mem::size_of_val(&mask);
        // SAFETY: `mask` is `size` writable bytes; pid 0 is this process.
        let got = unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } == 0;
        let cpu = (0..MASK_WORDS * 64)
            .rev()
            .find(|&c| got && mask[c / 64] >> (c % 64) & 1 == 1)
            .filter(|&c| {
                let mut one = [0u64; MASK_WORDS];
                one[c / 64] = 1 << (c % 64);
                // SAFETY: `one` is `size` readable bytes.
                unsafe { sched_setaffinity(0, size, one.as_ptr()) == 0 }
            });

        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = std::sync::mpsc::channel();
        let spinner = cpu.map(|_| {
            let stop = stop.clone();
            std::thread::spawn(move || {
                let priority = 0i32;
                // SAFETY: `sched_param` is one int; pid 0 is this thread.
                let idle = unsafe { sched_setscheduler(0, SCHED_IDLE, &priority) } == 0;
                let _ = tx.send(idle);
                while idle && !stop.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            })
        });
        SteadyCpu {
            cpu,
            // Unconfined, no thread was started: the sender went with the
            // unused closure and `recv` fails at once.
            kept_awake: rx.recv().unwrap_or(false),
            stop,
            spinner,
        }
    }
}

impl Drop for SteadyCpu {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.spinner.take() {
            let _ = h.join();
        }
    }
}

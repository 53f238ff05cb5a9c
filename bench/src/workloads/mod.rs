//! The eight workloads. Each is a set of seeded inputs, a set-up that
//! builds the program's objects from them, and a loop that issues ops,
//! times them and checks every output.

use crate::counters::Counters;
use crate::trace::{Outcome, Recorder};
use hf_core::{Executor, Fleet, Heteroflow};
use std::time::Duration;

pub mod app_place;
pub mod app_timing;
pub mod fleet_mixed;
pub mod gpu_wavefront;
pub mod sched_host;
pub mod stream_serving;
pub mod xfer;

/// `(name, why)` of every workload, in ladder order: scheduler, dispatch,
/// data path both ways, serving layer twice, applications.
pub const WORKLOADS: [(&str, &str); 8] = [
    ("sched_host", "48x48 wavefront of empty host tasks: only hf-sync and the hf-core scheduler work, hf-gpu does nothing"),
    ("gpu_wavefront", "12x12 wavefront of 1 KiB GPU tiles: dispatch-bound (placement, fusion, stream enqueue to callback, events, pool); bytes negligible"),
    ("xfer_recopy", "2 lanes of pull 8 MiB, touch, push 8 MiB with inputs mutated every op: the transfer engine copies both ways, the scheduler idles"),
    ("xfer_resident", "same graph with inputs left alone: pulls elide and pushes still copy, so a recopy gain that taxes elision shows"),
    ("stream_serving", "depth-2 resident session re-pulling a 16 MiB table per epoch under 2 ms kernels: copy-bound, moved by per-chunk cost and gate latency"),
    ("fleet_mixed", "open-loop weight-8 tenant at 200 jobs/s beside a weight-1 tenant keeping 4 copy jobs outstanding: admission and queues under a saturated fleet"),
    ("app_timing", "the paper's Fig 6 application: 8-view timing correlation over 20k gates, a fresh graph (cold plan) per op, host tasks dominate"),
    ("app_place", "the paper's Fig 9 application: detailed placement of 10k cells, GPU MIS rounds alternating with sequential partitioning (Amdahl-bound)"),
];

/// The workloads `BENCHMARK.json` declares, which the driver runs and
/// gates. The contract allows its 4 + 22 runs per workload 3420 s in all,
/// and on this box a run has to last 20 s before ten runs of the same
/// build agree (see "How steady it is" in the README): that leaves room
/// for five. Kept: the scheduler alone, the data path, the serving layer,
/// and the paper's two applications. `gpu_wavefront`, `xfer_resident` and
/// `fleet_mixed` are run and compared by the ladder only.
pub const GATED: [&str; 5] = [
    "sched_host",
    "xfer_recopy",
    "stream_serving",
    "app_timing",
    "app_place",
];

/// Ops every set-up completes before it counts as done: the cold plan,
/// first-touch device allocations and residency all land here.
pub const WARM_OPS: usize = 3;

/// Executor workers where they mostly sleep (the data-path and serving
/// workloads, and the rungs): both cores of the reference box, never
/// more, so a bigger machine measures the same program. Workloads whose
/// workers are busy the whole op run `Executor::new(1, 1)` instead: one
/// worker and one device engine, a busy thread per core. With more, the
/// threads pre-empt each other (`app_timing` on `Executor::new(2, 2)`:
/// 83k involuntary context switches in 9 s against 148), and the figure
/// follows the guest's and the host's schedulers, not the program.
pub fn workers() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

pub trait Workload: Sized {
    type Inputs;
    /// Every input the program will see, drawn from `seed`, plus whatever
    /// reference results verification needs. Not part of `setup_s`.
    fn generate(seed: u64) -> Self::Inputs;
    /// Builds executor, host buffers and graphs and completes the warm
    /// ops. This is what `setup_s` times.
    fn setup(inputs: &Self::Inputs, rec: &mut Recorder) -> Self;
    /// Issues ops for `window`, recording and verifying each.
    fn drive(&mut self, window: Duration, rec: &mut Recorder);
    fn executor(&self) -> &Executor;
    fn fleet(&self) -> Option<&Fleet> {
        None
    }
    /// The public counters once they have settled. The executor bumps
    /// some of them just after the future resolves, so a read right after
    /// `wait` can lag; two equal reads a millisecond apart are final.
    fn counters(&self) -> Counters {
        // Idle workers keep counting steal attempts; only the counts of
        // work done have to stand still.
        let work = |c: &Counters| (c.exec.tasks_executed, c.exec.fused, c.device_ops);
        let mut last = Counters::read(self.executor(), self.fleet());
        loop {
            std::thread::sleep(Duration::from_millis(1));
            let now = Counters::read(self.executor(), self.fleet());
            if work(&now) == work(&last) {
                return now;
            }
            last = now;
        }
    }
}

/// A workload whose single client issues the next op when the previous
/// one has completed and been verified.
pub trait ClosedLoop: Sized {
    type Inputs;
    fn generate(seed: u64) -> Self::Inputs;
    fn build(inputs: &Self::Inputs) -> Self;
    fn op(&mut self, rec: &mut Recorder);
    fn executor(&self) -> &Executor;
}

pub struct Closed<T>(pub T);

impl<T: ClosedLoop> Workload for Closed<T> {
    type Inputs = T::Inputs;

    fn generate(seed: u64) -> T::Inputs {
        T::generate(seed)
    }

    fn setup(inputs: &T::Inputs, rec: &mut Recorder) -> Self {
        let mut w = T::build(inputs);
        for _ in 0..WARM_OPS {
            w.op(rec);
        }
        Closed(w)
    }

    fn drive(&mut self, window: Duration, rec: &mut Recorder) {
        let deadline = rec.now() + window.as_nanos() as u64;
        while rec.now() < deadline {
            self.0.op(rec);
        }
    }

    fn executor(&self) -> &Executor {
        self.0.executor()
    }
}

/// The tail every `run`-based op shares: submit, wait, verify, record.
/// `start_ns` is when the op began (before any mutate or build span).
pub fn run_and_verify(
    rec: &mut Recorder,
    op_id: u64,
    start_ns: u64,
    ex: &Executor,
    g: &Heteroflow,
    verify: impl FnOnce() -> bool,
) {
    let fut = rec.time(op_id, "submit", || ex.run(g));
    let res = rec.time(op_id, "wait", || fut.wait());
    let done_ns = rec.now();
    let outcome = match res {
        Ok(()) if rec.time(op_id, "verify", verify) => Outcome::Ok,
        Ok(()) => Outcome::Incorrect,
        Err(e) => {
            eprintln!("op {op_id} errored: {e}");
            Outcome::Errored
        }
    };
    rec.finish_op(op_id, start_ns, done_ns, outcome);
}

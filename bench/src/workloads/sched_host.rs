//! `sched_host`: one op is `run().wait()` of a 48x48 wavefront of empty
//! host tasks (2304 tasks, 4512 edges). Each task stores the run number
//! in its own cell after checking that both predecessors already did.
//! One worker: two run this graph 2.2 times slower on the 2-core box, so
//! a host that takes a core away would make the figure better.

use super::{run_and_verify, ClosedLoop};
use crate::gen::Rng;
use crate::trace::Recorder;
use hf_core::{Executor, Heteroflow, HostTask};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

pub const SIDE: usize = 48;

/// The wavefront graph alone, shared with the rungs that time it.
pub struct HostWavefront {
    pub g: Heteroflow,
    cells: Arc<Vec<AtomicU64>>,
    run: Arc<AtomicU64>,
    out_of_order: Arc<AtomicBool>,
}

impl HostWavefront {
    pub fn build(first_run: u64) -> HostWavefront {
        let g = Heteroflow::new("sched_host");
        let cells: Arc<Vec<AtomicU64>> =
            Arc::new((0..SIDE * SIDE).map(|_| AtomicU64::new(0)).collect());
        let run = Arc::new(AtomicU64::new(first_run));
        let out_of_order = Arc::new(AtomicBool::new(false));
        let mut tasks: Vec<HostTask> = Vec::with_capacity(SIDE * SIDE);
        for i in 0..SIDE {
            for j in 0..SIDE {
                let (cells2, run2, bad) = (cells.clone(), run.clone(), out_of_order.clone());
                let t = g.host(&format!("c{i}_{j}"), move || {
                    let r = run2.load(Ordering::Relaxed);
                    let up = i == 0 || cells2[(i - 1) * SIDE + j].load(Ordering::Acquire) == r;
                    let left = j == 0 || cells2[i * SIDE + j - 1].load(Ordering::Acquire) == r;
                    if !(up && left) {
                        bad.store(true, Ordering::Relaxed);
                    }
                    cells2[i * SIDE + j].store(r, Ordering::Release);
                });
                if i > 0 {
                    t.succeed(&tasks[(i - 1) * SIDE + j]);
                }
                if j > 0 {
                    t.succeed(&tasks[i * SIDE + j - 1]);
                }
                tasks.push(t);
            }
        }
        HostWavefront {
            g,
            cells,
            run,
            out_of_order,
        }
    }

    pub fn next_run(&self) {
        self.run.fetch_add(1, Ordering::Relaxed);
    }

    /// Every cell carries this run's number and no task ran early.
    pub fn verify(&self) -> bool {
        let r = self.run.load(Ordering::Relaxed);
        !self.out_of_order.load(Ordering::Relaxed)
            && self.cells.iter().all(|c| c.load(Ordering::Acquire) == r)
    }
}

pub struct SchedHost {
    ex: Executor,
    wave: HostWavefront,
}

impl ClosedLoop for SchedHost {
    /// The first run number.
    type Inputs = u64;

    fn generate(seed: u64) -> u64 {
        Rng::new(seed, 1).next_u64() >> 1
    }

    fn build(first_run: &u64) -> Self {
        SchedHost {
            ex: Executor::new(1, 1),
            wave: HostWavefront::build(*first_run),
        }
    }

    fn op(&mut self, rec: &mut Recorder) {
        let id = rec.next_op_id();
        let start = rec.now();
        rec.time(id, "mutate", || self.wave.next_run());
        run_and_verify(rec, id, start, &self.ex, &self.wave.g, || {
            self.wave.verify()
        });
    }

    fn executor(&self) -> &Executor {
        &self.ex
    }
}

//! `fleet_mixed`: two tenants share one weighted-fair fleet over
//! `Executor(2, 1)` with 2 runs in flight.
//!
//! * `interactive` (weight 8), **open loop**: an 8-task job (4 host tasks
//!   filling a 64 KiB buffer -> pull -> kernel -> push -> stamp) is due on
//!   a seeded Poisson schedule at 200 /s, taken from a ring of 64 prebuilt
//!   graphs. Latency runs from the due time to the stamp task; a ring slot
//!   still busy when its turn comes round is a refused, failed op.
//! * `batch` (weight 1), **closed loop**: keeps 4 copy jobs (2 lanes x
//!   4 MiB, inputs changed every time) outstanding.
//!
//! `lat_*` are the interactive tenant's; `ops_per_s` counts both.

use super::xfer::{lane_inputs, verify_lanes, Lane};
use super::{workers, Workload};
use crate::gen::{lcg, poisson_schedule, Rng};
use crate::trace::{Outcome, Recorder};
use hf_core::data::HostVec;
use hf_core::{
    Executor, Fleet, FleetConfig, Heteroflow, RunFuture, TenantConfig, TenantId, WeightedFair,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const RING: usize = 64;
const JOB_ELEMS: usize = 16 << 10; // 64 KiB of u32
const FILLERS: usize = 4;
pub const RATE_PER_S: f64 = 200.0;
const BATCH_JOBS: usize = 4;
const BATCH_LANES: usize = 2;
const BATCH_LANE_ELEMS: usize = 1 << 20; // 4 MiB of u32

pub struct Inputs {
    /// Mixed into every interactive job's contents.
    salt: u32,
    /// One input per batch lane; the four batch jobs start from copies.
    batch_lanes: Vec<Vec<u32>>,
    schedule: Rng,
}

/// Element `idx` of interactive job `seq`, as its host tasks write it.
fn job_elem(salt: u32, seq: u64, idx: usize) -> u32 {
    (seq as u32).wrapping_mul(2_654_435_761) ^ (idx as u32).wrapping_mul(40_503) ^ salt
}

struct Slot {
    g: Heteroflow,
    data: HostVec<u32>,
    /// Which job the host tasks should write next.
    seq: Arc<AtomicU64>,
    /// When the stamp task of the last run executed.
    stamp: Arc<Mutex<Option<Instant>>>,
    pending: Option<Pending>,
}

struct Pending {
    future: RunFuture,
    op_id: u64,
    seq: u64,
    due_ns: u64,
    call_ns: u64,
    returned_ns: u64,
}

impl Slot {
    fn build(n: usize, salt: u32) -> Slot {
        let g = Heteroflow::new(&format!("interactive_{n}"));
        let data: HostVec<u32> = HostVec::from_vec(vec![0; JOB_ELEMS]);
        let seq = Arc::new(AtomicU64::new(0));
        let stamp = Arc::new(Mutex::new(None));
        let pull = g.pull("pull", &data);
        for q in 0..FILLERS {
            let (data2, seq2) = (data.clone(), seq.clone());
            g.host(&format!("fill_{q}"), move || {
                let s = seq2.load(Ordering::Relaxed);
                let quarter = JOB_ELEMS / FILLERS;
                let mut w = data2.write();
                for idx in q * quarter..(q + 1) * quarter {
                    w[idx] = job_elem(salt, s, idx);
                }
            })
            .precede(&pull);
        }
        let kernel = g.kernel("step", &[&pull], |cfg, args| {
            let v = args.slice_mut::<u32>(0).expect("job buffer");
            for t in cfg.threads() {
                if t < v.len() {
                    v[t] = lcg(v[t]);
                }
            }
        });
        kernel.cover(JOB_ELEMS, 256);
        let push = g.push("push", &pull, &data);
        let stamp2 = stamp.clone();
        let stamped = g.host("stamp", move || {
            *stamp2.lock().expect("stamp lock") = Some(Instant::now());
        });
        pull.precede(&kernel);
        kernel.precede(&push);
        push.precede(&stamped);
        Slot {
            g,
            data,
            seq,
            stamp,
            pending: None,
        }
    }

    fn verify(&self, salt: u32, seq: u64) -> bool {
        let got = self.data.read();
        got.len() == JOB_ELEMS
            && got
                .iter()
                .enumerate()
                .all(|(idx, &x)| x == lcg(job_elem(salt, seq, idx)))
    }

    /// Waits for the slot's outstanding job, if any, and records it.
    fn harvest(&mut self, salt: u32, rec: &mut Recorder) {
        let Some(p) = self.pending.take() else { return };
        let res = p.future.wait();
        let stamp = self.stamp.lock().expect("stamp lock").take();
        let done_ns = stamp.map_or_else(|| rec.now(), |t| rec.at(t));
        rec.span_at(p.op_id, "late", p.due_ns, p.call_ns);
        rec.span_at(p.op_id, "submit", p.call_ns, p.returned_ns);
        rec.span_at(p.op_id, "wait", p.returned_ns, done_ns);
        let outcome = match res {
            Ok(())
                if stamp.is_some() && rec.time(p.op_id, "verify", || self.verify(salt, p.seq)) =>
            {
                Outcome::Ok
            }
            Ok(()) => Outcome::Incorrect,
            Err(e) => {
                eprintln!("interactive job {} errored: {e}", p.seq);
                Outcome::Errored
            }
        };
        // Verification waits for the slot's next turn; the op itself ends
        // at the stamp.
        rec.finish_op_rooted(p.op_id, (p.due_ns, done_ns), p.due_ns, done_ns, outcome);
    }
}

struct BatchJob {
    g: Heteroflow,
    lanes: Vec<Lane>,
}

/// The open-loop tenant: its ring of prebuilt jobs and where it stands.
struct Interactive {
    tenant: TenantId,
    salt: u32,
    ring: Vec<Slot>,
    next_slot: usize,
    next_seq: u64,
}

impl Interactive {
    /// Issues the job due at `due_ns` on the next ring slot.
    fn issue(&mut self, fleet: &Fleet, due_ns: u64, rec: &mut Recorder) {
        let op_id = rec.next_op_id();
        let slot = &mut self.ring[self.next_slot % RING];
        self.next_slot += 1;
        if slot.pending.as_ref().is_some_and(|p| !p.future.is_done()) {
            rec.finish_op(op_id, due_ns, rec.now(), Outcome::Refused);
            return;
        }
        slot.harvest(self.salt, rec);
        let seq = self.next_seq;
        self.next_seq += 1;
        slot.seq.store(seq, Ordering::Relaxed);
        let call_ns = rec.now();
        match fleet.submit(&self.tenant, &slot.g) {
            Ok(future) => {
                slot.pending = Some(Pending {
                    future,
                    op_id,
                    seq,
                    due_ns,
                    call_ns,
                    returned_ns: rec.now(),
                })
            }
            Err(e) => {
                eprintln!("interactive job {seq} refused: {e}");
                rec.finish_op(op_id, due_ns, rec.now(), Outcome::Refused);
            }
        }
    }

    fn harvest_all(&mut self, rec: &mut Recorder) {
        for slot in &mut self.ring {
            slot.harvest(self.salt, rec);
        }
    }
}

/// The closed-loop tenant: every job outstanding, the oldest waited
/// first, each verified, changed and resubmitted until `deadline_ns`.
struct Batch {
    tenant: TenantId,
    jobs: Vec<BatchJob>,
    ops: u32,
}

impl Batch {
    fn submit(
        &mut self,
        n: usize,
        fleet: &Fleet,
        rec: &mut Recorder,
    ) -> Option<(RunFuture, u64, u64)> {
        self.ops += 1;
        let (job, tag) = (&mut self.jobs[n], self.ops);
        let op_id = rec.next_op_id();
        let start_ns = rec.now();
        rec.time(op_id, "mutate", || {
            for lane in &mut job.lanes {
                lane.mutate(tag);
            }
        });
        match rec.time(op_id, "submit", || fleet.submit(&self.tenant, &job.g)) {
            Ok(future) => Some((future, op_id, start_ns)),
            Err(e) => {
                eprintln!("batch job refused: {e}");
                rec.finish_background_op(op_id, start_ns, rec.now(), Outcome::Refused);
                None
            }
        }
    }

    fn run(&mut self, fleet: &Fleet, deadline_ns: u64, rec: &mut Recorder) {
        let mut outstanding: Vec<_> = (0..self.jobs.len())
            .map(|n| self.submit(n, fleet, rec))
            .collect();
        while outstanding.iter().any(|o| o.is_some()) {
            for (n, slot) in outstanding.iter_mut().enumerate() {
                let Some((future, op_id, start_ns)) = slot.take() else {
                    continue;
                };
                let res = rec.time(op_id, "wait", || future.wait());
                let done_ns = rec.now();
                let lanes = &mut self.jobs[n].lanes;
                let outcome = match res {
                    Ok(()) if rec.time(op_id, "verify", || verify_lanes(lanes)) => Outcome::Ok,
                    Ok(()) => Outcome::Incorrect,
                    Err(e) => {
                        eprintln!("batch job errored: {e}");
                        Outcome::Errored
                    }
                };
                rec.finish_background_op(op_id, start_ns, done_ns, outcome);
                if rec.now() < deadline_ns {
                    *slot = self.submit(n, fleet, rec);
                }
            }
        }
    }
}

pub struct FleetMixed {
    fleet: Fleet,
    interactive: Interactive,
    batch: Batch,
    schedule: Rng,
}

impl Workload for FleetMixed {
    type Inputs = Inputs;

    fn generate(seed: u64) -> Inputs {
        Inputs {
            salt: Rng::new(seed, 6).next_u32(),
            batch_lanes: lane_inputs(seed, 7, BATCH_LANES, BATCH_LANE_ELEMS),
            schedule: Rng::new(seed, 8),
        }
    }

    fn setup(inputs: &Inputs, rec: &mut Recorder) -> Self {
        let fleet = Fleet::with_policy(
            Executor::new(workers(), 1),
            FleetConfig {
                max_inflight: 2,
                ..FleetConfig::default()
            },
            Box::<WeightedFair>::default(),
        );
        let interactive = fleet.register(
            "interactive",
            TenantConfig {
                weight: 8,
                ..TenantConfig::default()
            },
        );
        let batch = fleet.register("batch", TenantConfig::default());
        let jobs = (0..BATCH_JOBS)
            .map(|n| {
                let g = Heteroflow::new(&format!("batch_{n}"));
                let lanes: Vec<Lane> = inputs.batch_lanes.iter().map(|i| Lane::new(i)).collect();
                for (l, lane) in lanes.iter().enumerate() {
                    lane.add_to(&g, &l.to_string());
                }
                BatchJob { g, lanes }
            })
            .collect();
        let mut w = FleetMixed {
            fleet,
            interactive: Interactive {
                tenant: interactive,
                salt: inputs.salt,
                ring: (0..RING).map(|n| Slot::build(n, inputs.salt)).collect(),
                next_slot: 0,
                next_seq: 0,
            },
            batch: Batch {
                tenant: batch,
                jobs,
                ops: 0,
            },
            schedule: inputs.schedule.clone(),
        };
        // Warm ops: every graph once, so each has its plan and buffers.
        for _ in 0..RING {
            let now = rec.now();
            w.interactive.issue(&w.fleet, now, rec);
            w.interactive.harvest_all(rec);
        }
        w.batch.run(&w.fleet, 0, rec);
        w
    }

    fn drive(&mut self, window: Duration, rec: &mut Recorder) {
        let window_ns = window.as_nanos() as u64;
        let base_ns = rec.now();
        let deadline_ns = base_ns + window_ns;
        let FleetMixed {
            fleet,
            interactive,
            batch,
            schedule,
        } = self;
        let fleet = &*fleet;
        let due = poisson_schedule(schedule, RATE_PER_S, window_ns);
        let mut batch_rec = rec.fork(1);
        let batch_rec = std::thread::scope(|scope| {
            let batch_thread = scope.spawn(move || {
                batch.run(fleet, deadline_ns, &mut batch_rec);
                batch_rec
            });
            for d in due {
                let due_ns = base_ns + d;
                let now = rec.now();
                if due_ns > now {
                    std::thread::sleep(Duration::from_nanos(due_ns - now));
                }
                interactive.issue(fleet, due_ns, rec);
            }
            let now = rec.now();
            if deadline_ns > now {
                std::thread::sleep(Duration::from_nanos(deadline_ns - now));
            }
            interactive.harvest_all(rec);
            batch_thread.join().expect("batch thread")
        });
        rec.absorb(batch_rec);
    }

    fn executor(&self) -> &Executor {
        self.fleet.executor()
    }

    fn fleet(&self) -> Option<&Fleet> {
        Some(&self.fleet)
    }
}

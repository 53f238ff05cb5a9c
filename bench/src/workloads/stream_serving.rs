//! `stream_serving`: one op is one epoch of `bench_stream.rs`'s serving
//! round through a depth-2 resident session: a 16 MiB table re-pulled
//! per epoch (256 chunks of 64 KiB), 32 KiB of features through a kernel
//! with 2 ms of sleep-modelled occupancy, and a push of the scores.
//! Closed loop with backpressure: a submitter and a waiter thread.

use super::{workers, Workload, WARM_OPS};
use crate::gen::{lcg, Rng};
use crate::trace::{Outcome, Recorder};
use hf_core::data::{HostSink, HostVec};
use hf_core::{EpochFuture, Executor, Heteroflow, Session, StreamConfig};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Duration;

pub const TABLE_ELEMS: usize = 4 << 20; // 16 MiB of u32
pub const FEATURE_ELEMS: usize = 8 << 10; // 32 KiB of u32
const CHECKED_PREFIX: usize = 1024;
pub const OCCUPANCY: Duration = Duration::from_millis(2);

pub struct Inputs {
    pub features: Vec<u32>,
    pub table: Vec<u32>,
}

pub fn generate(seed: u64) -> Inputs {
    let mut rng = Rng::new(seed, 5);
    Inputs {
        features: rng.vec_u32(FEATURE_ELEMS),
        table: rng.vec_u32(TABLE_ELEMS),
    }
}

/// What one push delivered: enough to check it against the CPU replay
/// without keeping every epoch's 32 KiB.
#[derive(Debug, PartialEq, Eq)]
struct Scores {
    prefix: Vec<u32>,
    sum: u32,
}

impl Scores {
    fn of(elems: impl Iterator<Item = u32> + Clone) -> Scores {
        Scores {
            prefix: elems.clone().take(CHECKED_PREFIX).collect(),
            sum: elems.fold(0, u32::wrapping_add),
        }
    }
}

/// Push sink that logs each epoch's scores in push order. Epoch bodies run
/// one after another, so entry `n` belongs to the `n`-th epoch submitted;
/// a plain `HostVec` sink would let epoch `n + 1` overwrite the scores
/// before the waiter has checked epoch `n`.
#[derive(Default)]
struct PushLog(Mutex<VecDeque<Scores>>);

impl HostSink for PushLog {
    fn store_bytes(&self, bytes: &[u8]) {
        let elems = bytes
            .chunks_exact(4)
            .map(|b| u32::from_ne_bytes([b[0], b[1], b[2], b[3]]));
        self.0
            .lock()
            .expect("push log lock")
            .push_back(Scores::of(elems));
    }
}

/// The serving-round graph over its two host buffers; the resubmission
/// rung runs the same graph through `Executor::run`.
pub struct ServingRound {
    pub g: Heteroflow,
    pub features: HostVec<u32>,
    pub table: HostVec<u32>,
    base: Vec<u32>,
    log: Arc<PushLog>,
}

/// Spelled with `..default()` so a new `StreamConfig` field cannot stop
/// this file compiling.
#[allow(clippy::needless_update)]
pub fn depth(depth: usize) -> StreamConfig {
    StreamConfig {
        depth,
        ..StreamConfig::default()
    }
}

pub fn executor() -> Executor {
    Executor::builder(workers(), 2)
        .copy_chunk_threshold(64 * 1024)
        .copy_lanes(2)
        .build()
}

impl ServingRound {
    pub fn build(inputs: &Inputs) -> ServingRound {
        let features = HostVec::from_vec(inputs.features.clone());
        let table = HostVec::from_vec(inputs.table.clone());
        let log = Arc::new(PushLog::default());
        let g = Heteroflow::new("serving_round");
        let pf = g.pull("pull_features", &features);
        let score = g.kernel("score", &[&pf], |cfg, args| {
            let v = args.slice_mut::<u32>(0).expect("features");
            for t in cfg.threads() {
                if t < v.len() {
                    v[t] = lcg(v[t]);
                }
            }
            // Device occupancy that consumes no host CPU, as a running
            // kernel on a real GPU.
            std::thread::sleep(OCCUPANCY);
        });
        score.cover(FEATURE_ELEMS, 256);
        pf.precede(&score);
        // The kernel must score against this round's table: a control
        // edge, so placement keeps the chunked copy in its own group.
        g.pull("pull_table", &table).precede(&score);
        g.push_sink("push_scores", &pf, log.clone()).succeed(&score);
        ServingRound {
            g,
            features,
            table,
            base: inputs.features.clone(),
            log,
        }
    }

    /// Writes epoch `tag`'s inputs; both buffers change, so both re-pull.
    pub fn mutate(features: &HostVec<u32>, table: &HostVec<u32>, tag: u32) {
        features.write()[0] = tag;
        table.write()[0] = tag;
    }

    /// Pops the oldest logged push and checks it is epoch `tag`'s scores.
    pub fn verify_next(&self, tag: u32) -> bool {
        let got = self.log.0.lock().expect("push log lock").pop_front();
        let want = Scores::of(
            std::iter::once(tag)
                .chain(self.base[1..].iter().copied())
                .map(lcg),
        );
        got == Some(want)
    }
}

pub struct StreamServing {
    // Declared first: the session must close before its executor drops.
    session: Session,
    ex: Executor,
    round: ServingRound,
    epochs: u32,
}

struct InFlight {
    future: EpochFuture,
    op_id: u64,
    tag: u32,
    call_ns: u64,
    returned_ns: u64,
}

impl StreamServing {
    fn submit(
        session: &Session,
        round: &ServingRound,
        epochs: &mut u32,
        rec: &mut Recorder,
    ) -> InFlight {
        *epochs += 1;
        let tag = *epochs;
        let (features, table) = (round.features.clone(), round.table.clone());
        let op_id = rec.next_op_id();
        let call_ns = rec.now();
        let future = session.submit_with(move || ServingRound::mutate(&features, &table, tag));
        let returned_ns = rec.now();
        rec.span_at(op_id, "submit", call_ns, returned_ns);
        InFlight {
            future,
            op_id,
            tag,
            call_ns,
            returned_ns,
        }
    }

    /// Latency runs from the return of `submit_with` to completion.
    fn complete(round: &ServingRound, f: InFlight, rec: &mut Recorder) {
        let res = f.future.wait();
        let done_ns = rec.now();
        rec.span_at(f.op_id, "wait", f.returned_ns, done_ns);
        let outcome = match res {
            Ok(()) if rec.time(f.op_id, "verify", || round.verify_next(f.tag)) => Outcome::Ok,
            Ok(()) => Outcome::Incorrect,
            Err(e) => {
                eprintln!("epoch {} errored: {e}", f.tag);
                Outcome::Errored
            }
        };
        let root = (f.call_ns, rec.now());
        rec.finish_op_rooted(f.op_id, root, f.returned_ns, done_ns, outcome);
    }
}

impl Workload for StreamServing {
    type Inputs = Inputs;

    fn generate(seed: u64) -> Inputs {
        generate(seed)
    }

    fn setup(inputs: &Inputs, rec: &mut Recorder) -> Self {
        let ex = executor();
        let round = ServingRound::build(inputs);
        let session = ex.run_stream_with(&round.g, depth(2)).expect("open stream");
        let mut w = StreamServing {
            session,
            ex,
            round,
            epochs: 0,
        };
        for _ in 0..WARM_OPS {
            let f = Self::submit(&w.session, &w.round, &mut w.epochs, rec);
            Self::complete(&w.round, f, rec);
        }
        w
    }

    fn drive(&mut self, window: Duration, rec: &mut Recorder) {
        let deadline = rec.now() + window.as_nanos() as u64;
        let mut waiter_rec = rec.fork(1);
        let (tx, rx) = std::sync::mpsc::channel::<InFlight>();
        let StreamServing {
            session,
            round,
            epochs,
            ..
        } = self;
        let round = &*round;
        let done = std::thread::scope(|scope| {
            // Epochs complete in order, so waiting in submission order
            // timestamps each completion as it happens.
            let waiter = scope.spawn(move || {
                for f in rx {
                    StreamServing::complete(round, f, &mut waiter_rec);
                }
                waiter_rec
            });
            while rec.now() < deadline {
                let f = Self::submit(session, round, epochs, rec);
                tx.send(f).expect("waiter alive");
            }
            drop(tx);
            waiter.join().expect("waiter thread")
        });
        rec.absorb(done);
    }

    fn executor(&self) -> &Executor {
        &self.ex
    }
}

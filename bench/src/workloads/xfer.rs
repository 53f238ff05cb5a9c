//! `xfer_recopy` and `xfer_resident`: one op is a run of 2 lanes of
//! pull 8 MiB -> kernel touching 1024 elements -> push 8 MiB back into
//! the same buffer. `recopy` changes every input before each op, so both
//! directions copy; `resident` leaves them alone, so the pulls elide.

use super::{run_and_verify, workers, ClosedLoop};
use crate::gen::{lcg, Rng};
use crate::trace::Recorder;
use hf_core::data::HostVec;
use hf_core::{Executor, Heteroflow};

pub const TOUCHED: usize = 1024;

/// A copy lane's host buffer with the CPU replay of what it must hold.
pub struct Lane {
    pub data: HostVec<u32>,
    /// Replay of the touched prefix.
    prefix: Vec<u32>,
    /// An element the kernel never touches, as generated.
    untouched: u32,
    /// What the last element was last set to.
    last: u32,
}

impl Lane {
    pub fn new(input: &[u32]) -> Lane {
        Lane {
            data: HostVec::from_vec(input.to_vec()),
            prefix: input[..TOUCHED].to_vec(),
            untouched: input[TOUCHED],
            last: input[input.len() - 1],
        }
    }

    /// Adds `pull -> touch -> push` over this lane's buffer to `g`.
    pub fn add_to(&self, g: &Heteroflow, name: &str) {
        let pull = g.pull(&format!("pull_{name}"), &self.data);
        let touch = g.kernel(&format!("touch_{name}"), &[&pull], |cfg, args| {
            let v = args.slice_mut::<u32>(0).expect("lane buffer");
            for t in cfg.threads() {
                if t < TOUCHED {
                    v[t] = lcg(v[t]);
                }
            }
        });
        touch.cover(TOUCHED, 256);
        let push = g.push(&format!("push_{name}"), &pull, &self.data);
        pull.precede(&touch);
        touch.precede(&push);
    }

    /// Changes the input (its last element), which invalidates residency.
    pub fn mutate(&mut self, value: u32) {
        self.last = value;
        let mut w = self.data.write();
        let n = w.len();
        w[n - 1] = value;
    }

    /// Advances the replay by one op and compares it with the buffer.
    pub fn verify_after_op(&mut self) -> bool {
        for x in &mut self.prefix {
            *x = lcg(*x);
        }
        let got = self.data.read();
        got[..TOUCHED] == self.prefix[..]
            && got[TOUCHED] == self.untouched
            && got[got.len() - 1] == self.last
    }
}

/// Advances every lane's replay (no short circuit) and checks them all.
pub fn verify_lanes(lanes: &mut [Lane]) -> bool {
    let mut ok = true;
    for lane in lanes {
        ok &= lane.verify_after_op();
    }
    ok
}

pub fn lane_inputs(seed: u64, stream: u64, lanes: usize, elems: usize) -> Vec<Vec<u32>> {
    let mut rng = Rng::new(seed, stream);
    (0..lanes).map(|_| rng.vec_u32(elems)).collect()
}

const LANES: usize = 2;
const LANE_ELEMS: usize = 2 << 20; // 8 MiB of u32

pub struct Xfer<const RECOPY: bool> {
    ex: Executor,
    g: Heteroflow,
    lanes: Vec<Lane>,
    ops: u32,
}

impl<const RECOPY: bool> ClosedLoop for Xfer<RECOPY> {
    type Inputs = Vec<Vec<u32>>;

    fn generate(seed: u64) -> Vec<Vec<u32>> {
        lane_inputs(seed, 4, LANES, LANE_ELEMS)
    }

    fn build(inputs: &Vec<Vec<u32>>) -> Self {
        let g = Heteroflow::new("xfer");
        let lanes: Vec<Lane> = inputs.iter().map(|i| Lane::new(i)).collect();
        for (n, lane) in lanes.iter().enumerate() {
            lane.add_to(&g, &n.to_string());
        }
        Xfer {
            ex: Executor::new(workers(), 1),
            g,
            lanes,
            ops: 0,
        }
    }

    fn op(&mut self, rec: &mut Recorder) {
        let id = rec.next_op_id();
        let start = rec.now();
        self.ops += 1;
        if RECOPY {
            rec.time(id, "mutate", || {
                for lane in &mut self.lanes {
                    lane.mutate(self.ops);
                }
            });
        }
        run_and_verify(rec, id, start, &self.ex, &self.g, || {
            verify_lanes(&mut self.lanes)
        });
    }

    fn executor(&self) -> &Executor {
        &self.ex
    }
}

//! `gpu_wavefront`: one op is a run of `examples/wavefront.rs`'s graph at
//! grid 12 with 16x16 tiles: 144 pulls, 144 kernels, one push of the
//! corner tile. Tile (0,0) gets fresh contents before every op.
//!
//! One executor worker, not two: on the 2-core reference box a second
//! worker has nothing to run here (the graph is one dependent group on
//! one device) and spin-steals against the device's engine thread, which
//! makes the run flip between a 0.6 ms and a 1.8 ms mode every second or
//! so. Two workers are no faster at the median and cannot be gated.

use super::{run_and_verify, ClosedLoop};
use crate::gen::Rng;
use crate::trace::Recorder;
use hf_core::data::HostVec;
use hf_core::{Executor, Heteroflow, KernelTask, PullTask};

pub const GRID: usize = 12;
pub const TILE_ELEMS: usize = 16 * 16;

pub struct Inputs {
    /// Initial contents of tile `(i, j)` at `i * GRID + j`.
    pub tiles: Vec<Vec<f32>>,
    /// Draws the contents tile (0,0) takes before each op.
    pub per_op: Rng,
}

pub fn generate(seed: u64) -> Inputs {
    let mut rng = Rng::new(seed, 2);
    Inputs {
        tiles: (0..GRID * GRID).map(|_| rng.vec_f32(TILE_ELEMS)).collect(),
        per_op: Rng::new(seed, 3),
    }
}

fn mean(tile: &[f32]) -> f64 {
    tile.iter().map(|&x| x as f64).sum::<f64>() / tile.len() as f64
}

/// The graph and its host tiles, shared with the plan-cost rung.
pub struct TileWavefront {
    pub g: Heteroflow,
    tiles: Vec<HostVec<f32>>,
}

impl TileWavefront {
    pub fn build(inputs: &Inputs) -> TileWavefront {
        let g = Heteroflow::new("gpu_wavefront");
        let tiles: Vec<HostVec<f32>> = inputs
            .tiles
            .iter()
            .map(|t| HostVec::from_vec(t.clone()))
            .collect();
        let pulls: Vec<PullTask> = (0..GRID * GRID)
            .map(|n| g.pull(&format!("pull_{}_{}", n / GRID, n % GRID), &tiles[n]))
            .collect();
        let mut kernels: Vec<KernelTask> = Vec::with_capacity(GRID * GRID);
        for i in 0..GRID {
            for j in 0..GRID {
                let n = i * GRID + j;
                let mut sources = vec![&pulls[n]];
                if i > 0 {
                    sources.push(&pulls[n - GRID]);
                }
                if j > 0 {
                    sources.push(&pulls[n - 1]);
                }
                let n_src = sources.len();
                let k = g.kernel(&format!("block_{i}_{j}"), &sources, move |cfg, args| {
                    let mut incoming = 0.0f32;
                    for s in 1..n_src {
                        let nb = args.slice::<f32>(s).expect("neighbor tile");
                        incoming += nb.iter().sum::<f32>() / nb.len() as f32;
                    }
                    let own = args.slice_mut::<f32>(0).expect("own tile");
                    for t in cfg.threads() {
                        if t < own.len() {
                            own[t] = 0.5 * own[t] + incoming;
                        }
                    }
                });
                k.cover(TILE_ELEMS, 256).work_units(TILE_ELEMS as f64);
                k.succeed(&pulls[n]);
                if i > 0 {
                    k.succeed(&kernels[n - GRID]);
                }
                if j > 0 {
                    k.succeed(&kernels[n - 1]);
                }
                kernels.push(k);
            }
        }
        let last = GRID * GRID - 1;
        g.push("result", &pulls[last], &tiles[last])
            .succeed(&kernels[last]);
        TileWavefront { g, tiles }
    }
}

pub struct GpuWavefront {
    ex: Executor,
    wave: TileWavefront,
    /// Mean of each tile's host contents as of the coming op.
    means: Vec<f64>,
    corner: Vec<f32>,
    per_op: Rng,
}

impl GpuWavefront {
    /// The corner tile the recurrence must produce, computed on the CPU:
    /// every tile's mean becomes half its own plus its upper and left
    /// neighbours' new means.
    fn expected_corner(&self) -> Vec<f32> {
        let mut m = vec![0.0f64; GRID * GRID];
        let mut incoming_last = 0.0;
        for i in 0..GRID {
            for j in 0..GRID {
                let n = i * GRID + j;
                let up = if i > 0 { m[n - GRID] } else { 0.0 };
                let left = if j > 0 { m[n - 1] } else { 0.0 };
                m[n] = 0.5 * self.means[n] + up + left;
                incoming_last = up + left;
            }
        }
        self.corner
            .iter()
            .map(|&x| (0.5 * x as f64 + incoming_last) as f32)
            .collect()
    }
}

impl ClosedLoop for GpuWavefront {
    type Inputs = Inputs;

    fn generate(seed: u64) -> Inputs {
        generate(seed)
    }

    fn build(inputs: &Inputs) -> Self {
        GpuWavefront {
            ex: Executor::new(1, 2),
            wave: TileWavefront::build(inputs),
            means: inputs.tiles.iter().map(|t| mean(t)).collect(),
            corner: inputs.tiles[GRID * GRID - 1].clone(),
            per_op: inputs.per_op.clone(),
        }
    }

    fn op(&mut self, rec: &mut Recorder) {
        let id = rec.next_op_id();
        let start = rec.now();
        rec.time(id, "mutate", || {
            let fresh = self.per_op.vec_f32(TILE_ELEMS);
            self.means[0] = mean(&fresh);
            *self.wave.tiles[0].write() = fresh;
            // The previous op's push overwrote the corner tile.
            self.wave.tiles[GRID * GRID - 1]
                .write()
                .copy_from_slice(&self.corner);
        });
        run_and_verify(rec, id, start, &self.ex, &self.wave.g, || {
            let want = self.expected_corner();
            let got = self.wave.tiles[GRID * GRID - 1].read();
            got.len() == want.len()
                && got
                    .iter()
                    .zip(&want)
                    .all(|(g, w)| (g - w).abs() <= 1e-3 * w.abs().max(1.0))
        });
    }

    fn executor(&self) -> &Executor {
        &self.ex
    }
}

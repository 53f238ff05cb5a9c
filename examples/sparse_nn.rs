//! Sparse neural-network inference with task graph parallelism — the
//! "broader workload" the paper's conclusion names as future work
//! (refs [47][48]: large sparse NN inference via GPU task graphs).
//!
//! A sparse MLP is expressed as a Heteroflow graph: the CSR weight
//! arrays of every layer are pulled to the device once; each layer is a
//! kernel task computing `y = relu(W·x + b)` chained through activation
//! buffers; the final push returns the logits. Two independent input
//! batches run as parallel lanes, letting the scheduler overlap layers
//! of different batches across GPUs. Results are verified against a CPU
//! reference.
//!
//! Run: `cargo run --release --example sparse_nn`

use heteroflow::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One sparse layer in CSR form.
#[derive(Clone)]
struct SparseLayer {
    rows: usize,
    cols: usize,
    row_off: Vec<u32>,
    col_idx: Vec<u32>,
    values: Vec<f32>,
    bias: Vec<f32>,
}

impl SparseLayer {
    /// Random layer with the given density.
    fn random(rows: usize, cols: usize, density: f64, rng: &mut StdRng) -> Self {
        let mut row_off = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_off.push(0u32);
        for _ in 0..rows {
            for c in 0..cols {
                if rng.gen_bool(density) {
                    col_idx.push(c as u32);
                    values.push(rng.gen_range(-0.5f32..0.5));
                }
            }
            row_off.push(col_idx.len() as u32);
        }
        let bias = (0..rows).map(|_| rng.gen_range(-0.1f32..0.1)).collect();
        Self {
            rows,
            cols,
            row_off,
            col_idx,
            values,
            bias,
        }
    }

    /// CPU reference: `relu(W x + b)`.
    fn forward_cpu(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.cols);
        (0..self.rows)
            .map(|r| {
                let (s, e) = (self.row_off[r] as usize, self.row_off[r + 1] as usize);
                let mut acc = self.bias[r];
                for k in s..e {
                    acc += self.values[k] * x[self.col_idx[k] as usize];
                }
                acc.max(0.0)
            })
            .collect()
    }
}

fn main() {
    const LAYERS: usize = 4;
    const WIDTH: usize = 256;
    const DENSITY: f64 = 0.08;
    const LANES: usize = 2;

    let mut rng = StdRng::seed_from_u64(0x5EED);
    let layers: Vec<SparseLayer> = (0..LAYERS)
        .map(|_| SparseLayer::random(WIDTH, WIDTH, DENSITY, &mut rng))
        .collect();
    let nnz: usize = layers.iter().map(|l| l.values.len()).sum();
    println!(
        "sparse MLP: {LAYERS} layers x {WIDTH} units, {nnz} non-zeros ({:.0}% dense)",
        DENSITY * 100.0
    );

    let executor = Executor::new(4, 2);
    let g = Heteroflow::new("sparse-nn");

    // Weights are pulled once and shared by all lanes through kernel
    // source lists (Algorithm 1 co-locates every user of a pull with it).
    let weight_pulls: Vec<[PullTask; 4]> = layers
        .iter()
        .enumerate()
        .map(|(li, l)| {
            let vals: HostVec<f32> = HostVec::from_vec(l.values.clone());
            let cols: HostVec<u32> = HostVec::from_vec(l.col_idx.clone());
            let offs: HostVec<u32> = HostVec::from_vec(l.row_off.clone());
            let bias: HostVec<f32> = HostVec::from_vec(l.bias.clone());
            [
                g.pull(&format!("w_vals{li}"), &vals),
                g.pull(&format!("w_cols{li}"), &cols),
                g.pull(&format!("w_offs{li}"), &offs),
                g.pull(&format!("w_bias{li}"), &bias),
            ]
        })
        .collect();

    let mut lane_outputs = Vec::new();
    let mut lane_inputs = Vec::new();
    for lane in 0..LANES {
        let input: Vec<f32> = (0..WIDTH)
            .map(|i| ((i * (lane + 3)) % 17) as f32 / 17.0)
            .collect();
        lane_inputs.push(input.clone());

        // Double-buffered activations per lane.
        let act_a: HostVec<f32> = HostVec::from_vec(input);
        let act_b: HostVec<f32> = HostVec::from_vec(vec![0.0; WIDTH]);
        let pull_a = g.pull(&format!("act_a{lane}"), &act_a);
        let pull_b = g.pull(&format!("act_b{lane}"), &act_b);

        let mut prev: TaskRef = pull_a.as_task();
        let mut cur_in = &pull_a;
        let mut cur_out = &pull_b;
        for (li, layer) in layers.iter().enumerate() {
            let wp = &weight_pulls[li];
            let rows = layer.rows;
            let k = g.kernel(
                &format!("layer{li}_lane{lane}"),
                &[&wp[0], &wp[1], &wp[2], &wp[3], cur_in, cur_out],
                move |cfg, args| {
                    // All six device arrays at once, in place: the layer's
                    // CSR weights, bias and input read-only, the output
                    // writable.
                    const NEED: &str = "a layer kernel needs six disjoint buffers: values \
                        (f32), columns (u32), row offsets (u32), bias (f32), x (f32), y (f32)";
                    let mut s = args.split().expect(NEED);
                    let vals = s.read::<f32>(0).expect(NEED);
                    let colv = s.read::<u32>(1).expect(NEED);
                    let offs = s.read::<u32>(2).expect(NEED);
                    let bias = s.read::<f32>(3).expect(NEED);
                    let (x, y) = (s.read::<f32>(4).expect(NEED), s.write::<f32>(5).expect(NEED));
                    for r in cfg.threads() {
                        if r >= rows {
                            continue;
                        }
                        let (s, e) = (offs[r] as usize, offs[r + 1] as usize);
                        let mut acc = bias[r];
                        for kk in s..e {
                            acc += vals[kk] * x[colv[kk] as usize];
                        }
                        y[r] = acc.max(0.0);
                    }
                },
            );
            k.cover(rows, 128)
                .work_units(layer.values.len() as f64 * 2.0);
            // Weights must be resident before every consumer —
            // dependencies are explicit in Heteroflow, and nothing else
            // orders this lane's kernels after the weight pulls.
            for w in wp {
                k.succeed(w);
            }
            k.succeed(&prev);
            if li == 0 {
                k.succeed(cur_out); // output buffer must be allocated
            }
            prev = k.as_task();
            std::mem::swap(&mut cur_in, &mut cur_out);
        }

        // After an even number of swaps, `cur_in` names the buffer
        // holding the final activations.
        let out_vec = if LAYERS.is_multiple_of(2) { act_a.clone() } else { act_b.clone() };
        let _ = &act_b;
        let push = g.push(&format!("logits{lane}"), cur_in, &out_vec);
        push.succeed(&prev);
        lane_outputs.push(out_vec);
    }

    assert!(g.analyze().is_clean(), "lint:\n{}", g.analyze().render_text());

    let t0 = std::time::Instant::now();
    executor.run(&g).wait().expect("inference graph runs");
    println!("inference of {LANES} lanes took {:.2?}", t0.elapsed());

    // Verify against the CPU reference.
    for (lane, out) in lane_outputs.iter().enumerate() {
        let mut x = lane_inputs[lane].clone();
        for l in &layers {
            x = l.forward_cpu(&x);
        }
        let got = out.to_vec();
        assert_eq!(got.len(), x.len());
        for (a, b) in got.iter().zip(&x) {
            assert!((a - b).abs() < 1e-4, "lane {lane}: {a} vs {b}");
        }
        let top = got
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .expect("non-empty");
        println!("lane {lane}: verified {} outputs; argmax = unit {} ({:.4})", got.len(), top.0, top.1);
    }
    println!("GPU task-graph inference matches the CPU reference");
}

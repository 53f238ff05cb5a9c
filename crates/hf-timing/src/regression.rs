//! Logistic regression with gradient descent — the GPU half of the
//! per-view correlation algorithm ("a GPU-based algorithm to perform
//! logistic regression with gradient descent", §IV-A).
//!
//! The model classifies timing paths as violating/clean from structural
//! features; per-view model weights are then correlated across views.
//! `logistic_kernel` is a Heteroflow GPU kernel operating on pulled
//! device data; [`train_cpu`] is the bit-identical host reference used by
//! tests.

use crate::paths::TimingPath;
use hf_gpu::{KernelArgs, LaunchConfig};
use std::ops::Range;

/// Number of features per path sample (delay, depth, fanout-proxy, CPPR
/// credit) plus an implicit bias handled inside the weight vector.
pub const NUM_FEATURES: usize = 4;

#[inline]
fn sigmoid(z: f32) -> f32 {
    1.0 / (1.0 + (-z).exp())
}

/// Builds the per-view dataset from extracted paths: a flat row-major
/// feature matrix (`n x NUM_FEATURES`, standardized) and 0/1 labels
/// ("violates under a tightened clock").
pub(crate) fn make_dataset(
    paths: &[TimingPath],
    credits: &[f32],
    margin: f32,
) -> (Vec<f32>, Vec<f32>) {
    let n = paths.len();
    let mut x = vec![0.0f32; n * NUM_FEATURES];
    let mut y = vec![0.0f32; n];
    for (i, p) in paths.iter().enumerate() {
        x[i * NUM_FEATURES] = p.delay;
        x[i * NUM_FEATURES + 1] = p.depth() as f32;
        x[i * NUM_FEATURES + 2] =
            p.gates.iter().map(|&g| g as f32).sum::<f32>() / (p.depth().max(1) as f32 * 1000.0);
        x[i * NUM_FEATURES + 3] = credits.get(i).copied().unwrap_or(0.0);
        y[i] = if p.slack < margin { 1.0 } else { 0.0 };
    }
    // Standardize each feature column (guarding zero variance).
    let count = n.max(1) as f32;
    for fcol in 0..NUM_FEATURES {
        let col = || x.iter().skip(fcol).step_by(NUM_FEATURES);
        let mean = col().fold(0.0f32, |s, v| s + v) / count;
        let sd = (col().fold(0.0f32, |s, v| s + (v - mean) * (v - mean)) / count).sqrt();
        for v in x.iter_mut().skip(fcol).step_by(NUM_FEATURES) {
            // A constant feature carries no information: zero it rather
            // than amplify float noise through a tiny divisor.
            *v = if sd < 1e-6 { 0.0 } else { (*v - mean) / sd };
        }
    }
    (x, y)
}

/// Full-batch gradient-descent training, reference CPU implementation.
/// `x` is row-major `n x f`; returns `f + 1` weights (bias last).
pub fn train_cpu(x: &[f32], y: &[f32], f: usize, epochs: usize, lr: f32) -> Vec<f32> {
    assert_eq!(x.len(), y.len() * f, "feature matrix shape mismatch");
    let mut w = vec![0.0f32; f + 1];
    descend(x, y, &mut w, f, 0..y.len(), epochs, lr);
    w
}

/// `epochs` of gradient descent on `w` (`f + 1` weights, bias last) over
/// the samples `rows` of `(x, y)`, each step averaged over all of `y`.
/// [`train_cpu`] and [`logistic_kernel`] both train through it, so their
/// weights agree bit for bit.
fn descend(
    x: &[f32],
    y: &[f32],
    w: &mut [f32],
    f: usize,
    rows: Range<usize>,
    epochs: usize,
    lr: f32,
) {
    let mut grad = vec![0.0f32; f + 1];
    let scale = lr / y.len().max(1) as f32;
    for _ in 0..epochs {
        grad.iter_mut().for_each(|g| *g = 0.0);
        for i in rows.clone() {
            let row = &x[i * f..(i + 1) * f];
            let err = predict(w, row) - y[i];
            for (g, &xv) in grad[..f].iter_mut().zip(row) {
                *g += err * xv;
            }
            grad[f] += err;
        }
        for (wv, g) in w.iter_mut().zip(&grad) {
            *wv -= scale * g;
        }
    }
}

/// The GPU kernel: trains on device-resident data.
///
/// Device arguments (by pull-task position):
/// 0. feature matrix `x` (`n * f` f32, row-major)
/// 1. labels `y` (`n` f32)
/// 2. weights `w` (`f + 1` f32, in/out)
///
/// The launch covers `n` threads; each epoch accumulates per-sample
/// gradient contributions over the thread space, then thread 0 applies
/// the update (a grid-sync-style pattern).
pub(crate) fn logistic_kernel(
    f: usize,
    epochs: usize,
    lr: f32,
) -> impl Fn(&LaunchConfig, &mut KernelArgs<'_, '_>) + Send + Sync + 'static {
    move |cfg, args| {
        let n = args.ptr(1).len_as::<f32>();
        // x and y are read, w is trained in place: disjoint device views.
        let mut parts = args.split().expect("disjoint device allocations");
        let x = parts.read::<f32>(0).expect("features");
        let y = parts.read::<f32>(1).expect("labels");
        let w = parts.write::<f32>(2).expect("weights");
        assert_eq!(x.len(), n * f, "device feature shape mismatch");
        assert!(w.len() > f, "weight buffer too small");
        // The threads of the launch that have a sample.
        let rows = 0..n.min(cfg.total_threads() as usize);
        descend(x, y, w, f, rows, epochs, lr);
    }
}

/// Model prediction for one feature row.
pub(crate) fn predict(w: &[f32], row: &[f32]) -> f32 {
    let f = row.len();
    sigmoid(row.iter().zip(&w[..f]).map(|(a, b)| a * b).sum::<f32>() + w[f])
}

/// Classification accuracy of weights `w` on `(x, y)`.
pub fn accuracy(w: &[f32], x: &[f32], y: &[f32], f: usize) -> f64 {
    let n = y.len();
    if n == 0 {
        return 1.0;
    }
    let correct = (0..n)
        .filter(|&i| {
            let p = predict(w, &x[i * f..(i + 1) * f]);
            (p >= 0.5) == (y[i] >= 0.5)
        })
        .count();
    correct as f64 / n as f64
}

/// Pearson correlation coefficient between two equal-length vectors —
/// the cross-view correlation statistic of the synchronization step.
pub(crate) fn pearson(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len());
    let n = a.len() as f64;
    if n == 0.0 {
        return 0.0;
    }
    let ma = a.iter().map(|&v| v as f64).sum::<f64>() / n;
    let mb = b.iter().map(|&v| v as f64).sum::<f64>() / n;
    let (mut cov, mut va, mut vb) = (0.0, 0.0, 0.0);
    for (&x, &y) in a.iter().zip(b) {
        let (dx, dy) = (x as f64 - ma, y as f64 - mb);
        cov += dx * dy;
        va += dx * dx;
        vb += dy * dy;
    }
    if va <= 0.0 || vb <= 0.0 {
        0.0
    } else {
        cov / (va.sqrt() * vb.sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A linearly separable toy problem: y = 1 iff x0 > 0.
    fn toy(n: usize) -> (Vec<f32>, Vec<f32>) {
        let mut x = Vec::with_capacity(n * NUM_FEATURES);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            let v = if i % 2 == 0 { 1.0 } else { -1.0 };
            x.extend_from_slice(&[v, 0.1 * v, -0.2, 0.05 * i as f32 / n as f32]);
            y.push(if v > 0.0 { 1.0 } else { 0.0 });
        }
        (x, y)
    }

    #[test]
    fn cpu_training_learns_separable_data() {
        let (x, y) = toy(64);
        let w = train_cpu(&x, &y, NUM_FEATURES, 300, 0.5);
        assert!(accuracy(&w, &x, &y, NUM_FEATURES) > 0.95);
        assert!(w[0] > 0.0, "x0 must get positive weight");
    }

    #[test]
    fn pearson_bounds_and_signs() {
        let a = [1.0f32, 2.0, 3.0, 4.0];
        let b = [2.0f32, 4.0, 6.0, 8.0];
        assert!((pearson(&a, &b) - 1.0).abs() < 1e-9);
        let c = [4.0f32, 3.0, 2.0, 1.0];
        assert!((pearson(&a, &c) + 1.0).abs() < 1e-9);
        let z = [5.0f32; 4];
        assert_eq!(pearson(&a, &z), 0.0);
    }

    #[test]
    fn dataset_standardization() {
        use crate::netlist::{Circuit, CircuitConfig};
        use crate::views::make_views;
        let c = Circuit::synthesize(&CircuitConfig {
            num_gates: 300,
            ..Default::default()
        });
        let v = &make_views(1, 0.4)[0];
        let paths = crate::paths::k_critical_paths(&c, v, 50);
        let credits = vec![0.01f32; paths.len()];
        let (x, y) = make_dataset(&paths, &credits, 0.05);
        assert_eq!(x.len(), paths.len() * NUM_FEATURES);
        assert_eq!(y.len(), paths.len());
        // Column means ~0 after standardization.
        for f in 0..NUM_FEATURES {
            let mean: f32 = (0..paths.len())
                .map(|i| x[i * NUM_FEATURES + f])
                .sum::<f32>()
                / paths.len() as f32;
            assert!(mean.abs() < 1e-3, "feature {f} mean {mean}");
        }
        assert!(y.iter().all(|&v| v == 0.0 || v == 1.0));
    }
}

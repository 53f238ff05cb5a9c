//! Wavefront computing — the canonical task-graph workload for
//! task-parallel runtimes (Taskflow ships the same demo).
//!
//! An N×N grid of blocks where block (i, j) depends on (i-1, j) and
//! (i, j-1): ready blocks advance along anti-diagonal "waves". Each
//! block is a GPU kernel updating its tile from the neighbor tiles'
//! boundary values; the dependency pattern exercises exactly the
//! irregular, growing/shrinking parallelism the paper's executor targets.
//!
//! Run: `cargo run --release --example wavefront -- [grid] [tile]`

use heteroflow::prelude::*;

fn main() {
    let mut args = std::env::args().skip(1);
    let grid: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(8);
    let tile: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(64);

    let executor = Executor::new(4, 2);
    let g = Heteroflow::new("wavefront");

    // One device-resident tile per block. Tile (i, j) starts as all
    // zeros except tile (0, 0), which is seeded with ones.
    let tiles: Vec<Vec<HostVec<f32>>> = (0..grid)
        .map(|i| {
            (0..grid)
                .map(|j| {
                    let seed = if i == 0 && j == 0 { 1.0 } else { 0.0 };
                    HostVec::from_vec(vec![seed; tile * tile])
                })
                .collect()
        })
        .collect();

    // Pull every tile once; kernels chain through the dependency grid.
    let pulls: Vec<Vec<PullTask>> = (0..grid)
        .map(|i| {
            (0..grid)
                .map(|j| g.pull(&format!("pull_{i}_{j}"), &tiles[i][j]))
                .collect()
        })
        .collect();

    let mut kernels: Vec<Vec<KernelTask>> = Vec::with_capacity(grid);
    for i in 0..grid {
        let mut row = Vec::with_capacity(grid);
        for j in 0..grid {
            // Sources: own tile + available upper/left neighbors.
            let mut sources: Vec<&PullTask> = vec![&pulls[i][j]];
            if i > 0 {
                sources.push(&pulls[i - 1][j]);
            }
            if j > 0 {
                sources.push(&pulls[i][j - 1]);
            }
            let n_src = sources.len();
            let k = g.kernel(&format!("block_{i}_{j}"), &sources, move |cfg, args| {
                // Each cell becomes the average of itself and the
                // neighbor tiles' mean — information flows along waves.
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
            k.cover(tile * tile, 256)
                .work_units((tile * tile) as f64);
            // Explicit wavefront dependencies.
            k.succeed(&pulls[i][j]);
            if i > 0 {
                k.succeed(&kernels[i - 1][j]);
            }
            if j > 0 {
                k.succeed(&row[j - 1]);
            }
            row.push(k);
        }
        kernels.push(row);
    }

    // Only the final corner tile comes home.
    let last = grid - 1;
    let push = g.push("result", &pulls[last][last], &tiles[last][last]);
    push.succeed(&kernels[last][last]);

    let info = g.info().expect("acyclic");
    println!(
        "wavefront {grid}x{grid} (tile {tile}x{tile}): {} tasks, {} edges, critical path {}",
        info.num_tasks(),
        info.num_edges(),
        info.critical_path_len()
    );

    assert!(g.analyze().is_clean(), "lint:\n{}", g.analyze().render_text());

    let t0 = std::time::Instant::now();
    executor.run(&g).wait().expect("wavefront runs");
    println!("executed in {:.2?}", t0.elapsed());

    // CPU reference of the same recurrence over tile means.
    let mut mean = vec![vec![0.0f64; grid]; grid];
    for i in 0..grid {
        for j in 0..grid {
            let seed = if i == 0 && j == 0 { 1.0 } else { 0.0 };
            let mut incoming = 0.0;
            if i > 0 {
                incoming += mean[i - 1][j];
            }
            if j > 0 {
                incoming += mean[i][j - 1];
            }
            mean[i][j] = 0.5 * seed + incoming;
        }
    }
    let got = {
        let v = tiles[last][last].read();
        v.iter().map(|&x| x as f64).sum::<f64>() / v.len() as f64
    };
    let want = mean[last][last];
    println!("corner tile mean: {got:.6} (reference {want:.6})");
    assert!(
        (got - want).abs() < 1e-3 * want.abs().max(1.0),
        "wavefront result diverged"
    );
    let st = executor.snapshot();
    println!(
        "fused {} chain members; {} steals across workers",
        st.fused, st.steals
    );
}

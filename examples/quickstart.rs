//! Quickstart: the paper's Listing 1 — saxpy ("single-precision A·X plus
//! Y") as a Heteroflow task graph.
//!
//! Two host tasks create the data vectors, two pull tasks send them to a
//! GPU, one kernel task computes `y = a*x + y` on the device, and two
//! push tasks bring the results home (Fig 1).
//!
//! Run: `cargo run --example quickstart`

use heteroflow::prelude::*;

const N: usize = 65536;

fn main() {
    // An executor with 8 CPU worker threads and 4 (software) GPUs.
    let executor = Executor::new(8, 4);
    let g = Heteroflow::new("saxpy");

    let x: HostVec<i32> = HostVec::new();
    let y: HostVec<i32> = HostVec::new();

    // Host tasks run callables on CPU cores. The pulls below see the
    // resized vectors because pull tasks bind their data *statefully* —
    // contents are read when the copy executes, not when it is declared.
    let host_x = g.host("host_x", {
        let x = x.clone();
        move || x.write().resize(N, 1)
    });
    let host_y = g.host("host_y", {
        let y = y.clone();
        move || y.write().resize(N, 2)
    });

    let pull_x = g.pull("pull_x", &x);
    let pull_y = g.pull("pull_y", &y);

    // The kernel binds to its pull tasks (its device-data gateways) and a
    // launch shape, exactly like `<<<grid, block>>>` in Listing 1.
    let a = 2i32;
    let kernel = g.kernel("saxpy", &[&pull_x, &pull_y], move |cfg, args| {
        let mut parts = args.split().expect("disjoint buffers");
        let xs = parts.read::<i32>(0).expect("x");
        let ys = parts.write::<i32>(1).expect("y");
        for i in cfg.threads() {
            if i < N {
                ys[i] += a * xs[i];
            }
        }
    });
    kernel.block_x(256).grid_x((N as u32).div_ceil(256));

    let push_x = g.push("push_x", &pull_x, &x);
    let push_y = g.push("push_y", &pull_y, &y);

    // Dependencies are explicit; Heteroflow never adds implicit edges.
    host_x.precede(&pull_x);
    host_y.precede(&pull_y);
    kernel.succeed_all(&[&pull_x, &pull_y]);
    kernel.precede_all(&[&push_x, &push_y]);

    // The static analyzer confirms the graph is well-formed before it
    // ever runs (no races, no missing pull dependencies, no dead tasks).
    assert!(
        g.analyze().is_clean(),
        "lint:\n{}",
        g.analyze().render_text()
    );

    // Non-blocking submission; the future reports completion.
    let future = executor.run(&g);
    future.wait().expect("saxpy graph runs");

    let ys = y.read();
    assert!(ys.iter().all(|&v| v == 4), "y = 2*1 + 2 everywhere");
    println!(
        "saxpy over {N} elements: y[0..4] = {:?} (expected all 4s)",
        &ys[..4]
    );
    println!(
        "\nTask graph in DOT (render with `dot -Tpng`):\n{}",
        g.dump()
    );
}

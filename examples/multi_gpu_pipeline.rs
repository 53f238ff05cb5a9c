//! The Fig 3 / Listing 10 graph: two kernels sharing device data through
//! *transitive* dependencies, scheduled across multiple GPUs.
//!
//! `kernel2` reads `pull1`'s device data without a direct edge from
//! `pull1`: the path `pull1 -> kernel1 -> kernel2` orders them, and
//! Algorithm 1 guarantees both kernels land on the same GPU as their
//! shared pull ("applications can efficiently reuse data without adding
//! redundant task dependencies", §III-A.5).
//!
//! Run: `cargo run --example multi_gpu_pipeline`

use heteroflow::prelude::*;

fn main() {
    let executor = Executor::new(4, 4);
    let g = Heteroflow::new("fig3");

    let vec1: HostVec<i32> = HostVec::new();
    let vec2: HostVec<i32> = HostVec::new();

    let host1 = g.host("host1", {
        let v = vec1.clone();
        move || v.write().resize(100, 0)
    });
    let host2 = g.host("host2", {
        let v = vec2.clone();
        move || v.write().resize(100, 1)
    });

    let pull1 = g.pull("pull1", &vec1);
    let pull2 = g.pull("pull2", &vec2);

    // k1(vec1): add 10 to every element.
    let kernel1 = g.kernel("kernel1", &[&pull1], |cfg, args| {
        let v = args.slice_mut::<i32>(0).expect("pull1 data");
        for i in cfg.threads() {
            if i < v.len() {
                v[i] += 10;
            }
        }
    });
    kernel1.cover(100, 32);

    // k2(vec1, vec2): vec2 += vec1 — reuses pull1's device data via the
    // transitive dependency through kernel1.
    let kernel2 = g.kernel("kernel2", &[&pull1, &pull2], |cfg, args| {
        let mut parts = args.split().expect("disjoint");
        let v1 = parts.read::<i32>(0).expect("vec1");
        let v2 = parts.write::<i32>(1).expect("vec2");
        for i in cfg.threads() {
            if i < v2.len() {
                v2[i] += v1[i];
            }
        }
    });
    kernel2.cover(100, 32);

    let push1 = g.push("push1", &pull1, &vec1);
    let push2 = g.push("push2", &pull2, &vec2);

    // Exactly the dependency set of Listing 10.
    host1.precede(&pull1);
    host2.precede(&pull2);
    pull1.precede(&kernel1);
    pull2.precede(&kernel2);
    kernel1.precede_all(&[&push1, &kernel2]);
    kernel2.precede(&push2);

    assert!(g.analyze().is_clean(), "lint:\n{}", g.analyze().render_text());

    executor.run(&g).wait().expect("fig3 graph runs");

    assert!(vec1.read().iter().all(|&v| v == 10));
    assert!(vec2.read().iter().all(|&v| v == 11), "1 + (0 + 10)");
    println!("kernel chain result: vec1[0]={}, vec2[0]={}", vec1.read()[0], vec2.read()[0]);

    // Run several unrelated graphs concurrently on the same executor —
    // the executor interface is thread-safe and non-blocking (§III-B).
    let futures: Vec<(HostVec<i64>, RunFuture)> = (0..4)
        .map(|i| {
            let data: HostVec<i64> = HostVec::from_vec((0..1000).collect());
            let gi = Heteroflow::new(&format!("pipeline{i}"));
            let p = gi.pull("in", &data);
            let k = gi.kernel("scale", &[&p], move |cfg, args| {
                let v = args.slice_mut::<i64>(0).expect("data");
                for t in cfg.threads() {
                    if t < v.len() {
                        v[t] *= (i + 1) as i64;
                    }
                }
            });
            k.cover(1000, 128);
            let s = gi.push("out", &p, &data);
            p.precede(&k);
            k.precede(&s);
            let fut = executor.run(&gi);
            (data, fut)
        })
        .collect();
    for (i, (data, fut)) in futures.into_iter().enumerate() {
        fut.wait().expect("pipeline runs");
        assert_eq!(data.read()[10], 10 * (i as i64 + 1));
    }
    println!("4 concurrent pipelines placed across {} GPUs", executor.num_gpus());

    // Device placement is observable through the pool statistics.
    for d in executor.gpu_runtime().devices() {
        let st = d.stats();
        println!(
            "GPU {}: {} kernels, {} H2D bytes, {} D2H bytes",
            d.id(),
            st.kernels.load(std::sync::atomic::Ordering::Relaxed),
            st.h2d_bytes.load(std::sync::atomic::Ordering::Relaxed),
            st.d2h_bytes.load(std::sync::atomic::Ordering::Relaxed),
        );
    }
}

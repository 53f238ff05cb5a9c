//! Data-movement fast path: transfer elision, pull-buffer persistence
//! across rounds and resubmissions, and pipelined (chunked) copies.

use heteroflow::core::{SpanCat, TraceCollector, Track};
use heteroflow::prelude::*;
use std::sync::Arc;

/// pull -> push round trip with no kernel: after one round the device
/// bytes mirror the host bytes exactly.
fn copy_through(n: usize) -> (Heteroflow, HostVec<i32>) {
    let data = HostVec::from_vec(vec![7i32; n]);
    let g = Heteroflow::new("copy");
    let p = g.pull("pull", &data);
    let s = g.push("push", &p, &data);
    p.precede(&s);
    (g, data)
}

/// pull -> kernel(+1) -> push: each round increments every element, so
/// stale device bytes are visible as wrong values.
fn increment_graph(data: &HostVec<i32>, n: usize) -> Heteroflow {
    let g = Heteroflow::new("incr");
    let p = g.pull("pull", data);
    let k = g.kernel("incr", &[&p], |cfg, args| {
        let v = args.slice_mut::<i32>(0).expect("arg");
        for t in cfg.threads() {
            if t < v.len() {
                v[t] += 1;
            }
        }
    });
    k.cover(n, 128);
    let s = g.push("push", &p, data);
    p.precede(&k);
    k.precede(&s);
    g
}

/// The pull buffer is allocated once and reused across every round of a
/// multi-round run: the pool sees one allocation, not one per round.
#[test]
fn pull_buffer_persists_across_rounds() {
    const N: usize = 1024;
    let ex = Executor::new(2, 1);
    let (g, data) = copy_through(N);
    ex.run_n(&g, 8).wait().expect("runs");
    assert!(data.read().iter().all(|&v| v == 7));
    let allocs: u64 = ex
        .gpu_runtime()
        .devices()
        .iter()
        .map(|d| d.pool_stats().allocs)
        .sum();
    assert_eq!(allocs, 1, "one pull buffer allocated, reused every round");
}

/// With unchanged host data, every round after the first elides its H2D
/// copy (push wrote the same bytes back, revalidating residency).
#[test]
fn unchanged_rounds_elide_h2d_copies() {
    const N: usize = 1024;
    const ROUNDS: u64 = 8;
    let ex = Executor::new(2, 1);
    let (g, data) = copy_through(N);
    ex.run_n(&g, ROUNDS as usize).wait().expect("runs");
    assert!(data.read().iter().all(|&v| v == 7));
    let s = ex.snapshot();
    assert_eq!(
        s.transfers_elided,
        ROUNDS - 1,
        "all but the first round elide"
    );
    assert_eq!(s.bytes_h2d, (N * 4) as u64, "exactly one real H2D copy");
    assert_eq!(
        s.bytes_d2h,
        ROUNDS * (N * 4) as u64,
        "push copies every round"
    );
}

/// Resubmitting the same graph elides the pull: residency survives
/// between `run` calls because the frozen snapshot is cached.
#[test]
fn resubmission_elides_h2d() {
    const N: usize = 512;
    let ex = Executor::new(2, 1);
    let (g, data) = copy_through(N);
    ex.run(&g).wait().expect("first run");
    ex.run(&g).wait().expect("second run");
    assert!(data.read().iter().all(|&v| v == 7));
    let s = ex.snapshot();
    assert_eq!(s.transfers_elided, 1, "second submission skips the copy");
    assert_eq!(s.bytes_h2d, (N * 4) as u64);
}

/// Mutating the host vector between runs invalidates residency: the next
/// pull re-copies and the kernel sees the new values, never stale bytes.
#[test]
fn host_mutation_forces_recopy() {
    const N: usize = 256;
    let ex = Executor::new(2, 1);
    let data = HostVec::from_vec(vec![0i32; N]);
    let g = increment_graph(&data, N);

    ex.run(&g).wait().expect("first run");
    assert!(data.read().iter().all(|&v| v == 1));

    data.write().iter_mut().for_each(|v| *v = 10);
    ex.run(&g).wait().expect("second run");
    // Stale elision would leave the device at 1 and produce 2 here.
    assert!(
        data.read().iter().all(|&v| v == 11),
        "kernel must see mutated host data, got {:?}...",
        &data.read()[..4]
    );
    assert_eq!(ex.snapshot().transfers_elided, 0);
}

/// Transfers above the chunk threshold are split across copy lanes and
/// reassemble to exactly the right bytes in both directions.
#[test]
fn chunked_copies_are_correct() {
    const N: usize = 1000; // 4000 bytes -> 63 chunks at a 64-byte threshold
    let ex = Executor::builder(2, 1)
        .copy_chunk_threshold(64)
        .copy_lanes(3)
        .build();
    let data = HostVec::from_vec((0..N as i32).collect());
    let g = increment_graph(&data, N);
    ex.run(&g).wait().expect("runs");
    let d = data.read();
    for (i, &v) in d.iter().enumerate() {
        assert_eq!(v, i as i32 + 1, "element {i}");
    }
    let s = ex.snapshot();
    assert_eq!(s.bytes_h2d, (N * 4) as u64);
    assert_eq!(s.bytes_d2h, (N * 4) as u64);
}

/// The chunked path participates in elision too: an unchanged rerun
/// skips the whole pipelined copy.
#[test]
fn chunked_copy_elides_on_rerun() {
    const N: usize = 2048;
    let ex = Executor::builder(2, 1).copy_chunk_threshold(256).build();
    let (g, data) = copy_through(N);
    ex.run(&g).wait().expect("first run");
    ex.run(&g).wait().expect("second run");
    assert!(data.read().iter().all(|&v| v == 7));
    let s = ex.snapshot();
    assert_eq!(s.transfers_elided, 1);
    assert_eq!(s.bytes_h2d, (N * 4) as u64, "only the first run copies");
}

/// Chunked copies show up in the stitched trace as per-chunk device
/// spans, while the task itself still appears exactly once under its
/// canonical name (the telemetry exactly-once invariant).
#[test]
fn chunked_copy_traces_per_chunk_spans() {
    const N: usize = 4096; // 16 KiB -> 4 chunks
    let trace = TraceCollector::shared();
    let ex = Executor::builder(2, 1)
        .copy_chunk_threshold(4096)
        .copy_lanes(2)
        .tracer(Arc::clone(&trace))
        .build();
    let data = HostVec::from_vec(vec![1i32; N]);
    let g = increment_graph(&data, N);
    ex.run(&g).wait().expect("runs");
    drop(ex);
    let spans = trace.spans();
    let chunk_spans: Vec<_> = spans
        .iter()
        .filter(|s| {
            matches!(s.track, Track::Device(_)) && s.cat == SpanCat::Task && s.name.contains("#c")
        })
        .collect();
    assert!(
        chunk_spans.len() >= 4,
        "expected per-chunk spans, got {:?}",
        spans.iter().map(|s| s.name.as_str()).collect::<Vec<_>>()
    );
    // The canonical task names still appear exactly once each.
    for name in ["pull", "incr", "push"] {
        let n = spans
            .iter()
            .filter(|s| s.cat == SpanCat::Task && s.name == name)
            .count();
        assert_eq!(n, 1, "{name} appears exactly once");
    }
}

/// Running the cached graph on a different executor (different devices)
/// must not reuse the first executor's residency: the buffer reallocates
/// on the new device and the data stays correct.
#[test]
fn cross_executor_rerun_reallocates() {
    const N: usize = 512;
    let ex1 = Executor::new(2, 1);
    let ex2 = Executor::new(2, 1);
    let data = HostVec::from_vec(vec![0i32; N]);
    let g = increment_graph(&data, N);

    ex1.run(&g).wait().expect("first executor");
    assert!(data.read().iter().all(|&v| v == 1));
    ex2.run(&g).wait().expect("second executor");
    assert!(
        data.read().iter().all(|&v| v == 2),
        "second executor must copy fresh data, got {:?}...",
        &data.read()[..4]
    );
    assert_eq!(ex2.snapshot().transfers_elided, 0);
}

// ---- the transfer engine: one version per buffer, one op per chunk ----

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicUsize, Ordering};

/// 4000 bytes against a 64-byte threshold: 63 chunks over 3 lanes.
fn chunking_executor(retries: u32) -> Executor {
    Executor::builder(2, 1)
        .copy_chunk_threshold(64)
        .copy_lanes(3)
        .retry_policy(RetryPolicy::new(retries))
        .build()
}

/// Chunks of 1 MiB, the copy split: each chunk is copied on two cores.
fn large_chunk_executor(retries: u32) -> Executor {
    Executor::builder(2, 1)
        .copy_chunk_threshold(1 << 20)
        .copy_lanes(3)
        .retry_policy(RetryPolicy::new(retries))
        .build()
}

/// Adds a kernel after `pull` that reports what it saw of the buffer:
/// its first element, or `MIXED` if the elements are not all the same.
const MIXED: i64 = i64::MIN;
fn observe_uniform(g: &Heteroflow, pull: &PullTask) -> Arc<AtomicI64> {
    let seen = Arc::new(AtomicI64::new(MIXED));
    let out = Arc::clone(&seen);
    let k = g.kernel("observe", &[pull], move |_, args| {
        let v = args.slice::<i32>(0).expect("arg");
        let uniform = v.iter().all(|&x| x == v[0]);
        out.store(if uniform { v[0] as i64 } else { MIXED }, Ordering::SeqCst);
    });
    pull.precede(&k);
    seen
}

/// A host thread rewrites the whole vector with one value per write guard
/// while chunked pulls of it run. Whatever the interleaving, the kernel
/// sees one version's bytes (never a mix of two), and never bytes older
/// than the last write that finished before the run was submitted.
#[test]
fn chunked_pull_under_a_writer_holds_one_version() {
    const N: usize = 1000;
    let ex = chunking_executor(1);
    let data = HostVec::from_vec(vec![0i32; N]);
    let g = Heteroflow::new("writer");
    let seen = observe_uniform(&g, &g.pull("pull", &data));

    let written = AtomicI64::new(0);
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut value = 0;
            while !stop.load(Ordering::SeqCst) {
                value += 1;
                data.write().iter_mut().for_each(|x| *x = value);
                written.store(value as i64, Ordering::SeqCst);
                std::thread::yield_now();
            }
        });
        for run in 0..150 {
            let floor = written.load(Ordering::SeqCst);
            ex.run(&g).wait().expect("runs");
            let got = seen.load(Ordering::SeqCst);
            assert_ne!(got, MIXED, "run {run}: kernel saw bytes of two versions");
            assert!(
                got >= floor,
                "run {run}: kernel saw {got}, written before submit: {floor}"
            );
        }
        stop.store(true, Ordering::SeqCst);
    });
    assert_eq!(
        ex.snapshot().transfers_elided,
        0,
        "the source changed before every run"
    );
}

/// A source that changes under the transfer at a fixed point: its fifth
/// borrow first rewrites the vector. The first chunks copied the old
/// version, so the join must copy the whole span again; the kernel sees
/// only the new value and the fallback is counted once.
#[derive(Clone)]
struct ChangesOnFifthBorrow {
    inner: HostVec<i32>,
    borrows: Arc<AtomicUsize>,
}

impl heteroflow::core::data::HostSource for ChangesOnFifthBorrow {
    fn byte_len(&self) -> usize {
        self.inner.byte_len()
    }
    fn version(&self) -> Option<u64> {
        Some(self.inner.version())
    }
    fn with_bytes(&self, f: &mut dyn FnMut(&[u8], Option<u64>)) {
        if self.borrows.fetch_add(1, Ordering::SeqCst) == 4 {
            self.inner.write().iter_mut().for_each(|x| *x = 2);
        }
        self.inner.with_bytes(f)
    }
}

fn torn_pull_recopies_one_version(ex: Executor, n: usize) {
    let src = ChangesOnFifthBorrow {
        inner: HostVec::from_vec(vec![1i32; n]),
        borrows: Arc::default(),
    };
    let g = Heteroflow::new("torn");
    let seen = observe_uniform(&g, &g.pull("pull", &src));
    ex.run(&g).wait().expect("runs");
    assert_eq!(seen.load(Ordering::SeqCst), 2);
    let s = ex.snapshot();
    assert_eq!(s.transfers_torn, 1);
    assert_eq!(
        s.bytes_h2d,
        4 * n as u64,
        "the task's bytes are counted once"
    );
}

#[test]
fn torn_chunked_pull_recopies_one_version() {
    torn_pull_recopies_one_version(chunking_executor(1), 1000);
}

/// The same above the copy split: six 1 MiB chunks, each copied on two
/// cores, and a 5 MiB re-copy at the join.
#[test]
fn torn_pull_above_the_copy_split_recopies_one_version() {
    torn_pull_recopies_one_version(large_chunk_executor(1), (5 << 20) / 4 + 1);
}

/// A foreign source that implements only the two required methods lends
/// its bytes with no version, so it has none to check chunks against: it
/// pulls through the single-op path whatever its size, copies the right
/// bytes, and never elides.
#[derive(Clone)]
struct Unversioned(Arc<Vec<u8>>);

impl heteroflow::core::data::HostSource for Unversioned {
    fn with_bytes(&self, f: &mut dyn FnMut(&[u8], Option<u64>)) {
        f(&self.0, None)
    }
    fn byte_len(&self) -> usize {
        self.0.len()
    }
}

#[test]
fn unversioned_source_pulls_in_one_op_and_never_elides() {
    let ex = chunking_executor(1);
    let bytes: Vec<u8> = (0..4000u32).map(|i| (i % 251) as u8).collect();
    let out: HostVec<u8> = HostVec::new();
    let g = Heteroflow::new("foreign");
    let p = g.pull("pull", &Unversioned(Arc::new(bytes.clone())));
    g.push("push", &p, &out).succeed(&p);

    let dev = ex.gpu_runtime().device(0).expect("device 0");
    for run in 1..=3u64 {
        let before = dev.stats().ops.load(Ordering::Relaxed);
        ex.run(&g).wait().expect("runs");
        dev.synchronize();
        let ops = dev.stats().ops.load(Ordering::Relaxed) - before;
        assert!(ops <= 4, "pull + push in one op each, got {ops} ops");
        assert_eq!(out.to_vec(), bytes);
        let s = ex.snapshot();
        assert_eq!(s.transfers_elided, 0);
        assert_eq!(s.bytes_h2d, run * 4000);
    }
}

/// A kernel draws its fault before its effect, and dropping its sources'
/// residency is part of the effect: after a faulted kernel the pulled
/// bytes still match the host, so the next run elides its pull and the
/// kernel applies exactly once.
#[test]
fn faulted_kernel_keeps_its_sources_resident() {
    const N: usize = 256;
    let ex = Executor::new(1, 1);
    let data = HostVec::from_vec(vec![0i32; N]);
    let g = increment_graph(&data, N);
    ex.gpu_runtime()
        .set_fault_plan(Some(FaultPlan::seeded(5).fail(FaultSite::Kernel, 1.0)));
    let e = ex.run(&g).wait().expect_err("the kernel faults");
    assert!(
        matches!(e.gpu_cause(), Some(GpuError::FaultInjected { .. })),
        "{e}"
    );
    ex.gpu_runtime().set_fault_plan(None);
    ex.run(&g).wait().expect("second run");
    assert!(data.read().iter().all(|&v| v == 1));
    assert_eq!(ex.snapshot().transfers_elided, 1);
}

/// Pushes are one op whatever their size, so a D2H fault fires before a
/// single byte reaches the sink: the run either retries to the right
/// bytes or fails structured with the sink exactly as it was.
fn push_fault_is_all_or_nothing(executor: fn(u32) -> Executor, n: usize) {
    let (mut retried, mut failed) = (0, 0);
    for seed in 0..24u64 {
        let ex = executor(2);
        let data = HostVec::from_vec((0..n as i32).collect());
        let out = HostVec::from_vec(vec![-1i32; n]);
        let g = Heteroflow::new("push_fault");
        let p = g.pull("pull", &data);
        g.push("push", &p, &out).succeed(&p);
        ex.gpu_runtime()
            .set_fault_plan(Some(FaultPlan::seeded(seed).fail(FaultSite::D2h, 0.5)));
        match ex.run(&g).wait() {
            Ok(()) => {
                assert_eq!(out.to_vec(), data.to_vec(), "seed {seed}");
                retried += ex.snapshot().retries;
            }
            Err(e) => {
                assert!(
                    matches!(e.gpu_cause(), Some(GpuError::FaultInjected { .. })),
                    "seed {seed}: {e}"
                );
                assert!(
                    out.read().iter().all(|&v| v == -1),
                    "seed {seed}: sink half-written"
                );
                failed += 1;
            }
        }
    }
    assert!(
        retried > 0 && failed > 0,
        "both outcomes exercised: {retried} retried, {failed} failed"
    );
}

#[test]
fn faulted_large_push_is_all_or_nothing() {
    push_fault_is_all_or_nothing(chunking_executor, 1000);
}

/// The same with a push above the copy split, which the sink copies on
/// two cores.
#[test]
fn faulted_push_above_the_copy_split_is_all_or_nothing() {
    push_fault_is_all_or_nothing(large_chunk_executor, (1 << 20) / 4 + 1000);
}

/// 3 MiB + 4 B through pull -> kernel -> push, chunked at 1 MiB and in one
/// op: every copy of 1 MiB or more takes the split path, the 4-byte tail
/// and a short last chunk do not. The kernel maps each element `x` to
/// `3x + 1`, so the host holding exactly that proves both directions.
#[test]
fn round_trip_above_the_copy_split_is_exact() {
    const N: usize = (3 << 20) / 4 + 1;
    let input: Vec<i32> = (0..N as i32)
        .map(|i| i.wrapping_mul(-1_640_531_535))
        .collect();
    for chunk in [1 << 20, usize::MAX] {
        let ex = Executor::builder(2, 1)
            .copy_chunk_threshold(chunk)
            .copy_lanes(2)
            .build();
        let data = HostVec::from_vec(input.clone());
        let g = Heteroflow::new("large");
        let p = g.pull("pull", &data);
        let k = g.kernel("affine", &[&p], |cfg, args| {
            let v = args.slice_mut::<i32>(0).expect("arg");
            for t in cfg.threads() {
                if t < v.len() {
                    v[t] = v[t].wrapping_mul(3).wrapping_add(1);
                }
            }
        });
        k.cover(N, 256);
        let s = g.push("push", &p, &data);
        p.precede(&k);
        k.precede(&s);
        ex.run(&g).wait().expect("runs");
        let got = data.read();
        assert_eq!(got.len(), N);
        for (i, (&x, &y)) in input.iter().zip(got.iter()).enumerate() {
            assert_eq!(
                y,
                x.wrapping_mul(3).wrapping_add(1),
                "chunk {chunk}: element {i}"
            );
        }
        let snap = ex.snapshot();
        assert_eq!(snap.bytes_h2d, 4 * N as u64, "chunk {chunk}");
        assert_eq!(snap.bytes_d2h, 4 * N as u64, "chunk {chunk}");
    }
}

/// One engine op per chunk: a 64-chunk pull costs the open op and its
/// event, a wait and a signal per lane, a wait per lane on the task's
/// stream, the join, and the chain's completion callback.
#[test]
fn chunked_pull_costs_one_op_per_chunk() {
    const LANES: u64 = 3;
    let ex = chunking_executor(1);
    let data = HostVec::from_vec(vec![0i32; 1024]); // 4096 B = 64 chunks
    let g = Heteroflow::new("ops");
    g.pull("pull", &data);
    let dev = ex.gpu_runtime().device(0).expect("device 0");
    for run in 0..3 {
        data.write()[0] = run;
        let before = dev.stats().ops.load(Ordering::Relaxed);
        ex.run(&g).wait().expect("runs");
        dev.synchronize();
        let ops = dev.stats().ops.load(Ordering::Relaxed) - before;
        assert!(ops <= 64 + 3 * LANES + 4, "run {run}: {ops} engine ops");
        assert!(ops >= 64, "run {run}: every chunk is its own op, got {ops}");
    }
    assert_eq!(ex.snapshot().bytes_h2d, 3 * 4096);
}

/// A pull never waits behind an unrelated kernel chain of the same worker:
/// it rides the copy lane, so on one device the engine runs it between two
/// of the chain's kernels, and its host successor finishes while the chain
/// still occupies the device. (On the compute stream the pull would run
/// only after the whole chain and its callback.)
#[test]
fn a_pull_does_not_queue_behind_an_unrelated_kernel_chain() {
    use std::sync::Mutex;
    use std::time::{Duration, Instant};
    const OCCUPANCY: Duration = Duration::from_millis(20);
    let ex = Executor::new(1, 1);
    let g = Heteroflow::new("head-of-line");
    let started = Arc::new(AtomicBool::new(false));
    let ends: Arc<Mutex<[Option<Instant>; 3]>> = Arc::default();
    let mut prev: Option<heteroflow::core::KernelTask> = None;
    for k in 0..3 {
        let (started, ends) = (Arc::clone(&started), Arc::clone(&ends));
        let kernel = g.kernel(&format!("busy{k}"), &[], move |_, _| {
            started.store(true, Ordering::Release);
            std::thread::sleep(OCCUPANCY);
            ends.lock().unwrap()[k] = Some(Instant::now());
        });
        if let Some(p) = &prev {
            kernel.succeed(p);
        }
        prev = Some(kernel);
    }
    let data = HostVec::from_vec(vec![1u8; 4096]);
    let release = g.host("release", {
        let started = Arc::clone(&started);
        move || {
            // The kernel chain goes to the device first; wait until it runs.
            let deadline = Instant::now() + Duration::from_secs(10);
            while !started.load(Ordering::Acquire) {
                assert!(Instant::now() < deadline, "the kernel chain never started");
                std::thread::yield_now();
            }
        }
    });
    let pull = g.pull("pull", &data);
    let after_at: Arc<Mutex<Option<Instant>>> = Arc::default();
    let after = g.host("after", {
        let after_at = Arc::clone(&after_at);
        move || *after_at.lock().unwrap() = Some(Instant::now())
    });
    release.precede(&pull);
    pull.precede(&after);
    // The first run on a fresh executor opens the pull's copy lane while
    // `busy0` runs, and the engine's next pick after `busy0` must still
    // reach it; the second run finds the lane open. The pull's completion
    // callback is an op of its own behind it on the lane, so the
    // round-robin serves `busy1` in between: the successor finishes while
    // `busy2` still occupies the device.
    for run in 0..2 {
        started.store(false, Ordering::Release);
        *ends.lock().unwrap() = [None; 3];
        *after_at.lock().unwrap() = None;
        ex.run(&g).wait().expect("runs");
        let after_at = after_at.lock().unwrap().expect("after ran");
        let busy2_end = ends.lock().unwrap()[2].expect("busy2 ran");
        assert!(
            after_at < busy2_end,
            "run {run}: the pull's successor finished {:?} after the kernel chain",
            after_at - busy2_end
        );
    }
}

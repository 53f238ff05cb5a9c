//! The rungs: isolated timings of single layers through their public
//! calls. Each rung repeats a batch for its window and reports the median
//! batch with quartiles. They do not depend on the workload being traced;
//! they say what one deque op, one wake, one launch, one chunk, one plan
//! or one admission costs on this box today.

use crate::stats::{median, Summary};
use crate::trace::{durations_ms, Recorder};
use crate::workloads::gpu_wavefront::TileWavefront;
use crate::workloads::sched_host::{HostWavefront, SIDE};
use crate::workloads::stream_serving::{self, ServingRound, StreamServing};
use crate::workloads::{app_place, app_timing, gpu_wavefront, workers, Workload};
use hf_core::data::HostVec;
use hf_core::{Executor, Fleet, FleetConfig, Heteroflow, TenantConfig, TraceCollector};
use hf_gpu::{Event, GpuConfig, GpuRuntime, LaunchConfig, Stream};
use hf_sync::{Injector, Notifier, SlotCache, Steal, StealDeque, UnionFind};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

const MIB: usize = 1 << 20;
const GIB: f64 = (1u64 << 30) as f64;
/// Batches behind a light rung's median.
const LIGHT: usize = 20;
/// Batches behind a rung whose single batch takes tens of milliseconds.
const HEAVY: usize = 3;

pub type Rungs = Vec<(&'static str, Summary)>;

/// Repeats `batch` for `window` and at least `min` times; each call
/// returns one sample of the rung's figure.
fn sample(window: Duration, min: usize, mut batch: impl FnMut() -> f64) -> Summary {
    let t0 = Instant::now();
    let mut v = Vec::new();
    while v.len() < min || t0.elapsed() < window {
        v.push(batch());
    }
    Summary::of(v)
}

/// Nanoseconds per call of `f` over `n` calls.
fn ns_per(n: usize, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..n {
        f();
    }
    t.elapsed().as_nanos() as f64 / n as f64
}

fn secs(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

fn ratio_of(num: Summary, den: Summary) -> Summary {
    Summary {
        value: num.value / den.value,
        q1: num.q1 / den.q3,
        q3: num.q3 / den.q1,
        n: num.n.min(den.n),
    }
}

pub fn run_all(seed: u64, window: Duration) -> Rungs {
    let mut out = Rungs::new();
    out.extend(hf_sync(window));
    let memcpy = memcpy_raw(window);
    out.extend(hf_gpu(window));
    out.extend(plan(seed, window));
    out.extend(sched(window));
    out.extend(xfer(window, memcpy));
    out.push(("hf-gpu.memcpy_raw_gib_s", memcpy));
    out.extend(stream(seed, window));
    out.extend(fleet_and_telemetry(window));
    out.extend(timing(seed, window));
    out.extend(place(seed, window));
    out
}

fn hf_sync(window: Duration) -> Rungs {
    const N: usize = 1024;
    let deque: StealDeque<u64> = StealDeque::new();
    let push_pop = sample(window, LIGHT, || {
        ns_per(N, || deque.push(black_box(1)))
            + ns_per(N, || {
                black_box(deque.pop());
            })
    });

    // One owner keeps the deque stocked while this thread steals.
    let stealer = deque.stealer();
    let stop = AtomicBool::new(false);
    let steal = std::thread::scope(|scope| {
        scope.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                if deque.len() < 4 * N {
                    deque.push(1);
                }
            }
        });
        let s = sample(window, LIGHT, || {
            let t = Instant::now();
            let mut got = 0;
            while got < N {
                if let Steal::Success(v) = stealer.steal() {
                    black_box(v);
                    got += 1;
                }
            }
            t.elapsed().as_nanos() as f64 / N as f64
        });
        stop.store(true, Ordering::Relaxed);
        s
    });

    let injector: Injector<u64> = Injector::new();
    let items = [7u64; 64];
    let inject = sample(window, LIGHT, || {
        ns_per(16, || {
            injector.push_batch(black_box(&items));
            injector.pop_batch(64, |v| {
                black_box(v);
            });
        }) / 64.0
    });

    let cache = SlotCache::new(16);
    let slot = sample(window, LIGHT, || {
        ns_per(N, || {
            cache.try_put(black_box(5));
            black_box(cache.try_take());
        })
    });

    let n = 4096;
    let uf = sample(window, LIGHT, || {
        let mut uf = UnionFind::new(n);
        let t = Instant::now();
        for i in 0..n {
            uf.union(i, (i * 7 + 1) % n);
        }
        for i in 0..n {
            black_box(uf.find(i));
        }
        t.elapsed().as_nanos() as f64 / (2 * n) as f64
    });

    vec![
        ("hf-sync.deque_push_pop_ns", push_pop),
        ("hf-sync.deque_steal_ns", steal),
        ("hf-sync.injector_batch_ns_per_item", inject),
        ("hf-sync.notifier_wake_us", notifier_wake(window)),
        ("hf-sync.slotcache_put_take_ns", slot),
        ("hf-sync.unionfind_ns_per_op", uf),
    ]
}

/// Two threads hand a turn back and forth, each parking in `commit_wait`
/// until the other's `notify_one`: half the round trip is one wake.
fn notifier_wake(window: Duration) -> Summary {
    fn wait_until(n: &Notifier, ready: impl Fn() -> bool) {
        while !ready() {
            let token = n.prepare_wait();
            if ready() {
                n.cancel_wait(token);
                return;
            }
            n.commit_wait(token);
        }
    }
    const MINE: u32 = 0;
    const THEIRS: u32 = 1;
    const STOP: u32 = 2;
    let (ping, pong) = (Notifier::new(), Notifier::new());
    let turn = AtomicU32::new(MINE);
    std::thread::scope(|scope| {
        scope.spawn(|| loop {
            wait_until(&pong, || turn.load(Ordering::SeqCst) != MINE);
            if turn.load(Ordering::SeqCst) == STOP {
                return;
            }
            turn.store(MINE, Ordering::SeqCst);
            ping.notify_one();
        });
        let s = sample(window, LIGHT, || {
            let mut trips = Vec::with_capacity(32);
            for _ in 0..32 {
                let t = Instant::now();
                turn.store(THEIRS, Ordering::SeqCst);
                pong.notify_one();
                wait_until(&ping, || turn.load(Ordering::SeqCst) == MINE);
                trips.push(t.elapsed().as_nanos() as f64 / 2e3);
            }
            median(trips)
        });
        turn.store(STOP, Ordering::SeqCst);
        pong.notify_one();
        s
    })
}

/// `copy_from_slice` over 64 MiB in 8 MiB pieces, source and destination
/// distinct: several times any last-level cache here, so this is memory
/// bandwidth, the ceiling a transfer can reach.
fn memcpy_raw(window: Duration) -> Summary {
    let src = vec![1u8; 64 * MIB];
    let mut dst = vec![0u8; 64 * MIB];
    sample(window, HEAVY, || {
        let t = secs(|| {
            for (d, s) in dst.chunks_mut(8 * MIB).zip(src.chunks(8 * MIB)) {
                d.copy_from_slice(black_box(s));
            }
        });
        black_box(&dst);
        src.len() as f64 / GIB / t
    })
}

fn hf_gpu(window: Duration) -> Rungs {
    let rt = GpuRuntime::new(1, GpuConfig::default());
    let dev = rt.device(0).expect("device 0");
    let (s1, s2) = (Stream::new(&dev), Stream::new(&dev));

    // Median of 32 sequential enqueue-to-callback latencies, in us.
    let latency_us = |enqueue: &dyn Fn(mpsc::Sender<Instant>)| {
        let mut v = Vec::with_capacity(32);
        for _ in 0..32 {
            let (tx, rx) = mpsc::channel();
            let t0 = Instant::now();
            enqueue(tx);
            let at = rx.recv().expect("callback ran");
            v.push(at.duration_since(t0).as_nanos() as f64 / 1e3);
        }
        median(v)
    };
    let callback = sample(window, LIGHT, || {
        latency_us(&|tx| {
            s1.host_fn(move || {
                let _ = tx.send(Instant::now());
            })
        })
    });
    let event = Event::new();
    let cross = sample(window, LIGHT, || {
        latency_us(&|tx| {
            s1.record_event(&event);
            s2.wait_event(&event);
            s2.host_fn(move || {
                let _ = tx.send(Instant::now());
            });
        })
    });
    let empty: hf_gpu::KernelFn = Arc::new(|_, _| {});
    let launch = sample(window, LIGHT, || {
        ns_per(32, || {
            s1.launch_kernel(LaunchConfig::one_d(1, 1), empty.clone(), Vec::new(), 0.0);
            s1.synchronize();
        }) / 1e3
    });
    let pool = sample(window, LIGHT, || {
        ns_per(1024, || {
            let p = dev.alloc(4096).expect("alloc");
            dev.free(p).expect("free");
        })
    });

    let ptr = dev.alloc(8 * MIB).expect("alloc 8 MiB");
    let host = vec![3u8; 8 * MIB];
    let h2d = sample(window, HEAVY, || {
        let src = host.clone();
        let t = secs(|| {
            s1.h2d_async(ptr, src);
            s1.synchronize();
        });
        host.len() as f64 / GIB / t
    });
    let sink = Arc::new(Mutex::new(vec![0u8; 8 * MIB]));
    let d2h = sample(window, HEAVY, || {
        let sink = sink.clone();
        let t = secs(|| {
            s1.d2h_with(ptr, move |bytes| {
                sink.lock().expect("sink lock").copy_from_slice(bytes)
            });
            s1.synchronize();
        });
        host.len() as f64 / GIB / t
    });

    vec![
        ("hf-gpu.enqueue_to_callback_us", callback),
        ("hf-gpu.event_cross_stream_us", cross),
        ("hf-gpu.kernel_launch_us", launch),
        ("hf-gpu.pool_alloc_free_ns", pool),
        ("hf-gpu.h2d_gib_s", h2d),
        ("hf-gpu.d2h_gib_s", d2h),
    ]
}

fn run_once(ex: &Executor, g: &Heteroflow) {
    ex.run(g).wait().expect("rung graph runs");
}

fn run_secs(ex: &Executor, g: &Heteroflow) -> f64 {
    secs(|| run_once(ex, g))
}

fn plan(seed: u64, window: Duration) -> Rungs {
    let tasks = (SIDE * SIDE) as f64;
    let build = sample(window, LIGHT, || {
        let mut wave = None;
        let t = secs(|| wave = Some(HostWavefront::build(0)));
        black_box(wave);
        t * 1e9 / tasks
    });

    // First run of a fresh dispatch-bound graph (freeze, placement,
    // fusion, first-touch allocation) minus the median cached run.
    let ex = Executor::new(workers(), 2);
    let inputs = gpu_wavefront::generate(seed);
    let cold = sample(window, HEAVY, || {
        let wave = TileWavefront::build(&inputs);
        let first = run_secs(&ex, &wave.g);
        let cached = median((0..5).map(|_| run_secs(&ex, &wave.g)).collect());
        (first - cached) * 1e3
    });
    vec![
        ("hf-core.plan.graph_build_ns_per_task", build),
        ("hf-core.plan.plan_cold_ms", cold),
    ]
}

fn sched(window: Duration) -> Rungs {
    let ex = Executor::new(workers(), 1);
    let one = Heteroflow::new("floor");
    one.host("only", || {});
    let floor = sample(window, LIGHT, || ns_per(32, || run_once(&ex, &one)) / 1e3);

    let wave = HostWavefront::build(0);
    let host = sample(window, LIGHT, || {
        run_secs(&ex, &wave.g) * 1e9 / (SIDE * SIDE) as f64
    });

    // 256 kernels in a chain over one small pull: one fused dispatch.
    const CHAIN: usize = 256;
    let chain = Heteroflow::new("kernel_chain");
    let data: HostVec<u32> = HostVec::from_vec(vec![0; 256]);
    let pull = chain.pull("pull", &data);
    let mut prev = None;
    for k in 0..CHAIN {
        let kernel = chain.kernel(&format!("k{k}"), &[&pull], |_, args| {
            args.slice_mut::<u32>(0).expect("chain buffer")[0] += 1;
        });
        kernel.cover(1, 1);
        match &prev {
            None => kernel.succeed(&pull),
            Some(p) => kernel.succeed(p),
        };
        prev = Some(kernel);
    }
    let kernel_chain = sample(window, LIGHT, || run_secs(&ex, &chain) * 1e9 / CHAIN as f64);

    vec![
        ("hf-core.sched.run_floor_us", floor),
        ("hf-core.sched.ns_per_task_host", host),
        ("hf-core.sched.ns_per_task_kernel_chain", kernel_chain),
    ]
}

fn xfer(window: Duration, memcpy: Summary) -> Rungs {
    const ELEMS: usize = 2 * MIB; // 8 MiB of u32
    let gib = (ELEMS * 4) as f64 / GIB;
    let buffer = || -> HostVec<u32> { HostVec::from_vec(vec![9; ELEMS]) };

    // A lone pull, its input changed before every run so it must copy.
    let h2d = |ex: &Executor| {
        let data = buffer();
        let g = Heteroflow::new("pull_only");
        g.pull("pull", &data);
        run_once(ex, &g);
        sample(window, HEAVY, || {
            data.write()[0] += 1;
            gib / run_secs(ex, &g)
        })
    };
    let chunked_ex = Executor::new(workers(), 1);
    let unchunked_ex = Executor::builder(workers(), 1)
        .copy_chunk_threshold(usize::MAX)
        .build();
    let h2d_chunked = h2d(&chunked_ex);
    let h2d_unchunked = h2d(&unchunked_ex);

    // Pull then push of an unchanged buffer: the pull elides, so the run
    // is the device-to-host copy.
    let data = buffer();
    let round_trip = Heteroflow::new("pull_push");
    let pull = round_trip.pull("pull", &data);
    round_trip.push("push", &pull, &data).succeed(&pull);
    run_once(&chunked_ex, &round_trip);
    let d2h_chunked = sample(window, HEAVY, || gib / run_secs(&chunked_ex, &round_trip));

    // A lone pull left unchanged: the residency fast path and nothing else.
    let still = buffer();
    let resident = Heteroflow::new("pull_resident");
    resident.pull("pull", &still);
    run_once(&chunked_ex, &resident);
    let elided = sample(window, LIGHT, || run_secs(&chunked_ex, &resident) * 1e6);

    vec![
        ("hf-core.xfer.h2d_chunked_gib_s", h2d_chunked),
        ("hf-core.xfer.h2d_unchunked_gib_s", h2d_unchunked),
        ("hf-core.xfer.d2h_chunked_gib_s", d2h_chunked),
        (
            "hf-core.xfer.vs_memcpy_ratio",
            ratio_of(h2d_chunked, memcpy),
        ),
        ("hf-core.xfer.elided_run_us", elided),
    ]
}

fn stream(seed: u64, window: Duration) -> Rungs {
    let inputs = stream_serving::generate(seed);

    // The serving round resubmitted through `run`: copy, then compute.
    let ex = stream_serving::executor();
    let round = ServingRound::build(&inputs);
    let mut tag = 0;
    let mut resubmit_once = || {
        tag += 1;
        ServingRound::mutate(&round.features, &round.table, tag);
        let t = run_secs(&ex, &round.g);
        assert!(
            round.verify_next(tag),
            "resubmitted round {tag} scored wrong"
        );
        t * 1e3
    };
    resubmit_once();
    let resubmit = sample(window, HEAVY, resubmit_once);

    // The same round through the resident session, traced by the harness.
    let mut served = StreamServing::setup(&inputs, &mut Recorder::new(false));
    let mut rec = Recorder::new(true);
    served.drive(window.max(Duration::from_millis(60)), &mut rec);
    let block = durations_ms(&rec.spans, "submit");
    let mut done: Vec<u64> = rec.ops.iter().map(|o| o.done_ns).collect();
    done.sort_unstable();
    let period = Summary::of(
        done.windows(2)
            .map(|w| (w[1] - w[0]) as f64 / 1e6)
            .collect(),
    );
    drop(served);

    // A 1-task graph: depth-1 session against plain `run`, in turns.
    let one = Heteroflow::new("one_task");
    one.host("only", || {});
    let direct_ex = Executor::new(workers(), 1);
    let session_ex = Executor::new(workers(), 1);
    let session_graph = Heteroflow::new("one_task_session");
    session_graph.host("only", || {});
    let session = session_ex
        .run_stream_with(&session_graph, stream_serving::depth(1))
        .expect("open depth-1 stream");
    let depth1 = sample(window, LIGHT, || {
        let direct = ns_per(64, || run_once(&direct_ex, &one));
        let streamed = ns_per(64, || session.submit().wait().expect("streamed epoch"));
        streamed / direct
    });
    session.close();

    vec![
        ("hf-core.stream.submit_block_ms", Summary::of(block)),
        ("hf-core.stream.epoch_period_ms", period),
        ("hf-core.stream.resubmit_epoch_ms", resubmit),
        (
            "hf-core.stream.speedup_vs_resubmit",
            ratio_of(resubmit, period),
        ),
        ("hf-core.stream.depth1_overhead_ratio", depth1),
    ]
}

fn fleet_and_telemetry(window: Duration) -> Rungs {
    // 50 independent trivial host tasks: all submission overhead, the
    // worst case for an admission layer. One tenant, FIFO.
    let solo = |name: &str| {
        let g = Heteroflow::new(name);
        for i in 0..50 {
            g.host(&format!("t{i}"), || {});
        }
        g
    };
    let direct_ex = Executor::new(workers(), 1);
    let direct_graph = solo("solo_direct");
    let fleet = Fleet::new(Executor::new(workers(), 1), FleetConfig::default());
    let tenant = fleet.register("solo", TenantConfig::default());
    let fleet_graph = solo("solo_fleet");
    let fleet_run = || {
        fleet
            .submit(&tenant, &fleet_graph)
            .expect("no quota set")
            .wait()
            .expect("fleet run")
    };
    run_once(&direct_ex, &direct_graph);
    fleet_run();
    // Pairs taken in turns share the ambient load, so it cancels in each
    // ratio; the median pair is reported.
    let solo_ratio = sample(window, 7, || {
        let direct = ns_per(64, || run_once(&direct_ex, &direct_graph));
        ns_per(64, fleet_run) / direct
    });

    // The host wavefront with a `TraceCollector` attached against without.
    let plain_ex = Executor::new(workers(), 1);
    let traced_ex = Executor::builder(workers(), 1)
        .tracer(TraceCollector::shared())
        .build();
    let (plain, traced) = (HostWavefront::build(0), HostWavefront::build(0));
    run_once(&plain_ex, &plain.g);
    run_once(&traced_ex, &traced.g);
    let telemetry = sample(window, 7, || {
        let off = ns_per(4, || run_once(&plain_ex, &plain.g));
        ns_per(4, || run_once(&traced_ex, &traced.g)) / off
    });

    vec![
        ("hf-core.fleet.solo_overhead_ratio", solo_ratio),
        ("hf-telemetry.enabled_overhead_ratio", telemetry),
    ]
}

fn timing(seed: u64, window: Duration) -> Rungs {
    let inputs = app_timing::generate(seed);
    let ex = Executor::new(workers(), 2);
    let fresh =
        || hf_timing::build_correlation_graph(inputs.circuit.clone(), &inputs.views, inputs.cfg);
    run_once(&ex, &fresh().graph);
    let build = sample(window, HEAVY, || secs(|| drop(black_box(fresh()))) * 1e3);
    let run = sample(window, HEAVY, || {
        let built = fresh();
        run_secs(&ex, &built.graph) * 1e3
    });
    let sta = sample(window, HEAVY, || {
        secs(|| {
            drop(black_box(hf_timing::run_sta(
                &inputs.circuit,
                &inputs.views[0],
            )))
        }) * 1e3
    });
    vec![
        ("hf-timing.build_ms", build),
        ("hf-timing.run_ms", run),
        ("hf-timing.sta_sweep_ms", sta),
    ]
}

fn place(seed: u64, window: Duration) -> Rungs {
    let inputs = app_place::generate(seed);
    let ex = Executor::new(workers(), 2);
    let fresh = || hf_place::build_placement_graph(inputs.db.clone(), inputs.cfg);
    run_once(&ex, &fresh().0);
    let build = sample(window, HEAVY, || secs(|| drop(black_box(fresh()))) * 1e3);
    let run = sample(window, HEAVY, || {
        let (g, _state) = fresh();
        run_secs(&ex, &g) * 1e3
    });
    let sequential = sample(window, HEAVY, || {
        secs(|| {
            drop(black_box(hf_place::detailed_place_sequential(
                inputs.db.clone(),
                inputs.cfg,
            )))
        }) * 1e3
    });
    let parallel = Summary {
        value: build.value + run.value,
        q1: build.q1 + run.q1,
        q3: build.q3 + run.q3,
        n: run.n,
    };
    vec![
        ("hf-place.build_ms", build),
        ("hf-place.run_ms", run),
        ("hf-place.sequential_ms", sequential),
        (
            "hf-place.speedup_vs_sequential",
            ratio_of(sequential, parallel),
        ),
    ]
}

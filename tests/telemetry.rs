//! Integration tests for the unified telemetry layer: trace validity,
//! span nesting, exactly-once task coverage, CPU/GPU overlap, metrics
//! exposition, and the critical-path profiler.

use heteroflow::core::{SpanCat, TraceCollector, TraceSpan, Track};
use heteroflow::prelude::*;
use heteroflow::telemetry::{chrome_trace, critical_path, MetricsRegistry};
use std::sync::Arc;

/// Builds a two-lane hybrid pipeline; each lane is
/// fill -> pull -> kernel -> push with `n` elements.
fn pipeline(lanes: usize, n: usize) -> (Heteroflow, Vec<String>) {
    let g = Heteroflow::new("telemetry");
    let mut names = Vec::new();
    for lane in 0..lanes {
        let data: HostVec<f32> = HostVec::from_vec(vec![1.0; n]);
        let h = g.host(&format!("fill{lane}"), || {});
        let p = g.pull(&format!("pull{lane}"), &data);
        let k = g.kernel(&format!("mul{lane}"), &[&p], |cfg, args| {
            let v = args.slice_mut::<f32>(0).expect("arg");
            for t in cfg.threads() {
                if t < v.len() {
                    v[t] *= 2.0;
                }
            }
        });
        k.cover(n, 128);
        let s = g.push(&format!("push{lane}"), &p, &data);
        h.precede(&p);
        p.precede(&k);
        k.precede(&s);
        for prefix in ["fill", "pull", "mul", "push"] {
            names.push(format!("{prefix}{lane}"));
        }
    }
    (g, names)
}

/// Runs `g` under a stitched tracer and returns the settled spans.
fn traced_spans(g: &Heteroflow, workers: usize, gpus: u32) -> Vec<TraceSpan> {
    let trace = TraceCollector::shared();
    let ex = Executor::builder(workers, gpus)
        .tracer(Arc::clone(&trace))
        .build();
    ex.run(g).wait().expect("graph runs");
    // Join the workers so late worker-side span ends are flushed.
    drop(ex);
    trace.spans()
}

#[test]
fn chrome_trace_parses_and_covers_every_task_exactly_once() {
    let (g, names) = pipeline(3, 2048);
    let spans = traced_spans(&g, 4, 2);
    let json = chrome_trace(&spans);
    let doc = serde_json::from_str(&json).expect("valid trace JSON");
    let events = doc.as_array().expect("array");
    for name in &names {
        let task_events = events
            .iter()
            .filter(|e| {
                e.get("ph").and_then(|p| p.as_str()) == Some("X")
                    && e.get("name").and_then(|x| x.as_str()) == Some(name.as_str())
                    && e.get("args")
                        .and_then(|a| a.get("cat"))
                        .and_then(|c| c.as_str())
                        == Some("task")
            })
            .count();
        assert_eq!(task_events, 1, "{name} appears exactly once as a task");
    }
    // Metadata names both kinds of process.
    let meta: Vec<&str> = events
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("M"))
        .filter_map(|e| e.get("args").and_then(|a| a.get("name")).and_then(|n| n.as_str()))
        .collect();
    assert!(meta.contains(&"cpu"));
    assert!(meta.iter().any(|n| n.starts_with("gpu")));
}

#[test]
fn per_worker_spans_do_not_overlap() {
    let (g, _) = pipeline(4, 1024);
    let spans = traced_spans(&g, 3, 1);
    // A worker is one thread: its spans (task bodies and dispatch
    // windows) must form a non-overlapping sequence.
    let workers: std::collections::BTreeSet<usize> = spans
        .iter()
        .filter_map(|s| s.worker())
        .collect();
    assert!(!workers.is_empty());
    for w in workers {
        let mut mine: Vec<&TraceSpan> = spans
            .iter()
            .filter(|s| s.worker() == Some(w))
            .collect();
        mine.sort_by_key(|s| s.start_us);
        for pair in mine.windows(2) {
            assert!(
                pair[0].end_us() <= pair[1].start_us,
                "worker {w} spans overlap: {} [{}..{}] vs {} [{}..{}]",
                pair[0].name,
                pair[0].start_us,
                pair[0].end_us(),
                pair[1].name,
                pair[1].start_us,
                pair[1].end_us()
            );
        }
    }
}

#[test]
fn device_spans_overlap_cpu_spans_on_a_two_stream_pipeline() {
    // One lane's kernel runs on the device while the host lane spins on
    // the CPU: with device-side stitching the trace must show the
    // overlap that dispatch-time spans (the old collector bug) could not.
    let g = Heteroflow::new("overlap");
    let n = 1 << 16;
    let data: HostVec<f32> = HostVec::from_vec(vec![1.0; n]);
    let p = g.pull("pull", &data);
    let k = g.kernel("kernel", &[&p], |cfg, args| {
        let v = args.slice_mut::<f32>(0).expect("arg");
        for t in cfg.threads() {
            if t < v.len() {
                // Enough work per element to give the span real width.
                v[t] = v[t].sin().mul_add(1.5, 0.25);
            }
        }
    });
    k.cover(n, 128);
    p.precede(&k);
    // Independent host task: busy-spins so it executes concurrently.
    g.host("spin", || {
        let t0 = std::time::Instant::now();
        while t0.elapsed() < std::time::Duration::from_millis(20) {
            std::hint::spin_loop();
        }
    });

    let spans = traced_spans(&g, 2, 1);
    let dev: Vec<&TraceSpan> = spans
        .iter()
        .filter(|s| matches!(s.track, Track::Device(_)) && s.cat == SpanCat::Task)
        .collect();
    let host = spans
        .iter()
        .find(|s| s.name == "spin")
        .expect("host span");
    assert!(!dev.is_empty());
    let overlaps = dev.iter().any(|d| {
        d.start_us < host.end_us() && host.start_us < d.end_us()
    });
    assert!(
        overlaps,
        "device spans {:?} must overlap host span [{}..{}]",
        dev.iter()
            .map(|d| (d.name.as_str(), d.start_us, d.end_us()))
            .collect::<Vec<_>>(),
        host.start_us,
        host.end_us()
    );
}

#[test]
fn disabled_tracing_is_default_off_for_plain_builders() {
    // An executor without a tracer must not label ops or pay for rings.
    let (g, _) = pipeline(1, 512);
    let ex = Executor::new(2, 1);
    ex.run(&g).wait().expect("runs");
    assert!(!ex.gpu_runtime().tracing_enabled());
}

#[test]
fn metrics_and_critical_path_from_one_run() {
    let (g, _) = pipeline(2, 4096);
    let info = g.info().expect("acyclic");
    let trace = TraceCollector::shared();
    let ex = Executor::builder(2, 1).tracer(Arc::clone(&trace)).build();
    ex.run(&g).wait().expect("runs");
    let stats = ex.stats().snapshot();
    let registry = MetricsRegistry::new();
    registry.collect_executor(&stats);
    registry.collect_gpu(ex.gpu_runtime());
    drop(ex);
    let spans = trace.spans();
    registry.collect_spans(&spans);

    let json = serde_json::from_str(&registry.to_json_string()).expect("metrics JSON");
    assert!(!json.as_array().unwrap().is_empty());
    assert!(registry.prometheus_text().contains("hf_gpu_kernels_total"));

    let report = critical_path(&info, &spans);
    // fill -> pull -> mul -> push: 4 steps, measured time nonzero.
    assert_eq!(report.steps.len(), 4);
    assert!(report.total_us > 0);
    assert_eq!(report.unmatched, 0);
    let attributed: u64 = report.by_kind.iter().map(|(_, us)| *us).sum();
    assert_eq!(attributed, report.total_us);
}

/// `(task name, t_ns)` of every `phase` event of one recorded run, in
/// stream order.
fn phase_times(recorder: &FlightRecorder, run_id: u64, phase: &str) -> Vec<(String, u64)> {
    recorder.pump();
    let dump = recorder.dump_run_json(run_id).expect("run retained");
    dump.get("events")
        .and_then(|e| e.as_array())
        .expect("events")
        .iter()
        .filter(|e| e.get("phase").and_then(|p| p.as_str()) == Some(phase))
        .filter_map(|e| {
            let name = e.get("name")?.as_str()?.to_string();
            Some((name, e.get("t_ns")?.as_u64()?))
        })
        .collect()
}

fn assert_no_worker_overlap(spans: &[TraceSpan]) {
    let mut by_worker: std::collections::BTreeMap<usize, Vec<&TraceSpan>> = Default::default();
    for s in spans {
        if let Some(w) = s.worker() {
            by_worker.entry(w).or_default().push(s);
        }
    }
    for (w, mut mine) in by_worker {
        mine.sort_by_key(|s| (s.start_us, s.end_us()));
        for pair in mine.windows(2) {
            assert!(
                pair[0].end_us() <= pair[1].start_us,
                "worker {w}: {} [{}..{}] overlaps {} [{}..{}]",
                pair[0].name,
                pair[0].start_us,
                pair[0].end_us(),
                pair[1].name,
                pair[1].start_us,
                pair[1].end_us()
            );
        }
    }
}

#[test]
fn worker_spans_are_the_lifecycle_events_on_one_clock() {
    // A collector and a flight recorder on the same executor see the
    // same events: a host task's span is exactly [started, finished].
    let trace = TraceCollector::shared();
    let recorder = FlightRecorder::shared();
    let ex = Executor::builder(2, 0)
        .tracer(Arc::clone(&trace))
        .observer(recorder.clone())
        .build();
    let g = Heteroflow::new("diamond");
    let spin = || {
        let t0 = std::time::Instant::now();
        while t0.elapsed() < std::time::Duration::from_micros(300) {
            std::hint::spin_loop();
        }
    };
    let a = g.host("a", spin);
    let b = g.host("b", spin);
    let c = g.host("c", spin);
    let d = g.host("d", spin);
    a.precede(&b);
    a.precede(&c);
    b.precede(&d);
    c.precede(&d);
    let fut = ex.run(&g);
    let run_id = fut.run_id();
    fut.wait().expect("runs");
    // No join, no settle delay: the executor is still alive.
    let spans = trace.spans();

    let started = phase_times(&recorder, run_id, "started");
    let finished = phase_times(&recorder, run_id, "finished");
    assert_eq!(spans.len(), 4, "complete the moment wait() returns: {spans:?}");
    for name in ["a", "b", "c", "d"] {
        let span = spans.iter().find(|s| s.name == name).expect("span");
        assert_eq!(span.cat, SpanCat::Task);
        assert!(span.worker().is_some());
        let t0 = started.iter().find(|(n, _)| n == name).expect("started").1;
        let t1 = finished.iter().find(|(n, _)| n == name).expect("finished").1;
        assert_eq!(span.start_us, t0 / 1_000, "{name} starts at its Started event");
        assert_eq!(span.end_us(), t1 / 1_000, "{name} ends at its Finished event");
        assert!(span.dur_us >= 300, "{name} spun for its width");
    }
    drop(ex);
}

#[test]
fn retried_and_skipped_tasks_leave_closed_spans() {
    let trace = TraceCollector::shared();
    let recorder = FlightRecorder::shared();
    let ex = Executor::builder(2, 0)
        .retry_policy(RetryPolicy::new(2))
        .tracer(Arc::clone(&trace))
        .observer(recorder.clone())
        .build();

    // A host task that panics once: two windows, the first closed by
    // its `Retried` event.
    let g = Heteroflow::new("flaky");
    let tries = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let t = Arc::clone(&tries);
    g.host("flaky", move || {
        if t.fetch_add(1, std::sync::atomic::Ordering::SeqCst) == 0 {
            panic!("first attempt fails");
        }
    });
    let fut = ex.run(&g);
    let run_id = fut.run_id();
    fut.wait().expect("second attempt succeeds");
    let flaky = trace.take_spans();
    assert_eq!(flaky.len(), 2, "one span per attempt: {flaky:?}");
    let retried = phase_times(&recorder, run_id, "retried");
    let finished = phase_times(&recorder, run_id, "finished");
    assert_eq!((retried.len(), finished.len()), (1, 1));
    assert_eq!(flaky[0].end_us(), retried[0].1 / 1_000, "first window closes at Retried");
    assert_eq!(flaky[1].end_us(), finished[0].1 / 1_000);

    // A run cancelled while its first task holds the worker: the rest
    // are skipped, and each skipped task still opens and closes a window.
    const FANOUT: usize = 16;
    let g = Heteroflow::new("cancelled");
    let gate = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let gate2 = Arc::clone(&gate);
    let head = g.host("head", move || {
        while !gate2.load(std::sync::atomic::Ordering::Acquire) {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    });
    for i in 0..FANOUT {
        head.precede(&g.host(&format!("leaf{i}"), || {}));
    }
    let fut = ex.run(&g);
    std::thread::sleep(std::time::Duration::from_millis(10));
    fut.cancel();
    gate.store(true, std::sync::atomic::Ordering::Release);
    assert_eq!(fut.wait(), Err(HfError::Cancelled));

    // ... and the executor's next run lines up behind them.
    ex.run(&g).wait().expect("same graph, not cancelled");
    let spans = trace.spans();
    let count = |prefix: &str| spans.iter().filter(|s| s.name.starts_with(prefix)).count();
    assert_eq!(count("head"), 2);
    assert_eq!(count("leaf"), 2 * FANOUT, "the skipped leaves, then the rerun's");
    assert_no_worker_overlap(&spans);
}

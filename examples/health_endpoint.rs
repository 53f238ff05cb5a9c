//! Profiling and live runtime health: trace collector, flight recorder,
//! watchdog and HTTP endpoint, driven through a healthy phase and a
//! chaos phase.
//!
//! Wires the whole telemetry layer onto one executor:
//!
//! 1. a [`TraceCollector`] (`ExecutorBuilder::tracer`) records worker
//!    spans and true device-side op spans of the first healthy run;
//! 2. a [`FlightRecorder`] observer captures every task-lifecycle event
//!    (submit → ready → started → dispatched → finished/retried) into a
//!    lock-free ring;
//! 3. a [`Watchdog`] monitor thread pumps the recorder, watching armed
//!    runs for no-progress windows and stragglers;
//! 4. a [`HealthServer`] exposes `/metrics` (Prometheus), `/health`
//!    (watchdog verdict), `/runs` and `/flight` (flight-recorder JSON)
//!    on a local port.
//!
//! The workload runs a healthy warm-up, then a chaos phase: a seeded
//! `FaultPlan` injects a kernel stall (tripping the watchdog) and a
//! whole-device loss mid-run (exercising retry/failover, visible in the
//! black box). The example profiles the first healthy run, scrapes its
//! own endpoint, and writes the artifacts into the output directory:
//!
//! * `trace.json`            — merged CPU+GPU chrome trace of the first
//!   healthy run (open in `chrome://tracing` or
//!   <https://ui.perfetto.dev>): worker spans under the `cpu` process,
//!   device-side op spans under `gpu<d>`.
//! * `metrics.json`          — the metrics registry after that run
//!   (executor, per-device engine/pool counters, span histograms).
//! * `metrics.prom`          — the same registry as Prometheus text.
//! * `critpath.txt`          — that run's measured critical path with
//!   per-kind attribution.
//! * `metrics_live.prom`     — live `/metrics` scrape (populated
//!   `hf_task_queue_delay_nanos` buckets, executor gauges).
//! * `health.json`           — final `/health` document (stall →
//!   recovered event ladder).
//! * `runs.json`             — `/runs` summaries.
//! * `flight_recorder.json`  — the full flight dump ("black box").
//!
//! Run:   `cargo run --example health_endpoint [-- OUTDIR]`
//! Check: `cargo run --example health_endpoint -- OUTDIR --check`
//! validates the artifacts (the JSON parses, span and critical-path
//! invariants, the flight-recorder schema of
//! `docs/flight_recorder.schema.json`) and exits non-zero on violation —
//! CI runs this mode.

use heteroflow::core::TraceSpan;
use heteroflow::prelude::*;
use heteroflow::telemetry::chrome_trace;
use serde_json::Value;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

const DEADLINE: Duration = Duration::from_secs(30);

fn doubling_graph(name: &str, bufs: &[HostVec<i32>]) -> Heteroflow {
    let g = Heteroflow::new(name);
    for (i, b) in bufs.iter().enumerate() {
        let p = g.pull(&format!("pull_{i}"), b);
        let k = g.kernel(&format!("double_{i}"), &[&p], |cfg, args| {
            let xs = args.slice_mut::<i32>(0).unwrap();
            for t in cfg.threads() {
                if t < xs.len() {
                    xs[t] *= 2;
                }
            }
        });
        k.block_x(64);
        let s = g.push(&format!("push_{i}"), &p, b);
        p.precede(&k);
        k.precede(&s);
    }
    assert!(
        g.analyze().is_clean(),
        "lint:\n{}",
        g.analyze().render_text()
    );
    g
}

fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut s = TcpStream::connect(addr).expect("connect health endpoint");
    write!(s, "GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n").expect("send");
    let mut out = String::new();
    s.read_to_string(&mut out).expect("read");
    out.split_once("\r\n\r\n")
        .expect("well-formed response")
        .1
        .to_string()
}

fn write(outdir: &str, name: &str, body: &str) {
    std::fs::write(format!("{outdir}/{name}"), body).expect("write artifact");
}

/// Writes `trace.json`, `metrics.json`, `metrics.prom` and
/// `critpath.txt` for one traced run of `g`.
fn profile(executor: &Executor, g: &Heteroflow, spans: &[TraceSpan], outdir: &str) {
    println!("profiled run: {} spans", spans.len());
    let registry = MetricsRegistry::new();
    registry.collect_executor(&executor.snapshot());
    registry.collect_gpu(executor.gpu_runtime());
    registry.collect_spans(spans);
    let report = critical_path(&g.freeze().expect("acyclic"), spans);
    print!("{report}");
    write(outdir, "trace.json", &chrome_trace(spans));
    write(outdir, "metrics.json", &registry.to_json_string());
    write(outdir, "metrics.prom", &registry.prometheus_text());
    write(outdir, "critpath.txt", &report.to_string());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = args.iter().any(|a| a == "--check");
    let outdir = args
        .iter()
        .find(|a| *a != "--check")
        .cloned()
        .unwrap_or_else(|| ".".into());
    std::fs::create_dir_all(&outdir).expect("create output dir");

    // ── Wire the health layer ──────────────────────────────────────────
    let trace = TraceCollector::shared();
    let recorder = FlightRecorder::shared();
    recorder.set_blackbox_dir(Some(std::path::PathBuf::from(&outdir)));
    let executor = Arc::new(
        Executor::builder(4, 2)
            .retry_policy(RetryPolicy::new(3))
            .tracer(Arc::clone(&trace))
            .observer(recorder.clone())
            .build(),
    );
    let watchdog = Watchdog::spawn(
        recorder.clone(),
        WatchdogConfig {
            poll: Duration::from_millis(5),
            warn_after: Duration::from_millis(40),
            stall_after: Duration::from_millis(120),
            hang_after: Duration::from_secs(3600),
            ..WatchdogConfig::default()
        },
    );
    let hub = HealthHub::new(recorder.clone());
    hub.set_watchdog(watchdog.clone());
    let ex_for_scrape = Arc::clone(&executor);
    hub.add_collector(move |reg| {
        reg.collect_executor(&ex_for_scrape.snapshot());
        reg.collect_gpu(ex_for_scrape.gpu_runtime());
    });
    let server = HealthServer::bind("127.0.0.1:0", hub).expect("bind endpoint");
    println!("health endpoint live at http://{}", server.addr());

    // ── Phase 1: healthy workload ──────────────────────────────────────
    let bufs: Vec<HostVec<i32>> = (0..2).map(|_| HostVec::from_vec(vec![1; 256])).collect();
    for round in 0..4 {
        let g = doubling_graph(&format!("healthy_{round}"), &bufs);
        let fut = executor.run(&g);
        watchdog.arm(&fut, &format!("healthy_{round}"));
        fut.wait_timeout(DEADLINE)
            .expect("healthy run hung")
            .expect("healthy run failed");
        if round == 0 {
            // The critical-path join needs one run's spans: trace this one.
            executor.gpu_runtime().synchronize_all();
            trace.set_enabled(false);
            profile(&executor, &g, &trace.spans(), &outdir);
        }
    }
    println!(
        "healthy phase: {} lifecycle events recorded, verdict {}",
        recorder.events_recorded(),
        watchdog.verdict()
    );

    // ── Phase 2: chaos — injected stall, then device loss + failover ───
    executor.gpu_runtime().set_fault_plan(Some(
        FaultPlan::seeded(42)
            .stall(FaultSite::Kernel, Duration::from_millis(400), 1.0)
            .max_stalls(1)
            .lose_device(1, 1),
    ));
    let g = doubling_graph("chaos", &bufs);
    let fut = executor.run(&g);
    watchdog.arm(&fut, "chaos");
    // Scrape /health while the stall is wedging the run.
    let mut degraded_seen = String::new();
    while !fut.is_done() {
        let body = http_get(server.addr(), "/health");
        if body.contains("\"stall\"") || body.contains("\"warn\"") {
            degraded_seen = body;
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    fut.wait_timeout(DEADLINE)
        .expect("chaos run hung")
        .expect("chaos run failed despite retry/failover");
    // Let the watchdog observe completion (it polls; recovery lands a
    // few ticks after the run resolves).
    let settle = std::time::Instant::now() + Duration::from_secs(5);
    while watchdog.verdict() != HealthVerdict::Healthy && std::time::Instant::now() < settle {
        std::thread::sleep(Duration::from_millis(10));
    }
    println!(
        "chaos phase: {} stalls injected, {} devices lost, verdict now {}",
        executor.gpu_runtime().stalls_injected(),
        executor.gpu_runtime().lost_devices().len(),
        watchdog.verdict()
    );

    // ── Scrape + write artifacts ───────────────────────────────────────
    let metrics = http_get(server.addr(), "/metrics");
    let health = http_get(server.addr(), "/health");
    let runs = http_get(server.addr(), "/runs");
    let flight = http_get(server.addr(), "/flight");
    write(&outdir, "metrics_live.prom", &metrics);
    write(&outdir, "health.json", &health);
    write(&outdir, "runs.json", &runs);
    write(&outdir, "flight_recorder.json", &flight);
    println!("artifacts written to {outdir}/");

    if check {
        let failures = validate(&outdir, !degraded_seen.is_empty(), bufs.len());
        if !failures.is_empty() {
            eprintln!("check FAILED:");
            for f in &failures {
                eprintln!("  - {f}");
            }
            std::process::exit(1);
        }
        println!("check OK: all profiling and health-endpoint invariants hold");
    }
}

/// `v[key]` as a string, when it is one.
fn text<'a>(v: &'a Value, key: &str) -> Option<&'a str> {
    v.get(key).and_then(|x| x.as_str())
}

/// `v[key]` as an array; empty when absent.
fn items(v: &Value, key: &str) -> Vec<Value> {
    v.get(key)
        .and_then(|x| x.as_array())
        .cloned()
        .unwrap_or_default()
}

/// CI mode: the artifacts on disk must parse and hold the profiling,
/// health and flight-recorder invariants. Returns the violated ones.
fn validate(outdir: &str, degraded_seen: bool, lanes: usize) -> Vec<&'static str> {
    let mut failures = Vec::new();
    let mut ensure = |ok: bool, what: &'static str| {
        if !ok {
            failures.push(what);
        }
    };
    let read = |f: &str| std::fs::read_to_string(format!("{outdir}/{f}")).expect("read artifact");
    let json = |f: &str| serde_json::from_str(&read(f)).expect("artifact is valid JSON");

    // trace.json: every task of the profiled run is one task span, and
    // both the CPU and a GPU process are present.
    let spans = json("trace.json").as_array().cloned().unwrap_or_default();
    let tasks = ["pull", "double", "push"].map(|t| (0..lanes).map(move |i| format!("{t}_{i}")));
    for name in tasks.into_iter().flatten() {
        let task_span = |e: &&Value| {
            text(e, "ph") == Some("X")
                && text(e, "name") == Some(name.as_str())
                && e.get("args").and_then(|a| text(a, "cat")) == Some(SpanCat::Task.name())
        };
        let n = spans.iter().filter(task_span).count();
        ensure(n == 1, "trace: each profiled task is one task span");
    }
    let pids: Vec<_> = spans
        .iter()
        .map(|e| e.get("pid").and_then(|p| p.as_u64()))
        .collect();
    ensure(
        pids.iter().all(Option::is_some),
        "trace: every event has a pid",
    );
    ensure(pids.contains(&Some(0)), "trace: CPU process present");
    ensure(
        pids.iter().any(|&p| p > Some(0)),
        "trace: GPU process present",
    );

    // metrics.json carries every source; metrics.prom is well-formed.
    let metrics = json("metrics.json").as_array().cloned().unwrap_or_default();
    for required in [
        "hf_executor_tasks_executed_total",
        "hf_gpu_busy_nanos_total",
        "hf_gpu_pool_allocs_total",
        "hf_span_duration_us",
    ] {
        let present = metrics.iter().any(|m| text(m, "name") == Some(required));
        ensure(present, "metrics.json: every source present");
    }
    let sample = |l: &str| {
        l.split_whitespace()
            .nth(1)
            .is_some_and(|v| v.parse::<f64>().is_ok())
    };
    let prom = read("metrics.prom");
    let well_formed = prom.lines().all(|l| l.starts_with('#') || sample(l));
    ensure(well_formed, "metrics.prom: each line a comment or a sample");

    // critpath.txt reports a measured path through the profiled graph.
    let crit = read("critpath.txt");
    ensure(
        crit.contains("critical path of 'healthy_0'"),
        "critpath: graph",
    );
    ensure(
        !crit.contains(" 0 us\n"),
        "critpath: path has measured time",
    );

    // metrics_live.prom: populated attribution buckets, executor gauges.
    let live = read("metrics_live.prom");
    ensure(
        live.contains("hf_task_queue_delay_nanos_bucket{le=\""),
        "live: buckets",
    );
    ensure(
        live.contains("hf_task_queue_delay_nanos_bucket{le=\"+Inf\"}"),
        "live: +Inf",
    );
    let exec = |l: &str| l.starts_with("hf_task_exec_nanos_count") && !l.ends_with(" 0");
    ensure(live.lines().any(exec), "live: exec histogram populated");
    ensure(
        live.contains("hf_executor_inflight_tasks"),
        "live: inflight gauge",
    );
    ensure(
        live.contains("hf_executor_queue_depth"),
        "live: queue-depth gauge",
    );

    // health.json: the stall was visible live, and the ladder recovered.
    ensure(
        degraded_seen,
        "health: degraded verdict observed live during the stall",
    );
    let health = items(&json("health.json"), "events");
    let kinds: Vec<_> = health.iter().filter_map(|e| text(e, "kind")).collect();
    ensure(kinds.contains(&"stall"), "health: stall event recorded");
    ensure(
        kinds.contains(&"recovered"),
        "health: recovery event recorded",
    );

    // flight_recorder.json against docs/flight_recorder.schema.json
    // invariants: schema tag, runs with ids/graphs, ordered events with
    // known phases, terminal run_end per completed run.
    let flight = json("flight_recorder.json");
    ensure(
        text(&flight, "schema") == Some("hf-flight-recorder-v1"),
        "flight: schema tag",
    );
    let known_phases = [
        "run_start",
        "ready",
        "started",
        "dispatched",
        "finished",
        "failed",
        "retried",
        "failover",
        "run_end",
    ];
    let runs = items(&flight, "runs");
    ensure(runs.len() >= 2, "flight: healthy + chaos runs retained");
    for run in &runs {
        let id = run.get("run_id").and_then(|x| x.as_u64()).unwrap_or(0);
        ensure(id > 0, "flight: run_id present and nonzero");
        ensure(text(run, "graph").is_some(), "flight: graph name present");
        let events = items(run, "events");
        ensure(!events.is_empty(), "flight: run has events");
        let mut last_t = 0u64;
        for e in &events {
            let phase = text(e, "phase").unwrap_or("?");
            ensure(
                known_phases.contains(&phase),
                "flight: event phase is a known value",
            );
            let t = e.get("t_ns").and_then(|x| x.as_u64()).unwrap_or(0);
            ensure(t >= last_t, "flight: events are time-ordered");
            last_t = t;
        }
        if run.get("ok").is_some_and(|o| !matches!(o, Value::Null)) {
            let last = events.last().and_then(|e| text(e, "phase"));
            ensure(
                last == Some("run_end"),
                "flight: completed run ends with run_end",
            );
        }
    }
    // The chaos black box shows dispatch → fault → re-dispatch.
    let chaos = runs.iter().find(|r| text(r, "graph") == Some("chaos"));
    ensure(chaos.is_some(), "flight: chaos run retained");
    let events = chaos.map(|c| items(c, "events")).unwrap_or_default();
    let has = |p: &str| events.iter().any(|e| text(e, "phase") == Some(p));
    ensure(has("dispatched"), "flight: chaos run shows dispatch");
    let fault = has("failed") || has("retried") || has("failover");
    ensure(fault, "flight: chaos run shows the injected fault");
    let ok =
        |e: &Value| text(e, "phase") == Some("finished") && e.get("ok") == Some(&Value::Bool(true));
    ensure(
        events.iter().any(ok),
        "flight: chaos run recovers to a successful finish",
    );

    // runs.json: parses, and every summary carries an id.
    let summaries = json("runs.json").as_array().cloned().unwrap_or_default();
    ensure(!summaries.is_empty(), "runs: summaries present");
    for s in &summaries {
        let id = s.get("run_id").and_then(|x| x.as_u64()).unwrap_or(0);
        ensure(id > 0, "runs: summary has run_id");
    }
    failures
}

//! Runtime-health acceptance tests: the flight recorder captures full
//! task lifecycles, device-loss chaos leaves a legible black box, the
//! watchdog sees injected stalls *before* the run resolves, and the live
//! endpoint serves scrapeable latency attribution.

use heteroflow::prelude::*;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

const DEADLINE: Duration = Duration::from_secs(30);

fn seed() -> u64 {
    std::env::var("HF_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x5eed_4ea1_7400_0001)
}

/// A pull → kernel → push lane over `bufs` buffers, values doubled.
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
    g
}

#[test]
fn flight_recorder_captures_full_lifecycle() {
    let recorder = FlightRecorder::shared();
    let ex = Executor::builder(2, 1)
        .observer(recorder.clone())
        .build();
    let bufs = vec![HostVec::from_vec(vec![1i32; 64])];
    let g = doubling_graph("lifecycle", &bufs);
    let fut = ex.run(&g);
    let run_id = fut.run_id();
    assert!(run_id > 0, "real submissions get nonzero run ids");
    fut.wait().expect("runs");
    recorder.pump();

    let dump = recorder.dump_run_json(run_id).expect("run retained");
    let events = dump.get("events").and_then(|e| e.as_array()).unwrap();
    let phases: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("phase").and_then(|p| p.as_str()))
        .collect();
    assert_eq!(phases.first(), Some(&"run_start"));
    assert_eq!(phases.last(), Some(&"run_end"), "terminal event recorded");
    for needed in ["ready", "started", "finished"] {
        assert!(phases.contains(&needed), "missing phase {needed}: {phases:?}");
    }
    // GPU tasks carry their device and dispatch records.
    assert!(
        events.iter().any(|e| e.get("device").is_some()),
        "GPU lifecycle events carry a device id"
    );
    // Pull tasks carry moved bytes.
    assert!(
        events
            .iter()
            .any(|e| e.get("bytes").and_then(|b| b.as_u64()).unwrap_or(0) == 256),
        "pull events carry byte counts"
    );

    // Latency attribution populated all three components.
    let latency = recorder.latency();
    assert!(latency.queue_delay.count > 0, "queue delays observed");
    assert!(latency.exec.count > 0, "exec times observed");
    assert_eq!(latency.run_latency.count, 1, "one run latency observed");
    assert!(latency.run_latency.quantile(0.99) > 0.0);

    let s = recorder.summaries();
    assert_eq!(s.len(), 1);
    assert_eq!(s[0].ok, Some(true));
    assert_eq!(s[0].tasks, 3);
}

/// Acceptance criterion: a chaos run with injected device loss + retry
/// produces a flight-recorder dump showing dispatch → fault →
/// re-dispatch on a survivor.
#[test]
fn device_loss_black_box_shows_redispatch_on_survivor() {
    let seed = seed();
    let recorder = FlightRecorder::shared();
    let ex = Executor::builder(2, 2)
        .retry_policy(RetryPolicy::new(3))
        .observer(recorder.clone())
        .build();
    ex.gpu_runtime()
        .set_fault_plan(Some(FaultPlan::seeded(seed).lose_device(1, 1)));

    // Two independent lanes => both devices host live work when 1 dies.
    let bufs: Vec<HostVec<i32>> = (0..2).map(|_| HostVec::from_vec(vec![3; 64])).collect();
    let g = doubling_graph("lose_one", &bufs);
    let fut = ex.run(&g);
    let run_id = fut.run_id();
    let res = fut
        .wait_timeout(DEADLINE)
        .unwrap_or_else(|| panic!("device-loss run hung (seed {seed})"));
    assert_eq!(res, Ok(()), "device-loss run failed (seed {seed})");
    for b in &bufs {
        assert!(b.read().iter().all(|&v| v == 6), "corrupt data (seed {seed})");
    }

    recorder.pump();
    let dump = recorder.dump_run_json(run_id).expect("run retained");
    let events = dump.get("events").and_then(|e| e.as_array()).unwrap();
    let dispatched_on = |dev: u64| {
        events.iter().position(|e| {
            e.get("phase").and_then(|p| p.as_str()) == Some("dispatched")
                && e.get("device").and_then(|d| d.as_u64()) == Some(dev)
        })
    };
    assert!(
        dispatched_on(1).is_some(),
        "black box shows work dispatched to the doomed device (seed {seed})"
    );
    let fault_at = events
        .iter()
        .position(|e| {
            let p = e.get("phase").and_then(|p| p.as_str());
            (p == Some("failed") || p == Some("retried")) && !matches!(e.get("ok"), Some(v) if v.as_bool() == Some(true))
        })
        .or_else(|| {
            events
                .iter()
                .position(|e| e.get("phase").and_then(|p| p.as_str()) == Some("failover"))
        });
    assert!(
        fault_at.is_some(),
        "black box records the fault/failover (seed {seed})"
    );
    // After the fault, a survivor (device 0) finishes work.
    let survivor_finish = events.iter().skip(fault_at.unwrap()).any(|e| {
        e.get("phase").and_then(|p| p.as_str()) == Some("finished")
            && e.get("device").and_then(|d| d.as_u64()) == Some(0)
            && e.get("ok").and_then(|o| o.as_bool()) == Some(true)
    });
    assert!(
        survivor_finish,
        "black box shows re-dispatch completing on survivor (seed {seed})"
    );
    assert!(
        ex.snapshot().devices_lost >= 1,
        "loss visible in stats (seed {seed})"
    );
}

/// Acceptance criterion: a FaultPlan-injected stall produces
/// a `stall` escalation before the run resolves, and the watchdog then
/// reports recovery.
#[test]
fn watchdog_sees_injected_stall_then_recovery() {
    let seed = seed();
    let recorder = FlightRecorder::shared();
    let ex = Executor::builder(2, 1).observer(recorder.clone()).build();
    ex.gpu_runtime().set_fault_plan(Some(
        FaultPlan::seeded(seed)
            .stall(FaultSite::Kernel, Duration::from_millis(400), 1.0)
            .max_stalls(1),
    ));
    let wd = Watchdog::spawn(
        recorder.clone(),
        WatchdogConfig {
            poll: Duration::from_millis(5),
            warn_after: Duration::from_millis(40),
            stall_after: Duration::from_millis(120),
            hang_after: Duration::from_secs(3600),
            cancel_after: None,
            ..WatchdogConfig::default()
        },
    );

    let bufs = vec![HostVec::from_vec(vec![1i32; 64])];
    let g = doubling_graph("stall_lane", &bufs);
    let fut = ex.run(&g);
    wd.arm(&fut, "stall_lane");
    let res = fut
        .wait_timeout(DEADLINE)
        .unwrap_or_else(|| panic!("stalled run hung (seed {seed})"));
    assert_eq!(res, Ok(()), "stalled run should still finish (seed {seed})");
    assert!(
        ex.gpu_runtime().stalls_injected() >= 1,
        "plan injected a stall (seed {seed})"
    );

    // Give the monitor a few polls to observe completion.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let evs = wd.events();
        let stall_at = evs.iter().position(|e| {
            matches!(
                e,
                HealthEvent::Escalated {
                    level: HealthVerdict::Stall,
                    ..
                }
            )
        });
        let recovered_after = stall_at.map(|i| {
            evs.iter()
                .skip(i)
                .any(|e| matches!(e, HealthEvent::Recovered { .. }))
        });
        if recovered_after == Some(true) {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "no stall→recovery observed (seed {seed}): {:?}",
            evs.iter().map(|e| e.kind()).collect::<Vec<_>>()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    // The stall fired while the run was still in flight.
    recorder.pump();
    let end_ns = recorder.summaries()[0].ended_ns.expect("run ended");
    let stall_t = wd
        .events()
        .iter()
        .find_map(|e| match e {
            HealthEvent::Escalated {
                level: HealthVerdict::Stall,
                t_ns,
                ..
            } => Some(*t_ns),
            _ => None,
        })
        .expect("stall event present");
    assert!(
        stall_t < end_ns,
        "stall detected before resolution (stall at {stall_t}, end at {end_ns})"
    );
    assert_eq!(wd.verdict(), HealthVerdict::Healthy, "recovered at the end");
}

/// The watchdog's deadline trips cooperative cancellation, and the
/// failed run auto-dumps its black box.
#[test]
fn watchdog_deadline_cancels_and_dumps_blackbox() {
    let seed = seed();
    let dir = std::env::temp_dir().join(format!("hf_health_bb_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let recorder = FlightRecorder::shared();
    recorder.set_blackbox_dir(Some(dir.clone()));
    let ex = Executor::builder(2, 1).observer(recorder.clone()).build();
    ex.gpu_runtime().set_fault_plan(Some(
        FaultPlan::seeded(seed)
            .stall(FaultSite::Kernel, Duration::from_millis(600), 1.0)
            .max_stalls(1),
    ));
    let wd = Watchdog::spawn(
        recorder.clone(),
        WatchdogConfig {
            poll: Duration::from_millis(5),
            warn_after: Duration::from_millis(30),
            stall_after: Duration::from_millis(60),
            hang_after: Duration::from_secs(3600),
            cancel_after: Some(Duration::from_millis(150)),
            ..WatchdogConfig::default()
        },
    );
    let bufs = vec![HostVec::from_vec(vec![1i32; 64])];
    let g = doubling_graph("deadline_lane", &bufs);
    let fut = ex.run(&g);
    let run_id = fut.run_id();
    wd.arm(&fut, "deadline_lane");
    let res = fut
        .wait_timeout(DEADLINE)
        .unwrap_or_else(|| panic!("deadline run hung (seed {seed})"));
    assert!(
        matches!(res, Err(HfError::Cancelled)),
        "watchdog deadline cancels the wedged run (seed {seed}): {res:?}"
    );
    assert!(
        wd.events()
            .iter()
            .any(|e| matches!(e, HealthEvent::DeadlineCancelled { .. })),
        "deadline cancellation is a structured event (seed {seed})"
    );
    recorder.pump();
    let path = dir.join(format!("blackbox_run{run_id}.json"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("black box not written at {path:?}: {e}"));
    let parsed = serde_json::from_str(&text).expect("valid black-box JSON");
    assert_eq!(parsed.get("ok").and_then(|o| o.as_bool()), Some(false));
    assert!(parsed
        .get("events")
        .and_then(|e| e.as_array())
        .map(|a| !a.is_empty())
        .unwrap_or(false));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two pumpers (here: this thread and a scrape-like loop; in the test
/// above, the watchdog) must not reorder or hide events: once `pump()`
/// returns, every event pushed before the call is applied, whoever
/// drained it. Draining outside the state lock let a `Finished` fold
/// before its `Started` (the exec sample lost, the task left in flight)
/// and let `pump()` return while the other pumper still held `RunEnd`.
#[test]
fn concurrent_pumps_apply_every_event_in_order() {
    use std::sync::atomic::{AtomicBool, Ordering};
    const RUNS: u64 = 1000;
    const TASKS: usize = 4;
    let recorder = FlightRecorder::shared();
    let ex = Executor::builder(2, 0).observer(recorder.clone()).build();
    let g = Heteroflow::new("pumped");
    let mut prev: Option<HostTask> = None;
    for i in 0..TASKS {
        let t = g.host(&format!("t{i}"), || {});
        if let Some(p) = &prev {
            p.precede(&t);
        }
        prev = Some(t);
    }
    let stop = AtomicBool::new(false);
    // The first run that breaks a promise, described; the pumper is
    // stopped before anything asserts, or the scope would never join.
    let broken = std::thread::scope(|scope| {
        scope.spawn(|| {
            while !stop.load(Ordering::Acquire) {
                recorder.pump();
            }
        });
        let broken = (0..RUNS).find_map(|i| {
            let fut = ex.run(&g);
            let res = fut.wait();
            recorder.pump();
            let progress = recorder.run_progress(fut.run_id());
            let summary = recorder.summaries().pop().map(|s| (s.run_id, s.tasks));
            let exec_samples = recorder.latency().exec.count;
            let ok = res.is_ok()
                && progress.as_ref().is_some_and(|p| p.done && p.inflight.is_empty())
                && summary == Some((fut.run_id(), TASKS))
                && exec_samples == (i + 1) * TASKS as u64;
            (!ok).then(|| {
                format!("run {i}: {res:?}, {progress:?}, {summary:?}, {exec_samples} exec samples")
            })
        });
        stop.store(true, Ordering::Release);
        broken
    });
    assert_eq!(broken, None);
    assert_eq!(recorder.events_dropped(), 0);
}

fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut s = TcpStream::connect(addr).expect("connect health endpoint");
    write!(s, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let mut out = String::new();
    s.read_to_string(&mut out).expect("read response");
    out.split_once("\r\n\r\n").expect("well-formed").1.to_string()
}

/// Acceptance criterion: `hf_task_queue_delay_nanos` p99 is scrapeable
/// from the live `/metrics` endpoint with populated `_bucket` lines, and
/// the stall→recovery transition is visible in `/health`.
#[test]
fn live_endpoint_serves_attribution_and_watchdog_verdict() {
    let seed = seed();
    let recorder = FlightRecorder::shared();
    let ex = Arc::new(Executor::builder(2, 1).observer(recorder.clone()).build());
    let wd = Watchdog::spawn(
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
    hub.set_watchdog(wd.clone());
    let ex_for_scrape = Arc::clone(&ex);
    hub.add_collector(move |reg| {
        reg.collect_executor(&ex_for_scrape.snapshot());
    });
    let server = HealthServer::bind("127.0.0.1:0", hub).expect("bind endpoint");
    let addr = server.addr();

    // Phase 1: healthy workload populates the histograms.
    let bufs = vec![HostVec::from_vec(vec![1i32; 64])];
    for _ in 0..5 {
        let g = doubling_graph("healthy", &bufs);
        ex.run(&g).wait_timeout(DEADLINE).expect("no hang").expect("ok");
    }

    // Phase 2: an injected stall trips the watchdog mid-run.
    ex.gpu_runtime().set_fault_plan(Some(
        FaultPlan::seeded(seed)
            .stall(FaultSite::Kernel, Duration::from_millis(400), 1.0)
            .max_stalls(1),
    ));
    let g = doubling_graph("stalling", &bufs);
    let fut = ex.run(&g);
    wd.arm(&fut, "stalling");
    // Scrape while wedged: /health must show the degraded verdict.
    let mut saw_degraded = false;
    let t0 = std::time::Instant::now();
    while !fut.is_done() && t0.elapsed() < DEADLINE {
        let body = http_get(addr, "/health");
        let v = serde_json::from_str(&body).expect("valid /health JSON");
        let verdict = v.get("verdict").and_then(|x| x.as_str()).unwrap_or("");
        if verdict == "warn" || verdict == "stall" {
            saw_degraded = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    fut.wait_timeout(DEADLINE).expect("no hang").expect("ok");
    assert!(
        saw_degraded,
        "live /health showed the stall while the run was wedged (seed {seed})"
    );

    // After recovery: /health events carry stall→recovered.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let body = http_get(addr, "/health");
        let v = serde_json::from_str(&body).expect("valid /health JSON");
        let kinds: Vec<String> = v
            .get("events")
            .and_then(|e| e.as_array())
            .map(|a| {
                a.iter()
                    .filter_map(|e| e.get("kind").and_then(|k| k.as_str()).map(String::from))
                    .collect()
            })
            .unwrap_or_default();
        let healthy = v.get("verdict").and_then(|x| x.as_str()) == Some("healthy");
        if healthy && kinds.iter().any(|k| k == "stall") && kinds.iter().any(|k| k == "recovered")
        {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "no stall→recovered in /health (seed {seed}): {kinds:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // /metrics: populated _bucket lines and a scrapeable p99.
    let metrics = http_get(addr, "/metrics");
    assert!(
        metrics.contains("hf_task_queue_delay_nanos_bucket{le=\""),
        "queue-delay buckets exposed"
    );
    assert!(metrics.contains("hf_task_queue_delay_nanos_bucket{le=\"+Inf\"}"));
    assert!(metrics.contains("hf_task_exec_nanos_bucket"));
    assert!(metrics.contains("hf_run_latency_nanos_count"));
    assert!(metrics.contains("hf_executor_inflight_tasks"));
    assert!(metrics.contains("hf_executor_queue_depth"));
    let populated = metrics.lines().any(|l| {
        l.starts_with("hf_task_queue_delay_nanos_bucket")
            && l.split_whitespace()
                .nth(1)
                .and_then(|v| v.parse::<u64>().ok())
                .map(|n| n > 0)
                .unwrap_or(false)
    });
    assert!(populated, "bucket lines carry counts");
    let qd = recorder.latency().queue_delay;
    assert!(qd.quantile(0.99) > 0.0, "p99 computable from scraped data");

    // /runs: recent flight summaries as JSON.
    let runs = http_get(addr, "/runs");
    let v = serde_json::from_str(&runs).expect("valid /runs JSON");
    let arr = v.as_array().expect("array of run summaries");
    assert!(arr.len() >= 2, "healthy + stalled runs summarized");
    assert!(arr
        .iter()
        .all(|r| r.get("run_id").and_then(|x| x.as_u64()).unwrap_or(0) > 0));
}

/// A disabled recorder records nothing even while installed, and the
/// executor skips lifecycle emission entirely (fast-path gate).
#[test]
fn disabled_recorder_stays_silent() {
    let recorder = FlightRecorder::shared();
    recorder.set_enabled(false);
    let ex = Executor::builder(2, 1).observer(recorder.clone()).build();
    let bufs = vec![HostVec::from_vec(vec![1i32; 64])];
    let g = doubling_graph("silent", &bufs);
    ex.run(&g).wait().expect("runs");
    recorder.pump();
    assert_eq!(recorder.events_recorded(), 0);
    assert_eq!(recorder.events_dropped(), 0);
    assert!(recorder.summaries().is_empty());
}

/// Runs one fused pull → kernel → push lane under `plan` and checks the
/// stream it leaves: nothing in flight after `RunEnd`, every `dispatched`
/// event of a task followed by a `finished` or `retried` for it, and the
/// failure event naming the chain it was dispatched with.
fn assert_failed_chain_closes_its_suffix(ex: Executor, recorder: Arc<FlightRecorder>, plan: FaultPlan) {
    ex.gpu_runtime().set_fault_plan(Some(plan));
    let bufs = vec![HostVec::from_vec(vec![1i32; 64])];
    let g = doubling_graph("chain_failure", &bufs);
    let fut = ex.run(&g);
    let run_id = fut.run_id();
    let res = fut.wait_timeout(DEADLINE).expect("failing run must not hang");
    assert!(res.is_err(), "every kernel attempt fails: {res:?}");
    assert!(ex.snapshot().fused >= 2, "the lane dispatched as one chain");

    recorder.pump();
    let progress = recorder.run_progress(run_id).expect("run retained");
    assert!(progress.done, "RunEnd applied");
    assert!(
        progress.inflight.is_empty(),
        "tasks left in flight after RunEnd: {:?}",
        progress.inflight
    );

    let dump = recorder.dump_run_json(run_id).expect("run retained");
    let events = dump.get("events").and_then(|e| e.as_array()).unwrap();
    let phase = |e: &serde_json::Value| e.get("phase").and_then(|p| p.as_str()).map(String::from);
    let task = |e: &serde_json::Value| e.get("task").and_then(|t| t.as_u64());
    assert_eq!(phase(events.last().unwrap()).as_deref(), Some("run_end"));
    for (i, e) in events.iter().enumerate() {
        if phase(e).as_deref() != Some("dispatched") {
            continue;
        }
        let closed = events[i + 1..].iter().any(|l| {
            task(l) == task(e) && matches!(phase(l).as_deref(), Some("finished" | "retried"))
        });
        assert!(closed, "dispatched {e:?} never closed in {events:?}");
    }
    let failed: Vec<_> = events
        .iter()
        .filter(|e| phase(e).as_deref() == Some("failed"))
        .collect();
    assert!(!failed.is_empty(), "the failure is in the stream");
    for e in failed {
        assert!(e.get("chain").is_some(), "failed member names its chain: {e:?}");
    }
}

#[test]
fn failed_chain_suffix_gets_terminal_events_under_fail() {
    let recorder = FlightRecorder::shared();
    let ex = Executor::builder(2, 1)
        .retry_policy(RetryPolicy::new(1))
        .observer(recorder.clone())
        .build();
    let plan = FaultPlan::seeded(1).fail(FaultSite::Kernel, 1.0);
    assert_failed_chain_closes_its_suffix(ex, recorder, plan);
}

#[test]
fn failed_chain_suffix_gets_terminal_events_under_failover() {
    // Both devices die on their first op: the first round fails over,
    // the replay fails the same way, and no survivor is left.
    let recorder = FlightRecorder::shared();
    let ex = Executor::builder(2, 2).observer(recorder.clone()).build();
    let plan = FaultPlan::seeded(1).lose_device(0, 1).lose_device(1, 1);
    assert_failed_chain_closes_its_suffix(ex, recorder, plan);
}

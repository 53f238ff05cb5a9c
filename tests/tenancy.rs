//! Multi-tenant fleet acceptance tests: concurrent submission semantics,
//! structured quota errors, queued-cancel guarantees, retry billing,
//! deterministic weighted-fair vs FIFO admission order, and per-tenant
//! telemetry labels.

use heteroflow::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const DEADLINE: Duration = Duration::from_secs(30);

/// A single-host-task graph that appends `label` to the shared log when
/// it executes; when `gate` is set, the task additionally spins until
/// the gate opens (so the run holds its in-flight slot).
fn logging_graph(
    label: &str,
    log: &Arc<Mutex<Vec<String>>>,
    gate: Option<Arc<AtomicBool>>,
) -> Heteroflow {
    let g = Heteroflow::new(label);
    let log = Arc::clone(log);
    let label = label.to_string();
    g.host("work", move || {
        log.lock().unwrap().push(label.clone());
        if let Some(gate) = &gate {
            while !gate.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    });
    g
}

/// Satellite: concurrent submission of *different* graphs from many
/// threads is safe, and `wait_for_all` entered afterwards drains every
/// one of them.
#[test]
fn multi_threaded_submission_of_different_graphs_drains() {
    let ex = Arc::new(Executor::new(4, 1));
    let log = Arc::new(Mutex::new(Vec::new()));
    let mut handles = Vec::new();
    for t in 0..4 {
        let ex = Arc::clone(&ex);
        let log = Arc::clone(&log);
        handles.push(std::thread::spawn(move || {
            let mut futs = Vec::new();
            for i in 0..8 {
                let g = logging_graph(&format!("g{t}_{i}"), &log, None);
                futs.push(ex.run(&g));
            }
            futs
        }));
    }
    let futs: Vec<RunFuture> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("submitter thread"))
        .collect();
    // Every future above was returned before this call, so the contract
    // guarantees wait_for_all observes them all.
    ex.wait_for_all();
    for f in &futs {
        assert!(f.is_done(), "wait_for_all returned with a run still open");
        assert_eq!(f.wait(), Ok(()));
    }
    assert_eq!(log.lock().unwrap().len(), 32);
}

/// Satellite: re-submitting an **unchanged** graph concurrently from
/// many threads never yields `GraphBusy` (submissions queue on the run
/// claim); mutating the graph while a run is active does.
#[test]
fn unchanged_graph_resubmission_never_busy_mutation_is() {
    let ex = Arc::new(Executor::new(4, 1));
    let log = Arc::new(Mutex::new(Vec::new()));
    let g = logging_graph("shared", &log, None);

    let mut handles = Vec::new();
    for _ in 0..4 {
        let ex = Arc::clone(&ex);
        let g = g.clone();
        handles.push(std::thread::spawn(move || {
            (0..8).map(|_| ex.run(&g)).collect::<Vec<_>>()
        }));
    }
    for h in handles {
        for f in h.join().expect("submitter thread") {
            assert_eq!(
                f.wait_timeout(DEADLINE),
                Some(Ok(())),
                "unchanged-graph concurrent resubmission must never fail"
            );
        }
    }
    assert_eq!(log.lock().unwrap().len(), 32);

    // Mutation while a run is active is the one way to get GraphBusy.
    let gate = Arc::new(AtomicBool::new(false));
    let busy = logging_graph("busy", &log, Some(Arc::clone(&gate)));
    let running = ex.run(&busy);
    busy.host("added_mid_run", || {});
    let rejected = ex.run(&busy);
    assert_eq!(
        rejected.wait_timeout(DEADLINE),
        Some(Err(HfError::GraphBusy)),
        "mutated-while-active graph must fail with GraphBusy"
    );
    gate.store(true, Ordering::Release);
    assert_eq!(running.wait_timeout(DEADLINE), Some(Ok(())));
    ex.wait_for_all();
}

/// Satellite: quota exhaustion surfaces as a structured error at submit
/// time — never a hang, never a silent drop.
#[test]
fn gpu_budget_exhaustion_returns_quota_exceeded() {
    let fleet = Fleet::new(Executor::new(2, 1), FleetConfig::default());
    // Three host tasks at the 1000 ns default modeled cost => 3000 ns
    // per run; a 7000 ns budget admits two runs and rejects the third.
    let tenant = fleet.register(
        "metered",
        TenantConfig {
            gpu_ns_budget: Some(7_000),
            ..TenantConfig::default()
        },
    );
    let g = Heteroflow::new("three_tasks");
    for i in 0..3 {
        g.host(&format!("t{i}"), || {});
    }
    let f1 = fleet.submit(&tenant, &g).expect("within budget");
    let f2 = fleet.submit(&tenant, &g).expect("within budget");
    let err = fleet.submit(&tenant, &g).expect_err("budget exhausted");
    match &err {
        HfError::QuotaExceeded {
            tenant: t,
            resource,
            needed,
            limit,
        } => {
            assert_eq!(t, "metered");
            assert_eq!(resource, "gpu_ns_budget");
            assert_eq!((*needed, *limit), (9_000, 7_000));
        }
        other => panic!("expected QuotaExceeded, got {other}"),
    }
    assert_eq!(err.tenant(), Some("metered"));
    assert_eq!(f1.wait_timeout(DEADLINE), Some(Ok(())));
    assert_eq!(f2.wait_timeout(DEADLINE), Some(Ok(())));
    fleet.wait_idle();
    let snap = fleet.snapshot();
    let ts = &snap.tenants[0];
    assert_eq!(ts.rejected_quota, 1);
    assert_eq!(ts.completed, 2);
    assert_eq!(ts.gpu_ns_charged, 6_000);
}

/// Satellite: a full tenant queue rejects with `FleetSaturated` instead
/// of parking unboundedly.
#[test]
fn queue_bound_returns_fleet_saturated() {
    let fleet = Fleet::new(
        Executor::new(2, 1),
        FleetConfig {
            max_inflight: 1,
            ..FleetConfig::default()
        },
    );
    let tenant = fleet.register(
        "bounded",
        TenantConfig {
            max_queued: 1,
            ..TenantConfig::default()
        },
    );
    let log = Arc::new(Mutex::new(Vec::new()));
    let gate = Arc::new(AtomicBool::new(false));
    let blocker = logging_graph("blocker", &log, Some(Arc::clone(&gate)));
    let quick = logging_graph("quick", &log, None);

    let f_block = fleet.submit(&tenant, &blocker).expect("admitted");
    // Wait for the blocker to actually occupy the in-flight slot.
    while log.lock().unwrap().is_empty() {
        std::thread::sleep(Duration::from_millis(1));
    }
    let f_queued = fleet.submit(&tenant, &quick).expect("parks in queue");
    let err = fleet.submit(&tenant, &quick).expect_err("queue full");
    match &err {
        HfError::FleetSaturated {
            tenant: t,
            queued,
            limit,
        } => {
            assert_eq!(t, "bounded");
            assert_eq!((*queued, *limit), (1, 1));
        }
        other => panic!("expected FleetSaturated, got {other}"),
    }
    gate.store(true, Ordering::Release);
    assert_eq!(f_block.wait_timeout(DEADLINE), Some(Ok(())));
    assert_eq!(f_queued.wait_timeout(DEADLINE), Some(Ok(())));
    fleet.wait_idle();
    assert_eq!(fleet.snapshot().tenants[0].rejected_saturated, 1);
}

/// Satellite: cancelling a still-queued submission settles its future
/// with `Cancelled` and the run never dispatches.
#[test]
fn cancelled_queued_submission_never_dispatches() {
    let fleet = Fleet::new(
        Executor::new(2, 1),
        FleetConfig {
            max_inflight: 1,
            ..FleetConfig::default()
        },
    );
    let tenant = fleet.register("t", TenantConfig::default());
    let log = Arc::new(Mutex::new(Vec::new()));
    let gate = Arc::new(AtomicBool::new(false));
    let blocker = logging_graph("blocker", &log, Some(Arc::clone(&gate)));
    let victim = logging_graph("victim", &log, None);

    let f_block = fleet.submit(&tenant, &blocker).expect("admitted");
    while log.lock().unwrap().is_empty() {
        std::thread::sleep(Duration::from_millis(1));
    }
    let f_victim = fleet.submit(&tenant, &victim).expect("parks in queue");
    f_victim.cancel();
    gate.store(true, Ordering::Release);
    assert_eq!(
        f_victim.wait_timeout(DEADLINE),
        Some(Err(HfError::Cancelled)),
        "queued-then-cancelled future settles Cancelled"
    );
    assert_eq!(f_block.wait_timeout(DEADLINE), Some(Ok(())));
    fleet.wait_idle();
    let runs = log.lock().unwrap().clone();
    assert_eq!(runs, vec!["blocker".to_string()], "victim never dispatched");
    let ts = &fleet.snapshot().tenants[0];
    assert_eq!(ts.cancelled_queued, 1);
    assert_eq!(ts.completed, 1);
    // The cancelled entry refunded its budget reservation: only the
    // blocker's single 1000 ns task remains charged.
    assert_eq!(ts.gpu_ns_charged, 1_000);
}

/// Satellite: retry-policy re-dispatches under injected device faults
/// are billed to the tenant that owns the faulting run — a co-tenant
/// doing host-only work is never charged.
#[test]
fn fault_retries_billed_to_owning_tenant() {
    let ex = Executor::builder(2, 1)
        .retry_policy(RetryPolicy::new(3))
        .build();
    ex.gpu_runtime().set_fault_plan(Some(
        FaultPlan::seeded(0x7e57_b111)
            .fail(FaultSite::Kernel, 1.0)
            .max_faults(2),
    ));
    let fleet = Fleet::new(ex, FleetConfig::default());
    let gpu_tenant = fleet.register("gpu", TenantConfig::default());
    let host_tenant = fleet.register("host", TenantConfig::default());

    let data: HostVec<i32> = HostVec::from_vec(vec![1; 64]);
    let g = Heteroflow::new("faulty_kernel");
    let p = g.pull("pull", &data);
    let k = g.kernel("double", &[&p], |cfg, args| {
        let xs = args.slice_mut::<i32>(0).unwrap();
        for t in cfg.threads() {
            if t < xs.len() {
                xs[t] *= 2;
            }
        }
    });
    k.block_x(64);
    let s = g.push("push", &p, &data);
    p.precede(&k);
    k.precede(&s);

    let quiet = Heteroflow::new("host_only");
    quiet.host("noop", || {});

    let f_gpu = fleet.submit(&gpu_tenant, &g).expect("submitted");
    let f_host = fleet.submit(&host_tenant, &quiet).expect("submitted");
    assert_eq!(
        f_gpu.wait_timeout(DEADLINE),
        Some(Ok(())),
        "bounded fault budget retries to success"
    );
    assert_eq!(f_host.wait_timeout(DEADLINE), Some(Ok(())));
    fleet.wait_idle();
    assert!(data.read().iter().all(|&v| v == 2));

    let snap = fleet.snapshot();
    let gpu = snap.tenants.iter().find(|t| t.tenant == "gpu").unwrap();
    let host = snap.tenants.iter().find(|t| t.tenant == "host").unwrap();
    assert!(gpu.retries >= 1, "kernel faults must surface as retries");
    assert_eq!(host.retries, 0, "co-tenant is never billed for them");
    assert!(
        gpu.gpu_ns_charged > host.gpu_ns_charged,
        "retry work charges the faulting tenant's budget"
    );
}

/// Submits the deterministic mixed workload and returns the execution
/// order: one batch job is admitted and held in flight, three more batch
/// jobs and one small-tenant job queue behind it, then the gate opens.
fn admission_order(policy: Box<dyn AdmissionPolicy>) -> Vec<String> {
    let fleet = Fleet::with_policy(
        Executor::new(2, 1),
        FleetConfig {
            max_inflight: 1,
            ..FleetConfig::default()
        },
        policy,
    );
    let batch = fleet.register(
        "batch",
        TenantConfig {
            weight: 1,
            ..TenantConfig::default()
        },
    );
    let small = fleet.register(
        "small",
        TenantConfig {
            weight: 4,
            ..TenantConfig::default()
        },
    );
    let log = Arc::new(Mutex::new(Vec::new()));
    let gate = Arc::new(AtomicBool::new(false));
    let mut futs = Vec::new();
    let b1 = logging_graph("b1", &log, Some(Arc::clone(&gate)));
    futs.push(fleet.submit(&batch, &b1).expect("submitted"));
    while log.lock().unwrap().is_empty() {
        std::thread::sleep(Duration::from_millis(1));
    }
    for name in ["b2", "b3", "b4"] {
        let g = logging_graph(name, &log, None);
        futs.push(fleet.submit(&batch, &g).expect("submitted"));
    }
    let s1 = logging_graph("s1", &log, None);
    futs.push(fleet.submit(&small, &s1).expect("submitted"));
    gate.store(true, Ordering::Release);
    for f in futs {
        assert_eq!(f.wait_timeout(DEADLINE), Some(Ok(())));
    }
    fleet.wait_idle();
    let order = log.lock().unwrap().clone();
    order
}

/// Tentpole: with one in-flight slot and a batch backlog, FIFO admits
/// strictly by arrival (the small tenant waits out the whole backlog);
/// weighted-fair interleaves the small tenant right after the in-flight
/// job — deterministically, by start-time fair queueing.
#[test]
fn weighted_fair_admits_small_tenant_ahead_of_backlog() {
    let fifo = admission_order(Box::new(Fifo));
    assert_eq!(
        fifo,
        ["b1", "b2", "b3", "b4", "s1"],
        "FIFO is arrival order"
    );
    let wfq = admission_order(Box::<WeightedFair>::default());
    assert_eq!(
        wfq,
        ["b1", "s1", "b2", "b3", "b4"],
        "SFQ admits the idle small tenant at the virtual clock, ahead of \
         the batch tenant's accumulated finish tag"
    );
}

/// Satellite: runs submitted through the fleet carry their tenant into
/// the flight recorder — labeled Prometheus series appear per tenant
/// while the unlabeled aggregates keep counting every run.
#[test]
fn per_tenant_prometheus_labels_with_stable_aggregates() {
    let recorder = FlightRecorder::shared();
    let ex = Executor::builder(2, 1).observer(recorder.clone()).build();
    let fleet = Fleet::new(ex, FleetConfig::default());
    let a = fleet.register("alpha", TenantConfig::default());
    let b = fleet.register("beta", TenantConfig::default());

    let log = Arc::new(Mutex::new(Vec::new()));
    let ga = logging_graph("ga", &log, None);
    let gb = logging_graph("gb", &log, None);
    let fa = fleet.submit(&a, &ga).expect("submitted");
    let fb = fleet.submit(&b, &gb).expect("submitted");
    // One direct (untenanted) run through the same executor.
    let gd = logging_graph("gd", &log, None);
    let fd = fleet.executor().run(&gd);
    assert_eq!(fa.wait_timeout(DEADLINE), Some(Ok(())));
    assert_eq!(fb.wait_timeout(DEADLINE), Some(Ok(())));
    assert_eq!(fd.wait_timeout(DEADLINE), Some(Ok(())));
    fleet.wait_idle();
    recorder.pump();

    let reg = MetricsRegistry::new();
    recorder.export_into(&reg);
    let prom = reg.prometheus_text();
    assert!(
        prom.contains("hf_run_latency_nanos_bucket{tenant=\"alpha\""),
        "per-tenant labeled histogram missing:\n{prom}"
    );
    assert!(
        prom.contains("hf_tenant_runs_total{tenant=\"beta\"} 1"),
        "{prom}"
    );
    assert!(
        prom.contains("hf_run_latency_nanos_count 3"),
        "unlabeled aggregate must keep counting all runs (2 fleet + 1 direct):\n{prom}"
    );

    let summaries = recorder.summaries();
    let tenants: Vec<Option<String>> = summaries.iter().map(|s| s.tenant.clone()).collect();
    assert!(tenants.contains(&Some("alpha".to_string())));
    assert!(tenants.contains(&Some("beta".to_string())));
    assert!(tenants.contains(&None), "direct run stays untenanted");
}

/// A tenant name holding a quote, a backslash and a newline reaches the
/// exposition escaped: every sample line still parses as
/// `name{labels} value`, and the label unescapes back to the name.
#[test]
fn tenant_label_values_are_escaped() {
    const NAME: &str = "q\"b\\s\n";
    let recorder = FlightRecorder::shared();
    let ex = Executor::builder(2, 0).observer(recorder.clone()).build();
    let fleet = Fleet::new(ex, FleetConfig::default());
    let tenant = fleet.register(NAME, TenantConfig::default());
    let log = Arc::new(Mutex::new(Vec::new()));
    let graph = logging_graph("g", &log, None);
    let run = fleet.submit(&tenant, &graph).expect("submitted");
    assert_eq!(run.wait_timeout(DEADLINE), Some(Ok(())));
    fleet.wait_idle();
    recorder.pump();

    let reg = MetricsRegistry::new();
    recorder.export_into(&reg);
    let text = reg.prometheus_text();
    let mut tenants = Vec::new();
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let (series, value) = line.rsplit_once(' ').expect("a value");
        assert!(value.parse::<f64>().is_ok(), "value of {line:?}");
        if let Some((_, labels)) = series.split_once('{') {
            let labels = labels.strip_suffix('}').expect("a closing brace");
            for (key, value) in parse_labels(labels) {
                if key == "tenant" {
                    tenants.push(value);
                }
            }
        }
    }
    assert!(!tenants.is_empty(), "no tenant-labeled series");
    assert!(tenants.iter().all(|t| t == NAME), "{tenants:?}");
}

/// Parses the text between a sample's braces, `k="v",...`, unescaping
/// `\\`, `\"` and `\n`; panics on anything the text format forbids.
fn parse_labels(text: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut chars = text.chars();
    loop {
        let key: String = chars.by_ref().take_while(|&c| c != '=').collect();
        assert_eq!(chars.next(), Some('"'), "{key:?} opens a quote in {text:?}");
        let mut value = String::new();
        loop {
            match chars.next().expect("a closing quote") {
                '"' => break,
                '\\' => value.push(match chars.next() {
                    Some('\\') => '\\',
                    Some('"') => '"',
                    Some('n') => '\n',
                    c => panic!("escape {c:?} in {text:?}"),
                }),
                c => value.push(c),
            }
        }
        out.push((key, value));
        match chars.next() {
            None => return out,
            Some(',') => {}
            c => panic!("{c:?} after a label value in {text:?}"),
        }
    }
}

/// Admissions and structured rejections are counted once, per tenant, in
/// the fleet's own snapshot.
#[test]
fn fleet_counters_in_fleet_snapshot() {
    let fleet = Fleet::new(Executor::new(2, 1), FleetConfig::default());
    let tenant = fleet.register(
        "counted",
        TenantConfig {
            gpu_ns_budget: Some(1_500),
            ..TenantConfig::default()
        },
    );
    let g = Heteroflow::new("one");
    g.host("t", || {});
    let f = fleet.submit(&tenant, &g).expect("within budget");
    assert!(fleet.submit(&tenant, &g).is_err(), "second exceeds budget");
    assert_eq!(f.wait_timeout(DEADLINE), Some(Ok(())));
    fleet.wait_idle();
    let snap = fleet.snapshot();
    let t = snap
        .tenants
        .iter()
        .find(|t| t.tenant == "counted")
        .expect("tenant listed");
    assert_eq!(t.admitted, 1);
    assert_eq!((t.rejected_quota, t.rejected_saturated), (1, 0));
}

/// `/runs` names the tenant of a fleet run, as `/flight` and the black-box
/// dump do for the same run; a direct run carries no `tenant` key.
#[test]
fn runs_document_carries_the_tenant() {
    let recorder = FlightRecorder::shared();
    let ex = Executor::builder(2, 0).observer(recorder.clone()).build();
    let fleet = Fleet::new(ex, FleetConfig::default());
    let alpha = fleet.register("alpha", TenantConfig::default());
    let log = Arc::new(Mutex::new(Vec::new()));
    let fleet_run = fleet
        .submit(&alpha, &logging_graph("ga", &log, None))
        .expect("submitted");
    let direct_run = fleet.executor().run(&logging_graph("gd", &log, None));
    assert_eq!(fleet_run.wait_timeout(DEADLINE), Some(Ok(())));
    assert_eq!(direct_run.wait_timeout(DEADLINE), Some(Ok(())));
    fleet.wait_idle();

    let runs = serde_json::from_str(&HealthHub::new(recorder).runs_text()).expect("valid JSON");
    let tenant_of = |id: u64| {
        let run = (runs.as_array().expect("an array").iter())
            .find(|r| r.get("run_id").and_then(|v| v.as_u64()) == Some(id))
            .unwrap_or_else(|| panic!("run {id} missing from /runs"));
        run.get("tenant")
            .map(|t| t.as_str().expect("a string").to_string())
    };
    assert_eq!(tenant_of(fleet_run.run_id()), Some("alpha".to_string()));
    assert_eq!(tenant_of(direct_run.run_id()), None);
}

//! Multi-tenant serving walkthrough: three tenants on one shared fleet,
//! starved under FIFO, fair under weighted-fair admission.
//!
//! The workload models a serving box shared by three clients:
//!
//! * **batch** — dumps a backlog of long jobs at t=0 (weight 1);
//! * **interactive** — submits short jobs on a steady period and cares
//!   about tail latency (weight 8);
//! * **metered** — runs under a modeled GPU-nanosecond budget and gets a
//!   structured [`HfError::QuotaExceeded`] once it spends it.
//!
//! The same workload runs twice: once on a FIFO fleet, where every
//! interactive job queues behind the whole batch backlog, and once under
//! weighted-fair admission (start-time fair queueing), where each
//! interactive job is admitted at the next free slot. The example also
//! wires the telemetry layer — a [`FlightRecorder`] observer feeds
//! per-tenant latency histograms, and a [`HealthServer`] serves them on
//! `/metrics` (labeled `hf_run_latency_nanos{tenant="..."}`) and
//! `/tenants` (per-tenant quantiles merged with the fleet's live quota
//! snapshot) — then scrapes its own endpoint and writes artifacts:
//!
//! * `tenancy_compare.json` — interactive-tenant latency, FIFO vs
//!   weighted-fair, plus the quota-rejection demo.
//! * `tenants.json`         — final `/tenants` scrape.
//! * `metrics_tenants.prom` — final `/metrics` scrape (labeled series).
//!
//! Run:   `cargo run --release --example multi_tenant [-- OUTDIR]`
//! Check: `cargo run --release --example multi_tenant -- OUTDIR --check`
//! validates the fairness claim and the artifacts, exiting non-zero on
//! violation — CI runs this mode.

use heteroflow::prelude::*;
use serde_json::json;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

const BATCH_JOBS: usize = 6;
const BATCH_MS: u64 = 5;
const INTERACTIVE_JOBS: usize = 6;
const INTERACTIVE_MS: u64 = 1;
const INTERACTIVE_PERIOD_MS: u64 = 2;

/// One job: a single host task that occupies its in-flight slot for
/// `service_ms` and stamps its completion instant.
fn job(name: &str, service_ms: u64, done: &Arc<std::sync::Mutex<Option<Instant>>>) -> Heteroflow {
    let g = Heteroflow::new(name);
    let done = Arc::clone(done);
    g.host("serve", move || {
        std::thread::sleep(Duration::from_millis(service_ms));
        *done.lock().expect("unpoisoned") = Some(Instant::now());
    });
    g
}

struct Outcome {
    interactive_mean_ms: f64,
    interactive_worst_ms: f64,
    batch_total_ms: f64,
}

/// Runs the batch-vs-interactive workload on `fleet` and measures the
/// interactive tenant's completion latency.
fn run_workload(fleet: &Fleet) -> Outcome {
    let batch = fleet.register("batch", TenantConfig::default());
    let interactive = fleet.register(
        "interactive",
        TenantConfig {
            weight: 8,
            ..TenantConfig::default()
        },
    );

    let t0 = Instant::now();
    let mut batch_done = Vec::new();
    for i in 0..BATCH_JOBS {
        let done = Arc::new(std::sync::Mutex::new(None));
        let g = job(&format!("batch_{i}"), BATCH_MS, &done);
        fleet.submit(&batch, &g).expect("batch submit");
        batch_done.push(done);
    }
    let mut inter = Vec::new();
    for i in 0..INTERACTIVE_JOBS {
        std::thread::sleep(Duration::from_millis(INTERACTIVE_PERIOD_MS));
        let done = Arc::new(std::sync::Mutex::new(None));
        let g = job(&format!("interactive_{i}"), INTERACTIVE_MS, &done);
        fleet.submit(&interactive, &g).expect("interactive submit");
        inter.push((Instant::now(), done));
    }
    fleet.wait_idle();

    let latencies: Vec<f64> = inter
        .iter()
        .map(|(submitted, done)| {
            done.lock()
                .expect("unpoisoned")
                .expect("completed")
                .duration_since(*submitted)
                .as_secs_f64()
                * 1e3
        })
        .collect();
    Outcome {
        interactive_mean_ms: latencies.iter().sum::<f64>() / latencies.len() as f64,
        interactive_worst_ms: latencies.iter().cloned().fold(f64::MIN, f64::max),
        batch_total_ms: batch_done
            .iter()
            .map(|d| {
                d.lock()
                    .expect("unpoisoned")
                    .expect("completed")
                    .duration_since(t0)
                    .as_secs_f64()
                    * 1e3
            })
            .fold(f64::MIN, f64::max),
    }
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

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = args.iter().any(|a| a == "--check");
    let outdir = args
        .iter()
        .find(|a| *a != "--check")
        .cloned()
        .unwrap_or_else(|| ".".into());
    std::fs::create_dir_all(&outdir).expect("create output dir");

    // ── Phase 1: FIFO — interactive starves behind the backlog ─────────
    let fifo_fleet = Fleet::new(
        Executor::new(2, 1),
        FleetConfig {
            max_inflight: 2,
            ..FleetConfig::default()
        },
    );
    let fifo = run_workload(&fifo_fleet);
    println!(
        "FIFO:          interactive mean {:6.2} ms, worst {:6.2} ms (backlog drained in {:.0} ms)",
        fifo.interactive_mean_ms, fifo.interactive_worst_ms, fifo.batch_total_ms
    );

    // ── Phase 2: weighted-fair — admitted at the next free slot ────────
    // This fleet also carries the telemetry wiring: the recorder folds
    // per-tenant latency histograms, and the health endpoint serves them.
    let recorder = FlightRecorder::shared();
    let wfq_fleet = Arc::new(Fleet::with_policy(
        Executor::builder(2, 1).observer(recorder.clone()).build(),
        FleetConfig {
            max_inflight: 2,
            ..FleetConfig::default()
        },
        Box::<WeightedFair>::default(),
    ));
    let hub = HealthHub::new(recorder);
    let fleet_for_scrape = Arc::clone(&wfq_fleet);
    hub.set_tenant_source(move || {
        serde_json::to_string(&fleet_for_scrape.snapshot()).expect("snapshot serializes")
    });
    let server = HealthServer::bind("127.0.0.1:0", hub).expect("bind endpoint");
    println!("tenant endpoint live at http://{}/tenants", server.addr());

    let wfq = run_workload(&wfq_fleet);
    println!(
        "weighted-fair: interactive mean {:6.2} ms, worst {:6.2} ms (backlog drained in {:.0} ms)",
        wfq.interactive_mean_ms, wfq.interactive_worst_ms, wfq.batch_total_ms
    );

    // ── Phase 3: metered tenant exhausts its GPU-time budget ───────────
    let metered = wfq_fleet.register(
        "metered",
        TenantConfig {
            // Each 1-task job is modeled at the 1000 ns default task
            // cost; a 2500 ns budget admits two jobs and rejects the
            // third with a structured error.
            gpu_ns_budget: Some(2_500),
            ..TenantConfig::default()
        },
    );
    let mut quota_err = None;
    for i in 0..3 {
        let done = Arc::new(std::sync::Mutex::new(None));
        let g = job(&format!("metered_{i}"), 1, &done);
        match wfq_fleet.submit(&metered, &g) {
            Ok(fut) => {
                fut.wait().expect("metered run");
            }
            Err(e) => {
                println!("metered job {i} rejected: {e}");
                quota_err = Some(e);
            }
        }
    }
    wfq_fleet.wait_idle();
    let quota_err = quota_err.expect("third metered job must exceed the budget");
    assert!(
        matches!(quota_err, HfError::QuotaExceeded { .. }),
        "expected QuotaExceeded, got {quota_err:?}"
    );

    // ── Scrape + write artifacts ───────────────────────────────────────
    let tenants = http_get(server.addr(), "/tenants");
    let metrics = http_get(server.addr(), "/metrics");
    let compare = json!({
        "schema": "hf-tenancy-example-v1",
        "fifo": json!({
            "interactive_mean_ms": fifo.interactive_mean_ms,
            "interactive_worst_ms": fifo.interactive_worst_ms,
            "batch_total_ms": fifo.batch_total_ms,
        }),
        "weighted_fair": json!({
            "interactive_mean_ms": wfq.interactive_mean_ms,
            "interactive_worst_ms": wfq.interactive_worst_ms,
            "batch_total_ms": wfq.batch_total_ms,
        }),
        "quota_rejection": quota_err.to_string(),
    });
    let w = |name: &str, body: &str| {
        std::fs::write(format!("{outdir}/{name}"), body).expect("write artifact");
    };
    w(
        "tenancy_compare.json",
        &serde_json::to_string_pretty(&compare).expect("serializes"),
    );
    w("tenants.json", &tenants);
    w("metrics_tenants.prom", &metrics);
    println!("artifacts written to {outdir}/");

    if !check {
        return;
    }

    // ── Validation (CI mode) ───────────────────────────────────────────
    let mut failures: Vec<String> = Vec::new();
    let mut ensure = |ok: bool, what: &str| {
        if !ok {
            failures.push(what.to_string());
        }
    };

    // Fairness: weighted-fair must cut the interactive tenant's worst
    // latency well below FIFO's (the backlog is ~30 ms deep; a fair slot
    // arrives within one batch job's service time).
    ensure(
        wfq.interactive_worst_ms < fifo.interactive_worst_ms,
        "fairness: weighted-fair worst interactive latency below FIFO",
    );
    // Conservation: fairness reshapes who waits, not how much work gets
    // done — the backlog still drains in the same ballpark (3x guard).
    ensure(
        wfq.batch_total_ms < fifo.batch_total_ms * 3.0,
        "conservation: backlog drain time not blown up by fairness",
    );
    // /tenants: per-tenant quantiles plus the live fleet quota snapshot.
    ensure(
        tenants.contains("\"hf-tenants-v1\""),
        "/tenants: schema marker present",
    );
    for t in ["batch", "interactive", "metered"] {
        ensure(
            tenants.contains(&format!("\"{t}\"")),
            "/tenants: all three tenants present",
        );
    }
    ensure(
        tenants.contains("\"weighted_fair\""),
        "/tenants: fleet snapshot merged (policy name)",
    );
    ensure(
        tenants.contains("\"rejected_quota\""),
        "/tenants: quota accounting present",
    );
    // /metrics: per-tenant labeled series alongside stable aggregates.
    ensure(
        metrics.contains("hf_run_latency_nanos_bucket{tenant=\"interactive\""),
        "metrics: per-tenant labeled run-latency buckets",
    );
    ensure(
        metrics.contains("hf_tenant_runs_total{tenant=\"batch\"}"),
        "metrics: per-tenant run counters",
    );
    ensure(
        metrics.contains("hf_run_latency_nanos_count"),
        "metrics: unlabeled aggregate histogram still present",
    );

    if failures.is_empty() {
        println!("check OK: all multi-tenant invariants hold");
    } else {
        eprintln!("check FAILED:");
        for f in &failures {
            eprintln!("  - {f}");
        }
        std::process::exit(1);
    }
}

//! Profiling a Heteroflow schedule with the unified telemetry layer.
//!
//! Wires a `TraceCollector` into the executor *and* the GPU runtime
//! (`ExecutorBuilder::tracer`), runs a small hybrid pipeline, and writes
//! four artifacts into the output directory:
//!
//! * `trace.json`    — merged CPU+GPU chrome trace (open in
//!   `chrome://tracing` or <https://ui.perfetto.dev>): worker spans under
//!   the `cpu` process, true device-side op spans under `gpu<d>`.
//! * `metrics.json`  — unified metrics registry snapshot (executor,
//!   per-device engine/pool counters, span histograms) as JSON.
//! * `metrics.prom`  — the same registry in Prometheus text exposition.
//! * `critpath.txt`  — the measured critical path with per-kind
//!   attribution.
//!
//! Run:   `cargo run --example profiling [-- OUTDIR]`
//! Check: `cargo run --example profiling -- OUTDIR --check` additionally
//! validates the artifacts (parses the JSON, checks span invariants) and
//! exits non-zero on violation — CI runs this mode.

use heteroflow::prelude::*;
use heteroflow::telemetry::{chrome_trace, critical_path, MetricsRegistry};
use std::sync::Arc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = args.iter().any(|a| a == "--check");
    let outdir = args
        .iter()
        .find(|a| *a != "--check")
        .cloned()
        .unwrap_or_else(|| ".".into());
    std::fs::create_dir_all(&outdir).expect("create output dir");

    let trace = TraceCollector::shared();
    let executor = Executor::builder(4, 2).tracer(Arc::clone(&trace)).build();

    // A small fan of hybrid pipelines to produce an interesting trace.
    let g = Heteroflow::new("profiled");
    let mut task_names = Vec::new();
    for lane in 0..6 {
        let data: HostVec<f64> = HostVec::new();
        let n = 4096 * (lane + 1);
        let h = g.host(&format!("fill{lane}"), {
            let data = data.clone();
            move || {
                let mut w = data.write();
                w.clear();
                w.extend((0..n).map(|i| i as f64));
            }
        });
        let p = g.pull(&format!("pull{lane}"), &data);
        let k = g.kernel(&format!("fma{lane}"), &[&p], move |cfg, args| {
            let v = args.slice_mut::<f64>(0).expect("data");
            for t in cfg.threads() {
                if t < v.len() {
                    v[t] = v[t].mul_add(1.5, 0.25);
                }
            }
        });
        k.cover(n, 256);
        let s = g.push(&format!("push{lane}"), &p, &data);
        h.precede(&p);
        p.precede(&k);
        k.precede(&s);
        for prefix in ["fill", "pull", "fma", "push"] {
            task_names.push(format!("{prefix}{lane}"));
        }
    }
    let frozen = g.freeze().expect("acyclic");
    assert!(g.analyze().is_clean(), "lint:\n{}", g.analyze().render_text());
    // One run: the critical-path join needs single-run spans.
    executor.run(&g).wait().expect("profiled graph runs");
    executor.gpu_runtime().synchronize_all();
    // Give the dispatching workers a moment to flush their end spans
    // (wait() is released by the device-side completion callback).
    std::thread::sleep(std::time::Duration::from_millis(20));

    let spans = trace.spans();
    println!(
        "captured {} spans ({} dropped)",
        spans.len(),
        trace.dropped()
    );
    let mut cpu = 0usize;
    let mut dev = 0usize;
    for s in &spans {
        match s.track {
            Track::Worker(_) => cpu += 1,
            Track::Device(_) => dev += 1,
        }
    }
    println!("  {cpu} worker-track spans, {dev} device-track spans");

    let registry = MetricsRegistry::new();
    registry.collect_executor(&executor.snapshot());
    registry.collect_gpu(executor.gpu_runtime());
    registry.collect_spans(&spans);

    let report = critical_path(&frozen, &spans);
    print!("{report}");

    let write = |file: &str, contents: String| {
        let path = format!("{outdir}/{file}");
        std::fs::write(&path, contents).expect("write artifact");
        println!("wrote {path}");
    };
    write("trace.json", chrome_trace(&spans));
    write("metrics.json", registry.to_json_string());
    write("metrics.prom", registry.prometheus_text());
    write("critpath.txt", report.to_string());

    if check {
        validate(&outdir, &task_names);
        println!("artifact validation passed");
    }
}

/// CI-mode validation: the artifacts on disk must parse and satisfy the
/// telemetry invariants.
fn validate(outdir: &str, task_names: &[String]) {
    let read = |f: &str| std::fs::read_to_string(format!("{outdir}/{f}")).expect("read artifact");

    // trace.json: valid JSON; every task appears exactly once as a
    // category-Task span; both CPU and GPU processes are present.
    let trace = serde_json::from_str(&read("trace.json")).expect("trace.json parses");
    let events = trace.as_array().expect("trace is an array");
    let mut pids = std::collections::BTreeSet::new();
    for name in task_names {
        let occurrences = events
            .iter()
            .filter(|e| {
                e.get("ph").and_then(|p| p.as_str()) == Some("X")
                    && e.get("name").and_then(|n| n.as_str()) == Some(name.as_str())
                    && e.get("args")
                        .and_then(|a| a.get("cat"))
                        .and_then(|c| c.as_str())
                        == Some(SpanCat::Task.name())
            })
            .count();
        assert_eq!(occurrences, 1, "task {name} must appear exactly once");
    }
    for e in events {
        pids.insert(e.get("pid").and_then(|p| p.as_u64()).expect("pid"));
    }
    assert!(pids.contains(&0), "CPU process present");
    assert!(pids.iter().any(|&p| p > 0), "GPU process present");

    // metrics.json parses and carries the unified sources.
    let metrics = serde_json::from_str(&read("metrics.json")).expect("metrics.json parses");
    let names: Vec<String> = metrics
        .as_array()
        .expect("metrics is an array")
        .iter()
        .map(|m| m.get("name").unwrap().as_str().unwrap().to_string())
        .collect();
    for required in [
        "hf_executor_tasks_executed_total",
        "hf_gpu_busy_nanos_total",
        "hf_gpu_pool_allocs_total",
        "hf_span_duration_us",
    ] {
        assert!(names.iter().any(|n| n == required), "metric {required}");
    }

    // metrics.prom: every line is a comment or `name[{labels}] value`.
    for line in read("metrics.prom").lines() {
        assert!(
            line.starts_with('#')
                || line
                    .split_whitespace()
                    .nth(1)
                    .map(|v| v.parse::<f64>().is_ok())
                    .unwrap_or(false),
            "malformed exposition line: {line}"
        );
    }

    // critpath.txt reports a non-empty measured path.
    let crit = read("critpath.txt");
    assert!(crit.contains("critical path of 'profiled'"));
    assert!(!crit.contains(" 0 us\n"), "path has measured time");
}

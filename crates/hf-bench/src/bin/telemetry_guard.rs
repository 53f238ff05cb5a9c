//! Telemetry overhead guard: a tracer and a flight recorder that are wired
//! but disabled must cost (approximately) nothing — one atomic load per
//! observer callback — and record nothing. Fails (non-zero exit) when the
//! disabled configuration exceeds the no-observer baseline by more than
//! 2 % plus 300 µs of absolute slack, so scheduler jitter cannot flake it.
//!
//! Usage: `cargo run --release -p hf-bench --bin telemetry_guard`

use hf_core::{Executor, Heteroflow, TraceCollector};
use hf_telemetry::FlightRecorder;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const WIDTH: usize = 256;
const ROUNDS: usize = 20;

fn main() {
    let base_ex = Executor::new(4, 0);
    let trace = TraceCollector::shared();
    trace.set_enabled(false);
    let recorder = FlightRecorder::shared();
    recorder.set_enabled(false);
    let dis_ex = Executor::builder(4, 0)
        .tracer(Arc::clone(&trace))
        .observer(recorder.clone())
        .build();

    // One root fanning out to WIDTH counting host tasks.
    let graph = Heteroflow::new("wide");
    let counter = Arc::new(AtomicUsize::new(0));
    let root = graph.host("root", || {});
    for i in 0..WIDTH {
        let c = Arc::clone(&counter);
        root.precede(&graph.host(&format!("t{i}"), move || {
            c.fetch_add(1, Ordering::Relaxed);
        }));
    }
    let sample = |ex: &Executor| {
        let t0 = Instant::now();
        ex.run_n(&graph, ROUNDS).wait().expect("runs");
        t0.elapsed()
    };

    // Min-of-samples with interleaving: the minimum of many samples
    // estimates the noise-free cost of each configuration, and alternating
    // them distributes machine-load drift fairly.
    for _ in 0..3 {
        sample(&base_ex);
        sample(&dis_ex);
    }
    let mut min_base = Duration::MAX;
    let mut min_dis = Duration::MAX;
    for _ in 0..15 {
        min_base = min_base.min(sample(&base_ex));
        min_dis = min_dis.min(sample(&dis_ex));
    }
    let ratio = min_dis.as_secs_f64() / min_base.as_secs_f64();
    println!(
        "[telemetry] disabled-telemetry overhead: base={min_base:?} disabled={min_dis:?} \
         ratio={ratio:.4}"
    );
    assert_eq!(
        recorder.events_recorded(),
        0,
        "disabled flight recorder must not capture lifecycle events"
    );
    assert!(
        min_dis.as_secs_f64() <= min_base.as_secs_f64() * 1.02 + 300e-6,
        "disabled telemetry exceeded the ~2% overhead budget: \
         base={min_base:?} disabled={min_dis:?} ratio={ratio:.4}"
    );
}

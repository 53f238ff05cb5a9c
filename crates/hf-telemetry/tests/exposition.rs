//! Golden exposition: the exact Prometheus text and JSON that
//! `collect_executor`, `collect_gpu` and `FlightRecorder::export_into`
//! produce for fixed inputs. Every `StatsSnapshot` field holds a distinct
//! value, so a metric wired to the wrong field changes the output.
//!
//! After a deliberate change to a metric, regenerate the files with
//! `HF_BLESS=1 cargo test -p hf-telemetry --test exposition` and review
//! the diff.

use hf_core::StatsSnapshot;
use hf_gpu::{GpuConfig, GpuRuntime};
use hf_telemetry::{FlightRecorder, MetricsRegistry};

fn snapshot() -> StatsSnapshot {
    StatsSnapshot {
        tasks_executed: 1,
        steals: 2,
        steal_attempts: 3,
        steal_success_rate: 0.25,
        sleeps: 5,
        wakeups: 6,
        rounds: 7,
        fused: 8,
        injector_batches: 9,
        notify_coalesced: 10,
        topo_cache_hits: 11,
        topo_cache_misses: 12,
        faults_injected: 13,
        retries: 14,
        devices_lost: 15,
        cancelled: 16,
        bytes_h2d: 17,
        bytes_d2h: 18,
        transfers_elided: 19,
        transfers_torn: 20,
        placement_warm_hits: 21,
        placement_est_bytes_saved: 22,
        placement_imbalance: 1.5,
        inflight_tasks: 24,
        queue_depth: 25,
    }
}

/// The registry after one collection from each source.
fn registry() -> MetricsRegistry {
    let reg = MetricsRegistry::new();
    reg.collect_executor(&snapshot());
    // Device 0: a hit after a free; device 1: one live block.
    let rt = GpuRuntime::new(2, GpuConfig::default());
    let d0 = &rt.devices()[0];
    let a = d0.alloc(4096).expect("alloc");
    let _small = d0.alloc(100).expect("alloc");
    d0.free(a).expect("free");
    let _again = d0.alloc(4000).expect("alloc");
    let _big = rt.devices()[1].alloc(1 << 20).expect("alloc");
    reg.collect_gpu(&rt);
    FlightRecorder::new().export_into(&reg);
    reg
}

fn check(file: &str, actual: &str) {
    let path = format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("HF_BLESS").is_some() {
        std::fs::write(&path, actual).expect("write golden");
    }
    let expected = std::fs::read_to_string(&path).expect("read golden");
    assert!(actual == expected, "{file} changed; diff it against {path}");
}

#[test]
fn prometheus_text_is_pinned() {
    check("exposition.prom", &registry().prometheus_text());
}

#[test]
fn json_is_pinned() {
    check("exposition.json", &registry().to_json_string());
}

//! Every metric the ladder reports, by name, unit and direction. The
//! lists here and in `BENCHMARK.json` are the same lists; a unit test
//! holds them together.

/// `(name, unit, better, bound)`: what a user of the runtime sees, measured
/// with all tracing off. `bound` is the share of the baseline's median by
/// which the metric may worsen before it counts as regressed. Failures are
/// carried by the result's `attempted` and `failed` counts rather than a
/// ratio that reads 0 on a healthy run.
///
/// The bounds are what ten runs on ten seeds resolve on the 2-core
/// reference VM, not what one would wish for: its host moves between a
/// fast and a slow state that last minutes and show no steal time
/// (`app_place`: 30 ms in one, 40 ms in the other), so a 10 % bound would
/// call the host a regression. The quiet quartile of the windows' p90
/// latencies is a diagnostic (`lat_p90_ms` in the run's results file), not
/// a gated metric: it spread 28 % over ten runs of `app_timing` that the
/// host split between its two states, where the median latency held 20 %.
pub const END_TO_END: [(&str, &str, &str, f64); 4] = [
    ("ops_per_s", "op/s", "higher", 0.25),
    ("lat_p50_ms", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("rss_peak_mib", "MiB", "lower", 0.25),
];

/// `(name, unit, better)` of the rungs: isolated timings of one layer's
/// public calls, the same whichever workload runs beside them.
pub const RUNGS: [(&str, &str, &str); 37] = [
    ("hf-sync.deque_push_pop_ns", "ns", "lower"),
    ("hf-sync.deque_steal_ns", "ns", "lower"),
    ("hf-sync.injector_batch_ns_per_item", "ns", "lower"),
    ("hf-sync.notifier_wake_us", "us", "lower"),
    ("hf-sync.slotcache_put_take_ns", "ns", "lower"),
    ("hf-sync.unionfind_ns_per_op", "ns", "lower"),
    ("hf-gpu.enqueue_to_callback_us", "us", "lower"),
    ("hf-gpu.event_cross_stream_us", "us", "lower"),
    ("hf-gpu.kernel_launch_us", "us", "lower"),
    ("hf-gpu.pool_alloc_free_ns", "ns", "lower"),
    ("hf-gpu.h2d_gib_s", "GiB/s", "higher"),
    ("hf-gpu.d2h_gib_s", "GiB/s", "higher"),
    ("hf-gpu.memcpy_raw_gib_s", "GiB/s", "higher"),
    ("hf-core.plan.graph_build_ns_per_task", "ns", "lower"),
    ("hf-core.plan.plan_cold_ms", "ms", "lower"),
    ("hf-core.sched.run_floor_us", "us", "lower"),
    ("hf-core.sched.ns_per_task_host", "ns", "lower"),
    ("hf-core.sched.ns_per_task_kernel_chain", "ns", "lower"),
    ("hf-core.xfer.h2d_chunked_gib_s", "GiB/s", "higher"),
    ("hf-core.xfer.h2d_unchunked_gib_s", "GiB/s", "higher"),
    ("hf-core.xfer.d2h_chunked_gib_s", "GiB/s", "higher"),
    ("hf-core.xfer.vs_memcpy_ratio", "ratio", "higher"),
    ("hf-core.xfer.elided_run_us", "us", "lower"),
    ("hf-core.stream.submit_block_ms", "ms", "lower"),
    ("hf-core.stream.epoch_period_ms", "ms", "lower"),
    ("hf-core.stream.resubmit_epoch_ms", "ms", "lower"),
    ("hf-core.stream.speedup_vs_resubmit", "ratio", "higher"),
    ("hf-core.stream.depth1_overhead_ratio", "ratio", "lower"),
    ("hf-core.fleet.solo_overhead_ratio", "ratio", "lower"),
    ("hf-telemetry.enabled_overhead_ratio", "ratio", "lower"),
    ("hf-timing.build_ms", "ms", "lower"),
    ("hf-timing.run_ms", "ms", "lower"),
    ("hf-timing.sta_sweep_ms", "ms", "lower"),
    ("hf-place.build_ms", "ms", "lower"),
    ("hf-place.run_ms", "ms", "lower"),
    ("hf-place.sequential_ms", "ms", "lower"),
    ("hf-place.speedup_vs_sequential", "ratio", "higher"),
];

/// `(name, unit, better)` of the traced-pass figures: counter differences
/// per op, span self times and fleet accounting of the workload being
/// run. A layer that workload never enters reads 0.
pub const TRACED: [(&str, &str, &str); 28] = [
    ("hf-gpu.pool_magazine_hit_ratio", "ratio", "higher"),
    ("hf-gpu.ops_per_op", "count", "lower"),
    ("hf-gpu.kernels_per_op", "count", "lower"),
    ("hf-core.plan.plan_cache_hit_ratio", "ratio", "higher"),
    ("hf-core.sched.tasks_per_op", "count", "lower"),
    ("hf-core.sched.fused_per_op", "count", "higher"),
    ("hf-core.sched.steals_per_op", "count", "lower"),
    ("hf-core.sched.steal_hit_ratio", "ratio", "higher"),
    ("hf-core.sched.sleeps_per_op", "count", "lower"),
    ("hf-core.sched.wakeups_per_op", "count", "lower"),
    ("hf-core.sched.injector_batches_per_op", "count", "lower"),
    ("hf-core.sched.retries_per_op", "count", "lower"),
    ("hf-core.xfer.bytes_h2d_per_op", "B", "lower"),
    ("hf-core.xfer.bytes_d2h_per_op", "B", "lower"),
    ("hf-core.xfer.elided_per_op", "count", "higher"),
    ("hf-core.fleet.submit_call_us", "us", "lower"),
    ("hf-core.fleet.queue_wait_ms.interactive", "ms", "lower"),
    ("hf-core.fleet.queue_wait_ms.batch", "ms", "lower"),
    ("hf-core.fleet.admitted_per_s", "1/s", "higher"),
    ("hf-core.fleet.rejected", "count", "lower"),
    ("bench.span.build_self_ms", "ms", "lower"),
    ("bench.span.mutate_self_ms", "ms", "lower"),
    ("bench.span.submit_self_ms", "ms", "lower"),
    ("bench.span.wait_self_ms", "ms", "lower"),
    ("bench.span.verify_self_ms", "ms", "lower"),
    ("bench.span.harness_self_ms", "ms", "lower"),
    ("bench.trace_overhead_ratio", "ratio", "lower"),
    ("bench.gen_late_p99_ms", "ms", "lower"),
];

/// Every per-layer metric, rungs first.
pub fn per_layer() -> impl Iterator<Item = &'static (&'static str, &'static str, &'static str)> {
    RUNGS.iter().chain(TRACED.iter())
}

pub fn unit_of(name: &str) -> &'static str {
    let e2e = END_TO_END.iter().map(|m| (m.0, m.1));
    e2e.chain(per_layer().map(|m| (m.0, m.1)))
        .find(|m| m.0 == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the registry"))
        .1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{GATED, WORKLOADS};
    use serde_json::Value;

    fn field<'a>(v: &'a Value, key: &str) -> &'a str {
        v.get(key)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("{key} missing in {v:?}"))
    }

    fn list<'a>(doc: &'a Value, key: &str) -> &'a Vec<Value> {
        doc.get(key)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("{key} missing"))
    }

    /// `BENCHMARK.json` at the root of the repository declares exactly
    /// the gated workloads and the metrics this binary reports.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = serde_json::from_str(&text).expect("BENCHMARK.json parses");

        let declared: Vec<(&str, &str)> = list(&doc, "workloads")
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let gated: Vec<(&str, &str)> = WORKLOADS
            .iter()
            .copied()
            .filter(|w| GATED.contains(&w.0))
            .collect();
        assert_eq!(gated.len(), GATED.len(), "a gated workload is not known");
        assert_eq!(declared, gated);

        let e2e: Vec<(&str, &str, &str, f64)> = list(&doc, "end_to_end")
            .iter()
            .map(|m| {
                let bound = m.get("bound").and_then(Value::as_f64).expect("bound");
                (
                    field(m, "name"),
                    field(m, "unit"),
                    field(m, "better"),
                    bound,
                )
            })
            .collect();
        assert_eq!(e2e, END_TO_END.to_vec());

        let layers: Vec<(&str, &str, &str)> = list(&doc, "per_layer")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        assert_eq!(layers, per_layer().copied().collect::<Vec<_>>());
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        names.extend(per_layer().map(|m| m.0));
        names.extend(WORKLOADS.iter().map(|w| w.0));
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        for n in &names {
            assert!(n.len() <= 64 && n.chars().all(ok), "bad name {n}");
            assert!(n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()));
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(WORKLOADS
            .iter()
            .all(|w| w.1.len() <= 200 && !w.1.contains('\n')));
    }
}

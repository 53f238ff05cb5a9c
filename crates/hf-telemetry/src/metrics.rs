//! Metrics registry: named counters, gauges, and histograms with JSON
//! and Prometheus text exposition.
//!
//! The runtime's statistics are scattered by design —
//! [`hf_core::Executor::snapshot`] on the executor, `DeviceStats`/`PoolStats`
//! per device, span streams in the trace collector. The registry unifies
//! them under stable metric names (`hf_executor_*`, `hf_gpu_*`,
//! `hf_span_*`) so one scrape/snapshot captures the whole runtime. Call
//! the `collect_*` methods at a quiescent point (after `wait()`), then
//! render with [`MetricsRegistry::prometheus_text`] or
//! [`MetricsRegistry::to_json_string`].

use hf_core::{SpanCat, StatsSnapshot, TraceSpan};
use hf_gpu::GpuRuntime;
use hf_sync::sync::Mutex;
use serde_json::{Map, Value};
use std::sync::atomic::{AtomicU64, Ordering};

/// A metric's value.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum MetricValue {
    /// Monotonic count.
    Counter(u64),
    /// Point-in-time measurement.
    Gauge(f64),
    /// Distribution with cumulative buckets (Prometheus semantics:
    /// `buckets[i]` counts observations `<= bounds[i]`).
    Histogram(Histogram),
}

impl MetricValue {
    fn type_name(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
        }
    }
}

/// A histogram over fixed bucket bounds.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Upper bucket bounds, ascending (an implicit `+Inf` bucket follows).
    pub(crate) bounds: Vec<f64>,
    /// Per-bound observation counts (not cumulative; `render` cumulates).
    /// One extra slot counts observations above the last bound.
    pub(crate) counts: Vec<u64>,
    /// Sum of observed values.
    pub(crate) sum: f64,
    /// Number of observations.
    pub count: u64,
}

impl Histogram {
    /// Creates an empty histogram with the given ascending bounds.
    pub(crate) fn new(bounds: Vec<f64>) -> Self {
        let n = bounds.len();
        Self {
            bounds,
            counts: vec![0; n + 1],
            sum: 0.0,
            count: 0,
        }
    }

    /// Records one observation.
    pub(crate) fn observe(&mut self, v: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.sum += v;
        self.count += 1;
    }

    /// Estimates the `q`-quantile (`q` in `[0, 1]`) from the bucket
    /// counts, Prometheus `histogram_quantile` style: find the bucket
    /// containing the target rank, then interpolate linearly between its
    /// lower and upper bound. Observations in the overflow (`+Inf`)
    /// bucket clamp to the last finite bound — a bucketed histogram
    /// cannot say more. Returns `0.0` for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = q * self.count as f64;
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                cum += c;
                continue;
            }
            let lo_cum = cum;
            cum += c;
            if (cum as f64) < rank {
                continue;
            }
            let Some(&upper) = self.bounds.get(i) else {
                // Overflow bucket: clamp to the last finite bound.
                return self
                    .bounds
                    .last()
                    .copied()
                    .unwrap_or(self.sum / self.count as f64);
            };
            let lower = if i == 0 { 0.0 } else { self.bounds[i - 1] };
            let frac = ((rank - lo_cum as f64) / c as f64).clamp(0.0, 1.0);
            return lower + (upper - lower) * frac;
        }
        self.bounds.last().copied().unwrap_or(0.0)
    }
}

/// Default duration buckets in microseconds: 1us .. ~1s, powers of 4.
pub(crate) fn duration_bounds_us() -> Vec<f64> {
    (0..11).map(|i| 4f64.powi(i)).collect()
}

/// Default duration buckets in nanoseconds: 256ns .. ~4.3s, powers of 4
/// (`4^4 .. 4^16`). Suited to task latencies, which span sub-microsecond
/// host tasks to multi-second chaos runs.
pub(crate) fn duration_bounds_nanos() -> Vec<f64> {
    (4..17).map(|i| 4f64.powi(i)).collect()
}

/// One registered metric: name + labels identify it, `help` documents it.
#[derive(Debug, Clone)]
struct Metric {
    name: String,
    help: String,
    labels: Vec<(String, String)>,
    value: MetricValue,
}

/// Insertion-ordered registry of named metrics.
///
/// `set_*` replaces the value of an existing (name, labels) pair, so
/// collectors can be re-run between phases; `observe` accumulates.
#[derive(Default)]
pub struct MetricsRegistry {
    metrics: Mutex<Vec<Metric>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn upsert(&self, name: &str, help: &str, labels: &[(&str, &str)], value: MetricValue) {
        let mut m = self.metrics.lock();
        let slot = entry(&mut m, name, help, labels, || value.clone());
        *slot = value;
    }

    /// Sets a counter metric.
    pub fn set_counter(&self, name: &str, help: &str, labels: &[(&str, &str)], v: u64) {
        self.upsert(name, help, labels, MetricValue::Counter(v));
    }

    /// Sets a gauge metric.
    pub fn set_gauge(&self, name: &str, help: &str, labels: &[(&str, &str)], v: f64) {
        self.upsert(name, help, labels, MetricValue::Gauge(v));
    }

    /// Records one observation into a histogram metric (created with the
    /// default microsecond-duration buckets on first use).
    pub fn observe(&self, name: &str, help: &str, labels: &[(&str, &str)], v: f64) {
        let mut m = self.metrics.lock();
        let init = || MetricValue::Histogram(Histogram::new(duration_bounds_us()));
        if let MetricValue::Histogram(h) = entry(&mut m, name, help, labels, init) {
            h.observe(v);
        }
    }

    /// Sets each `(name, help, value)` row under one label set, in order.
    pub(crate) fn set_rows(
        &self,
        labels: &[(&str, &str)],
        rows: impl IntoIterator<Item = (&'static str, &'static str, MetricValue)>,
    ) {
        for (name, help, value) in rows {
            self.upsert(name, help, labels, value);
        }
    }

    /// Imports an executor statistics snapshot as `hf_executor_*` metrics.
    pub fn collect_executor(&self, s: &StatsSnapshot) {
        use MetricValue::{Counter as C, Gauge as G};
        #[rustfmt::skip]
        let rows = [
            ("hf_executor_tasks_executed_total", "Tasks executed (all kinds)", C(s.tasks_executed)),
            ("hf_executor_steals_total", "Successful steals", C(s.steals)),
            ("hf_executor_steal_attempts_total", "Steal attempts", C(s.steal_attempts)),
            ("hf_executor_steal_success_rate", "steals / steal_attempts", G(s.steal_success_rate)),
            ("hf_executor_sleeps_total", "Worker sleep commits", C(s.sleeps)),
            ("hf_executor_wakeups_total", "Sleeping-worker wakeups", C(s.wakeups)),
            ("hf_executor_rounds_total", "Graph rounds completed", C(s.rounds)),
            ("hf_executor_fused_total", "GPU tasks dispatched as fused chain members", C(s.fused)),
            ("hf_executor_injector_batches_total", "Batched injector sprays", C(s.injector_batches)),
            ("hf_executor_notify_coalesced_total", "Wakeups saved by notification coalescing", C(s.notify_coalesced)),
            ("hf_executor_topo_cache_hits_total", "Cached freeze/placement plan reuses", C(s.topo_cache_hits)),
            ("hf_executor_topo_cache_misses_total", "Freeze + placement recomputations", C(s.topo_cache_misses)),
            ("hf_executor_faults_injected_total", "Injected device faults observed by task failures", C(s.faults_injected)),
            ("hf_executor_retries_total", "Task attempts re-scheduled by the retry policy", C(s.retries)),
            ("hf_executor_devices_lost_total", "Devices observed as lost", C(s.devices_lost)),
            ("hf_executor_cancelled_total", "Submissions finished as cancelled", C(s.cancelled)),
            ("hf_executor_bytes_h2d_total", "Host-to-device bytes actually copied by pull tasks", C(s.bytes_h2d)),
            ("hf_executor_bytes_d2h_total", "Device-to-host bytes copied back by push tasks", C(s.bytes_d2h)),
            ("hf_executor_transfers_elided_total", "H2D copies skipped because the device bytes were already current", C(s.transfers_elided)),
            ("hf_executor_transfers_torn_total", "Chunked pulls re-copied whole because the source changed mid-transfer", C(s.transfers_torn)),
            ("hf_placement_warm_hits_total", "Groups placed onto a device already holding their data warm", C(s.placement_warm_hits)),
            ("hf_placement_est_bytes_saved_total", "Transfer bytes placement estimated its warm-hit decisions would save via elision", C(s.placement_est_bytes_saved)),
            ("hf_placement_imbalance", "Cost-weighted imbalance (max/mean bin load) of the latest placement", G(s.placement_imbalance)),
            ("hf_executor_inflight_tasks", "Workers inside an exploit burst (live gauge; populated by Executor::snapshot)", G(s.inflight_tasks as f64)),
            ("hf_executor_queue_depth", "Tasks waiting in the injector and worker deques (live gauge; populated by Executor::snapshot)", G(s.queue_depth as f64)),
        ];
        self.set_rows(&[], rows);
    }

    /// Imports per-device engine and memory-pool statistics as
    /// `hf_gpu_*` metrics labeled by device.
    pub fn collect_gpu(&self, rt: &GpuRuntime) {
        use MetricValue::{Counter as C, Gauge as G};
        for d in rt.devices() {
            let (st, p) = (d.stats(), d.pool_stats());
            let n = |c: &AtomicU64| C(c.load(Ordering::Relaxed));
            #[rustfmt::skip]
            let rows = [
                ("hf_gpu_busy_nanos_total", "Modeled busy nanoseconds", n(&st.busy_nanos)),
                ("hf_gpu_h2d_bytes_total", "Host-to-device bytes copied", n(&st.h2d_bytes)),
                ("hf_gpu_d2h_bytes_total", "Device-to-host bytes copied", n(&st.d2h_bytes)),
                ("hf_gpu_kernels_total", "Kernels launched", n(&st.kernels)),
                ("hf_gpu_ops_total", "Stream ops executed", n(&st.ops)),
                ("hf_gpu_pool_allocs_total", "Pool allocations", C(p.allocs)),
                ("hf_gpu_pool_frees_total", "Pool frees", C(p.frees)),
                ("hf_gpu_pool_splits_total", "Buddy block splits", C(p.splits)),
                ("hf_gpu_pool_merges_total", "Buddy coalesces", C(p.merges)),
                ("hf_gpu_pool_failures_total", "Out-of-memory allocation failures", C(p.failures)),
                ("hf_gpu_pool_magazine_hits_total", "Allocations served from a lock-free magazine", C(p.magazine_hits)),
                ("hf_gpu_pool_magazine_misses_total", "Allocations that fell through to the buddy allocator", C(p.magazine_misses)),
                ("hf_gpu_pool_magazine_cached_bytes", "Bytes parked in magazine caches", G(p.magazine_cached_bytes as f64)),
                ("hf_gpu_pool_bytes_in_use", "Bytes currently handed out", G(p.bytes_in_use as f64)),
                ("hf_gpu_pool_peak_bytes", "High-water mark of bytes in use", G(p.peak_bytes as f64)),
            ];
            self.set_rows(&[("device", d.id().to_string().as_str())], rows);
        }
    }

    /// Imports recorded spans as duration histograms
    /// (`hf_span_duration_us`) labeled by span category and task kind.
    pub fn collect_spans(&self, spans: &[TraceSpan]) {
        for s in spans {
            let kind = match s.cat {
                SpanCat::Task | SpanCat::Dispatch => s.kind.to_string(),
                _ => "-".to_string(),
            };
            self.observe(
                "hf_span_duration_us",
                "Span durations in microseconds",
                &[("cat", s.cat.name()), ("kind", kind.as_str())],
                s.dur_us as f64,
            );
        }
    }

    /// Renders the registry as a JSON array (one object per metric).
    pub(crate) fn to_json(&self) -> Value {
        let m = self.metrics.lock();
        let mut arr = Vec::with_capacity(m.len());
        for metric in m.iter() {
            let mut o = Map::new();
            o.insert("name".into(), Value::Str(metric.name.clone()));
            o.insert("type".into(), Value::Str(metric.value.type_name().into()));
            o.insert("help".into(), Value::Str(metric.help.clone()));
            let mut labels = Map::new();
            for (k, v) in &metric.labels {
                labels.insert(k.clone(), Value::Str(v.clone()));
            }
            o.insert("labels".into(), Value::Object(labels));
            match &metric.value {
                MetricValue::Counter(v) => {
                    o.insert("value".into(), Value::UInt(*v));
                }
                MetricValue::Gauge(v) => {
                    o.insert("value".into(), Value::Float(*v));
                }
                MetricValue::Histogram(h) => {
                    let mut buckets = Vec::new();
                    let mut cum = 0u64;
                    for (i, c) in h.counts.iter().enumerate() {
                        cum += c;
                        let mut b = Map::new();
                        let le = h
                            .bounds
                            .get(i)
                            .map(|x| Value::Float(*x))
                            .unwrap_or(Value::Str("+Inf".into()));
                        b.insert("le".into(), le);
                        b.insert("count".into(), Value::UInt(cum));
                        buckets.push(Value::Object(b));
                    }
                    o.insert("buckets".into(), Value::Array(buckets));
                    o.insert("sum".into(), Value::Float(h.sum));
                    o.insert("count".into(), Value::UInt(h.count));
                }
            }
            arr.push(Value::Object(o));
        }
        Value::Array(arr)
    }

    /// Renders the registry as pretty-printed JSON.
    pub fn to_json_string(&self) -> String {
        serde_json::to_string_pretty(&self.to_json()).expect("infallible")
    }

    /// Renders the registry in the Prometheus text exposition format
    /// (`# HELP` / `# TYPE` headers, `name{labels} value` samples;
    /// histograms expand to `_bucket`/`_sum`/`_count` series).
    pub fn prometheus_text(&self) -> String {
        let m = self.metrics.lock();
        let mut out = String::new();
        let mut described: Vec<&str> = Vec::new();
        for metric in m.iter() {
            if !described.contains(&metric.name.as_str()) {
                out.push_str(&format!("# HELP {} {}\n", metric.name, metric.help));
                out.push_str(&format!(
                    "# TYPE {} {}\n",
                    metric.name,
                    metric.value.type_name()
                ));
                described.push(metric.name.as_str());
            }
            match &metric.value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!(
                        "{}{} {}\n",
                        metric.name,
                        label_set(&metric.labels, None),
                        v
                    ));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!(
                        "{}{} {}\n",
                        metric.name,
                        label_set(&metric.labels, None),
                        v
                    ));
                }
                MetricValue::Histogram(h) => {
                    let mut cum = 0u64;
                    for (i, c) in h.counts.iter().enumerate() {
                        cum += c;
                        let le = h
                            .bounds
                            .get(i)
                            .map(|x| x.to_string())
                            .unwrap_or_else(|| "+Inf".to_string());
                        out.push_str(&format!(
                            "{}_bucket{} {}\n",
                            metric.name,
                            label_set(&metric.labels, Some(&le)),
                            cum
                        ));
                    }
                    out.push_str(&format!(
                        "{}_sum{} {}\n",
                        metric.name,
                        label_set(&metric.labels, None),
                        h.sum
                    ));
                    out.push_str(&format!(
                        "{}_count{} {}\n",
                        metric.name,
                        label_set(&metric.labels, None),
                        h.count
                    ));
                }
            }
        }
        out
    }
}

/// Index of the metric `(name, labels)` in `m`.
fn position(m: &[Metric], name: &str, labels: &[(&str, &str)]) -> Option<usize> {
    m.iter().position(|x| {
        x.name == name
            && x.labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .eq(labels.iter().copied())
    })
}

/// The one way into the registry: the value of the metric `(name,
/// labels)`, registered with `help` and `init()` first when absent.
fn entry<'a>(
    m: &'a mut Vec<Metric>,
    name: &str,
    help: &str,
    labels: &[(&str, &str)],
    init: impl FnOnce() -> MetricValue,
) -> &'a mut MetricValue {
    let i = position(m, name, labels).unwrap_or_else(|| {
        m.push(Metric {
            name: name.to_string(),
            help: help.to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            value: init(),
        });
        m.len() - 1
    });
    &mut m[i].value
}

/// Formats a `{k="v",...}` label set (empty string when no labels and no
/// `le` bound). Values are escaped as the text format specifies: `\`,
/// `"` and a newline become `\\`, `\"` and `\n`.
fn label_set(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let escape = |v: &str| {
        v.replace('\\', r"\\")
            .replace('"', r#"\""#)
            .replace('\n', r"\n")
    };
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape(v)))
        .collect();
    if let Some(le) = le {
        parts.push(format!("le=\"{le}\""));
    }
    format!("{{{}}}", parts.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hf_core::TaskKind;
    use hf_core::Track;

    #[test]
    fn counters_and_gauges_roundtrip() {
        let r = MetricsRegistry::new();
        r.set_counter("hf_test_total", "a counter", &[], 3);
        r.set_counter("hf_test_total", "a counter", &[], 5); // replace
        r.set_gauge("hf_test_rate", "a gauge", &[("worker", "1")], 0.5);
        let text = r.prometheus_text();
        assert!(text.contains("# TYPE hf_test_total counter"));
        assert!(text.contains("hf_test_total 5"));
        assert!(text.contains("hf_test_rate{worker=\"1\"} 0.5"));
        let json = serde_json::from_str(&r.to_json_string()).expect("valid JSON");
        let arr = json.as_array().unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[0].get("value").unwrap().as_u64(), Some(5));
    }

    #[test]
    fn histogram_buckets_cumulate() {
        let r = MetricsRegistry::new();
        for v in [0.5, 3.0, 3.0, 1e9] {
            r.observe("hf_lat_us", "latency", &[], v);
        }
        let text = r.prometheus_text();
        assert!(text.contains("hf_lat_us_bucket{le=\"1\"} 1"));
        assert!(text.contains("hf_lat_us_bucket{le=\"4\"} 3"));
        assert!(text.contains("hf_lat_us_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("hf_lat_us_count 4"));
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let mut h = Histogram::new(vec![10.0, 20.0, 40.0]);
        for _ in 0..10 {
            h.observe(5.0); // all land in (0, 10]
        }
        // Rank q*10 inside the first bucket: linear between 0 and 10.
        assert!((h.quantile(0.5) - 5.0).abs() < 1e-9);
        assert!((h.quantile(1.0) - 10.0).abs() < 1e-9);
        // Spread across buckets: 5 in (0,10], 5 in (10,20].
        let mut h = Histogram::new(vec![10.0, 20.0]);
        for v in [1.0, 2.0, 3.0, 4.0, 5.0, 11.0, 12.0, 13.0, 14.0, 15.0] {
            h.observe(v);
        }
        assert!((h.quantile(0.5) - 10.0).abs() < 1e-9);
        assert!(h.quantile(0.9) > 10.0 && h.quantile(0.9) <= 20.0);
    }

    #[test]
    fn quantile_edge_cases() {
        let h = Histogram::new(vec![1.0, 2.0]);
        assert_eq!(h.quantile(0.99), 0.0, "empty histogram");
        let mut h = Histogram::new(vec![1.0, 2.0]);
        h.observe(100.0); // overflow bucket
        assert_eq!(h.quantile(0.5), 2.0, "overflow clamps to last bound");
        let mut h = Histogram::new(vec![]);
        h.observe(3.0);
        assert_eq!(h.quantile(0.5), 3.0, "no bounds falls back to mean");
    }

    #[test]
    fn prometheus_histogram_conformance() {
        // The exposition must carry cumulative `le`-labeled buckets, a
        // trailing `+Inf` bucket equal to `_count`, and `_sum`.
        // Built the way the flight recorder publishes its histograms.
        let r = MetricsRegistry::new();
        let bounds = duration_bounds_nanos();
        let mut h = Histogram::new(bounds.clone());
        for v in [100.0, 300.0, 2000.0, 1e12] {
            h.observe(v);
        }
        let p99 = h.quantile(0.99);
        let row = ("hf_task_exec_nanos", "exec time", MetricValue::Histogram(h));
        r.set_rows(&[("kind", "host")], [row]);
        let text = r.prometheus_text();
        assert!(text.contains("# TYPE hf_task_exec_nanos histogram"));
        // 256 is the first bound (4^4): one observation (100) <= 256.
        assert!(text.contains("hf_task_exec_nanos_bucket{kind=\"host\",le=\"256\"} 1"));
        // 1024 = 4^5: 100 and 300 both fit; cumulative 2.
        assert!(text.contains("hf_task_exec_nanos_bucket{kind=\"host\",le=\"1024\"} 2"));
        assert!(text.contains("hf_task_exec_nanos_bucket{kind=\"host\",le=\"+Inf\"} 4"));
        assert!(text.contains("hf_task_exec_nanos_count{kind=\"host\"} 4"));
        assert!(text.contains("hf_task_exec_nanos_sum{kind=\"host\"}"));
        // Cumulative counts never decrease across the bucket series.
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.contains("_bucket")) {
            let n: u64 = line.split_whitespace().nth(1).unwrap().parse().unwrap();
            assert!(n >= last, "non-cumulative bucket line: {line}");
            last = n;
        }
        // p99 of [100, 300, 2000, 1e12] under these buckets clamps into
        // the overflow → last finite bound.
        assert_eq!(p99, *bounds.last().unwrap());
    }

    #[test]
    fn executor_live_gauges_are_exported() {
        let r = MetricsRegistry::new();
        let s = StatsSnapshot {
            inflight_tasks: 3,
            queue_depth: 7,
            ..Default::default()
        };
        r.collect_executor(&s);
        let text = r.prometheus_text();
        assert!(text.contains("hf_executor_inflight_tasks 3"));
        assert!(text.contains("hf_executor_queue_depth 7"));
    }

    #[test]
    fn collects_all_runtime_sources() {
        use hf_core::data::HostVec;
        use hf_core::{Executor, Heteroflow, TraceCollector};
        use std::sync::Arc;

        let trace = TraceCollector::shared();
        let ex = Executor::builder(2, 1).tracer(Arc::clone(&trace)).build();
        let g = Heteroflow::new("m");
        let d: HostVec<u32> = HostVec::from_vec(vec![0; 1024]);
        let p = g.pull("p", &d);
        let k = g.kernel("k", &[&p], |_, _| {});
        k.cover(1024, 128);
        // End on a host task: its counter increment happens before the
        // worker finishes it, so the totals are deterministic at wait().
        let h = g.host("done", || {});
        p.precede(&k);
        k.precede(&h);
        ex.run(&g).wait().expect("runs");

        let r = MetricsRegistry::new();
        r.collect_executor(&ex.snapshot());
        r.collect_gpu(ex.gpu_runtime());
        r.collect_spans(&trace.spans());
        let text = r.prometheus_text();
        assert!(text.contains("hf_executor_tasks_executed_total 3"));
        assert!(text.contains("hf_gpu_h2d_bytes_total{device=\"0\"} 4096"));
        assert!(text.contains("hf_gpu_pool_allocs_total{device=\"0\"} 1"));
        assert!(text.contains("hf_placement_warm_hits_total 0"));
        assert!(text.contains("hf_placement_est_bytes_saved_total 0"));
        assert!(text.contains("hf_placement_imbalance 1"));
        assert!(text.contains("hf_span_duration_us_bucket"));
        // Every line is a comment or `name[{labels}] value`.
        for line in text.lines() {
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
    }

    #[test]
    fn span_histograms_label_by_cat_and_kind() {
        let r = MetricsRegistry::new();
        r.collect_spans(&[TraceSpan {
            track: Track::Device(0),
            name: "k".into(),
            cat: SpanCat::Task,
            kind: TaskKind::Kernel,
            device: Some(0),
            stream: Some(0),
            start_us: 0,
            dur_us: 10,
            bytes: 0,
            epoch: None,
        }]);
        let text = r.prometheus_text();
        assert!(text.contains("cat=\"task\""));
        assert!(text.contains("kind=\"kernel\""));
    }
}

//! Unified telemetry for the Heteroflow runtime.
//!
//! The runtime's observability primitives live where the data is
//! produced: `hf-core` records CPU+GPU spans ([`hf_core::TraceCollector`]
//! wired via [`hf_core::ExecutorBuilder::tracer`]), `hf-gpu` counts
//! device/pool traffic, and `hf-sim` emits modeled schedules. This crate
//! is the *consumer* layer that turns those raw sources into artifacts:
//!
//! * [`metrics`] — a registry unifying [`hf_core::StatsSnapshot`],
//!   device/pool statistics, and span-derived histograms into named
//!   counters/gauges/histograms with JSON and Prometheus text exposition.
//! * [`export`] — Perfetto / `chrome://tracing` trace export with
//!   process/thread naming metadata, for executor spans and simulated
//!   schedules alike.
//! * [`critpath`] — a post-run critical-path analyzer that walks recorded
//!   spans along the graph's dependency edges and reports the longest
//!   chain with per-kind time attribution.
//! * [`health`] — the runtime health layer: a task-lifecycle flight
//!   recorder ("black box"), latency attribution (queue delay / exec /
//!   run latency histograms), and a straggler/hang watchdog.
//! * [`serve`] — a dependency-free live HTTP endpoint exposing
//!   `/metrics` (Prometheus), `/health`, `/runs`, and `/flight`.

#![warn(missing_docs)]

pub mod critpath;
pub mod export;
pub mod health;
pub mod metrics;
pub mod serve;

pub use critpath::{critical_path, CriticalPathReport, PathStep};
pub use export::{chrome_trace, spans_from_sim};
pub use health::{
    FlightRecorder, HealthEvent, HealthVerdict, LatencyRecord, RunProgress, RunSummary, Watchdog,
    WatchdogConfig,
};
pub use metrics::MetricsRegistry;
pub use serve::{HealthHub, HealthServer};

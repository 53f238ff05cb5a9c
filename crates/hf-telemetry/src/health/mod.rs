//! Runtime health layer: task-lifecycle flight recorder, latency
//! attribution, and a straggler/hang watchdog.
//!
//! The executor emits a [`LifecycleEvent`] at every task transition
//! (submit → ready → started → dispatched → finished/retried/failed,
//! plus run start/end) through the [`hf_core::ExecutorObserver`]
//! `on_lifecycle` hook. The [`FlightRecorder`] is the observer that
//! captures them: the hot path is one enabled check plus a lock-free
//! [`EventRing`] push, so recording never blocks a worker, and a
//! *disabled* recorder costs a single relaxed atomic load (the same
//! `is_active` fast path the span tracer uses — with every observer
//! inactive the executor never even constructs the event).
//!
//! Everything stateful happens off the hot path in
//! [`FlightRecorder::pump`], which drains the ring and folds events into
//! per-run flight logs ("black boxes"), latency-attribution histograms
//! (`queue delay = started − ready`, `exec = finished − started`,
//! `run latency = run_end − run_start`), and per-task execution-time
//! EWMAs. The [`Watchdog`] runs `pump` on its own monitor thread, watches
//! armed runs for no-progress windows and stragglers, and escalates
//! structured [`HealthEvent`]s (warn → stall → hang), optionally tripping
//! cooperative cancellation at a deadline.
//!
//! [`LifecycleEvent`]: hf_core::LifecycleEvent
//! [`EventRing`]: hf_sync::EventRing

mod events;
mod recorder;
mod tenants;
mod watchdog;

pub use events::{HealthEvent, HealthVerdict};
pub use recorder::{FlightRecorder, RunProgress, RunSummary};
pub use tenants::TenantLatency;
pub use watchdog::{Watchdog, WatchdogConfig};

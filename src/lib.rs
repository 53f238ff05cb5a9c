//! # Heteroflow (Rust reproduction)
//!
//! A concurrent CPU-GPU task programming system, reproducing *Concurrent
//! CPU-GPU Task Programming using Modern C++* (Huang & Lin, IPPS 2022) in
//! Rust. This facade crate re-exports the workspace:
//!
//! * [`core`] — task graphs, typed task handles, the
//!   work-stealing executor, and the device-placement scheduler.
//! * [`gpu`] — the software GPU substrate (devices, streams,
//!   events, buddy-allocator memory pools, kernel launches).
//! * [`sync`] — the lock-free substrate (Chase–Lev deque,
//!   eventcount notifier, union-find).
//! * [`sim`] — the discrete-event performance model used to
//!   regenerate the paper's scaling figures.
//! * [`telemetry`] — unified observability: metrics
//!   registry (Prometheus/JSON), merged CPU-GPU Perfetto traces, and the
//!   span-based critical-path profiler.
//! * [`timing`] — the VLSI static-timing-analysis application
//!   (§IV-A).
//! * [`place`] — the VLSI detailed-placement application
//!   (§IV-B).
//!
//! ## Quickstart
//!
//! ```
//! use heteroflow::prelude::*;
//!
//! let executor = Executor::new(4, 2); // 4 CPU workers, 2 GPUs
//! let g = Heteroflow::new("demo");
//! let data: HostVec<f32> = HostVec::from_vec(vec![1.0; 1024]);
//!
//! let pull = g.pull("pull", &data);
//! let kernel = g.kernel("double", &[&pull], |cfg, args| {
//!     let xs = args.slice_mut::<f32>(0).unwrap();
//!     for i in cfg.threads() {
//!         if i < xs.len() { xs[i] *= 2.0; }
//!     }
//! });
//! kernel.cover(1024, 256);
//! let push = g.push("push", &pull, &data);
//!
//! pull.precede(&kernel);
//! kernel.precede(&push);
//!
//! executor.run(&g).wait().unwrap();
//! assert!(data.read().iter().all(|&v| v == 2.0));
//! ```

pub use hf_core as core;
pub use hf_core::analyze;
pub use hf_gpu as gpu;
pub use hf_place as place;
pub use hf_sim as sim;
pub use hf_sync as sync;
pub use hf_telemetry as telemetry;
pub use hf_timing as timing;

/// The commonly-used types in one import: the hf-core prelude (graph
/// building, executor, retry/failover policies, fault injection, run
/// control) plus the telemetry entry points and the runtime health layer
/// (flight recorder, watchdog, live `/metrics` endpoint).
pub mod prelude {
    pub use hf_core::prelude::*;
    pub use hf_telemetry::{
        critical_path, FlightRecorder, HealthEvent, HealthHub, HealthServer, HealthVerdict,
        MetricsRegistry, Watchdog, WatchdogConfig,
    };
}

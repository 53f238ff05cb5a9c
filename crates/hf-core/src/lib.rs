//! Heteroflow core: concurrent CPU-GPU task programming with task
//! dependency graphs.
//!
//! Rust reproduction of *Concurrent CPU-GPU Task Programming using Modern
//! C++* (Huang & Lin, IPPS 2022). Users express a computation as a DAG of
//! four task kinds and hand it to an executor:
//!
//! * **host** — a callable on a CPU core ([`Heteroflow::host`])
//! * **pull** — a host→device copy ([`Heteroflow::pull`])
//! * **push** — a device→host copy ([`Heteroflow::push`])
//! * **kernel** — a GPU offload ([`Heteroflow::kernel`])
//!
//! The saxpy program of the paper's Listing 1:
//!
//! ```
//! use hf_core::prelude::*;
//!
//! const N: usize = 65536;
//! let x: HostVec<i32> = HostVec::new();
//! let y: HostVec<i32> = HostVec::new();
//!
//! let executor = Executor::new(8, 4);
//! let g = Heteroflow::new("saxpy");
//!
//! let host_x = g.host("host_x", { let x = x.clone(); move || x.write().resize(N, 1) });
//! let host_y = g.host("host_y", { let y = y.clone(); move || y.write().resize(N, 2) });
//! let pull_x = g.pull("pull_x", &x);
//! let pull_y = g.pull("pull_y", &y);
//! let kernel = g.kernel("saxpy", &[&pull_x, &pull_y], move |cfg, args| {
//!     let (xs, ys) = args.slice2_mut::<i32, i32>(0, 1).unwrap();
//!     let a = 2;
//!     for i in cfg.threads() {
//!         if i < N { ys[i] = a * xs[i] + ys[i]; }
//!     }
//! });
//! kernel.block_x(256).grid_x((N as u32 + 255) / 256);
//! let push_x = g.push("push_x", &pull_x, &x);
//! let push_y = g.push("push_y", &pull_y, &y);
//!
//! host_x.precede(&pull_x);
//! host_y.precede(&pull_y);
//! kernel.precede_all(&[&push_x, &push_y]);
//! kernel.succeed_all(&[&pull_x, &pull_y]);
//!
//! let future = executor.run(&g);
//! future.wait().unwrap();
//! assert!(y.read().iter().all(|&v| v == 4));
//! ```
//!
//! The executor (§III-B/C) spawns N workers over Chase–Lev deques, places
//! GPU tasks onto devices with Algorithm 1 (union-find grouping +
//! balanced-load bin packing — [`placement`]), and schedules with
//! work-stealing under an adaptive wake/sleep strategy.

#![warn(missing_docs)]

pub mod admission;
pub mod analyze;
pub mod costmodel;
pub mod data;
pub mod dot;
pub mod error;
pub mod executor;
pub mod fleet;
pub mod graph;
pub mod inspect;
pub mod lifecycle;
pub mod observer;
pub mod placement;
pub mod prelude;
pub(crate) mod ready;
pub(crate) mod recovery;
pub(crate) mod registry;
pub mod retry;
pub mod stats;
pub(crate) mod stream;
pub mod task;
pub(crate) mod topology;
pub(crate) mod transfer;
pub(crate) mod worker;

pub use admission::{
    AdmissionPolicy, Fifo, LaneView, TenantConfig, TenantId, WeightedFair,
};
pub use analyze::{Diagnostic, Report, Severity};
pub use costmodel::{CostDb, TaskCosts};
pub use error::HfError;
pub use executor::{Executor, ExecutorBuilder, LintPolicy};
pub use fleet::{Fleet, FleetConfig, FleetSnapshot, TenantSnapshot};
pub use graph::{FrozenGraph, Heteroflow, TaskKind};
pub use inspect::{GraphInfo, NodeInfo};
pub use lifecycle::{lifecycle_now_ns, LifecycleEvent, LifecyclePhase};
pub use observer::{ExecutorObserver, SpanCat, TraceCollector, TraceSpan, Track};
pub use placement::{device_placement, place, PlaceInput, Placement};
pub use retry::{OnDeviceLoss, RetryPolicy};
pub use stats::StatsSnapshot;
pub use stream::{Session, StreamConfig};
pub use task::{AsTask, HostTask, KernelTask, PullTask, PushTask, TaskRef};
pub use topology::{Completion, EpochFuture, RunFuture};

// Re-export the GPU substrate types that appear in the public API.
pub use hf_gpu::{GpuConfig, GpuRuntime, KernelArgs, LaunchConfig};

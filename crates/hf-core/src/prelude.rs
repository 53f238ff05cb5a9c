//! One-stop imports for the build-and-run surface of Heteroflow.
//!
//! `use hf_core::prelude::*;` brings in everything needed to build a
//! graph, configure an executor (including retry/failover policies and
//! fault injection), run it, and inspect the result:
//!
//! ```
//! use hf_core::prelude::*;
//!
//! let x: HostVec<i32> = HostVec::from_vec(vec![1, 2, 3]);
//! let executor = Executor::new(2, 1);
//! let g = Heteroflow::new("inc");
//! let pull = g.pull("pull", &x);
//! let kernel = g.kernel("inc", &[&pull], |cfg, args| {
//!     let xs = args.slice_mut::<i32>(0).unwrap();
//!     for i in cfg.threads() {
//!         if i < xs.len() { xs[i] += 1; }
//!     }
//! });
//! kernel.block_x(3);
//! let push = g.push("push", &pull, &x);
//! pull.precede(&kernel);
//! kernel.precede(&push);
//! executor.run(&g).wait().unwrap();
//! assert_eq!(&*x.read(), &[2, 3, 4]);
//! ```

pub use crate::admission::{AdmissionPolicy, Fifo, LaneView, TenantConfig, TenantId, WeightedFair};
pub use crate::analyze::{Diagnostic, Report, Severity};
pub use crate::data::HostVec;
pub use crate::error::HfError;
pub use crate::executor::{Executor, ExecutorBuilder};
pub use crate::fleet::{Fleet, FleetConfig, FleetSnapshot, TenantSnapshot};
pub use crate::graph::{FrozenGraph, Heteroflow, TaskKind};
pub use crate::lifecycle::{LifecycleEvent, LifecyclePhase};
pub use crate::observer::{SpanCat, TraceCollector, Track};
pub use crate::placement::Placement;
pub use crate::retry::{OnDeviceLoss, RetryPolicy};
pub use crate::stats::StatsSnapshot;
pub use crate::stream::{Session, StreamConfig};
pub use crate::task::{AsTask, HostTask, KernelTask, PullTask, PushTask, TaskRef};
pub use crate::topology::{Completion, EpochFuture, RunFuture};

// GPU substrate types that appear in the public API: device and launch
// configuration, kernel arguments, errors, and the fault injector.
pub use hf_gpu::{FaultPlan, FaultSite, GpuConfig, GpuError, GpuRuntime, KernelArgs, LaunchConfig};

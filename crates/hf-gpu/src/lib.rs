//! Software GPU substrate for the Heteroflow runtime.
//!
//! The paper's implementation sits on CUDA: devices, streams, events,
//! `cudaMemcpyAsync`, kernel launches, and a per-device buddy-allocator
//! memory pool (§III). This environment has no GPU, so this crate builds a
//! faithful software equivalent that exercises the same code paths the
//! Heteroflow runtime manages:
//!
//! * [`runtime::GpuRuntime`] owns `M` [`device::Device`]s. Each device has a
//!   byte-addressed memory [`arena`], a [`pool::MemoryPool`] backed by a
//!   Knowlton [`buddy::BuddyAllocator`] (the exact algorithm the paper
//!   cites, ref [22]), and one *engine thread* that drains that device's
//!   streams in order.
//! * [`stream::Stream`]s are FIFO queues of asynchronous operations
//!   (copies, kernel launches, event records/waits, host callbacks).
//!   Enqueueing returns immediately — like `cudaMemcpyAsync` — and the
//!   engine thread executes ops respecting per-stream order and
//!   cross-stream event dependencies.
//! * [`event::Event`]s are the synchronization primitive between streams
//!   and between a stream and the host (`cudaEventRecord` /
//!   `cudaStreamWaitEvent` / `cudaEventSynchronize`).
//! * [`kernel`] defines [`kernel::LaunchConfig`] (`grid_x/y/z`,
//!   `block_x/y/z`, shared memory) and the kernel execution context that
//!   hands typed device-memory views to Rust "kernels" iterated over the
//!   real launch index space.
//! * [`cost`] models op durations (copy bandwidth, kernel throughput) so
//!   the `hf-sim` discrete-event model can be calibrated from real runs.
//!
//! Fidelity notes (documented substitutions):
//! * Ops on one device are executed serially by its engine thread, as if
//!   the device were a single compute/copy unit. Cross-device concurrency
//!   is real (one engine thread per device). Stream semantics (FIFO per
//!   stream, arbitrary interleave across streams, event ordering) match
//!   CUDA's model.
//! * Kernels are Rust closures; "threads" are iterations over the launch
//!   grid. Data races inside a kernel are prevented by Rust borrows of the
//!   argument views rather than left undefined as in CUDA.

#![warn(missing_docs)]

pub mod arena;
pub mod buddy;
pub mod cost;
pub mod device;
pub mod error;
pub mod event;
pub mod fault;
pub mod kernel;
pub mod plain;
pub mod pool;
pub mod runtime;
pub mod stream;
pub mod trace;

pub use arena::{ArenaView, DevicePtr, Split};
pub use buddy::BuddyAllocator;
pub use cost::{CostModel, SimDuration};
pub use device::{Device, DeviceId, ScopedDeviceContext};
pub use error::GpuError;
pub use event::Event;
pub use fault::{DeviceLoss, FaultPlan, FaultSite};
pub use kernel::{GridDim, KernelArgs, LaunchConfig};
pub use plain::Plain;
pub use trace::{GpuOpKind, GpuTraceEvent, GpuTraceSink, OpLabel};
pub use pool::{MemoryPool, PoolStats};
pub use kernel::KernelFn;
pub use runtime::{GpuConfig, GpuRuntime};
pub use stream::{OpReport, Stream};

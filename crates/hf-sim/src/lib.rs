//! Discrete-event performance model of the Heteroflow executor.
//!
//! The paper evaluates on a 40-core, 4-GPU machine (§IV); this environment
//! has one core and no GPU. To regenerate the scaling figures we replay
//! the *same task graphs* (the [`hf_core::FrozenGraph`] the executor runs),
//! the *same device-placement algorithm* (Algorithm 1 via
//! [`hf_core::placement::device_placement`], pricing pulls and kernels by
//! the same [`hf_core::placement::PlacementView::weight_of`]), and a
//! work-conserving multi-worker schedule on a **virtual machine** with
//! configurable `(cores, gpus)`. Per-task durations come from the same
//! [`hf_gpu::CostModel`] the software devices use, calibrated against real
//! single-core execution (see the cross-validation tests).
//!
//! Only wall-clock concurrency is virtualized; everything that determines
//! the *shape* of the paper's curves — DAG structure, placement, copy
//! volumes, kernel costs, the worker-blocks-on-device execution style —
//! is computed by the real code paths.

#![warn(missing_docs)]

pub mod calibrate;
pub mod des;
pub mod machine;
pub mod result;

pub use calibrate::measure;
pub use des::{simulate, simulate_placed, simulate_traced, SimSpan};
pub use machine::{Machine, SchedulerMode};
pub use result::SimResult;

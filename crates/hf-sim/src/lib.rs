//! Discrete-event performance model of the Heteroflow executor.
//!
//! The paper evaluates on a 40-core, 4-GPU machine (§IV). To regenerate
//! its scaling figures without one we replay the *same task graphs* (the
//! [`hf_core::FrozenGraph`] the executor runs) under the *same plan* (the
//! executor's [`hf_core::Plan`]: Algorithm 1's placement and the fused
//! chains, made by [`hf_core::Plan::from_placement`]), pricing GPU tasks
//! by the same [`hf_core::FrozenGraph::weight_of`], with a work-conserving
//! multi-worker schedule on a **virtual machine** of configurable
//! `(cores, gpus)`. Per-task durations come from the same
//! [`hf_gpu::CostModel`] the software devices use, calibrated against real
//! single-core execution (see the cross-validation tests).
//!
//! Only wall-clock concurrency is virtualized; everything that determines
//! the *shape* of the paper's curves — DAG structure, placement, fusion,
//! copy volumes, kernel costs, the dispatch-then-callback execution
//! style — is computed by the real code paths.

#![warn(missing_docs)]

pub mod calibrate;
pub mod des;
pub mod machine;
pub mod result;

pub use calibrate::{measure, measure_warm};
pub use des::{simulate, SimSpan};
pub use machine::{Machine, SchedulerMode};
pub use result::SimResult;

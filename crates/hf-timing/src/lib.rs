//! VLSI static timing analysis application substrate (OpenTimer-like).
//!
//! The paper's first evaluation workload (§IV-A) is *timing correlation*:
//! OpenTimer generates per-view analysis datasets for the 1.5M-gate
//! `netcard` circuit; a hybrid CPU-GPU algorithm extracts critical paths
//! and CPPR credits on CPUs and fits a logistic-regression model on a GPU
//! per view; a final synchronization step combines everything into a
//! report. This crate is that pipeline (Figs 4-6) and nothing beside it:
//!
//! * [`netlist`] — gate-level circuit model and a synthetic
//!   `netcard`-like generator (parameterized size, seeded).
//! * [`sta`] — levelized arrival/required/slack propagation per view.
//! * [`paths`] — k-critical-path extraction (best-first deviation search).
//! * [`cppr`] — clock tree + common path pessimism removal credits.
//! * [`regression`] — logistic regression with gradient descent, written
//!   as a Heteroflow GPU kernel.
//! * [`views`] — corner/mode analysis views and the Fig 4 growth table.
//! * [`correlation`] — assembles the per-view hybrid CPU-GPU task graph
//!   of Fig 5 and runs it on a Heteroflow executor.

#![warn(missing_docs)]

pub mod correlation;
pub mod cppr;
pub mod netlist;
pub mod paths;
pub mod regression;
pub mod sta;
pub mod views;

pub use correlation::{build_correlation_graph, CorrelationConfig, CorrelationReport};
pub use netlist::{Circuit, CircuitConfig, Gate, GateKind};
pub use paths::{k_critical_paths, TimingPath};
pub use sta::{run_sta, TimingReport};
pub use views::{view_growth_table, Corner, Mode, View};

//! VLSI detailed placement application substrate (DREAMPlace-like).
//!
//! The paper's second evaluation workload (§IV-B) is matching-based
//! detailed placement for the 2.2M-cell `bigblue4` circuit: iterate
//! (1) a **parallel maximal independent set** step (Blelloch's algorithm,
//! offloaded to GPU — the step DREAMPlace accelerates 40×), (2) a
//! **sequential partitioning** step clustering independent cells into
//! local windows, and (3) a **parallel weighted bipartite matching** step
//! finding the best permutation of cell locations per window (CPU). This
//! crate is that pipeline (Figs 7-9) and nothing beside it:
//!
//! * [`db`] — placement database (rows/sites, cell positions, a shared
//!   flat netlist that owns the conflict graph, HPWL) and a synthetic
//!   `bigblue4`-like generator.
//! * [`mis`] — Blelloch random-priority MIS as two-phase Heteroflow GPU
//!   kernels, plus a CPU reference.
//! * [`partition`] — spatial clustering of independent cells into
//!   windows.
//! * [`matching`] — per-window assignment and its exact HPWL change:
//!   costs from per-net boxes, the Hungarian in a reusable work space.
//! * [`graph`] — the flattened K-iteration Heteroflow task graph of
//!   Fig 8.
//! * [`algo`] — end-to-end drivers (Heteroflow-parallel and sequential
//!   reference).

#![warn(missing_docs)]

pub mod algo;
pub mod db;
pub mod graph;
pub mod matching;
pub mod mis;
pub mod partition;

pub use algo::{detailed_place, detailed_place_sequential, PlaceConfig, PlaceOutcome};
pub use db::{Cell, Netlist, PlacementConfig, PlacementDb};
pub use graph::build_placement_graph;
pub use matching::Matcher;
pub use mis::mis_cpu;
pub use partition::partition_windows;

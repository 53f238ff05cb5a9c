//! Shared harness utilities for the figure-regeneration binaries and
//! Criterion benches.
//!
//! Binaries (one per evaluation figure — see DESIGN.md's experiment
//! index):
//!
//! * `fig4_views` — the view-growth motivation table (Fig 4).
//! * `fig6_timing` — timing-correlation runtimes vs cores/GPUs and vs
//!   problem size (Fig 6), with placement-policy ablation (A1).
//! * `fig9_placement` — detailed-placement runtimes vs cores/GPUs and vs
//!   iteration count (Fig 9), with the dedicated-GPU-worker ablation
//!   (A2).
//!
//! Methodology: the real application task graphs are built at a scaled
//! circuit size, per-host-task costs are *measured* from real single-core
//! execution of the actual task bodies (then scaled to the paper's
//! circuit sizes), and the `hf-sim` discrete-event model replays the
//! graphs on virtual 1–40-core, 1–4-GPU machines using the real
//! device-placement algorithm. See DESIGN.md for why this substitution
//! preserves the curves' shapes.

pub mod cli;
pub mod costs;
pub mod packers;
pub mod table;

pub use cli::Args;
pub use costs::NameCosts;
pub use packers::Packer;
pub use table::{print_matrix, Row};

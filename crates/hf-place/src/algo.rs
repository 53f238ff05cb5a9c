//! End-to-end detailed-placement drivers.
//!
//! [`detailed_place`] runs the flattened Heteroflow graph on an executor;
//! [`detailed_place_sequential`] is a pure-CPU reference with identical
//! numerical behaviour (same priorities, same MIS fixed point, same
//! matching), used as the correctness oracle and the 1-core baseline.

use crate::db::PlacementDb;
use crate::graph::{build_placement_graph, GraphConfig};
use crate::matching::match_window;
use crate::mis::{make_priorities, mis_cpu};
use crate::partition::partition_windows;
use hf_core::Executor;

/// Driver configuration (a thin re-export of [`GraphConfig`]).
pub type PlaceConfig = GraphConfig;

/// Result of a placement run.
#[derive(Debug, Clone)]
pub struct PlaceOutcome {
    /// HPWL before the first iteration.
    pub hpwl_before: u64,
    /// HPWL after the last iteration.
    pub hpwl_after: u64,
    /// HPWL after each iteration.
    pub hpwl_trace: Vec<u64>,
    /// The final placement.
    pub db: PlacementDb,
}

/// Runs the Heteroflow-parallel detailed placement.
pub fn detailed_place(
    executor: &Executor,
    db: PlacementDb,
    cfg: PlaceConfig,
) -> Result<PlaceOutcome, hf_core::HfError> {
    let hpwl_before = db.total_hpwl();
    let (graph, run) = build_placement_graph(db, cfg);
    executor.run(&graph).wait()?;
    let hpwl_trace = run.hpwl_trace.lock().clone();
    let db = run.db.read().clone();
    Ok(PlaceOutcome {
        hpwl_before,
        hpwl_after: *hpwl_trace.last().unwrap_or(&hpwl_before),
        hpwl_trace,
        db,
    })
}

/// Pure-CPU sequential reference with the same numerical trajectory.
pub fn detailed_place_sequential(mut db: PlacementDb, cfg: PlaceConfig) -> PlaceOutcome {
    let hpwl_before = db.total_hpwl();
    let n = db.num_cells();
    let (offsets, neighbors) = db.conflict_adjacency();
    let mut hpwl_trace = Vec::with_capacity(cfg.iterations);

    for it in 0..cfg.iterations {
        let priorities = make_priorities(n, cfg.seed.wrapping_add(it as u64));
        let states = mis_cpu(&offsets, &neighbors, &priorities);
        let windows = partition_windows(&db, &states, cfg.window_cap);
        let mut moves = Vec::new();
        for w in &windows {
            match_window(&db, w, &mut moves);
        }
        for (cell, x, y) in moves {
            db.cells[cell as usize].x = x;
            db.cells[cell as usize].y = y;
        }
        hpwl_trace.push(db.total_hpwl());
    }

    PlaceOutcome {
        hpwl_before,
        hpwl_after: *hpwl_trace.last().unwrap_or(&hpwl_before),
        hpwl_trace,
        db,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::PlacementConfig;

    fn small_db(seed: u64) -> PlacementDb {
        PlacementDb::synthesize(&PlacementConfig {
            num_cells: 400,
            num_nets: 500,
            seed,
            ..Default::default()
        })
    }

    #[test]
    fn sequential_reduces_hpwl_monotonically() {
        let out = detailed_place_sequential(
            small_db(1),
            PlaceConfig {
                iterations: 4,
                ..Default::default()
            },
        );
        assert!(out.hpwl_after <= out.hpwl_before);
        let mut prev = out.hpwl_before;
        for &h in &out.hpwl_trace {
            assert!(h <= prev, "HPWL increased within trace");
            prev = h;
        }
        out.db.check_legal().unwrap();
    }

    /// The parallel Heteroflow run must produce exactly the sequential
    /// reference's placement (deterministic priorities, exact kernels,
    /// independent windows).
    #[test]
    fn parallel_matches_sequential_reference() {
        let cfg = PlaceConfig {
            iterations: 3,
            ..Default::default()
        };
        let seq = detailed_place_sequential(small_db(2), cfg);
        let ex = Executor::new(3, 2);
        let par = detailed_place(&ex, small_db(2), cfg).unwrap();
        assert_eq!(par.hpwl_trace, seq.hpwl_trace, "trajectories diverged");
        assert_eq!(par.hpwl_after, seq.hpwl_after);
        for (a, b) in par.db.cells.iter().zip(&seq.db.cells) {
            assert_eq!(a, b, "final placements differ");
        }
    }

    #[test]
    fn improvement_on_scrambled_placement() {
        // A placement with poor locality leaves plenty of gain.
        let db = PlacementDb::synthesize(&PlacementConfig {
            num_cells: 600,
            num_nets: 700,
            locality: 100, // long nets: lots of room to improve
            seed: 3,
            ..Default::default()
        });
        let out = detailed_place_sequential(
            db,
            PlaceConfig {
                iterations: 6,
                ..Default::default()
            },
        );
        assert!(
            out.hpwl_after < out.hpwl_before,
            "no improvement: {} -> {}",
            out.hpwl_before,
            out.hpwl_after
        );
    }
}

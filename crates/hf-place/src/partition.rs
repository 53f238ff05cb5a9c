//! Sequential partitioning: cluster independent cells into local windows.
//!
//! The middle step of the three-step pipeline (Fig 7(c)): the independent
//! cells surviving MIS are grouped by spatial proximity into windows of
//! bounded size; each window becomes one bipartite-matching subproblem.
//! This step is inherently sequential in DREAMPlace's implementation and
//! runs on a CPU — it is what caps CPU-side scaling in Fig 9.
//! Members sort by one `u64` key packing (row band, x, y, cell), each
//! field as wide as the layout needs; ending in the cell id, it orders as
//! a stable sort by position would.

use crate::db::PlacementDb;
use crate::mis::IN_SET;

/// Groups the movable IN_SET cells into windows of at most `window_cap`
/// cells, sorted by (row-band, x) so windows are spatially tight.
pub fn partition_windows(db: &PlacementDb, states: &[u32], window_cap: usize) -> Vec<Vec<u32>> {
    assert!(window_cap >= 2, "windows below 2 cells cannot be permuted");
    // Row bands of height ~sqrt(cap) keep windows roughly square.
    let band = ((window_cap as f64).sqrt().ceil() as u32).max(1);
    let bits = |count: u32| u32::BITS - count.leading_zeros();
    let (x_bits, y_bits) = (bits(db.sites_per_row), bits(db.num_rows));
    let c_bits = bits(db.num_cells() as u32);
    let key_bits = bits(db.num_rows / band) + x_bits + y_bits + c_bits;
    assert!(key_bits <= u64::BITS, "partition keys need {key_bits} bits");
    let mut keys: Vec<u64> = db
        .cells
        .iter()
        .zip(states)
        .enumerate()
        .filter(|&(_, (cell, &s))| s == IN_SET && !cell.fixed)
        .map(|(c, (cell, _))| {
            let key = u64::from(cell.y / band) << x_bits | u64::from(cell.x);
            (key << y_bits | u64::from(cell.y)) << c_bits | c as u64
        })
        .collect();
    keys.sort_unstable();

    let cell_of = |&key: &u64| (key & ((1 << c_bits) - 1)) as u32;
    keys.chunks(window_cap)
        .filter(|w| w.len() >= 2)
        .map(|w| w.iter().map(cell_of).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::PlacementConfig;
    use crate::mis::{make_priorities, mis_cpu};

    fn setup(n: usize) -> (PlacementDb, Vec<u32>) {
        let db = PlacementDb::synthesize(&PlacementConfig {
            num_cells: n,
            num_nets: n,
            ..Default::default()
        });
        let (off, nbr) = db.netlist.conflict_adjacency();
        let pri = make_priorities(n, 5);
        let st = mis_cpu(off, nbr, &pri);
        (db, st)
    }

    #[test]
    fn windows_cover_members_once() {
        let (db, st) = setup(1200);
        let windows = partition_windows(&db, &st, 8);
        let mut seen = std::collections::HashSet::new();
        for w in &windows {
            assert!(w.len() >= 2 && w.len() <= 8);
            for &c in w {
                assert!(seen.insert(c), "cell {c} in two windows");
                assert_eq!(st[c as usize], IN_SET);
                assert!(!db.cells[c as usize].fixed);
            }
        }
        // Every movable member is covered except possibly a trailing
        // window of size 1 that was dropped.
        let movable_members = (0..db.num_cells())
            .filter(|&c| st[c] == IN_SET && !db.cells[c].fixed)
            .count();
        assert!(seen.len() >= movable_members.saturating_sub(1));
    }

    #[test]
    fn windows_are_spatially_tight() {
        let (db, st) = setup(3000);
        let cap = 9;
        let windows = partition_windows(&db, &st, cap);
        assert!(!windows.is_empty());
        // Mean window bounding-box half-perimeter must be far below the
        // layout's.
        let mut mean = 0.0f64;
        for w in &windows {
            let xs: Vec<u32> = w.iter().map(|&c| db.cells[c as usize].x).collect();
            let ys: Vec<u32> = w.iter().map(|&c| db.cells[c as usize].y).collect();
            let bb = (xs.iter().max().unwrap() - xs.iter().min().unwrap())
                + (ys.iter().max().unwrap() - ys.iter().min().unwrap());
            mean += bb as f64;
        }
        mean /= windows.len() as f64;
        let diag = (db.sites_per_row + db.num_rows) as f64;
        assert!(
            mean < diag * 0.75,
            "windows too spread: {mean:.1} vs {diag:.1}"
        );
    }

    #[test]
    #[should_panic(expected = "below 2")]
    fn tiny_cap_rejected() {
        let (db, st) = setup(100);
        partition_windows(&db, &st, 1);
    }
}

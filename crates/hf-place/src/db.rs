//! Placement database: layout grid, cells, nets, wirelength.
//!
//! The paper places `bigblue4` (2.2M cells, 2.2M nets), a proprietary
//! ISPD benchmark. [`PlacementDb::synthesize`] generates circuits with the
//! same statistics that drive the experiment: a legal row/site grid, unit
//! cells, 2–5-pin nets with strong spatial locality, parameterized to any
//! size. The objective is half-perimeter wirelength (HPWL).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One standard cell occupying a single site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// Site x-coordinate.
    pub x: u32,
    /// Row index.
    pub y: u32,
    /// Cell is fixed (not movable by detailed placement).
    pub fixed: bool,
}

/// A multi-pin net over cells.
#[derive(Debug, Clone, PartialEq)]
pub struct Net {
    /// Cells connected by this net.
    pub pins: Vec<u32>,
}

/// Parameters for [`PlacementDb::synthesize`].
#[derive(Debug, Clone, Copy)]
pub struct PlacementConfig {
    /// Number of movable cells (bigblue4: 2.2M).
    pub num_cells: usize,
    /// Number of nets (~= cells for bigblue4).
    pub num_nets: usize,
    /// Layout utilization (cells / sites).
    pub utilization: f64,
    /// Mean net locality radius in sites.
    pub locality: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PlacementConfig {
    fn default() -> Self {
        Self {
            num_cells: 5_000,
            num_nets: 5_000,
            utilization: 0.7,
            locality: 12,
            seed: 0xB16B1E4,
        }
    }
}

/// The placement database.
#[derive(Debug, Clone)]
pub struct PlacementDb {
    /// All cells (movable and fixed).
    pub cells: Vec<Cell>,
    /// All nets.
    pub nets: Vec<Net>,
    /// Nets incident to each cell.
    pub nets_of: Vec<Vec<u32>>,
    /// Rows in the layout.
    pub num_rows: u32,
    /// Sites per row.
    pub sites_per_row: u32,
}

impl PlacementDb {
    /// Generates a legal synthetic placement. Deterministic per seed.
    pub fn synthesize(cfg: &PlacementConfig) -> PlacementDb {
        assert!(cfg.num_cells >= 4, "need at least 4 cells");
        assert!(
            (0.05..=1.0).contains(&cfg.utilization),
            "utilization out of range"
        );
        let mut rng = StdRng::seed_from_u64(cfg.seed);

        // Near-square grid with the requested utilization.
        let sites_needed = (cfg.num_cells as f64 / cfg.utilization).ceil() as u64;
        let side = (sites_needed as f64).sqrt().ceil() as u32;
        let (num_rows, sites_per_row) = (side, side);

        // Legal initial placement: scatter cells over distinct sites.
        let total_sites = (num_rows as u64 * sites_per_row as u64) as usize;
        let mut site_perm: Vec<usize> = (0..total_sites).collect();
        // Partial Fisher-Yates: we only need the first num_cells picks.
        for i in 0..cfg.num_cells {
            let j = rng.gen_range(i..total_sites);
            site_perm.swap(i, j);
        }
        let mut cells: Vec<Cell> = site_perm[..cfg.num_cells]
            .iter()
            .map(|&s| Cell {
                x: (s % sites_per_row as usize) as u32,
                y: (s / sites_per_row as usize) as u32,
                fixed: false,
            })
            .collect();
        // A small fraction of fixed cells (pads/macros pins).
        let n_fixed = cfg.num_cells / 50;
        for c in cells.iter_mut().take(n_fixed) {
            c.fixed = true;
        }

        // Nets: pick a pivot cell, then 1-4 more cells near it.
        let mut nets = Vec::with_capacity(cfg.num_nets);
        let mut nets_of: Vec<Vec<u32>> = vec![Vec::new(); cfg.num_cells];
        for ni in 0..cfg.num_nets {
            let pivot = rng.gen_range(0..cfg.num_cells);
            let degree = rng.gen_range(2..=5usize);
            let mut pins = vec![pivot as u32];
            let (px, py) = (cells[pivot].x as i64, cells[pivot].y as i64);
            let mut guard = 0;
            while pins.len() < degree && guard < 50 {
                guard += 1;
                // Local candidate: jitter around the pivot, snapped to a
                // real cell by sampling and checking distance.
                let cand = rng.gen_range(0..cfg.num_cells) as u32;
                let (cx, cy) = (cells[cand as usize].x as i64, cells[cand as usize].y as i64);
                let near = (cx - px).abs() + (cy - py).abs() <= cfg.locality as i64 * 4;
                let accept = near || rng.gen_bool(0.05);
                if accept && !pins.contains(&cand) {
                    pins.push(cand);
                }
            }
            if pins.len() < 2 {
                // Fall back to any second pin.
                let c2 = ((pivot + 1 + ni) % cfg.num_cells) as u32;
                if !pins.contains(&c2) {
                    pins.push(c2);
                }
            }
            for &p in &pins {
                nets_of[p as usize].push(nets.len() as u32);
            }
            nets.push(Net { pins });
        }

        PlacementDb {
            cells,
            nets,
            nets_of,
            num_rows,
            sites_per_row,
        }
    }

    /// Number of cells.
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// HPWL of one net under the current positions.
    pub fn net_hpwl(&self, net: &Net) -> u64 {
        let mut min_x = u32::MAX;
        let mut max_x = 0u32;
        let mut min_y = u32::MAX;
        let mut max_y = 0u32;
        for &p in &net.pins {
            let c = &self.cells[p as usize];
            min_x = min_x.min(c.x);
            max_x = max_x.max(c.x);
            min_y = min_y.min(c.y);
            max_y = max_y.max(c.y);
        }
        (max_x - min_x) as u64 + (max_y - min_y) as u64
    }

    /// HPWL of one net with cell `cell` hypothetically at `(x, y)`.
    pub fn net_hpwl_with(&self, net: &Net, cell: u32, x: u32, y: u32) -> u64 {
        let mut min_x = u32::MAX;
        let mut max_x = 0u32;
        let mut min_y = u32::MAX;
        let mut max_y = 0u32;
        for &p in &net.pins {
            let (cx, cy) = if p == cell {
                (x, y)
            } else {
                let c = &self.cells[p as usize];
                (c.x, c.y)
            };
            min_x = min_x.min(cx);
            max_x = max_x.max(cx);
            min_y = min_y.min(cy);
            max_y = max_y.max(cy);
        }
        (max_x - min_x) as u64 + (max_y - min_y) as u64
    }

    /// Total HPWL over all nets — the detailed-placement objective.
    pub fn total_hpwl(&self) -> u64 {
        self.nets.iter().map(|n| self.net_hpwl(n)).sum()
    }

    /// Cost of placing `cell` at `(x, y)`: summed HPWL of its incident
    /// nets with the move applied.
    pub fn cell_cost_at(&self, cell: u32, x: u32, y: u32) -> u64 {
        self.nets_of[cell as usize]
            .iter()
            .map(|&ni| self.net_hpwl_with(&self.nets[ni as usize], cell, x, y))
            .sum()
    }

    /// Verifies legality: every position on-grid and no two cells share a
    /// site.
    pub fn check_legal(&self) -> Result<(), String> {
        let mut used = std::collections::HashSet::new();
        for (i, c) in self.cells.iter().enumerate() {
            if c.x >= self.sites_per_row || c.y >= self.num_rows {
                return Err(format!("cell {i} off grid at ({}, {})", c.x, c.y));
            }
            if !used.insert((c.x, c.y)) {
                return Err(format!("site ({}, {}) double-occupied", c.x, c.y));
            }
        }
        Ok(())
    }

    /// Two cells *conflict* (cannot move in the same independent set)
    /// when they share a net.
    pub fn conflict_adjacency(&self) -> (Vec<u32>, Vec<u32>) {
        // CSR over cells; neighbors = cells sharing any net, ascending.
        // Every pin pair in both directions as `source << 32 | target`:
        // sorted and deduplicated, the targets are the CSR neighbor array
        // and the offsets a prefix sum over the sources.
        let mut edges: Vec<u64> = Vec::new();
        for net in &self.nets {
            for (i, &a) in net.pins.iter().enumerate() {
                for &b in &net.pins[i + 1..] {
                    edges.push((a as u64) << 32 | b as u64);
                    edges.push((b as u64) << 32 | a as u64);
                }
            }
        }
        edges.sort_unstable();
        edges.dedup();
        let mut offsets = vec![0u32; self.num_cells() + 1];
        for &e in &edges {
            offsets[(e >> 32) as usize + 1] += 1;
        }
        for v in 1..offsets.len() {
            offsets[v] += offsets[v - 1];
        }
        (offsets, edges.into_iter().map(|e| e as u32).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthesis_is_legal_and_deterministic() {
        let cfg = PlacementConfig {
            num_cells: 2000,
            num_nets: 2500,
            ..Default::default()
        };
        let a = PlacementDb::synthesize(&cfg);
        let b = PlacementDb::synthesize(&cfg);
        a.check_legal().unwrap();
        assert_eq!(a.cells, b.cells);
        assert_eq!(a.nets.len(), 2500);
        for net in &a.nets {
            assert!(net.pins.len() >= 2 && net.pins.len() <= 5);
        }
    }

    #[test]
    fn hpwl_basics() {
        let db = PlacementDb {
            cells: vec![
                Cell { x: 0, y: 0, fixed: false },
                Cell { x: 3, y: 4, fixed: false },
                Cell { x: 1, y: 1, fixed: false },
            ],
            nets: vec![Net { pins: vec![0, 1, 2] }],
            nets_of: vec![vec![0], vec![0], vec![0]],
            num_rows: 10,
            sites_per_row: 10,
        };
        assert_eq!(db.net_hpwl(&db.nets[0]), 3 + 4);
        assert_eq!(db.total_hpwl(), 7);
        // Moving cell 1 to (0,0) shrinks the box to the other two pins.
        assert_eq!(db.net_hpwl_with(&db.nets[0], 1, 0, 0), 1 + 1);
        assert_eq!(db.cell_cost_at(1, 0, 0), 2);
    }

    #[test]
    fn locality_keeps_nets_short() {
        let db = PlacementDb::synthesize(&PlacementConfig {
            num_cells: 4000,
            num_nets: 4000,
            locality: 8,
            ..Default::default()
        });
        let mean: f64 =
            db.nets.iter().map(|n| db.net_hpwl(n) as f64).sum::<f64>() / db.nets.len() as f64;
        let diag = (db.sites_per_row + db.num_rows) as f64;
        assert!(
            mean < diag * 0.6,
            "nets are not local: mean {mean:.1} vs diag {diag:.1}"
        );
    }
}

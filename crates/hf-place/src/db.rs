//! Placement database: layout grid, cells, nets, wirelength.
//!
//! The paper places `bigblue4` (2.2M cells, 2.2M nets), a proprietary
//! ISPD benchmark. [`PlacementDb::synthesize`] generates circuits with the
//! same statistics that drive the experiment: a legal row/site grid, unit
//! cells, 2–5-pin nets with strong spatial locality, parameterized to any
//! size. The objective is half-perimeter wirelength (HPWL).
//!
//! Detailed placement moves cells and never rewires them, so the database
//! is split along that line: the cells' positions, which every iteration
//! rewrites, and a [`Netlist`], fixed once built and shared by every copy
//! of the database. The netlist is stored flat (offsets plus targets, as
//! CSR) and owns the conflict graph the independent-set step runs on.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

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

/// A bounding box `[min_x, max_x, min_y, max_y]` holding nothing yet.
pub(crate) const EMPTY_BOX: [u32; 4] = [u32::MAX, 0, u32::MAX, 0];

/// Box `b` grown to hold cell `c`.
pub(crate) fn grow(b: [u32; 4], c: &Cell) -> [u32; 4] {
    [b[0].min(c.x), b[1].max(c.x), b[2].min(c.y), b[3].max(c.y)]
}

/// Half-perimeter of a box holding at least one cell.
pub(crate) fn half_perimeter(b: [u32; 4]) -> u64 {
    (b[1] - b[0]) as u64 + (b[3] - b[2]) as u64
}

/// The connectivity of a placement: the pins of each net, the nets of
/// each cell, and the conflict graph (cells that share a net). Built once
/// from the design; all three are CSR arrays.
#[derive(Debug, PartialEq)]
pub struct Netlist {
    pin_off: Vec<u32>,
    pins: Vec<u32>,
    net_off: Vec<u32>,
    nets_of: Vec<u32>,
    adj_off: Vec<u32>,
    adj: Vec<u32>,
}

impl Netlist {
    /// Builds the netlist of `num_cells` cells whose net `i` connects the
    /// distinct cells `pins[pin_off[i]..pin_off[i + 1]]`.
    ///
    /// The nets of each cell are the pins transposed, ascending. The
    /// conflict graph is built by stamping: for each cell, the pins of its
    /// nets are marked with the cell's id, so each neighbour is taken once,
    /// and each row is then sorted ascending.
    pub(crate) fn new(num_cells: usize, pin_off: Vec<u32>, pins: Vec<u32>) -> Netlist {
        assert_eq!(pin_off.last().map(|&e| e as usize), Some(pins.len()));
        let mut net_off = vec![0u32; num_cells + 1];
        for &p in &pins {
            net_off[p as usize + 1] += 1;
        }
        for c in 0..num_cells {
            net_off[c + 1] += net_off[c];
        }
        let mut fill = net_off.clone();
        let mut nets_of = vec![0u32; pins.len()];
        for (net, w) in pin_off.windows(2).enumerate() {
            for &p in &pins[w[0] as usize..w[1] as usize] {
                nets_of[fill[p as usize] as usize] = net as u32;
                fill[p as usize] += 1;
            }
        }

        let mut stamp = fill;
        stamp.fill(u32::MAX);
        let (mut adj_off, mut adj) = (Vec::with_capacity(num_cells + 1), Vec::new());
        adj_off.push(0);
        for c in 0..num_cells as u32 {
            let row = adj.len();
            for &net in &nets_of[net_off[c as usize] as usize..net_off[c as usize + 1] as usize] {
                let net = net as usize;
                for &p in &pins[pin_off[net] as usize..pin_off[net + 1] as usize] {
                    if p != c && std::mem::replace(&mut stamp[p as usize], c) != c {
                        adj.push(p);
                    }
                }
            }
            adj[row..].sort_unstable();
            adj_off.push(adj.len() as u32);
        }
        Netlist {
            pin_off,
            pins,
            net_off,
            nets_of,
            adj_off,
            adj,
        }
    }

    /// Number of nets.
    pub fn num_nets(&self) -> usize {
        self.pin_off.len() - 1
    }

    /// The cells net `net` connects.
    pub fn pins(&self, net: usize) -> &[u32] {
        &self.pins[self.pin_off[net] as usize..self.pin_off[net + 1] as usize]
    }

    /// The nets incident to `cell`, ascending.
    pub(crate) fn nets_of(&self, cell: usize) -> &[u32] {
        &self.nets_of[self.net_off[cell] as usize..self.net_off[cell + 1] as usize]
    }

    /// Two cells *conflict* (cannot move in the same independent set)
    /// when they share a net. Returns the conflict graph as CSR offsets
    /// (`num_cells + 1`) and neighbours, each row ascending.
    pub fn conflict_adjacency(&self) -> (&[u32], &[u32]) {
        (&self.adj_off, &self.adj)
    }
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

/// The placement database. A clone copies the cell positions and shares
/// the netlist.
#[derive(Debug, Clone)]
pub struct PlacementDb {
    /// All cells (movable and fixed).
    pub cells: Vec<Cell>,
    /// The connectivity, shared by every copy of this database.
    pub netlist: Arc<Netlist>,
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
        let mut pin_off = Vec::with_capacity(cfg.num_nets + 1);
        pin_off.push(0u32);
        let mut pins: Vec<u32> = Vec::new();
        for ni in 0..cfg.num_nets {
            let start = pins.len();
            let pivot = rng.gen_range(0..cfg.num_cells);
            let degree = rng.gen_range(2..=5usize);
            pins.push(pivot as u32);
            let (px, py) = (cells[pivot].x as i64, cells[pivot].y as i64);
            let mut guard = 0;
            while pins.len() - start < degree && guard < 50 {
                guard += 1;
                // Local candidate: jitter around the pivot, snapped to a
                // real cell by sampling and checking distance.
                let cand = rng.gen_range(0..cfg.num_cells) as u32;
                let (cx, cy) = (cells[cand as usize].x as i64, cells[cand as usize].y as i64);
                let near = (cx - px).abs() + (cy - py).abs() <= cfg.locality as i64 * 4;
                let accept = near || rng.gen_bool(0.05);
                if accept && !pins[start..].contains(&cand) {
                    pins.push(cand);
                }
            }
            if pins.len() - start < 2 {
                // Fall back to any second pin.
                let c2 = ((pivot + 1 + ni) % cfg.num_cells) as u32;
                if !pins[start..].contains(&c2) {
                    pins.push(c2);
                }
            }
            pin_off.push(pins.len() as u32);
        }

        PlacementDb {
            cells,
            netlist: Arc::new(Netlist::new(cfg.num_cells, pin_off, pins)),
            num_rows,
            sites_per_row,
        }
    }

    /// Number of cells.
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// HPWL of net `net` under the current positions.
    pub(crate) fn net_hpwl(&self, net: usize) -> u64 {
        let pins = self.netlist.pins(net).iter();
        half_perimeter(pins.fold(EMPTY_BOX, |b, &p| grow(b, &self.cells[p as usize])))
    }

    /// Total HPWL over all nets — the detailed-placement objective.
    pub fn total_hpwl(&self) -> u64 {
        (0..self.netlist.num_nets()).map(|n| self.net_hpwl(n)).sum()
    }

    /// Verifies legality: every position on-grid and no two cells share a
    /// site.
    pub fn check_legal(&self) -> Result<(), String> {
        let mut used = vec![false; self.num_rows as usize * self.sites_per_row as usize];
        for (i, c) in self.cells.iter().enumerate() {
            if c.x >= self.sites_per_row || c.y >= self.num_rows {
                return Err(format!("cell {i} off grid at ({}, {})", c.x, c.y));
            }
            let site = c.y as usize * self.sites_per_row as usize + c.x as usize;
            if std::mem::replace(&mut used[site], true) {
                return Err(format!("site ({}, {}) double-occupied", c.x, c.y));
            }
        }
        Ok(())
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
        assert_eq!(a.netlist, b.netlist);
        assert_eq!(a.netlist.num_nets(), 2500);
        for net in 0..a.netlist.num_nets() {
            let pins = a.netlist.pins(net);
            assert!(pins.len() >= 2 && pins.len() <= 5);
        }
    }

    #[test]
    fn nets_of_is_pins_transposed() {
        let db = PlacementDb::synthesize(&PlacementConfig {
            num_cells: 300,
            num_nets: 400,
            ..Default::default()
        });
        let nl = &db.netlist;
        let mut expect = vec![Vec::new(); db.num_cells()];
        for net in 0..nl.num_nets() {
            for &p in nl.pins(net) {
                expect[p as usize].push(net as u32);
            }
        }
        for (c, nets) in expect.iter().enumerate() {
            assert_eq!(nl.nets_of(c), &nets[..], "cell {c}");
        }
        // A clone shares the netlist rather than copying it.
        assert!(Arc::ptr_eq(&db.clone().netlist, nl));
    }

    fn three_cells() -> PlacementDb {
        PlacementDb {
            cells: vec![
                Cell {
                    x: 0,
                    y: 0,
                    fixed: false,
                },
                Cell {
                    x: 3,
                    y: 4,
                    fixed: false,
                },
                Cell {
                    x: 1,
                    y: 1,
                    fixed: false,
                },
            ],
            netlist: Arc::new(Netlist::new(3, vec![0, 3], vec![0, 1, 2])),
            num_rows: 10,
            sites_per_row: 10,
        }
    }

    #[test]
    fn hpwl_basics() {
        let db = three_cells();
        assert_eq!(db.net_hpwl(0), 3 + 4);
        assert_eq!(db.total_hpwl(), 7);
        assert_eq!(
            db.netlist.conflict_adjacency(),
            (&[0, 2, 4, 6][..], &[1, 2, 0, 2, 0, 1][..])
        );
    }

    #[test]
    fn check_legal_finds_shared_and_off_grid_sites() {
        let mut db = three_cells();
        db.check_legal().unwrap();
        db.cells[2] = Cell {
            x: 3,
            y: 4,
            fixed: false,
        };
        assert_eq!(db.check_legal(), Err("site (3, 4) double-occupied".into()));
        db.cells[2] = Cell {
            x: 10,
            y: 0,
            fixed: false,
        };
        assert_eq!(db.check_legal(), Err("cell 2 off grid at (10, 0)".into()));
    }

    #[test]
    fn locality_keeps_nets_short() {
        let db = PlacementDb::synthesize(&PlacementConfig {
            num_cells: 4000,
            num_nets: 4000,
            locality: 8,
            ..Default::default()
        });
        let mean = db.total_hpwl() as f64 / db.netlist.num_nets() as f64;
        let diag = (db.sites_per_row + db.num_rows) as f64;
        assert!(
            mean < diag * 0.6,
            "nets are not local: mean {mean:.1} vs diag {diag:.1}"
        );
    }
}

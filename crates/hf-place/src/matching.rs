//! Weighted bipartite matching — the per-window assignment step.
//!
//! Each window holds k independent cells and the k sites they currently
//! occupy; the best permutation of cells onto sites minimizes summed HPWL
//! (Fig 7(b)). Because window cells share no nets (they come from an
//! independent set), per-cell costs are separable and the problem is a
//! linear assignment, solved exactly with the O(n³) Hungarian algorithm
//! (potentials/shortest-augmenting-path form).
//!
//! The same fact makes each window's HPWL change exact: no net has two
//! moving cells, so a window changes the total by its optimal total minus
//! the identity's diagonal, which [`Matcher::match_window`] returns.
//!
//! A [`Matcher`] prices a window in one pass per (cell, net), growing the
//! box of the net's other pins by each of the k sites, and keeps its
//! sites, cost matrix and Hungarian work vectors across windows.

use crate::db::{grow, half_perimeter, Cell, PlacementDb, EMPTY_BOX};

/// One matching task's work space, reused across its windows.
#[derive(Debug, Default)]
pub struct Matcher {
    /// The window's cells as they stand, in window order: its k sites.
    sites: Vec<Cell>,
    /// The window's `k x k` cost, row-major: cell `i` on cell `j`'s site.
    cost: Vec<u64>,
    hungarian: Hungarian,
}

impl Matcher {
    /// Matches one window: appends to `moves` the `(cell, x, y)` that puts
    /// each of its cells on the site (one of the window's own current
    /// sites) the optimal assignment gives it, and returns the change in
    /// total HPWL those moves make (never positive).
    pub fn match_window(
        &mut self,
        db: &PlacementDb,
        window: &[u32],
        moves: &mut Vec<(u32, u32, u32)>,
    ) -> i64 {
        let (cells, netlist, k) = (&db.cells, &db.netlist, window.len());
        self.sites.clear();
        self.sites.extend(window.iter().map(|&c| cells[c as usize]));
        self.cost.clear();
        self.cost.resize(k * k, 0);
        for (&c, row) in window.iter().zip(self.cost.chunks_exact_mut(k)) {
            for &net in netlist.nets_of(c as usize) {
                let others = netlist.pins(net as usize).iter().filter(|&&p| p != c);
                let b = others.fold(EMPTY_BOX, |b, &p| grow(b, &cells[p as usize]));
                for (cost, site) in row.iter_mut().zip(&self.sites) {
                    *cost += half_perimeter(grow(b, site));
                }
            }
        }
        let identity: u64 = (0..k).map(|i| self.cost[i * k + i]).sum();
        let (assignment, total) = self.hungarian.solve(&self.cost, k);
        moves.extend(window.iter().zip(assignment).map(|(&c, &s)| {
            let to = self.sites[s];
            (c, to.x, to.y)
        }));
        total as i64 - identity as i64
    }
}

/// The Hungarian algorithm with its work vectors, reusable across
/// problems of any size.
#[derive(Debug, Default)]
pub struct Hungarian {
    /// Row and column potentials and column minima, 1-indexed.
    u: Vec<i64>,
    v: Vec<i64>,
    minv: Vec<i64>,
    /// `p[j]` = row matched to column `j` (0 = none); `p[0]` = current row.
    p: Vec<usize>,
    way: Vec<usize>,
    used: Vec<bool>,
    assignment: Vec<usize>,
}

impl Hungarian {
    /// Solves `min sum cost[i * n + assignment[i]]` over permutations.
    ///
    /// `cost` is a square row-major matrix (`n x n`). Returns the
    /// assignment (column per row) and the optimal total cost.
    pub fn solve(&mut self, cost: &[u64], n: usize) -> (&[usize], u64) {
        assert_eq!(cost.len(), n * n, "cost matrix must be square");
        const INF: i64 = i64::MAX / 4;
        // 1-indexed potentials and matching (classic e-maxx formulation) on
        // slices of n + 1, so the inner loops' `[j]` need no bounds checks.
        // Each row writes the `way` entries it reads: `way` is never reset.
        self.u.resize(n + 1, 0);
        self.v.resize(n + 1, 0);
        self.minv.resize(n + 1, 0);
        self.p.resize(n + 1, 0);
        self.way.resize(n + 1, 0);
        self.used.resize(n + 1, false);
        self.assignment.resize(n, 0);
        let (u, v, minv) = (&mut self.u[..=n], &mut self.v[..=n], &mut self.minv[..=n]);
        let (p, way, used) = (&mut self.p[..=n], &mut self.way[..=n], &mut self.used[..=n]);
        u.fill(0);
        v.fill(0);
        p.fill(0);

        for i in 1..=n {
            p[0] = i;
            let mut j0 = 0usize;
            minv.fill(INF);
            used.fill(false);
            loop {
                used[j0] = true;
                let i0 = p[j0];
                let (row, ui0) = (&cost[(i0 - 1) * n..][..n], u[i0]);
                let mut delta = INF;
                let mut j1 = 0usize;
                for j in 1..n + 1 {
                    if used[j] {
                        continue;
                    }
                    let cur = row[j - 1] as i64 - ui0 - v[j];
                    if cur < minv[j] {
                        minv[j] = cur;
                        way[j] = j0;
                    }
                    if minv[j] < delta {
                        delta = minv[j];
                        j1 = j;
                    }
                }
                for j in 0..n + 1 {
                    if used[j] {
                        u[p[j]] += delta;
                        v[j] -= delta;
                    } else {
                        minv[j] -= delta;
                    }
                }
                j0 = j1;
                if p[j0] == 0 {
                    break;
                }
            }
            // Augment along the alternating path.
            loop {
                let j1 = way[j0];
                p[j0] = p[j1];
                j0 = j1;
                if j0 == 0 {
                    break;
                }
            }
        }

        let mut total = 0u64;
        for j in 1..=n {
            if p[j] != 0 {
                self.assignment[p[j] - 1] = j - 1;
                total += cost[(p[j] - 1) * n + j - 1];
            }
        }
        (&self.assignment, total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solve(cost: &[u64], n: usize) -> (Vec<usize>, u64) {
        let mut h = Hungarian::default();
        let (assignment, total) = h.solve(cost, n);
        (assignment.to_vec(), total)
    }

    #[test]
    fn trivial_cases() {
        assert_eq!(solve(&[], 0), (vec![], 0));
        assert_eq!(solve(&[7], 1), (vec![0], 7));
    }

    #[test]
    fn known_3x3() {
        // Three of the six permutations reach the optimum, 12.
        let cost = [4, 2, 8, 4, 3, 7, 3, 1, 6];
        let (asg, total) = solve(&cost, 3);
        assert_eq!(total, 12);
        // Assignment must be a permutation achieving the total.
        let mut seen = [false; 3];
        let mut sum = 0;
        for (i, &j) in asg.iter().enumerate() {
            assert!(!seen[j]);
            seen[j] = true;
            sum += cost[i * 3 + j];
        }
        assert_eq!(sum, total);
    }

    #[test]
    fn identity_is_optimal_when_diagonal_dominant() {
        let n = 5;
        let cost: Vec<u64> = (0..n * n)
            .map(|e| if e / n == e % n { 1 } else { 100 })
            .collect();
        let (asg, total) = solve(&cost, n);
        assert_eq!(asg, (0..n).collect::<Vec<_>>());
        assert_eq!(total, n as u64);
    }

    /// A window's costs from per-net boxes are what moving the cell and
    /// re-measuring its nets gives.
    #[test]
    fn window_costs_equal_moving_the_cell() {
        use crate::db::PlacementConfig;
        use crate::mis::{make_priorities, mis_cpu};
        use crate::partition::partition_windows;

        let db = PlacementDb::synthesize(&PlacementConfig {
            num_cells: 600,
            num_nets: 700,
            locality: 30,
            ..Default::default()
        });
        let (off, nbr) = db.netlist.conflict_adjacency();
        let states = mis_cpu(off, nbr, &make_priorities(db.num_cells(), 3));
        let mut m = Matcher::default();
        let mut moves = Vec::new();
        for w in &partition_windows(&db, &states, 6) {
            m.match_window(&db, w, &mut moves);
            for (i, &c) in w.iter().enumerate() {
                for (j, &site) in w.iter().enumerate() {
                    let mut moved = db.clone();
                    moved.cells[c as usize].x = db.cells[site as usize].x;
                    moved.cells[c as usize].y = db.cells[site as usize].y;
                    let nets = db.netlist.nets_of(c as usize).iter();
                    let expect: u64 = nets.map(|&n| moved.net_hpwl(n as usize)).sum();
                    assert_eq!(m.cost[i * w.len() + j], expect, "cell {c} on {site}'s site");
                }
            }
        }
        assert!(!moves.is_empty());
    }
}

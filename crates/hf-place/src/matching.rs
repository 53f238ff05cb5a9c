//! Weighted bipartite matching — the per-window assignment step.
//!
//! Each window holds k independent cells and the k sites they currently
//! occupy; the best permutation of cells onto sites minimizes summed HPWL
//! (Fig 7(b)). Because window cells share no nets (they come from an
//! independent set), per-cell costs are separable and the problem is a
//! linear assignment, solved exactly with the O(n³) Hungarian algorithm
//! (potentials/shortest-augmenting-path form).
//!
//! A [`Matcher`] prices a cell's k candidate sites from one bounding box
//! per incident net, taken over the net's other pins once, and keeps its
//! cost matrix and the Hungarian's work vectors across the windows it
//! matches.

use crate::db::{grow, half_perimeter, PlacementDb, EMPTY_BOX};

/// One matching task's work space, reused across its windows.
#[derive(Debug, Default)]
pub struct Matcher {
    /// Per net of the cell being priced: the bounding box of the net's
    /// other pins.
    boxes: Vec<[u32; 4]>,
    /// The window's `k x k` cost, row-major: cell `i` on cell `j`'s site.
    cost: Vec<u64>,
    hungarian: Hungarian,
}

impl Matcher {
    /// Matches one window: appends to `moves` the `(cell, x, y)` that puts
    /// each of its cells on the site (one of the window's own current
    /// sites) the optimal assignment gives it.
    pub fn match_window(
        &mut self,
        db: &PlacementDb,
        window: &[u32],
        moves: &mut Vec<(u32, u32, u32)>,
    ) {
        let (cells, netlist) = (&db.cells, &db.netlist);
        self.cost.clear();
        for &c in window {
            self.boxes.clear();
            for &net in netlist.nets_of(c as usize) {
                let others = netlist.pins(net as usize).iter().filter(|&&p| p != c);
                self.boxes
                    .push(others.fold(EMPTY_BOX, |b, &p| grow(b, &cells[p as usize])));
            }
            for &site in window {
                let at = |&b: &[u32; 4]| half_perimeter(grow(b, &cells[site as usize]));
                self.cost.push(self.boxes.iter().map(at).sum());
            }
        }
        let (assignment, _) = self.hungarian.solve(&self.cost, window.len());
        moves.extend(window.iter().zip(assignment).map(|(&c, &s)| {
            let to = cells[window[s] as usize];
            (c, to.x, to.y)
        }));
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
        fn reset<T: Clone>(buf: &mut Vec<T>, len: usize, value: T) {
            buf.clear();
            buf.resize(len, value);
        }
        // 1-indexed potentials and matching (classic e-maxx formulation).
        reset(&mut self.u, n + 1, 0);
        reset(&mut self.v, n + 1, 0);
        reset(&mut self.p, n + 1, 0);
        reset(&mut self.way, n + 1, 0);
        let (u, v, p, way) = (&mut self.u, &mut self.v, &mut self.p, &mut self.way);

        for i in 1..=n {
            p[0] = i;
            let mut j0 = 0usize;
            reset(&mut self.minv, n + 1, INF);
            reset(&mut self.used, n + 1, false);
            let (minv, used) = (&mut self.minv, &mut self.used);
            loop {
                used[j0] = true;
                let i0 = p[j0];
                let mut delta = INF;
                let mut j1 = 0usize;
                for j in 1..=n {
                    if used[j] {
                        continue;
                    }
                    let cur = cost[(i0 - 1) * n + j - 1] as i64 - u[i0] - v[j];
                    if cur < minv[j] {
                        minv[j] = cur;
                        way[j] = j0;
                    }
                    if minv[j] < delta {
                        delta = minv[j];
                        j1 = j;
                    }
                }
                for j in 0..=n {
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

        reset(&mut self.assignment, n, 0);
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

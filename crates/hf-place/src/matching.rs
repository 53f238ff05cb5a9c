//! Weighted bipartite matching — the per-window assignment step.
//!
//! Each window holds k independent cells and the k sites they currently
//! occupy; the best permutation of cells onto sites minimizes summed HPWL
//! (Fig 7(b)). Because window cells share no nets (they come from an
//! independent set), per-cell costs are separable and the problem is a
//! linear assignment, solved exactly with the O(n³) Hungarian algorithm
//! (potentials/shortest-augmenting-path form).

use crate::db::PlacementDb;

/// Matches one window: appends to `moves` the `(cell, x, y)` that puts
/// each of its cells on the site (one of the window's own current sites)
/// the optimal assignment gives it.
pub fn match_window(db: &PlacementDb, window: &[u32], moves: &mut Vec<(u32, u32, u32)>) {
    let slots: Vec<(u32, u32)> = window
        .iter()
        .map(|&c| (db.cells[c as usize].x, db.cells[c as usize].y))
        .collect();
    let cost: Vec<Vec<u64>> = window
        .iter()
        .map(|&c| slots.iter().map(|&(x, y)| db.cell_cost_at(c, x, y)).collect())
        .collect();
    let (assignment, _) = hungarian(&cost);
    moves.extend(window.iter().zip(assignment).map(|(&c, s)| (c, slots[s].0, slots[s].1)));
}

/// Solves `min sum cost[i][assignment[i]]` over permutations.
///
/// `cost` is a square row-major matrix (`n x n`). Returns the assignment
/// (column per row) and the optimal total cost.
pub fn hungarian(cost: &[Vec<u64>]) -> (Vec<usize>, u64) {
    let n = cost.len();
    if n == 0 {
        return (Vec::new(), 0);
    }
    for row in cost {
        assert_eq!(row.len(), n, "cost matrix must be square");
    }

    const INF: i64 = i64::MAX / 4;
    // 1-indexed potentials and matching (classic e-maxx formulation).
    let mut u = vec![0i64; n + 1];
    let mut v = vec![0i64; n + 1];
    // p[j] = row matched to column j (0 = none); p[0] = current row.
    let mut p = vec![0usize; n + 1];
    let mut way = vec![0usize; n + 1];

    for i in 1..=n {
        p[0] = i;
        let mut j0 = 0usize;
        let mut minv = vec![INF; n + 1];
        let mut used = vec![false; n + 1];
        loop {
            used[j0] = true;
            let i0 = p[j0];
            let mut delta = INF;
            let mut j1 = 0usize;
            for j in 1..=n {
                if used[j] {
                    continue;
                }
                let cur = cost[i0 - 1][j - 1] as i64 - u[i0] - v[j];
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

    let mut assignment = vec![0usize; n];
    let mut total = 0u64;
    for j in 1..=n {
        if p[j] != 0 {
            assignment[p[j] - 1] = j - 1;
            total += cost[p[j] - 1][j - 1];
        }
    }
    (assignment, total)
}

/// Brute-force optimal assignment for testing (n ≤ ~8).
pub fn brute_force(cost: &[Vec<u64>]) -> u64 {
    let n = cost.len();
    let mut cols: Vec<usize> = (0..n).collect();
    let mut best = u64::MAX;
    permute(&mut cols, 0, &mut |perm| {
        let total: u64 = perm.iter().enumerate().map(|(i, &j)| cost[i][j]).sum();
        best = best.min(total);
    });
    if n == 0 {
        0
    } else {
        best
    }
}

fn permute(items: &mut Vec<usize>, k: usize, f: &mut impl FnMut(&[usize])) {
    if k == items.len() {
        f(items);
        return;
    }
    for i in k..items.len() {
        items.swap(k, i);
        permute(items, k + 1, f);
        items.swap(k, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivial_cases() {
        assert_eq!(hungarian(&[]), (vec![], 0));
        assert_eq!(hungarian(&[vec![7]]), (vec![0], 7));
    }

    #[test]
    fn known_3x3() {
        // Optimal: 1->0 (1), 0->1 (2), 2->2 (2) = 5? Enumerate: matrix
        // rows: [4,2,8],[4,3,7],[3,1,6]; best is 2+4+... use brute force.
        let cost = vec![vec![4, 2, 8], vec![4, 3, 7], vec![3, 1, 6]];
        let (asg, total) = hungarian(&cost);
        assert_eq!(total, brute_force(&cost));
        // Assignment must be a permutation achieving the total.
        let mut seen = [false; 3];
        let mut sum = 0;
        for (i, &j) in asg.iter().enumerate() {
            assert!(!seen[j]);
            seen[j] = true;
            sum += cost[i][j];
        }
        assert_eq!(sum, total);
    }

    #[test]
    fn matches_brute_force_on_random_matrices() {
        let mut state = 0xDEADBEEFu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for n in 1..=6 {
            for _ in 0..20 {
                let cost: Vec<Vec<u64>> = (0..n)
                    .map(|_| (0..n).map(|_| next() % 100).collect())
                    .collect();
                let (asg, total) = hungarian(&cost);
                assert_eq!(
                    total,
                    brute_force(&cost),
                    "n={n} cost={cost:?}"
                );
                let mut seen = vec![false; n];
                for &j in &asg {
                    assert!(!seen[j], "not a permutation");
                    seen[j] = true;
                }
            }
        }
    }

    #[test]
    fn identity_is_optimal_when_diagonal_dominant() {
        let n = 5;
        let cost: Vec<Vec<u64>> = (0..n)
            .map(|i| (0..n).map(|j| if i == j { 1 } else { 100 }).collect())
            .collect();
        let (asg, total) = hungarian(&cost);
        assert_eq!(asg, (0..n).collect::<Vec<_>>());
        assert_eq!(total, n as u64);
    }
}

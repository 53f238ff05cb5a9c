//! Disjoint-set forest (union-find) with path halving and union by size.
//!
//! Algorithm 1 in the paper (*DevicePlacement*) unions every kernel task
//! with its source pull tasks, then bin-packs each resulting set root onto
//! a GPU. This module provides the sequential disjoint-set structure that
//! placement runs on during topology setup.

/// Union-find over `0..len` with path halving and union by size.
///
/// Amortized near-constant time per operation (inverse Ackermann).
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
    /// Size of the set, valid only at roots.
    size: Vec<u32>,
}

impl UnionFind {
    /// Creates `len` singleton sets.
    pub fn new(len: usize) -> Self {
        assert!(
            len <= u32::MAX as usize,
            "UnionFind supports at most u32::MAX elements"
        );
        Self {
            parent: (0..len as u32).collect(),
            size: vec![1; len],
        }
    }

    /// Finds the set root of `x`, halving the path on the way.
    pub fn find(&mut self, x: usize) -> usize {
        let mut x = x as u32;
        while self.parent[x as usize] != x {
            let gp = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
        x as usize
    }

    /// Unions the sets of `a` and `b`; returns the new root. Smaller set
    /// is linked under the larger.
    pub fn union(&mut self, a: usize, b: usize) -> usize {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return ra;
        }
        let (big, small) = if self.size[ra] >= self.size[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small] = big as u32;
        self.size[big] += self.size[small];
        big
    }

    /// True if `a` and `b` are in the same set.
    pub fn same(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roots(uf: &mut UnionFind, n: usize) -> usize {
        (0..n).filter(|&i| uf.find(i) == i).count()
    }

    #[test]
    fn singletons() {
        let mut uf = UnionFind::new(5);
        for i in 0..5 {
            assert_eq!(uf.find(i), i);
        }
    }

    #[test]
    fn union_merges_and_counts() {
        let mut uf = UnionFind::new(6);
        uf.union(0, 1);
        uf.union(2, 3);
        assert_eq!(roots(&mut uf, 6), 4);
        assert!(uf.same(0, 1));
        assert!(!uf.same(0, 2));
        uf.union(1, 3);
        assert!(uf.same(0, 2));
        assert_eq!(roots(&mut uf, 6), 3);
    }

    #[test]
    fn union_idempotent() {
        let mut uf = UnionFind::new(3);
        let r1 = uf.union(0, 1);
        let r2 = uf.union(0, 1);
        assert_eq!(r1, r2);
        assert_eq!(roots(&mut uf, 3), 2);
    }

    #[test]
    fn exactly_one_root_per_set() {
        let mut uf = UnionFind::new(10);
        for i in 0..9 {
            uf.union(i, i + 1);
        }
        assert_eq!(roots(&mut uf, 10), 1);
    }
}

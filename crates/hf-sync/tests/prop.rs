//! Property-based tests for the hf-sync substrate.

use hf_sync::{Steal, StealDeque, UnionFind};
use proptest::prelude::*;

proptest! {
    /// Union-find is an equivalence relation: reflexive, symmetric,
    /// transitive.
    #[test]
    fn unionfind_equivalence_laws(n in 1usize..64, unions in proptest::collection::vec((0usize..64, 0usize..64), 0..128)) {
        let mut uf = UnionFind::new(n);
        for (a, b) in unions {
            let (a, b) = (a % n, b % n);
            uf.union(a, b);
        }
        // Reflexive.
        for i in 0..n {
            prop_assert!(uf.same(i, i));
        }
        // Symmetric + transitive via root equality.
        for i in 0..n {
            for j in 0..n {
                prop_assert_eq!(uf.same(i, j), uf.same(j, i));
                prop_assert_eq!(uf.same(i, j), uf.find(i) == uf.find(j));
            }
        }
    }

    /// Sequential deque trace: interleaved push/pop/steal never loses or
    /// duplicates an element and pop is LIFO w.r.t. remaining elements.
    #[test]
    fn deque_sequential_trace(ops in proptest::collection::vec(0u8..3, 1..256)) {
        let d = StealDeque::new();
        let s = d.stealer();
        let mut next = 0u64;
        let mut model: std::collections::VecDeque<u64> = Default::default();
        for op in ops {
            match op {
                0 => {
                    d.push(next);
                    model.push_back(next);
                    next += 1;
                }
                1 => {
                    let got = d.pop();
                    let want = model.pop_back();
                    prop_assert_eq!(got, want);
                }
                _ => {
                    let got = match s.steal() {
                        Steal::Success(v) => Some(v),
                        Steal::Empty => None,
                        Steal::Retry => unreachable!("retry impossible single-threaded"),
                    };
                    let want = model.pop_front();
                    prop_assert_eq!(got, want);
                }
            }
        }
        prop_assert_eq!(d.len(), model.len());
    }
}

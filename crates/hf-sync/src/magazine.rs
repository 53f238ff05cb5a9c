//! Bounded lock-free token cache ("magazine").
//!
//! A fixed array of atomic slots holding `u64` tokens, with wait-free
//! scans and a single compare-exchange per successful operation. Designed
//! as the front cache of a size-classed allocator: `try_put` parks a free
//! block's offset, `try_take` hands one back, and a full magazine simply
//! rejects the put so the caller falls through to its slow path.
//!
//! Unlike [`crate::Injector`], there is no segment management and no heap
//! allocation after construction — the hot put/take pair touches one
//! cache line. The trade-off is a hard capacity and `u64::MAX` being
//! reserved as the empty sentinel.
//!
//! ABA safety: tokens are *ownership-bearing* (a block offset is parked by
//! at most one owner at a time), so a take's compare-exchange succeeding
//! against a recycled value is still a valid transfer of that token.

use crate::atomic::{AtomicU64, Ordering};

const EMPTY: u64 = u64::MAX;

/// A bounded lock-free cache of `u64` tokens (see module docs).
pub struct SlotCache {
    slots: Box<[AtomicU64]>,
}

impl SlotCache {
    /// Creates a cache with room for `cap` tokens.
    pub fn new(cap: usize) -> Self {
        Self {
            slots: (0..cap).map(|_| AtomicU64::new(EMPTY)).collect(),
        }
    }

    /// Parks `value` in a free slot. Returns `false` when the cache is
    /// full (the caller keeps ownership).
    ///
    /// # Panics
    /// In debug builds, if `value` is `u64::MAX` (the empty sentinel).
    pub fn try_put(&self, value: u64) -> bool {
        debug_assert_ne!(value, EMPTY, "u64::MAX is the empty sentinel");
        for s in self.slots.iter() {
            if s.load(Ordering::Relaxed) == EMPTY
                && s.compare_exchange(EMPTY, value, Ordering::Release, Ordering::Relaxed)
                    .is_ok()
            {
                return true;
            }
        }
        false
    }

    /// Takes any parked token, or `None` when the cache is empty.
    pub fn try_take(&self) -> Option<u64> {
        for s in self.slots.iter() {
            let v = s.load(Ordering::Relaxed);
            if v != EMPTY
                && s.compare_exchange(v, EMPTY, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                return Some(v);
            }
        }
        None
    }

    /// Number of parked tokens (approximate under concurrency).
    pub fn len(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.load(Ordering::Relaxed) != EMPTY)
            .count()
    }

    /// True when no token is parked (approximate under concurrency).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn put_take_round_trip() {
        let c = SlotCache::new(4);
        assert!(c.is_empty());
        assert!(c.try_take().is_none());
        assert!(c.try_put(7));
        assert!(c.try_put(9));
        assert_eq!(c.len(), 2);
        let mut got = vec![c.try_take().unwrap(), c.try_take().unwrap()];
        got.sort_unstable();
        assert_eq!(got, vec![7, 9]);
        assert!(c.try_take().is_none());
    }

    #[test]
    fn capacity_is_a_hard_bound() {
        let c = SlotCache::new(2);
        assert!(c.try_put(1));
        assert!(c.try_put(2));
        assert!(!c.try_put(3), "full cache rejects the put");
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn zero_is_a_valid_token() {
        let c = SlotCache::new(1);
        assert!(c.try_put(0));
        assert_eq!(c.try_take(), Some(0));
    }

    #[test]
    fn concurrent_transfers_conserve_tokens() {
        // N distinct tokens circulate through the cache from 4 threads;
        // every token that goes in comes out exactly once.
        let c = Arc::new(SlotCache::new(16));
        let taken = Arc::new(std::sync::Mutex::new(Vec::new()));
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let c = Arc::clone(&c);
                let taken = Arc::clone(&taken);
                thread::spawn(move || {
                    for i in 0..500u64 {
                        let tok = t * 1000 + i;
                        // Spin until parked, then reclaim any token.
                        while !c.try_put(tok) {
                            std::hint::spin_loop();
                        }
                        loop {
                            if let Some(v) = c.try_take() {
                                taken.lock().unwrap().push(v);
                                break;
                            }
                            std::hint::spin_loop();
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut got = Arc::try_unwrap(taken).unwrap().into_inner().unwrap();
        got.sort_unstable();
        got.dedup();
        assert_eq!(got.len(), 2000, "no token lost or duplicated");
        assert!(c.is_empty());
    }
}

//! Model-checked concurrency tests for hf-sync's lock-free structures and
//! its lock seam.
//!
//! Run with `cargo test -p hf-sync --features loom --test loom`. Each
//! `loom::model` body is executed under every bounded interleaving of its
//! threads' atomic operations by the in-repo loom shim (deterministic DFS
//! over scheduling decisions), so the assertions hold on *all* explored
//! schedules, not just the ones the OS happens to produce.
//!
//! Models are deliberately tiny — two or three threads, a handful of
//! operations each — because the schedule space grows exponentially with
//! the number of scheduling points.

#![cfg(feature = "loom")]

use hf_sync::sync::{Condvar, Mutex, RwLock};
use hf_sync::{EventRing, Injector, Notifier, SlotCache, Steal, StealDeque};
use loom::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Two producers park distinct tokens concurrently; both must land and
/// come back out exactly once (no lost or duplicated token).
#[test]
fn slotcache_concurrent_puts_conserve_tokens() {
    loom::model(|| {
        let c = Arc::new(SlotCache::new(2));
        let c1 = Arc::clone(&c);
        let c2 = Arc::clone(&c);
        let a = loom::thread::spawn(move || assert!(c1.try_put(7)));
        let b = loom::thread::spawn(move || assert!(c2.try_put(9)));
        a.join().unwrap();
        b.join().unwrap();
        let mut got = vec![c.try_take().unwrap(), c.try_take().unwrap()];
        got.sort_unstable();
        assert_eq!(got, vec![7, 9], "both tokens parked exactly once");
        assert!(c.try_take().is_none());
    });
}

/// A put racing a take on a single-slot cache: the take gets either the
/// old token or nothing, the final drain sees exactly the remaining one.
#[test]
fn slotcache_put_take_race_never_duplicates() {
    loom::model(|| {
        let c = Arc::new(SlotCache::new(1));
        assert!(c.try_put(1));
        let c1 = Arc::clone(&c);
        let c2 = Arc::clone(&c);
        let taker = loom::thread::spawn(move || c1.try_take());
        let putter = loom::thread::spawn(move || c2.try_put(2));
        let taken = taker.join().unwrap();
        let put_ok = putter.join().unwrap();
        let mut seen: Vec<u64> = taken.into_iter().collect();
        while let Some(v) = c.try_take() {
            seen.push(v);
        }
        seen.sort_unstable();
        // Token 1 is delivered exactly once; token 2 exactly once iff the
        // put found a free slot.
        let expect: Vec<u64> = if put_ok { vec![1, 2] } else { vec![1] };
        assert_eq!(seen, expect, "tokens conserved under the race");
    });
}

/// Two producers push concurrently into a capacity-2 ring; nothing is
/// dropped and the drain delivers both values exactly once.
#[test]
fn ring_concurrent_pushes_deliver_exactly_once() {
    loom::model(|| {
        let r = Arc::new(EventRing::new(2));
        let r1 = Arc::clone(&r);
        let r2 = Arc::clone(&r);
        let a = loom::thread::spawn(move || assert!(r1.push(1u64)));
        let b = loom::thread::spawn(move || assert!(r2.push(2u64)));
        a.join().unwrap();
        b.join().unwrap();
        assert_eq!(r.dropped(), 0);
        let mut got = Vec::new();
        r.drain(|v| got.push(v));
        got.sort_unstable();
        assert_eq!(got, vec![1, 2], "both events delivered exactly once");
    });
}

/// A producer and a consumer overlap on the ring: the consumer (retrying
/// with a model yield) eventually observes both values in FIFO order.
#[test]
fn ring_producer_consumer_fifo_under_overlap() {
    loom::model(|| {
        let r = Arc::new(EventRing::new(2));
        let rp = Arc::clone(&r);
        let producer = loom::thread::spawn(move || {
            assert!(rp.push(10u64));
            assert!(rp.push(20u64));
        });
        let mut got = Vec::new();
        while got.len() < 2 {
            match r.pop() {
                Some(v) => got.push(v),
                None => loom::thread::yield_now(),
            }
        }
        producer.join().unwrap();
        assert_eq!(got, vec![10, 20], "slot handshakes preserve FIFO");
        assert_eq!(r.dropped(), 0);
    });
}

/// Two producers race a single-CAS push each; after both finish, a drain
/// pops each value exactly once (tail-index claims never overlap).
#[test]
fn injector_concurrent_pushes_pop_exactly_once() {
    loom::model(|| {
        let q = Arc::new(Injector::new());
        let q1 = Arc::clone(&q);
        let q2 = Arc::clone(&q);
        let a = loom::thread::spawn(move || q1.push(1u64));
        let b = loom::thread::spawn(move || q2.push(2u64));
        a.join().unwrap();
        b.join().unwrap();
        let mut got = vec![q.pop().unwrap(), q.pop().unwrap()];
        got.sort_unstable();
        assert_eq!(got, vec![1, 2], "each push delivered exactly once");
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    });
}

/// A batch push races a popping consumer: the consumer sees a prefix of
/// the batch in FIFO order, and the remainder drains afterwards.
#[test]
fn injector_batch_push_vs_pop_preserves_fifo() {
    loom::model(|| {
        let q = Arc::new(Injector::new());
        let qp = Arc::clone(&q);
        let producer = loom::thread::spawn(move || qp.push_batch(&[1u64, 2, 3]));
        let mut got = Vec::new();
        q.pop_batch(2, |v| got.push(v));
        producer.join().unwrap();
        while let Some(v) = q.pop() {
            got.push(v);
        }
        assert_eq!(got, vec![1, 2, 3], "batch claim is FIFO and exactly-once");
    });
}

/// The eventcount contract, for either notify call: a waiter that runs
/// prepare → re-check → commit/cancel never sleeps past a notification
/// issued after the flag it re-checks was set — a lost wakeup would leave
/// it blocked, which the checker reports as a deadlock — and nobody is
/// left counted as a waiter.
fn notifier_never_loses_a_wakeup(notify: fn(&Notifier)) {
    loom::model(move || {
        let n = Arc::new(Notifier::new());
        let flag = Arc::new(AtomicUsize::new(0));
        let (n2, f2) = (Arc::clone(&n), Arc::clone(&flag));
        let waiter = loom::thread::spawn(move || {
            while f2.load(Ordering::SeqCst) == 0 {
                let t = n2.prepare_wait();
                if f2.load(Ordering::SeqCst) != 0 {
                    n2.cancel_wait(t);
                    break;
                }
                n2.commit_wait(t);
            }
        });
        flag.store(1, Ordering::SeqCst);
        notify(&n);
        waiter.join().unwrap();
        assert_eq!(n.num_waiters(), 0);
    });
}

#[test]
fn notifier_notify_one_never_loses_a_wakeup() {
    notifier_never_loses_a_wakeup(Notifier::notify_one);
}

#[test]
fn notifier_notify_n_never_loses_a_wakeup() {
    notifier_never_loses_a_wakeup(|n| n.notify_n(1));
}

/// One owner against two thieves on a deque that starts with two slots:
/// the third push grows the buffer while a thief may hold the old one, and
/// the owner's pops race the thieves for the last element through the
/// top CAS. Every value is taken exactly once. (At most three preemptions
/// per execution: the schedule space of three threads this long is out of
/// reach otherwise.)
#[test]
fn deque_owner_vs_two_thieves_takes_each_value_once() {
    let bounded = loom::model::Builder {
        preemption_bound: Some(3),
    };
    bounded.check(|| {
        let d = StealDeque::with_capacity(2);
        let thieves: Vec<_> = (0..2)
            .map(|_| {
                let s = d.stealer();
                loom::thread::spawn(move || s.steal().success())
            })
            .collect();
        let mut taken: Vec<u64> = Vec::new();
        d.push(1u64);
        d.push(2);
        d.push(3);
        taken.extend(d.pop());
        taken.extend(d.pop());
        for t in thieves {
            taken.extend(t.join().unwrap());
        }
        while let Some(v) = d.pop() {
            taken.push(v);
        }
        taken.sort_unstable();
        assert_eq!(taken, vec![1, 2, 3], "each value taken exactly once");
    });
}

/// The protocol the executor composes from the two: the owner pushes, then
/// `notify_n(1)`; a thief that found nothing runs `prepare_wait` → empty
/// re-check → `commit_wait`. Whatever the interleaving (up to six
/// preemptions), the thief ends up with the item instead of asleep.
#[test]
fn push_then_notify_always_reaches_a_sleepy_thief() {
    let bounded = loom::model::Builder {
        preemption_bound: Some(6),
    };
    bounded.check(|| {
        let d = StealDeque::with_capacity(2);
        let n = Arc::new(Notifier::new());
        let (s, n2) = (d.stealer(), Arc::clone(&n));
        let thief = loom::thread::spawn(move || loop {
            match s.steal() {
                Steal::Success(v) => return v,
                Steal::Retry => continue,
                Steal::Empty => {}
            }
            let t = n2.prepare_wait();
            if s.is_empty() {
                n2.commit_wait(t);
            } else {
                n2.cancel_wait(t);
            }
        });
        d.push(7u64);
        n.notify_n(1);
        assert_eq!(thief.join().unwrap(), 7);
        assert_eq!(n.num_waiters(), 0);
    });
}

/// The lock seam under the checker: a waiter polls a flag with
/// `Condvar::wait_timeout` while a writer updates an `RwLock`, then sets
/// the flag without notifying. The waiter gets there by timing out on
/// every interleaving, and reads the write.
#[test]
fn sync_timed_wait_polls_without_a_notification() {
    loom::model(|| {
        let shared = Arc::new((Mutex::new(false), Condvar::new(), RwLock::new(0u32)));
        let s2 = Arc::clone(&shared);
        let writer = loom::thread::spawn(move || {
            *s2.2.write() += 1;
            *s2.0.lock() = true;
        });
        let (flag, cv, value) = &*shared;
        let mut g = flag.lock();
        while !*g {
            g = cv.wait_timeout(g, Duration::from_millis(1)).0;
        }
        drop(g);
        assert_eq!(*value.read(), 1);
        writer.join().unwrap();
    });
}

//! In-repo shim of the **loom** concurrency model checker.
//!
//! Implements the API subset `hf-sync` uses — [`model()`] and
//! [`model::Builder`], [`thread::spawn`] / [`thread::yield_now`], the
//! [`sync::atomic`] types, and [`sync::Mutex`] / [`sync::Condvar`] — on
//! top of a deterministic cooperative scheduler:
//!
//! * Inside [`model()`], every atomic operation, mutex acquisition and
//!   condvar wait/notify (and every spawn/join/yield) is a *scheduling
//!   point*: the executing thread parks and a controller picks which
//!   runnable thread proceeds next. A thread waiting for a held mutex or
//!   an un-notified condvar is not runnable, so a lost wakeup shows up as
//!   a reported deadlock.
//! * The controller explores the tree of scheduling decisions with an
//!   exhaustive depth-first search: each execution replays a decision
//!   prefix, runs the model to completion, then backtracks to the deepest
//!   decision with an untried alternative. Exploration is fully
//!   deterministic — no randomness, no timing dependence.
//! * `thread::yield_now` carries loom's meaning: the calling thread is
//!   deprioritized until some *other* thread has been scheduled, which is
//!   what lets spin-wait loops (`Backoff::snooze`) terminate instead of
//!   being rescheduled forever.
//!
//! * [`model::Builder::preemption_bound`] caps how often an execution may
//!   switch away from a thread that could have continued (the CHESS
//!   bound, as in real loom): the schedule count then grows polynomially
//!   with the model's length instead of exponentially, and still covers
//!   every bug that needs no more than that many preemptions.
//!
//! Scope and limitations (vs. real loom): interleavings are explored at
//! atomic-operation granularity under a sequentially-consistent-hardware
//! model; weak-memory reorderings are *not* simulated and `UnsafeCell`
//! accesses are not instrumented. Condvars never wake spuriously and
//! `notify_one` wakes the longest waiter. Assertions inside the model (and
//! deadlocks: no runnable thread while some are unfinished) are reported
//! with the offending decision path. Outside a [`model`] call every type
//! degrades to its `std` counterpart with zero overhead, so a crate built
//! with its `loom` feature enabled still behaves normally in ordinary
//! code.
//!
//! Exploration is bounded by `LOOM_MAX_ITER` executions (default 200 000)
//! and 100 000 scheduling points per execution; models should keep the
//! per-thread operation count small (a handful of atomics per thread keeps
//! the schedule space in the low thousands).

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

const MAX_STEPS_PER_EXEC: usize = 100_000;
const DEFAULT_MAX_ITER: usize = 200_000;
const ABORT_MSG: &str = "loom model aborted (another thread failed)";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Registered; its OS thread has not parked at the initial point yet.
    Starting,
    /// Currently granted the virtual CPU.
    Running,
    /// Parked at a scheduling point, ready to be granted.
    Paused,
    /// Parked until what it waits for happens.
    Blocked(Wait),
    /// Done (returned or panicked).
    Finished,
}

/// What a blocked thread waits for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Wait {
    /// The given thread finishing (`join`).
    Join(usize),
    /// The mutex with this key (its address) being free; granting the
    /// thread the CPU grants it the mutex.
    Mutex(usize),
    /// A notification: the thread sits in `State::cv_waiting` until one
    /// removes it.
    Condvar,
}

struct ThreadState {
    status: Status,
    /// Set by `yield_now`: not schedulable while another thread can run.
    yielded: bool,
    /// Where this thread waits for its grant: waking exactly the thread
    /// that was picked keeps a scheduling point at two context switches.
    cv: Arc<Condvar>,
}

struct State {
    threads: Vec<ThreadState>,
    /// Grant token: which thread may transition Paused -> Running.
    active: Option<usize>,
    /// Decision prefix replayed this execution.
    replay: Vec<usize>,
    cursor: usize,
    /// Decisions taken this execution: (choice index, option count).
    path: Vec<(usize, usize)>,
    steps: usize,
    abort: bool,
    failure: Option<String>,
    os_handles: Vec<Option<std::thread::JoinHandle<()>>>,
    /// Keys of the model mutexes currently held.
    locked: Vec<usize>,
    /// `(condvar key, thread)` of every un-notified waiter, oldest first.
    cv_waiting: Vec<(usize, usize)>,
    /// The thread granted last, and how often so far the grant moved away
    /// from a thread that was still runnable.
    last: Option<usize>,
    preemptions: usize,
    preemption_bound: Option<usize>,
}

struct Scheduler {
    state: Mutex<State>,
    /// Where the controller waits for threads to park or finish.
    ctrl: Condvar,
}

thread_local! {
    static CTX: RefCell<Option<(Arc<Scheduler>, usize)>> = const { RefCell::new(None) };
}

fn ctx() -> Option<(Arc<Scheduler>, usize)> {
    CTX.with(|c| c.borrow().clone())
}

impl Scheduler {
    fn new(replay: Vec<usize>, preemption_bound: Option<usize>) -> Self {
        Self {
            state: Mutex::new(State {
                threads: Vec::new(),
                active: None,
                replay,
                cursor: 0,
                path: Vec::new(),
                steps: 0,
                abort: false,
                failure: None,
                os_handles: Vec::new(),
                locked: Vec::new(),
                cv_waiting: Vec::new(),
                last: None,
                preemptions: 0,
                preemption_bound,
            }),
            ctrl: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        // A panicking model thread poisons the mutex by design; the
        // controller still needs the state to tear the execution down.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn register(&self) -> usize {
        let mut s = self.lock();
        s.threads.push(ThreadState {
            status: Status::Starting,
            yielded: false,
            cv: Arc::new(Condvar::new()),
        });
        s.os_handles.push(None);
        s.threads.len() - 1
    }

    /// Parks `me` at a scheduling point and blocks until granted.
    /// `block_on = Some(w)` parks until `w` happens; `yielded` applies
    /// loom's yield semantics.
    fn park(&self, me: usize, block_on: Option<Wait>, yielded: bool) {
        let mut s = self.lock();
        s.steps += 1;
        if s.steps > MAX_STEPS_PER_EXEC && !s.abort {
            s.abort = true;
            s.failure = Some(format!(
                "model execution exceeded {MAX_STEPS_PER_EXEC} scheduling points (livelock?)"
            ));
        }
        if s.abort {
            drop(s);
            self.ctrl.notify_one();
            panic!("{ABORT_MSG}");
        }
        s.threads[me].status = match block_on {
            Some(t) => Status::Blocked(t),
            None => Status::Paused,
        };
        s.threads[me].yielded = yielded;
        self.ctrl.notify_one();
        let cv = Arc::clone(&s.threads[me].cv);
        loop {
            if s.abort {
                drop(s);
                self.ctrl.notify_one();
                panic!("{ABORT_MSG}");
            }
            if s.active == Some(me) {
                s.active = None;
                debug_assert_eq!(s.threads[me].status, Status::Running);
                return;
            }
            s = cv.wait(s).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn finish(&self, me: usize) {
        let mut s = self.lock();
        s.threads[me].status = Status::Finished;
        self.ctrl.notify_one();
    }

    fn record_failure(&self, msg: String) {
        let mut s = self.lock();
        s.abort = true;
        if s.failure.is_none() {
            s.failure = Some(msg);
        }
        self.ctrl.notify_one();
    }

    /// Drives one execution to completion; returns (path, failure).
    fn run_controller(&self) -> (Vec<(usize, usize)>, Option<String>) {
        let mut s = self.lock();
        loop {
            // Wait for every live thread to park (or finish).
            let live = |s: &State| {
                s.active.is_some()
                    || (s.threads.iter())
                        .any(|t| matches!(t.status, Status::Running | Status::Starting))
            };
            while !s.abort && live(&s) {
                s = self.ctrl.wait(s).unwrap_or_else(|e| e.into_inner());
            }
            if s.abort {
                // Tear-down: no more grants. A parked thread sees the flag
                // when woken, a running one at its next scheduling point;
                // each unwinds, finishes and notifies us.
                while s.threads.iter().any(|t| t.status != Status::Finished) {
                    s.threads.iter().for_each(|t| t.cv.notify_one());
                    s = self.ctrl.wait(s).unwrap_or_else(|e| e.into_inner());
                }
            }
            if s.threads.iter().all(|t| t.status == Status::Finished) {
                break;
            }
            let ready = |i: usize, s: &State| match s.threads[i].status {
                Status::Paused => true,
                Status::Blocked(Wait::Join(j)) => s.threads[j].status == Status::Finished,
                Status::Blocked(Wait::Mutex(k)) => !s.locked.contains(&k),
                Status::Blocked(Wait::Condvar) => !s.cv_waiting.iter().any(|w| w.1 == i),
                _ => false,
            };
            let mut runnable: Vec<usize> = (0..s.threads.len())
                .filter(|&i| ready(i, &s) && !s.threads[i].yielded)
                .collect();
            if runnable.is_empty() {
                // Only yielded threads left: schedulable after all, to
                // avoid declaring a spin loop a deadlock.
                runnable = (0..s.threads.len()).filter(|&i| ready(i, &s)).collect();
            }
            // Out of preemptions: the thread that ran last keeps running
            // for as long as it can.
            let can_continue = s.last.filter(|l| runnable.contains(l));
            if let (Some(l), Some(bound)) = (can_continue, s.preemption_bound) {
                if s.preemptions >= bound {
                    runnable = vec![l];
                }
            }
            if runnable.is_empty() {
                let held: Vec<usize> = (0..s.threads.len())
                    .filter(|&i| s.threads[i].status != Status::Finished)
                    .collect();
                s.abort = true;
                s.failure = Some(format!("deadlock: threads {held:?} cannot make progress"));
                continue;
            }
            let choice = if s.cursor < s.replay.len() {
                s.replay[s.cursor].min(runnable.len() - 1)
            } else {
                0
            };
            s.cursor += 1;
            let options = runnable.len();
            s.path.push((choice, options));
            let tid = runnable[choice];
            if can_continue.is_some_and(|l| l != tid) {
                s.preemptions += 1;
            }
            s.last = Some(tid);
            if let Status::Blocked(Wait::Mutex(k)) = s.threads[tid].status {
                s.locked.push(k);
            }
            for (i, t) in s.threads.iter_mut().enumerate() {
                if i != tid {
                    // Someone else is about to run: yielded threads get
                    // schedulable again afterwards.
                    t.yielded = false;
                }
            }
            s.threads[tid].status = Status::Running;
            s.threads[tid].yielded = false;
            s.active = Some(tid);
            s.threads[tid].cv.notify_one();
        }
        let path = s.path.clone();
        let failure = s.failure.take();
        let handles: Vec<_> = s.os_handles.iter_mut().map(|h| h.take()).collect();
        drop(s);
        for h in handles.into_iter().flatten() {
            let _ = h.join();
        }
        (path, failure)
    }
}

/// Entry point of a model-thread body: sets the thread-local context,
/// parks for the first grant, runs `f` under `catch_unwind`, reports.
fn run_model_thread(sched: Arc<Scheduler>, tid: usize, f: impl FnOnce()) {
    CTX.with(|c| *c.borrow_mut() = Some((Arc::clone(&sched), tid)));
    // The initial park unwinds too when the execution is being torn down.
    let result = catch_unwind(AssertUnwindSafe(|| {
        sched.park(tid, None, false);
        f()
    }));
    if let Err(e) = result {
        let msg = e
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "model thread panicked".to_string());
        if msg != ABORT_MSG {
            sched.record_failure(format!("thread {tid} panicked: {msg}"));
        }
    }
    sched.finish(tid);
    CTX.with(|c| *c.borrow_mut() = None);
}

/// Checks `f` under every (bounded) interleaving of its threads' atomic
/// operations. Panics — with the failing decision path — if any execution
/// panics, fails an assertion, or deadlocks.
pub fn model<F>(f: F)
where
    F: Fn() + Send + Sync + 'static,
{
    model::Builder::new().check(f)
}

/// Configurable exploration, mirroring `loom::model::Builder`.
pub mod model {
    use super::*;

    /// Exploration limits of one model check.
    #[derive(Debug, Clone, Default)]
    pub struct Builder {
        /// At most this many switches away from a thread that could have
        /// continued per execution; `None` explores every interleaving.
        pub preemption_bound: Option<usize>,
    }

    impl Builder {
        /// No preemption bound: exhaustive up to `LOOM_MAX_ITER`.
        pub fn new() -> Self {
            Self::default()
        }

        /// Runs the exploration; see [`crate::model()`].
        pub fn check<F>(&self, f: F)
        where
            F: Fn() + Send + Sync + 'static,
        {
            explore(self.preemption_bound, Arc::new(f))
        }
    }
}

fn explore(preemption_bound: Option<usize>, f: Arc<dyn Fn() + Send + Sync>) {
    let max_iter = std::env::var("LOOM_MAX_ITER")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_MAX_ITER);
    let mut replay: Vec<usize> = Vec::new();
    let mut iters = 0usize;
    loop {
        iters += 1;
        let sched = Arc::new(Scheduler::new(replay.clone(), preemption_bound));
        let tid0 = sched.register();
        debug_assert_eq!(tid0, 0);
        let (s0, f0) = (Arc::clone(&sched), Arc::clone(&f));
        let h0 = std::thread::Builder::new()
            .name("loom-main".into())
            .spawn(move || run_model_thread(s0, tid0, move || f0()))
            .expect("spawn loom main thread");
        sched.lock().os_handles[tid0] = Some(h0);
        let (path, failure) = sched.run_controller();
        if let Some(msg) = failure {
            panic!(
                "loom: model failed on execution {iters}: {msg}\n  \
                 decision path: {:?}",
                path.iter().map(|p| p.0).collect::<Vec<_>>()
            );
        }
        // Depth-first advance: bump the deepest decision with an untried
        // alternative, drop everything below it.
        let mut next = path;
        loop {
            match next.last().copied() {
                None => return, // schedule space exhausted
                Some((c, o)) if c + 1 < o => {
                    replay = next.iter().map(|p| p.0).collect();
                    *replay.last_mut().expect("nonempty") = c + 1;
                    break;
                }
                Some(_) => {
                    next.pop();
                }
            }
        }
        if iters >= max_iter {
            eprintln!(
                "loom: stopping after {iters} executions (LOOM_MAX_ITER); \
                 exploration is bounded, not exhaustive"
            );
            return;
        }
    }
}

/// One scheduling point for the current thread, if inside a model.
pub(crate) fn sched_point() {
    if let Some((sched, me)) = ctx() {
        sched.park(me, None, false);
    }
}

/// Thread spawn/join/yield mirroring `std::thread` inside a model.
pub mod thread {
    use super::*;
    use std::marker::PhantomData;

    enum Inner<T> {
        Std(std::thread::JoinHandle<T>),
        Model {
            sched: Arc<Scheduler>,
            tid: usize,
            result: Arc<Mutex<Option<T>>>,
        },
    }

    /// Handle to a spawned (model or OS) thread.
    pub struct JoinHandle<T> {
        inner: Inner<T>,
        _t: PhantomData<T>,
    }

    impl<T> JoinHandle<T> {
        /// Waits for the thread and returns its result, like
        /// `std::thread::JoinHandle::join`.
        pub fn join(self) -> std::thread::Result<T> {
            match self.inner {
                Inner::Std(h) => h.join(),
                Inner::Model { sched, tid, result } => {
                    let me = ctx().map(|(_, me)| me).expect("join outside model thread");
                    sched.park(me, Some(Wait::Join(tid)), false);
                    match result.lock().unwrap_or_else(|e| e.into_inner()).take() {
                        Some(v) => Ok(v),
                        None => Err(Box::new("model thread panicked")),
                    }
                }
            }
        }
    }

    /// Spawns a thread participating in the current model (or a plain OS
    /// thread outside one).
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        match ctx() {
            None => JoinHandle {
                inner: Inner::Std(std::thread::spawn(f)),
                _t: PhantomData,
            },
            Some((sched, me)) => {
                let tid = sched.register();
                let result = Arc::new(Mutex::new(None));
                let (s2, r2) = (Arc::clone(&sched), Arc::clone(&result));
                let os = std::thread::Builder::new()
                    .name(format!("loom-{tid}"))
                    .spawn(move || {
                        run_model_thread(Arc::clone(&s2), tid, move || {
                            let v = f();
                            *r2.lock().unwrap_or_else(|e| e.into_inner()) = Some(v);
                        })
                    })
                    .expect("spawn loom thread");
                sched.lock().os_handles[tid] = Some(os);
                // The spawn itself is a scheduling point in the parent.
                sched.park(me, None, false);
                JoinHandle {
                    inner: Inner::Model { sched, tid, result },
                    _t: PhantomData,
                }
            }
        }
    }

    /// Loom yield: deprioritizes the calling thread until another thread
    /// has been scheduled — the required hint inside spin-wait loops.
    pub fn yield_now() {
        match ctx() {
            None => std::thread::yield_now(),
            Some((sched, me)) => sched.park(me, None, true),
        }
    }
}

/// `std::hint` stand-ins.
pub mod hint {
    /// Spin hint: a deprioritizing yield inside a model (a raw spin would
    /// never let the scheduler run another thread), a plain CPU hint
    /// outside.
    pub fn spin_loop() {
        if super::ctx().is_some() {
            super::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
}

/// `std::sync` stand-ins (the subset hf-sync models use).
pub mod sync {
    use crate::{ctx, Wait};
    use std::ops::{Deref, DerefMut};
    use std::sync::LockResult;

    /// A mutex whose acquisition is a model scheduling point: inside a
    /// model a thread asking for a held mutex is descheduled until it is
    /// free. Outside a model it is the `std` mutex.
    #[derive(Debug, Default)]
    pub struct Mutex<T: ?Sized> {
        inner: std::sync::Mutex<T>,
    }

    /// Guard of a [`Mutex`]; releases it on drop.
    pub struct MutexGuard<'a, T: ?Sized> {
        lock: &'a Mutex<T>,
        inner: Option<std::sync::MutexGuard<'a, T>>,
    }

    impl<T> Mutex<T> {
        /// Creates a new mutex protecting `value`.
        pub const fn new(value: T) -> Self {
            Self {
                inner: std::sync::Mutex::new(value),
            }
        }
    }

    impl<T: ?Sized> Mutex<T> {
        fn key(&self) -> usize {
            &self.inner as *const _ as *const () as usize
        }

        /// Acquires the mutex (scheduling point). Never poisoned: a model
        /// thread that panics fails the whole execution.
        pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
            if let Some((sched, me)) = ctx() {
                sched.park(me, Some(Wait::Mutex(self.key())), false);
            }
            let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            Ok(MutexGuard {
                lock: self,
                inner: Some(inner),
            })
        }
    }

    impl<T: ?Sized> MutexGuard<'_, T> {
        /// Gives the mutex up; `self` is left empty for `Drop`.
        fn release(&mut self) {
            if self.inner.take().is_some() {
                if let Some((sched, _)) = ctx() {
                    let key = self.lock.key();
                    sched.lock().locked.retain(|&k| k != key);
                }
            }
        }
    }

    impl<T: ?Sized> Drop for MutexGuard<'_, T> {
        fn drop(&mut self) {
            self.release();
        }
    }

    impl<T: ?Sized> Deref for MutexGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            self.inner.as_ref().expect("guard holds the mutex")
        }
    }

    impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            self.inner.as_mut().expect("guard holds the mutex")
        }
    }

    /// A condition variable for [`Mutex`]. Inside a model a waiter is
    /// descheduled until a notification picks it (the longest waiter
    /// first); there are no spurious wakeups, so a protocol that loses a
    /// wakeup deadlocks and is reported.
    #[derive(Debug, Default)]
    pub struct Condvar {
        inner: std::sync::Condvar,
    }

    impl Condvar {
        /// Creates a condition variable.
        pub const fn new() -> Self {
            Self {
                inner: std::sync::Condvar::new(),
            }
        }

        fn key(&self) -> usize {
            self as *const Self as usize
        }

        /// Releases the mutex and waits for a notification, atomically;
        /// reacquires the mutex before returning.
        pub fn wait<'a, T>(&self, mut guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
            match ctx() {
                None => {
                    let inner = guard.inner.take().expect("guard holds the mutex");
                    guard.inner = Some(self.inner.wait(inner).unwrap_or_else(|e| e.into_inner()));
                    Ok(guard)
                }
                Some((sched, me)) => {
                    // Registering as a waiter is visible to notifiers, so
                    // it is a scheduling point of its own.
                    sched.park(me, None, false);
                    let lock = guard.lock;
                    sched.lock().cv_waiting.push((self.key(), me));
                    guard.release();
                    sched.park(me, Some(Wait::Condvar), false);
                    lock.lock()
                }
            }
        }

        /// Wakes the longest waiter, if any (scheduling point).
        pub fn notify_one(&self) {
            self.notify(1);
        }

        /// Wakes every waiter (scheduling point).
        pub fn notify_all(&self) {
            self.notify(usize::MAX);
        }

        fn notify(&self, mut n: usize) {
            match ctx() {
                None if n == 1 => self.inner.notify_one(),
                None => self.inner.notify_all(),
                Some((sched, me)) => {
                    sched.park(me, None, false);
                    let key = self.key();
                    sched.lock().cv_waiting.retain(|w| {
                        let woken = w.0 == key && n > 0;
                        n -= woken as usize;
                        !woken
                    });
                }
            }
        }
    }

    /// Atomic types whose every operation is a model scheduling point.
    pub mod atomic {
        use crate::sched_point;
        pub use std::sync::atomic::Ordering;

        /// An atomic fence that is also a scheduling point.
        pub fn fence(order: Ordering) {
            sched_point();
            std::sync::atomic::fence(order);
        }

        macro_rules! int_atomic {
            ($(#[$doc:meta])* $name:ident, $std:ty, $int:ty) => {
                $(#[$doc])*
                #[repr(transparent)]
                #[derive(Debug, Default)]
                pub struct $name($std);

                impl $name {
                    /// Creates a new atomic.
                    pub const fn new(v: $int) -> Self {
                        Self(<$std>::new(v))
                    }

                    /// Atomic load (scheduling point).
                    pub fn load(&self, o: Ordering) -> $int {
                        sched_point();
                        self.0.load(o)
                    }

                    /// Atomic store (scheduling point).
                    pub fn store(&self, v: $int, o: Ordering) {
                        sched_point();
                        self.0.store(v, o)
                    }

                    /// Atomic swap (scheduling point).
                    pub fn swap(&self, v: $int, o: Ordering) -> $int {
                        sched_point();
                        self.0.swap(v, o)
                    }

                    /// Atomic add, returning the previous value.
                    pub fn fetch_add(&self, v: $int, o: Ordering) -> $int {
                        sched_point();
                        self.0.fetch_add(v, o)
                    }

                    /// Atomic subtract, returning the previous value.
                    pub fn fetch_sub(&self, v: $int, o: Ordering) -> $int {
                        sched_point();
                        self.0.fetch_sub(v, o)
                    }

                    /// Atomic bitwise or, returning the previous value.
                    pub fn fetch_or(&self, v: $int, o: Ordering) -> $int {
                        sched_point();
                        self.0.fetch_or(v, o)
                    }

                    /// Atomic bitwise and, returning the previous value.
                    pub fn fetch_and(&self, v: $int, o: Ordering) -> $int {
                        sched_point();
                        self.0.fetch_and(v, o)
                    }

                    /// Atomic compare-exchange (scheduling point).
                    pub fn compare_exchange(
                        &self,
                        cur: $int,
                        new: $int,
                        ok: Ordering,
                        err: Ordering,
                    ) -> Result<$int, $int> {
                        sched_point();
                        self.0.compare_exchange(cur, new, ok, err)
                    }

                    /// Weak compare-exchange (scheduling point; the shim
                    /// never fails spuriously).
                    pub fn compare_exchange_weak(
                        &self,
                        cur: $int,
                        new: $int,
                        ok: Ordering,
                        err: Ordering,
                    ) -> Result<$int, $int> {
                        sched_point();
                        self.0.compare_exchange_weak(cur, new, ok, err)
                    }

                    /// Non-atomic access through exclusive borrow.
                    pub fn get_mut(&mut self) -> &mut $int {
                        self.0.get_mut()
                    }

                    /// Unwraps to the plain integer.
                    pub fn into_inner(self) -> $int {
                        self.0.into_inner()
                    }
                }
            };
        }

        int_atomic!(
            /// `AtomicU64` whose operations are model scheduling points.
            AtomicU64,
            std::sync::atomic::AtomicU64,
            u64
        );
        int_atomic!(
            /// `AtomicU32` whose operations are model scheduling points.
            AtomicU32,
            std::sync::atomic::AtomicU32,
            u32
        );
        int_atomic!(
            /// `AtomicUsize` whose operations are model scheduling points.
            AtomicUsize,
            std::sync::atomic::AtomicUsize,
            usize
        );
        int_atomic!(
            /// `AtomicIsize` whose operations are model scheduling points.
            AtomicIsize,
            std::sync::atomic::AtomicIsize,
            isize
        );

        /// `AtomicBool` whose operations are model scheduling points.
        #[repr(transparent)]
        #[derive(Debug, Default)]
        pub struct AtomicBool(std::sync::atomic::AtomicBool);

        impl AtomicBool {
            /// Creates a new atomic flag.
            pub const fn new(v: bool) -> Self {
                Self(std::sync::atomic::AtomicBool::new(v))
            }

            /// Atomic load (scheduling point).
            pub fn load(&self, o: Ordering) -> bool {
                sched_point();
                self.0.load(o)
            }

            /// Atomic store (scheduling point).
            pub fn store(&self, v: bool, o: Ordering) {
                sched_point();
                self.0.store(v, o)
            }

            /// Atomic swap (scheduling point).
            pub fn swap(&self, v: bool, o: Ordering) -> bool {
                sched_point();
                self.0.swap(v, o)
            }
        }

        /// `AtomicPtr` whose operations are model scheduling points.
        #[repr(transparent)]
        #[derive(Debug)]
        pub struct AtomicPtr<T>(std::sync::atomic::AtomicPtr<T>);

        impl<T> Default for AtomicPtr<T> {
            fn default() -> Self {
                Self::new(std::ptr::null_mut())
            }
        }

        impl<T> AtomicPtr<T> {
            /// Creates a new atomic pointer.
            pub const fn new(p: *mut T) -> Self {
                Self(std::sync::atomic::AtomicPtr::new(p))
            }

            /// Atomic load (scheduling point).
            pub fn load(&self, o: Ordering) -> *mut T {
                sched_point();
                self.0.load(o)
            }

            /// Atomic store (scheduling point).
            pub fn store(&self, p: *mut T, o: Ordering) {
                sched_point();
                self.0.store(p, o)
            }

            /// Atomic swap (scheduling point).
            pub fn swap(&self, p: *mut T, o: Ordering) -> *mut T {
                sched_point();
                self.0.swap(p, o)
            }

            /// Atomic compare-exchange (scheduling point).
            pub fn compare_exchange(
                &self,
                cur: *mut T,
                new: *mut T,
                ok: Ordering,
                err: Ordering,
            ) -> Result<*mut T, *mut T> {
                sched_point();
                self.0.compare_exchange(cur, new, ok, err)
            }

            /// Non-atomic access through exclusive borrow.
            pub fn get_mut(&mut self) -> &mut *mut T {
                self.0.get_mut()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::sync::atomic::{AtomicUsize, Ordering};
    use super::*;
    use std::sync::atomic::AtomicUsize as StdAtomicUsize;

    #[test]
    fn explores_both_orders_of_two_writers() {
        // Two threads store distinct values; across the exploration both
        // final values must be observed.
        let seen_1 = Arc::new(StdAtomicUsize::new(0));
        let seen_2 = Arc::new(StdAtomicUsize::new(0));
        let (s1, s2) = (Arc::clone(&seen_1), Arc::clone(&seen_2));
        model(move || {
            let x = Arc::new(AtomicUsize::new(0));
            let xa = Arc::clone(&x);
            let xb = Arc::clone(&x);
            let a = thread::spawn(move || xa.store(1, Ordering::SeqCst));
            let b = thread::spawn(move || xb.store(2, Ordering::SeqCst));
            a.join().unwrap();
            b.join().unwrap();
            match x.load(Ordering::SeqCst) {
                1 => s1.store(1, std::sync::atomic::Ordering::SeqCst),
                2 => s2.store(1, std::sync::atomic::Ordering::SeqCst),
                v => panic!("impossible final value {v}"),
            }
        });
        assert_eq!(seen_1.load(std::sync::atomic::Ordering::SeqCst), 1);
        assert_eq!(seen_2.load(std::sync::atomic::Ordering::SeqCst), 1);
    }

    #[test]
    fn finds_lost_update() {
        // The classic non-atomic increment race: load; add; store. The
        // checker must find the interleaving where one update is lost.
        let result = catch_unwind(|| {
            model(|| {
                let x = Arc::new(AtomicUsize::new(0));
                let handles: Vec<_> = (0..2)
                    .map(|_| {
                        let x = Arc::clone(&x);
                        thread::spawn(move || {
                            let v = x.load(Ordering::SeqCst);
                            x.store(v + 1, Ordering::SeqCst);
                        })
                    })
                    .collect();
                for h in handles {
                    h.join().unwrap();
                }
                assert_eq!(x.load(Ordering::SeqCst), 2, "lost update");
            });
        });
        assert!(result.is_err(), "model checker missed the lost update");
    }

    #[test]
    fn cas_increment_has_no_lost_update() {
        model(|| {
            let x = Arc::new(AtomicUsize::new(0));
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let x = Arc::clone(&x);
                    thread::spawn(move || loop {
                        let v = x.load(Ordering::SeqCst);
                        if x.compare_exchange(v, v + 1, Ordering::SeqCst, Ordering::SeqCst)
                            .is_ok()
                        {
                            break;
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(x.load(Ordering::SeqCst), 2);
        });
    }

    #[test]
    fn yield_lets_spin_loops_terminate() {
        model(|| {
            let flag = Arc::new(AtomicUsize::new(0));
            let f2 = Arc::clone(&flag);
            let h = thread::spawn(move || f2.store(1, Ordering::SeqCst));
            while flag.load(Ordering::SeqCst) == 0 {
                thread::yield_now();
            }
            h.join().unwrap();
        });
    }

    /// A flag set and signalled without the waiter's mutex can slip between
    /// the waiter's check and its wait: the checker must report the lost
    /// wakeup as a deadlock, and pass the variant that takes the mutex.
    #[test]
    fn condvar_lost_wakeup_is_a_deadlock() {
        use super::sync::{Condvar, Mutex};
        let run = |locked_set: bool| {
            catch_unwind(move || {
                model(move || {
                    let pair = Arc::new((Mutex::new(()), Condvar::new(), AtomicUsize::new(0)));
                    let p2 = Arc::clone(&pair);
                    let waiter = thread::spawn(move || {
                        let (m, cv, flag) = &*p2;
                        let mut g = m.lock().unwrap();
                        while flag.load(Ordering::SeqCst) == 0 {
                            g = cv.wait(g).unwrap();
                        }
                    });
                    let (m, cv, flag) = &*pair;
                    let g = locked_set.then(|| m.lock().unwrap());
                    flag.store(1, Ordering::SeqCst);
                    drop(g);
                    cv.notify_one();
                    waiter.join().unwrap();
                });
            })
        };
        assert!(run(false).is_err(), "model checker missed the lost wakeup");
        assert!(run(true).is_ok());
    }

    /// With a preemption bound of zero only run-to-completion schedules
    /// are explored: the lost update of `finds_lost_update` needs one
    /// preemption and goes unseen; a bound of one finds it.
    #[test]
    fn preemption_bound_limits_the_search() {
        let racy = |bound: usize| {
            catch_unwind(move || {
                let b = model::Builder {
                    preemption_bound: Some(bound),
                };
                b.check(|| {
                    let x = Arc::new(AtomicUsize::new(0));
                    let handles: Vec<_> = (0..2)
                        .map(|_| {
                            let x = Arc::clone(&x);
                            thread::spawn(move || {
                                let v = x.load(Ordering::SeqCst);
                                x.store(v + 1, Ordering::SeqCst);
                            })
                        })
                        .collect();
                    for h in handles {
                        h.join().unwrap();
                    }
                    assert_eq!(x.load(Ordering::SeqCst), 2, "lost update");
                });
            })
        };
        assert!(racy(0).is_ok());
        assert!(racy(1).is_err());
    }

    #[test]
    fn outside_model_atomics_pass_through() {
        let x = AtomicUsize::new(5);
        assert_eq!(x.load(Ordering::SeqCst), 5);
        x.store(7, Ordering::SeqCst);
        assert_eq!(x.swap(9, Ordering::SeqCst), 7);
        let h = thread::spawn(|| 42);
        assert_eq!(h.join().unwrap(), 42);
    }
}

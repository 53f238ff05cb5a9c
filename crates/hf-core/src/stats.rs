//! Executor scheduling statistics.
//!
//! The live counters are private to the executor; the one way to read
//! them is [`crate::Executor::snapshot`], which returns a
//! [`StatsSnapshot`]. Wasted wakeups and sleep counts quantify the A4
//! ablation (adaptive sleep vs always-spin); the hot-path counters
//! (injector batches, cache hits, coalesced notifications) make the
//! batched-scheduling optimizations observable.

use hf_sync::{GlobalCounter, ShardedCounter};
use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};

/// Lock-free `f64` gauge (bit-stored in an [`AtomicU64`]): last value
/// wins, no read-modify-write. Used for per-placement quantities like the
/// cost-weighted imbalance ratio.
#[derive(Debug)]
pub(crate) struct F64Gauge {
    bits: AtomicU64,
}

impl F64Gauge {
    /// Creates a gauge holding `v`.
    pub(crate) fn new(v: f64) -> Self {
        Self {
            bits: AtomicU64::new(v.to_bits()),
        }
    }

    /// Stores a new value.
    pub(crate) fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Reads the current value.
    pub(crate) fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Counters gathered by the executor's scheduling loop. Per-worker events
/// are sharded and summed on read; events raised from arbitrary threads
/// (submission path, device engine callbacks) use plain global counters.
/// Values are exact totals but not a consistent snapshot.
#[derive(Debug)]
pub(crate) struct ExecutorStats {
    /// Tasks executed (all kinds).
    pub tasks_executed: ShardedCounter,
    /// Successful steals (from peers or the injector).
    pub steals: ShardedCounter,
    /// Steal attempts, successful or not.
    pub steal_attempts: ShardedCounter,
    /// Times a worker committed to sleep.
    pub sleeps: ShardedCounter,
    /// Times a sleeping worker was woken.
    pub wakeups: ShardedCounter,
    /// Graph rounds completed (one per `run`, `n` per `run_n`). A round
    /// ends on whichever thread finishes the last node, so this is a
    /// global counter, not a per-worker one.
    pub rounds: GlobalCounter,
    /// GPU tasks dispatched as fused chain members (scheduling rounds
    /// saved by task fusion).
    pub fused: ShardedCounter,
    /// Multi-item sprays pushed to the shared injector in one batched
    /// operation (successor release / round start).
    pub injector_batches: GlobalCounter,
    /// Wakeup notifications saved by coalescing: for every batched
    /// `notify_n(k)` this grows by `k - 1` relative to issuing `k`
    /// serialized `notify_one` calls.
    pub notify_coalesced: GlobalCounter,
    /// Submissions that reused the cached freeze + placement + fusion plan
    /// of an unchanged graph.
    pub topo_cache_hits: GlobalCounter,
    /// Submissions that had to (re)run freeze + Algorithm 1 placement.
    pub topo_cache_misses: GlobalCounter,
    /// Injected device faults observed by task failures (see
    /// `hf_gpu::FaultPlan`).
    pub faults_injected: GlobalCounter,
    /// Task attempts re-scheduled by the retry policy.
    pub retries: GlobalCounter,
    /// Devices this executor has observed as lost (each device counted
    /// once).
    pub devices_lost: GlobalCounter,
    /// Submissions that finished as cancelled (`RunFuture::cancel`).
    pub cancelled: GlobalCounter,
    /// Host-to-device bytes actually copied by pull tasks (elided
    /// transfers contribute nothing).
    pub bytes_h2d: GlobalCounter,
    /// Device-to-host bytes copied by push tasks.
    pub bytes_d2h: GlobalCounter,
    /// Pull executions that skipped their H2D copy because the device
    /// buffer already held the source's current version.
    pub transfers_elided: GlobalCounter,
    /// Chunked pulls whose join copied the whole span again because a
    /// chunk found the source at another version than the first did (a
    /// host task wrote it mid-transfer).
    pub transfers_torn: GlobalCounter,
    /// Groups placed onto a device already holding a warm copy of at
    /// least one of their pull buffers.
    pub placement_warm_hits: GlobalCounter,
    /// Transfer bytes placement expects its warm-hit decisions to save
    /// via elision (an estimate made at packing time).
    pub placement_est_bytes_saved: GlobalCounter,
    /// Cost-weighted imbalance (max/mean bin load) of the most recent
    /// placement computed by this executor.
    pub placement_imbalance: F64Gauge,
}

impl ExecutorStats {
    pub(crate) fn new(workers: usize) -> Self {
        Self {
            tasks_executed: ShardedCounter::new(workers),
            steals: ShardedCounter::new(workers),
            steal_attempts: ShardedCounter::new(workers),
            sleeps: ShardedCounter::new(workers),
            wakeups: ShardedCounter::new(workers),
            rounds: GlobalCounter::new(),
            fused: ShardedCounter::new(workers),
            injector_batches: GlobalCounter::new(),
            notify_coalesced: GlobalCounter::new(),
            topo_cache_hits: GlobalCounter::new(),
            topo_cache_misses: GlobalCounter::new(),
            faults_injected: GlobalCounter::new(),
            retries: GlobalCounter::new(),
            devices_lost: GlobalCounter::new(),
            cancelled: GlobalCounter::new(),
            bytes_h2d: GlobalCounter::new(),
            bytes_d2h: GlobalCounter::new(),
            transfers_elided: GlobalCounter::new(),
            transfers_torn: GlobalCounter::new(),
            placement_warm_hits: GlobalCounter::new(),
            placement_est_bytes_saved: GlobalCounter::new(),
            placement_imbalance: F64Gauge::new(1.0),
        }
    }

    /// Sums every counter into a plain, serializable value snapshot,
    /// next to the live gauges the executor read. Each counter read is
    /// exact but the set is not atomic — take snapshots at quiescent
    /// points (after `wait()`) for consistent cross-counter ratios.
    pub(crate) fn snapshot(&self, inflight_tasks: u64, queue_depth: u64) -> StatsSnapshot {
        let (steals, steal_attempts) = (self.steals.sum(), self.steal_attempts.sum());
        StatsSnapshot {
            tasks_executed: self.tasks_executed.sum(),
            steals,
            steal_attempts,
            steal_success_rate: if steal_attempts == 0 {
                1.0
            } else {
                steals as f64 / steal_attempts as f64
            },
            sleeps: self.sleeps.sum(),
            wakeups: self.wakeups.sum(),
            rounds: self.rounds.sum(),
            fused: self.fused.sum(),
            injector_batches: self.injector_batches.sum(),
            notify_coalesced: self.notify_coalesced.sum(),
            topo_cache_hits: self.topo_cache_hits.sum(),
            topo_cache_misses: self.topo_cache_misses.sum(),
            faults_injected: self.faults_injected.sum(),
            retries: self.retries.sum(),
            devices_lost: self.devices_lost.sum(),
            cancelled: self.cancelled.sum(),
            bytes_h2d: self.bytes_h2d.sum(),
            bytes_d2h: self.bytes_d2h.sum(),
            transfers_elided: self.transfers_elided.sum(),
            transfers_torn: self.transfers_torn.sum(),
            placement_warm_hits: self.placement_warm_hits.sum(),
            placement_est_bytes_saved: self.placement_est_bytes_saved.sum(),
            placement_imbalance: self.placement_imbalance.get(),
            inflight_tasks,
            queue_depth,
        }
    }
}

/// Plain-value copy of the executor's counters and live gauges, taken by
/// [`crate::Executor::snapshot`]: serializable (JSON via `serde`),
/// comparable, and detached from the live counters — suitable for
/// logging, metric export, and before/after diffing in benchmarks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct StatsSnapshot {
    /// Tasks executed (all kinds, fused members included).
    pub tasks_executed: u64,
    /// Successful steals.
    pub steals: u64,
    /// Steal attempts, successful or not.
    pub steal_attempts: u64,
    /// `steals / steal_attempts` (1.0 when no attempts).
    pub steal_success_rate: f64,
    /// Times a worker committed to sleep.
    pub sleeps: u64,
    /// Times a sleeping worker was woken.
    pub wakeups: u64,
    /// Graph rounds completed.
    pub rounds: u64,
    /// GPU tasks dispatched as fused chain members.
    pub fused: u64,
    /// Multi-item injector sprays.
    pub injector_batches: u64,
    /// Wakeup notifications saved by coalescing.
    pub notify_coalesced: u64,
    /// Cached freeze/placement/fusion plan reuses.
    pub topo_cache_hits: u64,
    /// Submissions that recomputed freeze + placement.
    pub topo_cache_misses: u64,
    /// Injected device faults observed by task failures.
    pub faults_injected: u64,
    /// Task attempts re-scheduled by the retry policy.
    pub retries: u64,
    /// Devices observed as lost (each counted once per executor).
    pub devices_lost: u64,
    /// Submissions that finished as cancelled.
    pub cancelled: u64,
    /// Host-to-device bytes actually copied (elisions excluded).
    pub bytes_h2d: u64,
    /// Device-to-host bytes copied.
    pub bytes_d2h: u64,
    /// Pull executions that skipped their H2D copy via residency.
    pub transfers_elided: u64,
    /// Chunked pulls re-copied whole because the source changed under them.
    pub transfers_torn: u64,
    /// Groups placed onto a device already holding their data warm.
    pub placement_warm_hits: u64,
    /// Transfer bytes placement estimated its warm hits would save.
    pub placement_est_bytes_saved: u64,
    /// Cost-weighted imbalance (max/mean) of the latest placement.
    pub placement_imbalance: f64,
    /// Workers inside an exploit burst at snapshot time: each is running
    /// a task body or about to take the next one from its own deque (a
    /// worker goes active once per burst, not per task). A live gauge,
    /// read when the snapshot is taken.
    pub inflight_tasks: u64,
    /// Tokens waiting in the injector plus all worker deques at snapshot
    /// time (a live gauge). Together with `inflight_tasks` this
    /// makes watchdog no-progress detection externally visible: stuck
    /// runs show a non-draining queue with no worker in a burst.
    pub queue_depth: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn success_rate() {
        let s = ExecutorStats::new(1);
        s.steal_attempts.add(0, 10);
        s.steals.add(0, 4);
        assert!((s.snapshot(0, 0).steal_success_rate - 0.4).abs() < 1e-12);
    }

    #[test]
    fn snapshot_copies_counters_and_serializes() {
        let s = ExecutorStats::new(2);
        s.tasks_executed.add(0, 5);
        s.tasks_executed.add(1, 2);
        s.steal_attempts.add(0, 4);
        s.steals.add(0, 1);
        s.rounds.incr();
        let snap = s.snapshot(1, 3);
        assert_eq!(snap.tasks_executed, 7);
        assert_eq!(snap.rounds, 1);
        assert!((snap.steal_success_rate - 0.25).abs() < 1e-12);
        assert_eq!((snap.inflight_tasks, snap.queue_depth), (1, 3));
        assert_eq!(
            ExecutorStats::new(1).snapshot(0, 0).steal_success_rate,
            1.0,
            "no attempts reads as full success"
        );
        // Detached from the live counters.
        s.tasks_executed.incr(0);
        assert_eq!(snap.tasks_executed, 7);
        let json = serde_json::to_string(&snap).unwrap();
        assert!(json.contains("\"tasks_executed\":7"));
        assert!(json.contains("\"topo_cache_misses\":0"));
    }

    #[test]
    fn data_movement_counters_snapshot() {
        let s = ExecutorStats::new(1);
        s.bytes_h2d.add(1024);
        s.bytes_d2h.add(512);
        s.transfers_elided.add(9);
        s.transfers_torn.add(2);
        let snap = s.snapshot(0, 0);
        assert_eq!(snap.bytes_h2d, 1024);
        assert_eq!(snap.bytes_d2h, 512);
        assert_eq!(snap.transfers_elided, 9);
        assert_eq!(snap.transfers_torn, 2);
        let json = serde_json::to_string(&snap).unwrap();
        assert!(json.contains("\"transfers_elided\":9"));
    }

    #[test]
    fn placement_counters_snapshot() {
        let s = ExecutorStats::new(2);
        s.placement_warm_hits.add(4);
        s.placement_est_bytes_saved.add(65536);
        s.placement_imbalance.set(1.75);
        let snap = s.snapshot(0, 0);
        assert_eq!(snap.placement_warm_hits, 4);
        assert_eq!(snap.placement_est_bytes_saved, 65536);
        assert!((snap.placement_imbalance - 1.75).abs() < 1e-12);
        let json = serde_json::to_string(&snap).unwrap();
        assert!(json.contains("\"placement_warm_hits\":4"));
    }

    #[test]
    fn f64_gauge_round_trips() {
        let g = F64Gauge::new(0.0);
        g.set(3.5);
        assert_eq!(g.get(), 3.5);
        g.set(-1.25);
        assert_eq!(g.get(), -1.25);
    }

    #[test]
    fn fault_counters_snapshot() {
        let s = ExecutorStats::new(1);
        s.faults_injected.add(3);
        s.retries.add(2);
        s.devices_lost.incr();
        s.cancelled.incr();
        let snap = s.snapshot(0, 0);
        assert_eq!(snap.faults_injected, 3);
        assert_eq!(snap.retries, 2);
        assert_eq!(snap.devices_lost, 1);
        assert_eq!(snap.cancelled, 1);
        let json = serde_json::to_string(&snap).unwrap();
        assert!(json.contains("\"devices_lost\":1"));
    }
}

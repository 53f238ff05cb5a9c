//! The program's public counters, read from outside: `Executor::snapshot`,
//! `Device::stats`, `Device::pool_stats` and `Fleet::snapshot`. A traced
//! pass reads them before and after and reports the difference per op.

use hf_core::{Executor, Fleet, StatsSnapshot};
use serde_json::{json, Value};
use std::sync::atomic::Ordering;

#[derive(Debug, Clone, Default)]
pub struct TenantCounters {
    pub tenant: String,
    pub admitted: u64,
    pub queue_wait_ns: u64,
    pub rejected: u64,
}

#[derive(Debug, Clone, Default)]
pub struct Counters {
    pub exec: StatsSnapshot,
    pub device_ops: u64,
    pub device_kernels: u64,
    pub magazine_hits: u64,
    pub magazine_misses: u64,
    pub tenants: Vec<TenantCounters>,
}

impl Counters {
    pub fn read(ex: &Executor, fleet: Option<&Fleet>) -> Counters {
        let mut c = Counters {
            exec: ex.snapshot(),
            ..Counters::default()
        };
        for d in ex.gpu_runtime().devices() {
            c.device_ops += d.stats().ops.load(Ordering::Relaxed);
            c.device_kernels += d.stats().kernels.load(Ordering::Relaxed);
            let pool = d.pool_stats();
            c.magazine_hits += pool.magazine_hits;
            c.magazine_misses += pool.magazine_misses;
        }
        if let Some(f) = fleet {
            c.tenants = f
                .snapshot()
                .tenants
                .into_iter()
                .map(|t| TenantCounters {
                    tenant: t.tenant,
                    admitted: t.admitted,
                    queue_wait_ns: t.queue_wait_ns_total,
                    rejected: t.rejected_quota + t.rejected_saturated,
                })
                .collect();
        }
        c
    }

    pub fn to_json(&self) -> Value {
        let e = &self.exec;
        json!({
            "tasks_executed": e.tasks_executed,
            "fused": e.fused,
            "steals": e.steals,
            "steal_attempts": e.steal_attempts,
            "sleeps": e.sleeps,
            "wakeups": e.wakeups,
            "injector_batches": e.injector_batches,
            "retries": e.retries,
            "topo_cache_hits": e.topo_cache_hits,
            "topo_cache_misses": e.topo_cache_misses,
            "bytes_h2d": e.bytes_h2d,
            "bytes_d2h": e.bytes_d2h,
            "transfers_elided": e.transfers_elided,
            "device_ops": self.device_ops,
            "device_kernels": self.device_kernels,
            "magazine_hits": self.magazine_hits,
            "magazine_misses": self.magazine_misses,
            "tenants": Value::Array(self.tenants.iter().map(|t| json!({
                "tenant": t.tenant.as_str(),
                "admitted": t.admitted,
                "queue_wait_ns": t.queue_wait_ns,
                "rejected": t.rejected,
            })).collect()),
        })
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Per-layer metrics of a traced pass: counter differences `after - before`
/// over `ops` completed ops in `secs` seconds. A layer the workload never
/// enters reads 0.
pub fn traced_metrics(
    before: &Counters,
    after: &Counters,
    ops: u64,
    secs: f64,
) -> Vec<(String, f64)> {
    let (b, a) = (&before.exec, &after.exec);
    let per_op = |x: u64, y: u64| ratio(y - x, ops);
    let hits = after.magazine_hits - before.magazine_hits;
    let misses = after.magazine_misses - before.magazine_misses;
    let cache_hits = a.topo_cache_hits - b.topo_cache_hits;
    let cache_misses = a.topo_cache_misses - b.topo_cache_misses;
    let mut m = vec![
        ("hf-gpu.pool_magazine_hit_ratio", ratio(hits, hits + misses)),
        (
            "hf-gpu.ops_per_op",
            per_op(before.device_ops, after.device_ops),
        ),
        (
            "hf-gpu.kernels_per_op",
            per_op(before.device_kernels, after.device_kernels),
        ),
        (
            "hf-core.plan.plan_cache_hit_ratio",
            ratio(cache_hits, cache_hits + cache_misses),
        ),
        (
            "hf-core.sched.tasks_per_op",
            per_op(b.tasks_executed, a.tasks_executed),
        ),
        ("hf-core.sched.fused_per_op", per_op(b.fused, a.fused)),
        ("hf-core.sched.steals_per_op", per_op(b.steals, a.steals)),
        (
            "hf-core.sched.steal_hit_ratio",
            ratio(a.steals - b.steals, a.steal_attempts - b.steal_attempts),
        ),
        ("hf-core.sched.sleeps_per_op", per_op(b.sleeps, a.sleeps)),
        ("hf-core.sched.wakeups_per_op", per_op(b.wakeups, a.wakeups)),
        (
            "hf-core.sched.injector_batches_per_op",
            per_op(b.injector_batches, a.injector_batches),
        ),
        ("hf-core.sched.retries_per_op", per_op(b.retries, a.retries)),
        (
            "hf-core.xfer.bytes_h2d_per_op",
            per_op(b.bytes_h2d, a.bytes_h2d),
        ),
        (
            "hf-core.xfer.bytes_d2h_per_op",
            per_op(b.bytes_d2h, a.bytes_d2h),
        ),
        (
            "hf-core.xfer.elided_per_op",
            per_op(b.transfers_elided, a.transfers_elided),
        ),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect::<Vec<_>>();

    let (mut admitted, mut rejected) = (0, 0);
    for t in &after.tenants {
        let t0 = before.tenants.iter().find(|x| x.tenant == t.tenant);
        let (adm0, wait0, rej0) =
            t0.map_or((0, 0, 0), |x| (x.admitted, x.queue_wait_ns, x.rejected));
        admitted += t.admitted - adm0;
        rejected += t.rejected - rej0;
        m.push((
            format!("hf-core.fleet.queue_wait_ms.{}", t.tenant),
            ratio(t.queue_wait_ns - wait0, t.admitted - adm0) / 1e6,
        ));
    }
    m.push((
        "hf-core.fleet.admitted_per_s".to_string(),
        admitted as f64 / secs,
    ));
    m.push(("hf-core.fleet.rejected".to_string(), rejected as f64));
    m
}

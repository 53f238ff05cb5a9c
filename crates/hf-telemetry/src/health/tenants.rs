//! Per-tenant latency attribution: the views `/tenants` and the
//! Prometheus export read.

use super::recorder::{FlightRecorder, LatencyRecord};
use serde_json::{Map, Value};

impl FlightRecorder {
    /// Per-tenant latency attribution as `(tenant, record)`, sorted by
    /// tenant name. Empty unless runs entered through a fleet (direct
    /// submissions carry no tenant and fold only into
    /// [`FlightRecorder::latency`]).
    pub(crate) fn tenant_latencies(&self) -> Vec<(String, LatencyRecord)> {
        let st = self.state.lock();
        let mut out: Vec<_> = st
            .tenants
            .iter()
            .map(|(name, r)| (name.to_string(), r.clone()))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Per-tenant attribution as one JSON document (for `/tenants`):
    /// run counts plus p50/p99 of each latency histogram.
    pub(crate) fn tenants_json(&self) -> Value {
        let tenants = self.tenant_latencies();
        let mut arr = Vec::with_capacity(tenants.len());
        for (tenant, t) in tenants {
            let mut o = Map::new();
            o.insert("tenant".into(), Value::Str(tenant));
            o.insert("runs".into(), Value::UInt(t.runs));
            o.insert("failed".into(), Value::UInt(t.failed));
            for (key, h) in [
                ("queue_delay_ns", &t.queue_delay),
                ("exec_ns", &t.exec),
                ("run_latency_ns", &t.run_latency),
            ] {
                let mut l = Map::new();
                l.insert("count".into(), Value::UInt(h.count));
                l.insert("p50".into(), Value::Float(h.quantile(0.5)));
                l.insert("p99".into(), Value::Float(h.quantile(0.99)));
                o.insert(key.into(), Value::Object(l));
            }
            arr.push(Value::Object(o));
        }
        let mut o = Map::new();
        o.insert("schema".into(), Value::Str("hf-tenants-v1".into()));
        o.insert("tenants".into(), Value::Array(arr));
        Value::Object(o)
    }
}

#[cfg(test)]
mod tests {
    use super::super::recorder::tests::ev;
    use super::*;
    use crate::metrics::MetricsRegistry;
    use hf_core::{ExecutorObserver, LifecycleEvent, LifecyclePhase};
    use std::sync::Arc;

    fn tenant_ev(
        run_id: u64,
        tenant: &str,
        phase: LifecyclePhase,
        task: Option<u32>,
        t_ns: u64,
    ) -> LifecycleEvent {
        let mut e = ev(run_id, phase, task, t_ns);
        e.tenant = Some(Arc::from(tenant));
        e
    }

    #[test]
    fn pump_attributes_per_tenant_latency() {
        let r = FlightRecorder::new();
        // Run 1 belongs to tenant "small", run 2 to "batch", run 3 is a
        // direct (untenanted) submission.
        r.on_lifecycle(&tenant_ev(
            1,
            "small",
            LifecyclePhase::RunStart,
            None,
            1_000,
        ));
        r.on_lifecycle(&tenant_ev(
            1,
            "small",
            LifecyclePhase::Ready,
            Some(0),
            2_000,
        ));
        r.on_lifecycle(&tenant_ev(
            1,
            "small",
            LifecyclePhase::Started,
            Some(0),
            3_000,
        ));
        r.on_lifecycle(&tenant_ev(
            1,
            "small",
            LifecyclePhase::Finished,
            Some(0),
            4_000,
        ));
        r.on_lifecycle(&tenant_ev(1, "small", LifecyclePhase::RunEnd, None, 5_000));
        r.on_lifecycle(&tenant_ev(
            2,
            "batch",
            LifecyclePhase::RunStart,
            None,
            1_000,
        ));
        let mut end = tenant_ev(2, "batch", LifecyclePhase::RunEnd, None, 21_000);
        end.ok = false;
        r.on_lifecycle(&end);
        r.on_lifecycle(&ev(3, LifecyclePhase::RunStart, None, 1_000));
        r.on_lifecycle(&ev(3, LifecyclePhase::RunEnd, None, 2_000));
        r.pump();

        // Unlabeled aggregates fold every run, tenanted or not.
        let all = r.latency();
        assert_eq!(
            all.run_latency.count, 3,
            "aggregate run latency counts all runs"
        );
        assert_eq!((all.runs, all.failed), (3, 1));

        let tenants = r.tenant_latencies();
        assert_eq!(tenants.len(), 2, "direct submission creates no tenant");
        let (batch, small) = (&tenants[0].1, &tenants[1].1);
        assert_eq!(tenants[0].0, "batch");
        assert_eq!((batch.runs, batch.failed), (1, 1));
        assert!((batch.run_latency.sum - 20_000.0).abs() < 1e-9);
        assert_eq!(tenants[1].0, "small");
        assert_eq!((small.runs, small.failed), (1, 0));
        assert!((small.run_latency.sum - 4_000.0).abs() < 1e-9);
        assert_eq!(small.queue_delay.count, 1);
        assert_eq!(small.exec.count, 1);

        // Summaries and dumps carry the attribution.
        let sums = r.summaries();
        assert_eq!(
            sums.iter()
                .find(|s| s.run_id == 1)
                .and_then(|s| s.tenant.clone()),
            Some("small".to_string())
        );
        assert_eq!(
            sums.iter()
                .find(|s| s.run_id == 3)
                .map(|s| s.tenant.clone()),
            Some(None)
        );
        let text =
            serde_json::to_string(&r.dump_run_json(2).expect("retained")).expect("infallible");
        assert!(text.contains("\"tenant\":\"batch\""), "{text}");
        let tj = serde_json::to_string(&r.tenants_json()).expect("infallible");
        assert!(tj.contains("hf-tenants-v1"), "{tj}");
        assert!(tj.contains("\"tenant\":\"small\""), "{tj}");

        // Prometheus export gains labeled series; aggregates stay.
        let reg = MetricsRegistry::new();
        r.export_into(&reg);
        let prom = reg.prometheus_text();
        assert!(
            prom.contains("hf_run_latency_nanos_bucket{tenant=\"small\""),
            "{prom}"
        );
        assert!(
            prom.contains("hf_tenant_runs_total{tenant=\"batch\"} 1"),
            "{prom}"
        );
        assert!(
            prom.contains("hf_tenant_runs_failed_total{tenant=\"batch\"} 1"),
            "{prom}"
        );
        // The unlabeled aggregate count line still reports all 3 runs.
        assert!(prom.contains("hf_run_latency_nanos_count 3"), "{prom}");
    }
}

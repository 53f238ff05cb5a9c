//! Post-run critical-path profiling.
//!
//! [`hf_core::FrozenGraph::critical_path_len`] counts the longest chain in
//! *tasks* — a structural lower bound. This module weighs the chain with
//! *measured* time: [`critical_path`] joins recorded spans to graph nodes
//! by task name, runs a longest-path DP along the dependency edges, and
//! reports the heaviest chain with per-kind time attribution. The result
//! answers the first profiling question — "which sequence of tasks bounds
//! my makespan, and is it compute, copies, or host work?"
//!
//! Spans must come from a single run of the graph (names join 1:1); use
//! device-stitched spans ([`hf_core::ExecutorBuilder::tracer`]) so GPU
//! durations are real device time.

use hf_core::{FrozenGraph, SpanCat, TaskKind, TraceSpan};
use std::collections::HashMap;
use std::fmt;

/// One task on the critical path.
#[derive(Debug, Clone)]
pub struct PathStep {
    /// Task name.
    pub(crate) name: String,
    /// Task kind.
    pub(crate) kind: TaskKind,
    /// Measured duration in microseconds (0 when the task has no span).
    pub(crate) dur_us: u64,
}

/// The measured critical path of one graph run.
#[derive(Debug, Clone)]
pub struct CriticalPathReport {
    /// Graph name.
    pub(crate) graph: String,
    /// The longest (by measured time) dependency chain, in order.
    pub steps: Vec<PathStep>,
    /// Total measured time on the path, microseconds.
    pub total_us: u64,
    /// Path time attributed per task kind, heaviest first.
    pub by_kind: Vec<(TaskKind, u64)>,
    /// Number of tasks that had no matching span (counted as zero time).
    pub unmatched: usize,
}

impl CriticalPathReport {
    /// Fraction of path time spent in `kind`, in `[0, 1]`.
    pub(crate) fn fraction(&self, kind: TaskKind) -> f64 {
        if self.total_us == 0 {
            return 0.0;
        }
        self.by_kind
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, us)| *us as f64 / self.total_us as f64)
            .unwrap_or(0.0)
    }
}

impl fmt::Display for CriticalPathReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "critical path of '{}': {} tasks, {} us",
            self.graph,
            self.steps.len(),
            self.total_us
        )?;
        for (kind, us) in &self.by_kind {
            writeln!(
                f,
                "  {:<12} {us:>10} us  ({:5.1}%)",
                kind.to_string(),
                100.0 * self.fraction(*kind)
            )?;
        }
        if self.unmatched > 0 {
            writeln!(f, "  ({} tasks had no span; counted as 0)", self.unmatched)?;
        }
        for s in &self.steps {
            writeln!(
                f,
                "    {:<10} {:>8} us  {}",
                s.kind.to_string(),
                s.dur_us,
                s.name
            )?;
        }
        Ok(())
    }
}

/// Computes the measured critical path of `graph` from `spans`.
///
/// Only [`SpanCat::Task`] spans participate (dispatch windows, waits, and
/// pool traffic are overhead, not task time). When several Task spans
/// share a name (e.g. `run_n`), their durations are summed — so pass the
/// spans of a single run for per-run numbers.
pub fn critical_path(graph: &FrozenGraph, spans: &[TraceSpan]) -> CriticalPathReport {
    // Join spans to nodes by task name.
    let mut by_name: HashMap<&str, u64> = HashMap::new();
    for s in spans {
        if s.cat == SpanCat::Task {
            *by_name.entry(s.name.as_str()).or_insert(0) += s.dur_us;
        }
    }

    let n = graph.num_tasks();
    let found: Vec<Option<u64>> = (0..n)
        .map(|i| by_name.get(graph.task_name(i)).copied())
        .collect();
    let unmatched = found.iter().filter(|d| d.is_none()).count();
    let dur: Vec<u64> = found.into_iter().map(Option::unwrap_or_default).collect();

    // Longest path by measured time, over the DAG in topological order.
    // best[i] = heaviest path ending at i (inclusive); pred for recovery.
    // Ties extend the chain (`>=`), so a task whose span rounds to 0 us
    // stays on the path: it runs source to sink, never a fragment.
    let mut indeg: Vec<usize> = (0..n).map(|i| graph.num_deps(i)).collect();
    let mut queue: Vec<usize> = graph.sources().to_vec();
    let mut best = dur.clone();
    let mut pred: Vec<Option<usize>> = vec![None; n];
    let mut tail: Option<usize> = None;
    while let Some(u) = queue.pop() {
        if tail.is_none_or(|t| best[u] >= best[t]) {
            tail = Some(u);
        }
        for &v in graph.successors(u) {
            let v = v as usize;
            if best[u] + dur[v] >= best[v] {
                best[v] = best[u] + dur[v];
                pred[v] = Some(u);
            }
            indeg[v] -= 1;
            if indeg[v] == 0 {
                queue.push(v);
            }
        }
    }

    let mut path = Vec::new();
    let mut cur = tail;
    while let Some(i) = cur {
        path.push(i);
        cur = pred[i];
    }
    path.reverse();

    let steps: Vec<PathStep> = path
        .iter()
        .map(|&i| PathStep {
            name: graph.task_name(i).to_owned(),
            kind: graph.kind(i),
            dur_us: dur[i],
        })
        .collect();
    let total_us = steps.iter().map(|s| s.dur_us).sum();
    let mut agg: HashMap<TaskKind, u64> = HashMap::new();
    for s in &steps {
        *agg.entry(s.kind).or_insert(0) += s.dur_us;
    }
    let mut by_kind: Vec<(TaskKind, u64)> = agg.into_iter().collect();
    by_kind.sort_by_key(|&(_, us)| std::cmp::Reverse(us));

    CriticalPathReport {
        graph: graph.name().to_owned(),
        steps,
        total_us,
        by_kind,
        unmatched,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hf_core::Track;

    fn span(name: &str, kind: TaskKind, start_us: u64, dur_us: u64) -> TraceSpan {
        TraceSpan {
            track: Track::Worker(0),
            name: name.to_string(),
            cat: SpanCat::Task,
            kind,
            device: None,
            stream: None,
            start_us,
            dur_us,
            bytes: 0,
            epoch: None,
        }
    }

    /// Diamond: a -> {b, c} -> d. b is slow, c fast: path is a-b-d.
    fn diamond() -> std::sync::Arc<FrozenGraph> {
        use hf_core::data::HostVec;
        use hf_core::Heteroflow;
        let g = Heteroflow::new("diamond");
        let x: HostVec<u8> = HostVec::from_vec(vec![0; 16]);
        let a = g.host("a", || {});
        let b = g.pull("b", &x);
        let c = g.host("c", || {});
        let d = g.host("d", || {});
        a.precede(&b);
        a.precede(&c);
        b.precede(&d);
        c.precede(&d);
        g.freeze().unwrap()
    }

    #[test]
    fn picks_heaviest_chain_and_attributes_kinds() {
        let graph = diamond();
        let spans = vec![
            span("a", TaskKind::Host, 0, 10),
            span("b", TaskKind::Pull, 10, 100),
            span("c", TaskKind::Host, 10, 5),
            span("d", TaskKind::Host, 110, 20),
        ];
        let r = critical_path(&graph, &spans);
        let names: Vec<&str> = r.steps.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b", "d"]);
        assert_eq!(r.total_us, 130);
        assert_eq!(r.unmatched, 0);
        assert_eq!(r.by_kind[0], (TaskKind::Pull, 100));
        assert!((r.fraction(TaskKind::Host) - 30.0 / 130.0).abs() < 1e-12);
        let text = r.to_string();
        assert!(text.contains("critical path of 'diamond'"));
        assert!(text.contains("pull"));
    }

    #[test]
    fn non_task_spans_and_missing_spans_are_tolerated() {
        let graph = diamond();
        let mut dispatch = span("b", TaskKind::Pull, 0, 999);
        dispatch.cat = SpanCat::Dispatch; // must be ignored
        let spans = vec![span("a", TaskKind::Host, 0, 10), dispatch];
        let r = critical_path(&graph, &spans);
        // Only "a" carries weight; the rest of the chain rides at 0.
        assert_eq!(r.total_us, 10);
        assert_eq!(r.unmatched, 3);
        assert_eq!(r.steps.first().unwrap().name, "a");
    }

    #[test]
    fn empty_graph_yields_empty_report() {
        let empty = hf_core::Heteroflow::new("empty").freeze().unwrap();
        let r = critical_path(&empty, &[]);
        assert!(r.steps.is_empty());
        assert_eq!(r.total_us, 0);
    }
}

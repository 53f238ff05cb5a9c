//! Static analysis of task graphs: data-race and dataflow linting.
//!
//! The paper's programming model pushes correctness onto the user —
//! nothing stops two tasks from mutating the same [`crate::data::HostVec`]
//! without an ordering edge, a kernel from reading device data no pull
//! populated, or a push of bytes no kernel ever wrote. This module runs a
//! diagnostics pass over a built [`Heteroflow`] *before* it is frozen and
//! dispatched, reporting structured findings ([`Diagnostic`]) with stable
//! `HF0xx` codes:
//!
//! | code  | severity | finding |
//! |-------|----------|---------|
//! | HF001 | Error    | dependency cycle (full ordered path) |
//! | HF002 | Error    | unordered access to a shared host buffer, ≥1 writer |
//! | HF003 | Error    | kernel/push uses a pull it has no dependency path from |
//! | HF004 | Warning  | push of device data no kernel computes |
//! | HF005 | Warning  | dead pull: device data nothing consumes |
//! | HF006 | Info     | redundant edge already implied by a longer path |
//! | HF007 | Error    | placeholder never assigned work |
//! | HF008 | Info     | graph too large; path-based lints skipped |
//!
//! Accesses are identified by *buffer identity*: pulls read their
//! [`crate::data::HostSource::source_id`], pushes write their
//! [`crate::data::HostSink::sink_id`], and host tasks contribute the
//! buffers declared via [`crate::HostTask::reads`] /
//! [`crate::HostTask::writes`] (host closures are opaque, so undeclared
//! accesses are invisible — declarations are opt-in precision, never
//! required). Dependency paths are decided with a bitset reachability
//! closure built in topological order, so indirect ordering (`a → b → c`)
//! suppresses findings just like a direct edge.
//!
//! [`Heteroflow::analyze`] never fails; it returns a [`Report`] with text
//! ([`Report::render_text`]) and JSON ([`Report::to_json`]) renderers.
//! Analysis is the caller's call: the executor runs whatever graph it is
//! handed, so a caller who wants rejection checks
//! [`Report::has_errors`] before submitting.

use crate::graph::{Builder, Heteroflow, Work};
use std::collections::BTreeMap;
use std::fmt;

/// Path-based lints (HF002/HF003/HF006) build an O(V²/64) reachability
/// closure; above this many tasks they are skipped (HF008 reports it) and
/// only the local lints run.
pub(crate) const MAX_CLOSURE_TASKS: usize = 16_384;

/// How serious a [`Diagnostic`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Advisory only (redundant edges, skipped analyses).
    Info,
    /// Suspicious but not certain to misbehave.
    Warning,
    /// The graph will fail at runtime or produce nondeterministic results.
    Error,
}

impl Severity {
    /// Stable lowercase name used in renders and JSON.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One static-analysis finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code, `"HF001"` … `"HF008"`.
    pub(crate) code: &'static str,
    /// How serious the finding is.
    pub severity: Severity,
    /// Names of the involved tasks (for HF001, the ordered cycle).
    pub tasks: Vec<String>,
    /// Node indices of the involved tasks, parallel to `tasks` (used by
    /// the DOT renderer to color offending nodes).
    pub(crate) task_ids: Vec<usize>,
    /// Human-readable explanation with a suggested fix.
    pub(crate) message: String,
}

impl Diagnostic {
    /// Canonical one-line rendering: `HF0xx [task, ...]: message`.
    pub(crate) fn render(&self) -> String {
        format!(
            "{} [{}]: {}",
            self.code,
            self.tasks.join(", "),
            self.message
        )
    }
}

/// The result of analyzing one graph: all findings, most severe first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// Name of the analyzed graph.
    pub(crate) graph: String,
    /// Findings ordered by severity (errors first), then code, then first
    /// involved task — deterministic for a given graph.
    pub(crate) diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// True when the analyzer found nothing at all.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// True when at least one finding is Error severity.
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// Findings with the given code.
    pub fn with_code(&self, code: &str) -> impl Iterator<Item = &Diagnostic> + '_ {
        let code = code.to_owned();
        self.diagnostics.iter().filter(move |d| d.code == code)
    }

    /// Multi-line human-readable rendering; `"no findings"` when clean.
    pub fn render_text(&self) -> String {
        if self.is_clean() {
            return format!("graph '{}': no findings", self.graph);
        }
        let mut out = format!(
            "graph '{}': {} finding(s)\n",
            self.graph,
            self.diagnostics.len()
        );
        for d in &self.diagnostics {
            out.push_str(&format!("  {}: {}\n", d.severity, d.render()));
        }
        out
    }

    /// JSON rendering (single object; diagnostics as an array).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"graph\":");
        json_string(&mut out, &self.graph);
        out.push_str(",\"diagnostics\":[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"code\":");
            json_string(&mut out, d.code);
            out.push_str(",\"severity\":");
            json_string(&mut out, d.severity.name());
            out.push_str(",\"tasks\":[");
            for (j, t) in d.tasks.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                json_string(&mut out, t);
            }
            out.push_str("],\"task_ids\":[");
            for (j, id) in d.task_ids.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&id.to_string());
            }
            out.push_str("],\"message\":");
            json_string(&mut out, &d.message);
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

fn json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl Heteroflow {
    /// Runs the static analyzer over the graph as currently built and
    /// returns the findings. Never fails — an empty report means a clean
    /// graph. Nothing is cached: each call analyzes afresh.
    pub fn analyze(&self) -> Report {
        run(&self.shared.builder.lock())
    }
}

/// Finds one cycle in a successor-list graph via Kahn's algorithm plus a
/// predecessor walk through the residual (cyclic) node set. Returns the
/// cycle's node ids in dependency order (each node's edge leads to the
/// next; the last closes back to the first), or `None` for a DAG.
pub(crate) fn cycle_path(succ: &[&[usize]]) -> Option<Vec<usize>> {
    let n = succ.len();
    let mut indeg = vec![0usize; n];
    for outs in succ {
        for &v in *outs {
            indeg[v] += 1;
        }
    }
    let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    while let Some(u) = queue.pop() {
        for &v in succ[u] {
            indeg[v] -= 1;
            if indeg[v] == 0 {
                queue.push(v);
            }
        }
    }
    // A DAG leaves no residual node (indeg > 0 after Kahn). Every residual
    // node has at least one residual predecessor, so walking predecessors
    // from any residual node must revisit a node — that revisit closes a
    // cycle. (A successor walk can dead-end on a node merely *fed by* the
    // cycle.)
    let residual: Vec<bool> = indeg.iter().map(|&d| d > 0).collect();
    let start = residual.iter().position(|&r| r)?;
    let mut pred_in_residual = vec![usize::MAX; n];
    for u in 0..n {
        if residual[u] {
            for &v in succ[u] {
                if residual[v] {
                    pred_in_residual[v] = u;
                }
            }
        }
    }
    let mut walk = Vec::new();
    let mut pos = vec![usize::MAX; n];
    let mut cur = start;
    loop {
        if pos[cur] != usize::MAX {
            // Closed a cycle: walk[pos[cur]..] visited predecessors from
            // `cur` back around to `cur`; reverse for dependency order.
            let mut cycle: Vec<usize> = walk[pos[cur]..].to_vec();
            cycle.reverse();
            return Some(cycle);
        }
        pos[cur] = walk.len();
        walk.push(cur);
        cur = pred_in_residual[cur];
        debug_assert_ne!(cur, usize::MAX, "residual node without residual pred");
    }
}

/// A host-buffer access contributed by one task.
struct Access {
    node: usize,
    write: bool,
}

/// Runs every lint over the builder's current nodes.
pub(crate) fn run(b: &Builder) -> Report {
    let n = b.nodes.len();
    let succ: Vec<&[usize]> = b.nodes.iter().map(|nd| nd.succ.as_slice()).collect();
    let mut diagnostics = Vec::new();

    // HF001: cycle with full path.
    let cycle = cycle_path(&succ);
    if let Some(ids) = &cycle {
        let tasks: Vec<String> = ids.iter().map(|&i| b.nodes[i].name.to_string()).collect();
        let message = format!(
            "tasks form a dependency cycle: {} -> '{}'; the graph cannot be scheduled",
            tasks
                .iter()
                .map(|t| format!("'{t}'"))
                .collect::<Vec<_>>()
                .join(" -> "),
            tasks[0]
        );
        diagnostics.push(Diagnostic {
            code: "HF001",
            severity: Severity::Error,
            tasks,
            task_ids: ids.clone(),
            message,
        });
    }

    // HF007: unassigned placeholders (executing one fails with EmptyTask).
    for (i, node) in b.nodes.iter().enumerate() {
        if matches!(node.work, Work::Empty) {
            diagnostics.push(Diagnostic {
                code: "HF007",
                severity: Severity::Error,
                tasks: vec![node.name.to_string()],
                task_ids: vec![i],
                message: format!(
                    "placeholder '{}' was never assigned work; executing it fails with EmptyTask",
                    node.name
                ),
            });
        }
    }

    // Which pulls feed a kernel, and which feed a push (local dataflow).
    let mut pull_feeds_kernel = vec![false; n];
    let mut pull_feeds_push = vec![false; n];
    for node in &b.nodes {
        match &node.work {
            Work::Kernel { sources, .. } => {
                for &p in sources.iter() {
                    pull_feeds_kernel[p] = true;
                }
            }
            Work::Push { source_pull, .. } => {
                pull_feeds_push[*source_pull] = true;
            }
            _ => {}
        }
    }

    for (i, node) in b.nodes.iter().enumerate() {
        match &node.work {
            // HF004: push of device data no kernel computes — the push
            // stores exactly the bytes its pull copied up.
            Work::Push { source_pull, .. } if !pull_feeds_kernel[*source_pull] => {
                diagnostics.push(Diagnostic {
                    code: "HF004",
                    severity: Severity::Warning,
                    tasks: vec![
                        node.name.to_string(),
                        b.nodes[*source_pull].name.to_string(),
                    ],
                    task_ids: vec![i, *source_pull],
                    message: format!(
                        "push '{}' writes back device data of pull '{}' that no kernel \
                         computes; it stores exactly the bytes the pull copied",
                        node.name, b.nodes[*source_pull].name
                    ),
                });
            }
            // HF005: dead pull — nothing consumes the device data.
            Work::Pull { .. } if !pull_feeds_kernel[i] && !pull_feeds_push[i] => {
                diagnostics.push(Diagnostic {
                    code: "HF005",
                    severity: Severity::Warning,
                    tasks: vec![node.name.to_string()],
                    task_ids: vec![i],
                    message: format!(
                        "pull '{}' copies data to the device but no kernel or push \
                         consumes it; the transfer is dead",
                        node.name
                    ),
                });
            }
            _ => {}
        }
    }

    // Path-based lints need an acyclic graph and a bounded closure.
    if cycle.is_none() {
        if n > MAX_CLOSURE_TASKS {
            diagnostics.push(Diagnostic {
                code: "HF008",
                severity: Severity::Info,
                tasks: Vec::new(),
                task_ids: Vec::new(),
                message: format!(
                    "graph has {n} tasks, above the {MAX_CLOSURE_TASKS}-task limit for \
                     path-based lints; race (HF002), ordering (HF003) and redundant-edge \
                     (HF006) checks were skipped"
                ),
            });
        } else if n > 0 {
            path_lints(b, &succ, &mut diagnostics);
        }
    }

    diagnostics.sort_by(|a, d| {
        d.severity
            .cmp(&a.severity)
            .then(a.code.cmp(d.code))
            .then(a.task_ids.first().cmp(&d.task_ids.first()))
    });
    Report {
        graph: b.name.clone(),
        diagnostics,
    }
}

/// HF002 (races), HF003 (use-before-pull), HF006 (redundant edges): all
/// the lints that need the ancestor closure. Requires an acyclic graph.
fn path_lints(b: &Builder, succ: &[&[usize]], diagnostics: &mut Vec<Diagnostic>) {
    let n = b.nodes.len();
    let stride = n.div_ceil(64);

    // Topological order (acyclicity was already established).
    let mut indeg: Vec<usize> = b.nodes.iter().map(|nd| nd.pred.len()).collect();
    let mut topo: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut cursor = 0;
    while cursor < topo.len() {
        let u = topo[cursor];
        cursor += 1;
        for &v in succ[u] {
            indeg[v] -= 1;
            if indeg[v] == 0 {
                topo.push(v);
            }
        }
    }
    debug_assert_eq!(topo.len(), n);

    // anc[v] = bitset of all proper ancestors of v.
    let mut anc = vec![0u64; n * stride];
    for &v in &topo {
        for &p in &b.nodes[v].pred {
            for w in 0..stride {
                let bits = anc[p * stride + w];
                anc[v * stride + w] |= bits;
            }
            anc[v * stride + p / 64] |= 1u64 << (p % 64);
        }
    }
    let ordered = |a: usize, b_: usize| {
        anc[b_ * stride + a / 64] >> (a % 64) & 1 == 1
            || anc[a * stride + b_ / 64] >> (b_ % 64) & 1 == 1
    };

    // HF003: a kernel (or push) must be a descendant of each pull it uses,
    // or at runtime it races the H2D copy (SourceNotPulled /
    // PushBeforePull).
    let is_ancestor = |a: usize, d: usize| anc[d * stride + a / 64] >> (a % 64) & 1 == 1;
    for (i, node) in b.nodes.iter().enumerate() {
        match &node.work {
            Work::Kernel { sources, .. } => {
                for &p in sources.iter() {
                    if !is_ancestor(p, i) {
                        diagnostics.push(Diagnostic {
                            code: "HF003",
                            severity: Severity::Error,
                            tasks: vec![node.name.to_string(), b.nodes[p].name.to_string()],
                            task_ids: vec![i, p],
                            message: format!(
                                "kernel '{}' reads device data of pull '{}' but has no \
                                 dependency path from it; add pull.precede(kernel)",
                                node.name, b.nodes[p].name
                            ),
                        });
                    }
                }
            }
            Work::Push { source_pull, .. } if !is_ancestor(*source_pull, i) => {
                diagnostics.push(Diagnostic {
                    code: "HF003",
                    severity: Severity::Error,
                    tasks: vec![
                        node.name.to_string(),
                        b.nodes[*source_pull].name.to_string(),
                    ],
                    task_ids: vec![i, *source_pull],
                    message: format!(
                        "push '{}' copies device data of pull '{}' but has no \
                         dependency path from it; add pull.precede(push)",
                        node.name, b.nodes[*source_pull].name
                    ),
                });
            }
            _ => {}
        }
    }

    // HF002: unordered accesses to one host buffer with at least one
    // writer. Buffer identity comes from source_id/sink_id/declared ids.
    let mut accesses: BTreeMap<usize, Vec<Access>> = BTreeMap::new();
    for (i, node) in b.nodes.iter().enumerate() {
        match &node.work {
            Work::Pull { source } => {
                if let Some(id) = source.source_id() {
                    accesses.entry(id).or_default().push(Access {
                        node: i,
                        write: false,
                    });
                }
            }
            Work::Push { sink, .. } => {
                if let Some(id) = sink.sink_id() {
                    accesses.entry(id).or_default().push(Access {
                        node: i,
                        write: true,
                    });
                }
            }
            Work::Host(_) => {
                let (reads, writes) = node
                    .attrs
                    .as_ref()
                    .map_or((&[][..], &[][..]), |a| (&a.reads, &a.writes));
                for &id in reads {
                    accesses.entry(id).or_default().push(Access {
                        node: i,
                        write: false,
                    });
                }
                for &id in writes {
                    accesses.entry(id).or_default().push(Access {
                        node: i,
                        write: true,
                    });
                }
            }
            _ => {}
        }
    }
    let mut reported: std::collections::BTreeSet<(usize, usize)> = Default::default();
    for accs in accesses.values() {
        for (ai, a) in accs.iter().enumerate() {
            for acc_b in &accs[ai + 1..] {
                if a.node == acc_b.node || !(a.write || acc_b.write) {
                    continue;
                }
                let pair = (a.node.min(acc_b.node), a.node.max(acc_b.node));
                if ordered(pair.0, pair.1) || !reported.insert(pair) {
                    continue;
                }
                let (x, y) = pair;
                diagnostics.push(Diagnostic {
                    code: "HF002",
                    severity: Severity::Error,
                    tasks: vec![b.nodes[x].name.to_string(), b.nodes[y].name.to_string()],
                    task_ids: vec![x, y],
                    message: format!(
                        "'{}' and '{}' access the same host buffer with no dependency \
                         path between them and at least one writes; execution order is \
                         nondeterministic — add an ordering edge",
                        b.nodes[x].name, b.nodes[y].name
                    ),
                });
            }
        }
    }

    // HF006: an edge u -> v is redundant when some other predecessor of v
    // is itself a descendant of u (a longer path already orders them).
    for (u, u_succ) in succ.iter().enumerate().take(n) {
        for &v in *u_succ {
            let redundant = b.nodes[v].pred.iter().any(|&w| w != u && is_ancestor(u, w));
            if redundant {
                diagnostics.push(Diagnostic {
                    code: "HF006",
                    severity: Severity::Info,
                    tasks: vec![b.nodes[u].name.to_string(), b.nodes[v].name.to_string()],
                    task_ids: vec![u, v],
                    message: format!(
                        "edge '{}' -> '{}' is redundant: a longer dependency path \
                         already orders them",
                        b.nodes[u].name, b.nodes[v].name
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::HostVec;

    #[test]
    fn clean_saxpy_graph_has_no_findings() {
        let g = Heteroflow::new("saxpy");
        let x: HostVec<i32> = HostVec::new();
        let y: HostVec<i32> = HostVec::new();
        let hx = g.host("host_x", || {});
        let hy = g.host("host_y", || {});
        let px = g.pull("pull_x", &x);
        let py = g.pull("pull_y", &y);
        let k = g.kernel("saxpy", &[&px, &py], |_, _| {});
        let sx = g.push("push_x", &px, &x);
        let sy = g.push("push_y", &py, &y);
        hx.precede(&px);
        hy.precede(&py);
        k.succeed(&px).succeed(&py);
        k.precede(&sx).precede(&sy);
        let r = g.analyze();
        assert!(r.is_clean(), "unexpected findings:\n{}", r.render_text());
    }

    #[test]
    fn unordered_pushes_to_one_buffer_race() {
        let g = Heteroflow::new("race");
        let x: HostVec<i32> = HostVec::from_vec(vec![1]);
        let p = g.pull("p", &x);
        let k = g.kernel("k", &[&p], |_, _| {});
        let s1 = g.push("s1", &p, &x);
        let s2 = g.push("s2", &p, &x);
        p.precede(&k);
        k.precede(&s1).precede(&s2); // s1 and s2 unordered, both write x
        let r = g.analyze();
        let race: Vec<_> = r.with_code("HF002").collect();
        assert_eq!(race.len(), 1, "report:\n{}", r.render_text());
        assert_eq!(race[0].tasks, vec!["s1", "s2"]);
        assert!(r.has_errors());
    }

    #[test]
    fn ordering_edge_suppresses_race() {
        let g = Heteroflow::new("ordered");
        let x: HostVec<i32> = HostVec::from_vec(vec![1]);
        let p = g.pull("p", &x);
        let k = g.kernel("k", &[&p], |_, _| {});
        let s1 = g.push("s1", &p, &x);
        let s2 = g.push("s2", &p, &x);
        p.precede(&k);
        k.precede(&s1);
        s1.precede(&s2); // transitive path k -> s1 -> s2 orders the writes
        k.precede(&s2); // also makes this edge redundant (HF006)
        let r = g.analyze();
        assert_eq!(r.with_code("HF002").count(), 0, "{}", r.render_text());
        let redundant: Vec<_> = r.with_code("HF006").collect();
        assert_eq!(redundant.len(), 1);
        assert_eq!(redundant[0].tasks, vec!["k", "s2"]);
    }

    #[test]
    fn declared_host_access_races_with_pull() {
        let g = Heteroflow::new("hostrace");
        let x: HostVec<i32> = HostVec::from_vec(vec![1]);
        let h = g.host("fill", || {});
        h.writes(&x);
        let p = g.pull("pull_x", &x);
        let k = g.kernel("k", &[&p], |_, _| {});
        p.precede(&k); // but h is unordered with p
        let r = g.analyze();
        let race: Vec<_> = r.with_code("HF002").collect();
        assert_eq!(race.len(), 1, "{}", r.render_text());
        assert_eq!(race[0].tasks, vec!["fill", "pull_x"]);
    }

    #[test]
    fn kernel_without_path_from_pull_is_flagged() {
        let g = Heteroflow::new("nopath");
        let x: HostVec<i32> = HostVec::from_vec(vec![1]);
        let p = g.pull("p", &x);
        let _k = g.kernel("k", &[&p], |_, _| {});
        // Missing p.precede(k).
        let r = g.analyze();
        assert_eq!(r.with_code("HF003").count(), 1, "{}", r.render_text());
    }

    #[test]
    fn cycle_reports_full_path() {
        let g = Heteroflow::new("cyc");
        let a = g.host("a", || {});
        let b = g.host("b", || {});
        a.precede(&b);
        b.precede(&a);
        let r = g.analyze();
        let cyc: Vec<_> = r.with_code("HF001").collect();
        assert_eq!(cyc.len(), 1);
        assert_eq!(cyc[0].tasks.len(), 2);
    }

    #[test]
    fn renderers_cover_every_field() {
        let g = Heteroflow::new("render\"me");
        g.placeholder("ph");
        let r = g.analyze();
        assert!(!r.is_clean());
        let text = r.render_text();
        assert!(text.contains("HF007") && text.contains("ph"), "{text}");
        let json = r.to_json();
        assert!(json.contains("\"code\":\"HF007\""), "{json}");
        assert!(json.contains("render\\\"me"), "escapes quotes: {json}");
        assert!(json.contains("\"task_ids\":[0]"), "{json}");
    }

    #[test]
    fn cycle_path_recovers_dependency_order() {
        // 0 -> 1 -> 2 -> 0, plus 3 fed by the cycle (dead-ends a successor
        // walk) and source 4 feeding into it.
        let succ: Vec<&[usize]> = vec![&[1], &[2, 3], &[0], &[], &[0]];
        let cycle = cycle_path(&succ).expect("cycle exists");
        assert_eq!(cycle.len(), 3);
        // Each node's successor list contains the next node in the path.
        for (i, &u) in cycle.iter().enumerate() {
            let v = cycle[(i + 1) % cycle.len()];
            assert!(succ[u].contains(&v), "edge {u} -> {v} missing");
        }
    }

    #[test]
    fn cycle_path_none_for_dag() {
        let succ: Vec<&[usize]> = vec![&[1, 2], &[3], &[3], &[]];
        assert!(cycle_path(&succ).is_none());
    }
}

//! Integration tests for the graph static analyzer: seeded defects are
//! flagged with stable HF0xx codes, realistic clean graphs lint clean,
//! the executor runs a graph whatever its findings, and random
//! fully-chained DAGs never produce race findings.

use heteroflow::prelude::*;
use proptest::prelude::*;

/// Two pushes of the same buffer with no ordering between them: HF002.
#[test]
fn seeded_race_is_flagged_hf002() {
    let g = Heteroflow::new("race");
    let x: HostVec<i32> = HostVec::from_vec(vec![0; 64]);
    let p = g.pull("p", &x);
    let k = g.kernel("k", &[&p], |_, _| {});
    let s1 = g.push("s1", &p, &x);
    let s2 = g.push("s2", &p, &x);
    p.precede(&k);
    k.precede(&s1);
    k.precede(&s2);
    let report = g.analyze();
    let races: Vec<_> = report.with_code("HF002").collect();
    assert_eq!(
        races.len(),
        1,
        "expected one race: {}",
        report.render_text()
    );
    assert_eq!(races[0].severity, Severity::Error);
    assert!(races[0].tasks.contains(&"s1".to_string()));
    assert!(races[0].tasks.contains(&"s2".to_string()));
}

/// A kernel with no dependency path from its source pull: HF003 — the
/// static mirror of the runtime `SourceNotPulled` error.
#[test]
fn seeded_missing_pull_dependency_is_flagged_hf003() {
    let g = Heteroflow::new("nopull");
    let x: HostVec<i32> = HostVec::from_vec(vec![0; 64]);
    let p = g.pull("p", &x);
    let k = g.kernel("k", &[&p], |_, _| {});
    let s = g.push("s", &p, &x);
    // User forgot p.precede(&k); only kernel -> push is ordered.
    k.precede(&s);
    p.precede(&s);
    let report = g.analyze();
    assert!(report.has_errors());
    let missing: Vec<_> = report.with_code("HF003").collect();
    assert!(
        missing.iter().any(|d| d.tasks.contains(&"k".to_string())),
        "kernel not flagged: {}",
        report.render_text()
    );
}

/// A pull whose device data no kernel or push ever consumes: HF005.
#[test]
fn seeded_dead_pull_is_flagged_hf005() {
    let g = Heteroflow::new("dead");
    let x: HostVec<i32> = HostVec::from_vec(vec![0; 64]);
    let y: HostVec<i32> = HostVec::from_vec(vec![0; 64]);
    let p = g.pull("p", &x);
    let k = g.kernel("k", &[&p], |_, _| {});
    let s = g.push("s", &p, &x);
    p.precede(&k);
    k.precede(&s);
    g.pull("dead_pull", &y); // never consumed
    let report = g.analyze();
    let dead: Vec<_> = report.with_code("HF005").collect();
    assert_eq!(dead.len(), 1, "got: {}", report.render_text());
    assert_eq!(dead[0].severity, Severity::Warning);
    assert!(dead[0].tasks.contains(&"dead_pull".to_string()));
}

/// Declared host-task access (`reads`/`writes`) participates in race
/// detection against transfer tasks.
#[test]
fn declared_host_writer_races_with_unordered_pull() {
    let g = Heteroflow::new("hostrace");
    let x: HostVec<i32> = HostVec::from_vec(vec![0; 64]);
    let h = g.host("h", {
        let x = x.clone();
        move || x.write()[0] = 1
    });
    h.writes(&x);
    let p = g.pull("p", &x);
    let k = g.kernel("k", &[&p], |_, _| {});
    p.precede(&k);
    // No ordering between h and p: concurrent write/read of `x`.
    let report = g.analyze();
    let races: Vec<_> = report.with_code("HF002").collect();
    assert_eq!(races.len(), 1, "got: {}", report.render_text());
    // Adding the missing edge clears the finding.
    h.precede(&p);
    assert!(
        g.analyze().with_code("HF002").next().is_none(),
        "ordered access still flagged"
    );
}

/// A declared host reader races with an unordered push that writes the
/// same buffer back.
#[test]
fn declared_host_reader_races_with_unordered_push() {
    let g = Heteroflow::new("hostread");
    let x: HostVec<i32> = HostVec::from_vec(vec![0; 64]);
    let p = g.pull("p", &x);
    let k = g.kernel("k", &[&p], |_, _| {});
    let s = g.push("s", &p, &x);
    p.precede(&k);
    k.precede(&s);
    let h = g.host("h", {
        let x = x.clone();
        move || assert!(x.read().len() == 64)
    });
    h.reads(&x);
    // No ordering between h and s: concurrent read/write of `x`.
    let report = g.analyze();
    assert_eq!(
        report.with_code("HF002").count(),
        1,
        "got: {}",
        report.render_text()
    );
    s.precede(&h);
    assert!(
        g.analyze().with_code("HF002").next().is_none(),
        "ordered access still flagged"
    );
}

/// The full saxpy graph of the paper's Listing 1 has zero findings.
#[test]
fn saxpy_shape_lints_clean() {
    let g = Heteroflow::new("saxpy");
    let x: HostVec<i32> = HostVec::new();
    let y: HostVec<i32> = HostVec::new();
    let host_x = g.host("host_x", {
        let x = x.clone();
        move || x.write().resize(64, 1)
    });
    host_x.writes(&x);
    let host_y = g.host("host_y", {
        let y = y.clone();
        move || y.write().resize(64, 2)
    });
    host_y.writes(&y);
    let pull_x = g.pull("pull_x", &x);
    let pull_y = g.pull("pull_y", &y);
    let kernel = g.kernel("saxpy", &[&pull_x, &pull_y], |_, _| {});
    let push_x = g.push("push_x", &pull_x, &x);
    let push_y = g.push("push_y", &pull_y, &y);
    host_x.precede(&pull_x);
    host_y.precede(&pull_y);
    kernel.succeed_all(&[&pull_x, &pull_y]);
    kernel.precede_all(&[&push_x, &push_y]);
    let report = g.analyze();
    assert!(
        report.is_clean(),
        "saxpy not clean:\n{}",
        report.render_text()
    );
}

/// Analysis is the caller's call: the executor runs even an
/// Error-severity graph (the race is on device data the test never reads
/// back).
#[test]
fn executor_runs_graphs_with_findings() {
    let g = Heteroflow::new("findings");
    let x: HostVec<i32> = HostVec::from_vec(vec![0; 64]);
    let p = g.pull("p", &x);
    let k = g.kernel("k", &[&p], |_, _| {});
    let s1 = g.push("s1", &p, &x);
    let s2 = g.push("s2", &p, &x);
    p.precede(&k);
    k.precede(&s1);
    k.precede(&s2);
    assert!(g.analyze().has_errors());
    let ex = Executor::new(2, 1);
    ex.run(&g).wait().unwrap();
}

/// JSON rendering of a report is parseable and carries the codes.
#[test]
fn report_json_round_trips() {
    let g = Heteroflow::new("json");
    let x: HostVec<i32> = HostVec::from_vec(vec![0; 8]);
    g.pull("dead", &x);
    let report = g.analyze();
    let v: serde_json::Value = serde_json::from_str(&report.to_json()).expect("valid json");
    assert_eq!(v.get("graph").and_then(|g| g.as_str()), Some("json"));
    let diags = v
        .get("diagnostics")
        .and_then(|d| d.as_array())
        .expect("diagnostics array");
    assert!(diags
        .iter()
        .any(|d| d.get("code").and_then(|c| c.as_str()) == Some("HF005")));
}

/// Builds a random DAG over alternating pull/kernel/push stages where
/// every consecutive pair is chained — fully ordered graphs must never
/// produce race findings.
fn chained_graph(n: usize) -> (Heteroflow, HostVec<i32>) {
    let g = Heteroflow::new("chained");
    let x: HostVec<i32> = HostVec::from_vec(vec![0; 16]);
    let p = g.pull("p0", &x);
    let mut prev = p.as_task();
    for i in 0..n {
        match i % 3 {
            0 => {
                let k = g.kernel(&format!("k{i}"), &[&p], |_, _| {});
                prev.precede(&k);
                prev = k.as_task();
            }
            1 => {
                let s = g.push(&format!("s{i}"), &p, &x);
                prev.precede(&s);
                prev = s.as_task();
            }
            _ => {
                let h = g.host(&format!("h{i}"), || {});
                h.writes(&x);
                prev.precede(&h);
                prev = h.as_task();
            }
        }
    }
    (g, x)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A fully chained graph — every consecutive pair of buffer-touching
    /// tasks ordered by an edge — never reports HF002, whatever the mix
    /// of kernels, pushes, and declared host writers.
    #[test]
    fn fully_chained_dags_never_report_races(n in 1usize..40) {
        let (g, _x) = chained_graph(n);
        let report = g.analyze();
        prop_assert!(
            report.with_code("HF002").next().is_none(),
            "chained graph reported a race:\n{}",
            report.render_text()
        );
    }

    /// Random extra forward edges added on top of the chain keep it both
    /// acyclic and race-free (extra ordering can never create a race).
    #[test]
    fn extra_forward_edges_preserve_race_freedom(
        n in 3usize..24,
        seed in proptest::collection::vec(any::<u8>(), 8..32),
    ) {
        let g = Heteroflow::new("extra");
        let x: HostVec<i32> = HostVec::from_vec(vec![0; 16]);
        let p = g.pull("p", &x);
        let mut tasks: Vec<TaskRef> = vec![p.as_task()];
        for i in 0..n {
            let t: TaskRef = if i % 2 == 0 {
                g.kernel(&format!("k{i}"), &[&p], |_, _| {}).as_task()
            } else {
                g.push(&format!("s{i}"), &p, &x).as_task()
            };
            tasks.last().unwrap().precede(&t);
            tasks.push(t);
        }
        let mut z = 0usize;
        for i in 0..tasks.len() {
            for j in (i + 1)..tasks.len() {
                let byte = seed[z % seed.len()];
                z += 1;
                if byte % 4 == 0 {
                    tasks[i].precede(&tasks[j]);
                }
            }
        }
        let report = g.analyze();
        prop_assert!(report.with_code("HF001").next().is_none(), "cycle in forward DAG");
        prop_assert!(
            report.with_code("HF002").next().is_none(),
            "chained graph reported a race:\n{}",
            report.render_text()
        );
    }
}

//! Chrome trace-event / Perfetto export.
//!
//! Produces one `"X"` complete event per span, plus the `process_name` /
//! `thread_name` metadata events that make the Perfetto UI readable: CPU
//! workers appear as threads of a process named `cpu` (pid 0), device `d`
//! as its own `gpu<d>` process (pid `1 + d`) with one thread per stream.
//! The same exporter
//! serves measured spans (from the trace collector) and modeled spans
//! (from the `hf-sim` discrete-event model, via [`spans_from_sim`]) so
//! real and simulated schedules can be diffed in one UI.

use hf_core::{GraphInfo, SpanCat, TraceSpan, Track};
use hf_sim::SimSpan;
use std::collections::BTreeSet;

/// Renders spans as a chrome trace JSON array with naming metadata.
pub fn chrome_trace(spans: &[TraceSpan]) -> String {
    let mut out = String::from("[");
    let mut first = true;
    let mut emit = |ev: String, out: &mut String| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&ev);
    };

    // Naming metadata for every (pid, tid) present.
    let mut pids: BTreeSet<u64> = BTreeSet::new();
    let mut tids: BTreeSet<(u64, u64, bool)> = BTreeSet::new();
    for s in spans {
        let (pid, tid, is_dev) = match s.track {
            Track::Worker(w) => (0u64, w as u64, false),
            Track::Device(d) => (1 + d as u64, s.stream.unwrap_or(0) as u64, true),
        };
        pids.insert(pid);
        tids.insert((pid, tid, is_dev));
    }
    for pid in &pids {
        let name = if *pid == 0 {
            "cpu".to_string()
        } else {
            format!("gpu{}", pid - 1)
        };
        emit(
            format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
                 \"args\":{{\"name\":\"{name}\"}}}}"
            ),
            &mut out,
        );
    }
    for (pid, tid, is_dev) in &tids {
        let name = if *is_dev {
            format!("stream {tid}")
        } else {
            format!("worker {tid}")
        };
        emit(
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
                 \"args\":{{\"name\":\"{name}\"}}}}"
            ),
            &mut out,
        );
    }

    for s in spans {
        emit(chrome_trace_event(s), &mut out);
    }
    out.push(']');
    out
}

/// One span as a chrome trace-event object (no surrounding punctuation).
fn chrome_trace_event(s: &TraceSpan) -> String {
    let (pid, tid) = match s.track {
        Track::Worker(w) => (0u64, w as u64),
        Track::Device(d) => (1 + d as u64, s.stream.unwrap_or(0) as u64),
    };
    let cat = match s.cat {
        SpanCat::Task => s.kind.to_string(),
        other => other.name().to_string(),
    };
    let mut args = String::new();
    if let Some(d) = s.device {
        args.push_str(&format!("\"device\":{d},"));
    }
    if s.bytes > 0 {
        args.push_str(&format!("\"bytes\":{},", s.bytes));
    }
    args.push_str(&format!("\"cat\":\"{}\"", s.cat.name()));
    format!(
        "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{},\"args\":{{{}}}}}",
        s.name.replace('\\', "\\\\").replace('"', "'"),
        cat,
        s.start_us,
        s.dur_us.max(1),
        pid,
        tid,
        args
    )
}

/// Converts a simulated schedule into trace spans on the same track
/// layout as measured ones: GPU ops on device tracks, host tasks (and, in
/// dedicated mode, GPU ops without a worker) on worker tracks. Task kinds
/// come from `info` (simulated spans carry the node id).
pub fn spans_from_sim(info: &GraphInfo, sim: &[SimSpan]) -> Vec<TraceSpan> {
    sim.iter()
        .map(|s| {
            let track = match (s.device, s.worker) {
                (Some(d), _) => Track::Device(d),
                (None, Some(w)) => Track::Worker(w),
                (None, None) => Track::Worker(0),
            };
            TraceSpan {
                track,
                name: s.name.clone(),
                cat: SpanCat::Task,
                kind: info.nodes.get(s.node).map(|n| n.kind).unwrap_or(
                    hf_core::TaskKind::Placeholder,
                ),
                device: s.device,
                stream: None,
                start_us: s.start_ns / 1_000,
                dur_us: (s.finish_ns - s.start_ns) / 1_000,
                bytes: info.nodes.get(s.node).map(|n| n.bytes as u64).unwrap_or(0),
                epoch: None,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hf_core::TaskKind;

    fn cpu_span(name: &str, worker: usize) -> TraceSpan {
        TraceSpan {
            track: Track::Worker(worker),
            name: name.to_string(),
            cat: SpanCat::Task,
            kind: TaskKind::Host,
            device: None,
            stream: None,
            start_us: 1,
            dur_us: 2,
            bytes: 0,
            epoch: None,
        }
    }

    #[test]
    fn metadata_names_every_track() {
        let spans = vec![
            cpu_span("a", 0),
            cpu_span("b", 3),
            TraceSpan {
                track: Track::Device(1),
                name: "k".into(),
                cat: SpanCat::Task,
                kind: TaskKind::Kernel,
                device: Some(1),
                stream: Some(2),
                start_us: 5,
                dur_us: 7,
                bytes: 64,
                epoch: None,
            },
        ];
        let json = chrome_trace(&spans);
        let doc = serde_json::from_str(&json).expect("valid JSON");
        let events = doc.as_array().unwrap();
        let names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("M"))
            .map(|e| e.get("args").unwrap().get("name").unwrap().as_str().unwrap())
            .collect();
        assert!(names.contains(&"cpu"));
        assert!(names.contains(&"gpu1"));
        assert!(names.contains(&"worker 3"));
        assert!(names.contains(&"stream 2"));
        // The device span keeps its pid/tid mapping.
        let k = events
            .iter()
            .find(|e| e.get("name").unwrap().as_str() == Some("k"))
            .unwrap();
        assert_eq!(k.get("pid").unwrap().as_u64(), Some(2));
        assert_eq!(k.get("tid").unwrap().as_u64(), Some(2));
        assert_eq!(k.get("args").unwrap().get("bytes").unwrap().as_u64(), Some(64));
    }

    #[test]
    fn span_events_are_wellformed_json_with_quotes_escaped() {
        let json = chrome_trace(&[cpu_span("a\"quoted\"", 0)]);
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(!json.contains("a\"quoted\""), "quotes must be escaped");
        assert!(serde_json::from_str(&json).is_ok());
    }

    #[test]
    fn no_spans_serialize_to_an_empty_array() {
        assert_eq!(chrome_trace(&[]), "[]");
    }

    #[test]
    fn sim_spans_map_to_tracks_and_kinds() {
        use hf_core::data::HostVec;
        use hf_core::Heteroflow;
        use hf_sim::Machine;

        let g = Heteroflow::new("sim");
        let x: HostVec<u32> = HostVec::from_vec(vec![0; 4096]);
        let h = g.host("h", || {});
        let p = g.pull("p", &x);
        let k = g.kernel("k", &[&p], |_, _| {});
        k.cover(4096, 256);
        h.precede(&p);
        p.precede(&k);
        let info = g.info().unwrap();

        let machine = Machine::new(2, 1);
        let (_res, sim) = hf_sim::simulate_traced(
            &info,
            &machine,
            |_| hf_gpu::SimDuration::from_nanos(1_000),
        )
        .expect("simulates");
        let spans = spans_from_sim(&info, &sim);
        assert_eq!(spans.len(), 3);
        let kspan = spans.iter().find(|s| s.name == "k").unwrap();
        assert!(matches!(kspan.track, Track::Device(0)));
        assert_eq!(kspan.kind, TaskKind::Kernel);
        let hspan = spans.iter().find(|s| s.name == "h").unwrap();
        assert!(matches!(hspan.track, Track::Worker(_)));
        // The merged export of a simulated schedule parses too.
        assert!(serde_json::from_str(&chrome_trace(&spans)).is_ok());
    }
}

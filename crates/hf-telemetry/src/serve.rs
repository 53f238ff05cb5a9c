//! Live health exposition: a dependency-free HTTP endpoint serving
//! Prometheus metrics, the watchdog verdict, and flight-recorder run
//! summaries.
//!
//! The server is deliberately tiny — a blocking [`TcpListener`] accept
//! loop on one thread, `Connection: close` per request — because its job
//! is introspection, not traffic: a scraper polls `/metrics` every few
//! seconds, an operator curls `/health` when something looks wedged.
//! Routes:
//!
//! * `GET /metrics` — Prometheus text exposition: the flight recorder's
//!   latency-attribution histograms plus whatever collectors the
//!   [`HealthHub`] is wired with (executor stats, device/pool counters).
//! * `GET /health` — the watchdog's JSON verdict (overall severity,
//!   per-run state, the structured health-event log).
//! * `GET /runs` — flight-recorder run summaries as JSON.
//! * `GET /flight` — the full flight-recorder dump (every retained run's
//!   black box).
//! * `GET /tenants` — per-tenant latency attribution plus the wired
//!   fleet snapshot (multi-tenant serving), as JSON.

use crate::health::{FlightRecorder, Watchdog};
use crate::metrics::MetricsRegistry;
use hf_sync::sync::Mutex;
use serde_json::{Map, Value};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Extra metric source: a closure filling a [`MetricsRegistry`] at
/// scrape time (executor snapshots, GPU runtime counters, …).
pub(crate) type Collector = Box<dyn Fn(&MetricsRegistry) + Send + Sync>;

/// Scrape-time tenant source: a closure returning a JSON document (a
/// fleet snapshot) merged into `/tenants` responses.
pub(crate) type TenantSource = Box<dyn Fn() -> String + Send + Sync>;

/// Aggregates the health surfaces one process exposes: the flight
/// recorder, an optional watchdog, and scrape-time metric collectors.
pub struct HealthHub {
    recorder: Arc<FlightRecorder>,
    watchdog: Mutex<Option<Arc<Watchdog>>>,
    collectors: Mutex<Vec<Collector>>,
    tenant_source: Mutex<Option<TenantSource>>,
}

impl HealthHub {
    /// A hub over `recorder`, with no watchdog or collectors yet.
    pub fn new(recorder: Arc<FlightRecorder>) -> Arc<Self> {
        Arc::new(Self {
            recorder,
            watchdog: Mutex::new(None),
            collectors: Mutex::new(Vec::new()),
            tenant_source: Mutex::new(None),
        })
    }

    /// Wires a watchdog; `/health` serves its verdict.
    pub fn set_watchdog(&self, wd: Arc<Watchdog>) {
        *self.watchdog.lock() = Some(wd);
    }

    /// Adds a scrape-time collector, called on every `/metrics` request.
    pub fn add_collector(&self, f: impl Fn(&MetricsRegistry) + Send + Sync + 'static) {
        self.collectors.lock().push(Box::new(f));
    }

    /// Wires a scrape-time tenant source — typically
    /// `move || serde_json::to_string(&fleet.snapshot())` — whose JSON is
    /// merged into `/tenants` responses as the `fleet` field, next to the
    /// recorder's per-tenant latency attribution.
    pub fn set_tenant_source(&self, f: impl Fn() -> String + Send + Sync + 'static) {
        *self.tenant_source.lock() = Some(Box::new(f));
    }

    /// Renders the `/metrics` document (Prometheus text).
    pub(crate) fn metrics_text(&self) -> String {
        self.recorder.pump();
        let reg = MetricsRegistry::new();
        self.recorder.export_into(&reg);
        for c in self.collectors.lock().iter() {
            c(&reg);
        }
        reg.prometheus_text()
    }

    /// Renders the `/health` document (JSON).
    pub(crate) fn health_text(&self) -> String {
        self.recorder.pump();
        let v = match self.watchdog.lock().as_ref() {
            Some(wd) => wd.health_json(),
            None => {
                // No watchdog: healthy by definition, but still useful.
                let mut o = Map::new();
                o.insert("verdict".into(), Value::Str("healthy".into()));
                o.insert("runs".into(), Value::Array(Vec::new()));
                o.insert("events".into(), Value::Array(Vec::new()));
                Value::Object(o)
            }
        };
        serde_json::to_string_pretty(&v).expect("infallible")
    }

    /// Renders the `/runs` document (JSON array of run summaries).
    pub fn runs_text(&self) -> String {
        self.recorder.pump();
        let arr: Vec<Value> = self
            .recorder
            .summaries()
            .iter()
            .map(|s| {
                let mut o = Map::new();
                o.insert("run_id".into(), Value::UInt(s.run_id));
                o.insert("graph".into(), Value::Str(s.graph.clone()));
                o.insert("started_ns".into(), Value::UInt(s.started_ns));
                match s.ended_ns {
                    Some(e) => o.insert("ended_ns".into(), Value::UInt(e)),
                    None => o.insert("ended_ns".into(), Value::Null),
                };
                match s.ok {
                    Some(ok) => o.insert("ok".into(), Value::Bool(ok)),
                    None => o.insert("ok".into(), Value::Null),
                };
                if let Some(d) = &s.detail {
                    o.insert("detail".into(), Value::Str(d.clone()));
                }
                o.insert("events".into(), Value::UInt(s.events));
                o.insert("tasks".into(), Value::UInt(s.tasks as u64));
                o.insert("retries".into(), Value::UInt(s.retries));
                o.insert("failures".into(), Value::UInt(s.failures));
                o.insert("failovers".into(), Value::UInt(s.failovers));
                if let Some(t) = &s.tenant {
                    o.insert("tenant".into(), Value::Str(t.clone()));
                }
                Value::Object(o)
            })
            .collect();
        serde_json::to_string_pretty(&Value::Array(arr)).expect("infallible")
    }

    /// Renders the `/flight` document (full flight-recorder dump).
    pub(crate) fn flight_text(&self) -> String {
        self.recorder.pump();
        serde_json::to_string_pretty(&self.recorder.dump_json()).expect("infallible")
    }

    /// Renders the `/tenants` document (JSON): the recorder's per-tenant
    /// latency attribution, plus the wired fleet snapshot when a tenant
    /// source is set.
    pub(crate) fn tenants_text(&self) -> String {
        self.recorder.pump();
        let mut v = self.recorder.tenants_json();
        if let Some(src) = self.tenant_source.lock().as_ref() {
            let raw = src();
            let fleet = serde_json::from_str(&raw).unwrap_or(Value::Str(raw));
            if let Value::Object(o) = &mut v {
                o.insert("fleet".into(), fleet);
            }
        }
        serde_json::to_string_pretty(&v).expect("infallible")
    }
}

/// The live endpoint: binds a TCP listener and serves [`HealthHub`]
/// documents until dropped.
pub struct HealthServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl HealthServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts the accept thread.
    pub fn bind(addr: &str, hub: Arc<HealthHub>) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let stop = Arc::clone(&shutdown);
        let thread = std::thread::Builder::new()
            .name("hf-health-http".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    if let Ok(stream) = stream {
                        // Serve inline: introspection traffic is tiny and
                        // a hung client can't wedge us past the deadline.
                        let _ = serve_one(stream, &hub);
                    }
                }
            })?;
        Ok(Self {
            addr: local,
            shutdown,
            thread: Some(thread),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for HealthServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.thread.take() {
            let _ = h.join();
        }
    }
}

/// How long a client has to deliver its whole request head. One deadline
/// for the head, not one per read: the accept thread serves inline, so a
/// client trickling bytes must not hold it longer than this.
const HEAD_DEADLINE: Duration = Duration::from_secs(2);

/// Reads one request line, routes it, writes one response.
fn serve_one(mut stream: TcpStream, hub: &HealthHub) -> std::io::Result<()> {
    let deadline = Instant::now() + HEAD_DEADLINE;
    stream.set_write_timeout(Some(HEAD_DEADLINE))?;
    let mut buf = [0u8; 2048];
    let mut req = Vec::new();
    // Read until the end of the request head (or the buffer bound —
    // GETs with no body don't need more).
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        stream.set_read_timeout(Some(left))?;
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break;
        }
        req.extend_from_slice(&buf[..n]);
        if req.windows(4).any(|w| w == b"\r\n\r\n") || req.len() > 16 * 1024 {
            break;
        }
    }
    let head = String::from_utf8_lossy(&req);
    let mut parts = head.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, ctype, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "method not allowed\n".to_string(),
        )
    } else {
        match path {
            "/metrics" => (
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                hub.metrics_text(),
            ),
            "/health" => ("200 OK", "application/json", hub.health_text()),
            "/runs" => ("200 OK", "application/json", hub.runs_text()),
            "/flight" => ("200 OK", "application/json", hub.flight_text()),
            "/tenants" => ("200 OK", "application/json", hub.tenants_text()),
            _ => (
                "404 Not Found",
                "text/plain; charset=utf-8",
                "not found — try /metrics, /health, /runs, /flight, /tenants\n".to_string(),
            ),
        }
    };
    let resp = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(resp.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut s = TcpStream::connect(addr).expect("connect");
        write!(s, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).expect("read");
        let (head, body) = out.split_once("\r\n\r\n").expect("has head");
        (head.to_string(), body.to_string())
    }

    #[test]
    fn serves_all_routes_and_404() {
        let recorder = FlightRecorder::shared();
        let hub = HealthHub::new(Arc::clone(&recorder));
        hub.add_collector(|reg| {
            reg.set_counter("hf_test_collector_total", "wired", &[], 9);
        });
        let server = HealthServer::bind("127.0.0.1:0", Arc::clone(&hub)).expect("bind");
        let addr = server.addr();

        let (head, body) = get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(head.contains("Content-Length"));
        assert!(body.contains("hf_task_queue_delay_nanos_bucket"));
        assert!(body.contains("hf_test_collector_total 9"));

        let (head, body) = get(addr, "/health");
        assert!(head.starts_with("HTTP/1.1 200"));
        let v = serde_json::from_str(&body).expect("valid JSON");
        assert_eq!(v.get("verdict").and_then(|x| x.as_str()), Some("healthy"));

        let (head, body) = get(addr, "/runs");
        assert!(head.starts_with("HTTP/1.1 200"));
        assert!(serde_json::from_str(&body).is_ok());

        let (head, body) = get(addr, "/flight");
        assert!(head.starts_with("HTTP/1.1 200"));
        let v = serde_json::from_str(&body).expect("valid JSON");
        assert_eq!(
            v.get("schema").and_then(|x| x.as_str()),
            Some("hf-flight-recorder-v1")
        );

        let (head, body) = get(addr, "/tenants");
        assert!(head.starts_with("HTTP/1.1 200"));
        let v = serde_json::from_str(&body).expect("valid JSON");
        assert_eq!(
            v.get("schema").and_then(|x| x.as_str()),
            Some("hf-tenants-v1")
        );
        assert!(v.get("fleet").is_none(), "no tenant source wired yet");
        hub.set_tenant_source(|| "{\"policy\":\"weighted_fair\"}".to_string());
        let (_, body) = get(addr, "/tenants");
        let v = serde_json::from_str(&body).expect("valid JSON");
        assert_eq!(
            v.get("fleet")
                .and_then(|f| f.get("policy"))
                .and_then(|p| p.as_str()),
            Some("weighted_fair")
        );

        let (head, body) = get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"));
        assert!(body.contains("/tenants"), "{body}");
        drop(server); // clean shutdown joins the accept thread
    }

    /// A client that keeps every read inside the old per-read timeout but
    /// never finishes its request head is dropped at the head deadline,
    /// and the client queued behind it on the accept thread is served.
    #[test]
    fn trickling_client_is_dropped_at_the_head_deadline() {
        let hub = HealthHub::new(FlightRecorder::shared());
        let server = HealthServer::bind("127.0.0.1:0", hub).expect("bind");
        let addr = server.addr();
        let (connected, first) = std::sync::mpsc::channel();
        let trickler = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).expect("connect");
            let started = Instant::now();
            connected.send(started).expect("test waits");
            let head = b"GET /metrics HTTP/1.1\r\nHost: slow\r\nX-Pad: ";
            for b in head.iter().chain(std::iter::repeat(&b'x')) {
                // Fails once the server has closed its end.
                if s.write_all(&[*b]).is_err() || started.elapsed() > 5 * HEAD_DEADLINE {
                    break;
                }
                std::thread::sleep(Duration::from_millis(100));
            }
        });
        let started = first.recv().expect("trickler connected");
        let (head, _) = get(addr, "/health");
        let waited = started.elapsed();
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(
            waited < HEAD_DEADLINE + Duration::from_secs(2),
            "the second client waited {waited:?} behind a trickling one"
        );
        trickler.join().expect("trickler");
    }
}

//! ops: a std-only live scrape endpoint for running clusters.
//!
//! `deployd --metrics-addr HOST:PORT` binds a tiny single-threaded HTTP
//! listener next to the cluster. It serves exactly three paths:
//!
//! * `GET /metrics` — the live registry in Prometheus text exposition
//!   format, followed by the windowed time-series (timestamped samples, one
//!   line per closed window). Scrape it mid-run; nothing is buffered until
//!   shutdown.
//! * `GET /healthz` — derived health: commit staleness (how long since the
//!   substrates' commit counters last moved), admission-queue depth vs its
//!   bound, the committed/admitted ratio, the online auditor's verdict
//!   (`audit.ok`), and the last digest-divergence check. `200` when
//!   healthy, `503` when degraded, body explains which check failed either
//!   way.
//! * `GET /audit` — the online consensus auditor's latest report as JSON:
//!   per-oracle checked/violation counts and the human-readable role-change
//!   provenance verdicts. Before the monitor's first beat it serves an
//!   empty (clean, zero-polls) report.
//!
//! No HTTP library: the request grammar accepted is the one `curl` and
//! Prometheus actually emit (`GET <path> HTTP/1.x`, headers ignored), and
//! every response closes the connection. The listener thread wakes via a
//! self-connect on shutdown, so no poll/timeout machinery is needed.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use telemetry::{Registry, Telemetry};

/// Shared slot the cluster's monitor beat publishes its latest audit-report
/// JSON into; `GET /audit` serves it. Clone freely — clones share the slot.
#[derive(Clone, Default)]
pub struct AuditFeed {
    latest: Arc<Mutex<Option<String>>>,
}

impl AuditFeed {
    /// Replace the served report.
    pub fn publish(&self, report_json: String) {
        *self.latest.lock().unwrap() = Some(report_json);
    }

    /// The most recently published report, if any.
    pub fn latest(&self) -> Option<String> {
        self.latest.lock().unwrap().clone()
    }
}

/// Commit counters stale longer than this mark the cluster unhealthy.
const STALL_BOUND_MS: f64 = 5_000.0;
/// Queue occupancy above this fraction of the bound marks back-pressure.
const QUEUE_FULL_FRACTION: f64 = 0.95;
/// Committed/admitted below this ratio marks the run as shedding load…
const MIN_COMMIT_RATIO: f64 = 0.5;
/// …but only once this many commands were admitted (startup grace).
const RATIO_GRACE_ADMITTED: u64 = 100;

/// Handle to the background listener; shut down via [`OpsServer::shutdown`].
pub struct OpsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl OpsServer {
    /// The bound address (useful when the port was `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, wake the listener thread, and join it.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for OpsServer {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.stop.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(self.addr);
            let _ = handle.join();
        }
    }
}

/// Bind `addr` and serve `/metrics`, `/healthz` and `/audit` from the given
/// telemetry handle until [`OpsServer::shutdown`]. `audit` is the slot the
/// monitor beat publishes audit reports into.
pub fn serve(addr: &str, telemetry: Telemetry, audit: AuditFeed) -> std::io::Result<OpsServer> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = stop.clone();
    let handle = std::thread::Builder::new()
        .name("deployd-ops".into())
        .spawn(move || {
            for conn in listener.incoming() {
                if stop_flag.load(Ordering::SeqCst) {
                    break;
                }
                if let Ok(mut stream) = conn {
                    let _ = serve_one(&mut stream, &telemetry, &audit);
                }
            }
        })?;
    Ok(OpsServer {
        addr: local,
        stop,
        handle: Some(handle),
    })
}

/// Read one request head, answer it, close.
fn serve_one(
    stream: &mut TcpStream,
    telemetry: &Telemetry,
    audit: &AuditFeed,
) -> std::io::Result<()> {
    let path = read_request_path(stream)?;
    let mut content_type = "text/plain; version=0.0.4; charset=utf-8";
    let (status, body) = match path.as_str() {
        "/metrics" => (200, metrics_body(telemetry)),
        "/healthz" => {
            let (healthy, report) = health_report(&telemetry.registry_snapshot());
            (if healthy { 200 } else { 503 }, report)
        }
        "/audit" => {
            content_type = "application/json";
            // Before the first beat: an empty report, honestly zero-polled.
            let body = audit
                .latest()
                .unwrap_or_else(|| ::audit::AuditReport::default().to_json());
            (200, body)
        }
        _ => (
            404,
            "not found; try /metrics, /healthz or /audit\n".to_string(),
        ),
    };
    let reason = match status {
        200 => "OK",
        503 => "Service Unavailable",
        _ => "Not Found",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\n\
         Content-Type: {content_type}\r\n\
         Content-Length: {}\r\n\
         Connection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Parse the request line's path; headers are read past and discarded.
fn read_request_path(stream: &mut TcpStream) -> std::io::Result<String> {
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        buf.extend_from_slice(&chunk[..n]);
        if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() > 8 * 1024 {
            break;
        }
    }
    let head = String::from_utf8_lossy(&buf);
    let request_line = head.lines().next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    match (parts.next(), parts.next()) {
        (Some("GET"), Some(path)) => Ok(path.to_string()),
        _ => Ok(String::new()),
    }
}

/// The `/metrics` payload: live registry, then the closed time-series
/// windows (timestamped lines), both in Prometheus text format.
fn metrics_body(telemetry: &Telemetry) -> String {
    let mut body = telemetry.prometheus_text();
    if let Some(ts) = telemetry.timeseries_snapshot() {
        body.push_str(&ts.prometheus_text());
    }
    if body.is_empty() {
        body.push_str("# telemetry disabled\n");
    }
    body
}

/// Derive `(healthy, report)` from a registry snapshot.
///
/// The inputs are the live gauges `wait_out`'s monitor beat maintains
/// (`deployd.health.commit_stale_ms`, `deployd.queue.depth`/`.capacity`,
/// the auditor's published `audit.ok`, the run's last
/// `deployd.health.digests_agree` divergence check) plus the traffic
/// counters the queue keeps; absent gauges read as healthy so the endpoint
/// is truthful during startup and for rate-less runs.
pub fn health_report(reg: &Registry) -> (bool, String) {
    let stale_ms = reg
        .gauge("deployd.health.commit_stale_ms", None)
        .unwrap_or(0.0);
    let depth = reg.gauge("deployd.queue.depth", None).unwrap_or(0.0);
    let capacity = reg.gauge("deployd.queue.capacity", None).unwrap_or(0.0);
    let admitted = reg.counter("traffic.queue.admitted", None);
    let committed = reg
        .histogram("traffic.client.e2e_us", None)
        .map(|h| h.count())
        .unwrap_or(0);
    let audit_ok = reg.gauge("audit.ok", None);
    let digests = reg.gauge("deployd.health.digests_agree", None);

    let commits_fresh = stale_ms < STALL_BOUND_MS;
    let queue_ok = capacity <= 0.0 || depth < QUEUE_FULL_FRACTION * capacity;
    let ratio = if admitted == 0 {
        1.0
    } else {
        committed as f64 / admitted as f64
    };
    let ratio_ok = admitted < RATIO_GRACE_ADMITTED || ratio >= MIN_COMMIT_RATIO;
    // An oracle violation is a safety failure, not a performance wobble:
    // any published verdict other than 1 marks the cluster unhealthy.
    let oracles_ok = audit_ok.is_none_or(|v| v >= 1.0);
    let digests_ok = digests.is_none_or(|v| v >= 1.0);

    let healthy = commits_fresh && queue_ok && ratio_ok && oracles_ok && digests_ok;
    let mark = |ok: bool| if ok { "ok" } else { "FAIL" };
    let gauge_word = |g: Option<f64>| match g {
        None => "unchecked",
        Some(v) if v >= 1.0 => "1",
        Some(_) => "0",
    };
    let report = format!(
        "status {}\n\
         commit_stale_ms {stale_ms:.0} {}\n\
         queue_depth {depth:.0}/{capacity:.0} {}\n\
         committed_ratio {ratio:.3} ({committed}/{admitted}) {}\n\
         audit_ok {} {}\n\
         digests_agree {} {}\n",
        if healthy { "ok" } else { "degraded" },
        mark(commits_fresh),
        mark(queue_ok),
        mark(ratio_ok),
        gauge_word(audit_ok),
        mark(oracles_ok),
        gauge_word(digests),
        mark(digests_ok),
    );
    (healthy, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::HOTSTUFF_COMMITS;

    fn get(addr: SocketAddr, path: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let req = format!("GET {path} HTTP/1.1\r\nHost: x\r\nAccept: */*\r\n\r\n");
        stream.write_all(req.as_bytes()).expect("write");
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("read");
        let status: u16 = raw
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("status code");
        let body = raw
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, body)
    }

    #[test]
    fn metrics_endpoint_serves_registry_and_timeseries() {
        let telemetry = Telemetry::recording();
        telemetry.install_timeseries(1_000_000);
        telemetry.counter_add(HOTSTUFF_COMMITS.commits, Some(0), 42);
        telemetry.tick_timeseries(1_500_000);
        let server = serve("127.0.0.1:0", telemetry.clone(), AuditFeed::default()).expect("bind");
        let (status, body) = get(server.local_addr(), "/metrics");
        assert_eq!(status, 200);
        assert!(
            body.contains("hotstuff_node_commits_total{replica=\"0\"} 42"),
            "live counter missing:\n{body}"
        );
        assert!(
            body.contains("ts_hotstuff_node_commits_delta"),
            "time-series lines missing:\n{body}"
        );

        // Scrapes see live updates, not a launch-time snapshot.
        telemetry.counter_add(HOTSTUFF_COMMITS.commits, Some(0), 8);
        let (_, body) = get(server.local_addr(), "/metrics");
        assert!(body.contains("hotstuff_node_commits_total{replica=\"0\"} 50"));

        let (status, _) = get(server.local_addr(), "/nope");
        assert_eq!(status, 404);
        server.shutdown();
    }

    #[test]
    fn healthz_reflects_derived_health() {
        let telemetry = Telemetry::recording();
        let server = serve("127.0.0.1:0", telemetry.clone(), AuditFeed::default()).expect("bind");

        // Startup: no gauges yet — healthy by grace.
        let (status, body) = get(server.local_addr(), "/healthz");
        assert_eq!(status, 200, "startup must be healthy:\n{body}");
        assert!(body.starts_with("status ok"));
        assert!(body.contains("audit_ok unchecked ok"), "{body}");

        // Stalled commits flip it to 503.
        telemetry.gauge_set("deployd.health.commit_stale_ms", None, 60_000.0);
        let (status, body) = get(server.local_addr(), "/healthz");
        assert_eq!(status, 503);
        assert!(body.contains("commit_stale_ms 60000 FAIL"), "{body}");
        server.shutdown();
    }

    #[test]
    fn healthz_degrades_on_oracle_violation_and_divergence() {
        let telemetry = Telemetry::recording();
        let server = serve("127.0.0.1:0", telemetry.clone(), AuditFeed::default()).expect("bind");

        telemetry.gauge_set("audit.ok", None, 0.0);
        let (status, body) = get(server.local_addr(), "/healthz");
        assert_eq!(status, 503, "oracle violation must 503:\n{body}");
        assert!(body.contains("audit_ok 0 FAIL"), "{body}");

        telemetry.gauge_set("audit.ok", None, 1.0);
        let (status, body) = get(server.local_addr(), "/healthz");
        assert_eq!(status, 200, "clean verdict restores health:\n{body}");

        telemetry.gauge_set("deployd.health.digests_agree", None, 0.0);
        let (status, body) = get(server.local_addr(), "/healthz");
        assert_eq!(status, 503, "digest divergence must 503:\n{body}");
        assert!(body.contains("digests_agree 0 FAIL"), "{body}");
        server.shutdown();
    }

    #[test]
    fn audit_endpoint_serves_latest_report() {
        let telemetry = Telemetry::recording();
        let feed = AuditFeed::default();
        let server = serve("127.0.0.1:0", telemetry, feed.clone()).expect("bind");

        // Before any poll: an empty default report, still valid JSON.
        let (status, body) = get(server.local_addr(), "/audit");
        assert_eq!(status, 200);
        assert!(body.contains("\"ok\":true"), "{body}");
        assert!(body.contains("\"polls\":0"), "{body}");

        let report = ::audit::AuditReport::default();
        feed.publish(report.to_json());
        let (status, body) = get(server.local_addr(), "/audit");
        assert_eq!(status, 200);
        assert_eq!(body.trim_end(), report.to_json().trim_end());
        server.shutdown();
    }

    #[test]
    fn health_report_checks_queue_and_ratio() {
        let mut reg = Registry::default();
        reg.gauge_set("deployd.queue.depth", None, 99.0);
        reg.gauge_set("deployd.queue.capacity", None, 100.0);
        let (healthy, report) = health_report(&reg);
        assert!(!healthy, "a nearly-full queue is back-pressure:\n{report}");

        let mut reg = Registry::default();
        reg.counter_add("traffic.queue.admitted", None, 1_000);
        for _ in 0..100 {
            reg.observe("traffic.client.e2e_us", None, 50_000);
        }
        let (healthy, report) = health_report(&reg);
        assert!(
            !healthy,
            "committing 10% of admitted is shedding:\n{report}"
        );
        assert!(report.contains("committed_ratio 0.100"));

        let mut reg = Registry::default();
        reg.counter_add("traffic.queue.admitted", None, 1_000);
        for _ in 0..990 {
            reg.observe("traffic.client.e2e_us", None, 50_000);
        }
        let (healthy, _) = health_report(&reg);
        assert!(healthy);
    }
}

//! Reactor observability: every `pcor_net_*` series, registered into the
//! *server's* registry so one `/metrics` scrape (or `snapshot_json`)
//! covers the wire front and the serving stack together.

use pcor_telemetry::{Counter, Gauge, Histogram, MetricsRegistry};
use std::sync::Arc;

/// Pre-resolved handles for the reactor's hot paths (registration is
/// locked; incrementing is not).
#[derive(Debug, Clone)]
pub(crate) struct NetMetrics {
    /// Currently open connections (both listeners).
    pub open: Arc<Gauge>,
    /// Connections accepted on the envelope listener.
    pub accepted_rpc: Arc<Counter>,
    /// Connections accepted on the HTTP listener.
    pub accepted_http: Arc<Counter>,
    /// Raw bytes read off sockets.
    pub bytes_read: Arc<Counter>,
    /// Raw bytes written to sockets.
    pub bytes_written: Arc<Counter>,
    /// Complete request frames parsed.
    pub frames_read: Arc<Counter>,
    /// Streamed per-item replies written.
    pub replies_item: Arc<Counter>,
    /// Terminal success replies written.
    pub replies_response: Arc<Counter>,
    /// Terminal error replies written.
    pub replies_error: Arc<Counter>,
    /// Back-pressure refusals (`queue-full` / `overloaded`) sent.
    pub shed: Arc<Counter>,
    /// Connections reaped for idleness.
    pub reaped_idle: Arc<Counter>,
    /// Connections reaped for a stalled write buffer (slow-loris reader).
    pub reaped_stalled: Arc<Counter>,
    /// Connections closed by peer EOF or reset.
    pub closed_peer: Arc<Counter>,
    /// Connections closed on I/O or framing/protocol violations.
    pub closed_error: Arc<Counter>,
    /// HTTP requests served (any path).
    pub http_requests: Arc<Counter>,
    /// Busy time of each reactor loop iteration, from `epoll_wait`
    /// returning to the next call: a stall of every connection shows as
    /// this histogram's maximum.
    pub loop_busy: Arc<Histogram>,
}

impl NetMetrics {
    pub(crate) fn register(registry: &MetricsRegistry) -> Self {
        registry.set_help("pcor_net_connections_open", "Currently open reactor connections.");
        registry.set_help(
            "pcor_net_connections_total",
            "Connections accepted, labelled by listener protocol.",
        );
        registry.set_help("pcor_net_bytes_total", "Raw socket bytes, labelled by direction.");
        registry.set_help("pcor_net_frames_read_total", "Complete request frames parsed.");
        registry
            .set_help("pcor_net_replies_total", "Framed replies written, labelled by reply kind.");
        registry.set_help(
            "pcor_net_shed_total",
            "Requests refused with a back-pressure error carrying retry_after.",
        );
        registry.set_help(
            "pcor_net_connections_closed_total",
            "Connections closed, labelled by cause.",
        );
        registry.set_help("pcor_net_http_requests_total", "HTTP requests served.");
        registry.set_help(
            "pcor_net_loop_busy_nanos",
            "Busy time of each reactor loop iteration, from epoll_wait returning to the next call.",
        );
        NetMetrics {
            open: registry.gauge("pcor_net_connections_open", &[]),
            accepted_rpc: registry.counter("pcor_net_connections_total", &[("proto", "rpc")]),
            accepted_http: registry.counter("pcor_net_connections_total", &[("proto", "http")]),
            bytes_read: registry.counter("pcor_net_bytes_total", &[("direction", "read")]),
            bytes_written: registry.counter("pcor_net_bytes_total", &[("direction", "written")]),
            frames_read: registry.counter("pcor_net_frames_read_total", &[]),
            replies_item: registry.counter("pcor_net_replies_total", &[("kind", "item")]),
            replies_response: registry.counter("pcor_net_replies_total", &[("kind", "response")]),
            replies_error: registry.counter("pcor_net_replies_total", &[("kind", "error")]),
            shed: registry.counter("pcor_net_shed_total", &[]),
            reaped_idle: registry
                .counter("pcor_net_connections_closed_total", &[("cause", "idle")]),
            reaped_stalled: registry
                .counter("pcor_net_connections_closed_total", &[("cause", "stalled")]),
            closed_peer: registry
                .counter("pcor_net_connections_closed_total", &[("cause", "peer")]),
            closed_error: registry
                .counter("pcor_net_connections_closed_total", &[("cause", "error")]),
            http_requests: registry.counter("pcor_net_http_requests_total", &[]),
            loop_busy: registry.histogram("pcor_net_loop_busy_nanos", &[]),
        }
    }
}

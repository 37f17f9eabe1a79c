//! `pcor-net` — a hand-rolled non-blocking reactor that puts the PCOR
//! server on the wire.
//!
//! The serving stack below this crate is synchronous: [`pcor_service::Server`]
//! admits envelopes into a bounded worker pool and hands back one
//! completion handle per envelope ([`pcor_service::PendingResponse`]).
//! What a deployment additionally needs is a front that owns *thousands of
//! mostly-idle analyst TCP connections* without spending a thread on each —
//! and the workspace builds offline, so `tokio`/`mio` are not available.
//! This crate is that front, built directly on `epoll` (see [`sys`]):
//!
//! - One reactor thread multiplexes every connection with level-triggered
//!   readiness, parsing length-prefixed [`RequestEnvelope`] frames (v1 and
//!   v2 both accepted) and submitting them through the server's
//!   non-blocking admission ([`Server::try_submit_envelope`]).
//! - Batch results stream back per item the moment each release resolves;
//!   replies to one connection stay FIFO with its requests so pipelining
//!   clients correlate by order.
//! - Completions wake the reactor: each connection registers a
//!   [`std::task::Waker`] on the handles it admits
//!   ([`PendingResponse::set_waker`]), whose ring queues the connection on
//!   a ready list and writes one byte to a non-blocking socket pair that
//!   epoll watches. Nothing polls; the epoll timeout comes only from the
//!   deadline wheel.
//! - Back-pressure is end-to-end: admission refusals (`QueueFull`,
//!   `Overloaded`) become framed error replies carrying `retry_after`, a
//!   connection whose write buffer fills stops being polled for reads, and
//!   idle or stalled connections are reaped by a deadline wheel.
//! - The same reactor hosts a second listener speaking just enough
//!   HTTP/1.1 to serve `GET /healthz` from [`Server::health`] and
//!   `GET /metrics` from the Prometheus-text exporter, so probes and
//!   scrapers need no custom client.
//!
//! Reactor observability lands in the server's own registry under
//! `pcor_net_*` (including `pcor_net_loop_busy_nanos`, a histogram of each
//! loop iteration's busy time); socket-level fault injection (short reads, mid-frame
//! resets, injected I/O errors) threads through [`pcor_faults`] seams at
//! `net.accept` / `net.read` / `net.write`.
//!
//! [`RequestEnvelope`]: pcor_service::RequestEnvelope
//! [`PendingResponse::set_waker`]: pcor_service::PendingResponse::set_waker
//! [`Server::try_submit_envelope`]: pcor_service::Server::try_submit_envelope
//! [`Server::health`]: pcor_service::Server::health

use pcor_faults::Faults;
use std::time::Duration;

mod client;
mod conn;
mod http;
mod metrics;
mod reactor;
pub mod sys;
mod wheel;

pub use client::{http_get, NetClient};
pub use reactor::NetFront;

/// Tuning knobs for a [`NetFront`]. `Default` suits tests and small
/// deployments: loopback listeners on ephemeral ports, a 1 MiB frame cap
/// and generous-but-bounded buffers.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Bind address of the envelope (RPC) listener.
    pub rpc_addr: String,
    /// Bind address of the HTTP health/metrics listener; `None` disables
    /// it.
    pub http_addr: Option<String>,
    /// Per-frame payload cap enforced by the decoder; a connection
    /// announcing more is closed (resynchronizing is impossible).
    pub max_frame_len: usize,
    /// Per-connection cap on buffered-but-unsent reply bytes. A connection
    /// over the cap stops being polled for reads until the peer drains it.
    pub write_buf_limit: usize,
    /// Per-connection cap on submitted-but-unanswered envelopes; reads
    /// pause at the cap (the global admission queue stays protected by the
    /// server's own capacity either way).
    pub max_inflight_per_conn: usize,
    /// A connection with no inflight work and no socket activity for this
    /// long is reaped.
    pub idle_timeout: Duration,
    /// A connection with pending reply bytes and no write progress for
    /// this long (a slow-loris reader) is reaped.
    pub stall_timeout: Duration,
    /// Socket-level fault plan (see [`pcor_faults::site::NET_READ`] and
    /// friends); defaults to none.
    pub faults: Faults,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            rpc_addr: "127.0.0.1:0".to_string(),
            http_addr: Some("127.0.0.1:0".to_string()),
            max_frame_len: pcor_service::MAX_FRAME_LEN,
            write_buf_limit: 256 * 1024,
            max_inflight_per_conn: 32,
            idle_timeout: Duration::from_secs(30),
            stall_timeout: Duration::from_secs(10),
            faults: Faults::disabled(),
        }
    }
}

impl NetConfig {
    /// Sets the RPC listener bind address.
    #[must_use]
    pub fn with_rpc_addr(mut self, addr: impl Into<String>) -> Self {
        self.rpc_addr = addr.into();
        self
    }

    /// Sets (or disables) the HTTP listener bind address.
    #[must_use]
    pub fn with_http_addr(mut self, addr: Option<String>) -> Self {
        self.http_addr = addr;
        self
    }

    /// Sets the per-connection write-buffer cap.
    #[must_use]
    pub fn with_write_buf_limit(mut self, limit: usize) -> Self {
        self.write_buf_limit = limit;
        self
    }

    /// Sets the per-connection inflight-envelope cap.
    #[must_use]
    pub fn with_max_inflight(mut self, max: usize) -> Self {
        self.max_inflight_per_conn = max.max(1);
        self
    }

    /// Sets the idle reap timeout.
    #[must_use]
    pub fn with_idle_timeout(mut self, timeout: Duration) -> Self {
        self.idle_timeout = timeout;
        self
    }

    /// Sets the write-stall reap timeout.
    #[must_use]
    pub fn with_stall_timeout(mut self, timeout: Duration) -> Self {
        self.stall_timeout = timeout;
        self
    }

    /// Installs a socket-level fault plan.
    #[must_use]
    pub fn with_faults(mut self, faults: Faults) -> Self {
        self.faults = faults;
        self
    }
}

//! Per-connection state machine: framing in, FIFO replies out, bounded
//! buffers in both directions.
//!
//! A connection owns its [`FrameDecoder`], a queue of submitted-but-
//! unanswered requests, and a write buffer of encoded replies. The
//! reactor calls three entry points — [`Conn::on_readable`],
//! [`Conn::pump_replies`], [`Conn::flush`] — and otherwise only inspects
//! pause/interest/deadline accessors. Everything here is synchronous and
//! non-blocking; any condition that poisons the byte stream returns a
//! [`CloseReason`] and the reactor drops the connection, which drops its
//! queued [`PendingResponse`] handles — the server side observes the
//! dropped handle, stops the batch at the next item boundary and refunds
//! every unprocessed ε slice.

use crate::metrics::NetMetrics;
use crate::NetConfig;
use pcor_faults::{site, Faults, SocketFault};
use pcor_service::{
    decode_request, encode_reply, FrameDecoder, PendingResponse, Server, WireError, WireReply,
};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::task::Waker;
use std::time::Instant;

/// Which listener a connection arrived on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Proto {
    /// Length-prefixed envelope frames.
    Rpc,
    /// Minimal HTTP/1.1 (health + metrics).
    Http,
}

/// Why a connection is being closed (drives the close-cause metric).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CloseReason {
    /// Peer closed or reset the socket.
    Peer,
    /// A socket I/O error (injected ones included).
    Io,
    /// The byte stream itself is poisoned (framing violation, oversized
    /// HTTP head) — no reply can be correlated, so close without one.
    Protocol,
    /// Graceful completion: everything owed was flushed (HTTP responses
    /// are `Connection: close`).
    Done,
    /// Reaped by the deadline wheel with no activity and no owed work.
    Idle,
    /// Reaped by the deadline wheel with reply bytes the peer refused to
    /// drain.
    Stalled,
}

impl CloseReason {
    pub(crate) fn record(self, metrics: &NetMetrics) {
        match self {
            CloseReason::Peer => metrics.closed_peer.inc(),
            CloseReason::Io | CloseReason::Protocol => metrics.closed_error.inc(),
            CloseReason::Idle => metrics.reaped_idle.inc(),
            CloseReason::Stalled => metrics.reaped_stalled.inc(),
            CloseReason::Done => {}
        }
    }
}

/// One admitted (or refused) request awaiting its wire replies, in FIFO
/// order with its connection's other requests.
#[derive(Debug)]
enum PendingReply {
    /// Admitted: a batch's items drain as they finish, then the terminal
    /// reply (a single has only the reply). Boxed: the handle holds a
    /// whole response inline.
    Admitted(Box<PendingResponse>),
    /// Refused at admission (or malformed): the error reply is owed but
    /// nothing is in flight.
    Refused { error: WireError },
}

/// Read chunk size; also the upper bound a `short:` read fault truncates.
const READ_CHUNK: usize = 16 * 1024;
/// Cap on a buffered HTTP request head.
const MAX_HTTP_HEAD: usize = 8 * 1024;

#[derive(Debug)]
pub(crate) struct Conn {
    pub(crate) stream: TcpStream,
    pub(crate) proto: Proto,
    /// Registered on every admitted handle; rings the reactor when a
    /// completion is ready to pump.
    waker: Waker,
    decoder: FrameDecoder,
    http_buf: Vec<u8>,
    write_buf: Vec<u8>,
    /// Bytes of `write_buf` already written to the socket.
    written: usize,
    queue: VecDeque<PendingReply>,
    /// Epoll interest currently registered for this connection.
    pub(crate) interest: u32,
    /// Last byte of socket progress in either direction.
    pub(crate) last_activity: Instant,
    /// Last time `flush` moved bytes (stall detection).
    last_write_progress: Instant,
    /// Flush what is buffered, then close (set for HTTP replies).
    closing: bool,
}

impl Conn {
    pub(crate) fn new(
        stream: TcpStream,
        proto: Proto,
        waker: Waker,
        config: &NetConfig,
        now: Instant,
    ) -> Self {
        Conn {
            stream,
            proto,
            waker,
            decoder: FrameDecoder::with_max_frame(config.max_frame_len),
            http_buf: Vec::new(),
            write_buf: Vec::new(),
            written: 0,
            queue: VecDeque::new(),
            interest: 0,
            last_activity: now,
            last_write_progress: now,
            closing: false,
        }
    }

    /// Reply bytes buffered but not yet on the socket.
    pub(crate) fn pending_write(&self) -> usize {
        self.write_buf.len() - self.written
    }

    /// Whether reads are paused: the peer is not draining replies, or it
    /// has more envelopes in flight than its fair share. Level-triggered
    /// epoll makes this cheap — dropping `EPOLLIN` from the interest set
    /// is the whole mechanism, kernel socket buffers do the rest.
    pub(crate) fn read_paused(&self, config: &NetConfig) -> bool {
        self.pending_write() >= config.write_buf_limit
            || self.queue.len() >= config.max_inflight_per_conn
    }

    /// Whether this connection owes the peer anything at all.
    fn owes_replies(&self) -> bool {
        !self.queue.is_empty() || self.pending_write() > 0
    }

    /// The epoll interest this connection should be registered with.
    pub(crate) fn desired_interest(&self, config: &NetConfig) -> u32 {
        let mut interest = crate::sys::EPOLLRDHUP;
        if !self.closing && !self.read_paused(config) {
            interest |= crate::sys::EPOLLIN;
        }
        if self.pending_write() > 0 {
            interest |= crate::sys::EPOLLOUT;
        }
        interest
    }

    /// When the deadline wheel should next revalidate this connection:
    /// the stall deadline while replies are owed on the wire, the idle
    /// deadline while nothing is owed at all, and a plain re-check
    /// interval while requests compute (neither idle nor stalled applies
    /// to a peer legitimately waiting on the server).
    pub(crate) fn next_deadline(&self, config: &NetConfig, now: Instant) -> Instant {
        if self.pending_write() > 0 {
            self.last_write_progress + config.stall_timeout
        } else if self.owes_replies() {
            now + config.idle_timeout
        } else {
            self.last_activity + config.idle_timeout
        }
    }

    /// Whether the wheel should reap this connection right now.
    pub(crate) fn reap_verdict(&self, config: &NetConfig, now: Instant) -> Option<CloseReason> {
        if self.pending_write() > 0
            && now.saturating_duration_since(self.last_write_progress) >= config.stall_timeout
        {
            return Some(CloseReason::Stalled);
        }
        if !self.owes_replies()
            && now.saturating_duration_since(self.last_activity) >= config.idle_timeout
        {
            return Some(CloseReason::Idle);
        }
        None
    }

    /// Drains the socket's readable bytes: frames are parsed and submitted
    /// (RPC) or buffered until a full request head arrives (HTTP).
    /// Returns `Err` when the connection must close.
    pub(crate) fn on_readable(
        &mut self,
        server: &Server,
        faults: &Faults,
        metrics: &NetMetrics,
        config: &NetConfig,
        now: Instant,
    ) -> Result<(), CloseReason> {
        let mut buf = [0u8; READ_CHUNK];
        loop {
            if self.closing || self.read_paused(config) {
                return Ok(());
            }
            let cap = match faults.socket(site::NET_READ) {
                Some(SocketFault::Error) => return Err(CloseReason::Io),
                Some(SocketFault::Reset) => return Err(CloseReason::Peer),
                Some(SocketFault::Short(cap)) => cap.clamp(1, READ_CHUNK),
                None => READ_CHUNK,
            };
            match self.stream.read(&mut buf[..cap]) {
                Ok(0) => return Err(CloseReason::Peer),
                Ok(n) => {
                    self.last_activity = now;
                    metrics.bytes_read.add(n as u64);
                    match self.proto {
                        Proto::Rpc => self.ingest_rpc(&buf[..n], server, metrics)?,
                        Proto::Http => self.ingest_http(&buf[..n], server, metrics)?,
                    }
                }
                Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
                Err(err) if err.kind() == std::io::ErrorKind::Interrupted => {}
                Err(err) if err.kind() == std::io::ErrorKind::ConnectionReset => {
                    return Err(CloseReason::Peer)
                }
                Err(_) => return Err(CloseReason::Io),
            }
        }
    }

    /// Feeds raw bytes through the frame decoder and submits every
    /// complete envelope. Admission refusals become queued error replies
    /// (FIFO with real answers); framing violations close the connection.
    fn ingest_rpc(
        &mut self,
        bytes: &[u8],
        server: &Server,
        metrics: &NetMetrics,
    ) -> Result<(), CloseReason> {
        self.decoder.extend(bytes);
        loop {
            let payload = match self.decoder.next_frame() {
                Ok(Some(payload)) => payload,
                Ok(None) => return Ok(()),
                Err(_) => return Err(CloseReason::Protocol),
            };
            metrics.frames_read.inc();
            let entry = match decode_request(&payload) {
                Ok(envelope) => match server.try_submit_envelope(envelope) {
                    Ok(pending) => {
                        pending.set_waker(&self.waker);
                        PendingReply::Admitted(Box::new(pending))
                    }
                    Err(err) => {
                        let error = WireError::from_service(&err);
                        if error.is_backpressure() {
                            metrics.shed.inc();
                        }
                        PendingReply::Refused { error }
                    }
                },
                Err(err) => PendingReply::Refused { error: WireError::from_service(&err) },
            };
            self.queue.push_back(entry);
        }
    }

    /// Buffers HTTP bytes until one full request head arrives, then
    /// queues the response and flags the connection for close-after-flush.
    fn ingest_http(
        &mut self,
        bytes: &[u8],
        server: &Server,
        metrics: &NetMetrics,
    ) -> Result<(), CloseReason> {
        self.http_buf.extend_from_slice(bytes);
        if self.http_buf.len() > MAX_HTTP_HEAD {
            return Err(CloseReason::Protocol);
        }
        if let Some(response) = crate::http::respond(&self.http_buf, server) {
            metrics.http_requests.inc();
            self.write_buf.extend_from_slice(&response);
            self.closing = true;
        }
        Ok(())
    }

    /// Moves finished results from the request queue into the write
    /// buffer, strictly FIFO: the head request must produce its terminal
    /// reply before the next request's replies may start. Stops once the
    /// buffered bytes reach `write_buf_limit` so the per-connection
    /// memory cap bounds replies too, not just reads; returns `true` in
    /// that case so the caller re-pumps after `flush` makes progress.
    pub(crate) fn pump_replies(&mut self, metrics: &NetMetrics, config: &NetConfig) -> bool {
        while let Some(head) = self.queue.front_mut() {
            if self.write_buf.len() - self.written >= config.write_buf_limit {
                return true;
            }
            match head {
                PendingReply::Refused { error } => {
                    let reply = WireReply::Error(error.clone());
                    metrics.replies_error.inc();
                    self.write_buf.extend_from_slice(&encode_reply(&reply));
                    self.queue.pop_front();
                }
                PendingReply::Admitted(pending) => {
                    // Items first, in order, then the terminal reply.
                    loop {
                        if self.write_buf.len() - self.written >= config.write_buf_limit {
                            // Buffer full mid-stream: resume once flush drains.
                            return true;
                        }
                        let item = match pending.try_next_item() {
                            Some(item) => item,
                            None if pending.is_finished() => break,
                            // The poll may have caught an item just sent;
                            // otherwise the head is still computing and
                            // FIFO blocks later replies.
                            None => match pending.try_next_item() {
                                Some(item) => item,
                                None => return false,
                            },
                        };
                        metrics.replies_item.inc();
                        self.write_buf.extend_from_slice(&encode_reply(&WireReply::Item(item)));
                    }
                    let Some(PendingReply::Admitted(pending)) = self.queue.pop_front() else {
                        unreachable!("the head entry was just matched");
                    };
                    let reply = match (*pending).wait() {
                        Ok(envelope) => {
                            metrics.replies_response.inc();
                            WireReply::Response(envelope)
                        }
                        Err(err) => {
                            metrics.replies_error.inc();
                            WireReply::Error(WireError::from_service(&err))
                        }
                    };
                    self.write_buf.extend_from_slice(&encode_reply(&reply));
                }
            }
        }
        false
    }

    /// Writes buffered reply bytes until the socket would block or the
    /// buffer drains. Returns `Err(Done)` when a close-after-flush
    /// connection has flushed everything.
    pub(crate) fn flush(
        &mut self,
        faults: &Faults,
        metrics: &NetMetrics,
        now: Instant,
    ) -> Result<(), CloseReason> {
        while self.written < self.write_buf.len() {
            let cap = match faults.socket(site::NET_WRITE) {
                Some(SocketFault::Error) => return Err(CloseReason::Io),
                Some(SocketFault::Reset) => return Err(CloseReason::Peer),
                Some(SocketFault::Short(cap)) => cap.max(1),
                None => usize::MAX,
            };
            let len = (self.write_buf.len() - self.written).min(cap);
            match self.stream.write(&self.write_buf[self.written..self.written + len]) {
                Ok(0) => return Err(CloseReason::Io),
                Ok(n) => {
                    self.written += n;
                    self.last_activity = now;
                    self.last_write_progress = now;
                    metrics.bytes_written.add(n as u64);
                }
                Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(err) if err.kind() == std::io::ErrorKind::Interrupted => {}
                Err(err) if err.kind() == std::io::ErrorKind::ConnectionReset => {
                    return Err(CloseReason::Peer)
                }
                Err(_) => return Err(CloseReason::Io),
            }
        }
        if self.written == self.write_buf.len() {
            self.write_buf.clear();
            self.written = 0;
            if self.closing {
                return Err(CloseReason::Done);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcor_telemetry::MetricsRegistry;
    use std::net::TcpListener;

    fn socket_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (server, client)
    }

    fn refused_entry() -> PendingReply {
        PendingReply::Refused {
            error: WireError {
                kind: "queue-full".to_string(),
                message: "test refusal".to_string(),
                retry_after_ms: Some(5),
            },
        }
    }

    /// Regression: re-entering `flush` with `written > 0` on the
    /// fault-free path (write cap `usize::MAX`) must not overflow when
    /// computing the write window.
    #[test]
    fn flush_resumes_after_partial_write_without_overflow() {
        let (server, _client) = socket_pair();
        server.set_nonblocking(true).unwrap();
        let config = NetConfig::default();
        let metrics = NetMetrics::register(&MetricsRegistry::new());
        let faults = Faults::disabled();
        let now = Instant::now();
        let mut conn = Conn::new(server, Proto::Rpc, Waker::noop().clone(), &config, now);
        // Far more than loopback send+receive buffers absorb: the first
        // flush stops on WouldBlock with bytes still buffered.
        conn.write_buf = vec![0xAB; 32 * 1024 * 1024];
        assert!(conn.flush(&faults, &metrics, now).is_ok());
        assert!(conn.written > 0, "kernel accepted nothing");
        assert!(conn.pending_write() > 0, "socket absorbed the whole buffer");
        // The second call re-enters mid-buffer; before the fix this
        // overflowed `written + cap` and panicked.
        assert!(conn.flush(&faults, &metrics, now).is_ok());
        assert!(conn.written <= conn.write_buf.len());
    }

    /// `pump_replies` stops buffering once `write_buf_limit` is reached
    /// (reporting `true` so the reactor re-pumps after flush progress)
    /// and drains the rest across pump/flush rounds.
    #[test]
    fn pump_replies_respects_write_buf_limit() {
        let (server, _client) = socket_pair();
        server.set_nonblocking(true).unwrap();
        let config = NetConfig::default().with_write_buf_limit(64);
        let metrics = NetMetrics::register(&MetricsRegistry::new());
        let faults = Faults::disabled();
        let now = Instant::now();
        let mut conn = Conn::new(server, Proto::Rpc, Waker::noop().clone(), &config, now);
        for _ in 0..64 {
            conn.queue.push_back(refused_entry());
        }
        assert!(conn.pump_replies(&metrics, &config), "pump must stop at the cap");
        assert!(!conn.queue.is_empty(), "cap should hold back most of the queue");
        // One reply may overshoot the cap, but never more than that.
        let one_reply = match refused_entry() {
            PendingReply::Refused { error } => encode_reply(&WireReply::Error(error)).len(),
            _ => unreachable!(),
        };
        assert!(conn.pending_write() < config.write_buf_limit + one_reply);
        // Alternating pump/flush (the reactor's service loop) drains all
        // 64 replies without ever exceeding the bound.
        loop {
            conn.flush(&faults, &metrics, now).unwrap();
            assert!(conn.pending_write() < config.write_buf_limit + one_reply);
            if !conn.pump_replies(&metrics, &config) {
                break;
            }
        }
        conn.flush(&faults, &metrics, now).unwrap();
        assert!(conn.queue.is_empty());
        assert_eq!(conn.pending_write(), 0);
        assert_eq!(metrics.replies_error.get(), 64);
    }
}

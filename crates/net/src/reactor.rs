//! The reactor: one thread, one `epoll` instance, every connection.
//!
//! [`NetFront::bind`] sets up the listeners and spawns the reactor
//! thread; the returned handle reports the bound addresses (ephemeral
//! ports resolve at bind time) and stops the reactor on
//! [`NetFront::shutdown`] or drop. The loop itself is the classic
//! readiness design:
//!
//! 1. `epoll_wait`, with a timeout that only the deadline wheel's next
//!    reap check sets. Completions need no polling: they wake the loop
//!    through the waker socket (below).
//! 2. Dispatch readiness: accept new connections, read/parse/submit on
//!    readable ones, flush on writable ones.
//! 3. Pump completions: every connection on the ready list moves finished
//!    results into its write buffer and flushes opportunistically.
//! 4. Reap: the wheel surfaces connections whose idle or stall deadline
//!    may have passed; live ones re-arm, dead ones close.
//!
//! Completions arrive over in-process channels that epoll cannot observe,
//! so each connection registers one [`Waker`] on every handle it admits
//! ([`pcor_service::PendingResponse::set_waker`]). A serving task rings it
//! after each streamed item and after its terminal reply. The ring pushes
//! the connection's slot id onto a shared ready list and, only when it
//! arms the flag the loop clears each iteration, writes one byte to the
//! non-blocking write end of the waker socket pair, which epoll does
//! observe. A pool worker therefore never blocks on the reactor, and a
//! burst of completions costs one wakeup.
//!
//! Closing a connection drops its queued completion handles, which the
//! serving stack observes as a departed consumer: streaming batches stop
//! at the next item boundary and every unprocessed ε slice is refunded.
//! That is the crash-safety story for mid-stream disconnects — the
//! reactor holds no budget state of its own to leak.

use crate::conn::{CloseReason, Conn, Proto};
use crate::metrics::NetMetrics;
use crate::sys::{Epoll, EpollEvent, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLRDHUP};
use crate::wheel::DeadlineWheel;
use crate::NetConfig;
use pcor_faults::{site, Faults};
use pcor_service::Server;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::task::{Wake, Waker};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const TOKEN_WAKER: u64 = u64::MAX;
const TOKEN_RPC: u64 = u64::MAX - 1;
const TOKEN_HTTP: u64 = u64::MAX - 2;
/// Highest connection slot id (everything above is a reserved token).
const MAX_CONN_ID: u64 = u64::MAX - 3;

/// Wheel bucket width; reap deadlines are only ever this coarse.
const WHEEL_GRANULARITY: Duration = Duration::from_millis(100);
/// Wheel horizon = granularity × slots; longer deadlines re-arm.
const WHEEL_SLOTS: usize = 512;
/// Longest poll timeout, also used when nothing is scheduled.
const IDLE_TIMEOUT_MS: i32 = 200;

/// Where completions tell the reactor which connections to pump.
///
/// The `ids` mutex orders each push against the loop's take. `armed` only
/// decides which ring writes the wakeup byte: the loop clears it before
/// taking the list, so a push the take misses finds it clear (its swap
/// comes after the take, which comes after the clear) and writes a byte.
#[derive(Debug)]
struct ReadyList {
    /// Slot ids rung since the loop last took the list.
    ids: Mutex<Vec<u32>>,
    /// Set by the first ring after the loop clears it; only that ring
    /// writes a wakeup byte.
    armed: AtomicBool,
    /// The non-blocking write end of the waker socket pair.
    waker: UnixStream,
}

impl ReadyList {
    fn push(&self, id: u32) {
        // Rings run in a serving task's drop guard, where a panic would
        // abort; a `Vec` push leaves the list valid even if one unwound.
        self.ids.lock().unwrap_or_else(PoisonError::into_inner).push(id);
        if !self.armed.swap(true, Ordering::AcqRel) {
            self.wake();
        }
    }

    /// Writes one byte to the waker socket. It never blocks: a full socket
    /// already has bytes that will wake the loop.
    fn wake(&self) {
        let _ = (&self.waker).write(&[1]);
    }
}

/// One connection's completion waker: rings its slot id onto the ready
/// list.
struct ConnWaker {
    id: u32,
    ready: Arc<ReadyList>,
}

impl Wake for ConnWaker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.ready.push(self.id);
    }
}

/// Handle to a running reactor. Dropping it stops the reactor thread and
/// closes every connection (in-flight batches are cancelled and their
/// unspent budget refunded by the serving stack).
#[derive(Debug)]
pub struct NetFront {
    rpc_addr: SocketAddr,
    http_addr: Option<SocketAddr>,
    stop: Arc<AtomicBool>,
    ready: Arc<ReadyList>,
    join: Option<JoinHandle<()>>,
}

impl NetFront {
    /// Binds the listeners, registers the `pcor_net_*` metrics on the
    /// server's registry, and spawns the reactor thread.
    ///
    /// # Errors
    /// Bind/registration failures, and [`io::ErrorKind::Unsupported`] on
    /// platforms without epoll (the crate compiles there; the reactor
    /// does not run).
    pub fn bind(config: NetConfig, server: Arc<Server>) -> io::Result<Self> {
        let epoll = Epoll::new()?;
        let rpc_listener = TcpListener::bind(&config.rpc_addr)?;
        rpc_listener.set_nonblocking(true)?;
        let rpc_addr = rpc_listener.local_addr()?;
        let http_listener = match &config.http_addr {
            Some(addr) => {
                let listener = TcpListener::bind(addr)?;
                listener.set_nonblocking(true)?;
                Some(listener)
            }
            None => None,
        };
        let http_addr = http_listener.as_ref().map(TcpListener::local_addr).transpose()?;
        let (waker, waker_rx) = UnixStream::pair()?;
        waker.set_nonblocking(true)?;
        waker_rx.set_nonblocking(true)?;
        let ready =
            Arc::new(ReadyList { ids: Mutex::default(), armed: AtomicBool::new(false), waker });
        epoll.add(rpc_listener.as_raw_fd(), EPOLLIN, TOKEN_RPC)?;
        if let Some(listener) = &http_listener {
            epoll.add(listener.as_raw_fd(), EPOLLIN, TOKEN_HTTP)?;
        }
        epoll.add(waker_rx.as_raw_fd(), EPOLLIN, TOKEN_WAKER)?;
        let metrics = NetMetrics::register(server.telemetry().registry());
        let stop = Arc::new(AtomicBool::new(false));
        let faults = config.faults.clone();
        let reactor = Reactor {
            epoll,
            rpc_listener,
            http_listener,
            waker_rx,
            ready: Arc::clone(&ready),
            server,
            faults,
            metrics,
            stop: Arc::clone(&stop),
            conns: Vec::new(),
            free: Vec::new(),
            open: 0,
            wheel: DeadlineWheel::new(WHEEL_GRANULARITY, WHEEL_SLOTS, Instant::now()),
            config,
        };
        let join = std::thread::Builder::new()
            .name("pcor-net-reactor".to_string())
            .spawn(move || reactor.run())?;
        Ok(NetFront { rpc_addr, http_addr, stop, ready, join: Some(join) })
    }

    /// The envelope listener's bound address (ephemeral ports resolved).
    pub fn rpc_addr(&self) -> SocketAddr {
        self.rpc_addr
    }

    /// The HTTP listener's bound address, when enabled.
    pub fn http_addr(&self) -> Option<SocketAddr> {
        self.http_addr
    }

    /// Stops the reactor and waits for its thread: connections close,
    /// which cancels their in-flight work server-side.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.stop.store(true, Ordering::Release);
        self.ready.wake();
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for NetFront {
    fn drop(&mut self) {
        self.stop();
    }
}

struct Reactor {
    epoll: Epoll,
    rpc_listener: TcpListener,
    http_listener: Option<TcpListener>,
    waker_rx: UnixStream,
    ready: Arc<ReadyList>,
    server: Arc<Server>,
    config: NetConfig,
    faults: Faults,
    metrics: NetMetrics,
    stop: Arc<AtomicBool>,
    /// Connection slots; the slot index is the epoll token.
    conns: Vec<Option<Conn>>,
    free: Vec<u32>,
    open: usize,
    wheel: DeadlineWheel,
}

impl Reactor {
    fn run(mut self) {
        let mut events = vec![EpollEvent { events: 0, data: 0 }; 256];
        let mut ready = Vec::new();
        while !self.stop.load(Ordering::Acquire) {
            let timeout = self.poll_timeout();
            let fired = match self.epoll.wait(&mut events, timeout) {
                Ok(n) => n,
                Err(_) => break,
            };
            let now = Instant::now();
            for event in events[..fired].iter().copied() {
                // Copy out of the packed struct before matching (no
                // references into unaligned fields).
                let (token, bits) = (event.data, event.events);
                match token {
                    TOKEN_WAKER => self.drain_waker(),
                    TOKEN_RPC => self.accept(Proto::Rpc, now),
                    TOKEN_HTTP => self.accept(Proto::Http, now),
                    id if id <= MAX_CONN_ID => self.on_conn_event(id as u32, bits, now),
                    _ => {}
                }
            }
            // Completion pump: only connections whose handles rang. Clear
            // the armed flag before taking the list, so a ring that misses
            // this take writes a fresh wakeup byte. An id whose slot was
            // closed (and perhaps reused) since it rang gets one extra
            // `service`, which is harmless: pumping is idempotent.
            self.ready.armed.store(false, Ordering::Release);
            std::mem::swap(
                &mut *self.ready.ids.lock().unwrap_or_else(PoisonError::into_inner),
                &mut ready,
            );
            for id in ready.drain(..) {
                self.service(id, now);
            }
            self.reap(now);
            self.metrics.loop_busy.record_duration(now.elapsed());
        }
        // Dropping `conns` here closes every socket and cancels in-flight
        // batches (their streams' consumers vanish).
    }

    fn poll_timeout(&self) -> i32 {
        match self.wheel.next_deadline() {
            Some(deadline) => {
                let wait = deadline.saturating_duration_since(Instant::now());
                (wait.as_millis().clamp(1, IDLE_TIMEOUT_MS as u128)) as i32
            }
            None => IDLE_TIMEOUT_MS,
        }
    }

    fn drain_waker(&mut self) {
        let mut buf = [0u8; 64];
        while matches!((&self.waker_rx).read(&mut buf), Ok(n) if n > 0) {}
    }

    fn accept(&mut self, proto: Proto, now: Instant) {
        loop {
            let accepted = match proto {
                Proto::Rpc => self.rpc_listener.accept(),
                Proto::Http => match &self.http_listener {
                    Some(listener) => listener.accept(),
                    None => return,
                },
            };
            match accepted {
                Ok((stream, _peer)) => {
                    // The accept seam: any scheduled fault refuses the
                    // connection outright (close before a byte moves).
                    if self.faults.socket(site::NET_ACCEPT).is_some() {
                        self.metrics.closed_error.inc();
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let id = self.alloc_slot();
                    let waker =
                        Waker::from(Arc::new(ConnWaker { id, ready: Arc::clone(&self.ready) }));
                    let mut conn = Conn::new(stream, proto, waker, &self.config, now);
                    let interest = conn.desired_interest(&self.config);
                    conn.interest = interest;
                    let fd = conn.stream.as_raw_fd();
                    if self.epoll.add(fd, interest, u64::from(id)).is_err() {
                        self.free.push(id);
                        continue;
                    }
                    self.wheel.schedule(id, conn.next_deadline(&self.config, now), now);
                    self.conns[id as usize] = Some(conn);
                    self.open += 1;
                    self.metrics.open.set(self.open as f64);
                    match proto {
                        Proto::Rpc => self.metrics.accepted_rpc.inc(),
                        Proto::Http => self.metrics.accepted_http.inc(),
                    }
                }
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => return,
                Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }

    fn alloc_slot(&mut self) -> u32 {
        if let Some(id) = self.free.pop() {
            return id;
        }
        let id = self.conns.len() as u32;
        self.conns.push(None);
        id
    }

    fn on_conn_event(&mut self, id: u32, bits: u32, now: Instant) {
        let Some(conn) = self.conns.get_mut(id as usize).and_then(Option::as_mut) else {
            return;
        };
        if bits & (EPOLLERR | EPOLLHUP) != 0 {
            self.close(id, CloseReason::Peer);
            return;
        }
        if bits & (EPOLLIN | EPOLLRDHUP) != 0 {
            if let Err(reason) =
                conn.on_readable(&self.server, &self.faults, &self.metrics, &self.config, now)
            {
                self.close(id, reason);
                return;
            }
        }
        self.service(id, now);
    }

    /// Pumps completions into the write buffer, flushes and refreshes the
    /// epoll interest. The single post-I/O path for every live connection.
    fn service(&mut self, id: u32, now: Instant) {
        let Some(conn) = self.conns.get_mut(id as usize).and_then(Option::as_mut) else {
            return;
        };
        loop {
            let capped = conn.pump_replies(&self.metrics, &self.config);
            if let Err(reason) = conn.flush(&self.faults, &self.metrics, now) {
                self.close(id, reason);
                return;
            }
            // A capped pump left ready replies behind; keep alternating
            // pump/flush while the socket accepts bytes. Once the socket
            // backs up, EPOLLOUT re-enters this path to drain the rest.
            if !capped || conn.pending_write() > 0 {
                break;
            }
        }
        let desired = conn.desired_interest(&self.config);
        if desired != conn.interest {
            let fd = conn.stream.as_raw_fd();
            if self.epoll.modify(fd, desired, u64::from(id)).is_ok() {
                conn.interest = desired;
            }
        }
    }

    fn reap(&mut self, now: Instant) {
        for id in self.wheel.due(now) {
            let verdict = match self.conns.get(id as usize).and_then(Option::as_ref) {
                // Slot closed (or reused and freshly scheduled elsewhere):
                // nothing to do, its own entry covers it.
                None => continue,
                Some(conn) => conn.reap_verdict(&self.config, now),
            };
            match verdict {
                Some(reason) => self.close(id, reason),
                None => {
                    let deadline = self.conns[id as usize]
                        .as_ref()
                        .expect("checked live above")
                        .next_deadline(&self.config, now);
                    self.wheel.schedule(id, deadline, now);
                }
            }
        }
    }

    fn close(&mut self, id: u32, reason: CloseReason) {
        if let Some(conn) = self.conns[id as usize].take() {
            let _ = self.epoll.delete(conn.stream.as_raw_fd());
            reason.record(&self.metrics);
            self.free.push(id);
            self.open -= 1;
            self.metrics.open.set(self.open as f64);
            // `conn` drops here: the socket closes and every queued
            // PendingResponse handle goes with it — the serving stack
            // cancels at the next boundary and refunds.
        }
    }
}

//! Integration tests of the epoll reactor front (`pcor-net`) through the
//! `pcor` facade: framed envelopes round-trip over real TCP, batch items
//! stream before their summary, admission refusals come back as retryable
//! errors, hundreds of concurrent connections share one reactor thread,
//! and — the property the whole front exists to protect — no ε leaks when
//! peers disconnect mid-stream, tear frames, or get reset by injected
//! socket faults. The ledger snapshot is reconciled against the audit
//! fold after every hostile scenario.

#![cfg(target_os = "linux")]

use pcor::faults::{site, FaultKind, FaultPlan, Faults};
use pcor::net::{http_get, NetClient, NetConfig, NetFront};
use pcor::prelude::*;
use pcor::service::{find_serviceable_outlier, ResponseBody, WireReply};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A salary server plus a pool of serviceable (outlier) records.
fn salary_server(
    grant: f64,
    workers: usize,
    queue: usize,
) -> (Arc<Server>, Arc<BudgetLedger>, Vec<usize>) {
    salary_server_with_faults(grant, workers, queue, Faults::disabled())
}

/// [`salary_server`] with a fault plan at the serving seams.
fn salary_server_with_faults(
    grant: f64,
    workers: usize,
    queue: usize,
    faults: Faults,
) -> (Arc<Server>, Arc<BudgetLedger>, Vec<usize>) {
    let registry = Arc::new(DatasetRegistry::new());
    let dataset = salary_dataset(&SalaryConfig::reduced().with_records(1_500)).unwrap();
    let entry = registry.register("salary", dataset);
    let records: Vec<usize> = (0..3)
        .filter_map(|i| find_serviceable_outlier(&entry, DetectorKind::ZScore, 400, 3 + i))
        .collect();
    assert!(!records.is_empty(), "the synthetic workload plants outliers");
    let ledger = Arc::new(BudgetLedger::new(grant));
    let server = Arc::new(Server::start(
        ServerConfig::default()
            .with_workers(workers)
            .with_queue_capacity(queue)
            .with_faults(faults),
        registry,
        Arc::clone(&ledger),
    ));
    (server, ledger, records)
}

/// A minimal server for protocol-level tests that never release anything.
fn tiny_server() -> Arc<Server> {
    let registry = Arc::new(DatasetRegistry::new());
    registry.register("salary", salary_dataset(&SalaryConfig::tiny()).unwrap());
    let ledger = Arc::new(BudgetLedger::new(1.0));
    Arc::new(Server::start(ServerConfig::default().with_workers(1), registry, ledger))
}

fn single(analyst: &str, record: usize, epsilon: f64, seed: u64) -> RequestEnvelope {
    RequestEnvelope::single(
        ReleaseRequest::new(analyst, "salary", record)
            .with_detector(DetectorKind::ZScore)
            .with_epsilon(epsilon)
            .with_samples(4)
            .with_seed(seed),
    )
}

fn batch(records: &[usize], items: usize, epsilon: f64, samples: usize) -> RequestEnvelope {
    RequestEnvelope::batch(
        BatchReleaseRequest::new("alice", "salary").with_detector(DetectorKind::ZScore).with_items(
            (0..items)
                .map(|i| {
                    BatchItem::new(records[i % records.len()])
                        .with_epsilon(epsilon)
                        .with_samples(samples)
                        .with_seed(i as u64)
                })
                .collect(),
        ),
    )
}

/// Polls until the server has no queued or executing requests left.
fn wait_for_drain(server: &Server) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while server.health().inflight > 0 {
        assert!(Instant::now() < deadline, "server never drained its inflight requests");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The leak oracle: every audit account balances to zero outstanding ε,
/// and the ledger snapshot agrees with the fold of the audit event log —
/// `spent ≡ committed` and `reserved ≡ outstanding` per (analyst, dataset).
fn assert_no_budget_leak(server: &Server, ledger: &BudgetLedger) {
    let events = server.telemetry().audit().events();
    let accounts = AuditLog::fold_events(&events);
    for ((analyst, dataset), account) in &accounts {
        assert!(
            account.outstanding().abs() < 1e-9,
            "{analyst}/{dataset} leaks {} outstanding ε",
            account.outstanding()
        );
    }
    for entry in ledger.snapshot() {
        let key = (entry.analyst.clone(), entry.dataset.clone());
        let (committed, reserved) = accounts
            .get(&key)
            .map(|account| (account.committed, account.outstanding()))
            .unwrap_or((0.0, 0.0));
        assert!(
            (entry.spent - committed).abs() < 1e-9,
            "{}/{}: ledger spent {} != audit committed {committed}",
            entry.analyst,
            entry.dataset,
            entry.spent
        );
        assert!(
            (entry.reserved - reserved).abs() < 1e-9,
            "{}/{}: ledger holds {} reserved ε the audit log cannot explain",
            entry.analyst,
            entry.dataset,
            entry.reserved
        );
    }
}

#[test]
fn pipelined_singles_answer_in_fifo_order_and_echo_the_request_version() {
    let (server, ledger, records) = salary_server(10.0, 2, 64);
    let front = NetFront::bind(NetConfig::default(), Arc::clone(&server)).unwrap();
    let mut client = NetClient::connect(front.rpc_addr()).unwrap();
    client.set_read_timeout(Some(Duration::from_secs(60))).unwrap();

    // Pipeline a v2 and a v1 envelope back-to-back before reading anything:
    // replies must come back in request order, each stamped at its
    // request's protocol version.
    let first = records[0];
    let second = records[records.len() - 1];
    client.send(&single("alice", first, 0.2, 1).with_trace(7)).unwrap();
    client.send(&single("alice", second, 0.2, 2).at_version(1)).unwrap();

    let replies = [client.recv().unwrap(), client.recv().unwrap()];
    for (reply, (record, version)) in replies.iter().zip([(first, 2u16), (second, 1u16)]) {
        let WireReply::Response(envelope) = reply else {
            panic!("expected a terminal response, got {reply:?}");
        };
        assert_eq!(envelope.v, version);
        let ResponseBody::Single(response) = &envelope.body else {
            panic!("expected a single-release body");
        };
        assert_eq!(response.record_id, record);
        assert!(!response.predicate.is_empty());
    }

    drop(client);
    wait_for_drain(&server);
    assert!((ledger.spent("alice", "salary") - 0.4).abs() < 1e-9);
    assert_no_budget_leak(&server, &ledger);
    front.shutdown();
}

#[test]
fn batch_items_stream_over_the_wire_before_the_summary() {
    let (server, ledger, records) = salary_server(10.0, 1, 64);
    let front = NetFront::bind(NetConfig::default(), Arc::clone(&server)).unwrap();
    let mut client = NetClient::connect(front.rpc_addr()).unwrap();
    client.set_read_timeout(Some(Duration::from_secs(120))).unwrap();

    let replies = client.call(&batch(&records, 6, 0.1, 10)).unwrap();
    assert!(replies.len() == 7, "6 streamed items + 1 summary, got {}", replies.len());
    let mut streamed = Vec::new();
    for reply in &replies[..6] {
        let WireReply::Item(item) = reply else { panic!("expected an item, got {reply:?}") };
        streamed.push(item.clone());
    }
    let WireReply::Response(envelope) = &replies[6] else {
        panic!("expected the batch summary last, got {:?}", replies[6]);
    };
    let ResponseBody::Batch(summary) = &envelope.body else {
        panic!("expected a batch body");
    };
    // The summary repeats the streamed items verbatim, in request order.
    assert_eq!(summary.items, streamed);
    let committed: f64 = summary
        .items
        .iter()
        .filter(|item| item.outcome.is_released())
        .map(|item| item.epsilon)
        .sum();
    assert!(committed > 0.0, "the mixed batch releases at least one outlier");
    wait_for_drain(&server);
    assert!((ledger.spent("alice", "salary") - committed).abs() < 1e-9);
    assert_no_budget_leak(&server, &ledger);
    front.shutdown();
}

#[test]
fn admission_refusals_come_back_as_retryable_wire_errors() {
    // workers=1, queue=1: once the slow batch is admitted, the very next
    // envelope must be refused with a framed, retryable error. Injected
    // latency at the service seam holds the batch's worker, so the batch
    // is still in flight when the probe arrives however fast it computes.
    let faults = FaultPlan::scripted(vec![])
        .at(site::SERVICE_RELEASE, 1, FaultKind::Latency(Duration::from_secs(1)))
        .build();
    let (server, ledger, records) = salary_server_with_faults(100.0, 1, 1, faults);
    let front = NetFront::bind(NetConfig::default(), Arc::clone(&server)).unwrap();

    let mut slow = NetClient::connect(front.rpc_addr()).unwrap();
    slow.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
    slow.send(&batch(&records, 6, 0.05, 50)).unwrap();
    // Wait until the batch is demonstrably inflight before probing.
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.health().inflight == 0 {
        assert!(Instant::now() < deadline, "the slow batch never reached admission");
        std::thread::sleep(Duration::from_millis(5));
    }

    let mut probe = NetClient::connect(front.rpc_addr()).unwrap();
    let replies = probe.call(&single("bob", records[0], 0.1, 9)).unwrap();
    assert_eq!(replies.len(), 1);
    let WireReply::Error(error) = &replies[0] else {
        panic!("expected a queue-full refusal, got {:?}", replies[0]);
    };
    assert!(error.is_backpressure(), "unexpected refusal kind {}", error.kind);
    assert!(error.retry_after().is_some(), "back-pressure errors must carry retry_after");

    // The refused analyst spent nothing; the slow batch still completes.
    let mut terminal = slow.recv().unwrap();
    while matches!(terminal, WireReply::Item(_)) {
        terminal = slow.recv().unwrap();
    }
    assert!(matches!(terminal, WireReply::Response(_)));
    wait_for_drain(&server);
    assert_eq!(ledger.spent("bob", "salary"), 0.0);
    assert_no_budget_leak(&server, &ledger);
    front.shutdown();
}

#[test]
fn reactor_serves_256_concurrent_connections_without_leaking_budget() {
    let (server, ledger, records) = salary_server(1_000.0, 4, 16);
    let front = NetFront::bind(NetConfig::default(), Arc::clone(&server)).unwrap();
    let addr = front.rpc_addr();

    const CONNS: usize = 256;
    let records = Arc::new(records);
    let mut handles = Vec::with_capacity(CONNS);
    for i in 0..CONNS {
        let records = Arc::clone(&records);
        handles.push(std::thread::spawn(move || -> (usize, usize) {
            let mut client = NetClient::connect(addr).expect("connect");
            client.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
            let analyst = format!("analyst-{}", i % 8);
            let record = records[i % records.len()];
            let envelope = single(&analyst, record, 0.05, i as u64).with_trace(i as u64 + 1);
            let replies = client.call(&envelope).expect("every envelope gets a terminal reply");
            match replies.last().expect("terminal reply") {
                WireReply::Response(_) => (1, 0),
                WireReply::Error(error) => {
                    assert!(
                        error.is_backpressure(),
                        "conn {i}: refusals must be shed, not failed: {error:?}"
                    );
                    assert!(error.retry_after().is_some());
                    (0, 1)
                }
                WireReply::Item(_) => unreachable!("call() only terminates on terminal replies"),
            }
        }));
    }
    let (mut answered, mut shed) = (0, 0);
    for handle in handles {
        let (a, s) = handle.join().expect("client thread");
        answered += a;
        shed += s;
    }
    // The acceptance bar: every one of the 256 envelopes was either
    // answered or cleanly shed with a retry hint — none vanished.
    assert_eq!(answered + shed, CONNS);
    assert!(answered > 0, "a healthy reactor serves at least some of the herd");

    wait_for_drain(&server);
    assert_no_budget_leak(&server, &ledger);

    // The scrape proves the reactor accounted for the whole herd.
    let http = front.http_addr().expect("http listener is on by default");
    let (status, body) = http_get(http, "/metrics").unwrap();
    assert_eq!(status, 200);
    let served: u64 = body
        .lines()
        .find(|line| line.starts_with("pcor_net_connections_total{proto=\"rpc\"}"))
        .and_then(|line| line.split_whitespace().last())
        .and_then(|value| value.parse().ok())
        .expect("the scrape exports pcor_net_connections_total");
    assert!(served >= CONNS as u64, "reactor saw {served} of {CONNS} connections");
    front.shutdown();
}

#[test]
fn mid_stream_disconnects_refund_unserved_budget() {
    let (server, ledger, records) = salary_server(100.0, 1, 64);
    let front = NetFront::bind(NetConfig::default(), Arc::clone(&server)).unwrap();
    let mut client = NetClient::connect(front.rpc_addr()).unwrap();
    client.set_read_timeout(Some(Duration::from_secs(120))).unwrap();

    // 8 deliberately slow items; read one streamed result, then vanish
    // with a hard RST while the rest are still being served.
    let requested = 8.0 * 0.1;
    client.send(&batch(&records, 8, 0.1, 200)).unwrap();
    let first = client.recv().unwrap();
    assert!(matches!(first, WireReply::Item(_)), "expected a streamed item, got {first:?}");
    client.reset().unwrap();

    wait_for_drain(&server);
    assert_no_budget_leak(&server, &ledger);
    let spent = ledger.spent("alice", "salary");
    assert!(
        spent < requested - 1e-9,
        "cancellation must refund the unserved tail: spent {spent} of {requested} requested"
    );
    front.shutdown();
}

#[test]
fn torn_frames_on_dropped_connections_leave_no_trace() {
    let (server, ledger, records) = salary_server(100.0, 1, 64);
    let front = NetFront::bind(NetConfig::default(), Arc::clone(&server)).unwrap();

    // A peer that sends half a frame and walks away must not be answered,
    // must not wedge the reactor, and must not move the ledger.
    let mut torn = NetClient::connect(front.rpc_addr()).unwrap();
    let envelope = batch(&records, 4, 0.1, 10);
    torn.send_partial(&envelope, 9).unwrap();
    drop(torn);

    // The reactor is still fully serviceable afterwards.
    let mut client = NetClient::connect(front.rpc_addr()).unwrap();
    client.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
    let replies = client.call(&single("alice", records[0], 0.2, 4)).unwrap();
    assert!(matches!(replies.last(), Some(WireReply::Response(_))));

    wait_for_drain(&server);
    assert!((ledger.spent("alice", "salary") - 0.2).abs() < 1e-9);
    assert_no_budget_leak(&server, &ledger);
    front.shutdown();
}

#[test]
fn scripted_short_reads_and_writes_do_not_tear_frames() {
    let (server, ledger, records) = salary_server(10.0, 1, 64);
    // Every socket read is capped at 3 bytes and every write at 5: the
    // decoder and write buffer must reassemble frames byte-dribble by
    // byte-dribble without corrupting the stream.
    let faults = FaultPlan::seeded(7)
        .rule(site::NET_READ, FaultKind::ShortIo(3), 1.0)
        .rule(site::NET_WRITE, FaultKind::ShortIo(5), 1.0)
        .build();
    let front =
        NetFront::bind(NetConfig::default().with_faults(faults), Arc::clone(&server)).unwrap();
    let mut client = NetClient::connect(front.rpc_addr()).unwrap();
    client.set_read_timeout(Some(Duration::from_secs(120))).unwrap();

    let replies = client.call(&batch(&records, 3, 0.1, 10)).unwrap();
    assert_eq!(replies.len(), 4, "3 items + summary survive pathological short I/O");
    assert!(matches!(replies.last(), Some(WireReply::Response(_))));
    wait_for_drain(&server);
    assert_no_budget_leak(&server, &ledger);
    front.shutdown();
}

#[test]
fn scripted_resets_shed_connections_without_leaking() {
    let (server, ledger, records) = salary_server(100.0, 1, 64);
    // The first accept is reset before the handshake settles; the second
    // connection's second mid-frame read is reset while a batch streams.
    let faults = FaultPlan::seeded(1)
        .at(site::NET_ACCEPT, 0, FaultKind::Reset)
        .at(site::NET_READ, 1, FaultKind::Reset)
        .build();
    let front =
        NetFront::bind(NetConfig::default().with_faults(faults), Arc::clone(&server)).unwrap();

    // Connection 1: accepted by the kernel, then torn down by the fault.
    let mut refused = NetClient::connect(front.rpc_addr()).unwrap();
    refused.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    assert!(refused.recv().is_err(), "the reset-at-accept connection must die unanswered");

    // Connection 2: the batch envelope lands in one read (hit 0); the
    // trailing slow-loris bytes force a second read (hit 1) that the plan
    // turns into ECONNRESET mid-service — the stream must refund.
    let mut victim = NetClient::connect(front.rpc_addr()).unwrap();
    victim.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    victim.send(&batch(&records, 6, 0.1, 200)).unwrap();
    let _ = victim.send_partial(&single("alice", records[0], 0.1, 1), 2);
    let mut outcomes = Vec::new();
    while let Ok(reply) = victim.recv() {
        outcomes.push(reply);
    }
    assert!(
        !outcomes.iter().any(|reply| matches!(reply, WireReply::Response(_))),
        "the reset connection must not receive the batch summary"
    );

    wait_for_drain(&server);
    assert_no_budget_leak(&server, &ledger);
    let spent = ledger.spent("alice", "salary");
    assert!(spent < 0.6 - 1e-9, "the reset batch must refund its unserved tail, spent {spent}");
    front.shutdown();
}

#[test]
fn slow_loris_writers_complete_while_idle_connections_are_reaped() {
    let (server, ledger, records) = salary_server(10.0, 1, 64);
    let config = NetConfig::default().with_idle_timeout(Duration::from_millis(300));
    let front = NetFront::bind(config, Arc::clone(&server)).unwrap();

    // An idle connection that never sends a byte is reaped on the wheel.
    let mut idle = NetClient::connect(front.rpc_addr()).unwrap();
    idle.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let error = idle.recv().expect_err("idle connections are reaped");
    assert_eq!(error.kind(), std::io::ErrorKind::UnexpectedEof);

    // A slow writer dribbling 7 bytes every 20 ms keeps resetting its idle
    // clock — activity counts — and is answered once the frame completes.
    let mut slow = NetClient::connect(front.rpc_addr()).unwrap();
    slow.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
    slow.slow_send(&single("alice", records[0], 0.1, 3), 7, Duration::from_millis(20)).unwrap();
    let reply = slow.recv().unwrap();
    assert!(matches!(reply, WireReply::Response(_)));

    wait_for_drain(&server);
    assert_no_budget_leak(&server, &ledger);
    front.shutdown();
}

#[test]
fn oversized_frames_close_the_connection() {
    let server = tiny_server();
    let front = NetFront::bind(NetConfig::default(), Arc::clone(&server)).unwrap();
    let mut client = NetClient::connect(front.rpc_addr()).unwrap();
    client.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    // Announce a 2 MiB frame — over the 1 MiB cap, resynchronization is
    // impossible, so the reactor must drop the connection.
    let announced = (2u32 * 1024 * 1024).to_be_bytes();
    client.send_bytes(&announced).unwrap();
    client.send_bytes(b"garbage that never completes").unwrap();
    let error = client.recv().expect_err("oversized frames are fatal to the connection");
    assert_eq!(error.kind(), std::io::ErrorKind::UnexpectedEof);
    front.shutdown();
}

/// Validation runs before load shedding and deadline handling at
/// admission: a zero deadline is a malformed envelope, answered
/// `invalid-request` (not retryable), never `deadline-exceeded`.
#[test]
fn a_zero_deadline_is_answered_invalid_request_over_the_wire() {
    let server = tiny_server();
    let front = NetFront::bind(NetConfig::default(), Arc::clone(&server)).unwrap();
    let mut client = NetClient::connect(front.rpc_addr()).unwrap();
    client.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    for envelope in [single("alice", 0, 0.1, 1), batch(&[0], 2, 0.1, 4)] {
        let replies = client.call(&envelope.with_deadline_ms(0)).unwrap();
        let [WireReply::Error(error)] = replies.as_slice() else {
            panic!("expected one error reply, got {replies:?}");
        };
        assert_eq!(error.kind, "invalid-request", "{error:?}");
        assert!(!error.is_backpressure());
    }
    assert_eq!(server.metrics().deadline_exceeded, 0);
    assert!((server.ledger().remaining("alice", "salary") - 1.0).abs() < 1e-12);
    front.shutdown();
}

/// A frame of 10,000 nested `[` is a malformed envelope, not a stack
/// overflow: the parser stops at its depth limit, the reactor answers
/// `invalid-request`, and the same connection then has a release served.
#[test]
fn deeply_nested_json_is_answered_invalid_request_and_the_front_keeps_serving() {
    let (server, ledger, records) = salary_server(10.0, 1, 64);
    let front = NetFront::bind(NetConfig::default(), Arc::clone(&server)).unwrap();
    let mut client = NetClient::connect(front.rpc_addr()).unwrap();
    client.set_read_timeout(Some(Duration::from_secs(120))).unwrap();

    client.send_bytes(&pcor::service::frame_bytes(&"[".repeat(10_000))).unwrap();
    let WireReply::Error(error) = client.recv().unwrap() else {
        panic!("a nested-bracket frame must be answered with an error");
    };
    assert_eq!(error.kind, "invalid-request", "{error:?}");

    let replies = client.call(&single("alice", records[0], 0.2, 5)).unwrap();
    assert!(matches!(replies.last(), Some(WireReply::Response(_))), "{replies:?}");
    wait_for_drain(&server);
    assert!((ledger.spent("alice", "salary") - 0.2).abs() < 1e-9);
    assert_no_budget_leak(&server, &ledger);
    front.shutdown();
}

/// A ~1 MiB frame whose one huge string field makes it a malformed
/// envelope is answered `invalid-request` within 2 s: the JSON string
/// scan is linear, so parsing it on the reactor thread stalls no
/// connection. The reactor's loop-busy histogram, scraped over HTTP,
/// confirms that no iteration took that long.
#[test]
fn a_megabyte_string_field_is_answered_promptly_and_the_front_keeps_serving() {
    let (server, ledger, records) = salary_server(10.0, 1, 64);
    let front = NetFront::bind(NetConfig::default(), Arc::clone(&server)).unwrap();
    let mut client = NetClient::connect(front.rpc_addr()).unwrap();
    client.set_read_timeout(Some(Duration::from_secs(2))).unwrap();

    let pad = "x".repeat(pcor::service::MAX_FRAME_LEN - 64);
    let started = Instant::now();
    client
        .send_bytes(&pcor::service::frame_bytes(&format!("{{\"v\":2,\"pad\":\"{pad}\"}}")))
        .unwrap();
    let reply = client.recv().expect("the reply must arrive within 2 s");
    assert!(started.elapsed() < Duration::from_secs(2), "answered after {:?}", started.elapsed());
    let WireReply::Error(error) = reply else {
        panic!("a malformed envelope must be answered with an error, got {reply:?}");
    };
    assert_eq!(error.kind, "invalid-request", "{error:?}");

    let mut other = NetClient::connect(front.rpc_addr()).unwrap();
    other.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    let replies = other.call(&single("alice", records[0], 0.2, 5)).unwrap();
    assert!(matches!(replies.last(), Some(WireReply::Response(_))), "{replies:?}");

    let busy = server.telemetry().registry().histogram("pcor_net_loop_busy_nanos", &[]);
    assert!(busy.count() > 0, "the reactor records every loop iteration");
    assert!(busy.quantile(1.0) < 2_000_000_000, "a loop iteration took {} ns", busy.quantile(1.0));
    let (status, body) = http_get(front.http_addr().unwrap(), "/metrics").unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("# TYPE pcor_net_loop_busy_nanos histogram"), "{body}");
    wait_for_drain(&server);
    assert!((ledger.spent("alice", "salary") - 0.2).abs() < 1e-9);
    assert_no_budget_leak(&server, &ledger);
    front.shutdown();
}

/// Completions wake the reactor: 200 sequential singles on one connection
/// are each answered in under 100 ms. Nothing polls for completions, so a
/// lost wakeup would leave its reply unpumped until the peer sent more
/// bytes, which this client never does while it waits.
#[test]
fn sequential_singles_are_each_answered_without_waiting_for_a_poll() {
    let (server, ledger, records) = salary_server(1_000.0, 1, 64);
    let front = NetFront::bind(NetConfig::default(), Arc::clone(&server)).unwrap();
    let mut client = NetClient::connect(front.rpc_addr()).unwrap();
    client.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    // Warm the starting-context cache so every timed release is cheap.
    client.call(&single("alice", records[0], 0.01, 0)).unwrap();
    let mut slowest = Duration::ZERO;
    for seed in 1..=200 {
        let started = Instant::now();
        let replies = client.call(&single("alice", records[0], 0.01, seed)).unwrap();
        slowest = slowest.max(started.elapsed());
        assert!(matches!(replies.last(), Some(WireReply::Response(_))), "{replies:?}");
    }
    assert!(slowest < Duration::from_millis(100), "the slowest single took {slowest:?}");
    wait_for_drain(&server);
    assert!((ledger.spent("alice", "salary") - 2.01).abs() < 1e-9);
    assert_no_budget_leak(&server, &ledger);
    front.shutdown();
}

/// The `service.release` fault seam fires once per admitted envelope:
/// singles and batches alike, in process and over the wire, so chaos
/// scripts reach every serving task.
#[test]
fn the_service_seam_fires_once_per_admitted_envelope() {
    let registry = Arc::new(DatasetRegistry::new());
    let dataset = salary_dataset(&SalaryConfig::reduced().with_records(1_500)).unwrap();
    let entry = registry.register("salary", dataset);
    let record = find_serviceable_outlier(&entry, DetectorKind::ZScore, 400, 3).unwrap();
    let faults = FaultPlan::seeded(0).build();
    let server = Arc::new(Server::start(
        ServerConfig::default().with_workers(1).with_faults(faults.clone()),
        registry,
        Arc::new(BudgetLedger::new(10.0)),
    ));
    let front = NetFront::bind(NetConfig::default(), Arc::clone(&server)).unwrap();
    let mut client = NetClient::connect(front.rpc_addr()).unwrap();
    client.set_read_timeout(Some(Duration::from_secs(60))).unwrap();

    let replies = client.call(&single("alice", record, 0.1, 1)).unwrap();
    assert!(matches!(replies.last(), Some(WireReply::Response(_))));
    assert_eq!(faults.hits(site::SERVICE_RELEASE), 1, "a single over the wire");
    let replies = client.call(&batch(&[record], 3, 0.1, 4)).unwrap();
    assert!(matches!(replies.last(), Some(WireReply::Response(_))));
    assert_eq!(faults.hits(site::SERVICE_RELEASE), 2, "a streamed batch over the wire");
    let request = ReleaseRequest::new("bob", "salary", record)
        .with_detector(DetectorKind::ZScore)
        .with_samples(4);
    server.execute_batch(BatchReleaseRequest::from(request)).unwrap();
    assert_eq!(faults.hits(site::SERVICE_RELEASE), 3, "an in-process batch");
    front.shutdown();
}

#[test]
fn healthz_and_metrics_serve_over_http() {
    let server = tiny_server();
    let front = NetFront::bind(NetConfig::default(), Arc::clone(&server)).unwrap();
    let http = front.http_addr().expect("http listener is on by default");

    let (status, body) = http_get(http, "/healthz").unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"ready\":true"), "healthz body: {body}");
    assert!(body.contains("\"accepting\":true"));

    // Drive one RPC connection so the reactor counters are non-trivial.
    let client = NetClient::connect(front.rpc_addr()).unwrap();
    drop(client);

    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (status, body) = http_get(http, "/metrics").unwrap();
        assert_eq!(status, 200);
        let has_series = ["pcor_net_connections_total", "pcor_net_connections_open"]
            .iter()
            .all(|series| body.contains(series));
        if has_series && body.contains("pcor_net_http_requests_total") {
            break;
        }
        assert!(Instant::now() < deadline, "pcor_net_* series never appeared: {body}");
        std::thread::sleep(Duration::from_millis(20));
    }

    let (status, _) = http_get(http, "/nonexistent").unwrap();
    assert_eq!(status, 404);
    front.shutdown();
}

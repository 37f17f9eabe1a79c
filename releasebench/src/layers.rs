//! Per-layer attribution of a traced pass: the spans the server records
//! (`server`, `ledger.reserve`, `session.release`, `session.verify`),
//! joined to client round trips by the envelope's trace id, plus counter
//! deltas read through each layer's public stats.

use crate::load::{Frames, Outcome, Pass};
use crate::stats::{median, median_ms, ms, ratio};
use crate::Metric;
use pcor_service::{decode_reply, decode_request, encode_reply, encode_request, Server};
use pcor_telemetry::SpanRecord;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Counters read through the layers' public stats, before and after a pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    calls: u64,
    verifier_lookups: u64,
    verifier_hits: u64,
    words: u64,
    parks: u64,
    tasks: u64,
    start_hits: u64,
    start_lookups: u64,
    wal_fsyncs: u64,
    wal_bytes: u64,
    net_bytes: u64,
    /// Process CPU time (every thread: clients, reactor, workers).
    pub cpu: Duration,
}

impl Counters {
    /// Reads every counter now.
    pub fn read(server: &Server) -> Self {
        let metrics = server.metrics();
        let pool = server.pool().stats();
        let cache = server.registry().cache_stats();
        let wal = server.durable().map(|durable| durable.wal_stats());
        let registry = server.telemetry().registry();
        let net_bytes = ["read", "written"]
            .iter()
            .map(|direction| {
                registry.counter("pcor_net_bytes_total", &[("direction", direction)]).get()
            })
            .sum();
        Counters {
            calls: metrics.verification_calls,
            verifier_lookups: metrics.verifier_lookups,
            verifier_hits: metrics.verifier_cache_hits,
            words: metrics.verifier_words_scanned,
            parks: pool.worker_parks,
            tasks: pool.tasks_executed,
            start_hits: cache.hits,
            start_lookups: cache.hits + cache.misses,
            wal_fsyncs: wal.as_ref().map_or(0, |stats| stats.fsyncs),
            wal_bytes: wal.as_ref().map_or(0, |stats| stats.appended_bytes),
            net_bytes,
            cpu: crate::sys::usage().cpu,
        }
    }

    /// What changed since `before`.
    pub fn since(self, before: Counters) -> Counters {
        Counters {
            calls: self.calls - before.calls,
            verifier_lookups: self.verifier_lookups - before.verifier_lookups,
            verifier_hits: self.verifier_hits - before.verifier_hits,
            words: self.words - before.words,
            parks: self.parks - before.parks,
            tasks: self.tasks - before.tasks,
            start_hits: self.start_hits - before.start_hits,
            start_lookups: self.start_lookups - before.start_lookups,
            wal_fsyncs: self.wal_fsyncs - before.wal_fsyncs,
            wal_bytes: self.wal_bytes - before.wal_bytes,
            net_bytes: self.net_bytes - before.net_bytes,
            cpu: self.cpu - before.cpu,
        }
    }
}

/// The spans of one trace, by stage.
#[derive(Debug, Default)]
struct TraceSpans {
    server: Option<Duration>,
    reserve: Vec<Duration>,
    release: Vec<Duration>,
    verify: Vec<Duration>,
}

fn by_trace(spans: &[SpanRecord]) -> HashMap<u64, TraceSpans> {
    let mut traces: HashMap<u64, TraceSpans> = HashMap::new();
    for span in spans {
        let entry = traces.entry(span.trace.0).or_default();
        match span.stage {
            "server" => entry.server = Some(span.elapsed),
            "ledger.reserve" => entry.reserve.push(span.elapsed),
            "session.release" => entry.release.push(span.elapsed),
            "session.verify" => entry.verify.push(span.elapsed),
            _ => {}
        }
    }
    traces
}

/// Encodes and decodes every sampled frame until 50 ms have passed;
/// returns microseconds per envelope (its request plus all its replies).
fn codec_us_per_envelope(frames: &Frames) -> f64 {
    if frames.is_empty() {
        return 0.0;
    }
    let payload = |frame: &[u8]| {
        String::from_utf8(frame[pcor_service::FRAME_HEADER_LEN..].to_vec()).expect("utf-8 frames")
    };
    let started = Instant::now();
    let mut envelopes = 0usize;
    while started.elapsed() < Duration::from_millis(50) {
        for (request, replies) in frames {
            let frame = encode_request(black_box(request));
            black_box(decode_request(&payload(&frame)).expect("own frames decode"));
            for reply in replies {
                let frame = encode_reply(black_box(reply));
                black_box(decode_reply(&payload(&frame)).expect("own frames decode"));
            }
        }
        envelopes += frames.len();
    }
    started.elapsed().as_secs_f64() * 1e6 / envelopes as f64
}

/// The per-layer metrics of a traced pass. `untraced_p50_ms` is the
/// latency median of the untraced pass run just before it, on the same
/// server; `fmcalls_per_item` is over every item of the checked pass.
pub fn per_layer(
    pass: &Pass,
    spans: &[SpanRecord],
    delta: Counters,
    untraced_p50_ms: f64,
    fmcalls_per_item: f64,
) -> Vec<Metric> {
    let traces = by_trace(spans);
    let items = pass.items() as f64;
    let mut outside = Vec::new();
    let mut queue_wait = Vec::new();
    let mut server_self = Vec::new();
    let mut reserve = Vec::new();
    let mut release = Vec::new();
    let mut verify = Vec::new();
    let (mut verify_time, mut verify_calls) = (Duration::ZERO, 0usize);
    let mut traced = 0usize;
    let mut joined = 0usize;
    for outcome in pass.all() {
        let Some(trace) = outcome.trace else { continue };
        traced += 1;
        let (Some(spans), Some(latency)) = (traces.get(&trace), outcome.server_latency) else {
            continue;
        };
        let Some(server) = spans.server else { continue };
        joined += 1;
        outside.push(ms(outcome.rtt) - ms(latency));
        queue_wait.push(ms(latency) - ms(server));
        let children: Duration = spans.reserve.iter().chain(&spans.release).sum();
        server_self.push(ms(server) - ms(children));
        reserve.extend(spans.reserve.iter().map(|&d| ms(d)));
        release.extend(spans.release.iter().map(|&d| ms(d)));
        verify.extend(spans.verify.iter().map(|&d| ms(d)));
        verify_time += spans.verify.iter().sum::<Duration>();
        verify_calls += outcome.calls;
    }
    let gaps: Vec<f64> =
        pass.all().flat_map(|outcome: &Outcome| outcome.item_gaps.iter().map(|&d| ms(d))).collect();
    let traced_p50_ms = median_ms(pass.all().map(|outcome| outcome.rtt));
    let m = |name: &'static str, value: f64, unit: &'static str| Metric { name, value, unit };
    vec![
        m("net.outside_p50_ms", median(outside), "ms"),
        m("net.bytes_per_item", ratio(delta.net_bytes as f64, items), "B"),
        m("wire.codec_us_per_envelope", codec_us_per_envelope(&pass.frames), "us"),
        m("pool.queue_wait_p50_ms", median(queue_wait), "ms"),
        m("pool.parks_per_task", ratio(delta.parks as f64, delta.tasks as f64), "count"),
        m("server.self_p50_ms", median(server_self), "ms"),
        m("ledger.reserve_p50_ms", median(reserve), "ms"),
        m("wal.fsyncs_per_item", ratio(delta.wal_fsyncs as f64, items), "count"),
        m("wal.bytes_per_item", ratio(delta.wal_bytes as f64, items), "B"),
        m(
            "registry.start_hit_rate",
            ratio(delta.start_hits as f64, delta.start_lookups as f64),
            "ratio",
        ),
        m("session.release_p50_ms", median(release), "ms"),
        m("session.verify_p50_ms", median(verify), "ms"),
        m("core.fmcalls_per_item", fmcalls_per_item, "count"),
        m("core.us_per_fmcall", ratio(verify_time.as_secs_f64() * 1e6, verify_calls as f64), "us"),
        m(
            "core.verifier_hit_rate",
            ratio(delta.verifier_hits as f64, delta.verifier_lookups as f64),
            "ratio",
        ),
        m("data.words_per_fmcall", ratio(delta.words as f64, delta.calls as f64), "count"),
        m("stream.item_gap_p50_ms", median(gaps), "ms"),
        m("trace.latency_p50_ms", traced_p50_ms, "ms"),
        m("trace.untraced_latency_p50_ms", untraced_p50_ms, "ms"),
        m("trace.overhead_pct", 100.0 * (traced_p50_ms / untraced_p50_ms - 1.0), "%"),
        m("trace.joined_frac", ratio(joined as f64, traced as f64), "ratio"),
    ]
}

//! Closed-loop load over loopback TCP: each connection sends its next
//! envelope only after the previous one's terminal reply arrived, as a
//! `NetClient` caller does.

use crate::workload::RequestList;
use pcor_data::Context;
use pcor_net::NetClient;
use pcor_service::{RequestEnvelope, ResponseBody, WireReply};
use std::io;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Envelopes of connection 0 whose frames are kept for the codec timing.
const CODEC_SAMPLE: usize = 128;

/// One released item, kept for the exact-repeat checks.
#[derive(Debug, Clone)]
pub struct Released {
    /// The record the item released a context for.
    pub record: usize,
    /// The released context.
    pub context: Context,
    /// Its utility (population size).
    pub utility: f64,
    /// Fresh `f_M` calls the item cost.
    pub calls: usize,
}

/// The client's view of one envelope.
#[derive(Debug)]
pub struct Outcome {
    /// Trace id the envelope carried, when traced.
    pub trace: Option<u64>,
    /// Send to terminal reply.
    pub rtt: Duration,
    /// Send to first reply frame (the first streamed item of a batch).
    pub first_reply: Duration,
    /// Gaps between consecutive streamed items.
    pub item_gaps: Vec<Duration>,
    /// The server-reported latency (`None` when refused).
    pub server_latency: Option<Duration>,
    /// Items released.
    pub items: usize,
    /// Fresh `f_M` calls across the envelope.
    pub calls: usize,
    /// Released items.
    pub released: Vec<Released>,
    /// Why the envelope failed, if it did.
    pub error: Option<String>,
}

/// The sampled request frames and their replies, for the codec timing.
pub type Frames = Vec<(RequestEnvelope, Vec<WireReply>)>;

/// One closed-loop pass over every connection.
#[derive(Debug)]
pub struct Pass {
    /// Outcomes per connection, in send order.
    pub outcomes: Vec<Vec<Outcome>>,
    /// First send to last terminal reply.
    pub wall: Duration,
    /// Sampled requests with their replies (connection 0).
    pub frames: Frames,
}

impl Pass {
    /// Every outcome, connection by connection.
    pub fn all(&self) -> impl Iterator<Item = &Outcome> {
        self.outcomes.iter().flatten()
    }

    /// Items released in the pass.
    pub fn items(&self) -> usize {
        self.all().map(|outcome| outcome.items).sum()
    }
}

/// The trace id of envelope `index` on `conn` (never 0, which means
/// "absent" on the wire).
pub fn trace_id(conn: usize, index: u64) -> u64 {
    (1 << 62) | ((conn as u64) << 40) | (index + 1)
}

/// Replays the first `quota` envelopes of every connection's list.
pub fn run(addr: SocketAddr, list: &RequestList, quota: u64, traced: bool) -> io::Result<Pass> {
    let started = Instant::now();
    let results: Vec<io::Result<(Vec<Outcome>, Frames)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..list.spec.connections)
            .map(|conn| scope.spawn(move || drive(addr, list, conn, quota, traced)))
            .collect();
        handles
            .into_iter()
            .map(|handle| {
                handle.join().unwrap_or_else(|_| Err(io::Error::other("client panicked")))
            })
            .collect()
    });
    let wall = started.elapsed();
    let mut outcomes = Vec::with_capacity(results.len());
    let mut frames = Vec::new();
    for (conn, result) in results.into_iter().enumerate() {
        let (conn_outcomes, conn_frames) = result?;
        outcomes.push(conn_outcomes);
        if conn == 0 {
            frames = conn_frames;
        }
    }
    Ok(Pass { outcomes, wall, frames })
}

/// Sends each envelope once, serially, and fails unless every one released.
pub fn warm(addr: SocketAddr, envelopes: &[RequestEnvelope]) -> io::Result<()> {
    let mut client = NetClient::connect(addr)?;
    client.set_read_timeout(Some(Duration::from_secs(120)))?;
    for envelope in envelopes {
        match client.call(envelope)?.pop() {
            Some(WireReply::Response(_)) => {}
            other => return Err(io::Error::other(format!("warm-up release refused: {other:?}"))),
        }
    }
    Ok(())
}

fn drive(
    addr: SocketAddr,
    list: &RequestList,
    conn: usize,
    quota: u64,
    traced: bool,
) -> io::Result<(Vec<Outcome>, Frames)> {
    let mut client = NetClient::connect(addr)?;
    client.set_read_timeout(Some(Duration::from_secs(60)))?;
    let mut outcomes = Vec::new();
    let mut frames = Vec::new();
    for index in 0..quota {
        let mut envelope = list.envelope(conn, index);
        let trace = traced.then(|| trace_id(conn, index));
        if let Some(id) = trace {
            envelope = envelope.with_trace(id);
        }
        let sample = conn == 0 && frames.len() < CODEC_SAMPLE;
        let sent = Instant::now();
        client.send(&envelope)?;
        let mut first_reply = None;
        let mut last_item: Option<Instant> = None;
        let mut item_gaps = Vec::new();
        let mut streamed = Vec::new();
        let mut replies = Vec::new();
        let (reply, done) = loop {
            let reply = client.recv()?;
            let now = Instant::now();
            first_reply.get_or_insert(now);
            if sample {
                replies.push(reply.clone());
            }
            match reply {
                WireReply::Item(item) => {
                    if let Some(previous) = last_item {
                        item_gaps.push(now - previous);
                    }
                    last_item = Some(now);
                    streamed.push(item);
                }
                terminal => break (terminal, now),
            }
        };
        let mut outcome = Outcome {
            trace,
            rtt: done - sent,
            first_reply: first_reply.unwrap_or(done) - sent,
            item_gaps,
            server_latency: None,
            items: 0,
            calls: 0,
            released: Vec::new(),
            error: None,
        };
        match reply {
            WireReply::Response(response) => match response.body {
                ResponseBody::Single(single) => {
                    outcome.server_latency = Some(single.latency);
                    outcome.items = 1;
                    outcome.calls = single.verification_calls;
                    outcome.released.push(Released {
                        record: single.record_id,
                        context: single.context,
                        utility: single.utility,
                        calls: single.verification_calls,
                    });
                }
                ResponseBody::Batch(batch) => {
                    if streamed != batch.items {
                        return Err(io::Error::other(format!(
                            "envelope {index} on connection {conn}: the streamed items differ \
                             from the batch summary"
                        )));
                    }
                    outcome.server_latency = Some(batch.latency);
                    outcome.items = batch.released();
                    outcome.calls = batch.verification_calls;
                    if batch.failed() > 0 {
                        outcome.error = Some(format!("{} batch items failed", batch.failed()));
                    }
                    outcome.released.extend(batch.items.into_iter().filter_map(|item| {
                        let record = item.record_id;
                        item.outcome.released().map(|release| Released {
                            record,
                            context: release.context.clone(),
                            utility: release.utility,
                            calls: release.verification_calls,
                        })
                    }));
                }
            },
            WireReply::Error(error) => {
                outcome.error = Some(format!("{}: {}", error.kind, error.message));
            }
            WireReply::Item(_) => unreachable!("the reply loop breaks only on a terminal reply"),
        }
        if sample {
            frames.push((envelope, replies));
        }
        outcomes.push(outcome);
    }
    Ok((outcomes, frames))
}

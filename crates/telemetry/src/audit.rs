//! The privacy-budget audit log: an append-only, serializable record of
//! every ε movement in the system.
//!
//! Every ledger operation appends one [`BudgetEvent`] carrying the analyst,
//! dataset, the ε involved, the mechanism (when known), the release's trace
//! id and a **logical clock** (`seq`). The emitting ledger appends while
//! holding its account lock, so the logical clock is consistent with the
//! ledger's own operation order. The ledger keeps each account as an
//! [`AuditAccount`] and folds every event into it with
//! [`AuditAccount::apply`], the same step [`AuditLog::fold`] loops over,
//! so folding the log reproduces every account's `spent`/`reserved` state
//! bit for bit. The durable ledger journals the same stream to its
//! write-ahead log and replays it through the same step on restart.
//!
//! Balance invariant: for every trace, the reserved ε equals the committed
//! plus refunded ε once the release resolves — ε can move between `spent`
//! and `remaining`, never leak.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One ε movement in the budget ledger.
///
/// `seq` is the log's logical clock: strictly increasing, assigned under
/// the emitting ledger's account lock, so event order == ledger
/// operation order. `trace` links the event to the release's trace (0 when
/// the operation ran outside a traced request).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum BudgetEvent {
    /// ε was held for an in-flight release (phase 1).
    Reserved {
        /// Logical clock of the append.
        seq: u64,
        /// The analyst principal.
        analyst: String,
        /// The dataset the budget applies to.
        dataset: String,
        /// The held ε.
        epsilon: f64,
        /// The DP mechanism of the release, when known at reserve time.
        mechanism: Option<String>,
        /// The release's trace id (0 = untraced).
        trace: u64,
    },
    /// Held ε became a permanent spend (phase 2, success).
    Committed {
        /// Logical clock of the append.
        seq: u64,
        /// The analyst principal.
        analyst: String,
        /// The dataset the budget applies to.
        dataset: String,
        /// The committed ε.
        epsilon: f64,
        /// The DP mechanism that consumed the ε, when known.
        mechanism: Option<String>,
        /// The release's trace id (0 = untraced).
        trace: u64,
    },
    /// Held ε returned to the account (phase 2, failure / cancellation /
    /// panic-refund via the drop guard).
    Refunded {
        /// Logical clock of the append.
        seq: u64,
        /// The analyst principal.
        analyst: String,
        /// The dataset the budget applies to.
        dataset: String,
        /// The refunded ε.
        epsilon: f64,
        /// The release's trace id (0 = untraced).
        trace: u64,
    },
    /// A reservation was refused: the account could not cover the request.
    /// No ε moved.
    Refused {
        /// Logical clock of the append.
        seq: u64,
        /// The analyst principal.
        analyst: String,
        /// The dataset the budget applies to.
        dataset: String,
        /// The ε the request asked for.
        requested: f64,
        /// The ε that was actually available.
        remaining: f64,
        /// The release's trace id (0 = untraced).
        trace: u64,
    },
}

impl BudgetEvent {
    /// The event's logical clock.
    pub fn seq(&self) -> u64 {
        match self {
            BudgetEvent::Reserved { seq, .. }
            | BudgetEvent::Committed { seq, .. }
            | BudgetEvent::Refunded { seq, .. }
            | BudgetEvent::Refused { seq, .. } => *seq,
        }
    }

    /// The `(analyst, dataset)` account the event touches.
    pub fn account(&self) -> (&str, &str) {
        match self {
            BudgetEvent::Reserved { analyst, dataset, .. }
            | BudgetEvent::Committed { analyst, dataset, .. }
            | BudgetEvent::Refunded { analyst, dataset, .. }
            | BudgetEvent::Refused { analyst, dataset, .. } => (analyst, dataset),
        }
    }

    /// The event's trace id (0 = untraced).
    pub fn trace(&self) -> u64 {
        match self {
            BudgetEvent::Reserved { trace, .. }
            | BudgetEvent::Committed { trace, .. }
            | BudgetEvent::Refunded { trace, .. }
            | BudgetEvent::Refused { trace, .. } => *trace,
        }
    }

    /// Returns the event with its `seq` replaced — used by the durable
    /// ledger to stamp the journaled copy with the clock value the
    /// in-memory append just assigned.
    pub fn with_seq(mut self, seq: u64) -> Self {
        match &mut self {
            BudgetEvent::Reserved { seq: s, .. }
            | BudgetEvent::Committed { seq: s, .. }
            | BudgetEvent::Refunded { seq: s, .. }
            | BudgetEvent::Refused { seq: s, .. } => *s = seq,
        }
        self
    }
}

/// How a sequence check failed: the stream skipped clock values or
/// repeated one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeqErrorKind {
    /// `found > expected`: at least one event is missing.
    Gap,
    /// `found ≤` an already-seen seq: a duplicate (or reordered) event.
    Duplicate,
}

/// The first offender found by a contiguity check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeqError {
    /// Position of the offending event in the checked stream.
    pub index: usize,
    /// The seq the stream should have carried at that position.
    pub expected: u64,
    /// The seq it actually carried.
    pub found: u64,
    /// Whether values were skipped or repeated.
    pub kind: SeqErrorKind,
}

impl std::fmt::Display for SeqError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self.kind {
            SeqErrorKind::Gap => "gap",
            SeqErrorKind::Duplicate => "duplicate",
        };
        write!(
            f,
            "audit seq {kind} at event {}: expected seq {}, found {}",
            self.index, self.expected, self.found
        )
    }
}

impl std::error::Error for SeqError {}

/// What a drained hold may keep and still close: the ledger's admission
/// slack, so reservations sharing a trace id cannot strand float residue.
const CLOSE_SLACK: f64 = 1e-12;

/// The replayed state of one `(analyst, dataset)` account, produced by
/// [`AuditLog::fold`] and kept live by the budget ledger.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AuditAccount {
    /// ε committed (a permanent spend).
    pub committed: f64,
    /// ε refunded back to the account.
    pub refunded: f64,
    /// ε reserved over the account's lifetime (gross, not outstanding).
    pub reserved: f64,
    /// Reservations refused.
    pub refusals: u64,
    /// Open holds as `(trace, ε)`, in reserve order.
    holds: Vec<(u64, f64)>,
}

impl AuditAccount {
    /// Folds one event into the account. A `Committed` or `Refunded`
    /// event closes the open hold of its trace holding exactly its ε (a
    /// whole resolution); otherwise it takes its ε from that trace's holds
    /// in reserve order, closing each one it empties to within the
    /// ledger's `1e-12` admission slack (the committed part of a split
    /// resolution leaves the rest, which its refund then matches exactly).
    /// An event with no hold of its trace open, such as one whose
    /// `Reserved` was compacted into a checkpoint, only moves
    /// `committed`/`refunded`: it never touches another trace's hold.
    pub fn apply(&mut self, event: &BudgetEvent) {
        match *event {
            BudgetEvent::Reserved { epsilon, trace, .. } => {
                self.reserved += epsilon;
                self.holds.push((trace, epsilon));
            }
            BudgetEvent::Committed { epsilon, trace, .. } => {
                self.committed += epsilon;
                self.release(trace, epsilon);
            }
            BudgetEvent::Refunded { epsilon, trace, .. } => {
                self.refunded += epsilon;
                self.release(trace, epsilon);
            }
            BudgetEvent::Refused { .. } => self.refusals += 1,
        }
    }

    fn release(&mut self, trace: u64, mut epsilon: f64) {
        if let Some(index) = self.holds.iter().position(|&hold| hold == (trace, epsilon)) {
            self.holds.remove(index);
            return;
        }
        self.holds.retain_mut(|(t, held)| {
            if *t != trace || epsilon <= 0.0 {
                true
            } else if *held <= epsilon + CLOSE_SLACK {
                epsilon -= *held;
                false
            } else {
                *held -= epsilon;
                epsilon = 0.0;
                true
            }
        });
    }

    /// ε currently held by unresolved reservations: the sum of the open
    /// holds in reserve order, exactly `0.0` when none is open.
    pub fn outstanding(&self) -> f64 {
        self.holds.iter().fold(0.0, |sum, &(_, epsilon)| sum + epsilon)
    }

    /// The open holds as `(trace, ε)`, in reserve order.
    pub fn holds(&self) -> &[(u64, f64)] {
        &self.holds
    }
}

/// The append-only budget audit log.
///
/// Appends assign the logical clock atomically and push under a short
/// mutex; reads copy. The log is bounded only by memory; the durable
/// ledger journals every event to its write-ahead log as well, and a
/// restart rebuilds the log from the WAL tail after the newest checkpoint.
#[derive(Debug, Default)]
pub struct AuditLog {
    clock: AtomicU64,
    events: Mutex<Vec<BudgetEvent>>,
}

impl AuditLog {
    /// Creates an empty log with the logical clock at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds a log from replayed events, preserving their seqs and
    /// setting the clock past the highest one — the WAL recovery path.
    /// Fresh appends continue the original numbering seamlessly.
    pub fn replay(events: Vec<BudgetEvent>) -> Self {
        let clock = events.iter().map(|e| e.seq() + 1).max().unwrap_or(0);
        AuditLog { clock: AtomicU64::new(clock), events: Mutex::new(events) }
    }

    /// Advances the logical clock to at least `to`. Used when a checkpoint
    /// recorded clock `to` but the tail after it is empty, so fresh appends
    /// never reuse a seq the compacted prefix already spent.
    pub fn advance_clock(&self, to: u64) {
        self.clock.fetch_max(to, Ordering::SeqCst);
    }

    /// The next logical-clock value (what the next append will be stamped
    /// with). Exposed so a ledger snapshot can record *as of which event*
    /// it was taken.
    pub fn clock(&self) -> u64 {
        self.clock.load(Ordering::SeqCst)
    }

    /// Stamps `event`'s `seq` with the next logical clock and appends it.
    /// Returns the assigned seq.
    ///
    /// Callers that need event order to match an external lock order (the
    /// budget ledger does) must call this while holding that lock.
    pub fn append(&self, mut event: BudgetEvent) -> u64 {
        let seq = self.clock.fetch_add(1, Ordering::SeqCst);
        match &mut event {
            BudgetEvent::Reserved { seq: s, .. }
            | BudgetEvent::Committed { seq: s, .. }
            | BudgetEvent::Refunded { seq: s, .. }
            | BudgetEvent::Refused { seq: s, .. } => *s = seq,
        }
        self.events.lock().expect("audit log poisoned").push(event);
        seq
    }

    /// Number of events in the log.
    pub fn len(&self) -> usize {
        self.events.lock().expect("audit log poisoned").len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A copy of every event, in append (= logical clock) order.
    pub fn events(&self) -> Vec<BudgetEvent> {
        self.events.lock().expect("audit log poisoned").clone()
    }

    /// Replays the log into per-account state — the fold the ledger
    /// snapshot is asserted against.
    pub fn fold(&self) -> BTreeMap<(String, String), AuditAccount> {
        let events = self.events.lock().expect("audit log poisoned");
        Self::fold_events(&events)
    }

    /// The same fold over an externally-held event stream (e.g. one a
    /// client collected).
    pub fn fold_events(events: &[BudgetEvent]) -> BTreeMap<(String, String), AuditAccount> {
        let mut accounts: BTreeMap<(String, String), AuditAccount> = BTreeMap::new();
        for event in events {
            let (analyst, dataset) = event.account();
            accounts.entry((analyst.to_string(), dataset.to_string())).or_default().apply(event);
        }
        accounts
    }

    /// Checks that the log's seqs are gap-free and duplicate-free,
    /// surfacing the first offender. An empty log is trivially contiguous.
    ///
    /// This is the WAL replay integrity gate: a recovered stream whose
    /// clocks skip or repeat means records were lost or re-delivered, and
    /// replaying it would produce wrong balances.
    pub fn verify_contiguous(&self) -> Result<(), SeqError> {
        let events = self.events.lock().expect("audit log poisoned");
        Self::verify_events_contiguous(&events, None)
    }

    /// The same check over an externally-held stream. When `start` is
    /// given the first event must carry exactly that seq (a WAL tail must
    /// start where its checkpoint's clock left off); otherwise the first
    /// event anchors the expectation.
    pub fn verify_events_contiguous(
        events: &[BudgetEvent],
        start: Option<u64>,
    ) -> Result<(), SeqError> {
        let anchor = match (events.first(), start) {
            (None, _) => return Ok(()),
            (Some(first), None) => first.seq(),
            (Some(_), Some(start)) => start,
        };
        for (index, event) in events.iter().enumerate() {
            let expected = anchor + index as u64;
            let found = event.seq();
            if found != expected {
                let kind =
                    if found > expected { SeqErrorKind::Gap } else { SeqErrorKind::Duplicate };
                return Err(SeqError { index, expected, found, kind });
            }
        }
        Ok(())
    }

    /// Serializes every event as a JSON array — the WAL-precursor dump.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(&self.events()).expect("audit events serialize infallibly")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reserved(analyst: &str, epsilon: f64, trace: u64) -> BudgetEvent {
        BudgetEvent::Reserved {
            seq: 0,
            analyst: analyst.into(),
            dataset: "d".into(),
            epsilon,
            mechanism: Some("Exponential".into()),
            trace,
        }
    }

    #[test]
    fn appends_assign_a_strictly_increasing_logical_clock() {
        let log = AuditLog::new();
        let a = log.append(reserved("alice", 0.2, 7));
        let b = log.append(BudgetEvent::Committed {
            seq: 99, // overwritten by append
            analyst: "alice".into(),
            dataset: "d".into(),
            epsilon: 0.2,
            mechanism: None,
            trace: 7,
        });
        assert!(b > a);
        let events = log.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].seq(), a);
        assert_eq!(events[1].seq(), b);
        assert_eq!(log.clock(), 2);
        assert_eq!(events[0].trace(), 7);
        assert_eq!(events[0].account(), ("alice", "d"));
    }

    #[test]
    fn fold_replays_reserve_commit_refund_into_balances() {
        let log = AuditLog::new();
        log.append(reserved("alice", 0.6, 1));
        log.append(BudgetEvent::Committed {
            seq: 0,
            analyst: "alice".into(),
            dataset: "d".into(),
            epsilon: 0.4,
            mechanism: Some("PermuteAndFlip".into()),
            trace: 1,
        });
        log.append(BudgetEvent::Refunded {
            seq: 0,
            analyst: "alice".into(),
            dataset: "d".into(),
            epsilon: 0.2,
            trace: 1,
        });
        log.append(BudgetEvent::Refused {
            seq: 0,
            analyst: "bob".into(),
            dataset: "d".into(),
            requested: 0.5,
            remaining: 0.1,
            trace: 2,
        });
        let folded = log.fold();
        let alice = &folded[&("alice".to_string(), "d".to_string())];
        assert!((alice.reserved - 0.6).abs() < 1e-12);
        assert!((alice.committed - 0.4).abs() < 1e-12);
        assert!((alice.refunded - 0.2).abs() < 1e-12);
        assert_eq!(alice.outstanding(), 0.0, "resolved traces leak no ε");
        let bob = &folded[&("bob".to_string(), "d".to_string())];
        assert_eq!(bob.refusals, 1);
        assert_eq!(bob.outstanding(), 0.0);
    }

    fn resolved(committed: bool, epsilon: f64, trace: u64) -> BudgetEvent {
        let (analyst, dataset) = ("alice".to_string(), "d".to_string());
        if committed {
            BudgetEvent::Committed { seq: 0, analyst, dataset, epsilon, mechanism: None, trace }
        } else {
            BudgetEvent::Refunded { seq: 0, analyst, dataset, epsilon, trace }
        }
    }

    fn fold_all(events: &[BudgetEvent]) -> AuditAccount {
        let mut account = AuditAccount::default();
        events.iter().for_each(|event| account.apply(event));
        account
    }

    #[test]
    fn a_split_resolution_closes_its_hold_exactly() {
        // reserved − committed − refunded reads −5.55e-17 here; the hold
        // closes instead.
        let account = fold_all(&[
            reserved("alice", 0.6, 1),
            resolved(true, 0.4, 1),
            resolved(false, 0.6 - 0.4, 1),
        ]);
        assert_eq!(account.outstanding(), 0.0);
        assert!(account.holds().is_empty());
        assert_eq!(account.committed, 0.4);
        assert_eq!(account.refunded, 0.6 - 0.4);
        // Halfway, the committed part leaves the rest held.
        let half = fold_all(&[reserved("alice", 0.6, 1), resolved(true, 0.4, 1)]);
        assert_eq!(half.holds(), &[(1, 0.6 - 0.4)]);
    }

    #[test]
    fn a_resolution_without_its_hold_never_cancels_another_traces_hold() {
        // Trace 1's Reserved was compacted into a checkpoint.
        let account = fold_all(&[reserved("alice", 0.3, 2), resolved(true, 0.4, 1)]);
        assert_eq!(account.committed, 0.4);
        assert_eq!(account.holds(), &[(2, 0.3)]);
        assert_eq!(account.outstanding(), 0.3);
        let account = fold_all(&[reserved("alice", 0.3, 2), resolved(false, 0.1, 1)]);
        assert_eq!(account.refunded, 0.1);
        assert_eq!(account.outstanding(), 0.3);
    }

    #[test]
    fn holds_sharing_a_trace_close_exactly_once_all_resolve() {
        // Two untraced reservations; the younger one resolves split first.
        let account = fold_all(&[
            reserved("alice", 0.5, 0),
            reserved("alice", 0.3, 0),
            resolved(true, 0.1, 0),
            resolved(false, 0.3 - 0.1, 0),
        ]);
        assert!((account.outstanding() - 0.5).abs() < 1e-12);
        let account = fold_all(&[
            reserved("alice", 0.5, 0),
            reserved("alice", 0.3, 0),
            resolved(true, 0.1, 0),
            resolved(false, 0.3 - 0.1, 0),
            resolved(true, 0.5, 0),
        ]);
        assert_eq!(account.outstanding(), 0.0);
        assert!(account.holds().is_empty());
    }

    #[test]
    fn verify_contiguous_accepts_an_empty_log() {
        let log = AuditLog::new();
        assert_eq!(log.verify_contiguous(), Ok(()));
        assert_eq!(AuditLog::verify_events_contiguous(&[], Some(7)), Ok(()));
    }

    #[test]
    fn verify_contiguous_accepts_dense_streams_from_any_anchor() {
        let log = AuditLog::new();
        log.append(reserved("alice", 0.1, 1));
        log.append(reserved("alice", 0.1, 2));
        log.append(reserved("bob", 0.1, 3));
        assert_eq!(log.verify_contiguous(), Ok(()));
        // A tail starting mid-history anchors at its own first seq…
        let tail: Vec<_> = log.events().into_iter().skip(1).collect();
        assert_eq!(AuditLog::verify_events_contiguous(&tail, None), Ok(()));
        // …and matches an explicit checkpoint clock.
        assert_eq!(AuditLog::verify_events_contiguous(&tail, Some(1)), Ok(()));
    }

    #[test]
    fn verify_contiguous_surfaces_the_first_gap() {
        let events = vec![
            reserved("alice", 0.1, 1).with_seq(0),
            reserved("alice", 0.1, 2).with_seq(1),
            reserved("alice", 0.1, 3).with_seq(4),
            reserved("alice", 0.1, 4).with_seq(5),
        ];
        let err = AuditLog::verify_events_contiguous(&events, None).unwrap_err();
        assert_eq!(err, SeqError { index: 2, expected: 2, found: 4, kind: SeqErrorKind::Gap });
        assert!(err.to_string().contains("gap"));
    }

    #[test]
    fn verify_contiguous_surfaces_the_first_duplicate() {
        let events = vec![
            reserved("alice", 0.1, 1).with_seq(3),
            reserved("alice", 0.1, 2).with_seq(4),
            reserved("alice", 0.1, 3).with_seq(4),
        ];
        let err = AuditLog::verify_events_contiguous(&events, None).unwrap_err();
        assert_eq!(
            err,
            SeqError { index: 2, expected: 5, found: 4, kind: SeqErrorKind::Duplicate }
        );
        assert!(err.to_string().contains("duplicate"));
    }

    #[test]
    fn verify_contiguous_pins_the_start_when_a_checkpoint_clock_is_given() {
        let events = vec![reserved("alice", 0.1, 1).with_seq(9)];
        let err = AuditLog::verify_events_contiguous(&events, Some(7)).unwrap_err();
        assert_eq!(err.kind, SeqErrorKind::Gap);
        assert_eq!(err.expected, 7);
        assert_eq!(err.found, 9);
    }

    #[test]
    fn replay_preserves_seqs_and_continues_the_clock() {
        let original = AuditLog::new();
        original.append(reserved("alice", 0.3, 1));
        original.append(reserved("bob", 0.2, 2));
        let rebuilt = AuditLog::replay(original.events());
        assert_eq!(rebuilt.events(), original.events());
        assert_eq!(rebuilt.clock(), original.clock());
        let next = rebuilt.append(reserved("carol", 0.1, 3));
        assert_eq!(next, 2, "fresh appends continue the original numbering");
        assert_eq!(rebuilt.verify_contiguous(), Ok(()));

        // An empty tail after a checkpoint: the clock advances to the
        // checkpoint's value so compacted seqs are never reissued.
        let empty = AuditLog::replay(Vec::new());
        empty.advance_clock(17);
        assert_eq!(empty.append(reserved("dave", 0.1, 4)), 17);
    }

    #[test]
    fn events_round_trip_through_json() {
        let log = AuditLog::new();
        log.append(reserved("alice", 0.25, 42));
        log.append(BudgetEvent::Refused {
            seq: 0,
            analyst: "eve".into(),
            dataset: "d".into(),
            requested: 1.0,
            remaining: 0.0,
            trace: 0,
        });
        let json = log.to_json();
        let back: Vec<BudgetEvent> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, log.events());
        assert!(json.contains("Reserved"));
        assert!(json.contains("Refused"));
        assert!(json.contains("Exponential"));
    }
}

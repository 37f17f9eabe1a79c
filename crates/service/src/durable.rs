//! Crash-safe budget accounting: the [`BudgetLedger`] journaled through a
//! [`pcor_wal::Wal`], with replay-on-startup recovery and warm-restart
//! state.
//!
//! # What is journaled
//!
//! Every audited [`BudgetEvent`] — reserve, commit, refund, refusal — is
//! appended to the WAL **inside the ledger-lock critical section**,
//! stamped with the audit log's logical clock. The on-disk record order is
//! therefore exactly the order the ledger folded the events in, and
//! the recovered stream is gap-free by construction
//! ([`AuditLog::verify_events_contiguous`] gates every replay).
//!
//! Under [`FsyncPolicy::OnCommit`] (the default) only `Committed` records
//! force an fsync: every acknowledged spend is durable *with its whole
//! prefix* (appends are sequential, so syncing a commit syncs everything
//! before it), while reserve/refund bookkeeping between commits may be
//! lost to a power failure — which recovery treats as "never happened",
//! the safe direction: a lost reserve held no released privacy.
//!
//! # Recovery
//!
//! [`DurableLedger::open`] replays the log: the newest checkpoint (if any)
//! restores each account's `(total, spent)` wholesale, and the event tail
//! is folded on top through [`AuditAccount::apply`], the step the live
//! ledger folds every event with. The holds the tail
//! leaves open are the reservations a crash left dangling — `Reserved`
//! with no matching `Committed`/`Refunded` — and each is refunded through
//! the ledger's one recording path, so its `Refunded` event lands in both
//! the audit log and the WAL. That refund makes recovery idempotent: a
//! second replay of the same log sees the hold closed and repairs
//! nothing. After a checkpointed restart the snapshot equals the
//! checkpoint plus the fold of the tail; without a checkpoint it equals
//! the fold of the whole log.
//!
//! [`AuditAccount::apply`]: pcor_telemetry::AuditAccount::apply
//!
//! # Warm restarts
//!
//! Checkpoints carry the registry's exported [`WarmState`] — the hot
//! GreedyDual entries of the starting-context cache — so a restarted
//! server re-seeds that cache ([`DurableLedger::seed_registry`]) instead
//! of re-paying fresh `f_M` discovery. Entries are validated against
//! dataset fingerprints at seed time; changed data drops its derived state.
//!
//! # Journal failures
//!
//! The journal fails **closed, but not forever**. A WAL write error is
//! first retried in place with bounded, jittered backoff
//! (`RETRY_ATTEMPTS` = 3 tries, `RETRY_BACKOFF` = 500 µs doubling up to
//! `RETRY_BACKOFF_MAX` = 10 ms) — a transient `EINTR`-class hiccup
//! recovers invisibly. When retries exhaust, the record moves to an
//! in-memory **backlog** (preserving audit order), the failing reserve is
//! rolled back and refused ([`crate::ServiceError::Durability`]), and a
//! consecutive-failure counter feeds a **circuit breaker**: after
//! `BREAKER_TRIP_AFTER` = 3 exhausted appends the breaker opens and the
//! ledger goes read-only — every reserve is refused up front
//! (`Journal::accepting_reserves`) without touching the disk. After
//! `BREAKER_COOLDOWN` = 250 ms the breaker half-opens: the next append is a
//! probe, and its success drains the backlog in order (so the on-disk log
//! remains a contiguous prefix of the audit log) and closes the breaker
//! again.
//!
//! In-flight resolutions still settle in memory across all of this (the
//! privacy was already released; refusing would change nothing); their
//! events wait in the backlog and land once the disk heals. Failures are
//! counted in the `pcor_wal_journal_errors` counter, and the breaker's
//! position, backlog and error count are reported by
//! [`DurableLedger::journal_health`].
//!
//! # Group commit
//!
//! Under [`FsyncPolicy::OnCommit`] the journal writes through a
//! [`GroupWal`]: commit-point appends return a [`CommitTicket`] instead of
//! fsyncing inside the ledger lock, and the ledger awaits durability
//! *after* releasing the lock — concurrent committers coalesce into one
//! fsync.

use crate::ledger::{BudgetLedger, LedgerEntry};
use crate::registry::{DatasetRegistry, WarmState};
use crate::{Result, ServiceError};
use pcor_faults::Faults;
use pcor_telemetry::{AuditLog, BudgetEvent, Counter, MetricsRegistry, Telemetry};
use pcor_wal::{CommitTicket, FsyncPolicy, GroupWal, Wal, WalOptions, WalStats};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Total write attempts per record (first try + retries) before the
/// record falls back to the backlog.
const RETRY_ATTEMPTS: u32 = 3;
/// Base delay of the exponential retry backoff (doubled per attempt,
/// jittered ±50%).
const RETRY_BACKOFF: Duration = Duration::from_micros(500);
/// Ceiling of the retry backoff.
const RETRY_BACKOFF_MAX: Duration = Duration::from_millis(10);
/// Consecutive exhausted appends that trip the circuit breaker into its
/// open (read-only) state.
const BREAKER_TRIP_AFTER: u32 = 3;
/// How long an open breaker refuses reserves before half-opening for a
/// probe write.
const BREAKER_COOLDOWN: Duration = Duration::from_millis(250);

/// Configuration of the durable ledger's WAL.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Directory holding the log segments; created if absent.
    pub dir: PathBuf,
    /// When records are flushed to stable storage.
    pub fsync: FsyncPolicy,
    /// Write a compaction checkpoint after this many journaled records
    /// (`0` disables automatic checkpoints; explicit
    /// [`DurableLedger::checkpoint`] calls still work).
    pub checkpoint_interval: u64,
    /// Fault-injection plan threaded into the WAL (disabled by default;
    /// the chaos tests use it to script disk failures).
    pub faults: Faults,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            dir: PathBuf::from("pcor-wal"),
            fsync: FsyncPolicy::OnCommit,
            checkpoint_interval: 4096,
            faults: Faults::disabled(),
        }
    }
}

impl WalConfig {
    /// A config rooted at `dir` with every other knob at its default.
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        WalConfig { dir: dir.into(), ..WalConfig::default() }
    }
}

/// Where the journal's circuit breaker stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: appends go straight to the WAL.
    Closed,
    /// Tripped: reserves are refused until the cooldown elapses.
    Open,
    /// Cooldown elapsed: the next append is a probe.
    HalfOpen,
}

impl BreakerState {
    /// The gauge encoding exported as `pcor_breaker_state`:
    /// 0 closed, 1 half-open, 2 open.
    pub fn gauge(self) -> f64 {
        match self {
            BreakerState::Closed => 0.0,
            BreakerState::HalfOpen => 1.0,
            BreakerState::Open => 2.0,
        }
    }
}

impl std::fmt::Display for BreakerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BreakerState::Closed => write!(f, "closed"),
            BreakerState::Open => write!(f, "open"),
            BreakerState::HalfOpen => write!(f, "half-open"),
        }
    }
}

/// A point-in-time report of the journal's failure-handling machinery,
/// surfaced through [`DurableLedger::journal_health`] and the server's
/// health endpoint.
#[derive(Debug, Clone)]
pub struct JournalHealth {
    /// Circuit-breaker position.
    pub breaker: BreakerState,
    /// Events waiting in memory for the disk to heal.
    pub backlog: usize,
    /// Appends that exhausted their retries since open.
    pub errors: u64,
    /// Appends that failed at least once but landed within their retry
    /// budget.
    pub retries_recovered: u64,
    /// Times the breaker tripped open.
    pub trips: u64,
    /// Whether a reserve offered right now would be accepted.
    pub accepting_reserves: bool,
}

enum Breaker {
    Closed,
    Open { until: Instant },
    HalfOpen,
}

struct JournalControl {
    breaker: Breaker,
    consecutive_failures: u32,
    /// Records that exhausted their retries, in audit order; flushed ahead
    /// of any new write so the disk never sees a gap.
    backlog: VecDeque<(Vec<u8>, bool)>,
    /// splitmix64 state for backoff jitter.
    jitter: u64,
}

impl JournalControl {
    /// `RETRY_BACKOFF · 2^attempt`, capped at `RETRY_BACKOFF_MAX`, jittered
    /// to 50–150% via splitmix64.
    fn backoff(&mut self, attempt: u32) -> Duration {
        self.jitter = self.jitter.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.jitter;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^= z >> 31;
        let exp = RETRY_BACKOFF.saturating_mul(1u32 << attempt.min(16));
        let capped = exp.min(RETRY_BACKOFF_MAX);
        let jitter_permille = 500 + (z % 1001); // 500..=1500
        capped.mul_f64(jitter_permille as f64 / 1000.0)
    }
}

/// The shared WAL handle the ledger journals through.
///
/// Failure handling is layered (see the module docs): bounded jittered
/// retries per append, an audit-ordered backlog for records the disk
/// refused, and a circuit breaker that turns repeated exhaustion into an
/// up-front read-only refusal with periodic half-open probes. The on-disk
/// log is always a contiguous prefix of the audit log: the backlog is
/// flushed, in order, before any younger record may land.
#[derive(Clone)]
pub(crate) struct Journal {
    wal: Arc<GroupWal>,
    control: Arc<Mutex<JournalControl>>,
    /// Appends refused or exhausted, also `retries_total{outcome="exhausted"}`.
    errors: Arc<Counter>,
    retries_exhausted: Arc<Counter>,
    retries_recovered: Arc<Counter>,
    trips: Arc<Counter>,
}

impl Journal {
    fn new(wal: Wal, registry: &MetricsRegistry) -> Self {
        for (name, help) in [
            ("pcor_wal_journal_errors", "Journal appends that exhausted their retries."),
            ("pcor_retries_total", "Journal append retries by outcome."),
            ("pcor_breaker_trips", "Times the journal breaker opened."),
        ] {
            registry.set_help(name, help);
        }
        let retries = |outcome| registry.counter("pcor_retries_total", &[("outcome", outcome)]);
        Journal {
            wal: Arc::new(GroupWal::new(wal)),
            control: Arc::new(Mutex::new(JournalControl {
                breaker: Breaker::Closed,
                consecutive_failures: 0,
                backlog: VecDeque::new(),
                jitter: 0x9e3779b97f4a7c15,
            })),
            errors: registry.counter("pcor_wal_journal_errors", &[]),
            retries_exhausted: retries("exhausted"),
            retries_recovered: retries("recovered"),
            trips: registry.counter("pcor_breaker_trips", &[]),
        }
    }

    /// Whether a reserve offered right now would be journaled: the breaker
    /// is closed, half-open (probing), or open with an elapsed cooldown.
    /// The ledger checks this before taking a hold, so an open breaker
    /// makes the service read-only without a doomed disk write.
    pub(crate) fn accepting_reserves(&self) -> bool {
        let control = self.control.lock().expect("journal control poisoned");
        match control.breaker {
            Breaker::Closed | Breaker::HalfOpen => true,
            Breaker::Open { until } => Instant::now() >= until,
        }
    }

    /// Serializes and appends one event. `commit_point` drives
    /// [`FsyncPolicy::OnCommit`]; the returned ticket must be passed to
    /// [`Journal::wait_durable`] (outside the ledger lock) before the
    /// commit is acknowledged.
    ///
    /// On failure the record is preserved in the backlog — the caller's
    /// audit append stands, and the disk catches up when it heals.
    pub(crate) fn append(&self, event: &BudgetEvent, commit_point: bool) -> Result<CommitTicket> {
        let payload = serde_json::to_string(event).expect("budget events serialize infallibly");
        let payload = payload.into_bytes();
        let mut control = self.control.lock().expect("journal control poisoned");

        match control.breaker {
            Breaker::Open { until } if Instant::now() < until => {
                control.backlog.push_back((payload, commit_point));
                self.count_error();
                return Err(ServiceError::Durability(
                    "journal breaker is open; record backlogged".to_string(),
                ));
            }
            Breaker::Open { .. } => control.breaker = Breaker::HalfOpen,
            _ => {}
        }

        if let Err(err) = self.flush_backlog(&mut control) {
            control.backlog.push_back((payload, commit_point));
            self.note_failure(&mut control);
            return Err(err);
        }
        match self.write_with_retries(&mut control, &payload, commit_point) {
            Ok(ticket) => {
                control.consecutive_failures = 0;
                control.breaker = Breaker::Closed;
                Ok(ticket)
            }
            Err(err) => {
                control.backlog.push_back((payload, commit_point));
                self.note_failure(&mut control);
                Err(err)
            }
        }
    }

    /// Blocks until `ticket`'s commit record is durable (no-op for empty
    /// tickets). Call after releasing the ledger lock so concurrent
    /// commits coalesce into one fsync.
    pub(crate) fn wait_durable(&self, ticket: CommitTicket) -> Result<()> {
        if !ticket.pending() {
            return Ok(());
        }
        self.wal.wait_durable(ticket).map_err(|err| {
            let mut control = self.control.lock().expect("journal control poisoned");
            self.note_failure(&mut control);
            ServiceError::Durability(err.to_string())
        })
    }

    /// One failed append or fsync: count it, and trip the breaker once the
    /// consecutive run reaches [`BREAKER_TRIP_AFTER`].
    fn note_failure(&self, control: &mut JournalControl) {
        self.count_error();
        control.consecutive_failures = control.consecutive_failures.saturating_add(1);
        if control.consecutive_failures >= BREAKER_TRIP_AFTER {
            if !matches!(control.breaker, Breaker::Open { .. }) {
                self.trips.inc();
            }
            control.breaker = Breaker::Open { until: Instant::now() + BREAKER_COOLDOWN };
        }
    }

    /// One append that did not land: an error and an exhausted retry.
    fn count_error(&self) {
        self.errors.inc();
        self.retries_exhausted.inc();
    }

    /// Drains the backlog in order. Stops (preserving the remainder) at
    /// the first record the disk still refuses.
    fn flush_backlog(&self, control: &mut JournalControl) -> Result<()> {
        while let Some((payload, commit_point)) = control.backlog.front().cloned() {
            let ticket = self.write_with_retries(control, &payload, commit_point)?;
            // Popped as soon as the append lands: a sync failure below
            // must not replay the frame (it is in the log; only its
            // durability is pending, and any later successful sync covers
            // it).
            control.backlog.pop_front();
            // Backlogged commits were acknowledged long ago; make them
            // durable inline rather than handing tickets nobody awaits.
            if ticket.pending() {
                self.wal
                    .wait_durable(ticket)
                    .map_err(|err| ServiceError::Durability(err.to_string()))?;
            }
        }
        Ok(())
    }

    /// Appends one frame with bounded, jittered exponential backoff.
    fn write_with_retries(
        &self,
        control: &mut JournalControl,
        payload: &[u8],
        commit_point: bool,
    ) -> Result<CommitTicket> {
        let mut last_err = None;
        for attempt in 0..RETRY_ATTEMPTS {
            match self.wal.append(payload, commit_point) {
                Ok(ticket) => {
                    if attempt > 0 {
                        self.retries_recovered.inc();
                    }
                    return Ok(ticket);
                }
                Err(err) => {
                    last_err = Some(err);
                    if attempt + 1 < RETRY_ATTEMPTS {
                        std::thread::sleep(control.backoff(attempt));
                    }
                }
            }
        }
        let err = last_err.expect("retry loop runs at least once");
        Err(ServiceError::Durability(err.to_string()))
    }

    pub(crate) fn checkpoint(&self, payload: &[u8]) -> Result<()> {
        let mut control = self.control.lock().expect("journal control poisoned");
        self.flush_backlog(&mut control)?;
        self.wal.checkpoint(payload).map_err(|err| {
            self.note_failure(&mut control);
            ServiceError::Durability(err.to_string())
        })
    }

    fn sync(&self) -> Result<()> {
        let mut control = self.control.lock().expect("journal control poisoned");
        self.flush_backlog(&mut control)?;
        self.wal.sync().map_err(|err| ServiceError::Durability(err.to_string()))
    }

    fn stats(&self) -> WalStats {
        self.wal.stats()
    }

    pub(crate) fn health(&self) -> JournalHealth {
        let control = self.control.lock().expect("journal control poisoned");
        let breaker = match control.breaker {
            Breaker::Closed => BreakerState::Closed,
            Breaker::HalfOpen => BreakerState::HalfOpen,
            Breaker::Open { until } => {
                if Instant::now() >= until {
                    BreakerState::HalfOpen
                } else {
                    BreakerState::Open
                }
            }
        };
        JournalHealth {
            breaker,
            backlog: control.backlog.len(),
            errors: self.errors.get(),
            retries_recovered: self.retries_recovered.get(),
            trips: self.trips.get(),
            accepting_reserves: !matches!(breaker, BreakerState::Open),
        }
    }
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let health = self.health();
        f.debug_struct("Journal")
            .field("breaker", &health.breaker)
            .field("backlog", &health.backlog)
            .field("errors", &health.errors)
            .finish()
    }
}

/// One account inside a [`LedgerCheckpoint`]. Outstanding reservations are
/// deliberately absent: at replay time an unresolved hold either resolves
/// in the tail (whose events land after the checkpoint) or died with the
/// process (and must be released).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct CheckpointAccount {
    analyst: String,
    dataset: String,
    total: f64,
    spent: f64,
}

/// The self-contained snapshot a checkpoint record carries: the audit
/// clock it was taken at (every tail event's seq is `≥ clock`,
/// contiguously — both are written under the ledger lock), the account
/// balances, and the warm cache state.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct LedgerCheckpoint {
    clock: u64,
    accounts: Vec<CheckpointAccount>,
    warm: WarmState,
}

/// What [`DurableLedger::open`] did to get the ledger back.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Tail events replayed (after the checkpoint, when one exists).
    pub events_replayed: usize,
    /// Whether a checkpoint anchored the replay.
    pub from_checkpoint: bool,
    /// The checkpoint's audit clock (0 without one).
    pub checkpoint_clock: u64,
    /// Accounts restored (checkpoint and tail combined).
    pub accounts_restored: usize,
    /// Dangling reservations refunded with synthesized events.
    pub dangling_refunded: usize,
    /// Total ε those refunds released back.
    pub refunded_epsilon: f64,
    /// Torn-tail bytes truncated during WAL recovery.
    pub truncated_bytes: u64,
    /// Wall time of the whole replay.
    pub replay_duration: Duration,
}

/// A [`BudgetLedger`] whose every decision is journaled to a WAL before
/// being acknowledged, rebuilt from that WAL on startup.
pub struct DurableLedger {
    ledger: BudgetLedger,
    journal: Journal,
    telemetry: Telemetry,
    config: WalConfig,
    report: RecoveryReport,
    /// Warm cache state recovered from the checkpoint, consumed by
    /// [`seed_registry`](DurableLedger::seed_registry).
    warm: Mutex<Option<WarmState>>,
    /// `pcor_wal_warm_seeded{cache="starting_context"}`.
    warm_seeded: Arc<Counter>,
    /// Serializes checkpoint writers; the auto path try-locks so request
    /// workers never queue behind a checkpoint already in progress.
    checkpoint_guard: Mutex<()>,
}

impl DurableLedger {
    /// Opens the WAL under `config`, replays it into `ledger`, and attaches
    /// the journal so every subsequent ledger decision is persisted.
    ///
    /// Grants ([`BudgetLedger::set_grant`]) must be configured on `ledger`
    /// *before* this call: accounts seen only in the event tail are
    /// restored against their configured grant.
    ///
    /// # Errors
    /// Returns [`ServiceError::Durability`] for WAL corruption, a
    /// non-contiguous event stream, undecodable records, or a failed
    /// repair write.
    pub fn open(config: WalConfig, ledger: BudgetLedger) -> Result<Self> {
        let started = Instant::now();
        let options = WalOptions {
            dir: config.dir.clone(),
            fsync: config.fsync,
            faults: config.faults.clone(),
            ..WalOptions::default()
        };
        let (wal, replay) = Wal::open(options).map_err(durability)?;

        let checkpoint: Option<LedgerCheckpoint> = match &replay.checkpoint {
            Some(bytes) => Some(decode(bytes, "checkpoint")?),
            None => None,
        };
        let mut events = Vec::with_capacity(replay.events.len());
        for bytes in &replay.events {
            events.push(decode::<BudgetEvent>(bytes, "event")?);
        }

        // Integrity gate: the tail must be gap- and duplicate-free, and
        // anchored exactly at the checkpoint's clock when one exists.
        let anchor = checkpoint.as_ref().map(|cp| cp.clock);
        AuditLog::verify_events_contiguous(&events, anchor).map_err(durability)?;

        // Rebuild the audit log with the original seqs; fresh appends
        // continue the numbering. An empty tail still advances the clock
        // past the compacted prefix.
        let audit = AuditLog::replay(events.clone());
        if let Some(cp) = &checkpoint {
            audit.advance_clock(cp.clock);
        }
        let telemetry = Telemetry::with_audit(audit);
        ledger.attach_telemetry(telemetry.clone());

        // Attach the journal before recovery, so the dangling refunds are
        // persisted like any live refund.
        let registry = telemetry.registry();
        let journal = Journal::new(wal, registry);
        ledger.attach_journal(journal.clone());

        // Restore the checkpoint accounts wholesale, then fold the tail on
        // top through the live fold step; the holds it leaves open are the
        // reservations a crash left dangling, and each is refunded through
        // the ledger's one recording path. The refund closes its hold in
        // the log too, so a second replay repairs nothing.
        if let Some(cp) = &checkpoint {
            for account in &cp.accounts {
                ledger.restore_account(
                    &account.analyst,
                    &account.dataset,
                    account.total,
                    account.spent,
                )?;
            }
        }
        let (accounts_restored, dangling_refunded, refunded_epsilon) = ledger.replay(&events)?;
        journal.sync()?;

        let report = RecoveryReport {
            events_replayed: events.len(),
            from_checkpoint: checkpoint.is_some(),
            checkpoint_clock: anchor.unwrap_or(0),
            accounts_restored,
            dangling_refunded,
            refunded_epsilon,
            truncated_bytes: replay.truncated_bytes,
            replay_duration: started.elapsed(),
        };
        let gauge = |name, help, value| {
            registry.set_help(name, help);
            registry.gauge(name, &[]).set(value);
        };
        let replayed = report.events_replayed as f64;
        gauge("pcor_wal_replay_events", "Events replayed by the last startup recovery.", replayed);
        let seconds = report.replay_duration.as_secs_f64();
        gauge("pcor_wal_replay_seconds", "Wall time of the last startup recovery.", seconds);
        let dangling = report.dangling_refunded as f64;
        let help = "Crash-dangling reservations refunded at recovery.";
        gauge("pcor_wal_dangling_refunded", help, dangling);
        let epsilon = report.refunded_epsilon;
        gauge("pcor_wal_refunded_epsilon", "Epsilon those dangling refunds released.", epsilon);
        registry
            .set_help("pcor_wal_warm_seeded", "Warm cache entries re-seeded from the checkpoint.");
        let warm_seeded =
            registry.counter("pcor_wal_warm_seeded", &[("cache", "starting_context")]);
        let warm = checkpoint.map(|cp| cp.warm).filter(|warm| !warm.is_empty());
        Ok(DurableLedger {
            ledger,
            journal,
            telemetry,
            config,
            report,
            warm: Mutex::new(warm),
            warm_seeded,
            checkpoint_guard: Mutex::new(()),
        })
    }

    /// The journaled ledger.
    pub fn ledger(&self) -> &BudgetLedger {
        &self.ledger
    }

    /// The telemetry bundle built around the replayed audit log.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// What recovery found and repaired.
    pub fn report(&self) -> &RecoveryReport {
        &self.report
    }

    /// Writer-side WAL statistics (records, bytes, fsyncs, segments,
    /// checkpoints).
    pub fn wal_stats(&self) -> WalStats {
        self.journal.stats()
    }

    /// The journal's breaker position, backlog depth and failure counters.
    pub fn journal_health(&self) -> JournalHealth {
        self.journal.health()
    }

    /// Starting contexts seeded into a registry so far.
    pub fn warm_seeded(&self) -> usize {
        self.warm_seeded.get() as usize
    }

    /// Seeds `registry`'s starting-context cache from the checkpoint's warm
    /// state, consuming it. Returns how many contexts were accepted;
    /// entries for missing or changed datasets are dropped (see
    /// [`DatasetRegistry::seed_warm_state`]). Call after registering
    /// datasets.
    pub fn seed_registry(&self, registry: &DatasetRegistry) -> usize {
        let Some(warm) = self.warm.lock().expect("warm state poisoned").take() else {
            return 0;
        };
        let seeded = registry.seed_warm_state(warm);
        self.warm_seeded.add(seeded as u64);
        seeded
    }

    /// Writes a compaction checkpoint: account balances plus (when a
    /// registry is given) its warm cache state. Replay afterwards is
    /// `O(checkpoint + tail)`. Returns the audit clock the checkpoint
    /// captured.
    ///
    /// # Errors
    /// Returns [`ServiceError::Durability`] when the WAL write fails.
    pub fn checkpoint(&self, registry: Option<&DatasetRegistry>) -> Result<u64> {
        let _guard = self.checkpoint_guard.lock().expect("checkpoint guard poisoned");
        self.write_checkpoint(registry)
    }

    /// Writes a checkpoint if at least `checkpoint_interval` records
    /// landed since the last one — the post-request auto-compaction hook.
    /// Skips (returning `Ok(None)`) when the interval has not elapsed or
    /// another checkpoint is already in progress.
    ///
    /// # Errors
    /// Returns [`ServiceError::Durability`] when the WAL write fails.
    pub fn maybe_checkpoint(&self, registry: Option<&DatasetRegistry>) -> Result<Option<u64>> {
        if self.config.checkpoint_interval == 0 {
            return Ok(None);
        }
        if self.journal.stats().records_since_checkpoint < self.config.checkpoint_interval {
            return Ok(None);
        }
        let Ok(_guard) = self.checkpoint_guard.try_lock() else {
            return Ok(None);
        };
        // Re-check under the guard: the checkpoint that just finished may
        // have reset the counter.
        if self.journal.stats().records_since_checkpoint < self.config.checkpoint_interval {
            return Ok(None);
        }
        self.write_checkpoint(registry).map(Some)
    }

    fn write_checkpoint(&self, registry: Option<&DatasetRegistry>) -> Result<u64> {
        let warm = registry.map(|r| r.export_warm_state()).unwrap_or_default();
        self.ledger.write_checkpoint(|clock, entries| {
            let accounts = entries
                .into_iter()
                .map(|entry: LedgerEntry| CheckpointAccount {
                    analyst: entry.analyst,
                    dataset: entry.dataset,
                    total: entry.total,
                    spent: entry.spent,
                })
                .collect();
            let checkpoint = LedgerCheckpoint { clock, accounts, warm };
            serde_json::to_string(&checkpoint)
                .expect("checkpoints serialize infallibly")
                .into_bytes()
        })
    }
}

impl std::fmt::Debug for DurableLedger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableLedger")
            .field("dir", &self.config.dir)
            .field("fsync", &self.config.fsync)
            .field("report", &self.report)
            .finish()
    }
}

fn durability(err: impl std::fmt::Display) -> ServiceError {
    ServiceError::Durability(err.to_string())
}

fn decode<T: Deserialize>(bytes: &[u8], what: &str) -> Result<T> {
    let text = std::str::from_utf8(bytes)
        .map_err(|err| ServiceError::Durability(format!("undecodable {what} record: {err}")))?;
    serde_json::from_str(text)
        .map_err(|err| ServiceError::Durability(format!("undecodable {what} record: {err}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn test_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let unique = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir()
            .join(format!("pcor-durable-{tag}-{}-{unique}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn open(dir: &Path, grant: f64) -> DurableLedger {
        DurableLedger::open(WalConfig::at(dir.to_path_buf()), BudgetLedger::new(grant)).unwrap()
    }

    #[test]
    fn committed_spend_survives_a_restart() {
        let dir = test_dir("commit");
        {
            let durable = open(&dir, 1.0);
            let ledger = durable.ledger();
            let r = ledger.reserve_traced("alice", "salary", 0.3, 1, None).unwrap();
            ledger.commit(r);
            let r = ledger.reserve_traced("alice", "salary", 0.2, 2, None).unwrap();
            ledger.refund(r);
        }
        let durable = open(&dir, 1.0);
        assert!((durable.ledger().spent("alice", "salary") - 0.3).abs() < 1e-12);
        assert!((durable.ledger().remaining("alice", "salary") - 0.7).abs() < 1e-12);
        assert_eq!(durable.report().events_replayed, 4);
        assert_eq!(durable.report().dangling_refunded, 0);
        // The restored balances reach the budget gauges before any new
        // movement does.
        let labels = &[("analyst", "alice"), ("dataset", "salary")];
        let registry = durable.telemetry().registry();
        assert_eq!(registry.gauge("pcor_budget_spent_epsilon", labels).get(), 0.3);
        assert_eq!(
            registry.gauge("pcor_budget_remaining_epsilon", labels).get(),
            durable.ledger().remaining("alice", "salary")
        );
        // The invariant the whole subsystem exists for:
        // snapshot ≡ fold(replayed events).
        let folded = durable.telemetry().audit().fold();
        for entry in durable.ledger().snapshot() {
            let account = &folded[&(entry.analyst.clone(), entry.dataset.clone())];
            assert_eq!(account.committed, entry.spent);
            assert_eq!(account.outstanding(), entry.reserved);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dangling_reservations_are_refunded_exactly_once() {
        let dir = test_dir("dangling");
        {
            let durable = open(&dir, 1.0);
            let ledger = durable.ledger();
            let r = ledger.reserve_traced("alice", "salary", 0.3, 1, None).unwrap();
            ledger.commit(r);
            // A crash mid-release: the reservation never resolves and its
            // drop-guard refund never runs.
            let dangling = ledger.reserve_traced("alice", "salary", 0.5, 2, None).unwrap();
            std::mem::forget(dangling);
        }
        let durable = open(&dir, 1.0);
        assert_eq!(durable.report().dangling_refunded, 1);
        assert!((durable.report().refunded_epsilon - 0.5).abs() < 1e-12);
        assert!((durable.ledger().spent("alice", "salary") - 0.3).abs() < 1e-12);
        assert!(
            (durable.ledger().remaining("alice", "salary") - 0.7).abs() < 1e-12,
            "the dangling 0.5 must be back"
        );
        let folded = durable.telemetry().audit().fold();
        let account = &folded[&("alice".to_string(), "salary".to_string())];
        assert_eq!(account.outstanding(), 0.0, "the recovery refund balances the log");
        drop(durable);

        // Idempotence: a second replay of the repaired log is a no-op.
        let durable = open(&dir, 1.0);
        assert_eq!(durable.report().dangling_refunded, 0, "repair must not repeat");
        assert!((durable.ledger().remaining("alice", "salary") - 0.7).abs() < 1e-12);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoints_bound_replay_to_the_tail() {
        let dir = test_dir("checkpoint");
        {
            let durable = open(&dir, 100.0);
            for i in 0..20u64 {
                let r =
                    durable.ledger().reserve_traced("alice", "salary", 0.1, i + 1, None).unwrap();
                durable.ledger().commit(r);
            }
            durable.checkpoint(None).unwrap();
            let r = durable.ledger().reserve_traced("alice", "salary", 0.1, 99, None).unwrap();
            durable.ledger().commit(r);
        }
        let durable = open(&dir, 100.0);
        assert!(durable.report().from_checkpoint);
        assert_eq!(durable.report().checkpoint_clock, 40);
        assert_eq!(durable.report().events_replayed, 2, "only the tail is replayed");
        assert!((durable.ledger().spent("alice", "salary") - 2.1).abs() < 1e-9);
        // Fresh appends continue the seq numbering past checkpoint + tail.
        let r = durable.ledger().reserve_traced("alice", "salary", 0.1, 100, None).unwrap();
        durable.ledger().commit(r);
        assert_eq!(durable.telemetry().audit().verify_contiguous(), Ok(()));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_reservation_straddling_a_checkpoint_replays_correctly() {
        let dir = test_dir("straddle");
        {
            let durable = open(&dir, 1.0);
            let held = durable.ledger().reserve_traced("alice", "salary", 0.4, 1, None).unwrap();
            // Checkpoint while the reservation is in flight: its Reserved
            // event is compacted away, its Committed lands in the tail.
            durable.checkpoint(None).unwrap();
            // A second hold in the same account, left dangling by a crash:
            // the straddling commit must not cancel it.
            let dangling =
                durable.ledger().reserve_traced("alice", "salary", 0.3, 2, None).unwrap();
            std::mem::forget(dangling);
            durable.ledger().commit(held);
        }
        let durable = open(&dir, 1.0);
        assert_eq!(durable.ledger().spent("alice", "salary"), 0.4);
        assert_eq!(
            durable.report().dangling_refunded,
            1,
            "only the dangling hold is refunded; a tail commit without its Reserved is not dangling"
        );
        assert_eq!(durable.report().refunded_epsilon, 0.3);
        assert_eq!(durable.ledger().remaining("alice", "salary"), 1.0 - 0.4);
        assert_eq!(durable.ledger().snapshot()[0].reserved, 0.0);
        drop(durable);

        // The refund closed the hold in the log: a second reopen repairs
        // nothing.
        let durable = open(&dir, 1.0);
        assert_eq!(durable.report().dangling_refunded, 0);
        assert_eq!(durable.report().refunded_epsilon, 0.0);
        assert_eq!(durable.ledger().remaining("alice", "salary"), 1.0 - 0.4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_checkpoint_with_a_retired_warm_cache_still_loads() {
        use crate::registry::DatasetRegistry;
        use pcor_data::{Attribute, Dataset, Record, Schema};
        use pcor_outlier::DetectorKind;
        // Record 0 is extreme inside its a0 cell.
        let toy = || {
            let values = [Attribute::from_values("A", &["a0", "a1"])];
            let schema = Schema::new(values.to_vec(), "M").unwrap();
            let mut records = vec![Record::new(vec![0], 900.0)];
            records.extend((0..40).map(|i| Record::new(vec![i % 2], 100.0 + (i % 7) as f64)));
            Dataset::new(schema, records).unwrap()
        };
        let detector = DetectorKind::ZScore;
        let utility = pcor_dp::PopulationSizeUtility;
        let reference =
            pcor_core::enumerate_coe(&toy(), 0, detector.build().as_ref(), &utility, 22).unwrap();
        let context = reference.entries[0].context.clone();
        let dir = test_dir("old-warm");
        {
            let durable = open(&dir, 1.0);
            let registry = DatasetRegistry::new();
            registry.register("toy", toy());
            registry.store_starting_context("toy", 0, detector, context.clone(), 5);
            let warm = registry.export_warm_state();
            // Checkpoints used to carry a second warm cache of whole
            // `COE_M` enumerations under its own key; write one that way.
            let old_entry = format!(
                r#"{{"dataset":"toy","record_id":0,"detector":{},"reference":{},"cost":{}}}"#,
                serde_json::to_string(&detector).unwrap(),
                serde_json::to_string(&reference).unwrap(),
                reference.contexts_examined,
            );
            durable
                .ledger()
                .write_checkpoint(|clock, _| {
                    let checkpoint = LedgerCheckpoint { clock, accounts: Vec::new(), warm };
                    let json = serde_json::to_string(&checkpoint).unwrap();
                    let open = json.strip_suffix("}}").expect("warm is the last field");
                    format!(r#"{open},"reference_files":[{old_entry}]}}}}"#).into_bytes()
                })
                .unwrap();
        }
        let durable = open(&dir, 1.0);
        assert!(durable.report().from_checkpoint);
        let restarted = DatasetRegistry::new();
        restarted.register("toy", toy());
        assert_eq!(durable.seed_registry(&restarted), 1);
        assert_eq!(durable.warm_seeded(), 1);
        assert_eq!(restarted.cached_starting_context("toy", 0, detector), Some(context));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn auto_checkpoints_fire_on_the_configured_interval() {
        let dir = test_dir("auto");
        let config = WalConfig { checkpoint_interval: 6, ..WalConfig::at(dir.clone()) };
        let durable = DurableLedger::open(config, BudgetLedger::new(10.0)).unwrap();
        for i in 0..4u64 {
            let r = durable.ledger().reserve_traced("alice", "salary", 0.1, i + 1, None).unwrap();
            durable.ledger().commit(r);
            // 2 records per round trip: the interval elapses after round 3.
            durable.maybe_checkpoint(None).unwrap();
        }
        assert_eq!(durable.wal_stats().checkpoints, 1);
        assert!(durable.wal_stats().records_since_checkpoint < 6);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_corrupt_log_is_refused_not_misread() {
        let dir = test_dir("corrupt");
        {
            let durable = open(&dir, 1.0);
            let r = durable.ledger().reserve_traced("alice", "salary", 0.3, 1, None).unwrap();
            durable.ledger().commit(r);
            let r = durable.ledger().reserve_traced("alice", "salary", 0.3, 2, None).unwrap();
            durable.ledger().commit(r);
        }
        // Flip one byte inside the first record, leaving intact data after
        // it — mid-log corruption.
        let segment = dir.join("wal-00000000000000000000.seg");
        let mut bytes = std::fs::read(&segment).unwrap();
        bytes[12] ^= 0x20;
        std::fs::write(&segment, &bytes).unwrap();
        match DurableLedger::open(WalConfig::at(dir.clone()), BudgetLedger::new(1.0)) {
            Err(ServiceError::Durability(msg)) => {
                assert!(msg.contains("corrupt"), "got: {msg}");
            }
            other => panic!("expected a durability refusal, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn grants_configured_before_open_shape_tail_only_accounts() {
        let dir = test_dir("grants");
        {
            let ledger = BudgetLedger::new(1.0);
            ledger.set_grant("vip", "salary", 5.0);
            let durable = DurableLedger::open(WalConfig::at(dir.clone()), ledger).unwrap();
            let r = durable.ledger().reserve_traced("vip", "salary", 2.0, 1, None).unwrap();
            durable.ledger().commit(r);
        }
        let ledger = BudgetLedger::new(1.0);
        ledger.set_grant("vip", "salary", 5.0);
        let durable = DurableLedger::open(WalConfig::at(dir.clone()), ledger).unwrap();
        assert!((durable.ledger().remaining("vip", "salary") - 3.0).abs() < 1e-12);
        // A grant shrunk below the recorded spend never un-spends.
        let ledger = BudgetLedger::new(1.0);
        let durable = DurableLedger::open(WalConfig::at(dir.clone()), ledger).unwrap();
        assert!((durable.ledger().spent("vip", "salary") - 2.0).abs() < 1e-12);
        assert!(durable.ledger().remaining("vip", "salary") >= 0.0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn exhausted_appends_trip_the_breaker_and_a_probe_drains_the_backlog() {
        use pcor_faults::{site, FaultKind, FaultPlan};
        let dir = test_dir("breaker");
        // Hits 1-2 (one clean reserve/commit) land; hits 3-11 fail, which is
        // exactly three appends that exhaust all `RETRY_ATTEMPTS` tries.
        let mut plan = FaultPlan::scripted(Vec::new());
        for hit in 3..=11 {
            plan = plan.at(site::WAL_APPEND, hit, FaultKind::IoError);
        }
        let faults = plan.build();
        let config = WalConfig { faults: faults.clone(), ..WalConfig::at(dir.clone()) };
        let durable = DurableLedger::open(config, BudgetLedger::new(1.0)).unwrap();
        let ledger = durable.ledger();
        let r = ledger.reserve_traced("alice", "salary", 0.1, 1, None).unwrap();
        ledger.commit(r);
        assert_eq!(faults.hits(site::WAL_APPEND), 2);

        // Exhausted appends 1 and 2: the reserve and its rollback refund.
        // The reserve is refused and both records wait in the backlog.
        match ledger.reserve_traced("alice", "salary", 0.2, 2, None) {
            Err(ServiceError::Durability(_)) => {}
            other => panic!("expected a durability refusal, got {other:?}"),
        }
        let health = durable.journal_health();
        assert_eq!((health.breaker, health.backlog, health.errors), (BreakerState::Closed, 2, 2));
        assert!(health.accepting_reserves);

        // Exhausted append 3 trips the breaker; the rollback refund that
        // follows is backlogged without touching the disk.
        assert!(matches!(
            ledger.reserve_traced("alice", "salary", 0.2, 3, None),
            Err(ServiceError::Durability(_))
        ));
        assert_eq!(faults.hits(site::WAL_APPEND), 11);
        let health = durable.journal_health();
        assert_eq!(health.breaker, BreakerState::Open);
        assert!(!health.accepting_reserves);
        assert_eq!((health.backlog, health.errors, health.trips), (4, 4, 1));

        // Read-only: a reserve is refused up front, without a write.
        assert!(matches!(
            ledger.reserve_traced("alice", "salary", 0.2, 4, None),
            Err(ServiceError::Durability(_))
        ));
        assert_eq!(faults.hits(site::WAL_APPEND), 11, "an open breaker must not touch the disk");
        assert_eq!(durable.journal_health().backlog, 4);

        // After the cooldown the breaker half-opens, and a clean probe
        // drains the backlog ahead of its own record and closes it.
        std::thread::sleep(BREAKER_COOLDOWN);
        assert_eq!(durable.journal_health().breaker, BreakerState::HalfOpen);
        let r = ledger.reserve_traced("alice", "salary", 0.3, 5, None).unwrap();
        ledger.commit(r);
        assert_eq!(faults.hits(site::WAL_APPEND), 11 + 4 + 2);
        let health = durable.journal_health();
        assert_eq!((health.breaker, health.backlog), (BreakerState::Closed, 0));
        assert!(health.accepting_reserves);

        // The drained log is the audit log, in order: a reopen replays it
        // contiguously to the live committed ε.
        let live_events = durable.telemetry().audit().events();
        let live_spent = ledger.spent("alice", "salary");
        assert!((live_spent - 0.4).abs() < 1e-12);
        drop(durable);
        let reopened = open(&dir, 1.0);
        assert_eq!(reopened.report().dangling_refunded, 0);
        assert_eq!(reopened.telemetry().audit().events(), live_events);
        assert_eq!(reopened.ledger().spent("alice", "salary"), live_spent);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

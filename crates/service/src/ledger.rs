//! Per-analyst, per-dataset privacy-budget accounting.
//!
//! The custodian grants every analyst an OCDP budget **per dataset** (the
//! guarantee composes sequentially across an analyst's queries against the
//! same data; queries against disjoint datasets do not compose). The ledger
//! maps `(analyst, dataset)` to a [`pcor_dp::BudgetAccountant`] and drives
//! its two-phase protocol:
//!
//! 1. [`reserve`](BudgetLedger::reserve) — atomically check-and-hold the
//!    request's ε; concurrent requests see each other's holds, so the sum
//!    of in-flight and committed ε can never exceed the grant;
//! 2. [`commit`](BudgetLedger::commit) when the release succeeded, or
//!    [`refund`](BudgetLedger::refund) when it failed before invoking any
//!    private mechanism.
//!
//! Dropping a [`Reservation`] without committing refunds it automatically,
//! so a panicking worker cannot leak budget.
//!
//! # Audit log and ordering
//!
//! With a [`Telemetry`] bundle attached
//! ([`attach_telemetry`](BudgetLedger::attach_telemetry)), every ε movement
//! appends a [`BudgetEvent`] to the bundle's audit log **while holding the
//! ledger lock**. The audit log's logical clock therefore totally orders
//! the events exactly as the accountant applied them: folding the events
//! replays every account's state, and a [`snapshot`](BudgetLedger::snapshot)
//! (also taken under the lock) is always consistent with the prefix of the
//! log visible at that instant — the invariant
//! `snapshot ≡ fold(audit events)` the service tests assert, and the
//! ground the ROADMAP's write-ahead ledger will replay from. Per-account
//! `pcor_budget_spent_epsilon` / `pcor_budget_remaining_epsilon` gauges are
//! refreshed on the same occasions.

use crate::durable::Journal;
use crate::{Result, ServiceError};
use pcor_dp::BudgetAccountant;
use pcor_telemetry::{BudgetEvent, Telemetry};
use pcor_wal::CommitTicket;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// The key of one budget account.
type AccountKey = (String, String);

#[derive(Debug)]
struct LedgerInner {
    accounts: HashMap<AccountKey, BudgetAccountant>,
    grants: HashMap<AccountKey, f64>,
    /// Attached observability bundle; events and gauges are emitted under
    /// the ledger lock so audit order equals accountant order.
    telemetry: Option<Telemetry>,
    /// Attached WAL journal; every audited event is appended here, still
    /// under the ledger lock, so the on-disk order equals the audit order.
    journal: Option<Journal>,
}

impl LedgerInner {
    /// Refreshes the account's spent/remaining gauges (no-op when no
    /// telemetry is attached or the account does not exist).
    fn publish_gauges(&self, key: &AccountKey) {
        let (Some(telemetry), Some(account)) = (&self.telemetry, self.accounts.get(key)) else {
            return;
        };
        let labels = &[("analyst", key.0.as_str()), ("dataset", key.1.as_str())];
        let registry = telemetry.registry();
        registry.gauge("pcor_budget_spent_epsilon", labels).set(account.spent());
        registry.gauge("pcor_budget_remaining_epsilon", labels).set(account.remaining());
    }
}

/// Thread-safe per-`(analyst, dataset)` budget accounting.
///
/// Cloning is cheap and **shares** state: every clone meters the same
/// accounts, grants, telemetry and journal — the seam that lets a
/// [`crate::DurableLedger`] own the ledger it journals while the server
/// holds its own handle to the very same accounts.
#[derive(Clone)]
pub struct BudgetLedger {
    inner: Arc<Mutex<LedgerInner>>,
    default_grant: f64,
}

/// A snapshot of one account, as reported by [`BudgetLedger::snapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LedgerEntry {
    /// The analyst principal.
    pub analyst: String,
    /// The dataset the grant applies to.
    pub dataset: String,
    /// Total granted ε.
    pub total: f64,
    /// Committed (irrevocably spent) ε.
    pub spent: f64,
    /// ε held by in-flight requests.
    pub reserved: f64,
    /// ε still available.
    pub remaining: f64,
}

/// A held portion of an analyst's budget for one in-flight request.
///
/// Must be resolved with [`BudgetLedger::commit`] or
/// [`BudgetLedger::refund`]; dropping it unresolved refunds automatically.
#[derive(Debug)]
pub struct Reservation {
    key: AccountKey,
    epsilon: f64,
    inner: Arc<Mutex<LedgerInner>>,
    resolved: bool,
    /// The trace id of the release holding this ε (0 = untraced); carried
    /// into the audit events so reserve/commit/refund of one release link.
    trace: u64,
    /// The DP mechanism of the release, when the caller knows it.
    mechanism: Option<String>,
}

impl Reservation {
    /// The analyst holding the reservation.
    pub fn analyst(&self) -> &str {
        &self.key.0
    }

    /// The dataset the reservation is against.
    pub fn dataset(&self) -> &str {
        &self.key.1
    }

    /// The held ε.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The trace id this reservation's audit events carry (0 = untraced).
    pub fn trace(&self) -> u64 {
        self.trace
    }

    fn resolve(&mut self, commit: bool) -> Option<(Journal, CommitTicket)> {
        self.resolve_split(if commit { self.epsilon } else { 0.0 })
    }

    /// Commits `spend` of the held ε and refunds the rest, atomically under
    /// the ledger lock. `spend = 0` refunds everything; `spend = ε` commits
    /// everything.
    ///
    /// Under group commit a spend's journal append defers its fsync; the
    /// returned `(journal, ticket)` pair must be awaited **after** the
    /// ledger lock is released so concurrent commits share one flush.
    fn resolve_split(&mut self, spend: f64) -> Option<(Journal, CommitTicket)> {
        if self.resolved {
            return None;
        }
        self.resolved = true;
        let spend = spend.clamp(0.0, self.epsilon);
        let refund = self.epsilon - spend;
        let mut pending = None;
        let mut inner = self.inner.lock().expect("ledger poisoned");
        if let Some(account) = inner.accounts.get_mut(&self.key) {
            let outcome = account.settle(self.epsilon, spend);
            debug_assert!(outcome.is_ok(), "reservation resolution violated the protocol");
        }
        // Audit while still holding the lock: event order == account order.
        // The commit/refund has already been applied to the accountant (the
        // privacy, if any, is already released), so journaling here is
        // best-effort: a WAL failure parks the event in the journal's
        // backlog — subsequent *reserves* refuse while the breaker is
        // open — but cannot un-resolve.
        if let Some(telemetry) = &inner.telemetry {
            if spend > 0.0 {
                let event = BudgetEvent::Committed {
                    seq: 0,
                    analyst: self.key.0.clone(),
                    dataset: self.key.1.clone(),
                    epsilon: spend,
                    mechanism: self.mechanism.clone(),
                    trace: self.trace,
                };
                let seq = telemetry.audit().append(event.clone());
                if let Some(journal) = &inner.journal {
                    if let Ok(ticket) = journal.append(&event.with_seq(seq), true) {
                        if ticket.pending() {
                            pending = Some((journal.clone(), ticket));
                        }
                    }
                }
            }
            if refund > 0.0 {
                let event = BudgetEvent::Refunded {
                    seq: 0,
                    analyst: self.key.0.clone(),
                    dataset: self.key.1.clone(),
                    epsilon: refund,
                    trace: self.trace,
                };
                let seq = telemetry.audit().append(event.clone());
                if let Some(journal) = &inner.journal {
                    let _ = journal.append(&event.with_seq(seq), false);
                }
            }
        }
        inner.publish_gauges(&self.key);
        pending
    }
}

impl Drop for Reservation {
    fn drop(&mut self) {
        // An unresolved reservation means the request died before the
        // release ran to completion; no privacy was released, so refund.
        // Refunds never carry a commit ticket, so there is nothing to
        // await here.
        let pending = self.resolve(false);
        debug_assert!(pending.is_none(), "a refund must not defer an fsync");
    }
}

impl BudgetLedger {
    /// Creates a ledger granting every `(analyst, dataset)` pair
    /// `default_grant` of ε unless overridden with
    /// [`set_grant`](BudgetLedger::set_grant).
    pub fn new(default_grant: f64) -> Self {
        assert!(default_grant.is_finite() && default_grant > 0.0, "default grant must be positive");
        BudgetLedger {
            inner: Arc::new(Mutex::new(LedgerInner {
                accounts: HashMap::new(),
                grants: HashMap::new(),
                telemetry: None,
                journal: None,
            })),
            default_grant,
        }
    }

    /// Attaches an observability bundle: from here on, every ε movement
    /// appends a [`BudgetEvent`] to the bundle's audit log and refreshes
    /// the per-account spent/remaining gauges (see the module docs for the
    /// ordering guarantee).
    pub fn attach_telemetry(&self, telemetry: Telemetry) {
        let mut inner = self.inner.lock().expect("ledger poisoned");
        inner.telemetry = Some(telemetry);
    }

    /// The attached observability bundle, if any. The durable startup path
    /// builds its [`Telemetry`] around the replayed audit log and the
    /// server reuses it instead of creating a fresh (empty) one.
    pub fn telemetry(&self) -> Option<Telemetry> {
        self.inner.lock().expect("ledger poisoned").telemetry.clone()
    }

    /// Attaches a WAL journal: from here on every audited [`BudgetEvent`]
    /// is also appended to the journal under the ledger lock. Requires an
    /// attached [`Telemetry`] (the journal copies the audit log's seqs); a
    /// journal without telemetry journals nothing.
    pub(crate) fn attach_journal(&self, journal: Journal) {
        let mut inner = self.inner.lock().expect("ledger poisoned");
        inner.journal = Some(journal);
    }

    /// Restores one account to `(total, spent)` during WAL recovery,
    /// without emitting audit events or journal records (the events that
    /// justify this state are the ones just replayed).
    ///
    /// A `spent` exceeding `total` (a grant shrunk between runs) raises the
    /// restored total to `spent`: committed ε is never un-spent.
    ///
    /// # Errors
    /// Returns [`ServiceError::Durability`] when the pair cannot form a
    /// valid accountant (non-finite or negative values).
    pub(crate) fn restore_account(
        &self,
        analyst: &str,
        dataset: &str,
        total: f64,
        spent: f64,
    ) -> Result<()> {
        if !total.is_finite() || !spent.is_finite() || spent < -1e-12 {
            return Err(ServiceError::Durability(format!(
                "cannot restore account ({analyst}, {dataset}): total {total}, spent {spent}"
            )));
        }
        let spent = spent.max(0.0);
        let total = total.max(spent).max(f64::MIN_POSITIVE);
        let mut account = BudgetAccountant::new(total).map_err(|err| {
            ServiceError::Durability(format!(
                "cannot restore account ({analyst}, {dataset}): {err}"
            ))
        })?;
        if spent > 0.0 {
            account.reserve(spent).and_then(|()| account.commit(spent)).map_err(|err| {
                ServiceError::Durability(format!(
                    "cannot restore account ({analyst}, {dataset}): {err}"
                ))
            })?;
        }
        let mut inner = self.inner.lock().expect("ledger poisoned");
        let key = (analyst.to_string(), dataset.to_string());
        inner.accounts.insert(key.clone(), account);
        inner.publish_gauges(&key);
        Ok(())
    }

    /// Appends a synthesized `Refunded` event for a dangling reservation
    /// found during WAL recovery — audited and journaled like a live
    /// refund, but without touching the accountant (the restored account
    /// already excludes the dangling hold).
    ///
    /// # Errors
    /// Returns [`ServiceError::Durability`] when the journal refuses the
    /// record: recovery must not acknowledge a repair it could not persist.
    pub(crate) fn synthesize_refund(
        &self,
        analyst: &str,
        dataset: &str,
        epsilon: f64,
        trace: u64,
    ) -> Result<()> {
        let inner = self.inner.lock().expect("ledger poisoned");
        let Some(telemetry) = &inner.telemetry else {
            return Err(ServiceError::Durability(
                "cannot synthesize a refund without telemetry".to_string(),
            ));
        };
        let event = BudgetEvent::Refunded {
            seq: 0,
            analyst: analyst.to_string(),
            dataset: dataset.to_string(),
            epsilon,
            trace,
        };
        let seq = telemetry.audit().append(event.clone());
        if let Some(journal) = &inner.journal {
            let ticket = journal.append(&event.with_seq(seq), true)?;
            journal.wait_durable(ticket)?;
        }
        Ok(())
    }

    /// Writes a compaction checkpoint through the attached journal, under
    /// the ledger lock so the snapshot is serialized against event
    /// appends: every journaled event after the checkpoint carries a seq
    /// `≥` the returned clock, contiguously.
    ///
    /// `build` receives the audit clock and the account snapshot and
    /// returns the serialized checkpoint payload. Returns the clock.
    ///
    /// # Errors
    /// Returns [`ServiceError::Durability`] without a journal or when the
    /// WAL write fails.
    pub(crate) fn write_checkpoint(
        &self,
        build: impl FnOnce(u64, Vec<LedgerEntry>) -> Vec<u8>,
    ) -> Result<u64> {
        let inner = self.inner.lock().expect("ledger poisoned");
        let Some(journal) = &inner.journal else {
            return Err(ServiceError::Durability("no journal attached".to_string()));
        };
        let clock = inner.telemetry.as_ref().map(|t| t.audit().clock()).unwrap_or(0);
        let entries: Vec<LedgerEntry> = inner
            .accounts
            .iter()
            .map(|((analyst, dataset), account)| LedgerEntry {
                analyst: analyst.clone(),
                dataset: dataset.clone(),
                total: account.total(),
                spent: account.spent(),
                reserved: account.reserved(),
                remaining: account.remaining(),
            })
            .collect();
        let payload = build(clock, entries);
        journal.checkpoint(&payload)?;
        Ok(clock)
    }

    /// Overrides the grant for one `(analyst, dataset)` pair. Takes effect
    /// when the account is first touched; an already-opened account keeps
    /// its original grant (budgets are immutable once spending starts).
    pub fn set_grant(&self, analyst: &str, dataset: &str, epsilon: f64) {
        assert!(epsilon.is_finite() && epsilon > 0.0, "grant must be positive");
        let mut inner = self.inner.lock().expect("ledger poisoned");
        inner.grants.insert((analyst.to_string(), dataset.to_string()), epsilon);
    }

    /// Atomically reserves `epsilon` from the analyst's account for the
    /// dataset, opening the account at its grant on first touch.
    ///
    /// # Errors
    /// Returns [`ServiceError::BudgetExhausted`] when the account cannot
    /// cover the request and [`ServiceError::InvalidRequest`] for
    /// non-positive ε.
    pub fn reserve(&self, analyst: &str, dataset: &str, epsilon: f64) -> Result<Reservation> {
        self.reserve_traced(analyst, dataset, epsilon, 0, None)
    }

    /// [`reserve`](BudgetLedger::reserve) with provenance: the trace id and
    /// mechanism are carried into the reservation's audit events so the
    /// whole reserve → commit/refund arc of one release links up. A trace
    /// id of 0 means untraced.
    ///
    /// # Errors
    /// Same contract as [`reserve`](BudgetLedger::reserve).
    pub fn reserve_traced(
        &self,
        analyst: &str,
        dataset: &str,
        epsilon: f64,
        trace: u64,
        mechanism: Option<String>,
    ) -> Result<Reservation> {
        if !epsilon.is_finite() || epsilon <= 0.0 {
            return Err(ServiceError::InvalidRequest(format!(
                "epsilon must be positive, got {epsilon}"
            )));
        }
        let key = (analyst.to_string(), dataset.to_string());
        let mut inner = self.inner.lock().expect("ledger poisoned");
        // Fail-closed read-only mode: while the journal's circuit breaker
        // is open, refuse the reserve before taking a hold — no doomed
        // disk write, no rollback churn.
        if let Some(journal) = &inner.journal {
            if !journal.accepting_reserves() {
                return Err(ServiceError::Durability(
                    "journal breaker is open; the ledger is read-only".to_string(),
                ));
            }
        }
        let grant = inner.grants.get(&key).copied().unwrap_or(self.default_grant);
        let account = inner
            .accounts
            .entry(key.clone())
            .or_insert_with(|| BudgetAccountant::new(grant).expect("grant validated above"));
        match account.reserve(epsilon) {
            Ok(()) => {
                let mut journal_error = None;
                if let Some(telemetry) = &inner.telemetry {
                    let event = BudgetEvent::Reserved {
                        seq: 0,
                        analyst: key.0.clone(),
                        dataset: key.1.clone(),
                        epsilon,
                        mechanism: mechanism.clone(),
                        trace,
                    };
                    let seq = telemetry.audit().append(event.clone());
                    if let Some(journal) = &inner.journal {
                        if let Err(err) = journal.append(&event.with_seq(seq), false) {
                            journal_error = Some(err);
                        }
                    }
                }
                if let Some(err) = journal_error {
                    // The hold could not be made durable *now*: roll it
                    // back and refuse the request rather than serve a
                    // release the restarted ledger might not remember.
                    // Both the rollback and the failed reserve are offered
                    // to the journal — its backlog preserves them in audit
                    // order, so when the disk heals the WAL is still a
                    // contiguous prefix of the audit log.
                    if let Some(account) = inner.accounts.get_mut(&key) {
                        let _ = account.refund(epsilon);
                    }
                    if let Some(telemetry) = &inner.telemetry {
                        let event = BudgetEvent::Refunded {
                            seq: 0,
                            analyst: key.0.clone(),
                            dataset: key.1.clone(),
                            epsilon,
                            trace,
                        };
                        let seq = telemetry.audit().append(event.clone());
                        if let Some(journal) = &inner.journal {
                            let _ = journal.append(&event.with_seq(seq), false);
                        }
                    }
                    inner.publish_gauges(&key);
                    return Err(err);
                }
                inner.publish_gauges(&key);
                Ok(Reservation {
                    key,
                    epsilon,
                    inner: Arc::clone(&self.inner),
                    resolved: false,
                    trace,
                    mechanism,
                })
            }
            Err(_) => {
                let remaining = account.remaining();
                if let Some(telemetry) = &inner.telemetry {
                    let event = BudgetEvent::Refused {
                        seq: 0,
                        analyst: key.0.clone(),
                        dataset: key.1.clone(),
                        requested: epsilon,
                        remaining,
                        trace,
                    };
                    let seq = telemetry.audit().append(event.clone());
                    if let Some(journal) = &inner.journal {
                        let _ = journal.append(&event.with_seq(seq), false);
                    }
                }
                Err(ServiceError::BudgetExhausted {
                    analyst: analyst.to_string(),
                    dataset: dataset.to_string(),
                    requested: epsilon,
                    remaining,
                })
            }
        }
    }

    /// Commits a reservation: the held ε becomes a permanent spend.
    /// Returns the account's remaining budget.
    pub fn commit(&self, mut reservation: Reservation) -> f64 {
        let pending = reservation.resolve(true);
        Self::await_durable(pending);
        self.remaining(reservation.analyst(), reservation.dataset())
    }

    /// Refunds a reservation: the held ε returns to the account.
    /// Returns the account's remaining budget.
    pub fn refund(&self, mut reservation: Reservation) -> f64 {
        let pending = reservation.resolve(false);
        Self::await_durable(pending);
        self.remaining(reservation.analyst(), reservation.dataset())
    }

    /// Resolves a reservation partially: `spend` of the held ε becomes a
    /// permanent spend and the remainder returns to the account — the
    /// batch-release primitive (failed items refund their slices while the
    /// successful slices commit). `spend` is clamped to `[0, ε]`.
    /// Returns the account's remaining budget.
    pub fn commit_partial(&self, mut reservation: Reservation, spend: f64) -> f64 {
        let pending = reservation.resolve_split(spend);
        Self::await_durable(pending);
        self.remaining(reservation.analyst(), reservation.dataset())
    }

    /// Awaits a deferred commit fsync outside the ledger lock — the group
    /// commit rendezvous. A sync failure is already counted by the
    /// journal; the commit stands in memory either way.
    fn await_durable(pending: Option<(Journal, CommitTicket)>) {
        if let Some((journal, ticket)) = pending {
            let _ = journal.wait_durable(ticket);
        }
    }

    /// The ε still available to `analyst` on `dataset` (the full grant if
    /// the account has never been touched).
    pub fn remaining(&self, analyst: &str, dataset: &str) -> f64 {
        let key = (analyst.to_string(), dataset.to_string());
        let inner = self.inner.lock().expect("ledger poisoned");
        match inner.accounts.get(&key) {
            Some(account) => account.remaining(),
            None => inner.grants.get(&key).copied().unwrap_or(self.default_grant),
        }
    }

    /// The ε committed by `analyst` on `dataset` so far.
    pub fn spent(&self, analyst: &str, dataset: &str) -> f64 {
        let key = (analyst.to_string(), dataset.to_string());
        let inner = self.inner.lock().expect("ledger poisoned");
        inner.accounts.get(&key).map(|a| a.spent()).unwrap_or(0.0)
    }

    /// A snapshot of every opened account, sorted by analyst then dataset.
    pub fn snapshot(&self) -> Vec<LedgerEntry> {
        let inner = self.inner.lock().expect("ledger poisoned");
        let mut entries: Vec<LedgerEntry> = inner
            .accounts
            .iter()
            .map(|((analyst, dataset), account)| LedgerEntry {
                analyst: analyst.clone(),
                dataset: dataset.clone(),
                total: account.total(),
                spent: account.spent(),
                reserved: account.reserved(),
                remaining: account.remaining(),
            })
            .collect();
        entries.sort_by(|a, b| (&a.analyst, &a.dataset).cmp(&(&b.analyst, &b.dataset)));
        entries
    }
}

impl std::fmt::Debug for BudgetLedger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().expect("ledger poisoned");
        f.debug_struct("BudgetLedger")
            .field("default_grant", &self.default_grant)
            .field("accounts", &inner.accounts.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn exhaustion_is_refused_and_reported() {
        let ledger = BudgetLedger::new(0.5);
        let r1 = ledger.reserve("alice", "salary", 0.2).unwrap();
        assert_eq!(r1.analyst(), "alice");
        assert_eq!(r1.dataset(), "salary");
        assert_eq!(r1.epsilon(), 0.2);
        let remaining = ledger.commit(r1);
        assert!((remaining - 0.3).abs() < 1e-12);
        let r2 = ledger.reserve("alice", "salary", 0.2).unwrap();
        ledger.commit(r2);
        // 0.1 left: a 0.2 request must be refused with the exact remainder.
        match ledger.reserve("alice", "salary", 0.2) {
            Err(ServiceError::BudgetExhausted { remaining, requested, .. }) => {
                assert!((remaining - 0.1).abs() < 1e-9);
                assert_eq!(requested, 0.2);
            }
            other => panic!("expected exhaustion, got {other:?}"),
        }
        // Exact exhaustion is allowed; afterwards everything is refused.
        let r3 = ledger.reserve("alice", "salary", 0.1).unwrap();
        ledger.commit(r3);
        assert!(ledger.reserve("alice", "salary", 1e-6).is_err());
        assert!((ledger.spent("alice", "salary") - 0.5).abs() < 1e-9);
    }

    #[test]
    fn refund_on_error_returns_the_budget() {
        let ledger = BudgetLedger::new(0.5);
        let r = ledger.reserve("bob", "salary", 0.4).unwrap();
        // While held, a competing request cannot take the budget.
        assert!(ledger.reserve("bob", "salary", 0.2).is_err());
        let remaining = ledger.refund(r);
        assert!((remaining - 0.5).abs() < 1e-12);
        assert_eq!(ledger.spent("bob", "salary"), 0.0);
        // Dropping a reservation unresolved refunds too.
        {
            let _held = ledger.reserve("bob", "salary", 0.4).unwrap();
        }
        assert!((ledger.remaining("bob", "salary") - 0.5).abs() < 1e-12);
    }

    /// A worker that panics mid-release must not leak its held ε: the
    /// reservation's drop guard runs during unwinding and refunds.
    #[test]
    fn panicking_holder_refunds_via_the_drop_guard() {
        let ledger = std::sync::Arc::new(BudgetLedger::new(0.5));
        let ledger_for_panic = std::sync::Arc::clone(&ledger);
        let outcome = std::panic::catch_unwind(move || {
            let _held = ledger_for_panic.reserve("alice", "salary", 0.4).unwrap();
            panic!("worker died mid-release");
        });
        assert!(outcome.is_err(), "the closure must have panicked");
        // The reservation was dropped during unwinding: nothing is stuck.
        assert!((ledger.remaining("alice", "salary") - 0.5).abs() < 1e-12);
        assert_eq!(ledger.spent("alice", "salary"), 0.0);
        let snapshot = ledger.snapshot();
        assert_eq!(snapshot.len(), 1);
        assert_eq!(snapshot[0].reserved, 0.0);
        // The account is fully usable afterwards.
        let r = ledger.reserve("alice", "salary", 0.5).unwrap();
        ledger.commit(r);
        assert!(ledger.remaining("alice", "salary") < 1e-12);
    }

    /// The batch primitive: part of a summed reservation commits, the rest
    /// refunds, in one atomic resolution.
    #[test]
    fn partial_commit_splits_a_summed_reservation() {
        let ledger = BudgetLedger::new(1.0);
        // A batch of 3 x 0.2 reserves 0.6; one item fails.
        let reservation = ledger.reserve("alice", "salary", 0.6).unwrap();
        let remaining = ledger.commit_partial(reservation, 0.4);
        assert!((remaining - 0.6).abs() < 1e-12);
        assert!((ledger.spent("alice", "salary") - 0.4).abs() < 1e-12);
        let snapshot = ledger.snapshot();
        assert_eq!(snapshot[0].reserved, 0.0);
        // spend = 0 refunds everything; spend above the held ε is clamped.
        let reservation = ledger.reserve("alice", "salary", 0.3).unwrap();
        let remaining = ledger.commit_partial(reservation, 0.0);
        assert!((remaining - 0.6).abs() < 1e-12);
        let reservation = ledger.reserve("alice", "salary", 0.3).unwrap();
        let remaining = ledger.commit_partial(reservation, 9.9);
        assert!((remaining - 0.3).abs() < 1e-12);
        assert!((ledger.spent("alice", "salary") - 0.7).abs() < 1e-12);
    }

    #[test]
    fn accounts_are_isolated_per_analyst_and_dataset() {
        let ledger = BudgetLedger::new(0.3);
        ledger.set_grant("carol", "homicide", 1.0);
        let r = ledger.reserve("carol", "salary", 0.3).unwrap();
        ledger.commit(r);
        // Spending on salary leaves carol's homicide grant and dave's
        // salary grant untouched.
        assert!((ledger.remaining("carol", "homicide") - 1.0).abs() < 1e-12);
        assert!((ledger.remaining("dave", "salary") - 0.3).abs() < 1e-12);
        let snapshot = ledger.snapshot();
        assert_eq!(snapshot.len(), 1);
        assert_eq!(snapshot[0].analyst, "carol");
        assert!((snapshot[0].spent - 0.3).abs() < 1e-12);
        assert_eq!(snapshot[0].reserved, 0.0);
    }

    #[test]
    fn invalid_epsilon_is_rejected_without_opening_an_account() {
        let ledger = BudgetLedger::new(0.5);
        assert!(matches!(
            ledger.reserve("eve", "salary", 0.0),
            Err(ServiceError::InvalidRequest(_))
        ));
        assert!(matches!(
            ledger.reserve("eve", "salary", f64::NAN),
            Err(ServiceError::InvalidRequest(_))
        ));
        assert!(ledger.snapshot().is_empty());
    }

    /// The module-docs invariant: folding the audit log replays every
    /// account, so `snapshot ≡ fold(audit events)` at any quiescent point.
    #[test]
    fn audit_log_replays_the_snapshot() {
        let telemetry = Telemetry::new();
        let ledger = BudgetLedger::new(1.0);
        ledger.attach_telemetry(telemetry.clone());
        let r = ledger
            .reserve_traced("alice", "salary", 0.3, 7, Some("permute_and_flip".to_string()))
            .unwrap();
        ledger.commit(r);
        let r = ledger.reserve("alice", "salary", 0.2).unwrap();
        ledger.refund(r);
        let r = ledger.reserve("bob", "salary", 0.6).unwrap();
        ledger.commit_partial(r, 0.25);
        assert!(ledger.reserve("alice", "salary", 0.9).is_err());

        let accounts = telemetry.audit().fold();
        let snapshot = ledger.snapshot();
        assert_eq!(snapshot.len(), 2);
        for entry in &snapshot {
            let account = accounts
                .get(&(entry.analyst.clone(), entry.dataset.clone()))
                .expect("every ledger account has audit events");
            assert!((account.committed - entry.spent).abs() < 1e-12);
            assert!((account.outstanding() - entry.reserved).abs() < 1e-12);
        }
        // The refusal is on the record, stamped with its trace-less id.
        let alice = accounts.get(&("alice".to_string(), "salary".to_string())).unwrap();
        assert_eq!(alice.refusals, 1);
        // Reserve and commit of the traced release share its trace id.
        let events = telemetry.audit().events();
        let linked: Vec<_> = events.iter().filter(|event| event.trace() == 7).collect();
        assert_eq!(linked.len(), 2, "traced reserve + commit, got {linked:?}");
        // Gauges reflect the final account state.
        let labels = &[("analyst", "alice"), ("dataset", "salary")];
        let registry = telemetry.registry();
        let spent = registry.gauge("pcor_budget_spent_epsilon", labels).get();
        let remaining = registry.gauge("pcor_budget_remaining_epsilon", labels).get();
        assert!((spent - 0.3).abs() < 1e-12, "spent gauge {spent}");
        assert!((remaining - 0.7).abs() < 1e-12, "remaining gauge {remaining}");
    }

    /// Any interleaving of reserve/commit/refund/partial/panic across
    /// threads must leave the audit log balanced (zero ε outstanding), the
    /// fold equal to the accountant's view, and the spent/remaining gauges
    /// equal to the ledger's own answers.
    #[test]
    fn concurrent_interleavings_balance_the_audit_log_and_gauges() {
        let telemetry = Telemetry::new();
        let ledger = std::sync::Arc::new(BudgetLedger::new(4.0));
        ledger.attach_telemetry(telemetry.clone());
        std::thread::scope(|scope| {
            for worker in 0u64..6 {
                let ledger = std::sync::Arc::clone(&ledger);
                scope.spawn(move || {
                    for i in 0u64..30 {
                        let trace = worker * 100 + i + 1;
                        match ledger.reserve_traced("trent", "salary", 0.05, trace, None) {
                            Ok(reservation) => match (worker + i) % 4 {
                                0 => {
                                    ledger.commit(reservation);
                                }
                                1 => {
                                    ledger.refund(reservation);
                                }
                                2 => {
                                    ledger.commit_partial(reservation, 0.02);
                                }
                                _ => {
                                    // A panicking holder: the drop guard
                                    // must refund and audit during unwind.
                                    let outcome = std::panic::catch_unwind(
                                        std::panic::AssertUnwindSafe(move || {
                                            let _held = reservation;
                                            panic!("simulated worker death");
                                        }),
                                    );
                                    assert!(outcome.is_err());
                                }
                            },
                            Err(ServiceError::BudgetExhausted { .. }) => {}
                            Err(other) => panic!("unexpected error: {other}"),
                        }
                    }
                });
            }
        });
        let accounts = telemetry.audit().fold();
        let account = accounts.get(&("trent".to_string(), "salary".to_string())).unwrap();
        assert!(
            account.outstanding().abs() < 1e-9,
            "audit log leaked ε: {}",
            account.outstanding()
        );
        let spent = ledger.spent("trent", "salary");
        let remaining = ledger.remaining("trent", "salary");
        assert!((account.committed - spent).abs() < 1e-9, "fold disagrees with the accountant");
        assert!((4.0 - spent - remaining).abs() < 1e-9, "ε vanished from the account");
        let labels = &[("analyst", "trent"), ("dataset", "salary")];
        let registry = telemetry.registry();
        let spent_gauge = registry.gauge("pcor_budget_spent_epsilon", labels).get();
        let remaining_gauge = registry.gauge("pcor_budget_remaining_epsilon", labels).get();
        assert!((spent_gauge - spent).abs() < 1e-9, "spent gauge {spent_gauge} vs {spent}");
        assert!(
            (remaining_gauge - remaining).abs() < 1e-9,
            "remaining gauge {remaining_gauge} vs {remaining}"
        );
    }

    /// Many threads hammer one account; the number of successful commits
    /// must exactly match the budget (no over-spend, no double refund).
    #[test]
    fn concurrent_reservations_never_over_spend() {
        let ledger = std::sync::Arc::new(BudgetLedger::new(1.0));
        let committed = AtomicUsize::new(0);
        let refused = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for worker in 0..8 {
                let ledger = std::sync::Arc::clone(&ledger);
                let committed = &committed;
                let refused = &refused;
                scope.spawn(move || {
                    for i in 0..25 {
                        match ledger.reserve("mallory", "salary", 0.1) {
                            Ok(reservation) => {
                                // Exercise both resolution paths.
                                if (worker + i) % 5 == 0 {
                                    ledger.refund(reservation);
                                } else {
                                    ledger.commit(reservation);
                                    committed.fetch_add(1, Ordering::SeqCst);
                                }
                            }
                            Err(ServiceError::BudgetExhausted { .. }) => {
                                refused.fetch_add(1, Ordering::SeqCst);
                            }
                            Err(other) => panic!("unexpected error: {other}"),
                        }
                    }
                });
            }
        });
        let mut commits = committed.load(Ordering::SeqCst);
        // Budget 1.0 at 0.1 per commit: at most 10 commits can ever fit,
        // regardless of interleaving — the core no-over-spend invariant.
        assert!(commits <= 10, "committed {commits} × 0.1 against a budget of 1.0");
        let spent = ledger.spent("mallory", "salary");
        assert!((spent - 0.1 * commits as f64).abs() < 1e-9, "spent {spent} for {commits} commits");
        // Refunded budget is really back: drain the account to exhaustion.
        while let Ok(reservation) = ledger.reserve("mallory", "salary", 0.1) {
            ledger.commit(reservation);
            commits += 1;
        }
        assert_eq!(commits, 10, "refunds must leave the full budget spendable");
        assert!(refused.load(Ordering::SeqCst) > 0, "contention must refuse something");
        assert!(ledger.remaining("mallory", "salary") < 1e-9);
    }
}

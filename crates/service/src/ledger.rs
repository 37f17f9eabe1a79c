//! Per-analyst, per-dataset privacy-budget accounting.
//!
//! The custodian grants every analyst an OCDP budget **per dataset** (the
//! guarantee composes sequentially across an analyst's queries against the
//! same data; queries against disjoint datasets do not compose). The ledger
//! keeps each `(analyst, dataset)` account as its grant plus an
//! [`AuditAccount`] and drives a two-phase protocol:
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
//! # One path for every ε movement
//!
//! Every movement — reserve, refusal, the rollback of a reserve the journal
//! refused, commit, refund, partial commit, the drop-guard refund and
//! recovery's dangling refund — is a [`BudgetEvent`] that takes one path
//! **while holding the ledger lock**: it is folded into its account with
//! [`AuditAccount::apply`], appended to the attached [`Telemetry`]'s audit
//! log ([`attach_telemetry`](BudgetLedger::attach_telemetry)) and journaled
//! to the attached WAL. The account *is* the fold of the events it
//! recorded, so a [`snapshot`](BudgetLedger::snapshot) (also taken under
//! the lock) equals [`AuditLog::fold`](pcor_telemetry::AuditLog::fold) of
//! the log visible at that instant, bit for bit, and the durable ledger
//! replays its WAL tail through the same step. Per-account
//! `pcor_budget_spent_epsilon` / `pcor_budget_remaining_epsilon` gauges are
//! refreshed on the same path.

use crate::durable::Journal;
use crate::{Result, ServiceError};
use pcor_telemetry::{AuditAccount, BudgetEvent, Telemetry};
use pcor_wal::CommitTicket;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// The key of one budget account.
type AccountKey = (String, String);

/// One budget account: its grant and the fold of its events.
#[derive(Debug)]
struct Account {
    grant: f64,
    audit: AuditAccount,
}

impl Account {
    fn new(grant: f64) -> Self {
        Account { grant, audit: AuditAccount::default() }
    }

    /// ε still available: the grant minus committed and held ε.
    fn remaining(&self) -> f64 {
        (self.grant - self.audit.committed - self.audit.outstanding()).max(0.0)
    }

    fn entry(&self, (analyst, dataset): &AccountKey) -> LedgerEntry {
        LedgerEntry {
            analyst: analyst.clone(),
            dataset: dataset.clone(),
            total: self.grant,
            spent: self.audit.committed,
            reserved: self.audit.outstanding(),
            remaining: self.remaining(),
        }
    }
}

#[derive(Debug)]
struct LedgerInner {
    accounts: BTreeMap<AccountKey, Account>,
    grants: BTreeMap<AccountKey, f64>,
    /// Attached observability bundle; events and gauges are emitted under
    /// the ledger lock so audit order equals account order.
    telemetry: Option<Telemetry>,
    /// Attached WAL journal; every audited event is appended here, still
    /// under the ledger lock, so the on-disk order equals the audit order.
    journal: Option<Journal>,
}

impl LedgerInner {
    /// The account under `key`, opened at its grant on first touch.
    fn open(&mut self, key: &AccountKey, default_grant: f64) -> &mut Account {
        if !self.accounts.contains_key(key) {
            let grant = self.grants.get(key).copied().unwrap_or(default_grant);
            self.accounts.insert(key.clone(), Account::new(grant));
        }
        self.accounts.get_mut(key).expect("account opened above")
    }

    /// The one path every ε movement takes: folds `event` into the open
    /// account under `key`, appends it to the audit log and journals it
    /// (`commit_point` drives [`pcor_wal::FsyncPolicy::OnCommit`]).
    /// Returns the account's remaining ε right after the event and the
    /// journal's answer (an empty ticket without a journal).
    fn record(
        &mut self,
        key: &AccountKey,
        event: BudgetEvent,
        commit_point: bool,
    ) -> (f64, Result<CommitTicket>) {
        debug_assert_eq!(event.account(), (key.0.as_str(), key.1.as_str()));
        let account = self.accounts.get_mut(key).expect("events touch open accounts");
        account.audit.apply(&event);
        let remaining = account.remaining();
        let mut journaled = Ok(CommitTicket::NONE);
        if let Some(telemetry) = &self.telemetry {
            let moved = !matches!(event, BudgetEvent::Refused { .. });
            let seq = telemetry.audit().append(event.clone());
            if let Some(journal) = &self.journal {
                journaled = journal.append(&event.with_seq(seq), commit_point);
            }
            if moved {
                publish_gauges(telemetry, key, account);
            }
        }
        (remaining, journaled)
    }
}

/// Refreshes the account's spent/remaining gauges.
fn publish_gauges(telemetry: &Telemetry, (analyst, dataset): &AccountKey, account: &Account) {
    let labels = &[("analyst", analyst.as_str()), ("dataset", dataset.as_str())];
    let registry = telemetry.registry();
    registry.gauge("pcor_budget_spent_epsilon", labels).set(account.audit.committed);
    registry.gauge("pcor_budget_remaining_epsilon", labels).set(account.remaining());
}

/// The `Refunded` event returning `epsilon` of `trace`'s hold on `key`.
fn refunded((analyst, dataset): &AccountKey, epsilon: f64, trace: u64) -> BudgetEvent {
    BudgetEvent::Refunded {
        seq: 0,
        analyst: analyst.clone(),
        dataset: dataset.clone(),
        epsilon,
        trace,
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

    /// Commits `spend` of the held ε and refunds the rest, atomically under
    /// the ledger lock. `spend = 0` refunds everything; `spend = ε` commits
    /// everything. Returns the account's remaining ε, read in the same
    /// critical section.
    ///
    /// The privacy, if any, is already released, so journaling is
    /// best-effort: a WAL failure parks the event in the journal's backlog
    /// (subsequent *reserves* refuse while the breaker is open) but cannot
    /// un-resolve. Under group commit a spend's journal append defers its
    /// fsync; the returned `(journal, ticket)` pair must be awaited
    /// **after** the ledger lock is released so concurrent commits share
    /// one flush.
    fn resolve(&mut self, spend: f64) -> (f64, Option<(Journal, CommitTicket)>) {
        self.resolved = true;
        let spend = spend.clamp(0.0, self.epsilon);
        let refund = self.epsilon - spend;
        let mut inner = self.inner.lock().expect("ledger poisoned");
        let mut pending = None;
        let mut remaining = 0.0;
        if spend > 0.0 {
            let event = BudgetEvent::Committed {
                seq: 0,
                analyst: self.key.0.clone(),
                dataset: self.key.1.clone(),
                epsilon: spend,
                mechanism: self.mechanism.clone(),
                trace: self.trace,
            };
            let (left, journaled) = inner.record(&self.key, event, true);
            remaining = left;
            if let (Ok(ticket), Some(journal)) = (journaled, &inner.journal) {
                pending = ticket.pending().then(|| (journal.clone(), ticket));
            }
        }
        if refund > 0.0 {
            remaining = inner.record(&self.key, refunded(&self.key, refund, self.trace), false).0;
        }
        (remaining, pending)
    }
}

impl Drop for Reservation {
    fn drop(&mut self) {
        // An unresolved reservation means the request died before the
        // release ran to completion; no privacy was released, so refund.
        // Refunds never carry a commit ticket, so there is nothing to
        // await here.
        if !self.resolved {
            let (_, pending) = self.resolve(0.0);
            debug_assert!(pending.is_none(), "a refund must not defer an fsync");
        }
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
                accounts: BTreeMap::new(),
                grants: BTreeMap::new(),
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
        let registry = telemetry.registry();
        registry.set_help(
            "pcor_budget_spent_epsilon",
            "Epsilon permanently committed per analyst/dataset.",
        );
        registry.set_help(
            "pcor_budget_remaining_epsilon",
            "Epsilon still available per analyst/dataset.",
        );
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

    /// Restores one checkpointed account to `(total, spent)` during WAL
    /// recovery, without emitting audit events or journal records (the
    /// events that justify this state were compacted into the checkpoint).
    ///
    /// # Errors
    /// Returns [`ServiceError::Durability`] for non-finite or negative
    /// values.
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
        let mut account = Account::new(total);
        account.audit.committed = spent.max(0.0);
        let mut inner = self.inner.lock().expect("ledger poisoned");
        inner.accounts.insert((analyst.to_string(), dataset.to_string()), account);
        Ok(())
    }

    /// Folds a replayed WAL tail into the accounts through the live fold
    /// step, opening tail-only accounts at their configured grant, then
    /// refunds every hold left open — a reservation a crash left dangling —
    /// through the ledger's one recording path, each refund durable before
    /// the next. A grant shrunk below an account's recorded spend between
    /// runs is raised to it: committed ε is never un-spent. Returns
    /// `(accounts, dangling refunds, refunded ε)`.
    ///
    /// # Errors
    /// Returns [`ServiceError::Durability`] when the journal refuses a
    /// refund: recovery must not acknowledge a repair it could not persist.
    pub(crate) fn replay(&self, events: &[BudgetEvent]) -> Result<(usize, usize, f64)> {
        let mut inner = self.inner.lock().expect("ledger poisoned");
        for event in events {
            let (analyst, dataset) = event.account();
            let key = (analyst.to_string(), dataset.to_string());
            inner.open(&key, self.default_grant).audit.apply(event);
        }
        let mut dangling = Vec::new();
        for (key, account) in &mut inner.accounts {
            account.grant = account.grant.max(account.audit.committed);
            dangling.extend(account.audit.holds().iter().map(|&hold| (key.clone(), hold)));
        }
        let mut refunded_epsilon = 0.0;
        for (key, (trace, epsilon)) in &dangling {
            let ticket = inner.record(key, refunded(key, *epsilon, *trace), true).1?;
            if let Some(journal) = &inner.journal {
                journal.wait_durable(ticket)?;
            }
            refunded_epsilon += epsilon;
        }
        if let Some(telemetry) = &inner.telemetry {
            for (key, account) in &inner.accounts {
                publish_gauges(telemetry, key, account);
            }
        }
        Ok((inner.accounts.len(), dangling.len(), refunded_epsilon))
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
        let entries = inner.accounts.iter().map(|(key, account)| account.entry(key)).collect();
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
        let remaining = inner.open(&key, self.default_grant).remaining();
        if epsilon > remaining + 1e-12 {
            let event = BudgetEvent::Refused {
                seq: 0,
                analyst: key.0.clone(),
                dataset: key.1.clone(),
                requested: epsilon,
                remaining,
                trace,
            };
            let _ = inner.record(&key, event, false);
            return Err(ServiceError::BudgetExhausted {
                analyst: key.0,
                dataset: key.1,
                requested: epsilon,
                remaining,
            });
        }
        let event = BudgetEvent::Reserved {
            seq: 0,
            analyst: key.0.clone(),
            dataset: key.1.clone(),
            epsilon,
            mechanism: mechanism.clone(),
            trace,
        };
        if let (_, Err(err)) = inner.record(&key, event, false) {
            // The hold could not be made durable *now*: roll it back and
            // refuse the request rather than serve a release the restarted
            // ledger might not remember. Both the rollback and the failed
            // reserve are offered to the journal — its backlog preserves
            // them in audit order, so when the disk heals the WAL is still
            // a contiguous prefix of the audit log.
            let _ = inner.record(&key, refunded(&key, epsilon, trace), false);
            return Err(err);
        }
        Ok(Reservation {
            key,
            epsilon,
            inner: Arc::clone(&self.inner),
            resolved: false,
            trace,
            mechanism,
        })
    }

    /// Commits a reservation: the held ε becomes a permanent spend.
    /// Returns the account's remaining budget.
    pub fn commit(&self, reservation: Reservation) -> f64 {
        let epsilon = reservation.epsilon;
        self.commit_partial(reservation, epsilon)
    }

    /// Refunds a reservation: the held ε returns to the account.
    /// Returns the account's remaining budget.
    pub fn refund(&self, reservation: Reservation) -> f64 {
        self.commit_partial(reservation, 0.0)
    }

    /// Resolves a reservation partially: `spend` of the held ε becomes a
    /// permanent spend and the remainder returns to the account — the
    /// batch-release primitive (failed items refund their slices while the
    /// successful slices commit). `spend` is clamped to `[0, ε]`.
    /// Returns the account's remaining budget, read in the critical
    /// section that resolved the reservation.
    pub fn commit_partial(&self, mut reservation: Reservation, spend: f64) -> f64 {
        let (remaining, pending) = reservation.resolve(spend);
        // The group-commit rendezvous, outside the ledger lock. A sync
        // failure is already counted by the journal; the commit stands in
        // memory either way.
        if let Some((journal, ticket)) = pending {
            let _ = journal.wait_durable(ticket);
        }
        remaining
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
        inner.accounts.get(&key).map(|account| account.audit.committed).unwrap_or(0.0)
    }

    /// A snapshot of every opened account, sorted by analyst then dataset.
    pub fn snapshot(&self) -> Vec<LedgerEntry> {
        let inner = self.inner.lock().expect("ledger poisoned");
        inner.accounts.iter().map(|(key, account)| account.entry(key)).collect()
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
            assert_eq!(account.committed, entry.spent);
            assert_eq!(account.outstanding(), entry.reserved);
            assert_eq!(entry.reserved, 0.0);
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
    /// fold equal to the ledger's view, and the spent/remaining gauges
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
        assert_eq!(account.outstanding(), 0.0, "audit log leaked ε");
        let spent = ledger.spent("trent", "salary");
        let remaining = ledger.remaining("trent", "salary");
        assert_eq!(account.committed, spent, "fold disagrees with the ledger");
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

//! Property tests of the hardened request lifecycle: however reservations,
//! commits, refunds, cancellations, deadlines, and injected faults
//! interleave, the ledger leaks zero ε and its snapshot stays equal to the
//! fold of the audit log.

use pcor_faults::{site, FaultKind, FaultPlan};
use pcor_service::{
    BudgetLedger, DatasetRegistry, ReleaseRequest, RequestEnvelope, Server, ServerConfig,
};
use pcor_telemetry::AuditLog;
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

const ANALYSTS: [&str; 3] = ["alice", "bob", "carol"];
const DATASETS: [&str; 2] = ["salary", "census"];

/// Asserts that the ledger snapshot *is* the fold of the audit events,
/// with `==` and not within a tolerance: spent = committed and reserved =
/// outstanding for every account. Holds at every step, not only once the
/// ledger quiesced.
fn assert_snapshot_is_the_fold(
    ledger: &BudgetLedger,
    audit: &AuditLog,
) -> std::result::Result<(), proptest::test_runner::TestCaseError> {
    let accounts = audit.fold();
    let snapshot = ledger.snapshot();
    prop_assert_eq!(snapshot.len(), accounts.len(), "every account has audit events");
    for entry in &snapshot {
        let account = &accounts[&(entry.analyst.clone(), entry.dataset.clone())];
        prop_assert!(
            entry.spent == account.committed,
            "{}/{}: snapshot spent {} != audit fold {}",
            entry.analyst,
            entry.dataset,
            entry.spent,
            account.committed
        );
        prop_assert!(
            entry.reserved == account.outstanding(),
            "{}/{}: snapshot reserved {} != audit outstanding {}",
            entry.analyst,
            entry.dataset,
            entry.reserved,
            account.outstanding()
        );
    }
    Ok(())
}

/// Asserts the lifecycle invariants on a quiesced ledger + audit pair: the
/// snapshot is the fold, no account holds outstanding ε (exactly `0.0`),
/// and remaining = total − spent.
fn assert_no_leaks(
    ledger: &BudgetLedger,
    audit: &AuditLog,
    grant: f64,
) -> std::result::Result<(), proptest::test_runner::TestCaseError> {
    audit.verify_contiguous().expect("audit seqs must be gap-free");
    assert_snapshot_is_the_fold(ledger, audit)?;
    for ((analyst, dataset), account) in &audit.fold() {
        prop_assert!(
            account.outstanding() == 0.0,
            "{analyst}/{dataset} leaked {} ε of unresolved reservations",
            account.outstanding()
        );
        prop_assert!(
            (account.reserved - account.committed - account.refunded).abs() < 1e-9,
            "{analyst}/{dataset}: reserved {} != committed {} + refunded {}",
            account.reserved,
            account.committed,
            account.refunded
        );
    }
    for entry in ledger.snapshot() {
        prop_assert!(entry.reserved == 0.0, "quiesced ledger still holds reservations");
        prop_assert!(
            (entry.remaining - (grant - entry.spent)).abs() < 1e-9,
            "{}/{}: remaining {} != {} - spent {}",
            entry.analyst,
            entry.dataset,
            entry.remaining,
            grant,
            entry.spent
        );
    }
    Ok(())
}

/// One scripted move against the ledger: open a reservation, or resolve an
/// arbitrary open one by committing, refunding, dropping it (the
/// cancellation path — a request that died mid-flight) or committing part
/// of it (a batch whose failed items refund their slices).
fn ops() -> impl Strategy<Value = Vec<(u8, u8, f64)>> {
    proptest::collection::vec((0u8..6, any::<u8>(), 0.01f64..0.5), 1..60)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any interleaving of reserve / commit / refund / drop / partial
    /// commit across several accounts resolves every reservation exactly
    /// once: snapshot == fold(audit) after every move, including when
    /// reserves are refused, and exactly zero leaked ε at the end.
    #[test]
    fn interleaved_reservations_never_leak_epsilon(ops in ops()) {
        let grant = 3.0;
        let ledger = BudgetLedger::new(grant);
        let telemetry = pcor_telemetry::Telemetry::new();
        ledger.attach_telemetry(telemetry.clone());
        let mut open = Vec::new();
        for (index, (action, target, epsilon)) in ops.into_iter().enumerate() {
            match action {
                // Two of five moves reserve, so sequences stay reservation-
                // heavy enough to keep several requests in flight at once.
                0 | 1 => {
                    let analyst = ANALYSTS[target as usize % ANALYSTS.len()];
                    let dataset = DATASETS[target as usize % DATASETS.len()];
                    // A refusal (budget exhausted) is a legal outcome; the
                    // audit log records it without reserving.
                    if let Ok(reservation) = ledger.reserve_traced(
                        analyst,
                        dataset,
                        epsilon,
                        index as u64 + 1,
                        None,
                    ) {
                        open.push(reservation);
                    }
                }
                2 if !open.is_empty() => {
                    let reservation = open.swap_remove(target as usize % open.len());
                    ledger.commit(reservation);
                }
                3 if !open.is_empty() => {
                    let reservation = open.swap_remove(target as usize % open.len());
                    ledger.refund(reservation);
                }
                4 if !open.is_empty() => {
                    // The cancellation path: the holder dies and the
                    // reservation drops unresolved, which must refund.
                    drop(open.swap_remove(target as usize % open.len()));
                }
                5 if !open.is_empty() => {
                    // Commit part of the hold and refund the rest; a spend
                    // at or above the held ε commits it whole.
                    let reservation = open.swap_remove(target as usize % open.len());
                    ledger.commit_partial(reservation, epsilon);
                }
                _ => {}
            }
            assert_snapshot_is_the_fold(&ledger, telemetry.audit())?;
        }
        drop(open);
        assert_no_leaks(&ledger, telemetry.audit(), grant)?;
    }

    /// A live server under seeded latency/clock-skew faults, fed a mix of
    /// doomed-deadline and deadline-free requests, quiesces with zero
    /// leaked ε: every cancelled or timed-out release refunded exactly its
    /// reserved slice and every served one committed exactly its ε.
    #[test]
    fn deadlined_requests_under_faults_refund_exactly(
        seed in any::<u64>(),
        doomed in proptest::collection::vec(any::<bool>(), 3..10),
        latency_ms in 1u64..8,
    ) {
        let grant = 100.0;
        let registry = Arc::new(DatasetRegistry::new());
        registry.register("toy", toy_dataset());
        let ledger = Arc::new(BudgetLedger::new(grant));
        let faults = FaultPlan::seeded(seed)
            .rule(site::SERVICE_RELEASE, FaultKind::Latency(Duration::from_millis(latency_ms)), 0.4)
            .rule(site::SERVICE_RELEASE, FaultKind::ClockSkew(Duration::from_millis(2)), 0.2)
            .build();
        let server = Server::start(
            ServerConfig::default().with_workers(2).with_queue_capacity(32).with_faults(faults),
            Arc::clone(&registry),
            Arc::clone(&ledger),
        );
        let pending: Vec<_> = doomed
            .iter()
            .enumerate()
            .map(|(index, &doomed)| {
                let request = ReleaseRequest::new(ANALYSTS[index % ANALYSTS.len()], "toy", 0)
                    .with_epsilon(0.2)
                    .with_samples(3)
                    .with_seed(index as u64);
                let envelope = RequestEnvelope::single(request);
                // A 0 ms deadline is already expired on arrival: the
                // request must be refused, shed, or cancelled — never
                // charged. Admission may legally refuse it up front
                // (`Overloaded`) once a mean latency is established.
                let envelope =
                    if doomed { envelope.with_deadline_ms(0) } else { envelope };
                server.submit_envelope(envelope)
            })
            .filter_map(std::result::Result::ok)
            .collect();
        let mut served = 0u32;
        for response in pending {
            // Both outcomes are legal under faults; leaks are not.
            if response.wait().is_ok() {
                served += 1;
            }
        }
        let telemetry = server.telemetry().clone();
        server.shutdown();
        assert_no_leaks(&ledger, telemetry.audit(), grant)?;
        // Committed ε must be exactly 0.2 per served release — a cancelled
        // release that half-committed would break this.
        let committed: f64 =
            audit_committed(telemetry.audit());
        prop_assert!(
            (committed - 0.2 * f64::from(served)).abs() < 1e-9,
            "{served} served releases committed {committed} ε"
        );
    }
}

/// Total committed ε across every account in the audit fold.
fn audit_committed(audit: &AuditLog) -> f64 {
    audit.fold().values().map(|account| account.committed).sum()
}

/// Record 0 is a planted outlier in its own (a0, b0) cell.
fn toy_dataset() -> pcor_data::Dataset {
    use pcor_data::{Attribute, Dataset, Record, Schema};
    let schema = Schema::new(
        vec![
            Attribute::from_values("A", &["a0", "a1"]),
            Attribute::from_values("B", &["b0", "b1"]),
        ],
        "M",
    )
    .unwrap();
    let mut records = vec![Record::new(vec![0, 0], 900.0)];
    for i in 0..40 {
        records
            .push(Record::new(vec![(i % 2) as u16, ((i / 2) % 2) as u16], 100.0 + (i % 7) as f64));
    }
    Dataset::new(schema, records).unwrap()
}

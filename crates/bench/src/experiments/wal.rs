//! WAL durability: append throughput per fsync policy, replay cost vs
//! event count, and the checkpoint's tail-bounding effect.
//!
//! Not a paper experiment — it characterizes the crash-safe budget ledger
//! (`pcor-service::DurableLedger` over `pcor-wal`) added for warm
//! restarts. Two questions matter operationally:
//!
//! 1. **What does durability cost on the write path?** Appending the same
//!    budget-event records under each [`FsyncPolicy`]: `every_record` is
//!    the upper bound (one `fdatasync` per acknowledged record), and
//!    `on_commit` (the default) syncs only at commit points — the
//!    two-phase protocol's natural durability boundary.
//! 2. **What does recovery cost on startup?** Replay is linear in the
//!    events scanned, so an uncheckpointed log replays its whole history
//!    while a checkpointed one replays `O(checkpoint + tail)`. The sweep
//!    measures both on the same history; the summary reports the
//!    speedup. Results land in `BENCH_wal.json` via `reproduce --json`.
//! 3. **How far does group commit coalesce under concurrency?**
//!    Concurrent committers drive reserve/commit pairs through the
//!    [`DurableLedger`], whose leader/follower protocol shares one fsync
//!    among the commits that land while a flush is pending; the rows
//!    report commits/sec and the fsyncs they cost.

use crate::config::ExperimentScale;
use crate::report::Table;
use crate::{BenchError, Result};
use pcor_service::{BudgetLedger, DurableLedger, WalConfig};
use pcor_telemetry::BudgetEvent;
use pcor_wal::{FsyncPolicy, Wal, WalOptions};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// A fresh scratch directory under the system temp root.
fn scratch_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let unique = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("pcor-bench-wal-{tag}-{}-{unique}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn wal_error(err: pcor_wal::WalError) -> BenchError {
    BenchError::Service(format!("wal: {err}"))
}

fn service_error(err: pcor_service::ServiceError) -> BenchError {
    BenchError::Service(err.to_string())
}

/// One reserve/commit event pair, serialized exactly as the journal writes
/// them (JSON with the audit seq baked in).
fn event_pair(seq: u64, trace: u64) -> [String; 2] {
    let reserved = BudgetEvent::Reserved {
        seq,
        analyst: format!("analyst-{}", trace % 7),
        dataset: "salary".to_string(),
        epsilon: 0.25,
        mechanism: Some("exponential".to_string()),
        trace,
    };
    let committed = BudgetEvent::Committed {
        seq: seq + 1,
        analyst: format!("analyst-{}", trace % 7),
        dataset: "salary".to_string(),
        epsilon: 0.25,
        mechanism: Some("exponential".to_string()),
        trace,
    };
    [
        serde_json::to_string(&reserved).expect("events serialize"),
        serde_json::to_string(&committed).expect("events serialize"),
    ]
}

/// Appends `records` budget events (reserve/commit pairs; the commit is
/// the commit point) under `policy`, returning (records/sec, fsyncs,
/// bytes).
fn measure_append(records: usize, policy: FsyncPolicy) -> Result<(f64, u64, u64)> {
    let dir = scratch_dir("append");
    let options = WalOptions { dir: dir.clone(), fsync: policy, ..WalOptions::default() };
    let (mut wal, _) = Wal::open(options).map_err(wal_error)?;
    let started = Instant::now();
    for pair in 0..(records as u64 / 2) {
        let [reserved, committed] = event_pair(pair * 2, pair + 1);
        wal.append(reserved.as_bytes(), false).map_err(wal_error)?;
        wal.append(committed.as_bytes(), true).map_err(wal_error)?;
    }
    wal.sync().map_err(wal_error)?;
    let elapsed = started.elapsed().as_secs_f64();
    let stats = wal.stats();
    drop(wal);
    std::fs::remove_dir_all(&dir).map_err(|e| BenchError::Service(e.to_string()))?;
    Ok((stats.appended_records as f64 / elapsed.max(1e-12), stats.fsyncs, stats.appended_bytes))
}

/// Builds a log of `events` raw journal records, ready for replay
/// measurement. No record is a commit point, so under `OnCommit` the only
/// fsync is the final explicit one.
fn build_history(dir: &Path, events: usize) -> Result<()> {
    let options = WalOptions { dir: dir.to_path_buf(), ..WalOptions::default() };
    let (mut wal, _) = Wal::open(options).map_err(wal_error)?;
    for pair in 0..(events as u64 / 2) {
        let [reserved, committed] = event_pair(pair * 2, pair + 1);
        wal.append(reserved.as_bytes(), false).map_err(wal_error)?;
        wal.append(committed.as_bytes(), false).map_err(wal_error)?;
    }
    wal.sync().map_err(wal_error)?;
    Ok(())
}

/// Drives `committers` threads through a [`DurableLedger`], each issuing
/// `pairs` reserve/commit pairs, and returns (commits/sec, fsyncs). The
/// journal coalesces concurrent commit fsyncs through the
/// [`GroupWal`](pcor_wal::GroupWal) leader/follower protocol.
fn measure_concurrent_commits(committers: usize, pairs: usize) -> Result<(f64, u64)> {
    let dir = scratch_dir("group");
    let config = WalConfig {
        // No auto-checkpoints: the measurement is pure append + fsync.
        checkpoint_interval: 0,
        ..WalConfig::at(dir.clone())
    };
    let durable = DurableLedger::open(config, BudgetLedger::new(1e9)).map_err(service_error)?;
    let started = Instant::now();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..committers)
            .map(|worker| {
                let durable = &durable;
                scope.spawn(move || -> Result<()> {
                    let ledger = durable.ledger();
                    let analyst = format!("committer-{worker}");
                    for i in 0..pairs as u64 {
                        let trace = (worker as u64) * pairs as u64 + i + 1;
                        let r = ledger
                            .reserve_traced(&analyst, "salary", 0.25, trace, None)
                            .map_err(service_error)?;
                        ledger.commit(r);
                    }
                    Ok(())
                })
            })
            .collect();
        for worker in workers {
            worker.join().expect("committer thread panicked")?;
        }
        Ok::<(), BenchError>(())
    })?;
    let elapsed = started.elapsed().as_secs_f64();
    let commits = (committers * pairs) as f64;
    let committed: f64 = durable.ledger().snapshot().iter().map(|entry| entry.spent).sum();
    if (committed - 0.25 * commits).abs() > 1e-6 {
        return Err(BenchError::Service(format!(
            "group-commit ledger committed {committed}, expected {}",
            0.25 * commits
        )));
    }
    let fsyncs = durable.wal_stats().fsyncs;
    drop(durable);
    std::fs::remove_dir_all(&dir).map_err(|e| BenchError::Service(e.to_string()))?;
    Ok((commits / elapsed.max(1e-12), fsyncs))
}

/// Opens the log and returns (events replayed, replay seconds, committed ε
/// across all accounts — the correctness digest).
fn measure_replay(dir: &Path) -> Result<(usize, f64, f64)> {
    let durable = DurableLedger::open(WalConfig::at(dir.to_path_buf()), BudgetLedger::new(1e9))
        .map_err(service_error)?;
    let report = durable.report();
    let committed: f64 = durable.ledger().snapshot().iter().map(|entry| entry.spent).sum();
    Ok((report.events_replayed, report.replay_duration.as_secs_f64().max(1e-9), committed))
}

/// Runs the WAL durability experiment.
///
/// # Errors
/// Returns [`BenchError::Service`] on WAL failures or when a replayed
/// balance diverges from the appended history.
pub fn run(scale: &ExperimentScale) -> Result<ExperimentOutput> {
    let (append_records, replay_sweep, tail_events, committer_sweep, commit_pairs): (
        usize,
        &[usize],
        usize,
        &[usize],
        usize,
    ) = if scale.salary_records < 2_000 {
        (600, &[600, 2_400], 24, &[1, 4], 40)
    } else {
        (8_000, &[4_000, 16_000, 64_000], 64, &[1, 4, 8], 250)
    };

    // ---- Append throughput per fsync policy. ----
    let mut append_table = Table::new(
        format!(
            "WAL append throughput per fsync policy ({append_records} budget events, \
             reserve/commit pairs; commit = commit point)"
        ),
        &["Policy", "records/sec", "fsyncs", "bytes", "MB/s"],
    );
    for policy in [FsyncPolicy::EveryRecord, FsyncPolicy::OnCommit] {
        let (rate, fsyncs, bytes) = measure_append(append_records, policy)?;
        let mbps = bytes as f64 / (append_records as f64 / rate.max(1e-12)) / 1e6;
        append_table.push_row(vec![
            policy.name().to_string(),
            format!("{rate:.0}"),
            fsyncs.to_string(),
            bytes.to_string(),
            format!("{mbps:.2}"),
        ]);
    }

    // ---- Replay cost vs event count, with and without a checkpoint. ----
    let mut replay_table = Table::new(
        "WAL replay on startup: full history vs checkpoint + tail".to_string(),
        &["events in log", "Variant", "events replayed", "replay ms", "events/sec"],
    );
    let mut speedups: Vec<(usize, f64)> = Vec::new();
    for &events in replay_sweep {
        let dir = scratch_dir("replay");
        build_history(&dir, events)?;
        let expected_committed = 0.25 * (events / 2) as f64;

        // Cold: every event of the history is scanned and folded.
        let (replayed, full_seconds, committed) = measure_replay(&dir)?;
        if replayed != events {
            return Err(BenchError::Service(format!(
                "replay scanned {replayed} of {events} events"
            )));
        }
        if (committed - expected_committed).abs() > 1e-6 {
            return Err(BenchError::Service(format!(
                "replayed balance {committed} diverged from appended history \
                 {expected_committed}"
            )));
        }
        replay_table.push_row(vec![
            events.to_string(),
            "full replay".to_string(),
            replayed.to_string(),
            format!("{:.3}", full_seconds * 1e3),
            format!("{:.0}", replayed as f64 / full_seconds),
        ]);

        // Checkpoint the same history, land a small tail after it, replay
        // again: the scan is now bounded by the tail, not the history.
        {
            let durable = DurableLedger::open(WalConfig::at(dir.clone()), BudgetLedger::new(1e9))
                .map_err(service_error)?;
            durable.checkpoint(None).map_err(service_error)?;
            let ledger = durable.ledger();
            for t in 0..(tail_events as u64 / 2) {
                let r = ledger
                    .reserve_traced("tail-analyst", "salary", 0.25, 1_000_000 + t, None)
                    .map_err(service_error)?;
                ledger.commit(r);
            }
        }
        let (tail_replayed, tail_seconds, tail_committed) = measure_replay(&dir)?;
        if tail_replayed != tail_events {
            return Err(BenchError::Service(format!(
                "checkpointed replay scanned {tail_replayed} events, expected the \
                 {tail_events}-event tail"
            )));
        }
        let expected_total = expected_committed + 0.25 * (tail_events / 2) as f64;
        if (tail_committed - expected_total).abs() > 1e-6 {
            return Err(BenchError::Service(format!(
                "checkpointed balance {tail_committed} diverged from {expected_total}"
            )));
        }
        replay_table.push_row(vec![
            events.to_string(),
            format!("checkpoint + {tail_events}-event tail"),
            tail_replayed.to_string(),
            format!("{:.3}", tail_seconds * 1e3),
            format!("{:.0}", tail_replayed as f64 / tail_seconds),
        ]);
        speedups.push((events, full_seconds / tail_seconds));
        std::fs::remove_dir_all(&dir).map_err(|e| BenchError::Service(e.to_string()))?;
    }

    let mut summary = Table::new(
        "WAL recovery summary (checkpoint compaction effect)",
        &["events in log", "full-replay / checkpointed-replay time"],
    );
    for (events, speedup) in speedups {
        summary.push_row(vec![events.to_string(), format!("{speedup:.1}x")]);
    }

    // ---- Cross-request group commit. ----
    let mut group_table = Table::new(
        format!(
            "Group commit: concurrent committers through the durable ledger \
             ({commit_pairs} reserve/commit pairs per committer, fsync on commit)"
        ),
        &["committers", "commits/sec", "fsyncs"],
    );
    for &committers in committer_sweep {
        let (rate, fsyncs) = measure_concurrent_commits(committers, commit_pairs)?;
        group_table.push_row(vec![
            committers.to_string(),
            format!("{rate:.0}"),
            fsyncs.to_string(),
        ]);
    }

    Ok(ExperimentOutput {
        tables: vec![append_table, replay_table, summary, group_table],
        ..ExperimentOutput::default()
    })
}

use super::ExperimentOutput;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wal_experiment_reports_policies_and_tail_bounded_replay() {
        let scale = ExperimentScale::smoke();
        let output = run(&scale).expect("wal experiment");
        assert_eq!(output.tables.len(), 4);
        // 2 fsync policies.
        assert_eq!(output.tables[0].rows.len(), 2);
        for row in &output.tables[0].rows {
            let rate: f64 = row[1].parse().unwrap();
            assert!(rate > 0.0, "policy {} reported no throughput", row[0]);
        }
        // 2 sweep points x 2 variants; the checkpointed variant replays
        // exactly the tail (the load-bearing durability claim — replay is
        // O(checkpoint + tail), already hard-checked inside `run`).
        assert_eq!(output.tables[1].rows.len(), 4);
        for row in output.tables[1].rows.chunks(2) {
            let full: usize = row[0][2].parse().unwrap();
            let tail: usize = row[1][2].parse().unwrap();
            assert!(tail < full, "the checkpoint must bound the replayed tail");
        }
        assert_eq!(output.tables[2].rows.len(), 2);
        // 2 committer counts; every row moves commits (the ε digest is
        // hard-checked inside `run`, so a passing row proves zero lost
        // commits too).
        assert_eq!(output.tables[3].rows.len(), 2);
        for row in &output.tables[3].rows {
            let rate: f64 = row[1].parse().unwrap();
            assert!(rate > 0.0, "{} committers reported no throughput", row[0]);
        }
    }
}

//! The correctness gate: every run must pass it or it reports
//! `"correct": false` and exits non-zero.

use crate::load::{Pass, Released};
use crate::workload::DETECTOR;
use pcor_core::Verifier;
use pcor_data::Dataset;
use pcor_dp::PopulationSizeUtility;
use pcor_service::Server;
use std::collections::BTreeMap;
use std::path::Path;

/// ε below this is float noise from summing many 0.2 slices.
const EPSILON_TOLERANCE: f64 = 1e-6;

/// The ledger snapshot must equal `AuditLog::fold` of the server's audit
/// log, with no ε left reserved. Call after the server drained.
pub fn ledger_matches_audit(server: &Server) -> Result<(), String> {
    let folded = server.telemetry().audit().fold();
    let snapshot = server.ledger().snapshot();
    for entry in &snapshot {
        let key = (entry.analyst.clone(), entry.dataset.clone());
        let account = folded
            .get(&key)
            .ok_or_else(|| format!("ledger account {key:?} has no audit events"))?;
        if (account.committed - entry.spent).abs() > EPSILON_TOLERANCE {
            return Err(format!(
                "ledger account {key:?} spent {} but its audit log folds to {}",
                entry.spent, account.committed
            ));
        }
        if entry.reserved.abs() > EPSILON_TOLERANCE {
            return Err(format!("ledger account {key:?} still reserves ε {}", entry.reserved));
        }
    }
    for (key, account) in &folded {
        if account.outstanding().abs() > EPSILON_TOLERANCE {
            return Err(format!(
                "audit account {key:?} leaves ε {} outstanding",
                account.outstanding()
            ));
        }
    }
    Ok(())
}

/// Every released context must be matching for its record (it covers the
/// record, and the detector flags the record inside it), and the reported
/// utility must be the context's population size. Every released item is
/// checked, with one memoizing `Verifier` per record.
pub fn releases_are_valid(dataset: &Dataset, pass: &Pass) -> Result<(), String> {
    let detector = DETECTOR.build();
    let mut verifiers = BTreeMap::new();
    for Released { record, context, utility, .. } in released(pass) {
        let verifier = verifiers.entry(*record).or_insert_with(|| {
            Verifier::new(dataset, detector.as_ref(), &PopulationSizeUtility, *record)
        });
        let evaluation = verifier
            .evaluate(context)
            .map_err(|err| format!("record {record}: evaluating a released context: {err}"))?;
        if !evaluation.matching {
            return Err(format!("record {record} is not an outlier in released {context:?}"));
        }
        if evaluation.utility != *utility {
            return Err(format!(
                "record {record}: released utility {utility} but the context's population is {}",
                evaluation.utility
            ));
        }
    }
    Ok(())
}

/// Every item a pass released, connection by connection.
pub fn released(pass: &Pass) -> impl Iterator<Item = &Released> {
    pass.all().flat_map(|outcome| outcome.released.iter())
}

/// FNV-1a over (record, context, utility) of every released item, in order.
pub fn digest(pass: &Pass) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    let mut feed = |bytes: &[u8]| {
        for &byte in bytes {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01B3);
        }
    };
    for released in released(pass) {
        feed(&(released.record as u64).to_le_bytes());
        feed(serde_json::to_string(&released.context).expect("contexts serialize").as_bytes());
        feed(&released.utility.to_bits().to_le_bytes());
    }
    hash
}

/// Compares `digest` with the one stored under `key` by an earlier run of
/// the same build, storing it when none exists. Returns whether an earlier
/// run was compared against.
pub fn repeats(dir: &Path, key: &str, digest: u64) -> Result<bool, String> {
    let path = dir.join(format!("{key}.digest"));
    let ours = format!("{digest:016x}");
    match std::fs::read_to_string(&path) {
        Ok(stored) if stored.trim() == ours => Ok(true),
        Ok(stored) => Err(format!(
            "digest {ours} differs from {} of an earlier run with the same seed",
            stored.trim()
        )),
        Err(_) => {
            let staged = dir.join(format!("{key}.digest.{}", std::process::id()));
            std::fs::write(&staged, &ours)
                .and_then(|()| std::fs::rename(&staged, &path))
                .map_err(|err| format!("storing the digest at {}: {err}", path.display()))?;
            Ok(false)
        }
    }
}

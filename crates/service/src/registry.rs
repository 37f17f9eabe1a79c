//! Named datasets behind `Arc`, with memoized derived state.
//!
//! Loading a dataset is cheap next to what the server derives from it per
//! query: schema statistics (reported to analysts so they can form
//! requests) and the *verified starting context* `C_V` of a queried record
//! (a breadth-first search over super-contexts with a detector evaluation
//! at every step). The registry memoizes both: statistics once per
//! dataset, starting contexts in one cost-weighted (GreedyDual) LRU keyed
//! by `(dataset, record, detector)` and shared by all workers. The serving
//! path runs the search on its own release session and publishes the
//! result here ([`DatasetRegistry::store_starting_context`]); later
//! requests read it back ([`DatasetRegistry::cached_starting_context`]).
//! Re-registering a dataset under an existing name drops the cache — the
//! derived state is invalid for the new data.
//!
//! Caching `C_V` is privacy-neutral: it is derived deterministically from
//! the dataset and never released — it only seeds the private search — so
//! reuse changes neither the released distribution nor the OCDP
//! accounting.

use crate::cache::LruCache;
use crate::{Result, ServiceError};
use pcor_data::{Context, Dataset};
use pcor_outlier::DetectorKind;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Default capacity of the starting-context LRU.
pub const DEFAULT_STARTING_CONTEXT_CACHE: usize = 1024;

/// Memoized summary statistics of a registered dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetStats {
    /// Number of records.
    pub records: usize,
    /// Number of categorical attributes.
    pub attributes: usize,
    /// Total number of attribute values `t` (context bit-vector length).
    pub total_values: usize,
    /// Minimum of the metric column.
    pub metric_min: f64,
    /// Maximum of the metric column.
    pub metric_max: f64,
    /// Mean of the metric column.
    pub metric_mean: f64,
}

impl DatasetStats {
    fn compute(dataset: &Dataset) -> Self {
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut sum = 0.0;
        for id in 0..dataset.len() {
            let m = dataset.metric(id);
            min = min.min(m);
            max = max.max(m);
            sum += m;
        }
        let records = dataset.len();
        DatasetStats {
            records,
            attributes: dataset.schema().num_attributes(),
            total_values: dataset.schema().total_values(),
            metric_min: if records == 0 { 0.0 } else { min },
            metric_max: if records == 0 { 0.0 } else { max },
            metric_mean: if records == 0 { 0.0 } else { sum / records as f64 },
        }
    }
}

/// A registered dataset plus its memoized derived state.
#[derive(Debug)]
pub struct DatasetEntry {
    name: String,
    dataset: Arc<Dataset>,
    stats: DatasetStats,
}

impl DatasetEntry {
    /// The registry name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The dataset itself.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// A cloneable handle to the dataset.
    pub fn dataset_arc(&self) -> Arc<Dataset> {
        Arc::clone(&self.dataset)
    }

    /// The memoized summary statistics.
    pub fn stats(&self) -> &DatasetStats {
        &self.stats
    }
}

/// Hit/miss counters of the registry's starting-context cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Starting-context lookups answered from the cache.
    pub hits: u64,
    /// Starting contexts discovered and stored after a cache miss.
    pub misses: u64,
    /// Starting-context entries currently cached.
    pub len: usize,
    /// Starting-context entries evicted by the GreedyDual policy.
    pub evictions: u64,
}

type StartKey = (String, usize, DetectorKind);

/// One exported starting-context cache entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WarmContext {
    /// The dataset name the context was derived from.
    pub dataset: String,
    /// The queried record.
    pub record_id: usize,
    /// The detector the context was verified under.
    pub detector: DetectorKind,
    /// The verified starting context itself.
    pub context: Context,
    /// Its discovery cost (fresh `f_M` calls burned finding it).
    pub cost: u64,
}

/// The fingerprint a warm entry is validated against at seed time: derived
/// state is only re-seeded for a dataset re-registered under the same name
/// with identical summary statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WarmDataset {
    /// The registry name.
    pub name: String,
    /// The dataset's summary statistics when the state was exported.
    pub stats: DatasetStats,
}

/// Serializable hot cache state for warm restarts: the GreedyDual entries
/// of the starting-context cache, in ascending eviction order, plus the
/// dataset fingerprints they were derived from.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct WarmState {
    /// Fingerprints of the datasets the entries below were derived from.
    pub datasets: Vec<WarmDataset>,
    /// Starting-context entries, lowest eviction priority first.
    pub starting_contexts: Vec<WarmContext>,
}

impl WarmState {
    /// Whether there is nothing to seed.
    pub fn is_empty(&self) -> bool {
        self.starting_contexts.is_empty()
    }
}

/// Thread-safe registry of named datasets with one shared starting-context
/// cache.
///
/// Memory is bounded by the registered datasets plus at most
/// [`DEFAULT_STARTING_CONTEXT_CACHE`] cached starting contexts (or the
/// capacity given to [`DatasetRegistry::with_capacity`]), however many
/// records, detectors or requests the server sees.
pub struct DatasetRegistry {
    datasets: RwLock<HashMap<String, Arc<DatasetEntry>>>,
    starting_contexts: Mutex<LruCache<StartKey, Context>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl Default for DatasetRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl DatasetRegistry {
    /// Creates an empty registry with the default cache capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_STARTING_CONTEXT_CACHE)
    }

    /// Creates an empty registry whose starting-context LRU holds at most
    /// `cache_capacity` entries.
    pub fn with_capacity(cache_capacity: usize) -> Self {
        DatasetRegistry {
            datasets: RwLock::new(HashMap::new()),
            starting_contexts: Mutex::new(LruCache::new(cache_capacity)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Registers (or replaces) a dataset under `name`, computing its
    /// summary statistics once. Replacing drops the previous dataset's
    /// cached starting contexts.
    pub fn register(&self, name: &str, dataset: Dataset) -> Arc<DatasetEntry> {
        let entry = Arc::new(DatasetEntry {
            name: name.to_string(),
            stats: DatasetStats::compute(&dataset),
            dataset: Arc::new(dataset),
        });
        let replaced = {
            let mut datasets = self.datasets.write().expect("registry poisoned");
            datasets.insert(name.to_string(), Arc::clone(&entry)).is_some()
        };
        if replaced {
            // Cached derived state for the old dataset is invalid; the
            // cache is keyed by name, so the simplest sound policy is a
            // full clear.
            self.starting_contexts.lock().expect("cache poisoned").clear();
        }
        entry
    }

    /// Looks up a dataset by name.
    ///
    /// # Errors
    /// Returns [`ServiceError::UnknownDataset`] when absent.
    pub fn get(&self, name: &str) -> Result<Arc<DatasetEntry>> {
        self.datasets
            .read()
            .expect("registry poisoned")
            .get(name)
            .cloned()
            .ok_or_else(|| ServiceError::UnknownDataset(name.to_string()))
    }

    /// The registered dataset names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> =
            self.datasets.read().expect("registry poisoned").keys().cloned().collect();
        names.sort();
        names
    }

    /// Number of registered datasets.
    pub fn len(&self) -> usize {
        self.datasets.read().expect("registry poisoned").len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Peeks the starting-context cache without searching on a miss — the
    /// serving path resolves misses on its own session verifier (so the
    /// search's evaluations stay memoized for the releases that follow) and
    /// publishes the result back via
    /// [`store_starting_context`](DatasetRegistry::store_starting_context).
    /// Counts a hit; the matching miss is counted at store time, so a
    /// search that finds no context counts neither.
    pub fn cached_starting_context(
        &self,
        dataset: &str,
        record_id: usize,
        detector: DetectorKind,
    ) -> Option<Context> {
        let key: StartKey = (dataset.to_string(), record_id, detector);
        let cached = self.starting_contexts.lock().expect("cache poisoned").get(&key).cloned();
        if cached.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        cached
    }

    /// Publishes a freshly discovered starting context into the shared
    /// cache, counted as one miss.
    ///
    /// `discovery_cost` is the number of fresh `f_M` verification calls the
    /// search burned finding the context; the cache weighs eviction by it,
    /// so contexts that are cheap to rediscover evict first. Pass the
    /// measured call delta (a zero is clamped to 1).
    pub fn store_starting_context(
        &self,
        dataset: &str,
        record_id: usize,
        detector: DetectorKind,
        context: Context,
        discovery_cost: u64,
    ) {
        let key: StartKey = (dataset.to_string(), record_id, detector);
        self.misses.fetch_add(1, Ordering::Relaxed);
        let evicted = self.starting_contexts.lock().expect("cache poisoned").insert_with_cost(
            key,
            context,
            discovery_cost,
        );
        if evicted.is_some() {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Exports the hot starting-context entries (plus the fingerprints of
    /// the datasets they came from) for a warm restart.
    ///
    /// Entries come out in ascending eviction order via
    /// [`LruCache::export_entries`], so seeding them back in order
    /// reproduces the cache's relative protection.
    pub fn export_warm_state(&self) -> WarmState {
        let datasets: Vec<WarmDataset> = {
            let map = self.datasets.read().expect("registry poisoned");
            let mut fingerprints: Vec<WarmDataset> = map
                .values()
                .map(|entry| WarmDataset { name: entry.name.clone(), stats: entry.stats.clone() })
                .collect();
            fingerprints.sort_by(|a, b| a.name.cmp(&b.name));
            fingerprints
        };
        let starting_contexts = self
            .starting_contexts
            .lock()
            .expect("cache poisoned")
            .export_entries()
            .into_iter()
            .map(|((dataset, record_id, detector), context, cost)| WarmContext {
                dataset,
                record_id,
                detector,
                context,
                cost,
            })
            .collect();
        WarmState { datasets, starting_contexts }
    }

    /// Seeds the starting-context cache from exported warm state, returning
    /// how many entries were accepted.
    ///
    /// Only entries whose dataset is currently registered under the same
    /// name *with identical summary statistics* are seeded — derived state
    /// for changed or missing data is silently dropped (a restart with new
    /// data pays fresh discovery, never serves stale contexts). Seeding
    /// counts neither hits nor misses; evictions forced by a smaller cache
    /// are counted as usual.
    pub fn seed_warm_state(&self, warm: WarmState) -> usize {
        let eligible: HashMap<&str, bool> = {
            let map = self.datasets.read().expect("registry poisoned");
            warm.datasets
                .iter()
                .map(|fp| {
                    let matches = map.get(&fp.name).is_some_and(|entry| entry.stats == fp.stats);
                    (fp.name.as_str(), matches)
                })
                .collect()
        };
        let mut seeded = 0;
        let mut cache = self.starting_contexts.lock().expect("cache poisoned");
        for entry in warm.starting_contexts {
            if eligible.get(entry.dataset.as_str()).copied() != Some(true) {
                continue;
            }
            let key: StartKey = (entry.dataset, entry.record_id, entry.detector);
            if cache.seed_entry(key, entry.context, entry.cost).is_some() {
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
            seeded += 1;
        }
        seeded
    }

    /// Hit/miss counters of the starting-context cache.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            len: self.starting_contexts.lock().expect("cache poisoned").len(),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for DatasetRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DatasetRegistry")
            .field("datasets", &self.names())
            .field("cache", &self.cache_stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcor_core::ReleaseSession;
    use pcor_data::{Attribute, Record, Schema};
    use pcor_dp::PopulationSizeUtility;

    /// A dataset where record 0 is extreme inside its own (a0, b0) cell.
    fn toy_dataset() -> Dataset {
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
            records.push(Record::new(
                vec![(i % 2) as u16, ((i / 2) % 2) as u16],
                100.0 + (i % 7) as f64,
            ));
        }
        Dataset::new(schema, records).unwrap()
    }

    /// Runs the serving path's search for record 0's starting context:
    /// the context and the fresh `f_M` calls it burned.
    fn discover(dataset: &Dataset) -> (Context, u64) {
        let detector = DetectorKind::ZScore.build();
        let utility = PopulationSizeUtility;
        let mut session = ReleaseSession::builder(dataset, detector.as_ref(), &utility).build();
        let context = session.resolve_starting_context(0).unwrap();
        (context, session.stats().verification_calls as u64)
    }

    /// Stores record 0's discovered starting context under "toy".
    fn store_discovered(registry: &DatasetRegistry, entry: &DatasetEntry) -> Context {
        let (context, cost) = discover(entry.dataset());
        registry.store_starting_context("toy", 0, DetectorKind::ZScore, context.clone(), cost);
        context
    }

    #[test]
    fn register_get_and_stats() {
        let registry = DatasetRegistry::new();
        assert!(registry.is_empty());
        let entry = registry.register("toy", toy_dataset());
        assert_eq!(entry.name(), "toy");
        assert_eq!(registry.len(), 1);
        assert_eq!(registry.names(), vec!["toy".to_string()]);
        let stats = entry.stats();
        assert_eq!(stats.records, 41);
        assert_eq!(stats.attributes, 2);
        assert_eq!(stats.total_values, 4);
        assert_eq!(stats.metric_max, 900.0);
        assert!(stats.metric_min >= 100.0);
        assert!(stats.metric_mean > stats.metric_min && stats.metric_mean < stats.metric_max);
        assert!(matches!(
            registry.get("missing"),
            Err(ServiceError::UnknownDataset(name)) if name == "missing"
        ));
        // The Arc handle points at the same dataset.
        assert_eq!(entry.dataset_arc().len(), registry.get("toy").unwrap().dataset().len());
    }

    #[test]
    fn starting_contexts_hit_on_repeat_lookups() {
        let registry = DatasetRegistry::new();
        let entry = registry.register("toy", toy_dataset());
        assert_eq!(registry.cached_starting_context("toy", 0, DetectorKind::ZScore), None);
        let stored = store_discovered(&registry, &entry);
        let first = registry.cached_starting_context("toy", 0, DetectorKind::ZScore);
        let second = registry.cached_starting_context("toy", 0, DetectorKind::ZScore);
        assert_eq!(first.as_ref(), Some(&stored), "a stored context must hit");
        assert_eq!(first, second);
        let stats = registry.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.len), (2, 1, 1));
        // A different detector is a different key.
        assert_eq!(registry.cached_starting_context("toy", 0, DetectorKind::Iqr), None);
        assert_eq!(registry.cache_stats().hits, 2, "a peek that misses counts nothing");
    }

    #[test]
    fn replacing_a_dataset_clears_both_caches() {
        let registry = DatasetRegistry::new();
        let entry = registry.register("toy", toy_dataset());
        store_discovered(&registry, &entry);
        assert_eq!(registry.cache_stats().len, 1);
        registry.register("toy", toy_dataset());
        assert_eq!(
            registry.cache_stats().len,
            0,
            "stale starting contexts must not survive re-registration"
        );
        assert_eq!(registry.cached_starting_context("toy", 0, DetectorKind::ZScore), None);
    }

    #[test]
    fn greedy_dual_evictions_are_counted() {
        let registry = DatasetRegistry::with_capacity(1);
        let entry = registry.register("toy", toy_dataset());
        let context = store_discovered(&registry, &entry);
        assert_eq!(registry.cache_stats().evictions, 0);
        // A second key against a capacity-1 LRU must evict the first.
        registry.store_starting_context("toy", 1, DetectorKind::ZScore, context.clone(), 1);
        assert_eq!(registry.cache_stats().evictions, 1);
        // Replacing an existing key is an update, not an eviction.
        registry.store_starting_context("toy", 1, DetectorKind::ZScore, context, 2);
        let stats = registry.cache_stats();
        assert_eq!((stats.evictions, stats.len), (1, 1));
    }

    #[test]
    fn warm_state_round_trips_into_cache_hits() {
        let registry = DatasetRegistry::new();
        let entry = registry.register("toy", toy_dataset());
        store_discovered(&registry, &entry);
        let warm = registry.export_warm_state();
        assert_eq!(warm.datasets.len(), 1);
        assert_eq!(warm.starting_contexts.len(), 1);
        assert!(warm.starting_contexts[0].cost >= 1, "discovery cost travels with the entry");

        // A "restarted" registry with the same dataset accepts the seed…
        let restarted = DatasetRegistry::new();
        restarted.register("toy", toy_dataset());
        assert_eq!(restarted.seed_warm_state(warm.clone()), 1);
        // …and the first lookup is a hit that agrees with fresh discovery.
        let context = restarted.cached_starting_context("toy", 0, DetectorKind::ZScore);
        assert_eq!(context.as_ref(), Some(&warm.starting_contexts[0].context));
        assert_eq!(context, Some(discover(&toy_dataset()).0));
        let stats = restarted.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 0), "seeding counts neither");
    }

    #[test]
    fn warm_state_for_changed_or_missing_datasets_is_dropped() {
        let registry = DatasetRegistry::new();
        let entry = registry.register("toy", toy_dataset());
        store_discovered(&registry, &entry);
        let warm = registry.export_warm_state();

        // Missing dataset: nothing to validate against.
        let empty = DatasetRegistry::new();
        assert_eq!(empty.seed_warm_state(warm.clone()), 0);

        // Same name, different data: the fingerprint mismatch drops it.
        let changed = DatasetRegistry::new();
        let schema = Schema::new(vec![Attribute::from_values("A", &["a0", "a1"])], "M").unwrap();
        let records = vec![Record::new(vec![0], 1.0), Record::new(vec![1], 2.0)];
        changed.register("toy", Dataset::new(schema, records).unwrap());
        assert_eq!(changed.seed_warm_state(warm), 0);
        assert_eq!(changed.cache_stats().len, 0);
    }
}

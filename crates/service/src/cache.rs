//! A small cost-weighted LRU cache (GreedyDual eviction).
//!
//! Used by the [`DatasetRegistry`](crate::registry::DatasetRegistry) to
//! memoize verified starting contexts. Entries carry a *discovery cost*
//! (for starting contexts: the fresh `f_M` verification calls the search
//! burned), and eviction follows the classic GreedyDual rule: each entry
//! holds a priority `clock + cost`, refreshed on every hit; eviction
//! removes the minimum-priority entry and advances the clock to that
//! priority. The effect is exactly what a serving cache wants —
//! cheap-to-rediscover entries evict first, expensive entries are
//! protected, and the advancing clock *ages* expensive-but-stale entries
//! so they cannot pin the cache forever. With uniform costs the rule
//! degenerates to plain LRU (ties broken by recency), so
//! [`LruCache::insert`] keeps the historical behavior.
//!
//! Implemented with a `HashMap` plus a scan-for-minimum eviction. The scan
//! is `O(len)`, which is deliberate: capacities here are small (the registry's is 1,024),
//! the cache sits behind a mutex on a path that otherwise runs a graph
//! search over the dataset, and the simple structure keeps the hot `get`
//! at a single hash lookup.

use std::collections::HashMap;
use std::hash::Hash;

#[derive(Debug)]
struct Entry<V> {
    value: V,
    /// The entry's discovery cost (re-applied to the priority on each hit).
    cost: u64,
    /// GreedyDual priority: `clock at last touch + cost`.
    priority: u64,
    /// Monotone use-stamp breaking priority ties by recency.
    stamp: u64,
}

/// A bounded map that evicts the lowest-value entry on overflow, where
/// value = GreedyDual priority (recency aged by discovery cost).
#[derive(Debug)]
pub struct LruCache<K, V> {
    capacity: usize,
    clock: u64,
    stamp: u64,
    entries: HashMap<K, Entry<V>>,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// Creates a cache holding at most `capacity` entries (`capacity >= 1`).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "LRU capacity must be at least 1");
        LruCache { capacity, clock: 0, stamp: 0, entries: HashMap::new() }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Looks up `key`, refreshing its recency (and re-applying its cost to
    /// the priority) on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.stamp += 1;
        let (clock, stamp) = (self.clock, self.stamp);
        match self.entries.get_mut(key) {
            Some(entry) => {
                entry.priority = clock.saturating_add(entry.cost);
                entry.stamp = stamp;
                Some(&entry.value)
            }
            None => None,
        }
    }

    /// Inserts `key → value` at cost 1 (uniform cost ⇒ plain LRU
    /// eviction). Returns the evicted entry, if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        self.insert_with_cost(key, value, 1)
    }

    /// Inserts `key → value` with an explicit discovery `cost`, evicting
    /// the minimum-priority entry if the cache is full (cheapest to
    /// rediscover first, ties broken by least recent use). Returns the
    /// evicted entry, if any. A zero cost is clamped to 1 so every entry
    /// outranks the bare clock.
    pub fn insert_with_cost(&mut self, key: K, value: V, cost: u64) -> Option<(K, V)> {
        self.stamp += 1;
        let stamp = self.stamp;
        let cost = cost.max(1);
        let priority = self.clock.saturating_add(cost);
        if let Some(entry) = self.entries.get_mut(&key) {
            *entry = Entry { value, cost, priority, stamp };
            return None;
        }
        let evicted = if self.entries.len() >= self.capacity {
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, entry)| (entry.priority, entry.stamp))
                .map(|(k, entry)| (k.clone(), entry.priority));
            victim.and_then(|(k, victim_priority)| {
                // GreedyDual aging: the clock jumps to the evicted
                // priority, so long-untouched expensive entries lose their
                // edge over fresh cheap ones.
                self.clock = self.clock.max(victim_priority);
                self.entries.remove_entry(&k).map(|(k, entry)| (k, entry.value))
            })
        } else {
            None
        };
        let priority = self.clock.saturating_add(cost);
        self.entries.insert(key, Entry { value, cost, priority, stamp });
        evicted
    }

    /// Removes every entry (the clock and stamps keep advancing).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Exports every entry as `(key, value, cost)` in ascending eviction
    /// order (lowest GreedyDual priority first, ties by least recent use).
    ///
    /// The ordering is what makes warm restarts faithful: re-inserting the
    /// exported entries *in order* via [`LruCache::seed_entry`] rebuilds an
    /// equivalent cache — under uniform costs the stamp order reproduces
    /// the exact LRU order, and under mixed costs the relative priorities
    /// are preserved (each re-insert stamps `clock + cost` with the clock
    /// at its restart baseline).
    pub fn export_entries(&self) -> Vec<(K, V, u64)>
    where
        V: Clone,
    {
        let mut entries: Vec<_> = self.entries.iter().collect();
        entries.sort_by_key(|(_, entry)| (entry.priority, entry.stamp));
        entries
            .into_iter()
            .map(|(key, entry)| (key.clone(), entry.value.clone(), entry.cost))
            .collect()
    }

    /// Inserts one exported entry during warm-restart seeding — exactly
    /// [`LruCache::insert_with_cost`], named so call sites read as what
    /// they are.
    pub fn seed_entry(&mut self, key: K, value: V, cost: u64) -> Option<(K, V)> {
        self.insert_with_cost(key, value, cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_refresh_recency() {
        let mut cache = LruCache::new(2);
        cache.insert("a", 1);
        cache.insert("b", 2);
        // Touch `a`, so `b` is now least recently used.
        assert_eq!(cache.get(&"a"), Some(&1));
        let evicted = cache.insert("c", 3);
        assert_eq!(evicted, Some(("b", 2)));
        assert_eq!(cache.get(&"a"), Some(&1));
        assert_eq!(cache.get(&"b"), None);
        assert_eq!(cache.get(&"c"), Some(&3));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn reinsert_updates_without_eviction() {
        let mut cache = LruCache::new(2);
        cache.insert("a", 1);
        cache.insert("b", 2);
        assert_eq!(cache.insert("a", 10), None);
        assert_eq!(cache.get(&"a"), Some(&10));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn capacity_one_always_evicts_the_previous() {
        let mut cache = LruCache::new(1);
        assert!(cache.is_empty());
        assert_eq!(cache.insert(1, "x"), None);
        assert_eq!(cache.insert(2, "y"), Some((1, "x")));
        assert_eq!(cache.capacity(), 1);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn cheap_entries_evict_before_expensive_ones_regardless_of_recency() {
        let mut cache = LruCache::new(3);
        cache.insert_with_cost("expensive", 1, 1_000);
        cache.insert_with_cost("cheap-1", 2, 2);
        cache.insert_with_cost("cheap-2", 3, 2);
        // `expensive` is the least recently used, but the cheap entries are
        // nearly free to rediscover: they must go first.
        assert_eq!(cache.insert_with_cost("new-1", 4, 2), Some(("cheap-1", 2)));
        assert_eq!(cache.insert_with_cost("new-2", 5, 2), Some(("cheap-2", 3)));
        assert_eq!(cache.get(&"expensive"), Some(&1));
    }

    #[test]
    fn the_clock_ages_stale_expensive_entries() {
        const EXPENSIVE: u64 = 0;
        let mut cache = LruCache::new(2);
        cache.insert_with_cost(EXPENSIVE, "keep?", 10);
        cache.insert_with_cost(1, "cheap", 4);
        // Each eviction advances the clock to the evicted priority; without
        // hits, `EXPENSIVE` (priority 10) is eventually undercut by fresh
        // entries whose priority is clock + cost.
        let mut survived = 0;
        for round in 0u64..8 {
            let evicted = cache.insert_with_cost(100 + round, "fill", 4);
            if evicted.map(|(k, _)| k) == Some(EXPENSIVE) {
                break;
            }
            survived += 1;
        }
        assert!(survived >= 1, "the expensive entry must outlive the first cheap wave");
        assert!(survived < 8, "aging must eventually evict a never-hit expensive entry");
    }

    #[test]
    fn uniform_costs_degenerate_to_lru() {
        let mut cache = LruCache::new(3);
        for key in ["a", "b", "c"] {
            cache.insert(key, 0);
        }
        cache.get(&"a");
        cache.get(&"b");
        // `c` is least recently used under uniform cost.
        assert_eq!(cache.insert("d", 0).map(|(k, _)| k), Some("c"));
        assert_eq!(cache.insert("e", 0).map(|(k, _)| k), Some("a"));
    }

    #[test]
    fn zero_costs_are_clamped() {
        let mut cache = LruCache::new(1);
        cache.insert_with_cost("a", 1, 0);
        // The clamped entry still behaves like a cost-1 entry.
        assert_eq!(cache.insert_with_cost("b", 2, 0), Some(("a", 1)));
        assert_eq!(cache.get(&"b"), Some(&2));
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_is_rejected() {
        let _ = LruCache::<u32, u32>::new(0);
    }

    #[test]
    fn export_orders_entries_by_eviction_priority() {
        let mut cache = LruCache::new(3);
        cache.insert_with_cost("expensive", 1, 1_000);
        cache.insert_with_cost("cheap-old", 2, 2);
        cache.insert_with_cost("cheap-new", 3, 2);
        let exported = cache.export_entries();
        let keys: Vec<_> = exported.iter().map(|(k, _, _)| *k).collect();
        assert_eq!(keys, vec!["cheap-old", "cheap-new", "expensive"]);
        assert_eq!(exported[2], ("expensive", 1, 1_000));
    }

    #[test]
    fn uniform_cost_round_trip_preserves_lru_order() {
        let mut original = LruCache::new(3);
        for key in ["a", "b", "c"] {
            original.insert(key, 0);
        }
        original.get(&"a"); // eviction order is now b, c, a

        let mut restored = LruCache::new(3);
        for (key, value, cost) in original.export_entries() {
            restored.seed_entry(key, value, cost);
        }
        assert_eq!(restored.len(), 3);
        // The restored cache must evict in the same order the original
        // would have: b first, then c, protecting the recently-hit a.
        assert_eq!(restored.insert("d", 0).map(|(k, _)| k), Some("b"));
        assert_eq!(restored.insert("e", 0).map(|(k, _)| k), Some("c"));
        assert_eq!(restored.get(&"a"), Some(&0));
    }

    #[test]
    fn mixed_cost_round_trip_preserves_relative_protection() {
        let mut original = LruCache::new(3);
        original.insert_with_cost("expensive", 1, 500);
        original.insert_with_cost("cheap-1", 2, 2);
        original.insert_with_cost("cheap-2", 3, 2);

        let mut restored = LruCache::new(3);
        for (key, value, cost) in original.export_entries() {
            restored.seed_entry(key, value, cost);
        }
        assert_eq!(restored.insert_with_cost("new", 4, 2).map(|(k, _)| k), Some("cheap-1"));
        assert_eq!(restored.get(&"expensive"), Some(&1));
    }

    #[test]
    fn seeding_respects_capacity() {
        let mut original = LruCache::new(4);
        for key in 0..4u32 {
            original.insert(key, key);
        }
        let mut restored = LruCache::new(2);
        for (key, value, cost) in original.export_entries() {
            restored.seed_entry(key, value, cost);
        }
        // Only the two most-protected entries survive a smaller cache.
        assert_eq!(restored.len(), 2);
        assert_eq!(restored.get(&3), Some(&3));
        assert_eq!(restored.get(&2), Some(&2));
    }
}

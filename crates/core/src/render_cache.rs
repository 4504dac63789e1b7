//! Bounded cross-batch render cache, keyed by [`EnforcementKey`].
//!
//! Steady-state dashboard traffic delivers the same reports to the same
//! role profiles batch after batch. The equivalence key already proves
//! two requests render identically — and every input it fingerprints is
//! part of the key itself (policy epoch, source storage versions), so a
//! *stale* entry is simply *unreachable*: any PLA mutation or ETL
//! commit changes the key the next batch computes, and the old entry
//! ages out of the LRU without ever being consulted again.
//!
//! Two things the key does not see are handled explicitly by
//! [`crate::system::BiSystem`]:
//!
//! * **report redefinition** — `define_report`/`remove_report` evict by
//!   report id (the key names the id, not the plan behind it);
//! * **engine/source mutation** — `engine_mut` (pseudonym keys,
//!   hierarchies, noise seeds) and `register_source` (attribution)
//!   clear the cache outright.
//!
//! Hits, misses and evictions are *strategy* counters
//! (`render.cache.*`), excluded from snapshot equality like the chunk
//! cache's: warmth depends on process history, not request shape.

use std::collections::BTreeMap;
use std::sync::Arc;

use bi_exec::{Counter, Obs};
use bi_pla::EnforcementKey;
use bi_types::ReportId;

use crate::scheduler::RenderedDelivery;

/// Default bound, in cached renders. Renders are heavier than cached
/// columns (a whole enforced table each), so the bound sits below the
/// chunk cache's: a few hundred covers every (report, role-profile)
/// pair of a working dashboard set.
pub(crate) const DEFAULT_CAPACITY: usize = 256;

struct Entry {
    /// Last-touch tick for LRU eviction.
    stamp: u64,
    value: Arc<RenderedDelivery>,
}

/// The cache. Owned by one `BiSystem` (not process-wide: keys embed
/// per-system epochs) and only touched from the serial phases of
/// `deliver_batch`, so no lock is needed.
pub(crate) struct RenderCache {
    capacity: usize,
    tick: u64,
    map: BTreeMap<EnforcementKey, Entry>,
}

impl RenderCache {
    pub fn new(capacity: usize) -> Self {
        RenderCache {
            capacity,
            tick: 0,
            map: BTreeMap::new(),
        }
    }

    /// The shared render for `key`, refreshing its LRU stamp. `None`
    /// when absent.
    pub fn get(&mut self, key: &EnforcementKey, obs: &Obs) -> Option<Arc<RenderedDelivery>> {
        self.tick += 1;
        let tick = self.tick;
        match self.map.get_mut(key) {
            Some(e) => {
                e.stamp = tick;
                obs.count(Counter::RenderCacheHit);
                Some(Arc::clone(&e.value))
            }
            None => {
                obs.count(Counter::RenderCacheMiss);
                None
            }
        }
    }

    /// Stores a freshly rendered group outcome, evicting the
    /// least-recently-used eighth when full.
    pub fn insert(&mut self, key: EnforcementKey, value: Arc<RenderedDelivery>, obs: &Obs) {
        self.tick += 1;
        let tick = self.tick;
        if self.map.len() >= self.capacity {
            self.evict_oldest(obs);
        }
        self.map.insert(key, Entry { stamp: tick, value });
    }

    /// Drops the least-recently-touched eighth (at least one entry) so
    /// insertions after a full sweep do not evict one-by-one.
    fn evict_oldest(&mut self, obs: &Obs) {
        let mut stamps: Vec<u64> = self.map.values().map(|e| e.stamp).collect();
        if stamps.is_empty() {
            return;
        }
        stamps.sort_unstable();
        let cutoff = stamps[stamps.len() / 8];
        let before = self.map.len();
        self.map.retain(|_, e| e.stamp > cutoff);
        obs.add(Counter::RenderCacheEvict, (before - self.map.len()) as u64);
    }

    /// Evicts every entry of one report — its definition is being
    /// replaced or removed, which the key cannot see.
    pub fn evict_report(&mut self, id: &ReportId) {
        self.map.retain(|k, _| k.report() != id);
    }

    /// Drops everything (engine or source-attribution mutation).
    pub fn clear(&mut self) {
        self.map.clear();
    }

    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bi_query::plan::scan;
    use bi_report::RenderOutcome;
    use bi_types::RoleId;
    use std::collections::BTreeSet;

    fn rendered(report: &str) -> Arc<RenderedDelivery> {
        Arc::new(RenderedDelivery::new(
            Arc::new(bi_report::ReportSpec::new(
                report,
                report,
                scan("T"),
                [RoleId::new("analyst")],
            )),
            Arc::default(),
            RenderOutcome::Refused(vec![]),
            vec![("T".into(), 7)],
        ))
    }

    fn key(report: &str, epoch: u64, version: u64) -> EnforcementKey {
        EnforcementKey::new(
            ReportId::new(report),
            &BTreeSet::new(),
            None,
            epoch,
            vec![("T".into(), version)],
        )
    }

    #[test]
    fn hit_shares_and_miss_counts() {
        let mut cache = RenderCache::new(4);
        let obs = Obs::enabled();
        assert!(cache.get(&key("r", 1, 1), &obs).is_none());
        cache.insert(key("r", 1, 1), rendered("r"), &obs);
        let hit = cache.get(&key("r", 1, 1), &obs).expect("cached");
        assert_eq!(hit.report.id, ReportId::new("r"));
        // A different epoch or storage version is a different key — the
        // "stale" entry is unreachable, not served.
        assert!(cache.get(&key("r", 2, 1), &obs).is_none());
        assert!(cache.get(&key("r", 1, 2), &obs).is_none());
        let snap = obs.snapshot();
        assert_eq!(snap.counters.get("render.cache.hit"), Some(&1));
        assert_eq!(snap.counters.get("render.cache.miss"), Some(&3));
    }

    #[test]
    fn capacity_bounds_and_lru_evicts() {
        let mut cache = RenderCache::new(2);
        let obs = Obs::enabled();
        cache.insert(key("a", 1, 1), rendered("a"), &obs);
        cache.insert(key("b", 1, 1), rendered("b"), &obs);
        // Touch "a" so "b" is the LRU victim.
        assert!(cache.get(&key("a", 1, 1), &obs).is_some());
        cache.insert(key("c", 1, 1), rendered("c"), &obs);
        assert!(cache.len() <= 2);
        assert!(
            cache.get(&key("a", 1, 1), &obs).is_some(),
            "recently used survives"
        );
        assert!(cache.get(&key("b", 1, 1), &obs).is_none(), "LRU evicted");
        assert_eq!(obs.snapshot().counters.get("render.cache.evict"), Some(&1));
    }

    #[test]
    fn report_eviction_and_clear() {
        let mut cache = RenderCache::new(8);
        let obs = Obs::enabled();
        cache.insert(key("a", 1, 1), rendered("a"), &obs);
        cache.insert(key("a", 2, 1), rendered("a"), &obs);
        cache.insert(key("b", 1, 1), rendered("b"), &obs);
        cache.evict_report(&ReportId::new("a"));
        assert_eq!(cache.len(), 1);
        assert!(cache.get(&key("b", 1, 1), &obs).is_some());
        cache.clear();
        assert_eq!(cache.len(), 0);
    }
}

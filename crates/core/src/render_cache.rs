//! Bounded cross-batch render cache, keyed by [`EnforcementKey`].
//!
//! Steady-state dashboard traffic delivers the same reports to the same
//! role profiles batch after batch. The cache holds the renders of one
//! system revision: every mutation of what a render reads (PLAs, data,
//! source attribution, report definitions, the engine) bumps the
//! revision, and a batch arriving at another revision finds the cache
//! started over. So the key only names what differs between requests
//! at one revision — the report and the effective roles — and no mutation
//! path has to remember to invalidate anything.
//!
//! Hits, misses and evictions are *strategy* counters
//! (`render.cache.*`), excluded from snapshot equality like the chunk
//! cache's: warmth depends on process history, not request shape.

use std::collections::BTreeMap;
use std::sync::Arc;

use bi_exec::{Counter, Obs};
use bi_pla::EnforcementKey;

use crate::scheduler::RenderedDelivery;

/// Bound, in cached renders. Renders are heavier than cached columns (a
/// whole enforced table each), so the bound sits below the chunk
/// cache's: a few hundred covers every (report, role-profile) pair of a
/// working dashboard set.
const CAPACITY: usize = 256;

struct Entry {
    /// Last-touch tick for LRU eviction.
    stamp: u64,
    value: Arc<RenderedDelivery>,
}

/// The cache. Owned by one `BiSystem` and only touched from the serial
/// phases of `deliver_batch`, so no lock is needed.
#[derive(Default)]
pub(crate) struct RenderCache {
    /// The system revision every entry was rendered at.
    revision: u64,
    tick: u64,
    map: BTreeMap<EnforcementKey, Entry>,
}

impl RenderCache {
    /// Moves the cache to `revision`, dropping every render made at
    /// another one.
    pub fn start_at(&mut self, revision: u64) {
        if self.revision != revision {
            self.revision = revision;
            self.map.clear();
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
        if self.map.len() >= CAPACITY {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use bi_query::plan::scan;
    use bi_report::RenderOutcome;
    use bi_types::{ReportId, RoleId};
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

    fn key(report: &str) -> EnforcementKey {
        EnforcementKey::new(ReportId::new(report), &BTreeSet::new())
    }

    #[test]
    fn hit_shares_and_miss_counts() {
        let mut cache = RenderCache::default();
        let obs = Obs::enabled();
        assert!(cache.get(&key("r"), &obs).is_none());
        cache.insert(key("r"), rendered("r"), &obs);
        let hit = cache.get(&key("r"), &obs).expect("cached");
        assert_eq!(hit.report.id, ReportId::new("r"));
        assert!(cache.get(&key("s"), &obs).is_none());
        let snap = obs.snapshot();
        assert_eq!(snap.counters.get("render.cache.hit"), Some(&1));
        assert_eq!(snap.counters.get("render.cache.miss"), Some(&2));
    }

    #[test]
    fn capacity_bounds_and_lru_evicts() {
        let mut cache = RenderCache::default();
        let obs = Obs::enabled();
        let names: Vec<String> = (0..CAPACITY).map(|i| format!("r{i}")).collect();
        for name in &names {
            cache.insert(key(name), rendered(name), &obs);
        }
        // Touch the oldest so the next-oldest eighth are the LRU victims.
        assert!(cache.get(&key(&names[0]), &obs).is_some());
        cache.insert(key("new"), rendered("new"), &obs);
        assert!(cache.map.len() <= CAPACITY);
        assert!(
            cache.get(&key(&names[0]), &obs).is_some(),
            "recently used survives"
        );
        assert!(cache.get(&key(&names[1]), &obs).is_none(), "LRU evicted");
        assert!(cache.get(&key("new"), &obs).is_some());
        assert_eq!(
            obs.snapshot().counters.get("render.cache.evict"),
            Some(&((CAPACITY / 8) as u64 + 1))
        );
    }

    #[test]
    fn another_revision_starts_over() {
        let mut cache = RenderCache::default();
        let obs = Obs::enabled();
        cache.start_at(1);
        cache.insert(key("r"), rendered("r"), &obs);
        cache.start_at(1);
        assert!(cache.get(&key("r"), &obs).is_some(), "same revision hits");
        cache.start_at(2);
        assert!(cache.map.is_empty());
        assert!(cache.get(&key("r"), &obs).is_none());
    }
}

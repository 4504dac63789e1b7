//! Process-wide version-keyed column cache.
//!
//! `Table → ColumnChunk` conversion is an O(rows) transpose; before this
//! cache every plan execution paid it again even when the warehouse had
//! not changed — the dominant cost of repeated report renders over the
//! same data (ROADMAP item 3). The cache keys one converted [`Column`]
//! by `(storage version, column index)`:
//!
//! * [`Table::storage_version`] is process-unique per row-storage
//!   *content* — equal versions imply identical rows — so a hit can
//!   never serve stale data. Mutation (CoW `push_row`, any derived
//!   table with new storage) draws a fresh version and simply misses;
//!   old entries age out of the LRU, they are never served again.
//! * Values are `Arc<Column>`: hits share the typed vectors and text
//!   dictionaries, so a warm render does zero row scans for conversion.
//! * Declines ([`ColumnarError`]) are cached too — a column that mixes
//!   Int into Float stays un-convertible until the table changes, and
//!   re-discovering that per render would be the same O(rows) scan the
//!   cache exists to avoid.
//!
//! Only the default (unlimited) dictionary configuration goes through
//! the cache; test paths that inject tiny dictionary limits use the
//! uncached constructors so their declines never pollute shared state.
//!
//! The bound is not baked in: callers thread
//! [`bi_exec::ExecConfig::chunk_cache_capacity`] through (default 512 —
//! a few hundred entries cover every base table and hot derived table
//! of a working set many times over, while bounding memory when ETL
//! churns versions). Capacity `0` disables caching entirely.
//!
//! Hits and misses are counted per column (`chunk.cache.hit/miss`).
//! Both are *strategy* counters, excluded from [`bi_obs::ObsSnapshot`]
//! equality: warmth depends on process history, not query shape.

use std::collections::HashMap;
use std::sync::Arc;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

use bi_exec::{Counter, Obs};

use super::{build_column, Column, ColumnarError};
use crate::table::Table;

struct Entry {
    res: Result<Arc<Column>, ColumnarError>,
    /// Last-touch tick for LRU eviction.
    stamp: u64,
}

#[derive(Default)]
struct Inner {
    map: HashMap<(u64, usize), Entry>,
    tick: u64,
}

fn global() -> &'static Mutex<Inner> {
    static CACHE: OnceLock<Mutex<Inner>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(Inner::default()))
}

fn lock_in(cache: &Mutex<Inner>) -> MutexGuard<'_, Inner> {
    cache.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The column at schema position `c` of `table`, served from the cache
/// when this storage version was converted before, built (and cached —
/// including declines) otherwise. `capacity` bounds the cache (in
/// cached columns); `0` disables it — every call builds uncached and no
/// cache counters fire. Callers thread it from
/// [`bi_exec::ExecConfig::chunk_cache_capacity`].
pub(crate) fn cached_column(
    table: &Table,
    c: usize,
    obs: &Obs,
    capacity: usize,
) -> Result<Arc<Column>, ColumnarError> {
    cached_column_in(global(), table, c, obs, capacity)
}

fn cached_column_in(
    cache: &Mutex<Inner>,
    table: &Table,
    c: usize,
    obs: &Obs,
    capacity: usize,
) -> Result<Arc<Column>, ColumnarError> {
    if capacity == 0 {
        return build(table, c).map(Arc::new);
    }
    let key = (table.storage_version(), c);
    {
        let mut inner = lock_in(cache);
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(e) = inner.map.get_mut(&key) {
            e.stamp = tick;
            obs.count(Counter::ChunkCacheHit);
            return e.res.clone();
        }
    }
    // Build outside the lock: conversion is O(rows) and must not stall
    // concurrent deliveries. Two threads racing on the same cold key
    // both build; the inserts agree (the version pins the content).
    let res = build(table, c).map(Arc::new);
    obs.count(Counter::ChunkCacheMiss);
    let mut inner = lock_in(cache);
    inner.tick += 1;
    let tick = inner.tick;
    if inner.map.len() >= capacity {
        evict_oldest(&mut inner);
    }
    inner.map.insert(
        key,
        Entry {
            res: res.clone(),
            stamp: tick,
        },
    );
    res
}

fn build(table: &Table, c: usize) -> Result<Column, ColumnarError> {
    table
        .schema()
        .columns()
        .get(c)
        .ok_or(ColumnarError::NoSuchColumn { index: c })
        .and_then(|sc| build_column(table, c, sc.dtype, &sc.name))
}

/// Drops the least-recently-touched eighth of the cache so insertions
/// after a full sweep do not evict one-by-one.
fn evict_oldest(inner: &mut Inner) {
    let mut stamps: Vec<u64> = inner.map.values().map(|e| e.stamp).collect();
    stamps.sort_unstable();
    let cutoff = stamps[stamps.len() / 8];
    inner.map.retain(|_, e| e.stamp > cutoff);
}

/// Number of cached columns (diagnostics and tests).
pub fn len() -> usize {
    lock_in(global()).map.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::{ColumnChunk, ColumnData};
    use bi_exec::{ExecConfig, DEFAULT_CHUNK_CACHE_CAPACITY};
    use bi_types::{Column as SchemaColumn, DataType, Schema, Value};

    fn observed_cfg() -> ExecConfig {
        ExecConfig::serial().with_obs(Obs::enabled())
    }

    fn table(rows: &[i64]) -> Table {
        let schema = Schema::new(vec![
            SchemaColumn::new("x", DataType::Int),
            SchemaColumn::new("t", DataType::Text),
        ])
        .unwrap();
        Table::from_rows(
            "T",
            schema,
            rows.iter()
                .map(|&x| vec![Value::Int(x), Value::text(format!("s{}", x % 3))])
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn second_conversion_hits_and_shares() {
        let t = table(&[1, 2, 3, 4]);
        let cfg = observed_cfg();
        let a = ColumnChunk::from_table_cols_cached(&t, &[0, 1], &cfg).unwrap();
        let cold = cfg.obs.snapshot();
        assert_eq!(cold.counters.get("chunk.cache.miss"), Some(&2));
        assert_eq!(cold.counters.get("chunk.cache.hit"), None);
        let b = ColumnChunk::from_table_cols_cached(&t, &[0, 1], &cfg).unwrap();
        let warm = cfg.obs.snapshot();
        assert_eq!(warm.counters.get("chunk.cache.miss"), Some(&2));
        assert_eq!(warm.counters.get("chunk.cache.hit"), Some(&2));
        // The hit shares the very same column allocation.
        assert!(Arc::ptr_eq(
            &a.column_shared(0).unwrap(),
            &b.column_shared(0).unwrap()
        ));
        assert_eq!(b.to_table().rows(), t.rows());
    }

    #[test]
    fn mutation_invalidates_by_version() {
        let mut t = table(&[1, 2, 3]);
        let cfg = observed_cfg();
        let a = ColumnChunk::from_table_cols_cached(&t, &[0], &cfg).unwrap();
        t.push_row(vec![Value::Int(9), "s9".into()]).unwrap();
        let b = ColumnChunk::from_table_cols_cached(&t, &[0], &cfg).unwrap();
        // The stale 3-row column must not serve the 4-row table.
        assert_eq!(a.len(), 3);
        assert_eq!(b.len(), 4);
        let Some(ColumnData::Int(v)) = b.column(0).map(|c| &c.data) else {
            panic!("expected int column");
        };
        assert_eq!(v.as_slice(), &[1, 2, 3, 9]);
        assert_eq!(cfg.obs.snapshot().counters.get("chunk.cache.hit"), None);
    }

    #[test]
    fn declines_are_cached_per_version() {
        let schema = Schema::new(vec![SchemaColumn::new("f", DataType::Float)]).unwrap();
        let t = Table::from_rows(
            "F",
            schema,
            vec![vec![Value::Float(0.5)], vec![Value::Int(1)]],
        )
        .unwrap();
        let obs = Obs::enabled();
        let expect = ColumnarError::MixedNumeric { column: "f".into() };
        let cap = DEFAULT_CHUNK_CACHE_CAPACITY;
        assert_eq!(cached_column(&t, 0, &obs, cap).unwrap_err(), expect);
        assert_eq!(cached_column(&t, 0, &obs, cap).unwrap_err(), expect);
        let snap = obs.snapshot();
        assert_eq!(snap.counters.get("chunk.cache.miss"), Some(&1));
        assert_eq!(snap.counters.get("chunk.cache.hit"), Some(&1));
    }

    #[test]
    fn eviction_bounds_the_cache() {
        // Private cache instance, like the LRU tests below: the
        // process-wide one is shared with concurrently running tests.
        let cache = Mutex::new(Inner::default());
        let obs = Obs::disabled();
        let cap = DEFAULT_CHUNK_CACHE_CAPACITY;
        for i in 0..(cap + 64) {
            let t = table(&[i as i64]);
            let _ = cached_column_in(&cache, &t, 0, &obs, cap);
        }
        let len = lock_in(&cache).map.len();
        assert!(len <= cap, "cache grew past capacity: {len}");
        assert!(len > 0);
    }

    #[test]
    fn tiny_capacity_evicts_lru_and_never_serves_stale() {
        // Private cache instance: the process-wide one is shared with
        // concurrently running tests, so exact LRU assertions would race.
        let cache = Mutex::new(Inner::default());
        let obs = Obs::enabled();
        let (t1, t2, t3) = (table(&[1]), table(&[2]), table(&[3]));
        cached_column_in(&cache, &t1, 0, &obs, 2).unwrap();
        cached_column_in(&cache, &t2, 0, &obs, 2).unwrap();
        // Touch t1 so t2 becomes the LRU victim, then overflow.
        cached_column_in(&cache, &t1, 0, &obs, 2).unwrap();
        cached_column_in(&cache, &t3, 0, &obs, 2).unwrap();
        assert!(
            lock_in(&cache).map.len() <= 2,
            "capacity-2 cache overflowed"
        );
        let snap = obs.snapshot();
        assert_eq!(snap.counters.get("chunk.cache.miss"), Some(&3));
        assert_eq!(snap.counters.get("chunk.cache.hit"), Some(&1));
        // t1 (recently touched) survived; t2 (LRU) did not.
        cached_column_in(&cache, &t1, 0, &obs, 2).unwrap();
        cached_column_in(&cache, &t2, 0, &obs, 2).unwrap();
        let snap = obs.snapshot();
        assert_eq!(snap.counters.get("chunk.cache.hit"), Some(&2));
        assert_eq!(snap.counters.get("chunk.cache.miss"), Some(&4));
        // Mutation draws a fresh storage version, so even a capacity-2
        // cache can never serve stale rows.
        let mut t = table(&[7, 8]);
        let a = cached_column_in(&cache, &t, 0, &obs, 2).unwrap();
        t.push_row(vec![Value::Int(9), "s9".into()]).unwrap();
        let b = cached_column_in(&cache, &t, 0, &obs, 2).unwrap();
        let (ColumnData::Int(va), ColumnData::Int(vb)) = (&a.data, &b.data) else {
            panic!("expected int columns");
        };
        assert_eq!(va.as_slice(), &[7, 8]);
        assert_eq!(vb.as_slice(), &[7, 8, 9]);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = Mutex::new(Inner::default());
        let obs = Obs::enabled();
        let t = table(&[1, 2]);
        let a = cached_column_in(&cache, &t, 0, &obs, 0).unwrap();
        let b = cached_column_in(&cache, &t, 0, &obs, 0).unwrap();
        // Nothing stored, nothing counted, results still correct.
        assert_eq!(lock_in(&cache).map.len(), 0);
        assert!(obs.snapshot().counters.is_empty());
        assert!(!Arc::ptr_eq(&a, &b));
        let (ColumnData::Int(va), ColumnData::Int(vb)) = (&a.data, &b.data) else {
            panic!("expected int columns");
        };
        assert_eq!(va.as_slice(), vb.as_slice());
    }
}

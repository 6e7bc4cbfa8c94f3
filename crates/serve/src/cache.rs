//! Content-addressed LRU caches of finished work, at two granularities.
//!
//! [`ReportCache`] keys whole sweeps on the canonical request fingerprints
//! ([`crate::protocol::ResolvedSweep::fingerprint`]); values are the exact
//! serialized measurement bytes of the report. Storing bytes rather than the
//! structured report is the point: a repeated request is answered with a
//! byte-identical body, so clients can `cmp` cached responses against
//! committed `BENCH_*.json` baselines and caching stays observationally
//! invisible apart from latency.
//!
//! [`CellCache`] keys individual sweep **cells** on
//! [`crate::protocol::cell_fingerprint`] — (workload spec fingerprint ×
//! canonical policy label × backend label × sweep seed × repetition ×
//! socket count) — and stores the raw [`CellOutcome`] measurements. Because
//! a cell's measurement depends only on that key, sweeps of *different*
//! shapes share work: a request that adds one policy column to an
//! already-served sweep hydrates every old cell from this cache and
//! executes only the new column. The deterministic keyed post-pass then
//! reassembles the report from hydrated + fresh cells byte-identically to
//! direct execution.

use std::collections::HashMap;
use std::sync::Arc;

use numadag_runtime::CellOutcome;
use serde::{Deserialize, Serialize};

/// A finished sweep report as served to clients.
#[derive(Debug, Serialize, Deserialize)]
pub struct CachedReport {
    /// The exact `SweepReport::to_json_string` bytes of the report.
    pub bytes: String,
    /// Cells the sweep executed to produce it (for accounting; repeats
    /// served from cache execute zero — and cells hydrated from the cell
    /// cache never counted in the first place).
    pub executed_cells: usize,
    /// Cells the sweep contains in total (executed + hydrated).
    pub total_cells: usize,
}

#[derive(Debug)]
struct Entry {
    report: Arc<CachedReport>,
    /// Logical timestamp of the last lookup or insertion; the entry with
    /// the smallest value is the eviction victim.
    last_used: u64,
}

/// An LRU report cache with hit/miss/eviction counters. Not internally
/// synchronized — the server keeps it inside its state mutex.
#[derive(Debug)]
pub struct ReportCache {
    entries: HashMap<u64, Entry>,
    capacity: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl ReportCache {
    /// An empty cache holding at most `capacity` reports (minimum 1).
    pub fn new(capacity: usize) -> Self {
        ReportCache {
            entries: HashMap::new(),
            capacity: capacity.max(1),
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Looks up a report, counting a hit (and refreshing recency) or a miss.
    pub fn lookup(&mut self, key: u64) -> Option<Arc<CachedReport>> {
        self.tick += 1;
        match self.entries.get_mut(&key) {
            Some(entry) => {
                entry.last_used = self.tick;
                self.hits += 1;
                Some(Arc::clone(&entry.report))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts a report, evicting the least-recently-used entry when full.
    /// Re-inserting an existing key refreshes both value and recency.
    pub fn insert(&mut self, key: u64, report: Arc<CachedReport>) {
        self.tick += 1;
        if !self.entries.contains_key(&key) && self.entries.len() >= self.capacity {
            if let Some(victim) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
            {
                self.entries.remove(&victim);
                self.evictions += 1;
            }
        }
        self.entries.insert(
            key,
            Entry {
                report,
                last_used: self.tick,
            },
        );
    }

    /// Like [`ReportCache::lookup`], but an absent key does not count a
    /// miss — both admission phases use this, and the admission path counts
    /// exactly one [`ReportCache::note_miss`] when it actually creates an
    /// executing job, so racing identical submissions never inflate the
    /// miss counter.
    pub fn revalidate(&mut self, key: u64) -> Option<Arc<CachedReport>> {
        if self.entries.contains_key(&key) {
            self.lookup(key)
        } else {
            None
        }
    }

    /// Counts one miss. The admission path calls this when a submission
    /// passes both [`ReportCache::revalidate`] phases and becomes an
    /// executing job, keeping the invariant that each miss corresponds to
    /// exactly one executed sweep.
    pub fn note_miss(&mut self) {
        self.misses += 1;
    }

    /// Requests served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that found nothing (each corresponds to one executed sweep).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Entries discarded by the LRU policy.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Reports currently resident.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Maximum resident reports before eviction.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Every resident entry, least-recently-used first. Re-inserting them in
    /// this order into an empty cache reproduces the same LRU recency
    /// ranking — the contract the daemon's `--cache-file` persistence relies
    /// on across restarts.
    pub fn snapshot(&self) -> Vec<(u64, Arc<CachedReport>)> {
        let mut entries: Vec<(&u64, &Entry)> = self.entries.iter().collect();
        entries.sort_by_key(|(_, e)| e.last_used);
        entries
            .into_iter()
            .map(|(&k, e)| (k, Arc::clone(&e.report)))
            .collect()
    }
}

#[derive(Debug)]
struct CellEntry {
    outcome: CellOutcome,
    last_used: u64,
}

/// An LRU cache of per-cell outcomes keyed by
/// [`crate::protocol::cell_fingerprint`]. Skipped outcomes are cached too —
/// whether a (workload, policy) pair skips is as deterministic as its
/// measurement. Not internally synchronized — the server keeps it inside
/// its state mutex.
#[derive(Debug)]
pub struct CellCache {
    entries: HashMap<u64, CellEntry>,
    capacity: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl CellCache {
    /// An empty cache holding at most `capacity` cell outcomes (minimum 1).
    pub fn new(capacity: usize) -> Self {
        CellCache {
            entries: HashMap::new(),
            capacity: capacity.max(1),
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Looks up a cell outcome, counting a hit (and refreshing recency) or
    /// a miss.
    pub fn lookup(&mut self, key: u64) -> Option<CellOutcome> {
        self.tick += 1;
        match self.entries.get_mut(&key) {
            Some(entry) => {
                entry.last_used = self.tick;
                self.hits += 1;
                Some(entry.outcome.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Peeks without touching the hit/miss counters or recency — used by
    /// pool workers to skip cells another job already executed between
    /// admission and dispatch.
    pub fn peek(&self, key: u64) -> Option<CellOutcome> {
        self.entries.get(&key).map(|e| e.outcome.clone())
    }

    /// Inserts a cell outcome, evicting the least-recently-used entry when
    /// full. Re-inserting an existing key refreshes both value and recency.
    pub fn insert(&mut self, key: u64, outcome: CellOutcome) {
        self.tick += 1;
        if !self.entries.contains_key(&key) && self.entries.len() >= self.capacity {
            if let Some(victim) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
            {
                self.entries.remove(&victim);
                self.evictions += 1;
            }
        }
        self.entries.insert(
            key,
            CellEntry {
                outcome,
                last_used: self.tick,
            },
        );
    }

    /// Admission-time lookups served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Admission-time lookups that found nothing (novel cells).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Entries discarded by the LRU policy.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Cell outcomes currently resident.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Maximum resident outcomes before eviction.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(tag: &str) -> Arc<CachedReport> {
        Arc::new(CachedReport {
            bytes: format!("{{\"tag\": \"{tag}\"}}"),
            executed_cells: 4,
            total_cells: 4,
        })
    }

    #[test]
    fn lookup_counts_hits_and_misses_and_returns_exact_bytes() {
        let mut cache = ReportCache::new(4);
        assert!(cache.lookup(1).is_none());
        cache.insert(1, report("a"));
        let hit = cache.lookup(1).expect("inserted key must hit");
        assert_eq!(hit.bytes, "{\"tag\": \"a\"}");
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
        assert!(!cache.is_empty());
    }

    #[test]
    fn evicts_least_recently_used_beyond_capacity() {
        let mut cache = ReportCache::new(2);
        cache.insert(1, report("a"));
        cache.insert(2, report("b"));
        // Touch 1 so 2 becomes the LRU victim.
        assert!(cache.lookup(1).is_some());
        cache.insert(3, report("c"));
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(1).is_some(), "recently used must survive");
        assert!(cache.lookup(2).is_none(), "LRU entry must be evicted");
        assert!(cache.lookup(3).is_some());
    }

    #[test]
    fn reinserting_a_key_replaces_without_eviction() {
        let mut cache = ReportCache::new(2);
        cache.insert(1, report("a"));
        cache.insert(2, report("b"));
        cache.insert(1, report("a2"));
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.lookup(1).unwrap().bytes, "{\"tag\": \"a2\"}");
    }

    #[test]
    fn capacity_has_a_floor_of_one() {
        let mut cache = ReportCache::new(0);
        assert_eq!(cache.capacity(), 1);
        cache.insert(1, report("a"));
        cache.insert(2, report("b"));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.evictions(), 1);
    }

    #[test]
    fn revalidate_counts_hits_but_never_misses() {
        let mut cache = ReportCache::new(2);
        assert!(cache.revalidate(1).is_none());
        assert_eq!(cache.misses(), 0, "absent revalidation is not a miss");
        cache.insert(1, report("a"));
        assert!(cache.revalidate(1).is_some());
        assert_eq!(cache.hits(), 1, "present revalidation is a hit");
        cache.note_miss();
        assert_eq!(cache.misses(), 1, "misses are counted explicitly");
    }

    #[test]
    fn snapshot_orders_least_recently_used_first() {
        let mut cache = ReportCache::new(4);
        cache.insert(1, report("a"));
        cache.insert(2, report("b"));
        cache.insert(3, report("c"));
        // Touch 1 so the recency order becomes 2, 3, 1.
        assert!(cache.lookup(1).is_some());
        let keys: Vec<u64> = cache.snapshot().iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![2, 3, 1]);
        // Re-inserting in snapshot order reproduces the same victim choice.
        let mut reloaded = ReportCache::new(3);
        for (k, r) in cache.snapshot() {
            reloaded.insert(k, r);
        }
        reloaded.insert(4, report("d"));
        assert!(reloaded.revalidate(2).is_none(), "old LRU entry evicted");
        assert!(reloaded.revalidate(1).is_some(), "recent entry survives");
    }

    #[test]
    fn cell_cache_counts_and_evicts_like_the_report_cache() {
        let mut cache = CellCache::new(2);
        assert!(cache.lookup(1).is_none());
        cache.insert(1, CellOutcome::Skipped);
        cache.insert(2, CellOutcome::Skipped);
        assert!(cache.lookup(1).is_some(), "inserted key must hit");
        cache.insert(3, CellOutcome::Skipped);
        assert_eq!(cache.evictions(), 1);
        assert!(cache.lookup(1).is_some(), "recently used must survive");
        assert!(cache.lookup(2).is_none(), "LRU entry must be evicted");
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.len(), 2);
        assert_eq!(CellCache::new(0).capacity(), 1);
    }

    #[test]
    fn cell_cache_peek_is_counter_neutral() {
        let mut cache = CellCache::new(2);
        cache.insert(1, CellOutcome::Skipped);
        assert!(cache.peek(1).is_some());
        assert!(cache.peek(9).is_none());
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 0);
        // Peeks do not refresh recency: 1 stays the LRU victim.
        cache.insert(2, CellOutcome::Skipped);
        cache.insert(3, CellOutcome::Skipped);
        assert!(cache.peek(1).is_none(), "peek must not protect from LRU");
    }
}

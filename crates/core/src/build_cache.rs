//! The experiment drivers' tile memo.
//!
//! `run_experiments` and the table binaries drive several flows over
//! the same tile; [`cached_tile`] generates each tile netlist (SRAM
//! macro models included) once per process. Everything a flow builds
//! from the tile — metal stacks, the combined BEOL, macro floorplans
//! — it builds itself: those take microseconds to tens of
//! milliseconds, against seconds for the flow that reads them.
//!
//! Entries are immutable `Arc`s keyed by the canonical JSON of the
//! generating [`TileConfig`] (`jsonio::tile_config_to_json`), so a hit
//! is a clone of the pointer and two configs never share an entry:
//! the memo changes wall-clock time, not results.

use macro3d_soc::{generate_tile, TileConfig, TileNetlist};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Hit/miss counters and entry count of a [`BuildCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to generate the tile.
    pub misses: u64,
    /// Tiles currently stored.
    pub entries: usize,
}

/// A content-keyed tile memo (see the module docs).
#[derive(Default)]
pub struct BuildCache {
    tiles: Mutex<HashMap<String, Arc<TileNetlist>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl BuildCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The tile `cfg` generates, generated (and stored) on the first
    /// request. Generation runs outside the lock; if two threads race
    /// on the same cold config both generate, the first insert wins,
    /// and both receive the winning tile.
    pub fn tile(&self, cfg: &TileConfig) -> Arc<TileNetlist> {
        let key = crate::jsonio::tile_config_to_json(cfg).emit();
        if let Some(hit) = self.lock().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(hit);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let built = Arc::new(generate_tile(cfg));
        Arc::clone(self.lock().entry(key).or_insert(built))
    }

    /// Drops every entry (counters keep running).
    pub fn clear(&self) {
        self.lock().clear();
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.lock().len(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<String, Arc<TileNetlist>>> {
        // generation runs outside the lock, so the critical sections
        // cannot panic; tolerate poisoning anyway rather than abort
        self.tiles
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// The process-wide memo [`cached_tile`] goes through.
pub fn global() -> &'static BuildCache {
    static GLOBAL: OnceLock<BuildCache> = OnceLock::new();
    GLOBAL.get_or_init(BuildCache::new)
}

/// Memoized [`generate_tile`]: one netlist per [`TileConfig`] per
/// process.
pub fn cached_tile(cfg: &TileConfig) -> Arc<TileNetlist> {
    global().tile(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tile_is_built_once_per_config() {
        // pointer equality, not counters: other tests share the
        // global cache concurrently
        let cfg = TileConfig::small_cache().with_scale(512.0);
        let t1 = cached_tile(&cfg);
        let t2 = cached_tile(&cfg);
        assert!(Arc::ptr_eq(&t1, &t2));
        // a different scale is a different artifact
        let t3 = cached_tile(&cfg.clone().with_scale(256.0));
        assert!(!Arc::ptr_eq(&t1, &t3));
    }

    #[test]
    fn counters_follow_lookups_and_clear_forces_regeneration() {
        let cache = BuildCache::new();
        let cfg = TileConfig::mini();
        let first = cache.tile(&cfg);
        assert!(Arc::ptr_eq(&first, &cache.tile(&cfg)));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        cache.clear();
        assert!(!Arc::ptr_eq(&first, &cache.tile(&cfg)));
        assert_eq!(cache.stats().misses, 2);
    }
}

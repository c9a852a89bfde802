//! Content-keyed cache of flow build artifacts.
//!
//! `run_experiments` drives four flows over the same tile, and every
//! flow used to regenerate identical inputs from scratch: the tile
//! netlist (SRAM macro models included), the n28 metal stacks and
//! combined BEOL, and the memory-on-logic floorplan seed (the
//! Macro-3D, MoL S2D and Compact-2D flows all split and pack macros
//! on the *same* 3D die). [`BuildCache`] memoizes those artifacts
//! behind content keys so each is built once per process.
//!
//! Entries are immutable `Arc`s: a hit is a clone of the pointer, so
//! cached artifacts are shared, never rebuilt, and safe to use from
//! concurrent flows. Keys embed the full generating configuration
//! (plus the stored type's name), so two different configurations can
//! never collide — the cache changes wall-clock time, not results.

use macro3d_geom::{Dbu, Rect};
use macro3d_netlist::Design;
use macro3d_place::MacroPlacement;
use macro3d_soc::{generate_tile, TileConfig, TileNetlist};
use macro3d_tech::stack::{n28_stack, DieRole, MetalStack};
use macro3d_tech::{CombinedBeol, F2fSpec};
use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A memory-on-logic macro floorplan pair: `(logic-die placements,
/// macro-die placements)` — the cached artifact shared by the
/// Macro-3D, MoL S2D and Compact-2D flows.
pub type MolFloorplans = (Vec<MacroPlacement>, Vec<MacroPlacement>);

/// Hit/miss counters and entry count of a [`BuildCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to build the artifact.
    pub misses: u64,
    /// Entries currently stored.
    pub entries: usize,
}

/// A content-keyed, type-erased artifact cache (see the module docs).
#[derive(Default)]
pub struct BuildCache {
    entries: Mutex<HashMap<String, Arc<dyn Any + Send + Sync>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl BuildCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the artifact for `key`, building (and storing) it on
    /// the first request. The stored type's name is part of the
    /// effective key, so the same string key may safely cache
    /// different types.
    ///
    /// The builder runs *outside* the cache lock; if two threads race
    /// on the same cold key both build, the first insert wins, and
    /// both receive the winning value.
    // INVARIANT: the stored type's name is embedded in the key, so
    // every downcast below retrieves the type that was inserted.
    #[allow(clippy::expect_used)]
    pub fn get_or_build<T, F>(&self, key: &str, build: F) -> Arc<T>
    where
        T: Any + Send + Sync,
        F: FnOnce() -> T,
    {
        let full_key = format!("{}\u{1f}{key}", std::any::type_name::<T>());
        if let Some(hit) = self.lock().get(&full_key) {
            let hit = Arc::clone(hit);
            self.hits.fetch_add(1, Ordering::Relaxed);
            record_obs(key, true);
            return hit.downcast::<T>().expect("type name is part of the key");
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        record_obs(key, false);
        // Cached artifacts are shared by later runs in the process, so
        // they must not depend on any single run's budget or fault
        // plan: budget checkpoints are inert while a builder runs.
        let _budget_inert = macro3d_par::RegionGuard::enter();
        let built: Arc<dyn Any + Send + Sync> = Arc::new(build());
        let stored = Arc::clone(
            self.lock()
                .entry(full_key)
                .or_insert_with(|| Arc::clone(&built)),
        );
        stored
            .downcast::<T>()
            .expect("type name is part of the key")
    }

    /// Fallible [`Self::get_or_build`]: the builder may fail, and
    /// failures are returned to the caller instead of cached (a
    /// deterministic failure simply recomputes — it is rare and
    /// cheap relative to poisoning the cache with error values).
    ///
    /// # Errors
    ///
    /// Propagates the builder's error on a cache miss.
    // INVARIANT: same type-in-key downcast guarantee as `get_or_build`
    #[allow(clippy::expect_used)]
    pub fn try_get_or_build<T, E, F>(&self, key: &str, build: F) -> Result<Arc<T>, E>
    where
        T: Any + Send + Sync,
        F: FnOnce() -> Result<T, E>,
    {
        let full_key = format!("{}\u{1f}{key}", std::any::type_name::<T>());
        if let Some(hit) = self.lock().get(&full_key) {
            let hit = Arc::clone(hit);
            self.hits.fetch_add(1, Ordering::Relaxed);
            record_obs(key, true);
            return Ok(hit.downcast::<T>().expect("type name is part of the key"));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        record_obs(key, false);
        // same budget-inert region as `get_or_build`
        let _budget_inert = macro3d_par::RegionGuard::enter();
        let built: Arc<dyn Any + Send + Sync> = Arc::new(build()?);
        let stored = Arc::clone(
            self.lock()
                .entry(full_key)
                .or_insert_with(|| Arc::clone(&built)),
        );
        Ok(stored
            .downcast::<T>()
            .expect("type name is part of the key"))
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

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<String, Arc<dyn Any + Send + Sync>>> {
        // builders run outside the lock, so the critical sections
        // cannot panic; tolerate poisoning anyway rather than abort
        self.entries
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// Feeds an obs counter per artifact kind (the key prefix before the
/// first `/`: `tile`, `stack`, `beol`, `fp-mol`, `fp-2d`).
/// One branch when observability is off; lookups already take the
/// cache mutex, so the registry lookup on the slow path is in budget.
fn record_obs(key: &str, hit: bool) {
    if !macro3d_obs::enabled(macro3d_obs::ObsLevel::Summary) {
        return;
    }
    let kind = key.split('/').next().unwrap_or(key);
    let outcome = if hit { "hits" } else { "misses" };
    macro3d_obs::registry()
        .counter(&format!("cache/{kind}/{outcome}"))
        .inc();
}

/// The process-wide cache every flow helper below goes through.
pub fn global() -> &'static BuildCache {
    static GLOBAL: OnceLock<BuildCache> = OnceLock::new();
    GLOBAL.get_or_init(BuildCache::new)
}

/// Cached [`generate_tile`]: one netlist per [`TileConfig`] per
/// process. `TileConfig`'s `Debug` form covers every generation input
/// (sizes, scale, seed), so it is the content key.
pub fn cached_tile(cfg: &TileConfig) -> Arc<TileNetlist> {
    global().get_or_build(&format!("tile/{cfg:?}"), || generate_tile(cfg))
}

/// Cached [`n28_stack`].
pub fn cached_stack(metals: usize, die: DieRole) -> Arc<MetalStack> {
    global().get_or_build(&format!("stack/n28/{metals}/{die:?}"), || {
        n28_stack(metals, die)
    })
}

/// Cached combined MoL BEOL (`M1…Mn → F2F_VIA → M1_MD…`) for the
/// standard n28 hybrid-bond spec, shared by the Macro-3D, S2D and C2D
/// final stacks.
pub fn cached_combined_beol(logic_metals: usize, macro_metals: usize) -> Arc<CombinedBeol> {
    global().get_or_build(&format!("beol/n28/{logic_metals}/{macro_metals}"), || {
        CombinedBeol::build(
            &cached_stack(logic_metals, DieRole::Logic),
            &cached_stack(macro_metals, DieRole::Macro),
            &F2fSpec::hybrid_bond_n28(),
        )
    })
}

/// Cached memory-on-logic floorplan seed: the
/// [`crate::flow::assign_macros_mol`] split followed by
/// [`crate::flow::try_pack_mol_floorplans`], keyed by the design content,
/// die and packing knobs. Macro-3D, MoL S2D and Compact-2D all pack
/// the same macros on the same 3D-footprint die, so one build serves
/// all three flows.
///
/// The pair is `(logic-die placements, macro-die placements)`.
/// Packing failures are not cached (see
/// [`BuildCache::try_get_or_build`]).
///
/// # Errors
///
/// Returns [`crate::error::FlowError::Floorplan`] when the macros
/// cannot be packed on `die`.
pub fn try_cached_mol_floorplan(
    design: &Design,
    die: Rect,
    halo: Dbu,
    util_macro: f64,
    halo_um: f64,
) -> Result<Arc<MolFloorplans>, crate::error::FlowError> {
    let key = format!(
        "fp-mol/{:016x}/{die:?}/{halo:?}/{util_macro}/{halo_um}",
        design_fingerprint(design)
    );
    global().try_get_or_build(&key, || {
        let cfg = crate::flow::FlowConfig {
            util_macro,
            halo_um,
            ..crate::flow::FlowConfig::default()
        };
        let (top, bottom) = crate::flow::assign_macros_mol(design, die.area_um2(), &cfg);
        crate::flow::try_pack_mol_floorplans(design, die, halo, top, bottom)
    })
}

/// Order-sensitive structural fingerprint of a design: name, entity
/// counts, per-net pin counts and per-instance master kinds. Two
/// designs from the same deterministic generator configuration hash
/// equal; any structural edit (added cell, moved pin) changes it.
pub fn design_fingerprint(design: &Design) -> u64 {
    // FNV-1a, dependency-free
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |byte: u8| {
        h ^= byte as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    let eat_u64 = |h: &mut u64, v: u64| {
        for byte in v.to_le_bytes() {
            *h ^= byte as u64;
            *h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for b in design.name().bytes() {
        eat(b);
    }
    eat_u64(&mut h, design.num_insts() as u64);
    eat_u64(&mut h, design.num_nets() as u64);
    eat_u64(&mut h, design.num_ports() as u64);
    for n in design.net_ids() {
        eat_u64(&mut h, design.net(n).pins.len() as u64);
    }
    for i in design.inst_ids() {
        let kind = match design.inst(i).master {
            macro3d_netlist::Master::Cell(c) => c.0 as u64,
            macro3d_netlist::Master::Macro(m) => (1 << 32) | m.0 as u64,
        };
        eat_u64(&mut h, kind);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_returns_the_same_arc() {
        let cache = BuildCache::new();
        let a = cache.get_or_build("k", || vec![1u32, 2, 3]);
        let b = cache.get_or_build("k", || panic!("must not rebuild"));
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn same_key_different_types_do_not_collide() {
        let cache = BuildCache::new();
        let v: Arc<u32> = cache.get_or_build("k", || 7u32);
        let s: Arc<String> = cache.get_or_build("k", || "seven".to_string());
        assert_eq!(*v, 7);
        assert_eq!(*s, "seven");
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn clear_forces_rebuild() {
        let cache = BuildCache::new();
        let _ = cache.get_or_build("k", || 1u8);
        cache.clear();
        let again = cache.get_or_build("k", || 2u8);
        assert_eq!(*again, 2);
    }

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
    fn fingerprint_separates_structures() {
        let t1 = cached_tile(&TileConfig::small_cache().with_scale(512.0));
        let t2 = cached_tile(&TileConfig::small_cache().with_scale(256.0));
        assert_eq!(
            design_fingerprint(&t1.design),
            design_fingerprint(&t1.design)
        );
        assert_ne!(
            design_fingerprint(&t1.design),
            design_fingerprint(&t2.design)
        );
    }

    #[test]
    fn mol_floorplan_is_shared_across_flows() {
        let tile = cached_tile(&TileConfig::small_cache().with_scale(512.0));
        let die = Rect::from_um(0.0, 0.0, 2000.0, 2000.0);
        let halo = Dbu::from_um(2.0);
        let seed = |util_macro| {
            try_cached_mol_floorplan(&tile.design, die, halo, util_macro, 2.0).expect("packs")
        };
        let a = seed(0.85);
        let b = seed(0.85);
        assert!(Arc::ptr_eq(&a, &b));
        // a different utilization is a different seed
        let c = seed(0.5);
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn beol_and_stack_cache_roundtrip() {
        let s1 = cached_stack(6, DieRole::Logic);
        let s2 = cached_stack(6, DieRole::Logic);
        assert!(Arc::ptr_eq(&s1, &s2));
        assert_eq!(*s1, n28_stack(6, DieRole::Logic));
        let b1 = cached_combined_beol(6, 4);
        let b2 = cached_combined_beol(6, 4);
        assert!(Arc::ptr_eq(&b1, &b2));
    }
}

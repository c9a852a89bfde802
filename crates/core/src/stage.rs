//! Stage-graph reuse: prefix-keyed incremental flow execution.
//!
//! Every flow decomposes into the same five-stage graph:
//!
//! ```text
//! floorplan → place → route → extract → sta
//! ```
//!
//! Each stage **declares** which `TileConfig` / [`FlowConfig`] fields
//! feed its content key (the tables in [`stage_keys`]). Keys are
//! *chained*: stage *i*'s key hashes stage *i−1*'s key together with
//! stage *i*'s own payload, so a key match at stage *i* proves the
//! whole prefix `0..=i` ran under identical inputs. The STA key covers
//! every result-changing input, so it is also the content key of a
//! whole run: the DSE `ResultCache` keys results by it (chained with
//! the obs level) — one key discipline for every reuse in the repo.
//!
//! A worker holds one [`StageCache`] — the artifacts the previous
//! flow run left at each stage boundary, one typed slot per cached
//! stage tagged with that run's chained key, plus the last tile it
//! generated
//! ([`StageCache::tile`]). The next run compares its own keys against
//! the cache ([`StageReuse::start_stage`]), restores the artifacts of
//! the longest matching prefix, and re-enters the flow at the first
//! stage whose key changed. A restore copies only what the re-entered
//! stages mutate: the place snapshot's design and placement and the
//! extract snapshot's parasitics, clock arrivals and STA session are
//! deep-cloned, while the routed design, which no later stage edits,
//! is shared behind its `Arc`. Because every restored artifact equals
//! a boundary snapshot taken at the same point of a cold run, a warm
//! run is bit-identical to a cold one by construction — the
//! determinism contract the DSE sweep tests and the `sweep-reuse` CI
//! gate hold.
//!
//! ## Reuse / invalidation tables
//!
//! Only the direct flows (`2D`, `Macro-3D`) use the stage cache. The
//! direct-flow driver (`flow::run_direct`) and the sign-off tail it
//! calls (`flow::finish_design`) own every snapshot restore and store.
//! Their per-stage key payloads are:
//!
//! | stage     | key fields |
//! |-----------|------------|
//! | floorplan | flow name, full `TileConfig`, crate version, budget, fault plan, `logic_metals`, `macro_metals` (not for `2D`), `util_logic`, `util_macro`, `halo_um` |
//! | place     | `place.backend`, `repeater_max_len_um` |
//! | route     | `route.{utilization, iterations, via_cost}`, `route.parallelism.chunk_size` |
//! | extract   | — (inputs fully determined by the prefix) |
//! | sta       | `sizing_rounds`, `route.f2f_pitch_um` |
//!
//! The extract snapshot is taken *after* the first sign-off analysis:
//! that analysis reads only the design, parasitics, route, clock and
//! constraints the extract key already fixes, and a cold run performs
//! it at the same program point, so a depth-4 re-entry starts its
//! sizing loop from the stored session and report.
//!
//! The 2D flow builds a `logic_metals`-deep stack and never reads
//! `macro_metals`, so only the flows that stack a macro die key it.
//! The router never reads `route.f2f_pitch_um`: only the sign-off
//! bump-density count does (`flow::finish_design`), so a pitch-only
//! change re-enters at STA on a restored route.
//!
//! The pseudo-2D baselines (`MoL S2D`, `BF S2D`, `C2D`) consume the
//! route and sizing knobs *inside* their stage-1 pseudo-2D run, so
//! their place keys additionally include `route`, `sizing_rounds` and
//! `partial_blockage_period_um`. These flows never read or write the
//! stage cache (their runs report reuse depth 0): their keys steer DSE
//! worker affinity and key their results in the `ResultCache`.
//!
//! [`stage_keys`] names every config field with no `..`, so a new
//! field does not compile until it is assigned to a stage or excluded
//! with a reason. **Excluded everywhere:** `parallelism.threads` (all
//! three copies), the top-level and place `parallelism.chunk_size`,
//! and `obs`. Results are thread-count-invariant per the `macro3d-par`
//! contract, so a sweep over `threads` reuses the full prefix; both
//! placer backends are chunk-size-invariant too. The route
//! `chunk_size` *is* keyed because the router's batched negotiation
//! commits per chunk ("chunk size changes routing results; the thread
//! count never does"). The engines' fixed tuning (GCell pitch, net
//! degree caps, FM passes, Nesterov schedule, CTS fanout and spacing)
//! lives in constants of their crates, not in config fields, so no key
//! names it.
//!
//! **Safety guard:** stage caching is disabled outright
//! ([`StageReuse::begin`] returns `None`) when the config carries a
//! stage budget or a fault plan — wall-clock deadlines fire
//! nondeterministically and degradation notes would not replay on a
//! warm run. Both still feed every stage key (via the base payload),
//! so a budget/fault sweep point can never hit a clean run's
//! artifacts by accident.

use crate::flow::FlowConfig;
use macro3d_extract::NetParasitics;
use macro3d_netlist::Design;
use macro3d_par::Parallelism;
use macro3d_place::{Floorplan, GlobalPlaceConfig, Placement, PortPlan};
use macro3d_route::{RouteConfig, RoutedDesign};
use macro3d_soc::{generate_tile, TileConfig, TileNetlist};
use macro3d_sta::{ClockArrivals, ClockTree, StaSession, TimingReport};
use macro3d_tech::stack::MetalStack;
use std::sync::Arc;

/// Number of stages in the flow graph.
pub const NUM_STAGES: usize = 5;

/// Stages whose boundary artifacts the [`StageCache`] stores: every
/// stage but the terminal STA stage. A run's stage hits are its
/// reuse depth, its misses `CACHED_STAGES` minus that depth.
pub const CACHED_STAGES: usize = NUM_STAGES - 1;

/// One stage of the flow graph, in execution order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// Floorplan + macro packing + port assignment + stack build.
    Floorplan = 0,
    /// Global place, repeaters, CTS, legalization, detailed place.
    /// For the pseudo-2D baselines this is the whole stage-1 +
    /// partition super-stage.
    Place = 1,
    /// Global routing over the final stack.
    Route = 2,
    /// Parasitic extraction + clock arrivals at the sign-off corner.
    Extract = 3,
    /// STA + sizing + hold fixing + power. Never cached (it is the
    /// terminal stage; specs with one STA key are the `ResultCache`'s
    /// job).
    /// Its first sign-off analysis rides in the extract snapshot, so
    /// a run that re-enters here starts at the sizing loop.
    Sta = 4,
}

impl Stage {
    /// Stable stage label (obs counters, telemetry, docs).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Floorplan => "floorplan",
            Stage::Place => "place",
            Stage::Route => "route",
            Stage::Extract => "extract",
            Stage::Sta => "sta",
        }
    }

    /// All stages in execution order.
    pub fn all() -> [Stage; NUM_STAGES] {
        [
            Stage::Floorplan,
            Stage::Place,
            Stage::Route,
            Stage::Extract,
            Stage::Sta,
        ]
    }
}

/// The chained per-stage content keys of one `(flow, tile, config)`
/// triple. `prefix[i]` covers stages `0..=i`: equal `prefix[i]` ⇒
/// identical inputs for the whole prefix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StageKeys {
    /// Chained FNV-1a keys, one per [`Stage`].
    pub prefix: [u64; NUM_STAGES],
}

impl StageKeys {
    /// The key covering stages `0..=stage`.
    pub fn key(&self, stage: Stage) -> u64 {
        self.prefix[stage as usize]
    }
}

fn chain(prev: u64, payload: &str) -> u64 {
    let mut buf = Vec::with_capacity(8 + payload.len());
    buf.extend_from_slice(&prev.to_le_bytes());
    buf.extend_from_slice(payload.as_bytes());
    crate::jsonio::fnv1a_64(&buf)
}

fn route_payload(r: &RouteConfig) -> String {
    let RouteConfig {
        utilization,
        iterations,
        via_cost,
        // read only by the sign-off bump-density count, never by the
        // router: it keys the STA stage instead
        f2f_pitch_um: _,
        // the router commits per chunk; results never depend on threads
        parallelism: Parallelism {
            threads: _,
            chunk_size,
        },
    } = r;
    format!("util={utilization};iters={iterations};via={via_cost};chunk={chunk_size}")
}

fn place_payload(p: &GlobalPlaceConfig) -> String {
    let GlobalPlaceConfig {
        // the chunk size only sets how work is handed to threads:
        // both backends place bit-identically at any thread count and
        // chunk size (the place-key guard in tests/stage_reuse.rs)
        parallelism: Parallelism {
            threads: _,
            chunk_size: _,
        },
        backend,
    } = p;
    format!("backend={backend:?}")
}

/// Computes the chained stage keys for one job. The per-stage field
/// tables live here — this is the single place a stage declares what
/// invalidates it.
pub fn stage_keys(flow: &str, tile: &TileConfig, cfg: &FlowConfig) -> StageKeys {
    // every field named, none elided: a new field does not compile
    // until it feeds a payload or is excluded here with a reason
    let FlowConfig {
        logic_metals,
        macro_metals,
        util_logic,
        util_macro,
        halo_um,
        repeater_max_len_um,
        route,
        sizing_rounds,
        partial_blockage_period_um,
        place,
        // extraction and STA fan-outs land in NetId order at any
        // thread count and chunk size
        parallelism: Parallelism {
            threads: _,
            chunk_size: _,
        },
        // observability never changes results
        obs: _,
        budget,
        fault_plan,
    } = cfg;
    // Base payload (seeds the floorplan key): anything that
    // invalidates *every* stage — the flow identity, the tile, the
    // crate version, and the budget/fault plan (kept in the key even
    // though caching is disabled when they are active, so their sweep
    // points can never alias a clean prefix).
    let base = format!(
        "{}\u{1f}{}\u{1f}{}\u{1f}budget={}\u{1f}faults={}",
        env!("CARGO_PKG_VERSION"),
        flow,
        crate::jsonio::tile_config_to_json(tile).emit(),
        crate::jsonio::budget_to_json(budget).emit(),
        fault_plan
            .as_ref()
            .map_or(macro3d_json::Json::Null, crate::jsonio::fault_plan_to_json)
            .emit(),
    );
    let pseudo2d = matches!(flow, "MoL S2D" | "BF S2D" | "C2D");

    // the 2D stack is `logic_metals` deep: only the flows that stack
    // a macro die read `macro_metals`
    let macro_die = match flow {
        "2D" => String::new(),
        _ => format!("mm={macro_metals};"),
    };
    let floorplan_payload =
        format!("lm={logic_metals};{macro_die}ul={util_logic};um={util_macro};halo={halo_um}");
    let mut place_stage = format!("{};rep={repeater_max_len_um}", place_payload(place));
    if pseudo2d {
        // the pseudo-2D stage consumes these before the final P&R
        place_stage.push_str(&format!(
            ";s1route={};s1sr={sizing_rounds};pbp={partial_blockage_period_um}",
            route_payload(route)
        ));
    }

    let k0 = chain(crate::jsonio::fnv1a_64(base.as_bytes()), &floorplan_payload);
    let k1 = chain(k0, &place_stage);
    let k2 = chain(k1, &route_payload(route));
    let k3 = chain(k2, "extract");
    let k4 = chain(
        k3,
        &format!("sr={sizing_rounds};f2f={:?}", route.f2f_pitch_um),
    );
    StageKeys {
        prefix: [k0, k1, k2, k3, k4],
    }
}

/// Floorplan-boundary artifacts: everything placement needs that is
/// not re-derived from the tile. The design itself is *not* stored —
/// placement mutates it, so a warm run re-clones the pristine
/// `tile.design` exactly as a cold run does.
#[derive(Clone)]
pub struct FloorplanSnap {
    /// The floorplan (die, macro placements, blockages).
    pub fp: Floorplan,
    /// Port assignment.
    pub ports: PortPlan,
    /// The metal stack the flow routes over.
    pub stack: MetalStack,
}

/// Place-boundary artifacts: the design *after* repeater/CTS/buffer
/// insertion together with the legalized placement and clock tree,
/// plus the floorplan-boundary state (self-contained, so a place hit
/// never needs the floorplan slot). Every flow hands this state to
/// the shared sign-off tail (`flow::finish_design`).
#[derive(Clone)]
pub struct PlaceSnap {
    /// Design with repeaters and clock buffers inserted.
    pub design: Design,
    /// See [`FloorplanSnap::fp`].
    pub fp: Floorplan,
    /// See [`FloorplanSnap::ports`].
    pub ports: PortPlan,
    /// See [`FloorplanSnap::stack`].
    pub stack: MetalStack,
    /// Legalized placement.
    pub placement: Placement,
    /// Synthesized clock tree.
    pub tree: ClockTree,
}

/// Extract-boundary artifacts, snapshotted after the first sign-off
/// analysis. That analysis reads only inputs the extract key fixes,
/// so a restored `session` and `timing` are exactly what a cold run
/// holds when its sizing loop starts.
pub struct ExtractSnap {
    /// Sign-off-corner parasitics for every net.
    pub parasitics: Vec<NetParasitics>,
    /// Clock arrival times under the extracted tree.
    pub clock: ClockArrivals,
    /// The timing session after the first sign-off analysis (graph
    /// built, converged state present).
    pub session: StaSession,
    /// The report of that analysis.
    pub timing: TimingReport,
}

/// One worker's stage-boundary artifact store: the last run's
/// snapshot per cached stage, each tagged with the chained key it was
/// produced under, and the last tile it generated. Purely in-memory
/// and single-owner (each DSE worker owns one); nothing here is ever
/// persisted. The route slot holds the routed design itself: no later
/// stage edits a route, so the cold run's
/// `ImplementedDesign::routed`, the slot and every restore share one
/// allocation, and a restored route carries no sign-off count (the
/// bump-density check reruns under each run's own pitch).
#[derive(Default)]
pub struct StageCache {
    floorplan: Option<(u64, Arc<FloorplanSnap>)>,
    place: Option<(u64, Arc<PlaceSnap>)>,
    route: Option<(u64, Arc<RoutedDesign>)>,
    extract: Option<(u64, Arc<ExtractSnap>)>,
    tile: Option<(TileConfig, Arc<TileNetlist>)>,
}

fn tag<T>(slot: &Option<(u64, Arc<T>)>) -> Option<u64> {
    slot.as_ref().map(|(key, _)| *key)
}

impl StageCache {
    /// An empty cache.
    pub fn new() -> Self {
        StageCache::default()
    }

    /// Drops every stored artifact and the held tile.
    pub fn clear(&mut self) {
        *self = StageCache::default();
    }

    /// The tile `cfg` generates: the held one when `cfg` equals the
    /// config it was generated from, else a fresh one, which replaces
    /// it. The old tile is released before generation starts, so a
    /// worker holds at most one. Flows only read a tile, and
    /// generation is a pure function of its config, so a held tile is
    /// the one a fresh generation would return.
    pub fn tile(&mut self, cfg: &TileConfig) -> Arc<TileNetlist> {
        if let Some((held, tile)) = &self.tile {
            if held == cfg {
                return Arc::clone(tile);
            }
        }
        self.tile = None;
        let tile = Arc::new(generate_tile(cfg));
        self.tile = Some((cfg.clone(), Arc::clone(&tile)));
        tile
    }
}

// obs counters: reuse accounting per worker-run
static REUSE_RUNS: macro3d_obs::SiteCounter = macro3d_obs::SiteCounter::new("stage/reuse_runs");
static REUSE_DEPTH: macro3d_obs::SiteCounter = macro3d_obs::SiteCounter::new("stage/reuse_depth");
static STAGE_HITS: macro3d_obs::SiteCounter = macro3d_obs::SiteCounter::new("stage/hits");
static STAGE_MISSES: macro3d_obs::SiteCounter = macro3d_obs::SiteCounter::new("stage/misses");

/// One run's view of a [`StageCache`]: the expected chained keys plus
/// the matched prefix depth. Created per job by [`StageReuse::begin`]
/// and threaded through the flow as `Option<&mut StageReuse>`.
pub struct StageReuse<'a> {
    cache: &'a mut StageCache,
    keys: StageKeys,
    start: usize,
}

impl<'a> StageReuse<'a> {
    /// Prepares reuse for one run, or `None` when stage caching is
    /// unsafe for this config (active budget or fault plan — see the
    /// module docs). Computes the matched prefix depth up front; the
    /// flow records it in its obs session.
    pub fn begin(
        cache: &'a mut StageCache,
        flow: &str,
        tile: &TileConfig,
        cfg: &FlowConfig,
    ) -> Option<StageReuse<'a>> {
        if !cfg.budget.is_unlimited() || cfg.fault_plan.is_some() {
            return None;
        }
        let keys = stage_keys(flow, tile, cfg);
        // the longest prefix of slots whose stored chained keys match
        // this run's expected keys (the STA stage has no slot)
        let tags: [Option<u64>; CACHED_STAGES] = [
            tag(&cache.floorplan),
            tag(&cache.place),
            tag(&cache.route),
            tag(&cache.extract),
        ];
        let start = tags
            .iter()
            .zip(&keys.prefix)
            .take_while(|(stored, key)| **stored == Some(**key))
            .count();
        Some(StageReuse { cache, keys, start })
    }

    /// Bumps the `stage/*` obs counters for this run: one reuse run,
    /// its depth as hits, and the cacheable stages it executes as
    /// misses (the count `DseStats` keeps). Call it inside the flow's
    /// obs session, which resets the registry when it starts.
    pub(crate) fn record_obs(&self) {
        REUSE_RUNS.inc();
        REUSE_DEPTH.add(self.start as u64);
        STAGE_HITS.add(self.start as u64);
        STAGE_MISSES.add((CACHED_STAGES - self.start) as u64);
    }

    /// The first stage this run must execute — equivalently the
    /// number of stages whose artifacts can be reused (the run's
    /// *reuse depth*, `0..=4`).
    pub fn start_stage(&self) -> usize {
        self.start
    }

    /// This run's chained keys.
    pub fn keys(&self) -> &StageKeys {
        &self.keys
    }

    /// The artifact in `slot` when the matched prefix covers `stage`.
    fn restore<T>(&self, stage: Stage, slot: &Option<(u64, Arc<T>)>) -> Option<Arc<T>> {
        if self.start <= stage as usize {
            return None;
        }
        slot.as_ref().map(|(_, artifact)| Arc::clone(artifact))
    }

    /// Floorplan-boundary snapshot, when the matched prefix covers it.
    pub fn floorplan_snap(&self) -> Option<Arc<FloorplanSnap>> {
        self.restore(Stage::Floorplan, &self.cache.floorplan)
    }

    /// Place-boundary snapshot, when the matched prefix covers it.
    pub fn place_snap(&self) -> Option<Arc<PlaceSnap>> {
        self.restore(Stage::Place, &self.cache.place)
    }

    /// The stored routed design, when the matched prefix covers the
    /// route stage: another handle on the allocation the cold run
    /// routed, not a copy.
    pub fn route_snap(&self) -> Option<Arc<RoutedDesign>> {
        self.restore(Stage::Route, &self.cache.route)
    }

    /// Extract-boundary snapshot, when the matched prefix covers it.
    pub fn extract_snap(&self) -> Option<Arc<ExtractSnap>> {
        self.restore(Stage::Extract, &self.cache.extract)
    }

    /// Stores the floorplan-boundary snapshot (call at stage exit).
    pub fn store_floorplan(&mut self, snap: FloorplanSnap) {
        self.cache.floorplan = Some((self.keys.key(Stage::Floorplan), Arc::new(snap)));
    }

    /// Stores the place-boundary snapshot.
    pub fn store_place(&mut self, snap: PlaceSnap) {
        self.cache.place = Some((self.keys.key(Stage::Place), Arc::new(snap)));
    }

    /// Stores the route-boundary artifact: a second handle on
    /// `routed`, not a copy.
    pub fn store_route(&mut self, routed: &Arc<RoutedDesign>) {
        self.cache.route = Some((self.keys.key(Stage::Route), Arc::clone(routed)));
    }

    /// Stores the extract-boundary snapshot, once the first sign-off
    /// analysis has run.
    pub fn store_extract(&mut self, snap: ExtractSnap) {
        self.cache.extract = Some((self.keys.key(Stage::Extract), Arc::new(snap)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(f: impl FnOnce(&mut FlowConfig)) -> StageKeys {
        let mut cfg = FlowConfig::default();
        f(&mut cfg);
        stage_keys("Macro-3D", &TileConfig::mini(), &cfg)
    }

    #[test]
    fn keys_chain_downstream() {
        let base = keys(|_| {});
        // a route-only knob: floorplan/place keys unchanged, route and
        // everything after invalidated
        let routed = keys(|c| c.route.iterations += 1);
        assert_eq!(base.key(Stage::Floorplan), routed.key(Stage::Floorplan));
        assert_eq!(base.key(Stage::Place), routed.key(Stage::Place));
        assert_ne!(base.key(Stage::Route), routed.key(Stage::Route));
        assert_ne!(base.key(Stage::Extract), routed.key(Stage::Extract));
        assert_ne!(base.key(Stage::Sta), routed.key(Stage::Sta));

        // STA-only knobs: only the terminal key moves. The bond pitch
        // is one: the router never reads it, the sign-off count does
        let sized = keys(|c| c.sizing_rounds += 1);
        let pitched = keys(|c| c.route.f2f_pitch_um = Some(10.0));
        for late in [sized, pitched] {
            for s in [Stage::Floorplan, Stage::Place, Stage::Route, Stage::Extract] {
                assert_eq!(base.key(s), late.key(s), "{}", s.name());
            }
            assert_ne!(base.key(Stage::Sta), late.key(Stage::Sta));
        }
        let unpitched = keys(|c| c.route.f2f_pitch_um = None);
        assert_ne!(pitched.key(Stage::Sta), unpitched.key(Stage::Sta));
        assert_ne!(base.key(Stage::Sta), unpitched.key(Stage::Sta));

        // a floorplan knob: everything moves
        let fp = keys(|c| c.util_logic += 0.01);
        for s in Stage::all() {
            assert_ne!(base.key(s), fp.key(s), "{}", s.name());
        }
    }

    #[test]
    fn macro_metals_keys_only_flows_with_a_macro_die() {
        let tile = TileConfig::mini();
        let metals = |flow: &str, n: usize| {
            let cfg = FlowConfig {
                macro_metals: n,
                ..FlowConfig::default()
            };
            stage_keys(flow, &tile, &cfg)
        };
        assert_eq!(metals("2D", 4), metals("2D", 6), "2D never reads it");
        for flow in ["Macro-3D", "MoL S2D", "BF S2D", "C2D"] {
            let (a, b) = (metals(flow, 4), metals(flow, 6));
            for s in Stage::all() {
                assert_ne!(a.key(s), b.key(s), "{flow} {}", s.name());
            }
        }
    }

    #[test]
    fn threads_and_obs_never_key_stages() {
        let base = keys(|_| {});
        let threaded = keys(|c| {
            c.parallelism.threads = 8;
            c.route.parallelism.threads = 8;
            c.place.parallelism.threads = 8;
            c.obs = macro3d_obs::ObsConfig::summary();
        });
        assert_eq!(base, threaded, "thread/obs knobs must not invalidate");
        // neither do the top-level and placer chunk sizes…
        let chunked = keys(|c| {
            c.parallelism.chunk_size += 1;
            c.place.parallelism.chunk_size += 1;
        });
        assert_eq!(base, chunked, "placer chunk size must not invalidate");
        // …but the router's does (its batching changes results)
        let chunked = keys(|c| c.route.parallelism.chunk_size += 1);
        assert_eq!(base.key(Stage::Place), chunked.key(Stage::Place));
        assert_ne!(base.key(Stage::Route), chunked.key(Stage::Route));
    }

    #[test]
    fn budget_and_fault_key_every_stage_and_disable_caching() {
        let base = keys(|_| {});
        let budgeted = keys(|c| {
            c.budget = macro3d_par::FlowBudget::unlimited()
                .with_wall_clock(std::time::Duration::from_secs(3600));
        });
        let faulted = keys(|c| {
            c.fault_plan = Some(macro3d_par::FaultPlan::new().with_fault(
                "sta/sizing_rounds",
                3,
                macro3d_par::FaultAction::Exhaust,
            ));
        });
        for s in Stage::all() {
            assert_ne!(base.key(s), budgeted.key(s), "budget keys {}", s.name());
            assert_ne!(base.key(s), faulted.key(s), "fault keys {}", s.name());
        }
        let mut cache = StageCache::new();
        let cfg = FlowConfig {
            budget: macro3d_par::FlowBudget::unlimited().with_cap("route/iterations", 1),
            ..FlowConfig::default()
        };
        assert!(
            StageReuse::begin(&mut cache, "Macro-3D", &TileConfig::mini(), &cfg).is_none(),
            "caching must be off under a budget"
        );
    }

    #[test]
    fn flows_and_tiles_never_share_prefixes() {
        let cfg = FlowConfig::default();
        let tile = TileConfig::mini();
        let a = stage_keys("Macro-3D", &tile, &cfg);
        let b = stage_keys("2D", &tile, &cfg);
        assert_ne!(a.key(Stage::Floorplan), b.key(Stage::Floorplan));
        let big = stage_keys("Macro-3D", &TileConfig::small_cache(), &cfg);
        assert_ne!(a.key(Stage::Floorplan), big.key(Stage::Floorplan));
    }

    #[test]
    fn pseudo2d_place_super_stage_keys_late_knobs() {
        let cfg = FlowConfig::default();
        let mut sized = cfg.clone();
        sized.sizing_rounds += 1;
        let tile = TileConfig::mini();
        // S2D: sizing_rounds feeds the stage-1 pseudo-2D run
        let a = stage_keys("MoL S2D", &tile, &cfg);
        let b = stage_keys("MoL S2D", &tile, &sized);
        assert_eq!(a.key(Stage::Floorplan), b.key(Stage::Floorplan));
        assert_ne!(a.key(Stage::Place), b.key(Stage::Place));
        // Macro-3D: it only feeds the terminal stage
        let c = stage_keys("Macro-3D", &tile, &cfg);
        let d = stage_keys("Macro-3D", &tile, &sized);
        assert_eq!(c.key(Stage::Extract), d.key(Stage::Extract));
    }

    #[test]
    fn tile_slot_holds_one_tile_per_config() {
        let mut cache = StageCache::new();
        let mini = TileConfig::mini();
        let first = cache.tile(&mini);
        assert!(
            Arc::ptr_eq(&first, &cache.tile(&mini.clone())),
            "an equal config reuses the held tile"
        );

        let held = Arc::downgrade(&first);
        drop(first);
        let reseeded = TileConfig {
            seed: mini.seed + 1,
            ..mini.clone()
        };
        let second = cache.tile(&reseeded);
        assert!(held.upgrade().is_none(), "the old tile was not released");
        let fresh = generate_tile(&reseeded);
        assert_eq!(second.constraints, fresh.constraints);
        assert_eq!(second.design.num_insts(), fresh.design.num_insts());
        assert_eq!(second.design.num_nets(), fresh.design.num_nets());

        let held = Arc::downgrade(&second);
        drop(second);
        cache.clear();
        assert!(held.upgrade().is_none(), "clear() kept the tile");
    }

    #[test]
    fn matched_depth_follows_stored_slots() {
        let mut cache = StageCache::new();
        let cfg = FlowConfig::default();
        let tile = TileConfig::mini();
        {
            let r = StageReuse::begin(&mut cache, "Macro-3D", &tile, &cfg).unwrap();
            assert_eq!(r.start_stage(), 0, "cold cache");
        }
        {
            let mut r = StageReuse::begin(&mut cache, "Macro-3D", &tile, &cfg).unwrap();
            let lib = std::sync::Arc::new(macro3d_tech::libgen::n28_library(1.0));
            let die = macro3d_geom::Rect::from_um(0.0, 0.0, 10.0, 10.0);
            let design = Design::new("t", lib.clone());
            let fp = Floorplan::new(die, lib.row_height(), lib.site_width());
            let ports = PortPlan::assign(&design, die);
            let stack = macro3d_tech::stack::n28_stack(2, macro3d_tech::stack::DieRole::Logic);
            r.store_floorplan(FloorplanSnap { fp, ports, stack });
        }
        {
            let r = StageReuse::begin(&mut cache, "Macro-3D", &tile, &cfg).unwrap();
            assert_eq!(r.start_stage(), 1, "floorplan slot matches");
            assert!(r.floorplan_snap().is_some());
            assert!(r.place_snap().is_none());
        }
        // a floorplan knob invalidates the stored slot
        let mut moved = cfg.clone();
        moved.halo_um += 1.0;
        let r = StageReuse::begin(&mut cache, "Macro-3D", &tile, &moved).unwrap();
        assert_eq!(r.start_stage(), 0);
        assert!(r.floorplan_snap().is_none());
    }
}

//! Negotiated-congestion global routing (PathFinder-style) with a
//! batched-commit parallel inner loop.
//!
//! [`route_design`] routes a [`RouteRequest`] in one call. Its
//! negotiation state — the GCell grid with its maintained per-edge
//! cost array and overflow bitset, the per-net Steiner topologies and
//! the committed paths — borrows the request's nets and lives only
//! for that call.
//!
//! Each rip-up iteration partitions its nets into fixed-size chunks.
//! A chunk is routed against a *frozen* congestion snapshot — workers
//! search in parallel, each borrowing pooled A* scratch buffers — and
//! then usage is committed serially in chunk order before the next
//! chunk starts. Because the chunk partition and commit order depend
//! only on [`RouteConfig`] (never on the thread count), the routed
//! result is bit-identical for any `parallelism.threads`.

use crate::gcell::RouteGrid;
use crate::routed::{RouteSeg, RoutedDesign, RoutedNet, Via};
use crate::search::{route_leg, ScratchPool, SearchShared};
use crate::steiner::steiner_edges;
use macro3d_geom::{BinIx, Dbu, Point, Rect};
use macro3d_netlist::NetId;
use macro3d_par::{checkpoint, note_degradation, parallel_map_with, Checkpoint, Parallelism};
use macro3d_tech::stack::MetalStack;

/// GCell pitch, µm.
pub const GCELL_UM: f64 = 10.0;

/// Nets with more pins than this are skipped (pre-CTS clock nets are
/// routed by CTS instead).
pub const MAX_NET_DEGREE: usize = 512;

/// Router configuration. Plain data: the flows check its ranges in
/// `FlowConfig::validate` (the `macro3d` crate) before routing.
#[derive(Clone, Copy, Debug)]
pub struct RouteConfig {
    /// Fraction of raw tracks available to global routing.
    pub utilization: f64,
    /// Rip-up and re-route iterations, at least 1.
    pub iterations: usize,
    /// Cost of one via transition (in GCell-step units). The router
    /// searches in `f32`, where it must be finite and > 0.
    pub via_cost: f64,
    /// F2F bond pitch, µm — bounds how many bumps fit per GCell.
    /// Read by the sign-off bump-density count
    /// ([`RoutedDesign::f2f_overcrowded_gcells`]), never by the
    /// router, so it does not change routes. `None` disables the
    /// check.
    pub f2f_pitch_um: Option<f64>,
    /// Worker threads and batch size for the chunked inner loop. The
    /// chunk size changes routing results (it sets the commit
    /// granularity); the thread count never does.
    pub parallelism: Parallelism,
}

impl Default for RouteConfig {
    fn default() -> Self {
        RouteConfig {
            utilization: 0.5,
            iterations: 3,
            via_cost: 2.0,
            f2f_pitch_um: Some(1.0),
            parallelism: Parallelism::default(),
        }
    }
}

/// Whether `cost` is usable as a search cost: finite and > 0 after
/// the `f32` conversion the router applies. NaN would block every
/// step it prices, a negative cost would make edge costs negative,
/// and an infinite one blocks vias outright.
pub fn valid_search_cost(cost: f64) -> bool {
    let c = cost as f32;
    c.is_finite() && c > 0.0
}

/// A pin handed to the router: location plus routing-stack layer.
pub type RoutePin = (Point, u16);

/// Everything the router needs for one route.
///
/// `nets` carries, per net, its pins with their layer in the given
/// stack (the flows map macro-die pins to `_MD` layers here).
/// `obstacles` are (layer, rect) capacity reductions (macro internal
/// routing). `num_nets` sizes the result's per-net table.
#[derive(Clone, Copy, Debug)]
pub struct RouteRequest<'a> {
    /// Die (routing area) outline.
    pub die: Rect,
    /// The metal stack routed over (single-die or combined F2F).
    pub stack: &'a MetalStack,
    /// Capacity reductions: (layer, rect) pairs.
    pub obstacles: &'a [(usize, Rect)],
    /// The nets to route, each with its pins.
    pub nets: &'a [(NetId, Vec<RoutePin>)],
    /// Size of the result's per-net table (`>= max NetId + 1`).
    pub num_nets: usize,
}

/// One leg of a net's Steiner topology: two (GCell, layer) endpoints.
type Leg = ((BinIx, u16), (BinIx, u16));

/// Routes every net of `req`: builds the GCell grid with its
/// obstacles, decomposes each routable net into Steiner legs, routes
/// them all, then rips up and re-routes whatever crosses an
/// overflowed edge for up to `cfg.iterations` passes.
///
/// Every routable net is guaranteed a route (possibly through
/// overflowed edges, which the result reports with the nets that
/// cross them; see [`RoutedDesign::note_residual_overflow`]). The
/// result is bit-identical for any `cfg.parallelism.threads`.
///
/// # Examples
///
/// ```
/// use macro3d_geom::{Point, Rect};
/// use macro3d_netlist::NetId;
/// use macro3d_route::{route_design, RouteConfig, RouteRequest};
/// use macro3d_tech::stack::{n28_stack, DieRole};
///
/// let stack = n28_stack(6, DieRole::Logic);
/// let nets = vec![(
///     NetId(0),
///     vec![(Point::from_um(10.0, 10.0), 0), (Point::from_um(90.0, 50.0), 0)],
/// )];
/// let routed = route_design(
///     &RouteRequest {
///         die: Rect::from_um(0.0, 0.0, 100.0, 100.0),
///         stack: &stack,
///         obstacles: &[],
///         nets: &nets,
///         num_nets: 1,
///     },
///     &RouteConfig::default(),
/// );
/// assert!(routed.net(NetId(0)).is_some());
/// ```
pub fn route_design(req: &RouteRequest<'_>, cfg: &RouteConfig) -> RoutedDesign {
    let mut state = Negotiation::new(req, cfg);
    state.negotiate();
    state.assemble(req.num_nets)
}

/// The negotiation state of one route. Per-net tables are indexed
/// like the request's `nets`.
struct Negotiation<'a> {
    cfg: &'a RouteConfig,
    nets: &'a [(NetId, Vec<RoutePin>)],
    grid: RouteGrid,
    f2f_cut: Option<usize>,
    shared: SearchShared,
    pool: ScratchPool,
    /// routable nets sorted by bounding-box span (short first — they
    /// have the least flexibility).
    order: Vec<usize>,
    /// Steiner decomposition per net (empty for skipped nets).
    topo: Vec<Vec<Leg>>,
    routes: Vec<Option<RoutedNet>>,
    /// wire edges committed by each net's current route.
    net_edges: Vec<Vec<u32>>,
}

impl<'a> Negotiation<'a> {
    /// Builds the grid, obstacles, search constants, and the Steiner
    /// topology of every routable net.
    fn new(req: &RouteRequest<'a>, cfg: &'a RouteConfig) -> Self {
        let mut grid = RouteGrid::new(req.die, req.stack, Dbu::from_um(GCELL_UM), cfg.utilization);
        for &(layer, rect) in req.obstacles {
            grid.add_obstacle(layer, rect);
        }
        // per-cut via costs: the F2F hybrid bond is electrically
        // trivial (44 mOhm / 1 fF), so crossing it costs far less than
        // a regular via stack — this is what lets the router use the
        // macro die's thick metals for logic-die nets (paper Sec. III:
        // "routing paths starting and ending in the same die but still
        // traversing the other die to avoid congestions")
        let via_costs: Vec<f32> = req
            .stack
            .vias()
            .iter()
            .map(|v| if v.is_f2f { 0.6 } else { cfg.via_cost as f32 })
            .collect();
        let dirs = req.stack.layers().iter().map(|l| l.direction).collect();
        let shared = SearchShared::new(&grid, dirs, via_costs, cfg.via_cost as f32);

        let nets = req.nets;
        // 2 pins up to the degree cap; pre-CTS clock nets are routed
        // by CTS instead
        let routable = |pins: &[RoutePin]| pins.len() >= 2 && pins.len() <= MAX_NET_DEGREE;
        let topo = nets
            .iter()
            .map(|(_, pins)| {
                if routable(pins) {
                    topo_of(&grid, pins)
                } else {
                    Vec::new()
                }
            })
            .collect();
        let mut order: Vec<usize> = (0..nets.len()).filter(|&i| routable(&nets[i].1)).collect();
        order.sort_by_key(|&i| {
            let pins = &nets[i].1;
            let mut lo = pins[0].0;
            let mut hi = pins[0].0;
            for p in pins {
                lo = lo.min(p.0);
                hi = hi.max(p.0);
            }
            lo.manhattan(hi)
        });
        Negotiation {
            cfg,
            nets,
            grid,
            f2f_cut: req.stack.f2f_cut(),
            shared,
            pool: ScratchPool::new(),
            order,
            topo,
            routes: vec![None; nets.len()],
            net_edges: vec![Vec::new(); nets.len()],
        }
    }

    /// The PathFinder loop: iteration 0 routes every routable net,
    /// later iterations rip up and re-route whatever crosses an
    /// overflowed edge (found via the grid's maintained bitset).
    /// Chunked batched commit keeps results thread-count invariant.
    fn negotiate(&mut self) {
        let par = self.cfg.parallelism;
        let max_iters = self.cfg.iterations.max(1);
        for iter in 0..max_iters {
            // budget checkpoint: stopping keeps every committed route
            // (best-so-far); the flow reports the residual overflow
            // through `RoutedDesign::note_residual_overflow`
            if let Checkpoint::Stop(reason) = checkpoint("route/iterations") {
                note_degradation(
                    "route/iterations",
                    reason,
                    format!(
                        "stopped at rip-up iteration {iter} of {max_iters} \
                         with overflow {}",
                        self.grid.total_overflow()
                    ),
                );
                break;
            }
            let _iter_span = macro3d_obs::span_full!("route/iter{iter}");
            ROUTE_ITERATIONS.inc();
            let reroute: Vec<usize> = if iter == 0 {
                self.order.clone()
            } else {
                if self.grid.overflow_count() == 0 {
                    break;
                }
                RIPUP_ROUNDS.inc();
                let victims: Vec<usize> = self
                    .order
                    .iter()
                    .copied()
                    .filter(|&i| {
                        self.net_edges[i]
                            .iter()
                            .any(|&e| self.grid.is_overflowed(e as usize))
                    })
                    .collect();
                self.grid.accumulate_history(1.0);
                for &i in &victims {
                    for &e in &self.net_edges[i] {
                        self.grid.release(e as usize);
                    }
                    self.net_edges[i].clear();
                    self.routes[i] = None;
                }
                victims
            };

            // Batched commit: each chunk routes against the congestion
            // state frozen at its start, then usage lands serially in
            // chunk order. Identical results for any thread count.
            NETS_REROUTED.add(reroute.len() as u64);
            for chunk in reroute.chunks(par.chunk_size.max(1)) {
                CHUNK_NETS.record(chunk.len() as u64);
                let grid = &self.grid;
                let shared = &self.shared;
                let topo = &self.topo;
                let pool = &self.pool;
                let f2f_cut = self.f2f_cut;
                let results: Vec<(RoutedNet, Vec<u32>)> = parallel_map_with(
                    chunk,
                    &par,
                    || pool.checkout(shared),
                    |scratch, _k, &i| route_legs(shared, grid, scratch.get(), &topo[i], f2f_cut),
                );
                for (&i, (net_route, edges)) in chunk.iter().zip(results) {
                    for &e in &edges {
                        self.grid.commit(e as usize);
                    }
                    self.net_edges[i] = edges;
                    self.routes[i] = Some(net_route);
                }
            }
            // serial commit section, so the per-iteration overflow
            // history is deterministic for any thread count
            if let Some(reg) = macro3d_obs::registry() {
                reg.series("route/overflow")
                    .push(self.grid.total_overflow());
            }
        }
    }

    /// Copies the committed routes into a [`RoutedDesign`] indexed by
    /// `NetId`, with a table of `num_nets` entries.
    fn assemble(&self, num_nets: usize) -> RoutedDesign {
        let mut result = RoutedDesign {
            nets: vec![None; num_nets],
            ..Default::default()
        };
        // Clone rather than move: the copies are exact-size and
        // allocated back to back, and the grown-by-push originals are
        // freed with the rest of the state. Moving the originals out
        // made perfbench's `dse_sweep` 13-14 % slower at two seeds,
        // most likely from the heap fragmentation they leave behind.
        for ((net_id, _), route) in self.nets.iter().zip(&self.routes) {
            if let Some(r) = route {
                result.total_wirelength_um += r.wirelength_um();
                result.f2f_bumps += r.f2f_crossings as u64;
                result.nets[net_id.index()] = Some(r.clone());
            }
        }
        result.overflow = self.grid.total_overflow();
        result.overflowed_edges = self.grid.overflowed_edges();
        result.max_utilization = self.grid.max_utilization();
        if result.overflow > 0.0 {
            result.overflow_nets = self
                .nets
                .iter()
                .zip(&self.net_edges)
                .filter(|(_, edges)| edges.iter().any(|&e| self.grid.is_overflowed(e as usize)))
                .map(|((net_id, _), _)| *net_id)
                .collect();
        }
        result
    }
}

/// Decomposes a net into routed legs: Steiner topology over the pin
/// locations, each edge annotated with its endpoints' layers (Steiner
/// points introduced by the decomposition route from layer 0).
fn topo_of(grid: &RouteGrid, pins: &[RoutePin]) -> Vec<Leg> {
    let points: Vec<Point> = pins.iter().map(|p| p.0).collect();
    let layer_of = |pt: Point| -> u16 { pins.iter().find(|p| p.0 == pt).map(|p| p.1).unwrap_or(0) };
    steiner_edges(&points)
        .into_iter()
        .map(|(a, b)| {
            (
                (grid.gcell_of(a), layer_of(a)),
                (grid.gcell_of(b), layer_of(b)),
            )
        })
        .collect()
}

/// Routes one net's cached legs; returns the merged route and the
/// wire-edge indices used.
fn route_legs(
    shared: &SearchShared,
    grid: &RouteGrid,
    scratch: &mut crate::search::SearchScratch,
    legs: &[Leg],
    f2f_cut: Option<usize>,
) -> (RoutedNet, Vec<u32>) {
    let mut net = RoutedNet::default();
    let mut edges = Vec::new();
    for &(src, dst) in legs {
        let path = route_leg(shared, grid, scratch, src, dst);
        append_path(grid, &path, &mut net, &mut edges, f2f_cut);
    }
    (net, edges)
}

/// Negotiation iterations executed (first pass included).
static ROUTE_ITERATIONS: macro3d_obs::SiteCounter =
    macro3d_obs::SiteCounter::new("route/iterations");
/// Iterations that actually ripped up overflowed nets.
static RIPUP_ROUNDS: macro3d_obs::SiteCounter = macro3d_obs::SiteCounter::new("route/ripup_rounds");
/// Nets (re)routed across all iterations.
static NETS_REROUTED: macro3d_obs::SiteCounter =
    macro3d_obs::SiteCounter::new("route/nets_rerouted");
/// Nets per batched-commit chunk.
static CHUNK_NETS: macro3d_obs::SiteHistogram = macro3d_obs::SiteHistogram::new("route/chunk_nets");

/// Converts a node path into merged segments, vias and edge usage.
fn append_path(
    grid: &RouteGrid,
    path: &[(u16, u16, u16)], // (layer, x, y)
    net: &mut RoutedNet,
    edges: &mut Vec<u32>,
    f2f_cut: Option<usize>,
) {
    if path.len() < 2 {
        return;
    }
    let mut seg_start = 0usize;
    for k in 1..path.len() {
        let (pl, px, py) = path[k - 1];
        let (cl, cx, cy) = path[k];
        if cl != pl {
            // via step: flush any open segment
            flush_segment(grid, path, seg_start, k - 1, net);
            seg_start = k;
            let lo = cl.min(pl) as usize;
            net.vias.push(Via {
                layer: lo as u16,
                at: grid.gcell_center(BinIx::new(cx as u32, cy as u32)),
            });
            if f2f_cut == Some(lo) {
                net.f2f_crossings += 1;
            }
        } else {
            // wire step: record edge usage
            let horizontal = cy == py;
            let (ex, ey) = (cx.min(px) as usize, cy.min(py) as usize);
            if let Some(e) = grid.edge_ix(cl as usize, ex, ey, horizontal) {
                edges.push(e as u32);
            }
            // direction change on same layer: split segment
            if k >= 2 {
                let (ql, _qx, qy) = path[k - 2];
                if ql == pl {
                    let prev_horiz = py == qy;
                    if prev_horiz != horizontal {
                        flush_segment(grid, path, seg_start, k - 1, net);
                        seg_start = k - 1;
                    }
                }
            }
        }
    }
    flush_segment(grid, path, seg_start, path.len() - 1, net);
}

fn flush_segment(
    grid: &RouteGrid,
    path: &[(u16, u16, u16)],
    from: usize,
    to: usize,
    net: &mut RoutedNet,
) {
    if to <= from {
        return;
    }
    let (l, x0, y0) = path[from];
    let (_, x1, y1) = path[to];
    if x0 == x1 && y0 == y1 {
        return;
    }
    net.segments.push(RouteSeg {
        layer: l,
        from: grid.gcell_center(BinIx::new(x0 as u32, y0 as u32)),
        to: grid.gcell_center(BinIx::new(x1 as u32, y1 as u32)),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use macro3d_tech::stack::{n28_stack, DieRole};
    use macro3d_tech::{CombinedBeol, F2fSpec};

    fn die() -> Rect {
        Rect::from_um(0.0, 0.0, 200.0, 200.0)
    }

    fn route_once(
        die: Rect,
        stack: &MetalStack,
        obstacles: &[(usize, Rect)],
        nets: &[(NetId, Vec<RoutePin>)],
        num_nets: usize,
        cfg: &RouteConfig,
    ) -> RoutedDesign {
        route_design(
            &RouteRequest {
                die,
                stack,
                obstacles,
                nets,
                num_nets,
            },
            cfg,
        )
    }

    fn two_pin_net(a: (f64, f64, u16), b: (f64, f64, u16)) -> Vec<(NetId, Vec<RoutePin>)> {
        vec![(
            NetId(0),
            vec![
                (Point::from_um(a.0, a.1), a.2),
                (Point::from_um(b.0, b.1), b.2),
            ],
        )]
    }

    #[test]
    fn routes_simple_net() {
        let stack = n28_stack(6, DieRole::Logic);
        let nets = two_pin_net((10.0, 10.0, 0), (150.0, 150.0, 0));
        let r = route_once(die(), &stack, &[], &nets, 1, &RouteConfig::default());
        let net = r.net(NetId(0)).expect("routed");
        // manhattan distance is 280um; routed length must be at least
        // that (minus one gcell of quantization) and not wildly more
        assert!(net.wirelength_um() >= 260.0, "wl {}", net.wirelength_um());
        assert!(net.wirelength_um() <= 400.0, "wl {}", net.wirelength_um());
        assert!(!net.vias.is_empty(), "needs layer changes to go diagonal");
        assert_eq!(net.f2f_crossings, 0);
        assert_eq!(r.f2f_bumps, 0);
    }

    /// A via cost [`valid_search_cost`] accepts can still push a dirty
    /// pattern's cost past what `to_millis` represents: its `u64` bound
    /// then saturates instead of overflowing (a panic in test builds,
    /// and a bound of 7 that prunes every state in release).
    #[test]
    fn huge_via_cost_saturates_the_pattern_bound() {
        let stack = n28_stack(4, DieRole::Logic);
        assert!(valid_search_cost(1e30), "finite and > 0 as f32");
        let cfg = RouteConfig {
            via_cost: 1e30,
            utilization: 0.02,
            iterations: 1,
            parallelism: Parallelism::serial().with_chunk_size(1),
            ..RouteConfig::default()
        };
        // identical L-shaped nets over a starved grid, committed one at
        // a time: once the first few fill every candidate corridor,
        // each pattern goes dirty
        let nets: Vec<(NetId, Vec<RoutePin>)> = (0..30u32)
            .map(|i| {
                (
                    NetId(i),
                    vec![
                        (Point::from_um(10.0, 10.0), 0u16),
                        (Point::from_um(190.0, 190.0), 0u16),
                    ],
                )
            })
            .collect();
        let r = route_once(die(), &stack, &[], &nets, 30, &cfg);
        assert_eq!(r.nets.iter().filter(|n| n.is_some()).count(), 30);
        for net in r.nets.iter().flatten() {
            assert!(!net.vias.is_empty(), "an L-route changes layers");
        }
    }

    #[test]
    fn f2f_crossings_counted_in_combined_stack() {
        let combined = CombinedBeol::build(
            &n28_stack(6, DieRole::Logic),
            &n28_stack(4, DieRole::Macro),
            &F2fSpec::hybrid_bond_n28(),
        );
        // pin on logic M1 to pin on macro-die M4_MD (layer 9)
        let nets = two_pin_net((10.0, 10.0, 0), (100.0, 100.0, 9));
        let r = route_once(
            die(),
            combined.stack(),
            &[],
            &nets,
            1,
            &RouteConfig::default(),
        );
        let net = r.net(NetId(0)).expect("routed");
        assert!(net.f2f_crossings >= 1, "must cross the F2F cut");
        assert_eq!(r.f2f_bumps as u32, net.f2f_crossings);
    }

    #[test]
    fn congestion_spreads_nets() {
        let stack = n28_stack(2, DieRole::Logic);
        // many parallel nets through a narrow channel
        let mut nets = Vec::new();
        for i in 0..40 {
            nets.push((
                NetId(i),
                vec![
                    (Point::from_um(5.0, 100.0), 0u16),
                    (Point::from_um(195.0, 100.0), 0u16),
                ],
            ));
        }
        // tiny capacity: forces spreading
        let cfg = RouteConfig {
            utilization: 0.02,
            ..RouteConfig::default()
        };
        let r = route_once(die(), &stack, &[], &nets, 40, &cfg);
        // all nets routed
        assert!(r.nets.iter().filter(|n| n.is_some()).count() == 40);
        assert!(r.total_wirelength_um >= 40.0 * 180.0);
    }

    #[test]
    fn obstacle_forces_detour_or_layer_change() {
        let stack = n28_stack(6, DieRole::Logic);
        let wall = Rect::from_um(90.0, 0.0, 110.0, 200.0);
        // wall blocks M1..M4 fully
        let obstacles: Vec<(usize, Rect)> = (0..4).map(|l| (l, wall)).collect();
        let nets = two_pin_net((10.0, 100.0, 0), (190.0, 100.0, 0));
        let r = route_once(die(), &stack, &obstacles, &nets, 1, &RouteConfig::default());
        let net = r.net(NetId(0)).expect("routed");
        // must hop to M5/M6 to cross the wall
        let by_layer = net.wirelength_by_layer(6);
        assert!(
            by_layer[4] + by_layer[5] > 0.0,
            "crossing uses upper metals: {by_layer:?}"
        );
    }

    #[test]
    fn degenerate_and_oversize_nets_skipped() {
        let stack = n28_stack(6, DieRole::Logic);
        let nets = vec![
            (NetId(0), vec![(Point::from_um(1.0, 1.0), 0u16)]), // single pin
            (
                NetId(1),
                (0..600)
                    .map(|i| (Point::from_um(i as f64 % 100.0, 1.0), 0u16))
                    .collect(),
            ), // oversized
        ];
        let r = route_once(die(), &stack, &[], &nets, 2, &RouteConfig::default());
        assert!(r.net(NetId(0)).is_none());
        assert!(r.net(NetId(1)).is_none());
    }

    #[test]
    fn bump_density_check_counts_hotspots() {
        let combined = CombinedBeol::build(
            &n28_stack(6, DieRole::Logic),
            &n28_stack(4, DieRole::Macro),
            &F2fSpec::hybrid_bond_n28(),
        );
        // many nets forced through the same area to the macro die
        let mut nets = Vec::new();
        for i in 0..300u32 {
            nets.push((
                NetId(i),
                vec![
                    (Point::from_um(100.0, 100.0), 0u16),
                    (Point::from_um(105.0, 105.0), 9u16),
                ],
            ));
        }
        let cfg = RouteConfig::default();
        let r = route_once(die(), combined.stack(), &[], &nets, 300, &cfg);
        assert!(r.f2f_bumps >= 300);
        let cut = combined.stack().f2f_cut();
        let overcrowded = |pitch| r.f2f_overcrowded_gcells(die(), cut, Some(pitch));
        // a coarse bond pitch makes per-gcell capacity tiny
        assert!(
            overcrowded(5.0) > 0,
            "300 bumps in one spot overflow a 4-bump gcell"
        );
        // with the real 1um pitch the same pattern fits
        assert!(overcrowded(1.0) <= overcrowded(5.0));
    }

    #[test]
    fn thread_count_never_changes_routes() {
        let stack = n28_stack(4, DieRole::Logic);
        // congested fan pattern: enough contention that history and
        // batching actually matter
        let mut nets = Vec::new();
        for i in 0..120u32 {
            let x = 5.0 + (i % 12) as f64 * 16.0;
            let y = 5.0 + (i / 12) as f64 * 19.0;
            nets.push((
                NetId(i),
                vec![
                    (Point::from_um(x, y), 0u16),
                    (Point::from_um(100.0, 100.0), 0u16),
                ],
            ));
        }
        let mut cfg = RouteConfig {
            utilization: 0.05,
            parallelism: Parallelism::serial().with_chunk_size(8),
            ..RouteConfig::default()
        };
        let reference = route_once(die(), &stack, &[], &nets, 120, &cfg);
        for threads in [2, 4, 8] {
            cfg.parallelism = Parallelism::threads(threads).with_chunk_size(8);
            let got = route_once(die(), &stack, &[], &nets, 120, &cfg);
            assert_eq!(got.total_wirelength_um, reference.total_wirelength_um);
            assert_eq!(got.overflow, reference.overflow);
            for (a, b) in got.nets.iter().zip(reference.nets.iter()) {
                let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
                assert_eq!(a.segments, b.segments, "threads={threads}");
                assert_eq!(a.vias, b.vias);
            }
        }
    }

    #[test]
    fn multi_pin_net_connects_all_pins() {
        let stack = n28_stack(6, DieRole::Logic);
        let pins: Vec<RoutePin> = [(10.0, 10.0), (190.0, 10.0), (10.0, 190.0), (100.0, 100.0)]
            .iter()
            .map(|&(x, y)| (Point::from_um(x, y), 0u16))
            .collect();
        let nets = vec![(NetId(0), pins)];
        let r = route_once(die(), &stack, &[], &nets, 1, &RouteConfig::default());
        let net = r.net(NetId(0)).expect("routed");
        // spanning 3 edges worth of wire
        assert!(net.wirelength_um() > 300.0);
    }
}

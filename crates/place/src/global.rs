//! Recursive min-cut bisection global placement.
//!
//! The placer recursively splits the core area into two sub-regions of
//! equal *usable* capacity (full/partial blockages discounted), FM-
//! partitions the region's cells to minimise cut with terminal
//! propagation (external pins — ports, macro pins, already-assigned
//! cells — anchor nets to the side nearer their projection), and
//! recurses until a handful of cells per region remain, which are then
//! spread over the region.
//!
//! After a cut, the two sub-problems never interact: each child sees
//! the rest of the design only through an immutable snapshot of
//! external cell estimates taken at fork time (sibling cells at the
//! sibling region's centre). Both halves therefore recurse through
//! [`parallel_join`] concurrently, and per the `macro3d-par`
//! determinism contract the result is bit-identical for any thread
//! count.

use crate::floorplan::Floorplan;
use crate::hpwl::pin_position;
use crate::partition::{bipartition, FmConfig, Hypergraph};
use crate::placement::Placement;
use crate::ports::PortPlan;
use macro3d_geom::idhash::{IdHashMap, IdHashSet};
use macro3d_geom::{Dbu, Point, Rect};
use macro3d_netlist::{Design, InstId, Master, NetId, PinRef};
use macro3d_par::{parallel_join, Parallelism};

/// Which global-placement engine runs (both honour the same
/// determinism contract and the same [`GlobalPlaceConfig`] fields
/// they share).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PlacerBackend {
    /// Recursive min-cut bisection with terminal propagation (this
    /// module) — the legacy engine and the QoR reference.
    #[default]
    Bisection,
    /// ePlace-style electrostatic analytical placement
    /// ([`crate::analytical`]): data-parallel gradient/density
    /// kernels, Nesterov descent, Abacus legalization handoff.
    Analytical,
}

/// Bisection stops recursing at this many cells per region.
pub const MIN_CELLS: usize = 8;

/// FM passes per bisection.
pub const FM_PASSES: usize = 2;

/// Nets with more pins than this carry no placement information
/// (clock and other global nets): both backends ignore them.
pub const MAX_NET_DEGREE: usize = 64;

/// Global-placement configuration.
#[derive(Clone, Copy, Debug, Default)]
pub struct GlobalPlaceConfig {
    /// Thread budget for the fork-join bisection tree and the
    /// analytical kernels. Output is bit-identical for any setting,
    /// chunk size included.
    pub parallelism: Parallelism,
    /// Which engine places the cells.
    pub backend: PlacerBackend,
}

/// Runs global placement of all standard cells of `design` inside the
/// floorplan, dispatching on [`GlobalPlaceConfig::backend`]. Macros
/// take their positions from `fp.macros`; cells end up spread over
/// the usable area (overlapping; run [`crate::legalize::legalize`] or
/// [`crate::legalize::legalize_abacus`] next).
///
/// # Panics
///
/// Panics if a macro in `fp.macros` references an out-of-range
/// instance.
pub fn global_place(
    design: &Design,
    fp: &Floorplan,
    ports: &PortPlan,
    cfg: &GlobalPlaceConfig,
) -> Placement {
    match cfg.backend {
        PlacerBackend::Bisection => bisection_place(design, fp, ports, cfg),
        PlacerBackend::Analytical => crate::analytical::analytical_place(design, fp, ports, cfg),
    }
}

/// The recursive min-cut bisection engine (see the module docs).
pub(crate) fn bisection_place(
    design: &Design,
    fp: &Floorplan,
    ports: &PortPlan,
    cfg: &GlobalPlaceConfig,
) -> Placement {
    let mut placement = Placement::new(design);

    // Fix macros.
    for mp in &fp.macros {
        placement.pos[mp.inst.index()] = mp.rect.lo;
        placement.die_of[mp.inst.index()] = mp.die;
    }

    let movable: Vec<InstId> = design.inst_ids().filter(|&i| !design.is_macro(i)).collect();
    if movable.is_empty() {
        return placement;
    }
    for &i in &movable {
        placement.pos[i.index()] = fp.die().center();
    }

    // inst -> incident nets (small nets only)
    let mut inst_nets: Vec<Vec<NetId>> = vec![Vec::new(); design.num_insts()];
    for n in design.net_ids() {
        let pins = &design.net(n).pins;
        if pins.len() < 2 || pins.len() > MAX_NET_DEGREE {
            continue;
        }
        for p in pins {
            if let Some(i) = p.instance() {
                inst_nets[i.index()].push(n);
            }
        }
    }

    let ctx = PlaceCtx {
        design,
        fp,
        ports,
        inst_nets,
        base: placement.clone(),
    };
    // Root has no external cells, so its estimate snapshot is empty;
    // every deeper snapshot derives from the fork-time invariant that
    // a child's external cells are its sibling's cells plus its
    // parent's externals.
    let placed = place_region(
        &ctx,
        fp.die(),
        movable,
        IdHashMap::default(),
        cfg.parallelism.effective_threads(),
        0,
    );
    for (i, p) in placed {
        placement.pos[i.index()] = p;
    }
    placement
}

/// Read-only state shared by every node of the bisection tree.
struct PlaceCtx<'a> {
    design: &'a Design,
    fp: &'a Floorplan,
    ports: &'a PortPlan,
    /// inst -> incident small nets.
    inst_nets: Vec<Vec<NetId>>,
    /// Macro positions and instance footprints for pin lookups. Cell
    /// positions here stay at the die centre — their region estimates
    /// travel through the per-node `ext` snapshots instead.
    base: Placement,
}

/// Places `cells` inside `region` and returns their final positions.
///
/// `ext` snapshots the position estimate of every *cell* outside the
/// region that shares a (small) net with one inside; macros and ports
/// are resolved through `ctx.base`. `budget` is the thread budget for
/// this subtree (see [`parallel_join`]); `depth` is the bisection
/// level, used only for trace span names. The id-hashed maps of this
/// module are only ever looked up, never iterated, so their hasher
/// cannot reorder anything.
fn place_region(
    ctx: &PlaceCtx,
    region: Rect,
    cells: Vec<InstId>,
    ext: IdHashMap<InstId, Point>,
    budget: usize,
    depth: usize,
) -> Vec<(InstId, Point)> {
    let _span = macro3d_obs::span_full!("bisect d{depth} n{}", cells.len());
    if cells.len() <= MIN_CELLS {
        return spread(ctx, region, &cells);
    }
    let horizontal_split = region.width() >= region.height();
    let Some((rect_a, rect_b, frac_a)) = split_region(ctx.fp, region, horizontal_split) else {
        return spread(ctx, region, &cells);
    };

    // degenerate capacity: push everything to the usable side
    let side = if frac_a < 0.02 {
        vec![1u8; cells.len()]
    } else if frac_a > 0.98 {
        vec![0u8; cells.len()]
    } else {
        partition_cells(ctx, &ext, &cells, horizontal_split, rect_a, frac_a)
    };

    let mut cells_a = Vec::new();
    let mut cells_b = Vec::new();
    let mut side_of: IdHashMap<InstId, u8> =
        IdHashMap::with_capacity_and_hasher(cells.len(), Default::default());
    for (k, &c) in cells.iter().enumerate() {
        side_of.insert(c, side[k]);
        if side[k] == 0 {
            cells_a.push(c);
        } else {
            cells_b.push(c);
        }
    }
    let ext_a = child_ext(ctx, &cells_a, &side_of, 0, rect_b.center(), &ext);
    let ext_b = child_ext(ctx, &cells_b, &side_of, 1, rect_a.center(), &ext);

    if cells_b.is_empty() {
        return place_region(ctx, rect_a, cells_a, ext_a, budget, depth + 1);
    }
    if cells_a.is_empty() {
        return place_region(ctx, rect_b, cells_b, ext_b, budget, depth + 1);
    }
    let (mut placed, placed_b) = parallel_join(
        budget,
        move |sub| place_region(ctx, rect_a, cells_a, ext_a, sub, depth + 1),
        move |sub| place_region(ctx, rect_b, cells_b, ext_b, sub, depth + 1),
    );
    placed.extend(placed_b);
    placed
}

/// Builds one child's external-estimate snapshot: cells that landed on
/// the sibling side are pinned at the sibling region's centre, and
/// everything farther out keeps its parent-snapshot estimate.
fn child_ext(
    ctx: &PlaceCtx,
    cells: &[InstId],
    side_of: &IdHashMap<InstId, u8>,
    my_side: u8,
    sibling_center: Point,
    parent_ext: &IdHashMap<InstId, Point>,
) -> IdHashMap<InstId, Point> {
    let mut ext = IdHashMap::default();
    for &c in cells {
        for &n in &ctx.inst_nets[c.index()] {
            for &p in &ctx.design.net(n).pins {
                let Some(i) = p.instance() else { continue };
                if ctx.design.is_macro(i) {
                    continue;
                }
                match side_of.get(&i) {
                    Some(&s) if s == my_side => {}
                    Some(_) => {
                        ext.insert(i, sibling_center);
                    }
                    None => {
                        if let Some(&pt) = parent_ext.get(&i) {
                            ext.insert(i, pt);
                        }
                    }
                }
            }
        }
    }
    ext
}

/// Splits a region so both halves have (approximately) equal usable
/// capacity. Returns `None` when the region is degenerate or one side
/// would have no capacity.
fn split_region(fp: &Floorplan, region: Rect, horizontal: bool) -> Option<(Rect, Rect, f64)> {
    let total = fp.usable_area_um2(region);
    if total <= 0.0 {
        return None;
    }
    let (mut lo, mut hi) = if horizontal {
        (region.lo.x.0, region.hi.x.0)
    } else {
        (region.lo.y.0, region.hi.y.0)
    };
    if hi - lo < 2 {
        return None;
    }
    // binary search for the halving coordinate
    for _ in 0..20 {
        let mid = (lo + hi) / 2;
        let a = left_rect(region, horizontal, Dbu(mid));
        if fp.usable_area_um2(a) < total / 2.0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let cut = Dbu((lo + hi) / 2);
    let rect_a = left_rect(region, horizontal, cut);
    let rect_b = right_rect(region, horizontal, cut);
    let cap_a = fp.usable_area_um2(rect_a);
    let cap_b = fp.usable_area_um2(rect_b);
    if cap_a <= 0.0 || cap_b <= 0.0 || rect_a.is_empty() || rect_b.is_empty() {
        return None;
    }
    Some((rect_a, rect_b, cap_a / (cap_a + cap_b)))
}

fn left_rect(region: Rect, horizontal: bool, cut: Dbu) -> Rect {
    if horizontal {
        Rect::new(region.lo, Point::new(cut, region.hi.y))
    } else {
        Rect::new(region.lo, Point::new(region.hi.x, cut))
    }
}

fn right_rect(region: Rect, horizontal: bool, cut: Dbu) -> Rect {
    if horizontal {
        Rect::new(Point::new(cut, region.lo.y), region.hi)
    } else {
        Rect::new(Point::new(region.lo.x, cut), region.hi)
    }
}

fn partition_cells(
    ctx: &PlaceCtx,
    ext: &IdHashMap<InstId, Point>,
    cells: &[InstId],
    horizontal: bool,
    rect_a: Rect,
    frac_a: f64,
) -> Vec<u8> {
    let design = ctx.design;
    // local indexing
    let mut local_of: IdHashMap<InstId, u32> =
        IdHashMap::with_capacity_and_hasher(cells.len(), Default::default());
    let mut areas = Vec::with_capacity(cells.len());
    for (k, &c) in cells.iter().enumerate() {
        local_of.insert(c, k as u32);
        areas.push(design.inst_area_um2(c).max(1e-6));
    }
    let mut builder = Hypergraph::builder(areas);

    // collect incident nets once
    let mut seen: IdHashSet<NetId> = IdHashSet::default();
    let mut local = Vec::new();
    for &c in cells {
        for &n in &ctx.inst_nets[c.index()] {
            if !seen.insert(n) {
                continue;
            }
            local.clear();
            let mut ext_sum = 0.0f64;
            let mut ext_cnt = 0usize;
            for &p in &design.net(n).pins {
                match p.instance().and_then(|i| local_of.get(&i)) {
                    Some(&l) => local.push(l),
                    None => {
                        let pt = external_pin_pos(ctx, ext, p);
                        let coord = if horizontal { pt.x } else { pt.y };
                        ext_sum += coord.0 as f64;
                        ext_cnt += 1;
                    }
                }
            }
            if local.is_empty() {
                continue;
            }
            let anchor = if ext_cnt > 0 {
                let mean = ext_sum / ext_cnt as f64;
                let cut = if horizontal {
                    rect_a.hi.x.0
                } else {
                    rect_a.hi.y.0
                } as f64;
                Some(if mean < cut { 0 } else { 1 })
            } else {
                None
            };
            builder.add_net(&local, anchor);
        }
    }
    let hg = builder.build();
    bipartition(
        &hg,
        frac_a,
        None,
        &FmConfig {
            passes: FM_PASSES,
            balance_tol: 0.08,
        },
    )
}

/// Position of a pin outside the current region: cell pins use the
/// fork-time estimate snapshot; port and macro pins their fixed
/// locations.
fn external_pin_pos(ctx: &PlaceCtx, ext: &IdHashMap<InstId, Point>, pin: PinRef) -> Point {
    match pin {
        PinRef::Port(_) => pin_position(ctx.design, &ctx.base, ctx.ports, pin),
        PinRef::Inst { inst, .. } => match ctx.design.inst(inst).master {
            Master::Cell(_) => ext
                .get(&inst)
                .copied()
                .unwrap_or_else(|| ctx.fp.die().center()),
            Master::Macro(_) => pin_position(ctx.design, &ctx.base, ctx.ports, pin),
        },
    }
}

/// Distributes a handful of cells over a region's usable area on a
/// small grid.
fn spread(ctx: &PlaceCtx, region: Rect, cells: &[InstId]) -> Vec<(InstId, Point)> {
    let n = cells.len();
    if n == 0 {
        return Vec::new();
    }
    let cols = (n as f64).sqrt().ceil() as i64;
    let rows = ((n as i64) + cols - 1) / cols;
    let dx = region.width().0 / (cols + 1);
    let dy = region.height().0 / (rows + 1);
    let mut out = Vec::with_capacity(n);
    for (k, &c) in cells.iter().enumerate() {
        let col = k as i64 % cols;
        let row = k as i64 / cols;
        let mut p = Point::new(
            region.lo.x + Dbu(dx * (col + 1)),
            region.lo.y + Dbu(dy * (row + 1)),
        );
        // nudge out of fully blocked spots to the nearest open point
        let foot = ctx.base.rect(ctx.design, c).moved_to(p);
        if ctx.fp.is_fully_blocked(foot) {
            p = nearest_unblocked(ctx, c, region, p).unwrap_or(p);
        }
        out.push((c, p));
    }
    out
}

/// Finds the unblocked point nearest `target` on a coarse grid over
/// `region` (falling back to the whole die).
///
/// Walks the grid in expanding rings (a spiral) from the grid point
/// nearest the target and stops as soon as every remaining ring is
/// provably farther than the best hit, instead of rescanning all
/// `steps x steps` points.
fn nearest_unblocked(ctx: &PlaceCtx, inst: InstId, region: Rect, target: Point) -> Option<Point> {
    let foot0 = ctx.base.rect(ctx.design, inst);
    for area in [region, ctx.fp.die()] {
        let steps = 12i64;
        let sx = (area.width().0 / (steps + 1)).max(1);
        let sy = (area.height().0 / (steps + 1)).max(1);
        let grid =
            |ix: i64, iy: i64| Point::new(area.lo.x + Dbu(sx * ix), area.lo.y + Dbu(sy * iy));
        let ix0 = (((target.x - area.lo.x).0 + sx / 2) / sx).clamp(1, steps);
        let iy0 = (((target.y - area.lo.y).0 + sy / 2) / sy).clamp(1, steps);
        // triangle inequality through the spiral centre: a point on
        // ring r is at least r*min(sx,sy) - d0 from the target
        let d0 = grid(ix0, iy0).manhattan(target);
        let smin = Dbu(sx.min(sy));
        let mut best: Option<(Dbu, Point)> = None;
        for r in 0..steps {
            for iy in (iy0 - r).max(1)..=(iy0 + r).min(steps) {
                for ix in (ix0 - r).max(1)..=(ix0 + r).min(steps) {
                    if (ix - ix0).abs().max((iy - iy0).abs()) != r {
                        continue;
                    }
                    let p = grid(ix, iy);
                    let foot = foot0.moved_to(p);
                    if !ctx.fp.is_fully_blocked(foot) && ctx.fp.die().contains_rect(foot) {
                        let d = p.manhattan(target);
                        if best.is_none_or(|(bd, _)| d < bd) {
                            best = Some((d, p));
                        }
                    }
                }
            }
            if let Some((bd, _)) = best {
                if smin * (r + 1) - d0 > bd {
                    break;
                }
            }
        }
        if let Some((_, p)) = best {
            return Some(p);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::floorplan::BlockageKind;
    use crate::hpwl::total_hpwl;
    use macro3d_tech::{libgen::n28_library, CellClass, PinDir};
    use std::sync::Arc;

    /// A chain of cells between a west port and an east port: global
    /// placement should order the chain roughly left-to-right.
    fn chain_design(n: usize) -> (Design, Vec<InstId>) {
        let lib = Arc::new(n28_library(1.0));
        let inv = lib.smallest(CellClass::Inv).expect("inv");
        let mut d = Design::new("chain", lib);
        let pi = d.add_port("in", PinDir::Input, Some(macro3d_netlist::Side::West));
        let po = d.add_port("out", PinDir::Output, Some(macro3d_netlist::Side::East));
        let mut insts = Vec::new();
        let mut prev = d.add_net("n_in");
        d.connect(prev, PinRef::Port(pi));
        for i in 0..n {
            let c = d.add_cell(format!("c{i}"), inv);
            d.connect(prev, PinRef::inst(c, 0));
            prev = d.add_net(format!("w{i}"));
            d.connect(prev, PinRef::inst(c, 1));
            insts.push(c);
        }
        d.connect(prev, PinRef::Port(po));
        (d, insts)
    }

    fn fp(w: f64, h: f64) -> Floorplan {
        Floorplan::new(
            Rect::from_um(0.0, 0.0, w, h),
            Dbu::from_um(1.2),
            Dbu::from_um(0.2),
        )
    }

    #[test]
    fn chain_is_ordered_toward_ports() {
        let (d, insts) = chain_design(64);
        let f = fp(100.0, 24.0);
        let ports = PortPlan::assign(&d, f.die());
        let p = global_place(&d, &f, &ports, &GlobalPlaceConfig::default());
        // first quarter should be left of last quarter on average
        let avg = |slice: &[InstId]| -> f64 {
            slice
                .iter()
                .map(|i| p.pos[i.index()].x.0 as f64)
                .sum::<f64>()
                / slice.len() as f64
        };
        let head = avg(&insts[..16]);
        let tail = avg(&insts[48..]);
        assert!(
            head < tail,
            "chain head at {head} should precede tail at {tail}"
        );
    }

    #[test]
    fn all_cells_inside_die() {
        let (d, _) = chain_design(200);
        let f = fp(60.0, 60.0);
        let ports = PortPlan::assign(&d, f.die());
        let p = global_place(&d, &f, &ports, &GlobalPlaceConfig::default());
        for i in d.inst_ids() {
            assert!(
                f.die()
                    .inflate(Dbu::from_um(1.0))
                    .contains(p.pos[i.index()]),
                "cell {} at {:?} escapes die",
                i,
                p.pos[i.index()]
            );
        }
    }

    #[test]
    fn blockage_keeps_cells_out() {
        let (d, _) = chain_design(128);
        let mut f = fp(80.0, 80.0);
        // block the left half fully
        f.add_blockage(Rect::from_um(0.0, 0.0, 40.0, 80.0), BlockageKind::Full);
        let ports = PortPlan::assign(&d, f.die());
        let p = global_place(&d, &f, &ports, &GlobalPlaceConfig::default());
        let inside_blockage = d
            .inst_ids()
            .filter(|i| p.pos[i.index()].x < Dbu::from_um(38.0))
            .count();
        // capacity-driven splitting pushes nearly everything right
        assert!(
            inside_blockage < 16,
            "{inside_blockage} cells placed in blocked half"
        );
    }

    #[test]
    fn placement_beats_random_hpwl() {
        use rand::{Rng, SeedableRng};
        let (d, _) = chain_design(100);
        let f = fp(100.0, 40.0);
        let ports = PortPlan::assign(&d, f.die());
        let placed = global_place(&d, &f, &ports, &GlobalPlaceConfig::default());
        let mut rng = rand::rngs::SmallRng::seed_from_u64(17);
        let mut random = Placement::new(&d);
        for i in d.inst_ids() {
            random.pos[i.index()] =
                Point::from_um(rng.gen_range(0.0..100.0), rng.gen_range(0.0..40.0));
        }
        // min-cut bisection keeps connected cells together
        assert!(
            total_hpwl(&d, &placed, &ports).0 * 2 < total_hpwl(&d, &random, &ports).0,
            "placed {} vs random {}",
            total_hpwl(&d, &placed, &ports),
            total_hpwl(&d, &random, &ports)
        );
    }
}

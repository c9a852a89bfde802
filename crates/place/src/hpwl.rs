//! Pin positions and half-perimeter wirelength.

use crate::placement::Placement;
use crate::ports::PortPlan;
use macro3d_geom::{Dbu, Point, Rect};
use macro3d_netlist::{Design, InstId, Master, NetId, PinRef};

/// Physical location of a pin.
///
/// Standard-cell pins are approximated at the cell centre (adequate at
/// this abstraction level — cells are micrometres across while nets
/// span tens to hundreds); macro pins use their exact LEF offsets;
/// ports use the port plan.
///
/// # Panics
///
/// Panics if ids are out of range.
pub fn pin_position(
    design: &Design,
    placement: &Placement,
    ports: &PortPlan,
    pin: PinRef,
) -> Point {
    match pin {
        PinRef::Port(p) => ports.position(p),
        PinRef::Inst { inst, pin } => match design.inst(inst).master {
            Master::Cell(_) => placement.center(design, inst),
            Master::Macro(m) => {
                let def = design.macro_master(m);
                let base = placement.pos[inst.index()];
                base + (def.pins[pin as usize].offset - Point::ORIGIN)
            }
        },
    }
}

/// Bounding box of a net's pins, or `None` for degenerate nets
/// (fewer than one pin).
pub fn net_bbox(
    design: &Design,
    placement: &Placement,
    ports: &PortPlan,
    net: NetId,
) -> Option<Rect> {
    let pins = &design.net(net).pins;
    let first = pins.first()?;
    let p0 = pin_position(design, placement, ports, *first);
    let mut lo = p0;
    let mut hi = p0;
    for &p in &pins[1..] {
        let pt = pin_position(design, placement, ports, p);
        lo = lo.min(pt);
        hi = hi.max(pt);
    }
    Some(Rect { lo, hi })
}

/// Half-perimeter wirelength of one net.
pub fn net_hpwl(design: &Design, placement: &Placement, ports: &PortPlan, net: NetId) -> Dbu {
    match net_bbox(design, placement, ports, net) {
        Some(b) => b.size().half_perimeter(),
        None => Dbu(0),
    }
}

/// Total HPWL over all nets with at least two pins.
pub fn total_hpwl(design: &Design, placement: &Placement, ports: &PortPlan) -> Dbu {
    design
        .net_ids()
        .filter(|&n| design.net(n).pins.len() >= 2)
        .map(|n| net_hpwl(design, placement, ports, n))
        .sum()
}

/// Incremental HPWL evaluator over a tracked net subset.
///
/// Caches each tracked net's half-perimeter and the integer running
/// total, so a local move costs one [`HpwlCache::update_nets`] over
/// the nets it touches instead of a full recompute. Because spans are
/// exact [`Dbu`] integers, [`HpwlCache::total`] always equals the sum
/// of fresh per-net recomputes bit for bit — optimizers (annealing,
/// detailed placement) can mix incremental and full evaluation freely.
///
/// A cache built with [`HpwlCache::with_movers`] knows which
/// instances may move. Each tracked net then keeps the bounding box
/// of its other ("frozen") pins, and `update_nets` walks only the
/// mover pins: a macro annealer moving a few macros on a
/// thousands-of-pins clock net re-reads only the macros' own pins.
///
/// Rejected moves are rolled back with the [`HpwlUndo`] record
/// returned by `update_nets` (restore the placement, then
/// [`HpwlCache::undo`]).
#[derive(Clone, Debug)]
pub struct HpwlCache {
    /// Index into `tracked` per net; `u32::MAX` for untracked nets.
    slot: Vec<u32>,
    tracked: Vec<TrackedNet>,
    /// Live pins of every tracked net, a range per net.
    live_pins: Vec<PinRef>,
    total: Dbu,
}

/// One tracked net: its cached span, the bounding box of its frozen
/// pins (`None` if every pin is live) and its live pins'
/// `live_pins[start..end]` range.
#[derive(Clone, Copy, Debug)]
struct TrackedNet {
    span: Dbu,
    frozen: Option<Rect>,
    start: u32,
    end: u32,
}

/// Inverse of one [`HpwlCache::update_nets`] call.
#[derive(Clone, Debug)]
pub struct HpwlUndo {
    /// `(tracked index, previous span)` in update order.
    entries: Vec<(u32, Dbu)>,
}

impl HpwlCache {
    /// Builds a cache tracking every net with at least two pins.
    pub fn new(design: &Design, placement: &Placement, ports: &PortPlan) -> Self {
        Self::over_nets(
            design,
            placement,
            ports,
            design.net_ids().filter(|&n| design.net(n).pins.len() >= 2),
        )
    }

    /// Builds a cache tracking only the given nets (duplicates are
    /// tracked once). Nets with fewer than two pins are skipped.
    pub fn over_nets(
        design: &Design,
        placement: &Placement,
        ports: &PortPlan,
        nets: impl IntoIterator<Item = NetId>,
    ) -> Self {
        Self::with_movers(design, placement, ports, nets, &[])
    }

    /// Like [`Self::over_nets`], where only the instances in `movers`
    /// may move afterwards. Every other pin — other instances' pins
    /// and ports — must keep the position it has in `placement` now:
    /// each net caches their bounding box once, and
    /// [`Self::update_nets`] re-reads only the mover pins. An empty
    /// `movers` means every pin may move.
    pub fn with_movers(
        design: &Design,
        placement: &Placement,
        ports: &PortPlan,
        nets: impl IntoIterator<Item = NetId>,
        movers: &[InstId],
    ) -> Self {
        let mut is_mover = vec![movers.is_empty(); design.num_insts()];
        for &m in movers {
            is_mover[m.index()] = true;
        }
        let mut cache = HpwlCache {
            slot: vec![u32::MAX; design.num_nets()],
            tracked: Vec::new(),
            live_pins: Vec::new(),
            total: Dbu(0),
        };
        for n in nets {
            let pins = &design.net(n).pins;
            if pins.len() < 2 || cache.slot[n.index()] != u32::MAX {
                continue;
            }
            let start = cache.live_pins.len() as u32;
            let mut frozen = None;
            for &p in pins {
                let live = match p {
                    PinRef::Inst { inst, .. } => is_mover[inst.index()],
                    PinRef::Port(_) => movers.is_empty(),
                };
                if live {
                    cache.live_pins.push(p);
                } else {
                    frozen = Some(extend(frozen, pin_position(design, placement, ports, p)));
                }
            }
            let mut net = TrackedNet {
                span: Dbu(0),
                frozen,
                start,
                end: cache.live_pins.len() as u32,
            };
            net.span = cache.span(design, placement, ports, &net);
            cache.slot[n.index()] = cache.tracked.len() as u32;
            cache.tracked.push(net);
            cache.total += net.span;
        }
        HPWL_CACHE_INITS.add(cache.tracked.len() as u64);
        cache
    }

    /// Half-perimeter of the frozen bounding box grown by the live
    /// pins' current positions — [`net_hpwl`] of the net, bit for bit.
    fn span(
        &self,
        design: &Design,
        placement: &Placement,
        ports: &PortPlan,
        net: &TrackedNet,
    ) -> Dbu {
        let live = &self.live_pins[net.start as usize..net.end as usize];
        live.iter()
            .fold(net.frozen, |bbox, &p| {
                Some(extend(bbox, pin_position(design, placement, ports, p)))
            })
            .map_or(Dbu(0), |b| b.size().half_perimeter())
    }

    /// The running total over all tracked nets.
    #[inline]
    pub fn total(&self) -> Dbu {
        self.total
    }

    /// Cached span of one net (`None` if untracked).
    #[inline]
    pub fn net(&self, n: NetId) -> Option<Dbu> {
        let slot = self.slot[n.index()];
        (slot != u32::MAX).then(|| self.tracked[slot as usize].span)
    }

    /// Re-evaluates the given nets against the current placement and
    /// returns the undo record for the whole batch. Untracked nets are
    /// ignored; duplicates in `nets` are handled (undo replays in
    /// reverse).
    pub fn update_nets(
        &mut self,
        design: &Design,
        placement: &Placement,
        ports: &PortPlan,
        nets: &[NetId],
    ) -> HpwlUndo {
        let mut entries = Vec::with_capacity(nets.len());
        for &n in nets {
            let slot = self.slot[n.index()];
            if slot == u32::MAX {
                continue;
            }
            let net = self.tracked[slot as usize];
            let new = self.span(design, placement, ports, &net);
            if new != net.span {
                self.total += new - net.span;
                self.tracked[slot as usize].span = new;
            }
            entries.push((slot, net.span));
        }
        HPWL_CACHE_HITS.add(entries.len() as u64);
        HpwlUndo { entries }
    }

    /// Rolls back one `update_nets` batch (apply to the *matching*
    /// state only, most recent first).
    pub fn undo(&mut self, undo: HpwlUndo) {
        for (slot, old) in undo.entries.into_iter().rev() {
            let span = &mut self.tracked[slot as usize].span;
            self.total += old - *span;
            *span = old;
        }
    }
}

/// `bbox` grown to contain `pt` (a lone point starts a degenerate box).
fn extend(bbox: Option<Rect>, pt: Point) -> Rect {
    match bbox {
        Some(b) => Rect {
            lo: b.lo.min(pt),
            hi: b.hi.max(pt),
        },
        None => Rect { lo: pt, hi: pt },
    }
}

/// Incremental re-evaluations served by the cache (nets whose span
/// was delta-updated instead of the whole design rescored).
static HPWL_CACHE_HITS: macro3d_obs::SiteCounter =
    macro3d_obs::SiteCounter::new("place/hpwl_cache_hits");
/// Nets scored from scratch when a cache is (re)built.
static HPWL_CACHE_INITS: macro3d_obs::SiteCounter =
    macro3d_obs::SiteCounter::new("place/hpwl_cache_inits");

#[cfg(test)]
mod tests {
    use super::*;
    use macro3d_tech::{libgen::n28_library, CellClass, PinDir};
    use std::sync::Arc;

    #[test]
    fn hpwl_of_two_cells() {
        let lib = Arc::new(n28_library(1.0));
        let inv = lib.smallest(CellClass::Inv).expect("inv");
        let mut d = Design::new("t", lib);
        let a = d.add_cell("a", inv);
        let b = d.add_cell("b", inv);
        let n = d.add_net("n");
        d.connect(n, PinRef::inst(a, 1));
        d.connect(n, PinRef::inst(b, 0));
        let mut p = Placement::new(&d);
        p.pos[a.index()] = Point::from_um(0.0, 0.0);
        p.pos[b.index()] = Point::from_um(100.0, 50.0);
        let ports = PortPlan { pos: vec![] };
        let w = net_hpwl(&d, &p, &ports, n);
        // centers are offset by the same cell size, so distance is exact
        assert_eq!(w, Dbu::from_um(150.0));
        assert_eq!(total_hpwl(&d, &p, &ports), w);
    }

    #[test]
    fn macro_pins_use_offsets() {
        let lib = Arc::new(n28_library(1.0));
        let mut d = Design::new("t", lib);
        let def = macro3d_sram::MemoryCompiler::n28().sram("s", 256, 32);
        let pin0_off = def.pins[0].offset;
        let mm = d.add_macro_master(def);
        let m = d.add_macro_in("m", mm, 0);
        let mut p = Placement::new(&d);
        p.pos[m.index()] = Point::from_um(10.0, 20.0);
        let ports = PortPlan { pos: vec![] };
        let pt = pin_position(&d, &p, &ports, PinRef::inst(m, 0));
        assert_eq!(pt.x, Point::from_um(10.0, 20.0).x + pin0_off.x);
        assert_eq!(pt.y, Point::from_um(10.0, 20.0).y + pin0_off.y);
    }

    #[test]
    fn cache_tracks_total_incrementally() {
        use macro3d_netlist::Side;
        let lib = Arc::new(n28_library(1.0));
        let inv = lib.smallest(CellClass::Inv).expect("inv");
        let mut d = Design::new("t", lib);
        let port = d.add_port("p", PinDir::Input, Some(Side::West));
        let mut cells = Vec::new();
        let mut nets = Vec::new();
        for i in 0..6 {
            let c = d.add_cell(format!("c{i}"), inv);
            let n = d.add_net(format!("n{i}"));
            d.connect(n, PinRef::inst(c, 0));
            if let Some(&prev) = cells.last() {
                d.connect(n, PinRef::inst(prev, 1));
            } else {
                d.connect(n, PinRef::Port(port));
            }
            cells.push(c);
            nets.push(n);
        }
        let mut p = Placement::new(&d);
        for (i, &c) in cells.iter().enumerate() {
            p.pos[c.index()] = Point::from_um(10.0 * i as f64, 3.0 * i as f64);
        }
        let ports = PortPlan {
            pos: vec![Point::from_um(0.0, 0.0)],
        };

        let mut cache = HpwlCache::new(&d, &p, &ports);
        assert_eq!(cache.total(), total_hpwl(&d, &p, &ports));

        // move a middle cell; only its two nets change
        p.pos[cells[3].index()] = Point::from_um(55.0, 1.0);
        let touched = [nets[3], nets[4]];
        let undo = cache.update_nets(&d, &p, &ports, &touched);
        assert_eq!(cache.total(), total_hpwl(&d, &p, &ports), "after update");

        // rejected move: restore the placement and undo the cache
        p.pos[cells[3].index()] = Point::from_um(30.0, 9.0);
        cache.undo(undo);
        assert_eq!(cache.total(), total_hpwl(&d, &p, &ports), "after undo");
    }

    #[test]
    fn cache_subset_and_duplicates() {
        let lib = Arc::new(n28_library(1.0));
        let inv = lib.smallest(CellClass::Inv).expect("inv");
        let mut d = Design::new("t", lib);
        let a = d.add_cell("a", inv);
        let b = d.add_cell("b", inv);
        let n = d.add_net("n");
        d.connect(n, PinRef::inst(a, 1));
        d.connect(n, PinRef::inst(b, 0));
        let lone = d.add_net("lone");
        d.connect(lone, PinRef::inst(b, 1));
        let mut p = Placement::new(&d);
        p.pos[b.index()] = Point::from_um(20.0, 0.0);
        let ports = PortPlan { pos: vec![] };

        // duplicates tracked once; single-pin nets skipped
        let cache = HpwlCache::over_nets(&d, &p, &ports, [n, n, lone]);
        assert_eq!(cache.total(), net_hpwl(&d, &p, &ports, n));
        assert_eq!(cache.net(lone), None);
        assert_eq!(cache.net(n), Some(net_hpwl(&d, &p, &ports, n)));
    }

    /// A cache over movers, driven through a seeded sequence of mover
    /// moves with random rejections, always equals a fresh sum of
    /// `net_hpwl` — with ports, frozen cells and movers mixed on
    /// every net, and nets whose pins are all movers or all frozen.
    #[test]
    fn mover_cache_matches_fresh_sums_through_moves_and_undos() {
        use rand::{Rng, SeedableRng};
        let lib = Arc::new(n28_library(1.0));
        let nand = lib.smallest(CellClass::Nand2).expect("nand2");
        let mut d = Design::new("t", lib);
        let ports: Vec<_> = (0..4)
            .map(|i| d.add_port(format!("p{i}"), PinDir::Input, None))
            .collect();
        let cells: Vec<_> = (0..40).map(|i| d.add_cell(format!("c{i}"), nand)).collect();
        let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
        // movers are every third cell: one all-mover net, one
        // all-frozen net, then random nets over the remaining pins
        let all_movers = d.add_net("all_movers");
        d.connect(all_movers, PinRef::inst(cells[0], 0));
        d.connect(all_movers, PinRef::inst(cells[3], 0));
        let all_frozen = d.add_net("all_frozen");
        d.connect(all_frozen, PinRef::inst(cells[1], 0));
        d.connect(all_frozen, PinRef::inst(cells[2], 0));
        let mut nets = vec![all_movers, all_frozen];
        let mut free: Vec<PinRef> = cells
            .iter()
            .flat_map(|&c| (0..3).map(move |pin| PinRef::inst(c, pin)))
            .filter(|&pin| match pin {
                PinRef::Inst { inst, pin } => d.inst(inst).conns[pin as usize].is_none(),
                PinRef::Port(_) => true,
            })
            .chain(ports.iter().map(|&p| PinRef::Port(p)))
            .collect();
        while free.len() >= 2 {
            let n = d.add_net(format!("n{}", nets.len()));
            for _ in 0..rng.gen_range(2..9usize).min(free.len()) {
                let pin = free.swap_remove(rng.gen_range(0..free.len()));
                d.connect(n, pin);
            }
            nets.push(n);
        }
        let mut p = Placement::new(&d);
        for &c in &cells {
            p.pos[c.index()] = Point::from_um(rng.gen_range(0.0..200.0), rng.gen_range(0.0..90.0));
        }
        let plan = PortPlan {
            pos: (0..4)
                .map(|i| Point::from_um(0.0, 20.0 * f64::from(i)))
                .collect(),
        };
        let movers: Vec<InstId> = cells.iter().copied().step_by(3).collect();
        let fresh = |p: &Placement| -> Dbu {
            nets.iter()
                .filter(|&&n| d.net(n).pins.len() >= 2)
                .map(|&n| net_hpwl(&d, p, &plan, n))
                .sum()
        };

        let mut cache = HpwlCache::with_movers(&d, &p, &plan, nets.iter().copied(), &movers);
        assert_eq!(cache.total(), fresh(&p));
        for step in 0..400 {
            let m = movers[rng.gen_range(0..movers.len())];
            let before = p.pos[m.index()];
            p.pos[m.index()] = Point::from_um(rng.gen_range(0.0..200.0), rng.gen_range(0.0..90.0));
            let touched: Vec<NetId> = d.inst(m).conns.iter().flatten().copied().collect();
            let undo = cache.update_nets(&d, &p, &plan, &touched);
            assert_eq!(cache.total(), fresh(&p), "step {step} after update");
            if rng.gen_bool(0.5) {
                p.pos[m.index()] = before;
                cache.undo(undo);
                assert_eq!(cache.total(), fresh(&p), "step {step} after undo");
            }
            for &n in &touched {
                assert_eq!(cache.net(n), Some(net_hpwl(&d, &p, &plan, n)));
            }
        }
    }

    #[test]
    fn port_pins_use_plan() {
        let lib = Arc::new(n28_library(1.0));
        let mut d = Design::new("t", lib);
        let p0 = d.add_port("p", PinDir::Input, None);
        let n = d.add_net("n");
        d.connect(n, PinRef::Port(p0));
        let p = Placement::new(&d);
        let ports = PortPlan {
            pos: vec![Point::from_um(5.0, 7.0)],
        };
        assert_eq!(
            pin_position(&d, &p, &ports, PinRef::Port(p0)),
            Point::from_um(5.0, 7.0)
        );
        // single-pin nets contribute zero HPWL
        assert_eq!(total_hpwl(&d, &p, &ports), Dbu(0));
    }
}

//! Clock-tree synthesis: recursive geometric clustering with
//! distance-driven repeater chains.
//!
//! The tree is built top-down: the sink set (flip-flop `CK` pins and
//! macro `clk` pins) is recursively median-split until clusters fit
//! the fanout limit; every split inserts a clock buffer at the child
//! cluster's centroid, plus a repeater chain when the parent-to-child
//! distance exceeds the repeater spacing. Tree *depth* — a paper
//! Table II metric — is therefore driven by die size: the half-
//! footprint MoL die needs fewer chained repeaters, which is exactly
//! how the large-cache design drops from depth 20 (2D) to 16 (3D) in
//! the paper.

use crate::dcalc::cell_arc_delay;
use macro3d_extract::NetParasitics;
use macro3d_geom::{Dbu, Point};
use macro3d_netlist::{Design, InstId, Master, NetId, PinRef};
use macro3d_place::Placement;
use macro3d_tech::Corner;

/// Maximum sinks per clock buffer.
pub const MAX_FANOUT: usize = 24;

/// Repeater spacing along long tree edges for an uncompressed
/// (`area_scale = 1`) library, µm. The flows scale it by
/// `sqrt(area_scale)`, like the signal-repeater threshold.
pub const REPEATER_SPACING_UM: f64 = 200.0;

/// A synthesized clock tree.
#[derive(Clone, Debug)]
pub struct ClockTree {
    /// All inserted clock buffers.
    pub buffers: Vec<InstId>,
    /// All tree nets (the pre-existing clock net is the root).
    pub nets: Vec<NetId>,
    /// Maximum number of buffers on any root→sink path (the clock
    /// tree depth).
    pub depth: usize,
    /// The root net (driven by the clock port).
    pub root_net: NetId,
}

/// Synthesizes a buffered clock tree below `clock_net`, re-homing all
/// existing sinks onto tree subnets and placing buffers in the
/// placement (at centroids; legalize afterwards). Clusters hold at
/// most [`MAX_FANOUT`] sinks; a tree edge longer than `spacing_um`
/// gets a repeater chain.
///
/// # Panics
///
/// Panics if the library has no clock buffers.
pub fn synthesize_clock_tree(
    design: &mut Design,
    placement: &mut Placement,
    clock_net: NetId,
    spacing_um: f64,
) -> ClockTree {
    let lib = design.library().clone();
    // INVARIANT: generated libraries always provide clock buffers
    // with an input pin (CTS is unusable without them).
    #[allow(clippy::expect_used)]
    let buf_cell = *lib
        .clock_buffers()
        .first()
        .expect("library provides clock buffers");
    let buf = lib.cell(buf_cell);
    #[allow(clippy::expect_used)]
    let buf_in = buf
        .data_input_pins()
        .next()
        .expect("clock buffer has input") as u16;
    let buf_out = buf.output_pin() as u16;

    // Gather and detach existing sinks.
    let sinks: Vec<PinRef> = design.sinks(clock_net).collect();
    let mut items: Vec<(PinRef, Point)> = sinks
        .iter()
        .map(|&p| (p, sink_pos(design, placement, p)))
        .collect();
    for &p in &sinks {
        design.disconnect(clock_net, p);
    }

    let mut tree = ClockTree {
        buffers: Vec::new(),
        nets: vec![clock_net],
        depth: 0,
        root_net: clock_net,
    };

    let root_pos = centroid(&items);
    build(
        design, placement, &mut tree, &mut items, clock_net, root_pos, 0, spacing_um, buf_cell,
        buf_in, buf_out,
    );
    if let Some(reg) = macro3d_obs::registry() {
        reg.gauge("sta/cts_levels").set(tree.depth as f64);
        reg.counter("sta/cts_buffers")
            .add(tree.buffers.len() as u64);
    }
    tree
}

#[allow(clippy::too_many_arguments)]
fn build(
    design: &mut Design,
    placement: &mut Placement,
    tree: &mut ClockTree,
    items: &mut Vec<(PinRef, Point)>,
    driver_net: NetId,
    driver_pos: Point,
    depth: usize,
    spacing_um: f64,
    buf_cell: macro3d_tech::LibCellId,
    buf_in: u16,
    buf_out: u16,
) {
    if items.is_empty() {
        tree.depth = tree.depth.max(depth);
        return;
    }
    if items.len() <= MAX_FANOUT {
        for (pin, _) in items.iter() {
            design.connect(driver_net, *pin);
        }
        tree.depth = tree.depth.max(depth);
        return;
    }

    // median split along the wider axis
    let (lo, hi) = bbox(items);
    let horizontal = (hi.x - lo.x) >= (hi.y - lo.y);
    items.sort_by_key(|(_, p)| if horizontal { p.x } else { p.y });
    let mid = items.len() / 2;
    let mut right = items.split_off(mid);
    let mut left = std::mem::take(items);

    // balance the two branches: both use the larger chain length so
    // sibling subtrees see matched insertion delay (skew control)
    let hops_for = |half: &Vec<(PinRef, Point)>| {
        let c = centroid(half);
        (driver_pos.manhattan(c).to_um() / spacing_um).floor() as usize
    };
    let hops = hops_for(&left).max(hops_for(&right));

    for half in [&mut left, &mut right] {
        let c = centroid(half);
        let mut net = driver_net;
        let mut pos = driver_pos;
        let mut d = depth;
        for h in 0..=hops {
            let t = (h + 1) as f64 / (hops + 1) as f64;
            let at = lerp_point(driver_pos, c, t);
            let inst = add_buffer(design, placement, buf_cell, at);
            design.connect(net, PinRef::inst(inst, buf_in));
            let out = design.add_net(format!("cts_n{}", design.num_nets()));
            design.connect(out, PinRef::inst(inst, buf_out));
            tree.buffers.push(inst);
            tree.nets.push(out);
            net = out;
            pos = at;
            d += 1;
        }
        build(
            design, placement, tree, half, net, pos, d, spacing_um, buf_cell, buf_in, buf_out,
        );
    }
}

fn add_buffer(
    design: &mut Design,
    placement: &mut Placement,
    cell: macro3d_tech::LibCellId,
    at: Point,
) -> InstId {
    let inst = design.add_cell(format!("cts_buf{}", design.num_insts()), cell);
    placement.pos.push(at);
    placement.orient.push(macro3d_geom::Orientation::N);
    placement.die_of.push(macro3d_tech::stack::DieRole::Logic);
    debug_assert_eq!(placement.pos.len(), design.num_insts());
    inst
}

fn sink_pos(design: &Design, placement: &Placement, pin: PinRef) -> Point {
    match pin {
        PinRef::Inst { inst, pin } => match design.inst(inst).master {
            Master::Cell(_) => placement.center(design, inst),
            Master::Macro(m) => {
                placement.pos[inst.index()]
                    + (design.macro_master(m).pins[pin as usize].offset - Point::ORIGIN)
            }
        },
        PinRef::Port(_) => Point::ORIGIN,
    }
}

fn centroid(items: &[(PinRef, Point)]) -> Point {
    if items.is_empty() {
        return Point::ORIGIN;
    }
    let sx: i64 = items.iter().map(|(_, p)| p.x.0).sum();
    let sy: i64 = items.iter().map(|(_, p)| p.y.0).sum();
    Point::new(Dbu(sx / items.len() as i64), Dbu(sy / items.len() as i64))
}

fn bbox(items: &[(PinRef, Point)]) -> (Point, Point) {
    let mut lo = items[0].1;
    let mut hi = items[0].1;
    for (_, p) in items {
        lo = lo.min(*p);
        hi = hi.max(*p);
    }
    (lo, hi)
}

fn lerp_point(a: Point, b: Point, t: f64) -> Point {
    Point::new(
        Dbu(a.x.0 + ((b.x.0 - a.x.0) as f64 * t) as i64),
        Dbu(a.y.0 + ((b.y.0 - a.y.0) as f64 * t) as i64),
    )
}

/// Per-instance clock arrival times computed from the synthesized
/// tree and extracted parasitics.
#[derive(Clone, Debug)]
pub struct ClockArrivals {
    /// Clock arrival per instance, ps (zero for unclocked instances).
    pub arrival_ps: Vec<f64>,
    /// Tree depth (max buffers on a root→sink path).
    pub depth: usize,
    /// Max minus min sink arrival, ps.
    pub skew_ps: f64,
    /// Total clock-tree wire capacitance, fF.
    pub wire_cap_ff: f64,
    /// Common insertion delay (the padded arrival), ps. IO paths use
    /// this as the virtual-clock offset: the abutting tile instance
    /// has an identical tree, so the common mode cancels.
    pub insertion_ps: f64,
}

impl ClockArrivals {
    /// An ideal (zero insertion delay) clock for pre-CTS analyses.
    pub fn ideal(design: &Design) -> Self {
        ClockArrivals {
            arrival_ps: vec![0.0; design.num_insts()],
            depth: 0,
            skew_ps: 0.0,
            wire_cap_ff: 0.0,
            insertion_ps: 0.0,
        }
    }
}

/// Propagates insertion delays through the tree using extracted
/// parasitics (indexed by `NetId`, sink order = `design.sinks`).
pub fn clock_arrivals(
    design: &Design,
    tree: &ClockTree,
    parasitics: &[NetParasitics],
    corner: Corner,
) -> ClockArrivals {
    let lib = design.library().clone();
    let buffer_set: std::collections::HashSet<InstId> = tree.buffers.iter().copied().collect();
    let mut arrival = vec![0.0f64; design.num_insts()];
    let mut min_sink = f64::INFINITY;
    let mut max_sink: f64 = 0.0;
    let mut wire_cap = 0.0;

    // BFS over tree nets: (net, arrival at driver output, slew)
    let mut queue = vec![(tree.root_net, 0.0f64, 40.0f64)];
    let mut head = 0;
    while head < queue.len() {
        let (net, arr, slew) = queue[head];
        head += 1;
        let Some(par) = parasitics.get(net.index()) else {
            continue;
        };
        wire_cap += par.wire_cap_ff;
        for (six, sink) in design.sinks(net).enumerate() {
            let elmore = par.elmore_ps.get(six).copied().unwrap_or(0.0);
            let sink_arr = arr + elmore;
            let sink_slew = crate::dcalc::wire_slew(slew, elmore);
            match sink {
                PinRef::Inst { inst, .. } => {
                    if buffer_set.contains(&inst) {
                        // buffer: propagate through its output net
                        let Master::Cell(c) = design.inst(inst).master else {
                            continue;
                        };
                        let cell = lib.cell(c);
                        let out_pin = cell.output_pin();
                        if let Some(out_net) = design.inst(inst).conns[out_pin] {
                            let load = parasitics
                                .get(out_net.index())
                                .map(|p| p.driver_load_ff)
                                .unwrap_or(1.0);
                            let (d, s) = cell_arc_delay(cell, 0, sink_slew, load, corner);
                            queue.push((out_net, sink_arr + d, s));
                        }
                    } else {
                        // leaf sink (FF or macro)
                        arrival[inst.index()] = sink_arr;
                        min_sink = min_sink.min(sink_arr);
                        max_sink = max_sink.max(sink_arr);
                    }
                }
                PinRef::Port(_) => {}
            }
        }
    }

    // Delay-pad balancing: CTS engines equalise insertion delays by
    // padding early branches, typically repairing ~90 % of the raw
    // spread. Model the repair by pulling every sink toward the
    // latest arrival; the residual spread is the reported skew.
    const REPAIR: f64 = 0.97;
    let mut skew = 0.0;
    if min_sink.is_finite() && max_sink > min_sink {
        for a in arrival.iter_mut() {
            if *a > 0.0 {
                *a += REPAIR * (max_sink - *a);
            }
        }
        skew = (1.0 - REPAIR) * (max_sink - min_sink);
    }
    ClockArrivals {
        arrival_ps: arrival,
        depth: tree.depth,
        skew_ps: skew,
        wire_cap_ff: wire_cap,
        insertion_ps: if max_sink.is_finite() {
            max_sink.max(0.0)
        } else {
            0.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use macro3d_tech::{libgen::n28_library, CellClass, PinDir};
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;

    /// A design with `n` flip-flops scattered over a `w x h` µm area.
    fn ff_field(n: usize, w: f64, h: f64, seed: u64) -> (Design, Placement, NetId) {
        let lib = Arc::new(n28_library(1.0));
        let dff = lib.smallest(CellClass::Dff).expect("dff");
        let mut d = Design::new("cts_test", lib);
        let clk_p = d.add_port("clk", PinDir::Input, None);
        let clk = d.add_net("clk");
        d.connect(clk, PinRef::Port(clk_p));
        let src_p = d.add_port("d", PinDir::Input, None);
        let dnet = d.add_net("dnet");
        d.connect(dnet, PinRef::Port(src_p));
        for i in 0..n {
            let f = d.add_cell(format!("f{i}"), dff);
            d.connect(dnet, PinRef::inst(f, 0));
            d.connect(clk, PinRef::inst(f, 1));
            let q = d.add_net(format!("q{i}"));
            d.connect(q, PinRef::inst(f, 2));
        }
        let mut p = Placement::new(&d);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        for i in d.inst_ids() {
            p.pos[i.index()] = Point::from_um(rng.gen_range(0.0..w), rng.gen_range(0.0..h));
        }
        (d, p, clk)
    }

    #[test]
    fn tree_covers_all_sinks() {
        let (mut d, mut p, clk) = ff_field(500, 400.0, 400.0, 1);
        let before_sinks = d.sinks(clk).count();
        assert_eq!(before_sinks, 500);
        let tree = synthesize_clock_tree(&mut d, &mut p, clk, REPEATER_SPACING_UM);
        assert!(d.validate().is_ok());
        assert!(!tree.buffers.is_empty());
        // every FF CK pin is connected to some tree net
        let tree_nets: std::collections::HashSet<NetId> = tree.nets.iter().copied().collect();
        let mut covered = 0;
        for &n in &tree.nets {
            covered += d
                .sinks(n)
                .filter(|s| {
                    s.instance()
                        .map(|i| !tree.buffers.contains(&i))
                        .unwrap_or(false)
                })
                .count();
            assert!(tree_nets.contains(&n));
        }
        assert_eq!(covered, 500);
    }

    #[test]
    fn fanout_limit_respected() {
        let (mut d, mut p, clk) = ff_field(300, 300.0, 300.0, 2);
        let tree = synthesize_clock_tree(&mut d, &mut p, clk, REPEATER_SPACING_UM);
        for &n in &tree.nets {
            assert!(
                d.sinks(n).count() <= MAX_FANOUT,
                "net {} exceeds fanout",
                d.net(n).name
            );
        }
    }

    #[test]
    fn bigger_die_means_deeper_tree() {
        let (mut d1, mut p1, c1) = ff_field(400, 300.0, 300.0, 3);
        let (mut d2, mut p2, c2) = ff_field(400, 1_600.0, 1_600.0, 3);
        let t_small = synthesize_clock_tree(&mut d1, &mut p1, c1, REPEATER_SPACING_UM);
        let t_large = synthesize_clock_tree(&mut d2, &mut p2, c2, REPEATER_SPACING_UM);
        assert!(
            t_large.depth > t_small.depth,
            "large {} vs small {}",
            t_large.depth,
            t_small.depth
        );
    }

    #[test]
    fn arrivals_with_ideal_parasitics() {
        let (mut d, mut p, clk) = ff_field(100, 200.0, 200.0, 4);
        let tree = synthesize_clock_tree(&mut d, &mut p, clk, REPEATER_SPACING_UM);
        // zero-parasitic extraction: arrivals = pure buffer delays
        let parasitics = vec![NetParasitics::default(); d.num_nets()];
        let arr = clock_arrivals(&d, &tree, &parasitics, Corner::Tt);
        assert_eq!(arr.depth, tree.depth);
        // every FF has a positive insertion delay (at least one buffer)
        for i in d.inst_ids() {
            if !tree.buffers.contains(&i) && !d.is_macro(i) {
                let name = &d.inst(i).name;
                if name.starts_with('f') {
                    assert!(arr.arrival_ps[i.index()] > 0.0, "{name} has no arrival");
                }
            }
        }
    }
}

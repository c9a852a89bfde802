//! Simulated-annealing refinement of macro placements.
//!
//! The deterministic packers ([`crate::macro_place`]) produce valid
//! floorplans; this pass models the paper's "highly optimized
//! floorplans … considering multiple floorplan alternatives" by
//! annealing over position swaps and nudges under a caller-supplied
//! cost (typically macro-net HPWL).

use crate::floorplan::MacroPlacement;
use crate::hpwl::HpwlCache;
use crate::placement::Placement;
use crate::ports::PortPlan;
use macro3d_geom::{Dbu, Point, Rect};
use macro3d_netlist::{Design, InstId, Master, NetId, PinRef};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

/// Annealing parameters.
#[derive(Clone, Copy, Debug)]
pub struct AnnealConfig {
    /// Number of proposed moves.
    pub iterations: usize,
    /// Initial temperature as a fraction of the initial cost.
    pub t0_frac: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AnnealConfig {
    fn default() -> Self {
        AnnealConfig {
            iterations: 2_000,
            t0_frac: 0.05,
            seed: 0x5a,
        }
    }
}

/// HPWL of all nets touching at least one of the placed macros, with
/// non-macro pins collapsed to the die centre (logic is not placed
/// yet at floorplanning time). The standard macro-floorplanning cost.
pub fn macro_net_hpwl(design: &Design, placements: &[MacroPlacement], die: Rect) -> f64 {
    // ordered maps so cost bookkeeping never touches hash iteration
    // order (a nondeterminism hazard next to the seeded annealer)
    let pos: BTreeMap<InstId, Point> = placements.iter().map(|mp| (mp.inst, mp.rect.lo)).collect();
    let center = die.center();

    let mut seen = BTreeSet::new();
    let mut total = 0.0f64;
    for mp in placements {
        for conn in &design.inst(mp.inst).conns {
            let Some(net) = conn else { continue };
            if !seen.insert(*net) {
                continue;
            }
            total += net_span(design, *net, &pos, center);
        }
    }
    total
}

fn net_span(design: &Design, net: NetId, pos: &BTreeMap<InstId, Point>, center: Point) -> f64 {
    let mut lo: Option<Point> = None;
    let mut hi: Option<Point> = None;
    let add = |p: Point, lo: &mut Option<Point>, hi: &mut Option<Point>| {
        *lo = Some(lo.map_or(p, |q| q.min(p)));
        *hi = Some(hi.map_or(p, |q| q.max(p)));
    };
    for &pin in &design.net(net).pins {
        let p = match pin {
            PinRef::Inst { inst, pin } => match (design.inst(inst).master, pos.get(&inst)) {
                (Master::Macro(m), Some(&base)) => {
                    base + (design.macro_master(m).pins[pin as usize].offset - Point::ORIGIN)
                }
                _ => center,
            },
            PinRef::Port(_) => center,
        };
        add(p, &mut lo, &mut hi);
    }
    match (lo, hi) {
        (Some(l), Some(h)) => l.manhattan(h).to_um(),
        _ => 0.0,
    }
}

/// Anneals the placements in place, proposing same-die position swaps
/// of equally sized macros and small nudges, and returns the final
/// cost. Every accepted state is legal (within `die`, same-die
/// overlap-free with halo).
///
/// Cost is the macro-net HPWL of [`macro_net_hpwl`], evaluated
/// through the shared [`HpwlCache`] with the macros as its movers:
/// each proposal re-evaluates only the nets incident to the moved
/// macros (delta update, undone on rejection), and each of those
/// re-reads only macro pins — the other pins of a net (the
/// thousands of clock sinks, say) sit still and keep a cached
/// bounding box.
pub fn refine_macros_sa(
    design: &Design,
    placements: &mut [MacroPlacement],
    die: Rect,
    halo: Dbu,
    cfg: &AnnealConfig,
) -> f64 {
    if placements.len() < 2 {
        return macro_net_hpwl(design, placements, die);
    }
    let movers: Vec<InstId> = placements.iter().map(|mp| mp.inst).collect();
    anneal(design, placements, die, halo, cfg, &movers)
}

/// The annealing loop of [`refine_macros_sa`], its [`HpwlCache`]
/// built over `movers` (empty: every pin is re-read on each update).
fn anneal(
    design: &Design,
    placements: &mut [MacroPlacement],
    die: Rect,
    halo: Dbu,
    cfg: &AnnealConfig,
    movers: &[InstId],
) -> f64 {
    let mut rng = SmallRng::seed_from_u64(cfg.seed);

    // Synthetic flat views of the floorplanning state for the shared
    // evaluator: annealed macros sit at their placed corners, every
    // other instance collapses to the die centre (logic is not placed
    // yet — the same convention as `macro_net_hpwl`), ports included.
    let center = die.center();
    let mut flat = Placement::new(design);
    for i in design.inst_ids() {
        let r = flat.rect(design, i);
        flat.pos[i.index()] = Point::new(center.x - r.width() / 2, center.y - r.height() / 2);
    }
    for mp in placements.iter() {
        flat.pos[mp.inst.index()] = mp.rect.lo;
    }
    let ports = PortPlan {
        pos: vec![center; design.num_ports()],
    };

    // macro-adjacent nets: tracked once overall, listed per macro so a
    // move touches exactly its own nets
    let mut tracked: BTreeSet<NetId> = BTreeSet::new();
    let nets_of: Vec<Vec<NetId>> = placements
        .iter()
        .map(|mp| {
            let mut mine: Vec<NetId> = design
                .inst(mp.inst)
                .conns
                .iter()
                .flatten()
                .copied()
                .collect();
            mine.sort_unstable();
            mine.dedup();
            tracked.extend(mine.iter().copied());
            mine
        })
        .collect();
    let mut cache = HpwlCache::with_movers(design, &flat, &ports, tracked, movers);

    let mut cost = cache.total().to_um();
    let t0 = (cost * cfg.t0_frac).max(1.0);

    // batched locally; one registry add per call keeps the loop hot
    let mut proposals = 0u64;
    let mut accepts = 0u64;
    // best-so-far snapshot, restored if the budget stops the anneal
    // mid-schedule (the current state may sit on an uphill excursion)
    let mut best_cost = cost;
    let mut best: Vec<MacroPlacement> = placements.to_vec();
    let mut stopped = false;
    let mut touched: Vec<NetId> = Vec::new();
    for it in 0..cfg.iterations {
        if let macro3d_par::Checkpoint::Stop(reason) =
            macro3d_par::checkpoint("place/anneal_proposals")
        {
            macro3d_par::note_degradation(
                "place/anneal_proposals",
                reason,
                format!("stopped after {it} of {} anneal proposals", cfg.iterations),
            );
            stopped = true;
            break;
        }
        let t = t0 * (1.0 - it as f64 / cfg.iterations as f64).max(1e-3);
        let a = rng.gen_range(0..placements.len());
        let b = rng.gen_range(0..placements.len());

        enum Move {
            Swap(usize, usize),
            Nudge(usize, Point),
        }
        let proposal = if a != b
            && placements[a].die == placements[b].die
            && placements[a].rect.size() == placements[b].rect.size()
            && rng.gen_bool(0.6)
        {
            Move::Swap(a, b)
        } else {
            let step = Dbu::from_um(rng.gen_range(5.0..60.0));
            let dir = rng.gen_range(0..4);
            let (dx, dy) = match dir {
                0 => (step, Dbu(0)),
                1 => (-step, Dbu(0)),
                2 => (Dbu(0), step),
                _ => (Dbu(0), -step),
            };
            Move::Nudge(
                a,
                Point::new(placements[a].rect.lo.x + dx, placements[a].rect.lo.y + dy),
            )
        };

        // apply tentatively
        let saved_a = placements[a];
        let saved_b = placements[b];
        touched.clear();
        match proposal {
            Move::Swap(i, j) => {
                let (pi, pj) = (placements[i].rect.lo, placements[j].rect.lo);
                placements[i].rect = placements[i].rect.moved_to(pj);
                placements[j].rect = placements[j].rect.moved_to(pi);
                touched.extend(nets_of[i].iter().chain(&nets_of[j]));
            }
            Move::Nudge(i, to) => {
                placements[i].rect = placements[i].rect.moved_to(to);
                touched.extend(&nets_of[i]);
            }
        }
        flat.pos[placements[a].inst.index()] = placements[a].rect.lo;
        flat.pos[placements[b].inst.index()] = placements[b].rect.lo;

        let legal = legal_with_halo(placements, die, halo);
        let (new_cost, undo) = if legal {
            let undo = cache.update_nets(design, &flat, &ports, &touched);
            (cache.total().to_um(), Some(undo))
        } else {
            (f64::INFINITY, None)
        };
        let accept = legal
            && (new_cost <= cost || rng.gen_bool(((cost - new_cost) / t).exp().clamp(0.0, 1.0)));
        proposals += 1;
        if accept {
            accepts += 1;
            cost = new_cost;
            if cost < best_cost {
                best_cost = cost;
                best.copy_from_slice(placements);
            }
        } else {
            placements[a] = saved_a;
            placements[b] = saved_b;
            flat.pos[saved_a.inst.index()] = saved_a.rect.lo;
            flat.pos[saved_b.inst.index()] = saved_b.rect.lo;
            if let Some(u) = undo {
                cache.undo(u);
            }
        }
    }
    ANNEAL_PROPOSALS.add(proposals);
    ANNEAL_ACCEPTS.add(accepts);
    if stopped && best_cost < cost {
        placements.copy_from_slice(&best);
        return best_cost;
    }
    cost
}

/// Proposed anneal moves (the accept ratio is derived at export).
static ANNEAL_PROPOSALS: macro3d_obs::SiteCounter =
    macro3d_obs::SiteCounter::new("place/anneal_proposals");
/// Accepted anneal moves.
static ANNEAL_ACCEPTS: macro3d_obs::SiteCounter =
    macro3d_obs::SiteCounter::new("place/anneal_accepts");

fn legal_with_halo(placements: &[MacroPlacement], die: Rect, halo: Dbu) -> bool {
    for (i, a) in placements.iter().enumerate() {
        if !die.contains_rect(a.rect) {
            return false;
        }
        let ar = a.rect.inflate(halo);
        for b in &placements[i + 1..] {
            if a.die == b.die && ar.overlaps(b.rect) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::macro_place::pack_shelves;
    use macro3d_netlist::MacroMasterId;
    use macro3d_sram::MemoryCompiler;
    use macro3d_tech::libgen::n28_library;
    use macro3d_tech::stack::DieRole;
    use macro3d_tech::PinDir;
    use std::sync::Arc;

    /// Eight identical banks whose address bus ties them to the die
    /// centre — annealing should not increase the bus HPWL.
    fn banked_design() -> (Design, Vec<InstId>) {
        let lib = Arc::new(n28_library(1.0));
        let mut d = Design::new("t", lib);
        let def = MemoryCompiler::n28().sram("bank", 2048, 128);
        let clk_pin = def.clock_pin().expect("clk");
        let mm = d.add_macro_master(def);
        let clk_port = d.add_port("clk", PinDir::Input, None);
        let clk = d.add_net("clk");
        d.connect(clk, PinRef::Port(clk_port));
        let mut insts = Vec::new();
        for b in 0..8 {
            let i = d.add_macro_in(format!("bank{b}"), mm, 0);
            d.connect(clk, PinRef::inst(i, clk_pin as u16));
            insts.push(i);
        }
        (d, insts)
    }

    #[test]
    fn anneal_never_worsens_and_stays_legal() {
        let (d, insts) = banked_design();
        let die = Rect::from_um(0.0, 0.0, 900.0, 900.0);
        let halo = Dbu::from_um(2.0);
        let mut p = pack_shelves(&d, &insts, die, halo, DieRole::Macro).expect("fits");
        let before = macro_net_hpwl(&d, &p, die);
        let after = refine_macros_sa(
            &d,
            &mut p,
            die,
            halo,
            &AnnealConfig {
                iterations: 800,
                ..Default::default()
            },
        );
        assert!(after <= before * 1.001, "{after} vs {before}");
        assert!(crate::macro_place::is_legal(&p, die));
        // halo preserved between any pair
        for (i, a) in p.iter().enumerate() {
            for b in &p[i + 1..] {
                assert!(!a.rect.inflate(halo).overlaps(b.rect));
            }
        }
    }

    /// The mover set only skips re-reading pins that never move: an
    /// anneal over a clock net with many logic sinks ends with the
    /// same placements and bit-identical cost as one whose cache
    /// re-reads every pin.
    #[test]
    fn movers_reproduce_the_full_pin_walk() {
        let (mut d, insts) = banked_design();
        let clk = d
            .inst(insts[0])
            .conns
            .iter()
            .flatten()
            .copied()
            .next()
            .expect("clk net");
        let lib = d.library().clone();
        let dff = lib.smallest(macro3d_tech::CellClass::Dff).expect("dff");
        let ck = lib.cell(dff).clock_pin().expect("clock pin") as u16;
        let data = lib.cell(dff).data_input_pins().next().expect("data pin") as u16;
        let master = d.macro_master(MacroMasterId(0));
        let bank_pin = (0..master.pins.len() as u16)
            .find(|&p| Some(p as usize) != master.clock_pin())
            .expect("data pin");
        for i in 0..300 {
            let ff = d.add_cell(format!("ff{i}"), dff);
            d.connect(clk, PinRef::inst(ff, ck));
        }
        // every bank also drives three flops of its own
        for (b, &bank) in insts.iter().enumerate() {
            let q = d.add_net(format!("q{b}"));
            d.connect(q, PinRef::inst(bank, bank_pin));
            for i in 0..3 {
                let ff = d.add_cell(format!("q{b}_ff{i}"), dff);
                d.connect(q, PinRef::inst(ff, data));
            }
        }
        let die = Rect::from_um(0.0, 0.0, 900.0, 900.0);
        let halo = Dbu::from_um(2.0);
        let packed = pack_shelves(&d, &insts, die, halo, DieRole::Macro).expect("fits");
        let cfg = AnnealConfig {
            iterations: 600,
            ..Default::default()
        };
        let mut with_movers = packed.clone();
        let cost = refine_macros_sa(&d, &mut with_movers, die, halo, &cfg);
        let mut full_walk = packed.clone();
        let oracle = anneal(&d, &mut full_walk, die, halo, &cfg, &[]);
        assert_eq!(cost.to_bits(), oracle.to_bits());
        assert_eq!(with_movers, full_walk);
        assert_ne!(with_movers, packed, "the anneal moved something");
    }

    #[test]
    fn cost_is_deterministic() {
        let (d, insts) = banked_design();
        let die = Rect::from_um(0.0, 0.0, 900.0, 900.0);
        let p = pack_shelves(&d, &insts, die, Dbu::from_um(2.0), DieRole::Macro).expect("fits");
        assert_eq!(
            macro_net_hpwl(&d, &p, die).to_bits(),
            macro_net_hpwl(&d, &p, die).to_bits()
        );
    }
}

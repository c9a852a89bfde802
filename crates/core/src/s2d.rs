//! The Shrunk-2D (S2D) baseline flow \[Panth et al., TCAD'17\] as
//! characterised in the paper's Sec. III, including its failure
//! mechanisms for macro-heavy designs:
//!
//! 1. **Shrunk pseudo-2D stage.** Cells (and interconnect) are shrunk
//!    to 50 % area and placed in a floorplan with the final F2F
//!    footprint. Macros appear as *partial* (50 %) blockages where one
//!    die holds a macro and full blockages where both do — and the
//!    engine honours partial blockages only at a coarse spatial
//!    quantization. Routing and extraction run on a single-die BEOL
//!    with macro pins assumed in that same BEOL; the sizing
//!    optimization therefore targets *mispredicted* parasitics.
//! 2. **Tier partitioning.** Cells are FM-partitioned across the two
//!    dies (capacity-weighted, macro/port connections anchored).
//! 3. **Overlap fixing.** Unshrinking doubles cell areas; per-die
//!    legalization resolves the resulting overlaps with the large
//!    displacements the paper observed.
//! 4. **F2F-via planning** on the bump pitch grid.
//! 5. **Re-route** on the true combined BEOL (macro pins now at their
//!    `_MD` layers) *without* placement co-optimization or re-sizing.
//!
//! Two floorplan styles: [`S2dStyle::MemoryOnLogic`] (macros fill the
//! top die, like Macro-3D's assignment) and [`S2dStyle::Balanced`]
//! (macros paired across dies so partial blockages become full ones —
//! Table I's "BF S2D", which trades away the manufacturing advantages
//! of MoL stacking).

use crate::error::{flow_gate, FlowError};
use crate::flow::{
    area_budget, combined_stack, extract_all, finish_design, mol_floorplans, place_pipeline,
    route_placed, signoff_input, sta_constraints, FlowConfig, ImplementedDesign, StageTimer,
};
use crate::stage::PlaceSnap;
use crate::via_plan::plan_bumps;
use macro3d_geom::{Dbu, Point, Rect};
use macro3d_netlist::{Design, InstId, Master, NetId, PinRef};
use macro3d_place::floorplan::die_for_area;
use macro3d_place::macro_place::pack_balanced;
use macro3d_place::partition::{bipartition, FmConfig, Hypergraph};
use macro3d_place::{legalize, BlockageKind, Floorplan, MacroPlacement, Placement, PortPlan};
use macro3d_soc::TileNetlist;
use macro3d_sta::opt::apply_sizing_to_parasitics;
use macro3d_sta::{clock_arrivals, upsize_critical_path, ClockTree, StaConstraints, StaSession};
use macro3d_tech::libgen::n28_library;
use macro3d_tech::stack::{n28_stack, DieRole};
use macro3d_tech::{CellLibrary, Corner, F2fSpec};
use std::collections::HashSet;
use std::sync::Arc;

/// S2D floorplan style.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum S2dStyle {
    /// Macros fill the macro die (heterogeneous MoL assignment).
    MemoryOnLogic,
    /// Macros paired/overlapped across both dies ("BF S2D").
    Balanced,
}

/// Diagnostics of an S2D run (the quantities the paper blames).
#[derive(Clone, Debug, Default)]
pub struct S2dDiagnostics {
    /// Mean legalization displacement when fixing post-unshrink
    /// overlaps, µm.
    pub overlap_fix_mean_disp_um: f64,
    /// Cells that changed die in partitioning.
    pub cells_on_macro_die: usize,
    /// Planned F2F bumps.
    pub planned_bumps: u64,
}

/// Runs the S2D flow. Like C2D, it never uses the stage cache (see
/// [`crate::stage`]).
///
/// # Errors
///
/// Returns [`FlowError::Floorplan`] if macro packing fails for the
/// chosen style and [`FlowError::Injected`] when the active fault
/// plan injects an error at a flow gate.
pub(crate) fn implement(
    tile: &TileNetlist,
    cfg: &FlowConfig,
    style: S2dStyle,
) -> Result<(ImplementedDesign, S2dDiagnostics), FlowError> {
    let mut timer = StageTimer::new();
    let mut design = tile.design.clone();
    let constraints = sta_constraints(tile);
    let budget = area_budget(&design, cfg);
    let orig_lib = design.library().clone();

    let die = die_for_area(
        budget.a3d_um2,
        1.0,
        orig_lib.row_height(),
        orig_lib.site_width(),
    );
    let halo = Dbu::from_um(cfg.halo_um);

    // --- macro floorplans on both dies --------------------------------
    flow_gate("flow/floorplan")?;
    let macro_placements = match style {
        S2dStyle::MemoryOnLogic => {
            // the MoL split Macro-3D and C2D start from
            let (mut macro_die, logic_die) = mol_floorplans(&design, die, cfg)?;
            macro_die.extend(logic_die);
            macro_die
        }
        S2dStyle::Balanced => {
            let macros: Vec<InstId> = design.inst_ids().filter(|&i| design.is_macro(i)).collect();
            pack_balanced(&design, &macros, die, halo).ok_or_else(|| FlowError::Floorplan {
                stage: "s2d/balanced_pack",
                detail: format!(
                    "balanced packing does not fit the {:.0}x{:.0}um die",
                    die.width().to_um(),
                    die.height().to_um()
                ),
            })?
        }
    };

    // --- stage 1: shrunk pseudo-2D design -----------------------------
    // 50% cell area via a structurally identical half-size library
    let shrunk_lib = Arc::new(n28_library(orig_lib.area_scale() * 0.5));
    design.set_library(shrunk_lib);
    let fp_s2d = shrunk_stage_floorplan(
        &orig_lib,
        die,
        &macro_placements,
        halo,
        Dbu::from_um(cfg.partial_blockage_period_um),
        1.0,
    );
    let ports = PortPlan::assign(&design, die);
    timer.mark("floorplan");
    flow_gate("flow/place")?;
    let (mut placement, tree) = pseudo2d_stage1(
        "s2d",
        &mut design,
        &fp_s2d,
        &ports,
        &constraints,
        cfg,
        None,
        &mut timer,
    );

    // --- stage 2: unshrink + tier partitioning -------------------------
    design.set_library(orig_lib.clone());
    let diag = partition_and_finalize(
        &mut design,
        &mut placement,
        &macro_placements,
        die,
        halo,
        &tree,
        cfg,
    );

    timer.mark("s2d_partition_fix");

    // --- stage 3: F2F via planning + re-route on the true stack --------
    let placed = PlaceSnap {
        design,
        fp: final_floorplan(die, &macro_placements, halo, &orig_lib),
        ports,
        stack: combined_stack(cfg),
        placement,
        tree,
    };
    // S2D has no post-partition optimization: sizing_rounds = 0.
    let imp = finish_design(placed, constraints, cfg, true, 0, timer, None)?;
    Ok((imp, diag))
}

/// Pseudo-2D stage 1, shared by S2D and C2D: places `design` on the
/// stage-1 floorplan, routes it on the single-die stack with macro
/// pins assumed in that same BEOL, extracts (scaling wire R and C per
/// unit length by `wire_scale` when given — C2D's 1/√2), and runs the
/// stage-1 sizing loop against those *mispredicted* parasitics.
/// Returns the placement and clock tree; stage wall-clock lands in
/// `timer` under `{flow}_stage1_route`, `_extract` and `_sizing`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn pseudo2d_stage1(
    flow: &str,
    design: &mut Design,
    fp: &Floorplan,
    ports: &PortPlan,
    constraints: &StaConstraints,
    cfg: &FlowConfig,
    wire_scale: Option<f64>,
    timer: &mut StageTimer,
) -> (Placement, ClockTree) {
    let (placement, tree) = place_pipeline(design, fp, ports, constraints, cfg, timer);
    let stack = n28_stack(cfg.logic_metals, DieRole::Logic);
    let routed = route_placed(design, &placement, ports, fp, &stack, cfg, false);
    routed.note_residual_overflow();
    timer.mark(&format!("{flow}_stage1_route"));
    let mut parasitics = extract_all(
        design,
        &placement,
        ports,
        &stack,
        &routed,
        constraints,
        Corner::signoff(),
        &cfg.parallelism,
    );
    if let Some(s) = wire_scale {
        for p in &mut parasitics {
            let old_wire = p.wire_cap_ff;
            p.wire_cap_ff *= s;
            p.total_res_ohm *= s;
            for e in &mut p.elmore_ps {
                *e *= s * s;
            }
            p.driver_load_ff -= old_wire - p.wire_cap_ff;
        }
    }
    let clock = clock_arrivals(design, &tree, &parasitics, Corner::signoff());
    timer.mark(&format!("{flow}_stage1_extract"));

    // one StaSession carries the timing graph across rounds; `update`
    // analyzes in full on the first round (no converged state yet)
    // and re-times only the touched cones after that
    let mut session = StaSession::new(&signoff_input(
        design,
        &parasitics,
        &routed,
        constraints,
        &clock,
    ));
    let mut touched: Vec<NetId> = Vec::new();
    for round in 0..cfg.sizing_rounds {
        // budget checkpoint: the stage-1 sizing already holds a valid
        // (mispredicted-parasitics) design, so stopping early is safe
        if let macro3d_par::Checkpoint::Stop(reason) = macro3d_par::checkpoint("sta/sizing_rounds")
        {
            macro3d_par::note_degradation(
                "sta/sizing_rounds",
                reason,
                format!(
                    "stopped after {round} of {} sizing rounds",
                    cfg.sizing_rounds
                ),
            );
            break;
        }
        let t = session.update(
            &signoff_input(design, &parasitics, &routed, constraints, &clock),
            &touched,
            &cfg.parallelism,
        );
        let changes = upsize_critical_path(design, &t);
        if changes.is_empty() {
            break;
        }
        touched = apply_sizing_to_parasitics(design, &changes, &mut parasitics);
    }
    timer.mark(&format!("{flow}_stage1_sizing"));
    (placement, tree)
}

/// The final per-die floorplan: macros block placement on their own
/// die only (used for the post-partition legalization and reporting).
pub(crate) fn final_floorplan(
    die: Rect,
    macro_placements: &[MacroPlacement],
    halo: Dbu,
    lib: &CellLibrary,
) -> Floorplan {
    let mut fp = Floorplan::new(die, lib.row_height(), lib.site_width());
    for mp in macro_placements {
        fp.add_macro(*mp, DieRole::Logic, halo);
        // logic-die macros block the logic die; macro-die macros add
        // no blockage here (handled per-die during legalization)
    }
    fp
}

/// Tier partitioning + per-die overlap fixing + bump planning, shared
/// with the C2D flow.
pub(crate) fn partition_and_finalize(
    design: &mut Design,
    placement: &mut Placement,
    macro_placements: &[MacroPlacement],
    die: Rect,
    halo: Dbu,
    tree: &ClockTree,
    cfg: &FlowConfig,
) -> S2dDiagnostics {
    let lib = design.library().clone();

    // per-die floorplans with full blockages from that die's macros
    let mut fp_logic = Floorplan::new(die, lib.row_height(), lib.site_width());
    let mut fp_macro = Floorplan::new(die, lib.row_height(), lib.site_width());
    for mp in macro_placements {
        match mp.die {
            DieRole::Logic => fp_logic.add_macro(*mp, DieRole::Logic, halo),
            DieRole::Macro => {
                // re-tag so the blockage lands on the macro-die fp
                let mut m = *mp;
                m.die = DieRole::Logic;
                fp_macro.add_macro(m, DieRole::Logic, halo)
            }
        }
    }

    // FM tier partitioning of all standard cells
    let cells: Vec<InstId> = design.inst_ids().filter(|&i| !design.is_macro(i)).collect();
    let mut local_of = std::collections::HashMap::new();
    let mut areas = Vec::with_capacity(cells.len());
    for (k, &c) in cells.iter().enumerate() {
        local_of.insert(c, k as u32);
        areas.push(design.inst_area_um2(c).max(1e-6));
    }
    let mut builder = Hypergraph::builder(areas);
    let macro_die_of: std::collections::HashMap<InstId, DieRole> = macro_placements
        .iter()
        .map(|mp| (mp.inst, mp.die))
        .collect();
    for n in design.net_ids() {
        let pins = &design.net(n).pins;
        if pins.len() < 2 || pins.len() > 64 {
            continue;
        }
        let mut local = Vec::new();
        let mut anchor: Option<u8> = None;
        for &p in pins {
            match p {
                PinRef::Inst { inst, .. } => match local_of.get(&inst) {
                    Some(&l) => local.push(l),
                    None => {
                        // a macro: anchor toward its die
                        let side = match macro_die_of.get(&inst) {
                            Some(DieRole::Macro) => 1,
                            _ => 0,
                        };
                        anchor = Some(side);
                    }
                },
                PinRef::Port(_) => anchor = Some(0), // IO on the logic die
            }
        }
        if !local.is_empty() {
            builder.add_net(&local, anchor);
        }
    }
    let hg = builder.build();

    // capacity split: free area per die
    let free_logic = fp_logic.usable_area_um2(die) * cfg.util_logic;
    let free_macro = fp_macro.usable_area_um2(die) * cfg.util_logic;
    let frac_logic = (free_logic / (free_logic + free_macro)).clamp(0.02, 0.98);
    let side = bipartition(
        &hg,
        frac_logic,
        None,
        &FmConfig {
            passes: 2,
            balance_tol: 0.03,
        },
    );

    let clock_buffers: HashSet<InstId> = tree.buffers.iter().copied().collect();
    let mut on_macro = 0usize;
    for (k, &c) in cells.iter().enumerate() {
        // the clock tree always stays on the logic die
        let die_of = if clock_buffers.contains(&c) || side[k] == 0 {
            DieRole::Logic
        } else {
            DieRole::Macro
        };
        if die_of == DieRole::Macro {
            on_macro += 1;
        }
        placement.die_of[c.index()] = die_of;
    }

    // overlap fixing: per-die legalization of full-size cells
    let logic_cells: Vec<InstId> = cells
        .iter()
        .copied()
        .filter(|&c| placement.die_of[c.index()] == DieRole::Logic)
        .collect();
    let macro_cells: Vec<InstId> = cells
        .iter()
        .copied()
        .filter(|&c| placement.die_of[c.index()] == DieRole::Macro)
        .collect();
    let rep_l = legalize(design, &fp_logic, placement, &logic_cells);
    let rep_m = legalize(design, &fp_macro, placement, &macro_cells);
    let total_cells = (logic_cells.len() + macro_cells.len()).max(1);
    let mean_disp = (rep_l.total_disp + rep_m.total_disp).to_um() / total_cells as f64;

    // F2F via planning for every net spanning the dies
    let mut requests: Vec<(NetId, Point)> = Vec::new();
    for n in design.net_ids() {
        let pins = &design.net(n).pins;
        if pins.len() < 2 {
            continue;
        }
        let mut dies = [false, false];
        let mut lo: Option<Point> = None;
        let mut hi: Option<Point> = None;
        for &p in pins {
            let (die_of, pos) = match p {
                PinRef::Inst { inst, .. } => {
                    let d = match design.inst(inst).master {
                        Master::Cell(_) => placement.die_of[inst.index()],
                        Master::Macro(_) => *macro_die_of.get(&inst).unwrap_or(&DieRole::Logic),
                    };
                    (d, placement.pos[inst.index()])
                }
                PinRef::Port(_) => (DieRole::Logic, die.lo),
            };
            dies[match die_of {
                DieRole::Logic => 0,
                DieRole::Macro => 1,
            }] = true;
            lo = Some(lo.map_or(pos, |l| l.min(pos)));
            hi = Some(hi.map_or(pos, |h| h.max(pos)));
        }
        if dies[0] && dies[1] {
            if let (Some(l), Some(h)) = (lo, hi) {
                requests.push((n, Point::new((l.x + h.x) / 2, (l.y + h.y) / 2)));
            }
        }
    }
    let plan = plan_bumps(die, &F2fSpec::hybrid_bond_n28(), &requests);
    if plan.failed > 0 {
        // a full bump grid is a residual violation: the re-route still
        // runs, but the outcome names the nets left without a bump
        // (the planner's outward spiral gave up — its ring cap)
        macro3d_par::note_degradation(
            "flow/via_plan",
            macro3d_par::StopReason::IterationCap,
            plan.failure_detail(),
        );
    }

    S2dDiagnostics {
        overlap_fix_mean_disp_um: mean_disp,
        cells_on_macro_die: on_macro,
        planned_bumps: plan.count(),
    }
}

/// The pseudo-2D stage-1 floorplan shared by S2D and C2D: every
/// macro, scaled about the origin by `scale` (C2D's enlargement; 1
/// for S2D), becomes a 50 % partial blockage — each die's macro
/// discounts half the stacked capacity — quantized into stripes of
/// `period`, as the commercial engines honour partial blockages.
pub fn shrunk_stage_floorplan(
    lib: &CellLibrary,
    die: Rect,
    macro_placements: &[MacroPlacement],
    halo: Dbu,
    period: Dbu,
    scale: f64,
) -> Floorplan {
    let mut fp = Floorplan::new(die, lib.row_height(), lib.site_width());
    for mp in macro_placements {
        let rect = mp.rect.scale(scale);
        fp.add_blockage(rect.inflate(halo), BlockageKind::Partial(0.5));
        fp.macros.push(MacroPlacement { rect, ..*mp });
    }
    fp.quantize_partial_blockages(period);
    fp
}

#[cfg(test)]
mod tests {
    use super::*;
    use macro3d_place::BlockageKind;
    use macro3d_tech::libgen::n28_library;
    use std::sync::Arc;

    #[test]
    fn shrunk_floorplan_discounts_half_per_macro_die() {
        let lib = Arc::new(n28_library(1.0));
        let mut d = Design::new("t", lib);
        let mm = d.add_macro_master(macro3d_sram::MemoryCompiler::n28().sram("s", 512, 64));
        let a = d.add_macro_in("a", mm, 0);
        let b = d.add_macro_in("b", mm, 0);
        let size = d.macro_master(macro3d_netlist::MacroMasterId(0)).size;
        let die = Rect::from_um(0.0, 0.0, 800.0, 800.0);
        // a on the logic die, b on the macro die, overlapping exactly
        let at = Point::from_um(100.0, 100.0);
        let placements = vec![
            macro3d_place::MacroPlacement {
                inst: a,
                rect: Rect::from_origin_size(at, size),
                die: DieRole::Logic,
            },
            macro3d_place::MacroPlacement {
                inst: b,
                rect: Rect::from_origin_size(at, size),
                die: DieRole::Macro,
            },
        ];
        let fp = shrunk_stage_floorplan(
            d.library(),
            die,
            &placements,
            Dbu(0),
            Dbu::from_um(8.0),
            1.0,
        );
        // overlapping 50% blockages sum to a full blockage
        let over_macro = fp.usable_area_um2(Rect::from_origin_size(at, size));
        assert!(
            over_macro < 0.05 * size.area_um2(),
            "stacked partials nearly fully block: {over_macro}"
        );
        // all partials were quantized into full stripes
        assert!(fp
            .blockages
            .iter()
            .all(|bk| matches!(bk.kind, BlockageKind::Full)));
        // away from the macros the die is free
        let free = fp.usable_area_um2(Rect::from_um(600.0, 600.0, 700.0, 700.0));
        assert!((free - 10_000.0).abs() < 1.0);
    }
}

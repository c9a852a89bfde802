//! The Compact-2D (C2D) baseline flow \[Ku et al., ISPD'18\] as
//! characterised in the paper's Sec. III.
//!
//! C2D avoids S2D's shrunk geometries (which need a next-node P&R
//! engine) by *enlarging the floorplan* 2× instead: the unshrunk
//! design is placed and routed on a footprint twice the F2F target,
//! with macro blockages scaled up accordingly, while the estimated
//! interconnect parasitics per unit length are scaled by 1/√2 to
//! approximate the target stack. Cell locations are then mapped
//! linearly (×1/√2) into the F2F footprint, followed by the same tier
//! partitioning / overlap fixing / via planning / re-route tail as
//! S2D — plus the post-tier-partitioning optimization C2D adds.

use crate::error::{flow_gate, FlowError};
use crate::flow::{
    area_budget, combined_stack, finish_design, mol_floorplans, sta_constraints, FlowConfig,
    ImplementedDesign, StageTimer,
};
use crate::s2d::{
    final_floorplan, partition_and_finalize, pseudo2d_stage1, shrunk_stage_floorplan,
    S2dDiagnostics,
};
use crate::stage::PlaceSnap;
use macro3d_geom::Dbu;
use macro3d_place::floorplan::die_for_area;
use macro3d_place::PortPlan;
use macro3d_soc::TileNetlist;

/// Runs the C2D flow. Like S2D, it never uses the stage cache (see
/// [`crate::stage`]).
///
/// # Errors
///
/// Returns [`FlowError::Floorplan`] if macro packing fails and
/// [`FlowError::Injected`] when the active fault plan injects an
/// error at a flow gate.
pub(crate) fn implement(
    tile: &TileNetlist,
    cfg: &FlowConfig,
) -> Result<(ImplementedDesign, S2dDiagnostics), FlowError> {
    let mut timer = StageTimer::new();
    let mut design = tile.design.clone();
    let constraints = sta_constraints(tile);
    let budget = area_budget(&design, cfg);
    let lib = design.library().clone();

    let die_3d = die_for_area(budget.a3d_um2, 1.0, lib.row_height(), lib.site_width());
    let die_2x = die_for_area(
        2.0 * budget.a3d_um2,
        1.0,
        lib.row_height(),
        lib.site_width(),
    );
    let halo = Dbu::from_um(cfg.halo_um);
    let up = (die_2x.width().0 as f64 / die_3d.width().0 as f64).max(1.0);

    // macro floorplans in the target (3D) space, MoL assignment (the
    // split Macro-3D and MoL S2D start from too)
    flow_gate("flow/floorplan")?;
    let (mut macro_placements, logic_die) = mol_floorplans(&design, die_3d, cfg)?;
    macro_placements.extend(logic_die);

    // --- stage 1: enlarged pseudo-2D design --------------------------
    // blockages scaled up by the enlargement factor, R and C per unit
    // length scaled by 1/sqrt(2) to approximate the target stack
    let fp_2x = shrunk_stage_floorplan(
        &lib,
        die_2x,
        &macro_placements,
        halo,
        Dbu::from_um(cfg.partial_blockage_period_um),
        up,
    );
    let ports_2x = PortPlan::assign(&design, die_2x);
    timer.mark("floorplan");
    flow_gate("flow/place")?;
    let (mut placement, tree) = pseudo2d_stage1(
        "c2d",
        &mut design,
        &fp_2x,
        &ports_2x,
        &constraints,
        cfg,
        Some(1.0 / 2.0_f64.sqrt()),
        &mut timer,
    );

    // --- stage 2: linear mapping into the F2F footprint --------------
    let down = 1.0 / up;
    for i in design.inst_ids() {
        if !design.is_macro(i) {
            placement.pos[i.index()] = placement.pos[i.index()].scale(down);
        }
    }

    // --- stage 3: tier partition + overlap fix + via plan ------------
    let diag = partition_and_finalize(
        &mut design,
        &mut placement,
        &macro_placements,
        die_3d,
        halo,
        &tree,
        cfg,
    );
    timer.mark("c2d_partition_fix");

    // --- stage 4: re-route on the combined stack with C2D's
    // post-tier-partitioning optimization enabled ----------------------
    let placed = PlaceSnap {
        fp: final_floorplan(die_3d, &macro_placements, halo, &lib),
        ports: PortPlan::assign(&design, die_3d),
        design,
        stack: combined_stack(cfg),
        placement,
        tree,
    };
    // post-partition optimization (C2D's addition)
    let imp = finish_design(
        placed,
        constraints,
        cfg,
        true,
        cfg.sizing_rounds,
        timer,
        None,
    )?;
    Ok((imp, diag))
}

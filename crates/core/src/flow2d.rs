//! The conventional 2D flow (baseline of every table).
//!
//! Macros are packed around the die periphery (Fig. 4's 2D
//! floorplans), standard cells fill the centre, everything is placed
//! and routed with the six-metal single-die stack, and PPA is signed
//! off at SS / reported at TT. The footprint is exactly twice the 3D
//! footprint (equal total silicon, per the paper's fairness rule).

use crate::error::FlowError;
use crate::flow::{run_direct, AreaBudget, FlowConfig, ImplementedDesign};
use crate::stage::StageReuse;
use macro3d_geom::{Dbu, Rect};
use macro3d_netlist::Design;
use macro3d_place::macro_anneal::{refine_macros_sa, AnnealConfig};
use macro3d_place::macro_place::{pack_bands, pack_ring, pack_shelves};
use macro3d_place::Floorplan;
use macro3d_soc::TileNetlist;
use macro3d_tech::stack::{n28_stack, DieRole, MetalStack};

/// Runs the 2D baseline flow on the direct-flow driver: a die of
/// twice the 3D footprint (same silicon area in both styles), the
/// single-die stack, so no macro pin is projected.
///
/// # Errors
///
/// See [`run_direct`].
pub(crate) fn implement(
    tile: &TileNetlist,
    cfg: &FlowConfig,
    reuse: Option<&mut StageReuse<'_>>,
) -> Result<ImplementedDesign, FlowError> {
    run_direct(tile, cfg, 2.0, floorplan, false, reuse)
}

/// Packs every macro on the 2D die and anneals the packing; returns
/// the floorplan with the single-die stack.
///
/// # Errors
///
/// Returns [`FlowError::Floorplan`] if the macros cannot be packed on
/// the die (cannot happen for the paper's configurations with default
/// utilization targets).
fn floorplan(
    design: &Design,
    die: Rect,
    budget: &AreaBudget,
    cfg: &FlowConfig,
) -> Result<(Floorplan, MetalStack), FlowError> {
    let lib = design.library();
    let halo = Dbu::from_um(cfg.halo_um);
    let mut fp = Floorplan::new(die, lib.row_height(), lib.site_width());
    let macros: Vec<_> = design.inst_ids().filter(|&i| design.is_macro(i)).collect();
    // macro-light dies use the periphery ring (small-cache Fig. 4);
    // macro-heavy dies interleave macro bands with cell strips
    // (large-cache Fig. 5), which keeps wire detours short
    let macro_fraction = budget.macro_um2 / (budget.macro_um2 + budget.cell_um2);
    let cell_fraction = (budget.cell_um2 / cfg.util_logic)
        / (budget.cell_um2 / cfg.util_logic + budget.macro_um2 / cfg.util_macro);
    let mut placements = if macro_fraction > 0.7 {
        pack_bands(design, &macros, die, halo, cell_fraction.min(0.9))
            .or_else(|| pack_ring(design, &macros, die, halo))
    } else {
        pack_ring(design, &macros, die, halo)
    }
    .or_else(|| pack_shelves(design, &macros, die, halo, DieRole::Logic))
    .ok_or_else(|| FlowError::Floorplan {
        stage: "2d/macro_pack",
        detail: format!(
            "{} macros do not fit the {:.0}x{:.0}um 2D die",
            macros.len(),
            die.width().to_um(),
            die.height().to_um()
        ),
    })?;
    // same floorplan-optimization step as the 3D flows
    refine_macros_sa(design, &mut placements, die, halo, &AnnealConfig::default());
    for &mp in &placements {
        fp.add_macro(mp, DieRole::Logic, halo);
    }
    Ok((fp, n28_stack(cfg.logic_metals, DieRole::Logic)))
}

//! The Macro-3D flow — the paper's contribution (Sec. IV).
//!
//! Four steps, exactly as Fig. 2:
//!
//! 1. **Dual floorplans.** Two floorplans with the final F2F
//!    footprint: the macro die is shelf-packed with the largest
//!    macros (up to its utilization target); the remaining macros go
//!    on the logic die's periphery.
//! 2. **Memory-on-logic projection.** The combined BEOL of the whole
//!    stack is built (`M1…M6 → F2F_VIA → M1_MD…`); macro-die macros
//!    are projected into the logic-die floorplan with their substrate
//!    shrunk away (no placement blockage — the paper shrinks them to
//!    filler-cell size) while their pins and internal routing
//!    blockages live on the `_MD` layers at their true positions.
//! 3. **Standard 2D P&R.** The unmodified engine places cells in the
//!    blockage-free area, synthesizes the clock tree, and routes over
//!    the *full* combined stack — crossings of the F2F cut become
//!    bumps, macro pins are reached at their real layers, and routes
//!    may traverse the macro die to dodge congestion. The resulting
//!    parasitics (and therefore PPA) are directly valid for the 3D
//!    stack; no tier partitioning or via planning follows.
//! 4. **Die separation.** The layout splits back into per-die GDS
//!    (see [`crate::layout`]); the F2F via layer appears in both.

use crate::error::FlowError;
use crate::flow::{
    combined_stack, mol_floorplans, run_direct, AreaBudget, FlowConfig, ImplementedDesign,
};
use crate::stage::StageReuse;
use macro3d_geom::{Dbu, Rect};
use macro3d_netlist::Design;
use macro3d_place::Floorplan;
use macro3d_soc::TileNetlist;
use macro3d_tech::stack::{DieRole, MetalStack};

/// Runs the Macro-3D flow on the direct-flow driver: steps 1–2 are
/// the floorplan builder, step 3 is the unmodified 2D engine on the
/// final F2F footprint with macro pins at their true `_MD` layers.
/// Step 4 (die separation) is available via [`crate::layout`] on the
/// returned design.
///
/// `cfg.macro_metals` selects the macro-die BEOL depth (6 for the
/// main results, 4 for Table III's heterogeneous-stack experiment).
///
/// # Errors
///
/// See [`run_direct`].
pub(crate) fn implement(
    tile: &TileNetlist,
    cfg: &FlowConfig,
    reuse: Option<&mut StageReuse<'_>>,
) -> Result<ImplementedDesign, FlowError> {
    run_direct(tile, cfg, 1.0, floorplan, true, reuse)
}

/// Steps 1–2: the dual floorplans projected into one logic-die
/// floorplan, with the combined BEOL as the routing stack.
///
/// # Errors
///
/// Returns [`FlowError::Floorplan`] if macro packing fails (cannot
/// happen for the paper's configurations with default utilization
/// targets).
fn floorplan(
    design: &Design,
    die: Rect,
    _budget: &AreaBudget,
    cfg: &FlowConfig,
) -> Result<(Floorplan, MetalStack), FlowError> {
    let lib = design.library();
    let halo = Dbu::from_um(cfg.halo_um);
    // Step 1: dual floorplans (the MoL split the S2D and C2D flows
    // start from too)
    let (macro_die, logic_die) = mol_floorplans(design, die, cfg)?;

    // Step 2: projection — macro-die macros add pins/obstacles but no
    // placement blockage; logic-die macros block placement as usual.
    let mut fp = Floorplan::new(die, lib.row_height(), lib.site_width());
    for &mp in macro_die.iter().chain(&logic_die) {
        fp.add_macro(mp, DieRole::Logic, halo);
    }
    Ok((fp, combined_stack(cfg)))
}

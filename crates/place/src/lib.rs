#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
//! Floorplanning and standard-cell placement engine.
//!
//! This crate is the "2D P&R engine" front half that every flow in the
//! reproduction shares (the paper's flows all drive the *same*
//! commercial placer; here they all drive this one):
//!
//! * [`floorplan`] — die/core area, standard-cell rows, and placement
//!   blockages, including *partial* blockages with the coarse spatial
//!   quantization that commercial tools exhibit (the S2D failure
//!   mechanism from the paper's Sec. III);
//! * [`macro_place`] — deterministic shelf/ring macro packing for the
//!   2D periphery floorplan, the macro-die grid, and the
//!   balanced-overlap (BF) variant;
//! * [`ports`] — port location assignment on die edges honouring the
//!   inter-tile alignment pairs;
//! * [`partition`] — Fiduccia–Mattheyses bipartitioning, used both by
//!   recursive-bisection global placement and by the S2D/C2D tier
//!   partitioning step;
//! * [`global`] — global placement dispatch over two backends:
//!   recursive min-cut bisection with terminal propagation and
//!   blockage-aware capacity, and the ePlace-style
//!   [`analytical`] electrostatic placer;
//! * [`analytical`] / [`nesterov`] — analytical global placement:
//!   weighted-average wirelength with analytic gradients, a
//!   multigrid-Poisson charge-density field ([`density`]), and a
//!   Nesterov solver with Lipschitz step estimation — every hot
//!   kernel runs through `macro3d-par` and is bit-identical for any
//!   thread count;
//! * [`mod@legalize`] — row legalization: Tetris-style first-fit
//!   (reports displacement, the quantity that blows up when S2D
//!   unshrinks) and Abacus-style cluster collapse for the analytical
//!   backend's smooth spreads;
//! * [`detailed`] — greedy swap refinement;
//! * [`density`] / [`hpwl`] — utilization, the electrostatic bin
//!   grid, and wirelength metrics.

pub mod analytical;
pub mod density;
pub mod detailed;
pub mod floorplan;
pub mod global;
pub mod hpwl;
pub mod legalize;
pub mod macro_anneal;
pub mod macro_place;
pub mod nesterov;
pub mod partition;
pub mod placement;
pub mod ports;

pub use analytical::analytical_place;
pub use density::ElectroGrid;
pub use floorplan::{Blockage, BlockageKind, Floorplan, MacroPlacement};
pub use global::{global_place, GlobalPlaceConfig, PlacerBackend};
pub use hpwl::{net_hpwl, pin_position, total_hpwl, HpwlCache, HpwlUndo};
pub use legalize::{legalize, legalize_abacus, LegalizeReport};
pub use placement::Placement;
pub use ports::PortPlan;

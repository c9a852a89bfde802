#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
//! Static timing analysis, clock-tree synthesis, optimization and
//! power analysis.
//!
//! This crate closes the loop of the shared "2D engine": given a
//! placed, routed and extracted design it computes
//!
//! * [`analysis`] — NLDM + Elmore arrival propagation over the
//!   combinational graph, honouring the paper's constraints (one
//!   clock, half-cycle budgets on inter-tile NoC ports, sign-off at
//!   the SS corner) and reporting the maximum clock frequency and the
//!   critical path *with its routed wirelength* (a Table II row);
//! * [`cts`] — clock-tree synthesis by recursive geometric clustering
//!   with clock buffers, reporting tree depth (a Table II row) and
//!   per-sink insertion delays used for skew-aware setup checks;
//! * [`parametric`] — the default minimum-period engine: affine
//!   arrival propagation with closed-form endpoint solves (one pass
//!   plus a confirmation instead of a 32-probe binary search) and the
//!   incremental [`StaSession`] the sizing loops re-time cones with;
//! * [`opt`] — pre-route repeater insertion on long nets and
//!   post-route critical-path gate sizing;
//! * [`power`] — switching/internal/leakage/macro power at the TT
//!   corner with the paper's 0.2 toggle ratio, reporting `Emean`
//!   (fJ/cycle) and the total pin/wire capacitances (Table II rows).

pub mod analysis;
pub mod constraints;
pub mod cts;
pub mod dcalc;
mod graph;
pub mod opt;
pub mod parametric;
pub mod power;
pub mod report;

pub use analysis::{
    analyze, analyze_par, analyze_probe, check_hold, HoldReport, StaInput, TimingReport,
};
pub use constraints::StaConstraints;
pub use cts::{clock_arrivals, synthesize_clock_tree, ClockArrivals, ClockTree};
pub use macro3d_par::Parallelism;
pub use opt::{apply_sizing_to_parasitics, fix_hold, insert_repeaters, upsize_critical_path};
pub use parametric::{StaSession, PROBE_RESOLUTION_PS};
pub use power::{analyze_power, PowerInput, PowerReport};
pub use report::format_critical_path;

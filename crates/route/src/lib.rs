#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
//! Layer-aware global routing engine.
//!
//! The back half of the shared "2D P&R engine": a negotiated-
//! congestion (PathFinder-style) global router over a GCell grid with
//! per-layer track capacities derived from the metal stack. The same
//! router serves every flow in the reproduction; what changes between
//! flows is the *stack* it is given:
//!
//! * 2D flow: the single-die six-metal stack;
//! * Macro-3D: the combined two-die stack, where crossing the
//!   `F2F_VIA` cut instantiates an F2F bump (counted per net) and
//!   macro pins sit on `_MD` layers — the router pays the true cost
//!   of reaching the upper die and may even route *through* it to
//!   dodge congestion, exactly as the paper describes;
//! * S2D/C2D: first a single-die stack during the pseudo-2D stage,
//!   then a per-die re-route after tier partitioning.
//!
//! Multi-pin nets are decomposed into two-pin edges over a rectilinear
//! Steiner topology ([`steiner`]); each edge is routed by a windowed,
//! guided A* over a dense per-edge cost grid (`search`); overflowed
//! edges trigger rip-up and re-route.
//!
//! The entry point is [`route_design`] ([`global`]): one call routes a
//! [`RouteRequest`] to a [`RoutedDesign`].

pub mod gcell;
pub mod global;
pub mod routed;
mod search;
pub mod steiner;

pub use gcell::RouteGrid;
pub use global::{
    route_design, valid_search_cost, RouteConfig, RoutePin, RouteRequest, GCELL_UM, MAX_NET_DEGREE,
};
pub use macro3d_par::Parallelism;
pub use routed::{RouteSeg, RoutedDesign, RoutedNet, Via};
pub use steiner::{steiner_edges, steiner_length};

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
//! Macro-3D: physical design flows for face-to-face-stacked
//! heterogeneous 3D ICs (DATE 2020 reproduction).
//!
//! This crate implements the paper's primary contribution — the
//! **Macro-3D** flow ([`macro3d_flow`]) — together with the baselines
//! it is evaluated against:
//!
//! * [`flow2d`] — the conventional single-die flow (the comparison
//!   baseline of every table);
//! * [`s2d`] — Shrunk-2D \[Panth et al.\]: a pseudo-2D stage with
//!   shrunk cells and quantized partial blockages, followed by tier
//!   partitioning, overlap fixing, F2F-via planning and a re-route,
//!   in both memory-on-logic and balanced-floorplan (BF) variants;
//! * [`c2d`] — Compact-2D \[Ku et al.\]: an enlarged-floorplan stage
//!   with √2-scaled parasitics, linear position mapping and
//!   post-partition optimization.
//!
//! All flows drive the *same* placement/routing/timing engines (the
//! `macro3d-place`, `macro3d-route`, `macro3d-extract` and
//! `macro3d-sta` crates) — mirroring the paper's setup where every
//! flow drives the same commercial 2D tools — and return a uniform
//! [`report::PpaResult`].
//!
//! The [`experiments`] module regenerates every table and figure of
//! the paper's evaluation; [`layout`] renders floorplans and routed
//! layouts (Figs. 4–6) as SVG and performs the Macro-3D die
//! separation.
//!
//! # Examples
//!
//! Every flow implements the [`flows::Flow`] trait. A [`FlowConfig`]
//! is plain data; [`FlowConfig::validate`] is its one table of range
//! rules, checked by [`FlowConfig::builder`], at the start of every
//! flow run and by the DSE knob parser:
//!
//! ```no_run
//! use macro3d::flows::{Flow, Flow2d, Macro3d};
//! use macro3d::FlowConfig;
//! use macro3d_soc::{generate_tile, TileConfig};
//!
//! let cfg = FlowConfig::builder().build().expect("valid config");
//! let tile = generate_tile(&TileConfig::small_cache().with_scale(32.0));
//! let r2d = Flow2d.run(&tile, &cfg).ppa;
//! let r3d = Macro3d.run(&tile, &cfg).ppa;
//! assert!(r3d.footprint_mm2 < r2d.footprint_mm2);
//! ```

pub mod build_cache;
pub mod c2d;
pub mod check;
pub mod config;
pub mod error;
pub mod experiments;
pub mod flow;
pub mod flow2d;
pub mod flows;
pub mod jsonio;
pub mod layout;
pub mod macro3d_flow;
pub mod report;
pub mod s2d;
pub mod stage;
pub mod via_plan;

pub use config::{ConfigError, FlowConfigBuilder};
pub use error::FlowError;
pub use flow::{FlowConfig, ImplementedDesign, StageTimer, StageTimes};
pub use flows::{Flow, FlowOutcome};
pub use jsonio::{
    degradation_from_json, degradation_to_json, flow_config_from_json, flow_config_to_json,
    fnv1a_64, ppa_fingerprint, ppa_from_json, ppa_to_json, tile_config_from_json,
    tile_config_to_json, CodecError,
};
pub use macro3d_obs::{FlowTrace, ObsConfig, ObsLevel};
pub use macro3d_par::{
    DegradationReport, FaultAction, FaultPlan, FlowBudget, Parallelism, StopReason, STANDARD_SITES,
};
pub use macro3d_place::{GlobalPlaceConfig, PlacerBackend};
pub use macro3d_route::{RouteConfig, RouteRequest};
pub use report::PpaResult;
pub use stage::{stage_keys, Stage, StageCache, StageKeys, StageReuse};

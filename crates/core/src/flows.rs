//! The unified [`Flow`] API.
//!
//! Every physical-design methodology the paper compares — the 2D
//! baseline, both Shrunk-2D styles, Compact-2D, and Macro-3D itself —
//! implements the same trait, so experiment drivers and benches can
//! iterate a `&[&dyn Flow]` instead of hard-coding one free function
//! per flow:
//!
//! ```no_run
//! use macro3d::flows::{standard_flows, Flow};
//! use macro3d::FlowConfig;
//! use macro3d_soc::{generate_tile, TileConfig};
//!
//! let tile = generate_tile(&TileConfig::small_cache().with_scale(32.0));
//! let cfg = FlowConfig::builder().sizing_rounds(0).build().unwrap();
//! for flow in standard_flows() {
//!     let outcome = flow.run(&tile, &cfg);
//!     println!("{}: {:.0} MHz", flow.name(), outcome.ppa.fclk_mhz);
//! }
//! ```
//!
//! [`Flow::run`] returns a [`FlowOutcome`] carrying the PPA row, the
//! full implemented design (for layout export and figure extraction),
//! and — for the S2D/C2D baselines — the partitioning diagnostics the
//! paper blames for their quality loss.

use crate::error::FlowError;
use crate::flow::{FlowConfig, ImplementedDesign};
use crate::report::PpaResult;
use crate::s2d::{S2dDiagnostics, S2dStyle};
use crate::stage::StageReuse;
use macro3d_obs::{FlowTrace, Session};
use macro3d_par::{BudgetScope, DegradationReport};
use macro3d_soc::TileNetlist;

/// Everything a flow produces in one run.
pub struct FlowOutcome {
    /// The PPA table row (flow label included).
    pub ppa: PpaResult,
    /// The full implemented design (placement, routes, reports).
    pub implemented: ImplementedDesign,
    /// Partitioning diagnostics — `Some` only for the S2D/C2D
    /// baselines, which split cells across dies after the fact.
    pub diagnostics: Option<S2dDiagnostics>,
    /// Observability trace — `Some` when `cfg.obs` was not off.
    pub obs: Option<FlowTrace>,
    /// What the stage budget (or fault plan) cut short, plus residual
    /// violations (non-convergent routing, unplaceable F2F bumps).
    /// Empty for a clean run; see [`DegradationReport::is_degraded`].
    pub degradation: DegradationReport,
    /// How many leading flow stages were restored from the worker's
    /// stage cache instead of recomputed (`0` = fully cold, `4` =
    /// only STA+sizing ran; see [`crate::stage`]). Always `0` for the
    /// pseudo-2D flows, which never use the stage cache, and when the
    /// run was given no [`StageReuse`].
    pub reuse_depth: usize,
}

/// The body every [`Flow::try_run_reusing`] shares: checks `cfg`
/// with [`FlowConfig::validate`] before anything opens, then runs
/// `implement` inside an obs session named after the flow, with the
/// config's budget (and fault plan) installed for the flow thread, and
/// assembles the [`FlowOutcome`] with the PPA row labelled `label`.
/// The pseudo-2D flows pass `reuse: None`. A run with `reuse` records
/// its stage hits and misses in the session
/// ([`StageReuse::record_obs`]).
///
/// The obs session and the budget scope both belong to the calling
/// thread, so flows on different threads run and record independently.
/// Both are torn down on the error path and on unwinding too, so a
/// failed flow never leaves its recorder or budget armed for the next
/// run on the thread.
fn run_flow(
    name: &str,
    label: String,
    cfg: &FlowConfig,
    reuse: Option<&mut StageReuse<'_>>,
    implement: impl FnOnce(
        Option<&mut StageReuse<'_>>,
    ) -> Result<(ImplementedDesign, Option<S2dDiagnostics>), FlowError>,
) -> Result<FlowOutcome, FlowError> {
    cfg.validate()?;
    let reuse_depth = reuse.as_deref().map_or(0, StageReuse::start_stage);
    let session = Session::start(cfg.obs, name);
    if let Some(r) = reuse.as_deref() {
        r.record_obs();
    }
    let scope = BudgetScope::begin(&cfg.budget, cfg.fault_plan.as_ref());
    let result = implement(reuse);
    let degradation = scope.finish();
    let obs = session.finish();
    let (implemented, diagnostics) = result?;
    Ok(FlowOutcome {
        ppa: PpaResult::from_impl(label, &implemented),
        implemented,
        diagnostics,
        obs,
        degradation,
        reuse_depth,
    })
}

/// A complete physical-design methodology, from tile netlist to
/// signed-off PPA.
pub trait Flow {
    /// Stable flow label (used as the PPA column header).
    fn name(&self) -> &str;

    /// Like [`Flow::try_run`], threading a stage-reuse view through
    /// the flow: with `Some(reuse)`, stages whose chained content
    /// keys match the worker's [`crate::stage::StageCache`] restore
    /// the previous run's boundary artifacts, and cold stages store
    /// theirs for the next run.
    /// [`FlowOutcome::reuse_depth`] reports the matched prefix. The
    /// pseudo-2D flows ignore `reuse`.
    ///
    /// # Errors
    ///
    /// As [`Flow::try_run`].
    fn try_run_reusing(
        &self,
        tile: &TileNetlist,
        cfg: &FlowConfig,
        reuse: Option<&mut StageReuse<'_>>,
    ) -> Result<FlowOutcome, FlowError>;

    /// Implements the tile under `cfg` and signs it off — the primary
    /// entry point. A budget-exhausted run *succeeds* with a
    /// populated [`FlowOutcome::degradation`]; only unrecoverable
    /// failures (unpackable floorplans, injected errors) return
    /// `Err`.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Config`] naming the field when `cfg`
    /// breaks a [`FlowConfig::validate`] rule, before any stage runs;
    /// otherwise a [`FlowError`] naming the failed stage and context.
    fn try_run(&self, tile: &TileNetlist, cfg: &FlowConfig) -> Result<FlowOutcome, FlowError> {
        self.try_run_reusing(tile, cfg, None)
    }

    /// Infallible wrapper over [`Self::try_run`] for drivers that
    /// treat any flow failure as fatal (the experiment binaries,
    /// benches, and tests).
    ///
    /// # Panics
    ///
    /// Panics with the flow name and the underlying [`FlowError`].
    fn run(&self, tile: &TileNetlist, cfg: &FlowConfig) -> FlowOutcome {
        match self.try_run(tile, cfg) {
            Ok(outcome) => outcome,
            Err(e) => panic!("flow '{}' failed: {e}", self.name()),
        }
    }
}

/// The conventional 2D flow (see [`crate::flow2d`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct Flow2d;

impl Flow for Flow2d {
    fn name(&self) -> &str {
        "2D"
    }

    fn try_run_reusing(
        &self,
        tile: &TileNetlist,
        cfg: &FlowConfig,
        reuse: Option<&mut StageReuse<'_>>,
    ) -> Result<FlowOutcome, FlowError> {
        run_flow(self.name(), self.name().into(), cfg, reuse, |reuse| {
            Ok((crate::flow2d::implement(tile, cfg, reuse)?, None))
        })
    }
}

/// The Shrunk-2D baseline in either floorplan style (see
/// [`crate::s2d`]).
#[derive(Clone, Copy, Debug)]
pub struct S2d {
    /// Macro floorplan style (memory-on-logic or balanced).
    pub style: S2dStyle,
}

impl Flow for S2d {
    fn name(&self) -> &str {
        match self.style {
            S2dStyle::MemoryOnLogic => "MoL S2D",
            S2dStyle::Balanced => "BF S2D",
        }
    }

    fn try_run_reusing(
        &self,
        tile: &TileNetlist,
        cfg: &FlowConfig,
        _reuse: Option<&mut StageReuse<'_>>,
    ) -> Result<FlowOutcome, FlowError> {
        run_flow(self.name(), self.name().into(), cfg, None, |_| {
            let (implemented, diag) = crate::s2d::implement(tile, cfg, self.style)?;
            Ok((implemented, Some(diag)))
        })
    }
}

/// The Compact-2D baseline (see [`crate::c2d`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct C2d;

impl Flow for C2d {
    fn name(&self) -> &str {
        "C2D"
    }

    fn try_run_reusing(
        &self,
        tile: &TileNetlist,
        cfg: &FlowConfig,
        _reuse: Option<&mut StageReuse<'_>>,
    ) -> Result<FlowOutcome, FlowError> {
        run_flow(self.name(), self.name().into(), cfg, None, |_| {
            let (implemented, diag) = crate::c2d::implement(tile, cfg)?;
            Ok((implemented, Some(diag)))
        })
    }
}

/// The Macro-3D flow — the paper's contribution (see
/// [`crate::macro3d_flow`]). The PPA label records the per-die metal
/// depths (e.g. `"Macro-3D M6-M4"`).
#[derive(Clone, Copy, Debug, Default)]
pub struct Macro3d;

impl Flow for Macro3d {
    fn name(&self) -> &str {
        "Macro-3D"
    }

    fn try_run_reusing(
        &self,
        tile: &TileNetlist,
        cfg: &FlowConfig,
        reuse: Option<&mut StageReuse<'_>>,
    ) -> Result<FlowOutcome, FlowError> {
        let label = format!("Macro-3D M{}-M{}", cfg.logic_metals, cfg.macro_metals);
        run_flow(self.name(), label, cfg, reuse, |reuse| {
            Ok((crate::macro3d_flow::implement(tile, cfg, reuse)?, None))
        })
    }
}

/// The four flows of the paper's Table I, in column order: 2D,
/// MoL S2D, BF S2D, Macro-3D.
pub fn standard_flows() -> [&'static dyn Flow; 4] {
    [
        &Flow2d,
        &S2d {
            style: S2dStyle::MemoryOnLogic,
        },
        &S2d {
            style: S2dStyle::Balanced,
        },
        &Macro3d,
    ]
}

/// Every flow in the repo (Table I's four plus C2D).
pub fn all_flows() -> [&'static dyn Flow; 5] {
    [
        &Flow2d,
        &S2d {
            style: S2dStyle::MemoryOnLogic,
        },
        &S2d {
            style: S2dStyle::Balanced,
        },
        &C2d,
        &Macro3d,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable() {
        let names: Vec<&str> = all_flows().iter().map(|f| f.name()).collect();
        assert_eq!(names, ["2D", "MoL S2D", "BF S2D", "C2D", "Macro-3D"]);
    }

    #[test]
    fn table1_order() {
        let names: Vec<&str> = standard_flows().iter().map(|f| f.name()).collect();
        assert_eq!(names, ["2D", "MoL S2D", "BF S2D", "Macro-3D"]);
    }
}

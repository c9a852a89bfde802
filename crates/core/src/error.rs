//! The typed [`FlowError`] taxonomy for fallible flow execution.
//!
//! [`crate::flows::Flow::try_run`] returns one of these instead of
//! panicking. There are three ways a run fails: a config field out of
//! range, a floorplan that cannot fit the design, and an error a fault
//! plan injects; each variant carries what diagnoses its case (the
//! field, the stage and die, or the checkpoint site). Hand-rolled like
//! [`crate::ConfigError`] — no external error crates.
//!
//! The taxonomy deliberately distinguishes *failure* (this type) from
//! *degradation* ([`macro3d_par::DegradationReport`] on a successful
//! [`crate::FlowOutcome`]): a stage that can return best-so-far state
//! degrades; a stage with nothing usable to return errors.

use crate::config::ConfigError;
use std::fmt;

use macro3d_par::{checkpoint, note_degradation, site_visits, Checkpoint, StopReason};

/// A failed flow run (see [`crate::flows::Flow::try_run`]).
#[derive(Clone, Debug, PartialEq)]
pub enum FlowError {
    /// The flow configuration broke a [`crate::FlowConfig::validate`]
    /// rule; the error names the field. Checked before any stage runs.
    Config(ConfigError),
    /// Floorplanning could not fit the design: macro packing failed
    /// on the computed die.
    Floorplan {
        /// The stage that failed (e.g. `"2d/macro_pack"`).
        stage: &'static str,
        /// What did not fit, and where.
        detail: String,
    },
    /// A fault plan injected an error at a flow gate (see
    /// [`macro3d_par::FaultPlan`] and [`macro3d_par::FaultAction::Error`]).
    Injected {
        /// The checkpoint site the fault fired at.
        site: String,
        /// The site's visit count when it fired.
        visit: u64,
    },
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::Config(e) => write!(f, "invalid flow config: {e}"),
            FlowError::Floorplan { stage, detail } => {
                write!(f, "floorplan failed at {stage}: {detail}")
            }
            FlowError::Injected { site, visit } => {
                write!(f, "injected error at site {site} (visit {visit})")
            }
        }
    }
}

impl std::error::Error for FlowError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FlowError::Config(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for FlowError {
    fn from(e: ConfigError) -> Self {
        FlowError::Config(e)
    }
}

/// A fallible flow gate: visits the budget checkpoint `site` between
/// stages. An injected error becomes a typed [`FlowError::Injected`];
/// any other stop (deadline, cap, injected exhaustion) records a
/// degradation and lets the flow proceed — the downstream engine
/// loops will themselves wind down at their own checkpoints.
pub(crate) fn flow_gate(site: &'static str) -> Result<(), FlowError> {
    match checkpoint(site) {
        Checkpoint::Continue => Ok(()),
        Checkpoint::Stop(StopReason::InjectedError) => Err(FlowError::Injected {
            site: site.to_string(),
            visit: site_visits(site),
        }),
        Checkpoint::Stop(reason) => {
            note_degradation(site, reason, "stage entered with exhausted budget");
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use macro3d_par::{BudgetScope, FaultAction, FaultPlan, FlowBudget};

    #[test]
    fn display_names_the_stage_and_context() {
        let e = FlowError::Floorplan {
            stage: "2d/macro_pack",
            detail: "17 macros, die 800x800um".into(),
        };
        let msg = e.to_string();
        assert!(
            msg.contains("2d/macro_pack") && msg.contains("800x800"),
            "{msg}"
        );

        let e = FlowError::Injected {
            site: "flow/route".into(),
            visit: 1,
        };
        assert!(e.to_string().contains("flow/route"), "{e}");
    }

    #[test]
    fn config_error_wraps_with_source() {
        use std::error::Error as _;
        let cfg_err = crate::FlowConfig::builder()
            .util_logic(65.0)
            .build()
            .unwrap_err();
        let e = FlowError::from(cfg_err.clone());
        assert_eq!(e, FlowError::Config(cfg_err));
        assert!(e.source().is_some());
        assert!(e.to_string().contains("util_logic"));
    }

    #[test]
    fn gate_maps_injected_error_and_degrades_on_exhaust() {
        let plan = FaultPlan::new()
            .with_fault("flow/route", 1, FaultAction::Error)
            .with_fault("flow/extract", 1, FaultAction::Exhaust);
        let scope = BudgetScope::begin(&FlowBudget::unlimited(), Some(&plan));
        assert!(flow_gate("flow/place").is_ok());
        assert_eq!(
            flow_gate("flow/route"),
            Err(FlowError::Injected {
                site: "flow/route".into(),
                visit: 1
            })
        );
        assert!(flow_gate("flow/extract").is_ok(), "exhaust degrades");
        let report = scope.finish();
        assert!(report.stage("flow/extract").is_some());
        assert!(report.stage("flow/place").is_none());
    }
}

//! Validated construction of [`FlowConfig`].
//!
//! `FlowConfig` is plain data and can be built literally, but most
//! call sites want the defaults plus a couple of overrides — and a
//! typo like `util_logic = 60.0` (percent instead of fraction) used
//! to surface only as a nonsensical floorplan. The builder checks
//! every range at [`FlowConfigBuilder::build`] time and returns a
//! [`ConfigError`] naming the offending field instead.

use crate::flow::FlowConfig;
use macro3d_par::{FaultPlan, FlowBudget, Parallelism};
use macro3d_place::GlobalPlaceConfig;
use macro3d_route::RouteConfig;
use macro3d_sta::CtsConfig;
use std::fmt;

/// A rejected [`FlowConfig`] field (see [`FlowConfigBuilder::build`]).
#[derive(Clone, Debug, PartialEq)]
pub enum ConfigError {
    /// A utilization target fell outside `(0, 1]`.
    Utilization {
        /// Offending field.
        field: &'static str,
        /// Rejected value.
        value: f64,
    },
    /// A metal stack was configured with zero layers.
    ZeroMetalLayers {
        /// Offending field.
        field: &'static str,
    },
    /// A length or period that must be strictly positive was not.
    NonPositive {
        /// Offending field.
        field: &'static str,
        /// Rejected value.
        value: f64,
    },
    /// A value that must be non-negative was negative.
    Negative {
        /// Offending field.
        field: &'static str,
        /// Rejected value.
        value: f64,
    },
    /// A parallelism chunk size of zero (no work per batch).
    ZeroChunkSize,
    /// A router search cost that is not finite and > 0 once converted
    /// to the router's `f32` (see [`macro3d_route::valid_search_cost`]).
    InvalidCost {
        /// Offending field.
        field: &'static str,
        /// Rejected value.
        value: f64,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Utilization { field, value } => {
                write!(f, "{field} must be in (0, 1], got {value}")
            }
            ConfigError::ZeroMetalLayers { field } => {
                write!(f, "{field} must be at least 1 metal layer")
            }
            ConfigError::NonPositive { field, value } => {
                write!(f, "{field} must be > 0, got {value}")
            }
            ConfigError::Negative { field, value } => {
                write!(f, "{field} must be >= 0, got {value}")
            }
            ConfigError::ZeroChunkSize => {
                write!(f, "parallelism chunk_size must be >= 1")
            }
            ConfigError::InvalidCost { field, value } => {
                write!(f, "{field} must be finite and > 0 as f32, got {value}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Builds a [`FlowConfig`] with range validation (see the module
/// docs). Obtain one via [`FlowConfig::builder`].
///
/// # Examples
///
/// ```
/// use macro3d::FlowConfig;
///
/// let cfg = FlowConfig::builder()
///     .macro_metals(4)
///     .util_logic(0.65)
///     .threads(4)
///     .build()
///     .expect("valid config");
/// assert_eq!(cfg.macro_metals, 4);
///
/// let err = FlowConfig::builder().util_logic(65.0).build();
/// assert!(err.is_err());
/// ```
#[derive(Clone, Debug)]
pub struct FlowConfigBuilder {
    cfg: FlowConfig,
}

impl FlowConfigBuilder {
    /// Starts from [`FlowConfig::default`].
    pub fn new() -> Self {
        FlowConfigBuilder {
            cfg: FlowConfig::default(),
        }
    }

    /// Metal layers on the logic die.
    pub fn logic_metals(mut self, n: usize) -> Self {
        self.cfg.logic_metals = n;
        self
    }

    /// Metal layers on the macro die.
    pub fn macro_metals(mut self, n: usize) -> Self {
        self.cfg.macro_metals = n;
        self
    }

    /// Standard-cell region utilization target, in `(0, 1]`.
    pub fn util_logic(mut self, u: f64) -> Self {
        self.cfg.util_logic = u;
        self
    }

    /// Macro packing utilization target, in `(0, 1]`.
    pub fn util_macro(mut self, u: f64) -> Self {
        self.cfg.util_macro = u;
        self
    }

    /// Macro keep-out halo, µm.
    pub fn halo_um(mut self, um: f64) -> Self {
        self.cfg.halo_um = um;
        self
    }

    /// Repeater insertion threshold, µm of HPWL.
    pub fn repeater_max_len_um(mut self, um: f64) -> Self {
        self.cfg.repeater_max_len_um = um;
        self
    }

    /// Post-route sizing iterations.
    pub fn sizing_rounds(mut self, rounds: usize) -> Self {
        self.cfg.sizing_rounds = rounds;
        self
    }

    /// Partial-blockage quantization period, µm.
    pub fn partial_blockage_period_um(mut self, um: f64) -> Self {
        self.cfg.partial_blockage_period_um = um;
        self
    }

    /// Replaces the router settings wholesale.
    pub fn route(mut self, route: RouteConfig) -> Self {
        self.cfg.route = route;
        self
    }

    /// Replaces the CTS settings wholesale.
    pub fn cts(mut self, cts: CtsConfig) -> Self {
        self.cfg.cts = cts;
        self
    }

    /// Replaces the global-placement settings wholesale.
    pub fn place(mut self, place: GlobalPlaceConfig) -> Self {
        self.cfg.place = place;
        self
    }

    /// Selects the global-placement backend: recursive bisection
    /// (default) or the ePlace-style analytical placer. The analytical
    /// backend also switches base legalization from Tetris first-fit
    /// to Abacus cluster collapse.
    pub fn placer(mut self, backend: macro3d_place::PlacerBackend) -> Self {
        self.cfg.place.backend = backend;
        self
    }

    /// Sets the parallelism knob for *every* engine: extraction and
    /// STA (`FlowConfig::parallelism`), the batched router
    /// (`RouteConfig::parallelism`), and the fork-join placer
    /// (`GlobalPlaceConfig::parallelism`).
    pub fn parallelism(mut self, par: Parallelism) -> Self {
        self.cfg.parallelism = par;
        self.cfg.route.parallelism = par;
        self.cfg.place.parallelism = par;
        self
    }

    /// Shorthand for [`Self::parallelism`] keeping the default chunk
    /// sizes: `0` = all hardware threads, `1` = serial.
    pub fn threads(mut self, threads: usize) -> Self {
        self.cfg.parallelism.threads = threads;
        self.cfg.route.parallelism.threads = threads;
        self.cfg.place.parallelism.threads = threads;
        self
    }

    /// Observability level for the flow run (off / summary / full).
    pub fn obs(mut self, obs: macro3d_obs::ObsConfig) -> Self {
        self.cfg.obs = obs;
        self
    }

    /// Stage budget: wall-clock deadline and per-site iteration caps.
    /// Exhaustion degrades gracefully (best-so-far results, reported
    /// in `FlowOutcome::degradation`) — it never errors.
    pub fn budget(mut self, budget: FlowBudget) -> Self {
        self.cfg.budget = budget;
        self
    }

    /// Deterministic fault plan for robustness testing: injects
    /// exhaustion or errors at named budget checkpoints.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.cfg.fault_plan = Some(plan);
        self
    }

    /// Validates every range and returns the config.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] encountered: utilizations
    /// (flow and router) outside `(0, 1]`, zero metal layers, zero or
    /// negative lengths/periods, a zero parallelism chunk size, or a
    /// router `via_cost` that is not finite and > 0 as `f32`.
    pub fn build(self) -> Result<FlowConfig, ConfigError> {
        let cfg = self.cfg;
        for (field, value) in [
            ("util_logic", cfg.util_logic),
            ("util_macro", cfg.util_macro),
            ("route.utilization", cfg.route.utilization),
        ] {
            if !(value > 0.0 && value <= 1.0) {
                return Err(ConfigError::Utilization { field, value });
            }
        }
        for (field, value) in [
            ("logic_metals", cfg.logic_metals),
            ("macro_metals", cfg.macro_metals),
        ] {
            if value == 0 {
                return Err(ConfigError::ZeroMetalLayers { field });
            }
        }
        for (field, value) in [
            ("repeater_max_len_um", cfg.repeater_max_len_um),
            ("partial_blockage_period_um", cfg.partial_blockage_period_um),
            ("route.gcell_um", cfg.route.gcell_um),
        ] {
            if value.is_nan() || value <= 0.0 {
                return Err(ConfigError::NonPositive { field, value });
            }
        }
        if cfg.halo_um.is_nan() || cfg.halo_um < 0.0 {
            return Err(ConfigError::Negative {
                field: "halo_um",
                value: cfg.halo_um,
            });
        }
        if cfg.parallelism.chunk_size == 0 || cfg.route.parallelism.chunk_size == 0 {
            return Err(ConfigError::ZeroChunkSize);
        }
        if !macro3d_route::valid_search_cost(cfg.route.via_cost) {
            return Err(ConfigError::InvalidCost {
                field: "route.via_cost",
                value: cfg.route.via_cost,
            });
        }
        Ok(cfg)
    }
}

impl Default for FlowConfigBuilder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_build() {
        let cfg = FlowConfig::builder().build().expect("defaults are valid");
        assert_eq!(cfg.logic_metals, 6);
        assert_eq!(cfg.sizing_rounds, 8);
    }

    #[test]
    fn rejects_out_of_range_utilization() {
        for bad in [0.0, -0.2, 1.5, f64::NAN] {
            let err = FlowConfig::builder().util_logic(bad).build().unwrap_err();
            assert!(
                matches!(
                    err,
                    ConfigError::Utilization {
                        field: "util_logic",
                        ..
                    }
                ),
                "{bad}: {err}"
            );
        }
        assert!(FlowConfig::builder().util_macro(1.0).build().is_ok());
    }

    #[test]
    fn rejects_zero_metals_and_bad_lengths() {
        assert!(matches!(
            FlowConfig::builder().logic_metals(0).build().unwrap_err(),
            ConfigError::ZeroMetalLayers {
                field: "logic_metals"
            }
        ));
        assert!(matches!(
            FlowConfig::builder().macro_metals(0).build().unwrap_err(),
            ConfigError::ZeroMetalLayers {
                field: "macro_metals"
            }
        ));
        assert!(matches!(
            FlowConfig::builder()
                .repeater_max_len_um(0.0)
                .build()
                .unwrap_err(),
            ConfigError::NonPositive { .. }
        ));
        assert!(matches!(
            FlowConfig::builder().halo_um(-1.0).build().unwrap_err(),
            ConfigError::Negative {
                field: "halo_um",
                ..
            }
        ));
    }

    #[test]
    fn rejects_bad_route_config() {
        let route = RouteConfig {
            utilization: 2.0,
            ..RouteConfig::default()
        };
        let err = FlowConfig::builder().route(route).build().unwrap_err();
        assert!(matches!(
            err,
            ConfigError::Utilization {
                field: "route.utilization",
                ..
            }
        ));

        let mut route = RouteConfig::default();
        route.parallelism.chunk_size = 0;
        assert_eq!(
            FlowConfig::builder().route(route).build().unwrap_err(),
            ConfigError::ZeroChunkSize
        );
    }

    /// NaN would block every A* via step and poison the pattern costs.
    #[test]
    fn rejects_nan_via_cost() {
        let route = RouteConfig {
            via_cost: f64::NAN,
            ..RouteConfig::default()
        };
        let err = FlowConfig::builder().route(route).build().unwrap_err();
        assert!(
            matches!(
                err,
                ConfigError::InvalidCost {
                    field: "route.via_cost",
                    ..
                }
            ),
            "{err}"
        );
    }

    /// Negative, zero, and values that reach the router's `f32` as 0
    /// or infinity are rejected; the default passes.
    #[test]
    fn rejects_negative_via_cost() {
        for bad in [-1.0, 0.0, 1e-60, 1e60, f64::INFINITY] {
            let route = RouteConfig {
                via_cost: bad,
                ..RouteConfig::default()
            };
            let err = FlowConfig::builder().route(route).build().unwrap_err();
            assert!(
                matches!(err, ConfigError::InvalidCost { .. }),
                "{bad}: {err}"
            );
            assert!(err.to_string().contains("route.via_cost"), "{err}");
        }
        assert!(FlowConfig::builder()
            .route(RouteConfig {
                via_cost: 1e30,
                ..RouteConfig::default()
            })
            .build()
            .is_ok());
    }

    #[test]
    fn parallelism_reaches_both_knobs() {
        let par = Parallelism::threads(3).with_chunk_size(5);
        let cfg = FlowConfig::builder()
            .parallelism(par)
            .build()
            .expect("valid");
        assert_eq!(cfg.parallelism, par);
        assert_eq!(cfg.route.parallelism, par);
        assert_eq!(cfg.place.parallelism, par);

        let cfg = FlowConfig::builder().threads(7).build().expect("valid");
        assert_eq!(cfg.parallelism.threads, 7);
        assert_eq!(cfg.route.parallelism.threads, 7);
        assert_eq!(cfg.place.parallelism.threads, 7);
        // chunk sizes keep their defaults
        assert_eq!(
            cfg.parallelism.chunk_size,
            Parallelism::default().chunk_size
        );
    }

    #[test]
    fn errors_render_the_field() {
        let err = FlowConfig::builder().util_logic(65.0).build().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("util_logic") && msg.contains("65"), "{msg}");
    }

    #[test]
    fn obs_defaults_off_and_builder_sets_it() {
        let cfg = FlowConfig::builder().build().expect("valid");
        assert!(cfg.obs.is_off());
        let cfg = FlowConfig::builder()
            .obs(macro3d_obs::ObsConfig::full())
            .build()
            .expect("valid");
        assert_eq!(cfg.obs, macro3d_obs::ObsConfig::full());
    }
}

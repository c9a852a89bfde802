//! The one table of range rules for [`FlowConfig`].
//!
//! `FlowConfig` is plain data: it is built literally, decoded from
//! JSON, or changed one field at a time by a DSE knob. A typo like
//! `util_logic = 60.0` (percent instead of fraction) used to surface
//! only as a nonsensical floorplan. [`FlowConfig::validate`] checks
//! every range and returns a [`ConfigError`] naming the offending
//! field instead. It has three callers:
//!
//! * [`FlowConfigBuilder::build`];
//! * every flow run: [`crate::flows::Flow::try_run`] returns
//!   [`crate::FlowError::Config`] before any stage starts;
//! * the DSE knob parser (`macro3d_dse::sweep::apply_knob`), so a bad
//!   knob is refused before its job is submitted.

use crate::flow::FlowConfig;
use macro3d_par::Parallelism;
use std::fmt;

/// A [`FlowConfig`] field outside its range (see
/// [`FlowConfig::validate`]).
#[derive(Clone, Debug, PartialEq)]
pub struct ConfigError {
    /// The offending field, as a path from the `FlowConfig` root
    /// (e.g. `"route.iterations"`).
    pub field: &'static str,
    /// The range it must lie in, e.g. `"in (0, 1]"`.
    pub rule: &'static str,
    /// The rejected value.
    pub value: f64,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} must be {}, got {}",
            self.field, self.rule, self.value
        )
    }
}

impl std::error::Error for ConfigError {}

fn require(
    holds: bool,
    field: &'static str,
    rule: &'static str,
    value: f64,
) -> Result<(), ConfigError> {
    if holds {
        Ok(())
    } else {
        Err(ConfigError { field, rule, value })
    }
}

impl FlowConfig {
    /// Starts a validated builder seeded with the defaults.
    pub fn builder() -> FlowConfigBuilder {
        FlowConfigBuilder {
            cfg: FlowConfig::default(),
        }
    }

    /// Checks every range rule of the flow and its engines.
    ///
    /// # Errors
    ///
    /// Returns the first broken rule, in this order: a utilization
    /// (flow or router) outside `(0, 1]`; a metal-layer count, router
    /// iteration count or parallelism chunk size (flow, router or
    /// placer) of zero; a length that is not finite and > 0 (repeater
    /// threshold, partial-blockage period, and the F2F bond pitch when
    /// set); a halo that is not finite and >= 0; or a
    /// router `via_cost` that is not finite and > 0 once converted to
    /// the router's `f32` (see [`macro3d_route::valid_search_cost`]).
    pub fn validate(&self) -> Result<(), ConfigError> {
        for (field, value) in [
            ("util_logic", self.util_logic),
            ("util_macro", self.util_macro),
            ("route.utilization", self.route.utilization),
        ] {
            require(value > 0.0 && value <= 1.0, field, "in (0, 1]", value)?;
        }
        for (field, count) in [
            ("logic_metals", self.logic_metals),
            ("macro_metals", self.macro_metals),
            ("route.iterations", self.route.iterations),
            ("parallelism.chunk_size", self.parallelism.chunk_size),
            (
                "route.parallelism.chunk_size",
                self.route.parallelism.chunk_size,
            ),
            (
                "place.parallelism.chunk_size",
                self.place.parallelism.chunk_size,
            ),
        ] {
            require(count >= 1, field, ">= 1", count as f64)?;
        }
        let pitch = self.route.f2f_pitch_um.map(|p| ("route.f2f_pitch_um", p));
        for (field, value) in [
            ("repeater_max_len_um", self.repeater_max_len_um),
            (
                "partial_blockage_period_um",
                self.partial_blockage_period_um,
            ),
        ]
        .into_iter()
        .chain(pitch)
        {
            require(
                value.is_finite() && value > 0.0,
                field,
                "finite and > 0",
                value,
            )?;
        }
        let halo = self.halo_um;
        require(
            halo.is_finite() && halo >= 0.0,
            "halo_um",
            "finite and >= 0",
            halo,
        )?;
        let via_cost = self.route.via_cost;
        require(
            macro3d_route::valid_search_cost(via_cost),
            "route.via_cost",
            "finite and > 0 as f32",
            via_cost,
        )
    }
}

/// Builds a [`FlowConfig`] from the defaults plus a few overrides and
/// checks it with [`FlowConfig::validate`]. Obtain one via
/// [`FlowConfig::builder`]; for any other field, write it on
/// [`FlowConfig::default`] and call `validate`.
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
/// let err = FlowConfig::builder().util_logic(65.0).build().unwrap_err();
/// assert_eq!(err.field, "util_logic");
/// ```
#[derive(Clone, Debug)]
pub struct FlowConfigBuilder {
    cfg: FlowConfig,
}

impl FlowConfigBuilder {
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

    /// Post-route sizing iterations.
    pub fn sizing_rounds(mut self, rounds: usize) -> Self {
        self.cfg.sizing_rounds = rounds;
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

    /// Checks the config with [`FlowConfig::validate`] and returns it.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] `validate` finds.
    pub fn build(self) -> Result<FlowConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flows::{all_flows, Flow, Macro3d};
    use crate::FlowError;
    use macro3d_soc::TileConfig;

    /// The field `validate` refuses after `edit` on the defaults, or
    /// `None` when the edited config passes.
    fn refused(edit: impl FnOnce(&mut FlowConfig)) -> Option<&'static str> {
        let mut cfg = FlowConfig::default();
        edit(&mut cfg);
        cfg.validate().err().map(|e| e.field)
    }

    /// One out-of-range value per field of the rule table.
    type Edit = fn(&mut FlowConfig);
    const ONE_BAD_VALUE_PER_FIELD: [(&str, Edit); 14] = [
        ("util_logic", |c| c.util_logic = 60.0),
        ("util_macro", |c| c.util_macro = 0.0),
        ("route.utilization", |c| c.route.utilization = 1.01),
        ("logic_metals", |c| c.logic_metals = 0),
        ("macro_metals", |c| c.macro_metals = 0),
        ("route.iterations", |c| c.route.iterations = 0),
        ("parallelism.chunk_size", |c| c.parallelism.chunk_size = 0),
        ("route.parallelism.chunk_size", |c| {
            c.route.parallelism.chunk_size = 0
        }),
        ("place.parallelism.chunk_size", |c| {
            c.place.parallelism.chunk_size = 0
        }),
        ("repeater_max_len_um", |c| c.repeater_max_len_um = 0.0),
        ("partial_blockage_period_um", |c| {
            c.partial_blockage_period_um = -8.0
        }),
        ("route.f2f_pitch_um", |c| c.route.f2f_pitch_um = Some(-1.0)),
        ("halo_um", |c| c.halo_um = -50.0),
        ("route.via_cost", |c| c.route.via_cost = f64::NAN),
    ];

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
            assert_eq!(err.field, "util_logic", "{bad}: {err}");
        }
        for bad in [0.0, -0.5, 1.01, f64::NAN] {
            assert_eq!(
                refused(|c| c.route.utilization = bad),
                Some("route.utilization"),
                "{bad}"
            );
        }
        assert_eq!(refused(|c| c.util_macro = 1.0), None);
        assert_eq!(refused(|c| c.route.utilization = 0.25), None);
    }

    #[test]
    fn every_field_is_refused_by_name() {
        for (field, edit) in ONE_BAD_VALUE_PER_FIELD {
            assert_eq!(refused(edit), Some(field));
        }
        // the lower bound of a count is in range: one router pass
        assert_eq!(refused(|c| c.route.iterations = 1), None);
    }

    #[test]
    fn rejects_bad_lengths() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert_eq!(
                refused(|c| c.repeater_max_len_um = bad),
                Some("repeater_max_len_um"),
                "{bad}"
            );
            assert_eq!(
                refused(|c| c.partial_blockage_period_um = bad),
                Some("partial_blockage_period_um"),
                "{bad}"
            );
            // a pitch of -1 would allow one bump per GCell
            assert_eq!(
                refused(|c| c.route.f2f_pitch_um = Some(bad)),
                Some("route.f2f_pitch_um"),
                "{bad}"
            );
        }
        assert_eq!(refused(|c| c.repeater_max_len_um = 5.0), None);
        assert_eq!(refused(|c| c.route.f2f_pitch_um = None), None);
        assert_eq!(refused(|c| c.route.f2f_pitch_um = Some(10.0)), None);
        for bad in [-1.0, f64::NAN, f64::INFINITY] {
            assert_eq!(refused(|c| c.halo_um = bad), Some("halo_um"), "{bad}");
        }
        assert_eq!(refused(|c| c.halo_um = 0.0), None);
    }

    /// NaN would block every A* via step and poison the pattern costs.
    #[test]
    fn rejects_nan_via_cost() {
        let mut cfg = FlowConfig::default();
        cfg.route.via_cost = f64::NAN;
        assert_eq!(
            cfg.validate().unwrap_err().to_string(),
            "route.via_cost must be finite and > 0 as f32, got NaN"
        );
    }

    /// A negative cost would make edge costs negative; zero, and
    /// values that reach the router's `f32` as 0 or infinity, are
    /// rejected too.
    #[test]
    fn rejects_negative_via_cost() {
        for bad in [-2.0, -0.0, 0.0, 1e-60, 1e60, f64::INFINITY] {
            assert_eq!(
                refused(|c| c.route.via_cost = bad),
                Some("route.via_cost"),
                "{bad}"
            );
        }
        for good in [1e-30, 0.5, 2.0, 1e30] {
            assert_eq!(refused(|c| c.route.via_cost = good), None, "{good}");
        }
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
        let cfg = FlowConfig {
            partial_blockage_period_um: -2.0,
            ..FlowConfig::default()
        };
        let msg = cfg.validate().unwrap_err().to_string();
        assert!(
            msg.contains("partial_blockage_period_um") && msg.contains("-2"),
            "{msg}"
        );
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

    /// `try_run` refuses a config that never went through the builder,
    /// naming the field of each rule.
    #[test]
    fn try_run_refuses_every_rule_by_name() {
        let tile = crate::build_cache::cached_tile(&TileConfig::mini());
        for (field, edit) in ONE_BAD_VALUE_PER_FIELD {
            let mut cfg = FlowConfig::default();
            edit(&mut cfg);
            match Macro3d.try_run(&tile, &cfg) {
                Err(FlowError::Config(e)) => assert_eq!(e.field, field, "{e}"),
                Err(e) => panic!("{field}: expected a config error, got {e}"),
                Ok(_) => panic!("{field}: the flow ran"),
            }
        }
    }

    #[test]
    fn every_flow_refuses_a_zero_iteration_router() {
        let tile = crate::build_cache::cached_tile(&TileConfig::mini());
        let mut cfg = FlowConfig::default();
        cfg.route.iterations = 0;
        for flow in all_flows() {
            let err = flow.try_run(&tile, &cfg).err();
            assert!(
                err.as_ref().is_some_and(|e| e.to_string()
                    == "invalid flow config: route.iterations must be >= 1, got 0"),
                "{}: {err:?}",
                flow.name()
            );
        }
    }
}

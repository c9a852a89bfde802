//! Sweep planning: knob grids → jobs → streamed results → Pareto.
//!
//! A [`SweepSpec`] is a base [`JobSpec`] plus axes; [`expand`] takes
//! the cartesian product in a fixed, documented order (first axis
//! slowest, last axis fastest — an odometer), so point indices and
//! labels are stable across runs, which the determinism tests rely
//! on. [`run_sweep`] submits every point up front (the executor's
//! bounded queue provides backpressure), then collects results *in
//! point order*, invoking a streaming callback per point, and
//! finishes with a Pareto front over the classic PPA triple:
//! maximize `fclk_mhz`, minimize `emean_fj`, minimize
//! `footprint_mm2`.

use crate::executor::{DseClient, JobError, JobResult, SubmitError};
use crate::{flow_by_name, tile_preset, JobSpec};
use macro3d::{FaultAction, FaultPlan, PlacerBackend};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// One swept knob and the values it takes (as CLI-style strings).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SweepAxis {
    /// Knob name; see [`apply_knob`] for the vocabulary.
    pub knob: String,
    /// Values, applied verbatim through [`apply_knob`].
    pub values: Vec<String>,
}

impl SweepAxis {
    /// Convenience constructor.
    pub fn new(knob: impl Into<String>, values: &[&str]) -> Self {
        SweepAxis {
            knob: knob.into(),
            values: values.iter().map(|v| v.to_string()).collect(),
        }
    }
}

/// A base spec and the grid swept around it.
#[derive(Clone, Debug)]
pub struct SweepSpec {
    /// Applied first; every point starts from a clone of this.
    pub base: JobSpec,
    /// The grid. Empty axes list = the single base point.
    pub axes: Vec<SweepAxis>,
}

/// One expanded grid point.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// `"l2_kb=16,macro_metals=4"` — or `"base"` for an axis-free
    /// sweep.
    pub label: String,
    /// The fully-knobbed spec.
    pub spec: JobSpec,
}

/// A bad knob name or value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KnobError(String);

impl fmt::Display for KnobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "knob error: {}", self.0)
    }
}

impl std::error::Error for KnobError {}

fn bad(msg: impl Into<String>) -> KnobError {
    KnobError(msg.into())
}

/// Applies one `knob=value` setting to a spec. The vocabulary covers
/// the paper's headline sweep dimensions (cache sizes, metal/BEOL
/// stacks, F2F pitch) plus flow/backend selection and the knobs the
/// smoke tests turn down for speed.
///
/// # Errors
///
/// An unknown knob, a value that does not parse, a `scale` that is not
/// a finite number >= 1, a `budget_wall_s` that is not a finite
/// number > 0, or a config that then breaks a
/// [`macro3d::FlowConfig::validate`] rule (the error names the field).
/// On error the spec is left half-applied and should be dropped.
pub fn apply_knob(spec: &mut JobSpec, knob: &str, value: &str) -> Result<(), KnobError> {
    fn num<T: std::str::FromStr>(knob: &str, value: &str) -> Result<T, KnobError> {
        value
            .parse::<T>()
            .map_err(|_| bad(format!("'{value}' is not a valid value for {knob}")))
    }
    match knob {
        "flow" => {
            if flow_by_name(value).is_none() {
                return Err(bad(format!("unknown flow '{value}'")));
            }
            spec.flow = value.to_string();
        }
        "tile" => {
            spec.tile =
                tile_preset(value).ok_or_else(|| bad(format!("unknown tile preset '{value}'")))?;
        }
        "l1i_kb" => spec.tile.l1i_kb = num(knob, value)?,
        "l1d_kb" => spec.tile.l1d_kb = num(knob, value)?,
        "l2_kb" => spec.tile.l2_kb = num(knob, value)?,
        "l3_kb" => spec.tile.l3_kb = num(knob, value)?,
        "scale" => {
            // the rule the experiment binaries apply to `--scale`
            let scale = value.parse::<f64>().ok();
            spec.tile.scale = scale
                .filter(|s| s.is_finite() && *s >= 1.0)
                .ok_or_else(|| bad(format!("scale must be a finite number >= 1, got '{value}'")))?;
        }
        "seed" => spec.tile.seed = num(knob, value)?,
        "logic_metals" => spec.config.logic_metals = num(knob, value)?,
        "macro_metals" => spec.config.macro_metals = num(knob, value)?,
        "util_logic" => spec.config.util_logic = num(knob, value)?,
        "util_macro" => spec.config.util_macro = num(knob, value)?,
        "halo_um" => spec.config.halo_um = num(knob, value)?,
        "sizing_rounds" => spec.config.sizing_rounds = num(knob, value)?,
        "route_iterations" => spec.config.route.iterations = num(knob, value)?,
        "f2f_pitch_um" => {
            spec.config.route.f2f_pitch_um = if value == "none" {
                None
            } else {
                Some(num(knob, value)?)
            };
        }
        "placer" => {
            spec.config.place.backend = match value {
                "bisection" => PlacerBackend::Bisection,
                "analytical" => PlacerBackend::Analytical,
                _ => return Err(bad(format!("unknown placer '{value}'"))),
            };
        }
        "threads" => {
            let threads: usize = num(knob, value)?;
            spec.config.parallelism.threads = threads;
            spec.config.route.parallelism.threads = threads;
            spec.config.place.parallelism.threads = threads;
        }
        "budget_wall_s" => {
            // budgets key every stage and disable stage reuse (see
            // macro3d::stage); `none` restores the unlimited default
            spec.config.budget.wall_clock = if value == "none" {
                None
            } else {
                let secs = value.parse::<f64>().ok();
                let wall = secs.and_then(|s| std::time::Duration::try_from_secs_f64(s).ok());
                Some(wall.filter(|w| !w.is_zero()).ok_or_else(|| {
                    bad(format!(
                        "budget_wall_s must be a finite number > 0 (or 'none'), got '{value}'"
                    ))
                })?)
            };
        }
        "fault_site" => {
            // plant a deterministic budget-exhaust fault at a
            // checkpoint site; the run completes degraded, not failed
            spec.config.fault_plan = if value == "none" {
                None
            } else {
                Some(FaultPlan::new().with_fault(value, 1, FaultAction::Exhaust))
            };
        }
        _ => return Err(bad(format!("unknown knob '{knob}'"))),
    }
    spec.config
        .validate()
        .map_err(|e| bad(format!("{knob}={value}: {e}")))
}

/// Expands the grid into points, odometer order (last axis fastest).
///
/// # Errors
///
/// Any invalid knob name/value in any axis.
pub fn expand(sweep: &SweepSpec) -> Result<Vec<SweepPoint>, KnobError> {
    for axis in &sweep.axes {
        if axis.values.is_empty() {
            return Err(bad(format!("axis '{}' has no values", axis.knob)));
        }
    }
    let total: usize = sweep.axes.iter().map(|a| a.values.len()).product();
    let mut points = Vec::with_capacity(total);
    let mut odometer = vec![0usize; sweep.axes.len()];
    loop {
        let mut spec = sweep.base.clone();
        let mut label_parts = Vec::with_capacity(sweep.axes.len());
        for (axis, &digit) in sweep.axes.iter().zip(&odometer) {
            let value = &axis.values[digit];
            apply_knob(&mut spec, &axis.knob, value)?;
            label_parts.push(format!("{}={value}", axis.knob));
        }
        let label = if label_parts.is_empty() {
            "base".to_string()
        } else {
            label_parts.join(",")
        };
        points.push(SweepPoint { label, spec });
        // increment, last axis fastest
        let mut pos = sweep.axes.len();
        loop {
            if pos == 0 {
                return Ok(points);
            }
            pos -= 1;
            odometer[pos] += 1;
            if odometer[pos] < sweep.axes[pos].values.len() {
                break;
            }
            odometer[pos] = 0;
        }
    }
}

/// One sweep point's outcome: the result, or the failure message.
#[derive(Clone, Debug)]
pub struct PointResult {
    /// Stable point label from [`expand`].
    pub label: String,
    /// Outcome; `Err` carries the executor's failure message.
    pub result: Result<Arc<JobResult>, String>,
}

impl PointResult {
    /// The successful result, if any.
    pub fn ok(&self) -> Option<&Arc<JobResult>> {
        self.result.as_ref().ok()
    }
}

/// The full sweep's outcome.
#[derive(Clone, Debug)]
pub struct SweepOutcome {
    /// Per-point results, in grid order.
    pub points: Vec<PointResult>,
    /// Indices into `points` on the Pareto front (max `fclk_mhz`,
    /// min `emean_fj`, min `footprint_mm2`), in grid order.
    pub pareto: Vec<usize>,
    /// Wall-clock seconds for the whole sweep.
    pub wall_s: f64,
}

/// Expands the sweep, submits every point, and streams results back
/// in grid order through `on_point`. Individual point failures do not
/// abort the sweep — they surface as `Err` point results (and are
/// excluded from the Pareto front).
///
/// # Errors
///
/// A knob error during expansion, or a submit-side error (unknown
/// flow, a config out of range, service shutdown).
pub fn run_sweep(
    client: &DseClient,
    sweep: &SweepSpec,
    mut on_point: impl FnMut(&PointResult),
) -> Result<SweepOutcome, SweepError> {
    let points = expand(sweep)?;
    let started = Instant::now();
    // submit everything first: the bounded queue gives backpressure,
    // and workers overlap point execution with this loop. Points go
    // in stage-key order (late-stage knobs vary fastest within a
    // shared prefix), so consecutive submissions to the same worker
    // maximize stage-cache prefix reuse; results are still collected
    // in grid order below, and the order never changes any result.
    let mut order: Vec<usize> = (0..points.len()).collect();
    let keys: Vec<[u64; macro3d::stage::NUM_STAGES]> =
        points.iter().map(|p| p.spec.stage_keys().prefix).collect();
    order.sort_by_key(|&i| (keys[i], i));
    let mut ids = vec![None; points.len()];
    for &i in &order {
        ids[i] = Some(client.submit(points[i].spec.clone())?);
    }
    let ids: Vec<_> = ids.into_iter().flatten().collect();
    let mut results = Vec::with_capacity(points.len());
    for (point, id) in points.iter().zip(ids) {
        let result = match client.wait(id) {
            Ok(r) => Ok(r),
            Err(JobError::Failed(msg)) => Err(msg),
            Err(e) => Err(e.to_string()),
        };
        let point_result = PointResult {
            label: point.label.clone(),
            result,
        };
        on_point(&point_result);
        results.push(point_result);
    }
    let pareto = pareto_front(&results);
    Ok(SweepOutcome {
        points: results,
        pareto,
        wall_s: started.elapsed().as_secs_f64(),
    })
}

/// Why [`run_sweep`] aborted (distinct from per-point failures).
#[derive(Clone, Debug, PartialEq)]
pub enum SweepError {
    /// Grid expansion failed.
    Knob(KnobError),
    /// A submission was rejected.
    Submit(SubmitError),
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::Knob(e) => e.fmt(f),
            SweepError::Submit(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for SweepError {}

impl From<KnobError> for SweepError {
    fn from(e: KnobError) -> Self {
        SweepError::Knob(e)
    }
}

impl From<SubmitError> for SweepError {
    fn from(e: SubmitError) -> Self {
        SweepError::Submit(e)
    }
}

/// Indices of non-dominated successful points. `a` dominates `b`
/// when it is no worse on all three objectives and strictly better
/// on at least one.
fn pareto_front(points: &[PointResult]) -> Vec<usize> {
    let objectives: Vec<(usize, f64, f64, f64)> = points
        .iter()
        .enumerate()
        .filter_map(|(i, p)| {
            let r = p.ok()?;
            Some((i, r.ppa.fclk_mhz, r.ppa.emean_fj, r.ppa.footprint_mm2))
        })
        .collect();
    pareto_indices(&objectives)
}

/// The dominance filter over `(index, fclk↑, energy↓, footprint↓)`
/// tuples.
fn pareto_indices(objectives: &[(usize, f64, f64, f64)]) -> Vec<usize> {
    let dominates = |a: &(usize, f64, f64, f64), b: &(usize, f64, f64, f64)| {
        a.1 >= b.1 && a.2 <= b.2 && a.3 <= b.3 && (a.1 > b.1 || a.2 < b.2 || a.3 < b.3)
    };
    objectives
        .iter()
        .filter(|cand| !objectives.iter().any(|other| dominates(other, cand)))
        .map(|(i, ..)| *i)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use macro3d_soc::TileConfig;

    fn base() -> JobSpec {
        JobSpec::new("Macro-3D", TileConfig::mini())
    }

    #[test]
    fn expansion_is_cartesian_and_ordered() {
        let sweep = SweepSpec {
            base: base(),
            axes: vec![
                SweepAxis::new("l2_kb", &["8", "16"]),
                SweepAxis::new("macro_metals", &["4", "6", "8"]),
            ],
        };
        let points = expand(&sweep).unwrap();
        assert_eq!(points.len(), 6);
        assert_eq!(points[0].label, "l2_kb=8,macro_metals=4");
        assert_eq!(
            points[1].label, "l2_kb=8,macro_metals=6",
            "last axis fastest"
        );
        assert_eq!(points[5].label, "l2_kb=16,macro_metals=8");
        assert_eq!(points[3].spec.tile.l2_kb, 16);
        assert_eq!(points[3].spec.config.macro_metals, 4);
        // repeat expansion is identical (stable labels and keys)
        let again = expand(&sweep).unwrap();
        for (a, b) in points.iter().zip(&again) {
            assert_eq!(a.spec.spec_key(), b.spec.spec_key());
        }
    }

    #[test]
    fn knob_vocabulary_rejects_garbage() {
        let mut spec = base();
        assert!(apply_knob(&mut spec, "l2_kb", "16").is_ok());
        assert!(apply_knob(&mut spec, "f2f_pitch_um", "none").is_ok());
        assert_eq!(spec.config.route.f2f_pitch_um, None);
        assert!(apply_knob(&mut spec, "warp_factor", "9").is_err());
        assert!(apply_knob(&mut spec, "placer", "quantum").is_err());
        for bad in ["0.5", "nan", "inf", "x"] {
            let err = apply_knob(&mut base(), "scale", bad).unwrap_err();
            assert!(err.to_string().contains("scale must be"), "{bad}: {err}");
        }
        for bad in ["0", "-1", "nan", "inf", "1e300"] {
            let err = apply_knob(&mut base(), "budget_wall_s", bad).unwrap_err();
            assert!(err.to_string().contains("budget_wall_s"), "{bad}: {err}");
        }
        // out-of-range values are refused by the config's rule table,
        // which names the field
        for (knob, value, field) in [
            ("util_logic", "1.5", "util_logic must be in (0, 1]"),
            ("util_logic", "60", "util_logic must be in (0, 1]"),
            ("macro_metals", "0", "macro_metals must be >= 1"),
            ("halo_um", "-50", "halo_um must be finite and >= 0"),
            ("route_iterations", "0", "route.iterations must be >= 1"),
            ("f2f_pitch_um", "-1", "route.f2f_pitch_um must be finite"),
        ] {
            let err = apply_knob(&mut base(), knob, value).unwrap_err();
            assert!(err.to_string().contains(field), "{knob}={value}: {err}");
        }
        assert!(apply_knob(&mut base(), "route_iterations", "1").is_ok());
    }

    #[test]
    fn pareto_front_drops_dominated_points() {
        let objectives = vec![
            (0, 1000.0, 500.0, 0.2), // fastest
            (1, 900.0, 600.0, 0.3),  // dominated by 0
            (2, 800.0, 300.0, 0.25), // most efficient
            (4, 1000.0, 500.0, 0.2), // tie with 0: both survive
        ];
        assert_eq!(pareto_indices(&objectives), vec![0, 2, 4]);
        assert!(pareto_indices(&[]).is_empty(), "failed-only sweep");
    }
}

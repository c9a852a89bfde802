//! JSON codecs for the flow's public data types.
//!
//! The DSE service persists results on disk, hashes job specs into
//! cache keys, and speaks newline-delimited JSON to clients — all of
//! which needs [`FlowConfig`], [`PpaResult`], [`DegradationReport`]
//! and [`TileConfig`] to serialize. This build environment cannot
//! fetch serde, so the codecs are hand-rolled over the shared
//! [`macro3d_json::Json`] value type, with two contracts:
//!
//! * **Exact round trip.** `from_json(to_json(x))` reconstructs `x`
//!   field-for-field: floats go through shortest-round-trip tokens,
//!   integers through exact decimal tokens, durations through
//!   nanosecond counts. This is what makes cold-vs-warm cache results
//!   bit-identical.
//! * **Deterministic emission.** Fields are emitted in declaration
//!   order and the writer is canonical, so the emitted string itself
//!   is a content key: [`ppa_fingerprint`] is FNV-1a over the emitted
//!   PPA JSON, and the chained stage keys
//!   ([`crate::stage::stage_keys`]), from which the DSE spec key
//!   derives, hash the emitted tile, budget and fault-plan JSON.
//!
//! Decoders are strict — a missing or mistyped field is a
//! [`CodecError`] naming the path — but tolerate *extra* fields, so
//! records written by a newer minor revision still parse (the
//! persisted result cache additionally embeds the crate version in
//! its keys; see `DESIGN.md` §16).

use crate::flow::{FlowConfig, StageTimes};
use crate::report::PpaResult;
use macro3d_json::Json;
use macro3d_netlist::NetId;
use macro3d_obs::{ObsConfig, ObsLevel};
use macro3d_par::{
    DegradationReport, FaultAction, FaultPlan, FlowBudget, Parallelism, StageDegradation,
    StopReason,
};
use macro3d_place::{GlobalPlaceConfig, PlacerBackend};
use macro3d_route::RouteConfig;
use macro3d_soc::TileConfig;
use macro3d_sta::{PowerReport, TimingReport};
use std::fmt;
use std::time::Duration;

/// A malformed or mistyped JSON document (decode direction only).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CodecError(String);

impl CodecError {
    /// A decode error with a caller-supplied message.
    pub(crate) fn new(msg: impl Into<String>) -> Self {
        CodecError(msg.into())
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON codec: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

/// FNV-1a 64-bit over raw bytes — the repo's one content-hash
/// primitive: the PPA fingerprint and the chained stage keys (and
/// through them the DSE spec key) all hash with it.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---- decode helpers ----

fn get<'a>(v: &'a Json, key: &str) -> Result<&'a Json, CodecError> {
    v.get(key)
        .ok_or_else(|| CodecError::new(format!("missing field '{key}'")))
}

fn f64_of(v: &Json, key: &str) -> Result<f64, CodecError> {
    let field = get(v, key)?;
    if field.is_null() {
        // non-finite floats encode as null; NaN is the only value the
        // repo ever produces there (e.g. 0/0 ratios in degenerate runs)
        return Ok(f64::NAN);
    }
    field
        .as_f64()
        .ok_or_else(|| CodecError::new(format!("field '{key}' is not a number")))
}

fn usize_of(v: &Json, key: &str) -> Result<usize, CodecError> {
    get(v, key)?
        .as_usize()
        .ok_or_else(|| CodecError::new(format!("field '{key}' is not a non-negative integer")))
}

fn u64_of(v: &Json, key: &str) -> Result<u64, CodecError> {
    get(v, key)?
        .as_u64()
        .ok_or_else(|| CodecError::new(format!("field '{key}' is not a non-negative integer")))
}

fn u32_of(v: &Json, key: &str) -> Result<u32, CodecError> {
    u64_of(v, key)?
        .try_into()
        .map_err(|_| CodecError::new(format!("field '{key}' exceeds u32")))
}

fn bool_of(v: &Json, key: &str) -> Result<bool, CodecError> {
    get(v, key)?
        .as_bool()
        .ok_or_else(|| CodecError::new(format!("field '{key}' is not a boolean")))
}

fn str_of<'a>(v: &'a Json, key: &str) -> Result<&'a str, CodecError> {
    get(v, key)?
        .as_str()
        .ok_or_else(|| CodecError::new(format!("field '{key}' is not a string")))
}

fn arr_of<'a>(v: &'a Json, key: &str) -> Result<&'a [Json], CodecError> {
    get(v, key)?
        .as_arr()
        .ok_or_else(|| CodecError::new(format!("field '{key}' is not an array")))
}

// ---- Parallelism ----

fn parallelism_to_json(p: &Parallelism) -> Json {
    Json::obj()
        .field("threads", Json::from_usize(p.threads))
        .field("chunk_size", Json::from_usize(p.chunk_size))
}

fn parallelism_from_json(v: &Json) -> Result<Parallelism, CodecError> {
    Ok(Parallelism {
        threads: usize_of(v, "threads")?,
        chunk_size: usize_of(v, "chunk_size")?,
    })
}

// ---- RouteConfig / GlobalPlaceConfig ----

fn route_config_to_json(r: &RouteConfig) -> Json {
    Json::obj()
        .field("utilization", Json::from_f64(r.utilization))
        .field("iterations", Json::from_usize(r.iterations))
        .field("via_cost", Json::from_f64(r.via_cost))
        .field(
            "f2f_pitch_um",
            r.f2f_pitch_um.map_or(Json::Null, Json::from_f64),
        )
        .field("parallelism", parallelism_to_json(&r.parallelism))
}

fn route_config_from_json(v: &Json) -> Result<RouteConfig, CodecError> {
    let pitch = get(v, "f2f_pitch_um")?;
    Ok(RouteConfig {
        utilization: f64_of(v, "utilization")?,
        iterations: usize_of(v, "iterations")?,
        via_cost: f64_of(v, "via_cost")?,
        f2f_pitch_um: if pitch.is_null() {
            None
        } else {
            Some(f64_of(v, "f2f_pitch_um")?)
        },
        parallelism: parallelism_from_json(get(v, "parallelism")?)?,
    })
}

fn place_config_to_json(p: &GlobalPlaceConfig) -> Json {
    Json::obj()
        .field("parallelism", parallelism_to_json(&p.parallelism))
        .field(
            "backend",
            Json::str(match p.backend {
                PlacerBackend::Bisection => "bisection",
                PlacerBackend::Analytical => "analytical",
            }),
        )
}

fn place_config_from_json(v: &Json) -> Result<GlobalPlaceConfig, CodecError> {
    Ok(GlobalPlaceConfig {
        parallelism: parallelism_from_json(get(v, "parallelism")?)?,
        backend: match str_of(v, "backend")? {
            "bisection" => PlacerBackend::Bisection,
            "analytical" => PlacerBackend::Analytical,
            other => {
                return Err(CodecError::new(format!("unknown placer backend '{other}'")));
            }
        },
    })
}

// ---- budget / fault plan / obs ----

pub(crate) fn budget_to_json(b: &FlowBudget) -> Json {
    let caps = b
        .caps()
        .iter()
        .map(|(site, max)| Json::Arr(vec![Json::str(site.clone()), Json::from_u64(*max)]))
        .collect();
    Json::obj()
        .field(
            "wall_clock_ns",
            b.wall_clock.map_or(Json::Null, |d| {
                Json::from_u64(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
            }),
        )
        .field("caps", Json::Arr(caps))
}

fn budget_from_json(v: &Json) -> Result<FlowBudget, CodecError> {
    let mut budget = FlowBudget::unlimited();
    let wall = get(v, "wall_clock_ns")?;
    if !wall.is_null() {
        budget = budget.with_wall_clock(Duration::from_nanos(u64_of(v, "wall_clock_ns")?));
    }
    for cap in arr_of(v, "caps")? {
        let pair = cap
            .as_arr()
            .filter(|p| p.len() == 2)
            .ok_or_else(|| CodecError::new("budget cap is not a [site, max] pair"))?;
        let site = pair[0]
            .as_str()
            .ok_or_else(|| CodecError::new("budget cap site is not a string"))?;
        let max = pair[1]
            .as_u64()
            .ok_or_else(|| CodecError::new("budget cap max is not an integer"))?;
        budget = budget.with_cap(site, max);
    }
    Ok(budget)
}

pub(crate) fn fault_plan_to_json(plan: &FaultPlan) -> Json {
    Json::Arr(
        plan.faults()
            .iter()
            .map(|(site, f)| {
                Json::Arr(vec![
                    Json::str(site.clone()),
                    Json::from_u64(f.at_visit),
                    Json::str(match f.action {
                        FaultAction::Exhaust => "exhaust",
                        FaultAction::Error => "error",
                    }),
                ])
            })
            .collect(),
    )
}

fn fault_plan_from_json(v: &Json) -> Result<FaultPlan, CodecError> {
    let mut plan = FaultPlan::new();
    let items = v
        .as_arr()
        .ok_or_else(|| CodecError::new("fault_plan is not an array"))?;
    for item in items {
        let triple = item
            .as_arr()
            .filter(|t| t.len() == 3)
            .ok_or_else(|| CodecError::new("fault is not a [site, at_visit, action] triple"))?;
        let site = triple[0]
            .as_str()
            .ok_or_else(|| CodecError::new("fault site is not a string"))?;
        let at_visit = triple[1]
            .as_u64()
            .ok_or_else(|| CodecError::new("fault at_visit is not an integer"))?;
        let action = match triple[2].as_str() {
            Some("exhaust") => FaultAction::Exhaust,
            Some("error") => FaultAction::Error,
            _ => return Err(CodecError::new("fault action must be 'exhaust' or 'error'")),
        };
        plan = plan.with_fault(site, at_visit, action);
    }
    Ok(plan)
}

fn obs_to_json(obs: &ObsConfig) -> Json {
    Json::str(match obs.level {
        ObsLevel::Off => "off",
        ObsLevel::Summary => "summary",
        ObsLevel::Full => "full",
    })
}

fn obs_from_json(v: &Json) -> Result<ObsConfig, CodecError> {
    match v.as_str() {
        Some("off") => Ok(ObsConfig::off()),
        Some("summary") => Ok(ObsConfig::summary()),
        Some("full") => Ok(ObsConfig::full()),
        _ => Err(CodecError::new("obs must be 'off', 'summary' or 'full'")),
    }
}

// ---- FlowConfig ----

/// Serializes a [`FlowConfig`] (all engines' knobs included).
pub fn flow_config_to_json(cfg: &FlowConfig) -> Json {
    Json::obj()
        .field("logic_metals", Json::from_usize(cfg.logic_metals))
        .field("macro_metals", Json::from_usize(cfg.macro_metals))
        .field("util_logic", Json::from_f64(cfg.util_logic))
        .field("util_macro", Json::from_f64(cfg.util_macro))
        .field("halo_um", Json::from_f64(cfg.halo_um))
        .field(
            "repeater_max_len_um",
            Json::from_f64(cfg.repeater_max_len_um),
        )
        .field("route", route_config_to_json(&cfg.route))
        .field("sizing_rounds", Json::from_usize(cfg.sizing_rounds))
        .field(
            "partial_blockage_period_um",
            Json::from_f64(cfg.partial_blockage_period_um),
        )
        .field("place", place_config_to_json(&cfg.place))
        .field("parallelism", parallelism_to_json(&cfg.parallelism))
        .field("obs", obs_to_json(&cfg.obs))
        .field("budget", budget_to_json(&cfg.budget))
        .field(
            "fault_plan",
            cfg.fault_plan
                .as_ref()
                .map_or(Json::Null, fault_plan_to_json),
        )
}

/// Decodes a [`FlowConfig`] written by [`flow_config_to_json`].
///
/// # Errors
///
/// Returns a [`CodecError`] naming the first missing or mistyped
/// field. Ranges are not the codec's job: [`FlowConfig::validate`]
/// checks them, and every flow run calls it.
pub fn flow_config_from_json(v: &Json) -> Result<FlowConfig, CodecError> {
    let fault_plan = get(v, "fault_plan")?;
    Ok(FlowConfig {
        logic_metals: usize_of(v, "logic_metals")?,
        macro_metals: usize_of(v, "macro_metals")?,
        util_logic: f64_of(v, "util_logic")?,
        util_macro: f64_of(v, "util_macro")?,
        halo_um: f64_of(v, "halo_um")?,
        repeater_max_len_um: f64_of(v, "repeater_max_len_um")?,
        route: route_config_from_json(get(v, "route")?)?,
        sizing_rounds: usize_of(v, "sizing_rounds")?,
        partial_blockage_period_um: f64_of(v, "partial_blockage_period_um")?,
        place: place_config_from_json(get(v, "place")?)?,
        parallelism: parallelism_from_json(get(v, "parallelism")?)?,
        obs: obs_from_json(get(v, "obs")?)?,
        budget: budget_from_json(get(v, "budget")?)?,
        fault_plan: if fault_plan.is_null() {
            None
        } else {
            Some(fault_plan_from_json(fault_plan)?)
        },
    })
}

// ---- TileConfig ----

/// Serializes a [`TileConfig`] (every netlist-generation input).
pub fn tile_config_to_json(t: &TileConfig) -> Json {
    Json::obj()
        .field("name", Json::str(t.name.clone()))
        .field("l1i_kb", Json::from_u64(t.l1i_kb as u64))
        .field("l1d_kb", Json::from_u64(t.l1d_kb as u64))
        .field("l2_kb", Json::from_u64(t.l2_kb as u64))
        .field("l3_kb", Json::from_u64(t.l3_kb as u64))
        .field("scale", Json::from_f64(t.scale))
        .field("noc_width", Json::from_u64(t.noc_width as u64))
        .field("num_nocs", Json::from_u64(t.num_nocs as u64))
        .field("seed", Json::from_u64(t.seed))
        .field("n40_memory_die", Json::Bool(t.n40_memory_die))
        .field("core_kgates", Json::from_f64(t.core_kgates))
        .field("l1i_ctrl_kgates", Json::from_f64(t.l1i_ctrl_kgates))
        .field("l1d_ctrl_kgates", Json::from_f64(t.l1d_ctrl_kgates))
        .field("l2_ctrl_kgates", Json::from_f64(t.l2_ctrl_kgates))
        .field("l3_ctrl_kgates", Json::from_f64(t.l3_ctrl_kgates))
        .field("noc_kgates", Json::from_f64(t.noc_kgates))
}

/// Decodes a [`TileConfig`] written by [`tile_config_to_json`].
///
/// # Errors
///
/// Returns a [`CodecError`] naming the first missing or mistyped
/// field.
pub fn tile_config_from_json(v: &Json) -> Result<TileConfig, CodecError> {
    Ok(TileConfig {
        name: str_of(v, "name")?.to_string(),
        l1i_kb: u32_of(v, "l1i_kb")?,
        l1d_kb: u32_of(v, "l1d_kb")?,
        l2_kb: u32_of(v, "l2_kb")?,
        l3_kb: u32_of(v, "l3_kb")?,
        scale: f64_of(v, "scale")?,
        noc_width: u32_of(v, "noc_width")?,
        num_nocs: u32_of(v, "num_nocs")?,
        seed: u64_of(v, "seed")?,
        n40_memory_die: bool_of(v, "n40_memory_die")?,
        core_kgates: f64_of(v, "core_kgates")?,
        l1i_ctrl_kgates: f64_of(v, "l1i_ctrl_kgates")?,
        l1d_ctrl_kgates: f64_of(v, "l1d_ctrl_kgates")?,
        l2_ctrl_kgates: f64_of(v, "l2_ctrl_kgates")?,
        l3_ctrl_kgates: f64_of(v, "l3_ctrl_kgates")?,
        noc_kgates: f64_of(v, "noc_kgates")?,
    })
}

// ---- PpaResult ----

fn timing_to_json(t: &TimingReport) -> Json {
    Json::obj()
        .field("min_period_ps", Json::from_f64(t.min_period_ps))
        .field("fclk_mhz", Json::from_f64(t.fclk_mhz))
        .field(
            "crit_path_nets",
            Json::Arr(
                t.crit_path_nets
                    .iter()
                    .map(|n| Json::from_u64(n.0 as u64))
                    .collect(),
            ),
        )
        .field(
            "crit_path_wirelength_mm",
            Json::from_f64(t.crit_path_wirelength_mm),
        )
        .field("crit_path_stages", Json::from_usize(t.crit_path_stages))
        .field("clock_tree_depth", Json::from_usize(t.clock_tree_depth))
        .field("clock_skew_ps", Json::from_f64(t.clock_skew_ps))
}

fn timing_from_json(v: &Json) -> Result<TimingReport, CodecError> {
    let nets = arr_of(v, "crit_path_nets")?
        .iter()
        .map(|n| {
            n.as_u64()
                .and_then(|id| u32::try_from(id).ok())
                .map(NetId)
                .ok_or_else(|| CodecError::new("crit_path_nets entry is not a u32"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(TimingReport {
        min_period_ps: f64_of(v, "min_period_ps")?,
        fclk_mhz: f64_of(v, "fclk_mhz")?,
        crit_path_nets: nets,
        crit_path_wirelength_mm: f64_of(v, "crit_path_wirelength_mm")?,
        crit_path_stages: usize_of(v, "crit_path_stages")?,
        clock_tree_depth: usize_of(v, "clock_tree_depth")?,
        clock_skew_ps: f64_of(v, "clock_skew_ps")?,
    })
}

fn power_to_json(p: &PowerReport) -> Json {
    Json::obj()
        .field("total_mw", Json::from_f64(p.total_mw))
        .field("switching_mw", Json::from_f64(p.switching_mw))
        .field("internal_mw", Json::from_f64(p.internal_mw))
        .field("leakage_mw", Json::from_f64(p.leakage_mw))
        .field("macro_mw", Json::from_f64(p.macro_mw))
        .field("emean_fj_per_cycle", Json::from_f64(p.emean_fj_per_cycle))
        .field("cpin_total_nf", Json::from_f64(p.cpin_total_nf))
        .field("cwire_total_nf", Json::from_f64(p.cwire_total_nf))
}

fn power_from_json(v: &Json) -> Result<PowerReport, CodecError> {
    Ok(PowerReport {
        total_mw: f64_of(v, "total_mw")?,
        switching_mw: f64_of(v, "switching_mw")?,
        internal_mw: f64_of(v, "internal_mw")?,
        leakage_mw: f64_of(v, "leakage_mw")?,
        macro_mw: f64_of(v, "macro_mw")?,
        emean_fj_per_cycle: f64_of(v, "emean_fj_per_cycle")?,
        cpin_total_nf: f64_of(v, "cpin_total_nf")?,
        cwire_total_nf: f64_of(v, "cwire_total_nf")?,
    })
}

/// Serializes per-stage wall-clock as `[[name, seconds], …]` — also
/// used standalone by the DSE server's per-job telemetry.
pub fn stage_times_to_json(s: &StageTimes) -> Json {
    Json::Arr(
        s.stages
            .iter()
            .map(|(stage, secs)| Json::Arr(vec![Json::str(stage.clone()), Json::from_f64(*secs)]))
            .collect(),
    )
}

fn stage_times_from_json(v: &Json) -> Result<StageTimes, CodecError> {
    let stages = v
        .as_arr()
        .ok_or_else(|| CodecError::new("stage_times is not an array"))?
        .iter()
        .map(|pair| {
            let pair = pair
                .as_arr()
                .filter(|p| p.len() == 2)
                .ok_or_else(|| CodecError::new("stage time is not a [name, seconds] pair"))?;
            let name = pair[0]
                .as_str()
                .ok_or_else(|| CodecError::new("stage name is not a string"))?;
            let secs = if pair[1].is_null() {
                f64::NAN
            } else {
                pair[1]
                    .as_f64()
                    .ok_or_else(|| CodecError::new("stage seconds is not a number"))?
            };
            Ok((name.to_string(), secs))
        })
        .collect::<Result<Vec<_>, CodecError>>()?;
    Ok(StageTimes { stages })
}

/// Serializes a [`PpaResult`] including the nested timing and power
/// reports and the per-stage wall-clock.
pub fn ppa_to_json(ppa: &PpaResult) -> Json {
    Json::obj()
        .field("flow", Json::str(ppa.flow.clone()))
        .field("fclk_mhz", Json::from_f64(ppa.fclk_mhz))
        .field("emean_fj", Json::from_f64(ppa.emean_fj))
        .field("footprint_mm2", Json::from_f64(ppa.footprint_mm2))
        .field(
            "logic_cell_area_mm2",
            Json::from_f64(ppa.logic_cell_area_mm2),
        )
        .field("total_wirelength_m", Json::from_f64(ppa.total_wirelength_m))
        .field("f2f_bumps", Json::from_u64(ppa.f2f_bumps))
        .field("cpin_nf", Json::from_f64(ppa.cpin_nf))
        .field("cwire_nf", Json::from_f64(ppa.cwire_nf))
        .field("clock_tree_depth", Json::from_usize(ppa.clock_tree_depth))
        .field("crit_path_wl_mm", Json::from_f64(ppa.crit_path_wl_mm))
        .field("metal_area_mm2", Json::from_f64(ppa.metal_area_mm2))
        .field("timing", timing_to_json(&ppa.timing))
        .field("power", power_to_json(&ppa.power))
        .field("route_overflow", Json::from_f64(ppa.route_overflow))
        .field("stage_times", stage_times_to_json(&ppa.stage_times))
}

/// Decodes a [`PpaResult`] written by [`ppa_to_json`].
///
/// # Errors
///
/// Returns a [`CodecError`] naming the first missing or mistyped
/// field.
pub fn ppa_from_json(v: &Json) -> Result<PpaResult, CodecError> {
    Ok(PpaResult {
        flow: str_of(v, "flow")?.to_string(),
        fclk_mhz: f64_of(v, "fclk_mhz")?,
        emean_fj: f64_of(v, "emean_fj")?,
        footprint_mm2: f64_of(v, "footprint_mm2")?,
        logic_cell_area_mm2: f64_of(v, "logic_cell_area_mm2")?,
        total_wirelength_m: f64_of(v, "total_wirelength_m")?,
        f2f_bumps: u64_of(v, "f2f_bumps")?,
        cpin_nf: f64_of(v, "cpin_nf")?,
        cwire_nf: f64_of(v, "cwire_nf")?,
        clock_tree_depth: usize_of(v, "clock_tree_depth")?,
        crit_path_wl_mm: f64_of(v, "crit_path_wl_mm")?,
        metal_area_mm2: f64_of(v, "metal_area_mm2")?,
        timing: timing_from_json(get(v, "timing")?)?,
        power: power_from_json(get(v, "power")?)?,
        route_overflow: f64_of(v, "route_overflow")?,
        stage_times: stage_times_from_json(get(v, "stage_times")?)?,
    })
}

/// Content fingerprint of a [`PpaResult`]: FNV-1a 64 over its
/// canonical JSON **excluding** `stage_times` — wall-clock is the one
/// field that legitimately differs between two runs of the same spec,
/// so the fingerprint captures exactly the deterministic payload. The
/// DSE determinism tests compare these across worker counts and
/// cold-vs-warm cache paths.
pub fn ppa_fingerprint(ppa: &PpaResult) -> u64 {
    let json = ppa_to_json(ppa);
    let Json::Obj(members) = json else {
        // INVARIANT: ppa_to_json always returns an object
        return 0;
    };
    let stripped = Json::Obj(
        members
            .into_iter()
            .filter(|(k, _)| k != "stage_times")
            .collect(),
    );
    fnv1a_64(stripped.emit().as_bytes())
}

// ---- DegradationReport ----

fn stop_reason_str(r: StopReason) -> &'static str {
    match r {
        StopReason::DeadlineExceeded => "deadline_exceeded",
        StopReason::IterationCap => "iteration_cap",
        StopReason::InjectedExhaust => "injected_exhaust",
        StopReason::InjectedError => "injected_error",
    }
}

/// Serializes a [`DegradationReport`] (empty array = clean run).
pub fn degradation_to_json(report: &DegradationReport) -> Json {
    Json::obj().field(
        "stages",
        Json::Arr(
            report
                .stages
                .iter()
                .map(|s| {
                    Json::obj()
                        .field("site", Json::str(s.site.clone()))
                        .field("reason", Json::str(stop_reason_str(s.reason)))
                        .field("detail", Json::str(s.detail.clone()))
                })
                .collect(),
        ),
    )
}

/// Decodes a [`DegradationReport`] written by [`degradation_to_json`].
///
/// # Errors
///
/// Returns a [`CodecError`] naming the first missing or mistyped
/// field.
pub fn degradation_from_json(v: &Json) -> Result<DegradationReport, CodecError> {
    let stages = arr_of(v, "stages")?
        .iter()
        .map(|s| {
            Ok(StageDegradation {
                site: str_of(s, "site")?.to_string(),
                reason: match str_of(s, "reason")? {
                    "deadline_exceeded" => StopReason::DeadlineExceeded,
                    "iteration_cap" => StopReason::IterationCap,
                    "injected_exhaust" => StopReason::InjectedExhaust,
                    "injected_error" => StopReason::InjectedError,
                    other => {
                        return Err(CodecError::new(format!("unknown stop reason '{other}'")));
                    }
                },
                detail: str_of(s, "detail")?.to_string(),
            })
        })
        .collect::<Result<Vec<_>, CodecError>>()?;
    Ok(DegradationReport { stages })
}

#[cfg(test)]
mod tests {
    use super::*;
    use macro3d_par::FlowBudget;

    fn exotic_config() -> FlowConfig {
        let mut cfg = FlowConfig {
            logic_metals: 7,
            macro_metals: 4,
            util_logic: 0.55,
            halo_um: 3.5,
            ..FlowConfig::default()
        };
        cfg.route.iterations = 5;
        cfg.route.f2f_pitch_um = None;
        cfg.route.parallelism = Parallelism::threads(4).with_chunk_size(9);
        cfg.sizing_rounds = 3;
        cfg.place.backend = PlacerBackend::Analytical;
        cfg.place.parallelism = Parallelism::threads(2).with_chunk_size(5);
        cfg.obs = ObsConfig::summary();
        cfg.budget = FlowBudget::unlimited()
            .with_wall_clock(Duration::from_millis(1234))
            .with_cap("route/iterations", 2)
            .with_cap("sta/sizing_rounds", 1);
        cfg.fault_plan = Some(
            FaultPlan::new()
                .with_fault("place/fm_passes", 3, FaultAction::Exhaust)
                .with_fault("flow/route", 1, FaultAction::Error),
        );
        cfg
    }

    fn sample_ppa() -> PpaResult {
        PpaResult {
            flow: "Macro-3D M6-M4".to_string(),
            fclk_mhz: 812.345678901,
            emean_fj: 1234.5,
            footprint_mm2: 0.145,
            logic_cell_area_mm2: 0.0721,
            total_wirelength_m: 1.25e-1,
            f2f_bumps: 1312,
            cpin_nf: 0.0123,
            cwire_nf: 0.0456,
            clock_tree_depth: 7,
            crit_path_wl_mm: 0.91,
            metal_area_mm2: 1.45,
            timing: TimingReport {
                min_period_ps: 1231.1,
                fclk_mhz: 812.345678901,
                crit_path_nets: vec![NetId(3), NetId(999), NetId(0)],
                crit_path_wirelength_mm: 0.91,
                crit_path_stages: 14,
                clock_tree_depth: 7,
                clock_skew_ps: 11.5,
            },
            power: PowerReport {
                total_mw: 100.25,
                switching_mw: 40.5,
                internal_mw: 30.25,
                leakage_mw: 4.5,
                macro_mw: 25.0,
                emean_fj_per_cycle: 1234.5,
                cpin_total_nf: 0.0123,
                cwire_total_nf: 0.0456,
            },
            route_overflow: 0.0,
            stage_times: StageTimes {
                stages: vec![("place".into(), 0.51), ("route".into(), 1.75)],
            },
        }
    }

    #[test]
    fn flow_config_round_trips_exactly() {
        for cfg in [FlowConfig::default(), exotic_config()] {
            let json = flow_config_to_json(&cfg);
            let text = json.emit();
            let back = flow_config_from_json(&Json::parse(&text).unwrap()).unwrap();
            // FlowConfig is not PartialEq (FaultPlan isn't); compare
            // the canonical emission, which covers every field
            assert_eq!(flow_config_to_json(&back).emit(), text);
            assert_eq!(back.budget, cfg.budget);
            assert_eq!(back.route.f2f_pitch_um, cfg.route.f2f_pitch_um);
        }
    }

    #[test]
    fn tile_config_round_trips_exactly() {
        for tile in [
            TileConfig::small_cache(),
            TileConfig::large_cache().with_scale(12.5).with_n40_memory(),
        ] {
            let text = tile_config_to_json(&tile).emit();
            let back = tile_config_from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, tile);
        }
    }

    #[test]
    fn ppa_round_trips_exactly() {
        let ppa = sample_ppa();
        let text = ppa_to_json(&ppa).emit();
        let back = ppa_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(ppa_to_json(&back).emit(), text, "byte-exact round trip");
        assert_eq!(back.fclk_mhz, ppa.fclk_mhz, "f64 bits preserved");
        assert_eq!(back.timing.crit_path_nets, ppa.timing.crit_path_nets);
        assert_eq!(back.stage_times.stages, ppa.stage_times.stages);
    }

    #[test]
    fn degradation_round_trips_exactly() {
        let report = DegradationReport {
            stages: vec![
                StageDegradation {
                    site: "route/iterations".into(),
                    reason: StopReason::IterationCap,
                    detail: "3 nets unrouted, 7 overflowed \"edges\"".into(),
                },
                StageDegradation {
                    site: "sta/sizing_rounds".into(),
                    reason: StopReason::InjectedExhaust,
                    detail: String::new(),
                },
            ],
        };
        let text = degradation_to_json(&report).emit();
        let back = degradation_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, report);
        assert_eq!(
            degradation_from_json(&Json::parse("{\"stages\":[]}").unwrap()).unwrap(),
            DegradationReport::default()
        );
    }

    #[test]
    fn fingerprint_ignores_stage_times_only() {
        let ppa = sample_ppa();
        let mut retimed = ppa.clone();
        retimed.stage_times.stages[0].1 = 99.0;
        assert_eq!(
            ppa_fingerprint(&ppa),
            ppa_fingerprint(&retimed),
            "wall-clock must not affect the fingerprint"
        );
        let mut changed = ppa.clone();
        changed.fclk_mhz += 1e-9;
        assert_ne!(
            ppa_fingerprint(&ppa),
            ppa_fingerprint(&changed),
            "any payload bit flips the fingerprint"
        );
    }

    #[test]
    fn decoders_name_the_broken_field() {
        let mut json = flow_config_to_json(&FlowConfig::default());
        if let Json::Obj(members) = &mut json {
            members.retain(|(k, _)| k != "sizing_rounds");
        }
        let err = flow_config_from_json(&json).unwrap_err();
        assert!(err.to_string().contains("sizing_rounds"), "{err}");

        let err = ppa_from_json(&Json::parse("{\"flow\":3}").unwrap()).unwrap_err();
        assert!(err.to_string().contains("flow"), "{err}");
    }

    #[test]
    fn nan_fields_survive_as_null() {
        let mut ppa = sample_ppa();
        ppa.route_overflow = f64::NAN;
        let text = ppa_to_json(&ppa).emit();
        assert!(text.contains("\"route_overflow\":null"), "{text}");
        let back = ppa_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert!(back.route_overflow.is_nan());
    }

    #[test]
    fn extra_fields_are_tolerated() {
        let mut json = tile_config_to_json(&TileConfig::small_cache());
        json = json.field("future_knob", Json::from_u64(9));
        assert!(tile_config_from_json(&json).is_ok());
    }
}

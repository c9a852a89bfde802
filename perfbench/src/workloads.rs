//! The two workloads: their inputs (derived from the seed), one
//! repetition of their fixed work, and the output checks.

use crate::measure::{cpu_seconds, Tracer};
use macro3d::build_cache;
use macro3d::flow::area_budget;
use macro3d::flows::{Flow, Flow2d, Macro3d};
use macro3d::{ppa_fingerprint, FlowConfig, ObsConfig, PlacerBackend, PpaResult};
use macro3d_dse::sweep::{run_sweep, PointResult, SweepAxis, SweepSpec};
use macro3d_dse::{DseClient, DseConfig, DseService, DseStats, JobSpec};
use macro3d_soc::{generate_tile, TileConfig, TileNetlist};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

// Tiles per repetition. Each tile's seed is derived from the run's
// seed, and a tile's cost, fclk and route overflow vary by 10-25 %
// from seed to seed on these small designs, so a repetition runs as
// many tiles as fit into a quarter of a run: a run repeats its work
// three or four times (see `MIN_REPS` in main.rs).

/// `place_analytical`: 2D and Macro-3D on each of these tiles.
const PLACE_TILES: u64 = 4;
/// `dse_sweep`: one 10-point sweep per tile.
const SWEEPS: u64 = 8;

/// Allowed relative distance between a 3D footprint and its
/// reference (half the 2D footprint, or the area budget).
const FOOTPRINT_TOL: f64 = 0.01;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PlaceAnalytical,
    DseSweep,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::PlaceAnalytical, Workload::DseSweep];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PlaceAnalytical => "place_analytical",
            Workload::DseSweep => "dse_sweep",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Ops planned and finished so far, shared with the watchdog so that
/// a hung workload can still be reported.
#[derive(Default)]
pub struct Progress {
    pub planned: AtomicU64,
    pub finished_ok: AtomicU64,
}

impl Progress {
    fn plan(&self, ops: usize) {
        self.planned.fetch_add(ops as u64, Ordering::Relaxed);
    }

    fn finish(&self, ok: bool) {
        if ok {
            self.finished_ok.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// What one successful op produced.
#[derive(Clone, Debug)]
pub struct OpOk {
    pub fingerprint: String,
    pub ppa: PpaResult,
    /// Host seconds of the call (the `try_run`, or the job inside the
    /// DSE worker).
    pub wall_s: f64,
    /// Obs counters of the run (empty with obs off).
    pub counters: BTreeMap<String, u64>,
    pub reuse_depth: usize,
    pub cache_hit: bool,
}

/// One op: a `Flow::try_run` or one sweep point.
#[derive(Clone, Debug)]
pub struct OpRecord {
    pub label: String,
    /// The op's tile: flow ops on one tile share a group, and so do
    /// the points of one sweep (the sweep's index).
    pub group: u64,
    pub result: Result<OpOk, String>,
}

/// The DSE service's view of one repetition.
#[derive(Clone, Debug)]
pub struct DseRep {
    pub stats: DseStats,
    pub workers: usize,
    /// Seconds from the first submission to the last collected point.
    pub sweeps_wall_s: f64,
}

/// Host time of one timed unit of a repetition: a flow op, or a
/// whole sweep. Every repetition of a run has the same units in the
/// same order.
#[derive(Debug)]
pub struct Unit {
    pub wall_s: f64,
    /// Process user + system CPU over the unit.
    pub cpu_s: f64,
}

/// One repetition of a workload's fixed work.
#[derive(Debug)]
pub struct Rep {
    pub ops: Vec<OpRecord>,
    pub units: Vec<Unit>,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub cache: build_cache::CacheStats,
    pub dse: Option<DseRep>,
}

/// Generated inputs of a workload.
#[derive(Clone)]
pub enum State {
    Flows {
        tiles: Vec<TileNetlist>,
    },
    Sweep {
        sweeps: Vec<SweepSpec>,
        /// Expected Macro-3D footprint (mm²) by sweep index.
        footprints: BTreeMap<u64, f64>,
    },
}

impl State {
    /// The same inputs cut to the first tile (flows) or the first
    /// sweep, for the slower consistency passes.
    pub fn first_only(&self) -> State {
        match self {
            State::Flows { tiles } => State::Flows {
                tiles: tiles[..1].to_vec(),
            },
            State::Sweep { sweeps, footprints } => State::Sweep {
                sweeps: sweeps[..1].to_vec(),
                footprints: footprints.clone(),
            },
        }
    }
}

/// How a repetition runs.
#[derive(Clone, Copy, Debug)]
pub struct RepMode {
    pub obs: ObsConfig,
    /// Flow threads, or DSE workers.
    pub threads: usize,
    /// DSE only: give each worker a stage cache.
    pub stage_reuse: bool,
}

/// SplitMix64 over the run's seed and a tile index: the tile seeds of
/// a run are derived from its seed.
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(index.wrapping_add(1).wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// L2 sizes of the sweeps' tiles, alternating from sweep to sweep.
const SWEEP_L2_KB: [u32; 2] = [8, 16];

/// The 10-point grid around one small-cache tile at scale 32: a cold
/// first point, one route re-entry and eight STA re-entries. One tile
/// per sweep, not an `l2_kb` axis with two: the points of one tile
/// share their fclk and overflow, so a run's QoR varies between seeds
/// with the number of distinct seeds, and a tile costs half a sweep.
pub fn sweep_spec(seed: u64, index: u64) -> SweepSpec {
    let mut base = JobSpec::new(
        "Macro-3D",
        TileConfig {
            l2_kb: SWEEP_L2_KB[index as usize % SWEEP_L2_KB.len()],
            ..TileConfig::small_cache()
                .with_scale(32.0)
                .with_seed(derive_seed(seed, index))
        },
    );
    // the workers are the sweep's parallelism: each job runs serially
    base.config.parallelism.threads = 1;
    base.config.route.parallelism.threads = 1;
    base.config.place.parallelism.threads = 1;
    SweepSpec {
        base,
        axes: vec![
            SweepAxis::new("f2f_pitch_um", &["1", "2"]),
            SweepAxis::new("sizing_rounds", &["0", "1", "2", "4", "8"]),
        ],
    }
}

fn place_tiles(seed: u64) -> Vec<TileConfig> {
    (0..PLACE_TILES)
        .map(|i| {
            TileConfig::small_cache()
                .with_scale(16.0)
                .with_seed(derive_seed(seed, i))
        })
        .collect()
}

/// Generates the workload's inputs (the timed set-up).
pub fn setup(w: Workload, seed: u64, tracer: &mut Tracer, parent: Option<usize>) -> State {
    let mut generate = |cfg: &TileConfig| {
        tracer
            .time("soc.generate_tile", parent, None, || generate_tile(cfg))
            .0
    };
    match w {
        Workload::PlaceAnalytical => State::Flows {
            tiles: place_tiles(seed).iter().map(&mut generate).collect(),
        },
        Workload::DseSweep => {
            let sweeps: Vec<SweepSpec> = (0..SWEEPS).map(|i| sweep_spec(seed, i)).collect();
            let mut footprints = BTreeMap::new();
            for (k, sweep) in sweeps.iter().enumerate() {
                let tile = generate(&sweep.base.tile);
                let a3d = area_budget(&tile.design, &sweep.base.config).a3d_um2;
                footprints.insert(k as u64, a3d * 1e-6);
            }
            State::Sweep { sweeps, footprints }
        }
    }
}

/// One repetition of the workload's fixed work, from a cold
/// `BuildCache`. `scratch` is where a DSE repetition keeps its
/// persisted result cache.
pub fn rep(
    w: Workload,
    state: &State,
    mode: RepMode,
    scratch: &Path,
    tracer: &mut Tracer,
    progress: &Progress,
) -> Rep {
    build_cache::global().clear();
    let before = build_cache::global().stats();
    let root = tracer.open(format!("rep:{}", w.name()), None, None);
    let cpu0 = cpu_seconds();
    let mut units = Vec::new();
    let (ops, dse) = match (w, state) {
        (Workload::PlaceAnalytical, State::Flows { tiles }) => {
            let cfg = flow_config(mode);
            let flows: [&dyn Flow; 2] = [&Flow2d, &Macro3d];
            let ops = run_flows(tiles, &flows, &cfg, tracer, root.id(), progress, &mut units);
            (ops, None)
        }
        (Workload::DseSweep, State::Sweep { sweeps, .. }) => {
            let (ops, dse) = run_dse(
                sweeps,
                mode,
                scratch,
                tracer,
                root.id(),
                progress,
                &mut units,
            );
            (ops, Some(dse))
        }
        _ => unreachable!("state was built for this workload"),
    };
    let cpu_s = cpu_seconds() - cpu0;
    let wall_s = tracer.close(root);
    let after = build_cache::global().stats();
    let mut rep = Rep {
        ops,
        units,
        wall_s,
        cpu_s,
        cache: build_cache::CacheStats {
            hits: after.hits - before.hits,
            misses: after.misses - before.misses,
            entries: after.entries,
        },
        dse,
    };
    check_rep(&mut rep, state);
    rep
}

fn flow_config(mode: RepMode) -> FlowConfig {
    FlowConfig::builder()
        .threads(mode.threads)
        .placer(PlacerBackend::Analytical)
        .obs(mode.obs)
        .build()
        .expect("the default config with a thread count and placer is valid")
}

/// The per-layer metric a flow op's wall time is charged to.
pub fn op_flow_metric(op: &OpRecord) -> &'static str {
    match op.label.split("flow=").nth(1).unwrap_or("") {
        "2D" => "core.flow_s.2d",
        "Macro-3D" => "core.flow_s.macro3d",
        _ => "core.flow_s.other",
    }
}

fn run_flows(
    tiles: &[TileNetlist],
    flows: &[&dyn Flow],
    cfg: &FlowConfig,
    tracer: &mut Tracer,
    parent: Option<usize>,
    progress: &Progress,
    units: &mut Vec<Unit>,
) -> Vec<OpRecord> {
    progress.plan(tiles.len() * flows.len());
    let mut ops = Vec::with_capacity(tiles.len() * flows.len());
    for (t, tile) in tiles.iter().enumerate() {
        for flow in flows {
            let op_id = ops.len() as u64;
            let cpu0 = cpu_seconds();
            let (run, wall_s) = tracer.time(
                format!("core.try_run:{}", flow.name()),
                parent,
                Some(op_id),
                || catch_unwind(AssertUnwindSafe(|| flow.try_run(tile, cfg))),
            );
            units.push(Unit {
                wall_s,
                cpu_s: cpu_seconds() - cpu0,
            });
            let result = match run {
                Ok(Ok(outcome)) => Ok(OpOk {
                    fingerprint: format!("{:016x}", ppa_fingerprint(&outcome.ppa)),
                    counters: outcome.obs.map(|o| o.metrics.counters).unwrap_or_default(),
                    ppa: outcome.ppa,
                    wall_s,
                    reuse_depth: outcome.reuse_depth,
                    cache_hit: false,
                }),
                Ok(Err(e)) => Err(format!("flow error: {e}")),
                Err(_) => Err("flow panicked".to_string()),
            };
            progress.finish(result.is_ok());
            ops.push(OpRecord {
                label: format!("tile={t},flow={}", flow.name()),
                group: t as u64,
                result,
            });
        }
    }
    ops
}

/// Runs every sweep on one fresh service whose result cache persists
/// under `scratch`; each sweep is one timed unit.
fn run_dse(
    sweeps: &[SweepSpec],
    mode: RepMode,
    scratch: &Path,
    tracer: &mut Tracer,
    parent: Option<usize>,
    progress: &Progress,
    units: &mut Vec<Unit>,
) -> (Vec<OpRecord>, DseRep) {
    let _ = std::fs::remove_dir_all(scratch);
    let service = DseService::start(DseConfig {
        workers: mode.threads,
        cache_dir: Some(PathBuf::from(scratch)),
        stage_reuse: mode.stage_reuse,
        ..DseConfig::default()
    })
    .expect("the scratch directory for the result cache can be created");
    let client = service.client();
    let started = std::time::Instant::now();
    let mut ops = Vec::new();
    for (k, sweep) in sweeps.iter().enumerate() {
        let cpu0 = cpu_seconds();
        let wall_s = run_one_sweep(&client, k, sweep, tracer, parent, progress, &mut ops);
        units.push(Unit {
            wall_s,
            cpu_s: cpu_seconds() - cpu0,
        });
    }
    let sweeps_wall_s = started.elapsed().as_secs_f64();
    let stats = client.stats();
    let workers = service.workers();
    service.shutdown();
    let dse = DseRep {
        stats,
        workers,
        sweeps_wall_s,
    };
    (ops, dse)
}

/// Runs one sweep to its last point; returns its wall seconds.
fn run_one_sweep(
    client: &DseClient,
    k: usize,
    sweep: &SweepSpec,
    tracer: &mut Tracer,
    parent: Option<usize>,
    progress: &Progress,
    ops: &mut Vec<OpRecord>,
) -> f64 {
    let points: usize = sweep.axes.iter().map(|a| a.values.len()).product();
    progress.plan(points);
    let first = ops.len();
    let sweep_span = tracer.open(format!("dse.run_sweep:{k}"), parent, None);
    // one span per streamed point: how long the caller waited for it
    let mut wait = Some(tracer.open("dse.await_point", sweep_span.id(), Some(first as u64)));
    let outcome = run_sweep(client, sweep, |point| {
        if let Some(open) = wait.take() {
            tracer.close(open);
        }
        let op = point_record(k, point);
        progress.finish(op.result.is_ok());
        ops.push(op);
        if ops.len() < first + points {
            let op_id = Some(ops.len() as u64);
            wait = Some(tracer.open("dse.await_point", sweep_span.id(), op_id));
        }
    });
    if let Some(open) = wait {
        tracer.close(open);
    }
    let wall_s = tracer.close(sweep_span);
    if let Err(e) = outcome {
        // a sweep that aborts before streaming its points fails them
        for i in ops.len() - first..points {
            ops.push(OpRecord {
                label: format!("sweep={k},point={i}"),
                group: k as u64,
                result: Err(format!("sweep error: {e}")),
            });
        }
    }
    wall_s
}

fn point_record(k: usize, point: &PointResult) -> OpRecord {
    let result = match &point.result {
        Ok(r) => Ok(OpOk {
            fingerprint: format!("{:016x}", ppa_fingerprint(&r.ppa)),
            ppa: r.ppa.clone(),
            wall_s: r.wall_s,
            counters: BTreeMap::new(),
            reuse_depth: r.reuse_depth,
            cache_hit: r.cache_hit,
        }),
        Err(e) => Err(format!("job error: {e}")),
    };
    OpRecord {
        label: format!("sweep={k},{}", point.label),
        group: k as u64,
        result,
    }
}

/// Turns ops whose output is wrong into failures: `fclk_mhz` must be
/// finite and positive, and each 3D footprint must be within 1 % of
/// its reference (half the 2D footprint on the same tile, or the
/// Macro-3D area budget of the sweep point's tile).
fn check_rep(rep: &mut Rep, state: &State) {
    let is_2d = |op: &OpRecord| op.label.ends_with("flow=2D");
    let half_2d: BTreeMap<u64, f64> = rep
        .ops
        .iter()
        .filter(|op| is_2d(op))
        .filter_map(|op| Some((op.group, 0.5 * op.result.as_ref().ok()?.ppa.footprint_mm2)))
        .collect();
    for op in &mut rep.ops {
        let Ok(ok) = &op.result else { continue };
        let reference = match state {
            State::Flows { .. } if is_2d(op) => None,
            State::Flows { .. } => Some(half_2d.get(&op.group).copied()),
            State::Sweep { footprints, .. } => Some(footprints.get(&op.group).copied()),
        };
        let fclk = ok.ppa.fclk_mhz;
        let failure = if !(fclk.is_finite() && fclk > 0.0) {
            Some(format!("check: fclk_mhz {fclk} is not finite and positive"))
        } else {
            match reference {
                None => None,
                Some(None) => Some("check: no footprint reference for this tile".to_string()),
                Some(Some(want)) => {
                    let got = ok.ppa.footprint_mm2;
                    ((got - want).abs() > FOOTPRINT_TOL * want).then(|| {
                        format!("check: footprint {got:.4} mm² is not within 1 % of {want:.4} mm²")
                    })
                }
            }
        };
        if let Some(msg) = failure {
            op.result = Err(msg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_derived_deterministically_and_spread() {
        assert_eq!(derive_seed(7, 0), derive_seed(7, 0));
        assert_ne!(derive_seed(7, 0), derive_seed(7, 1));
        assert_ne!(derive_seed(7, 0), derive_seed(8, 0));
        let a = place_tiles(3);
        assert_eq!(a.len(), PLACE_TILES as usize);
        assert_eq!(a, place_tiles(3));
        assert_ne!(a, place_tiles(4));
    }

    #[test]
    fn each_sweep_has_ten_serial_points_on_one_tile() {
        let sweep = sweep_spec(1, 0);
        let points = macro3d_dse::sweep::expand(&sweep).unwrap();
        assert_eq!(points.len(), 10);
        for p in &points {
            assert_eq!(p.spec.tile, sweep.base.tile, "{}", p.label);
            assert_eq!(p.spec.config.parallelism.threads, 1);
        }
        let next = sweep_spec(1, 1).base.tile;
        assert_ne!(sweep.base.tile.seed, next.seed);
        assert_eq!((sweep.base.tile.l2_kb, next.l2_kb), (8, 16));
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("hit"), None);
    }

    #[test]
    fn flow_ops_map_to_flow_metrics() {
        let op = |flow: &str| OpRecord {
            label: format!("tile=0,flow={flow}"),
            group: 0,
            result: Err(String::new()),
        };
        assert_eq!(op_flow_metric(&op("MoL S2D")), "core.flow_s.other");
        assert_eq!(op_flow_metric(&op("Macro-3D")), "core.flow_s.macro3d");
        assert_eq!(op_flow_metric(&op("2D")), "core.flow_s.2d");
        assert_eq!(op_flow_metric(&op("4D")), "core.flow_s.other");
    }
}

//! The stage-graph reuse determinism contract (DESIGN.md §17):
//! a flow re-entered from a worker's stage cache must produce a PPA
//! fingerprint bit-identical to a fully cold run, and the same
//! degradation report (a restored route keeps its residual overflow) —
//! across worker counts, across sweep-point submission orderings, and
//! with reuse disabled outright. Budget and fault-plan knobs must key every
//! stage and turn stage caching off entirely. Every field the
//! floorplan, place and route keys name must change what its stage key
//! says it changes, and the placer chunk size, which no key names,
//! must change nothing. A re-entry
//! shares the stored route and starts from the stored first sign-off
//! analysis, which must equal a fresh one. An STA re-entry must run at
//! least 3x faster than the same point run cold.

use macro3d::flow::sta_constraints;
use macro3d::flows::{Flow, FlowOutcome, Macro3d};
use macro3d::{
    ppa_fingerprint, stage_keys, DegradationReport, FlowConfig, Parallelism, PlacerBackend, Stage,
    StageCache, StageReuse,
};
use macro3d_dse::sweep::{apply_knob, run_sweep, SweepAxis, SweepSpec};
use macro3d_dse::{DseConfig, DseService, JobSpec, SweepOutcome};
use macro3d_geom::{Point, Rect};
use macro3d_place::MacroPlacement;
use macro3d_route::RouteConfig;
use macro3d_soc::{generate_tile, TileConfig, TileNetlist};
use macro3d_sta::{StaInput, StaSession};
use macro3d_tech::stack::MetalStack;
use macro3d_tech::Corner;
use std::sync::Arc;

/// A spec fast enough to run many times in a debug-mode test.
fn fast_spec() -> JobSpec {
    let mut spec = JobSpec::new("Macro-3D", TileConfig::mini());
    spec.config.sizing_rounds = 1;
    spec.config.route.iterations = 1;
    spec
}

fn service(workers: usize, stage_reuse: bool) -> DseService {
    DseService::start(DseConfig {
        workers,
        stage_reuse,
        ..DseConfig::default()
    })
    .unwrap()
}

/// Runs the sweep on a fresh service and returns the outcome plus the
/// service's stage-cache hit counter.
fn run_fresh(sweep: &SweepSpec, workers: usize, stage_reuse: bool) -> (SweepOutcome, u64) {
    let service = service(workers, stage_reuse);
    let client = service.client();
    let outcome = run_sweep(&client, sweep, |_| {}).unwrap();
    let stage_hits = client.stats().stage_hits;
    service.shutdown();
    (outcome, stage_hits)
}

fn fingerprints(outcome: &SweepOutcome) -> Vec<u64> {
    outcome
        .points
        .iter()
        .map(|p| ppa_fingerprint(&p.ok().expect("point succeeded").ppa))
        .collect()
}

/// Each point's degradation report, in grid order.
fn degradations(outcome: &SweepOutcome) -> Vec<DegradationReport> {
    outcome
        .points
        .iter()
        .map(|p| p.ok().expect("point succeeded").degradation.clone())
        .collect()
}

fn reuse_depths(outcome: &SweepOutcome) -> Vec<usize> {
    outcome
        .points
        .iter()
        .map(|p| p.ok().expect("point succeeded").reuse_depth)
        .collect()
}

/// The headline contract: a grid over late-stage knobs (route + STA)
/// shares its floorplan/place prefix, so warm points re-enter the
/// flow mid-way — and every fingerprint matches the cold scratch run,
/// at one worker and at eight.
#[test]
fn warm_prefix_fingerprints_match_cold_across_worker_counts() {
    let sweep = SweepSpec {
        base: fast_spec(),
        axes: vec![
            SweepAxis::new("route_iterations", &["1", "2"]),
            SweepAxis::new("sizing_rounds", &["0", "1"]),
        ],
    };
    let (serial, serial_hits) = run_fresh(&sweep, 1, true);
    let (wide, _) = run_fresh(&sweep, 8, true);
    let (cold, cold_hits) = run_fresh(&sweep, 1, false);

    assert!(
        serial_hits > 0,
        "a route/STA-only grid on one worker must reuse the place prefix"
    );
    assert_eq!(cold_hits, 0, "reuse off means no stage hits");
    assert!(
        reuse_depths(&serial).iter().any(|&d| d >= 2),
        "varying only route/STA knobs must re-enter after place, got {:?}",
        reuse_depths(&serial)
    );
    assert!(reuse_depths(&cold).iter().all(|&d| d == 0));

    let fp_cold = fingerprints(&cold);
    assert_eq!(
        fingerprints(&serial),
        fp_cold,
        "warm results must be bit-identical to the cold scratch run"
    );
    assert_eq!(
        fingerprints(&wide),
        fp_cold,
        "worker count must not change any result"
    );
    // a restored route still carries its residual overflow
    let cold_reports = degradations(&cold);
    assert_eq!(
        degradations(&serial),
        cold_reports,
        "warm points must report what the cold scratch run reports"
    );
    assert_eq!(degradations(&wide), cold_reports);
}

/// Submission order is a pure scheduling concern: a grid submitted in
/// reversed grid order (different cache temperatures per point)
/// produces the same per-point fingerprints.
#[test]
fn point_ordering_never_changes_results() {
    let axes = vec![
        SweepAxis::new("sizing_rounds", &["0", "1"]),
        SweepAxis::new("util_logic", &["0.55", "0.6"]),
    ];
    let forward = SweepSpec {
        base: fast_spec(),
        axes: axes.clone(),
    };
    let reversed = SweepSpec {
        base: fast_spec(),
        axes: axes
            .into_iter()
            .map(|a| SweepAxis {
                knob: a.knob,
                values: a.values.into_iter().rev().collect(),
            })
            .collect(),
    };
    let (f, _) = run_fresh(&forward, 2, true);
    let (r, _) = run_fresh(&reversed, 2, true);
    // same grid, mirrored labels: compare point-by-point via label
    let mut by_label: Vec<(String, u64)> = f
        .points
        .iter()
        .zip(fingerprints(&f))
        .map(|(p, fp)| (p.label.clone(), fp))
        .collect();
    by_label.sort();
    let mut by_label_rev: Vec<(String, u64)> = r
        .points
        .iter()
        .zip(fingerprints(&r))
        .map(|(p, fp)| (p.label.clone(), fp))
        .collect();
    by_label_rev.sort();
    assert_eq!(by_label, by_label_rev);
}

/// Budget and fault-plan knobs key every stage (no accidental prefix
/// sharing with unbudgeted runs) and disable stage caching for the
/// runs that carry them — a budgeted stage can cut work short, so its
/// boundary artifacts must never seed an unbudgeted run.
#[test]
fn budget_and_fault_knobs_key_stages_and_disable_reuse() {
    let base = fast_spec();
    let mut budgeted = fast_spec();
    apply_knob(&mut budgeted, "budget_wall_s", "10000").unwrap();
    let mut faulted = fast_spec();
    apply_knob(&mut faulted, "fault_site", "sta/sizing_rounds").unwrap();

    let kb = base.stage_keys();
    for other in [&budgeted, &faulted] {
        let ko = other.stage_keys();
        for stage in 0..macro3d::stage::NUM_STAGES {
            assert_ne!(
                kb.prefix[stage], ko.prefix[stage],
                "budget/fault must change the key of stage {stage}"
            );
        }
    }

    // two budgeted points sharing every upstream knob would reuse the
    // place prefix if caching were allowed; assert it is not
    let sweep = SweepSpec {
        base: budgeted,
        axes: vec![SweepAxis::new("sizing_rounds", &["0", "1"])],
    };
    let (outcome, stage_hits) = run_fresh(&sweep, 1, true);
    assert_eq!(stage_hits, 0, "budgeted runs must not use the stage cache");
    assert!(reuse_depths(&outcome).iter().all(|&d| d == 0));

    // a fault-exhaust point completes degraded, deterministically,
    // and never seeds the cache for its healthy sibling
    let sweep = SweepSpec {
        base: fast_spec(),
        axes: vec![SweepAxis::new("fault_site", &["sta/sizing_rounds", "none"])],
    };
    let (with_reuse, _) = run_fresh(&sweep, 1, true);
    let (no_reuse, _) = run_fresh(&sweep, 1, false);
    assert_eq!(fingerprints(&with_reuse), fingerprints(&no_reuse));
    assert_eq!(reuse_depths(&with_reuse)[0], 0, "faulted point stays cold");
}

/// Seeded pseudo-random grids (splitmix64, no external RNG): random
/// knob combinations submitted against a warm stage cache match a
/// scratch service point-for-point. Covers the 2D baseline too, so
/// both flow families exercise snapshot restore.
#[test]
fn random_knob_grids_are_reuse_invariant() {
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    let mut state = 0xc0ffee_u64;
    for flow in ["Macro-3D", "2D"] {
        // a small random grid biased toward shared prefixes: one
        // early-stage knob (util_logic), two late-stage knobs (one
        // re-enters at route, one at STA)
        let r = splitmix64(&mut state);
        let util = ["0.55", "0.6"][(r & 1) as usize];
        let rounds: Vec<&str> = match (r >> 1) & 1 {
            0 => vec!["0", "1"],
            _ => vec!["1", "2"],
        };
        let mut base = fast_spec();
        base.flow = flow.to_string();
        apply_knob(&mut base, "util_logic", util).unwrap();
        let sweep = SweepSpec {
            base,
            axes: vec![
                SweepAxis::new("sizing_rounds", &rounds),
                SweepAxis::new("route_iterations", &["1", "2"]),
            ],
        };
        let (warm, hits) = run_fresh(&sweep, 1, true);
        let (cold, _) = run_fresh(&sweep, 1, false);
        assert!(hits > 0, "{flow}: grid must hit the stage cache");
        assert_eq!(
            fingerprints(&warm),
            fingerprints(&cold),
            "{flow}: warm grid diverged from scratch run"
        );
    }
}

/// Pseudo-2D flows never touch the stage cache. On one worker, a
/// Macro-3D job that follows an S2D or C2D job still finds the
/// route/extract slots its Macro-3D predecessor stored, so a
/// sizing-only change re-enters at STA.
#[test]
fn pseudo2d_jobs_never_evict_the_direct_flow_prefix() {
    for flow in ["MoL S2D", "BF S2D", "C2D"] {
        let service = service(1, true);
        let client = service.client();
        let run = |spec: JobSpec| client.wait(client.submit(spec).unwrap()).unwrap();

        let mut first = fast_spec();
        first.config.sizing_rounds = 0;
        assert_eq!(run(first).reuse_depth, 0, "cold worker");
        let mut pseudo2d = fast_spec();
        pseudo2d.flow = flow.to_string();
        assert_eq!(run(pseudo2d).reuse_depth, 0, "{flow} never reuses");
        let last = run(fast_spec());
        assert_eq!(
            last.reuse_depth, 4,
            "{flow} between two Macro-3D jobs evicted their shared prefix"
        );
        service.shutdown();
    }
}

/// Runs Macro-3D on `tile`, the mini tile, against `cache` (stage
/// reuse on).
fn run_reusing(cache: &mut StageCache, tile: &TileNetlist, cfg: &FlowConfig) -> FlowOutcome {
    let mut reuse = StageReuse::begin(cache, "Macro-3D", &TileConfig::mini(), cfg);
    Macro3d
        .try_run_reusing(tile, cfg, reuse.as_mut())
        .expect("Macro-3D runs")
}

/// The F2F bond pitch keys only the STA stage: a pitch x sizing grid
/// on one worker routes once and re-enters every other point at STA,
/// bit-identical to a scratch run.
#[test]
fn pitch_sweeps_re_enter_at_sta() {
    let sweep = SweepSpec {
        base: fast_spec(),
        axes: vec![
            SweepAxis::new("f2f_pitch_um", &["1", "10"]),
            SweepAxis::new("sizing_rounds", &["1", "2"]),
        ],
    };
    let (warm, _) = run_fresh(&sweep, 1, true);
    let (cold, _) = run_fresh(&sweep, 1, false);
    let mut depths = reuse_depths(&warm);
    depths.sort_unstable();
    assert_eq!(depths, [0, 4, 4, 4], "a pitch change must not re-route");
    assert_eq!(fingerprints(&warm), fingerprints(&cold));
    assert_eq!(
        degradations(&warm),
        degradations(&cold),
        "an STA re-entry must report the restored route's residue"
    );
}

/// Reuse must pay for itself: on a sizing-only sweep every point after
/// the first re-enters at STA, and each such point runs at least 3x
/// faster than the same point run cold.
#[test]
fn sta_re_entries_are_at_least_3x_faster_than_cold() {
    let sweep = SweepSpec {
        base: JobSpec::new("Macro-3D", TileConfig::mini()),
        axes: vec![SweepAxis::new("sizing_rounds", &["0", "1", "2", "3"])],
    };
    let (cold, _) = run_fresh(&sweep, 1, false);
    let (warm, _) = run_fresh(&sweep, 1, true);
    assert_eq!(fingerprints(&warm), fingerprints(&cold));
    let depths = reuse_depths(&warm);
    assert!(depths.contains(&4), "no STA re-entry in {depths:?}");
    for (point, cold_point) in warm.points.iter().zip(&cold.points) {
        let (w, c) = (point.ok().expect("warm"), cold_point.ok().expect("cold"));
        if w.reuse_depth > 0 {
            assert!(
                c.wall_s >= 3.0 * w.wall_s,
                "{}: reused {:.4} s against cold {:.4} s",
                point.label,
                w.wall_s,
                c.wall_s
            );
        }
    }
}

/// A restored route carries no bump-density count: a warm run
/// recounts under its own pitch, so a coarse pitch that follows a
/// fine one reports what a cold coarse-pitch run reports.
#[test]
fn restored_routes_recount_bumps_under_the_new_pitch() {
    let tile = generate_tile(&TileConfig::mini());
    let pitched = |pitch: f64| {
        let mut cfg = fast_spec().config;
        cfg.route.f2f_pitch_um = Some(pitch);
        cfg
    };
    let mut cache = StageCache::new();
    let fine = run_reusing(&mut cache, &tile, &pitched(1.0));
    let coarse = run_reusing(&mut cache, &tile, &pitched(10.0));
    let cold = run_reusing(&mut StageCache::new(), &tile, &pitched(10.0));
    assert_eq!((fine.reuse_depth, coarse.reuse_depth), (0, 4));
    assert_eq!(fine.implemented.f2f_overcrowded_gcells, 0);
    assert!(cold.implemented.f2f_overcrowded_gcells > 0);
    assert_eq!(
        coarse.implemented.f2f_overcrowded_gcells, cold.implemented.f2f_overcrowded_gcells,
        "the warm run kept the restored route's count"
    );
}

/// A depth-4 re-entry reads the route the cold run stored: the two
/// runs' implemented designs hold one `RoutedDesign`, not two copies.
#[test]
fn sta_re_entries_share_the_cold_route() {
    let tile = generate_tile(&TileConfig::mini());
    let mut cache = StageCache::new();
    let cold = run_reusing(&mut cache, &tile, &fast_spec().config);
    let mut sized = fast_spec().config;
    sized.sizing_rounds += 1;
    let warm = run_reusing(&mut cache, &tile, &sized);
    assert_eq!((cold.reuse_depth, warm.reuse_depth), (0, 4));
    assert!(Arc::ptr_eq(
        &cold.implemented.routed,
        &warm.implemented.routed
    ));
}

/// The extract snapshot carries the first sign-off analysis. Over the
/// restored snapshots' own inputs, a fresh session and analysis must
/// report exactly what the snapshot stored.
#[test]
fn restored_first_analysis_matches_a_fresh_one() {
    let tile = generate_tile(&TileConfig::mini());
    let cfg = fast_spec().config;
    let mut cache = StageCache::new();
    run_reusing(&mut cache, &tile, &cfg);
    let reuse = StageReuse::begin(&mut cache, "Macro-3D", &TileConfig::mini(), &cfg)
        .expect("no budget or fault plan");
    assert_eq!(reuse.start_stage(), 4);
    let placed = reuse.place_snap().expect("place slot");
    let route = reuse.route_snap().expect("route slot");
    let extract = reuse.extract_snap().expect("extract slot");
    let constraints = sta_constraints(&tile);
    let input = StaInput {
        design: &placed.design,
        parasitics: &extract.parasitics,
        routed: Some(&route),
        constraints: &constraints,
        clock: &extract.clock,
        corner: Corner::signoff(),
    };
    let fresh = StaSession::new(&input).analyze(&input, &cfg.parallelism);
    assert_eq!(extract.timing, fresh);
}

/// The first stage whose Macro-3D key on `mini` differs between two
/// configs, or `None` when every key agrees.
fn first_keyed_stage(a: &FlowConfig, b: &FlowConfig) -> Option<Stage> {
    let (a, b) = (
        stage_keys("Macro-3D", &TileConfig::mini(), a),
        stage_keys("Macro-3D", &TileConfig::mini(), b),
    );
    Stage::all().into_iter().find(|&s| a.key(s) != b.key(s))
}

/// The floorplan and place artifacts a run under `cfg` left in
/// `cache`: the die, macro rects and stack, and every instance's
/// position.
fn stored_artifacts(
    cache: &mut StageCache,
    cfg: &FlowConfig,
) -> ((Rect, Vec<MacroPlacement>, MetalStack), Vec<Point>) {
    let reuse = StageReuse::begin(cache, "Macro-3D", &TileConfig::mini(), cfg)
        .expect("no budget or fault plan");
    let planned = reuse.floorplan_snap().expect("floorplan slot");
    let placed = reuse.place_snap().expect("place slot");
    let fp = (
        planned.fp.die(),
        planned.fp.macros.clone(),
        planned.stack.clone(),
    );
    (fp, placed.placement.pos.clone())
}

/// The over-keying guard for the floorplan and place stages. Every
/// field the floorplan or place key names must first move its own
/// stage's key and change that stage's artifact on `mini` (a place
/// field leaves the floorplan as it is). The placer chunk size, which
/// no key names, must leave the placement of both backends
/// bit-identical.
#[test]
fn every_floorplan_and_place_key_field_changes_its_stage_artifact() {
    type Edit = fn(&mut FlowConfig);
    let floorplan: [(&str, Edit); 5] = [
        ("logic_metals", |c| c.logic_metals += 1),
        ("macro_metals", |c| c.macro_metals = 4),
        ("util_logic", |c| c.util_logic -= 0.05),
        ("util_macro", |c| c.util_macro -= 0.05),
        ("halo_um", |c| c.halo_um *= 2.0),
    ];
    let place: [(&str, Edit); 2] = [
        ("place.backend", |c| {
            c.place.backend = PlacerBackend::Analytical
        }),
        ("repeater_max_len_um", |c| c.repeater_max_len_um *= 0.5),
    ];
    let tile = generate_tile(&TileConfig::mini());
    let base = fast_spec().config;
    let mut cache = StageCache::new();
    run_reusing(&mut cache, &tile, &base);
    let (base_fp, base_placed) = stored_artifacts(&mut cache, &base);
    for (stage, fields) in [(Stage::Floorplan, &floorplan[..]), (Stage::Place, &place)] {
        for (field, edit) in fields {
            let mut cfg = base.clone();
            edit(&mut cfg);
            assert_eq!(first_keyed_stage(&base, &cfg), Some(stage), "{field}");
            run_reusing(&mut cache, &tile, &cfg);
            let (fp, placed) = stored_artifacts(&mut cache, &cfg);
            let moved = if stage == Stage::Floorplan {
                fp != base_fp
            } else {
                assert!(fp == base_fp, "{field} changed the floorplan");
                placed != base_placed
            };
            assert!(
                moved,
                "{field} keys the {} stage but changes nothing on mini",
                stage.name()
            );
        }
    }

    for backend in [PlacerBackend::Bisection, PlacerBackend::Analytical] {
        let placed = |chunk_size: usize| {
            let mut cfg = base.clone();
            cfg.place.backend = backend;
            cfg.place.parallelism.chunk_size = chunk_size;
            let mut cache = StageCache::new();
            run_reusing(&mut cache, &tile, &cfg);
            stored_artifacts(&mut cache, &cfg).1
        };
        let want = placed(base.place.parallelism.chunk_size);
        for chunk_size in [1, 5] {
            assert!(
                placed(chunk_size) == want,
                "{backend:?}: chunk size {chunk_size}"
            );
        }
    }
}

/// The over-keying guard for the route stage. Every `RouteConfig`
/// field the route key names must change the routed design on `mini`;
/// `f2f_pitch_um`, keyed at STA, must leave the route bit-identical
/// and move only the sign-off count; `sizing_rounds`, the other STA
/// knob, must move the fingerprint. The destructuring has no `..`, so
/// a new route field does not compile until it has a perturbation.
#[test]
fn every_route_key_field_changes_its_stage_artifact() {
    let tile = generate_tile(&TileConfig::mini());
    let base = fast_spec().config;
    let keyed_at = |cfg: &FlowConfig| first_keyed_stage(&base, cfg);
    let RouteConfig {
        utilization,
        iterations,
        via_cost,
        f2f_pitch_um,
        // results are thread-count invariant (route_determinism.rs)
        parallelism: Parallelism {
            threads: _,
            chunk_size,
        },
    } = base.route;
    let perturbed = |perturb: &dyn Fn(&mut RouteConfig)| {
        let mut cfg = base.clone();
        perturb(&mut cfg.route);
        cfg
    };
    let keyed = [
        (
            "utilization",
            perturbed(&|r| r.utilization = utilization * 0.8),
        ),
        ("iterations", perturbed(&|r| r.iterations = iterations + 2)),
        ("via_cost", perturbed(&|r| r.via_cost = via_cost + 1.0)),
        (
            "parallelism.chunk_size",
            perturbed(&|r| r.parallelism.chunk_size = chunk_size / 4),
        ),
    ];

    let mut cache = StageCache::new();
    let reference = run_reusing(&mut cache, &tile, &base);
    for (field, cfg) in keyed {
        assert_eq!(keyed_at(&cfg), Some(Stage::Route), "route.{field}");
        let got = run_reusing(&mut cache, &tile, &cfg);
        assert!(
            got.implemented.routed != reference.implemented.routed,
            "route.{field} keys the route stage but changes no route on mini"
        );
    }

    let coarse = perturbed(&|r| r.f2f_pitch_um = f2f_pitch_um.map(|p| p * 10.0));
    assert_eq!(keyed_at(&coarse), Some(Stage::Sta));
    let got = run_reusing(&mut cache, &tile, &coarse);
    assert!(got.implemented.routed == reference.implemented.routed);
    assert_eq!(ppa_fingerprint(&got.ppa), ppa_fingerprint(&reference.ppa));
    assert_ne!(
        got.implemented.f2f_overcrowded_gcells,
        reference.implemented.f2f_overcrowded_gcells
    );

    let mut sized = base.clone();
    sized.sizing_rounds += 1;
    assert_eq!(keyed_at(&sized), Some(Stage::Sta));
    let got = run_reusing(&mut cache, &tile, &sized);
    assert_ne!(ppa_fingerprint(&got.ppa), ppa_fingerprint(&reference.ppa));
}

//! Criterion benches of the individual engines (scaling behaviour),
//! including the serial-vs-parallel router and placer comparisons.
//! The router comparison writes `BENCH_route.json` (measurements plus
//! the Macro-3D flow's per-stage wall-clock) and the placer
//! comparison writes `BENCH_place.json` (serial-vs-parallel seconds,
//! speedup, and cold-vs-warm build-cache setup time) for offline
//! tracking. The STA comparison writes `BENCH_sta.json` (probe vs
//! parametric sign-off analysis, cold vs incremental sizing loop).
//!
//! Set `MACRO3D_BENCH_SMOKE=1` to run a down-scaled few-sample
//! variant (the CI smoke run; it leaves the tracked JSON dumps alone
//! — the route bench writes `target/BENCH_route_smoke.json` instead
//! so CI can validate the shape), and
//! `MACRO3D_BENCH_ONLY=<name>[,<name>...]` to run a subset of the
//! bench functions (e.g. `place_parallelism`).
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use macro3d::flows::{Flow, Macro3d};
use macro3d_geom::{Dbu, Point, Rect};
use macro3d_netlist::NetId;
use macro3d_place::{
    global_place, legalize, legalize_abacus, total_hpwl, Floorplan, GlobalPlaceConfig,
    PlacerBackend, PortPlan,
};
use macro3d_route::{Parallelism, RouteConfig, RouteRequest, Router};
use macro3d_soc::{generate_tile, TileConfig, TileNetlist};
use macro3d_tech::stack::{n28_stack, DieRole};

/// `MACRO3D_BENCH_SMOKE=1`: quick CI variant.
fn smoke() -> bool {
    std::env::var_os("MACRO3D_BENCH_SMOKE").is_some()
}

/// `MACRO3D_BENCH_ONLY=a,b`: run only the named bench functions.
fn bench_enabled(name: &str) -> bool {
    match std::env::var("MACRO3D_BENCH_ONLY") {
        Ok(only) if !only.is_empty() => only.split(',').any(|p| p.trim() == name),
        _ => true,
    }
}

fn bench_tile_generation(c: &mut Criterion) {
    if !bench_enabled("tile_generation") {
        return;
    }
    let mut g = c.benchmark_group("netlist_generation");
    g.sample_size(10);
    for scale in [64.0, 32.0, 16.0] {
        g.bench_with_input(
            BenchmarkId::new("small_cache", scale as u64),
            &scale,
            |b, &s| b.iter(|| generate_tile(&TileConfig::small_cache().with_scale(s))),
        );
    }
    g.finish();
}

fn bench_global_place(c: &mut Criterion) {
    if !bench_enabled("global_place") {
        return;
    }
    let tile = generate_tile(&TileConfig::small_cache().with_scale(64.0));
    let lib = tile.design.library().clone();
    let fp = Floorplan::new(
        Rect::from_um(0.0, 0.0, 1_000.0, 1_000.0),
        lib.row_height(),
        lib.site_width(),
    );
    let ports = PortPlan::assign(&tile.design, fp.die());
    let mut g = c.benchmark_group("place");
    g.sample_size(10);
    g.bench_function("global_place_small48", |b| {
        b.iter(|| global_place(&tile.design, &fp, &ports, &GlobalPlaceConfig::default()))
    });
    g.finish();
}

fn bench_router(c: &mut Criterion) {
    if !bench_enabled("router") {
        return;
    }
    let stack = n28_stack(6, DieRole::Logic);
    let die = Rect::from_um(0.0, 0.0, 500.0, 500.0);
    // a synthetic net set: 2000 random two-pin nets
    let mut nets = Vec::new();
    let mut x = 7u64;
    let mut next = || {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        ((x >> 33) % 500) as f64
    };
    for i in 0..2_000u32 {
        nets.push((
            NetId(i),
            vec![
                (Point::from_um(next(), next()), 0u16),
                (Point::from_um(next(), next()), 0u16),
            ],
        ));
    }
    let mut g = c.benchmark_group("route");
    g.sample_size(10);
    g.bench_function("global_route_2k_nets", |b| {
        b.iter(|| {
            Router::new(
                &RouteRequest {
                    die,
                    stack: &stack,
                    obstacles: &[],
                    nets: &nets,
                    num_nets: 2_000,
                },
                &RouteConfig::default(),
            )
            .route()
        })
    });
    g.finish();
    let _ = Dbu(0);
}

/// Standalone MoL floorplan for the parallelism benches: die sized
/// from `area_factor * a3d`, macros packed by the cached MoL seed
/// (leaving macros unplaced piles every macro pin at the origin and
/// the router then thrashes on fictitious congestion).
fn mol_bench_floorplan(
    tile: &TileNetlist,
    cfg: &macro3d::FlowConfig,
    area_factor: f64,
) -> (Floorplan, PortPlan) {
    let lib = tile.design.library().clone();
    let budget = macro3d::flow::area_budget(&tile.design, cfg);
    let die = macro3d_place::floorplan::die_for_area(
        area_factor * budget.a3d_um2,
        1.0,
        lib.row_height(),
        lib.site_width(),
    );
    let mut fp = Floorplan::new(die, lib.row_height(), lib.site_width());
    let halo = Dbu::from_um(cfg.halo_um);
    let mol = macro3d::build_cache::cached_mol_floorplan(
        &tile.design,
        die,
        halo,
        cfg.util_macro,
        cfg.halo_um,
    );
    for &mp in mol.0.iter().chain(mol.1.iter()) {
        fp.add_macro(mp, DieRole::Logic, halo);
    }
    let ports = PortPlan::assign(&tile.design, die);
    (fp, ports)
}

/// Serial vs batched-parallel `Router` sessions on the large-cache
/// tile (the macro-heavy configuration with the most routing work),
/// plus the incremental `update()` path and a JSON dump for offline
/// comparison.
fn bench_route_parallelism(c: &mut Criterion) {
    if !bench_enabled("route_parallelism") {
        return;
    }
    let cfg = macro3d::FlowConfig::default();
    let tile = generate_tile(&TileConfig::large_cache().with_scale(64.0));

    // a quick standalone floorplan + global placement supplies
    // realistic pin locations without the full flow
    let (fp, ports) = mol_bench_floorplan(&tile, &cfg, 2.0);
    let die = fp.die();
    let placement = global_place(&tile.design, &fp, &ports, &GlobalPlaceConfig::default());
    let stack = n28_stack(cfg.logic_metals, DieRole::Logic);
    let nets = macro3d::flow::route_pins(
        &tile.design,
        &placement,
        &ports,
        cfg.logic_metals,
        stack.num_layers(),
        false,
    );
    let request = RouteRequest {
        die,
        stack: &stack,
        obstacles: &[],
        nets: &nets,
        num_nets: tile.design.num_nets(),
    };

    let mut g = c.benchmark_group("route_parallelism");
    g.sample_size(if smoke() { 1 } else { 5 });
    for (name, par) in [
        ("serial", Parallelism::serial()),
        ("parallel", Parallelism::default()),
    ] {
        let mut rc = cfg.route;
        rc.parallelism = par;
        g.bench_function(name, |b| b.iter(|| Router::new(&request, &rc).route()));
    }
    // budget-checkpoint overhead: the identical parallel route inside
    // an active BudgetScope whose caps never fire, so every rip-up
    // iteration pays the checkpoint probe. Compare `budgeted` against
    // `parallel` in BENCH_route.json — the delta is the cooperative-
    // checkpoint tax on the route stage (well under 1%).
    {
        let mut rc = cfg.route;
        rc.parallelism = Parallelism::default();
        let budget = macro3d::FlowBudget::unlimited().with_cap("route/iterations", u64::MAX);
        g.bench_function("budgeted", |b| {
            b.iter(|| {
                let scope = macro3d_par::BudgetScope::begin(&budget, None);
                let routed = Router::new(&request, &rc).route();
                let report = scope.finish();
                (routed, report)
            })
        });
    }
    // the incremental path a DSE loop would take: a live session
    // absorbing a 1%-of-nets perturbation (pins shifted one GCell)
    // without re-routing the rest of the design
    let perturbed: Vec<_> = nets
        .iter()
        .step_by(100)
        .map(|(id, pins)| {
            let shift = Point::from_um(cfg.route.gcell_um, 0.0) - Point::ORIGIN;
            let moved = pins
                .iter()
                .map(|&(p, l)| ((p + shift).min(die.hi).max(die.lo), l))
                .collect();
            (*id, moved)
        })
        .collect();
    let mut session = Router::new(&request, &cfg.route);
    session.route();
    g.bench_function("incremental", |b| b.iter(|| session.update(&perturbed)));
    g.finish();

    // per-stage wall-clock of one full Macro-3D run on the same tile
    let stage_times = Macro3d.run(&tile, &cfg).implemented.stage_times;
    if smoke() {
        // the CI smoke run validates shape, not numbers: write to
        // target/ so the tracked BENCH_route.json keeps real samples
        write_route_json(c, &stage_times, "target/BENCH_route_smoke.json");
    } else {
        write_route_json(c, &stage_times, "BENCH_route.json");
    }
}

/// The JSON dumps live at the workspace root regardless of the bench
/// binary's working directory.
fn bench_json_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name)
}

/// The host header every bench JSON dump starts with: schema stamp,
/// physical CPU budget and the thread count `Parallelism::default()`
/// resolves to.
fn push_host_header(s: &mut String) {
    use std::fmt::Write as _;
    let _ = writeln!(s, "  \"schema_version\": {},", macro3d_dse::SCHEMA_VERSION);
    let _ = writeln!(
        s,
        "  \"host_cpus\": {},",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let _ = writeln!(
        s,
        "  \"effective_threads\": {},",
        Parallelism::default().effective_threads()
    );
}

/// Writes the route JSON dump (`BENCH_route.json`, or a target/ copy
/// in smoke mode): the route_parallelism measurements and the flow's
/// per-stage seconds.
fn write_route_json(c: &Criterion, stages: &macro3d::StageTimes, name: &str) {
    use std::fmt::Write as _;
    let mut s = String::from("{\n");
    push_host_header(&mut s);
    s.push_str("  \"route\": [\n");
    let route: Vec<_> = c
        .measurements()
        .iter()
        .filter(|m| m.id.starts_with("route_parallelism/"))
        .collect();
    for (k, m) in route.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"id\": \"{}\", \"samples\": {}, \"min_s\": {:.6}, \"mean_s\": {:.6}, \"max_s\": {:.6}}}{}",
            m.id,
            m.samples,
            m.min.as_secs_f64(),
            m.mean.as_secs_f64(),
            m.max.as_secs_f64(),
            if k + 1 < route.len() { "," } else { "" }
        );
    }
    s.push_str("  ],\n  \"macro3d_stage_seconds\": [\n");
    for (k, (stage, secs)) in stages.stages.iter().enumerate() {
        let _ = writeln!(
            s,
            "    [\"{stage}\", {secs:.6}]{}",
            if k + 1 < stages.stages.len() { "," } else { "" }
        );
    }
    s.push_str("  ]\n}\n");
    let path = bench_json_path(name);
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(&path, &s) {
        Ok(()) => eprintln!("wrote {name}"),
        Err(e) => eprintln!("could not write {name}: {e}"),
    }
}

/// Serial vs fork-join `global_place` on the large-cache tile — for
/// *both* backends (bisection and the analytical electrostatic
/// placer) — plus the analytical-vs-bisection HPWL comparison on the
/// Table-1 small-cache tile and the build-cache cold/warm setup
/// comparison, dumped to `BENCH_place.json`.
fn bench_place_parallelism(c: &mut Criterion) {
    if !bench_enabled("place_parallelism") {
        return;
    }
    let cfg = macro3d::FlowConfig::default();
    let tile_cfg = TileConfig::large_cache().with_scale(if smoke() { 64.0 } else { 12.0 });
    let tile = generate_tile(&tile_cfg);
    let (fp, ports) = mol_bench_floorplan(&tile, &cfg, 2.0);

    let mut g = c.benchmark_group("place_parallelism");
    g.sample_size(if smoke() { 2 } else { 5 });
    for (name, threads, backend) in [
        ("serial", 1, PlacerBackend::Bisection),
        ("parallel8", 8, PlacerBackend::Bisection),
        ("analytical_serial", 1, PlacerBackend::Analytical),
        ("analytical_parallel", 8, PlacerBackend::Analytical),
    ] {
        let pcfg = GlobalPlaceConfig {
            parallelism: Parallelism::threads(threads),
            backend,
            ..GlobalPlaceConfig::default()
        };
        g.bench_function(name, |b| {
            b.iter(|| global_place(&tile.design, &fp, &ports, &pcfg))
        });
    }
    g.finish();

    // QoR: legalized HPWL of both backends on the Table-1 small-cache
    // tile (each backend goes through its own legalizer, exactly like
    // the flow's place pipeline)
    let qor_tile =
        generate_tile(&TileConfig::small_cache().with_scale(if smoke() { 64.0 } else { 16.0 }));
    let (qfp, qports) = mol_bench_floorplan(&qor_tile, &cfg, 2.0);
    let hpwl_um_of = |backend: PlacerBackend| {
        let pcfg = GlobalPlaceConfig {
            backend,
            ..GlobalPlaceConfig::default()
        };
        let mut p = global_place(&qor_tile.design, &qfp, &qports, &pcfg);
        let movable: Vec<_> = qor_tile
            .design
            .inst_ids()
            .filter(|&i| !qor_tile.design.is_macro(i))
            .collect();
        match backend {
            PlacerBackend::Bisection => legalize(&qor_tile.design, &qfp, &mut p, &movable),
            PlacerBackend::Analytical => legalize_abacus(&qor_tile.design, &qfp, &mut p, &movable),
        };
        total_hpwl(&qor_tile.design, &p, &qports).to_um()
    };
    let hpwl_bisection = hpwl_um_of(PlacerBackend::Bisection);
    let hpwl_analytical = hpwl_um_of(PlacerBackend::Analytical);

    let (cold_s, warm_s) = time_flow_setup(&tile_cfg, &cfg);
    if smoke() {
        // shape-validation copy for CI; the tracked BENCH_place.json
        // keeps real samples
        write_place_json(
            c,
            cold_s,
            warm_s,
            hpwl_bisection,
            hpwl_analytical,
            "target/BENCH_place_smoke.json",
        );
    } else {
        write_place_json(
            c,
            cold_s,
            warm_s,
            hpwl_bisection,
            hpwl_analytical,
            "BENCH_place.json",
        );
    }
}

/// Times the shared `standard_flows()` setup artifacts (tile netlist,
/// stacks, combined BEOL, MoL floorplan seed) built cold (empty
/// cache) and then warm (all hits).
fn time_flow_setup(tile_cfg: &TileConfig, cfg: &macro3d::FlowConfig) -> (f64, f64) {
    use macro3d::build_cache::{
        cached_combined_beol, cached_mol_floorplan, cached_stack, cached_tile, global,
    };
    let build_all = |tile_cfg: &TileConfig| {
        let tile = cached_tile(tile_cfg);
        let _ = cached_stack(cfg.logic_metals, DieRole::Logic);
        let _ = cached_stack(cfg.macro_metals, DieRole::Macro);
        let _ = cached_combined_beol(cfg.logic_metals, cfg.macro_metals);
        let budget = macro3d::flow::area_budget(&tile.design, cfg);
        let lib = tile.design.library().clone();
        let die = macro3d_place::floorplan::die_for_area(
            budget.a3d_um2,
            1.0,
            lib.row_height(),
            lib.site_width(),
        );
        let _ = cached_mol_floorplan(
            &tile.design,
            die,
            Dbu::from_um(cfg.halo_um),
            cfg.util_macro,
            cfg.halo_um,
        );
    };
    global().clear();
    let t0 = std::time::Instant::now();
    build_all(tile_cfg);
    let cold = t0.elapsed().as_secs_f64();
    let t1 = std::time::Instant::now();
    build_all(tile_cfg);
    let warm = t1.elapsed().as_secs_f64();
    (cold, warm)
}

/// Writes the place JSON dump (`BENCH_place.json`, or a target/ copy
/// in smoke mode): per-backend serial/parallel global_place seconds,
/// the measured speedups, the analytical-vs-bisection legalized HPWL
/// on the Table-1 tile, and the build-cache setup comparison.
fn write_place_json(
    c: &Criterion,
    cold_s: f64,
    warm_s: f64,
    hpwl_bisection_um: f64,
    hpwl_analytical_um: f64,
    name: &str,
) {
    use std::fmt::Write as _;
    let place: Vec<_> = c
        .measurements()
        .iter()
        .filter(|m| m.id.starts_with("place_parallelism/"))
        .collect();
    let mean_of = |suffix: &str| {
        place
            .iter()
            .find(|m| m.id.ends_with(suffix))
            .map(|m| m.mean.as_secs_f64())
    };
    let mut s = String::from("{\n");
    push_host_header(&mut s);
    s.push_str("  \"place\": [\n");
    for (k, m) in place.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"id\": \"{}\", \"samples\": {}, \"min_s\": {:.6}, \"mean_s\": {:.6}, \"max_s\": {:.6}}}{}",
            m.id,
            m.samples,
            m.min.as_secs_f64(),
            m.mean.as_secs_f64(),
            m.max.as_secs_f64(),
            if k + 1 < place.len() { "," } else { "" }
        );
    }
    s.push_str("  ],\n");
    if let (Some(serial), Some(par)) = (mean_of("/serial"), mean_of("/parallel8")) {
        let _ = writeln!(s, "  \"speedup_8t\": {:.3},", serial / par.max(1e-12));
    }
    if let (Some(serial), Some(par)) = (
        mean_of("/analytical_serial"),
        mean_of("/analytical_parallel"),
    ) {
        let _ = writeln!(
            s,
            "  \"analytical_speedup_8t\": {:.3},",
            serial / par.max(1e-12)
        );
    }
    let _ = writeln!(s, "  \"hpwl_bisection_um\": {hpwl_bisection_um:.3},");
    let _ = writeln!(s, "  \"hpwl_analytical_um\": {hpwl_analytical_um:.3},");
    let _ = writeln!(
        s,
        "  \"hpwl_ratio\": {:.4},",
        hpwl_analytical_um / hpwl_bisection_um.max(1e-12)
    );
    let _ = writeln!(s, "  \"setup_cold_s\": {cold_s:.6},");
    let _ = writeln!(s, "  \"setup_warm_s\": {warm_s:.6},");
    let _ = writeln!(s, "  \"setup_speedup\": {:.1}", cold_s / warm_s.max(1e-12));
    s.push_str("}\n");
    let path = bench_json_path(name);
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(&path, &s) {
        Ok(()) => eprintln!("wrote {name}"),
        Err(e) => eprintln!("could not write {name}: {e}"),
    }
}

/// Synthetic per-net parasitics for the STA benches: deterministic
/// pseudo-random Elmore/caps so the timing graph has realistic spread
/// without running place/route/extract.
fn synthetic_parasitics(design: &macro3d_netlist::Design) -> Vec<macro3d_extract::NetParasitics> {
    let mut x = 11u64;
    let mut next = || {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        (x >> 33) as f64 / (1u64 << 31) as f64
    };
    design
        .net_ids()
        .map(|n| {
            let sinks = design.sinks(n).count();
            let base = 40.0 * next();
            macro3d_extract::NetParasitics {
                wire_cap_ff: 1.0 + 3.0 * next(),
                total_res_ohm: 30.0 + 90.0 * next(),
                elmore_ps: (0..sinks).map(|s| base + s as f64 * 5.0 * next()).collect(),
                driver_load_ff: 2.0 + 4.0 * next(),
            }
        })
        .collect()
}

/// Probe vs parametric sign-off analysis, and the cold vs incremental
/// sizing loop, on the small-cache tile. Dumps `BENCH_sta.json`.
fn bench_sta_parallelism(c: &mut Criterion) {
    use macro3d_sta::{
        analyze_par, analyze_probe, apply_sizing_to_parasitics, upsize_critical_path,
        ClockArrivals, StaInput, StaSession,
    };

    if !bench_enabled("sta_parallelism") {
        return;
    }
    let tile =
        generate_tile(&TileConfig::small_cache().with_scale(if smoke() { 64.0 } else { 16.0 }));
    let constraints = macro3d::flow::sta_constraints(&tile);
    let design = tile.design;
    let parasitics = synthetic_parasitics(&design);
    let clock = ClockArrivals::ideal(&design);
    let par = Parallelism::default();
    fn input<'a>(
        d: &'a macro3d_netlist::Design,
        p: &'a [macro3d_extract::NetParasitics],
        constraints: &'a macro3d_sta::StaConstraints,
        clock: &'a ClockArrivals,
    ) -> StaInput<'a> {
        StaInput {
            design: d,
            parasitics: p,
            routed: None,
            constraints,
            clock,
            corner: macro3d_tech::Corner::Ss,
        }
    }

    let mut g = c.benchmark_group("sta_parallelism");
    g.sample_size(if smoke() { 2 } else { 10 });
    g.bench_function("analyze_probe", |b| {
        b.iter(|| analyze_probe(&input(&design, &parasitics, &constraints, &clock), &par))
    });
    g.bench_function("analyze_parametric", |b| {
        b.iter(|| analyze_par(&input(&design, &parasitics, &constraints, &clock), &par))
    });
    g.finish();

    // the sizing loop mutates design + parasitics: time whole loops on
    // fresh clones instead of criterion iterations
    let rounds = 8usize;
    let run_probe = || {
        let mut d = design.clone();
        let mut p = parasitics.clone();
        let t0 = std::time::Instant::now();
        let mut timing = analyze_probe(&input(&d, &p, &constraints, &clock), &par);
        for _ in 0..rounds {
            let changes = upsize_critical_path(&mut d, &timing);
            if changes.is_empty() {
                break;
            }
            apply_sizing_to_parasitics(&d, &changes, &mut p);
            timing = analyze_probe(&input(&d, &p, &constraints, &clock), &par);
        }
        (t0.elapsed().as_secs_f64(), timing.min_period_ps)
    };
    let run_incremental = || {
        let mut d = design.clone();
        let mut p = parasitics.clone();
        let t0 = std::time::Instant::now();
        let mut session = StaSession::new(&input(&d, &p, &constraints, &clock));
        let mut timing = session.analyze(&input(&d, &p, &constraints, &clock), &par);
        for _ in 0..rounds {
            let changes = upsize_critical_path(&mut d, &timing);
            if changes.is_empty() {
                break;
            }
            let touched = apply_sizing_to_parasitics(&d, &changes, &mut p);
            timing = session.update(&input(&d, &p, &constraints, &clock), &touched, &par);
        }
        (t0.elapsed().as_secs_f64(), timing.min_period_ps)
    };
    let (probe_loop_s, probe_period) = run_probe();
    let (incr_loop_s, incr_period) = run_incremental();
    assert!(
        (probe_period - incr_period).abs() <= 2.0 * macro3d_sta::PROBE_RESOLUTION_PS,
        "sizing loops diverged: probe {probe_period} vs incremental {incr_period}"
    );

    if smoke() {
        eprintln!(
            "smoke mode: not overwriting BENCH_sta.json \
             (sizing loop probe {probe_loop_s:.3}s / incremental {incr_loop_s:.3}s)"
        );
    } else {
        write_sta_json(c, probe_loop_s, incr_loop_s, probe_period);
    }
}

/// Writes `BENCH_sta.json`: probe vs parametric single-analysis
/// measurements, the full sizing-loop comparison, and the speedups.
fn write_sta_json(c: &Criterion, probe_loop_s: f64, incr_loop_s: f64, period_ps: f64) {
    use std::fmt::Write as _;
    let sta: Vec<_> = c
        .measurements()
        .iter()
        .filter(|m| m.id.starts_with("sta_parallelism/"))
        .collect();
    let mean_of = |suffix: &str| {
        sta.iter()
            .find(|m| m.id.ends_with(suffix))
            .map(|m| m.mean.as_secs_f64())
    };
    let mut s = String::from("{\n");
    push_host_header(&mut s);
    s.push_str("  \"analyze\": [\n");
    for (k, m) in sta.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"id\": \"{}\", \"samples\": {}, \"min_s\": {:.6}, \"mean_s\": {:.6}, \"max_s\": {:.6}}}{}",
            m.id,
            m.samples,
            m.min.as_secs_f64(),
            m.mean.as_secs_f64(),
            m.max.as_secs_f64(),
            if k + 1 < sta.len() { "," } else { "" }
        );
    }
    s.push_str("  ],\n");
    if let (Some(probe), Some(param)) = (mean_of("/analyze_probe"), mean_of("/analyze_parametric"))
    {
        let _ = writeln!(s, "  \"analyze_speedup\": {:.3},", probe / param.max(1e-12));
    }
    let _ = writeln!(s, "  \"sizing_loop_probe_s\": {probe_loop_s:.6},");
    let _ = writeln!(s, "  \"sizing_loop_incremental_s\": {incr_loop_s:.6},");
    let _ = writeln!(
        s,
        "  \"sizing_loop_speedup\": {:.3},",
        probe_loop_s / incr_loop_s.max(1e-12)
    );
    let _ = writeln!(s, "  \"min_period_ps\": {period_ps:.3}");
    s.push_str("}\n");
    match std::fs::write(bench_json_path("BENCH_sta.json"), &s) {
        Ok(()) => eprintln!("wrote BENCH_sta.json"),
        Err(e) => eprintln!("could not write BENCH_sta.json: {e}"),
    }
}

/// Cold-vs-warm throughput of the DSE job service over a small sweep.
/// Not a sampled criterion measurement: one cold pass against a fresh
/// persisted cache and one warm pass from a fresh service over the
/// same cache directory — the interesting numbers are jobs/sec at
/// each temperature and the persisted-cache speedup. Asserts the
/// determinism contract (cold and warm fingerprints bit-identical)
/// while it is at it.
fn bench_dse_service(_c: &mut Criterion) {
    if !bench_enabled("dse_service") {
        return;
    }
    use macro3d_dse::sweep::{run_sweep, SweepAxis, SweepSpec};
    use macro3d_dse::{DseConfig, DseService, DseStats, JobSpec, SweepOutcome};

    let cache_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("bench_dse_cache");
    let _ = std::fs::remove_dir_all(&cache_dir);

    let mut base = JobSpec::new("Macro-3D", TileConfig::mini());
    base.config.sizing_rounds = 1;
    base.config.route.iterations = 1;
    let sweep = SweepSpec {
        base,
        axes: vec![
            SweepAxis::new("macro_metals", &["4", "6"]),
            SweepAxis::new("util_logic", &["0.55", "0.65"]),
        ],
    };

    let pass = || -> (SweepOutcome, DseStats, usize) {
        let service = DseService::start(DseConfig {
            workers: 0,
            cache_dir: Some(cache_dir.clone()),
            ..DseConfig::default()
        })
        .expect("dse service start");
        let workers = service.workers();
        let outcome = run_sweep(&service.client(), &sweep, |_| {}).expect("dse sweep");
        let stats = service.client().stats();
        service.shutdown();
        (outcome, stats, workers)
    };
    let cold = pass();
    let warm = pass();

    let fingerprints = |o: &SweepOutcome| -> Vec<Option<u64>> {
        o.points
            .iter()
            .map(|p| p.ok().map(|r| macro3d::jsonio::ppa_fingerprint(&r.ppa)))
            .collect()
    };
    let identical = fingerprints(&cold.0) == fingerprints(&warm.0);
    assert!(identical, "cold and warm sweep fingerprints diverged");
    assert!(warm.1.cache.hits > 0, "warm pass saw no cache hits");

    // --- stage-graph prefix reuse (DESIGN.md §17) ------------------
    // A sweep varying only the STA-stage knob shares its whole
    // floorplan/place/route/extract prefix, so every point after the
    // first re-enters the flow at the STA stage on one worker. The
    // scratch pass (stage reuse off) gives the per-point cold
    // baseline; per-point speedup is warm wall vs cold wall of the
    // *same* point, and fingerprints must match bit-exactly.
    let mut reuse_base = JobSpec::new("Macro-3D", TileConfig::mini());
    reuse_base.config.sizing_rounds = 1;
    let rounds: &[&str] = if smoke() {
        &["0", "1"]
    } else {
        &["0", "1", "2", "3"]
    };
    let reuse_sweep = SweepSpec {
        base: reuse_base,
        axes: vec![SweepAxis::new("sizing_rounds", rounds)],
    };
    let reuse_pass = |stage_reuse: bool| -> (SweepOutcome, DseStats) {
        let service = DseService::start(DseConfig {
            workers: 1,
            stage_reuse,
            ..DseConfig::default()
        })
        .expect("dse service start");
        let outcome = run_sweep(&service.client(), &reuse_sweep, |_| {}).expect("reuse sweep");
        let stats = service.client().stats();
        service.shutdown();
        (outcome, stats)
    };
    let scratch = reuse_pass(false);
    let reused = reuse_pass(true);
    assert_eq!(
        fingerprints(&scratch.0),
        fingerprints(&reused.0),
        "stage-reuse fingerprints diverged from the scratch run"
    );
    let depths: Vec<usize> = reused
        .0
        .points
        .iter()
        .map(|p| p.ok().map_or(0, |r| r.reuse_depth))
        .collect();
    assert!(
        depths.contains(&4),
        "an STA-only sweep must re-enter at the STA stage, got {depths:?}"
    );
    // per-point speedup over the reused points only
    let speedups: Vec<f64> = reused
        .0
        .points
        .iter()
        .zip(&scratch.0.points)
        .filter(|(r, _)| r.ok().is_some_and(|r| r.reuse_depth > 0))
        .filter_map(|(r, s)| {
            let (r, s) = (r.ok()?, s.ok()?);
            (r.wall_s > 0.0).then(|| s.wall_s / r.wall_s)
        })
        .collect();
    let min_speedup = speedups.iter().copied().fold(f64::INFINITY, f64::min);
    if !smoke() {
        assert!(
            min_speedup >= 3.0,
            "prefix reuse must be >= 3x faster per reused point, got {speedups:?}"
        );
    }
    write_dse_json(
        &cold,
        &warm,
        identical,
        &ReuseReport {
            depths,
            speedups,
            scratch_s: scratch.0.wall_s,
            reused_s: reused.0.wall_s,
            stage_hits: reused.1.stage_hits,
        },
    );
}

/// The stage-reuse experiment's numbers for `BENCH_dse.json`.
struct ReuseReport {
    depths: Vec<usize>,
    speedups: Vec<f64>,
    scratch_s: f64,
    reused_s: f64,
    stage_hits: u64,
}

/// Writes `BENCH_dse.json` (or a target/ copy in smoke mode): service
/// throughput cold vs warm, same shape as `dse_sweep --bench-out`.
fn write_dse_json(
    cold: &(macro3d_dse::SweepOutcome, macro3d_dse::DseStats, usize),
    warm: &(macro3d_dse::SweepOutcome, macro3d_dse::DseStats, usize),
    identical: bool,
    reuse: &ReuseReport,
) {
    use macro3d_json::Json;
    let points = cold.0.points.len();
    let (cold_s, warm_s) = (cold.0.wall_s, warm.0.wall_s);
    let per_s = |n: usize, s: f64| if s > 0.0 { n as f64 / s } else { f64::NAN };
    let json = Json::obj()
        .field(
            "schema_version",
            Json::from_u64(macro3d_dse::SCHEMA_VERSION),
        )
        .field("bench", Json::str("dse_service"))
        .field("crate_version", Json::str(macro3d_dse::crate_version()))
        .field(
            "host_cpus",
            Json::from_usize(std::thread::available_parallelism().map_or(1, |n| n.get())),
        )
        .field("effective_threads", Json::from_usize(cold.2))
        .field("points", Json::from_usize(points))
        .field("cold_s", Json::from_f64(cold_s))
        .field("warm_s", Json::from_f64(warm_s))
        .field(
            "speedup",
            Json::from_f64(if warm_s > 0.0 {
                cold_s / warm_s
            } else {
                f64::NAN
            }),
        )
        .field("cold_jobs_per_s", Json::from_f64(per_s(points, cold_s)))
        .field("warm_jobs_per_s", Json::from_f64(per_s(points, warm_s)))
        .field("cold_flows_executed", Json::from_u64(cold.1.flows_executed))
        .field("warm_flows_executed", Json::from_u64(warm.1.flows_executed))
        .field("warm_cache_hits", Json::from_u64(warm.1.cache.hits))
        .field("warm_disk_hits", Json::from_u64(warm.1.cache.disk_hits))
        .field("fingerprints_identical", Json::Bool(identical))
        .field(
            "reuse_depths",
            Json::Arr(reuse.depths.iter().map(|&d| Json::from_usize(d)).collect()),
        )
        .field(
            "reuse_point_speedups",
            Json::Arr(reuse.speedups.iter().map(|&s| Json::from_f64(s)).collect()),
        )
        .field("reuse_min_point_speedup", {
            let min = reuse.speedups.iter().copied().fold(f64::INFINITY, f64::min);
            Json::from_f64(if min.is_finite() { min } else { 0.0 })
        })
        .field("reuse_scratch_s", Json::from_f64(reuse.scratch_s))
        .field("reuse_warm_s", Json::from_f64(reuse.reused_s))
        .field("reuse_stage_hits", Json::from_u64(reuse.stage_hits))
        .field("reuse_fingerprints_identical", Json::Bool(true));
    let name = if smoke() {
        "target/BENCH_dse_smoke.json"
    } else {
        "BENCH_dse.json"
    };
    let mut text = json.emit();
    text.push('\n');
    match std::fs::write(bench_json_path(name), text) {
        Ok(()) => eprintln!("wrote {name}"),
        Err(e) => eprintln!("could not write {name}: {e}"),
    }
}

criterion_group!(
    benches,
    bench_tile_generation,
    bench_global_place,
    bench_router,
    bench_route_parallelism,
    bench_place_parallelism,
    bench_sta_parallelism,
    bench_dse_service
);
criterion_main!(benches);

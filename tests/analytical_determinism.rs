//! Thread-count invariance and QoR of the analytical placer backend.
//!
//! Every hot kernel of the ePlace-style placer — WA wirelength terms,
//! per-cell gradients with field interpolation, chunked bin density,
//! the Nesterov position update — runs through the `macro3d-par`
//! order-preserving primitives, and every reduction is a serial sum
//! in fixed index order, so the whole solve must be bit-identical for
//! any thread budget. The QoR check pins the analytical backend's
//! legalized HPWL to within 5% of recursive bisection on the Table-1
//! small-cache tile, and the flow checks run the backend end-to-end
//! through all four flows.

use macro3d::flows::standard_flows;
use macro3d::{FlowConfig, Parallelism, PlacerBackend};
use macro3d_place::floorplan::die_for_area;
use macro3d_place::{
    global_place, legalize, legalize_abacus, total_hpwl, Floorplan, GlobalPlaceConfig, PortPlan,
};
use macro3d_soc::{generate_tile, TileConfig, TileNetlist};

/// The miniature tile used by the integration tests.
fn tiny_tile() -> TileNetlist {
    let mut cfg = TileConfig::small_cache().with_scale(32.0);
    cfg.l3_kb = 64;
    cfg.l2_kb = 8;
    cfg.l1i_kb = 8;
    cfg.l1d_kb = 8;
    cfg.noc_width = 4;
    cfg.core_kgates = 26.0;
    cfg.l3_ctrl_kgates = 5.0;
    cfg.l2_ctrl_kgates = 4.0;
    cfg.l1i_ctrl_kgates = 3.0;
    cfg.l1d_ctrl_kgates = 3.0;
    cfg.noc_kgates = 2.0;
    generate_tile(&cfg)
}

/// A cells-only floorplan big enough for the tile at 60% utilization.
fn cells_floorplan(tile: &TileNetlist) -> (Floorplan, PortPlan) {
    let design = &tile.design;
    let lib = design.library().clone();
    let cell_um2: f64 = design
        .inst_ids()
        .filter(|&i| !design.is_macro(i))
        .map(|i| design.inst_area_um2(i))
        .sum();
    let die = die_for_area(cell_um2 / 0.6, 1.0, lib.row_height(), lib.site_width());
    let fp = Floorplan::new(die, lib.row_height(), lib.site_width());
    let ports = PortPlan::assign(design, die);
    (fp, ports)
}

#[test]
fn analytical_placement_is_invariant_to_thread_count() {
    let tile = tiny_tile();
    let (fp, ports) = cells_floorplan(&tile);

    let place = |threads: usize| {
        let cfg = GlobalPlaceConfig {
            backend: PlacerBackend::Analytical,
            parallelism: Parallelism::threads(threads),
        };
        global_place(&tile.design, &fp, &ports, &cfg)
    };

    let base = place(1);
    // sanity: the serial run actually spread the cells out
    let distinct: std::collections::BTreeSet<_> = base.pos.iter().map(|p| (p.x, p.y)).collect();
    assert!(distinct.len() > 16, "degenerate placement");

    for threads in [4, 8] {
        let got = place(threads);
        assert_eq!(got.pos, base.pos, "positions differ at {threads} threads");
        assert_eq!(
            got.orient, base.orient,
            "orientations differ at {threads} threads"
        );
    }
}

/// Legalized HPWL of the analytical backend stays within 5% of
/// recursive bisection on the Table-1 small-cache tile (each backend
/// goes through its own legalizer, like the flow's place pipeline).
#[test]
fn analytical_hpwl_rivals_bisection() {
    let tile = tiny_tile();
    let (fp, ports) = cells_floorplan(&tile);
    let movable: Vec<_> = tile
        .design
        .inst_ids()
        .filter(|&i| !tile.design.is_macro(i))
        .collect();

    let hpwl_of = |backend: PlacerBackend| {
        let cfg = GlobalPlaceConfig {
            backend,
            ..GlobalPlaceConfig::default()
        };
        let mut p = global_place(&tile.design, &fp, &ports, &cfg);
        let rep = match backend {
            PlacerBackend::Bisection => legalize(&tile.design, &fp, &mut p, &movable),
            PlacerBackend::Analytical => legalize_abacus(&tile.design, &fp, &mut p, &movable),
        };
        assert_eq!(rep.failed, 0, "{backend:?} legalization failed cells");
        total_hpwl(&tile.design, &p, &ports).to_um()
    };

    let bisection = hpwl_of(PlacerBackend::Bisection);
    let analytical = hpwl_of(PlacerBackend::Analytical);
    assert!(
        analytical <= bisection * 1.05,
        "analytical HPWL {analytical:.1}um exceeds bisection {bisection:.1}um by more than 5%"
    );
}

/// The analytical backend runs end-to-end through all four flows
/// (2D, S2D, C2D, Macro-3D) and produces working implementations.
#[test]
fn analytical_backend_runs_all_flows() {
    let tile = tiny_tile();
    let mut cfg = FlowConfig::builder()
        .sizing_rounds(1)
        .placer(PlacerBackend::Analytical)
        .build()
        .expect("valid config");
    cfg.route.iterations = 2;

    for flow in standard_flows() {
        let out = flow.run(&tile, &cfg);
        assert!(
            out.ppa.fclk_mhz > 0.0,
            "{}: degenerate clock frequency",
            flow.name()
        );
        assert!(
            out.ppa.total_wirelength_m > 0.0,
            "{}: no routed wirelength",
            flow.name()
        );
    }
}

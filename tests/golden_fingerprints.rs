//! Golden PPA fingerprints: every flow under both placer backends on
//! `TileConfig::mini()`, all five flows (analytical) on the
//! small-cache tile at scale 32, and one `dse_sweep`-class Macro-3D
//! run (bisection placer, default router) on that tile with an 8 kB L2.
//!
//! The placement kernels are tuned for speed, and the flows are
//! refactored for size, under a bit-identical contract — a faster
//! kernel or a shorter flow driver must reproduce every floating-point
//! result of the one it replaces. These pinned `ppa_fingerprint`s
//! enforce that contract in `cargo test`: any change to placement,
//! routing, extraction, STA or flow wiring results moves at least one
//! of them. A change that *means* to move QoR updates the table and
//! says why.

use macro3d::flows::{all_flows, Flow};
use macro3d::{ppa_fingerprint, FlowConfig, PlacerBackend};
use macro3d_soc::{generate_tile, TileConfig};

/// `(flow, backend, fingerprint)` on `mini`. The 2D and Macro-3D rows
/// were recorded before the fused WA pass and the `HpwlCache` mover
/// set landed; the pseudo-2D rows before the flows shared one driver.
const GOLDEN_MINI: [(&str, &str, u64); 10] = [
    ("2D", "bisection", 12527676960619355868),
    ("2D", "analytical", 8078934008888591923),
    ("Macro-3D", "bisection", 13162143287418836363),
    ("Macro-3D", "analytical", 12827072259024355499),
    ("MoL S2D", "bisection", 18211083729495178557),
    ("BF S2D", "bisection", 16901994962152019652),
    ("C2D", "bisection", 12002288130687095629),
    ("MoL S2D", "analytical", 1488158808213529413),
    ("BF S2D", "analytical", 1277054011227797234),
    ("C2D", "analytical", 16214676460101929189),
];

/// `(flow, fingerprint)` on `small_cache().with_scale(32.0)` with the
/// analytical placer, recorded before the flows shared one driver.
const GOLDEN_SMALL_CACHE: [(&str, u64); 5] = [
    ("2D", 5333175658226189104),
    ("MoL S2D", 7436976145288437278),
    ("BF S2D", 5086173853884948164),
    ("C2D", 1123582819855972247),
    ("Macro-3D", 7908343535295344845),
];

/// Macro-3D on `small_cache().with_scale(32.0)` with `l2_kb` 8, the
/// bisection placer and the default `RouteConfig` (3 rip-up iterations
/// on the 12-layer F2F stack): the cold point of a perfbench
/// `dse_sweep` sweep. The other rows reach bisection FM and the
/// 3-iteration router only on `mini`.
const GOLDEN_DSE_SWEEP_CLASS: u64 = 18424537092352977578;

fn config(backend: &str) -> FlowConfig {
    let placer = match backend {
        "bisection" => PlacerBackend::Bisection,
        _ => PlacerBackend::Analytical,
    };
    let mut cfg = FlowConfig::builder()
        .sizing_rounds(2)
        .placer(placer)
        .build()
        .expect("valid config");
    cfg.route.iterations = 2;
    cfg
}

fn flow(name: &str) -> &'static dyn Flow {
    all_flows()
        .into_iter()
        .find(|f| f.name() == name)
        .expect("a known flow name")
}

fn fingerprint(name: &str, tile: &macro3d_soc::TileNetlist, backend: &str) -> u64 {
    let outcome = flow(name)
        .try_run(tile, &config(backend))
        .expect("flow completes");
    ppa_fingerprint(&outcome.ppa)
}

#[test]
fn mini_tile_fingerprints_are_pinned() {
    let tile = generate_tile(&TileConfig::mini());
    let got: Vec<_> = GOLDEN_MINI
        .iter()
        .map(|&(name, backend, _)| (name, backend, fingerprint(name, &tile, backend)))
        .collect();
    assert_eq!(got, GOLDEN_MINI, "golden fingerprints moved");
}

#[test]
fn small_cache_fingerprints_are_pinned() {
    let tile = generate_tile(&TileConfig::small_cache().with_scale(32.0));
    let got: Vec<_> = GOLDEN_SMALL_CACHE
        .iter()
        .map(|&(name, _)| (name, fingerprint(name, &tile, "analytical")))
        .collect();
    assert_eq!(got, GOLDEN_SMALL_CACHE, "golden fingerprints moved");
}

#[test]
fn dse_sweep_class_fingerprint_is_pinned() {
    let tile = generate_tile(&TileConfig {
        l2_kb: 8,
        ..TileConfig::small_cache().with_scale(32.0)
    });
    let cfg = FlowConfig::builder()
        .sizing_rounds(2)
        .placer(PlacerBackend::Bisection)
        .build()
        .expect("valid config");
    let outcome = flow("Macro-3D")
        .try_run(&tile, &cfg)
        .expect("flow completes");
    assert_eq!(
        ppa_fingerprint(&outcome.ppa),
        GOLDEN_DSE_SWEEP_CLASS,
        "golden fingerprint moved"
    );
}

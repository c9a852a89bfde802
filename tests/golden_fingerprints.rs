//! Golden PPA fingerprints: 2D and Macro-3D under both placer
//! backends on `TileConfig::mini()`.
//!
//! The placement kernels are tuned for speed under a bit-identical
//! contract — a faster kernel must reproduce every floating-point
//! result of the one it replaces. These pinned `ppa_fingerprint`s
//! enforce that contract in `cargo test`: any change to placement,
//! routing, extraction or STA results moves at least one of them. A
//! change that *means* to move QoR updates the table and says why.

use macro3d::flows::{Flow, Flow2d, Macro3d};
use macro3d::{ppa_fingerprint, FlowConfig, PlacerBackend};
use macro3d_soc::{generate_tile, TileConfig};

/// `(flow, backend, fingerprint)` recorded before the fused WA pass
/// and the `HpwlCache` mover set landed.
const GOLDEN: [(&str, &str, u64); 4] = [
    ("2D", "bisection", 12527676960619355868),
    ("2D", "analytical", 8078934008888591923),
    ("Macro-3D", "bisection", 13162143287418836363),
    ("Macro-3D", "analytical", 12827072259024355499),
];

fn config(backend: PlacerBackend) -> FlowConfig {
    let mut cfg = FlowConfig::builder()
        .sizing_rounds(2)
        .placer(backend)
        .build()
        .expect("valid config");
    cfg.route.iterations = 2;
    cfg
}

#[test]
fn mini_tile_fingerprints_are_pinned() {
    let tile = generate_tile(&TileConfig::mini());
    let mut got = Vec::new();
    for (flow, backend, _) in GOLDEN {
        let backend_cfg = match backend {
            "bisection" => PlacerBackend::Bisection,
            _ => PlacerBackend::Analytical,
        };
        let runner: &dyn Flow = match flow {
            "2D" => &Flow2d,
            _ => &Macro3d,
        };
        let outcome = runner
            .try_run(&tile, &config(backend_cfg))
            .expect("flow completes");
        got.push((flow, backend, ppa_fingerprint(&outcome.ppa)));
    }
    assert_eq!(got, GOLDEN, "golden fingerprints moved");
}

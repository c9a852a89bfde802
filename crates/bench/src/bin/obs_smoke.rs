//! CI smoke test for the observability subsystem: runs the Macro-3D
//! flow on a miniature tile under full tracing — once per placer
//! backend — writes the Chrome trace and metrics JSON under
//! `./traces/`, and fails unless the trace covers the expected flow
//! stages and key metrics.

use macro3d::flows::{Flow, Macro3d};
use macro3d::{FlowConfig, ObsConfig, PlacerBackend};
use macro3d_soc::{generate_tile, TileConfig};

fn main() {
    let tile = generate_tile(&TileConfig::mini());

    let mut cfg = FlowConfig::builder()
        .sizing_rounds(2)
        .obs(ObsConfig::full())
        .build()
        .expect("valid config");
    cfg.route.iterations = 2;

    let out = Macro3d.run(&tile, &cfg);
    let trace = out.obs.expect("full obs produces a trace");

    let stages = trace.stage_names();
    assert!(
        stages.len() >= 6,
        "expected >=6 instrumented stages, got {stages:?}"
    );
    // the HPWL cache counters feed perfbench's
    // `place.hpwl_cache_hit_ratio`: an anneal that bypasses the cache
    // would silently zero it
    for metric in [
        "route/iterations",
        "place/fm_passes",
        "place/anneal_proposals",
        "place/hpwl_cache_hits",
        "place/hpwl_cache_inits",
        "sta/arcs_evaluated",
        "extract/nets",
    ] {
        assert!(
            trace.metrics.counters.get(metric).is_some_and(|&v| v > 0),
            "metric {metric} missing or zero in {:?}",
            trace.metrics.counters
        );
    }
    assert!(
        trace.metrics.series.contains_key("route/overflow"),
        "router overflow history missing"
    );

    println!("{trace}");
    let (t, m) = trace
        .write_files(std::path::Path::new("traces"), "smoke")
        .expect("write trace files");
    println!("wrote {}", t.display());
    println!("wrote {}", m.display());

    // same flow through the analytical placer backend: the Nesterov
    // loop must surface its iteration counter and per-iteration
    // overflow/HPWL/step-size series
    let mut acfg = FlowConfig::builder()
        .sizing_rounds(2)
        .placer(PlacerBackend::Analytical)
        .obs(ObsConfig::full())
        .build()
        .expect("valid config");
    acfg.route.iterations = 2;
    let out = Macro3d.run(&tile, &acfg);
    let trace = out.obs.expect("full obs produces a trace");
    assert!(
        trace.metrics.counters.contains_key("place/nesterov_iters"),
        "analytical backend must count Nesterov iterations, got {:?}",
        trace.metrics.counters.keys().collect::<Vec<_>>()
    );
    for series in ["place/overflow", "place/hpwl_um", "place/step_size"] {
        assert!(
            trace.metrics.series.contains_key(series),
            "analytical series {series} missing from {:?}",
            trace.metrics.series.keys().collect::<Vec<_>>()
        );
    }
    println!("{trace}");
    let (t, m) = trace
        .write_files(std::path::Path::new("traces"), "smoke_analytical")
        .expect("write trace files");
    println!("wrote {}", t.display());
    println!("wrote {}", m.display());
}

//! Observability determinism: the stitched span tree and every metric
//! value must be bit-identical for any worker count, matching the
//! engine-level determinism guarantees.

use macro3d::flows::{Flow, Macro3d};
use macro3d::{FlowConfig, ObsConfig};
use macro3d_soc::{generate_tile, TileConfig, TileNetlist};

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

fn traced_cfg(threads: usize) -> FlowConfig {
    let mut cfg = FlowConfig::builder()
        .sizing_rounds(2)
        .threads(threads)
        .obs(ObsConfig::full())
        .build()
        .expect("valid config");
    cfg.route.iterations = 2;
    cfg
}

#[test]
fn full_trace_is_identical_across_thread_counts() {
    let tile = tiny_tile();
    let t1 = Macro3d
        .run(&tile, &traced_cfg(1))
        .obs
        .expect("trace at 1 thread");
    let t8 = Macro3d
        .run(&tile, &traced_cfg(8))
        .obs
        .expect("trace at 8 threads");

    assert_eq!(
        t1.tree_signature(),
        t8.tree_signature(),
        "span tree differs between 1 and 8 threads"
    );
    assert_eq!(
        t1.metrics_json(),
        t8.metrics_json(),
        "metric values differ between 1 and 8 threads"
    );

    // the trace carries the instrumented engines end to end, the
    // macro anneal of the floorplan stage included
    assert!(t1.stage_names().len() >= 6, "{:?}", t1.stage_names());
    let m = &t1.metrics;
    for counter in [
        "place/anneal_proposals",
        "place/fm_passes",
        "route/iterations",
        "extract/nets",
        "sta/arcs_evaluated",
    ] {
        assert!(m.counters.contains_key(counter), "{counter} missing");
    }
    assert!(m.series.contains_key("route/overflow"));
    assert!(t1.metrics_json().contains("place/anneal_accept_ratio"));
}

//! The stage-reuse obs counters reach the flow's trace: a run records
//! its stage hits and misses inside its own obs session, counting
//! misses over the cacheable stages only, as `DseStats` does.
//! The counters are the run's own: its session's registry belongs to
//! the flow thread.

use macro3d::flows::{Flow, Macro3d};
use macro3d::{FlowConfig, ObsConfig, StageCache, StageReuse};
use macro3d_soc::{generate_tile, TileConfig};
use std::collections::BTreeMap;

#[test]
fn stage_counters_reach_the_flow_trace() {
    let tile = generate_tile(&TileConfig::mini());
    let mut cfg = FlowConfig {
        sizing_rounds: 1,
        obs: ObsConfig::summary(),
        ..FlowConfig::default()
    };
    cfg.route.iterations = 1;
    let mut cache = StageCache::new();
    let mut run = |cfg: &FlowConfig| -> (usize, BTreeMap<String, u64>) {
        let mut reuse = StageReuse::begin(&mut cache, "Macro-3D", &TileConfig::mini(), cfg);
        let outcome = Macro3d
            .try_run_reusing(&tile, cfg, reuse.as_mut())
            .expect("Macro-3D runs");
        let trace = outcome.obs.expect("obs is on");
        (outcome.reuse_depth, trace.metrics.counters)
    };
    let cold = run(&cfg);
    cfg.sizing_rounds = 2;
    let warm = run(&cfg);

    for ((depth, counters), (want_depth, hits, misses)) in [(cold, (0, 0, 4)), (warm, (4, 4, 0))] {
        assert_eq!(depth, want_depth);
        let read = |name: &str| counters.get(name).copied();
        assert_eq!(read("stage/reuse_runs"), Some(1), "depth {depth}");
        assert_eq!(read("stage/reuse_depth"), Some(depth as u64));
        assert_eq!(read("stage/hits"), Some(hits), "depth {depth}");
        assert_eq!(read("stage/misses"), Some(misses), "depth {depth}");
    }
}

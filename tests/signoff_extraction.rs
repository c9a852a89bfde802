//! Work-count guard for the sign-off tail: a flow extracts one RC tree
//! per routed driven net. Power reuses the sign-off extraction's wire
//! capacitance instead of extracting the whole design again at the
//! power corner, so `extract/nets` must not double.

use macro3d::flows::{Flow, Macro3d};
use macro3d::{FlowConfig, ObsConfig};
use macro3d_soc::{generate_tile, TileConfig};

/// The counters are this run's own: its session's registry belongs to
/// the flow thread.
#[test]
fn signoff_extracts_each_routed_net_once() {
    let tile = generate_tile(&TileConfig::mini());
    let mut cfg = FlowConfig::builder()
        .sizing_rounds(2)
        .obs(ObsConfig::summary())
        .build()
        .expect("valid config");
    cfg.route.iterations = 2;
    let outcome = Macro3d.run(&tile, &cfg);
    let imp = &outcome.implemented;
    let d = &imp.design;
    let driven = |routed: bool| {
        d.net_ids()
            .filter(|&n| d.driver(n).is_some() && imp.routed.net(n).is_some() == routed)
            .count() as u64
    };
    let counters = &outcome.obs.expect("summary trace").metrics.counters;
    let count = |name: &str| counters.get(name).copied().unwrap_or(0);
    assert!(driven(true) > 0 && driven(false) > 0);
    assert_eq!(
        count("extract/nets"),
        driven(true),
        "one RC tree per routed net"
    );
    // unrouted nets are estimated twice: at sign-off and for power at
    // their final pin positions
    assert_eq!(count("extract/est_nets"), 2 * driven(false));
}

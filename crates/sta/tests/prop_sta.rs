//! Property-based tests for the timing/power engine.

use macro3d_extract::NetParasitics;
use macro3d_netlist::{Design, NetId, PinRef};
use macro3d_sta::{analyze, analyze_power, ClockArrivals, PowerInput, StaConstraints, StaInput};
use macro3d_tech::{libgen::n28_library, CellClass, Corner, PinDir};
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;

/// Builds an FF → INV-chain → FF design with uniform per-net Elmore.
fn chain_design(chain: usize, elmore: f64) -> (Design, Vec<NetParasitics>, StaConstraints) {
    let lib = Arc::new(n28_library(1.0));
    let inv = lib.smallest(CellClass::Inv).expect("inv");
    let dff = lib.smallest(CellClass::Dff).expect("dff");
    let mut d = Design::new("t", lib);
    let clk_p = d.add_port("clk", PinDir::Input, None);
    let clk = d.add_net("clk");
    d.connect(clk, PinRef::Port(clk_p));
    let f0 = d.add_cell("f0", dff);
    let f1 = d.add_cell("f1", dff);
    d.connect(clk, PinRef::inst(f0, 1));
    d.connect(clk, PinRef::inst(f1, 1));
    let dp = d.add_port("d", PinDir::Input, None);
    let dn = d.add_net("dn");
    d.connect(dn, PinRef::Port(dp));
    d.connect(dn, PinRef::inst(f0, 0));
    let mut prev = d.add_net("q0");
    d.connect(prev, PinRef::inst(f0, 2));
    for i in 0..chain {
        let c = d.add_cell(format!("c{i}"), inv);
        d.connect(prev, PinRef::inst(c, 0));
        prev = d.add_net(format!("w{i}"));
        d.connect(prev, PinRef::inst(c, 1));
    }
    d.connect(prev, PinRef::inst(f1, 0));
    let mut parasitics = vec![NetParasitics::default(); d.num_nets()];
    for n in d.net_ids() {
        let sinks = d.sinks(n).count();
        parasitics[n.index()] = NetParasitics {
            wire_cap_ff: 2.0,
            total_res_ohm: 50.0,
            elmore_ps: vec![elmore; sinks],
            driver_load_ff: 4.0,
        };
    }
    let c = StaConstraints::new(clk);
    (d, parasitics, c)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Min period grows monotonically with chain length and with wire
    /// delay, and the analysis is deterministic.
    #[test]
    fn min_period_monotone(chain in 1usize..12, elmore in 0.0f64..80.0) {
        let run = |n: usize, e: f64| -> f64 {
            let (d, p, c) = chain_design(n, e);
            let clock = ClockArrivals::ideal(&d);
            analyze(&StaInput {
                design: &d,
                parasitics: &p,
                routed: None,
                constraints: &c,
                clock: &clock,
                corner: Corner::Ss,
            })
            .min_period_ps
        };
        let base = run(chain, elmore);
        prop_assert!(base > 0.0);
        prop_assert!(run(chain + 2, elmore) > base);
        prop_assert!(run(chain, elmore + 40.0) > base);
        // determinism
        prop_assert!((run(chain, elmore) - base).abs() < 1e-6);
    }

    /// Power decomposition always sums to the total, and every
    /// component is non-negative.
    #[test]
    fn power_decomposition_consistent(freq in 50.0f64..2_000.0, toggle in 0.01f64..1.0) {
        let (d, p, c) = chain_design(6, 10.0);
        let clocks: HashSet<NetId> = [c.clock_net].into_iter().collect();
        let wire_cap_ff: Vec<f64> = p.iter().map(|n| n.wire_cap_ff).collect();
        let r = analyze_power(&PowerInput {
            design: &d,
            wire_cap_ff: &wire_cap_ff,
            clock_nets: &clocks,
            freq_mhz: freq,
            toggle,
            corner: Corner::Tt,
        });
        let sum = r.switching_mw + r.internal_mw + r.leakage_mw + r.macro_mw;
        prop_assert!((sum - r.total_mw).abs() < 1e-9);
        prop_assert!(r.switching_mw >= 0.0);
        prop_assert!(r.internal_mw >= 0.0);
        prop_assert!(r.leakage_mw > 0.0);
        // Emean consistency: total power / f
        let emean = r.total_mw * 1e-3 / (freq * 1e6) * 1e15;
        prop_assert!((emean - r.emean_fj_per_cycle).abs() < 1e-6);
    }

    /// The SS corner never reports a faster clock than TT.
    #[test]
    fn signoff_corner_is_pessimistic(chain in 1usize..10) {
        let (d, p, c) = chain_design(chain, 15.0);
        let clock = ClockArrivals::ideal(&d);
        let f = |corner: Corner| {
            analyze(&StaInput {
                design: &d,
                parasitics: &p,
                routed: None,
                constraints: &c,
                clock: &clock,
                corner,
            })
            .fclk_mhz
        };
        prop_assert!(f(Corner::Ss) < f(Corner::Tt));
        prop_assert!(f(Corner::Tt) < f(Corner::Ff));
    }
}

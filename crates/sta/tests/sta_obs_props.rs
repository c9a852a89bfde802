//! Observability contract of the parametric engine: an analyze is at
//! most 3 full propagations (1 pass + confirmation, vs the legacy 32+
//! probes), and incremental updates record their cone sizes.
//!
//! The session's registry belongs to this test's thread, so the
//! counters observed here are exactly the ones this test produced.

use macro3d_extract::NetParasitics;
use macro3d_netlist::{Design, PinRef};
use macro3d_obs::{ObsConfig, Session};
use macro3d_par::Parallelism;
use macro3d_sta::{
    analyze_par, analyze_probe, apply_sizing_to_parasitics, upsize_critical_path, ClockArrivals,
    StaConstraints, StaInput, StaSession,
};
use macro3d_tech::{libgen::n28_library, CellClass, Corner, PinDir};
use std::sync::Arc;

/// FF → gates → FF/port design; with `half_cycle` the input port gets
/// a half-cycle budget and its cone merges with the flop cone at a
/// NAND, forcing mixed period coefficients (the confirmation pass has
/// to iterate instead of accepting the first solve).
fn design(half_cycle: bool) -> (Design, Vec<NetParasitics>, StaConstraints) {
    let lib = Arc::new(n28_library(1.0));
    let inv = lib.smallest(CellClass::Inv).expect("inv");
    let nand = lib.smallest(CellClass::Nand2).expect("nand2");
    let dff = lib.smallest(CellClass::Dff).expect("dff");
    let mut d = Design::new("obs", lib);
    let clk_p = d.add_port("clk", PinDir::Input, None);
    let clk = d.add_net("clk");
    d.connect(clk, PinRef::Port(clk_p));
    let mut c = StaConstraints::new(clk);

    let f0 = d.add_cell("f0", dff);
    let f1 = d.add_cell("f1", dff);
    d.connect(clk, PinRef::inst(f0, 1));
    d.connect(clk, PinRef::inst(f1, 1));
    let q0 = d.add_net("q0");
    d.connect(q0, PinRef::inst(f0, 2));

    let hp = d.add_port("h", PinDir::Input, None);
    let hn = d.add_net("hn");
    d.connect(hn, PinRef::Port(hp));
    if half_cycle {
        c.half_cycle_ports.insert(hp);
    }

    // merge the port cone with the flop cone
    let g = d.add_cell("g", nand);
    d.connect(q0, PinRef::inst(g, 0));
    d.connect(hn, PinRef::inst(g, 1));
    let gn = d.add_net("gn");
    d.connect(gn, PinRef::inst(g, 2));

    let mut prev = gn;
    for i in 0..4 {
        let c = d.add_cell(format!("c{i}"), inv);
        d.connect(prev, PinRef::inst(c, 0));
        prev = d.add_net(format!("w{i}"));
        d.connect(prev, PinRef::inst(c, 1));
    }
    d.connect(prev, PinRef::inst(f1, 0));
    let op = d.add_port("o", PinDir::Output, None);
    d.connect(prev, PinRef::Port(op));

    let mut parasitics = vec![NetParasitics::default(); d.num_nets()];
    for n in d.net_ids() {
        let sinks = d.sinks(n).count();
        parasitics[n.index()] = NetParasitics {
            wire_cap_ff: 2.0,
            total_res_ohm: 60.0,
            elmore_ps: vec![12.0; sinks],
            driver_load_ff: 4.0,
        };
    }
    (d, parasitics, c)
}

fn input<'a>(
    d: &'a Design,
    p: &'a [NetParasitics],
    c: &'a StaConstraints,
    clock: &'a ClockArrivals,
) -> StaInput<'a> {
    StaInput {
        design: d,
        parasitics: p,
        routed: None,
        constraints: c,
        clock,
        corner: Corner::Ss,
    }
}

#[test]
fn parametric_analyze_stays_within_propagation_budget() {
    let obs = Session::start(ObsConfig::summary(), "sta-obs");
    let reg = macro3d_obs::registry().expect("the summary session records");
    let propagations = reg.counter("sta/propagations");
    let par = Parallelism::serial();

    // unmixed design: all arrivals share the same period coefficient,
    // so the single pass is globally exact — exactly 1 propagation
    let (d, p, c) = design(false);
    let clock = ClockArrivals::ideal(&d);
    let before = propagations.get();
    analyze_par(&input(&d, &p, &c, &clock), &par);
    let unmixed = propagations.get() - before;
    assert_eq!(unmixed, 1, "unmixed design should need exactly 1 pass");

    // mixed design (half-cycle port merging into the flop cone): the
    // confirmation may iterate, but never back to probe-search scale
    let (d, p, c) = design(true);
    let clock = ClockArrivals::ideal(&d);
    let before = propagations.get();
    analyze_par(&input(&d, &p, &c, &clock), &par);
    let mixed = propagations.get() - before;
    assert!(
        (1..=3).contains(&mixed),
        "mixed design took {mixed} propagations (budget ≤ 3)"
    );

    // the legacy probe path really is what we are saving: one analyze
    // burns a propagation per bisection probe
    let before = propagations.get();
    analyze_probe(&input(&d, &p, &c, &clock), &par);
    let probe = propagations.get() - before;
    assert!(probe > 30, "probe mode ran only {probe} propagations?");

    // incremental update: records its cone size and no full repass on
    // an unmixed design
    let (mut d, mut p, c) = design(false);
    let clock = ClockArrivals::ideal(&d);
    let mut session = StaSession::new(&input(&d, &p, &c, &clock));
    let timing = session.analyze(&input(&d, &p, &c, &clock), &par);
    let changes = upsize_critical_path(&mut d, &timing);
    assert!(!changes.is_empty());
    let touched = apply_sizing_to_parasitics(&d, &changes, &mut p);
    let before = propagations.get();
    session.update(&input(&d, &p, &c, &clock), &touched, &par);
    let update = propagations.get() - before;
    assert_eq!(update, 0, "unmixed cone update needs no full propagation");

    let snap = reg.snapshot();
    assert_eq!(snap.counters["sta/incremental_updates"], 1);
    let cone = snap.histograms["sta/cone_nets"];
    assert_eq!(cone.count, 1);
    assert!(
        cone.max as usize <= d.num_nets(),
        "cone ({}) cannot exceed the design ({} nets)",
        cone.max,
        d.num_nets()
    );
    assert!(
        cone.sum > 0,
        "the touched cone re-evaluated at least one net"
    );

    obs.finish();
}

//! Arrival propagation, max-frequency search and critical-path
//! reporting.

use crate::constraints::StaConstraints;
use crate::cts::ClockArrivals;
use crate::dcalc::{cell_arc_delay, wire_slew};
use macro3d_extract::NetParasitics;
use macro3d_netlist::traverse::{is_timing_endpoint, topo_order};
use macro3d_netlist::{Design, InstId, Master, NetId, PinRef};
use macro3d_par::{parallel_fold, Parallelism};
use macro3d_route::RoutedDesign;
use macro3d_tech::{Corner, PinDir};

/// Everything one analysis run needs. Parasitic sink order must match
/// `design.sinks(net)` order (as produced by the flows' extraction
/// step).
pub struct StaInput<'a> {
    /// The netlist (post-CTS, post-repeater insertion).
    pub design: &'a Design,
    /// Per-net parasitics indexed by `NetId`.
    pub parasitics: &'a [NetParasitics],
    /// Routing result, for critical-path wirelength reporting (may be
    /// `None` for estimation-stage runs).
    pub routed: Option<&'a RoutedDesign>,
    /// Constraints.
    pub constraints: &'a StaConstraints,
    /// Clock arrivals from CTS (use [`ClockArrivals::ideal`] before
    /// CTS).
    pub clock: &'a ClockArrivals,
    /// Analysis corner (the paper signs off at SS).
    pub corner: Corner,
}

/// Timing analysis result.
#[derive(Clone, Debug)]
pub struct TimingReport {
    /// Minimum feasible clock period, ps.
    pub min_period_ps: f64,
    /// Maximum clock frequency, MHz.
    pub fclk_mhz: f64,
    /// Nets along the critical path, endpoint first.
    pub crit_path_nets: Vec<NetId>,
    /// Routed wirelength of the critical path, mm (0 when `routed`
    /// was not provided).
    pub crit_path_wirelength_mm: f64,
    /// Number of combinational stages on the critical path.
    pub crit_path_stages: usize,
    /// Clock-tree depth copied from the input.
    pub clock_tree_depth: usize,
    /// Clock skew, ps.
    pub clock_skew_ps: f64,
}

/// Computes the worst slack at a given period, ps.
pub fn worst_slack(input: &StaInput<'_>, period_ps: f64) -> f64 {
    worst_slack_par(input, period_ps, &Parallelism::serial())
}

/// [`worst_slack`] with endpoint checks fanned out over `par`
/// (identical result for any thread count).
pub fn worst_slack_par(input: &StaInput<'_>, period_ps: f64, par: &Parallelism) -> f64 {
    let ctx = StaContext::build(input.design, input.constraints.clock_net);
    Propagation::run(input, &ctx, period_ps, par).worst_slack
}

/// One precomputed setup check: a register/macro data pin, the net
/// sink feeding it, and its period-independent requirement pieces.
struct EndpointCheck {
    net: NetId,
    six: u32,
    /// Capturing instance (indexes the clock-arrival table).
    clk_inst: InstId,
    /// Setup requirement before corner derating.
    setup_ps: f64,
}

/// Period-independent analysis context (combinational order, the
/// pin→(net, sink index) map and the flattened endpoint-check list),
/// built once per design revision and reused by every propagation
/// pass of the binary search.
struct StaContext {
    order: Vec<InstId>,
    pin_net_six: std::collections::HashMap<(u32, u16), (NetId, u32)>,
    endpoint_checks: Vec<EndpointCheck>,
}

impl StaContext {
    fn build(design: &Design, clock_net: NetId) -> StaContext {
        let order = match topo_order(design) {
            Ok(o) => o,
            Err(_) => design
                .inst_ids()
                .filter(|&i| !is_timing_endpoint(design, i))
                .collect(),
        };
        let mut pin_net_six = std::collections::HashMap::new();
        for net in design.net_ids() {
            for (six, sink) in design.sinks(net).enumerate() {
                if let PinRef::Inst { inst, pin } = sink {
                    pin_net_six.insert((inst.0, pin), (net, six as u32));
                }
            }
        }

        // flatten the per-endpoint setup checks once: the propagation
        // passes (34 per analyze) then scan a plain slice instead of
        // re-walking cells, macro defs and pin maps every time
        let lib = design.library();
        let mut endpoint_checks = Vec::new();
        for inst in design.inst_ids() {
            match design.inst(inst).master {
                Master::Cell(c) => {
                    let cell = lib.cell(c);
                    if !cell.is_sequential() {
                        continue;
                    }
                    for pin in cell.data_input_pins() {
                        if let Some(&(net, six)) = pin_net_six.get(&(inst.0, pin as u16)) {
                            endpoint_checks.push(EndpointCheck {
                                net,
                                six,
                                clk_inst: inst,
                                setup_ps: cell.setup_ps,
                            });
                        }
                    }
                }
                Master::Macro(m) => {
                    let def = design.macro_master(m);
                    for (p, pin) in def.pins.iter().enumerate() {
                        if pin.dir != PinDir::Input || pin.class == macro3d_sram::PinClass::Clock {
                            continue;
                        }
                        let Some(&(net, six)) = pin_net_six.get(&(inst.0, p as u16)) else {
                            continue;
                        };
                        if net == clock_net {
                            continue;
                        }
                        endpoint_checks.push(EndpointCheck {
                            net,
                            six,
                            clk_inst: inst,
                            setup_ps: def.setup_ps,
                        });
                    }
                }
            }
        }
        StaContext {
            order,
            pin_net_six,
            endpoint_checks,
        }
    }
}

/// Finds the maximum frequency and reports the critical path.
///
/// # Panics
///
/// Panics if the design has no timing endpoints (no registers, macros
/// or output ports).
pub fn analyze(input: &StaInput<'_>) -> TimingReport {
    analyze_par(input, &Parallelism::serial())
}

/// [`analyze`] with endpoint folds fanned out over `par` worker
/// threads: the parametric engine, one affine propagation plus a
/// confirmation pass with the minimum period in closed form (see
/// [`crate::parametric`]). The report is identical to the serial one
/// for any thread count.
///
/// # Panics
///
/// Panics if the design has no timing endpoints (no registers, macros
/// or output ports).
pub fn analyze_par(input: &StaInput<'_>, par: &Parallelism) -> TimingReport {
    crate::parametric::analyze_parametric(input, par)
}

/// The reference probe engine: a 32-step binary search over the
/// period window with one full arrival propagation per probe (~34 per
/// analyze). No flow runs it; it survives as the oracle the
/// parametric engine ([`analyze_par`]) is equivalence-tested and
/// benchmarked against, agreeing to within
/// [`crate::parametric::PROBE_RESOLUTION_PS`].
///
/// # Panics
///
/// Panics if the design has no timing endpoints (no registers, macros
/// or output ports).
pub fn analyze_probe(input: &StaInput<'_>, par: &Parallelism) -> TimingReport {
    // binary search the minimum feasible period
    let mut lo = 10.0f64;
    let mut hi = 20.0e6;
    let ctx = StaContext::build(input.design, input.constraints.clock_net);
    assert!(
        Propagation::run(input, &ctx, hi, par).has_endpoints,
        "design has no timing endpoints"
    );
    for _ in 0..32 {
        let mid = 0.5 * (lo + hi);
        if Propagation::run(input, &ctx, mid, par).worst_slack >= 0.0 {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    let min_period = hi;

    // trace the critical path at the feasibility boundary
    let prop = Propagation::run(input, &ctx, lo.max(10.0), par);
    let mut crit_nets = Vec::new();
    let mut stages = 0usize;
    let mut wl_um = 0.0;
    if let Some(mut net) = prop.worst_endpoint_net {
        loop {
            crit_nets.push(net);
            if let Some(r) = input.routed.and_then(|r| r.net(net)) {
                wl_um += r.wirelength_um();
            }
            match prop.pred[net.index()] {
                Some(p) => {
                    stages += 1;
                    net = p;
                }
                None => break,
            }
        }
    }

    TimingReport {
        min_period_ps: min_period,
        fclk_mhz: 1.0e6 / min_period,
        crit_path_nets: crit_nets,
        crit_path_wirelength_mm: wl_um / 1_000.0,
        crit_path_stages: stages,
        clock_tree_depth: input.clock.depth,
        clock_skew_ps: input.clock.skew_ps,
    }
}

/// Hold-check result (fast corner).
#[derive(Clone, Debug, PartialEq)]
pub struct HoldReport {
    /// Worst hold slack, ps (negative = violation).
    pub worst_slack_ps: f64,
    /// Number of violating endpoints.
    pub violations: usize,
    /// Violating endpoints: (register, data-pin index, shortfall ps).
    pub endpoints: Vec<(macro3d_netlist::InstId, u16, f64)>,
}

/// Hold analysis at the fast corner: earliest arrivals against the
/// hold requirement at every register data pin. Period-independent.
///
/// Clock skew is the aggressor here: a capture register whose clock
/// arrives later than the launching register's needs that much more
/// data-path delay.
pub fn check_hold(input: &StaInput<'_>) -> HoldReport {
    let design = input.design;
    let lib = design.library();
    let corner = Corner::Ff;
    let ctx = StaContext::build(design, input.constraints.clock_net);
    let nn = design.num_nets();
    let mut net_min = vec![f64::NAN; nn];

    let load_of = |net: NetId| -> f64 {
        input
            .parasitics
            .get(net.index())
            .map(|p| p.driver_load_ff)
            .unwrap_or(1.0)
    };

    // launches: FF Q at min clk->q; macro douts at access; input
    // ports at the virtual clock (the upstream tile has the same
    // insertion delay) plus a small guaranteed input-hold margin (its
    // outputs are registered, so they cannot change before clk->q)
    const INPUT_MIN_DELAY_PS: f64 = 25.0;
    for pid in design.port_ids() {
        let port = design.port(pid);
        if port.dir == PinDir::Input {
            if let Some(net) = port.net {
                net_min[net.index()] = input.clock.insertion_ps + INPUT_MIN_DELAY_PS;
            }
        }
    }
    for inst in design.inst_ids() {
        if !is_timing_endpoint(design, inst) {
            continue;
        }
        let clk = input.clock.arrival_ps[inst.index()];
        match design.inst(inst).master {
            Master::Cell(c) => {
                let cell = lib.cell(c);
                if !cell.is_sequential() {
                    continue;
                }
                let out = cell.output_pin();
                if let Some(qnet) = design.inst(inst).conns[out] {
                    let (d, _) = cell_arc_delay(cell, 0, 40.0, load_of(qnet), corner);
                    let arr = clk + d;
                    let slot = &mut net_min[qnet.index()];
                    if slot.is_nan() || arr < *slot {
                        *slot = arr;
                    }
                }
            }
            Master::Macro(m) => {
                let def = design.macro_master(m);
                let access = def.access_ps * corner.delay_derate();
                for (p, pin) in def.pins.iter().enumerate() {
                    if pin.dir != PinDir::Output {
                        continue;
                    }
                    if let Some(net) = design.inst(inst).conns[p] {
                        let arr = clk + access;
                        let slot = &mut net_min[net.index()];
                        if slot.is_nan() || arr < *slot {
                            *slot = arr;
                        }
                    }
                }
            }
        }
    }

    // min propagation (shortest arc, zero wire delay floor is the
    // Elmore to the nearest sink, conservatively taken as 0)
    for &inst in &ctx.order {
        let Master::Cell(c) = design.inst(inst).master else {
            continue;
        };
        let cell = lib.cell(c);
        let out = cell.output_pin();
        let Some(out_net) = design.inst(inst).conns[out] else {
            continue;
        };
        let load = load_of(out_net);
        let mut best = f64::NAN;
        for (arc_ix, arc) in cell.arcs.iter().enumerate() {
            let pin = arc.from_pin as u16;
            let Some(&(in_net, _)) = ctx.pin_net_six.get(&(inst.0, pin)) else {
                continue;
            };
            if net_min[in_net.index()].is_nan() {
                continue;
            }
            let (d, _) = cell_arc_delay(cell, arc_ix, 30.0, load, corner);
            let cand = net_min[in_net.index()] + d;
            if best.is_nan() || cand < best {
                best = cand;
            }
        }
        if !best.is_nan() {
            let slot = &mut net_min[out_net.index()];
            if slot.is_nan() || best < *slot {
                *slot = best;
            }
        }
    }

    // hold checks at FF D pins
    let mut worst = f64::INFINITY;
    let mut violations = 0;
    let mut endpoints = Vec::new();
    for inst in design.inst_ids() {
        let Master::Cell(c) = design.inst(inst).master else {
            continue;
        };
        let cell = lib.cell(c);
        if !cell.is_sequential() {
            continue;
        }
        let clk = input.clock.arrival_ps[inst.index()];
        for pin in cell.data_input_pins().collect::<Vec<_>>() {
            let Some(&(net, _)) = ctx.pin_net_six.get(&(inst.0, pin as u16)) else {
                continue;
            };
            if net_min[net.index()].is_nan() {
                continue;
            }
            let slack = net_min[net.index()] - (clk + cell.hold_ps);
            if slack < worst {
                worst = slack;
            }
            if slack < 0.0 {
                violations += 1;
                endpoints.push((inst, pin as u16, -slack));
            }
        }
    }
    HoldReport {
        worst_slack_ps: if worst.is_finite() { worst } else { 0.0 },
        violations,
        endpoints,
    }
}

/// One arrival-propagation pass at a fixed period.
struct Propagation {
    worst_slack: f64,
    worst_endpoint_net: Option<NetId>,
    pred: Vec<Option<NetId>>,
    has_endpoints: bool,
}

impl Propagation {
    fn run(input: &StaInput<'_>, ctx: &StaContext, period: f64, par: &Parallelism) -> Propagation {
        let design = input.design;
        let lib = design.library();
        let corner = input.corner;
        let nn = design.num_nets();

        // arrival/slew at each net's driver output; NAN = not driven yet
        let mut net_arr = vec![f64::NAN; nn];
        let mut net_slew = vec![50.0f64; nn];
        let mut pred: Vec<Option<NetId>> = vec![None; nn];

        let load_of = |net: NetId| -> f64 {
            input
                .parasitics
                .get(net.index())
                .map(|p| p.driver_load_ff)
                .unwrap_or(1.0)
        };
        let elmore = |net: NetId, six: usize| -> f64 {
            input
                .parasitics
                .get(net.index())
                .and_then(|p| p.elmore_ps.get(six))
                .copied()
                .unwrap_or(0.0)
        };

        // (net, sink_ix) for every instance input pin
        // arrival at a sink pin of a net
        let sink_arrival =
            |net: NetId, six: usize, net_arr: &[f64], net_slew: &[f64]| -> (f64, f64) {
                let e = elmore(net, six);
                (
                    net_arr[net.index()] + e,
                    wire_slew(net_slew[net.index()], e),
                )
            };

        // --- launch sources -------------------------------------------------
        for pid in design.port_ids() {
            let port = design.port(pid);
            if port.dir != PinDir::Input {
                continue;
            }
            let Some(net) = port.net else { continue };
            if net == input.constraints.clock_net {
                // clock enters here; handled via ClockArrivals
                net_arr[net.index()] = 0.0;
                continue;
            }
            // IO paths reference the virtual clock at the common
            // insertion delay (the abutting tile has the same tree)
            let launch = input.constraints.launch_frac(pid) * period + input.clock.insertion_ps;
            let e = net_arr[net.index()];
            if e.is_nan() || launch > e {
                net_arr[net.index()] = launch;
                net_slew[net.index()] = input.constraints.input_slew_ps;
            }
        }
        for inst in design.inst_ids() {
            if !is_timing_endpoint(design, inst) {
                continue;
            }
            let clk = input.clock.arrival_ps[inst.index()];
            match design.inst(inst).master {
                Master::Cell(c) => {
                    let cell = lib.cell(c);
                    if !cell.is_sequential() {
                        continue;
                    }
                    let out = cell.output_pin();
                    let Some(qnet) = design.inst(inst).conns[out] else {
                        continue;
                    };
                    let (d, s) = cell_arc_delay(cell, 0, 40.0, load_of(qnet), corner);
                    let arr = clk + d;
                    if net_arr[qnet.index()].is_nan() || arr > net_arr[qnet.index()] {
                        net_arr[qnet.index()] = arr;
                        net_slew[qnet.index()] = s;
                    }
                }
                Master::Macro(m) => {
                    let def = design.macro_master(m);
                    let access = def.access_ps * corner.delay_derate();
                    for (p, pin) in def.pins.iter().enumerate() {
                        if pin.dir != PinDir::Output {
                            continue;
                        }
                        if let Some(net) = design.inst(inst).conns[p] {
                            let arr = clk + access;
                            if net_arr[net.index()].is_nan() || arr > net_arr[net.index()] {
                                net_arr[net.index()] = arr;
                                net_slew[net.index()] = 60.0;
                            }
                        }
                    }
                }
            }
        }

        // --- combinational propagation --------------------------------------
        let pin_net_six = &ctx.pin_net_six;

        // batched locally: one registry add per propagation, nothing
        // atomic inside the serial topological walk
        let mut arcs_evaluated = 0u64;
        for &inst in &ctx.order {
            let Master::Cell(c) = design.inst(inst).master else {
                continue;
            };
            let cell = lib.cell(c);
            let out = cell.output_pin();
            let Some(out_net) = design.inst(inst).conns[out] else {
                continue;
            };
            let load = load_of(out_net);
            let mut best_arr = f64::NAN;
            let mut best_slew = 50.0;
            let mut best_pred = None;
            for (arc_ix, arc) in cell.arcs.iter().enumerate() {
                let pin = arc.from_pin as u16;
                let Some(&(in_net, six)) = pin_net_six.get(&(inst.0, pin)) else {
                    continue;
                };
                if net_arr[in_net.index()].is_nan() {
                    continue;
                }
                let (in_arr, in_slew) = sink_arrival(in_net, six as usize, &net_arr, &net_slew);
                let (d, s) = cell_arc_delay(cell, arc_ix, in_slew, load, corner);
                arcs_evaluated += 1;
                let cand = in_arr + d;
                if best_arr.is_nan() || cand > best_arr {
                    best_arr = cand;
                    best_slew = s;
                    best_pred = Some(in_net);
                }
            }
            if !best_arr.is_nan()
                && (net_arr[out_net.index()].is_nan() || best_arr > net_arr[out_net.index()])
            {
                net_arr[out_net.index()] = best_arr;
                net_slew[out_net.index()] = best_slew;
                pred[out_net.index()] = best_pred;
            }
        }

        // --- endpoint checks --------------------------------------------------
        let derate = corner.delay_derate();

        // Every register/macro setup check is independent given the
        // frozen arrival tables, so they fan out over the workers.
        // The reduction tracks (slack, check index) and breaks slack
        // ties toward the lower index — exactly the element a serial
        // first-strictly-worse scan would keep — so the result is
        // bit-identical for any thread count.
        #[derive(Clone, Copy)]
        struct WorstAcc {
            slack: f64,
            ix: usize,
            any: bool,
        }
        let better = |slack: f64, ix: usize, than: &WorstAcc| {
            slack < than.slack || (slack == than.slack && ix < than.ix)
        };
        let acc = parallel_fold(
            &ctx.endpoint_checks,
            par,
            WorstAcc {
                slack: f64::INFINITY,
                ix: usize::MAX,
                any: false,
            },
            |mut acc, ix, chk| {
                if net_arr[chk.net.index()].is_nan() {
                    return acc;
                }
                acc.any = true;
                let (arr, _) = sink_arrival(chk.net, chk.six as usize, &net_arr, &net_slew);
                let clk = input.clock.arrival_ps[chk.clk_inst.index()];
                let slack = (period + clk - chk.setup_ps * derate) - arr;
                if better(slack, ix, &acc) {
                    acc.slack = slack;
                    acc.ix = ix;
                }
                acc
            },
            |a, b| {
                let mut out = if better(b.slack, b.ix, &a) { b } else { a };
                out.any = a.any || b.any;
                out
            },
        );
        let mut worst = acc.slack;
        let mut worst_net = (acc.ix != usize::MAX).then(|| ctx.endpoint_checks[acc.ix].net);
        let mut has_endpoints = acc.any;

        let check = |arr: f64,
                     required: f64,
                     via_net: NetId,
                     worst: &mut f64,
                     worst_net: &mut Option<NetId>| {
            let slack = required - arr;
            if slack < *worst {
                *worst = slack;
                *worst_net = Some(via_net);
            }
        };

        // output-port checks are few and need per-port required-time
        // fractions; they stay serial after the fan-out
        for pid in design.port_ids() {
            let port = design.port(pid);
            if port.dir != PinDir::Output {
                continue;
            }
            let Some(net) = port.net else { continue };
            if net_arr[net.index()].is_nan() {
                continue;
            }
            has_endpoints = true;
            // the port must be one of the net's sinks; a port that is
            // not would silently be timed at sink 0's Elmore, so skip
            // it instead (unreachable through the public netlist API,
            // which keeps port.net and net.pins in lockstep)
            let Some(six) = crate::graph::sink_index_of(design, net, PinRef::Port(pid)) else {
                debug_assert!(
                    false,
                    "output port {pid:?} listed on net {net:?} but absent from its sinks"
                );
                continue;
            };
            let (arr, _) = sink_arrival(net, six, &net_arr, &net_slew);
            let required = input.constraints.required_frac(pid) * period + input.clock.insertion_ps;
            check(arr, required, net, &mut worst, &mut worst_net);
        }

        if !has_endpoints {
            worst = f64::INFINITY;
        }
        ARCS_EVALUATED.add(arcs_evaluated);
        PROPAGATIONS.inc();
        Propagation {
            worst_slack: worst,
            worst_endpoint_net: worst_net,
            pred,
            has_endpoints,
        }
    }
}

/// Timing arcs evaluated across all propagations (the probe engine
/// reruns propagation per probe point; the parametric engine counts
/// its passes and incremental cone evaluations here too).
pub(crate) static ARCS_EVALUATED: macro3d_obs::SiteCounter =
    macro3d_obs::SiteCounter::new("sta/arcs_evaluated");
/// Full arrival-time propagations executed (probe or parametric).
pub(crate) static PROPAGATIONS: macro3d_obs::SiteCounter =
    macro3d_obs::SiteCounter::new("sta/propagations");

#[cfg(test)]
mod tests {
    use super::*;
    use macro3d_netlist::Side;
    use macro3d_tech::{libgen::n28_library, CellClass};
    use std::sync::Arc;

    /// FF -> INV chain -> FF with explicit parasitics.
    fn reg2reg(chain: usize, wire_elmore_ps: f64) -> (Design, Vec<NetParasitics>, StaConstraints) {
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
        // unused D of f0 from a port
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
                total_res_ohm: 100.0,
                elmore_ps: vec![wire_elmore_ps; sinks],
                driver_load_ff: 3.0,
            };
        }
        let c = StaConstraints::new(clk);
        (d, parasitics, c)
    }

    #[test]
    fn longer_chain_is_slower() {
        let run = |chain: usize| -> f64 {
            let (d, p, c) = reg2reg(chain, 5.0);
            let clock = ClockArrivals::ideal(&d);
            let input = StaInput {
                design: &d,
                parasitics: &p,
                routed: None,
                constraints: &c,
                clock: &clock,
                corner: Corner::Ss,
            };
            analyze(&input).min_period_ps
        };
        let p2 = run(2);
        let p10 = run(10);
        assert!(p10 > p2 + 100.0, "p2={p2} p10={p10}");
    }

    #[test]
    fn min_period_matches_hand_calc_roughly() {
        let (d, p, c) = reg2reg(1, 0.0);
        let clock = ClockArrivals::ideal(&d);
        let input = StaInput {
            design: &d,
            parasitics: &p,
            routed: None,
            constraints: &c,
            clock: &clock,
            corner: Corner::Tt,
        };
        let rep = analyze(&input);
        // ckq (~60+3kohm*3ff) + inv (~10+~15) + setup 35 ≈ 130ps
        assert!(
            rep.min_period_ps > 90.0 && rep.min_period_ps < 250.0,
            "period {}",
            rep.min_period_ps
        );
        assert!(rep.fclk_mhz > 3_000.0);
        assert_eq!(rep.crit_path_stages, 1);
    }

    #[test]
    fn wire_delay_slows_the_clock() {
        let run = |elmore: f64| -> f64 {
            let (d, p, c) = reg2reg(4, elmore);
            let clock = ClockArrivals::ideal(&d);
            let input = StaInput {
                design: &d,
                parasitics: &p,
                routed: None,
                constraints: &c,
                clock: &clock,
                corner: Corner::Ss,
            };
            analyze(&input).min_period_ps
        };
        assert!(run(100.0) > run(0.0) + 4.0 * 100.0 * 0.9);
    }

    #[test]
    fn half_cycle_port_doubles_budget_need() {
        // FF -> output port, once full-cycle once half-cycle
        let lib = Arc::new(n28_library(1.0));
        let dff = lib.smallest(CellClass::Dff).expect("dff");
        let mut d = Design::new("t", lib);
        let clk_p = d.add_port("clk", PinDir::Input, None);
        let clk = d.add_net("clk");
        d.connect(clk, PinRef::Port(clk_p));
        let f = d.add_cell("f", dff);
        d.connect(clk, PinRef::inst(f, 1));
        let dp = d.add_port("d", PinDir::Input, None);
        let dn = d.add_net("dn");
        d.connect(dn, PinRef::Port(dp));
        d.connect(dn, PinRef::inst(f, 0));
        let q = d.add_net("q");
        d.connect(q, PinRef::inst(f, 2));
        let po = d.add_port("out", PinDir::Output, Some(Side::North));
        d.connect(q, PinRef::Port(po));

        let mut parasitics = vec![NetParasitics::default(); d.num_nets()];
        for n in d.net_ids() {
            let sinks = d.sinks(n).count();
            parasitics[n.index()] = NetParasitics {
                wire_cap_ff: 2.0,
                total_res_ohm: 100.0,
                elmore_ps: vec![50.0; sinks],
                driver_load_ff: 5.0,
            };
        }
        let clock = ClockArrivals::ideal(&d);
        let mut c = StaConstraints::new(clk);
        let full = {
            let input = StaInput {
                design: &d,
                parasitics: &parasitics,
                routed: None,
                constraints: &c,
                clock: &clock,
                corner: Corner::Tt,
            };
            analyze(&input).min_period_ps
        };
        c.half_cycle_ports.insert(po);
        let half = {
            let input = StaInput {
                design: &d,
                parasitics: &parasitics,
                routed: None,
                constraints: &c,
                clock: &clock,
                corner: Corner::Tt,
            };
            analyze(&input).min_period_ps
        };
        assert!(
            (half / full - 2.0).abs() < 0.05,
            "half-cycle port should double the required period: {full} -> {half}"
        );
    }

    #[test]
    fn clock_skew_shifts_requirements() {
        let (d, p, c) = reg2reg(4, 10.0);
        let mut clock = ClockArrivals::ideal(&d);
        // find the capture FF (f1) and give it an early clock (negative
        // skew tightens the path)
        let f1 = d
            .inst_ids()
            .find(|&i| d.inst(i).name == "f1")
            .expect("f1 exists");
        let base = {
            let input = StaInput {
                design: &d,
                parasitics: &p,
                routed: None,
                constraints: &c,
                clock: &clock,
                corner: Corner::Tt,
            };
            analyze(&input).min_period_ps
        };
        clock.arrival_ps[f1.index()] = -80.0;
        let skewed = {
            let input = StaInput {
                design: &d,
                parasitics: &p,
                routed: None,
                constraints: &c,
                clock: &clock,
                corner: Corner::Tt,
            };
            analyze(&input).min_period_ps
        };
        assert!((skewed - base - 80.0).abs() < 2.0, "{base} -> {skewed}");
    }

    #[test]
    fn hold_passes_with_zero_skew_and_fails_with_late_capture_clock() {
        let (d, p, c) = reg2reg(1, 0.0);
        let mut clock = ClockArrivals::ideal(&d);
        let input = StaInput {
            design: &d,
            parasitics: &p,
            routed: None,
            constraints: &c,
            clock: &clock,
            corner: Corner::Ff,
        };
        let h = check_hold(&input);
        // ckq (~60ps min) easily beats the 5ps hold requirement
        assert!(h.worst_slack_ps > 0.0, "slack {}", h.worst_slack_ps);
        assert_eq!(h.violations, 0);

        // a capture clock arriving 500ps late breaks hold
        let f1 = d
            .inst_ids()
            .find(|&i| d.inst(i).name == "f1")
            .expect("f1 exists");
        clock.arrival_ps[f1.index()] = 500.0;
        let input = StaInput {
            design: &d,
            parasitics: &p,
            routed: None,
            constraints: &c,
            clock: &clock,
            corner: Corner::Ff,
        };
        let h = check_hold(&input);
        assert!(h.violations >= 1);
        assert!(h.worst_slack_ps < 0.0);
    }

    #[test]
    fn parallel_endpoint_checks_match_serial() {
        let (d, p, c) = reg2reg(8, 25.0);
        let clock = ClockArrivals::ideal(&d);
        let input = StaInput {
            design: &d,
            parasitics: &p,
            routed: None,
            constraints: &c,
            clock: &clock,
            corner: Corner::Ss,
        };
        let serial = analyze(&input);
        for threads in [2, 4] {
            let par = Parallelism::threads(threads).with_chunk_size(1);
            let got = analyze_par(&input, &par);
            assert_eq!(got.min_period_ps, serial.min_period_ps, "threads={threads}");
            assert_eq!(got.crit_path_nets, serial.crit_path_nets);
            assert_eq!(
                worst_slack_par(&input, 500.0, &par),
                worst_slack(&input, 500.0)
            );
        }
    }

    #[test]
    fn worst_slack_is_monotone_in_period() {
        let (d, p, c) = reg2reg(6, 20.0);
        let clock = ClockArrivals::ideal(&d);
        let input = StaInput {
            design: &d,
            parasitics: &p,
            routed: None,
            constraints: &c,
            clock: &clock,
            corner: Corner::Ss,
        };
        let s1 = worst_slack(&input, 300.0);
        let s2 = worst_slack(&input, 600.0);
        let s3 = worst_slack(&input, 1200.0);
        assert!(s1 < s2 && s2 < s3);
    }
}

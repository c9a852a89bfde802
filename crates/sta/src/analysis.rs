//! Arrival propagation, max-frequency search and critical-path
//! reporting.

use crate::constraints::StaConstraints;
use crate::cts::ClockArrivals;
use crate::dcalc::{cell_arc_delay, wire_slew};
use crate::graph::{EndpointKind, TimingGraph};
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
#[derive(Clone, Debug, PartialEq)]
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

/// Guaranteed input-hold margin after the virtual clock, ps: the
/// upstream tile has the same insertion delay and registered outputs,
/// so its outputs cannot change before clk->q.
const INPUT_MIN_DELAY_PS: f64 = 25.0;

/// Hold analysis at the fast corner: earliest arrivals against the
/// hold requirement at every register data pin. Period-independent.
///
/// Clock skew is the aggressor here: a capture register whose clock
/// arrives later than the launching register's needs that much more
/// data-path delay.
///
/// One-shot wrapper that builds a throwaway timing graph; a flow that
/// already holds a [`crate::StaSession`] calls
/// [`crate::StaSession::check_hold`] and reuses the session's graph.
pub fn check_hold(input: &StaInput<'_>) -> HoldReport {
    crate::parametric::StaSession::new(input).check_hold(input)
}

/// The hold min-propagation over a flattened timing graph built from
/// `input.design` (in-place resizing since the build is fine; masters
/// are re-read here). Launches are input ports — the port-driven clock
/// net included — at the virtual clock plus [`INPUT_MIN_DELAY_PS`],
/// flip-flop Q pins at min clk->q and macro outputs at access; arrivals
/// take the shortest arc through the nodes in topological order (zero
/// wire delay: the Elmore floor to the nearest sink is conservatively
/// taken as 0); checks run at flip-flop data pins only.
pub(crate) fn hold_on_graph(input: &StaInput<'_>, graph: &TimingGraph) -> HoldReport {
    let design = input.design;
    let lib = design.library();
    let corner = Corner::Ff;
    let load_of = |net: NetId| -> f64 {
        input
            .parasitics
            .get(net.index())
            .map(|p| p.driver_load_ff)
            .unwrap_or(1.0)
    };
    let lower = |slot: &mut f64, arr: f64| {
        if slot.is_nan() || arr < *slot {
            *slot = arr;
        }
    };
    let mut net_min = vec![f64::NAN; design.num_nets()];

    let port_arr = input.clock.insertion_ps + INPUT_MIN_DELAY_PS;
    if graph.clock_from_port {
        net_min[graph.clock_net.index()] = port_arr;
    }
    for l in &graph.port_launches {
        net_min[l.net.index()] = port_arr;
    }
    for l in &graph.reg_launches {
        let clk = input.clock.arrival_ps[l.inst.index()];
        let arr = match design.inst(l.inst).master {
            Master::Cell(c) => {
                let (d, _) = cell_arc_delay(lib.cell(c), 0, 40.0, load_of(l.net), corner);
                clk + d
            }
            Master::Macro(m) => clk + design.macro_master(m).access_ps * corner.delay_derate(),
        };
        lower(&mut net_min[l.net.index()], arr);
    }

    for node in &graph.nodes {
        let Master::Cell(c) = design.inst(node.inst).master else {
            continue;
        };
        let cell = lib.cell(c);
        let load = load_of(node.out_net);
        let mut best = f64::NAN;
        for arc in graph.node_arcs(node) {
            let in_min = net_min[arc.in_net.index()];
            if in_min.is_nan() {
                continue;
            }
            let (d, _) = cell_arc_delay(cell, arc.arc_ix as usize, 30.0, load, corner);
            lower(&mut best, in_min + d);
        }
        if !best.is_nan() {
            lower(&mut net_min[node.out_net.index()], best);
        }
    }

    let mut worst = f64::INFINITY;
    let mut endpoints = Vec::new();
    for ep in &graph.endpoints {
        let EndpointKind::Reg { clk_inst, pin, .. } = ep.kind else {
            continue;
        };
        let Master::Cell(c) = design.inst(clk_inst).master else {
            continue;
        };
        let arr = net_min[ep.net.index()];
        if arr.is_nan() {
            continue;
        }
        let slack = arr - (input.clock.arrival_ps[clk_inst.index()] + lib.cell(c).hold_ps);
        if slack < worst {
            worst = slack;
        }
        if slack < 0.0 {
            endpoints.push((clk_inst, pin, -slack));
        }
    }
    HoldReport {
        worst_slack_ps: if worst.is_finite() { worst } else { 0.0 },
        violations: endpoints.len(),
        endpoints,
    }
}

/// The reference hold check: the same min-propagation as
/// [`hold_on_graph`], walking a [`StaContext`] (topological order plus
/// a pin `HashMap`) built per call. Tests hold the graph version to it.
#[cfg(test)]
pub(crate) fn check_hold_oracle(input: &StaInput<'_>) -> HoldReport {
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
    // ports at the virtual clock plus the input-hold margin
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

    /// Checks hold on `input` with the one-shot wrapper and with a
    /// fresh session, holds both to the oracle, and returns the report.
    fn hold_matches_oracle(input: &StaInput<'_>) -> HoldReport {
        let oracle = check_hold_oracle(input);
        assert_eq!(check_hold(input), oracle);
        assert_eq!(crate::StaSession::new(input).check_hold(input), oracle);
        oracle
    }

    fn ff_input<'a>(
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
            corner: Corner::Ff,
        }
    }

    fn inst_named(d: &Design, name: &str) -> InstId {
        d.inst_ids()
            .find(|&i| d.inst(i).name == name)
            .expect("instance exists")
    }

    #[test]
    fn session_hold_matches_oracle_with_late_capture_clocks() {
        for (chain, elmore) in [(1, 0.0), (3, 5.0), (6, 20.0)] {
            let (d, p, c) = reg2reg(chain, elmore);
            let (f0, f1) = (inst_named(&d, "f0"), inst_named(&d, "f1"));
            // (f0 clock, f1 clock, violating registers): a capture clock
            // 2 ns late breaks f1.D (pin 0); a launch clock 900 ps late
            // breaks f0.D behind its input port
            for (late0, late1, expect) in [
                (0.0, 0.0, vec![]),
                (0.0, 2_000.0, vec![f1]),
                (900.0, 0.0, vec![f0]),
                (900.0, 2_500.0, vec![f0, f1]),
            ] {
                let mut clock = ClockArrivals::ideal(&d);
                clock.insertion_ps = 40.0;
                clock.arrival_ps[f0.index()] = late0;
                clock.arrival_ps[f1.index()] = late1;
                let h = hold_matches_oracle(&ff_input(&d, &p, &c, &clock));
                let got: Vec<InstId> = h.endpoints.iter().map(|&(i, ..)| i).collect();
                assert_eq!(got, expect, "chain {chain}: {h:?}");
                assert!(h
                    .endpoints
                    .iter()
                    .all(|&(_, pin, short)| pin == 0 && short > 0.0));
                assert_eq!(h.violations, expect.len());
            }
        }
    }

    /// An SRAM whose outputs feed flip-flops directly and through an
    /// inverter, with a flip-flop driving one of its data inputs.
    fn macro_launch_design() -> (Design, Vec<NetParasitics>, StaConstraints) {
        let lib = Arc::new(n28_library(1.0));
        let inv = lib.smallest(CellClass::Inv).expect("inv");
        let dff = lib.smallest(CellClass::Dff).expect("dff");
        let mut d = Design::new("m", lib);
        let mm = d.add_macro_master(macro3d_sram::MemoryCompiler::n28().sram("s", 64, 8));
        let def = d.macro_master(mm).clone();
        let m = d.add_macro_in("sram", mm, 0);
        let clk_p = d.add_port("clk", PinDir::Input, None);
        let clk = d.add_net("clk");
        d.connect(clk, PinRef::Port(clk_p));
        let pin_of = |dir: PinDir, class: macro3d_sram::PinClass| {
            def.pins
                .iter()
                .position(|p| p.dir == dir && p.class == class)
                .expect("pin exists") as u16
        };
        d.connect(
            clk,
            PinRef::inst(m, pin_of(PinDir::Input, macro3d_sram::PinClass::Clock)),
        );
        let douts: Vec<u16> = def
            .pins
            .iter()
            .enumerate()
            .filter(|(_, p)| p.dir == PinDir::Output)
            .map(|(i, _)| i as u16)
            .take(2)
            .collect();
        for (k, &dout) in douts.iter().enumerate() {
            let f = d.add_cell(format!("f{k}"), dff);
            d.connect(clk, PinRef::inst(f, 1));
            let n = d.add_net(format!("dout{k}"));
            d.connect(n, PinRef::inst(m, dout));
            if k == 0 {
                d.connect(n, PinRef::inst(f, 0));
            } else {
                let g = d.add_cell("g", inv);
                d.connect(n, PinRef::inst(g, 0));
                let w = d.add_net("w");
                d.connect(w, PinRef::inst(g, 1));
                d.connect(w, PinRef::inst(f, 0));
            }
        }
        // a flip-flop feeding an SRAM data input: a macro endpoint,
        // which hold does not check
        let fq = d.add_cell("fq", dff);
        d.connect(clk, PinRef::inst(fq, 1));
        let q = d.add_net("q");
        d.connect(q, PinRef::inst(fq, 2));
        d.connect(
            q,
            PinRef::inst(m, pin_of(PinDir::Input, macro3d_sram::PinClass::DataIn)),
        );
        let parasitics = d
            .net_ids()
            .map(|n| NetParasitics {
                wire_cap_ff: 2.0,
                total_res_ohm: 100.0,
                elmore_ps: vec![3.0; d.sinks(n).count()],
                driver_load_ff: 4.0,
            })
            .collect();
        (d, parasitics, StaConstraints::new(clk))
    }

    #[test]
    fn session_hold_matches_oracle_on_macro_launches() {
        let (d, p, c) = macro_launch_design();
        let m = inst_named(&d, "sram");
        for late in [0.0, 400.0, 3_000.0] {
            let mut clock = ClockArrivals::ideal(&d);
            for f in ["f0", "f1", "fq"] {
                clock.arrival_ps[inst_named(&d, f).index()] = late;
            }
            let h = hold_matches_oracle(&ff_input(&d, &p, &c, &clock));
            // the macro's own data inputs are never hold endpoints
            assert!(h.endpoints.iter().all(|&(i, ..)| i != m));
            if late >= 3_000.0 {
                assert_eq!(h.violations, 2, "{h:?}");
            }
        }
    }

    #[test]
    fn session_hold_seeds_a_port_driven_clock_net() {
        // the clock doubles as data: clk -> inv -> f1.D, so f1 is only
        // checked if the clock net is launched like an input port
        let (mut d, p, c) = reg2reg(1, 0.0);
        let inv = d.library().smallest(CellClass::Inv).expect("inv");
        let f1 = inst_named(&d, "f1");
        let w0 = d.net_ids().find(|&n| d.net(n).name == "w0").expect("w0");
        d.disconnect(w0, PinRef::inst(f1, 0));
        let g = d.add_cell("gclk", inv);
        d.connect(c.clock_net, PinRef::inst(g, 0));
        let wc = d.add_net("wc");
        d.connect(wc, PinRef::inst(g, 1));
        d.connect(wc, PinRef::inst(f1, 0));
        let mut p = p;
        p.resize(d.num_nets(), NetParasitics::default());
        let mut clock = ClockArrivals::ideal(&d);
        clock.insertion_ps = 60.0;
        let h = hold_matches_oracle(&ff_input(&d, &p, &c, &clock));
        assert_eq!(h.violations, 0);
        clock.arrival_ps[f1.index()] = 1_000.0;
        let h = hold_matches_oracle(&ff_input(&d, &p, &c, &clock));
        assert_eq!(h.endpoints.len(), 1);
        assert_eq!((h.endpoints[0].0, h.endpoints[0].1), (f1, 0));
    }

    #[test]
    fn session_hold_rebuilds_a_stale_graph_after_fix_hold() {
        let (mut d, p, c) = reg2reg(2, 0.0);
        let f1 = inst_named(&d, "f1");
        let mut clock = ClockArrivals::ideal(&d);
        clock.arrival_ps[f1.index()] = 500.0;
        let par = Parallelism::serial();
        let mut session = crate::StaSession::new(&ff_input(&d, &p, &c, &clock));
        // leave a converged setup state behind, sized for the old graph
        let ss = |input: StaInput<'_>| -> f64 {
            crate::StaSession::new(&input)
                .analyze(&input, &par)
                .min_period_ps
        };
        let before_ss = StaInput {
            corner: Corner::Ss,
            ..ff_input(&d, &p, &c, &clock)
        };
        assert_eq!(
            session.analyze(&before_ss, &par).min_period_ps,
            ss(before_ss)
        );
        let h = session.check_hold(&ff_input(&d, &p, &c, &clock));
        assert_eq!(h, check_hold_oracle(&ff_input(&d, &p, &c, &clock)));
        assert!(h.violations > 0);

        let mut placement = macro3d_place::Placement::new(&d);
        let inserted = crate::opt::fix_hold(&mut d, &mut placement, &h, 10);
        assert!(!inserted.is_empty());
        clock.arrival_ps.resize(d.num_insts(), 0.0);
        let mut p = p;
        p.resize(d.num_nets(), NetParasitics::default());
        let after = session.check_hold(&ff_input(&d, &p, &c, &clock));
        assert_eq!(after, check_hold_oracle(&ff_input(&d, &p, &c, &clock)));
        assert!(
            after.worst_slack_ps > h.worst_slack_ps,
            "{h:?} -> {after:?}"
        );
        // the rebuild dropped the stale setup state: an update re-solves
        // cold on the new graph
        let after_ss = StaInput {
            corner: Corner::Ss,
            ..ff_input(&d, &p, &c, &clock)
        };
        assert_eq!(
            session.update(&after_ss, &[], &par).min_period_ps,
            ss(after_ss)
        );
    }

    /// The designs every golden `mini` flow signs off — placed, routed,
    /// sized, ECO-legalized — checked by the flow's own session graph
    /// (built before sizing), by a fresh session and by the oracle.
    #[test]
    fn session_hold_matches_oracle_on_golden_mini_flows() {
        let tile = macro3d_soc::generate_tile(&macro3d_soc::TileConfig::mini());
        for flow in macro3d::flows::all_flows() {
            for placer in [
                macro3d::PlacerBackend::Bisection,
                macro3d::PlacerBackend::Analytical,
            ] {
                let mut cfg = macro3d::FlowConfig::builder()
                    .sizing_rounds(2)
                    .placer(placer)
                    .build()
                    .expect("valid config");
                cfg.route.iterations = 2;
                let imp = flow.try_run(&tile, &cfg).expect("flow runs").implemented;
                // the flow links the library build of this crate: carry
                // its constraints and clock over field by field
                let mut c = StaConstraints::new(imp.constraints.clock_net);
                c.half_cycle_ports = imp.constraints.half_cycle_ports.clone();
                let clock = ClockArrivals {
                    arrival_ps: imp.clock.arrival_ps.clone(),
                    depth: imp.clock.depth,
                    skew_ps: imp.clock.skew_ps,
                    wire_cap_ff: imp.clock.wire_cap_ff,
                    insertion_ps: imp.clock.insertion_ps,
                };
                let input = StaInput {
                    routed: Some(&imp.routed),
                    ..ff_input(&imp.design, &imp.parasitics, &c, &clock)
                };
                let oracle = hold_matches_oracle(&input);
                let flow_report = HoldReport {
                    worst_slack_ps: imp.hold.worst_slack_ps,
                    violations: imp.hold.violations,
                    endpoints: imp.hold.endpoints.clone(),
                };
                assert_eq!(flow_report, oracle, "{} / {placer:?}", flow.name());
            }
        }
    }
}

//! Parametric STA: affine arrival propagation and closed-form
//! minimum-period resolution.
//!
//! The probe path in [`crate::analysis`] binary-searches the minimum
//! feasible period with 32 full arrival propagations, yet every arc
//! delay, slew and Elmore term inside a propagation is
//! period-independent — the period only enters *affinely*, through
//! `launch_frac · T` at input ports and the endpoint required times.
//! This module therefore propagates arrivals as affine forms
//! `off + coeff · T` through the same topological walk (delays
//! computed exactly once) and solves each endpoint's binding period in
//! closed form: `slack(T) = (req_coeff − arr_coeff) · T + const ≥ 0`.
//!
//! ## The affine-max caveat and the confirmation contract
//!
//! A net merging fan-ins with *different* period coefficients has a
//! true arrival that is a max of affines — piecewise linear in `T`,
//! not affine. A pass picks max-winners by value at a comparison
//! period `t_cmp` (a *policy*); the resulting affine per net equals
//! the true arrival **at `t_cmp`** and lower-bounds the true max
//! everywhere else, so the closed-form solve of a pass is always a
//! lower bound on the true minimum period. Each pass records whether
//! any max comparison mixed coefficients:
//!
//! * **unmixed** — winner selection is period-independent, the single
//!   pass is globally exact, and the closed form yields the true
//!   minimum period after **1 propagation**;
//! * **mixed** — the solver iterates `t ← solve(pass at t)`
//!   (confirmation passes). The iteration is monotone increasing from
//!   below, and the first fixed point is exactly the true minimum
//!   period because the policy at `t` reproduces the true slack at
//!   `t`. Typical designs confirm in one extra pass; the loop is
//!   capped and never falls back to fixed probing.
//!
//! ## Incremental cone updates
//!
//! [`StaSession`] keeps the flattened `TimingGraph` and the last
//! converged pass. After an optimization step reports its touched
//! nets (loads or Elmore changed), `update` seeds a worklist with the
//! touched nets' sources, consumers and endpoints and re-evaluates
//! only that fan-out cone in topological order, stopping wherever a
//! recomputed value is bit-identical to the stored one. Structural
//! edits (new instances/nets) are detected via the graph's shape
//! snapshot and trigger a transparent rebuild + cold analysis.

use crate::analysis::{HoldReport, StaInput, TimingReport, ARCS_EVALUATED, PROPAGATIONS};
use crate::dcalc::{cell_arc_delay, wire_slew};
use crate::graph::{EndpointKind, TimingGraph, NO_NODE};
use macro3d_netlist::{Master, NetId};
use macro3d_par::{parallel_argmin, Parallelism};
use std::collections::BTreeSet;

/// Lower edge of the period search window, ps (shared with the probe
/// path's binary search).
pub(crate) const T_LO_PS: f64 = 10.0;
/// Upper edge of the period search window, ps.
pub(crate) const T_HI_PS: f64 = 20.0e6;
/// Grid resolution of the probe path's 32-step binary search over
/// `[T_LO_PS, T_HI_PS]` — the tolerance within which the parametric
/// and probe minimum periods agree (the parametric result is exact;
/// the probe result is the smallest feasible grid point above it).
pub const PROBE_RESOLUTION_PS: f64 = (T_HI_PS - T_LO_PS) / 4_294_967_296.0;

/// Relative tolerance of the confirmation iteration.
const REFINE_TOL: f64 = 1e-9;
/// Confirmation-pass cap (mixed designs converge in 1–2 passes; the
/// cap only bounds adversarial cases and keeps the result a valid
/// lower bound).
const MAX_REFINE: usize = 24;

/// An arrival that is affine in the clock period: `off + coeff · T`.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Affine {
    off: f64,
    coeff: f64,
}

impl Affine {
    /// "Not driven yet" marker (the probe path's NAN arrival).
    const UNSET: Affine = Affine {
        off: f64::NAN,
        coeff: 0.0,
    };

    #[inline]
    fn at(self, t: f64) -> f64 {
        self.off + self.coeff * t
    }

    #[inline]
    fn is_unset(self) -> bool {
        self.off.is_nan()
    }
}

/// Exact equality including the unset state (NAN offsets compare
/// equal to each other here).
#[inline]
fn same_affine(a: Affine, b: Affine) -> bool {
    (a.is_unset() && b.is_unset()) || (a.off == b.off && a.coeff == b.coeff)
}

/// Binding period of one endpoint given its affine slack
/// `slope · T + konst`: the smallest `T` with non-negative slack.
/// `NEG_INFINITY` = never binds, `INFINITY` = infeasible at any
/// period (a slope-free deficit, e.g. a half-cycle input feeding a
/// half-cycle output through too much logic).
#[inline]
fn solve_t_bound(slope: f64, konst: f64) -> f64 {
    if slope > 0.0 {
        -konst / slope
    } else if konst >= 0.0 {
        f64::NEG_INFINITY
    } else {
        f64::INFINITY
    }
}

#[inline]
fn clamp_t(t: f64) -> f64 {
    t.clamp(T_LO_PS, T_HI_PS)
}

/// One converged parametric pass: per-net affine arrivals/slews/preds
/// and per-endpoint affine slacks, all valid for the policy chosen at
/// `t_cmp`.
#[derive(Clone)]
pub(crate) struct ParamState {
    arr: Vec<Affine>,
    slew: Vec<f64>,
    pred: Vec<Option<NetId>>,
    /// Per endpoint: slack slope (`req_coeff − arr_coeff`); NAN =
    /// endpoint not driven.
    ep_slope: Vec<f64>,
    /// Per endpoint: slack constant term.
    ep_const: Vec<f64>,
    /// Per endpoint: binding period from [`solve_t_bound`].
    t_bound: Vec<f64>,
    /// Comparison period the max-winners were chosen at.
    t_cmp: f64,
    /// True when any max comparison involved differing coefficients
    /// (winner selection may depend on the period).
    mixed: bool,
    /// True when at least one endpoint is driven.
    has_endpoints: bool,
}

/// Borrowed context for one pass / cone update.
struct PassCtx<'a, 'b> {
    input: &'a StaInput<'b>,
    graph: &'a TimingGraph,
    t_cmp: f64,
}

impl PassCtx<'_, '_> {
    #[inline]
    fn load_of(&self, net: NetId) -> f64 {
        self.input
            .parasitics
            .get(net.index())
            .map(|p| p.driver_load_ff)
            .unwrap_or(1.0)
    }

    #[inline]
    fn elmore(&self, net: NetId, six: usize) -> f64 {
        self.input
            .parasitics
            .get(net.index())
            .and_then(|p| p.elmore_ps.get(six))
            .copied()
            .unwrap_or(0.0)
    }

    /// Max-compare `cand` against `best` at `t_cmp`, flagging mixed
    /// coefficients. Strict comparison: ties keep the incumbent,
    /// matching the probe pass's serial scan.
    #[inline]
    fn better(&self, cand: Affine, best: Affine, mixed: &mut bool) -> bool {
        if best.is_unset() {
            return true;
        }
        if cand.coeff != best.coeff {
            *mixed = true;
        }
        cand.at(self.t_cmp) > best.at(self.t_cmp)
    }

    /// The launch-sourced arrival of a net (input ports, then FF Q /
    /// macro outputs — the probe pass's stage order), recomputed from
    /// the design so incremental updates pick up resized drivers.
    fn launch_value(&self, net: NetId, mixed: &mut bool) -> (Affine, f64, Option<NetId>) {
        let design = self.input.design;
        let corner = self.input.corner;
        if net == self.graph.clock_net && self.graph.clock_from_port {
            // clock enters here; handled via ClockArrivals
            return (
                Affine {
                    off: 0.0,
                    coeff: 0.0,
                },
                50.0,
                None,
            );
        }
        let mut cur = Affine::UNSET;
        let mut cur_slew = 50.0;
        for l in self.graph.port_launches_of(net) {
            // IO paths reference the virtual clock at the common
            // insertion delay (the abutting tile has the same tree)
            let cand = Affine {
                off: self.input.clock.insertion_ps,
                coeff: self.input.constraints.launch_frac(l.port),
            };
            if self.better(cand, cur, mixed) {
                cur = cand;
                cur_slew = self.input.constraints.input_slew_ps;
            }
        }
        for l in self.graph.reg_launches_of(net) {
            let clk = self.input.clock.arrival_ps[l.inst.index()];
            let (cand, s) = if l.is_macro {
                let Master::Macro(m) = design.inst(l.inst).master else {
                    continue;
                };
                let access = design.macro_master(m).access_ps * corner.delay_derate();
                (
                    Affine {
                        off: clk + access,
                        coeff: 0.0,
                    },
                    60.0,
                )
            } else {
                let Master::Cell(c) = design.inst(l.inst).master else {
                    continue;
                };
                let (d, s) =
                    cell_arc_delay(design.library().cell(c), 0, 40.0, self.load_of(net), corner);
                (
                    Affine {
                        off: clk + d,
                        coeff: 0.0,
                    },
                    s,
                )
            };
            if self.better(cand, cur, mixed) {
                cur = cand;
                cur_slew = s;
            }
        }
        (cur, cur_slew, None)
    }

    /// Re-evaluates one node's output net from scratch: launch
    /// baseline, then the max over its arcs.
    fn eval_node(
        &self,
        node_ix: usize,
        arr: &[Affine],
        slew: &[f64],
        mixed: &mut bool,
        arcs_evaluated: &mut u64,
    ) -> (Affine, f64, Option<NetId>) {
        let node = &self.graph.nodes[node_ix];
        let design = self.input.design;
        let (mut best, mut best_slew, mut best_pred) = self.launch_value(node.out_net, mixed);
        let Master::Cell(c) = design.inst(node.inst).master else {
            return (best, best_slew, best_pred);
        };
        // masters are re-read per evaluation: drive variants of a
        // class share pin/arc structure, so in-place sizing only
        // changes the LUTs, never the graph
        let cell = design.library().cell(c);
        let load = self.load_of(node.out_net);
        for arc in self.graph.node_arcs(node) {
            let in_arr = arr[arc.in_net.index()];
            if in_arr.is_unset() {
                continue;
            }
            let e = self.elmore(arc.in_net, arc.six as usize);
            let in_slew = wire_slew(slew[arc.in_net.index()], e);
            let (d, s) =
                cell_arc_delay(cell, arc.arc_ix as usize, in_slew, load, self.input.corner);
            *arcs_evaluated += 1;
            let cand = Affine {
                off: in_arr.off + e + d,
                coeff: in_arr.coeff,
            };
            if self.better(cand, best, mixed) {
                best = cand;
                best_slew = s;
                best_pred = Some(arc.in_net);
            }
        }
        (best, best_slew, best_pred)
    }

    /// Affine slack pieces `(slope, konst)` of one endpoint, or NANs
    /// when its net is not driven.
    fn solve_endpoint(&self, ep_ix: usize, arr: &[Affine]) -> (f64, f64) {
        let ep = &self.graph.endpoints[ep_ix];
        let a = arr[ep.net.index()];
        if a.is_unset() {
            return (f64::NAN, f64::NAN);
        }
        let a_off = a.off + self.elmore(ep.net, ep.six as usize);
        let (req_coeff, req_const) = match ep.kind {
            EndpointKind::Reg {
                clk_inst, setup_ps, ..
            } => {
                let clk = self.input.clock.arrival_ps[clk_inst.index()];
                (1.0, clk - setup_ps * self.input.corner.delay_derate())
            }
            EndpointKind::Port { port } => (
                self.input.constraints.required_frac(port),
                self.input.clock.insertion_ps,
            ),
        };
        (req_coeff - a.coeff, req_const - a_off)
    }
}

/// One full parametric propagation with winners chosen at `t_cmp`.
fn full_pass(input: &StaInput<'_>, graph: &TimingGraph, t_cmp: f64) -> ParamState {
    let nn = input.design.num_nets();
    let ne = graph.endpoints.len();
    let mut st = ParamState {
        arr: vec![Affine::UNSET; nn],
        slew: vec![50.0; nn],
        pred: vec![None; nn],
        ep_slope: vec![f64::NAN; ne],
        ep_const: vec![f64::NAN; ne],
        t_bound: vec![f64::NAN; ne],
        t_cmp,
        mixed: false,
        has_endpoints: false,
    };
    let ctx = PassCtx {
        input,
        graph,
        t_cmp,
    };
    let mut mixed = false;
    let mut arcs = 0u64;
    // launch stage (covers launch-only nets; node-driven nets are
    // overwritten below from the same launch baseline)
    if graph.clock_from_port {
        st.arr[graph.clock_net.index()] = Affine {
            off: 0.0,
            coeff: 0.0,
        };
    }
    for l in &graph.port_launches {
        let (a, s, _) = ctx.launch_value(l.net, &mut mixed);
        st.arr[l.net.index()] = a;
        st.slew[l.net.index()] = s;
    }
    for l in &graph.reg_launches {
        let (a, s, _) = ctx.launch_value(l.net, &mut mixed);
        st.arr[l.net.index()] = a;
        st.slew[l.net.index()] = s;
    }
    // combinational walk
    for ix in 0..graph.nodes.len() {
        let (a, s, p) = ctx.eval_node(ix, &st.arr, &st.slew, &mut mixed, &mut arcs);
        let out = graph.nodes[ix].out_net.index();
        st.arr[out] = a;
        st.slew[out] = s;
        st.pred[out] = p;
    }
    // endpoint slacks in closed form
    for e in 0..ne {
        let (slope, konst) = ctx.solve_endpoint(e, &st.arr);
        st.ep_slope[e] = slope;
        st.ep_const[e] = konst;
        st.t_bound[e] = if slope.is_nan() {
            f64::NAN
        } else {
            solve_t_bound(slope, konst)
        };
        st.has_endpoints |= !slope.is_nan();
    }
    st.mixed = mixed;
    ARCS_EVALUATED.add(arcs);
    PROPAGATIONS.inc();
    st
}

/// The closed-form solve of one pass: the largest binding period over
/// all endpoints (a lower bound on the true minimum period; exact
/// when the pass was unmixed or `t_cmp` already sits at the result).
fn t_star(st: &ParamState, par: &Parallelism) -> f64 {
    match parallel_argmin(&st.t_bound, par, |_, &tb| (!tb.is_nan()).then_some(-tb)) {
        Some((_, k)) => -k,
        None => f64::NEG_INFINITY,
    }
}

/// Confirmation iteration for mixed passes: `t ← solve(pass at t)`,
/// monotone increasing from below; the first fixed point is the true
/// minimum period.
fn refine(
    input: &StaInput<'_>,
    graph: &TimingGraph,
    mut st: ParamState,
    mut t: f64,
    par: &Parallelism,
) -> (ParamState, f64) {
    if !st.mixed {
        return (st, t);
    }
    for _ in 0..MAX_REFINE {
        let tol = REFINE_TOL * t.abs().max(1.0);
        if (t - st.t_cmp).abs() <= tol {
            break;
        }
        st = full_pass(input, graph, t);
        let t2 = clamp_t(t_star(&st, par));
        if t2 <= t + tol {
            // the policy at t reproduces the true slack at t, which
            // is non-negative here, and t was already a lower bound
            break;
        }
        t = t2;
    }
    (st, t)
}

/// Cold parametric solve: one pass at the window top, closed-form
/// solve, then the confirmation iteration when the pass was mixed.
///
/// # Panics
///
/// Panics if the design has no timing endpoints, matching the probe
/// path.
fn solve_min_period(
    input: &StaInput<'_>,
    graph: &TimingGraph,
    par: &Parallelism,
) -> (ParamState, f64) {
    let st = full_pass(input, graph, T_HI_PS);
    assert!(st.has_endpoints, "design has no timing endpoints");
    let t = clamp_t(t_star(&st, par));
    refine(input, graph, st, t, par)
}

/// Builds the [`TimingReport`] from a converged state: the worst
/// endpoint is selected by affine slack just below the solved period
/// (the probe path's trace point), ties toward the earlier endpoint.
fn report_from(
    input: &StaInput<'_>,
    graph: &TimingGraph,
    st: &ParamState,
    t_final: f64,
    par: &Parallelism,
) -> TimingReport {
    let t_trace = (t_final - PROBE_RESOLUTION_PS).max(T_LO_PS);
    let worst = parallel_argmin(&graph.endpoints, par, |e, _| {
        let slope = st.ep_slope[e];
        (!slope.is_nan()).then(|| slope * t_trace + st.ep_const[e])
    });
    let mut crit_nets = Vec::new();
    let mut stages = 0usize;
    let mut wl_um = 0.0;
    if let Some((ix, _)) = worst {
        let mut net = graph.endpoints[ix].net;
        loop {
            crit_nets.push(net);
            if let Some(r) = input.routed.and_then(|r| r.net(net)) {
                wl_um += r.wirelength_um();
            }
            match st.pred[net.index()] {
                Some(p) => {
                    stages += 1;
                    net = p;
                }
                None => break,
            }
        }
    }
    TimingReport {
        min_period_ps: t_final,
        fclk_mhz: 1.0e6 / t_final,
        crit_path_nets: crit_nets,
        crit_path_wirelength_mm: wl_um / 1_000.0,
        crit_path_stages: stages,
        clock_tree_depth: input.clock.depth,
        clock_skew_ps: input.clock.skew_ps,
    }
}

/// One-shot parametric analysis (builds a throwaway session).
pub(crate) fn analyze_parametric(input: &StaInput<'_>, par: &Parallelism) -> TimingReport {
    StaSession::new(input).analyze(input, par)
}

/// An incremental parametric analysis session.
///
/// Owns the flattened `TimingGraph` and the last converged pass so
/// the sizing loops can re-time only the fan-out cone of the nets an
/// optimization step touched. In-place resizing needs no rebuild;
/// structural edits are detected and trigger a cold re-analysis.
///
/// `Clone` deep-copies the graph and converged state, so a session
/// snapshotted at a flow-stage boundary can be resumed by a later run
/// without disturbing the original — the stage-reuse machinery in
/// `macro3d-core` relies on this.
#[derive(Clone)]
pub struct StaSession {
    graph: TimingGraph,
    state: Option<(ParamState, f64)>,
}

impl StaSession {
    /// Builds the timing graph for the design in `input`.
    pub fn new(input: &StaInput<'_>) -> StaSession {
        StaSession {
            graph: TimingGraph::build(input.design, input.constraints),
            state: None,
        }
    }

    /// Full (cold) parametric analysis; rebuilds the graph first when
    /// the design changed shape.
    ///
    /// # Panics
    ///
    /// Panics if the design has no timing endpoints.
    pub fn analyze(&mut self, input: &StaInput<'_>, par: &Parallelism) -> TimingReport {
        if self.graph.is_stale(input.design) {
            self.graph = TimingGraph::build(input.design, input.constraints);
        }
        self.state = None;
        let (st, t) = solve_min_period(input, &self.graph, par);
        let rep = report_from(input, &self.graph, &st, t, par);
        self.state = Some((st, t));
        rep
    }

    /// Re-analyzes after an optimization step changed the loads or
    /// Elmore delays of `touched` nets (e.g. the return of
    /// [`crate::opt::apply_sizing_to_parasitics`]): re-evaluates only
    /// the touched nets' sources, consumers and downstream cone,
    /// stopping wherever a recomputed value is bit-identical. Falls
    /// back to [`StaSession::analyze`] when the design changed shape
    /// or no converged state exists yet.
    pub fn update(
        &mut self,
        input: &StaInput<'_>,
        touched: &[NetId],
        par: &Parallelism,
    ) -> TimingReport {
        if self.graph.is_stale(input.design) {
            return self.analyze(input, par);
        }
        let Some((mut st, _)) = self.state.take() else {
            return self.analyze(input, par);
        };
        let graph = &self.graph;
        let ctx = PassCtx {
            input,
            graph,
            t_cmp: st.t_cmp,
        };
        let mut mixed = st.mixed;
        let mut arcs = 0u64;
        let mut reevaled = 0u64;
        // worklist keyed by topological node index, so every node is
        // re-evaluated at most once, after all its dirty predecessors
        let mut dirty_nodes: BTreeSet<u32> = BTreeSet::new();
        let mut dirty_eps: BTreeSet<u32> = BTreeSet::new();
        for &net in touched {
            // endpoints and consumers read the net's Elmore terms;
            // its driver (node or launch) reads its load
            dirty_eps.extend(graph.endpoints_of(net).iter().copied());
            dirty_nodes.extend(graph.consumers(net).iter().copied());
            let nd = graph.driver_node_of_net[net.index()];
            if nd != NO_NODE {
                dirty_nodes.insert(nd);
            } else {
                let (a, s, p) = ctx.launch_value(net, &mut mixed);
                reevaled += 1;
                let ix = net.index();
                if !same_affine(a, st.arr[ix]) || s != st.slew[ix] {
                    st.arr[ix] = a;
                    st.slew[ix] = s;
                    st.pred[ix] = p;
                    dirty_nodes.extend(graph.consumers(net).iter().copied());
                    dirty_eps.extend(graph.endpoints_of(net).iter().copied());
                }
            }
        }
        while let Some(node_ix) = dirty_nodes.pop_first() {
            let (a, s, p) =
                ctx.eval_node(node_ix as usize, &st.arr, &st.slew, &mut mixed, &mut arcs);
            reevaled += 1;
            let out = graph.nodes[node_ix as usize].out_net;
            let ix = out.index();
            let changed = !same_affine(a, st.arr[ix]) || s != st.slew[ix];
            st.arr[ix] = a;
            st.slew[ix] = s;
            st.pred[ix] = p;
            if changed {
                dirty_nodes.extend(graph.consumers(out).iter().copied());
                dirty_eps.extend(graph.endpoints_of(out).iter().copied());
            }
        }
        for &e in &dirty_eps {
            let (slope, konst) = ctx.solve_endpoint(e as usize, &st.arr);
            st.ep_slope[e as usize] = slope;
            st.ep_const[e as usize] = konst;
            st.t_bound[e as usize] = if slope.is_nan() {
                f64::NAN
            } else {
                solve_t_bound(slope, konst)
            };
            st.has_endpoints |= !slope.is_nan();
        }
        st.mixed = mixed;
        CONE_NETS.record(reevaled);
        INCREMENTAL_UPDATES.inc();
        ARCS_EVALUATED.add(arcs);
        let t = clamp_t(t_star(&st, par));
        let (st, t) = refine(input, graph, st, t, par);
        let rep = report_from(input, graph, &st, t, par);
        self.state = Some((st, t));
        rep
    }

    /// Hold check at the fast corner (see [`crate::check_hold`]) over
    /// the session's timing graph, so a flow pays no second
    /// topological sort or pin map for it. Rebuilds the graph first
    /// when the design changed shape — e.g. after
    /// [`crate::opt::fix_hold`] spliced in delay chains — and then
    /// drops the converged setup state, so the next
    /// [`StaSession::update`] re-analyzes cold.
    pub fn check_hold(&mut self, input: &StaInput<'_>) -> HoldReport {
        if self.graph.is_stale(input.design) {
            self.graph = TimingGraph::build(input.design, input.constraints);
            self.state = None;
        }
        crate::analysis::hold_on_graph(input, &self.graph)
    }
}

/// Nets re-evaluated per incremental cone update (the probe path
/// would have re-propagated every net, 34 times).
static CONE_NETS: macro3d_obs::SiteHistogram = macro3d_obs::SiteHistogram::new("sta/cone_nets");
/// Incremental session updates served from a cone walk.
static INCREMENTAL_UPDATES: macro3d_obs::SiteCounter =
    macro3d_obs::SiteCounter::new("sta/incremental_updates");

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn affine_eval_and_unset() {
        let a = Affine {
            off: 100.0,
            coeff: 0.5,
        };
        assert_eq!(a.at(200.0), 200.0);
        assert!(Affine::UNSET.is_unset());
        assert!(same_affine(Affine::UNSET, Affine::UNSET));
        assert!(!same_affine(a, Affine::UNSET));
        assert!(same_affine(a, a));
    }

    #[test]
    fn t_bound_closed_form() {
        // slack(T) = 0.5·T − 100 ⇒ binds at 200
        assert_eq!(solve_t_bound(0.5, -100.0), 200.0);
        // positive slack with no slope never binds
        assert_eq!(solve_t_bound(0.0, 5.0), f64::NEG_INFINITY);
        // deficit with no (or negative) slope is infeasible at any T
        assert_eq!(solve_t_bound(0.0, -5.0), f64::INFINITY);
        assert_eq!(solve_t_bound(-0.5, -5.0), f64::INFINITY);
        // negative slope but already non-negative: never binds
        assert_eq!(solve_t_bound(-0.5, 5.0), f64::NEG_INFINITY);
    }

    #[test]
    fn clamp_matches_probe_window() {
        assert_eq!(clamp_t(f64::NEG_INFINITY), T_LO_PS);
        assert_eq!(clamp_t(f64::INFINITY), T_HI_PS);
        assert_eq!(clamp_t(500.0), 500.0);
    }
}

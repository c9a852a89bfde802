//! Shared flow infrastructure: configuration, floorplan sizing, the
//! direct-flow driver, and the common place/route/extract/sign-off
//! engine every flow drives.

use crate::error::{flow_gate, FlowError};
use crate::stage::{ExtractSnap, FloorplanSnap, PlaceSnap, StageReuse};
use macro3d_extract::{estimate_net, extract_net, NetParasitics};
use macro3d_geom::{Dbu, Point, Rect};
use macro3d_netlist::{Design, InstId, Master, NetId, PinRef};
use macro3d_par::{
    checkpoint, note_degradation, parallel_map, Checkpoint, FaultPlan, FlowBudget, Parallelism,
};
use macro3d_place::floorplan::die_for_area;
use macro3d_place::{
    global_place, legalize, Floorplan, GlobalPlaceConfig, MacroPlacement, Placement, PortPlan,
};
use macro3d_route::{route_design, RouteConfig, RouteRequest, RoutedDesign};
use macro3d_soc::TileNetlist;
use macro3d_sta::{
    analyze_power, clock_arrivals, insert_repeaters, synthesize_clock_tree, upsize_critical_path,
    ClockArrivals, ClockTree, HoldReport, PowerInput, PowerReport, StaConstraints, StaInput,
    StaSession, TimingReport,
};
use macro3d_tech::stack::{n28_stack, DieRole, MetalStack};
use macro3d_tech::{CombinedBeol, Corner, F2fSpec};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

/// Configuration shared by all flows.
///
/// Plain data: build one literally, start from
/// [`FlowConfig::default`] and write fields, or use
/// [`FlowConfig::builder`]. Every flow run checks the ranges with
/// [`FlowConfig::validate`] before its first stage.
#[derive(Clone, Debug)]
pub struct FlowConfig {
    /// Metal layers on the logic die.
    pub logic_metals: usize,
    /// Metal layers on the macro die (Table III trims this to 4).
    pub macro_metals: usize,
    /// Standard-cell region utilization target.
    pub util_logic: f64,
    /// Macro packing utilization target.
    pub util_macro: f64,
    /// Macro keep-out halo, µm.
    pub halo_um: f64,
    /// Repeater insertion threshold, µm of HPWL, for an
    /// uncompressed (`area_scale = 1`) library. Flows scale it by
    /// `sqrt(area_scale)`: compressed cells are proportionally
    /// stronger, so each repeater drives a longer segment at the same
    /// relative delay cost (keeps buffer area calibrated; see
    /// DESIGN.md §5).
    pub repeater_max_len_um: f64,
    /// Router settings (including the router's own parallelism knob).
    pub route: RouteConfig,
    /// Post-route sizing iterations.
    pub sizing_rounds: usize,
    /// Quantization period for partial blockages in the S2D/C2D
    /// pseudo-2D stages, µm (the commercial tools' coarse spatial
    /// resolution the paper observes).
    pub partial_blockage_period_um: f64,
    /// Global placement settings.
    pub place: GlobalPlaceConfig,
    /// Worker threads for the per-net extraction fan-out and the STA
    /// endpoint checks. The router and the placer read
    /// `route.parallelism` and `place.parallelism` instead (so their
    /// batch granularity can be tuned independently);
    /// [`crate::FlowConfigBuilder::parallelism`] sets all three.
    /// Results are identical for any thread count.
    pub parallelism: Parallelism,
    /// Observability level for the flow run (off / summary / full
    /// trace). When on, [`crate::FlowOutcome::obs`] carries the
    /// recorded trace.
    pub obs: macro3d_obs::ObsConfig,
    /// Stage budget (wall-clock deadline + per-site iteration caps).
    /// On exhaustion the engine loops return best-so-far state and
    /// [`crate::FlowOutcome::degradation`] records what was cut
    /// short. Unlimited by default.
    pub budget: FlowBudget,
    /// Deterministic fault-injection plan for robustness testing:
    /// forces errors or budget exhaustion at chosen checkpoint sites.
    /// `None` (the default) injects nothing.
    pub fault_plan: Option<FaultPlan>,
}

impl Default for FlowConfig {
    fn default() -> Self {
        FlowConfig {
            logic_metals: 6,
            macro_metals: 6,
            util_logic: 0.60,
            util_macro: 0.85,
            halo_um: 2.0,
            repeater_max_len_um: 150.0,
            route: RouteConfig::default(),
            sizing_rounds: 8,
            partial_blockage_period_um: 8.0,
            place: GlobalPlaceConfig::default(),
            parallelism: Parallelism::default(),
            obs: macro3d_obs::ObsConfig::default(),
            budget: FlowBudget::default(),
            fault_plan: None,
        }
    }
}

/// Area summary used for floorplan sizing.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AreaBudget {
    /// Total standard-cell area, µm².
    pub cell_um2: f64,
    /// Total macro area (with halos), µm².
    pub macro_um2: f64,
    /// Single-die footprint of the F2F stack, µm².
    pub a3d_um2: f64,
}

/// Computes the fair footprints: the 3D footprint solves the
/// two-die balance `A = cell/u_l + overflow_macros/u_m =
/// macro_die_macros/u_m`, and the 2D footprint is exactly `2 × A`
/// (the paper's equal-silicon-area rule).
pub fn area_budget(design: &Design, cfg: &FlowConfig) -> AreaBudget {
    let mut cell = 0.0;
    let mut macros = 0.0;
    for i in design.inst_ids() {
        let halo_pad = if design.is_macro(i) {
            let r = macro_rect_at_origin(design, i).inflate(Dbu::from_um(cfg.halo_um));
            r.area_um2() - design.inst_area_um2(i)
        } else {
            0.0
        };
        if design.is_macro(i) {
            macros += design.inst_area_um2(i) + halo_pad;
        } else {
            cell += design.inst_area_um2(i);
        }
    }
    let a3d = 0.5 * (cell / cfg.util_logic + macros / cfg.util_macro);
    AreaBudget {
        cell_um2: cell,
        macro_um2: macros,
        a3d_um2: a3d,
    }
}

fn macro_rect_at_origin(design: &Design, inst: InstId) -> Rect {
    let Master::Macro(m) = design.inst(inst).master else {
        panic!("not a macro");
    };
    Rect::from_origin_size(Point::ORIGIN, design.macro_master(m).size)
}

/// Splits the macros of a design into (macro-die, logic-die) sets for
/// an MoL stack: largest first onto the macro die until its
/// utilization target is reached.
pub fn assign_macros_mol(
    design: &Design,
    die_area_um2: f64,
    cfg: &FlowConfig,
) -> (Vec<InstId>, Vec<InstId>) {
    let mut macros: Vec<InstId> = design.inst_ids().filter(|&i| design.is_macro(i)).collect();
    macros.sort_by(|&a, &b| {
        design
            .inst_area_um2(b)
            .total_cmp(&design.inst_area_um2(a))
            .then(a.cmp(&b))
    });
    let budget = die_area_um2 * cfg.util_macro;
    let mut used = 0.0;
    let mut top = Vec::new();
    let mut bottom = Vec::new();
    for m in macros {
        let r = macro_rect_at_origin(design, m).inflate(Dbu::from_um(cfg.halo_um));
        if used + r.area_um2() <= budget {
            used += r.area_um2();
            top.push(m);
        } else {
            bottom.push(m);
        }
    }
    (top, bottom)
}

/// The memory-on-logic macro floorplans that Macro-3D, MoL S2D and
/// Compact-2D share on the 3D-footprint `die`: the
/// [`assign_macros_mol`] split, shelf-packed on the macro die and
/// ring- (else shelf-) packed on the logic die, then annealed. Returns
/// `(macro-die placements, logic-die placements)`. While the two dies
/// do not both pack, the smallest macro-die macro moves to the logic
/// die (shelf packing wastes some area against the pure area budget).
///
/// # Errors
///
/// Returns [`crate::FlowError::Floorplan`] when even an empty macro die
/// cannot host the logic-die macros (die far too small — not
/// reachable from [`area_budget`] with validated configs).
pub(crate) fn mol_floorplans(
    design: &Design,
    die: Rect,
    cfg: &FlowConfig,
) -> Result<(Vec<MacroPlacement>, Vec<MacroPlacement>), FlowError> {
    use macro3d_place::macro_anneal::{refine_macros_sa, AnnealConfig};
    use macro3d_place::macro_place::{pack_ring, pack_shelves};
    let halo = Dbu::from_um(cfg.halo_um);
    let (mut top, mut bottom) = assign_macros_mol(design, die.area_um2(), cfg);
    loop {
        let top_packed = pack_shelves(design, &top, die, halo, DieRole::Macro);
        if let Some(mut tp) = top_packed {
            let bottom_packed = pack_ring(design, &bottom, die, halo)
                .or_else(|| pack_shelves(design, &bottom, die, halo, DieRole::Logic));
            if let Some(mut bp) = bottom_packed {
                // the paper's floorplan optimization step: anneal each
                // die's packing (seeded and serial, so deterministic;
                // never worsens macro-net HPWL, preserves legality)
                refine_macros_sa(design, &mut tp, die, halo, &AnnealConfig::default());
                refine_macros_sa(design, &mut bp, die, halo, &AnnealConfig::default());
                return Ok((tp, bp));
            }
        }
        // demote the smallest top-die macro and retry
        match top.pop() {
            Some(m) => bottom.push(m),
            None => {
                return Err(FlowError::Floorplan {
                    stage: "mol/dual_pack",
                    detail: format!(
                        "{} logic-die macros do not fit the {:.0}x{:.0}um die",
                        bottom.len(),
                        die.width().to_um(),
                        die.height().to_um()
                    ),
                });
            }
        }
    }
}

/// The combined MoL routing stack (`M1…Mn → F2F_VIA → M1_MD…`) of
/// the n28 logic and macro dies joined by the standard hybrid bond —
/// the final stack of Macro-3D, S2D and C2D.
pub(crate) fn combined_stack(cfg: &FlowConfig) -> MetalStack {
    CombinedBeol::build(
        &n28_stack(cfg.logic_metals, DieRole::Logic),
        &n28_stack(cfg.macro_metals, DieRole::Macro),
        &F2fSpec::hybrid_bond_n28(),
    )
    .stack()
    .clone()
}

/// A fully implemented design: everything needed for PPA reporting
/// and layout export.
pub struct ImplementedDesign {
    /// The (flow-mutated: CTS, repeaters, sizing) netlist.
    pub design: Design,
    /// Final placement.
    pub placement: Placement,
    /// Port locations.
    pub ports: PortPlan,
    /// The floorplan used for the final placement.
    pub fp: Floorplan,
    /// The stack routing ran on (single-die or combined).
    pub stack: MetalStack,
    /// Routing result, shared with the stage cache's route snapshot
    /// when the run stored or restored one.
    pub routed: Arc<RoutedDesign>,
    /// The sign-off bump-density count: GCells whose F2F crossings
    /// exceed the `route.f2f_pitch_um` bond-pitch bump capacity
    /// ([`RoutedDesign::f2f_overcrowded_gcells`]; 0 on a single-die
    /// stack or with no pitch). Counted on every run, restored routes
    /// included, so it always reflects this run's pitch.
    pub f2f_overcrowded_gcells: usize,
    /// The sign-off (SS) parasitics per net that `timing` was computed
    /// from: extracted after routing, with the driver loads sizing
    /// edited in place. Nets added by hold fixing are unrouted and
    /// carry empty parasitics ([`ImplementedDesign::power_at`]
    /// estimates their wire capacitance).
    pub parasitics: Vec<NetParasitics>,
    /// The synthesized clock tree.
    pub clock_tree: ClockTree,
    /// Clock arrivals.
    pub clock: ClockArrivals,
    /// Constraints.
    pub constraints: StaConstraints,
    /// Sign-off timing (SS).
    pub timing: TimingReport,
    /// Hold check (FF corner).
    pub hold: HoldReport,
    /// Power at max frequency (TT), from
    /// [`ImplementedDesign::power_at`].
    pub power: PowerReport,
    /// Number of logic-die metal layers in `stack` (layers at or
    /// above this index belong to the macro die).
    pub logic_metals: usize,
    /// Wall-clock per flow stage, in execution order.
    pub stage_times: StageTimes,
}

impl ImplementedDesign {
    /// Power analysis at the TT corner and an arbitrary frequency (the
    /// flow reports it at `timing.fclk_mhz`; the paper's
    /// iso-performance comparison re-implements at 328 MHz).
    ///
    /// Wire capacitance per net is what a power-corner extraction of
    /// the final layout would report, without a second RC-tree pass:
    ///
    /// * a routed net with a driver takes the sign-off
    ///   [`parasitics`](Self::parasitics)' `wire_cap_ff`. An RC tree
    ///   sums its segment and via capacitance from the route alone,
    ///   before any pin cap, and no corner derates capacitance, so the
    ///   value is the same at every corner. The reuse relies on sizing
    ///   editing only `driver_load_ff` (see
    ///   [`macro3d_sta::apply_sizing_to_parasitics`]);
    /// * an unrouted driven net is estimated from its pins' final
    ///   positions, which resizing, ECO legalization and hold chains
    ///   may have moved since sign-off extraction;
    /// * a net with no driver has none.
    pub fn power_at(&self, freq_mhz: f64, toggle: f64) -> PowerReport {
        let clock_nets: HashSet<NetId> = self.clock_tree.nets.iter().copied().collect();
        analyze_power(&PowerInput {
            design: &self.design,
            wire_cap_ff: &self.wire_caps_ff(),
            clock_nets: &clock_nets,
            freq_mhz,
            toggle,
            corner: Corner::power_report(),
        })
    }

    /// Wire capacitance per net, fF, indexed by `NetId`, as
    /// [`ImplementedDesign::power_at`] takes it.
    pub(crate) fn wire_caps_ff(&self) -> Vec<f64> {
        let design = &self.design;
        design
            .net_ids()
            .map(|n| match (design.driver(n), self.routed.net(n)) {
                (None, _) => 0.0,
                (Some(_), Some(_)) => self.parasitics[n.index()].wire_cap_ff,
                (Some(driver), None) => {
                    let (drv_pos, sinks) = net_terminals(
                        design,
                        &self.placement,
                        &self.ports,
                        &self.constraints,
                        n,
                        driver,
                    );
                    estimate_net(&self.stack, drv_pos, &sinks, 1.0, Corner::power_report())
                        .wire_cap_ff
                }
            })
            .collect()
    }
}

/// Converts the SoC constraints into the analyzer's view.
pub fn sta_constraints(tile: &TileNetlist) -> StaConstraints {
    let mut c = StaConstraints::new(tile.constraints.clock_net);
    c.half_cycle_ports = tile.constraints.half_cycle_ports.iter().copied().collect();
    c.input_slew_ps = tile.constraints.input_slew_ps;
    c.port_load_ff = tile.constraints.port_load_ff;
    c.toggle_rate = tile.constraints.toggle_rate;
    c
}

/// Maps a pin to its routing-stack layer.
///
/// `logic_metals` is the logic die's layer count within `stack`;
/// `macro_pins_projected` selects whether macro-die macro pins appear
/// at their true combined-stack `_MD` layer (Macro-3D, and all final
/// routes) or at their die-local layer (the S2D/C2D pseudo-2D stages'
/// misassumption).
pub fn pin_layer(
    design: &Design,
    placement: &Placement,
    pin: PinRef,
    logic_metals: usize,
    stack_layers: usize,
    macro_pins_projected: bool,
) -> u16 {
    let top_logic = (logic_metals - 1) as u16;
    match pin {
        PinRef::Port(_) => top_logic,
        PinRef::Inst { inst, pin } => match design.inst(inst).master {
            Master::Cell(_) => {
                if placement.die_of[inst.index()] == DieRole::Macro && stack_layers > logic_metals {
                    // standard cell partitioned onto the top die
                    logic_metals as u16
                } else {
                    0
                }
            }
            Master::Macro(m) => {
                let local = design.macro_master(m).pins[pin as usize].layer.0 as u16;
                if macro_pins_projected
                    && placement.die_of[inst.index()] == DieRole::Macro
                    && stack_layers > logic_metals
                {
                    logic_metals as u16 + local
                } else {
                    local.min(top_logic)
                }
            }
        },
    }
}

/// Collects routing obstacles from placed macros' internal blockages.
///
/// Macro-die macros contribute obstacles on combined `_MD` layers when
/// `project` is set (and the stack has them); logic-die macros always
/// block their local layers.
pub fn macro_obstacles(
    design: &Design,
    fp: &Floorplan,
    logic_metals: usize,
    stack_layers: usize,
    project: bool,
) -> Vec<(usize, Rect)> {
    let mut out = Vec::new();
    for mp in &fp.macros {
        let Master::Macro(m) = design.inst(mp.inst).master else {
            continue;
        };
        let def = design.macro_master(m).clone();
        for (layer, rect) in &def.blockages {
            let local = layer.0 as usize;
            let placed = rect.translated(mp.rect.lo.x, mp.rect.lo.y);
            let layer_ix = if mp.die == DieRole::Macro && project && stack_layers > logic_metals {
                logic_metals + local
            } else {
                local.min(logic_metals - 1)
            };
            out.push((layer_ix, placed));
        }
    }
    out
}

/// Builds the per-net pin list for routing.
pub(crate) fn route_pins(
    design: &Design,
    placement: &Placement,
    ports: &PortPlan,
    logic_metals: usize,
    stack_layers: usize,
    macro_pins_projected: bool,
) -> Vec<(NetId, Vec<(Point, u16)>)> {
    design
        .net_ids()
        .map(|n| {
            let pins = design
                .net(n)
                .pins
                .iter()
                .map(|&p| {
                    (
                        macro3d_place::pin_position(design, placement, ports, p),
                        pin_layer(
                            design,
                            placement,
                            p,
                            logic_metals,
                            stack_layers,
                            macro_pins_projected,
                        ),
                    )
                })
                .collect();
            (n, pins)
        })
        .collect()
}

/// Routes a placed design over `stack`: placed macro blockages become
/// obstacles and every net's pins sit at their [`pin_layer`]s.
pub(crate) fn route_placed(
    design: &Design,
    placement: &Placement,
    ports: &PortPlan,
    fp: &Floorplan,
    stack: &MetalStack,
    cfg: &FlowConfig,
    macro_pins_projected: bool,
) -> RoutedDesign {
    let (logic_metals, layers) = (cfg.logic_metals, stack.num_layers());
    let obstacles = macro_obstacles(design, fp, logic_metals, layers, macro_pins_projected);
    let nets = route_pins(
        design,
        placement,
        ports,
        logic_metals,
        layers,
        macro_pins_projected,
    );
    route_design(
        &RouteRequest {
            die: fp.die(),
            stack,
            obstacles: &obstacles,
            nets: &nets,
            num_nets: design.num_nets(),
        },
        &cfg.route,
    )
}

/// Extracts every net of a routed design. Sink order matches
/// `design.sinks(net)`; output ports contribute the constraint load.
///
/// Nets are independent, so the per-net work fans out over `par`
/// worker threads; results land in `NetId` order regardless of the
/// thread count.
#[allow(clippy::too_many_arguments)]
pub fn extract_all(
    design: &Design,
    placement: &Placement,
    ports: &PortPlan,
    stack: &MetalStack,
    routed: &RoutedDesign,
    constraints: &StaConstraints,
    corner: Corner,
    par: &Parallelism,
) -> Vec<NetParasitics> {
    let nets: Vec<NetId> = design.net_ids().collect();
    parallel_map(&nets, par, |_, &n| {
        let Some(driver) = design.driver(n) else {
            return NetParasitics::default();
        };
        let (drv_pos, sinks) = net_terminals(design, placement, ports, constraints, n, driver);
        match routed.net(n) {
            Some(r) => extract_net(stack, r, drv_pos, &sinks, corner),
            None => estimate_net(stack, drv_pos, &sinks, 1.0, corner),
        }
    })
}

/// The extraction view of net `n` driven by `driver`: the driver's
/// position and each sink's `(position, pin cap)` in
/// `design.sinks(n)` order, output ports carrying the constraint load.
fn net_terminals(
    design: &Design,
    placement: &Placement,
    ports: &PortPlan,
    constraints: &StaConstraints,
    n: NetId,
    driver: PinRef,
) -> (Point, Vec<(Point, f64)>) {
    let drv_pos = macro3d_place::pin_position(design, placement, ports, driver);
    let sinks = design
        .sinks(n)
        .map(|s| {
            let pos = macro3d_place::pin_position(design, placement, ports, s);
            let cap = match s {
                PinRef::Port(_) => constraints.port_load_ff,
                _ => design.pin_cap(s),
            };
            (pos, cap)
        })
        .collect();
    (drv_pos, sinks)
}

/// Wall-clock per flow stage, in the order the stages ran.
///
/// Recorded by [`StageTimer`] as each flow executes and carried into
/// [`ImplementedDesign`] / [`crate::PpaResult`], so runtime is a
/// first-class reported metric next to PPA.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StageTimes {
    /// `(stage name, seconds)` in execution order.
    pub stages: Vec<(String, f64)>,
}

impl StageTimes {
    /// Records a stage duration.
    pub fn push(&mut self, stage: impl Into<String>, seconds: f64) {
        self.stages.push((stage.into(), seconds));
    }

    /// Sum of all recorded stages, seconds.
    pub fn total_seconds(&self) -> f64 {
        self.stages.iter().map(|&(_, t)| t).sum()
    }
}

impl std::fmt::Display for StageTimes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (stage, secs) in &self.stages {
            writeln!(f, "  {stage:<20} {:9.1} ms", secs * 1e3)?;
        }
        write!(f, "  {:<20} {:9.1} ms", "total", self.total_seconds() * 1e3)
    }
}

/// Records wall-clock per flow stage. [`StageTimer::mark`] closes the
/// stage that ran since the previous mark (or construction).
///
/// Internally each stage is a `macro3d-obs` span: `new` opens an
/// unnamed span, `mark` closes it under the stage name and opens the
/// next, so when an obs session is active every engine span recorded
/// during the stage nests under it in the exported trace. The public
/// [`StageTimes`] shape is unchanged.
#[derive(Debug)]
pub struct StageTimer {
    last: Instant,
    times: StageTimes,
    span: Option<SpanGuardDebug>,
}

/// [`macro3d_obs::SpanGuard`] has no `Debug`; this thin wrapper keeps
/// `StageTimer: Debug` without printing guard internals.
struct SpanGuardDebug(macro3d_obs::SpanGuard);

impl std::fmt::Debug for SpanGuardDebug {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SpanGuard")
    }
}

impl StageTimer {
    /// Starts timing; the first [`mark`](Self::mark) closes the first
    /// stage.
    pub fn new() -> Self {
        StageTimer {
            last: Instant::now(),
            times: StageTimes::default(),
            span: macro3d_obs::stage_begin().map(SpanGuardDebug),
        }
    }

    /// Ends the current stage under `stage` and starts the next one.
    pub fn mark(&mut self, stage: &str) {
        let dt = self.last.elapsed();
        self.last = Instant::now();
        if let Some(span) = self.span.take() {
            span.0.finish_named(stage);
        }
        self.span = macro3d_obs::stage_begin().map(SpanGuardDebug);
        self.times.push(stage, dt.as_secs_f64());
    }

    /// Finishes and returns the recorded stage times. The span opened
    /// after the last mark is discarded (it never became a stage).
    pub fn into_times(self) -> StageTimes {
        self.times
    }
}

impl Default for StageTimer {
    fn default() -> Self {
        Self::new()
    }
}

/// The placement pipeline every flow shares: global place → repeater
/// insertion → CTS → legalization. Returns the clock tree. Stage
/// wall-clock lands in `timer`.
pub(crate) fn place_pipeline(
    design: &mut Design,
    fp: &Floorplan,
    ports: &PortPlan,
    constraints: &StaConstraints,
    cfg: &FlowConfig,
    timer: &mut StageTimer,
) -> (Placement, ClockTree) {
    let mut placement = global_place(design, fp, ports, &cfg.place);
    timer.mark("global_place");

    // legalize the base cells first so buffering sees real locations;
    // the analytical backend's smooth overlapping spread goes through
    // Abacus cluster collapse, bisection's sparse output through
    // Tetris first-fit
    let base_cells: Vec<InstId> = design.inst_ids().filter(|&i| !design.is_macro(i)).collect();
    match cfg.place.backend {
        macro3d_place::PlacerBackend::Bisection => {
            legalize(design, fp, &mut placement, &base_cells);
        }
        macro3d_place::PlacerBackend::Analytical => {
            macro3d_place::legalize_abacus(design, fp, &mut placement, &base_cells);
        }
    }

    let mut skip: HashSet<NetId> = HashSet::new();
    skip.insert(constraints.clock_net);
    // compression-aware thresholds (see field docs)
    let scale_len = design.library().area_scale().sqrt();
    let threshold = cfg.repeater_max_len_um * scale_len;
    // split until every net is below the repeater threshold
    let mut new_cells: Vec<InstId> = Vec::new();
    for _ in 0..8 {
        let inserted = insert_repeaters(design, &mut placement, ports, threshold, &skip);
        if inserted.is_empty() {
            break;
        }
        new_cells.extend(inserted);
    }
    let spacing = macro3d_sta::cts::REPEATER_SPACING_UM * scale_len;
    let tree = synthesize_clock_tree(design, &mut placement, constraints.clock_net, spacing);
    new_cells.extend(tree.buffers.iter().copied());

    timer.mark("repeaters+cts");
    // ECO legalization: only the inserted buffers move
    macro3d_place::legalize::legalize_incremental(
        design,
        fp,
        &mut placement,
        &new_cells,
        &base_cells,
    );

    // one greedy detailed-placement pass (same-row swaps) over every
    // placed cell — buffers included, so repacking can't stomp them
    let all_cells: Vec<InstId> = design.inst_ids().filter(|&i| !design.is_macro(i)).collect();
    macro3d_place::detailed::swap_pass(design, &mut placement, ports, &all_cells);
    timer.mark("eco+detailed");
    (placement, tree)
}

/// A direct flow's floorplan builder: from the pristine tile design,
/// the die and the area budget, the floorplan and the stack routing
/// runs on.
pub(crate) type FloorplanBuilder =
    fn(&Design, Rect, &AreaBudget, &FlowConfig) -> Result<(Floorplan, MetalStack), FlowError>;

/// The direct-flow driver behind 2D and Macro-3D: floorplan → place
/// on one unmodified 2D engine, then [`finish_design`]. The driver
/// owns everything the two flows share — stage-snapshot restore and
/// store, the `flow/floorplan` and `flow/place` gates and the
/// [`StageTimer`] marks — so a flow supplies only:
///
/// * `die_area_factor`: the die area in units of the 3D footprint
///   `a3d` of [`area_budget`] (2 for 2D, 1 for Macro-3D);
/// * `floorplan`: builds the floorplan and the routing stack on the
///   given die from the pristine tile design;
/// * `macro_pins_projected`: whether macro-die macro pins and
///   blockages sit on their `_MD` layers (see [`pin_layer`]).
///
/// `reuse` is the worker's stage-artifact view (see [`crate::stage`]):
/// a matched floorplan or place prefix re-enters the flow downstream
/// of it on a deep clone of the previous run's snapshot, and every
/// cold stage stores its snapshot for the next run. The clone of a
/// restored place snapshot is timed as `place_reused`.
///
/// # Errors
///
/// Returns whatever `floorplan` returns ([`FlowError::Floorplan`] when
/// the macros cannot be packed) and [`FlowError::Injected`] when the
/// active fault plan injects an error at a flow gate.
pub(crate) fn run_direct(
    tile: &TileNetlist,
    cfg: &FlowConfig,
    die_area_factor: f64,
    floorplan: FloorplanBuilder,
    macro_pins_projected: bool,
    mut reuse: Option<&mut StageReuse<'_>>,
) -> Result<ImplementedDesign, FlowError> {
    let mut timer = StageTimer::new();
    let constraints = sta_constraints(tile);
    let placed = match reuse.as_deref().and_then(StageReuse::place_snap) {
        Some(snap) => {
            timer.mark("floorplan");
            // the design already carries repeaters and clock buffers
            let placed = PlaceSnap::clone(&snap);
            timer.mark("place_reused");
            placed
        }
        None => {
            let mut design = tile.design.clone();
            let floorplanned = match reuse.as_deref().and_then(StageReuse::floorplan_snap) {
                Some(snap) => FloorplanSnap::clone(&snap),
                None => {
                    let budget = area_budget(&design, cfg);
                    let lib = design.library();
                    let die = die_for_area(
                        die_area_factor * budget.a3d_um2,
                        1.0,
                        lib.row_height(),
                        lib.site_width(),
                    );
                    flow_gate("flow/floorplan")?;
                    let (fp, stack) = floorplan(&design, die, &budget, cfg)?;
                    let ports = PortPlan::assign(&design, die);
                    let snap = FloorplanSnap { fp, ports, stack };
                    if let Some(r) = reuse.as_deref_mut() {
                        r.store_floorplan(snap.clone());
                    }
                    snap
                }
            };
            timer.mark("floorplan");
            flow_gate("flow/place")?;
            let FloorplanSnap { fp, ports, stack } = floorplanned;
            let (placement, tree) =
                place_pipeline(&mut design, &fp, &ports, &constraints, cfg, &mut timer);
            let placed = PlaceSnap {
                design,
                fp,
                ports,
                stack,
                placement,
                tree,
            };
            if let Some(r) = reuse.as_deref_mut() {
                r.store_place(placed.clone());
            }
            placed
        }
    };
    finish_design(
        placed,
        constraints,
        cfg,
        macro_pins_projected,
        cfg.sizing_rounds,
        timer,
        reuse,
    )
}

/// Sign-off [`StaInput`] at the SS corner. The sizing loops rebuild
/// this every round because `design` and `parasitics` are mutated
/// between analyses.
pub(crate) fn signoff_input<'a>(
    design: &'a Design,
    parasitics: &'a [NetParasitics],
    routed: &'a RoutedDesign,
    constraints: &'a StaConstraints,
    clock: &'a ClockArrivals,
) -> StaInput<'a> {
    StaInput {
        design,
        parasitics,
        routed: Some(routed),
        constraints,
        clock,
        corner: Corner::signoff(),
    }
}

/// Routes, extracts and signs a placed design off, including the
/// post-route sizing loop. This is flow step 3 ("standard 2D P&R
/// engine") plus sign-off. `placed` is the place-boundary state (its
/// stack is the one routing runs on), and `timer` continues the
/// flow's stage clock and ends up in the returned design's
/// `stage_times`.
///
/// `reuse` is the per-worker stage-artifact view (see
/// [`crate::stage`]): when the matched key prefix covers the route
/// and/or extract boundaries, those stages restore the previous run's
/// snapshot instead of recomputing (the route by sharing its `Arc`,
/// the extract state, first sign-off analysis included, by a deep
/// clone), and a cold stage stores its boundary snapshot for the next
/// run. Restored artifacts were snapshotted at the exact same program
/// point of a cold run, so warm results are bit-identical. The route's
/// residual overflow is noted from the routed design
/// ([`RoutedDesign::note_residual_overflow`]) whether it was routed or
/// restored, so a warm run reports the degradation a cold run does.
///
/// # Errors
///
/// Returns [`FlowError::Injected`] when the active fault plan injects
/// an error at one of the `flow/route`, `flow/extract` or `flow/sta`
/// gates. Budget exhaustion does not error: the sizing loop stops at
/// its checkpoint and the run completes degraded. (Stage reuse is
/// disabled whenever a budget or fault plan is active — `reuse`
/// arrives as `None`.)
pub(crate) fn finish_design(
    placed: PlaceSnap,
    constraints: StaConstraints,
    cfg: &FlowConfig,
    macro_pins_projected: bool,
    sizing_rounds: usize,
    mut timer: StageTimer,
    mut reuse: Option<&mut StageReuse<'_>>,
) -> Result<ImplementedDesign, FlowError> {
    let PlaceSnap {
        mut design,
        fp,
        ports,
        stack,
        mut placement,
        tree: clock_tree,
    } = placed;
    let par = cfg.parallelism;
    flow_gate("flow/route")?;
    let routed = match reuse.as_deref().and_then(StageReuse::route_snap) {
        Some(routed) => routed,
        None => {
            let routed = Arc::new(route_placed(
                &design,
                &placement,
                &ports,
                &fp,
                &stack,
                cfg,
                macro_pins_projected,
            ));
            if let Some(r) = reuse.as_deref_mut() {
                r.store_route(&routed);
            }
            routed
        }
    };
    routed.note_residual_overflow();
    let f2f_overcrowded_gcells =
        routed.f2f_overcrowded_gcells(fp.die(), stack.f2f_cut(), cfg.route.f2f_pitch_um);
    timer.mark("route");
    flow_gate("flow/extract")?;
    let restored = reuse.as_deref().and_then(StageReuse::extract_snap);
    let (mut parasitics, mut clock) = match &restored {
        Some(snap) => (snap.parasitics.clone(), snap.clock.clone()),
        None => {
            let parasitics = extract_all(
                &design,
                &placement,
                &ports,
                &stack,
                &routed,
                &constraints,
                Corner::signoff(),
                &par,
            );
            let clock = clock_arrivals(&design, &clock_tree, &parasitics, Corner::signoff());
            (parasitics, clock)
        }
    };
    timer.mark("extract");
    flow_gate("flow/sta")?;

    // One StaSession keeps the timing graph alive across the sizing
    // loop: each round re-times only the fan-out cones of the nets
    // `apply_sizing_to_parasitics` reports as touched. A cold run
    // stores the session after its first analysis in the extract
    // slot: every input of that analysis is fixed by the extract key,
    // so a restored copy and its report are what this point would
    // compute.
    let (mut session, mut timing) = match restored {
        Some(snap) => (snap.session.clone(), snap.timing.clone()),
        None => {
            let input = signoff_input(&design, &parasitics, &routed, &constraints, &clock);
            let mut session = StaSession::new(&input);
            let timing = session.analyze(&input, &par);
            if let Some(r) = reuse {
                r.store_extract(ExtractSnap {
                    parasitics: parasitics.clone(),
                    clock: clock.clone(),
                    session: session.clone(),
                    timing: timing.clone(),
                });
            }
            (session, timing)
        }
    };
    let mut resized: HashSet<InstId> = HashSet::new();
    for round in 0..sizing_rounds {
        // cooperative budget checkpoint: on exhaustion keep the
        // current (valid, already-analyzed) timing and stop sizing
        if let Checkpoint::Stop(reason) = checkpoint("sta/sizing_rounds") {
            note_degradation(
                "sta/sizing_rounds",
                reason,
                format!("stopped after {round} of {sizing_rounds} sizing rounds"),
            );
            break;
        }
        let changes = upsize_critical_path(&mut design, &timing);
        if changes.is_empty() {
            break;
        }
        resized.extend(changes.iter().map(|(i, _)| *i));
        let touched =
            macro3d_sta::opt::apply_sizing_to_parasitics(&design, &changes, &mut parasitics);
        let t2 = session.update(
            &signoff_input(&design, &parasitics, &routed, &constraints, &clock),
            &touched,
            &par,
        );
        if t2.min_period_ps >= timing.min_period_ps {
            break;
        }
        timing = t2;
    }
    // sizing grew some footprints in place: ECO-legalize the resized
    // cells so the final layout is overlap-free (their extracted
    // parasitics keep the pre-ECO geometry — the usual engineering
    // approximation for post-route sizing)
    if !resized.is_empty() {
        let resized_v: Vec<InstId> = resized.iter().copied().collect();
        let others: Vec<InstId> = design
            .inst_ids()
            .filter(|i| !design.is_macro(*i) && !resized.contains(i))
            .collect();
        macro3d_place::legalize::legalize_incremental(
            &design,
            &fp,
            &mut placement,
            &resized_v,
            &others,
        );
    }
    timer.mark("sta+sizing");

    // hold runs on the session's timing graph; fixing it adds chain
    // instances and nets, so the re-check rebuilds the graph once and
    // the setup re-analysis reuses the rebuild
    let mut hold = session.check_hold(&hold_input(
        &design,
        &parasitics,
        &routed,
        &constraints,
        &clock,
    ));
    if hold.violations > 0
        && fix_hold_eco(
            &mut design,
            &mut placement,
            &fp,
            &hold,
            &mut clock,
            &mut parasitics,
        )
    {
        hold = session.check_hold(&hold_input(
            &design,
            &parasitics,
            &routed,
            &constraints,
            &clock,
        ));
        timing = session.analyze(
            &signoff_input(&design, &parasitics, &routed, &constraints, &clock),
            &par,
        );
    }

    let mut imp = ImplementedDesign {
        design,
        placement,
        ports,
        fp,
        stack,
        routed,
        f2f_overcrowded_gcells,
        parasitics,
        clock_tree,
        clock,
        constraints,
        timing,
        hold,
        power: PowerReport::default(),
        logic_metals: cfg.logic_metals,
        stage_times: StageTimes::default(),
    };
    // power at max frequency, TT corner, on the sign-off wire caps
    imp.power = imp.power_at(imp.timing.fclk_mhz, imp.constraints.toggle_rate);
    timer.mark("hold+power");
    imp.stage_times = timer.into_times();
    Ok(imp)
}

/// Hold-check [`StaInput`] (the check itself runs at the FF corner).
fn hold_input<'a>(
    design: &'a Design,
    parasitics: &'a [NetParasitics],
    routed: &'a RoutedDesign,
    constraints: &'a StaConstraints,
    clock: &'a ClockArrivals,
) -> StaInput<'a> {
    StaInput {
        corner: Corner::Ff,
        ..signoff_input(design, parasitics, routed, constraints, clock)
    }
}

/// Standard post-CTS hold fixing: splices delay chains in front of the
/// violating register inputs of `hold`, ECO-places them around their
/// registers, and grows `clock` and `parasitics` to the new instance
/// and net counts (the unrouted chain nets get empty parasitics).
/// Returns whether any chain was inserted.
pub(crate) fn fix_hold_eco(
    design: &mut Design,
    placement: &mut Placement,
    fp: &Floorplan,
    hold: &HoldReport,
    clock: &mut ClockArrivals,
    parasitics: &mut Vec<NetParasitics>,
) -> bool {
    let inserted = macro3d_sta::opt::fix_hold(design, placement, hold, 10_000);
    if inserted.is_empty() {
        return false;
    }
    clock.arrival_ps.resize(design.num_insts(), 0.0);
    parasitics.resize(design.num_nets(), NetParasitics::default());
    let inserted_set: HashSet<InstId> = inserted.iter().copied().collect();
    let others: Vec<InstId> = design
        .inst_ids()
        .filter(|i| !design.is_macro(*i) && !inserted_set.contains(i))
        .collect();
    macro3d_place::legalize::legalize_incremental(design, fp, placement, &inserted, &others);
    true
}

/// Total standard-cell area of a design, mm².
pub fn logic_cell_area_mm2(design: &Design) -> f64 {
    design
        .inst_ids()
        .filter(|&i| !design.is_macro(i))
        .map(|i| design.inst_area_um2(i))
        .sum::<f64>()
        / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;
    use macro3d_soc::{generate_tile, TileConfig};
    use macro3d_tech::libgen::n28_library;
    use std::sync::Arc;

    #[test]
    fn pin_layer_projection() {
        let lib = Arc::new(n28_library(1.0));
        let mut d = Design::new("t", lib.clone());
        let inv = lib.smallest(macro3d_tech::CellClass::Inv).expect("inv");
        let cell = d.add_cell("c", inv);
        let mm = d.add_macro_master(macro3d_sram::MemoryCompiler::n28().sram("s", 256, 32));
        let mac = d.add_macro_in("m", mm, 0);
        let port = d.add_port("p", macro3d_tech::PinDir::Input, None);
        let mut pl = Placement::new(&d);

        // cell pins on M1; ports on the top logic metal
        assert_eq!(pin_layer(&d, &pl, PinRef::inst(cell, 0), 6, 10, true), 0);
        assert_eq!(pin_layer(&d, &pl, PinRef::Port(port), 6, 10, true), 5);

        // macro pin on its local M4 when on the logic die
        let m4_pin = d
            .macro_master(macro3d_netlist::MacroMasterId(0))
            .pins
            .iter()
            .position(|p| p.layer.0 == 3)
            .expect("sram pins on M4") as u16;
        assert_eq!(
            pin_layer(&d, &pl, PinRef::inst(mac, m4_pin), 6, 10, true),
            3
        );

        // ... and projected to M4_MD (combined layer 9) on the macro die
        pl.die_of[mac.index()] = DieRole::Macro;
        assert_eq!(
            pin_layer(&d, &pl, PinRef::inst(mac, m4_pin), 6, 10, true),
            9
        );
        // without projection (the S2D pseudo-2D misassumption): local
        assert_eq!(
            pin_layer(&d, &pl, PinRef::inst(mac, m4_pin), 6, 10, false),
            3
        );

        // a cell partitioned to the top die sits on M1_MD (layer 6)
        pl.die_of[cell.index()] = DieRole::Macro;
        assert_eq!(pin_layer(&d, &pl, PinRef::inst(cell, 0), 6, 10, true), 6);
    }

    #[test]
    fn macro_obstacles_follow_die_and_projection() {
        let lib = Arc::new(n28_library(1.0));
        let mut d = Design::new("t", lib.clone());
        let mm = d.add_macro_master(macro3d_sram::MemoryCompiler::n28().sram("s", 256, 32));
        let mac = d.add_macro_in("m", mm, 0);
        let die = Rect::from_um(0.0, 0.0, 500.0, 500.0);
        let mut fp = Floorplan::new(die, lib.row_height(), lib.site_width());
        let size = d.macro_master(macro3d_netlist::MacroMasterId(0)).size;
        fp.add_macro(
            macro3d_place::MacroPlacement {
                inst: mac,
                rect: Rect::from_origin_size(Point::from_um(10.0, 10.0), size),
                die: DieRole::Macro,
            },
            DieRole::Logic,
            Dbu::from_um(2.0),
        );
        // projected: all four SRAM blockage layers land on _MD layers
        let obs = macro_obstacles(&d, &fp, 6, 10, true);
        assert_eq!(obs.len(), 4);
        assert!(obs.iter().all(|(l, _)| (6..10).contains(l)));
        // unprojected: local layers 0..4
        let obs2 = macro_obstacles(&d, &fp, 6, 6, false);
        assert!(obs2.iter().all(|(l, _)| *l < 4));
        // geometry is translated to the placed location
        assert!(obs[0].1.lo.x >= Dbu::from_um(10.0));
    }

    #[test]
    fn area_budget_matches_paper_regime() {
        let tile = generate_tile(&TileConfig::small_cache().with_scale(16.0));
        let cfg = FlowConfig::default();
        let b = area_budget(&tile.design, &cfg);
        // small-cache: ~0.3 mm2 cells, ~0.6 mm2 macros, A3d ~0.55-0.65
        assert!(
            b.cell_um2 / 1e6 > 0.2 && b.cell_um2 / 1e6 < 0.45,
            "{}",
            b.cell_um2 / 1e6
        );
        assert!(
            b.macro_um2 / 1e6 > 0.45 && b.macro_um2 / 1e6 < 0.8,
            "{}",
            b.macro_um2 / 1e6
        );
        assert!(
            b.a3d_um2 / 1e6 > 0.4 && b.a3d_um2 / 1e6 < 0.8,
            "{}",
            b.a3d_um2 / 1e6
        );
    }

    /// The hold-fix path, forced: no measured run violates hold, so a
    /// synthetic report splices chains in front of register D pins of
    /// an implemented `mini` design and ECO-places them. Power's wire
    /// caps must then equal a full power-corner extraction of the
    /// final layout bit for bit — on the new chain nets, the rewired
    /// D nets and every net the sizing ECO moved.
    #[test]
    fn forced_hold_fix_wire_caps_match_a_power_corner_extraction() {
        use crate::flows::{Flow, Flow2d, Macro3d};
        let tile = generate_tile(&TileConfig::mini());
        let mut cfg = FlowConfig::builder()
            .sizing_rounds(2)
            .build()
            .expect("valid config");
        cfg.route.iterations = 2;
        for flow in [&Flow2d as &dyn Flow, &Macro3d] {
            let mut imp = flow.try_run(&tile, &cfg).expect("flow runs").implemented;
            let d = &imp.design;
            // registers with a connected D pin
            let mut regs: Vec<(InstId, u16, NetId)> = d
                .inst_ids()
                .filter_map(|i| {
                    let Master::Cell(c) = d.inst(i).master else {
                        return None;
                    };
                    let cell = d.library().cell(c);
                    let pin = cell
                        .data_input_pins()
                        .next()
                        .filter(|_| cell.is_sequential())?;
                    Some((i, pin as u16, d.inst(i).conns[pin]?))
                })
                .collect();
            regs.truncate(12);
            let hold = HoldReport {
                worst_slack_ps: -150.0,
                violations: regs.len(),
                endpoints: regs
                    .iter()
                    .enumerate()
                    .map(|(k, &(i, pin, _))| (i, pin, 20.0 + 10.0 * k as f64))
                    .collect(),
            };
            let (nets, insts) = (imp.design.num_nets(), imp.design.num_insts());
            assert!(fix_hold_eco(
                &mut imp.design,
                &mut imp.placement,
                &imp.fp,
                &hold,
                &mut imp.clock,
                &mut imp.parasitics,
            ));
            assert!(imp.design.num_nets() > nets && imp.design.num_insts() > insts);
            assert_eq!(imp.parasitics.len(), imp.design.num_nets());
            assert_eq!(imp.clock.arrival_ps.len(), imp.design.num_insts());
            // every picked D pin now hangs off its chain; the D nets keep
            // their routes (and so their sign-off wire caps)
            assert!(regs.iter().all(|&(i, pin, n)| {
                imp.design.inst(i).conns[pin as usize] != Some(n) && imp.routed.net(n).is_some()
            }));

            let power_corner = extract_all(
                &imp.design,
                &imp.placement,
                &imp.ports,
                &imp.stack,
                &imp.routed,
                &imp.constraints,
                Corner::power_report(),
                &cfg.parallelism,
            );
            let want: Vec<u64> = power_corner
                .iter()
                .map(|p| p.wire_cap_ff.to_bits())
                .collect();
            let got: Vec<u64> = imp.wire_caps_ff().iter().map(|c| c.to_bits()).collect();
            assert_eq!(got, want, "{}", flow.name());
            // the chain nets are real wires, not the empty sign-off rows
            assert!(got[nets..].iter().any(|&c| f64::from_bits(c) > 0.0));
        }
    }

    #[test]
    fn mol_assignment_fills_macro_die_first() {
        let tile = generate_tile(&TileConfig::small_cache().with_scale(32.0));
        let cfg = FlowConfig::default();
        let b = area_budget(&tile.design, &cfg);
        let (top, bottom) = assign_macros_mol(&tile.design, b.a3d_um2, &cfg);
        assert!(!top.is_empty());
        // top-die macros fit the utilization budget
        let top_area: f64 = top.iter().map(|&m| tile.design.inst_area_um2(m)).sum();
        assert!(top_area <= b.a3d_um2 * cfg.util_macro);
        // every macro is somewhere
        let total = tile
            .design
            .inst_ids()
            .filter(|&i| tile.design.is_macro(i))
            .count();
        assert_eq!(top.len() + bottom.len(), total);
        // largest macros go on top
        if let (Some(&t), Some(&b0)) = (top.first(), bottom.first()) {
            assert!(tile.design.inst_area_um2(t) >= tile.design.inst_area_um2(b0));
        }
    }
}

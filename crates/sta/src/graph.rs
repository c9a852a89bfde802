//! Flattened timing graph: the period-independent structure one
//! analysis session walks.
//!
//! [`super::analysis`]'s probe passes resolved every arc input through
//! a `HashMap<(inst, pin), (net, sink)>` on every propagation — 34
//! lookups per arc per analyze. This module flattens the combinational
//! netlist once into CSR arrays (eval nodes in topological order,
//! their arcs with the input net and sink index inlined, launch
//! sources and endpoint checks as plain slices, plus reverse
//! net→consumer indices for incremental cone updates), so a
//! propagation pass is a linear scan over dense arrays and an
//! incremental update can seed a worklist from touched nets in O(1)
//! per net.
//!
//! The graph stores *ids only* — no borrowed library or design data —
//! so it stays valid across in-place cell resizing (masters are
//! re-read from the design at evaluation time; drive variants of a
//! class share their pin and arc layout).

use crate::constraints::StaConstraints;
use macro3d_netlist::traverse::{is_timing_endpoint, topo_order};
use macro3d_netlist::{Design, InstId, Master, NetId, PinRef, PortId};
use macro3d_tech::PinDir;

/// Sentinel for "no node" in the per-net driver-node index.
pub(crate) const NO_NODE: u32 = u32::MAX;

/// One combinational evaluation node: a cell instance with a driven
/// output net. Nodes are stored in topological order.
#[derive(Clone, Copy, Debug)]
pub(crate) struct GraphNode {
    /// The cell instance (master re-read per evaluation, so in-place
    /// resizing is picked up without a rebuild).
    pub inst: InstId,
    /// The net at the cell output.
    pub out_net: NetId,
    /// Range into [`TimingGraph::arcs`].
    pub arcs: (u32, u32),
}

/// One timing arc of a node, with its input net and the sink index of
/// the cell pin on that net resolved at build time.
#[derive(Clone, Copy, Debug)]
pub(crate) struct GraphArc {
    /// Arc index within the cell master.
    pub arc_ix: u16,
    /// Net at the arc's input pin.
    pub in_net: NetId,
    /// Index of the input pin among `in_net`'s sinks (parasitic sink
    /// order).
    pub six: u32,
}

/// A clocked launch source (register Q or macro output).
#[derive(Clone, Copy, Debug)]
pub(crate) struct RegLaunch {
    /// Launching sequential instance.
    pub inst: InstId,
    /// Net at the launching output pin.
    pub net: NetId,
    /// True for macro outputs (access-time launch), false for
    /// flip-flop Q pins (clock-to-Q arc 0).
    pub is_macro: bool,
}

/// An input-port launch source.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PortLaunch {
    /// The launching port (its half-cycle budget is read from the
    /// constraints at pass time).
    pub port: PortId,
    /// The port's net.
    pub net: NetId,
}

/// What a setup check compares the data arrival against.
#[derive(Clone, Copy, Debug)]
pub(crate) enum EndpointKind {
    /// Register / macro data pin: required = `T + clk − setup·derate`.
    Reg {
        /// Capturing instance (indexes the clock-arrival table).
        clk_inst: InstId,
        /// The data pin on `clk_inst` (reported by hold checks).
        pin: u16,
        /// Setup requirement before corner derating, ps.
        setup_ps: f64,
    },
    /// Output port: required = `frac·T + insertion`.
    Port {
        /// The captured port (its budget fraction is read from the
        /// constraints at pass time).
        port: PortId,
    },
}

/// One flattened setup check.
#[derive(Clone, Copy, Debug)]
pub(crate) struct GraphEndpoint {
    /// The net whose sink arrival is checked.
    pub net: NetId,
    /// Sink index of the endpoint pin on `net`.
    pub six: u32,
    /// The requirement side.
    pub kind: EndpointKind,
}

/// The flattened, period-independent timing graph.
///
/// Built once per design revision; every parametric propagation,
/// every incremental cone update and the hold check walk these
/// arrays.
/// `Clone` deep-copies the arrays so a cached session can be
/// snapshotted and resumed independently.
#[derive(Clone)]
pub(crate) struct TimingGraph {
    /// Evaluation nodes in topological order.
    pub nodes: Vec<GraphNode>,
    /// Arc storage (CSR payload for [`GraphNode::arcs`]).
    pub arcs: Vec<GraphArc>,
    /// Clocked launches in instance order.
    pub reg_launches: Vec<RegLaunch>,
    /// Port launches in port order (clock port excluded).
    pub port_launches: Vec<PortLaunch>,
    /// Setup checks: registers/macros first (instance order), then
    /// output ports (port order) — the serial probe scan order, which
    /// tie-breaking must reproduce.
    pub endpoints: Vec<GraphEndpoint>,
    /// Per net: index of the node driving it, or [`NO_NODE`].
    pub driver_node_of_net: Vec<u32>,
    /// Per net: consumer node indices (CSR offsets; nodes with an arc
    /// reading the net).
    consumer_off: Vec<u32>,
    consumer_nodes: Vec<u32>,
    /// Per net: indices into `endpoints` checked against the net (CSR
    /// offsets).
    endpoint_off: Vec<u32>,
    endpoint_ix: Vec<u32>,
    /// Per net: range into `reg_launches` (launches are grouped by
    /// net after a stable sort); empty for most nets.
    reg_launch_off: Vec<u32>,
    /// Per net: range into `port_launches`.
    port_launch_off: Vec<u32>,
    /// The clock net from the constraints the graph was built under.
    pub clock_net: NetId,
    /// True when an input port drives the clock net (the probe pass
    /// then pins its arrival to 0; CTS arrivals carry the real tree).
    pub clock_from_port: bool,
    /// Design shape at build time, for staleness detection.
    pub num_nets: usize,
    /// Instance count at build time.
    pub num_insts: usize,
}

/// Index of `pin` among `net`'s sinks (the parasitic sink order), or
/// `None` when the pin is not a sink of the net — an inconsistent
/// netlist state that callers must skip rather than mis-time.
pub(crate) fn sink_index_of(design: &Design, net: NetId, pin: PinRef) -> Option<usize> {
    design.sinks(net).position(|s| s == pin)
}

fn csr<T, F: Fn(&T) -> usize>(items: &[T], buckets: usize, key: F) -> (Vec<u32>, Vec<u32>) {
    let mut off = vec![0u32; buckets + 1];
    for it in items {
        off[key(it) + 1] += 1;
    }
    for i in 0..buckets {
        off[i + 1] += off[i];
    }
    let mut slots = off.clone();
    let mut payload = vec![0u32; items.len()];
    for (ix, it) in items.iter().enumerate() {
        let b = key(it);
        payload[slots[b] as usize] = ix as u32;
        slots[b] += 1;
    }
    (off, payload)
}

impl TimingGraph {
    /// Flattens `design` under `constraints`. The graph holds no
    /// borrowed data and survives in-place resizing; structural edits
    /// (new instances or nets) require a rebuild (see
    /// [`TimingGraph::is_stale`]).
    pub fn build(design: &Design, constraints: &StaConstraints) -> TimingGraph {
        let clock_net = constraints.clock_net;
        let lib = design.library();
        let order = match topo_order(design) {
            Ok(o) => o,
            Err(_) => design
                .inst_ids()
                .filter(|&i| !is_timing_endpoint(design, i))
                .collect(),
        };

        // per-pin sink indices, built once (the probe path rebuilt
        // this map per StaContext; here it dies with the build)
        let mut pin_net_six = std::collections::HashMap::new();
        for net in design.net_ids() {
            for (six, sink) in design.sinks(net).enumerate() {
                if let PinRef::Inst { inst, pin } = sink {
                    pin_net_six.insert((inst.0, pin), (net, six as u32));
                }
            }
        }

        let nn = design.num_nets();
        let mut nodes = Vec::with_capacity(order.len());
        let mut arcs = Vec::new();
        let mut driver_node_of_net = vec![NO_NODE; nn];
        for &inst in &order {
            let Master::Cell(c) = design.inst(inst).master else {
                continue;
            };
            let cell = lib.cell(c);
            let out = cell.output_pin();
            let Some(out_net) = design.inst(inst).conns[out] else {
                continue;
            };
            let start = arcs.len() as u32;
            for (arc_ix, arc) in cell.arcs.iter().enumerate() {
                let pin = arc.from_pin as u16;
                let Some(&(in_net, six)) = pin_net_six.get(&(inst.0, pin)) else {
                    continue;
                };
                arcs.push(GraphArc {
                    arc_ix: arc_ix as u16,
                    in_net,
                    six,
                });
            }
            driver_node_of_net[out_net.index()] = nodes.len() as u32;
            nodes.push(GraphNode {
                inst,
                out_net,
                arcs: (start, arcs.len() as u32),
            });
        }

        // launches
        let mut port_launches = Vec::new();
        let mut clock_from_port = false;
        for pid in design.port_ids() {
            let port = design.port(pid);
            if port.dir != PinDir::Input {
                continue;
            }
            let Some(net) = port.net else { continue };
            if net == clock_net {
                clock_from_port = true;
                continue;
            }
            port_launches.push(PortLaunch { port: pid, net });
        }
        let mut reg_launches = Vec::new();
        let mut endpoints = Vec::new();
        for inst in design.inst_ids() {
            if !is_timing_endpoint(design, inst) {
                continue;
            }
            match design.inst(inst).master {
                Master::Cell(c) => {
                    let cell = lib.cell(c);
                    if !cell.is_sequential() {
                        continue;
                    }
                    if let Some(qnet) = design.inst(inst).conns[cell.output_pin()] {
                        reg_launches.push(RegLaunch {
                            inst,
                            net: qnet,
                            is_macro: false,
                        });
                    }
                    for pin in cell.data_input_pins() {
                        if let Some(&(net, six)) = pin_net_six.get(&(inst.0, pin as u16)) {
                            endpoints.push(GraphEndpoint {
                                net,
                                six,
                                kind: EndpointKind::Reg {
                                    clk_inst: inst,
                                    pin: pin as u16,
                                    setup_ps: cell.setup_ps,
                                },
                            });
                        }
                    }
                }
                Master::Macro(m) => {
                    let def = design.macro_master(m);
                    for (p, pin) in def.pins.iter().enumerate() {
                        match pin.dir {
                            PinDir::Output => {
                                if let Some(net) = design.inst(inst).conns[p] {
                                    reg_launches.push(RegLaunch {
                                        inst,
                                        net,
                                        is_macro: true,
                                    });
                                }
                            }
                            PinDir::Input => {
                                if pin.class == macro3d_sram::PinClass::Clock {
                                    continue;
                                }
                                let Some(&(net, six)) = pin_net_six.get(&(inst.0, p as u16)) else {
                                    continue;
                                };
                                if net == clock_net {
                                    continue;
                                }
                                endpoints.push(GraphEndpoint {
                                    net,
                                    six,
                                    kind: EndpointKind::Reg {
                                        clk_inst: inst,
                                        pin: p as u16,
                                        setup_ps: def.setup_ps,
                                    },
                                });
                            }
                        }
                    }
                }
            }
        }
        for pid in design.port_ids() {
            let port = design.port(pid);
            if port.dir != PinDir::Output {
                continue;
            }
            let Some(net) = port.net else { continue };
            let Some(six) = sink_index_of(design, net, PinRef::Port(pid)) else {
                debug_assert!(
                    false,
                    "output port {pid:?} listed on net {net:?} but absent from its sinks"
                );
                continue;
            };
            endpoints.push(GraphEndpoint {
                net,
                six: six as u32,
                kind: EndpointKind::Port { port: pid },
            });
        }

        // reverse indices for cone seeding
        let (consumer_off, consumer_arc_ix) = csr(&arcs, nn, |a| a.in_net.index());
        // map arc payload to its owning node (dedup is unnecessary:
        // duplicate node entries only cost a set-insert at update
        // time)
        let mut arc_owner = vec![0u32; arcs.len()];
        for (node_ix, node) in nodes.iter().enumerate() {
            for a in node.arcs.0..node.arcs.1 {
                arc_owner[a as usize] = node_ix as u32;
            }
        }
        let consumer_nodes: Vec<u32> = consumer_arc_ix
            .iter()
            .map(|&a| arc_owner[a as usize])
            .collect();
        let (endpoint_off, endpoint_ix) = csr(&endpoints, nn, |e| e.net.index());
        reg_launches.sort_by_key(|l| (l.net, l.inst));
        let (reg_launch_off, reg_launch_ix) = csr(&reg_launches, nn, |l| l.net.index());
        // CSR payload is an identity permutation after the sort; keep
        // the launches themselves grouped so a range walk suffices
        let reg_launches: Vec<RegLaunch> = reg_launch_ix
            .iter()
            .map(|&i| reg_launches[i as usize])
            .collect();
        port_launches.sort_by_key(|l| (l.net, l.port));
        let (port_launch_off, port_launch_ix) = csr(&port_launches, nn, |l| l.net.index());
        let port_launches: Vec<PortLaunch> = port_launch_ix
            .iter()
            .map(|&i| port_launches[i as usize])
            .collect();

        TimingGraph {
            nodes,
            arcs,
            reg_launches,
            port_launches,
            endpoints,
            driver_node_of_net,
            consumer_off,
            consumer_nodes,
            endpoint_off,
            endpoint_ix,
            reg_launch_off,
            port_launch_off,
            clock_net,
            clock_from_port,
            num_nets: nn,
            num_insts: design.num_insts(),
        }
    }

    /// True when the design changed shape since the build (new
    /// instances or nets) and the graph must be rebuilt.
    pub fn is_stale(&self, design: &Design) -> bool {
        design.num_nets() != self.num_nets || design.num_insts() != self.num_insts
    }

    /// Arcs of a node.
    pub fn node_arcs(&self, node: &GraphNode) -> &[GraphArc] {
        &self.arcs[node.arcs.0 as usize..node.arcs.1 as usize]
    }

    /// Nodes consuming a net (owners of arcs reading it; may repeat a
    /// node once per arc).
    pub fn consumers(&self, net: NetId) -> &[u32] {
        let (a, b) = (
            self.consumer_off[net.index()] as usize,
            self.consumer_off[net.index() + 1] as usize,
        );
        &self.consumer_nodes[a..b]
    }

    /// Endpoint indices checked against a net.
    pub fn endpoints_of(&self, net: NetId) -> &[u32] {
        let (a, b) = (
            self.endpoint_off[net.index()] as usize,
            self.endpoint_off[net.index() + 1] as usize,
        );
        &self.endpoint_ix[a..b]
    }

    /// Clocked launches driving a net.
    pub fn reg_launches_of(&self, net: NetId) -> &[RegLaunch] {
        let (a, b) = (
            self.reg_launch_off[net.index()] as usize,
            self.reg_launch_off[net.index() + 1] as usize,
        );
        &self.reg_launches[a..b]
    }

    /// Port launches driving a net.
    pub fn port_launches_of(&self, net: NetId) -> &[PortLaunch] {
        let (a, b) = (
            self.port_launch_off[net.index()] as usize,
            self.port_launch_off[net.index() + 1] as usize,
        );
        &self.port_launches[a..b]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use macro3d_tech::{libgen::n28_library, CellClass};
    use std::sync::Arc;

    /// clk port → 2 FFs, FF0 → inv → FF1, plus an output port.
    fn small() -> (Design, StaConstraints) {
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
        let q0 = d.add_net("q0");
        d.connect(q0, PinRef::inst(f0, 2));
        let c = d.add_cell("c", inv);
        d.connect(q0, PinRef::inst(c, 0));
        let w = d.add_net("w");
        d.connect(w, PinRef::inst(c, 1));
        d.connect(w, PinRef::inst(f1, 0));
        let po = d.add_port("out", PinDir::Output, Some(macro3d_netlist::Side::North));
        d.connect(w, PinRef::Port(po));
        let c = StaConstraints::new(clk);
        (d, c)
    }

    #[test]
    fn build_flattens_structure() {
        let (d, c) = small();
        let g = TimingGraph::build(&d, &c);
        assert_eq!(g.nodes.len(), 1, "one combinational inverter");
        assert_eq!(g.node_arcs(&g.nodes[0]).len(), 1);
        // launches: f0.Q only (f1's Q pin is unconnected), one
        // non-clock input port
        assert_eq!(g.reg_launches.len(), 1);
        assert_eq!(g.port_launches.len(), 1);
        // endpoints: two FF D pins + the output port, ports last
        assert_eq!(g.endpoints.len(), 3);
        assert!(matches!(g.endpoints[2].kind, EndpointKind::Port { .. }));
        // the inverter consumes q0 and drives w
        let q0 = d.net_ids().find(|&n| d.net(n).name == "q0").expect("q0");
        let w = d.net_ids().find(|&n| d.net(n).name == "w").expect("w");
        assert_eq!(g.consumers(q0), &[0]);
        assert_eq!(g.driver_node_of_net[w.index()], 0);
        assert_eq!(g.driver_node_of_net[q0.index()], NO_NODE);
        // w is checked by f1.D and the output port
        assert_eq!(g.endpoints_of(w).len(), 2);
        assert!(!g.is_stale(&d));
    }

    #[test]
    fn sink_index_handles_missing_pin() {
        let (d, _) = small();
        let po = d
            .port_ids()
            .find(|&p| d.port(p).name == "out")
            .expect("out port");
        let w = d.net_ids().find(|&n| d.net(n).name == "w").expect("w");
        let q0 = d.net_ids().find(|&n| d.net(n).name == "q0").expect("q0");
        // the port is a sink of w…
        assert!(sink_index_of(&d, w, PinRef::Port(po)).is_some());
        // …but not of q0: callers must get None, not index 0
        assert_eq!(sink_index_of(&d, q0, PinRef::Port(po)), None);
    }

    #[test]
    fn stale_after_structural_edit() {
        let (mut d, c) = small();
        let g = TimingGraph::build(&d, &c);
        d.add_net("fresh");
        assert!(g.is_stale(&d));
    }
}

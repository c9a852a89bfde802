#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
//! Parasitic extraction: RC trees and Elmore delays from routed nets.
//!
//! The original flow extracts parasitics with a commercial engine
//! against the foundry `.tch` files; here, each routed net's segments
//! and vias are turned into a distributed RC tree using the stack's
//! per-layer resistance/capacitance and per-via parasitics (including
//! the 44 mΩ / 1.0 fF F2F bumps in combined stacks), and sink delays
//! are computed with the Elmore metric — the standard model for
//! global-routing-stage timing.
//!
//! # Examples
//!
//! ```
//! use macro3d_extract::extract_net;
//! use macro3d_geom::Point;
//! use macro3d_route::{RouteSeg, RoutedNet};
//! use macro3d_tech::stack::{n28_stack, DieRole};
//! use macro3d_tech::Corner;
//!
//! let stack = n28_stack(6, DieRole::Logic);
//! let net = RoutedNet {
//!     segments: vec![RouteSeg {
//!         layer: 0,
//!         from: Point::from_um(0.0, 0.0),
//!         to: Point::from_um(100.0, 0.0),
//!     }],
//!     vias: vec![],
//!     f2f_crossings: 0,
//! };
//! let p = extract_net(
//!     &stack,
//!     &net,
//!     Point::from_um(0.0, 0.0),
//!     &[(Point::from_um(100.0, 0.0), 1.0)],
//!     Corner::Tt,
//! );
//! assert!(p.elmore_ps[0] > 0.0);
//! assert!(p.wire_cap_ff > 15.0); // 100 um of M1 at 0.2 fF/um
//! ```

use macro3d_geom::idhash::IdHashMap;
use macro3d_geom::Point;
use macro3d_route::RoutedNet;
use macro3d_tech::stack::MetalStack;
use macro3d_tech::Corner;

/// Extracted parasitics of one net.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NetParasitics {
    /// Total wire + via capacitance, fF.
    pub wire_cap_ff: f64,
    /// Total wire + via resistance, Ω (sum over elements).
    pub total_res_ohm: f64,
    /// Elmore delay driver→sink, ps, in input sink order.
    pub elmore_ps: Vec<f64>,
    /// Capacitance seen by the driver (wire + sink pins), fF.
    pub driver_load_ff: f64,
}

/// Extracts a routed net into Elmore sink delays.
///
/// `sinks` carries each sink's location and pin capacitance (fF).
/// Driver and sink locations are matched to the nearest RC node
/// (routing quantizes pins to GCell centres). Falls back to a lumped
/// model for sinks disconnected from the driver's RC component
/// (possible when a route was only partially recovered).
pub fn extract_net(
    stack: &MetalStack,
    route: &RoutedNet,
    driver: Point,
    sinks: &[(Point, f64)],
    corner: Corner,
) -> NetParasitics {
    NETS_EXTRACTED.inc();
    let tree = RcTree::build(stack, route, corner);
    if tree.nodes.is_empty() {
        // zero-length route: purely pin-cap load
        let load: f64 = sinks.iter().map(|s| s.1).sum();
        return NetParasitics {
            wire_cap_ff: 0.0,
            total_res_ohm: 0.0,
            elmore_ps: vec![0.0; sinks.len()],
            driver_load_ff: load,
        };
    }

    let root = tree.nearest(driver);
    let mut node_cap = tree.cap.clone();
    let mut sink_node = Vec::with_capacity(sinks.len());
    for (p, c) in sinks {
        let n = tree.nearest(*p);
        node_cap[n] += c;
        sink_node.push(n);
    }

    // BFS spanning tree from root
    let n = tree.nodes.len();
    let mut parent: Vec<Option<(usize, f64)>> = vec![None; n]; // (parent, r)
    let mut order = vec![root];
    let mut seen = vec![false; n];
    seen[root] = true;
    let mut head = 0;
    while head < order.len() {
        let u = order[head];
        head += 1;
        for &(v, r) in tree.neighbours(u) {
            if !seen[v] {
                seen[v] = true;
                parent[v] = Some((u, r));
                order.push(v);
            }
        }
    }

    // subtree capacitance (reverse BFS order)
    let mut subtree = node_cap.clone();
    for &u in order.iter().rev() {
        if let Some((p, _)) = parent[u] {
            subtree[p] += subtree[u];
        }
    }
    // Elmore: delay[u] = delay[parent] + r * subtree_cap[u]
    let mut delay = vec![0.0f64; n];
    for &u in &order {
        if let Some((p, r)) = parent[u] {
            delay[u] = delay[p] + r * subtree[u] * 1e-3; // ohm*fF -> ps
        }
    }

    let wire_cap: f64 = tree.cap.iter().sum();
    let pin_cap: f64 = sinks.iter().map(|s| s.1).sum();
    let lumped = tree.total_res * 0.5 * (wire_cap + pin_cap) * 1e-3;

    let elmore_ps = sink_node
        .iter()
        .map(|&s| if seen[s] { delay[s] } else { lumped })
        .collect();

    NetParasitics {
        wire_cap_ff: wire_cap,
        total_res_ohm: tree.total_res,
        elmore_ps,
        // subtree[root] covers the connected component; unconnected
        // sink caps are still part of the electrical load, hence max
        driver_load_ff: subtree[root].max(wire_cap + pin_cap),
    }
}

/// HPWL-based pre-route estimate for nets without a route (used for
/// the pseudo-2D stages of S2D/C2D, where the paper notes the tools
/// must *guess* parasitics — optionally with a scale factor on RC per
/// unit length, the C2D trick).
pub fn estimate_net(
    stack: &MetalStack,
    driver: Point,
    sinks: &[(Point, f64)],
    rc_scale: f64,
    corner: Corner,
) -> NetParasitics {
    NETS_ESTIMATED.inc();
    // average mid-stack RC
    let mid_ix = (stack.num_layers() / 2).saturating_sub(usize::from(stack.num_layers() > 1));
    let mid = &stack.layers()[mid_ix];
    let r_um = mid.r_per_um * corner.wire_r_derate() * rc_scale;
    let c_um = mid.c_per_um * rc_scale;
    let mut lo = driver;
    let mut hi = driver;
    for (p, _) in sinks {
        lo = lo.min(*p);
        hi = hi.max(*p);
    }
    let hpwl_um = lo.manhattan(hi).to_um();
    let wire_cap = hpwl_um * c_um;
    let total_res = hpwl_um * r_um;
    let pin_cap: f64 = sinks.iter().map(|s| s.1).sum();
    let elmore: Vec<f64> = sinks
        .iter()
        .map(|(p, c)| {
            let d_um = driver.manhattan(*p).to_um();
            let r = d_um * r_um;
            let cw = d_um * c_um;
            r * (cw * 0.5 + c) * 1e-3
        })
        .collect();
    NetParasitics {
        wire_cap_ff: wire_cap,
        total_res_ohm: total_res,
        elmore_ps: elmore,
        driver_load_ff: wire_cap + pin_cap,
    }
}

/// Summary of what changed between two parasitics tables (same
/// design, e.g. before/after a sizing step).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DeltaReport {
    /// Indices (by `NetId::index()`) of nets whose parasitics differ,
    /// ascending.
    pub changed: Vec<usize>,
    /// Largest absolute driver-load change, fF.
    pub max_load_delta_ff: f64,
    /// Largest absolute Elmore change over any sink, ps.
    pub max_elmore_delta_ps: f64,
}

/// Compares two parasitics tables net-by-net and reports which nets
/// changed and by how much. Incremental timing consumes `changed` as
/// its touched-net seed; the magnitudes make a cheap sanity gate
/// ("did this step really only nudge loads?") for logs and tests.
/// Tables of different lengths report every index beyond the common
/// prefix as changed.
pub fn diff_parasitics(old: &[NetParasitics], new: &[NetParasitics]) -> DeltaReport {
    let mut rep = DeltaReport::default();
    let common = old.len().min(new.len());
    for (ix, (o, n)) in old.iter().zip(new.iter()).enumerate() {
        if o == n {
            continue;
        }
        rep.changed.push(ix);
        rep.max_load_delta_ff = rep
            .max_load_delta_ff
            .max((o.driver_load_ff - n.driver_load_ff).abs());
        let sinks = o.elmore_ps.len().max(n.elmore_ps.len());
        for s in 0..sinks {
            let eo = o.elmore_ps.get(s).copied().unwrap_or(0.0);
            let en = n.elmore_ps.get(s).copied().unwrap_or(0.0);
            rep.max_elmore_delta_ps = rep.max_elmore_delta_ps.max((eo - en).abs());
        }
    }
    rep.changed.extend(common..old.len().max(new.len()));
    rep
}

/// The RC tree of a routed net. Nodes are numbered in first-touch
/// order over the segments, then the vias; each node lists its
/// neighbours in element order (a CSR over the element list).
struct RcTree {
    nodes: Vec<(u16, Point)>,
    cap: Vec<f64>,
    /// CSR offsets into `adj`, one range per node.
    adj_offsets: Vec<u32>,
    adj: Vec<(usize, f64)>,
    total_res: f64,
}

impl RcTree {
    fn build(stack: &MetalStack, route: &RoutedNet, corner: Corner) -> Self {
        let elements = route.segments.len() + route.vias.len();
        let mut tree = RcTree {
            nodes: Vec::with_capacity(elements + 1),
            cap: Vec::with_capacity(elements + 1),
            adj_offsets: Vec::new(),
            adj: Vec::new(),
            total_res: 0.0,
        };
        // `(layer, x, y)` → node; looked up only, never iterated, so
        // its hasher cannot reorder the nodes
        let mut index: IdHashMap<(u16, i64, i64), usize> =
            IdHashMap::with_capacity_and_hasher(elements + 1, Default::default());
        let mut edges: Vec<(usize, usize, f64)> = Vec::with_capacity(elements);
        let r_derate = corner.wire_r_derate();
        for s in &route.segments {
            let layer = &stack.layers()[s.layer as usize];
            let len = s.length_um();
            let r = len * layer.r_per_um * r_derate;
            let c = len * layer.c_per_um;
            let a = tree.node(&mut index, s.layer, s.from);
            let b = tree.node(&mut index, s.layer, s.to);
            tree.cap[a] += c / 2.0;
            tree.cap[b] += c / 2.0;
            edges.push((a, b, r));
            tree.total_res += r;
        }
        for v in &route.vias {
            let def = stack.via(v.layer as usize);
            let a = tree.node(&mut index, v.layer, v.at);
            let b = tree.node(&mut index, v.layer + 1, v.at);
            tree.cap[a] += def.capacitance / 2.0;
            tree.cap[b] += def.capacitance / 2.0;
            let r = def.resistance * r_derate;
            edges.push((a, b, r));
            tree.total_res += r;
        }
        // each element adds (b, r) to a's list, then (a, r) to b's
        let n = tree.nodes.len();
        let mut offsets = vec![0u32; n + 1];
        for &(a, b, _) in &edges {
            offsets[a + 1] += 1;
            offsets[b + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets.clone();
        tree.adj = vec![(0, 0.0); offsets[n] as usize];
        for &(a, b, r) in &edges {
            tree.adj[cursor[a] as usize] = (b, r);
            cursor[a] += 1;
            tree.adj[cursor[b] as usize] = (a, r);
            cursor[b] += 1;
        }
        tree.adj_offsets = offsets;
        tree
    }

    fn node(
        &mut self,
        index: &mut IdHashMap<(u16, i64, i64), usize>,
        layer: u16,
        p: Point,
    ) -> usize {
        *index.entry((layer, p.x.0, p.y.0)).or_insert_with(|| {
            self.nodes.push((layer, p));
            self.cap.push(0.0);
            self.nodes.len() - 1
        })
    }

    /// `(neighbour, resistance)` of node `u`, in element order.
    fn neighbours(&self, u: usize) -> &[(usize, f64)] {
        &self.adj[self.adj_offsets[u] as usize..self.adj_offsets[u + 1] as usize]
    }

    fn nearest(&self, p: Point) -> usize {
        let mut best = 0;
        let mut best_d = i64::MAX;
        for (i, (_, q)) in self.nodes.iter().enumerate() {
            let d = p.manhattan(*q).0;
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        best
    }
}

/// Routed nets fully extracted (RC tree + Elmore). Called from
/// parallel workers; the counter is commutative so totals stay
/// thread-count independent.
static NETS_EXTRACTED: macro3d_obs::SiteCounter = macro3d_obs::SiteCounter::new("extract/nets");
/// Unrouted nets given the HPWL-based parasitic guess.
static NETS_ESTIMATED: macro3d_obs::SiteCounter = macro3d_obs::SiteCounter::new("extract/est_nets");

#[cfg(test)]
mod tests {
    use super::*;
    use macro3d_route::{RouteSeg, Via};
    use macro3d_tech::stack::{n28_stack, DieRole};
    use macro3d_tech::{CombinedBeol, F2fSpec};

    fn seg(layer: u16, x0: f64, y0: f64, x1: f64, y1: f64) -> RouteSeg {
        RouteSeg {
            layer,
            from: Point::from_um(x0, y0),
            to: Point::from_um(x1, y1),
        }
    }

    /// The SipHash-indexed, `Vec<Vec<_>>`-adjacency tree with a linear
    /// `nearest` that [`RcTree`] replaced, kept as its oracle.
    struct RcTreeReference {
        nodes: Vec<(u16, Point)>,
        cap: Vec<f64>,
        adj: Vec<Vec<(usize, f64)>>,
        total_res: f64,
        index: std::collections::HashMap<(u16, i64, i64), usize>,
    }

    impl RcTreeReference {
        fn build(stack: &MetalStack, route: &RoutedNet, corner: Corner) -> Self {
            let mut tree = RcTreeReference {
                nodes: Vec::new(),
                cap: Vec::new(),
                adj: Vec::new(),
                total_res: 0.0,
                index: Default::default(),
            };
            let r_derate = corner.wire_r_derate();
            for s in &route.segments {
                let layer = &stack.layers()[s.layer as usize];
                let len = s.length_um();
                let r = len * layer.r_per_um * r_derate;
                let c = len * layer.c_per_um;
                let a = tree.node(s.layer, s.from);
                let b = tree.node(s.layer, s.to);
                tree.cap[a] += c / 2.0;
                tree.cap[b] += c / 2.0;
                tree.adj[a].push((b, r));
                tree.adj[b].push((a, r));
                tree.total_res += r;
            }
            for v in &route.vias {
                let def = stack.via(v.layer as usize);
                let a = tree.node(v.layer, v.at);
                let b = tree.node(v.layer + 1, v.at);
                tree.cap[a] += def.capacitance / 2.0;
                tree.cap[b] += def.capacitance / 2.0;
                let r = def.resistance * r_derate;
                tree.adj[a].push((b, r));
                tree.adj[b].push((a, r));
                tree.total_res += r;
            }
            tree
        }

        fn node(&mut self, layer: u16, p: Point) -> usize {
            let key = (layer, p.x.0, p.y.0);
            if let Some(&n) = self.index.get(&key) {
                return n;
            }
            let n = self.nodes.len();
            self.nodes.push((layer, p));
            self.cap.push(0.0);
            self.adj.push(Vec::new());
            self.index.insert(key, n);
            n
        }

        fn nearest(&self, p: Point) -> usize {
            let mut best = 0;
            let mut best_d = i64::MAX;
            for (i, (_, q)) in self.nodes.iter().enumerate() {
                let d = p.manhattan(*q).0;
                if d < best_d {
                    best_d = d;
                    best = i;
                }
            }
            best
        }
    }

    /// A random route on a coarse lattice: wires between lattice
    /// points (zero-length and repeated ones included) and vias at
    /// lattice points, so nodes are shared between elements and
    /// stacked across layers at one point.
    fn random_route(rng: &mut rand::rngs::SmallRng, layers: u16) -> RoutedNet {
        use rand::Rng;
        fn at(rng: &mut rand::rngs::SmallRng) -> Point {
            Point::from_um(
                rng.gen_range(0..8i64) as f64 * 10.0,
                rng.gen_range(0..8i64) as f64 * 10.0,
            )
        }
        let mut net = RoutedNet::default();
        let (n_seg, n_via) = (rng.gen_range(0..40usize), rng.gen_range(0..20usize));
        for _ in 0..n_seg {
            let from = at(rng);
            let mut to = at(rng);
            // route segments are axis-parallel
            if to.x != from.x && to.y != from.y {
                to.y = from.y;
            }
            net.segments.push(RouteSeg {
                layer: rng.gen_range(0..layers),
                from,
                to,
            });
        }
        for _ in 0..n_via {
            net.vias.push(Via {
                layer: rng.gen_range(0..layers - 1),
                at: at(rng),
            });
        }
        net
    }

    /// `RcTree` against the reference on random routes: the same nodes
    /// in the same order, bit-identical caps, resistances and neighbour
    /// lists, and the same `nearest` node for queries at and between
    /// lattice points — where several nodes are equidistant, the first
    /// in insertion order must win.
    #[test]
    fn rc_tree_matches_the_reference_tree() {
        use rand::{Rng, SeedableRng};
        let stack = n28_stack(6, DieRole::Logic);
        for seed in 0..200u64 {
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            let route = random_route(&mut rng, 6);
            let corner = if seed % 2 == 0 {
                Corner::Tt
            } else {
                Corner::Ss
            };
            let fast = RcTree::build(&stack, &route, corner);
            let slow = RcTreeReference::build(&stack, &route, corner);
            assert_eq!(fast.nodes, slow.nodes, "seed {seed}");
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&fast.cap), bits(&slow.cap), "seed {seed}");
            assert_eq!(fast.total_res.to_bits(), slow.total_res.to_bits());
            for (u, want) in slow.adj.iter().enumerate() {
                let got: Vec<_> = fast
                    .neighbours(u)
                    .iter()
                    .map(|&(v, r)| (v, r.to_bits()))
                    .collect();
                let want: Vec<_> = want.iter().map(|&(v, r)| (v, r.to_bits())).collect();
                assert_eq!(got, want, "seed {seed} node {u}");
            }
            if slow.nodes.is_empty() {
                continue;
            }
            for _ in 0..50 {
                // half-lattice steps: midpoints are equidistant from
                // their lattice neighbours
                let q = Point::from_um(
                    rng.gen_range(-2..16i64) as f64 * 5.0,
                    rng.gen_range(-2..16i64) as f64 * 5.0,
                );
                assert_eq!(fast.nearest(q), slow.nearest(q), "seed {seed} at {q:?}");
            }
            let sinks: Vec<(Point, f64)> = (0..4)
                .map(|_| {
                    let p = Point::from_um(
                        rng.gen_range(0..15i64) as f64 * 5.0,
                        rng.gen_range(0..15i64) as f64 * 5.0,
                    );
                    (p, 1.5)
                })
                .collect();
            let p = extract_net(&stack, &route, sinks[0].0, &sinks[1..], corner);
            assert!(p.elmore_ps.iter().all(|d| d.is_finite() && *d >= 0.0));
        }
    }

    #[test]
    fn single_wire_elmore_matches_hand_calc() {
        let stack = n28_stack(6, DieRole::Logic);
        // 100 um of M1: R = 400 ohm, C = 20 fF; sink cap 1 fF
        let net = RoutedNet {
            segments: vec![seg(0, 0.0, 0.0, 100.0, 0.0)],
            vias: vec![],
            f2f_crossings: 0,
        };
        let p = extract_net(
            &stack,
            &net,
            Point::from_um(0.0, 0.0),
            &[(Point::from_um(100.0, 0.0), 1.0)],
            Corner::Tt,
        );
        // Elmore with half-cap at far node: 400 * (10 + 1) fF = 4.4 ps
        assert!(
            (p.elmore_ps[0] - 4.4).abs() < 0.2,
            "elmore {}",
            p.elmore_ps[0]
        );
        assert!((p.wire_cap_ff - 20.0).abs() < 1e-9);
        assert!((p.driver_load_ff - 21.0).abs() < 1e-9);
    }

    #[test]
    fn corner_derates_resistance() {
        let stack = n28_stack(6, DieRole::Logic);
        let net = RoutedNet {
            segments: vec![seg(0, 0.0, 0.0, 100.0, 0.0)],
            vias: vec![],
            f2f_crossings: 0,
        };
        let sinks = [(Point::from_um(100.0, 0.0), 1.0)];
        let tt = extract_net(&stack, &net, Point::from_um(0.0, 0.0), &sinks, Corner::Tt);
        let ss = extract_net(&stack, &net, Point::from_um(0.0, 0.0), &sinks, Corner::Ss);
        assert!(ss.elmore_ps[0] > tt.elmore_ps[0]);
    }

    #[test]
    fn upper_metal_is_faster() {
        let stack = n28_stack(6, DieRole::Logic);
        let sinks = [(Point::from_um(200.0, 0.0), 1.0)];
        let mk = |layer: u16| RoutedNet {
            segments: vec![seg(layer, 0.0, 0.0, 200.0, 0.0)],
            vias: vec![],
            f2f_crossings: 0,
        };
        let m1 = extract_net(&stack, &mk(0), Point::from_um(0.0, 0.0), &sinks, Corner::Tt);
        let m6 = extract_net(&stack, &mk(5), Point::from_um(0.0, 0.0), &sinks, Corner::Tt);
        assert!(m6.elmore_ps[0] < m1.elmore_ps[0] / 3.0);
    }

    #[test]
    fn f2f_via_adds_its_parasitics() {
        let combined = CombinedBeol::build(
            &n28_stack(6, DieRole::Logic),
            &n28_stack(4, DieRole::Macro),
            &F2fSpec::hybrid_bond_n28(),
        );
        let cut = combined.stack().f2f_cut().expect("cut") as u16;
        let net = RoutedNet {
            segments: vec![],
            vias: vec![Via {
                layer: cut,
                at: Point::from_um(0.0, 0.0),
            }],
            f2f_crossings: 1,
        };
        let p = extract_net(
            combined.stack(),
            &net,
            Point::from_um(0.0, 0.0),
            &[],
            Corner::Tt,
        );
        assert!((p.wire_cap_ff - 1.0).abs() < 1e-9, "1 fF per bump");
        assert!(p.total_res_ohm > 0.0 && p.total_res_ohm < 0.1);
    }

    #[test]
    fn branched_tree_orders_sinks() {
        let stack = n28_stack(6, DieRole::Logic);
        // driver at origin, T-junction at (50,0), branches to (50,30) and (100,0)
        let net = RoutedNet {
            segments: vec![
                seg(0, 0.0, 0.0, 50.0, 0.0),
                seg(1, 50.0, 0.0, 50.0, 30.0),
                seg(0, 50.0, 0.0, 100.0, 0.0),
            ],
            vias: vec![Via {
                layer: 0,
                at: Point::from_um(50.0, 0.0),
            }],
            f2f_crossings: 0,
        };
        let p = extract_net(
            &stack,
            &net,
            Point::from_um(0.0, 0.0),
            &[
                (Point::from_um(50.0, 30.0), 1.0),
                (Point::from_um(100.0, 0.0), 1.0),
            ],
            Corner::Tt,
        );
        // the short M2 branch arrives earlier than 50um more of M1
        assert!(p.elmore_ps[0] < p.elmore_ps[1]);
        assert!(p.elmore_ps.iter().all(|&d| d > 0.0));
    }

    #[test]
    fn estimate_tracks_distance() {
        let stack = n28_stack(6, DieRole::Logic);
        let near = estimate_net(
            &stack,
            Point::ORIGIN,
            &[(Point::from_um(50.0, 0.0), 1.0)],
            1.0,
            Corner::Tt,
        );
        let far = estimate_net(
            &stack,
            Point::ORIGIN,
            &[(Point::from_um(500.0, 0.0), 1.0)],
            1.0,
            Corner::Tt,
        );
        assert!(far.elmore_ps[0] > near.elmore_ps[0] * 10.0);
        // C2D-style scaling reduces estimated parasitics
        let scaled = estimate_net(
            &stack,
            Point::ORIGIN,
            &[(Point::from_um(500.0, 0.0), 1.0)],
            1.0 / 2.0_f64.sqrt(),
            Corner::Tt,
        );
        assert!(scaled.wire_cap_ff < far.wire_cap_ff);
    }

    #[test]
    fn diff_reports_changed_nets_and_magnitudes() {
        let base = vec![
            NetParasitics {
                wire_cap_ff: 2.0,
                total_res_ohm: 100.0,
                elmore_ps: vec![5.0, 7.0],
                driver_load_ff: 3.0,
            };
            4
        ];
        // identical tables: clean diff
        let rep = diff_parasitics(&base, &base);
        assert_eq!(rep, DeltaReport::default());

        // bump one load and one elmore
        let mut new = base.clone();
        new[1].driver_load_ff += 0.5;
        new[3].elmore_ps[1] = 9.5;
        let rep = diff_parasitics(&base, &new);
        assert_eq!(rep.changed, vec![1, 3]);
        assert!((rep.max_load_delta_ff - 0.5).abs() < 1e-12);
        assert!((rep.max_elmore_delta_ps - 2.5).abs() < 1e-12);

        // a grown table (e.g. hold-fix nets) reports the tail
        let mut grown = base.clone();
        grown.push(NetParasitics::default());
        let rep = diff_parasitics(&base, &grown);
        assert_eq!(rep.changed, vec![4]);
    }

    #[test]
    fn empty_route_is_pure_pin_load() {
        let stack = n28_stack(6, DieRole::Logic);
        let net = RoutedNet::default();
        let p = extract_net(
            &stack,
            &net,
            Point::ORIGIN,
            &[(Point::from_um(10.0, 0.0), 2.5)],
            Corner::Tt,
        );
        assert_eq!(p.elmore_ps, vec![0.0]);
        assert!((p.driver_load_ff - 2.5).abs() < 1e-9);
    }
}

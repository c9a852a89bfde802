//! The GCell routing grid: per-layer capacities, usage, and the dense
//! per-edge cost model the windowed A* search reads.
//!
//! The grid is stored structure-of-arrays, one contiguous block per
//! layer (`[horizontal edges][vertical edges]`), so the search touches
//! a single `f32` load per candidate step. Costs are *maintained*, not
//! recomputed: every usage or history mutation goes through
//! `RouteGrid::commit` / `RouteGrid::release` /
//! `RouteGrid::accumulate_history`, which update the affected edge's
//! cost and its overflow bit in place. The per-iteration overflow scan
//! the first-generation router did (rebuilding a `HashSet` of
//! overflowed edges) is gone; overflow membership is a dense bitset
//! kept current by the same mutators.

use macro3d_geom::{BinGrid, BinIx, Dbu, Point, Rect};
use macro3d_tech::stack::{Direction, MetalStack};

/// Index of an undirected routing-graph edge (for usage/capacity
/// bookkeeping).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct EdgeIx(pub u32);

/// The global-routing grid over one stack (single-die or combined).
///
/// Wire edges connect adjacent GCells along each layer's preferred
/// direction with a capacity of `tracks × utilization`; via edges
/// connect vertically adjacent layers (uncapacitated but costed).
/// Macro internal-routing obstacles reduce wire capacity in
/// proportion to their overlap with each GCell.
#[derive(Clone, Debug)]
pub struct RouteGrid {
    grid: BinGrid,
    layers: usize,
    /// capacity per wire edge (see `edge_ix`).
    cap: Vec<f32>,
    /// current usage per wire edge.
    pub(crate) usage: Vec<f32>,
    /// congestion history per wire edge (negotiated congestion).
    pub(crate) history: Vec<f32>,
    /// total search cost per wire edge: congestion multiplier × layer
    /// cost, `f32::INFINITY` for blocked edges. Maintained by
    /// `commit`/`release`/`accumulate_history`.
    cost: Vec<f32>,
    /// per-layer wire cost factor (upper, lower-resistance metals are
    /// cheaper, pulling long nets up the stack).
    layer_cost: Vec<f32>,
    /// dense overflow-membership bitset over wire edges.
    overflow_bits: Vec<u64>,
    /// number of set bits in `overflow_bits`.
    overflowed: usize,
    h_edges_per_layer: usize,
    v_edges_per_layer: usize,
}

impl RouteGrid {
    /// Builds the grid for a die area and stack.
    ///
    /// `gcell` is the GCell pitch; `utilization` the fraction of raw
    /// tracks available for global routing (the rest is reserved for
    /// local/pin-access wiring, as real global routers do).
    ///
    /// # Panics
    ///
    /// Panics if `gcell` is non-positive or the die is empty.
    pub fn new(die: Rect, stack: &MetalStack, gcell: Dbu, utilization: f64) -> Self {
        let grid = BinGrid::with_bin_size(die, gcell);
        let (nx, ny) = (grid.nx() as usize, grid.ny() as usize);
        let layers = stack.num_layers();
        let h_edges_per_layer = nx.saturating_sub(1) * ny;
        let v_edges_per_layer = nx * ny.saturating_sub(1);
        let per_layer = h_edges_per_layer + v_edges_per_layer;
        let mut cap = vec![0.0f32; per_layer * layers];

        for (l, layer) in stack.layers().iter().enumerate() {
            // tracks crossing a gcell boundary
            let tracks = (gcell.to_um() / layer.pitch.to_um() * utilization).max(0.0) as f32;
            match layer.direction {
                Direction::Horizontal => {
                    for e in 0..h_edges_per_layer {
                        cap[l * per_layer + e] = tracks;
                    }
                }
                Direction::Vertical => {
                    for e in 0..v_edges_per_layer {
                        cap[l * per_layer + h_edges_per_layer + e] = tracks;
                    }
                }
            }
        }

        // upper (thicker, lower-R) metals are cheaper per GCell, so
        // long nets are pulled up the stack as real global routers do
        let r_max = stack
            .layers()
            .iter()
            .map(|l| l.r_per_um)
            .fold(f64::MIN, f64::max);
        let layer_cost: Vec<f32> = stack
            .layers()
            .iter()
            .map(|l| (0.55 + 0.45 * (l.r_per_um / r_max)) as f32)
            .collect();

        let n = per_layer * layers;
        let mut g = RouteGrid {
            grid,
            layers,
            usage: vec![0.0; n],
            history: vec![0.0; n],
            cost: vec![0.0; n],
            layer_cost,
            overflow_bits: vec![0; n.div_ceil(64)],
            overflowed: 0,
            cap,
            h_edges_per_layer,
            v_edges_per_layer,
        };
        for e in 0..n {
            g.cost[e] = g.compute_cost(e);
        }
        g
    }

    /// The underlying bin grid.
    pub fn bins(&self) -> &BinGrid {
        &self.grid
    }

    /// Number of routing layers.
    pub fn layers(&self) -> usize {
        self.layers
    }

    /// GCell containing a point.
    pub fn gcell_of(&self, p: Point) -> BinIx {
        self.grid.bin_of(p)
    }

    /// Center of a GCell.
    pub fn gcell_center(&self, ix: BinIx) -> Point {
        self.grid.bin_rect(ix).center()
    }

    fn per_layer(&self) -> usize {
        self.h_edges_per_layer + self.v_edges_per_layer
    }

    /// Per-layer wire cost factors (each ≥ the minimum the search
    /// heuristic uses).
    pub(crate) fn layer_costs(&self) -> &[f32] {
        &self.layer_cost
    }

    /// Edge between `(x,y)` and the next GCell in +x (horizontal) or
    /// +y (vertical) on `layer`; `None` at the grid boundary.
    pub(crate) fn edge_ix(
        &self,
        layer: usize,
        x: usize,
        y: usize,
        horizontal: bool,
    ) -> Option<usize> {
        let nx = self.grid.nx() as usize;
        let ny = self.grid.ny() as usize;
        if horizontal {
            if x + 1 >= nx || y >= ny {
                return None;
            }
            Some(layer * self.per_layer() + y * (nx - 1) + x)
        } else {
            if y + 1 >= ny || x >= nx {
                return None;
            }
            Some(layer * self.per_layer() + self.h_edges_per_layer + y * nx + x)
        }
    }

    /// Horizontal edge `(x,y)→(x+1,y)` on `layer`; bounds unchecked
    /// (the windowed search guarantees in-grid coordinates).
    #[inline]
    pub(crate) fn h_edge(&self, layer: usize, x: usize, y: usize) -> usize {
        debug_assert!(x + 1 < self.grid.nx() as usize && y < self.grid.ny() as usize);
        layer * self.per_layer() + y * (self.grid.nx() as usize - 1) + x
    }

    /// Vertical edge `(x,y)→(x,y+1)` on `layer`; bounds unchecked.
    #[inline]
    pub(crate) fn v_edge(&self, layer: usize, x: usize, y: usize) -> usize {
        debug_assert!(y + 1 < self.grid.ny() as usize && x < self.grid.nx() as usize);
        layer * self.per_layer() + self.h_edges_per_layer + y * self.grid.nx() as usize + x
    }

    /// Capacity of a wire edge.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn capacity(&self, e: usize) -> f32 {
        self.cap[e]
    }

    /// Maintained search cost of a wire edge (`INFINITY` when
    /// blocked).
    #[inline]
    pub(crate) fn cost(&self, e: usize) -> f32 {
        self.cost[e]
    }

    /// Wire-step cost: congestion multiplier (the marginal cost of
    /// one more track through this edge, steep once over capacity,
    /// plus accumulated negotiation history) times the layer factor.
    fn compute_cost(&self, e: usize) -> f32 {
        let c = self.cap[e];
        if c <= 0.0 {
            return f32::INFINITY;
        }
        let u = self.usage[e];
        let h = self.history[e];
        let base = if u + 1.0 > c {
            (4.0 + 4.0 * (u + 1.0 - c)).min(16.0)
        } else {
            1.0 + 0.3 * (u / c)
        };
        (base + h).min(24.0) * self.layer_cost[e / self.per_layer()]
    }

    #[inline]
    fn set_overflow_bit(&mut self, e: usize) {
        let (w, b) = (e / 64, e % 64);
        if self.overflow_bits[w] & (1 << b) == 0 {
            self.overflow_bits[w] |= 1 << b;
            self.overflowed += 1;
        }
    }

    #[inline]
    fn clear_overflow_bit(&mut self, e: usize) {
        let (w, b) = (e / 64, e % 64);
        if self.overflow_bits[w] & (1 << b) != 0 {
            self.overflow_bits[w] &= !(1 << b);
            self.overflowed -= 1;
        }
    }

    /// Whether committing one more track would push the edge over
    /// capacity — the pattern-route acceptance test.
    #[inline]
    pub(crate) fn would_overflow(&self, e: usize) -> bool {
        self.usage[e] + 1.0 > self.cap[e]
    }

    /// Whether a wire edge is currently overflowed (usage beyond
    /// capacity), from the maintained bitset.
    #[inline]
    pub(crate) fn is_overflowed(&self, e: usize) -> bool {
        self.overflow_bits[e / 64] & (1 << (e % 64)) != 0
    }

    /// Number of currently overflowed wire edges (maintained).
    pub(crate) fn overflow_count(&self) -> usize {
        self.overflowed
    }

    /// Adds one track of usage to a wire edge and refreshes its cost
    /// and overflow bit.
    #[inline]
    pub(crate) fn commit(&mut self, e: usize) {
        self.usage[e] += 1.0;
        self.cost[e] = self.compute_cost(e);
        if self.usage[e] > self.cap[e] {
            self.set_overflow_bit(e);
        }
    }

    /// Removes one track of usage from a wire edge (rip-up) and
    /// refreshes its cost and overflow bit.
    #[inline]
    pub(crate) fn release(&mut self, e: usize) {
        self.usage[e] -= 1.0;
        self.cost[e] = self.compute_cost(e);
        if self.usage[e] <= self.cap[e] {
            self.clear_overflow_bit(e);
        }
    }

    /// Reduces capacity under an obstacle on `layer` (macro internal
    /// routing): every wire edge whose GCell span overlaps the rect
    /// loses capacity in proportion to the overlap fraction.
    pub fn add_obstacle(&mut self, layer: usize, rect: Rect) {
        if layer >= self.layers {
            return;
        }
        let Some((lo, hi)) = self.grid.bins_overlapping(rect) else {
            return;
        };
        for y in lo.y..=hi.y {
            for x in lo.x..=hi.x {
                let bin = self.grid.bin_rect(BinIx::new(x, y));
                let frac = rect
                    .intersection(bin)
                    .map(|i| i.area_um2() / bin.area_um2())
                    .unwrap_or(0.0) as f32;
                for horiz in [true, false] {
                    if let Some(e) = self.edge_ix(layer, x as usize, y as usize, horiz) {
                        self.cap[e] = (self.cap[e] * (1.0 - frac)).max(0.0);
                        self.cost[e] = self.compute_cost(e);
                        if self.usage[e] > self.cap[e] {
                            self.set_overflow_bit(e);
                        }
                    }
                }
            }
        }
    }

    /// Total overflow (usage beyond capacity) over all wire edges.
    pub fn total_overflow(&self) -> f64 {
        self.usage
            .iter()
            .zip(&self.cap)
            .map(|(&u, &c)| (u - c).max(0.0) as f64)
            .sum()
    }

    /// Number of overflowed edges.
    pub fn overflowed_edges(&self) -> usize {
        self.overflowed
    }

    /// Maximum edge utilization (usage / capacity) over edges with
    /// non-zero capacity.
    pub fn max_utilization(&self) -> f64 {
        self.usage
            .iter()
            .zip(&self.cap)
            .filter(|&(_, &c)| c > 0.0)
            .map(|(&u, &c)| (u / c) as f64)
            .fold(0.0, f64::max)
    }

    /// Accumulates congestion history from current overflow. Only
    /// overflowed edges (tracked by the bitset) are visited; each
    /// one's cost is refreshed in place.
    pub(crate) fn accumulate_history(&mut self, weight: f32) {
        for w in 0..self.overflow_bits.len() {
            let mut bits = self.overflow_bits[w];
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let e = w * 64 + b;
                self.history[e] += weight * (self.usage[e] - self.cap[e] + 1.0);
                self.cost[e] = self.compute_cost(e);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use macro3d_tech::stack::{n28_stack, DieRole};

    fn grid() -> RouteGrid {
        RouteGrid::new(
            Rect::from_um(0.0, 0.0, 100.0, 100.0),
            &n28_stack(6, DieRole::Logic),
            Dbu::from_um(10.0),
            0.5,
        )
    }

    #[test]
    fn capacities_follow_layer_direction() {
        let g = grid();
        // M1 horizontal: pitch 0.1um, gcell 10um, util 0.5 -> 50 tracks
        let e = g.edge_ix(0, 0, 0, true).expect("edge");
        assert!((g.capacity(e) - 50.0).abs() < 1e-3);
        // M1 has no vertical capacity
        let ev = g.edge_ix(0, 0, 0, false).expect("edge");
        assert_eq!(g.capacity(ev), 0.0);
        assert_eq!(g.cost(ev), f32::INFINITY, "no capacity means blocked");
        // M2 vertical has capacity
        let e2 = g.edge_ix(1, 0, 0, false).expect("edge");
        assert!(g.capacity(e2) > 0.0);
        // M5 has fewer tracks than M1 (bigger pitch)
        let e5 = g.edge_ix(4, 0, 0, true).expect("edge");
        assert!(g.capacity(e5) < g.capacity(e));
        // ... but a cheaper per-gcell cost (lower resistance)
        assert!(g.cost(e5) < g.cost(e));
    }

    #[test]
    fn boundary_edges_do_not_exist() {
        let g = grid();
        assert!(g.edge_ix(0, 9, 0, true).is_none());
        assert!(g.edge_ix(0, 0, 9, false).is_none());
        assert!(g.edge_ix(0, 8, 0, true).is_some());
    }

    #[test]
    fn obstacles_reduce_capacity() {
        let mut g = grid();
        let e = g.edge_ix(0, 2, 2, true).expect("edge");
        let before = g.capacity(e);
        g.add_obstacle(0, Rect::from_um(20.0, 20.0, 30.0, 30.0));
        let after = g.capacity(e);
        assert!(after < before * 0.2, "full overlap nearly zeroes capacity");
        // different layer untouched
        let e2 = g.edge_ix(2, 2, 2, true).expect("edge");
        assert!((g.capacity(e2) - before).abs() < 1e-3);
    }

    #[test]
    fn overflow_accounting_tracks_commits() {
        let mut g = grid();
        assert_eq!(g.total_overflow(), 0.0);
        let e = g.edge_ix(0, 0, 0, true).expect("edge");
        let cap = g.capacity(e) as usize;
        for _ in 0..cap + 3 {
            g.commit(e);
        }
        assert!((g.total_overflow() - 3.0).abs() < 1e-3);
        assert_eq!(g.overflowed_edges(), 1);
        assert!(g.is_overflowed(e));
        assert!(g.max_utilization() > 1.0);
        g.accumulate_history(1.0);
        assert!(g.history[e] > 0.0);
        // releasing back below capacity clears the bit
        for _ in 0..4 {
            g.release(e);
        }
        assert_eq!(g.overflowed_edges(), 0);
        assert!(!g.is_overflowed(e));
        assert_eq!(g.total_overflow(), 0.0);
    }

    #[test]
    fn cost_rises_with_usage_and_history() {
        let mut g = grid();
        let e = g.edge_ix(0, 1, 1, true).expect("edge");
        let c0 = g.cost(e);
        g.commit(e);
        let c1 = g.cost(e);
        assert!(c1 > c0, "usage raises cost: {c0} -> {c1}");
        // saturate beyond capacity: cost jumps to the overflow regime
        let cap = g.capacity(e) as usize;
        for _ in 0..cap {
            g.commit(e);
        }
        assert!(g.cost(e) > 4.0 * c0);
        g.accumulate_history(1.0);
        assert!(g.cost(e) > c1, "history raises cost further");
    }
}

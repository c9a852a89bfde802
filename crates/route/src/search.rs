//! Windowed weighted A* over the dense per-edge cost grid.
//!
//! The search engine is split into two parts so one route can share
//! one and pool the other:
//!
//! * [`SearchShared`] — immutable per-design constants (grid shape,
//!   layer directions, via costs, heuristic floors). Built once per
//!   route and borrowed by every worker; the first-generation router
//!   cloned these vectors into every worker on every chunk.
//! * [`SearchScratch`] — the mutable per-worker state (one
//!   distance / parent / stamp record per node, the open list and the
//!   pattern-menu buffer), recycled through a [`ScratchPool`] so
//!   repeated chunks and rip-up iterations never reallocate.
//!
//! Each two-pin search runs inside a bounding-box *window* around the
//! source and target GCells, expanded on failure through a fixed
//! margin schedule ([`WINDOW_MARGINS`], then the full grid). The
//! guide is an admissible lower bound — remaining Manhattan distance
//! priced at the cheapest layer plus remaining layer changes priced
//! at the cheapest via — inflated by `EPSILON` for bounded-
//! suboptimality speed, the standard global-router trade.

use crate::gcell::RouteGrid;
use macro3d_geom::BinIx;
use macro3d_tech::stack::Direction;
use std::sync::Mutex;

/// Window half-margins (in GCells) tried around the two-pin bounding
/// box before falling back to the whole grid. Nearly every net routes
/// inside the first window; only searches squeezed by congestion or
/// obstacles pay for a wider one.
pub(crate) const WINDOW_MARGINS: [usize; 2] = [8, 32];

/// Weighted-A* inflation factor: bounded suboptimality (≤ 1.25× the
/// cheapest path) for a large reduction in explored nodes.
const EPSILON: f32 = 1.25;

/// Searches that had to retry with a wider window (or the full grid).
static WINDOW_EXPANSIONS: macro3d_obs::SiteCounter =
    macro3d_obs::SiteCounter::new("route/window_expansions");
/// Nodes expanded across all searches.
static SEARCH_NODES: macro3d_obs::SiteCounter = macro3d_obs::SiteCounter::new("route/search_nodes");
/// Legs settled by a clean L-pattern, no search needed.
static PATTERN_CLEAN: macro3d_obs::SiteCounter =
    macro3d_obs::SiteCounter::new("route/pattern_clean");
/// Legs whose best pattern would overflow, escalated to bounded A*.
static PATTERN_DIRTY: macro3d_obs::SiteCounter =
    macro3d_obs::SiteCounter::new("route/pattern_dirty");

/// Immutable search constants, shared by every worker of a route.
pub(crate) struct SearchShared {
    pub nx: usize,
    pub ny: usize,
    pub layers: usize,
    /// preferred routing direction per layer.
    pub dirs: Vec<Direction>,
    /// cost of crossing cut `i` (between layers `i` and `i+1`).
    pub via_costs: Vec<f32>,
    /// prefix sums of `via_costs`: stack cost between layers `a < b`
    /// is `via_prefix[b] - via_prefix[a]` (pattern-route scoring).
    pub via_prefix: Vec<f32>,
    /// per-layer wire cost factors (copied out of the grid).
    pub layer_costs: Vec<f32>,
    /// layers routing horizontally / vertically, for the pattern menu.
    pub h_layers: Vec<usize>,
    pub v_layers: Vec<usize>,
    /// minimum via cost (admissible heuristic term).
    pub min_via_cost: f32,
    /// minimum per-layer wire cost factor (admissible heuristic term:
    /// every wire edge costs at least `1.0 × min_layer_cost`).
    pub min_layer_cost: f32,
}

impl SearchShared {
    pub fn new(grid: &RouteGrid, dirs: Vec<Direction>, via_costs: Vec<f32>, via_cost: f32) -> Self {
        let nx = grid.bins().nx() as usize;
        let ny = grid.bins().ny() as usize;
        let layers = grid.layers();
        assert!(
            nx <= 4096 && ny <= 4096 && layers <= 256,
            "packed search coordinates hold 12+12+8 bits"
        );
        let min_via_cost = via_costs.iter().fold(via_cost, |a, &b| a.min(b));
        let layer_costs = grid.layer_costs().to_vec();
        let min_layer_cost = layer_costs.iter().fold(f32::INFINITY, |a, &b| a.min(b));
        let mut via_prefix = Vec::with_capacity(layers);
        let mut acc = 0.0f32;
        via_prefix.push(0.0);
        for l in 0..layers.saturating_sub(1) {
            acc += via_costs.get(l).copied().unwrap_or(via_cost);
            via_prefix.push(acc);
        }
        let h_layers: Vec<usize> = (0..layers)
            .filter(|&l| dirs[l] == Direction::Horizontal)
            .collect();
        let v_layers: Vec<usize> = (0..layers)
            .filter(|&l| dirs[l] == Direction::Vertical)
            .collect();
        SearchShared {
            nx,
            ny,
            layers,
            dirs,
            via_costs,
            via_prefix,
            layer_costs,
            h_layers,
            v_layers,
            min_via_cost,
            min_layer_cost,
        }
    }

    /// Via-stack cost between two layers (sum of the crossed cuts).
    #[inline]
    fn stack_cost(&self, a: usize, b: usize) -> f32 {
        (self.via_prefix[a.max(b)] - self.via_prefix[a.min(b)]).abs()
    }

    /// Dense node index of `(layer, x, y)`.
    #[inline]
    fn node(&self, l: usize, x: usize, y: usize) -> usize {
        (l * self.ny + y) * self.nx + x
    }
}

/// Heap/parent coordinates packed as `l << 24 | y << 12 | x` — no
/// divisions anywhere in the inner loop (the first-generation search
/// unpacked node indices with two integer divisions per heuristic
/// evaluation).
#[inline]
fn pack(l: usize, x: usize, y: usize) -> u32 {
    ((l as u32) << 24) | ((y as u32) << 12) | x as u32
}

#[inline]
fn unpack(p: u32) -> (usize, usize, usize) {
    (
        (p >> 24) as usize,
        (p & 0xfff) as usize,
        ((p >> 12) & 0xfff) as usize,
    )
}

/// Search state of one node: a 16-byte record, so a relaxation
/// touches one cache line instead of four arrays. Epoch-stamped, so
/// clearing between searches is O(1).
#[derive(Clone, Copy)]
struct NodeState {
    dist: f32,
    /// packed coordinates of the parent node (`u32::MAX` = none).
    parent: u32,
    /// epoch stamp validating `dist`/`parent`.
    stamp: u32,
    /// epoch stamp marking an expanded (closed) node.
    closed: u32,
}

/// The A* open list: pops the smallest key and, among equal keys, the
/// largest packed coordinate — the order of a
/// `BinaryHeap<(Reverse<u64>, u32)>`, for every `u64` key
/// (`open_list_pops_in_binary_heap_order` holds it to one).
///
/// Entries are packed as `key << 32 | !coord`, so one integer compare
/// is the whole order and equal entries are identical: any heap with
/// this order pops the same sequence. Keys below 2^32 (every key of a
/// real route: 2^32 is a path cost of 4.2 M GCell-step units) live in
/// a 4-ary heap of `u64`; larger ones in a `u128` heap that pops only
/// once the first is empty, since each of its keys exceeds every key
/// of the first.
#[derive(Default)]
struct OpenList {
    near: Vec<u64>,
    far: Vec<u128>,
}

impl OpenList {
    fn clear(&mut self) {
        self.near.clear();
        self.far.clear();
    }

    #[inline]
    fn push(&mut self, key: u64, coord: u32) {
        if key >> 32 == 0 {
            heap_push(&mut self.near, (key << 32) | u64::from(!coord));
        } else {
            heap_push(&mut self.far, (u128::from(key) << 32) | u128::from(!coord));
        }
    }

    /// Removes the entry with the smallest key (largest coordinate on
    /// ties) and returns `(key, coord)`.
    #[inline]
    fn pop(&mut self) -> Option<(u64, u32)> {
        if let Some(item) = heap_pop(&mut self.near) {
            return Some((item >> 32, !(item as u32)));
        }
        let item = heap_pop(&mut self.far)?;
        Some(((item >> 32) as u64, !(item as u32)))
    }
}

/// Pushes onto a 4-ary min-heap.
#[inline]
fn heap_push<T: Copy + Ord>(heap: &mut Vec<T>, item: T) {
    let mut hole = heap.len();
    heap.push(item);
    while hole > 0 {
        let parent = (hole - 1) / 4;
        if heap[parent] <= item {
            break;
        }
        heap[hole] = heap[parent];
        hole = parent;
    }
    heap[hole] = item;
}

/// Pops the minimum of a 4-ary min-heap. The hole left at the root
/// walks down to a leaf along the least children (selected without
/// data-dependent branches), and the last entry sifts up from there:
/// it came from the bottom, so it rarely climbs far.
#[inline]
fn heap_pop<T: Copy + Ord>(heap: &mut Vec<T>) -> Option<T> {
    let last = heap.pop()?;
    let n = heap.len();
    if n == 0 {
        return Some(last);
    }
    let top = heap[0];
    let mut hole = 0;
    loop {
        let first = 4 * hole + 1;
        if first + 4 <= n {
            let (a, b) = (heap[first], heap[first + 1]);
            let (c, d) = (heap[first + 2], heap[first + 3]);
            let (i01, m01) = if b < a { (first + 1, b) } else { (first, a) };
            let (i23, m23) = if d < c {
                (first + 3, d)
            } else {
                (first + 2, c)
            };
            let child = if m23 < m01 { i23 } else { i01 };
            heap[hole] = heap[child];
            hole = child;
        } else {
            if first < n {
                let mut child = first;
                for c in first + 1..n {
                    if heap[c] < heap[child] {
                        child = c;
                    }
                }
                heap[hole] = heap[child];
                hole = child;
            }
            break;
        }
    }
    while hole > 0 {
        let parent = (hole - 1) / 4;
        if heap[parent] <= last {
            break;
        }
        heap[hole] = heap[parent];
        hole = parent;
    }
    heap[hole] = last;
    Some(top)
}

/// Per-worker mutable search state.
pub(crate) struct SearchScratch {
    nodes: Vec<NodeState>,
    epoch: u32,
    open: OpenList,
    /// the pattern menu's candidate keys (see [`menu_key`]).
    menu: Vec<u64>,
}

impl SearchScratch {
    pub fn new(shared: &SearchShared) -> Self {
        let n = shared.nx * shared.ny * shared.layers;
        SearchScratch {
            nodes: vec![
                NodeState {
                    dist: 0.0,
                    parent: u32::MAX,
                    stamp: 0,
                    closed: 0,
                };
                n
            ],
            epoch: 0,
            open: OpenList::default(),
            menu: Vec::new(),
        }
    }
}

/// A recycling pool of [`SearchScratch`] buffers. Parallel workers
/// check one out per chunk and return it on drop, so steady-state
/// routing performs no scratch allocation at all.
pub(crate) struct ScratchPool {
    free: Mutex<Vec<SearchScratch>>,
}

impl ScratchPool {
    pub fn new() -> Self {
        ScratchPool {
            free: Mutex::new(Vec::new()),
        }
    }

    pub fn checkout<'p>(&'p self, shared: &SearchShared) -> PooledScratch<'p> {
        let scratch = self
            .free
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .pop()
            .unwrap_or_else(|| SearchScratch::new(shared));
        PooledScratch {
            scratch: Some(scratch),
            pool: self,
        }
    }
}

/// RAII checkout from a [`ScratchPool`].
pub(crate) struct PooledScratch<'p> {
    scratch: Option<SearchScratch>,
    pool: &'p ScratchPool,
}

impl PooledScratch<'_> {
    // INVARIANT: `scratch` is `Some` from construction until `drop`
    // takes it back to the pool; `get` cannot run after `drop`.
    #[allow(clippy::expect_used)]
    pub fn get(&mut self) -> &mut SearchScratch {
        self.scratch.as_mut().expect("present until drop")
    }
}

impl Drop for PooledScratch<'_> {
    fn drop(&mut self) {
        if let Some(s) = self.scratch.take() {
            self.pool
                .free
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push(s);
        }
    }
}

#[inline]
fn to_millis(c: f32) -> u64 {
    (c * 1024.0) as u64
}

/// Outcome of the L-pattern pre-route of one leg.
pub(crate) enum Pattern {
    /// A finite candidate that commits no edge over capacity — take
    /// it, no search needed.
    Clean(Vec<(u16, u16, u16)>),
    /// The cheapest finite candidate would overflow somewhere; its
    /// cost is a valid upper bound for the A* search, and the path a
    /// fallback if the search fails.
    Dirty(Vec<(u16, u16, u16)>, f32),
    /// Every candidate hit a blocked edge.
    Blocked,
}

/// Candidate L-routes tried per leg, in lower-bound order. The menu
/// is small: nearly all of a candidate's cost spread comes from the
/// layer pair, which the bound already prices exactly.
const PATTERN_CANDIDATES: usize = 6;

/// Packs one L-candidate so that integer order is the menu order:
/// the bound as [`f32::total_cmp`] orders it, then the horizontal
/// layer, the vertical layer and the corner (`x_first` after
/// `y_first`). Layers fit in 8 bits ([`SearchShared::new`]), so no
/// two candidates of one leg share a key.
#[inline]
fn menu_key(bound: f32, lh: usize, lv: usize, x_first: bool) -> u64 {
    let b = bound.to_bits() as i32;
    // the `total_cmp` transform, then flip the sign bit for unsigned order
    let ordered = ((b ^ ((((b >> 31) as u32) >> 1) as i32)) as u32) ^ 0x8000_0000;
    (u64::from(ordered) << 32) | ((lh as u64) << 16) | ((lv as u64) << 1) | u64::from(x_first)
}

/// `(lh, lv, x_first)` of a [`menu_key`].
#[inline]
fn menu_layers(key: u64) -> (usize, usize, bool) {
    (
        ((key >> 16) & 0xffff) as usize,
        ((key >> 1) & 0x7fff) as usize,
        key & 1 == 1,
    )
}

/// Leaves the [`PATTERN_CANDIDATES`] smallest keys in `keys`, sorted.
/// The keys are unique, so these are the first entries of a full sort
/// at a fraction of its cost.
fn select_menu(keys: &mut Vec<u64>) {
    if keys.len() > PATTERN_CANDIDATES {
        keys.select_nth_unstable(PATTERN_CANDIDATES - 1);
        keys.truncate(PATTERN_CANDIDATES);
    }
    keys.sort_unstable();
}

/// Congestion-aware L-pattern routing: both corner orders over every
/// (horizontal, vertical) layer pair, scored by an exact-via /
/// floor-wire lower bound, the best few evaluated against the live
/// cost grid. `O(span)` per evaluation — the fast path that spares
/// the A* machinery for contested regions.
pub(crate) fn pattern_route(
    shared: &SearchShared,
    grid: &RouteGrid,
    cands: &mut Vec<u64>,
    src: (BinIx, u16),
    dst: (BinIx, u16),
) -> Pattern {
    let sl = (src.1 as usize).min(shared.layers - 1);
    let gl = (dst.1 as usize).min(shared.layers - 1);
    let (sx, sy) = (src.0.x as usize, src.0.y as usize);
    let (gx, gy) = (dst.0.x as usize, dst.0.y as usize);

    if sx == gx && sy == gy {
        // pure via stack; vias are uncapacitated
        let mut path = vec![(sl as u16, sx as u16, sy as u16)];
        push_via_run(&mut path, sl, gl, sx, sy);
        return Pattern::Clean(path);
    }

    // menu keys of (bound, lh, lv, x_first); unused direction encoded
    // as the start layer so degenerate runs produce no spurious via
    // stacks
    let dx = sx.abs_diff(gx) as f32;
    let dy = sy.abs_diff(gy) as f32;
    cands.clear();
    if sy == gy {
        for &lh in &shared.h_layers {
            let bound =
                shared.stack_cost(sl, lh) + shared.stack_cost(lh, gl) + dx * shared.layer_costs[lh];
            cands.push(menu_key(bound, lh, lh, true));
        }
    } else if sx == gx {
        for &lv in &shared.v_layers {
            let bound =
                shared.stack_cost(sl, lv) + shared.stack_cost(lv, gl) + dy * shared.layer_costs[lv];
            cands.push(menu_key(bound, lv, lv, true));
        }
    } else {
        for &lh in &shared.h_layers {
            for &lv in &shared.v_layers {
                let wire = dx * shared.layer_costs[lh] + dy * shared.layer_costs[lv];
                let x_first = shared.stack_cost(sl, lh)
                    + shared.stack_cost(lh, lv)
                    + shared.stack_cost(lv, gl)
                    + wire;
                let y_first = shared.stack_cost(sl, lv)
                    + shared.stack_cost(lv, lh)
                    + shared.stack_cost(lh, gl)
                    + wire;
                cands.push(menu_key(x_first, lh, lv, true));
                cands.push(menu_key(y_first, lh, lv, false));
            }
        }
    }
    if cands.is_empty() {
        return Pattern::Blocked;
    }
    // deterministic order: bound, then layer pair, then corner
    select_menu(cands);

    let mut best_dirty: Option<(f32, usize, usize, bool)> = None;
    for &key in cands.iter() {
        let (lh, lv, x_first) = menu_layers(key);
        let Some((cost, dirty)) =
            eval_candidate(shared, grid, (sl, sx, sy), (gl, gx, gy), lh, lv, x_first)
        else {
            continue;
        };
        if !dirty {
            return Pattern::Clean(build_candidate((sl, sx, sy), (gl, gx, gy), lh, lv, x_first));
        }
        if best_dirty.is_none_or(|(c, ..)| cost < c) {
            best_dirty = Some((cost, lh, lv, x_first));
        }
    }
    match best_dirty {
        Some((cost, lh, lv, x_first)) => Pattern::Dirty(
            build_candidate((sl, sx, sy), (gl, gx, gy), lh, lv, x_first),
            cost,
        ),
        None => Pattern::Blocked,
    }
}

/// Exact cost of one L-candidate against the live grid; `None` when
/// a run crosses a blocked edge, otherwise `(cost, would_overflow)`.
fn eval_candidate(
    shared: &SearchShared,
    grid: &RouteGrid,
    (sl, sx, sy): (usize, usize, usize),
    (gl, gx, gy): (usize, usize, usize),
    lh: usize,
    lv: usize,
    x_first: bool,
) -> Option<(f32, bool)> {
    let mut cost = 0.0f32;
    let mut dirty = false;
    let h_run = |l: usize, y: usize, cost: &mut f32, dirty: &mut bool| -> bool {
        for x in sx.min(gx)..sx.max(gx) {
            let e = grid.h_edge(l, x, y);
            let c = grid.cost(e);
            if !c.is_finite() {
                return false;
            }
            *cost += c;
            *dirty |= grid.would_overflow(e);
        }
        true
    };
    let v_run = |l: usize, x: usize, cost: &mut f32, dirty: &mut bool| -> bool {
        for y in sy.min(gy)..sy.max(gy) {
            let e = grid.v_edge(l, x, y);
            let c = grid.cost(e);
            if !c.is_finite() {
                return false;
            }
            *cost += c;
            *dirty |= grid.would_overflow(e);
        }
        true
    };
    if sy == gy {
        cost += shared.stack_cost(sl, lh) + shared.stack_cost(lh, gl);
        if !h_run(lh, sy, &mut cost, &mut dirty) {
            return None;
        }
    } else if sx == gx {
        cost += shared.stack_cost(sl, lv) + shared.stack_cost(lv, gl);
        if !v_run(lv, sx, &mut cost, &mut dirty) {
            return None;
        }
    } else if x_first {
        cost += shared.stack_cost(sl, lh) + shared.stack_cost(lh, lv) + shared.stack_cost(lv, gl);
        if !h_run(lh, sy, &mut cost, &mut dirty) || !v_run(lv, gx, &mut cost, &mut dirty) {
            return None;
        }
    } else {
        cost += shared.stack_cost(sl, lv) + shared.stack_cost(lv, lh) + shared.stack_cost(lh, gl);
        if !v_run(lv, sx, &mut cost, &mut dirty) || !h_run(lh, gy, &mut cost, &mut dirty) {
            return None;
        }
    }
    Some((cost, dirty))
}

/// Node path of one L-candidate (same shape `search` returns).
fn build_candidate(
    (sl, sx, sy): (usize, usize, usize),
    (gl, gx, gy): (usize, usize, usize),
    lh: usize,
    lv: usize,
    x_first: bool,
) -> Vec<(u16, u16, u16)> {
    let mut path = vec![(sl as u16, sx as u16, sy as u16)];
    if sy == gy {
        push_via_run(&mut path, sl, lh, sx, sy);
        push_wire_run(&mut path, lh, sx, sy, gx, sy);
        push_via_run(&mut path, lh, gl, gx, gy);
    } else if sx == gx {
        push_via_run(&mut path, sl, lv, sx, sy);
        push_wire_run(&mut path, lv, sx, sy, gx, gy);
        push_via_run(&mut path, lv, gl, gx, gy);
    } else if x_first {
        push_via_run(&mut path, sl, lh, sx, sy);
        push_wire_run(&mut path, lh, sx, sy, gx, sy);
        push_via_run(&mut path, lh, lv, gx, sy);
        push_wire_run(&mut path, lv, gx, sy, gx, gy);
        push_via_run(&mut path, lv, gl, gx, gy);
    } else {
        push_via_run(&mut path, sl, lv, sx, sy);
        push_wire_run(&mut path, lv, sx, sy, sx, gy);
        push_via_run(&mut path, lv, lh, sx, gy);
        push_wire_run(&mut path, lh, sx, gy, gx, gy);
        push_via_run(&mut path, lh, gl, gx, gy);
    }
    path
}

fn push_via_run(path: &mut Vec<(u16, u16, u16)>, from: usize, to: usize, x: usize, y: usize) {
    let mut l = from as i64;
    while l != to as i64 {
        l += (to as i64 - l).signum();
        path.push((l as u16, x as u16, y as u16));
    }
}

fn push_wire_run(
    path: &mut Vec<(u16, u16, u16)>,
    l: usize,
    x0: usize,
    y0: usize,
    x1: usize,
    y1: usize,
) {
    let (mut x, mut y) = (x0 as i64, y0 as i64);
    while x != x1 as i64 {
        x += (x1 as i64 - x).signum();
        path.push((l as u16, x as u16, y as u16));
    }
    while y != y1 as i64 {
        y += (y1 as i64 - y).signum();
        path.push((l as u16, x as u16, y as u16));
    }
}

/// Route one two-pin leg. The congestion-aware L-pattern runs first;
/// a clean candidate (no edge pushed over capacity) is final. When
/// the best finite pattern would overflow, its cost becomes a
/// branch-and-bound upper bound for a windowed A* — and the pattern
/// path itself the fallback if the bounded search cannot beat it.
/// Only fully blocked legs pay for an unbounded search.
pub(crate) fn route_leg(
    shared: &SearchShared,
    grid: &RouteGrid,
    scratch: &mut SearchScratch,
    src: (BinIx, u16),
    dst: (BinIx, u16),
) -> Vec<(u16, u16, u16)> {
    match pattern_route(shared, grid, &mut scratch.menu, src, dst) {
        Pattern::Clean(path) => {
            PATTERN_CLEAN.inc();
            path
        }
        // small slack over the pattern cost so f32 summation-order
        // noise cannot prune the pattern-equivalent path itself
        // (saturating: a huge cost bound stays unbounded, never wraps)
        Pattern::Dirty(path, cost) => {
            PATTERN_DIRTY.inc();
            search(
                shared,
                grid,
                scratch,
                src,
                dst,
                to_millis(cost).saturating_add(8),
            )
            .unwrap_or(path)
        }
        Pattern::Blocked => search(shared, grid, scratch, src, dst, u64::MAX)
            .unwrap_or_else(|| l_fallback(src, dst, shared.layers)),
    }
}

/// A* from `(gcell, layer)` to `(gcell, layer)`. Returns the node
/// path (start to goal inclusive) as `(layer, x, y)` steps.
///
/// `ub_millis` is a branch-and-bound upper bound (usually the best
/// dirty pattern candidate's cost): states whose admissible `g + h`
/// exceeds it cannot beat the known path and are never pushed. Pass
/// `u64::MAX` for an unbounded search.
///
/// Tries the window schedule, then the full grid; `None` when every
/// attempt exhausts its exploration budget (heavily blocked region)
/// or the upper bound prunes the goal.
fn search(
    shared: &SearchShared,
    grid: &RouteGrid,
    scratch: &mut SearchScratch,
    src: (BinIx, u16),
    dst: (BinIx, u16),
    ub_millis: u64,
) -> Option<Vec<(u16, u16, u16)>> {
    let sl = (src.1 as usize).min(shared.layers - 1);
    let gl = (dst.1 as usize).min(shared.layers - 1);
    let (sx, sy) = (src.0.x as usize, src.0.y as usize);
    let (gx, gy) = (dst.0.x as usize, dst.0.y as usize);

    let (bx0, bx1) = (sx.min(gx), sx.max(gx));
    let (by0, by1) = (sy.min(gy), sy.max(gy));
    for (attempt, &margin) in WINDOW_MARGINS
        .iter()
        .chain(std::iter::once(&usize::MAX))
        .enumerate()
    {
        let window = (
            bx0.saturating_sub(margin),
            by0.saturating_sub(margin),
            bx1.saturating_add(margin).min(shared.nx - 1),
            by1.saturating_add(margin).min(shared.ny - 1),
        );
        if attempt > 0 {
            WINDOW_EXPANSIONS.inc();
            // a strictly larger window is a different search; a
            // same-size one (bbox already hit the grid edge) is not
            if window
                == (
                    bx0.saturating_sub(WINDOW_MARGINS[attempt - 1]),
                    by0.saturating_sub(WINDOW_MARGINS[attempt - 1]),
                    bx1.saturating_add(WINDOW_MARGINS[attempt - 1])
                        .min(shared.nx - 1),
                    by1.saturating_add(WINDOW_MARGINS[attempt - 1])
                        .min(shared.ny - 1),
                )
            {
                continue;
            }
        }
        if let Some(path) = attempt_search(
            shared,
            grid,
            scratch,
            (sl, sx, sy),
            (gl, gx, gy),
            window,
            ub_millis,
        ) {
            return Some(path);
        }
    }
    None
}

/// One windowed A* attempt; `None` when the exploration budget runs
/// out before reaching the goal.
#[allow(clippy::too_many_arguments)]
fn attempt_search(
    shared: &SearchShared,
    grid: &RouteGrid,
    scratch: &mut SearchScratch,
    (sl, sx, sy): (usize, usize, usize),
    (gl, gx, gy): (usize, usize, usize),
    (wx0, wy0, wx1, wy1): (usize, usize, usize, usize),
    ub_millis: u64,
) -> Option<Vec<(u16, u16, u16)>> {
    scratch.epoch += 1;
    let epoch = scratch.epoch;
    scratch.open.clear();

    let min_wire = shared.min_layer_cost;
    let min_via = shared.min_via_cost;
    // admissible remaining-cost floor; EPSILON inflates it only in
    // the heap ordering, never in the upper-bound prune
    let h = |l: usize, x: usize, y: usize| -> f32 {
        let dx = x.abs_diff(gx) as f32;
        let dy = y.abs_diff(gy) as f32;
        let dl = l.abs_diff(gl) as f32;
        (dx + dy) * min_wire + dl * min_via
    };

    let start = shared.node(sl, sx, sy);
    let s = &mut scratch.nodes[start];
    s.dist = 0.0;
    s.stamp = epoch;
    s.parent = u32::MAX;
    scratch
        .open
        .push(to_millis(h(sl, sx, sy) * EPSILON), pack(sl, sx, sy));

    // exploration budget proportional to the path length, capped by
    // the window volume: stuck searches fail fast and retry wider
    let span = sx.abs_diff(gx) + sy.abs_diff(gy) + sl.abs_diff(gl);
    let window_nodes = (wx1 - wx0 + 1) * (wy1 - wy0 + 1) * shared.layers;
    let explore_cap = ((span + 24) * 512).min(window_nodes);

    let mut explored = 0usize;
    while let Some((_, packed)) = scratch.open.pop() {
        let (l, x, y) = unpack(packed);
        let n = shared.node(l, x, y);
        if scratch.nodes[n].closed == epoch {
            continue;
        }
        scratch.nodes[n].closed = epoch;
        if l == gl && x == gx && y == gy {
            SEARCH_NODES.add(explored as u64);
            return Some(reconstruct(shared, scratch, packed));
        }
        explored += 1;
        if explored > explore_cap {
            break;
        }
        let g = scratch.nodes[n].dist;

        // wire steps along the layer's preferred direction, clipped
        // to the window
        match shared.dirs[l] {
            Direction::Horizontal => {
                if x > wx0 {
                    let e = grid.h_edge(l, x - 1, y);
                    relax(
                        shared,
                        scratch,
                        packed,
                        (l, x - 1, y),
                        g + grid.cost(e),
                        &h,
                        ub_millis,
                    );
                }
                if x < wx1 {
                    let e = grid.h_edge(l, x, y);
                    relax(
                        shared,
                        scratch,
                        packed,
                        (l, x + 1, y),
                        g + grid.cost(e),
                        &h,
                        ub_millis,
                    );
                }
            }
            Direction::Vertical => {
                if y > wy0 {
                    let e = grid.v_edge(l, x, y - 1);
                    relax(
                        shared,
                        scratch,
                        packed,
                        (l, x, y - 1),
                        g + grid.cost(e),
                        &h,
                        ub_millis,
                    );
                }
                if y < wy1 {
                    let e = grid.v_edge(l, x, y);
                    relax(
                        shared,
                        scratch,
                        packed,
                        (l, x, y + 1),
                        g + grid.cost(e),
                        &h,
                        ub_millis,
                    );
                }
            }
        }
        // via steps (per-cut costs; the F2F bond is cheap)
        if l + 1 < shared.layers {
            let c = shared.via_costs.get(l).copied().unwrap_or(min_via);
            relax(shared, scratch, packed, (l + 1, x, y), g + c, &h, ub_millis);
        }
        if l > 0 {
            let c = shared.via_costs.get(l - 1).copied().unwrap_or(min_via);
            relax(shared, scratch, packed, (l - 1, x, y), g + c, &h, ub_millis);
        }
    }
    SEARCH_NODES.add(explored as u64);
    None
}

#[inline]
#[allow(clippy::too_many_arguments)]
fn relax(
    shared: &SearchShared,
    scratch: &mut SearchScratch,
    from: u32,
    (l, x, y): (usize, usize, usize),
    g: f32,
    h: &impl Fn(usize, usize, usize) -> f32,
    ub_millis: u64,
) {
    if !g.is_finite() {
        return; // blocked edge
    }
    let epoch = scratch.epoch;
    let node = &mut scratch.nodes[shared.node(l, x, y)];
    if node.stamp != epoch || g < node.dist {
        let hv = h(l, x, y);
        // branch-and-bound: a state whose admissible f already
        // exceeds the known pattern path cannot improve on it
        if to_millis(g + hv) > ub_millis {
            return;
        }
        node.stamp = epoch;
        node.dist = g;
        node.parent = from;
        scratch
            .open
            .push(to_millis(g + hv * EPSILON), pack(l, x, y));
    }
}

fn reconstruct(shared: &SearchShared, scratch: &SearchScratch, goal: u32) -> Vec<(u16, u16, u16)> {
    let mut path = Vec::new();
    let mut p = goal;
    loop {
        let (l, x, y) = unpack(p);
        path.push((l as u16, x as u16, y as u16));
        let up = scratch.nodes[shared.node(l, x, y)].parent;
        if up == u32::MAX {
            break;
        }
        p = up;
    }
    path.reverse();
    path
}

/// Degenerate L-shaped fallback path (x then y on the source layer,
/// then via stack to the goal layer).
fn l_fallback(src: (BinIx, u16), dst: (BinIx, u16), layers: usize) -> Vec<(u16, u16, u16)> {
    let mut path = Vec::new();
    let l0 = src.1.min(layers as u16 - 1);
    let l1 = dst.1.min(layers as u16 - 1);
    let (x0, y0) = (src.0.x as i64, src.0.y as i64);
    let (x1, y1) = (dst.0.x as i64, dst.0.y as i64);
    let mut x = x0;
    let mut y = y0;
    path.push((l0, x as u16, y as u16));
    while x != x1 {
        x += (x1 - x).signum();
        path.push((l0, x as u16, y as u16));
    }
    while y != y1 {
        y += (y1 - y).signum();
        path.push((l0, x as u16, y as u16));
    }
    let mut l = l0 as i64;
    while l != l1 as i64 {
        l += (l1 as i64 - l).signum();
        path.push((l as u16, x as u16, y as u16));
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// Random pushes and pops against the `BinaryHeap` the open list
    /// replaced: every pop must return the same `(key, coord)`. Keys
    /// come from a small pool, so duplicates (and duplicate entries)
    /// are common, and a quarter of them are at or above 2^32, up to
    /// the saturated `u64::MAX` of `to_millis`.
    #[test]
    fn open_list_pops_in_binary_heap_order() {
        for seed in 0..40u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let pool: Vec<u64> = (0..12)
                .map(|k| match k % 4 {
                    0 => rng.gen_range((1u64 << 32)..=u64::MAX),
                    1 => rng.gen_range(0..64u64),
                    _ => rng.gen_range(0..(1u64 << 32)),
                })
                .chain([0, (1 << 32) - 1, 1 << 32, u64::MAX])
                .collect();
            let mut open = OpenList::default();
            let mut oracle: BinaryHeap<(Reverse<u64>, u32)> = BinaryHeap::new();
            for step in 0..3000 {
                if step % 700 == 699 {
                    open.clear();
                    oracle.clear();
                }
                if rng.gen_bool(0.55) {
                    let key = pool[rng.gen_range(0..pool.len())];
                    let coord = match rng.gen_range(0..3u8) {
                        0 => rng.gen_range(0..4u32),
                        1 => u32::MAX - rng.gen_range(0..4u32),
                        _ => rng.gen_range(0..=u32::MAX),
                    };
                    open.push(key, coord);
                    oracle.push((Reverse(key), coord));
                } else {
                    let want = oracle.pop().map(|(Reverse(k), c)| (k, c));
                    assert_eq!(open.pop(), want, "seed {seed} step {step}");
                }
            }
            while let Some((Reverse(k), c)) = oracle.pop() {
                assert_eq!(open.pop(), Some((k, c)), "seed {seed} drain");
            }
            assert_eq!(open.pop(), None);
        }
    }

    /// The menu's candidates in the order the replaced full sort gave
    /// them: bound by `total_cmp`, then layer pair, then corner.
    fn menu_by_full_sort(cands: &[(f32, usize, usize, bool)]) -> Vec<(usize, usize, bool)> {
        let mut sorted = cands.to_vec();
        sorted.sort_by(|a, b| {
            a.0.total_cmp(&b.0)
                .then(a.1.cmp(&b.1))
                .then(a.2.cmp(&b.2))
                .then(a.3.cmp(&b.3))
        });
        sorted
            .iter()
            .take(PATTERN_CANDIDATES)
            .map(|&(_, lh, lv, x)| (lh, lv, x))
            .collect()
    }

    /// Random menus shaped like `pattern_route`'s (every horizontal ×
    /// vertical layer pair in both corners, or one entry per layer for
    /// a straight leg) whose bounds come from a pool of a few values,
    /// so many candidates tie on the bound.
    #[test]
    fn pattern_menu_matches_a_full_sort() {
        for seed in 0..300u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let layers = rng.gen_range(2..=24usize);
            let h: Vec<usize> = (0..layers).filter(|l| l % 2 == 0).collect();
            let v: Vec<usize> = (0..layers).filter(|l| l % 2 == 1).collect();
            let pool: Vec<f32> = (0..rng.gen_range(1..=5usize))
                .map(|_| rng.gen_range(0..40u32) as f32 * 0.5)
                .chain([0.0, -0.0, 1e30, -1.5])
                .collect();
            let mut bound = || pool[rng.gen_range(0..pool.len())];
            let mut cands = Vec::new();
            match seed % 3 {
                0 => cands.extend(h.iter().map(|&lh| (bound(), lh, lh, true))),
                1 => cands.extend(v.iter().map(|&lv| (bound(), lv, lv, true))),
                _ => {
                    for &lh in &h {
                        for &lv in &v {
                            cands.push((bound(), lh, lv, true));
                            cands.push((bound(), lh, lv, false));
                        }
                    }
                }
            }
            let mut keys: Vec<u64> = cands
                .iter()
                .map(|&(b, lh, lv, x)| menu_key(b, lh, lv, x))
                .collect();
            select_menu(&mut keys);
            let got: Vec<_> = keys.iter().map(|&k| menu_layers(k)).collect();
            assert_eq!(got, menu_by_full_sort(&cands), "seed {seed}");
        }
    }

    #[test]
    fn pack_roundtrips() {
        for (l, x, y) in [(0, 0, 0), (9, 4095, 4095), (255, 17, 2049)] {
            assert_eq!(unpack(pack(l, x, y)), (l, x, y));
        }
    }

    #[test]
    fn l_fallback_connects_and_changes_layer() {
        let p = l_fallback((BinIx::new(1, 1), 0), (BinIx::new(4, 3), 2), 6);
        assert_eq!(p.first(), Some(&(0u16, 1u16, 1u16)));
        assert_eq!(p.last(), Some(&(2u16, 4u16, 3u16)));
        // contiguous steps
        for w in p.windows(2) {
            let d = w[0].0.abs_diff(w[1].0) + w[0].1.abs_diff(w[1].1) + w[0].2.abs_diff(w[1].2);
            assert_eq!(d, 1, "single-step path: {w:?}");
        }
    }
}

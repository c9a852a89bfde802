//! Fiduccia–Mattheyses hypergraph bipartitioning.
//!
//! Used twice in the reproduction: by recursive-bisection global
//! placement (this crate) and by the Shrunk-2D/Compact-2D *tier
//! partitioning* step (the `macro3d` flows crate), which splits placed
//! cells across the two dies of the F2F stack.

/// A hypergraph with vertex areas and optional per-net anchors.
///
/// An anchor acts as an immovable pin on side 0 or 1 (terminal
/// propagation: the projection of pins outside the current placement
/// region, or pre-assigned cells in tier partitioning).
#[derive(Clone, Debug, Default)]
pub struct Hypergraph {
    vertex_area: Vec<f64>,
    /// CSR nets → vertices.
    net_offsets: Vec<u32>,
    pins: Vec<u32>,
    net_anchor: Vec<i8>,
    /// CSR vertices → nets.
    vert_offsets: Vec<u32>,
    vert_nets: Vec<u32>,
}

impl Hypergraph {
    /// Starts building a hypergraph with the given vertex areas.
    pub fn builder(vertex_area: Vec<f64>) -> HypergraphBuilder {
        HypergraphBuilder {
            vertex_area,
            net_offsets: vec![0],
            pins: Vec::new(),
            anchors: Vec::new(),
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.vertex_area.len()
    }

    /// Number of nets.
    pub fn num_nets(&self) -> usize {
        self.net_anchor.len()
    }

    fn net_pins(&self, net: usize) -> &[u32] {
        &self.pins[self.net_offsets[net] as usize..self.net_offsets[net + 1] as usize]
    }

    fn vertex_nets(&self, v: usize) -> &[u32] {
        &self.vert_nets[self.vert_offsets[v] as usize..self.vert_offsets[v + 1] as usize]
    }

    /// Number of nets cut by an assignment (anchors count as pins on
    /// their side).
    pub fn cut_size(&self, side: &[u8]) -> usize {
        (0..self.num_nets())
            .filter(|&n| {
                let mut seen = [false, false];
                if self.net_anchor[n] >= 0 {
                    seen[self.net_anchor[n] as usize] = true;
                }
                for &p in self.net_pins(n) {
                    seen[side[p as usize] as usize] = true;
                }
                seen[0] && seen[1]
            })
            .count()
    }
}

/// Builder for [`Hypergraph`]. Nets accumulate straight into the
/// final net → vertex CSR, one allocation for all of them.
#[derive(Clone, Debug)]
pub struct HypergraphBuilder {
    vertex_area: Vec<f64>,
    net_offsets: Vec<u32>,
    pins: Vec<u32>,
    anchors: Vec<i8>,
}

impl HypergraphBuilder {
    /// Adds a net over the given vertices with an optional anchor side
    /// (0 or 1).
    ///
    /// # Panics
    ///
    /// Panics if a vertex id is out of range or the anchor is not in
    /// {0, 1}.
    pub fn add_net(&mut self, vertices: &[u32], anchor: Option<u8>) {
        for &v in vertices {
            assert!((v as usize) < self.vertex_area.len(), "vertex out of range");
        }
        if let Some(a) = anchor {
            assert!(a < 2, "anchor side must be 0 or 1");
        }
        self.pins.extend_from_slice(vertices);
        self.net_offsets.push(self.pins.len() as u32);
        self.anchors.push(anchor.map(|a| a as i8).unwrap_or(-1));
    }

    /// Finalises the CSR representation.
    pub fn build(self) -> Hypergraph {
        let nv = self.vertex_area.len();
        // vertex -> nets CSR
        let mut vert_offsets = vec![0u32; nv + 1];
        for &v in &self.pins {
            vert_offsets[v as usize + 1] += 1;
        }
        for i in 0..nv {
            vert_offsets[i + 1] += vert_offsets[i];
        }
        let mut vert_nets = vec![0u32; vert_offsets[nv] as usize];
        let mut cursor = vert_offsets.clone();
        for (n, net) in self.net_offsets.windows(2).enumerate() {
            for &v in &self.pins[net[0] as usize..net[1] as usize] {
                vert_nets[cursor[v as usize] as usize] = n as u32;
                cursor[v as usize] += 1;
            }
        }
        Hypergraph {
            vertex_area: self.vertex_area,
            net_offsets: self.net_offsets,
            pins: self.pins,
            net_anchor: self.anchors,
            vert_offsets,
            vert_nets,
        }
    }
}

/// FM configuration.
#[derive(Clone, Copy, Debug)]
pub struct FmConfig {
    /// Number of full FM passes.
    pub passes: usize,
    /// Allowed deviation of side areas from their targets, as a
    /// fraction of total area.
    pub balance_tol: f64,
}

impl Default for FmConfig {
    fn default() -> Self {
        FmConfig {
            passes: 2,
            balance_tol: 0.05,
        }
    }
}

/// Bipartitions a hypergraph minimising the cut, with side-0 area
/// targeted at `target_frac_a` of the total.
///
/// Returns the side (0/1) per vertex. Deterministic for a given
/// input: the initial assignment (when `init` is `None`) fills side 0
/// in vertex order until the target area is reached.
///
/// # Panics
///
/// Panics if `init` is provided with the wrong length, or
/// `target_frac_a` is outside `(0, 1)`.
pub fn bipartition(
    hg: &Hypergraph,
    target_frac_a: f64,
    init: Option<Vec<u8>>,
    cfg: &FmConfig,
) -> Vec<u8> {
    assert!(
        target_frac_a > 0.0 && target_frac_a < 1.0,
        "target fraction must be in (0,1)"
    );
    let nv = hg.num_vertices();
    let total_area: f64 = hg.vertex_area.iter().sum();
    let target_a = total_area * target_frac_a;
    let tol = total_area * cfg.balance_tol;

    let mut side: Vec<u8> = match init {
        Some(s) => {
            assert_eq!(s.len(), nv, "init length mismatch");
            s
        }
        None => {
            let mut s = vec![1u8; nv];
            let mut acc = 0.0;
            for (v, sv) in s.iter_mut().enumerate() {
                if acc < target_a {
                    *sv = 0;
                    acc += hg.vertex_area[v];
                }
            }
            s
        }
    };
    if nv == 0 {
        return side;
    }

    for pass in 0..cfg.passes {
        // budget checkpoint: an early stop keeps the current (always
        // balanced) assignment — each completed pass only improves the
        // cut, so best-so-far is the state as it stands
        if let macro3d_par::Checkpoint::Stop(reason) = macro3d_par::checkpoint("place/fm_passes") {
            macro3d_par::note_degradation(
                "place/fm_passes",
                reason,
                format!("stopped after {pass} of {} FM passes", cfg.passes),
            );
            break;
        }
        let improved = fm_pass(hg, &mut side, target_a, tol);
        if !improved {
            break;
        }
    }
    side
}

/// Bucket-list gain structure (the classic FM data structure).
///
/// Gains are bounded by the maximum vertex degree, so free vertices
/// live in `2 * max_degree + 1` buckets indexed by gain. Each bucket
/// is a bitset over vertex ids, so selection is deterministic: the
/// best vertex is the one with maximum gain, ties broken toward the
/// smallest id (the lowest set bit). `fm_pass_reference` and the
/// ordered-set buckets of the tests hold every pass to that order.
struct GainBuckets {
    offset: i32,
    /// `u64` words per bucket (one bit per vertex id).
    words: usize,
    /// bucket-major bitsets: bucket `b` owns
    /// `bits[b * words..(b + 1) * words]`.
    bits: Vec<u64>,
    /// live vertices per bucket.
    len: Vec<u32>,
    /// per bucket, the lowest word that may hold a set bit (a lower
    /// bound: raised by [`Self::pop_best`]'s scan, lowered by inserts).
    first_word: Vec<usize>,
    /// Highest bucket index that may be non-empty (monotonically
    /// repaired in [`Self::pop_best`]).
    max_bucket: usize,
    live: usize,
}

impl GainBuckets {
    fn new(max_degree: usize, num_vertices: usize) -> Self {
        let buckets = 2 * max_degree + 1;
        let words = num_vertices.div_ceil(64);
        GainBuckets {
            offset: max_degree as i32,
            words,
            bits: vec![0; buckets * words],
            len: vec![0; buckets],
            first_word: vec![words; buckets],
            max_bucket: 0,
            live: 0,
        }
    }

    #[inline]
    fn ix(&self, gain: i32) -> usize {
        (gain + self.offset) as usize
    }

    /// Sets `v`'s bit in bucket `ix`.
    #[inline]
    fn add(&mut self, ix: usize, v: u32) {
        let w = v as usize / 64;
        self.bits[ix * self.words + w] |= 1 << (v % 64);
        self.len[ix] += 1;
        self.first_word[ix] = self.first_word[ix].min(w);
        self.max_bucket = self.max_bucket.max(ix);
    }

    fn insert(&mut self, v: u32, gain: i32) {
        let ix = self.ix(gain);
        self.add(ix, v);
        self.live += 1;
    }

    /// Moves `v` from its `old`-gain bucket to the `new` one.
    fn update(&mut self, v: u32, old: i32, new: i32) {
        let old_ix = self.ix(old);
        let word = &mut self.bits[old_ix * self.words + v as usize / 64];
        let mask = 1 << (v % 64);
        if *word & mask != 0 {
            *word &= !mask;
            self.len[old_ix] -= 1;
            let new_ix = self.ix(new);
            self.add(new_ix, v);
        }
    }

    /// Removes and returns the best free vertex (max gain, min id).
    fn pop_best(&mut self) -> Option<u32> {
        if self.live == 0 {
            return None;
        }
        loop {
            let b = self.max_bucket;
            if self.len[b] > 0 {
                let row = &mut self.bits[b * self.words..(b + 1) * self.words];
                let mut w = self.first_word[b];
                while row[w] == 0 {
                    w += 1;
                }
                let bit = row[w].trailing_zeros();
                row[w] &= row[w] - 1;
                self.first_word[b] = w;
                self.len[b] -= 1;
                self.live -= 1;
                return Some((w * 64) as u32 + bit);
            }
            if self.max_bucket == 0 {
                return None;
            }
            self.max_bucket -= 1;
        }
    }
}

/// One FM pass: every vertex moved at most once; rolls back to the
/// best prefix. Returns whether the cut improved.
///
/// Gains are computed once up front and *delta-updated* on each move
/// commit (the Fiduccia–Mattheyses update rules), so a pass costs
/// O(pins) bucket operations instead of re-deriving every touched
/// vertex's gain from its full net list.
fn fm_pass(hg: &Hypergraph, side: &mut [u8], target_a: f64, tol: f64) -> bool {
    let nv = hg.num_vertices();
    let nn = hg.num_nets();

    // pin counts per net per side (anchors are permanent pins)
    let mut cnt = vec![[0i32; 2]; nn];
    for n in 0..nn {
        if hg.net_anchor[n] >= 0 {
            cnt[n][hg.net_anchor[n] as usize] += 1;
        }
        for &p in hg.net_pins(n) {
            cnt[n][side[p as usize] as usize] += 1;
        }
    }
    let mut area = [0.0f64; 2];
    for v in 0..nv {
        area[side[v] as usize] += hg.vertex_area[v];
    }

    let max_degree = (0..nv).map(|v| hg.vertex_nets(v).len()).max().unwrap_or(0);
    let mut buckets = GainBuckets::new(max_degree, nv);
    let mut gain = vec![0i32; nv];
    for (v, g) in gain.iter_mut().enumerate() {
        let from = side[v] as usize;
        let to = 1 - from;
        for &n in hg.vertex_nets(v) {
            let c = cnt[n as usize];
            if c[from] == 1 {
                *g += 1;
            }
            if c[to] == 0 {
                *g -= 1;
            }
        }
        buckets.insert(v as u32, *g);
    }
    let mut locked = vec![false; nv];

    let mut moves: Vec<usize> = Vec::with_capacity(nv);
    let mut cum_gain = 0i32;
    let mut best_gain = 0i32;
    let mut best_len = 0usize;

    while let Some(v) = buckets.pop_best() {
        let v = v as usize;
        let from = side[v] as usize;
        let to = 1 - from;
        // balance check: side-0 area must stay within target ± tol
        let new_a0 = match (from, to) {
            (0, 1) => area[0] - hg.vertex_area[v],
            _ => area[0] + hg.vertex_area[v],
        };
        // accept if within tolerance, or if it improves an
        // already-out-of-balance state
        let cur_dev = (area[0] - target_a).abs();
        let new_dev = (new_a0 - target_a).abs();
        if new_dev > tol && new_dev >= cur_dev {
            locked[v] = true;
            continue;
        }

        // apply move
        locked[v] = true;
        area[from] -= hg.vertex_area[v];
        area[to] += hg.vertex_area[v];
        side[v] = to as u8;
        cum_gain += gain[v];
        moves.push(v);
        if cum_gain > best_gain {
            best_gain = cum_gain;
            best_len = moves.len();
        }

        // FM delta-gain updates: only pins whose gain actually changes
        // are touched, before and after the net's side counts move.
        let delta = |p: usize, d: i32, gain: &mut [i32], buckets: &mut GainBuckets| {
            let new = gain[p] + d;
            buckets.update(p as u32, gain[p], new);
            gain[p] = new;
        };
        for &n in hg.vertex_nets(v) {
            let n = n as usize;
            if cnt[n][to] == 0 {
                // the net was uncut away from `to`: every free pin now
                // gains from no longer cutting it by leaving
                for &p in hg.net_pins(n) {
                    let p = p as usize;
                    if !locked[p] {
                        delta(p, 1, &mut gain, &mut buckets);
                    }
                }
            } else if cnt[n][to] == 1 {
                // the lone `to`-side pin loses its uncut-by-moving gain
                for &p in hg.net_pins(n) {
                    let p = p as usize;
                    if p != v && side[p] as usize == to {
                        if !locked[p] {
                            delta(p, -1, &mut gain, &mut buckets);
                        }
                        break;
                    }
                }
            }
            cnt[n][from] -= 1;
            cnt[n][to] += 1;
            if cnt[n][from] == 0 {
                // the net left `from` entirely: moving a pin back would
                // re-cut it
                for &p in hg.net_pins(n) {
                    let p = p as usize;
                    if !locked[p] {
                        delta(p, -1, &mut gain, &mut buckets);
                    }
                }
            } else if cnt[n][from] == 1 {
                // the lone remaining `from`-side pin can now uncut the
                // net by following
                for &p in hg.net_pins(n) {
                    let p = p as usize;
                    if p != v && side[p] as usize == from {
                        if !locked[p] {
                            delta(p, 1, &mut gain, &mut buckets);
                        }
                        break;
                    }
                }
            }
        }
    }

    // roll back past the best prefix
    for &v in &moves[best_len..] {
        side[v] ^= 1;
    }
    FM_PASSES.inc();
    FM_GAIN.add(best_gain.max(0) as u64);
    best_gain > 0
}

/// Executed FM passes across all bisection nodes (commutative, so
/// safe under the fork-join placer).
static FM_PASSES: macro3d_obs::SiteCounter = macro3d_obs::SiteCounter::new("place/fm_passes");
/// Total cut-gain kept by those passes.
static FM_GAIN: macro3d_obs::SiteCounter = macro3d_obs::SiteCounter::new("place/fm_gain");

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// The pre-incremental FM pass (full `gain_of` recompute around a
    /// lazy max-heap), kept verbatim as the reference the delta-update
    /// implementation must match move for move.
    fn fm_pass_reference(hg: &Hypergraph, side: &mut [u8], target_a: f64, tol: f64) -> bool {
        let nv = hg.num_vertices();
        let nn = hg.num_nets();

        let mut cnt = vec![[0i32; 2]; nn];
        for n in 0..nn {
            if hg.net_anchor[n] >= 0 {
                cnt[n][hg.net_anchor[n] as usize] += 1;
            }
            for &p in hg.net_pins(n) {
                cnt[n][side[p as usize] as usize] += 1;
            }
        }
        let mut area = [0.0f64; 2];
        for v in 0..nv {
            area[side[v] as usize] += hg.vertex_area[v];
        }

        let gain_of = |v: usize, side: &[u8], cnt: &[[i32; 2]]| -> i32 {
            let from = side[v] as usize;
            let to = 1 - from;
            let mut g = 0;
            for &n in hg.vertex_nets(v) {
                let c = cnt[n as usize];
                if c[from] == 1 {
                    g += 1;
                }
                if c[to] == 0 {
                    g -= 1;
                }
            }
            g
        };

        let mut heap: BinaryHeap<(i32, Reverse<usize>)> = BinaryHeap::new();
        let mut gain = vec![0i32; nv];
        for (v, g) in gain.iter_mut().enumerate() {
            *g = gain_of(v, side, &cnt);
            heap.push((*g, Reverse(v)));
        }
        let mut locked = vec![false; nv];

        let mut moves: Vec<usize> = Vec::with_capacity(nv);
        let mut cum_gain = 0i32;
        let mut best_gain = 0i32;
        let mut best_len = 0usize;

        while let Some((g, Reverse(v))) = heap.pop() {
            if locked[v] || g != gain[v] {
                continue;
            }
            let from = side[v] as usize;
            let to = 1 - from;
            let new_a0 = match (from, to) {
                (0, 1) => area[0] - hg.vertex_area[v],
                _ => area[0] + hg.vertex_area[v],
            };
            let cur_dev = (area[0] - target_a).abs();
            let new_dev = (new_a0 - target_a).abs();
            if new_dev > tol && new_dev >= cur_dev {
                locked[v] = true;
                continue;
            }

            locked[v] = true;
            area[from] -= hg.vertex_area[v];
            area[to] += hg.vertex_area[v];
            side[v] = to as u8;
            cum_gain += g;
            moves.push(v);
            if cum_gain > best_gain {
                best_gain = cum_gain;
                best_len = moves.len();
            }

            for &n in hg.vertex_nets(v) {
                let n = n as usize;
                cnt[n][from] -= 1;
                cnt[n][to] += 1;
                for &p in hg.net_pins(n) {
                    let p = p as usize;
                    if !locked[p] {
                        let g2 = gain_of(p, side, &cnt);
                        if g2 != gain[p] {
                            gain[p] = g2;
                            heap.push((g2, Reverse(p)));
                        }
                    }
                }
            }
        }

        for &v in &moves[best_len..] {
            side[v] ^= 1;
        }
        best_gain > 0
    }

    /// `bipartition` driven by the reference pass.
    fn bipartition_reference(hg: &Hypergraph, target_frac_a: f64, cfg: &FmConfig) -> Vec<u8> {
        let nv = hg.num_vertices();
        let total_area: f64 = hg.vertex_area.iter().sum();
        let target_a = total_area * target_frac_a;
        let tol = total_area * cfg.balance_tol;
        let mut side = vec![1u8; nv];
        let mut acc = 0.0;
        for (v, sv) in side.iter_mut().enumerate() {
            if acc < target_a {
                *sv = 0;
                acc += hg.vertex_area[v];
            }
        }
        if nv == 0 {
            return side;
        }
        for _ in 0..cfg.passes {
            if !fm_pass_reference(hg, &mut side, target_a, tol) {
                break;
            }
        }
        side
    }

    /// A reproducible random hypergraph: `nn` nets of 2–5 pins over
    /// `nv` vertices with mixed areas and occasional anchors.
    fn random_hypergraph(nv: usize, nn: usize, seed: u64) -> Hypergraph {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let areas: Vec<f64> = (0..nv).map(|_| rng.gen_range(0.5..2.0)).collect();
        let mut b = Hypergraph::builder(areas);
        for _ in 0..nn {
            let deg = rng.gen_range(2..=5.min(nv));
            let mut pins: Vec<u32> = Vec::with_capacity(deg);
            while pins.len() < deg {
                let v = rng.gen_range(0..nv) as u32;
                if !pins.contains(&v) {
                    pins.push(v);
                }
            }
            let anchor = if rng.gen_bool(0.2) {
                Some(rng.gen_range(0..2u8))
            } else {
                None
            };
            b.add_net(&pins, anchor);
        }
        b.build()
    }

    #[test]
    fn incremental_gains_match_full_recompute() {
        for (nv, nn, seed) in [
            (8, 12, 1u64),
            (40, 90, 2),
            (100, 250, 3),
            (100, 250, 4),
            (64, 300, 5),
        ] {
            let hg = random_hypergraph(nv, nn, seed);
            for (frac, tol, passes) in [(0.5, 0.08, 2), (0.3, 0.05, 4), (0.5, 0.02, 1)] {
                let cfg = FmConfig {
                    passes,
                    balance_tol: tol,
                };
                let fast = bipartition(&hg, frac, None, &cfg);
                let slow = bipartition_reference(&hg, frac, &cfg);
                assert_eq!(
                    fast, slow,
                    "partitions diverge for nv={nv} nn={nn} seed={seed} \
                     frac={frac} tol={tol} passes={passes}"
                );
            }
        }
    }

    /// The ordered-set bucket structure the bitsets replaced, kept as
    /// the oracle for [`GainBuckets`].
    struct BTreeGainBuckets {
        offset: i32,
        buckets: Vec<std::collections::BTreeSet<u32>>,
        max_bucket: usize,
        live: usize,
    }

    impl BTreeGainBuckets {
        fn new(max_degree: usize) -> Self {
            BTreeGainBuckets {
                offset: max_degree as i32,
                buckets: vec![Default::default(); 2 * max_degree + 1],
                max_bucket: 0,
                live: 0,
            }
        }

        fn ix(&self, gain: i32) -> usize {
            (gain + self.offset) as usize
        }

        fn insert(&mut self, v: u32, gain: i32) {
            let ix = self.ix(gain);
            self.buckets[ix].insert(v);
            self.max_bucket = self.max_bucket.max(ix);
            self.live += 1;
        }

        fn update(&mut self, v: u32, old: i32, new: i32) {
            let old_ix = self.ix(old);
            if self.buckets[old_ix].remove(&v) {
                let new_ix = self.ix(new);
                self.buckets[new_ix].insert(v);
                self.max_bucket = self.max_bucket.max(new_ix);
            }
        }

        fn pop_best(&mut self) -> Option<u32> {
            if self.live == 0 {
                return None;
            }
            loop {
                if let Some(&v) = self.buckets[self.max_bucket].first() {
                    self.buckets[self.max_bucket].remove(&v);
                    self.live -= 1;
                    return Some(v);
                }
                if self.max_bucket == 0 {
                    return None;
                }
                self.max_bucket -= 1;
            }
        }
    }

    /// Random FM-shaped sequences (insert every vertex, then gain
    /// updates of ±1..3 interleaved with pops, updates of popped
    /// vertices included) against the `BTreeSet` buckets: every pop
    /// must agree.
    #[test]
    fn bitset_buckets_match_btree_buckets() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..60u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let nv = rng.gen_range(1..=300usize);
            let max_degree = rng.gen_range(0..=6usize);
            let d = max_degree as i32;
            let mut fast = GainBuckets::new(max_degree, nv);
            let mut slow = BTreeGainBuckets::new(max_degree);
            let mut gain: Vec<i32> = (0..nv).map(|_| rng.gen_range(-d..=d)).collect();
            // insertion order is shuffled, like nothing in FM relies on it
            let mut order: Vec<u32> = (0..nv as u32).collect();
            for i in (1..nv).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
            for &v in &order {
                fast.insert(v, gain[v as usize]);
                slow.insert(v, gain[v as usize]);
            }
            loop {
                if rng.gen_bool(0.3) {
                    let want = slow.pop_best();
                    assert_eq!(fast.pop_best(), want, "seed {seed}");
                    if want.is_none() {
                        break;
                    }
                } else {
                    let v = rng.gen_range(0..nv);
                    let new = (gain[v] + rng.gen_range(-3..=3i32)).clamp(-d, d);
                    fast.update(v as u32, gain[v], new);
                    slow.update(v as u32, gain[v], new);
                    gain[v] = new;
                }
            }
            assert_eq!(fast.pop_best(), None);
        }
    }

    #[test]
    fn gain_buckets_pop_max_gain_min_id() {
        let mut b = GainBuckets::new(3, 10);
        b.insert(5, 1);
        b.insert(2, 1);
        b.insert(9, -3);
        b.insert(7, 3);
        assert_eq!(b.pop_best(), Some(7));
        // ties break toward the smaller id
        assert_eq!(b.pop_best(), Some(2));
        b.update(9, -3, 2);
        assert_eq!(b.pop_best(), Some(9));
        assert_eq!(b.pop_best(), Some(5));
        assert_eq!(b.pop_best(), None);
    }

    /// Two 4-cliques joined by a single net: the optimal cut is 1.
    fn two_clusters() -> Hypergraph {
        let mut b = Hypergraph::builder(vec![1.0; 8]);
        for c in [0u32, 4] {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    b.add_net(&[c + i, c + j], None);
                }
            }
        }
        b.add_net(&[0, 4], None); // bridge
        b.build()
    }

    #[test]
    fn finds_natural_clusters() {
        let hg = two_clusters();
        let side = bipartition(&hg, 0.5, None, &FmConfig::default());
        assert_eq!(hg.cut_size(&side), 1);
        // clusters stay together
        assert_eq!(side[0], side[1]);
        assert_eq!(side[1], side[2]);
        assert_eq!(side[2], side[3]);
        assert_eq!(side[4], side[5]);
        assert_ne!(side[0], side[4]);
    }

    #[test]
    fn respects_balance() {
        let hg = two_clusters();
        let side = bipartition(&hg, 0.5, None, &FmConfig::default());
        let a: f64 = side.iter().filter(|&&s| s == 0).count() as f64;
        assert!((a - 4.0).abs() <= 1.0);
    }

    #[test]
    fn anchors_pull_vertices() {
        // a path 0-1-2; anchor net on 0 to side 1
        let mut b = Hypergraph::builder(vec![1.0; 4]);
        b.add_net(&[0, 1], None);
        b.add_net(&[1, 2], None);
        b.add_net(&[2, 3], None);
        b.add_net(&[0], Some(1)); // pull vertex 0 to side 1
        b.add_net(&[3], Some(0)); // pull vertex 3 to side 0
        let hg = b.build();
        let side = bipartition(
            &hg,
            0.5,
            None,
            &FmConfig {
                passes: 4,
                balance_tol: 0.3,
            },
        );
        assert_eq!(side[0], 1, "anchored to side 1");
        assert_eq!(side[3], 0, "anchored to side 0");
    }

    #[test]
    fn initial_assignment_honours_target() {
        let mut b = Hypergraph::builder(vec![1.0; 10]);
        b.add_net(&[0, 9], None);
        let hg = b.build();
        let side = bipartition(
            &hg,
            0.3,
            None,
            &FmConfig {
                passes: 0,
                balance_tol: 0.05,
            },
        );
        let a = side.iter().filter(|&&s| s == 0).count();
        assert_eq!(a, 3);
    }

    #[test]
    fn cut_size_counts_anchored_nets() {
        let mut b = Hypergraph::builder(vec![1.0; 2]);
        b.add_net(&[0], Some(1));
        b.add_net(&[0, 1], None);
        let hg = b.build();
        // both vertices on side 0 => anchored net is cut, pair net is not
        assert_eq!(hg.cut_size(&[0, 0]), 1);
        // both on the anchor's side => nothing is cut
        assert_eq!(hg.cut_size(&[1, 1]), 0);
        // split pair: the pair net is cut, the anchored net is not
        assert_eq!(hg.cut_size(&[1, 0]), 1);
    }

    #[test]
    fn empty_graph() {
        let hg = Hypergraph::builder(vec![]).build();
        let side = bipartition(&hg, 0.5, None, &FmConfig::default());
        assert!(side.is_empty());
    }
}

//! Utilization maps, overlap checking, and the electrostatic density
//! model behind the analytical placer.
//!
//! The [`ElectroGrid`] implements the ePlace charge model: movable
//! cell area is deposited onto a uniform bin grid, blocked area enters
//! as fixed charge scaled to the target density, and the potential is
//! obtained from the Poisson equation `∇²ψ = −ρ'` (mean-subtracted
//! density, Neumann boundaries) via an FFT-free geometric multigrid
//! solver — weighted-Jacobi smoothing is order-independent, so the
//! solve is exactly reproducible. The negative potential gradient is
//! the electric field that pushes cells out of dense bins.

use crate::floorplan::Floorplan;
use crate::placement::Placement;
use macro3d_geom::{BinGrid, Dbu, Rect, RectIndex};
use macro3d_netlist::{Design, InstId};
use macro3d_par::{parallel_for_each_mut, Parallelism};

/// Per-bin standard-cell utilization (cell area / usable bin area).
///
/// Bins with zero usable area report a utilization of `f64::INFINITY`
/// when occupied, `0.0` otherwise.
pub fn utilization_map(
    design: &Design,
    fp: &Floorplan,
    placement: &Placement,
    insts: &[InstId],
    grid: &BinGrid,
) -> Vec<f64> {
    let mut used = vec![0.0f64; grid.len()];
    for &i in insts {
        let r = placement.rect(design, i);
        if let Some((lo, hi)) = grid.bins_overlapping(r) {
            for y in lo.y..=hi.y {
                for x in lo.x..=hi.x {
                    let ix = macro3d_geom::BinIx::new(x, y);
                    let bin = grid.bin_rect(ix);
                    if let Some(ov) = bin.intersection(r) {
                        used[grid.flat(ix)] += ov.area_um2();
                    }
                }
            }
        }
    }
    grid.iter()
        .map(|ix| {
            let usable = fp.usable_area_um2(grid.bin_rect(ix));
            let u = used[grid.flat(ix)];
            if usable <= 0.0 {
                if u > 0.0 {
                    f64::INFINITY
                } else {
                    0.0
                }
            } else {
                u / usable
            }
        })
        .collect()
}

/// Counts overlapping instance pairs among `insts` (zero after a
/// correct legalization).
pub fn count_overlaps(design: &Design, placement: &Placement, insts: &[InstId]) -> usize {
    if insts.is_empty() {
        return 0;
    }
    let mut bounds = Rect::empty();
    for &i in insts {
        bounds = bounds.union(placement.rect(design, i));
    }
    if bounds.is_empty() {
        return 0;
    }
    let bin = Dbu((bounds.width().0 / 64).max(1_000));
    let mut index: RectIndex<InstId> = RectIndex::new(bounds, bin);
    let mut overlaps = 0;
    for &i in insts {
        let r = placement.rect(design, i);
        overlaps += index.query(r).count();
        index.insert(r, i);
    }
    overlaps
}

/// Cells are deposited in fixed index chunks of this many cells, one
/// partial bin array per chunk, merged serially in chunk order. The
/// decomposition is independent of the thread count, so the f64 sums
/// see the same addition order for any [`Parallelism`].
const DENSITY_CHUNK: usize = 2048;

/// Jacobi damping factor (2/3 is the classic multigrid choice).
const JACOBI_OMEGA: f64 = 2.0 / 3.0;

/// The electrostatic bin grid of the analytical placer.
///
/// Uniform `nx × ny` bins over the die (power-of-two counts so the
/// multigrid hierarchy coarsens evenly). Bin geometry is kept in f64
/// µm: the solver never quantizes to [`Dbu`], positions are only
/// rounded once at the end of global placement.
#[derive(Clone, Debug)]
pub struct ElectroGrid {
    nx: usize,
    ny: usize,
    lo_x: f64,
    lo_y: f64,
    hx: f64,
    hy: f64,
    /// Usable (unblocked) area per bin, µm².
    usable: Vec<f64>,
    /// Fixed charge per bin: blocked area scaled by the target
    /// density, so a placement at exactly the target density over the
    /// free area produces a constant total density and zero field.
    fixed: Vec<f64>,
    /// Target density: 2× (movable area / usable area), clamped to
    /// `[0.15, 1.0]` — see [`ElectroGrid::build`].
    target: f64,
    /// Total movable cell area, µm² (overflow normalizer).
    total_movable: f64,
}

impl ElectroGrid {
    /// Builds the grid for a floorplan and movable-area total. Bin
    /// counts scale with `n_cells` (a handful of cells per bin) and
    /// are clamped to `[8, 64]` per axis.
    pub fn build(fp: &Floorplan, n_cells: usize, total_movable_um2: f64) -> Self {
        let side = ((n_cells as f64).sqrt() / 2.0).max(1.0) as usize;
        let side = side.next_power_of_two().clamp(8, 64);
        let die = fp.die();
        let (lo_x, lo_y) = (die.lo.x.to_um(), die.lo.y.to_um());
        let hx = die.width().to_um() / side as f64;
        let hy = die.height().to_um() / side as f64;
        let mut usable = Vec::with_capacity(side * side);
        for j in 0..side {
            for i in 0..side {
                let r = Rect::from_um(
                    lo_x + i as f64 * hx,
                    lo_y + j as f64 * hy,
                    lo_x + (i + 1) as f64 * hx,
                    lo_y + (j + 1) as f64 * hy,
                );
                usable.push(fp.usable_area_um2(r).max(0.0));
            }
        }
        let total_usable: f64 = usable.iter().sum();
        // Target density is *twice* the raw utilization (floored):
        // demanding bins at exactly the utilization would require a
        // perfectly uniform spread, which bin-granular density can
        // never reach on low-utilization designs — overflow would
        // plateau at the Poisson fluctuation level and the density
        // weight would grow without bound. Doubling gives each bin
        // headroom for natural clustering while still forcing the
        // placement apart.
        let target = if total_usable > 0.0 {
            (2.0 * total_movable_um2 / total_usable).clamp(0.15, 1.0)
        } else {
            1.0
        };
        let bin_area = hx * hy;
        let fixed = usable
            .iter()
            .map(|&u| target * (bin_area - u).max(0.0))
            .collect();
        ElectroGrid {
            nx: side,
            ny: side,
            lo_x,
            lo_y,
            hx,
            hy,
            usable,
            fixed,
            target,
            total_movable: total_movable_um2,
        }
    }

    /// Bins per axis.
    pub fn dims(&self) -> (usize, usize) {
        (self.nx, self.ny)
    }

    /// Nominal bin width, µm.
    pub fn bin_w_um(&self) -> f64 {
        self.hx
    }

    /// Nominal bin height, µm.
    pub fn bin_h_um(&self) -> f64 {
        self.hy
    }

    /// Buffers for [`Self::accumulate`], [`Self::potential`] and
    /// [`Self::field`] over `n_cells` movable cells: allocate once per
    /// placement, reuse every iteration.
    pub fn scratch(&self, n_cells: usize) -> ElectroScratch {
        let bins = self.nx * self.ny;
        let mut levels = Vec::new();
        let (mut nx, mut ny, mut hx, mut hy) = (self.nx, self.ny, self.hx, self.hy);
        loop {
            levels.push(MgLevel {
                nx,
                ny,
                hx,
                hy,
                psi: vec![0.0; nx * ny],
                rhs: vec![0.0; nx * ny],
                tmp: vec![0.0; nx * ny],
            });
            if nx <= 4 || ny <= 4 {
                break;
            }
            (nx, ny, hx, hy) = (nx / 2, ny / 2, hx * 2.0, hy * 2.0);
        }
        ElectroScratch {
            partials: vec![vec![0.0; bins]; n_cells.div_ceil(DENSITY_CHUNK)],
            bins: vec![0.0; bins],
            levels,
            ex: vec![0.0; bins],
            ey: vec![0.0; bins],
        }
    }

    /// Deposits movable cell area into `s.bins`. `pos` interleaves
    /// cell centres as `[x0, y0, x1, y1, …]` µm; `w`/`h` are the cell
    /// footprints, µm. Chunk decomposition and merge order are fixed
    /// (2048-cell chunks, partial bin arrays merged serially in
    /// chunk order), so the result is bit-identical for any thread
    /// count.
    ///
    /// # Panics
    ///
    /// Panics if `s` was built for fewer cells than `w.len()`.
    pub fn accumulate(
        &self,
        w: &[f64],
        h: &[f64],
        pos: &[f64],
        par: &Parallelism,
        s: &mut ElectroScratch,
    ) {
        let n = w.len();
        let partials = &mut s.partials[..n.div_ceil(DENSITY_CHUNK)];
        parallel_for_each_mut(partials, par, |c, bins| {
            bins.fill(0.0);
            for k in c * DENSITY_CHUNK..((c + 1) * DENSITY_CHUNK).min(n) {
                self.deposit(bins, pos[2 * k], pos[2 * k + 1], w[k], h[k]);
            }
        });
        s.bins.fill(0.0);
        for part in partials.iter() {
            for (b, p) in s.bins.iter_mut().zip(part) {
                *b += p;
            }
        }
    }

    /// Splats one cell's exact rectangle overlap over the bins it
    /// touches (cells are small relative to bins, so this is 1–4
    /// bins in practice).
    fn deposit(&self, bins: &mut [f64], cx: f64, cy: f64, w: f64, h: f64) {
        let (x0, x1) = (cx - w / 2.0 - self.lo_x, cx + w / 2.0 - self.lo_x);
        let (y0, y1) = (cy - h / 2.0 - self.lo_y, cy + h / 2.0 - self.lo_y);
        // `as usize` truncates toward zero and saturates negatives (and
        // NaN) to 0, which for a bin index is exactly
        // `floor().max(0.0) as usize` — without `floor`'s libm call
        let i0 = ((x0 / self.hx) as usize).min(self.nx - 1);
        let i1 = ((x1 / self.hx) as usize).min(self.nx - 1);
        let j0 = ((y0 / self.hy) as usize).min(self.ny - 1);
        let j1 = ((y1 / self.hy) as usize).min(self.ny - 1);
        // bin edges via u32, which converts to f64 in one instruction
        // (usize needs a multi-step sequence); the values are the same
        let edge = |k: usize, h: f64| f64::from(k as u32) * h;
        for j in j0..=j1 {
            let oy = (y1.min(edge(j + 1, self.hy)) - y0.max(edge(j, self.hy))).max(0.0);
            for i in i0..=i1 {
                let ox = (x1.min(edge(i + 1, self.hx)) - x0.max(edge(i, self.hx))).max(0.0);
                bins[j * self.nx + i] += ox * oy;
            }
        }
    }

    /// Density overflow: movable area beyond `target × usable` summed
    /// over bins, normalized by the total movable area. `0` means the
    /// placement fits everywhere; `~1` means everything is piled up.
    pub fn overflow(&self, movable: &[f64]) -> f64 {
        if self.total_movable <= 0.0 {
            return 0.0;
        }
        let over: f64 = movable
            .iter()
            .zip(&self.usable)
            .map(|(&m, &u)| (m - self.target * u).max(0.0))
            .sum();
        over / self.total_movable
    }

    /// Solves `∇²ψ = −ρ'` for the potential, where `ρ` is the total
    /// (movable + fixed) density of `s.bins` and `ρ'` its
    /// mean-subtracted version (the Neumann compatibility condition).
    /// Leaves `ψ` per bin in the scratch for [`Self::field`].
    pub fn potential(&self, s: &mut ElectroScratch) {
        let bin_area = self.hx * self.hy;
        let top = &mut s.levels[0];
        for ((r, &m), &f) in top.rhs.iter_mut().zip(&s.bins).zip(&self.fixed) {
            *r = (m + f) / bin_area;
        }
        let mean = top.rhs.iter().sum::<f64>() / top.rhs.len() as f64;
        for r in &mut top.rhs {
            *r -= mean;
        }
        top.psi.fill(0.0);
        for _ in 0..2 {
            vcycle(&mut s.levels);
        }
        let psi = &mut s.levels[0].psi;
        let mean = psi.iter().sum::<f64>() / psi.len() as f64;
        for p in psi {
            *p -= mean;
        }
    }

    /// Electric field `E = −∇ψ` per bin from the potential left by
    /// [`Self::potential`], into `s.ex`/`s.ey` (central differences
    /// inside, one-sided at the boundary).
    pub fn field(&self, s: &mut ElectroScratch) {
        let (nx, ny) = (self.nx, self.ny);
        let psi = &s.levels[0].psi;
        for j in 0..ny {
            for i in 0..nx {
                let at = j * nx + i;
                let (w, e, dx) = match i {
                    0 => (at, at + 1, self.hx),
                    _ if i == nx - 1 => (at - 1, at, self.hx),
                    _ => (at - 1, at + 1, 2.0 * self.hx),
                };
                s.ex[at] = -(psi[e] - psi[w]) / dx;
                let (sj, n, dy) = match j {
                    0 => (at, at + nx, self.hy),
                    _ if j == ny - 1 => (at - nx, at, self.hy),
                    _ => (at - nx, at + nx, 2.0 * self.hy),
                };
                s.ey[at] = -(psi[n] - psi[sj]) / dy;
            }
        }
    }

    /// Bilinear interpolation of bin-centred scalar maps at a point:
    /// the stencil (corner bins and fractions) is located once, and
    /// the returned closure samples any map at it.
    pub fn interpolator(&self, x: f64, y: f64) -> impl Fn(&[f64]) -> f64 {
        let nx = self.nx;
        let gx = ((x - self.lo_x) / self.hx - 0.5).clamp(0.0, (nx - 1) as f64);
        let gy = ((y - self.lo_y) / self.hy - 0.5).clamp(0.0, (self.ny - 1) as f64);
        let i0 = (gx as usize).min(nx.saturating_sub(2));
        let j0 = (gy as usize).min(self.ny.saturating_sub(2));
        let i1 = (i0 + 1).min(nx - 1);
        let j1 = (j0 + 1).min(self.ny - 1);
        let (fx, fy) = (gx - i0 as f64, gy - j0 as f64);
        move |map| {
            let v00 = map[j0 * nx + i0];
            let v10 = map[j0 * nx + i1];
            let v01 = map[j1 * nx + i0];
            let v11 = map[j1 * nx + i1];
            v00 * (1.0 - fx) * (1.0 - fy)
                + v10 * fx * (1.0 - fy)
                + v01 * (1.0 - fx) * fy
                + v11 * fx * fy
        }
    }
}

/// Reusable buffers of the density pipeline, built by
/// [`ElectroGrid::scratch`]: per-chunk partial bin arrays, the merged
/// bins, the multigrid hierarchy and the field components.
#[derive(Clone, Debug)]
pub struct ElectroScratch {
    partials: Vec<Vec<f64>>,
    /// Movable area per bin, µm² (written by [`ElectroGrid::accumulate`]).
    pub bins: Vec<f64>,
    /// Finest level first; the last level is solved by smoothing alone.
    levels: Vec<MgLevel>,
    /// Field `x` component per bin (written by [`ElectroGrid::field`]).
    pub ex: Vec<f64>,
    /// Field `y` component per bin (written by [`ElectroGrid::field`]).
    pub ey: Vec<f64>,
}

/// One multigrid level: its grid, iterate, right-hand side and a
/// scratch array (Jacobi's next iterate, then the residual).
#[derive(Clone, Debug)]
struct MgLevel {
    nx: usize,
    ny: usize,
    hx: f64,
    hy: f64,
    psi: Vec<f64>,
    rhs: Vec<f64>,
    tmp: Vec<f64>,
}

/// One multigrid V-cycle for `∇²ψ = −rhs` on `levels[0]`… expressed
/// as the residual equation `A ψ = rhs` with `A = −∇²` (SPD up to the
/// Neumann null space, which the mean subtraction removes).
fn vcycle(levels: &mut [MgLevel]) {
    let Some((level, coarser)) = levels.split_first_mut() else {
        return;
    };
    if coarser.is_empty() {
        level.smooth(64);
        return;
    }
    level.smooth(4);
    level.residual();
    restrict(&level.tmp, level.nx, level.ny, &mut coarser[0].rhs);
    coarser[0].psi.fill(0.0);
    vcycle(coarser);
    prolong_add(&mut level.psi, &coarser[0].psi, level.nx);
    level.smooth(4);
}

/// Writes `out[k] = f(nb, psi[k], rhs[k])` for every bin `k` of an
/// `nx × ny` grid, where `nb = cx·(W + E) + cy·(S + N)` sums the
/// bin's neighbours in `psi` with mirrored (Neumann) ghosts at the
/// boundary.
#[inline]
fn stencil(
    (psi, rhs, out): (&[f64], &[f64], &mut [f64]),
    (nx, ny): (usize, usize),
    (cx, cy): (f64, f64),
    f: impl Fn(f64, f64, f64) -> f64,
) {
    for j in 0..ny {
        let row = j * nx;
        let (s, n) = (j.saturating_sub(1) * nx, (j + 1).min(ny - 1) * nx);
        let here = &psi[row..row + nx];
        let (south, north) = (&psi[s..s + nx], &psi[n..n + nx]);
        let rhs = &rhs[row..row + nx];
        let out = &mut out[row..row + nx];
        for i in 0..nx {
            let (w, e) = (i.saturating_sub(1), (i + 1).min(nx - 1));
            let nb = cx * (here[w] + here[e]) + cy * (south[i] + north[i]);
            out[i] = f(nb, here[i], rhs[i]);
        }
    }
}

impl MgLevel {
    fn coefficients(&self) -> (f64, f64) {
        (1.0 / (self.hx * self.hx), 1.0 / (self.hy * self.hy))
    }

    /// `sweeps` damped-Jacobi iterations. Jacobi reads only the
    /// previous iterate, so the result is independent of traversal
    /// order — the property that makes the whole solve deterministic.
    fn smooth(&mut self, sweeps: usize) {
        let (cx, cy) = self.coefficients();
        let diag = 2.0 * (cx + cy);
        for _ in 0..sweeps {
            stencil(
                (&self.psi, &self.rhs, &mut self.tmp),
                (self.nx, self.ny),
                (cx, cy),
                |nb, psi, rhs| psi + JACOBI_OMEGA * ((nb + rhs) / diag - psi),
            );
            self.psi.copy_from_slice(&self.tmp);
        }
    }

    /// Residual `rhs − A ψ` with `A = −∇²` under mirrored boundaries,
    /// into `tmp`.
    fn residual(&mut self) {
        let (cx, cy) = self.coefficients();
        let diag = 2.0 * (cx + cy);
        stencil(
            (&self.psi, &self.rhs, &mut self.tmp),
            (self.nx, self.ny),
            (cx, cy),
            |nb, psi, rhs| rhs - (diag * psi - nb),
        );
    }
}

/// Full-weighting restriction: each coarse bin averages its 2×2 fine
/// children (dims are powers of two, so the split is exact).
fn restrict(fine: &[f64], nx: usize, ny: usize, coarse: &mut [f64]) {
    let (cnx, cny) = (nx / 2, ny / 2);
    for j in 0..cny {
        for i in 0..cnx {
            let f = |di: usize, dj: usize| fine[(2 * j + dj) * nx + 2 * i + di];
            coarse[j * cnx + i] = 0.25 * (f(0, 0) + f(1, 0) + f(0, 1) + f(1, 1));
        }
    }
}

/// Piecewise-constant prolongation (injection): each coarse value is
/// added to its 2×2 fine children; the post-smooth irons out the
/// blockiness.
fn prolong_add(fine: &mut [f64], coarse: &[f64], nx: usize) {
    let cnx = nx / 2;
    for (k, &c) in coarse.iter().enumerate() {
        let (i, j) = (k % cnx, k / cnx);
        for dj in 0..2 {
            for di in 0..2 {
                fine[(2 * j + dj) * nx + 2 * i + di] += c;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use macro3d_geom::Point;
    use macro3d_tech::{libgen::n28_library, CellClass};
    use std::sync::Arc;

    fn three_cells() -> (Design, Vec<InstId>, Placement) {
        let lib = Arc::new(n28_library(1.0));
        let inv = lib.smallest(CellClass::Inv).expect("inv");
        let mut d = Design::new("t", lib);
        let insts: Vec<InstId> = (0..3).map(|i| d.add_cell(format!("c{i}"), inv)).collect();
        let p = Placement::new(&d);
        (d, insts, p)
    }

    #[test]
    fn overlap_counting() {
        let (d, insts, mut p) = three_cells();
        // all at origin: 3 pairwise overlaps
        assert_eq!(count_overlaps(&d, &p, &insts), 3);
        p.pos[insts[1].index()] = Point::from_um(10.0, 0.0);
        p.pos[insts[2].index()] = Point::from_um(20.0, 0.0);
        assert_eq!(count_overlaps(&d, &p, &insts), 0);
    }

    #[test]
    fn electro_field_pushes_away_from_pile() {
        let fp = Floorplan::new(
            Rect::from_um(0.0, 0.0, 64.0, 64.0),
            Dbu::from_um(1.2),
            Dbu::from_um(0.2),
        );
        // 1000 unit cells piled in the lower-left corner
        let n = 1000usize;
        let (w, h): (Vec<f64>, Vec<f64>) = (vec![1.0; n], vec![1.0; n]);
        let mut pos = Vec::with_capacity(2 * n);
        for k in 0..n {
            pos.push(8.0 + (k % 10) as f64 * 0.1);
            pos.push(8.0 + (k / 10) as f64 * 0.01);
        }
        let grid = ElectroGrid::build(&fp, n, n as f64);
        let mut s = grid.scratch(n);
        grid.accumulate(&w, &h, &pos, &Parallelism::serial(), &mut s);
        assert!((s.bins.iter().sum::<f64>() - n as f64).abs() < 1e-6);
        assert!(grid.overflow(&s.bins) > 0.5, "pile should overflow");
        grid.potential(&mut s);
        grid.field(&mut s);
        // the field at a point right of the pile points further right
        // (away from the charge), and up above it points further up
        assert!(grid.interpolator(30.0, 8.0)(&s.ex) > 0.0);
        assert!(grid.interpolator(8.0, 30.0)(&s.ey) > 0.0);
        // uniform spread at target density ⇒ (near) zero overflow
        let mut spread = Vec::with_capacity(2 * n);
        for k in 0..n {
            spread.push(64.0 * ((k % 32) as f64 + 0.5) / 32.0);
            spread.push(64.0 * ((k / 32) as f64 + 0.5) / 32.0);
        }
        grid.accumulate(&w, &h, &spread, &Parallelism::serial(), &mut s);
        assert!(grid.overflow(&s.bins) < 0.05);
    }

    #[test]
    fn electro_accumulate_thread_count_invariant() {
        let fp = Floorplan::new(
            Rect::from_um(0.0, 0.0, 100.0, 50.0),
            Dbu::from_um(1.2),
            Dbu::from_um(0.2),
        );
        let n = 5000usize;
        let (w, h): (Vec<f64>, Vec<f64>) = (vec![0.7; n], vec![1.2; n]);
        let mut x = 99u64;
        let mut next = || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            (x >> 33) as f64 / (1u64 << 31) as f64
        };
        let pos: Vec<f64> = (0..2 * n)
            .map(|k| next() * if k % 2 == 0 { 100.0 } else { 50.0 })
            .collect();
        let grid = ElectroGrid::build(&fp, n, 0.84 * n as f64);
        let mut s = grid.scratch(n);
        grid.accumulate(&w, &h, &pos, &Parallelism::serial(), &mut s);
        let serial = s.bins.clone();
        for threads in [2, 8] {
            let par = Parallelism::threads(threads);
            grid.accumulate(&w, &h, &pos, &par, &mut s);
            assert!(
                serial
                    .iter()
                    .zip(&s.bins)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "threads={threads}: density bins differ bitwise"
            );
        }
    }

    #[test]
    fn poisson_recovers_smooth_potential() {
        // A smooth separable density on a square grid: the multigrid
        // solution must drive the residual far below the RHS norm.
        let fp = Floorplan::new(
            Rect::from_um(0.0, 0.0, 32.0, 32.0),
            Dbu::from_um(1.2),
            Dbu::from_um(0.2),
        );
        let grid = ElectroGrid::build(&fp, 4096, 100.0);
        let (nx, ny) = grid.dims();
        let mut s = grid.scratch(4096);
        let rhs = &mut s.levels[0].rhs;
        for j in 0..ny {
            for i in 0..nx {
                let fx = (i as f64 + 0.5) / nx as f64;
                let fy = (j as f64 + 0.5) / ny as f64;
                rhs[j * nx + i] =
                    (std::f64::consts::PI * fx).cos() * (std::f64::consts::PI * fy).cos();
            }
        }
        let mean = rhs.iter().sum::<f64>() / rhs.len() as f64;
        for r in rhs.iter_mut() {
            *r -= mean;
        }
        for _ in 0..4 {
            vcycle(&mut s.levels);
        }
        let top = &mut s.levels[0];
        top.residual();
        let norm = |v: &[f64]| v.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!(
            norm(&top.tmp) < 0.05 * norm(&top.rhs),
            "residual {} vs rhs {}",
            norm(&top.tmp),
            norm(&top.rhs)
        );
    }

    #[test]
    fn utilization_reflects_area() {
        let (d, insts, mut p) = three_cells();
        let fp = Floorplan::new(
            Rect::from_um(0.0, 0.0, 20.0, 20.0),
            Dbu::from_um(1.2),
            Dbu::from_um(0.2),
        );
        for (k, &i) in insts.iter().enumerate() {
            p.pos[i.index()] = Point::from_um(1.0 + k as f64, 1.0);
        }
        let grid = BinGrid::with_counts(fp.die(), 2, 2);
        let map = utilization_map(&d, &fp, &p, &insts, &grid);
        assert!(map[0] > 0.0, "cells occupy the lower-left bin");
        assert_eq!(map[3], 0.0, "upper-right bin is empty");
    }
}

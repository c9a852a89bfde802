//! ePlace-style analytical global placement.
//!
//! The second placer backend beside recursive bisection
//! ([`crate::global`]): cells are point charges whose area is spread
//! over the [`ElectroGrid`] bins, the Poisson potential of the
//! density field yields a spreading force, and a weighted-average
//! (WA) smooth wirelength supplies the attraction. The sum
//! `W(v) + λ·N(v)` is minimized by the Nesterov solver with the
//! inverse-Lipschitz step estimate and the ePlace preconditioner
//! (pin count + λ·charge per cell); λ grows geometrically until the
//! density overflow falls under the target.
//!
//! **Fused WA pass.** Each iteration runs two kernels. The net pass
//! computes every net's WA terms; each movable pin's two exponentials
//! per axis are evaluated once, summed into the net's terms, then
//! reused for that pin's gradient, which lands in a flat pin-slot
//! array. The cell pass sums its own slots in (net, pin) order and
//! adds the density term. Nets and cell→slot lists are flat CSR
//! arrays (`NetCsr`), and every buffer the loop touches is allocated
//! once per call.
//!
//! **Determinism.** Every hot kernel — the net and cell passes, bin
//! density accumulation, the Nesterov position update — runs through
//! the `macro3d-par` chunked primitives over immutable snapshots of
//! the iterate, and every reduction (λ calibration, norms, HPWL) is a
//! serial sum in fixed index order. Results are bit-identical for any
//! thread count (`tests/analytical_determinism.rs`).
//!
//! **Budget/fault awareness.** The iteration loop polls
//! `checkpoint("place/nesterov_iters")`; exhaustion keeps the
//! best-so-far (major) solution and reports the degradation, exactly
//! like the router's rip-up loop.

use crate::density::ElectroGrid;
use crate::floorplan::Floorplan;
use crate::global::{GlobalPlaceConfig, MAX_NET_DEGREE};
use crate::hpwl::pin_position;
use crate::nesterov::Nesterov;
use crate::placement::Placement;
use crate::ports::PortPlan;
use macro3d_geom::{Dbu, Point};
use macro3d_netlist::{Design, InstId, Master};
use macro3d_par::{
    checkpoint, note_degradation, parallel_for_each_mut, parallel_segments_with, Checkpoint,
    Parallelism,
};

/// Nesterov iteration cap (the constants below follow ePlace).
const MAX_ITERS: usize = 512;

/// Stop once density overflow falls below this fraction.
const TARGET_OVERFLOW: f64 = 0.08;

/// Geometric growth of the density weight λ per iteration.
const LAMBDA_GROWTH: f64 = 1.05;

/// Below this many movable cells the electrostatic model is
/// meaningless (a couple of charges on an 8×8 grid); recursive
/// bisection places tiny designs instead.
const MIN_ANALYTICAL_CELLS: usize = 16;

/// Damped-Jacobi sweeps of the star-model quadratic initial
/// placement (wirelength only, no density) run before the Nesterov
/// loop.
const INIT_SWEEPS: usize = 48;

static NESTEROV_ITERS: macro3d_obs::SiteCounter =
    macro3d_obs::SiteCounter::new("place/nesterov_iters");

/// The nets the WA kernels see, as flat CSR (compressed sparse row)
/// arrays. Net `t` owns the pin slots `pin_start[t]..pin_start[t + 1]`,
/// one per movable pin in net pin order (a cell with two pins on a
/// net has two slots), and the fixed pins (ports, macro pins)
/// `fixed_start[t]..fixed_start[t + 1]` as static coordinates. Cell
/// `k` owns the slots `cell_slot[cell_start[k]..cell_start[k + 1]]`,
/// ascending — that is, in (net, pin) order.
struct NetCsr {
    pin_start: Vec<u32>,
    /// Local cell index of each slot.
    slot_cell: Vec<u32>,
    /// Net of each slot.
    slot_net: Vec<u32>,
    fixed_start: Vec<u32>,
    /// Fixed pin coordinates `[x, y]`, µm.
    fixed: Vec<[f64; 2]>,
    cell_start: Vec<u32>,
    cell_slot: Vec<u32>,
}

impl NetCsr {
    /// Nets with `2..=max_degree` pins and at least one movable pin;
    /// `local_of` maps a cell instance to its local index `0..n`.
    fn build(
        design: &Design,
        placement: &Placement,
        ports: &PortPlan,
        local_of: &[u32],
        n: usize,
        max_degree: usize,
    ) -> NetCsr {
        let mut csr = NetCsr {
            pin_start: vec![0],
            slot_cell: Vec::new(),
            slot_net: Vec::new(),
            fixed_start: vec![0],
            fixed: Vec::new(),
            cell_start: vec![0; n + 1],
            cell_slot: Vec::new(),
        };
        for nid in design.net_ids() {
            let pins = &design.net(nid).pins;
            if pins.len() < 2 || pins.len() > max_degree {
                continue;
            }
            let t = csr.nets() as u32;
            let (slots0, fixed0) = (csr.slot_cell.len(), csr.fixed.len());
            for &p in pins {
                match p.instance() {
                    Some(i) if matches!(design.inst(i).master, Master::Cell(_)) => {
                        csr.slot_cell.push(local_of[i.index()]);
                        csr.slot_net.push(t);
                    }
                    _ => {
                        let pt = pin_position(design, placement, ports, p);
                        csr.fixed.push([pt.x.to_um(), pt.y.to_um()]);
                    }
                }
            }
            if csr.slot_cell.len() == slots0 {
                // no movable pin: the net exerts no force
                csr.fixed.truncate(fixed0);
                continue;
            }
            csr.pin_start.push(csr.slot_cell.len() as u32);
            csr.fixed_start.push(csr.fixed.len() as u32);
        }
        // cell → slots by a counting sort over the slots in order,
        // which keeps each cell's list ascending
        for &k in &csr.slot_cell {
            csr.cell_start[k as usize + 1] += 1;
        }
        for k in 0..n {
            csr.cell_start[k + 1] += csr.cell_start[k];
        }
        let mut fill = csr.cell_start.clone();
        csr.cell_slot = vec![0; csr.slot_cell.len()];
        for (s, &k) in csr.slot_cell.iter().enumerate() {
            csr.cell_slot[fill[k as usize] as usize] = s as u32;
            fill[k as usize] += 1;
        }
        csr
    }

    fn nets(&self) -> usize {
        self.pin_start.len() - 1
    }

    fn net_slots(&self, t: usize) -> std::ops::Range<usize> {
        self.pin_start[t] as usize..self.pin_start[t + 1] as usize
    }

    fn net_fixed(&self, t: usize) -> std::ops::Range<usize> {
        self.fixed_start[t] as usize..self.fixed_start[t + 1] as usize
    }

    fn cell_slots(&self, k: usize) -> &[u32] {
        &self.cell_slot[self.cell_start[k] as usize..self.cell_start[k + 1] as usize]
    }

    /// The net pass at cell centres `pos` (interleaved µm): every
    /// slot's WA gradient `[∂x, ∂y]` into `pin_grad`, every net's
    /// exact span `Δx + Δy` into `spans`.
    fn wa_pass(
        &self,
        pos: &[f64],
        gamma: f64,
        par: &Parallelism,
        pin_grad: &mut [[f64; 2]],
        spans: &mut [f64],
    ) {
        parallel_segments_with(
            &self.pin_start,
            pin_grad,
            spans,
            par,
            WaScratch::default,
            |ws, t, grads, span| {
                ws.coords.clear();
                ws.coords.extend(
                    self.slot_cell[self.net_slots(t)]
                        .iter()
                        .map(|&k| [pos[2 * k as usize], pos[2 * k as usize + 1]]),
                );
                *span = wa_net(
                    &ws.coords,
                    &self.fixed[self.net_fixed(t)],
                    gamma,
                    &mut ws.exps,
                    |j, g| grads[j] = g,
                );
            },
        );
    }

    /// Cell `k`'s WA gradient: the sum of its slots' gradients in
    /// (net, pin) order.
    fn cell_wire_grad(&self, pin_grad: &[[f64; 2]], k: usize) -> [f64; 2] {
        let mut g = [0.0; 2];
        for &s in self.cell_slots(k) {
            let [gx, gy] = pin_grad[s as usize];
            g[0] += gx;
            g[1] += gy;
        }
        g
    }
}

/// One axis of one net's weighted-average (WA) wirelength in the
/// shifted-exponential form: the pin extremes, and the four running
/// sums `Σe⁺`, `Σx·e⁺`, `Σe⁻`, `Σx·e⁻` with `e⁺ = exp((x−max)/γ)` and
/// `e⁻ = exp(−(x−min)/γ)`.
struct WaAxis {
    max: f64,
    min: f64,
    gamma: f64,
    /// The min pin's `e⁺`, which is also the max pin's `e⁻`.
    e_span: f64,
    dp: f64,
    np: f64,
    dm: f64,
    nm: f64,
}

impl WaAxis {
    fn new(max: f64, min: f64, gamma: f64) -> WaAxis {
        // Two exact shortcuts. `exp(±0)` is exactly 1, so a pin at the
        // max needs no call for its e⁺, nor one at the min for its e⁻.
        // And the min pin's e⁺ argument `(min − max)/γ` equals the max
        // pin's e⁻ argument `−(max − min)/γ` bit for bit (IEEE rounding
        // is symmetric, so `a − b` is exactly `−(b − a)`): one call
        // serves both.
        let e_span = if min == max {
            1.0
        } else {
            ((min - max) / gamma).exp()
        };
        WaAxis {
            max,
            min,
            gamma,
            e_span,
            dp: 0.0,
            np: 0.0,
            dm: 0.0,
            nm: 0.0,
        }
    }

    /// Adds a pin at `c` to the sums; returns its `(e⁺, e⁻)`.
    #[inline]
    fn add(&mut self, c: f64) -> (f64, f64) {
        let ep = if c == self.max {
            1.0
        } else if c == self.min {
            self.e_span
        } else {
            ((c - self.max) / self.gamma).exp()
        };
        let em = if c == self.min {
            1.0
        } else if c == self.max {
            self.e_span
        } else {
            (-(c - self.min) / self.gamma).exp()
        };
        self.dp += ep;
        self.np += c * ep;
        self.dm += em;
        self.nm += c * em;
        (ep, em)
    }

    /// ∂(WA span)/∂c for a pin at `c` with exponentials `(ep, em)`.
    #[inline]
    fn grad(&self, c: f64, (ep, em): (f64, f64)) -> f64 {
        let gamma = self.gamma;
        let plus = ep * (self.dp + (c * self.dp - self.np) / gamma) / (self.dp * self.dp);
        let minus = em * (self.dm - (c * self.dm - self.nm) / gamma) / (self.dm * self.dm);
        plus - minus
    }
}

/// One net's WA wirelength on both axes, fused with its gradient.
/// `mov` holds the movable pins' `[x, y]` and `fixed` the fixed
/// pins'. Each movable pin's exponentials are evaluated once, summed
/// into the net's WA terms (movable pins first, then fixed), and
/// reused for the pin's gradient, which goes to
/// `grad(j, [∂x, ∂y])`. `exps` is scratch. Returns the exact span
/// `Δx + Δy` for the HPWL series.
///
/// Every floating-point operation matches the two-pass form — terms
/// first, then each gradient with fresh exponentials — so results
/// are bit-identical to it. The axes share loops only; their
/// arithmetic never mixes.
fn wa_net(
    mov: &[[f64; 2]],
    fixed: &[[f64; 2]],
    gamma: f64,
    exps: &mut Vec<[(f64, f64); 2]>,
    mut grad: impl FnMut(usize, [f64; 2]),
) -> f64 {
    let (mut max, mut min) = ([f64::NEG_INFINITY; 2], [f64::INFINITY; 2]);
    for c in mov.iter().chain(fixed) {
        for a in 0..2 {
            max[a] = max[a].max(c[a]);
            min[a] = min[a].min(c[a]);
        }
    }
    let mut ax = WaAxis::new(max[0], min[0], gamma);
    let mut ay = WaAxis::new(max[1], min[1], gamma);
    exps.clear();
    exps.extend(mov.iter().map(|&[x, y]| [ax.add(x), ay.add(y)]));
    for &[x, y] in fixed {
        ax.add(x);
        ay.add(y);
    }
    for (j, (&[x, y], &[ex, ey])) in mov.iter().zip(exps.iter()).enumerate() {
        grad(j, [ax.grad(x, ex), ay.grad(y, ey)]);
    }
    (ax.max - ax.min) + (ay.max - ay.min)
}

/// Per-worker scratch of the net pass: one net's movable-pin
/// coordinates and exponentials.
#[derive(Default)]
struct WaScratch {
    coords: Vec<[f64; 2]>,
    exps: Vec<[(f64, f64); 2]>,
}

/// Runs ePlace-style analytical global placement (see the module
/// docs). Same contract as [`crate::global::global_place`]: macros
/// are fixed from `fp.macros`, cells end up spread (overlapping) over
/// the usable area, ready for row legalization.
///
/// # Panics
///
/// Panics if a macro in `fp.macros` references an out-of-range
/// instance.
pub fn analytical_place(
    design: &Design,
    fp: &Floorplan,
    ports: &PortPlan,
    cfg: &GlobalPlaceConfig,
) -> Placement {
    let mut placement = Placement::new(design);
    for mp in &fp.macros {
        placement.pos[mp.inst.index()] = mp.rect.lo;
        placement.die_of[mp.inst.index()] = mp.die;
    }
    let movable: Vec<InstId> = design.inst_ids().filter(|&i| !design.is_macro(i)).collect();
    if movable.len() < MIN_ANALYTICAL_CELLS {
        return crate::global::bisection_place(design, fp, ports, cfg);
    }
    let n = movable.len();

    // local geometry snapshot (µm, f64)
    let mut local_of = vec![u32::MAX; design.num_insts()];
    let mut w = Vec::with_capacity(n);
    let mut h = Vec::with_capacity(n);
    let mut area = Vec::with_capacity(n);
    for (k, &i) in movable.iter().enumerate() {
        local_of[i.index()] = k as u32;
        let r = placement.rect(design, i);
        w.push(r.width().to_um());
        h.push(r.height().to_um());
        area.push(r.width().to_um() * r.height().to_um());
    }
    let total_area: f64 = area.iter().sum();
    let avg_area = total_area / n as f64;
    // normalized charge: the preconditioner and field force scale
    let charge: Vec<f64> = area.iter().map(|a| a / avg_area).collect();

    let csr = NetCsr::build(design, &placement, ports, &local_of, n, MAX_NET_DEGREE);
    let npins: Vec<f64> = (0..n).map(|k| csr.cell_slots(k).len() as f64).collect();

    let grid = ElectroGrid::build(fp, n, total_area);
    let die = fp.die();
    let (die_lo_x, die_lo_y) = (die.lo.x.to_um(), die.lo.y.to_um());
    let (die_hi_x, die_hi_y) = (die.hi.x.to_um(), die.hi.y.to_um());
    let bin = 0.5 * (grid.bin_w_um() + grid.bin_h_um());

    // initial state: die centre plus a deterministic per-cell jitter
    // (splitmix64 of the cell index) to break the radial symmetry
    let (cx0, cy0) = (0.5 * (die_lo_x + die_hi_x), 0.5 * (die_lo_y + die_hi_y));
    let (jx, jy) = (0.125 * (die_hi_x - die_lo_x), 0.125 * (die_hi_y - die_lo_y));
    let mut init = Vec::with_capacity(2 * n);
    for k in 0..n {
        let r = splitmix64(k as u64 + 1);
        let ux = (r >> 32) as f64 / (1u64 << 32) as f64 - 0.5;
        let uy = (r & 0xFFFF_FFFF) as f64 / (1u64 << 32) as f64 - 0.5;
        init.push(cx0 + 2.0 * jx * ux);
        init.push(cy0 + 2.0 * jy * uy);
    }
    let clamp = |k: usize, x: f64, y: f64| {
        (
            x.clamp(die_lo_x + w[k] / 2.0, die_hi_x - w[k] / 2.0),
            y.clamp(die_lo_y + h[k] / 2.0, die_hi_y - h[k] / 2.0),
        )
    };
    for k in 0..n {
        let (x, y) = clamp(k, init[2 * k], init[2 * k + 1]);
        init[2 * k] = x;
        init[2 * k + 1] = y;
    }

    let par = cfg.parallelism;

    // Quadratic wirelength-only initial placement (star model, damped
    // Jacobi): each sweep computes every net's pin centroid, then
    // moves every cell halfway to the mean centroid of its nets.
    // Fixed pins (macros, ports) anchor the system, so the sweeps
    // drag each cell next to the logic it talks to before any density
    // force exists. Without this the density phase on a sparse die
    // reaches its overflow target within a few dozen iterations of
    // pure radial spreading and exits with the wirelength never
    // optimized. Both sweeps are order-preserving parallel fills with
    // serial fixed-order inner sums — bit-identical for any thread
    // count.
    let mut centroids = vec![[0.0f64; 2]; csr.nets()];
    let mut next = vec![[0.0f64; 2]; n];
    for _ in 0..INIT_SWEEPS {
        parallel_for_each_mut(&mut centroids, &par, |t, out| {
            let (mut sx, mut sy) = (0.0f64, 0.0f64);
            let (slots, fixed) = (csr.net_slots(t), csr.net_fixed(t));
            for &k in &csr.slot_cell[slots.clone()] {
                sx += init[2 * k as usize];
                sy += init[2 * k as usize + 1];
            }
            for &[x, y] in &csr.fixed[fixed.clone()] {
                sx += x;
                sy += y;
            }
            let m = (slots.len() + fixed.len()) as f64;
            *out = [sx / m, sy / m];
        });
        parallel_for_each_mut(&mut next, &par, |k, out| {
            let incident = csr.cell_slots(k);
            if incident.is_empty() {
                *out = [init[2 * k], init[2 * k + 1]];
                return;
            }
            let (mut sx, mut sy) = (0.0f64, 0.0f64);
            for &s in incident {
                let [cx, cy] = centroids[csr.slot_net[s as usize] as usize];
                sx += cx;
                sy += cy;
            }
            let m = incident.len() as f64;
            let (x, y) = clamp(
                k,
                0.5 * (init[2 * k] + sx / m),
                0.5 * (init[2 * k + 1] + sy / m),
            );
            *out = [x, y];
        });
        for (k, &[x, y]) in next.iter().enumerate() {
            init[2 * k] = x;
            init[2 * k + 1] = y;
        }
    }
    drop((centroids, next));

    let mut nes = Nesterov::new(init);
    let mut lambda = 0.0f64; // calibrated after the first gradient
                             // the loop's buffers, allocated once: density pipeline, per-slot
                             // pin gradients, per-net spans, per-cell gradients, the step
    let mut electro = grid.scratch(n);
    let mut pin_grad = vec![[0.0f64; 2]; csr.slot_cell.len()];
    let mut spans = vec![0.0f64; csr.nets()];
    let mut cell_grad = vec![[0.0f64; 4]; n];
    let mut grad = vec![0.0f64; 2 * n];
    let mut best_overflow = f64::INFINITY;
    let mut stale = 0usize;

    for iter in 0..MAX_ITERS {
        if let Checkpoint::Stop(reason) = checkpoint("place/nesterov_iters") {
            note_degradation(
                "place/nesterov_iters",
                reason,
                format!("stopped at Nesterov iteration {iter} of {MAX_ITERS}"),
            );
            break;
        }
        let _iter_span = macro3d_obs::span_full!("place/nes_iter{iter}");
        NESTEROV_ITERS.inc();

        let pos = nes.reference();

        // density: accumulate → overflow → potential → field
        grid.accumulate(&w, &h, pos, &par, &mut electro);
        let overflow = grid.overflow(&electro.bins);
        grid.potential(&mut electro);
        grid.field(&mut electro);

        // WA smoothing follows the overflow: coarse while the
        // placement is piled up, sharp as it spreads out
        let gamma = bin * (0.5 + 7.5 * overflow.min(1.0));

        csr.wa_pass(pos, gamma, &par, &mut pin_grad, &mut spans);

        // cell pass: own pin slots + density gradient (field
        // interpolation inlined)
        parallel_for_each_mut(&mut cell_grad, &par, |k, out| {
            let [gwx, gwy] = csr.cell_wire_grad(&pin_grad, k);
            let q = charge[k];
            let field = grid.interpolator(pos[2 * k], pos[2 * k + 1]);
            *out = [gwx, gwy, -q * field(&electro.ex), -q * field(&electro.ey)];
        });

        // serial reductions in fixed order: λ calibration + combine
        if iter == 0 {
            let (mut sw, mut sd) = (0.0f64, 0.0f64);
            for &[gwx, gwy, gdx, gdy] in &cell_grad {
                sw += gwx.abs() + gwy.abs();
                sd += gdx.abs() + gdy.abs();
            }
            lambda = if sd > 0.0 { sw / sd } else { 1.0 };
        }
        for (k, &[gwx, gwy, gdx, gdy]) in cell_grad.iter().enumerate() {
            let precond = (npins[k] + lambda * charge[k]).max(1.0);
            grad[2 * k] = (gwx + lambda * gdx) / precond;
            grad[2 * k + 1] = (gwy + lambda * gdy) / precond;
        }

        // inverse-Lipschitz step, trust-clamped to one bin per move
        let gmax = grad.iter().fold(0.0f64, |m, g| m.max(g.abs()));
        let trust = grid.bin_w_um().max(grid.bin_h_um());
        let alpha = match nes.step_len(&grad) {
            Some(a) if gmax > 0.0 => a.min(trust / gmax),
            Some(a) => a,
            None if gmax > 0.0 => 0.1 * bin / gmax,
            None => 0.0,
        };

        if let Some(reg) = macro3d_obs::registry() {
            // serial sum of the per-net spans in net order
            let hpwl_um: f64 = spans.iter().sum();
            reg.series("place/overflow").push(overflow);
            reg.series("place/hpwl_um").push(hpwl_um);
            reg.series("place/step_size").push(alpha);
        }

        if overflow < TARGET_OVERFLOW || alpha == 0.0 {
            break;
        }
        // plateau guard: once overflow stops improving the density
        // weight has won — further growth only churns the wirelength
        if overflow < best_overflow - 1e-3 {
            best_overflow = overflow;
            stale = 0;
        } else {
            stale += 1;
            if stale >= 64 {
                break;
            }
        }
        nes.step(&grad, alpha, &clamp, &par);
        lambda *= LAMBDA_GROWTH;
    }

    // round the major solution back to Dbu lower-left corners
    let sol = nes.solution();
    for (k, &i) in movable.iter().enumerate() {
        let (x, y) = clamp(k, sol[2 * k], sol[2 * k + 1]);
        placement.pos[i.index()] =
            Point::new(Dbu::from_um(x - w[k] / 2.0), Dbu::from_um(y - h[k] / 2.0));
    }
    placement
}

/// splitmix64 (public-domain) — the deterministic jitter source.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global::PlacerBackend;
    use crate::hpwl::total_hpwl;
    use macro3d_geom::Rect;
    use macro3d_netlist::PinRef;
    use macro3d_tech::{libgen::n28_library, CellClass, PinDir};
    use std::sync::Arc;

    fn chain_design(n: usize) -> (Design, Vec<InstId>) {
        let lib = Arc::new(n28_library(1.0));
        let inv = lib.smallest(CellClass::Inv).expect("inv");
        let mut d = Design::new("chain", lib);
        let pi = d.add_port("in", PinDir::Input, Some(macro3d_netlist::Side::West));
        let po = d.add_port("out", PinDir::Output, Some(macro3d_netlist::Side::East));
        let mut insts = Vec::new();
        let mut prev = d.add_net("n_in");
        d.connect(prev, PinRef::Port(pi));
        for i in 0..n {
            let c = d.add_cell(format!("c{i}"), inv);
            d.connect(prev, PinRef::inst(c, 0));
            prev = d.add_net(format!("w{i}"));
            d.connect(prev, PinRef::inst(c, 1));
            insts.push(c);
        }
        d.connect(prev, PinRef::Port(po));
        (d, insts)
    }

    fn fp(w: f64, h: f64) -> Floorplan {
        Floorplan::new(
            Rect::from_um(0.0, 0.0, w, h),
            Dbu::from_um(1.2),
            Dbu::from_um(0.2),
        )
    }

    fn cfg() -> GlobalPlaceConfig {
        GlobalPlaceConfig {
            backend: PlacerBackend::Analytical,
            ..GlobalPlaceConfig::default()
        }
    }

    /// Per-axis WA terms of one net in the two-pass form the fused
    /// net pass replaced: [`Axis::compute`] sums the terms, then
    /// [`Axis::grad`] recomputes each pin's exponentials. The
    /// bit-exactness oracle for [`wa_net`].
    #[derive(Clone, Copy, Default)]
    struct Axis {
        max: f64,
        min: f64,
        /// Σ e^{(x−max)/γ} and Σ x·e^{(x−max)/γ}.
        dp: f64,
        np: f64,
        /// Σ e^{−(x−min)/γ} and Σ x·e^{−(x−min)/γ}.
        dm: f64,
        nm: f64,
    }

    impl Axis {
        fn compute(coords: impl Iterator<Item = f64> + Clone, gamma: f64) -> Axis {
            let mut ax = Axis {
                max: f64::NEG_INFINITY,
                min: f64::INFINITY,
                ..Axis::default()
            };
            for c in coords.clone() {
                ax.max = ax.max.max(c);
                ax.min = ax.min.min(c);
            }
            for c in coords {
                let ep = ((c - ax.max) / gamma).exp();
                let em = (-(c - ax.min) / gamma).exp();
                ax.dp += ep;
                ax.np += c * ep;
                ax.dm += em;
                ax.nm += c * em;
            }
            ax
        }

        /// ∂(WA span)/∂x at pin coordinate `c`.
        fn grad(&self, c: f64, gamma: f64) -> f64 {
            let ep = ((c - self.max) / gamma).exp();
            let em = (-(c - self.min) / gamma).exp();
            let plus = ep * (self.dp + (c * self.dp - self.np) / gamma) / (self.dp * self.dp);
            let minus = em * (self.dm - (c * self.dm - self.nm) / gamma) / (self.dm * self.dm);
            plus - minus
        }
    }

    /// Fused gradients and spans equal the two-pass oracle bit for bit
    /// on seeded random nets: 2-pin nets, fixed pins, one cell with
    /// two pins (a repeated coordinate) and coincident coordinates,
    /// which hit the `exp(±0)` and shared-exponential shortcuts.
    #[test]
    fn fused_wa_matches_two_pass_oracle() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0x3a);
        let mut exps = Vec::new();
        let shapes = [(2, 0), (1, 1), (3, 2), (6, 0), (1, 5), (9, 3)];
        for trial in 0..4000 {
            let (m, f) = match shapes.get(trial % 8) {
                Some(&shape) => shape,
                None => (rng.gen_range(1..12), rng.gen_range(0..4)),
            };
            // a coarse lattice makes coincident coordinates (shared
            // max/min, all-equal nets) common
            let lattice = trial % 3 == 0;
            let mut point = || {
                [(); 2].map(|()| {
                    if lattice {
                        f64::from(rng.gen_range(0..4u32)) * 2.5
                    } else {
                        rng.gen_range(0.0..100.0)
                    }
                })
            };
            let mut mov: Vec<[f64; 2]> = (0..m).map(|_| point()).collect();
            let fixed: Vec<[f64; 2]> = (0..f).map(|_| point()).collect();
            if m >= 2 && trial % 5 == 0 {
                mov[1] = mov[0]; // one cell, two pins on the net
            }
            let gamma = rng.gen_range(0.5..40.0);
            let mut got = vec![[f64::NAN; 2]; m];
            let span = wa_net(&mov, &fixed, gamma, &mut exps, |j, g| got[j] = g);

            let axis = |a: usize| {
                let coords = mov.iter().chain(&fixed).map(move |c| c[a]);
                Axis::compute(coords, gamma)
            };
            let (ox, oy) = (axis(0), axis(1));
            let old_span = (ox.max - ox.min) + (oy.max - oy.min);
            assert_eq!(span.to_bits(), old_span.to_bits(), "trial {trial}");
            for (j, &[x, y]) in mov.iter().enumerate() {
                let want = [ox.grad(x, gamma), oy.grad(y, gamma)];
                assert_eq!(
                    got[j].map(f64::to_bits),
                    want.map(f64::to_bits),
                    "trial {trial}: pin {j} of {mov:?} + fixed {fixed:?}, gamma {gamma}"
                );
            }
        }
    }

    /// The whole net pass plus the per-cell slot sums equal the old
    /// per-cell loop over incident nets (`Axis::grad` per incidence),
    /// on a design where one cell has two pins on one net — at any
    /// thread count.
    #[test]
    fn net_pass_cell_sums_match_two_pass_oracle() {
        let (mut d, _) = chain_design(120);
        // a NAND2 with both inputs on one net: one cell, two slots
        let nand = d.library().smallest(CellClass::Nand2).expect("nand2");
        let tied = d.add_cell("tied", nand);
        let shared = d.add_net("shared");
        let sink = d.add_cell("sink", nand);
        d.connect(shared, PinRef::inst(tied, 0));
        d.connect(shared, PinRef::inst(tied, 1));
        d.connect(shared, PinRef::inst(sink, 0));
        let f = fp(80.0, 30.0);
        let ports = PortPlan::assign(&d, f.die());
        let p = Placement::new(&d);
        let n = d.num_insts();
        let local_of: Vec<u32> = (0..n as u32).collect();
        let csr = NetCsr::build(&d, &p, &ports, &local_of, n, 64);
        let pos: Vec<f64> = (0..2 * n)
            .map(|i| (splitmix64(i as u64) >> 11) as f64 / (1u64 << 53) as f64 * 80.0)
            .collect();
        let gamma = 3.7;

        // the old kernels: per-net terms, then per-cell sums over the
        // incident nets (one entry per pin) with fresh exponentials
        let terms: Vec<(Axis, Axis)> = (0..csr.nets())
            .map(|t| {
                let (cells, fixed) = (&csr.slot_cell[csr.net_slots(t)], csr.net_fixed(t));
                let xs = cells.iter().map(|&k| pos[2 * k as usize]);
                let ys = cells.iter().map(|&k| pos[2 * k as usize + 1]);
                let fixed = &csr.fixed[fixed];
                (
                    Axis::compute(xs.chain(fixed.iter().map(|c| c[0])), gamma),
                    Axis::compute(ys.chain(fixed.iter().map(|c| c[1])), gamma),
                )
            })
            .collect();
        let mut inst_nets: Vec<Vec<usize>> = vec![Vec::new(); n];
        for t in 0..csr.nets() {
            for &k in &csr.slot_cell[csr.net_slots(t)] {
                inst_nets[k as usize].push(t);
            }
        }
        assert!(
            inst_nets[tied.index()].windows(2).any(|w| w[0] == w[1]),
            "one cell sits twice on the shared net"
        );

        for threads in [1, 4] {
            let par = Parallelism::threads(threads).with_chunk_size(5);
            let mut pin_grad = vec![[0.0; 2]; csr.slot_cell.len()];
            let mut spans = vec![0.0; csr.nets()];
            csr.wa_pass(&pos, gamma, &par, &mut pin_grad, &mut spans);
            for (t, (ax, ay)) in terms.iter().enumerate() {
                let old = (ax.max - ax.min) + (ay.max - ay.min);
                assert_eq!(spans[t].to_bits(), old.to_bits(), "net {t}");
            }
            for (k, incident) in inst_nets.iter().enumerate() {
                let (x, y) = (pos[2 * k], pos[2 * k + 1]);
                let (mut gwx, mut gwy) = (0.0, 0.0);
                for &t in incident {
                    let (ax, ay) = &terms[t];
                    gwx += ax.grad(x, gamma);
                    gwy += ay.grad(y, gamma);
                }
                let [gx, gy] = csr.cell_wire_grad(&pin_grad, k);
                assert_eq!(
                    (gx.to_bits(), gy.to_bits()),
                    (gwx.to_bits(), gwy.to_bits()),
                    "cell {k} at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn chain_is_ordered_toward_ports() {
        let (d, insts) = chain_design(64);
        let f = fp(100.0, 24.0);
        let ports = PortPlan::assign(&d, f.die());
        let p = analytical_place(&d, &f, &ports, &cfg());
        let avg = |slice: &[InstId]| -> f64 {
            slice
                .iter()
                .map(|i| p.pos[i.index()].x.0 as f64)
                .sum::<f64>()
                / slice.len() as f64
        };
        let head = avg(&insts[..16]);
        let tail = avg(&insts[48..]);
        assert!(
            head < tail,
            "chain head at {head} should precede tail at {tail}"
        );
    }

    #[test]
    fn all_cells_inside_die() {
        let (d, _) = chain_design(200);
        let f = fp(60.0, 60.0);
        let ports = PortPlan::assign(&d, f.die());
        let p = analytical_place(&d, &f, &ports, &cfg());
        for i in d.inst_ids() {
            assert!(
                f.die()
                    .inflate(Dbu::from_um(0.1))
                    .contains_rect(p.rect(&d, i)),
                "cell {} at {:?} escapes die",
                i,
                p.pos[i.index()]
            );
        }
    }

    #[test]
    fn beats_random_and_rivals_bisection_hpwl() {
        use rand::{Rng, SeedableRng};
        let (d, _) = chain_design(300);
        let f = fp(100.0, 40.0);
        let ports = PortPlan::assign(&d, f.die());
        let placed = analytical_place(&d, &f, &ports, &cfg());
        let mut rng = rand::rngs::SmallRng::seed_from_u64(17);
        let mut random = Placement::new(&d);
        for i in d.inst_ids() {
            random.pos[i.index()] =
                Point::from_um(rng.gen_range(0.0..100.0), rng.gen_range(0.0..40.0));
        }
        let analytical = total_hpwl(&d, &placed, &ports).0;
        assert!(
            analytical * 2 < total_hpwl(&d, &random, &ports).0,
            "analytical {} vs random {}",
            analytical,
            total_hpwl(&d, &random, &ports)
        );
    }

    #[test]
    fn spreads_cells_below_target_overflow() {
        let (d, insts) = chain_design(400);
        let f = fp(80.0, 48.0);
        let ports = PortPlan::assign(&d, f.die());
        let p = analytical_place(&d, &f, &ports, &cfg());
        // more than half the bins of an 8×8 coverage grid are used
        let mut seen = std::collections::HashSet::new();
        for &i in &insts {
            let c = p.center(&d, i);
            seen.insert(((c.x.0 * 8 / 80_000).min(7), (c.y.0 * 8 / 48_000).min(7)));
        }
        assert!(seen.len() > 16, "cells collapsed into {} bins", seen.len());
    }

    #[test]
    fn tiny_designs_fall_back_to_bisection() {
        let (d, _) = chain_design(4);
        let f = fp(30.0, 12.0);
        let ports = PortPlan::assign(&d, f.die());
        let p = analytical_place(&d, &f, &ports, &cfg());
        for i in d.inst_ids() {
            assert!(f
                .die()
                .inflate(Dbu::from_um(1.0))
                .contains(p.pos[i.index()]));
        }
    }

    #[test]
    fn budget_exhaustion_degrades_gracefully() {
        use macro3d_par::{BudgetScope, FlowBudget};
        let (d, _) = chain_design(100);
        let f = fp(60.0, 24.0);
        let ports = PortPlan::assign(&d, f.die());
        let budget = FlowBudget::unlimited().with_cap("place/nesterov_iters", 3);
        let scope = BudgetScope::begin(&budget, None);
        let p = analytical_place(&d, &f, &ports, &cfg());
        let report = scope.finish();
        assert!(report.is_degraded(), "cap must surface as degradation");
        assert_eq!(report.stages[0].site, "place/nesterov_iters");
        for i in d.inst_ids() {
            assert!(f
                .die()
                .inflate(Dbu::from_um(1.0))
                .contains(p.pos[i.index()]));
        }
    }
}

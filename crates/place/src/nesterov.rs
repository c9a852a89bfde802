//! Nesterov accelerated gradient descent for analytical placement.
//!
//! The ePlace scheme: keep a *major* solution `u` and a *reference*
//! (lookahead) solution `v`; evaluate the gradient at `v`, take the
//! step `u' = v − α·g`, and extrapolate `v' = u' + θ·(u' − u)` with
//! the Nesterov momentum coefficient θ derived from the `a_k`
//! recurrence. The step length is the inverse-Lipschitz estimate
//! `α = ‖v − v_prev‖ / ‖g − g_prev‖` over *preconditioned* gradients
//! (Barzilai–Borwein flavour), clamped by a per-iteration trust
//! radius so a bad estimate cannot explode the placement.
//!
//! The position update — the only O(n) work here — runs through
//! [`parallel_for_each_mut`] over the cell list into a buffer
//! allocated once with the solver; the norms and bookkeeping are
//! serial in fixed index order, so the whole solver is bit-identical
//! for any thread count.

use macro3d_par::{parallel_for_each_mut, Parallelism};

/// Nesterov solver state over interleaved `[x0, y0, x1, y1, …]`
/// coordinate vectors.
#[derive(Clone, Debug)]
pub struct Nesterov {
    /// Major solution (best descent iterate; read this at the end).
    u: Vec<f64>,
    /// Reference solution (where gradients are evaluated).
    v: Vec<f64>,
    v_prev: Vec<f64>,
    g_prev: Vec<f64>,
    a: f64,
    /// Step output per cell, `[ux, uy, vx, vy]` (reused every step).
    next: Vec<[f64; 4]>,
    have_prev: bool,
}

impl Nesterov {
    /// Starts from an initial placement (interleaved coordinates).
    pub fn new(init: Vec<f64>) -> Self {
        let n = init.len() / 2;
        Nesterov {
            u: init.clone(),
            v: init.clone(),
            v_prev: init.clone(),
            g_prev: vec![0.0; init.len()],
            a: 1.0,
            next: vec![[0.0; 4]; n],
            have_prev: false,
        }
    }

    /// The reference solution — evaluate the gradient here.
    pub fn reference(&self) -> &[f64] {
        &self.v
    }

    /// The major solution — the placement to keep.
    pub fn solution(&self) -> &[f64] {
        &self.u
    }

    /// Inverse-Lipschitz step estimate from the previous reference
    /// point and gradient, or `None` on the first iteration.
    pub fn step_len(&self, g: &[f64]) -> Option<f64> {
        if !self.have_prev {
            return None;
        }
        let mut dv = 0.0f64;
        let mut dg = 0.0f64;
        for (k, &gk) in g.iter().enumerate() {
            let a = self.v[k] - self.v_prev[k];
            let b = gk - self.g_prev[k];
            dv += a * a;
            dg += b * b;
        }
        (dg > 0.0).then(|| (dv / dg).sqrt())
    }

    /// One Nesterov step with (preconditioned) gradient `g` evaluated
    /// at [`Self::reference`], step length `alpha`, and a position
    /// `clamp` (cell index, x, y) → (x, y) keeping cells inside the
    /// die. Scheduling only changes wall-clock time, never the
    /// result.
    ///
    /// # Panics
    ///
    /// Panics if `g.len()` differs from the coordinate vector length.
    pub fn step<F>(&mut self, g: &[f64], alpha: f64, clamp: &F, par: &Parallelism)
    where
        F: Fn(usize, f64, f64) -> (f64, f64) + Sync,
    {
        assert_eq!(g.len(), self.v.len(), "gradient length mismatch");
        let a_next = (1.0 + (4.0 * self.a * self.a + 1.0).sqrt()) / 2.0;
        let theta = (self.a - 1.0) / a_next;
        let (u, v) = (&self.u, &self.v);
        parallel_for_each_mut(&mut self.next, par, |k, out| {
            let (xi, yi) = (2 * k, 2 * k + 1);
            let (ux, uy) = clamp(k, v[xi] - alpha * g[xi], v[yi] - alpha * g[yi]);
            let (vx, vy) = clamp(k, ux + theta * (ux - u[xi]), uy + theta * (uy - u[yi]));
            *out = [ux, uy, vx, vy];
        });
        self.v_prev.copy_from_slice(&self.v);
        self.g_prev.copy_from_slice(g);
        for (k, &[ux, uy, vx, vy]) in self.next.iter().enumerate() {
            self.u[2 * k] = ux;
            self.u[2 * k + 1] = uy;
            self.v[2 * k] = vx;
            self.v[2 * k + 1] = vy;
        }
        self.a = a_next;
        self.have_prev = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimize a separable quadratic Σ cᵢ(xᵢ − tᵢ)²: Nesterov with a
    /// BB step must converge to the target from any start.
    #[test]
    fn converges_on_quadratic() {
        let n = 64usize;
        let target: Vec<f64> = (0..2 * n).map(|k| (k % 7) as f64 - 3.0).collect();
        let coef: Vec<f64> = (0..2 * n).map(|k| 0.5 + (k % 3) as f64).collect();
        let mut nes = Nesterov::new(vec![10.0; 2 * n]);
        let par = Parallelism::serial();
        let clamp = |_k: usize, x: f64, y: f64| (x, y);
        for iter in 0..200 {
            let v = nes.reference().to_vec();
            let g: Vec<f64> = (0..2 * n)
                .map(|k| 2.0 * coef[k] * (v[k] - target[k]))
                .collect();
            let alpha = nes.step_len(&g).unwrap_or(0.05).min(0.45);
            nes.step(&g, alpha, &clamp, &par);
            let _ = iter;
        }
        let err: f64 = nes
            .solution()
            .iter()
            .zip(&target)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(err < 1e-3, "max error {err}");
    }

    #[test]
    fn update_is_thread_count_invariant() {
        let n = 500usize;
        let init: Vec<f64> = (0..2 * n).map(|k| (k as f64 * 0.37).sin() * 50.0).collect();
        let run = |threads: usize| {
            let par = Parallelism::threads(threads).with_chunk_size(13);
            let mut nes = Nesterov::new(init.clone());
            let clamp = |_k: usize, x: f64, y: f64| (x.clamp(-40.0, 40.0), y.clamp(-40.0, 40.0));
            for _ in 0..20 {
                let g: Vec<f64> = nes.reference().iter().map(|&x| 0.3 * x + 1.0).collect();
                let alpha = nes.step_len(&g).unwrap_or(0.1).min(1.0);
                nes.step(&g, alpha, &clamp, &par);
            }
            nes.solution()
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<_>>()
        };
        let serial = run(1);
        assert_eq!(run(4), serial);
        assert_eq!(run(8), serial);
    }
}

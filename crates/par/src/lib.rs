#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
//! Deterministic data-parallel kernels for the Macro-3D engines.
//!
//! The hot engine loops (batched global routing, per-net extraction,
//! STA endpoint checks) are embarrassingly parallel over independent
//! items. This crate provides the rayon-style primitives they share —
//! an order-preserving parallel map with per-worker scratch state,
//! variants of it that write into caller-owned buffers (so iterative
//! solvers allocate their outputs once), and a parallel fold — built
//! directly on [`std::thread::scope`] because this build environment
//! cannot fetch rayon itself. The API mirrors rayon's
//! `par_iter().map_with(..)` idiom so a future swap to rayon is
//! mechanical.
//!
//! **Determinism contract:** every function here returns results
//! identical to its serial equivalent, bit for bit, regardless of the
//! thread count. Work is handed out as contiguous index chunks from a
//! shared cursor and results are stitched back in input order, so the
//! only thing threads change is wall-clock time.
//!
//! The same contract extends to observability: each primitive brackets
//! its units of work in `macro3d-obs` fork/branch scopes keyed by the
//! work decomposition (chunk start index, join arm), so spans recorded
//! inside worker closures are stitched into a thread-count-invariant
//! tree. This costs one atomic load per chunk when tracing is off.
//!
//! It also extends to fault tolerance: the [`budget`] module provides
//! cooperative stage budgets (wall-clock deadline + per-site iteration
//! caps) with a [`DegradationReport`] for best-effort early exits, and
//! the [`fault`] module a seeded deterministic fault-injection harness
//! over the same checkpoint sites. Every primitive here marks a
//! *parallel region* on all execution paths so budget checkpoints fire
//! at thread-count-invariant points only.
//!
//! # Examples
//!
//! ```
//! use macro3d_par::{parallel_map_with, Parallelism};
//!
//! let par = Parallelism::default();
//! let squares = parallel_map_with(
//!     &[1u64, 2, 3, 4],
//!     &par,
//!     Vec::<u64>::new,             // per-worker scratch
//!     |scratch, _ix, &x| {
//!         scratch.push(x);         // scratch survives across items
//!         x * x
//!     },
//! );
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

pub mod budget;
pub mod fault;

pub use budget::{
    checkpoint, note_degradation, site_visits, BudgetScope, Checkpoint, DegradationReport,
    FlowBudget, RegionGuard, StageDegradation, StopReason,
};
pub use fault::{FaultAction, FaultPlan, InjectedFault, STANDARD_SITES};

/// Degree-of-parallelism knob threaded through the engine configs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Parallelism {
    /// Worker threads. `1` = serial (no threads spawned). `0` is
    /// normalized to the machine's available parallelism.
    pub threads: usize,
    /// Items handed to a worker per grab (and, for the batched
    /// router, nets routed against one congestion snapshot before a
    /// serial commit).
    pub chunk_size: usize,
}

impl Parallelism {
    /// Serial execution (the deterministic reference configuration).
    pub fn serial() -> Self {
        Parallelism {
            threads: 1,
            chunk_size: 32,
        }
    }

    /// Uses up to `threads` workers.
    pub fn threads(threads: usize) -> Self {
        Parallelism {
            threads,
            ..Self::default()
        }
    }

    /// Returns self with a different chunk size (builder-style).
    #[must_use]
    pub fn with_chunk_size(mut self, chunk_size: usize) -> Self {
        self.chunk_size = chunk_size.max(1);
        self
    }

    /// The worker count after normalizing `0` to the hardware and
    /// clamping explicit requests to it. Oversubscribing a host never
    /// helps these CPU-bound kernels — on a single-core machine an
    /// explicit `threads(8)` used to pay scoped-thread spawn and
    /// scratch setup for every primitive call while still running one
    /// chunk at a time; clamping makes every primitive take its true
    /// serial fall-through instead. Results are unaffected either way
    /// (the crate determinism contract).
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            available_threads()
        } else {
            self.threads.min(available_threads())
        }
    }
}

impl Default for Parallelism {
    /// All hardware threads, moderate chunks.
    fn default() -> Self {
        Parallelism {
            threads: 0,
            chunk_size: 32,
        }
    }
}

/// The machine's available parallelism (1 if unknown).
///
/// Cached after the first call: every primitive resolves
/// [`Parallelism::effective_threads`] on entry, and on single-core
/// hosts the serial fall-through must not pay a syscall per kernel
/// invocation.
pub fn available_threads() -> usize {
    static CACHED: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CACHED.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Runs two closures as a fork-join pair and returns both results.
///
/// `budget` is the worker-thread budget for the task subtree rooted at
/// this join. With `budget >= 2` the second closure runs on a freshly
/// scoped thread while the first runs on the current one, and the
/// budget is split between them (the first keeps the odd thread) so
/// nested joins form a task tree that never exceeds the budget. With
/// `budget <= 1` both closures run serially on the current thread.
///
/// Each closure receives its own sub-budget to pass to nested joins.
/// Per the crate determinism contract, the results are identical for
/// any budget — scheduling only changes wall-clock time. This is the
/// primitive behind fork-join recursive-bisection placement, where
/// the two halves of a cut are placed concurrently.
///
/// # Examples
///
/// ```
/// use macro3d_par::parallel_join;
///
/// let (a, b) = parallel_join(8, |_| 2 + 2, |sub| sub);
/// assert_eq!(a, 4);
/// assert_eq!(b, 4); // the second task got half the budget
/// ```
///
/// # Panics
///
/// Propagates a panic from either closure.
pub fn parallel_join<RA, RB, FA, FB>(budget: usize, a: FA, b: FB) -> (RA, RB)
where
    RA: Send,
    RB: Send,
    FA: FnOnce(usize) -> RA + Send,
    FB: FnOnce(usize) -> RB + Send,
{
    // every path marks a parallel region so budget checkpoints inside
    // the closures stay inert regardless of where they execute (see
    // the `budget` module's determinism rules)
    let _region = budget::RegionGuard::enter();
    if budget < 2 {
        return (a(1), b(1));
    }
    let budget_b = budget / 2;
    let budget_a = budget - budget_b;
    let fork = macro3d_obs::fork();
    let result = std::thread::scope(|scope| {
        let fork_b = fork.clone();
        let handle_b = scope.spawn(move || {
            let _branch = fork_b.branch(1);
            b(budget_b)
        });
        let ra = {
            let _branch = fork.branch(0);
            a(budget_a)
        };
        let rb = match handle_b.join() {
            Ok(rb) => rb,
            Err(payload) => std::panic::resume_unwind(payload),
        };
        (ra, rb)
    });
    fork.join();
    result
}

/// Maps `f` over `items`, in parallel, preserving input order, with a
/// per-worker scratch value built by `init` (rayon's `map_with`).
///
/// `f` receives the scratch, the item's index, and the item. Results
/// are returned in input order and are identical to a serial run for
/// any thread count (see the crate-level determinism contract).
pub fn parallel_map_with<T, S, R, I, F>(items: &[T], par: &Parallelism, init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    // serial fallback and threaded path both count as a parallel
    // region: checkpoint firing must not depend on the thread count
    let _region = budget::RegionGuard::enter();
    let threads = par.effective_threads().min(items.len().max(1));
    if threads <= 1 {
        let mut scratch = init();
        return items
            .iter()
            .enumerate()
            .map(|(ix, item)| f(&mut scratch, ix, item))
            .collect();
    }

    let grab = par.chunk_size.max(1);
    let cursor = AtomicUsize::new(0);
    // (start index, results) per grabbed chunk; stitched afterwards
    let parts: Mutex<Vec<(usize, Vec<R>)>> = Mutex::new(Vec::new());

    let fork = macro3d_obs::fork();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut scratch = init();
                loop {
                    let start = cursor.fetch_add(grab, Ordering::Relaxed);
                    if start >= items.len() {
                        break;
                    }
                    let end = (start + grab).min(items.len());
                    let branch = fork.branch(start as u64);
                    let chunk: Vec<R> = (start..end)
                        .map(|ix| f(&mut scratch, ix, &items[ix]))
                        .collect();
                    drop(branch);
                    parts
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .push((start, chunk));
                }
            });
        }
    });
    fork.join();

    let mut parts = parts
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    parts.sort_unstable_by_key(|&(start, _)| start);
    let mut out = Vec::with_capacity(items.len());
    for (_, chunk) in parts {
        out.extend(chunk);
    }
    out
}

/// Maps `f` over `items` in parallel, preserving input order
/// (stateless convenience wrapper over [`parallel_map_with`]).
pub fn parallel_map<T, R, F>(items: &[T], par: &Parallelism, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    parallel_map_with(items, par, || (), |(), ix, item| f(ix, item))
}

/// Runs `f(index, &mut out[index])` for every element of a
/// caller-owned buffer, in parallel — [`parallel_map`] for hot loops
/// that reuse one output allocation across calls.
///
/// Each element is written by exactly one call, so the buffer's
/// final contents are identical to a serial run for any thread count.
pub fn parallel_for_each_mut<R, F>(out: &mut [R], par: &Parallelism, f: F)
where
    R: Send,
    F: Fn(usize, &mut R) + Sync,
{
    let _region = budget::RegionGuard::enter();
    let threads = par.effective_threads().min(out.len().max(1));
    if threads <= 1 {
        for (ix, r) in out.iter_mut().enumerate() {
            f(ix, r);
        }
        return;
    }
    let grab = par.chunk_size.max(1);
    run_chunks(
        threads,
        (0usize, out),
        |(next, rest)| {
            if rest.is_empty() {
                return None;
            }
            let len = grab.min(rest.len());
            let (head, tail) = std::mem::take(rest).split_at_mut(len);
            *rest = tail;
            let start = *next;
            *next += head.len();
            Some((start, head))
        },
        || (),
        |(), start, chunk| {
            for (off, r) in chunk.iter_mut().enumerate() {
                f(start + off, r);
            }
        },
    );
}

/// Runs `f(scratch, segment, &mut slots[offsets[segment]..offsets[segment + 1]],
/// &mut out[segment])` for every segment of a CSR layout, in
/// parallel, with a per-worker scratch value built by `init`.
///
/// `offsets` has one more entry than `out` and starts at 0; its last
/// entry is `slots.len()`. Segments are handed out in chunks of
/// `chunk_size` consecutive segments, so every slot and every `out`
/// element is written by exactly one call and the buffers end up
/// identical to a serial run for any thread count.
///
/// # Panics
///
/// Panics if `offsets` does not describe `slots` and `out` as above.
pub fn parallel_segments_with<S, R, W, I, F>(
    offsets: &[u32],
    slots: &mut [S],
    out: &mut [R],
    par: &Parallelism,
    init: I,
    f: F,
) where
    S: Send,
    R: Send,
    I: Fn() -> W + Sync,
    F: Fn(&mut W, usize, &mut [S], &mut R) + Sync,
{
    assert_eq!(
        offsets.len(),
        out.len() + 1,
        "one offset per segment, plus one"
    );
    assert_eq!(offsets[0], 0, "segments start at slot 0");
    assert_eq!(
        offsets[out.len()] as usize,
        slots.len(),
        "last offset ends the slots"
    );
    // runs the segments of one chunk, `first` being the segment that
    // `slots[0]` and `out[0]` belong to
    let run = |scratch: &mut W, first: usize, slots: &mut [S], out: &mut [R]| {
        let mut rest = slots;
        for (off, r) in out.iter_mut().enumerate() {
            let seg = first + off;
            let len = (offsets[seg + 1] - offsets[seg]) as usize;
            let (mine, tail) = std::mem::take(&mut rest).split_at_mut(len);
            rest = tail;
            f(scratch, seg, mine, r);
        }
    };
    let _region = budget::RegionGuard::enter();
    let threads = par.effective_threads().min(out.len().max(1));
    if threads <= 1 {
        run(&mut init(), 0, slots, out);
        return;
    }
    let grab = par.chunk_size.max(1);
    run_chunks(
        threads,
        (0usize, slots, out),
        |(next, slots, out)| {
            if out.is_empty() {
                return None;
            }
            let start = *next;
            let segs = grab.min(out.len());
            let len = (offsets[start + segs] - offsets[start]) as usize;
            let (slot_head, slot_tail) = std::mem::take(slots).split_at_mut(len);
            let (out_head, out_tail) = std::mem::take(out).split_at_mut(segs);
            *slots = slot_tail;
            *out = out_tail;
            *next += segs;
            Some((start, (slot_head, out_head)))
        },
        init,
        |scratch, start, (slots, out)| run(scratch, start, slots, out),
    );
}

/// The worker pool behind the buffer-writing primitives: `threads`
/// scoped workers repeatedly take the next `(start index, chunk)` from
/// `queue` via `take` (under a lock) and process it with `work`. Each
/// chunk runs in an obs branch keyed by its start index, like
/// [`parallel_map_with`]'s chunks.
fn run_chunks<Q, C, W, T, I, F>(threads: usize, queue: Q, take: T, init: I, work: F)
where
    Q: Send,
    C: Send,
    T: Fn(&mut Q) -> Option<(usize, C)> + Sync,
    I: Fn() -> W + Sync,
    F: Fn(&mut W, usize, C) + Sync,
{
    let queue = Mutex::new(queue);
    let fork = macro3d_obs::fork();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut scratch = init();
                loop {
                    let next = take(
                        &mut queue
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner),
                    );
                    let Some((start, chunk)) = next else { break };
                    let _branch = fork.branch(start as u64);
                    work(&mut scratch, start, chunk);
                }
            });
        }
    });
    fork.join();
}

/// Folds `map` over all items and reduces the per-worker partials
/// with `reduce`. `reduce` must be associative and commutative (the
/// partial order is unspecified); use [`parallel_map`] when exact
/// serial reduction order matters.
pub fn parallel_fold<T, A, M, RD>(
    items: &[T],
    par: &Parallelism,
    identity: A,
    map: M,
    reduce: RD,
) -> A
where
    T: Sync,
    A: Send + Sync + Clone,
    M: Fn(A, usize, &T) -> A + Sync,
    RD: Fn(A, A) -> A,
{
    let partials = {
        let _region = budget::RegionGuard::enter();
        let threads = par.effective_threads().min(items.len().max(1));
        if threads <= 1 {
            vec![items
                .iter()
                .enumerate()
                .fold(identity.clone(), |acc, (ix, item)| map(acc, ix, item))]
        } else {
            let grab = par.chunk_size.max(1);
            let cursor = AtomicUsize::new(0);
            let parts: Mutex<Vec<A>> = Mutex::new(Vec::new());
            let fork = macro3d_obs::fork();
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(|| {
                        let mut acc = identity.clone();
                        loop {
                            let start = cursor.fetch_add(grab, Ordering::Relaxed);
                            if start >= items.len() {
                                break;
                            }
                            let end = (start + grab).min(items.len());
                            let branch = fork.branch(start as u64);
                            for (off, item) in items[start..end].iter().enumerate() {
                                acc = map(acc, start + off, item);
                            }
                            drop(branch);
                        }
                        parts
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner)
                            .push(acc);
                    });
                }
            });
            fork.join();
            parts
                .into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
        }
    };
    partials.into_iter().fold(identity, reduce)
}

/// Deterministic parallel argmin over a keyed slice: returns the
/// `(index, key)` of the smallest key, breaking ties toward the
/// lowest index — the element a serial first-strictly-smaller scan
/// would keep — so the result is bit-identical for any thread count.
/// Items for which `key` returns `None` are skipped; returns `None`
/// when every item is skipped. `key` must not return NaN.
///
/// This is the reduction shape the parametric STA endpoint folds use
/// (worst slack, binding period); it is generally useful whenever a
/// "first worst element" must be selected reproducibly in parallel.
pub fn parallel_argmin<T, K>(items: &[T], par: &Parallelism, key: K) -> Option<(usize, f64)>
where
    T: Sync,
    K: Fn(usize, &T) -> Option<f64> + Sync,
{
    #[derive(Clone, Copy)]
    struct Acc {
        key: f64,
        ix: usize,
    }
    let better =
        |key: f64, ix: usize, than: &Acc| key < than.key || (key == than.key && ix < than.ix);
    let acc = parallel_fold(
        items,
        par,
        Acc {
            key: f64::INFINITY,
            ix: usize::MAX,
        },
        |mut acc, ix, item| {
            if let Some(k) = key(ix, item) {
                debug_assert!(!k.is_nan(), "parallel_argmin keys must not be NaN");
                if better(k, ix, &acc) {
                    acc.key = k;
                    acc.ix = ix;
                }
            }
            acc
        },
        |a, b| {
            if better(b.key, b.ix, &a) {
                b
            } else {
                a
            }
        },
    );
    (acc.ix != usize::MAX).then_some((acc.ix, acc.key))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order_across_thread_counts() {
        let items: Vec<u64> = (0..1000).collect();
        let serial = parallel_map(&items, &Parallelism::serial(), |ix, &x| x * 3 + ix as u64);
        for threads in [2, 4, 8] {
            let par = Parallelism::threads(threads).with_chunk_size(7);
            let got = parallel_map(&items, &par, |ix, &x| x * 3 + ix as u64);
            assert_eq!(got, serial, "threads={threads}");
        }
    }

    #[test]
    fn map_with_reuses_scratch() {
        let items: Vec<u32> = (0..257).collect();
        let par = Parallelism::threads(4).with_chunk_size(16);
        // scratch counts items seen by one worker; result ignores it,
        // so output is still deterministic
        let out = parallel_map_with(
            &items,
            &par,
            || 0usize,
            |seen, _ix, &x| {
                *seen += 1;
                assert!(*seen <= items.len());
                x + 1
            },
        );
        assert_eq!(out, (1..258).collect::<Vec<_>>());
    }

    #[test]
    fn for_each_mut_fills_like_serial_across_thread_counts() {
        let run = |threads: usize| {
            let mut out = vec![0u64; 1000];
            let par = Parallelism::threads(threads).with_chunk_size(7);
            parallel_for_each_mut(&mut out, &par, |ix, r| *r = ix as u64 * 3 + 1);
            out
        };
        let serial = run(1);
        assert_eq!(serial[10], 31);
        for threads in [2, 4, 8] {
            assert_eq!(run(threads), serial, "threads={threads}");
        }
    }

    #[test]
    fn segments_see_exactly_their_slots_across_thread_counts() {
        // ragged segments, empty ones included
        let lens = [3u32, 0, 1, 5, 0, 0, 2, 7, 1, 4, 0, 3];
        let mut offsets = vec![0u32];
        for len in lens {
            offsets.push(offsets.last().unwrap() + len);
        }
        let run = |threads: usize| {
            let mut slots = vec![(0usize, 0usize); *offsets.last().unwrap() as usize];
            let mut out = vec![0usize; lens.len()];
            let par = Parallelism::threads(threads).with_chunk_size(2);
            parallel_segments_with(
                &offsets,
                &mut slots,
                &mut out,
                &par,
                || 0usize,
                |seen, seg, mine, r| {
                    *seen += 1;
                    assert_eq!(mine.len(), lens[seg] as usize);
                    for (j, s) in mine.iter_mut().enumerate() {
                        *s = (seg, j);
                    }
                    *r = seg * 10 + mine.len();
                },
            );
            (slots, out)
        };
        let serial = run(1);
        assert_eq!(serial.1[3], 35);
        assert_eq!(serial.0[4], (3, 0));
        for threads in [2, 3, 8] {
            assert_eq!(run(threads), serial, "threads={threads}");
        }
    }

    #[test]
    fn fold_matches_serial_sum() {
        let items: Vec<u64> = (0..10_000).collect();
        let expect: u64 = items.iter().sum();
        for threads in [1, 3, 8] {
            let par = Parallelism::threads(threads);
            let got = parallel_fold(&items, &par, 0u64, |acc, _ix, &x| acc + x, |a, b| a + b);
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn argmin_breaks_ties_toward_lowest_index_any_thread_count() {
        // duplicate minima at indices 3 and 7; index 3 must win
        let items = vec![5.0, 2.0, 9.0, 1.0, 4.0, 8.0, 6.0, 1.0];
        let expect = Some((3, 1.0));
        for threads in [1, 2, 4, 8] {
            let par = Parallelism::threads(threads).with_chunk_size(1);
            let got = parallel_argmin(&items, &par, |_, &k| Some(k));
            assert_eq!(got, expect, "threads={threads}");
        }
        // skipped items never win; all-skipped returns None
        let got = parallel_argmin(&items, &Parallelism::serial(), |ix, &k| {
            (ix != 3 && ix != 7).then_some(k)
        });
        assert_eq!(got, Some((1, 2.0)));
        let none = parallel_argmin(&items, &Parallelism::serial(), |_, _| None::<f64>);
        assert_eq!(none, None);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let par = Parallelism::default();
        let empty: Vec<u8> = Vec::new();
        assert!(parallel_map(&empty, &par, |_, &x| x).is_empty());
        assert_eq!(parallel_map(&[5u8], &par, |_, &x| x * 2), vec![10]);
    }

    /// A task-tree sum over a range: fork while the budget allows,
    /// serial below. The result must not depend on the budget.
    fn tree_sum(lo: u64, hi: u64, budget: usize) -> u64 {
        if hi - lo <= 64 {
            return (lo..hi).sum();
        }
        let mid = lo + (hi - lo) / 2;
        let (a, b) = parallel_join(
            budget,
            |sub| tree_sum(lo, mid, sub),
            |sub| tree_sum(mid, hi, sub),
        );
        a + b
    }

    #[test]
    fn join_is_budget_invariant() {
        let expect: u64 = (0..10_000).sum();
        for budget in [0, 1, 2, 3, 4, 8, 13] {
            assert_eq!(tree_sum(0, 10_000, budget), expect, "budget={budget}");
        }
    }

    #[test]
    fn join_splits_budget() {
        let (a, b) = parallel_join(5, |sub| sub, |sub| sub);
        assert_eq!((a, b), (3, 2), "first task keeps the odd thread");
        let (a, b) = parallel_join(1, |sub| sub, |sub| sub);
        assert_eq!((a, b), (1, 1), "serial tasks still get a unit budget");
    }

    #[test]
    fn join_borrows_from_the_caller() {
        let data = [1u32, 2, 3];
        let (s, l) = parallel_join(2, |_| data.iter().sum::<u32>(), |_| data.len());
        assert_eq!((s, l), (6, 3));
    }

    #[test]
    fn zero_threads_normalizes_to_hardware() {
        let par = Parallelism::default();
        assert!(par.effective_threads() >= 1);
        assert_eq!(Parallelism::serial().effective_threads(), 1);
    }

    /// Checkpoints inside primitive closures must be inert for ANY
    /// thread count — including the serial fallbacks that run worker
    /// closures on the calling thread — so budget/fault firing stays
    /// a pure function of the work decomposition.
    #[test]
    fn checkpoints_inside_primitives_are_inert_for_any_thread_count() {
        use budget::{checkpoint, site_visits, BudgetScope, Checkpoint, FlowBudget};
        let items: Vec<u32> = (0..64).collect();
        for threads in [1, 2, 8] {
            let budget = FlowBudget::unlimited().with_cap("t", 1);
            let scope = BudgetScope::begin(&budget, None);
            let par = Parallelism::threads(threads).with_chunk_size(5);
            parallel_map(&items, &par, |_, &x| {
                assert_eq!(checkpoint("t"), Checkpoint::Continue);
                x
            });
            parallel_fold(
                &items,
                &par,
                0u32,
                |acc, _, &x| {
                    assert_eq!(checkpoint("t"), Checkpoint::Continue);
                    acc + x
                },
                |a, b| a + b,
            );
            let (_, _) = parallel_join(
                threads,
                |_| assert_eq!(checkpoint("t"), Checkpoint::Continue),
                |_| assert_eq!(checkpoint("t"), Checkpoint::Continue),
            );
            assert_eq!(site_visits("t"), 0, "threads={threads}");
            // outside the primitives the cap still applies normally
            assert_eq!(checkpoint("t"), Checkpoint::Continue);
            assert_eq!(
                checkpoint("t"),
                Checkpoint::Stop(budget::StopReason::IterationCap)
            );
            drop(scope);
        }
    }

    /// Spans opened inside worker closures stitch into the same tree
    /// for any thread count (the obs arm of the determinism
    /// contract). Each session records on this test's thread, and the
    /// fork points carry it to the workers.
    #[test]
    fn spans_stitch_identically_across_thread_counts() {
        use macro3d_obs::{ObsConfig, Session};
        let items: Vec<u64> = (0..100).collect();
        let signature = |threads: usize| {
            let session = Session::start(ObsConfig::full(), "par-test");
            let par = Parallelism::threads(threads).with_chunk_size(9);
            parallel_map(&items, &par, |ix, &x| {
                let _span = macro3d_obs::span_owned(format!("item{ix}"));
                x + 1
            });
            let (_, _) = parallel_join(
                threads,
                |_| {
                    let _s = macro3d_obs::span("left");
                },
                |_| {
                    let _s = macro3d_obs::span("right");
                },
            );
            session.finish().expect("tracing on").tree_signature()
        };
        let serial = signature(1);
        assert!(serial.contains("item0\n") && serial.contains("item99\n"));
        assert!(serial.contains("left\n") && serial.contains("right\n"));
        for threads in [2, 8] {
            assert_eq!(signature(threads), serial, "threads={threads}");
        }
    }
}

//! Hierarchical spans with a thread-aware, deterministic collector.
//!
//! Spans are recorded into a thread-local buffer as a flat forest
//! (`parent` index links). Parallel regions use the fork/branch/join
//! protocol: [`fork`] marks a fork point, every unit of parallel work
//! wraps itself in [`ForkPoint::branch`] with a *stable* key (chunk
//! start index, join-arm number — never a thread id), and
//! [`ForkPoint::join`] splices the collected branch forests back into
//! the caller's buffer sorted by key. Because the keys depend only on
//! the work decomposition — which `macro3d-par` guarantees is
//! thread-count-independent — the stitched span tree is bit-identical
//! for any number of worker threads. A branch also installs the
//! forking thread's recorder on its worker, so metrics recorded there
//! land in the forking session's registry.

use crate::{ObsLevel, Run};
use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// One completed span, as exposed in a [`crate::FlowTrace`].
///
/// Spans form a forest encoded by `parent` indices into the same
/// vector; a parent always precedes its children, and sibling order
/// is the deterministic recording order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name (e.g. `route`, `bisect d3 n512`).
    pub name: String,
    /// Index of the parent span in the containing vector, if any.
    pub parent: Option<u32>,
    /// Id of the thread that recorded the span (first-use order; not
    /// part of the determinism contract).
    pub tid: u32,
    /// Start time in nanoseconds since the process-wide epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Internal node: a [`SpanRecord`] plus the cancellation flag used by
/// [`crate::StageTimer`]-style unnamed spans.
#[derive(Clone, Debug)]
pub(crate) struct Node {
    pub(crate) name: String,
    pub(crate) parent: Option<u32>,
    pub(crate) tid: u32,
    pub(crate) start_ns: u64,
    pub(crate) dur_ns: u64,
    pub(crate) cancelled: bool,
}

#[derive(Default)]
pub(crate) struct LocalBuf {
    pub(crate) nodes: Vec<Node>,
    /// Indices of currently open spans, innermost last.
    stack: Vec<u32>,
}

thread_local! {
    static TLS: RefCell<LocalBuf> = RefCell::new(LocalBuf::default());
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

fn tid() -> u32 {
    thread_local! {
        static TID: Cell<u32> = const { Cell::new(u32::MAX) };
    }
    static NEXT: AtomicU32 = AtomicU32::new(1);
    TID.with(|t| {
        if t.get() == u32::MAX {
            t.set(NEXT.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// Makes `buf` the current thread's span buffer; returns the one it
/// displaces (session start and finish).
pub(crate) fn swap_thread(buf: LocalBuf) -> LocalBuf {
    TLS.replace(buf)
}

/// Opens a span unconditionally (the session root).
pub(crate) fn open_unchecked(name: String) -> SpanGuard {
    open(name)
}

fn open(name: String) -> SpanGuard {
    TLS.with(|t| {
        let mut buf = t.borrow_mut();
        let idx = buf.nodes.len() as u32;
        let parent = buf.stack.last().copied();
        buf.nodes.push(Node {
            name,
            parent,
            tid: tid(),
            start_ns: now_ns(),
            dur_ns: 0,
            cancelled: false,
        });
        buf.stack.push(idx);
    });
    SpanGuard {
        done: false,
        _not_send: PhantomData,
    }
}

/// Opens a named span at [`ObsLevel::Full`]; `None` below that level.
///
/// Bind the guard (`let _span = obs::span("...")`) — it closes the
/// span on drop. Prefer [`crate::span_full!`] when the name needs
/// formatting, so the `format!` is skipped while tracing is off.
#[inline]
pub fn span(name: &str) -> Option<SpanGuard> {
    crate::enabled(ObsLevel::Full).then(|| open(name.to_owned()))
}

/// Like [`span`] but takes an owned (typically formatted) name.
#[inline]
pub fn span_owned(name: String) -> Option<SpanGuard> {
    crate::enabled(ObsLevel::Full).then(|| open(name))
}

/// Opens an *unnamed* span at [`ObsLevel::Summary`]: the stage-timer
/// idiom where the name is only known when the stage ends. Close it
/// with [`SpanGuard::finish_named`]; if the guard is instead dropped
/// while still unnamed, the span is discarded (its children are
/// reparented to its parent).
#[inline]
pub fn stage_begin() -> Option<SpanGuard> {
    crate::enabled(ObsLevel::Summary).then(|| open(String::new()))
}

/// Closes its span on drop. `!Send` by construction: a span must be
/// closed on the thread that opened it.
pub struct SpanGuard {
    done: bool,
    _not_send: PhantomData<*const ()>,
}

impl SpanGuard {
    /// Closes the span, giving it its final name (stage-timer idiom).
    pub fn finish_named(mut self, name: &str) {
        self.close(Some(name));
    }

    fn close(&mut self, rename: Option<&str>) {
        if self.done {
            return;
        }
        self.done = true;
        TLS.with(|t| {
            let mut buf = t.borrow_mut();
            let Some(idx) = buf.stack.pop() else { return };
            let end = now_ns();
            let node = &mut buf.nodes[idx as usize];
            if let Some(name) = rename {
                node.name = name.to_owned();
            }
            node.dur_ns = end.saturating_sub(node.start_ns);
            if node.name.is_empty() {
                node.cancelled = true;
            }
        });
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.close(None);
    }
}

struct ForkInner {
    /// `(branch key, recorded forest)` per completed branch.
    branches: Mutex<Vec<(u64, Vec<Node>)>>,
}

/// A fork point for a parallel region (see the module docs).
///
/// Inert (zero-cost beyond one `Option` check) when nothing records on
/// the thread that calls [`fork`]. Branch span forests are collected
/// only at [`ObsLevel::Full`].
#[derive(Clone)]
pub struct ForkPoint {
    /// The forking thread's recorder, installed on every branch.
    run: Option<Run>,
    spans: Option<Arc<ForkInner>>,
}

/// Creates a fork point. Call on the forking thread, *before* the
/// parallel region; hand (a clone of) it to every worker.
pub fn fork() -> ForkPoint {
    let run = crate::current();
    let spans = run
        .as_ref()
        .filter(|run| run.level >= ObsLevel::Full)
        .map(|_| {
            Arc::new(ForkInner {
                branches: Mutex::new(Vec::new()),
            })
        });
    ForkPoint { run, spans }
}

impl ForkPoint {
    /// Enters a branch: until the guard drops, this thread records
    /// into the forking session, and (at [`ObsLevel::Full`]) its spans
    /// go into a private forest shipped to the fork point, keyed by
    /// `key`.
    ///
    /// `key` must be a deterministic function of the work item (chunk
    /// start index, join-arm number), unique within the fork, and
    /// must never encode the executing thread.
    pub fn branch(&self, key: u64) -> Option<BranchGuard> {
        let run = self.run.clone()?;
        Some(BranchGuard {
            displaced: crate::install(Some(run)),
            spans: self
                .spans
                .as_ref()
                .map(|inner| (Arc::clone(inner), TLS.replace(LocalBuf::default()))),
            key,
        })
    }

    /// Splices all branch forests back into the calling thread's
    /// buffer, sorted by branch key. Call after every branch guard
    /// has dropped (i.e. after the worker scope ends); branch roots
    /// become children of the caller's innermost open span.
    pub fn join(self) {
        let Some(inner) = self.spans else { return };
        let mut branches = std::mem::take(
            &mut *inner
                .branches
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        branches.sort_by_key(|&(key, _)| key);
        TLS.with(|t| {
            let mut buf = t.borrow_mut();
            let attach = buf.stack.last().copied();
            for (_key, nodes) in branches {
                let base = buf.nodes.len() as u32;
                for mut node in nodes {
                    node.parent = match node.parent {
                        Some(p) => Some(p + base),
                        None => attach,
                    };
                    buf.nodes.push(node);
                }
            }
        });
    }
}

/// Scopes one branch of a [`ForkPoint`]: restores the thread's own
/// recorder on drop and ships the branch's forest.
pub struct BranchGuard {
    displaced: Option<Run>,
    /// The fork point and the span buffer the branch displaced, at
    /// [`ObsLevel::Full`].
    spans: Option<(Arc<ForkInner>, LocalBuf)>,
    key: u64,
}

impl Drop for BranchGuard {
    fn drop(&mut self) {
        crate::install(self.displaced.take());
        let Some((inner, saved)) = self.spans.take() else {
            return;
        };
        let recorded = TLS.replace(saved);
        let mut nodes = recorded.nodes;
        // Close any span left open in the branch (a panic unwound
        // past its guard) so the forest stays well-formed.
        let end = now_ns();
        for &idx in recorded.stack.iter().rev() {
            let node = &mut nodes[idx as usize];
            if node.dur_ns == 0 {
                node.dur_ns = end.saturating_sub(node.start_ns);
            }
        }
        if !nodes.is_empty() {
            inner
                .branches
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push((self.key, nodes));
        }
    }
}

/// Resolves cancelled (dropped-unnamed) spans out of a raw forest:
/// kept spans are re-indexed and children of a cancelled span are
/// reparented to its nearest kept ancestor. Relies on the invariant
/// that a parent index is always smaller than its child's.
pub(crate) fn cleanup(nodes: Vec<Node>) -> Vec<SpanRecord> {
    let mut out: Vec<SpanRecord> = Vec::with_capacity(nodes.len());
    // nearest kept ancestor-or-self, as a new index, per old index
    let mut kept: Vec<Option<u32>> = Vec::with_capacity(nodes.len());
    for node in nodes {
        let parent = node.parent.and_then(|p| kept[p as usize]);
        if node.cancelled {
            kept.push(parent);
        } else {
            kept.push(Some(out.len() as u32));
            out.push(SpanRecord {
                name: node.name,
                parent,
                tid: node.tid,
                start_ns: node.start_ns,
                dur_ns: node.dur_ns,
            });
        }
    }
    out
}

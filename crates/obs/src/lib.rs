#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
//! Flow-wide observability for the Macro-3D reproduction: hierarchical
//! spans, a typed metrics registry, and Chrome-trace/JSON exporters.
//!
//! # Design
//!
//! A [`Session`] brackets one flow run and owns its recorder: an
//! [`ObsLevel`] and a [`Registry`] of its own, installed for the flow
//! thread the way `macro3d-par`'s `BudgetScope` installs a budget.
//! Every instrumentation site reads the thread's recorder, so
//! `ObsConfig::off()` (which installs none) costs one thread-local
//! read per site:
//!
//! - [`ObsLevel::Off`] — nothing is recorded.
//! - [`ObsLevel::Summary`] — stage spans and metrics.
//! - [`ObsLevel::Full`] — adds fine-grained engine spans (per-level
//!   bisection, per-rip-up-round routing).
//!
//! Parallel regions carry the recorder to their workers: [`fork`]
//! captures it and [`ForkPoint::branch`] installs it on the worker for
//! the branch. Spans are collected per thread and stitched
//! deterministically at fork-join boundaries (see [`span`], [`fork`],
//! [`ForkPoint`]): branches are keyed by their position in the *work
//! decomposition* (chunk start index, join arm), never by thread, so
//! the stitched tree — and every metric — is bit-identical for any
//! thread count, matching the `macro3d-par` determinism contract.
//!
//! Sessions on different threads never share a recorder, so any number
//! of flows may be observed concurrently, each trace counting exactly
//! its own run.
//!
//! # Examples
//!
//! ```
//! use macro3d_obs::{ObsConfig, Session};
//!
//! let session = Session::start(ObsConfig::full(), "demo");
//! {
//!     let _stage = macro3d_obs::span("place");
//!     if let Some(registry) = macro3d_obs::registry() {
//!         registry.counter("place/fm_passes").add(3);
//!     }
//! }
//! let trace = session.finish().expect("tracing was on");
//! assert_eq!(trace.stage_names(), ["place"]);
//! assert_eq!(trace.metrics.counters["place/fm_passes"], 3);
//! ```

mod export;
mod metrics;
mod span;

pub use export::FlowTrace;
pub use metrics::{
    Counter, Gauge, HistSnapshot, Histogram, MetricsSnapshot, Registry, Series, SiteCounter,
    SiteHistogram,
};
pub use span::{
    fork, span, span_owned, stage_begin, BranchGuard, ForkPoint, SpanGuard, SpanRecord,
};

use std::cell::RefCell;
use std::sync::Arc;

/// How much a [`Session`] records.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum ObsLevel {
    /// Record nothing (the default).
    #[default]
    Off,
    /// Stage spans and metrics.
    Summary,
    /// Everything: adds fine-grained engine spans.
    Full,
}

/// One session's recorder: how much it records, and where.
#[derive(Clone)]
pub(crate) struct Run {
    pub(crate) level: ObsLevel,
    pub(crate) registry: Arc<Registry>,
}

thread_local! {
    /// The recorder of the session this thread works for, if any.
    static RUN: RefCell<Option<Run>> = const { RefCell::new(None) };
}

/// Makes `run` this thread's recorder; returns the one it displaces.
pub(crate) fn install(run: Option<Run>) -> Option<Run> {
    RUN.replace(run)
}

/// This thread's recorder, if a session (or a branch of one) is active.
pub(crate) fn current() -> Option<Run> {
    RUN.with_borrow(Clone::clone)
}

/// Calls `f` with this thread's registry; does nothing without one.
#[inline]
pub(crate) fn with_registry(f: impl FnOnce(&Registry)) {
    RUN.with_borrow(|run| {
        if let Some(run) = run {
            f(&run.registry);
        }
    });
}

/// True when this thread's session records at least `min`. One
/// thread-local read — cheap enough for hot engine loops.
#[inline]
pub fn enabled(min: ObsLevel) -> bool {
    RUN.with_borrow(|run| run.as_ref().map_or(ObsLevel::Off, |run| run.level) >= min)
}

/// The registry of this thread's session, or `None` when nothing
/// records here (no session, or an off one).
pub fn registry() -> Option<Arc<Registry>> {
    RUN.with_borrow(|run| run.as_ref().map(|run| Arc::clone(&run.registry)))
}

/// Observability settings threaded through `FlowConfig`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ObsConfig {
    /// Recording level for the flow's session.
    pub level: ObsLevel,
}

impl ObsConfig {
    /// Record nothing (the default; <2 % overhead budget).
    pub fn off() -> Self {
        ObsConfig {
            level: ObsLevel::Off,
        }
    }

    /// Stage spans and metrics only.
    pub fn summary() -> Self {
        ObsConfig {
            level: ObsLevel::Summary,
        }
    }

    /// Full tracing, including fine-grained engine spans.
    pub fn full() -> Self {
        ObsConfig {
            level: ObsLevel::Full,
        }
    }

    /// True when nothing will be recorded.
    pub fn is_off(&self) -> bool {
        self.level == ObsLevel::Off
    }
}

/// Opens a [`span`] whose name needs formatting, without paying for
/// the `format!` unless the session level is [`ObsLevel::Full`].
///
/// ```
/// let depth = 3;
/// let _span = macro3d_obs::span_full!("bisect d{depth}");
/// ```
#[macro_export]
macro_rules! span_full {
    ($($arg:tt)*) => {
        if $crate::enabled($crate::ObsLevel::Full) {
            $crate::span_owned(format!($($arg)*))
        } else {
            None
        }
    };
}

/// One flow run's recording session. Start it before the flow's first
/// stage, finish it after the last; [`Session::finish`] returns the
/// stitched [`FlowTrace`] (or `None` when the config was off).
///
/// Dropping an unfinished session (a flow that panicked) restores what
/// it displaced, so nothing stays armed on the thread.
pub struct Session {
    /// `None` for an off session, which installs nothing.
    active: Option<Active>,
}

/// What an enabled session installed on its thread, and what it
/// displaced there.
struct Active {
    flow: String,
    registry: Arc<Registry>,
    root: SpanGuard,
    displaced: Option<Run>,
    displaced_spans: span::LocalBuf,
}

impl Active {
    /// Closes the root span and puts back what the session displaced;
    /// returns the session's raw span forest.
    fn end(self) -> Vec<span::Node> {
        drop(self.root);
        install(self.displaced);
        span::swap_thread(self.displaced_spans).nodes
    }
}

impl Session {
    /// Starts a session for `flow` on this thread: installs a fresh
    /// recorder at `cfg.level` and an empty span buffer, and opens the
    /// root span. Inert when `cfg.is_off()`.
    pub fn start(cfg: ObsConfig, flow: &str) -> Session {
        let active = (!cfg.is_off()).then(|| {
            let registry = Arc::new(Registry::default());
            let displaced = install(Some(Run {
                level: cfg.level,
                registry: Arc::clone(&registry),
            }));
            let displaced_spans = span::swap_thread(span::LocalBuf::default());
            Active {
                flow: flow.to_owned(),
                registry,
                root: span::open_unchecked(format!("flow:{flow}")),
                displaced,
                displaced_spans,
            }
        });
        Session { active }
    }

    /// Ends the session: closes the root span, restores what the
    /// session displaced, and returns the trace (`None` for an inert
    /// session). Must run on the thread that called [`Session::start`].
    pub fn finish(mut self) -> Option<FlowTrace> {
        let mut active = self.active.take()?;
        Some(FlowTrace {
            flow: std::mem::take(&mut active.flow),
            metrics: active.registry.snapshot(),
            spans: span::cleanup(active.end()),
        })
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        if let Some(active) = self.active.take() {
            active.end();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn off_session_records_nothing() {
        let session = Session::start(ObsConfig::off(), "noop");
        let _span = span("invisible");
        assert!(_span.is_none());
        assert!(registry().is_none());
        assert!(session.finish().is_none());
    }

    #[test]
    fn nested_spans_form_a_tree() {
        let session = Session::start(ObsConfig::full(), "t");
        {
            let _a = span("a");
            {
                let _b = span("b");
            }
            let _c = span_full!("c{}", 1);
        }
        let trace = session.finish().expect("on");
        assert_eq!(trace.tree_signature(), "flow:t\n  a\n    b\n    c1\n");
        assert_eq!(trace.stage_names(), ["a"]);
    }

    #[test]
    fn summary_level_skips_full_spans() {
        let session = Session::start(ObsConfig::summary(), "t");
        assert!(span("fine").is_none());
        let stage = stage_begin().expect("summary records stages");
        stage.finish_named("route");
        let trace = session.finish().expect("on");
        assert_eq!(trace.tree_signature(), "flow:t\n  route\n");
    }

    #[test]
    fn dropped_unnamed_span_is_cancelled_and_children_reparent() {
        let session = Session::start(ObsConfig::full(), "t");
        {
            let _pending = stage_begin();
            let _child = span("kept");
        } // _pending drops unnamed -> cancelled
        let trace = session.finish().expect("on");
        assert_eq!(trace.tree_signature(), "flow:t\n  kept\n");
    }

    /// Stitching is identical whether branches run serially or on
    /// threads, and regardless of completion order.
    #[test]
    fn fork_join_stitches_deterministically() {
        static WORK: SiteCounter = SiteCounter::new("test/branch_work");
        let run = |threaded: bool| {
            let session = Session::start(ObsConfig::full(), "t");
            {
                let _stage = span("stage");
                let fp = fork();
                if threaded {
                    std::thread::scope(|scope| {
                        // reverse spawn order to shuffle completion
                        for key in [2u64, 1, 0] {
                            let fp = &fp;
                            scope.spawn(move || {
                                let _b = fp.branch(key);
                                let _s = span_full!("work{key}");
                                let _inner = span("inner");
                                WORK.add(key + 1);
                            });
                        }
                    });
                } else {
                    for key in [0u64, 1, 2] {
                        let _b = fp.branch(key);
                        let _s = span_full!("work{key}");
                        let _inner = span("inner");
                        WORK.add(key + 1);
                    }
                }
                fp.join();
            }
            let trace = session.finish().expect("on");
            assert_eq!(trace.metrics.counters["test/branch_work"], 6);
            trace.tree_signature()
        };
        let serial = run(false);
        let threaded = run(true);
        assert_eq!(serial, threaded);
        assert_eq!(
            serial,
            "flow:t\n  stage\n    work0\n      inner\n    work1\n      inner\n    work2\n      inner\n"
        );
    }

    /// A thread with no session records nothing, even into an
    /// instrument another thread's open session is counting.
    #[test]
    fn sessions_count_only_their_own_thread() {
        static SHARED: SiteCounter = SiteCounter::new("test/shared_site");
        let barrier = Barrier::new(2);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                barrier.wait();
                for _ in 0..1_000 {
                    SHARED.inc();
                }
                barrier.wait();
            });
            let session = Session::start(ObsConfig::summary(), "a");
            SHARED.add(5);
            barrier.wait();
            barrier.wait();
            let trace = session.finish().expect("on");
            assert_eq!(trace.metrics.counters["test/shared_site"], 5);
        });
    }

    /// A session that unwinds without finishing leaves nothing armed,
    /// and a session lists only the instruments its own run touched.
    #[test]
    fn an_unfinished_session_restores_what_it_displaced() {
        static SITE: SiteCounter = SiteCounter::new("test/unwound_site");
        let panicked = std::panic::catch_unwind(|| {
            let _session = Session::start(ObsConfig::full(), "panics");
            let _stage = span("stage");
            SITE.inc();
            panic!("flow failed");
        });
        assert!(panicked.is_err());
        assert!(!enabled(ObsLevel::Summary));
        assert!(registry().is_none());

        let session = Session::start(ObsConfig::summary(), "next");
        let trace = session.finish().expect("on");
        assert_eq!(trace.tree_signature(), "flow:next\n");
        assert!(trace.metrics.counters.is_empty());
    }

    #[test]
    fn histogram_tracks_bounds() {
        let registry = Registry::default();
        let h = registry.histogram("test/hist_bounds");
        h.record(5);
        h.record(1);
        h.record(9);
        let m = registry.snapshot();
        let snap = m.histograms["test/hist_bounds"];
        assert_eq!((snap.count, snap.sum, snap.min, snap.max), (3, 15, 1, 9));
        assert_eq!(snap.mean(), 5.0);
    }

    #[test]
    fn exports_are_valid_and_deterministic() {
        let session = Session::start(ObsConfig::full(), "ex");
        {
            let _s = span("stage \"quoted\"\n");
            let reg = registry().expect("on");
            reg.counter("cache/tile/hits").add(3);
            reg.counter("cache/tile/misses").add(1);
            reg.counter("place/anneal_proposals").add(10);
            reg.counter("place/anneal_accepts").add(4);
            reg.gauge("sta/cts_levels").set(3.0);
            reg.series("route/overflow").push(12.0);
            reg.series("route/overflow").push(0.5);
        }
        let trace = session.finish().expect("on");
        let chrome = trace.chrome_trace_json();
        assert!(chrome.starts_with("{\"traceEvents\":["));
        assert!(chrome.contains("\\\"quoted\\\"\\n"), "escaped: {chrome}");
        let metrics = trace.metrics_json();
        assert!(
            metrics.contains("\"cache/tile/hit_rate\": 0.75"),
            "{metrics}"
        );
        assert!(metrics.contains("\"place/anneal_accept_ratio\": 0.4"));
        assert!(metrics.contains("\"route/overflow\": [12, 0.5]"));
        assert!(metrics.contains("\"sta/cts_levels\": 3"));
        let display = format!("{trace}");
        assert!(display.contains("flow 'ex'"));
        assert!(display.contains("place/anneal_accepts"));
    }
}

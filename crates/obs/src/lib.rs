#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
//! Flow-wide observability for the Macro-3D reproduction: hierarchical
//! spans, a typed metrics registry, and Chrome-trace/JSON exporters.
//!
//! # Design
//!
//! A [`Session`] brackets one flow run. While it is active, a global
//! [`ObsLevel`] gates every instrumentation site behind one relaxed
//! atomic load, so `ObsConfig::off()` costs a branch per site:
//!
//! - [`ObsLevel::Off`] — nothing is recorded.
//! - [`ObsLevel::Summary`] — stage spans and metrics.
//! - [`ObsLevel::Full`] — adds fine-grained engine spans (per-level
//!   bisection, per-rip-up-round routing).
//!
//! Spans are collected per thread and stitched deterministically at
//! fork-join boundaries (see [`span`], [`fork`], [`ForkPoint`]):
//! branches are keyed by their position in the *work decomposition*
//! (chunk start index, join arm), never by thread, so the stitched
//! tree — and every metric — is bit-identical for any thread count,
//! matching the `macro3d-par` determinism contract.
//!
//! Exactly one session may be active in a process at a time (the
//! level and registry are global); the flow drivers in `macro3d`
//! uphold this by running flows sequentially.
//!
//! # Examples
//!
//! ```
//! use macro3d_obs::{ObsConfig, Session};
//!
//! let session = Session::start(ObsConfig::full(), "demo");
//! {
//!     let _stage = macro3d_obs::span("place");
//!     macro3d_obs::registry().counter("place/fm_passes").add(3);
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
    registry, Counter, Gauge, HistSnapshot, Histogram, MetricsSnapshot, Registry, Series,
    SiteCounter, SiteHistogram,
};
pub use span::{
    fork, span, span_owned, stage_begin, BranchGuard, ForkPoint, SpanGuard, SpanRecord,
};

use std::sync::atomic::{AtomicU8, Ordering};

/// How much a [`Session`] records.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum ObsLevel {
    /// Record nothing (the default).
    #[default]
    Off = 0,
    /// Stage spans and metrics.
    Summary = 1,
    /// Everything: adds fine-grained engine spans.
    Full = 2,
}

static LEVEL: AtomicU8 = AtomicU8::new(ObsLevel::Off as u8);

/// True when the active session records at least `min`. One relaxed
/// atomic load — cheap enough for hot engine loops.
#[inline]
pub fn enabled(min: ObsLevel) -> bool {
    LEVEL.load(Ordering::Relaxed) >= min as u8
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
pub struct Session {
    flow: String,
    root: Option<SpanGuard>,
    active: bool,
}

impl Session {
    /// Starts a session for `flow`: sets the global level, zeroes the
    /// metrics registry, and opens the root span. Inert when
    /// `cfg.is_off()`.
    pub fn start(cfg: ObsConfig, flow: &str) -> Session {
        if cfg.is_off() {
            return Session {
                flow: flow.to_owned(),
                root: None,
                active: false,
            };
        }
        LEVEL.store(cfg.level as u8, Ordering::Relaxed);
        metrics::registry().reset();
        span::reset_thread();
        let root = span::open_unchecked(format!("flow:{flow}"));
        Session {
            flow: flow.to_owned(),
            root: Some(root),
            active: true,
        }
    }

    /// Ends the session: closes the root span, turns the level off,
    /// and returns the trace (`None` for an inert session). Must run
    /// on the thread that called [`Session::start`].
    pub fn finish(mut self) -> Option<FlowTrace> {
        if !self.active {
            return None;
        }
        drop(self.root.take());
        LEVEL.store(ObsLevel::Off as u8, Ordering::Relaxed);
        let spans = span::cleanup(span::take_thread());
        Some(FlowTrace {
            flow: std::mem::take(&mut self.flow),
            spans,
            metrics: metrics::registry().snapshot(),
        })
    }
}

/// Process-wide exclusivity token for observability sessions.
///
/// The level, metrics registry and span store behind [`Session`] are
/// global: two concurrent obs-*enabled* sessions would interleave
/// their traces. Single-flow callers never notice (one flow, one
/// session), but a multi-tenant host like the DSE executor runs many
/// flows at once — it takes a permit around each obs-enabled job so
/// enabled sessions serialize while obs-off jobs (whose sessions are
/// inert) keep running concurrently.
pub struct SessionPermit {
    _guard: std::sync::MutexGuard<'static, ()>,
}

static SESSION_PERMIT: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Blocks until this thread holds the process's one observability
/// permit; the permit releases on drop. A panic while holding the
/// permit poisons nothing user-visible — the next caller recovers the
/// lock.
pub fn session_permit() -> SessionPermit {
    SessionPermit {
        _guard: SESSION_PERMIT
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The level and registry are global, and `cargo test` runs the
    /// `#[test]` fns of one binary on parallel threads — serialize
    /// every test that opens a session.
    static SESSION_LOCK: Mutex<()> = Mutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        SESSION_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn off_session_records_nothing() {
        let _l = lock();
        let session = Session::start(ObsConfig::off(), "noop");
        let _span = span("invisible");
        assert!(_span.is_none());
        assert!(session.finish().is_none());
    }

    #[test]
    fn nested_spans_form_a_tree() {
        let _l = lock();
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
        let _l = lock();
        let session = Session::start(ObsConfig::summary(), "t");
        assert!(span("fine").is_none());
        let stage = stage_begin().expect("summary records stages");
        stage.finish_named("route");
        let trace = session.finish().expect("on");
        assert_eq!(trace.tree_signature(), "flow:t\n  route\n");
    }

    #[test]
    fn dropped_unnamed_span_is_cancelled_and_children_reparent() {
        let _l = lock();
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
        let _l = lock();
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
                            });
                        }
                    });
                } else {
                    for key in [0u64, 1, 2] {
                        let _b = fp.branch(key);
                        let _s = span_full!("work{key}");
                        let _inner = span("inner");
                    }
                }
                fp.join();
            }
            session.finish().expect("on").tree_signature()
        };
        let serial = run(false);
        let threaded = run(true);
        assert_eq!(serial, threaded);
        assert_eq!(
            serial,
            "flow:t\n  stage\n    work0\n      inner\n    work1\n      inner\n    work2\n      inner\n"
        );
    }

    #[test]
    fn metrics_reset_keeps_handles_valid() {
        let _l = lock();
        let c = registry().counter("test/keeps_handle");
        c.add(7);
        assert_eq!(c.get(), 7);
        registry().reset();
        assert_eq!(c.get(), 0, "reset zeroes but does not remove");
        c.add(2);
        assert_eq!(registry().counter("test/keeps_handle").get(), 2);
    }

    #[test]
    fn histogram_tracks_bounds() {
        // a concurrent session start or reset would zero the histogram
        // between the records and the snapshot
        let _l = lock();
        let h = registry().histogram("test/hist_bounds");
        h.record(5);
        h.record(1);
        h.record(9);
        let m = registry().snapshot();
        let snap = m.histograms["test/hist_bounds"];
        assert_eq!((snap.count, snap.sum, snap.min, snap.max), (3, 15, 1, 9));
        assert_eq!(snap.mean(), 5.0);
    }

    #[test]
    fn exports_are_valid_and_deterministic() {
        let _l = lock();
        let session = Session::start(ObsConfig::full(), "ex");
        {
            let _s = span("stage \"quoted\"\n");
            registry().counter("cache/tile/hits").add(3);
            registry().counter("cache/tile/misses").add(1);
            registry().counter("place/anneal_proposals").add(10);
            registry().counter("place/anneal_accepts").add(4);
            registry().gauge("sta/cts_levels").set(3.0);
            registry().series("route/overflow").push(12.0);
            registry().series("route/overflow").push(0.5);
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

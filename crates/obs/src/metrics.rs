//! Typed metrics registry: counters, gauges, histograms, series.
//!
//! Each session owns one [`Registry`]. Handles are cheap `Arc`-backed
//! clones recording through atomics; the [`SiteCounter`] and
//! [`SiteHistogram`] statics of the engines look their instrument up
//! in the recording thread's registry on every event, and cost one
//! thread-local read when nothing records there. All exported values
//! are either integers or deterministic functions of them, so
//! snapshots are bit-identical across thread counts as long as
//! recording sites fire a thread-count-independent set of events
//! (counters are commutative sums; gauges and series must only be
//! written from serial sections).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Monotonic `u64` counter.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n`. Safe from any thread (commutative).
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-write-wins `f64` gauge. Set only from serial sections to keep
/// snapshots deterministic.
#[derive(Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Stores `v`.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

struct HistInner {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

/// `u64` histogram tracking count/sum/min/max. Safe from any thread
/// (every component is commutative).
#[derive(Clone)]
pub struct Histogram(Arc<HistInner>);

impl Histogram {
    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
        self.0.min.fetch_min(v, Ordering::Relaxed);
        self.0.max.fetch_max(v, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistSnapshot {
        let count = self.0.count.load(Ordering::Relaxed);
        HistSnapshot {
            count,
            sum: self.0.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.0.min.load(Ordering::Relaxed)
            },
            max: self.0.max.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time view of a [`Histogram`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation (0 when empty).
    pub max: u64,
}

impl HistSnapshot {
    /// Mean observation, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Append-only `f64` time series (e.g. router overflow per rip-up
/// round). Push only from serial sections — appends take a mutex and
/// order would otherwise depend on scheduling.
#[derive(Clone)]
pub struct Series(Arc<Mutex<Vec<f64>>>);

impl Series {
    /// Appends one sample.
    pub fn push(&self, v: f64) {
        lock(&self.0).push(v);
    }

    /// Copies out the samples recorded so far.
    pub fn values(&self) -> Vec<f64> {
        lock(&self.0).clone()
    }
}

/// One session's metrics (see [`crate::registry`]). Instruments are
/// created on first use, so a snapshot lists exactly the instruments
/// the session's run touched.
#[derive(Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
    series: Mutex<BTreeMap<String, Series>>,
}

/// The instrument called `name` in `map`, created by `new` on first
/// use; only that first use allocates.
fn instrument<T: Clone>(
    map: &Mutex<BTreeMap<String, T>>,
    name: &str,
    new: impl FnOnce() -> T,
) -> T {
    let mut map = lock(map);
    if let Some(found) = map.get(name) {
        return found.clone();
    }
    let made = new();
    map.insert(name.to_owned(), made.clone());
    made
}

/// Every instrument's value in `map`, by name.
fn values<T, V>(map: &Mutex<BTreeMap<String, T>>, value: impl Fn(&T) -> V) -> BTreeMap<String, V> {
    lock(map)
        .iter()
        .map(|(k, v)| (k.clone(), value(v)))
        .collect()
}

impl Registry {
    /// Returns (creating if needed) the counter called `name`.
    pub fn counter(&self, name: &str) -> Counter {
        instrument(&self.counters, name, || {
            Counter(Arc::new(AtomicU64::new(0)))
        })
    }

    /// Returns (creating if needed) the gauge called `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        instrument(&self.gauges, name, || {
            Gauge(Arc::new(AtomicU64::new(0f64.to_bits())))
        })
    }

    /// Returns (creating if needed) the histogram called `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        instrument(&self.histograms, name, || {
            Histogram(Arc::new(HistInner {
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
                min: AtomicU64::new(u64::MAX),
                max: AtomicU64::new(0),
            }))
        })
    }

    /// Returns (creating if needed) the series called `name`.
    pub fn series(&self, name: &str) -> Series {
        instrument(&self.series, name, || {
            Series(Arc::new(Mutex::new(Vec::new())))
        })
    }

    /// Copies out every instrument's current value (session finish).
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: values(&self.counters, Counter::get),
            gauges: values(&self.gauges, Gauge::get),
            histograms: values(&self.histograms, Histogram::snapshot),
            series: values(&self.series, Series::values),
        }
    }
}

/// Point-in-time view of the whole [`Registry`], with deterministic
/// (`BTreeMap`) iteration order for exporters.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistSnapshot>,
    /// Series samples by name.
    pub series: BTreeMap<String, Vec<f64>>,
}

/// A counter site suitable for a file-level `static`: every
/// [`SiteCounter::add`] is one thread-local read, plus a lookup and an
/// atomic add in the thread's registry while a session records.
///
/// ```
/// static NETS: macro3d_obs::SiteCounter = macro3d_obs::SiteCounter::new("extract/nets");
/// NETS.add(1);
/// ```
pub struct SiteCounter {
    name: &'static str,
}

impl SiteCounter {
    /// Declares a counter site named `name`.
    pub const fn new(name: &'static str) -> Self {
        SiteCounter { name }
    }

    /// Adds `n` if this thread's session records (at least
    /// [`crate::ObsLevel::Summary`]).
    #[inline]
    pub fn add(&self, n: u64) {
        crate::with_registry(|registry| registry.counter(self.name).add(n));
    }

    /// Adds one (level-gated like [`SiteCounter::add`]).
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }
}

/// A histogram site suitable for a file-level `static`; the histogram
/// analogue of [`SiteCounter`].
pub struct SiteHistogram {
    name: &'static str,
}

impl SiteHistogram {
    /// Declares a histogram site named `name`.
    pub const fn new(name: &'static str) -> Self {
        SiteHistogram { name }
    }

    /// Records `v` if this thread's session records (at least
    /// [`crate::ObsLevel::Summary`]).
    #[inline]
    pub fn record(&self, v: u64) {
        crate::with_registry(|registry| registry.histogram(self.name).record(v));
    }
}

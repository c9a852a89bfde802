//! The multi-tenant worker-pool executor.
//!
//! [`DseService::start`] spawns a configurable number of worker
//! threads over a bounded job queue. [`DseClient`] is the cheap,
//! cloneable tenant handle: `submit` enqueues (blocking when the
//! queue is full — backpressure, not rejection), `wait` blocks until
//! a terminal state, `cancel` withdraws a still-queued job.
//!
//! Isolation guarantees, in the order they matter:
//!
//! * **One job cannot take down the service.** The flow runs under
//!   `catch_unwind`; a panic (or a [`macro3d::FlowError`], e.g. an
//!   injected fault) marks that job `Failed` and the worker moves on.
//! * **Budget exhaustion is a *result*, not a failure.** Flows absorb
//!   deadline/cap exhaustion internally and return a degraded
//!   [`macro3d::PpaResult`]; the job completes `Done` with a
//!   populated degradation report, siblings unaffected.
//! * **Specs with one result execute at most once.** Results are keyed
//!   by [`JobSpec::spec_key`] — the spec's chained stage key plus its
//!   obs level — so specs that differ only in knobs no stage reads
//!   (thread counts, the top-level and placer chunk sizes) share a
//!   key. A cache hit skips the flow; concurrent misses on one key
//!   dedup through a single-flight table — one leader runs, followers
//!   block on its cell and share the `Arc`'d result (marked
//!   `cache_hit`). A leader *failure* propagates to its followers and
//!   is not cached, so a later resubmit retries.
//! * **Observed jobs run concurrently.** A job's obs session installs
//!   its recorder on the worker thread that runs it (and, through the
//!   parallel primitives' fork points, on that job's own helper
//!   threads), so each trace counts exactly its own run, whatever its
//!   siblings are doing.

use crate::cache::{CacheStats, CachedResult, ResultCache};
use crate::{flow_by_name, JobSpec};
use macro3d::stage::CACHED_STAGES;
use macro3d::{ConfigError, DegradationReport, FlowTrace, PpaResult};
use macro3d_soc::generate_tile;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::Instant;

/// Service parameters.
#[derive(Clone, Debug)]
pub struct DseConfig {
    /// Worker threads. `0` means one per available hardware thread.
    pub workers: usize,
    /// Queue capacity; `submit` blocks while the queue is full.
    pub queue_capacity: usize,
    /// Persist results here; `None` keeps the cache in memory only.
    pub cache_dir: Option<PathBuf>,
    /// Give each worker a [`macro3d::StageCache`] so consecutive jobs
    /// sharing a stage-key prefix re-enter the flow mid-way, and jobs
    /// on the same tile share one generated netlist (see
    /// `macro3d::stage`). Off = every job generates its tile and runs
    /// fully cold. Results are bit-identical either way; this only
    /// trades memory for wall-clock.
    pub stage_reuse: bool,
}

impl Default for DseConfig {
    fn default() -> Self {
        DseConfig {
            workers: 1,
            queue_capacity: 64,
            cache_dir: None,
            stage_reuse: true,
        }
    }
}

impl DseConfig {
    fn effective_workers(&self) -> usize {
        if self.workers == 0 {
            thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.workers
        }
    }
}

/// Handle to a submitted job.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// Where a job is in its lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// Waiting in the queue.
    Queued,
    /// A worker is on it.
    Running,
    /// Finished with a result (possibly degraded).
    Done,
    /// Flow error or panic; see [`JobError::Failed`].
    Failed,
    /// Withdrawn before a worker picked it up.
    Cancelled,
}

impl JobStatus {
    /// Protocol token (`"queued"`, `"running"`, …).
    pub fn as_str(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Failed => "failed",
            JobStatus::Cancelled => "cancelled",
        }
    }
}

/// A finished job's payload.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// Result key of the spec ([`JobSpec::spec_key`]).
    pub spec_key: String,
    /// The PPA row.
    pub ppa: PpaResult,
    /// Budget/fault degradations absorbed (empty = clean).
    pub degradation: DegradationReport,
    /// Observability trace — only for a cold execution with obs
    /// enabled; cache hits return `None`.
    pub obs: Option<FlowTrace>,
    /// True when the result came from the cache (memory, disk, or a
    /// concurrent leader) rather than a fresh flow execution.
    pub cache_hit: bool,
    /// Wall-clock seconds this job took inside the worker.
    pub wall_s: f64,
    /// Leading flow stages restored from the worker's stage cache
    /// (`0` = fully cold; see [`macro3d::stage`]). Always `0` for a
    /// result-cache hit — the whole flow was skipped, not re-entered.
    pub reuse_depth: usize,
}

/// Why `submit` refused a spec.
#[derive(Clone, Debug, PartialEq)]
pub enum SubmitError {
    /// The flow name matches none of [`macro3d::flows::all_flows`].
    UnknownFlow(String),
    /// The config breaks a [`macro3d::FlowConfig::validate`] rule; the
    /// error names the field.
    InvalidConfig(ConfigError),
    /// The service is shutting down.
    ShuttingDown,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::UnknownFlow(name) => write!(f, "unknown flow '{name}'"),
            SubmitError::InvalidConfig(e) => write!(f, "invalid flow config: {e}"),
            SubmitError::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why `wait` returned without a result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobError {
    /// No such job id.
    Unknown(JobId),
    /// The flow errored or panicked; the message says which.
    Failed(String),
    /// The job was cancelled before running.
    Cancelled,
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Unknown(id) => write!(f, "unknown job {id}"),
            JobError::Failed(msg) => write!(f, "job failed: {msg}"),
            JobError::Cancelled => write!(f, "job cancelled"),
        }
    }
}

impl std::error::Error for JobError {}

/// Aggregate service counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DseStats {
    /// Result-cache counters (memory + disk).
    pub cache: CacheStats,
    /// Cold flow executions actually performed.
    pub flows_executed: u64,
    /// Jobs that reached `Done`.
    pub jobs_done: u64,
    /// Jobs that reached `Failed`.
    pub jobs_failed: u64,
    /// Jobs withdrawn while queued.
    pub jobs_cancelled: u64,
    /// Flow stages restored from worker stage caches, summed over
    /// every executed job (a depth-3 re-entry adds 3).
    pub stage_hits: u64,
    /// Cacheable flow stages executed cold (the STA stage is never
    /// cached and never counted).
    pub stage_misses: u64,
}

enum JobState {
    Queued,
    Running,
    Done(Arc<JobResult>),
    Failed(String),
    Cancelled,
}

impl JobState {
    fn status(&self) -> JobStatus {
        match self {
            JobState::Queued => JobStatus::Queued,
            JobState::Running => JobStatus::Running,
            JobState::Done(_) => JobStatus::Done,
            JobState::Failed(_) => JobStatus::Failed,
            JobState::Cancelled => JobStatus::Cancelled,
        }
    }
}

/// Single-flight rendezvous cell: the leader publishes exactly once,
/// followers block on the condvar until it does.
struct InflightCell {
    done: Mutex<Option<Result<Arc<JobResult>, String>>>,
    cv: Condvar,
}

impl InflightCell {
    fn new() -> Self {
        InflightCell {
            done: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn publish(&self, outcome: Result<Arc<JobResult>, String>) {
        *lock(&self.done) = Some(outcome);
        self.cv.notify_all();
    }

    fn wait(&self) -> Result<Arc<JobResult>, String> {
        let mut done = lock(&self.done);
        loop {
            if let Some(outcome) = done.as_ref() {
                return outcome.clone();
            }
            done = self.cv.wait(done).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

struct QueueState {
    /// One deque per worker. `submit` routes each spec to the queue
    /// of its affinity worker (place-stage key modulo worker count),
    /// so same-prefix sweep points land on the same worker's stage
    /// cache; an idle worker steals from the *back* of the longest
    /// other queue, which is the job least likely to extend that
    /// worker's current prefix run. Affinity is best-effort — results
    /// are identical wherever a job runs.
    queues: Vec<VecDeque<(u64, JobSpec)>>,
    /// Total queued jobs across all deques (capacity accounting).
    queued: usize,
    shutdown: bool,
}

struct Inner {
    cfg: DseConfig,
    cache: ResultCache,
    workers: usize,
    queue: Mutex<QueueState>,
    /// Workers sleep here when the queue is empty.
    queue_cv: Condvar,
    /// Submitters sleep here when the queue is full.
    space_cv: Condvar,
    states: Mutex<HashMap<u64, JobState>>,
    /// `wait` sleeps here; every terminal transition notifies.
    states_cv: Condvar,
    inflight: Mutex<HashMap<String, Arc<InflightCell>>>,
    next_id: AtomicU64,
    flows_executed: AtomicU64,
    jobs_done: AtomicU64,
    jobs_failed: AtomicU64,
    jobs_cancelled: AtomicU64,
    stage_hits: AtomicU64,
    stage_misses: AtomicU64,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The running service: owns the worker threads. Get tenant handles
/// via [`DseService::client`]; dropping the service (or calling
/// [`DseService::shutdown`]) drains nothing — queued jobs the workers
/// have not reached are left `Queued` forever, so shut down only
/// after the waits you care about have returned.
pub struct DseService {
    client: DseClient,
    handles: Vec<thread::JoinHandle<()>>,
}

/// Cloneable tenant handle; see [`DseService`].
#[derive(Clone)]
pub struct DseClient {
    inner: Arc<Inner>,
}

impl DseService {
    /// Opens the result cache and spawns the worker pool.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the cache directory cannot be
    /// created.
    pub fn start(cfg: DseConfig) -> io::Result<DseService> {
        let cache = ResultCache::open(cfg.cache_dir.clone())?;
        let workers = cfg.effective_workers();
        let inner = Arc::new(Inner {
            cfg,
            cache,
            workers,
            queue: Mutex::new(QueueState {
                queues: (0..workers).map(|_| VecDeque::new()).collect(),
                queued: 0,
                shutdown: false,
            }),
            queue_cv: Condvar::new(),
            space_cv: Condvar::new(),
            states: Mutex::new(HashMap::new()),
            states_cv: Condvar::new(),
            inflight: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            flows_executed: AtomicU64::new(0),
            jobs_done: AtomicU64::new(0),
            jobs_failed: AtomicU64::new(0),
            jobs_cancelled: AtomicU64::new(0),
            stage_hits: AtomicU64::new(0),
            stage_misses: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                thread::Builder::new()
                    .name(format!("dse-worker-{i}"))
                    .spawn(move || worker_loop(&inner, i))
            })
            .collect::<io::Result<Vec<_>>>()?;
        Ok(DseService {
            client: DseClient { inner },
            handles,
        })
    }

    /// A new tenant handle.
    pub fn client(&self) -> DseClient {
        self.client.clone()
    }

    /// Number of worker threads actually running.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Stops accepting work, wakes every worker, and joins them.
    /// Jobs already queued are abandoned in `Queued` state.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        {
            let mut q = lock(&self.client.inner.queue);
            q.shutdown = true;
        }
        self.client.inner.queue_cv.notify_all();
        self.client.inner.space_cv.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for DseService {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

impl DseClient {
    /// Enqueues a job and returns its id immediately. Blocks while
    /// the queue is at capacity (backpressure).
    ///
    /// # Errors
    ///
    /// [`SubmitError::UnknownFlow`] for an unrecognized flow name,
    /// [`SubmitError::InvalidConfig`] for a config out of range (no
    /// job is created and no counter moves),
    /// [`SubmitError::ShuttingDown`] after shutdown began.
    pub fn submit(&self, spec: JobSpec) -> Result<JobId, SubmitError> {
        if flow_by_name(&spec.flow).is_none() {
            return Err(SubmitError::UnknownFlow(spec.flow));
        }
        spec.config.validate().map_err(SubmitError::InvalidConfig)?;
        // route the job to the worker whose stage cache its place-key
        // prefix maps to; stage 1 covers floorplan+place, the
        // expensive reusable prefix
        let slot = (spec.stage_keys().prefix[1] % self.inner.workers as u64) as usize;
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        // `Queued` must be on record before the push makes the job
        // visible: a worker may finish a cache hit before this thread
        // runs again, and a later insert would overwrite its `Done`
        lock(&self.inner.states).insert(id, JobState::Queued);
        {
            let mut q = lock(&self.inner.queue);
            loop {
                if q.shutdown {
                    drop(q);
                    lock(&self.inner.states).remove(&id);
                    return Err(SubmitError::ShuttingDown);
                }
                if q.queued < self.inner.cfg.queue_capacity {
                    break;
                }
                q = self
                    .inner
                    .space_cv
                    .wait(q)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            q.queues[slot].push_back((id, spec));
            q.queued += 1;
        }
        self.inner.queue_cv.notify_one();
        Ok(JobId(id))
    }

    /// Blocks until the job reaches a terminal state.
    ///
    /// # Errors
    ///
    /// [`JobError::Unknown`] for an id this service never issued,
    /// [`JobError::Failed`] when the flow errored or panicked,
    /// [`JobError::Cancelled`] when the job was withdrawn.
    pub fn wait(&self, id: JobId) -> Result<Arc<JobResult>, JobError> {
        let mut states = lock(&self.inner.states);
        loop {
            match states.get(&id.0) {
                None => return Err(JobError::Unknown(id)),
                Some(JobState::Done(result)) => return Ok(Arc::clone(result)),
                Some(JobState::Failed(msg)) => return Err(JobError::Failed(msg.clone())),
                Some(JobState::Cancelled) => return Err(JobError::Cancelled),
                Some(JobState::Queued | JobState::Running) => {
                    states = self
                        .inner
                        .states_cv
                        .wait(states)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
    }

    /// Current status, or `None` for an unknown id.
    pub fn status(&self, id: JobId) -> Option<JobStatus> {
        lock(&self.inner.states).get(&id.0).map(JobState::status)
    }

    /// Withdraws a job that is still queued. Returns `true` on
    /// success; a job already running (or finished) is not touched —
    /// running jobs are bounded by their own
    /// [`macro3d::FlowBudget`] deadline, which is the supported way
    /// to limit one.
    pub fn cancel(&self, id: JobId) -> bool {
        let removed = {
            let mut q = lock(&self.inner.queue);
            let before = q.queued;
            for queue in &mut q.queues {
                queue.retain(|(queued_id, _)| *queued_id != id.0);
            }
            q.queued = q.queues.iter().map(VecDeque::len).sum();
            q.queued != before
        };
        if removed {
            self.inner.space_cv.notify_one();
            lock(&self.inner.states).insert(id.0, JobState::Cancelled);
            self.inner.jobs_cancelled.fetch_add(1, Ordering::Relaxed);
            self.inner.states_cv.notify_all();
        }
        removed
    }

    /// Aggregate counters.
    pub fn stats(&self) -> DseStats {
        DseStats {
            cache: self.inner.cache.stats(),
            flows_executed: self.inner.flows_executed.load(Ordering::Relaxed),
            jobs_done: self.inner.jobs_done.load(Ordering::Relaxed),
            jobs_failed: self.inner.jobs_failed.load(Ordering::Relaxed),
            jobs_cancelled: self.inner.jobs_cancelled.load(Ordering::Relaxed),
            stage_hits: self.inner.stage_hits.load(Ordering::Relaxed),
            stage_misses: self.inner.stage_misses.load(Ordering::Relaxed),
        }
    }
}

fn worker_loop(inner: &Inner, me: usize) {
    // worker-local stage cache: one previous run's boundary artifacts,
    // keyed by chained stage keys, and its tile (see macro3d::stage)
    let mut stage_cache = macro3d::StageCache::new();
    loop {
        let (id, spec) = {
            let mut q = lock(&inner.queue);
            loop {
                let job = q.queues[me].pop_front().or_else(|| {
                    // own queue dry: steal the back of the longest
                    // other queue (least likely to extend that
                    // worker's prefix run)
                    (0..q.queues.len())
                        .filter(|&i| i != me && !q.queues[i].is_empty())
                        .max_by_key(|&i| q.queues[i].len())
                        .and_then(|i| q.queues[i].pop_back())
                });
                if let Some(job) = job {
                    q.queued -= 1;
                    inner.space_cv.notify_one();
                    break job;
                }
                if q.shutdown {
                    return;
                }
                q = inner
                    .queue_cv
                    .wait(q)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        lock(&inner.states).insert(id, JobState::Running);
        let outcome = run_one(inner, &spec, &mut stage_cache);
        let mut states = lock(&inner.states);
        match outcome {
            Ok(result) => {
                inner.jobs_done.fetch_add(1, Ordering::Relaxed);
                states.insert(id, JobState::Done(result));
            }
            Err(msg) => {
                inner.jobs_failed.fetch_add(1, Ordering::Relaxed);
                states.insert(id, JobState::Failed(msg));
            }
        }
        drop(states);
        inner.states_cv.notify_all();
    }
}

/// Executes one job to a shareable outcome: cache lookup, then
/// single-flight leader election, then the flow itself.
fn run_one(
    inner: &Inner,
    spec: &JobSpec,
    stage_cache: &mut macro3d::StageCache,
) -> Result<Arc<JobResult>, String> {
    let key = spec.spec_key();
    if let Some(cached) = inner.cache.lookup(&key) {
        return Ok(Arc::new(JobResult {
            spec_key: key,
            ppa: cached.ppa.clone(),
            degradation: cached.degradation.clone(),
            obs: None,
            cache_hit: true,
            wall_s: 0.0,
            reuse_depth: 0,
        }));
    }

    // single-flight: exactly one leader per key at a time
    let (cell, leader) = {
        let mut inflight = lock(&inner.inflight);
        match inflight.get(&key) {
            Some(cell) => (Arc::clone(cell), false),
            None => {
                let cell = Arc::new(InflightCell::new());
                inflight.insert(key.clone(), Arc::clone(&cell));
                (cell, true)
            }
        }
    };
    if !leader {
        return cell.wait().map(|result| {
            Arc::new(JobResult {
                cache_hit: true,
                obs: None,
                wall_s: 0.0,
                reuse_depth: 0,
                ..(*result).clone()
            })
        });
    }

    let outcome = execute_flow(inner, spec, &key, stage_cache);
    if let Ok(result) = &outcome {
        inner.cache.insert(
            &key,
            &Arc::new(CachedResult {
                ppa: result.ppa.clone(),
                degradation: result.degradation.clone(),
            }),
        );
    }
    cell.publish(outcome.clone());
    lock(&inner.inflight).remove(&key);
    outcome
}

/// The cold path: generate the tile and run the flow, isolated by
/// `catch_unwind`. The worker's stage cache (when enabled) supplies
/// the tile, generated once per distinct `TileConfig`, and lets the
/// flow re-enter after its longest key-matched stage prefix; a panic
/// mid-run is safe — cache slots are only written at completed stage
/// boundaries, and a held tile is never written.
fn execute_flow(
    inner: &Inner,
    spec: &JobSpec,
    key: &str,
    stage_cache: &mut macro3d::StageCache,
) -> Result<Arc<JobResult>, String> {
    let flow = flow_by_name(&spec.flow).ok_or_else(|| format!("unknown flow '{}'", spec.flow))?;
    inner.flows_executed.fetch_add(1, Ordering::Relaxed);
    let stage_reuse = inner.cfg.stage_reuse;
    let started = Instant::now();
    let run = catch_unwind(AssertUnwindSafe(|| {
        let (tile, mut reuse) = if stage_reuse {
            let tile = stage_cache.tile(&spec.tile);
            let reuse =
                macro3d::StageReuse::begin(stage_cache, &spec.flow, &spec.tile, &spec.config);
            (tile, reuse)
        } else {
            (Arc::new(generate_tile(&spec.tile)), None)
        };
        flow.try_run_reusing(&tile, &spec.config, reuse.as_mut())
    }));
    let wall_s = started.elapsed().as_secs_f64();
    match run {
        Ok(Ok(outcome)) => {
            inner
                .stage_hits
                .fetch_add(outcome.reuse_depth as u64, Ordering::Relaxed);
            inner.stage_misses.fetch_add(
                (CACHED_STAGES - outcome.reuse_depth) as u64,
                Ordering::Relaxed,
            );
            Ok(Arc::new(JobResult {
                spec_key: key.to_string(),
                ppa: outcome.ppa,
                degradation: outcome.degradation,
                obs: outcome.obs,
                cache_hit: false,
                wall_s,
                reuse_depth: outcome.reuse_depth,
            }))
        }
        Ok(Err(flow_err)) => Err(flow_err.to_string()),
        // `&*panic`, not `&panic`: the latter makes the `Box` itself
        // the `dyn Any`, and no downcast of the payload ever matches
        Err(panic) => Err(format!("flow panicked: {}", panic_message(&*panic))),
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = panic.downcast_ref::<&str>() {
        s
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s
    } else {
        "<non-string payload>"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use macro3d_soc::TileConfig;

    fn fast_spec() -> JobSpec {
        let mut spec = JobSpec::new("2D", TileConfig::mini());
        spec.config.sizing_rounds = 1;
        spec.config.route.iterations = 1;
        spec
    }

    #[test]
    fn submit_wait_roundtrip_and_cache_dedup() {
        let service = DseService::start(DseConfig::default()).unwrap();
        let client = service.client();
        let a = client.submit(fast_spec()).unwrap();
        let b = client.submit(fast_spec()).unwrap();
        let ra = client.wait(a).unwrap();
        let rb = client.wait(b).unwrap();
        assert!(!ra.cache_hit, "first execution is cold");
        assert!(rb.cache_hit, "identical spec is served from cache");
        assert_eq!(
            macro3d::ppa_fingerprint(&ra.ppa),
            macro3d::ppa_fingerprint(&rb.ppa)
        );
        assert_eq!(client.stats().flows_executed, 1);
        service.shutdown();
    }

    #[test]
    fn panic_messages_keep_their_text() {
        let caught = |f: fn()| catch_unwind(f).unwrap_err();
        let literal = caught(|| panic!("area_scale must be positive and finite"));
        assert_eq!(
            panic_message(&*literal),
            "area_scale must be positive and finite"
        );
        let formatted = caught(|| panic!("area_scale {} is not finite", f64::NAN));
        assert_eq!(panic_message(&*formatted), "area_scale NaN is not finite");
        let other = caught(|| std::panic::panic_any(7u32));
        assert_eq!(panic_message(&*other), "<non-string payload>");
    }

    /// A NaN tile scale panics in the cell library; the failed job
    /// carries that message, not a placeholder.
    #[test]
    fn a_panicking_job_reports_its_message() {
        let service = DseService::start(DseConfig::default()).unwrap();
        let client = service.client();
        let mut spec = fast_spec();
        spec.tile.scale = f64::NAN;
        let id = client.submit(spec).unwrap();
        match client.wait(id) {
            Err(JobError::Failed(msg)) => {
                assert!(msg.starts_with("flow panicked: area_scale"), "{msg}")
            }
            other => panic!("expected a failed job, got {other:?}"),
        }
        service.shutdown();
    }

    #[test]
    fn unknown_flow_is_rejected_at_submit() {
        let service = DseService::start(DseConfig::default()).unwrap();
        let err = service
            .client()
            .submit(JobSpec::new("nope", TileConfig::mini()))
            .unwrap_err();
        assert_eq!(err, SubmitError::UnknownFlow("nope".into()));
    }

    #[test]
    fn cancel_only_hits_queued_jobs() {
        // zero-capacity trick is impossible (submit would deadlock);
        // instead occupy the single worker with a real job and cancel
        // one that is still behind it
        let service = DseService::start(DseConfig::default()).unwrap();
        let client = service.client();
        let first = client.submit(fast_spec()).unwrap();
        let mut other = fast_spec();
        other.config.sizing_rounds = 2; // different key, would run cold
        let second = client.submit(other).unwrap();
        // depending on timing `second` may already be running; only
        // assert the invariant, not the race
        let cancelled = client.cancel(second);
        if cancelled {
            assert_eq!(client.wait(second).unwrap_err(), JobError::Cancelled);
        } else {
            assert!(client.wait(second).is_ok());
        }
        assert!(client.wait(first).is_ok());
        service.shutdown();
    }
}

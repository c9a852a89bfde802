//! Cooperative stage budgets with graceful degradation.
//!
//! A [`FlowBudget`] bounds a flow run with a wall-clock deadline and
//! per-site iteration caps. Engines cooperate by calling
//! [`checkpoint`] at the top of their refinement loops (the rip-up
//! iteration, the anneal proposal, the FM pass, the sizing round) and,
//! on [`Checkpoint::Stop`], returning their best-so-far state instead
//! of iterating further. The stage then records *why* it stopped early
//! via [`note_degradation`], and the flow surfaces the collected
//! [`DegradationReport`] to the caller — so a budget-exhausted run is
//! a diagnosable partial result, never a hang or a panic.
//!
//! # Scoping and determinism
//!
//! Budget state is **thread-local to the flow-owning thread**: a
//! [`BudgetScope`] guard installs the budget (and an optional
//! [`FaultPlan`]) for the current thread, and
//! `checkpoint` is inert on every other thread. In addition, the
//! parallel primitives in this crate mark a *parallel region* on every
//! execution path — including the serial fallbacks that run worker
//! closures on the calling thread — and `checkpoint` is inert inside
//! any region. The two rules together make checkpoint firing a pure
//! function of the work decomposition: a site is visited the same
//! number of times, in the same order, for 1 thread or 64, so caps and
//! injected faults trigger at bit-identical points regardless of the
//! thread count.
//!
//! Wall-clock deadlines are the one deliberate exception: they depend
//! on real time, so runs under a deadline are *prompt* but not
//! reproducible. Deterministic tests use caps and fault plans only.
//!
//! Site keys reuse the `macro3d-obs` site-counter names already
//! instrumented in every engine (`"route/iterations"`,
//! `"place/anneal_proposals"`, `"place/fm_passes"`,
//! `"sta/sizing_rounds"`), plus `"flow/<stage>"` gates checked between
//! stages; see `DESIGN.md` §14 for the full scheme.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::time::{Duration, Instant};

use crate::fault::{FaultAction, FaultPlan};

/// Wall-clock and per-site iteration limits for one flow run.
///
/// The default budget is unlimited. Caps are keyed by checkpoint site
/// name and bound the number of times that site may be *visited*
/// before it reports [`StopReason::IterationCap`]; they compose with
/// (and never raise) the engines' own configured iteration counts.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FlowBudget {
    /// Deadline for the whole flow, measured from [`BudgetScope::begin`].
    /// Once exceeded, every checkpoint site reports
    /// [`StopReason::DeadlineExceeded`] so all refinement loops wind
    /// down promptly with their best-so-far state.
    pub wall_clock: Option<Duration>,
    caps: Vec<(String, u64)>,
}

impl FlowBudget {
    /// An unlimited budget (no deadline, no caps).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Returns self with a wall-clock deadline (builder-style).
    #[must_use]
    pub fn with_wall_clock(mut self, limit: Duration) -> Self {
        self.wall_clock = Some(limit);
        self
    }

    /// Returns self with `site` capped at `max_visits` checkpoint
    /// visits (builder-style). Re-capping a site replaces the cap.
    #[must_use]
    pub fn with_cap(mut self, site: &str, max_visits: u64) -> Self {
        if let Some(entry) = self.caps.iter_mut().find(|(s, _)| s == site) {
            entry.1 = max_visits;
        } else {
            self.caps.push((site.to_string(), max_visits));
        }
        self
    }

    /// The configured cap for `site`, if any.
    pub fn cap(&self, site: &str) -> Option<u64> {
        self.caps.iter().find(|(s, _)| s == site).map(|&(_, c)| c)
    }

    /// True when no deadline and no caps are set.
    pub fn is_unlimited(&self) -> bool {
        self.wall_clock.is_none() && self.caps.is_empty()
    }

    /// The capped sites as `(site, max_visits)` pairs.
    pub fn caps(&self) -> &[(String, u64)] {
        &self.caps
    }
}

/// Why a checkpoint told its loop to stop.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StopReason {
    /// The flow's wall-clock deadline passed.
    DeadlineExceeded,
    /// The site reached its configured visit cap.
    IterationCap,
    /// A fault plan forced budget exhaustion at this site.
    InjectedExhaust,
    /// A fault plan forced an error at this site. Loop checkpoints
    /// degrade on this like any other stop; the fallible flow gates in
    /// `macro3d-core` convert it into a typed `FlowError` instead.
    InjectedError,
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            StopReason::DeadlineExceeded => "wall-clock deadline exceeded",
            StopReason::IterationCap => "iteration cap reached",
            StopReason::InjectedExhaust => "injected budget exhaustion",
            StopReason::InjectedError => "injected error",
        })
    }
}

/// The verdict of a [`checkpoint`] call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Checkpoint {
    /// Keep iterating.
    Continue,
    /// Stop now and return best-so-far state.
    Stop(StopReason),
}

/// One stage's record of early termination or residual violations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageDegradation {
    /// The checkpoint site (or stage name) that degraded.
    pub site: String,
    /// Why the stage stopped early.
    pub reason: StopReason,
    /// Human-readable residue: what was left undone, and how much
    /// (e.g. `"3 nets unrouted, 7 overflowed edges"`).
    pub detail: String,
}

impl fmt::Display for StageDegradation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {} — {}", self.site, self.reason, self.detail)
    }
}

/// Everything that degraded during one flow run, in the order the
/// stages reported it. An empty report means the run was clean.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DegradationReport {
    /// Per-stage degradation records, in report order.
    pub stages: Vec<StageDegradation>,
}

impl DegradationReport {
    /// True when at least one stage degraded.
    pub fn is_degraded(&self) -> bool {
        !self.stages.is_empty()
    }

    /// The record for `site`, if that site degraded.
    pub fn stage(&self, site: &str) -> Option<&StageDegradation> {
        self.stages.iter().find(|s| s.site == site)
    }
}

impl fmt::Display for DegradationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.stages.is_empty() {
            return f.write_str("clean");
        }
        for (k, s) in self.stages.iter().enumerate() {
            if k > 0 {
                f.write_str("; ")?;
            }
            write!(f, "{s}")?;
        }
        Ok(())
    }
}

/// Per-site bookkeeping inside the active scope.
struct SiteState {
    site: String,
    visits: u64,
    /// Sticky stop verdict: once a site stops, it stops forever (the
    /// loop it guards must not resume within this flow run).
    stopped: Option<StopReason>,
}

/// The thread-local budget state installed by [`BudgetScope`].
struct ScopeState {
    started: Instant,
    deadline: Option<Duration>,
    /// Set once the deadline is first observed exceeded; from then on
    /// every site stops (prompt flow-wide wind-down).
    deadline_hit: bool,
    caps: Vec<(String, u64)>,
    faults: FaultPlan,
    sites: Vec<SiteState>,
    report: DegradationReport,
}

thread_local! {
    static SCOPE: RefCell<Option<ScopeState>> = const { RefCell::new(None) };
    /// Depth of nested parallel regions on this thread. Checkpoints
    /// are inert at depth > 0 (see the module docs).
    static REGION_DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// Guard installing a [`FlowBudget`] (and optional fault plan) as the
/// current thread's active budget. Create one around a flow body with
/// [`BudgetScope::begin`]; [`BudgetScope::finish`] removes it and
/// returns the collected [`DegradationReport`].
///
/// Scopes do not nest: beginning a new scope replaces any active one
/// (the replaced scope's report is discarded). Dropping the guard
/// without calling `finish` also clears the state, so an unwinding
/// flow cannot leak budget state into the next run on the thread.
#[must_use = "dropping the scope discards the degradation report"]
pub struct BudgetScope {
    finished: bool,
}

impl BudgetScope {
    /// Installs `budget` (+ `faults`) for the current thread and
    /// starts the wall clock.
    pub fn begin(budget: &FlowBudget, faults: Option<&FaultPlan>) -> Self {
        SCOPE.with(|s| {
            *s.borrow_mut() = Some(ScopeState {
                started: Instant::now(),
                deadline: budget.wall_clock,
                deadline_hit: false,
                caps: budget.caps.clone(),
                faults: faults.cloned().unwrap_or_default(),
                sites: Vec::new(),
                report: DegradationReport::default(),
            });
        });
        BudgetScope { finished: false }
    }

    /// Uninstalls the scope and returns everything the stages reported.
    pub fn finish(mut self) -> DegradationReport {
        self.finished = true;
        SCOPE
            .with(|s| s.borrow_mut().take())
            .map(|state| state.report)
            .unwrap_or_default()
    }
}

impl Drop for BudgetScope {
    fn drop(&mut self) {
        if !self.finished {
            SCOPE.with(|s| s.borrow_mut().take());
        }
    }
}

/// RAII marker for a parallel region: while alive, checkpoints on this
/// thread are inert. The parallel primitives in this crate create one
/// on **every** execution path — threaded or serial-fallback — so that
/// checkpoint firing does not depend on the thread count.
pub struct RegionGuard {
    _not_send: std::marker::PhantomData<*const ()>,
}

impl RegionGuard {
    /// Enters a parallel region on the current thread.
    pub fn enter() -> Self {
        REGION_DEPTH.with(|d| d.set(d.get() + 1));
        RegionGuard {
            _not_send: std::marker::PhantomData,
        }
    }
}

impl Drop for RegionGuard {
    fn drop(&mut self) {
        REGION_DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
    }
}

/// Visits a budget checkpoint site and returns whether the guarded
/// loop should keep going.
///
/// Inert (always [`Checkpoint::Continue`], no visit counted) on
/// threads without an active [`BudgetScope`] and inside parallel
/// regions. Otherwise the visit is counted and the site stops —
/// stickily — on the first of: the flow deadline passing (which stops
/// *every* site), an injected fault reaching its trigger visit, or the
/// site's visit cap.
pub fn checkpoint(site: &str) -> Checkpoint {
    if REGION_DEPTH.with(Cell::get) > 0 {
        return Checkpoint::Continue;
    }
    SCOPE.with(|s| {
        let mut borrow = s.borrow_mut();
        let Some(state) = borrow.as_mut() else {
            return Checkpoint::Continue;
        };
        // deadline first: it overrides per-site state and is sticky
        // across all sites so the whole flow winds down promptly
        if !state.deadline_hit {
            if let Some(limit) = state.deadline {
                if state.started.elapsed() >= limit {
                    state.deadline_hit = true;
                }
            }
        }
        if state.deadline_hit {
            return Checkpoint::Stop(StopReason::DeadlineExceeded);
        }
        let ix = match state.sites.iter().position(|s| s.site == site) {
            Some(ix) => ix,
            None => {
                state.sites.push(SiteState {
                    site: site.to_string(),
                    visits: 0,
                    stopped: None,
                });
                state.sites.len() - 1
            }
        };
        if let Some(reason) = state.sites[ix].stopped {
            return Checkpoint::Stop(reason);
        }
        state.sites[ix].visits += 1;
        let visits = state.sites[ix].visits;
        let injected = state
            .faults
            .fault_at(site, visits)
            .map(FaultAction::stop_reason);
        let capped = state
            .caps
            .iter()
            .find(|(s, _)| s == site)
            .filter(|&&(_, cap)| visits > cap)
            .map(|_| StopReason::IterationCap);
        if let Some(reason) = injected.or(capped) {
            state.sites[ix].stopped = Some(reason);
            return Checkpoint::Stop(reason);
        }
        Checkpoint::Continue
    })
}

/// Records that a stage degraded (stopped early / left residual
/// violations) in the active scope's report. A no-op without a scope
/// or inside a parallel region; duplicate reports for the same site
/// are merged (first reason kept, detail replaced) so a loop may
/// re-report as its residue shrinks.
pub fn note_degradation(site: &str, reason: StopReason, detail: impl Into<String>) {
    if REGION_DEPTH.with(Cell::get) > 0 {
        return;
    }
    SCOPE.with(|s| {
        let mut borrow = s.borrow_mut();
        let Some(state) = borrow.as_mut() else {
            return;
        };
        let detail = detail.into();
        if let Some(existing) = state.report.stages.iter_mut().find(|d| d.site == site) {
            existing.detail = detail;
        } else {
            state.report.stages.push(StageDegradation {
                site: site.to_string(),
                reason,
                detail,
            });
        }
    });
}

/// The number of times `site` has been visited in the active scope
/// (0 without a scope). Exposed for fault-plan diagnostics and tests.
pub fn site_visits(site: &str) -> u64 {
    SCOPE.with(|s| {
        s.borrow()
            .as_ref()
            .and_then(|state| state.sites.iter().find(|x| x.site == site))
            .map_or(0, |x| x.visits)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultAction, FaultPlan};

    #[test]
    fn checkpoint_without_scope_is_inert() {
        assert_eq!(checkpoint("route/iterations"), Checkpoint::Continue);
        assert_eq!(site_visits("route/iterations"), 0);
    }

    #[test]
    fn iteration_cap_is_sticky() {
        let budget = FlowBudget::unlimited().with_cap("x", 2);
        let scope = BudgetScope::begin(&budget, None);
        assert_eq!(checkpoint("x"), Checkpoint::Continue);
        assert_eq!(checkpoint("x"), Checkpoint::Continue);
        assert_eq!(checkpoint("x"), Checkpoint::Stop(StopReason::IterationCap));
        assert_eq!(checkpoint("x"), Checkpoint::Stop(StopReason::IterationCap));
        // other sites are unaffected
        assert_eq!(checkpoint("y"), Checkpoint::Continue);
        note_degradation("x", StopReason::IterationCap, "1 thing left");
        let report = scope.finish();
        assert!(report.is_degraded());
        assert_eq!(report.stages.len(), 1);
        assert_eq!(report.stage("x").unwrap().detail, "1 thing left");
    }

    #[test]
    fn deadline_stops_every_site() {
        let budget = FlowBudget::unlimited().with_wall_clock(Duration::ZERO);
        let scope = BudgetScope::begin(&budget, None);
        assert_eq!(
            checkpoint("a"),
            Checkpoint::Stop(StopReason::DeadlineExceeded)
        );
        assert_eq!(
            checkpoint("b"),
            Checkpoint::Stop(StopReason::DeadlineExceeded)
        );
        drop(scope);
    }

    #[test]
    fn injected_fault_fires_at_trigger_visit() {
        let plan = FaultPlan::new().with_fault("x", 2, FaultAction::Exhaust);
        let scope = BudgetScope::begin(&FlowBudget::unlimited(), Some(&plan));
        assert_eq!(checkpoint("x"), Checkpoint::Continue);
        assert_eq!(
            checkpoint("x"),
            Checkpoint::Stop(StopReason::InjectedExhaust)
        );
        assert_eq!(
            checkpoint("x"),
            Checkpoint::Stop(StopReason::InjectedExhaust),
            "sticky"
        );
        drop(scope);
    }

    #[test]
    fn checkpoints_are_inert_inside_parallel_regions() {
        let budget = FlowBudget::unlimited().with_cap("x", 1);
        let scope = BudgetScope::begin(&budget, None);
        {
            let _region = RegionGuard::enter();
            for _ in 0..10 {
                assert_eq!(checkpoint("x"), Checkpoint::Continue);
            }
        }
        assert_eq!(site_visits("x"), 0, "region visits are not counted");
        assert_eq!(checkpoint("x"), Checkpoint::Continue);
        assert_eq!(checkpoint("x"), Checkpoint::Stop(StopReason::IterationCap));
        drop(scope);
    }

    #[test]
    fn dropping_scope_clears_state() {
        let budget = FlowBudget::unlimited().with_cap("x", 1);
        let scope = BudgetScope::begin(&budget, None);
        assert_eq!(checkpoint("x"), Checkpoint::Continue);
        drop(scope);
        assert_eq!(checkpoint("x"), Checkpoint::Continue, "no scope, inert");
        assert_eq!(site_visits("x"), 0);
    }

    #[test]
    fn budget_builder_and_report_display() {
        let b = FlowBudget::unlimited()
            .with_cap("a", 3)
            .with_cap("a", 5)
            .with_cap("b", 1);
        assert_eq!(b.cap("a"), Some(5), "re-capping replaces");
        assert_eq!(b.cap("b"), Some(1));
        assert_eq!(b.cap("c"), None);
        assert!(!b.is_unlimited());
        assert!(FlowBudget::default().is_unlimited());

        let report = DegradationReport {
            stages: vec![StageDegradation {
                site: "route/iterations".into(),
                reason: StopReason::IterationCap,
                detail: "2 nets overflowed".into(),
            }],
        };
        let text = report.to_string();
        assert!(text.contains("route/iterations"), "{text}");
        assert!(text.contains("iteration cap"), "{text}");
        assert_eq!(DegradationReport::default().to_string(), "clean");
    }
}

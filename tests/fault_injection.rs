//! Fault-injection robustness tests: every flow, driven through
//! [`Flow::try_run`] under randomized seeded fault plans and starved
//! budgets, must terminate without panicking — returning either a
//! typed [`FlowError`] or a well-formed degraded [`FlowOutcome`] —
//! and produce bit-identical results for any thread count.

use macro3d::flows::{standard_flows, Flow, Macro3d};
use macro3d::{
    FaultAction, FaultPlan, FlowBudget, FlowConfig, FlowError, FlowOutcome, StopReason,
    STANDARD_SITES,
};
use macro3d_soc::{generate_tile, TileConfig, TileNetlist};
use proptest::prelude::*;
use std::time::Duration;

/// The same miniature tile as `flow_integration.rs`.
fn tiny_tile() -> TileNetlist {
    let mut cfg = TileConfig::small_cache().with_scale(32.0);
    cfg.l3_kb = 64;
    cfg.l2_kb = 8;
    cfg.l1i_kb = 8;
    cfg.l1d_kb = 8;
    cfg.noc_width = 4;
    cfg.core_kgates = 26.0;
    cfg.l3_ctrl_kgates = 5.0;
    cfg.l2_ctrl_kgates = 4.0;
    cfg.l1i_ctrl_kgates = 3.0;
    cfg.l1d_ctrl_kgates = 3.0;
    cfg.noc_kgates = 2.0;
    generate_tile(&cfg)
}

fn fast_flow_cfg(threads: usize) -> FlowConfig {
    let mut cfg = FlowConfig::builder()
        .sizing_rounds(2)
        .threads(threads)
        .build()
        .expect("valid config");
    cfg.route.iterations = 2;
    cfg
}

/// A degraded outcome is *well-formed*: every recorded stage names a
/// known checkpoint site with a non-empty reason/detail, and the PPA
/// numbers are still finite (best-so-far, never garbage).
fn assert_well_formed(outcome: &FlowOutcome) {
    for stage in &outcome.degradation.stages {
        assert!(
            STANDARD_SITES.contains(&stage.site.as_str()) || stage.site == "flow/via_plan",
            "unknown degradation site {}",
            stage.site
        );
        assert!(!stage.detail.is_empty(), "empty detail for {}", stage.site);
        assert!(!stage.reason.to_string().is_empty());
    }
    assert!(outcome.ppa.fclk_mhz.is_finite());
    assert!(outcome.ppa.footprint_mm2.is_finite());
    assert!(outcome.implemented.design.validate().is_ok());
}

/// Fingerprint for bit-identity comparison across thread counts.
fn fingerprint(outcome: &FlowOutcome) -> (u64, u64, u64, u64) {
    (
        outcome.ppa.fclk_mhz.to_bits(),
        outcome.ppa.total_wirelength_m.to_bits(),
        outcome.ppa.footprint_mm2.to_bits(),
        outcome.ppa.f2f_bumps,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The tentpole property: any seeded fault plan, on any flow,
    /// yields a typed error or a well-formed degraded outcome — never
    /// a panic — and both the outcome and the degradation report are
    /// identical at 1 and 8 threads.
    #[test]
    fn any_fault_plan_is_survivable_and_thread_invariant(seed in 0u64..1_000) {
        let tile = tiny_tile();
        let plan = FaultPlan::random(seed, STANDARD_SITES);
        for flow in standard_flows() {
            let run = |threads: usize| {
                let mut cfg = fast_flow_cfg(threads);
                cfg.fault_plan = Some(plan.clone());
                flow.try_run(&tile, &cfg)
            };
            let serial = run(1);
            let wide = run(8);
            match (&serial, &wide) {
                (Ok(a), Ok(b)) => {
                    assert_well_formed(a);
                    assert_well_formed(b);
                    prop_assert_eq!(
                        fingerprint(a),
                        fingerprint(b),
                        "{} diverged across thread counts (seed {seed})",
                        flow.name()
                    );
                    prop_assert_eq!(&a.degradation, &b.degradation);
                }
                (Err(a), Err(b)) => prop_assert_eq!(a, b),
                _ => prop_assert!(
                    false,
                    "{} Ok/Err split across thread counts (seed {seed}): \
                     serial_err={:?} wide_err={:?}",
                    flow.name(),
                    serial.as_ref().err(),
                    wide.as_ref().err()
                ),
            }
        }
    }
}

/// An injected *error* at each flow gate surfaces as the typed
/// `FlowError::Injected` naming that site — on every flow that
/// reaches the gate.
#[test]
fn injected_errors_at_flow_gates_are_typed() {
    let tile = tiny_tile();
    for site in [
        "flow/floorplan",
        "flow/place",
        "flow/route",
        "flow/extract",
        "flow/sta",
    ] {
        let plan = FaultPlan::new().with_fault(site, 1, FaultAction::Error);
        for flow in standard_flows() {
            let mut cfg = fast_flow_cfg(0);
            cfg.fault_plan = Some(plan.clone());
            match flow.try_run(&tile, &cfg) {
                Err(FlowError::Injected { site: got, visit }) => {
                    assert_eq!(got, site, "{}", flow.name());
                    assert_eq!(visit, 1, "{}", flow.name());
                }
                Err(other) => panic!(
                    "{} at {site}: expected Injected error, got {other:?}",
                    flow.name()
                ),
                Ok(_) => panic!("{} at {site}: expected Injected error, got Ok", flow.name()),
            }
        }
    }
}

/// Injected *exhaustion* at every standard site never errors: the
/// stage degrades (best-so-far) and the flow completes, naming the
/// site when the checkpoint fired.
#[test]
fn injected_exhaustion_degrades_instead_of_failing() {
    let tile = tiny_tile();
    // sites guaranteed to fire for Macro-3D with this config
    let firing = [
        "flow/route",
        "place/anneal_proposals",
        "route/iterations",
        "sta/sizing_rounds",
    ];
    for &site in STANDARD_SITES {
        let plan = FaultPlan::new().with_fault(site, 1, FaultAction::Exhaust);
        let mut cfg = fast_flow_cfg(0);
        cfg.fault_plan = Some(plan);
        let outcome = Macro3d
            .try_run(&tile, &cfg)
            .unwrap_or_else(|e| panic!("exhaustion at {site} must not fail: {e}"));
        assert_well_formed(&outcome);
        if firing.contains(&site) {
            assert!(
                outcome.degradation.stage(site).is_some(),
                "{site} fired but is not in the report: {}",
                outcome.degradation
            );
        }
    }
}

/// Iteration caps cut loops short and report what was left undone.
#[test]
fn iteration_caps_degrade_gracefully() {
    let tile = tiny_tile();
    let mut cfg = fast_flow_cfg(0);
    cfg.budget = FlowBudget::unlimited()
        .with_cap("route/iterations", 1)
        .with_cap("sta/sizing_rounds", 1);
    let outcome = Macro3d.try_run(&tile, &cfg).expect("caps never error");
    assert_well_formed(&outcome);
    let routed = outcome
        .degradation
        .stage("route/iterations")
        .expect("route cap of 1 must trip on a 2-iteration config");
    assert_eq!(routed.reason, StopReason::IterationCap);
    assert!(
        outcome.degradation.stage("sta/sizing_rounds").is_some(),
        "{}",
        outcome.degradation
    );
}

/// A wall-clock budget 10x too small (effectively zero) terminates
/// promptly with a degraded — not hung, not panicked — outcome, and
/// the deadline is reported.
#[test]
fn starved_wall_clock_budget_terminates_promptly() {
    let tile = tiny_tile();
    let mut cfg = fast_flow_cfg(0);
    cfg.budget = FlowBudget::unlimited().with_wall_clock(Duration::from_nanos(1));
    let outcome = Macro3d.try_run(&tile, &cfg).expect("deadlines never error");
    assert_well_formed(&outcome);
    assert!(
        outcome.degradation.is_degraded(),
        "zero budget must degrade"
    );
    assert!(
        outcome
            .degradation
            .stages
            .iter()
            .any(|s| s.reason == StopReason::DeadlineExceeded),
        "{}",
        outcome.degradation
    );
}

/// A failed run tears down its budget scope and obs session: a clean
/// run after the failure behaves exactly like a clean run before it
/// (no leaked fault plan, no leaked degradation records). Note the
/// clean runs may legitimately degrade — the 2-iteration router does
/// not converge on this tile, and that residual overflow is *supposed*
/// to be reported — so the assertion is before/after equality, not
/// emptiness.
#[test]
fn failed_runs_leak_no_state_into_the_next() {
    let tile = tiny_tile();
    let clean = fast_flow_cfg(0);
    let before = Macro3d.try_run(&tile, &clean).expect("clean run succeeds");

    let mut cfg = fast_flow_cfg(0);
    cfg.fault_plan = Some(FaultPlan::new().with_fault("flow/place", 1, FaultAction::Error));
    assert!(Macro3d.try_run(&tile, &cfg).is_err());

    let after = Macro3d.try_run(&tile, &clean).expect("clean run succeeds");
    assert_eq!(fingerprint(&before), fingerprint(&after));
    assert_eq!(before.degradation, after.degradation);
    assert!(
        !after.degradation.stages.iter().any(|s| matches!(
            s.reason,
            StopReason::InjectedError | StopReason::InjectedExhaust
        )),
        "leaked fault plan: {}",
        after.degradation
    );
}

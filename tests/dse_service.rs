//! Integration tests for the DSE job service: concurrent-submission
//! determinism, fault/budget isolation between tenants, persisted-
//! cache restarts, and the NDJSON protocol.

use macro3d::{
    ppa_fingerprint, ppa_to_json, FaultAction, FaultPlan, ObsConfig, Parallelism, PlacerBackend,
    StopReason,
};
use macro3d_dse::server::{parse_spec, serve};
use macro3d_dse::sweep::{run_sweep, SweepAxis, SweepSpec};
use macro3d_dse::{DseConfig, DseService, DseStats, JobError, JobSpec};
use macro3d_json::Json;
use macro3d_soc::TileConfig;
use std::io::Cursor;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread;

fn scratch(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A spec fast enough to run many times in a debug-mode test.
fn fast_spec() -> JobSpec {
    let mut spec = JobSpec::new("Macro-3D", TileConfig::mini());
    spec.config.sizing_rounds = 1;
    spec.config.route.iterations = 1;
    spec
}

/// The headline determinism contract: N identical jobs racing in from
/// several tenant threads produce bit-identical fingerprints, execute
/// the flow exactly once, and the fingerprint does not depend on the
/// worker count.
#[test]
fn concurrent_identical_jobs_execute_once_and_agree() {
    let mut fingerprint_by_workers = Vec::new();
    for workers in [1usize, 8] {
        let service = DseService::start(DseConfig {
            workers,
            queue_capacity: 64,
            ..DseConfig::default()
        })
        .unwrap();
        let client = service.client();
        let results: Vec<_> = (0..3)
            .map(|_| {
                let client = client.clone();
                thread::spawn(move || {
                    (0..2)
                        .map(|_| {
                            let id = client.submit(fast_spec()).unwrap();
                            client.wait(id).unwrap()
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        assert_eq!(results.len(), 6);

        let fingerprints: Vec<u64> = results.iter().map(|r| ppa_fingerprint(&r.ppa)).collect();
        assert!(
            fingerprints.windows(2).all(|w| w[0] == w[1]),
            "all tenants must see the same result at workers={workers}"
        );
        let cold = results.iter().filter(|r| !r.cache_hit).count();
        assert_eq!(cold, 1, "exactly one cold execution at workers={workers}");
        assert_eq!(client.stats().flows_executed, 1);
        fingerprint_by_workers.push(fingerprints[0]);
        service.shutdown();
    }
    assert_eq!(
        fingerprint_by_workers[0], fingerprint_by_workers[1],
        "worker count must not change the result"
    );
}

/// A result is keyed by what can change it. Specs that differ only in
/// their thread counts and the top-level and placer chunk sizes, which
/// no stage key names, share one key, so the second is a cache hit of
/// the first. The obs level (an observed job must run to return its
/// trace) and the route chunk size (the router commits per chunk)
/// keep keys of their own.
#[test]
fn unkeyed_parallelism_knobs_share_one_result() {
    let base = fast_spec();
    let mut spread = base.clone();
    spread.config.parallelism = Parallelism {
        threads: 2,
        chunk_size: 5,
    };
    spread.config.place.parallelism = Parallelism {
        threads: 2,
        chunk_size: 7,
    };
    spread.config.route.parallelism.threads = 2;
    assert_eq!(base.spec_key(), spread.spec_key());

    let service = DseService::start(DseConfig::default()).unwrap();
    let client = service.client();
    let first = client.wait(client.submit(base.clone()).unwrap()).unwrap();
    let second = client.wait(client.submit(spread).unwrap()).unwrap();
    assert!(!first.cache_hit, "the first spec runs cold");
    assert!(second.cache_hit, "the second is served from the first");
    assert_eq!(ppa_fingerprint(&first.ppa), ppa_fingerprint(&second.ppa));
    assert_eq!(client.stats().flows_executed, 1);
    service.shutdown();

    let mut observed = base.clone();
    observed.config.obs = ObsConfig::summary();
    let mut rechunked = base.clone();
    rechunked.config.route.parallelism.chunk_size += 1;
    for other in [observed, rechunked] {
        assert_ne!(base.spec_key(), other.spec_key());
    }
}

/// Each observed job's trace counts exactly its own run. On 2 workers
/// without stage reuse, two observed Macro-3D jobs submitted among
/// obs-off 2D jobs with keys of their own report the counters each
/// spec reports on a 1-worker service.
#[test]
fn observed_jobs_trace_only_their_own_run() {
    let observed = |sizing_rounds: usize| {
        let mut spec = fast_spec();
        spec.config.sizing_rounds = sizing_rounds;
        spec.config.obs = ObsConfig::summary();
        spec
    };
    let sibling = |k: usize| {
        let mut spec = JobSpec::new("2D", TileConfig::mini());
        spec.config.sizing_rounds = 0;
        spec.config.route.iterations = 1;
        spec.config.util_logic = 0.5 + 0.05 * k as f64;
        spec
    };
    let counters = |workers: usize, specs: &[JobSpec]| {
        let service = DseService::start(DseConfig {
            workers,
            stage_reuse: false,
            ..DseConfig::default()
        })
        .unwrap();
        let client = service.client();
        let ids: Vec<_> = specs
            .iter()
            .map(|spec| client.submit(spec.clone()).unwrap())
            .collect();
        let traced: Vec<_> = ids
            .into_iter()
            .map(|id| {
                let result = client.wait(id).unwrap();
                assert!(!result.cache_hit, "every key is distinct");
                result
                    .obs
                    .as_ref()
                    .map(|trace| trace.metrics.counters.clone())
            })
            .collect();
        service.shutdown();
        traced
    };
    let alone = counters(1, &[observed(1), observed(2)]);
    assert!(alone.iter().all(Option::is_some), "observed jobs trace");
    let crowd = [
        sibling(0),
        sibling(1),
        sibling(2),
        observed(1),
        sibling(3),
        sibling(4),
        sibling(5),
        observed(2),
    ];
    let crowded = counters(2, &crowd);
    assert_eq!(crowded[3], alone[0], "first observed job");
    assert_eq!(crowded[7], alone[1], "second observed job");
}

/// One tenant's failure or degradation never leaks into another's
/// job, and the service keeps serving afterwards.
#[test]
fn faulty_jobs_are_isolated_from_siblings() {
    let service = DseService::start(DseConfig {
        workers: 2,
        ..DseConfig::default()
    })
    .unwrap();
    let client = service.client();

    // a budget-exhausted job: completes Done with a degradation
    let mut exhausted = fast_spec();
    exhausted.config.fault_plan =
        Some(FaultPlan::new().with_fault("route/iterations", 1, FaultAction::Exhaust));
    // an injected hard error: fails
    let mut broken = fast_spec();
    broken.config.fault_plan =
        Some(FaultPlan::new().with_fault("flow/place", 1, FaultAction::Error));
    // an untouched sibling
    let clean = fast_spec();

    let id_exhausted = client.submit(exhausted).unwrap();
    let id_broken = client.submit(broken).unwrap();
    let id_clean = client.submit(clean).unwrap();

    let injected = |reason: StopReason| {
        matches!(
            reason,
            StopReason::InjectedExhaust | StopReason::InjectedError
        )
    };
    let degraded = client.wait(id_exhausted).unwrap();
    assert!(
        degraded
            .degradation
            .stages
            .iter()
            .any(|s| injected(s.reason)),
        "exhaust fault must surface in the degradation report: {}",
        degraded.degradation
    );
    match client.wait(id_broken) {
        Err(JobError::Failed(msg)) => assert!(msg.contains("injected"), "{msg}"),
        other => panic!("injected error must fail the job, got {other:?}"),
    }
    // the sibling may carry organic degradations (route.iterations is
    // turned way down for test speed) but no injected ones
    let clean_result = client.wait(id_clean).unwrap();
    assert!(
        !clean_result
            .degradation
            .stages
            .iter()
            .any(|s| injected(s.reason)),
        "sibling job must not see a neighbor's faults: {}",
        clean_result.degradation
    );

    // service is still healthy: a fresh submit completes
    let id_again = client.submit(fast_spec()).unwrap();
    assert!(client.wait(id_again).is_ok());
    // the failure was not cached: resubmitting the broken spec retries
    // (and fails again, deterministically)
    let mut broken_again = fast_spec();
    broken_again.config.fault_plan =
        Some(FaultPlan::new().with_fault("flow/place", 1, FaultAction::Error));
    let id_retry = client.submit(broken_again).unwrap();
    assert!(matches!(client.wait(id_retry), Err(JobError::Failed(_))));
    assert_eq!(client.stats().jobs_failed, 2);
    service.shutdown();
}

/// Results persist across service restarts and come back bit-exact.
#[test]
fn persisted_cache_survives_restart_bit_exactly() {
    let dir = scratch("dse_restart");
    let cold_ppa_json;
    {
        let service = DseService::start(DseConfig {
            workers: 1,
            queue_capacity: 8,
            cache_dir: Some(dir.clone()),
            ..DseConfig::default()
        })
        .unwrap();
        let client = service.client();
        let id = client.submit(fast_spec()).unwrap();
        let result = client.wait(id).unwrap();
        assert!(!result.cache_hit);
        cold_ppa_json = ppa_to_json(&result.ppa).emit();
        service.shutdown();
    }
    // a brand-new service over the same directory: only the disk
    // layer can answer
    let service = DseService::start(DseConfig {
        workers: 1,
        queue_capacity: 8,
        cache_dir: Some(dir),
        ..DseConfig::default()
    })
    .unwrap();
    let client = service.client();
    let id = client.submit(fast_spec()).unwrap();
    let warm = client.wait(id).unwrap();
    assert!(warm.cache_hit, "restarted service must hit the disk layer");
    assert_eq!(client.stats().cache.disk_hits, 1);
    assert_eq!(client.stats().flows_executed, 0, "warm hit skips the flow");
    assert_eq!(
        ppa_to_json(&warm.ppa).emit(),
        cold_ppa_json,
        "persisted result must be bit-identical to the cold run"
    );
    service.shutdown();
}

/// Sweep results stream in grid order and the cache dedups the grid's
/// shared points across two sweeps within one service.
#[test]
fn sweep_streams_points_and_dedups_repeats() {
    let service = DseService::start(DseConfig {
        workers: 4,
        ..DseConfig::default()
    })
    .unwrap();
    let client = service.client();
    let sweep = SweepSpec {
        base: fast_spec(),
        axes: vec![
            SweepAxis::new("macro_metals", &["4", "6"]),
            SweepAxis::new("util_logic", &["0.55", "0.65"]),
        ],
    };
    let mut streamed = Vec::new();
    let first = run_sweep(&client, &sweep, |p| streamed.push(p.label.clone())).unwrap();
    assert_eq!(streamed.len(), 4);
    assert_eq!(streamed[0], "macro_metals=4,util_logic=0.55");
    assert!(first.points.iter().all(|p| p.ok().is_some()));
    assert!(!first.pareto.is_empty());
    assert_eq!(client.stats().flows_executed, 4);

    // identical sweep again: all hits, no new executions
    let second = run_sweep(&client, &sweep, |_| {}).unwrap();
    assert!(second
        .points
        .iter()
        .all(|p| p.ok().is_some_and(|r| r.cache_hit)));
    assert_eq!(client.stats().flows_executed, 4);
    // per-point fingerprints bit-identical cold vs warm
    for (a, b) in first.points.iter().zip(&second.points) {
        assert_eq!(
            a.ok().map(|r| ppa_fingerprint(&r.ppa)),
            b.ok().map(|r| ppa_fingerprint(&r.ppa))
        );
    }
    service.shutdown();
}

/// The NDJSON protocol end-to-end over in-memory buffers.
#[test]
fn ndjson_protocol_round_trip() {
    let service = DseService::start(DseConfig::default()).unwrap();
    let client = service.client();
    let requests = concat!(
        r#"{"cmd":"ping"}"#,
        "\n",
        r#"{"cmd":"submit","spec":{"flow":"2D","tile":"mini","knobs":{"sizing_rounds":"1","route_iterations":"1"}}}"#,
        "\n",
        r#"{"cmd":"wait","job":1}"#,
        "\n",
        r#"{"cmd":"status","job":1}"#,
        "\n",
        r#"{"cmd":"sweep","spec":{"flow":"2D","tile":"mini","knobs":{"sizing_rounds":"1","route_iterations":"1"}},"axes":[{"knob":"macro_metals","values":["4","6"]}]}"#,
        "\n",
        r#"{"cmd":"stats"}"#,
        "\n",
        "this is not json\n",
        r#"{"cmd":"shutdown"}"#,
        "\n",
        r#"{"cmd":"ping"}"#,
        "\n",
    );
    let mut out = Vec::new();
    serve(Cursor::new(requests), &mut out, &client).unwrap();
    let lines: Vec<Json> = String::from_utf8(out)
        .unwrap()
        .lines()
        .map(|l| Json::parse(l).unwrap())
        .collect();

    // ping, submit, wait, status, 2 sweep points + summary, stats,
    // bad-json error, shutdown — and nothing after shutdown
    assert_eq!(lines.len(), 10);
    assert_eq!(lines[0].get("reply").and_then(Json::as_str), Some("pong"));
    assert_eq!(lines[1].get("job").and_then(Json::as_u64), Some(1));
    let wait = &lines[2];
    assert_eq!(wait.get("ok").and_then(Json::as_bool), Some(true));
    assert!(wait.get("ppa").is_some(), "wait returns the full PPA");
    assert_eq!(
        wait.get("fingerprint").and_then(Json::as_str).map(str::len),
        Some(16)
    );
    assert_eq!(lines[3].get("status").and_then(Json::as_str), Some("done"));
    // sweep: two point lines, each the full result, then the summary
    assert_eq!(
        lines[4].get("point").and_then(Json::as_str),
        Some("macro_metals=4")
    );
    assert_eq!(
        lines[5].get("point").and_then(Json::as_str),
        Some("macro_metals=6")
    );
    for point in &lines[4..6] {
        for member in ["stage_times", "ppa", "degradation", "wall_s"] {
            assert!(point.get(member).is_some(), "{member} missing: {point:?}");
        }
    }
    assert_eq!(
        lines[6].get("sweep_done").and_then(Json::as_bool),
        Some(true)
    );
    assert_eq!(lines[6].get("points").and_then(Json::as_u64), Some(2));
    let stats = lines[7].get("stats").expect("stats payload");
    assert!(stats.get("flows_executed").and_then(Json::as_u64).unwrap() >= 1);
    assert_eq!(lines[8].get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(lines[9].get("bye").and_then(Json::as_bool), Some(true));
    service.shutdown();
}

/// Out-of-range values are refused by name through the protocol at
/// `submit`, a bad `config` object like a bad knob: no job is created,
/// no tile generated and no counter moves, and the session keeps
/// serving.
#[test]
fn out_of_range_values_are_refused_by_name() {
    let service = DseService::start(DseConfig::default()).unwrap();
    let client = service.client();
    let submit = |spec: String| format!(r#"{{"cmd":"submit","spec":{spec}}}"#);
    let knob = |k: &str, v: &str| {
        submit(format!(
            r#"{{"flow":"Macro-3D","tile":"mini","knobs":{{"{k}":"{v}"}}}}"#
        ))
    };
    let requests = [
        submit(r#"{"flow":"Macro-3D","tile":"mini","config":{"util_logic":60}}"#.to_string()),
        knob("halo_um", "-50"),
        knob("route_iterations", "0"),
        knob("scale", "nan"),
        knob("budget_wall_s", "nan"),
        r#"{"cmd":"ping"}"#.to_string(),
    ]
    .join("\n");
    let mut out = Vec::new();
    serve(Cursor::new(requests), &mut out, &client).unwrap();
    let lines: Vec<Json> = String::from_utf8(out)
        .unwrap()
        .lines()
        .map(|l| Json::parse(l).unwrap())
        .collect();

    assert_eq!(lines.len(), 6);
    for (line, want) in [
        (0, "util_logic must be in (0, 1], got 60"),
        (1, "halo_um must be finite and >= 0, got -50"),
        (2, "route.iterations must be >= 1, got 0"),
        (3, "scale must be a finite number >= 1, got 'nan'"),
        (4, "budget_wall_s must be a finite number > 0"),
    ] {
        assert_eq!(lines[line].get("ok").and_then(Json::as_bool), Some(false));
        let error = lines[line].get("error").and_then(Json::as_str);
        assert!(error.is_some_and(|e| e.contains(want)), "{error:?}");
    }
    assert_eq!(lines[5].get("reply").and_then(Json::as_str), Some("pong"));
    assert_eq!(
        client.stats(),
        DseStats::default(),
        "a refusal counts nothing"
    );
    service.shutdown();
}

/// A `config` object carries only the fields it changes: the rest
/// come from the defaults, so one member gives the same spec as the
/// knob of that name, and a member the config does not have is refused
/// by its path.
#[test]
fn partial_config_objects_overlay_the_defaults() {
    let spec = |body: &str| {
        let request = format!(r#"{{"spec":{{"flow":"Macro-3D","tile":"mini",{body}}}}}"#);
        parse_spec(&Json::parse(&request).unwrap())
    };
    let partial = spec(r#""config":{"util_logic":0.55}"#).unwrap();
    let knob = spec(r#""knobs":{"util_logic":"0.55"}"#).unwrap();
    assert_eq!(partial.spec_key(), knob.spec_key());

    // nested objects merge member by member
    let nested =
        spec(r#""config":{"route":{"iterations":1},"place":{"backend":"analytical"}}"#).unwrap();
    assert_eq!(nested.config.route.iterations, 1);
    assert_eq!(nested.config.place.backend, PlacerBackend::Analytical);

    for (body, want) in [
        (r#""config":{"util_logc":0.55}"#, "'config.util_logc'"),
        (
            r#""config":{"route":{"gcell_um":5}}"#,
            "'config.route.gcell_um'",
        ),
        (
            r#""config":{"route":3}"#,
            "'config.route' must be an object",
        ),
    ] {
        let err = spec(body).unwrap_err();
        assert!(err.contains(want), "{body}: {err}");
    }
}

/// Submissions survive queue-full backpressure without deadlock or
/// loss: more jobs than queue slots, all complete.
#[test]
fn bounded_queue_applies_backpressure_without_loss() {
    let service = DseService::start(DseConfig {
        workers: 2,
        queue_capacity: 2,
        ..DseConfig::default()
    })
    .unwrap();
    let client = service.client();
    let ids: Vec<_> = (0..10)
        .map(|i| {
            let mut spec = fast_spec();
            // pairs of identical specs, mixing cold runs and cache
            // hits through the tiny queue
            spec.config.util_logic = 0.55 + 0.01 * f64::from(i / 2);
            client.submit(spec).unwrap()
        })
        .collect();
    let results: Vec<Arc<_>> = ids.into_iter().map(|id| client.wait(id).unwrap()).collect();
    assert_eq!(results.len(), 10);
    assert_eq!(client.stats().flows_executed, 5, "5 distinct specs");
    // each pair's second job is served without a flow run, whether it
    // hit the cache or joined the leader in flight
    assert_eq!(results.iter().filter(|r| r.cache_hit).count(), 5);
    service.shutdown();
}

/// A result-cache hit finishes in microseconds, so a worker can
/// complete a job before its `submit` call has returned. Each such
/// job must still reach `wait` as `Done`: a `Queued` recorded after
/// the job became visible would overwrite the result and hang `wait`
/// forever, which the watchdog turns into a failure. More tenant
/// threads than CPUs get preempted inside `submit`, which is what
/// opens that window.
#[test]
fn cache_hit_jobs_finishing_during_submit_are_never_lost() {
    const TENANTS: usize = 6;
    const JOBS: usize = 100;
    let service = DseService::start(DseConfig {
        workers: 2,
        ..DseConfig::default()
    })
    .unwrap();
    let client = service.client();
    let warm = client.submit(fast_spec()).unwrap();
    client.wait(warm).unwrap();

    let (done_tx, done_rx) = std::sync::mpsc::channel();
    for _ in 0..TENANTS {
        let (tenant, done_tx) = (client.clone(), done_tx.clone());
        thread::spawn(move || {
            let ids: Vec<_> = (0..JOBS)
                .map(|_| tenant.submit(fast_spec()).unwrap())
                .collect();
            let hits = ids
                .into_iter()
                .filter(|&id| tenant.wait(id).unwrap().cache_hit)
                .count();
            let _ = done_tx.send(hits);
        });
    }
    for _ in 0..TENANTS {
        let hits = done_rx
            .recv_timeout(std::time::Duration::from_secs(120))
            .expect("a cache-hit job never reached a terminal state");
        assert_eq!(hits, JOBS);
    }
    assert_eq!(client.stats().flows_executed, 1);
    service.shutdown();
}

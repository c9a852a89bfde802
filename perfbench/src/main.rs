//! Performance benchmark of the Macro-3D reproduction.
//!
//! ```text
//! perfbench --workload <place_analytical|dse_sweep>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it runs the workload's fixed work repeatedly for
//! at least `--seconds` and reports the end-to-end metrics; with
//! `--trace 1` it runs a traced pass and reports the per-layer
//! metrics. The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Fingerprints of
//! every op and the recorded spans are written to
//! `.perfbench/<workload>-s<seed>-t<trace>.json` under the current
//! directory. See `README.md` next to this package.

mod measure;
mod workloads;

use macro3d::ObsConfig;
use macro3d_json::Json;
use measure::{
    add_stage_times, counter_ratios, dse_job_metrics, geomean, median, peak_rss_mb, ratio,
    speedups, sum_of_minima, Tracer,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};
use workloads::{Progress, Rep, RepMode, State, Workload};

/// The end-to-end metrics, `(name, unit)`, reported with `--trace 0`.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("fclk_mhz", "MHz"),
    ("wirelength_m", "m"),
    ("route_overflow", "edge.cap"),
];

/// The per-layer metrics, `(name, unit)`, reported with `--trace 1`.
/// A metric of a layer the workload does not exercise reads `0`.
const PER_LAYER: [(&str, &str); 54] = [
    ("soc.generate_s", "s"),
    ("core.flow_s.2d", "s"),
    ("core.flow_s.macro3d", "s"),
    ("core.flow_s.other", "s"),
    ("core.partition_s", "s"),
    ("core.build_cache_hits", "count"),
    ("core.build_cache_misses", "count"),
    ("core.build_cache_entries", "count"),
    ("core.stage_hits", "count"),
    ("core.stage_misses", "count"),
    ("core.reuse_depth_mean", "stages"),
    ("place.floorplan_s", "s"),
    ("place.global_s", "s"),
    ("place.legalize_s", "s"),
    ("place.nesterov_iters", "count"),
    ("place.ms_per_nesterov_iter", "ms"),
    ("place.anneal_proposals", "count"),
    ("place.anneal_accept_ratio", "ratio"),
    ("place.hpwl_cache_hit_ratio", "ratio"),
    ("place.reused_s", "s"),
    ("route.stage_s", "s"),
    ("route.iterations", "count"),
    ("route.ripup_rounds", "count"),
    ("route.nets_rerouted", "count"),
    ("route.search_nodes", "count"),
    ("route.window_expansions", "count"),
    ("route.pattern_clean_ratio", "ratio"),
    ("extract.stage_s", "s"),
    ("extract.nets", "count"),
    ("extract.est_nets", "count"),
    ("sta.sizing_s", "s"),
    ("sta.cts_repeaters_s", "s"),
    ("sta.hold_power_s", "s"),
    ("sta.propagations", "count"),
    ("sta.arcs_evaluated", "count"),
    ("sta.incremental_updates", "count"),
    ("par.host_cpus", "count"),
    ("par.cpu_per_wall", "ratio"),
    ("par.speedup.place", "x"),
    ("par.speedup.extract", "x"),
    ("par.speedup.route", "x"),
    ("par.speedup.sta", "x"),
    ("dse.workers", "count"),
    ("dse.speedup_2_workers", "x"),
    ("dse.job_s_cold", "s"),
    ("dse.job_s_reused", "s"),
    ("dse.worker_busy_ratio", "ratio"),
    ("dse.spec_key_us", "us"),
    ("dse.stage_keys_us", "us"),
    ("dse.lookup_disk_us", "us"),
    ("dse.lookup_memory_us", "us"),
    ("dse.cache_misses", "count"),
    ("obs.overhead", "ratio"),
    ("other.stage_s", "s"),
];

/// Obs counters summed into per-layer metrics of the same meaning.
const COUNTERS: [(&str, &str); 12] = [
    ("place/nesterov_iters", "place.nesterov_iters"),
    ("place/anneal_proposals", "place.anneal_proposals"),
    ("route/iterations", "route.iterations"),
    ("route/ripup_rounds", "route.ripup_rounds"),
    ("route/nets_rerouted", "route.nets_rerouted"),
    ("route/search_nodes", "route.search_nodes"),
    ("route/window_expansions", "route.window_expansions"),
    ("extract/nets", "extract.nets"),
    ("extract/est_nets", "extract.est_nets"),
    ("sta/propagations", "sta.propagations"),
    ("sta/arcs_evaluated", "sta.arcs_evaluated"),
    ("sta/incremental_updates", "sta.incremental_updates"),
];

/// Set-ups per batch. A timed run sets up one batch before its first
/// repetition and one after each, and `setup_s` is the median over all
/// of them: the host's speed at set-up changed by up to 1.8x within
/// seconds, so set-ups taken in one burst at the start made `setup_s`
/// depend on that moment.
const SETUP_REPS: usize = 5;

/// Timed repetitions per run at the least, however long they take:
/// each unit's fastest time over two or more repetitions ignores a
/// repetition that a busy host slowed down.
const MIN_REPS: usize = 2;

/// Flow threads of the timed `place_analytical` repetitions. At two
/// threads its wall time varied 3.5x more between runs than its CPU
/// time (14 % against 4 %), because the second CPU is shared with
/// other work on the host; the traced run keeps the 1-vs-2 thread
/// comparison.
const PLACE_THREADS: usize = 1;

/// Workers of the timed `dse_sweep` repetitions. At two workers its
/// wall and CPU time spread 17 % and 19 % over ten seeds, against 9-10 %
/// for the one-thread workloads, for the same shared-CPU reason as
/// [`PLACE_THREADS`]; the traced run repeats the sweeps on two
/// workers, which exercises affinity and stealing.
const DSE_WORKERS: usize = 1;

/// A run that has not finished by then is reported and stopped: the
/// whole process must end within 180 s.
const WATCHDOG: Duration = Duration::from_secs(150);

/// Where runs write their fingerprints, spans and scratch data,
/// relative to the current directory.
const OUT_DIR: &str = ".perfbench";

#[derive(Clone, Copy)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed '{value}'"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds '{value}'"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds must be in (0, 120], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got '{value}'")),
                })
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Everything a run reports.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, &'static str, f64)>,
    ops: Vec<(String, String)>,
    spans: Vec<measure::Span>,
}

fn timed_mode(w: Workload) -> RepMode {
    RepMode {
        obs: ObsConfig::off(),
        threads: match w {
            Workload::PlaceAnalytical => PLACE_THREADS,
            Workload::DseSweep => DSE_WORKERS,
        },
        stage_reuse: true,
    }
}

/// Sets the workload up [`SETUP_REPS`] times; returns the last state
/// and the seconds of each set-up.
fn setup(w: Workload, seed: u64, tracer: &mut Tracer) -> (State, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut state = None;
    for _ in 0..SETUP_REPS {
        let open = tracer.open("setup", None, None);
        state = Some(workloads::setup(w, seed, tracer, open.id()));
        times.push(tracer.close(open));
    }
    (state.expect("SETUP_REPS > 0"), times)
}

/// Counts ops and failures over `reps`: an op fails when it errored,
/// failed a check, or its fingerprint differs from the same op of
/// `reference`. Returns the reference's `(label, fingerprint)` list.
fn tally(reference: &Rep, reps: &[&Rep]) -> (u64, u64, Vec<(String, String)>) {
    let expected: BTreeMap<&str, Option<&str>> = reference
        .ops
        .iter()
        .map(|op| {
            let fp = op.result.as_ref().ok().map(|ok| ok.fingerprint.as_str());
            (op.label.as_str(), fp)
        })
        .collect();
    let mut attempted = 0;
    let mut failed = 0;
    for rep in reps {
        for op in &rep.ops {
            attempted += 1;
            let ok = match (&op.result, expected.get(op.label.as_str())) {
                (Ok(got), Some(Some(want))) => got.fingerprint == *want,
                _ => false,
            };
            if !ok {
                failed += 1;
                let why = match &op.result {
                    Ok(got) => {
                        format!("fingerprint {} differs from the reference", got.fingerprint)
                    }
                    Err(e) => e.clone(),
                };
                eprintln!("failed op {}: {why}", op.label);
            }
        }
    }
    let ops = reference
        .ops
        .iter()
        .map(|op| {
            let fp = match &op.result {
                Ok(ok) => ok.fingerprint.clone(),
                Err(e) => format!("failed: {e}"),
            };
            (op.label.clone(), fp)
        })
        .collect();
    (attempted, failed, ops)
}

fn ok_ops(rep: &Rep) -> impl Iterator<Item = &workloads::OpOk> {
    rep.ops.iter().filter_map(|op| op.result.as_ref().ok())
}

fn timed(args: &Args, scratch: &Path, progress: &Progress) -> Outcome {
    let w = args.workload;
    let mut tracer = Tracer::new(false);
    let (state, mut setup_times) = setup(w, args.seed, &mut tracer);
    let mode = timed_mode(w);
    // as many repetitions as fit into --seconds, at least MIN_REPS
    let started = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    loop {
        reps.push(workloads::rep(
            w,
            &state,
            mode,
            scratch,
            &mut tracer,
            progress,
        ));
        setup_times.extend(setup(w, args.seed, &mut tracer).1);
        let last = reps.last().map_or(0.0, |r| r.wall_s);
        if reps.len() >= MIN_REPS && started.elapsed().as_secs_f64() + last > args.seconds {
            break;
        }
    }
    let all: Vec<&Rep> = reps.iter().collect();
    let (attempted, failed, ops) = tally(&reps[0], &all);
    // one column per unit, one sample per repetition
    let columns = |value: fn(&workloads::Unit) -> f64| -> Vec<Vec<f64>> {
        (0..reps[0].units.len())
            .map(|i| reps.iter().map(|r| value(&r.units[i])).collect())
            .collect()
    };
    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let first = &reps[0];
    let fclk: Vec<f64> = ok_ops(first).map(|ok| ok.ppa.fclk_mhz).collect();
    let wl: Vec<f64> = ok_ops(first).map(|ok| ok.ppa.total_wirelength_m).collect();
    let overflow: f64 = ok_ops(first).map(|ok| ok.ppa.route_overflow).sum();
    println!("timed repetitions: {} (wall {walls:?})", reps.len());
    let values = [
        median(&setup_times),
        sum_of_minima(&columns(|u| u.wall_s)),
        sum_of_minima(&columns(|u| u.cpu_s)),
        peak_rss_mb(),
        geomean(&fclk),
        geomean(&wl),
        overflow,
    ];
    Outcome {
        attempted,
        failed,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, unit, v))
            .collect(),
        ops,
        spans: tracer.spans().to_vec(),
    }
}

/// Per-layer sums over a repetition's successful ops: stage times
/// (cache hits ran no stage), obs counters and flow wall times.
fn layer_sums(rep: &Rep) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    for op in &rep.ops {
        let Ok(ok) = &op.result else { continue };
        if ok.cache_hit {
            continue;
        }
        add_stage_times(&ok.ppa.stage_times.stages, &mut m);
        for (counter, metric) in COUNTERS {
            *m.entry(metric).or_insert(0.0) +=
                ok.counters.get(counter).copied().unwrap_or(0) as f64;
        }
        if rep.dse.is_none() {
            *m.entry(workloads::op_flow_metric(op)).or_insert(0.0) += ok.wall_s;
        }
    }
    m
}

fn counter_sum(rep: &Rep, name: &str) -> f64 {
    ok_ops(rep)
        .map(|ok| ok.counters.get(name).copied().unwrap_or(0) as f64)
        .sum()
}

fn traced(args: &Args, scratch: &Path, progress: &Progress) -> Outcome {
    let w = args.workload;
    let mut tracer = Tracer::new(true);
    let (state, setup_times) = setup(w, args.seed, &mut tracer);
    let mode = timed_mode(w);

    // untraced reference: the timed configuration, spans and obs off
    tracer.set_enabled(false);
    let base = workloads::rep(w, &state, mode, scratch, &mut tracer, progress);
    tracer.set_enabled(true);

    // traced pass: obs summary for the flow workloads; DSE jobs keep
    // obs off because obs-enabled jobs serialize on the session permit
    let obs = match w {
        Workload::DseSweep => ObsConfig::off(),
        _ => ObsConfig::summary(),
    };
    let traced = workloads::rep(
        w,
        &state,
        RepMode { obs, ..mode },
        scratch,
        &mut tracer,
        progress,
    );
    let dse_calls = match w {
        Workload::DseSweep => time_dse_calls(&state, scratch, &mut tracer),
        _ => BTreeMap::new(),
    };

    // consistency pass, which must reproduce the reference fingerprints
    let check = match w {
        Workload::PlaceAnalytical => {
            let threads = if mode.threads == 1 { 2 } else { 1 };
            let m = RepMode {
                obs,
                threads,
                ..mode
            };
            workloads::rep(w, &state, m, scratch, &mut tracer, progress)
        }
        Workload::DseSweep => {
            // one sweep is enough to check: without reuse all its
            // points run cold
            let m = RepMode {
                threads: 1,
                stage_reuse: false,
                ..mode
            };
            let first = state.first_only();
            workloads::rep(w, &first, m, scratch, &mut tracer, progress)
        }
    };
    // DSE: every sweep again on two workers (affinity and stealing),
    // which must reproduce the fingerprints too
    let two_workers = (w == Workload::DseSweep).then(|| {
        let m = RepMode { threads: 2, ..mode };
        workloads::rep(w, &state, m, scratch, &mut tracer, progress)
    });
    let mut reps = vec![&base, &traced, &check];
    reps.extend(two_workers.as_ref());
    let (attempted, failed, ops) = tally(&base, &reps);

    let mut m: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|&(n, _)| (n, 0.0)).collect();
    m.extend(dse_calls);
    m.insert("soc.generate_s", median(&setup_times));
    m.insert("core.build_cache_hits", traced.cache.hits as f64);
    m.insert("core.build_cache_misses", traced.cache.misses as f64);
    m.insert("core.build_cache_entries", traced.cache.entries as f64);
    m.insert("obs.overhead", ratio(traced.wall_s, base.wall_s) - 1.0);
    m.insert("par.cpu_per_wall", ratio(base.cpu_s, base.wall_s));
    m.insert(
        "par.host_cpus",
        std::thread::available_parallelism().map_or(1, |n| n.get()) as f64,
    );
    let sums = layer_sums(&traced);
    m.extend(sums.clone());
    m.extend(counter_ratios(&sums, |c| counter_sum(&traced, c)));
    if w == Workload::PlaceAnalytical {
        let (one, two) = if mode.threads == 1 {
            (&traced, &check)
        } else {
            (&check, &traced)
        };
        m.extend(speedups(&layer_sums(one), &layer_sums(two)));
    }
    if let Some(dse) = &traced.dse {
        let jobs: Vec<(f64, usize)> = ok_ops(&traced)
            .filter(|ok| !ok.cache_hit)
            .map(|ok| (ok.wall_s, ok.reuse_depth))
            .collect();
        m.extend(dse_job_metrics(&jobs, dse.workers, dse.sweeps_wall_s));
        m.insert("dse.cache_misses", dse.stats.cache.misses as f64);
        m.insert("dse.workers", dse.workers as f64);
        m.insert("core.stage_hits", dse.stats.stage_hits as f64);
        m.insert("core.stage_misses", dse.stats.stage_misses as f64);
        if let Some(two) = two_workers.as_ref().and_then(|r| r.dse.as_ref()) {
            m.insert(
                "dse.speedup_2_workers",
                ratio(dse.sweeps_wall_s, two.sweeps_wall_s),
            );
        }
    }
    Outcome {
        attempted,
        failed,
        metrics: PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, m[name]))
            .collect(),
        ops,
        spans: tracer.spans().to_vec(),
    }
}

/// Times direct calls into the DSE layer over the traced sweep's
/// points: spec and stage keys, and result-cache lookups from disk
/// (a fresh cache over the sweep's directory) and then from memory.
/// Each value is the median microseconds per call.
fn time_dse_calls(
    state: &State,
    scratch: &Path,
    tracer: &mut Tracer,
) -> BTreeMap<&'static str, f64> {
    const CALLS: usize = 50;
    let mut m = BTreeMap::new();
    let State::Sweep { sweeps, .. } = state else {
        return m;
    };
    let Ok(points) = macro3d_dse::sweep::expand(&sweeps[0]) else {
        return m;
    };
    let root = tracer.open("dse.direct_calls", None, None);
    let per_call = |f: &dyn Fn()| -> f64 {
        let t = Instant::now();
        for _ in 0..CALLS {
            f();
        }
        t.elapsed().as_secs_f64() * 1e6 / CALLS as f64
    };
    let spec_key: Vec<f64> = points
        .iter()
        .map(|p| per_call(&|| drop(std::hint::black_box(p.spec.spec_key()))))
        .collect();
    let stage_keys: Vec<f64> = points
        .iter()
        .map(|p| {
            per_call(&|| {
                std::hint::black_box(p.spec.stage_keys());
            })
        })
        .collect();
    m.insert("dse.spec_key_us", median(&spec_key));
    m.insert("dse.stage_keys_us", median(&stage_keys));
    // a fresh cache over the sweep's directory: the first lookup of a
    // key reads its record from disk, the second finds it in memory
    if let Ok(cache) = macro3d_dse::ResultCache::persistent(scratch) {
        let keys: Vec<String> = points.iter().map(|p| p.spec.spec_key()).collect();
        let lookup = |key: &String| -> Option<f64> {
            let t = Instant::now();
            let hit = cache.lookup(key).is_some();
            hit.then(|| t.elapsed().as_secs_f64() * 1e6)
        };
        let disk: Option<Vec<f64>> = keys.iter().map(lookup).collect();
        let memory: Option<Vec<f64>> = keys.iter().map(lookup).collect();
        if let (Some(disk), Some(memory)) = (disk, memory) {
            m.insert("dse.lookup_disk_us", median(&disk));
            m.insert("dse.lookup_memory_us", median(&memory));
        }
    }
    tracer.close(root);
    m
}

fn write_record(path: &Path, args: &Args, outcome: &Outcome) -> std::io::Result<()> {
    let ops = outcome
        .ops
        .iter()
        .map(|(label, fp)| {
            Json::obj()
                .field("label", Json::str(label.clone()))
                .field("fingerprint", Json::str(fp.clone()))
        })
        .collect();
    let spans = outcome
        .spans
        .iter()
        .map(|s| {
            Json::obj()
                .field("name", Json::str(s.name.clone()))
                .field("start_us", Json::from_f64(s.start_us))
                .field("end_us", Json::from_f64(s.end_us))
                .field("parent", s.parent.map_or(Json::Null, Json::from_usize))
                .field("op", s.op.map_or(Json::Null, Json::from_u64))
        })
        .collect();
    let doc = Json::obj()
        .field("workload", Json::str(args.workload.name()))
        .field("seed", Json::from_u64(args.seed))
        .field("trace", Json::Bool(args.trace))
        .field("attempted", Json::from_u64(outcome.attempted))
        .field("failed", Json::from_u64(outcome.failed))
        .field("metrics", metrics_json(&outcome.metrics))
        .field("ops", Json::Arr(ops))
        .field("spans", Json::Arr(spans));
    std::fs::write(path, doc.emit() + "\n")
}

fn metrics_json(metrics: &[(&str, &str, f64)]) -> Json {
    metrics.iter().fold(Json::obj(), |acc, &(name, unit, v)| {
        acc.field(
            name,
            Json::obj()
                .field("value", Json::from_f64(v))
                .field("unit", Json::str(unit)),
        )
    })
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Json) -> String {
    Json::obj()
        .field("correct", Json::Bool(correct))
        .field("attempted", Json::from_u64(attempted))
        .field("failed", Json::from_u64(failed))
        .field("metrics", metrics)
        .emit()
}

/// `--workload all`: runs each workload in its own child process (the
/// caches are process-global) with the other arguments unchanged,
/// prints their metrics side by side, and ends with one result line
/// whose metric names are prefixed with the workload. Returns the
/// exit status.
fn run_all(argv: &[String]) -> i32 {
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("perfbench: cannot locate the running executable");
        return 2;
    };
    let (mut attempted, mut failed, mut correct) = (0, 0, true);
    let mut metrics = Json::obj();
    let mut table = Vec::new();
    for w in Workload::ALL {
        let child_args: Vec<&str> = argv
            .iter()
            .map(|a| if a == "all" { w.name() } else { a.as_str() })
            .collect();
        let result = std::process::Command::new(&exe)
            .args(&child_args)
            .stderr(std::process::Stdio::inherit())
            .output()
            .ok()
            .filter(|out| out.status.success())
            .and_then(|out| {
                let text = String::from_utf8_lossy(&out.stdout).into_owned();
                Json::parse(text.lines().last()?).ok()
            });
        let Some(result) = result else {
            eprintln!("perfbench: workload {} did not report a result", w.name());
            (attempted, failed, correct) = (attempted + 1, failed + 1, false);
            continue;
        };
        attempted += result.get("attempted").and_then(Json::as_u64).unwrap_or(0);
        failed += result.get("failed").and_then(Json::as_u64).unwrap_or(0);
        correct &= result.get("correct").and_then(Json::as_bool) == Some(true);
        for (name, m) in result.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            table.push(format!("{:<18} {name:<28} {value:>16.6} {unit}", w.name()));
            metrics = metrics.field(format!("{}.{name}", w.name()), m.clone());
        }
    }
    for row in &table {
        println!("{row}");
    }
    println!("ops attempted {attempted} failed {failed}");
    println!(
        "{}",
        result_line(correct, attempted.max(1), failed, metrics)
    );
    0
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv
        .windows(2)
        .any(|a| a[0] == "--workload" && a[1] == "all")
    {
        std::process::exit(run_all(&argv));
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let out_dir = PathBuf::from(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: cannot create {OUT_DIR}: {e}");
        std::process::exit(2);
    }
    let scratch = out_dir.join(format!("dse-cache-{}", std::process::id()));
    let record = out_dir.join(format!(
        "{}-s{}-t{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));

    let progress = Arc::new(Progress::default());
    let (tx, rx) = mpsc::channel();
    let worker = {
        let progress = Arc::clone(&progress);
        let scratch = scratch.clone();
        std::thread::Builder::new()
            .name("workload".into())
            .spawn(move || {
                let outcome = if args.trace {
                    traced(&args, &scratch, &progress)
                } else {
                    timed(&args, &scratch, &progress)
                };
                let _ = tx.send(outcome);
            })
            .expect("spawning the workload thread")
    };
    let outcome = match rx.recv_timeout(WATCHDOG) {
        Ok(outcome) => outcome,
        Err(_) => {
            // a hung or crashed workload: unfinished ops are failures
            let planned = progress.planned.load(Ordering::Relaxed);
            let ok = progress.finished_ok.load(Ordering::Relaxed);
            let _ = std::fs::remove_dir_all(&scratch);
            eprintln!("perfbench: workload did not finish; {ok} of {planned} ops completed");
            println!(
                "{}",
                result_line(false, planned.max(1), planned.max(1) - ok, Json::obj())
            );
            std::process::exit(1);
        }
    };
    let _ = worker.join();
    let _ = std::fs::remove_dir_all(&scratch);

    for (label, fp) in &outcome.ops {
        println!("op {label:<48} {fp}");
    }
    for &(name, unit, v) in &outcome.metrics {
        println!("{name:<28} {v:>16.6} {unit}");
    }
    println!(
        "ops attempted {} failed {}; host CPUs {}",
        outcome.attempted,
        outcome.failed,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    if let Err(e) = write_record(&record, &args, &outcome) {
        eprintln!("perfbench: cannot write {}: {e}", record.display());
    }
    println!(
        "{}",
        result_line(
            outcome.failed == 0,
            outcome.attempted,
            outcome.failed,
            metrics_json(&outcome.metrics)
        )
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> Json {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        Json::parse(&text).expect("BENCHMARK.json is valid JSON")
    }

    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let doc = benchmark_json();
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), own(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), own(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let own: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, own);
    }

    #[test]
    fn stage_metrics_and_counters_are_per_layer_metrics() {
        let names: Vec<&str> = PER_LAYER.iter().map(|&(n, _)| n).collect();
        for m in measure::STAGE_METRICS {
            assert!(names.contains(&m), "{m}");
        }
        for (_, m) in COUNTERS {
            assert!(names.contains(&m), "{m}");
        }
    }

    #[test]
    fn args_parse_and_reject() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload dse_sweep --seed 9 --seconds 3 --trace 1")).unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::DseSweep, 9, 3.0, true)
        );
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload dse_sweep --trace 2")).is_err());
        assert!(parse_args(&argv("--workload dse_sweep --seconds 0")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
    }
}

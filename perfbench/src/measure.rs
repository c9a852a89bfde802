//! Measurement helpers: summary statistics, process CPU and memory
//! readings, the stage-label → layer mapping, and the span recorder.

use std::collections::BTreeMap;
use std::time::Instant;

/// Median of `v` (mean of the two middle values for even lengths);
/// `0` for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Sum over `columns` of each column's minimum: the time of a
/// repetition whose every unit ran at its fastest. A busy host only
/// ever slows a unit down, so its fastest time is the one least
/// disturbed.
pub fn sum_of_minima(columns: &[Vec<f64>]) -> f64 {
    columns
        .iter()
        .map(|c| c.iter().copied().fold(f64::INFINITY, f64::min))
        .sum()
}

/// Geometric mean of strictly positive values; `0` when `v` is empty
/// or holds a value that is not positive.
pub fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() || v.iter().any(|&x| x.is_nan() || x <= 0.0) {
        return 0.0;
    }
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// `num / den`, or `0` when the base is zero (an unexercised layer).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Linux reports process CPU time in clock ticks of `USER_HZ`, which
/// is 100 on every mainstream architecture.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds of this process (all threads), read from
/// `/proc/self/stat`; `0` when unavailable.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    parse_cpu_ticks(&stat).map_or(0.0, |ticks| ticks as f64 / USER_HZ)
}

/// `utime + stime` from a `/proc/<pid>/stat` line. The command name
/// may contain spaces, so fields are counted after its closing `)`:
/// `utime` and `stime` are fields 14 and 15, i.e. the 12th and 13th
/// after it.
fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// High-water resident set size of this process in MB (`VmHWM` of
/// `/proc/self/status`); `0` when unavailable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    parse_vm_hwm_kb(&status).map_or(0.0, |kb| kb as f64 / 1024.0)
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Per-layer metric that a `StageTimer` label's seconds are charged
/// to. A label this table does not know lands in `other.stage_s`, so
/// a renamed stage shows up there instead of vanishing.
pub fn stage_metric(label: &str) -> &'static str {
    match label {
        "floorplan" => "place.floorplan_s",
        "global_place" => "place.global_s",
        "eco+detailed" => "place.legalize_s",
        "place_reused" => "place.reused_s",
        "route" | "s2d_stage1_route" | "c2d_stage1_route" => "route.stage_s",
        "extract" | "s2d_stage1_extract" => "extract.stage_s",
        "sta+sizing" | "s2d_stage1_sizing" | "c2d_stage1_sizing" => "sta.sizing_s",
        "repeaters+cts" => "sta.cts_repeaters_s",
        "hold+power" => "sta.hold_power_s",
        "s2d_partition_fix" | "c2d_partition_fix" => "core.partition_s",
        _ => "other.stage_s",
    }
}

/// Every metric [`stage_metric`] can return.
#[cfg(test)]
pub const STAGE_METRICS: [&str; 11] = [
    "place.floorplan_s",
    "place.global_s",
    "place.legalize_s",
    "place.reused_s",
    "route.stage_s",
    "extract.stage_s",
    "sta.sizing_s",
    "sta.cts_repeaters_s",
    "sta.hold_power_s",
    "core.partition_s",
    "other.stage_s",
];

/// Adds `(label, seconds)` stage times into per-layer sums.
pub fn add_stage_times(stages: &[(String, f64)], into: &mut BTreeMap<&'static str, f64>) {
    for (label, secs) in stages {
        *into.entry(stage_metric(label)).or_insert(0.0) += secs;
    }
}

/// `par.speedup.*`: per kernel family, the stage seconds at one
/// thread over those at two. Placement covers floorplan, global
/// placement and legalization; STA covers sizing, CTS/repeaters and
/// hold/power.
pub fn speedups(
    one_thread: &BTreeMap<&'static str, f64>,
    two_threads: &BTreeMap<&'static str, f64>,
) -> [(&'static str, f64); 4] {
    let families: [(&str, &[&str]); 4] = [
        (
            "par.speedup.place",
            &["place.floorplan_s", "place.global_s", "place.legalize_s"],
        ),
        ("par.speedup.extract", &["extract.stage_s"]),
        ("par.speedup.route", &["route.stage_s"]),
        (
            "par.speedup.sta",
            &["sta.sizing_s", "sta.cts_repeaters_s", "sta.hold_power_s"],
        ),
    ];
    families.map(|(name, members)| {
        let secs = |sums: &BTreeMap<&str, f64>| -> f64 {
            members.iter().filter_map(|m| sums.get(m)).sum()
        };
        (name, ratio(secs(one_thread), secs(two_threads)))
    })
}

/// The ratio metrics over obs counters; `counter` returns a counter
/// summed over the ops, `sums` holds the stage seconds.
pub fn counter_ratios(
    sums: &BTreeMap<&'static str, f64>,
    counter: impl Fn(&str) -> f64,
) -> [(&'static str, f64); 4] {
    let global_ms = 1e3 * sums.get("place.global_s").copied().unwrap_or(0.0);
    let hpwl_hits = counter("place/hpwl_cache_hits");
    let clean = counter("route/pattern_clean");
    [
        (
            "place.ms_per_nesterov_iter",
            ratio(global_ms, counter("place/nesterov_iters")),
        ),
        (
            "place.anneal_accept_ratio",
            ratio(
                counter("place/anneal_accepts"),
                counter("place/anneal_proposals"),
            ),
        ),
        (
            "place.hpwl_cache_hit_ratio",
            ratio(hpwl_hits, hpwl_hits + counter("place/hpwl_cache_inits")),
        ),
        (
            "route.pattern_clean_ratio",
            ratio(clean, clean + counter("route/pattern_dirty")),
        ),
    ]
}

/// The DSE job metrics over executed jobs `(wall seconds, reuse
/// depth)`: job seconds by cold (depth 0) and re-entered jobs, the
/// share of the workers' time spent in jobs, and the mean depth.
pub fn dse_job_metrics(
    jobs: &[(f64, usize)],
    workers: usize,
    sweeps_wall_s: f64,
) -> [(&'static str, f64); 4] {
    let job_s = |reused: bool| -> f64 {
        jobs.iter()
            .filter(|&&(_, depth)| (depth > 0) == reused)
            .map(|&(s, _)| s)
            .sum()
    };
    let (cold, reused) = (job_s(false), job_s(true));
    let depth: f64 = jobs.iter().map(|&(_, d)| d as f64).sum();
    [
        ("dse.job_s_cold", cold),
        ("dse.job_s_reused", reused),
        (
            "dse.worker_busy_ratio",
            ratio(cold + reused, workers as f64 * sweeps_wall_s),
        ),
        ("core.reuse_depth_mean", ratio(depth, jobs.len() as f64)),
    ]
}

/// One recorded span of the benchmark's own calls.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    pub op: Option<u64>,
}

/// In-memory span recorder around the benchmark's calls into the
/// program. When disabled it records nothing but still times.
pub struct Tracer {
    t0: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

/// Handle of an open span; [`Tracer::close`] returns its duration.
#[derive(Clone, Copy, Debug)]
pub struct Open {
    id: Option<usize>,
    started: Instant,
}

impl Open {
    /// Index of the recorded span, to parent children under it.
    pub fn id(&self) -> Option<usize> {
        self.id
    }
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            t0: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    pub fn open(
        &mut self,
        name: impl Into<String>,
        parent: Option<usize>,
        op: Option<u64>,
    ) -> Open {
        let started = Instant::now();
        let id = self.enabled.then(|| {
            let at = started.duration_since(self.t0).as_secs_f64() * 1e6;
            self.spans.push(Span {
                name: name.into(),
                start_us: at,
                end_us: at,
                parent,
                op,
            });
            self.spans.len() - 1
        });
        Open { id, started }
    }

    /// Closes `open` and returns its duration in seconds.
    pub fn close(&mut self, open: Open) -> f64 {
        let now = Instant::now();
        if let Some(span) = open.id.and_then(|i| self.spans.get_mut(i)) {
            span.end_us = now.duration_since(self.t0).as_secs_f64() * 1e6;
        }
        now.duration_since(open.started).as_secs_f64()
    }

    /// Runs `f` inside a span and returns its result and duration.
    pub fn time<R>(
        &mut self,
        name: impl Into<String>,
        parent: Option<usize>,
        op: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let open = self.open(name, parent, op);
        let r = f();
        (r, self.close(open))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn sum_of_minima_takes_each_columns_fastest_sample() {
        // a slow repetition in either unit is ignored
        let columns = [vec![1.2, 1.0, 9.0], vec![8.0, 2.0]];
        assert_eq!(sum_of_minima(&columns), 3.0);
        assert_eq!(sum_of_minima(&[]), 0.0);
    }

    #[test]
    fn geomean_of_positive_values_and_guards() {
        assert!((geomean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[2.5]) - 2.5).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        assert_eq!(geomean(&[1.0, 0.0]), 0.0);
        assert_eq!(geomean(&[1.0, f64::NAN]), 0.0);
    }

    #[test]
    fn ratio_with_zero_base_is_zero() {
        assert_eq!(ratio(3.0, 4.0), 0.75);
        assert_eq!(ratio(3.0, 0.0), 0.0);
    }

    #[test]
    fn proc_stat_fields_are_counted_after_the_command_name() {
        // pid (comm with ") spaces") state ppid pgrp session tty tpgid
        // flags minflt cminflt majflt cmajflt utime stime ...
        let stat = "42 (a) b (c) S 1 2 3 4 5 6 7 8 9 10 250 17 0 0";
        assert_eq!(parse_cpu_ticks(stat), Some(267));
        assert_eq!(parse_cpu_ticks("garbage"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kb() {
        let status = "Name:\tx\nVmPeak:\t 9 kB\nVmHWM:\t   2048 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(2048));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }

    #[test]
    fn every_stage_label_maps_to_a_layer_and_unknown_goes_to_other() {
        let known = [
            ("floorplan", "place.floorplan_s"),
            ("place_reused", "place.reused_s"),
            ("global_place", "place.global_s"),
            ("repeaters+cts", "sta.cts_repeaters_s"),
            ("eco+detailed", "place.legalize_s"),
            ("route", "route.stage_s"),
            ("extract", "extract.stage_s"),
            ("sta+sizing", "sta.sizing_s"),
            ("hold+power", "sta.hold_power_s"),
            ("s2d_stage1_route", "route.stage_s"),
            ("s2d_stage1_extract", "extract.stage_s"),
            ("s2d_stage1_sizing", "sta.sizing_s"),
            ("s2d_partition_fix", "core.partition_s"),
            ("c2d_stage1_route", "route.stage_s"),
            ("c2d_stage1_sizing", "sta.sizing_s"),
            ("c2d_partition_fix", "core.partition_s"),
        ];
        for (label, metric) in known {
            assert_eq!(stage_metric(label), metric, "{label}");
            assert!(STAGE_METRICS.contains(&metric));
        }
        assert_eq!(stage_metric("route_v2"), "other.stage_s");
    }

    #[test]
    fn stage_sums_and_families_add_up() {
        let stages: Vec<(String, f64)> = [
            ("floorplan", 1.0),
            ("global_place", 2.0),
            ("route", 4.0),
            ("s2d_stage1_route", 8.0),
            ("sta+sizing", 16.0),
            ("hold+power", 32.0),
            ("renamed", 64.0),
        ]
        .iter()
        .map(|&(l, s)| (l.to_string(), s))
        .collect();
        let mut sums = BTreeMap::new();
        add_stage_times(&stages, &mut sums);
        add_stage_times(&stages[..1], &mut sums);
        assert_eq!(sums["place.floorplan_s"], 2.0);
        assert_eq!(sums["route.stage_s"], 12.0);
        assert_eq!(sums["other.stage_s"], 64.0);

        // halve every stage: placement (4 s), route and STA speed up
        // 2x; extraction never ran, so its ratio has no base
        let halved: BTreeMap<&'static str, f64> =
            sums.iter().map(|(&k, &v)| (k, v / 2.0)).collect();
        let s = speedups(&sums, &halved);
        assert_eq!(
            s.map(|(n, _)| n),
            [
                "par.speedup.place",
                "par.speedup.extract",
                "par.speedup.route",
                "par.speedup.sta"
            ]
        );
        assert_eq!(s.map(|(_, v)| v), [2.0, 0.0, 2.0, 2.0]);
    }

    #[test]
    fn counter_ratios_use_their_bases() {
        let sums = BTreeMap::from([("place.global_s", 2.0)]);
        let counters = BTreeMap::from([
            ("place/nesterov_iters", 400.0),
            ("place/anneal_accepts", 30.0),
            ("place/anneal_proposals", 120.0),
            ("place/hpwl_cache_hits", 9.0),
            ("place/hpwl_cache_inits", 1.0),
            ("route/pattern_clean", 3.0),
            ("route/pattern_dirty", 1.0),
        ]);
        let got = counter_ratios(&sums, |c| counters.get(c).copied().unwrap_or(0.0));
        assert_eq!(
            got,
            [
                ("place.ms_per_nesterov_iter", 5.0),
                ("place.anneal_accept_ratio", 0.25),
                ("place.hpwl_cache_hit_ratio", 0.9),
                ("route.pattern_clean_ratio", 0.75),
            ]
        );
        let none = counter_ratios(&BTreeMap::new(), |_| 0.0);
        assert!(none.iter().all(|&(_, v)| v == 0.0));
    }

    #[test]
    fn dse_job_metrics_split_by_reuse_depth() {
        // two workers for 4 s; 6 job-seconds of work
        let jobs = [(3.0, 0), (1.0, 4), (2.0, 2)];
        assert_eq!(
            dse_job_metrics(&jobs, 2, 4.0),
            [
                ("dse.job_s_cold", 3.0),
                ("dse.job_s_reused", 3.0),
                ("dse.worker_busy_ratio", 0.75),
                ("core.reuse_depth_mean", 2.0),
            ]
        );
        let idle = dse_job_metrics(&[], 2, 0.0);
        assert!(idle.iter().all(|&(_, v)| v == 0.0));
    }

    #[test]
    fn tracer_records_parents_only_when_enabled() {
        let mut t = Tracer::new(true);
        let root = t.open("root", None, None);
        let ((), child_s) = t.time("child", root.id(), Some(7), || {});
        let root_s = t.close(root);
        assert!(root_s >= child_s);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].op, Some(7));
        assert!(t.spans()[0].end_us >= t.spans()[1].end_us);

        let mut off = Tracer::new(false);
        let ((), secs) = off.time("x", None, None, || {});
        assert!(secs >= 0.0);
        assert!(off.spans().is_empty());
    }
}

//! One-shot design-space sweep CLI.
//!
//! Expands a knob grid over a base spec, runs every point through the
//! DSE service, and prints a results table with the Pareto front
//! marked. Per point the table lists the PPA, whether the result came
//! from the cache (`hit`), how many leading stages the worker restored
//! (`reuse`), the PPA fingerprint and whether the run degraded (a
//! budget stop, an injected fault or residual routing overflow).
//!
//! ```text
//! dse_sweep --flow Macro-3D --tile mini --set sizing_rounds=1 \
//!           --axis l2_kb=8,16 --axis macro_metals=4,6 \
//!           --workers 4 --cache-dir .dse-cache
//! ```

use macro3d::jsonio;
use macro3d_dse::sweep::{run_sweep, SweepAxis, SweepSpec};
use macro3d_dse::{tile_preset, DseConfig, DseService, JobSpec, SweepOutcome};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: dse_sweep [options]
  --flow NAME       flow to run (default Macro-3D)
  --tile PRESET     mini | small_cache | large_cache (default mini)
  --set K=V         set one base knob (repeatable)
  --axis K=V1,V2..  sweep one knob over values (repeatable)
  --workers N       worker threads (default 0 = one per hardware thread)
  --cache-dir P     persist results under P
  --no-stage-reuse  disable the workers' stage caches (every point cold)
  --out FILE        write the table to FILE instead of stdout";

struct Args {
    sweep: SweepSpec,
    service: DseConfig,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut flow = "Macro-3D".to_string();
    let mut tile = "mini".to_string();
    let mut sets: Vec<(String, String)> = Vec::new();
    let mut axes: Vec<SweepAxis> = Vec::new();
    let mut service = DseConfig {
        workers: 0,
        ..DseConfig::default()
    };
    let mut out = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} needs a value\n{USAGE}"))
        };
        match arg.as_str() {
            "--flow" => flow = value("--flow")?,
            "--tile" => tile = value("--tile")?,
            "--set" => {
                let kv = value("--set")?;
                let (k, v) = kv
                    .split_once('=')
                    .ok_or_else(|| format!("--set wants K=V, got '{kv}'"))?;
                sets.push((k.to_string(), v.to_string()));
            }
            "--axis" => {
                let kv = value("--axis")?;
                let (k, vs) = kv
                    .split_once('=')
                    .ok_or_else(|| format!("--axis wants K=V1,V2,…, got '{kv}'"))?;
                axes.push(SweepAxis {
                    knob: k.to_string(),
                    values: vs.split(',').map(str::to_string).collect(),
                });
            }
            "--workers" => {
                service.workers = value("--workers")?
                    .parse()
                    .map_err(|_| "--workers: not a number".to_string())?;
            }
            "--cache-dir" => service.cache_dir = Some(PathBuf::from(value("--cache-dir")?)),
            "--no-stage-reuse" => service.stage_reuse = false,
            "--out" => out = Some(PathBuf::from(value("--out")?)),
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }

    let tile =
        tile_preset(&tile).ok_or_else(|| format!("unknown tile preset '{tile}'\n{USAGE}"))?;
    let mut base = JobSpec::new(flow, tile);
    for (knob, value) in &sets {
        macro3d_dse::sweep::apply_knob(&mut base, knob, value).map_err(|e| e.to_string())?;
    }
    Ok(Args {
        sweep: SweepSpec { base, axes },
        service,
        out,
    })
}

/// Writes the results table and flushes `sink`, so a buffered
/// writer's failure surfaces here instead of being lost in its drop.
fn write_table(outcome: &SweepOutcome, mut sink: impl Write) -> std::io::Result<()> {
    writeln!(
        sink,
        "{:<40} {:>10} {:>12} {:>10} {:>8} {:>6} {:>5} {:>16} {:>8}  pareto",
        "point",
        "fclk_mhz",
        "emean_fj",
        "fp_mm2",
        "wl_m",
        "hit",
        "reuse",
        "fingerprint",
        "degraded"
    )?;
    for (i, point) in outcome.points.iter().enumerate() {
        match &point.result {
            Ok(r) => writeln!(
                sink,
                "{:<40} {:>10.1} {:>12.1} {:>10.4} {:>8.4} {:>6} {:>5} {:>16} {:>8}  {}",
                point.label,
                r.ppa.fclk_mhz,
                r.ppa.emean_fj,
                r.ppa.footprint_mm2,
                r.ppa.total_wirelength_m,
                if r.cache_hit { "yes" } else { "no" },
                r.reuse_depth,
                format!("{:016x}", jsonio::ppa_fingerprint(&r.ppa)),
                if r.degradation.is_degraded() {
                    "yes"
                } else {
                    "no"
                },
                if outcome.pareto.contains(&i) { "*" } else { "" }
            )?,
            Err(e) => writeln!(sink, "{:<40} FAILED: {e}", point.label)?,
        }
    }
    writeln!(
        sink,
        "\n{} points, {} on the Pareto front, {:.2}s wall",
        outcome.points.len(),
        outcome.pareto.len(),
        outcome.wall_s
    )?;
    sink.flush()
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let service = DseService::start(args.service).map_err(|e| format!("service start: {e}"))?;
    let outcome = run_sweep(&service.client(), &args.sweep, |point| {
        match &point.result {
            Ok(r) => eprintln!(
                "{}: fclk {:.1} MHz, {} ({:.2}s)",
                point.label,
                r.ppa.fclk_mhz,
                if r.cache_hit { "cache hit" } else { "cold run" },
                r.wall_s
            ),
            Err(e) => eprintln!("{}: FAILED: {e}", point.label),
        }
    })
    .map_err(|e| e.to_string())?;
    service.shutdown();

    match &args.out {
        Some(path) => {
            let file = std::fs::File::create(path).map_err(|e| format!("create {path:?}: {e}"))?;
            write_table(&outcome, std::io::BufWriter::new(file))
                .map_err(|e| format!("write table: {e}"))?;
        }
        None => {
            let stdout = std::io::stdout();
            write_table(&outcome, stdout.lock()).map_err(|e| format!("write table: {e}"))?;
        }
    }

    let failed = outcome.points.iter().filter(|p| p.ok().is_none()).count();
    if failed > 0 {
        return Err(format!("{failed} sweep point(s) failed"));
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sink whose every write fails, like a full disk.
    struct Full;

    impl Write for Full {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::other("no space left on device"))
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_failed_buffered_write_is_an_error() {
        let outcome = SweepOutcome {
            points: Vec::new(),
            pareto: Vec::new(),
            wall_s: 0.0,
        };
        // the table fits in the buffer: only the flush reaches `Full`
        let err = write_table(&outcome, std::io::BufWriter::new(Full)).unwrap_err();
        assert_eq!(err.to_string(), "no space left on device");
        assert!(write_table(&outcome, Vec::new()).is_ok());
    }
}

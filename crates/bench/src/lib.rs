//! Benchmark and experiment harness for the Macro-3D reproduction.
//!
//! Binaries (each regenerates one piece of the paper's evaluation):
//!
//! * `repro_table1` — Table I: max-performance PPA and cost for 2D,
//!   MoL S2D, BF S2D and Macro-3D on the small-cache tile.
//! * `repro_table2` — Table II: in-depth 2D vs Macro-3D for both
//!   cache configurations, plus the iso-performance power comparison.
//! * `repro_table3` — Table III: the heterogeneous-BEOL (M6–M6 vs
//!   M6–M4) experiment.
//! * `repro_figs` — Figures 4–6 as SVG files.
//! * `ablations` — extensions beyond the paper: F2F pitch sweep,
//!   partial-blockage resolution sweep, C2D comparison, scale sweep.
//! * `obs_smoke` — runs the Macro-3D flow on a miniature tile under
//!   full tracing and checks the emitted trace/metrics (the CI gate
//!   for the observability subsystem).
//!
//! The Criterion bench `tables` (`cargo bench`) times the table
//! experiments; the binaries print the paper-style rows.
//!
//! All experiments accept `--scale <n>` (default 8): the
//! instance-count compression documented in `DESIGN.md` §5. Lower
//! scale = more instances = slower and closer to the paper's design
//! size. They also accept `--obs off|summary|full` (default off):
//! anything above `off` makes the experiment drop one Chrome trace
//! and one metrics JSON per flow under `./traces/`.

use macro3d::experiments::ExperimentConfig;
use macro3d::{FlowTrace, ObsConfig};

/// The experiment binaries' command line.
const USAGE: &str = "usage: <experiment> [--scale N] [--obs off|summary|full]
  --scale N   instance-count compression, a finite number >= 1 (default 8)
  --obs L     off | summary | full (default off); above off, traces go to ./traces/";

/// Parses `--scale <n>` and `--obs off|summary|full` from `args`, the
/// arguments after the program name. A repeated flag takes its last
/// value.
///
/// # Errors
///
/// Returns a message naming the first bad argument: an unknown one, a
/// flag without a value, a scale that is not a finite number >= 1, or
/// an unknown obs level.
pub fn experiment_config_from_args(args: &[String]) -> Result<ExperimentConfig, String> {
    let mut cfg = ExperimentConfig::default();
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--scale" => {
                let v = value()?;
                cfg.scale = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 1.0)
                    .ok_or_else(|| format!("--scale wants a finite number >= 1, got '{v}'"))?;
            }
            "--obs" => {
                cfg.flow.obs = match value()?.as_str() {
                    "off" => ObsConfig::off(),
                    "summary" => ObsConfig::summary(),
                    "full" => ObsConfig::full(),
                    other => {
                        return Err(format!("--obs wants off, summary or full, got '{other}'"))
                    }
                };
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(cfg)
}

/// The experiment config from this process's arguments. On a bad
/// argument it prints the error and the usage and exits with status 2.
pub fn experiment_config_or_exit() -> ExperimentConfig {
    let args: Vec<String> = std::env::args().skip(1).collect();
    experiment_config_from_args(&args).unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2)
    })
}

/// Writes each trace's Chrome-trace and metrics JSON into `out_dir`
/// (created if needed), labelled by a filename-safe form of the flow
/// name. Returns every path written.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_traces(
    out_dir: &std::path::Path,
    traces: &[FlowTrace],
) -> std::io::Result<Vec<std::path::PathBuf>> {
    std::fs::create_dir_all(out_dir)?;
    let mut written = Vec::new();
    for trace in traces {
        let label: String = trace
            .flow
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        let (t, m) = trace.write_files(out_dir, &label)?;
        written.push(t);
        written.push(m);
    }
    Ok(written)
}

/// Writes figure SVGs into `out_dir`, creating it if needed.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_figures(
    out_dir: &std::path::Path,
    figs: &macro3d::experiments::Figures,
) -> std::io::Result<Vec<std::path::PathBuf>> {
    std::fs::create_dir_all(out_dir)?;
    let mut written = Vec::new();
    for (name, svg) in figs
        .fig4
        .iter()
        .chain(figs.fig5.iter())
        .chain(figs.fig6.iter())
    {
        let path = out_dir.join(name);
        std::fs::write(&path, svg)?;
        written.push(path);
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<ExperimentConfig, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        experiment_config_from_args(&args)
    }

    #[test]
    fn default_config() {
        let cfg = experiment_config_from_args(&[]).expect("no arguments is valid");
        assert!(cfg.scale >= 1.0);
    }

    #[test]
    fn valid_forms_parse() {
        assert_eq!(parse(&["--scale", "4"]).unwrap().scale, 4.0);
        assert_eq!(parse(&["--scale", "1"]).unwrap().scale, 1.0);
        assert_eq!(parse(&["--scale", "12.5"]).unwrap().scale, 12.5);
        assert_eq!(
            parse(&["--scale", "4", "--scale", "16"]).unwrap().scale,
            16.0
        );
        for (level, want) in [
            ("off", ObsConfig::off()),
            ("summary", ObsConfig::summary()),
            ("full", ObsConfig::full()),
        ] {
            let cfg = parse(&["--obs", level, "--scale", "32"]).unwrap();
            assert_eq!(cfg.flow.obs, want, "{level}");
            assert_eq!(cfg.scale, 32.0);
        }
    }

    #[test]
    fn bad_forms_are_rejected() {
        for (args, fragment) in [
            (&["--scale", "4x"][..], "'4x'"),
            (&["--scale", "0.5"], "'0.5'"),
            (&["--scale", "0"], "'0'"),
            (&["--scale", "-8"], "'-8'"),
            (&["--scale", "nan"], "'nan'"),
            (&["--scale", "inf"], "'inf'"),
            (&["--scale"], "--scale needs a value"),
            (&["--obs"], "--obs needs a value"),
            (&["--obs", "fulll"], "'fulll'"),
            (&["--sacle", "4"], "unknown argument '--sacle'"),
            (&["4"], "unknown argument '4'"),
            (
                &["--scale", "4", "--verbose"],
                "unknown argument '--verbose'",
            ),
        ] {
            let err = parse(args).expect_err(&format!("{args:?} must be rejected"));
            assert!(err.contains(fragment), "{args:?}: {err}");
        }
    }
}

//! Regenerates Figures 4-6 as SVG files under ./figures/.
use macro3d_soc::TileConfig;

fn main() {
    let cfg = macro3d_bench::experiment_config_or_exit();
    let out = std::path::Path::new("figures");
    for tc in [TileConfig::small_cache(), TileConfig::large_cache()] {
        let name = tc.name.clone();
        eprintln!("rendering figures for {name} at scale {} ...", cfg.scale);
        let figs = macro3d::experiments::figures(&cfg, tc);
        match macro3d_bench::write_figures(out, &figs) {
            Ok(paths) => {
                for p in paths {
                    println!("wrote {}", p.display());
                }
            }
            Err(e) => {
                eprintln!("failed to write figures: {e}");
                std::process::exit(1);
            }
        }
    }
}

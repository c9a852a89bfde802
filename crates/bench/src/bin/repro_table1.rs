//! Regenerates Table I: max-performance PPA and cost comparison of
//! the 2D, MoL S2D, BF S2D and Macro-3D flows (small-cache system).
fn main() {
    let cfg = macro3d_bench::experiment_config_or_exit();
    eprintln!("running Table I at scale {} ...", cfg.scale);
    let t = std::time::Instant::now();
    let table = macro3d::experiments::table1(&cfg);
    println!("{}", table.render());
    if !table.traces.is_empty() {
        match macro3d_bench::write_traces(std::path::Path::new("traces"), &table.traces) {
            Ok(paths) => {
                for p in paths {
                    println!("wrote {}", p.display());
                }
            }
            Err(e) => {
                eprintln!("failed to write traces: {e}");
                std::process::exit(1);
            }
        }
    }
    eprintln!("elapsed: {:?}", t.elapsed());
}

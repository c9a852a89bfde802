//! Regenerates Table II: in-depth 2D vs Macro-3D comparison for both
//! cache configurations, including iso-performance power.
fn main() {
    let cfg = macro3d_bench::experiment_config_or_exit();
    eprintln!("running Table II at scale {} ...", cfg.scale);
    let t = std::time::Instant::now();
    let table = macro3d::experiments::table2(&cfg);
    println!("{}", table.render());
    eprintln!("elapsed: {:?}", t.elapsed());
}

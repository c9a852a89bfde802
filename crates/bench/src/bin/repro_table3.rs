//! Regenerates Table III: the heterogeneous-BEOL experiment (macro
//! die trimmed from six to four metal layers).
fn main() {
    let cfg = macro3d_bench::experiment_config_or_exit();
    eprintln!("running Table III at scale {} ...", cfg.scale);
    let t = std::time::Instant::now();
    let table = macro3d::experiments::table3(&cfg);
    println!("{}", table.render());
    eprintln!("elapsed: {:?}", t.elapsed());
}

//! Extensions beyond the paper: C2D comparison, partial-blockage
//! resolution sweep (the S2D failure knob), and F2F pitch sweep.
use macro3d::flows::{Flow, Flow2d, Macro3d, S2d};
use macro3d::s2d::S2dStyle;
use macro3d_soc::{generate_tile, TileConfig};

fn main() {
    let cfg = macro3d_bench::experiment_config_or_exit();
    let tile = generate_tile(&TileConfig::small_cache().with_scale(cfg.scale));

    println!("=== C2D comparison (paper drops its numbers as worse than S2D) ===");
    let r = macro3d::experiments::c2d_comparison(&cfg);
    println!("{r}");

    println!("\n=== partial-blockage quantization sweep (S2D failure knob) ===");
    for period in [2.0, 8.0, 24.0] {
        let mut f = cfg.flow.clone();
        f.partial_blockage_period_um = period;
        let out = S2d {
            style: S2dStyle::MemoryOnLogic,
        }
        .run(&tile, &f);
        let diag = out.diagnostics.expect("S2D reports diagnostics");
        println!(
            "period {:>5.1} um: fclk {:>6.1} MHz, overlap-fix displacement {:>7.1} um",
            period, out.implemented.timing.fclk_mhz, diag.overlap_fix_mean_disp_um
        );
    }

    println!("\n=== repeater threshold sweep (2D vs Macro-3D sensitivity) ===");
    for thr in [100.0, 150.0, 250.0] {
        let mut f = cfg.flow.clone();
        f.repeater_max_len_um = thr;
        let r2 = Flow2d.run(&tile, &f).ppa;
        let r3 = Macro3d.run(&tile, &f).ppa;
        println!(
            "threshold {:>5.0} um: 2D {:>6.1} MHz vs Macro-3D {:>6.1} MHz ({:+.1}%)",
            thr,
            r2.fclk_mhz,
            r3.fclk_mhz,
            100.0 * (r3.fclk_mhz - r2.fclk_mhz) / r2.fclk_mhz
        );
    }

    println!("\n=== F2F bond pitch sweep (bump density feasibility) ===");
    for pitch in [1.0, 2.0, 5.0, 10.0] {
        let mut f = cfg.flow.clone();
        f.route.f2f_pitch_um = Some(pitch);
        let imp = Macro3d.run(&tile, &f).implemented;
        println!(
            "pitch {:>5.1} um: {:>6} bumps, {:>4} overcrowded GCells, fclk {:>6.1} MHz",
            pitch, imp.routed.f2f_bumps, imp.f2f_overcrowded_gcells, imp.timing.fclk_mhz
        );
    }

    println!("\n=== scale sweep (netlist size sensitivity of the 3D gain) ===");
    for sc in [32.0, 16.0, cfg.scale] {
        let t = generate_tile(&TileConfig::small_cache().with_scale(sc));
        let r2 = Flow2d.run(&t, &cfg.flow).ppa;
        let r3 = Macro3d.run(&t, &cfg.flow).ppa;
        println!(
            "scale {:>5.0}: 2D {:>6.1} MHz vs Macro-3D {:>6.1} MHz ({:+.1}%)",
            sc,
            r2.fclk_mhz,
            r3.fclk_mhz,
            100.0 * (r3.fclk_mhz - r2.fclk_mhz) / r2.fclk_mhz
        );
    }

    println!("\n=== heterogeneous memory node (paper future work) ===");
    let tile40 = generate_tile(
        &TileConfig::small_cache()
            .with_scale(cfg.scale)
            .with_n40_memory(),
    );
    let r28 = Macro3d.run(&tile, &cfg.flow).ppa;
    let r40 = Macro3d.run(&tile40, &cfg.flow).ppa;
    println!(
        "N28 memory die: fclk {:>6.1} MHz, footprint {:.2} mm2",
        r28.fclk_mhz, r28.footprint_mm2
    );
    println!(
        "N40 memory die: fclk {:>6.1} MHz, footprint {:.2} mm2 (bigger but ~45% cheaper silicon, lower leakage)",
        r40.fclk_mhz, r40.footprint_mm2
    );
}

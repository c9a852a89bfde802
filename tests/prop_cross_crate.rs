//! Cross-crate property tests: invariants that span multiple
//! subsystems.

use macro3d_geom::{Dbu, Point, Rect};
use macro3d_netlist::{Design, InstId, NetId, PinRef};
use macro3d_place::density::count_overlaps;
use macro3d_place::{legalize, Floorplan, Placement};
use macro3d_route::{route_design, RouteConfig, RouteRequest};
use macro3d_sram::MemoryCompiler;
use macro3d_tech::libgen::n28_library;
use macro3d_tech::stack::{n28_stack, DieRole};
use macro3d_tech::{CellClass, CombinedBeol, Corner, F2fSpec};
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Legalization produces overlap-free, in-bounds placements for
    /// any random cell soup.
    #[test]
    fn legalize_is_always_legal(
        n in 10usize..300,
        seed in 0u64..1_000,
        w in 30.0f64..120.0,
    ) {
        let lib = Arc::new(n28_library(1.0));
        let inv = lib.smallest(CellClass::Inv).expect("inv");
        let nand = lib.smallest(CellClass::Nand2).expect("nand");
        let mut d = Design::new("t", lib);
        let insts: Vec<InstId> = (0..n)
            .map(|i| d.add_cell(format!("c{i}"), if i % 2 == 0 { inv } else { nand }))
            .collect();
        let fp = Floorplan::new(
            Rect::from_um(0.0, 0.0, w, 120.0),
            Dbu::from_um(1.2),
            Dbu::from_um(0.2),
        );
        let mut p = Placement::new(&d);
        let mut rng_state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        let mut next = || {
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (rng_state >> 33) as f64 / (1u64 << 31) as f64
        };
        for &i in &insts {
            p.pos[i.index()] = Point::from_um(next() * w, next() * 120.0);
        }
        let rep = legalize(&d, &fp, &mut p, &insts);
        prop_assert_eq!(rep.failed, 0);
        prop_assert_eq!(count_overlaps(&d, &p, &insts), 0);
        for &i in &insts {
            prop_assert!(fp.die().contains_rect(p.rect(&d, i)));
        }
    }

    /// Any two-pin net routed in a combined stack between the two
    /// dies crosses the F2F cut an odd number of times; same-die
    /// connections cross an even number of times.
    #[test]
    fn f2f_crossing_parity(
        x0 in 5.0f64..195.0,
        y0 in 5.0f64..195.0,
        x1 in 5.0f64..195.0,
        y1 in 5.0f64..195.0,
        to_macro_die in proptest::bool::ANY,
    ) {
        let combined = CombinedBeol::build(
            &n28_stack(6, DieRole::Logic),
            &n28_stack(4, DieRole::Macro),
            &F2fSpec::hybrid_bond_n28(),
        );
        let dst_layer: u16 = if to_macro_die { 8 } else { 2 };
        let nets = vec![(
            NetId(0),
            vec![
                (Point::from_um(x0, y0), 0u16),
                (Point::from_um(x1, y1), dst_layer),
            ],
        )];
        let r = route_design(
            &RouteRequest {
                die: Rect::from_um(0.0, 0.0, 200.0, 200.0),
                stack: combined.stack(),
                obstacles: &[],
                nets: &nets,
                num_nets: 1,
            },
            &RouteConfig::default(),
        );
        let net = r.net(NetId(0)).expect("routed");
        if to_macro_die {
            prop_assert_eq!(net.f2f_crossings % 2, 1, "inter-die nets cross oddly");
        } else {
            prop_assert_eq!(net.f2f_crossings % 2, 0, "same-die nets cross evenly");
        }
    }

    /// Extraction is monotone: longer routes never have less wire
    /// capacitance or faster Elmore delay.
    #[test]
    fn extraction_monotone_in_length(len1 in 10.0f64..200.0, extra in 10.0f64..300.0) {
        use macro3d_route::{RouteSeg, RoutedNet};
        let stack = n28_stack(6, DieRole::Logic);
        let mk = |len: f64| RoutedNet {
            segments: vec![RouteSeg {
                layer: 2,
                from: Point::from_um(0.0, 0.0),
                to: Point::from_um(len, 0.0),
            }],
            vias: vec![],
            f2f_crossings: 0,
        };
        let sink = |len: f64| [(Point::from_um(len, 0.0), 1.0)];
        let short = macro3d_extract::extract_net(
            &stack, &mk(len1), Point::ORIGIN, &sink(len1), Corner::Tt,
        );
        let long = macro3d_extract::extract_net(
            &stack, &mk(len1 + extra), Point::ORIGIN, &sink(len1 + extra), Corner::Tt,
        );
        prop_assert!(long.wire_cap_ff > short.wire_cap_ff);
        prop_assert!(long.elmore_ps[0] > short.elmore_ps[0]);
    }

    /// The SRAM compiler always produces valid macros whose area
    /// follows capacity.
    #[test]
    fn sram_compiler_valid_and_monotone(
        words_exp in 6u32..14,
        bits in proptest::sample::select(vec![16u32, 32, 64, 128]),
    ) {
        let words = 1u32 << words_exp;
        let c = MemoryCompiler::n28();
        let small = c.sram("a", words, bits);
        let big = c.sram("b", words * 2, bits);
        prop_assert!(small.validate().is_ok());
        prop_assert!(big.validate().is_ok());
        prop_assert!(big.area_um2() > small.area_um2());
        prop_assert!(big.access_ps >= small.access_ps);
    }
}

/// A deterministic end-to-end mini check usable under proptest's
/// budget: netlist validity is preserved by the whole flow pipeline.
#[test]
fn flow_preserves_netlist_validity() {
    let mut cfg = macro3d_soc::TileConfig::small_cache().with_scale(64.0);
    cfg.l3_kb = 32;
    cfg.core_kgates = 20.0;
    cfg.l3_ctrl_kgates = 4.0;
    cfg.l2_ctrl_kgates = 3.0;
    cfg.l1i_ctrl_kgates = 2.0;
    cfg.l1d_ctrl_kgates = 2.0;
    cfg.noc_kgates = 2.0;
    cfg.noc_width = 4;
    let tile = macro3d_soc::generate_tile(&cfg);
    assert!(tile.design.validate().is_ok());
    use macro3d::flows::Flow as _;
    let imp = macro3d::flows::Macro3d
        .run(&tile, &macro3d::FlowConfig::default())
        .implemented;
    assert!(imp.design.validate().is_ok());
    // pin refs in nets stay within bounds after CTS/repeaters/sizing
    for n in imp.design.net_ids() {
        for &p in &imp.design.net(n).pins {
            if let PinRef::Inst { inst, pin } = p {
                let count = imp.design.inst(inst).conns.len();
                assert!((pin as usize) < count);
            }
        }
    }
}

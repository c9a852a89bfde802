//! Parametric ↔ probe equivalence properties.
//!
//! The parametric engine (one affine propagation + confirmation) must
//! reproduce the legacy 32-probe binary search: same minimum period
//! to within the probe grid resolution, same critical path. The
//! incremental `StaSession` must match a cold analysis after sizing
//! edits. Designs are randomized reg2reg / half-cycle-port DAGs —
//! half-cycle input ports feeding merge gates exercise the mixed
//! period-coefficient case where the confirmation pass has to iterate.

use macro3d_extract::NetParasitics;
use macro3d_netlist::{Design, NetId, PinRef};
use macro3d_par::Parallelism;
use macro3d_sta::{
    analyze_par, analyze_probe, apply_sizing_to_parasitics, upsize_critical_path, ClockArrivals,
    StaConstraints, StaInput, StaSession, PROBE_RESOLUTION_PS,
};
use macro3d_tech::{libgen::n28_library, CellClass, Corner, PinDir};
use proptest::prelude::*;
use std::sync::Arc;

/// Tiny deterministic generator for connectivity choices, seeded per
/// proptest case (keeps the design a DAG: gates only read nets that
/// already exist).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    fn pick(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (self.next() as f64 / (u64::MAX >> 11) as f64) * (hi - lo)
    }
}

/// Builds a randomized reg2reg + port design: `n_ffs` flops, `n_gates`
/// two-input/one-input gates wired to already-created signal nets,
/// every flop D and a couple of output ports as endpoints. With
/// `half_cycle` the first input and output port get half-cycle
/// budgets, so gates merging that port's cone with a flop cone see
/// arrivals with different period coefficients.
fn rand_design(
    n_ffs: usize,
    n_gates: usize,
    half_cycle: bool,
    seed: u64,
) -> (Design, Vec<NetParasitics>, StaConstraints) {
    let lib = Arc::new(n28_library(1.0));
    let inv = lib.smallest(CellClass::Inv).expect("inv");
    let nand = lib.smallest(CellClass::Nand2).expect("nand2");
    let dff = lib.smallest(CellClass::Dff).expect("dff");
    let mut d = Design::new("rand", lib);
    let mut rng = Lcg(seed.wrapping_mul(2654435761).wrapping_add(1));

    let clk_p = d.add_port("clk", PinDir::Input, None);
    let clk = d.add_net("clk");
    d.connect(clk, PinRef::Port(clk_p));

    let mut c = StaConstraints::new(clk);

    // signal sources: input ports (one optionally half-cycle) + FF Qs
    let mut pool: Vec<NetId> = Vec::new();
    for i in 0..2 {
        let p = d.add_port(format!("in{i}"), PinDir::Input, None);
        let n = d.add_net(format!("inn{i}"));
        d.connect(n, PinRef::Port(p));
        if half_cycle && i == 0 {
            c.half_cycle_ports.insert(p);
        }
        pool.push(n);
    }
    let mut ffs = Vec::new();
    for i in 0..n_ffs {
        let f = d.add_cell(format!("f{i}"), dff);
        d.connect(clk, PinRef::inst(f, 1));
        let q = d.add_net(format!("q{i}"));
        d.connect(q, PinRef::inst(f, 2));
        pool.push(q);
        ffs.push(f);
    }

    // gate DAG over the growing pool
    for i in 0..n_gates {
        let two_input = rng.pick(2) == 0;
        let out = d.add_net(format!("g{i}"));
        if two_input {
            let g = d.add_cell(format!("n{i}"), nand);
            d.connect(pool[rng.pick(pool.len())], PinRef::inst(g, 0));
            d.connect(pool[rng.pick(pool.len())], PinRef::inst(g, 1));
            d.connect(out, PinRef::inst(g, 2));
        } else {
            let g = d.add_cell(format!("i{i}"), inv);
            d.connect(pool[rng.pick(pool.len())], PinRef::inst(g, 0));
            d.connect(out, PinRef::inst(g, 1));
        }
        pool.push(out);
    }

    // endpoints: every flop D, plus two output ports (one optionally
    // half-cycle) on late nets
    for &f in &ffs {
        d.connect(pool[rng.pick(pool.len())], PinRef::inst(f, 0));
    }
    for i in 0..2 {
        let p = d.add_port(format!("out{i}"), PinDir::Output, None);
        d.connect(
            pool[pool.len() - 1 - rng.pick(pool.len().min(3))],
            PinRef::Port(p),
        );
        if half_cycle && i == 0 {
            c.half_cycle_ports.insert(p);
        }
    }

    let mut parasitics = vec![NetParasitics::default(); d.num_nets()];
    for n in d.net_ids() {
        let sinks = d.sinks(n).count();
        let base = rng.f64_in(0.0, 60.0);
        parasitics[n.index()] = NetParasitics {
            wire_cap_ff: rng.f64_in(1.0, 4.0),
            total_res_ohm: rng.f64_in(20.0, 120.0),
            elmore_ps: (0..sinks)
                .map(|s| base + s as f64 * rng.f64_in(0.0, 8.0))
                .collect(),
            driver_load_ff: rng.f64_in(2.0, 6.0),
        };
    }
    (d, parasitics, c)
}

fn input<'a>(
    d: &'a Design,
    p: &'a [NetParasitics],
    c: &'a StaConstraints,
    clock: &'a ClockArrivals,
) -> StaInput<'a> {
    StaInput {
        design: d,
        parasitics: p,
        routed: None,
        constraints: c,
        clock,
        corner: Corner::Ss,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// One parametric pass (+ confirmation) lands on the same grid
    /// point and critical path as 32 binary-search probes.
    #[test]
    fn parametric_matches_probe(
        n_ffs in 2usize..6,
        n_gates in 1usize..24,
        half_cycle in proptest::bool::ANY,
        seed in 0u64..1_000_000,
    ) {
        let (d, p, c) = rand_design(n_ffs, n_gates, half_cycle, seed);
        let clock = ClockArrivals::ideal(&d);
        let par = Parallelism::serial();
        let probe = analyze_probe(&input(&d, &p, &c, &clock), &par);
        let param = analyze_par(&input(&d, &p, &c, &clock), &par);
        prop_assert!(
            (probe.min_period_ps - param.min_period_ps).abs() <= 2.0 * PROBE_RESOLUTION_PS,
            "probe {} vs parametric {} (diff {})",
            probe.min_period_ps,
            param.min_period_ps,
            (probe.min_period_ps - param.min_period_ps).abs()
        );
        prop_assert_eq!(&probe.crit_path_nets, &param.crit_path_nets);
        prop_assert_eq!(probe.crit_path_stages, param.crit_path_stages);
    }

    /// Re-timing only the touched cones after a sizing edit matches a
    /// cold parametric analysis of the edited design.
    #[test]
    fn incremental_update_matches_cold_analysis(
        n_ffs in 2usize..5,
        n_gates in 4usize..20,
        half_cycle in proptest::bool::ANY,
        seed in 0u64..1_000_000,
        rounds in 1usize..4,
    ) {
        let (mut d, mut p, c) = rand_design(n_ffs, n_gates, half_cycle, seed);
        let clock = ClockArrivals::ideal(&d);
        let par = Parallelism::serial();
        let mut session = StaSession::new(&input(&d, &p, &c, &clock));
        let mut timing = session.analyze(&input(&d, &p, &c, &clock), &par);
        for _ in 0..rounds {
            let changes = upsize_critical_path(&mut d, &timing);
            if changes.is_empty() {
                break;
            }
            let touched = apply_sizing_to_parasitics(&d, &changes, &mut p);
            prop_assert!(!touched.is_empty());
            timing = session.update(&input(&d, &p, &c, &clock), &touched, &par);
            let cold = analyze_par(&input(&d, &p, &c, &clock), &par);
            prop_assert!(
                (timing.min_period_ps - cold.min_period_ps).abs() <= 1e-6,
                "incremental {} vs cold {}",
                timing.min_period_ps,
                cold.min_period_ps
            );
            prop_assert_eq!(&timing.crit_path_nets, &cold.crit_path_nets);
        }
    }

    /// Thread count never changes the parametric answer.
    #[test]
    fn parametric_thread_count_invariant(
        n_ffs in 2usize..5,
        n_gates in 1usize..16,
        half_cycle in proptest::bool::ANY,
        seed in 0u64..1_000_000,
    ) {
        let (d, p, c) = rand_design(n_ffs, n_gates, half_cycle, seed);
        let clock = ClockArrivals::ideal(&d);
        let serial = analyze_par(&input(&d, &p, &c, &clock), &Parallelism::serial());
        for threads in [2usize, 4] {
            let par = Parallelism::threads(threads).with_chunk_size(1);
            let t = analyze_par(&input(&d, &p, &c, &clock), &par);
            prop_assert_eq!(serial.min_period_ps.to_bits(), t.min_period_ps.to_bits());
            prop_assert_eq!(&serial.crit_path_nets, &t.crit_path_nets);
        }
    }
}

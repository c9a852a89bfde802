//! Power analysis at the TT corner.
//!
//! Reproduces the paper's reporting: toggle ratio 0.2 per cycle for
//! registers and inputs, power at the typical corner, `Emean`
//! (fJ/cycle, "power-per-megahertz") as the energy metric, and the
//! total pin/wire capacitances of Table II.

use macro3d_netlist::{Design, Master, NetId};
use macro3d_tech::Corner;
use std::collections::HashSet;

/// Inputs for a power run.
pub struct PowerInput<'a> {
    /// The netlist.
    pub design: &'a Design,
    /// Wire capacitance per net, fF, indexed by `NetId` (nets past
    /// the end count 0). Power reads nothing else of the parasitics.
    pub wire_cap_ff: &'a [f64],
    /// Nets belonging to the clock tree (toggle twice per cycle).
    pub clock_nets: &'a HashSet<NetId>,
    /// Operating frequency, MHz.
    pub freq_mhz: f64,
    /// Toggle ratio per cycle for signal nets.
    pub toggle: f64,
    /// Report corner (the paper uses TT).
    pub corner: Corner,
}

/// Power analysis result.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PowerReport {
    /// Total power, mW.
    pub total_mw: f64,
    /// Net-switching power, mW.
    pub switching_mw: f64,
    /// Cell-internal power, mW.
    pub internal_mw: f64,
    /// Leakage power, mW.
    pub leakage_mw: f64,
    /// Macro access + leakage power, mW.
    pub macro_mw: f64,
    /// Mean energy per cycle, fJ (total power / frequency).
    pub emean_fj_per_cycle: f64,
    /// Total connected pin capacitance, nF.
    pub cpin_total_nf: f64,
    /// Total wire capacitance, nF.
    pub cwire_total_nf: f64,
}

/// Runs power analysis.
///
/// Energy accounting per cycle: signal nets toggle `toggle` times
/// (`E = toggle · ½ C V²`), clock nets toggle twice (`E = C V²`),
/// combinational cells spend their internal energy per output toggle,
/// sequential cells add clock-pin activity, macros are charged one
/// access per `toggle`.
pub fn analyze_power(input: &PowerInput<'_>) -> PowerReport {
    let design = input.design;
    let lib = design.library().clone();
    let v = lib.voltage();
    let f_hz = input.freq_mhz * 1e6;
    let alpha = input.toggle;

    let mut cwire_ff = 0.0;
    let mut cpin_ff = 0.0;
    let mut e_switch_fj = 0.0; // per cycle
    for net in design.net_ids() {
        let wire = input.wire_cap_ff.get(net.index()).copied().unwrap_or(0.0);
        let pin_cap: f64 = design
            .net(net)
            .pins
            .iter()
            .map(|&p| design.pin_cap(p))
            .sum();
        cwire_ff += wire;
        cpin_ff += pin_cap;
        let c = wire + pin_cap;
        if input.clock_nets.contains(&net) {
            e_switch_fj += c * v * v; // two transitions per cycle
        } else {
            e_switch_fj += alpha * 0.5 * c * v * v;
        }
    }

    let mut e_internal_fj = 0.0;
    let mut leak_nw = 0.0;
    let mut e_macro_fj = 0.0;
    let mut macro_leak_nw = 0.0;
    for inst in design.inst_ids() {
        match design.inst(inst).master {
            Master::Cell(c) => {
                let cell = lib.cell(c);
                leak_nw += cell.leakage_nw;
                if cell.is_sequential() {
                    // clock pin activity every cycle + data at alpha
                    e_internal_fj += cell.internal_energy_fj * (0.5 + 0.5 * alpha);
                } else if cell.class == macro3d_tech::CellClass::ClkBuf {
                    e_internal_fj += cell.internal_energy_fj * 2.0;
                } else {
                    e_internal_fj += cell.internal_energy_fj * alpha;
                }
            }
            Master::Macro(m) => {
                let def = design.macro_master(m);
                e_macro_fj += alpha * def.access_energy_fj;
                macro_leak_nw += def.leakage_nw;
            }
        }
    }
    leak_nw *= input.corner.leakage_derate();
    macro_leak_nw *= input.corner.leakage_derate();

    let fj_per_cycle_to_mw = f_hz * 1e-15 * 1e3; // fJ/cycle * Hz -> mW
    let switching_mw = e_switch_fj * fj_per_cycle_to_mw;
    let internal_mw = e_internal_fj * fj_per_cycle_to_mw;
    let leakage_mw = leak_nw * 1e-6;
    let macro_mw = e_macro_fj * fj_per_cycle_to_mw + macro_leak_nw * 1e-6;
    let total_mw = switching_mw + internal_mw + leakage_mw + macro_mw;
    PowerReport {
        total_mw,
        switching_mw,
        internal_mw,
        leakage_mw,
        macro_mw,
        emean_fj_per_cycle: total_mw * 1e-3 / f_hz * 1e15,
        cpin_total_nf: cpin_ff * 1e-6,
        cwire_total_nf: cwire_ff * 1e-6,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use macro3d_netlist::PinRef;
    use macro3d_tech::{libgen::n28_library, CellClass, PinDir};
    use std::sync::Arc;

    fn small() -> (Design, Vec<f64>, NetId) {
        let lib = Arc::new(n28_library(1.0));
        let inv = lib.smallest(CellClass::Inv).expect("inv");
        let dff = lib.smallest(CellClass::Dff).expect("dff");
        let mut d = Design::new("t", lib);
        let clk_p = d.add_port("clk", PinDir::Input, None);
        let clk = d.add_net("clk");
        d.connect(clk, PinRef::Port(clk_p));
        let f = d.add_cell("f", dff);
        d.connect(clk, PinRef::inst(f, 1));
        let dp = d.add_port("d", PinDir::Input, None);
        let dn = d.add_net("dn");
        d.connect(dn, PinRef::Port(dp));
        d.connect(dn, PinRef::inst(f, 0));
        let q = d.add_net("q");
        d.connect(q, PinRef::inst(f, 2));
        let g = d.add_cell("g", inv);
        d.connect(q, PinRef::inst(g, 0));
        let o = d.add_net("o");
        d.connect(o, PinRef::inst(g, 1));
        let wire_cap_ff = vec![10.0; d.num_nets()];
        (d, wire_cap_ff, clk)
    }

    #[test]
    fn power_scales_with_frequency() {
        let (d, p, clk) = small();
        let clocks: HashSet<NetId> = [clk].into_iter().collect();
        let run = |f: f64| {
            analyze_power(&PowerInput {
                design: &d,
                wire_cap_ff: &p,
                clock_nets: &clocks,
                freq_mhz: f,
                toggle: 0.2,
                corner: Corner::Tt,
            })
        };
        let p400 = run(400.0);
        let p800 = run(800.0);
        // dynamic doubles, leakage constant
        assert!(p800.switching_mw / p400.switching_mw > 1.99);
        assert!((p800.leakage_mw - p400.leakage_mw).abs() < 1e-12);
        // Emean nearly frequency-independent (dominated by dynamic)
        let rel =
            (p800.emean_fj_per_cycle - p400.emean_fj_per_cycle).abs() / p400.emean_fj_per_cycle;
        assert!(rel < 0.5);
    }

    #[test]
    fn clock_nets_burn_more() {
        let (d, p, clk) = small();
        let with_clk: HashSet<NetId> = [clk].into_iter().collect();
        let without: HashSet<NetId> = HashSet::new();
        let a = analyze_power(&PowerInput {
            design: &d,
            wire_cap_ff: &p,
            clock_nets: &with_clk,
            freq_mhz: 400.0,
            toggle: 0.2,
            corner: Corner::Tt,
        });
        let b = analyze_power(&PowerInput {
            design: &d,
            wire_cap_ff: &p,
            clock_nets: &without,
            freq_mhz: 400.0,
            toggle: 0.2,
            corner: Corner::Tt,
        });
        assert!(a.switching_mw > b.switching_mw);
    }

    #[test]
    fn capacitance_totals_reported() {
        let (d, p, clk) = small();
        let clocks: HashSet<NetId> = [clk].into_iter().collect();
        let r = analyze_power(&PowerInput {
            design: &d,
            wire_cap_ff: &p,
            clock_nets: &clocks,
            freq_mhz: 400.0,
            toggle: 0.2,
            corner: Corner::Tt,
        });
        // 4 nets x 10 fF wire
        assert!((r.cwire_total_nf - 40.0e-6).abs() < 1e-9);
        assert!(r.cpin_total_nf > 0.0);
        assert!(r.total_mw > 0.0);
        assert!(r.emean_fj_per_cycle > 0.0);
    }
}

//! Routing results.

use macro3d_geom::{BinGrid, Dbu, Point, Rect};

/// One routed wire segment on a single layer, between GCell centres.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RouteSeg {
    /// Layer index within the routing stack.
    pub layer: u16,
    /// Segment start.
    pub from: Point,
    /// Segment end.
    pub to: Point,
}

impl RouteSeg {
    /// Manhattan length of the segment, µm.
    pub fn length_um(&self) -> f64 {
        self.from.manhattan(self.to).to_um()
    }
}

/// A via between adjacent layers.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Via {
    /// Lower layer of the cut (`layer` → `layer + 1`).
    pub layer: u16,
    /// Location.
    pub at: Point,
}

/// One routed net.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RoutedNet {
    /// Wire segments.
    pub segments: Vec<RouteSeg>,
    /// Vias (including F2F crossings).
    pub vias: Vec<Via>,
    /// Number of vias crossing the F2F cut (bumps used by this net).
    pub f2f_crossings: u32,
}

impl RoutedNet {
    /// Total wire length, µm.
    pub fn wirelength_um(&self) -> f64 {
        self.segments.iter().map(RouteSeg::length_um).sum()
    }

    /// Wire length per layer, µm (indexed by layer).
    pub fn wirelength_by_layer(&self, layers: usize) -> Vec<f64> {
        let mut out = vec![0.0; layers];
        for s in &self.segments {
            out[s.layer as usize] += s.length_um();
        }
        out
    }
}

/// The routing result for a whole design.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RoutedDesign {
    /// Per-net routes, indexed by `NetId` (None for skipped or
    /// degenerate nets).
    pub nets: Vec<Option<RoutedNet>>,
    /// Total wire length, µm.
    pub total_wirelength_um: f64,
    /// Total F2F bumps used.
    pub f2f_bumps: u64,
    /// Residual overflow after the final iteration.
    pub overflow: f64,
    /// Overflowed edge count after the final iteration.
    pub overflowed_edges: usize,
    /// The nets whose routes still cross an overflowed edge, in
    /// request order (empty when `overflow` is 0).
    pub overflow_nets: Vec<macro3d_netlist::NetId>,
    /// Peak edge utilization.
    pub max_utilization: f64,
}

impl RoutedDesign {
    /// The route of a net, if any.
    pub fn net(&self, id: macro3d_netlist::NetId) -> Option<&RoutedNet> {
        self.nets.get(id.index()).and_then(|n| n.as_ref())
    }

    /// Notes residual overflow as a `route/iterations` degradation
    /// (total overflow, edge count and the first eight offending
    /// nets), so a run that stops with overflowed edges is visibly
    /// degraded. A no-op on a clean route. It reads only the finished
    /// route, so a flow calls it for a fresh and a restored route
    /// alike and both report the same residue.
    pub fn note_residual_overflow(&self) {
        use std::fmt::Write as _;
        if self.overflow <= 0.0 {
            return;
        }
        let mut detail = format!(
            "routing left residual overflow {} on {} edges: nets",
            self.overflow, self.overflowed_edges
        );
        for (k, n) in self.overflow_nets.iter().enumerate() {
            if k == 8 {
                let _ = write!(detail, " … (+{})", self.overflow_nets.len() - 8);
                break;
            }
            let _ = write!(detail, " {}", n.0);
        }
        macro3d_par::note_degradation(
            "route/iterations",
            macro3d_par::StopReason::IterationCap,
            detail,
        );
    }

    /// The bump-density check: counts the GCells whose vias on the
    /// F2F cut `f2f_cut` outnumber the bumps a `f2f_pitch_um` bond
    /// pitch fits in one GCell, `(GCELL_UM / f2f_pitch_um)²` (at
    /// least one). GCells are binned over `die` at
    /// [`crate::GCELL_UM`], the grid the router used. Returns 0 when
    /// the stack has no F2F cut or no pitch is given.
    ///
    /// It reads only the finished routes: the pitch never steers the
    /// router, so a pitch change needs a recount, not a re-route.
    pub fn f2f_overcrowded_gcells(
        &self,
        die: Rect,
        f2f_cut: Option<usize>,
        f2f_pitch_um: Option<f64>,
    ) -> usize {
        let (Some(pitch), Some(cut)) = (f2f_pitch_um, f2f_cut) else {
            return 0;
        };
        let per_gcell = (crate::GCELL_UM / pitch).max(1.0).powi(2) as u32;
        let grid = BinGrid::with_bin_size(die, Dbu::from_um(crate::GCELL_UM));
        let mut counts = vec![0u32; grid.len()];
        for v in self.nets.iter().flatten().flat_map(|r| &r.vias) {
            if v.layer as usize == cut {
                counts[grid.flat(grid.bin_of(v.at))] += 1;
            }
        }
        counts.iter().filter(|&&c| c > per_gcell).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wirelength_sums_segments() {
        let net = RoutedNet {
            segments: vec![
                RouteSeg {
                    layer: 0,
                    from: Point::from_um(0.0, 0.0),
                    to: Point::from_um(10.0, 0.0),
                },
                RouteSeg {
                    layer: 1,
                    from: Point::from_um(10.0, 0.0),
                    to: Point::from_um(10.0, 5.0),
                },
            ],
            vias: vec![Via {
                layer: 0,
                at: Point::from_um(10.0, 0.0),
            }],
            f2f_crossings: 0,
        };
        assert!((net.wirelength_um() - 15.0).abs() < 1e-9);
        let by_layer = net.wirelength_by_layer(3);
        assert_eq!(by_layer, vec![10.0, 5.0, 0.0]);
    }

    #[test]
    fn overcrowded_gcells_count_cut_vias_per_gcell() {
        let via = |layer, x, y| Via {
            layer,
            at: Point::from_um(x, y),
        };
        // GCell (0,0) takes 5 cut vias, (1,0) takes 4, (2,2) takes 1;
        // vias on other cuts never count
        let mut vias = vec![via(3, 15.0, 5.0); 4];
        vias.extend([via(3, 1.0, 1.0); 5]);
        vias.push(via(3, 25.0, 25.0));
        vias.extend([via(2, 25.0, 25.0); 9]);
        let routed = RoutedDesign {
            nets: vec![
                Some(RoutedNet {
                    vias,
                    ..RoutedNet::default()
                }),
                None,
            ],
            ..RoutedDesign::default()
        };
        let die = Rect::from_um(0.0, 0.0, 30.0, 30.0);
        let count = |pitch| routed.f2f_overcrowded_gcells(die, Some(3), pitch);
        // a 5um pitch fits (10/5)^2 = 4 bumps per 10um GCell
        assert_eq!(count(Some(5.0)), 1);
        // a pitch coarser than the GCell still fits one bump
        assert_eq!(count(Some(20.0)), 2);
        assert_eq!(count(Some(1.0)), 0);
        assert_eq!(count(None), 0, "no pitch, no check");
        assert_eq!(routed.f2f_overcrowded_gcells(die, None, Some(5.0)), 0);
    }
}

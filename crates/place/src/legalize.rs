//! Row legalization: Tetris-style first-fit, Abacus cluster collapse
//! and ECO legalization around fixed cells, all over per-row free
//! intervals built in one bucketed pass over the blockages.

use crate::floorplan::{BlockageKind, Floorplan};
use crate::placement::Placement;
use macro3d_geom::{Dbu, Interval, Point, Rect};
use macro3d_netlist::{Design, InstId};

/// Result of a legalization run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LegalizeReport {
    /// Sum of cell displacements.
    pub total_disp: Dbu,
    /// Largest single displacement.
    pub max_disp: Dbu,
    /// Mean displacement, µm.
    pub mean_disp_um: f64,
    /// Cells that could not be placed (die overfull).
    pub failed: usize,
}

/// A row's free space as a sorted list of disjoint intervals.
/// Interval splitting (rather than a monotone fill cursor) keeps
/// placement order-insensitive: a cell landing mid-row leaves both
/// sides usable.
#[derive(Clone, Debug)]
struct RowSpace {
    free: Vec<Interval>,
}

impl RowSpace {
    /// Widest remaining gap.
    fn widest(&self) -> Dbu {
        self.free.iter().map(|iv| iv.len()).max().unwrap_or(Dbu(0))
    }

    /// Best x for a cell of `width` near `target_x` (site-aligned),
    /// with its displacement.
    fn best_fit(&self, target_x: Dbu, width: Dbu, site: Dbu) -> Option<(Dbu, Dbu)> {
        let mut best: Option<(Dbu, Dbu)> = None;
        for iv in &self.free {
            if iv.len() < width {
                continue;
            }
            let lo = iv.lo.ceil_to(site);
            if lo + width > iv.hi {
                continue;
            }
            let hi = (iv.hi - width).floor_to(site).max(lo);
            // lo/hi are site-aligned, so flooring keeps x in [lo, hi]
            let x = target_x.clamp(lo, hi).floor_to(site).clamp(lo, hi);
            let dx = (x - target_x).abs();
            if best.is_none_or(|(_, d)| dx < d) {
                best = Some((x, dx));
            }
        }
        best
    }

    /// Carves `[x, x + width)` out of the free list.
    ///
    /// # Panics
    ///
    /// Panics if the span is not currently free — callers only pass
    /// spans returned by [`Self::nearest_fit`] on this row state.
    #[allow(clippy::expect_used)]
    fn occupy(&mut self, x: Dbu, width: Dbu) {
        let pos = self
            .free
            .iter()
            .position(|iv| x >= iv.lo && x + width <= iv.hi)
            .expect("span is free");
        let iv = self.free[pos];
        let mut repl = Vec::with_capacity(2);
        if x > iv.lo {
            repl.push(Interval::new(iv.lo, x));
        }
        if x + width < iv.hi {
            repl.push(Interval::new(x + width, iv.hi));
        }
        self.free.splice(pos..=pos, repl);
    }
}

/// Legalizes the given movable cells onto the floorplan's rows:
/// no overlaps, on-site x positions, outside full blockages.
///
/// Cells are processed in order of target x (the classic Tetris
/// scheme); each picks the row/segment position minimising
/// displacement. Macros and fixed cells must be reflected in the
/// floorplan's blockages before calling.
///
/// Partial blockages are **ignored** here (real legalizers see only
/// hard geometry) — quantize them into stripes first via
/// [`Floorplan::quantize_partial_blockages`] if they must constrain
/// legal positions.
pub fn legalize(
    design: &Design,
    fp: &Floorplan,
    placement: &mut Placement,
    movable: &[InstId],
) -> LegalizeReport {
    let num_rows = fp.num_rows();
    let site = fp.site_width();
    let mut rows: Vec<RowSpace> = row_segments(fp)
        .into_iter()
        .map(|free| RowSpace { free })
        .collect();
    // widest remaining free span per row: lets the scan skip full rows
    // in O(1), which keeps overfull-die legalization (the S2D overlap
    // fixing) from degenerating
    let mut row_free: Vec<Dbu> = rows.iter().map(|r| r.widest()).collect();

    // Wide cells first (they fragment worst when placed late), then
    // left-to-right within each class.
    let wide = site * 24;
    let mut order: Vec<InstId> = movable.to_vec();
    order.sort_by_key(|i| {
        let w = placement.rect(design, *i).width();
        (
            w <= wide,
            placement.pos[i.index()].x,
            placement.pos[i.index()].y,
        )
    });

    let mut report = LegalizeReport::default();
    let row_h = fp.row_height();
    let die = fp.die();

    for inst in order {
        let target = placement.pos[inst.index()];
        let width = placement.rect(design, inst).width();
        let target_row =
            (((target.y - die.lo.y).0 / row_h.0).max(0) as usize).min(num_rows.saturating_sub(1));

        let mut best: Option<(Dbu, usize, Dbu)> = None; // (cost, row, x)
                                                        // scan rows outward from the target row; stop when row distance
                                                        // alone exceeds the best cost
        for delta in 0..num_rows {
            let candidates = [
                target_row.checked_sub(delta),
                if delta > 0 {
                    Some(target_row + delta)
                } else {
                    None
                },
            ];
            let dy = row_h * delta as i64;
            if let Some((cost, ..)) = best {
                if dy >= cost {
                    break;
                }
            }
            for row in candidates.into_iter().flatten() {
                if row >= num_rows || row_free[row] < width {
                    continue;
                }
                if let Some((x, dx)) = rows[row].best_fit(target.x, width, site) {
                    let cost = dx + dy;
                    if best.is_none_or(|(c, ..)| cost < c) {
                        best = Some((cost, row, x));
                    }
                }
            }
        }

        match best {
            Some((cost, row, x)) => {
                rows[row].occupy(x, width);
                row_free[row] = rows[row].widest();
                let y = die.lo.y + row_h * row as i64;
                placement.pos[inst.index()] = Point::new(x, y);
                placement.orient[inst.index()] = if row % 2 == 0 {
                    macro3d_geom::Orientation::N
                } else {
                    macro3d_geom::Orientation::FS
                };
                report.total_disp += cost;
                report.max_disp = report.max_disp.max(cost);
            }
            None => {
                report.failed += 1;
                // keep the cell inside the die even when no legal slot
                // exists (an overfull die is reported, not hidden)
                let r = placement.rect(design, inst);
                let mut p = placement.pos[inst.index()];
                p.x = p.x.clamp(die.lo.x, die.hi.x - r.width());
                p.y = p.y.clamp(die.lo.y, die.hi.y - r.height());
                placement.pos[inst.index()] = p;
            }
        }
    }
    if !movable.is_empty() {
        report.mean_disp_um = report.total_disp.to_um() / movable.len() as f64;
    }
    report
}

/// One Abacus cluster: a maximal run of abutted cells in a segment.
/// `q/e` is the unconstrained optimal position of the cluster head
/// (each cell pulls with weight `e_i` toward `x*_i − offset_i`).
#[derive(Clone, Debug)]
struct Cluster {
    e: f64,
    q: f64,
    w: Dbu,
    cells: Vec<InstId>,
}

impl Cluster {
    /// Clamped optimal position of the cluster head in `[lo, hi]`.
    fn x(&self, seg: Interval) -> Dbu {
        let x = (self.q / self.e).round() as i64;
        Dbu(x).clamp(seg.lo, (seg.hi - self.w).max(seg.lo))
    }
}

/// One blockage-free span of a row with its committed clusters.
#[derive(Clone, Debug)]
struct Segment {
    span: Interval,
    used: Dbu,
    clusters: Vec<Cluster>,
}

impl Segment {
    /// Final x of a cell of width `w` targeting `x_t`, were it
    /// appended now — simulates the Abacus collapse cascade without
    /// mutating the committed clusters.
    fn trial_x(&self, x_t: Dbu, w: Dbu) -> Dbu {
        let (mut e, mut q, mut cw) = (1.0f64, x_t.0 as f64, w);
        let mut i = self.clusters.len();
        loop {
            let head = Cluster {
                e,
                q,
                w: cw,
                cells: Vec::new(),
            }
            .x(self.span);
            if i == 0 || self.clusters[i - 1].x(self.span) + self.clusters[i - 1].w <= head {
                return head + cw - w;
            }
            i -= 1;
            let prev = &self.clusters[i];
            // merge prev in front: the current group shifts right by
            // prev's width inside the merged cluster
            q = prev.q + (q - e * prev.w.0 as f64);
            e += prev.e;
            cw = prev.w + cw;
        }
    }

    /// Appends the cell and collapses overlapping clusters (the
    /// committed version of [`Self::trial_x`]).
    fn commit(&mut self, inst: InstId, x_t: Dbu, w: Dbu) {
        self.used += w;
        let mut c = Cluster {
            e: 1.0,
            q: x_t.0 as f64,
            w,
            cells: vec![inst],
        };
        while let Some(prev) = self.clusters.last() {
            if prev.x(self.span) + prev.w <= c.x(self.span) {
                break;
            }
            let prev = self.clusters.pop().unwrap_or_else(|| unreachable!());
            let mut merged = Cluster {
                e: prev.e + c.e,
                q: prev.q + (c.q - c.e * prev.w.0 as f64),
                w: prev.w + c.w,
                cells: prev.cells,
            };
            merged.cells.extend(c.cells);
            c = merged;
        }
        self.clusters.push(c);
    }
}

/// Abacus-style row legalization: cells are inserted left-to-right
/// into per-row segments; each insertion collapses abutting cells
/// into clusters placed at their (clamped) least-squares position, so
/// earlier cells shift smoothly instead of fragmenting the row. This
/// is the handoff the analytical placer uses — its input is a smooth
/// overlapping spread for which cluster collapse preserves relative
/// order, where Tetris-style first-fit would tear it apart.
///
/// Same contract as [`legalize`]: no overlaps, on-site x, outside
/// full blockages; cells that fit nowhere are counted in
/// [`LegalizeReport::failed`] and clamped into the die.
pub fn legalize_abacus(
    design: &Design,
    fp: &Floorplan,
    placement: &mut Placement,
    movable: &[InstId],
) -> LegalizeReport {
    let num_rows = fp.num_rows();
    let site = fp.site_width();
    let row_h = fp.row_height();
    let die = fp.die();
    let mut rows: Vec<Vec<Segment>> = row_segments(fp)
        .into_iter()
        .map(|free| {
            free.into_iter()
                .map(|span| Segment {
                    // align the left edge once: cell widths are site
                    // multiples, so every abutted cell stays on-site
                    span: Interval::new(span.lo.ceil_to(site).min(span.hi), span.hi),
                    used: Dbu(0),
                    clusters: Vec::new(),
                })
                .collect()
        })
        .collect();

    // Abacus order: left-to-right (ties broken by y then id for
    // determinism)
    let mut order: Vec<InstId> = movable.to_vec();
    order.sort_by_key(|i| {
        (
            placement.pos[i.index()].x,
            placement.pos[i.index()].y,
            i.index(),
        )
    });

    let mut report = LegalizeReport::default();
    for &inst in &order {
        let target = placement.pos[inst.index()];
        let width = placement.rect(design, inst).width();
        let target_row =
            (((target.y - die.lo.y).0 / row_h.0).max(0) as usize).min(num_rows.saturating_sub(1));
        let mut best: Option<(Dbu, usize, usize)> = None; // (cost, row, seg)
        for delta in 0..num_rows {
            let dy = row_h * delta as i64;
            if let Some((cost, ..)) = best {
                if dy >= cost {
                    break;
                }
            }
            let candidates = [
                target_row.checked_sub(delta),
                (delta > 0).then_some(target_row + delta),
            ];
            for row in candidates.into_iter().flatten().filter(|&r| r < num_rows) {
                for (s, seg) in rows[row].iter().enumerate() {
                    if seg.used + width > seg.span.len() {
                        continue;
                    }
                    let x = seg.trial_x(target.x, width);
                    let cost = (x - target.x).abs() + dy;
                    if best.is_none_or(|(c, ..)| cost < c) {
                        best = Some((cost, row, s));
                    }
                }
            }
        }
        match best {
            Some((_, row, s)) => rows[row][s].commit(inst, target.x, width),
            None => {
                report.failed += 1;
                let r = placement.rect(design, inst);
                let mut p = placement.pos[inst.index()];
                p.x = p.x.clamp(die.lo.x, die.hi.x - r.width());
                p.y = p.y.clamp(die.lo.y, die.hi.y - r.height());
                placement.pos[inst.index()] = p;
            }
        }
    }

    // final positions: walk each segment's clusters and lay the cells
    // out site-aligned from the cluster head
    for (row, segs) in rows.iter().enumerate() {
        let y = die.lo.y + row_h * row as i64;
        let orient = if row % 2 == 0 {
            macro3d_geom::Orientation::N
        } else {
            macro3d_geom::Orientation::FS
        };
        for seg in segs {
            for cluster in &seg.clusters {
                let mut x = cluster.x(seg.span).floor_to(site).max(seg.span.lo);
                for &inst in &cluster.cells {
                    let target = placement.pos[inst.index()];
                    // same accounting as Tetris: row distance, not the
                    // free in-row y snap
                    let target_row = (((target.y - die.lo.y).0 / row_h.0).max(0) as usize)
                        .min(num_rows.saturating_sub(1));
                    let dy = row_h * (row.abs_diff(target_row) as i64);
                    placement.pos[inst.index()] = Point::new(x, y);
                    placement.orient[inst.index()] = orient;
                    let disp = (x - target.x).abs() + dy;
                    report.total_disp += disp;
                    report.max_disp = report.max_disp.max(disp);
                    x += placement.rect(design, inst).width();
                }
            }
        }
    }
    if !movable.is_empty() {
        report.mean_disp_um = report.total_disp.to_um() / movable.len() as f64;
    }
    report
}

/// Legalizes `movable` while treating the already-placed `fixed`
/// instances as hard obstacles (incremental / ECO legalization for
/// cells inserted after the main pass).
pub fn legalize_incremental(
    design: &Design,
    fp: &Floorplan,
    placement: &mut Placement,
    movable: &[InstId],
    fixed: &[InstId],
) -> LegalizeReport {
    let mut fp2 = fp.clone();
    for &i in fixed {
        fp2.add_blockage(
            placement.rect(design, i),
            crate::floorplan::BlockageKind::Full,
        );
    }
    legalize(design, &fp2, placement, movable)
}

/// Free intervals of every row: each row minus the full blockages
/// overlapping it.
///
/// One pass over the blockages pushes each full blockage into the rows
/// its y-span can touch (the exact [`macro3d_geom::Rect::overlaps`]
/// test then decides), so a blockage costs the rows it spans instead
/// of every row scanning every blockage — ECO legalization turns every
/// placed cell into a one-row blockage. Each row's cuts are sorted
/// before the free intervals are read off, so the result is
/// independent of blockage order.
fn row_segments(fp: &Floorplan) -> Vec<Vec<Interval>> {
    let num_rows = fp.num_rows();
    let (y0, row_h) = (fp.die().lo.y, fp.row_height().0);
    let row_of = |y: Dbu| (y - y0).0.div_euclid(row_h).clamp(0, num_rows as i64) as usize;
    let mut cuts: Vec<Vec<Interval>> = vec![Vec::new(); num_rows];
    for b in &fp.blockages {
        if !matches!(b.kind, BlockageKind::Full) {
            continue;
        }
        // rows from the one holding the bottom edge to the one holding
        // the top edge; the top one only overlaps if the edge is inside
        let (first, last) = (row_of(b.rect.lo.y), row_of(b.rect.hi.y));
        for (r, row_cuts) in cuts.iter_mut().enumerate().take(last + 1).skip(first) {
            let row = fp.row_rect(r);
            if b.rect.overlaps(row) {
                row_cuts.push(row_cut(b.rect, row));
            }
        }
    }
    cuts.into_iter()
        .enumerate()
        .map(|(r, mut row_cuts)| {
            row_cuts.sort();
            free_intervals(fp.row_rect(r), &row_cuts)
        })
        .collect()
}

/// The x-span a blockage overlapping `row` removes from it.
fn row_cut(blockage: Rect, row: Rect) -> Interval {
    Interval::new(blockage.lo.x.max(row.lo.x), blockage.hi.x.min(row.hi.x))
}

/// `row`'s x-span minus `cuts` (sorted by `(lo, hi)`).
fn free_intervals(row: Rect, cuts: &[Interval]) -> Vec<Interval> {
    let mut free = Vec::new();
    let mut x = row.lo.x;
    for c in cuts {
        if c.lo > x {
            free.push(Interval::new(x, c.lo));
        }
        x = x.max(c.hi);
    }
    if x < row.hi.x {
        free.push(Interval::new(x, row.hi.x));
    }
    free
}

/// Free intervals of row `r` by a scan of every blockage: the
/// reference [`row_segments`] is tested against.
#[cfg(test)]
fn build_row_segments(fp: &Floorplan, r: usize) -> Vec<Interval> {
    let row = fp.row_rect(r);
    let mut cuts: Vec<Interval> = fp
        .blockages
        .iter()
        .filter(|b| matches!(b.kind, BlockageKind::Full))
        .filter(|b| b.rect.overlaps(row))
        .map(|b| row_cut(b.rect, row))
        .collect();
    cuts.sort();
    free_intervals(row, &cuts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::density::count_overlaps;
    use crate::floorplan::BlockageKind;
    use macro3d_geom::Rect;
    use macro3d_tech::{libgen::n28_library, CellClass};
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;

    fn random_design(n: usize, seed: u64) -> (Design, Vec<InstId>, Placement) {
        let lib = Arc::new(n28_library(1.0));
        let inv = lib.smallest(CellClass::Inv).expect("inv");
        let nand = lib.smallest(CellClass::Nand2).expect("nand");
        let mut d = Design::new("t", lib);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let mut insts = Vec::new();
        for i in 0..n {
            let c = d.add_cell(format!("c{i}"), if i % 2 == 0 { inv } else { nand });
            insts.push(c);
        }
        let mut p = Placement::new(&d);
        for &c in &insts {
            p.pos[c.index()] = Point::from_um(rng.gen_range(0.0..50.0), rng.gen_range(0.0..50.0));
        }
        (d, insts, p)
    }

    fn fp() -> Floorplan {
        Floorplan::new(
            Rect::from_um(0.0, 0.0, 50.0, 48.0),
            Dbu::from_um(1.2),
            Dbu::from_um(0.2),
        )
    }

    #[test]
    fn legal_result_has_no_overlaps() {
        let (d, insts, mut p) = random_design(800, 1);
        let f = fp();
        let rep = legalize(&d, &f, &mut p, &insts);
        assert_eq!(rep.failed, 0);
        assert_eq!(count_overlaps(&d, &p, &insts), 0);
    }

    #[test]
    fn cells_sit_on_rows_and_sites() {
        let (d, insts, mut p) = random_design(200, 2);
        let f = fp();
        legalize(&d, &f, &mut p, &insts);
        for &i in &insts {
            let pos = p.pos[i.index()];
            assert_eq!((pos.y - f.die().lo.y).0 % f.row_height().0, 0);
            assert_eq!((pos.x - f.die().lo.x).0 % f.site_width().0, 0);
            assert!(f.die().contains_rect(p.rect(&d, i)));
        }
    }

    #[test]
    fn blockages_are_respected() {
        let (d, insts, mut p) = random_design(400, 3);
        let mut f = fp();
        let blocked = Rect::from_um(10.0, 10.0, 30.0, 30.0);
        f.add_blockage(blocked, BlockageKind::Full);
        legalize(&d, &f, &mut p, &insts);
        for &i in &insts {
            assert!(
                !p.rect(&d, i).overlaps(blocked),
                "cell {i} inside blockage at {:?}",
                p.pos[i.index()]
            );
        }
    }

    #[test]
    fn displacement_grows_with_congestion() {
        // the same cells in a half-size die displace further
        let (d, insts, p0) = random_design(600, 4);
        let mut p1 = p0.clone();
        let mut p2 = p0.clone();
        let loose = fp();
        let tight = Floorplan::new(
            Rect::from_um(0.0, 0.0, 50.0, 12.0),
            Dbu::from_um(1.2),
            Dbu::from_um(0.2),
        );
        let r1 = legalize(&d, &loose, &mut p1, &insts);
        let r2 = legalize(&d, &tight, &mut p2, &insts);
        assert!(r2.total_disp > r1.total_disp);
    }

    #[test]
    fn overfull_die_reports_failures() {
        let (d, insts, mut p) = random_design(4000, 5);
        let tiny = Floorplan::new(
            Rect::from_um(0.0, 0.0, 10.0, 6.0),
            Dbu::from_um(1.2),
            Dbu::from_um(0.2),
        );
        let rep = legalize(&d, &tiny, &mut p, &insts);
        assert!(rep.failed > 0);
    }

    #[test]
    fn abacus_result_is_legal_and_on_grid() {
        let (d, insts, mut p) = random_design(800, 11);
        let f = fp();
        let rep = legalize_abacus(&d, &f, &mut p, &insts);
        assert_eq!(rep.failed, 0);
        assert_eq!(count_overlaps(&d, &p, &insts), 0);
        for &i in &insts {
            let pos = p.pos[i.index()];
            assert_eq!((pos.y - f.die().lo.y).0 % f.row_height().0, 0);
            assert_eq!((pos.x - f.die().lo.x).0 % f.site_width().0, 0);
            assert!(f.die().contains_rect(p.rect(&d, i)));
        }
    }

    #[test]
    fn abacus_respects_blockages() {
        let (d, insts, mut p) = random_design(400, 12);
        let mut f = fp();
        let blocked = Rect::from_um(10.0, 10.0, 30.0, 30.0);
        f.add_blockage(blocked, BlockageKind::Full);
        legalize_abacus(&d, &f, &mut p, &insts);
        for &i in &insts {
            assert!(
                !p.rect(&d, i).overlaps(blocked),
                "cell {i} inside blockage at {:?}",
                p.pos[i.index()]
            );
        }
    }

    #[test]
    fn abacus_preserves_order_in_a_packed_row() {
        // cells spread along one row with slight overlaps: cluster
        // collapse must keep their left-to-right order intact
        let (d, insts, mut p) = random_design(40, 13);
        for (k, &i) in insts.iter().enumerate() {
            p.pos[i.index()] = Point::from_um(0.55 * k as f64, 0.3);
        }
        let f = fp();
        let rep = legalize_abacus(&d, &f, &mut p, &insts);
        assert_eq!(rep.failed, 0);
        let mut same_row: Vec<(Dbu, usize)> = insts
            .iter()
            .enumerate()
            .filter(|(_, i)| p.pos[i.index()].y == f.die().lo.y)
            .map(|(k, i)| (p.pos[i.index()].x, k))
            .collect();
        assert!(same_row.len() > 10, "expected most cells in row 0");
        same_row.sort();
        for w in same_row.windows(2) {
            assert!(w[0].1 < w[1].1, "row order changed: {:?}", w);
        }
    }

    #[test]
    fn abacus_overfull_die_reports_failures() {
        let (d, insts, mut p) = random_design(4000, 14);
        let tiny = Floorplan::new(
            Rect::from_um(0.0, 0.0, 10.0, 6.0),
            Dbu::from_um(1.2),
            Dbu::from_um(0.2),
        );
        let rep = legalize_abacus(&d, &tiny, &mut p, &insts);
        assert!(rep.failed > 0);
    }

    #[test]
    fn abacus_displacement_no_worse_than_tetris_on_spread_input() {
        // on a smooth overlapping spread (the analytical placer's
        // output shape) cluster collapse should move cells less than
        // first-fit
        let (d, insts, p0) = random_design(1200, 15);
        let f = fp();
        let mut pa = p0.clone();
        let mut pt = p0.clone();
        let ra = legalize_abacus(&d, &f, &mut pa, &insts);
        let rt = legalize(&d, &f, &mut pt, &insts);
        assert_eq!(ra.failed, 0);
        assert!(
            ra.total_disp <= rt.total_disp * 2,
            "abacus {} vs tetris {}",
            ra.total_disp,
            rt.total_disp
        );
    }

    #[test]
    fn bucketed_row_cuts_match_per_row_scan() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(21);
        for _ in 0..300 {
            let row_h = rng.gen_range(4i64..30);
            let (x0, y0) = (rng.gen_range(-300i64..300), rng.gen_range(-300i64..300));
            // heights that are not a row multiple leave a partial top row
            let (w, h) = (rng.gen_range(20i64..400), rng.gen_range(row_h..20 * row_h));
            let die = Rect::new(
                Point::new(Dbu(x0), Dbu(y0)),
                Point::new(Dbu(x0 + w), Dbu(y0 + h)),
            );
            let mut f = Floorplan::new(die, Dbu(row_h), Dbu(rng.gen_range(1i64..4)));
            // y on an exact row boundary, or anywhere from well below to
            // well above the die
            let edge_y = |rng: &mut rand::rngs::SmallRng| {
                Dbu(if rng.gen_bool(0.4) {
                    y0 + row_h * rng.gen_range(-2i64..=h / row_h + 2)
                } else {
                    rng.gen_range(y0 - 3 * row_h..y0 + h + 3 * row_h)
                })
            };
            for _ in 0..rng.gen_range(0usize..80) {
                let (ya, yb) = (edge_y(&mut rng), edge_y(&mut rng));
                // zero-height blockages (on a boundary or mid-row) too
                let yb = if rng.gen_bool(0.15) { ya } else { yb };
                let xa = rng.gen_range(x0 - 50..x0 + w + 50);
                let xb = rng.gen_range(x0 - 50..x0 + w + 50);
                let kind = if rng.gen_bool(0.2) {
                    BlockageKind::Partial(0.5)
                } else {
                    BlockageKind::Full
                };
                f.add_blockage(
                    Rect::new(Point::new(Dbu(xa), ya), Point::new(Dbu(xb), yb)),
                    kind,
                );
            }
            let per_row: Vec<Vec<Interval>> = (0..f.num_rows())
                .map(|r| build_row_segments(&f, r))
                .collect();
            assert_eq!(row_segments(&f), per_row);
        }
    }

    #[test]
    fn rows_alternate_orientation() {
        let (d, insts, mut p) = random_design(100, 6);
        let f = fp();
        legalize(&d, &f, &mut p, &insts);
        for &i in &insts {
            let row = ((p.pos[i.index()].y - f.die().lo.y).0 / f.row_height().0) as usize;
            let expect = if row.is_multiple_of(2) {
                macro3d_geom::Orientation::N
            } else {
                macro3d_geom::Orientation::FS
            };
            assert_eq!(p.orient[i.index()], expect);
        }
    }
}

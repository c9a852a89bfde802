//! Standard-cell library model.

use crate::nldm::Lut2;
use macro3d_geom::{Dbu, Size};
use std::fmt;

/// Direction of a cell pin.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PinDir {
    /// Signal input.
    Input,
    /// Signal output.
    Output,
}

/// Functional class of a standard cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CellClass {
    /// Inverter.
    Inv,
    /// Non-inverting buffer.
    Buf,
    /// Clock buffer (used by CTS; balanced rise/fall).
    ClkBuf,
    /// 2-input NAND.
    Nand2,
    /// 2-input NOR.
    Nor2,
    /// 2-input AND.
    And2,
    /// 2-input OR.
    Or2,
    /// 2-input XOR.
    Xor2,
    /// AND-OR-invert 21.
    Aoi21,
    /// OR-AND-invert 21.
    Oai21,
    /// 2:1 multiplexer.
    Mux2,
    /// D flip-flop (positive edge).
    Dff,
}

impl CellClass {
    /// All classes in the synthetic library.
    pub const ALL: [CellClass; 12] = [
        CellClass::Inv,
        CellClass::Buf,
        CellClass::ClkBuf,
        CellClass::Nand2,
        CellClass::Nor2,
        CellClass::And2,
        CellClass::Or2,
        CellClass::Xor2,
        CellClass::Aoi21,
        CellClass::Oai21,
        CellClass::Mux2,
        CellClass::Dff,
    ];

    /// True for sequential (state-holding) classes.
    pub fn is_sequential(self) -> bool {
        matches!(self, CellClass::Dff)
    }

    /// Library naming prefix (e.g. `NAND2` in `NAND2_X2`).
    pub fn prefix(self) -> &'static str {
        match self {
            CellClass::Inv => "INV",
            CellClass::Buf => "BUF",
            CellClass::ClkBuf => "CLKBUF",
            CellClass::Nand2 => "NAND2",
            CellClass::Nor2 => "NOR2",
            CellClass::And2 => "AND2",
            CellClass::Or2 => "OR2",
            CellClass::Xor2 => "XOR2",
            CellClass::Aoi21 => "AOI21",
            CellClass::Oai21 => "OAI21",
            CellClass::Mux2 => "MUX2",
            CellClass::Dff => "DFF",
        }
    }
}

impl fmt::Display for CellClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.prefix())
    }
}

/// Identifier of a cell within a [`CellLibrary`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LibCellId(pub u32);

impl LibCellId {
    /// Flat index for slice access.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A pin of a library cell.
#[derive(Clone, Debug, PartialEq)]
pub struct CellPin {
    /// Pin name (`A`, `B`, `Y`, `D`, `CK`, `Q`, …).
    pub name: String,
    /// Direction.
    pub dir: PinDir,
    /// Input capacitance, fF (zero for outputs).
    pub cap_ff: f64,
    /// True for the clock pin of a sequential cell.
    pub is_clock: bool,
}

/// A delay arc from an input pin to an output pin.
#[derive(Clone, Debug, PartialEq)]
pub struct TimingArc {
    /// Index of the input pin within the cell's pin list.
    pub from_pin: usize,
    /// Index of the output pin.
    pub to_pin: usize,
    /// Propagation delay table, ps over (slew ps, load fF).
    pub delay: Lut2,
    /// Output slew table, ps over (slew ps, load fF).
    pub out_slew: Lut2,
}

/// One library cell: geometry, pins, timing arcs and power data.
#[derive(Clone, Debug, PartialEq)]
pub struct LibCell {
    /// Library name, e.g. `NAND2_X2`.
    pub name: String,
    /// Functional class.
    pub class: CellClass,
    /// Drive strength multiplier (1, 2, 4, 8, 16).
    pub drive: u32,
    /// Placed footprint (width × row height).
    pub size: Size,
    /// Pins; inputs first by convention.
    pub pins: Vec<CellPin>,
    /// Input→output delay arcs.
    pub arcs: Vec<TimingArc>,
    /// Leakage power, nW at TT.
    pub leakage_nw: f64,
    /// Internal (short-circuit + internal node) energy per output
    /// toggle, fJ.
    pub internal_energy_fj: f64,
    /// Setup time, ps (sequential cells only).
    pub setup_ps: f64,
    /// Hold time, ps (sequential cells only).
    pub hold_ps: f64,
}

impl LibCell {
    /// True for state-holding cells.
    pub fn is_sequential(&self) -> bool {
        self.class.is_sequential()
    }

    /// Index of the clock pin, if any.
    pub fn clock_pin(&self) -> Option<usize> {
        self.pins.iter().position(|p| p.is_clock)
    }

    /// Index of the (single) output pin.
    ///
    /// # Panics
    ///
    /// Panics if the cell has no output pin (never holds for
    /// generated libraries).
    #[allow(clippy::expect_used)]
    pub fn output_pin(&self) -> usize {
        self.pins
            .iter()
            .position(|p| p.dir == PinDir::Output)
            .expect("library cells have an output pin")
    }

    /// Indices of data (non-clock) input pins.
    pub fn data_input_pins(&self) -> impl Iterator<Item = usize> + '_ {
        self.pins
            .iter()
            .enumerate()
            .filter(|(_, p)| p.dir == PinDir::Input && !p.is_clock)
            .map(|(i, _)| i)
    }

    /// Cell area in µm².
    pub fn area_um2(&self) -> f64 {
        self.size.area_um2()
    }
}

/// A complete standard-cell library plus row geometry.
///
/// # Examples
///
/// ```
/// use macro3d_tech::libgen::n28_library;
///
/// let lib = n28_library(1.0);
/// let inv = lib.cell_by_name("INV_X1").expect("INV_X1 exists");
/// let bigger = lib.resize(inv, 1).expect("INV_X2 exists");
/// assert_eq!(lib.cell(bigger).name, "INV_X2");
/// ```
#[derive(Clone, Debug)]
pub struct CellLibrary {
    name: String,
    cells: Vec<LibCell>,
    row_height: Dbu,
    site_width: Dbu,
    voltage: f64,
    area_scale: f64,
}

impl CellLibrary {
    /// Assembles a library.
    ///
    /// # Panics
    ///
    /// Panics if `cells` is empty or geometry is non-positive.
    pub fn new(
        name: impl Into<String>,
        cells: Vec<LibCell>,
        row_height: Dbu,
        site_width: Dbu,
        voltage: f64,
    ) -> Self {
        assert!(!cells.is_empty(), "library must contain cells");
        assert!(
            row_height.0 > 0 && site_width.0 > 0,
            "geometry must be positive"
        );
        assert!(voltage > 0.0, "supply voltage must be positive");
        CellLibrary {
            name: name.into(),
            cells,
            row_height,
            site_width,
            voltage,
            area_scale: 1.0,
        }
    }

    /// Records the instance-compression scale this library was
    /// generated with (see `libgen`). Returns `self` for chaining.
    pub fn with_area_scale(mut self, area_scale: f64) -> Self {
        self.area_scale = area_scale;
        self
    }

    /// The instance-compression scale this library was generated
    /// with.
    pub fn area_scale(&self) -> f64 {
        self.area_scale
    }

    /// Library name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Cell by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn cell(&self, id: LibCellId) -> &LibCell {
        &self.cells[id.index()]
    }

    /// All cells.
    pub fn cells(&self) -> &[LibCell] {
        &self.cells
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if the library has no cells (never holds after
    /// construction).
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Looks a cell up by library name.
    pub fn cell_by_name(&self, name: &str) -> Option<LibCellId> {
        self.cells
            .iter()
            .position(|c| c.name == name)
            .map(|i| LibCellId(i as u32))
    }

    /// All drive variants of a class, ascending by drive.
    pub fn variants(&self, class: CellClass) -> Vec<LibCellId> {
        let mut v: Vec<LibCellId> = self
            .cells
            .iter()
            .enumerate()
            .filter(|(_, c)| c.class == class)
            .map(|(i, _)| LibCellId(i as u32))
            .collect();
        v.sort_by_key(|id| self.cell(*id).drive);
        v
    }

    /// The weakest drive variant of a class, if the class exists.
    pub fn smallest(&self, class: CellClass) -> Option<LibCellId> {
        self.variants(class).first().copied()
    }

    /// The strongest drive variant of a class, if the class exists.
    pub fn largest(&self, class: CellClass) -> Option<LibCellId> {
        self.variants(class).last().copied()
    }

    /// The same class one drive step up (`step = 1`) or down
    /// (`step = -1`); `None` at the end of the range.
    pub fn resize(&self, id: LibCellId, step: i32) -> Option<LibCellId> {
        let class = self.cell(id).class;
        let variants = self.variants(class);
        let pos = variants.iter().position(|&v| v == id)?;
        let target = pos as i64 + step as i64;
        if target < 0 || target as usize >= variants.len() {
            None
        } else {
            Some(variants[target as usize])
        }
    }

    /// Standard-cell row height.
    pub fn row_height(&self) -> Dbu {
        self.row_height
    }

    /// Placement site width.
    pub fn site_width(&self) -> Dbu {
        self.site_width
    }

    /// Nominal supply voltage, V.
    pub fn voltage(&self) -> f64 {
        self.voltage
    }

    /// Buffer cells for signal-net repeater insertion, ascending by
    /// drive.
    pub fn buffers(&self) -> Vec<LibCellId> {
        self.variants(CellClass::Buf)
    }

    /// Clock buffers for CTS, ascending by drive.
    pub fn clock_buffers(&self) -> Vec<LibCellId> {
        self.variants(CellClass::ClkBuf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::libgen::n28_library;

    #[test]
    fn class_properties() {
        assert!(CellClass::Dff.is_sequential());
        assert!(!CellClass::Inv.is_sequential());
        assert_eq!(CellClass::Nand2.prefix(), "NAND2");
        assert_eq!(CellClass::ALL.len(), 12);
    }

    #[test]
    fn variants_sorted_by_drive() {
        let lib = n28_library(1.0);
        let v = lib.variants(CellClass::Inv);
        assert!(v.len() >= 3);
        for w in v.windows(2) {
            assert!(lib.cell(w[0]).drive < lib.cell(w[1]).drive);
        }
    }

    #[test]
    fn resize_walks_drive_chain() {
        let lib = n28_library(1.0);
        let x1 = lib.smallest(CellClass::Nand2).expect("nand2 exists");
        let x2 = lib.resize(x1, 1).expect("x2 exists");
        assert_eq!(lib.cell(x2).drive, 2);
        assert_eq!(lib.resize(x1, -1), None);
        let largest = lib.largest(CellClass::Nand2).expect("nand2 exists");
        assert_eq!(lib.resize(largest, 1), None);
        assert_eq!(lib.resize(x2, -1), Some(x1));
    }

    #[test]
    fn dff_has_clock_pin_and_setup() {
        let lib = n28_library(1.0);
        let dff = lib.smallest(CellClass::Dff).expect("dff exists");
        let cell = lib.cell(dff);
        assert!(cell.is_sequential());
        let ck = cell.clock_pin().expect("dff has clock pin");
        assert!(cell.pins[ck].is_clock);
        assert!(cell.setup_ps > 0.0);
        assert_eq!(cell.data_input_pins().count(), 1);
    }

    #[test]
    fn output_pin_is_found() {
        let lib = n28_library(1.0);
        for c in lib.cells() {
            let out = c.output_pin();
            assert_eq!(c.pins[out].dir, PinDir::Output);
        }
    }
}

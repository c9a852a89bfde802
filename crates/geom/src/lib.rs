#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
//! Geometry substrate for the Macro-3D physical-design reproduction.
//!
//! All physical-design engines in this workspace (floorplanning,
//! placement, routing, extraction) operate on the primitives defined
//! here: integer database-unit coordinates ([`Dbu`]), points, sizes,
//! axis-aligned rectangles, orientations, half-open intervals, uniform
//! bin grids, a simple spatial index, and a fast hasher for maps keyed
//! by ids and coordinates ([`idhash`]).
//!
//! Coordinates are stored as `i64` database units with 1 DBU = 1 nm,
//! which comfortably covers multi-millimetre dies without overflow and
//! keeps all geometry exact (no floating-point drift in legality
//! checks).
//!
//! # Examples
//!
//! ```
//! use macro3d_geom::{Dbu, Point, Rect};
//!
//! let die = Rect::new(
//!     Point::new(Dbu(0), Dbu(0)),
//!     Point::new(Dbu::from_um(1_000.0), Dbu::from_um(600.0)),
//! );
//! assert_eq!(die.width().to_um(), 1_000.0);
//! assert!(die.contains(Point::new(Dbu::from_um(10.0), Dbu::from_um(10.0))));
//! ```

pub mod coord;
pub mod grid;
pub mod idhash;
pub mod index;
pub mod interval;
pub mod orient;
pub mod point;
pub mod rect;
pub mod size;

pub use coord::Dbu;
pub use grid::{BinGrid, BinIx};
pub use index::RectIndex;
pub use interval::Interval;
pub use orient::Orientation;
pub use point::Point;
pub use rect::Rect;
pub use size::Size;

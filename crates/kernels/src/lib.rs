//! `mrpic-kernels` — the Particle-In-Cell hot loops.
//!
//! The two main hotspots of an electromagnetic PIC code are the field
//! gather and the current deposition (paper §V-A): interpolating data
//! between continuous particle positions and the discrete staggered mesh.
//! This crate implements those kernels (plus the relativistic particle
//! pushers) in a **reference** per-particle form and an **optimized**
//! lane-blocked form ([`Lanes`]) that mirrors the paper's A64FX
//! vectorization strategy: stage the interpolation weights of a tile of
//! `W` particles into transposed structure-of-arrays temporaries, so the
//! innermost loops run over particles, not over the tiny stencil
//! extents. The two forms are bitwise identical.
//!
//! All kernels are generic over [`Real`] (`f32`/`f64`) so the paper's
//! double-precision and mixed-precision modes can both be exercised.
//!
//! Conventions:
//! * positions are physical (SI meters); a [`Geom`] converts to cell
//!   coordinates `xi = (x - xmin) / dx`, where `xmin` is the physical
//!   coordinate of the index-0 grid line;
//! * `u = gamma * v` (SI m/s) is the momentum-like velocity variable;
//! * field views ([`view::FieldView`]) carry per-axis staggering: a
//!   component *half* in an axis has its points at `(i + 1/2) dx`.

// Stencil and particle loops index several parallel arrays by the same
// counter; iterator zips would obscure the numerics. Silence the style
// lint crate-wide rather than per-loop.
#![allow(clippy::needless_range_loop)]

pub mod constants;
pub mod deposit;
pub mod flops;
pub mod gather;
pub mod lanes;
pub mod push;
pub mod real;
pub mod shape;
pub mod view;

pub use lanes::{Lanes, DEFAULT_LANE_WIDTH, LANE_WIDTHS};
pub use real::Real;
pub use shape::{Cubic, Linear, Ngp, Quadratic, Shape};
pub use view::{FieldView, FieldViewMut, Geom};

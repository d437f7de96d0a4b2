//! Network Utility Maximization (NUM) solvers for Flowtune.
//!
//! The allocator's job (§3 of the paper) is to pick rates `x_s` maximizing
//! `Σ_s U_s(x_s)` subject to `Σ_{s∈S(ℓ)} x_s ≤ c_ℓ` for every link ℓ. This
//! crate implements the dual (price-based) machinery:
//!
//! * [`Utility`] — the strictly concave utility (weighted log for
//!   proportional fairness),
//! * [`NumProblem`] — a flow/link instance; a [`SolverState`] carries its
//!   prices to the next instance when the flow set changes,
//! * [`Ned`] — the paper's contribution, **Newton-Exact-Diagonal**
//!   (Algorithm 1),
//! * [`Gradient`] projection, the §6.6 baseline,
//! * [`normalize`] — U-NORM and F-NORM rate normalization (§4),
//! * [`solver`] — a driver that runs any optimizer to convergence and
//!   reports residuals.
//!
//! The optimizers are the two that §6.6's figures compare. The figures
//! run them as the two price rules of `flowtune-alloc`'s grid, whose
//! kernels are pinned to these optimizers by differential tests; fig13
//! normalizes the grid's raw rates with [`normalize`] and measures them
//! against a [`Ned`] run to convergence.
//!
//! # Units
//!
//! The solvers are unit-agnostic, but dual methods warm-start from prices
//! of 1 (§3: "link prices are all set to 1"), which converges fastest when
//! capacities are O(1)–O(100). Throughout this repository capacities and
//! rates are expressed in **Gbit/s** inside NUM instances; the system layer
//! converts to bits/s at the boundary.

#![forbid(unsafe_code)]

pub mod gradient;
pub mod ned;
pub mod normalize;
pub mod problem;
pub mod solver;
pub mod utility;

pub use gradient::Gradient;
pub use ned::Ned;
pub use problem::{FlowIdx, NumProblem};
pub use solver::{dual_bound, solve, ConvergenceReport, Optimizer, SolverState};
pub use utility::Utility;

//! Shared harness for the experiment binaries (one per paper table /
//! figure — crates/bench/README.md lists them).
//!
//! Every binary accepts `--quick` (reduced scale, the default) and
//! `--full` (paper scale); `--seed N` overrides the trace seed. Output is
//! CSV-ish text with a header naming the paper artifact being reproduced,
//! so `cargo run --release -p flowtune-bench --bin fig5_update_traffic`
//! prints the same series Figure 5 plots.

#![forbid(unsafe_code)]

pub mod cli;
pub mod fluid;
pub mod simrun;

pub use cli::Opts;
pub use fluid::{FluidDriver, FluidStats};
pub use simrun::{run_cell, CellResult, CellSpec};

/// The network an allocator manages, in Tbit/s (§6.1): `nodes` servers
/// at the 40 Gbit/s line rate, scaled by the share of the 10 µs budget
/// an iteration of `iter_us` fits in — the whole network when it
/// iterates within budget, proportionally less when it does not.
pub fn managed_tbps(nodes: usize, iter_us: f64) -> f64 {
    nodes as f64 * 40e9 / 1e12 * (10.0 / iter_us).min(1.0)
}

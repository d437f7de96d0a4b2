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
pub mod num_churn;
pub mod simrun;

pub use cli::Opts;
pub use fluid::{FluidDriver, FluidStats};
pub use simrun::{run_cell, CellResult, CellSpec};

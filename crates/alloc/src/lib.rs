//! The multicore Flowtune allocator (§5 of the paper).
//!
//! A strawman parallel NED "which arbitrarily distributes flows to
//! different processors, will result in poor performance because ...
//! updates to a link from flows on different processors will cause
//! significant cache-coherence traffic". Flowtune instead partitions:
//!
//! * **flows** into a B×B grid of [FlowBlocks](flowblock) by (source
//!   block, destination block) — each owned by exactly one worker;
//! * **links** into B upward and B downward LinkBlocks — every flow of
//!   FlowBlock (i,j) touches only up-LinkBlock *i* and down-LinkBlock *j*.
//!
//! Each worker keeps *private* accumulators for the two LinkBlocks it
//! needs. A rate pass writes only those; then they are summed onto the
//! grid diagonals in `log₂ B` butterfly steps (Figure 3), and the
//! diagonal owner runs the price update (NED's, or gradient projection's
//! — §3: the two differ only in this step), writing the LinkBlock's
//! prices and the per-link utilization ratios F-NORM needs. Figure 3
//! distributes those back along the reverse pattern, into a private
//! copy per worker. On shared memory that copy buys nothing: the
//! coherence traffic the paper avoids comes from cores *writing* the
//! same lines, and between two price updates the prices and ratios are
//! only read. So every worker of a LinkBlock's row or column reads the
//! one copy the price update wrote, there is no distribution step, and
//! a consensus install patches 2·B copies instead of B². Only which
//! grid line a LinkBlock is summed along, and onto which diagonal, tells
//! the two directions apart: every per-direction quantity is a
//! two-element array, and every LinkBlock phase is written once for
//! both.
//!
//! One engine type implements this, and the control-plane service
//! holds it directly: [`SerialAllocator`], the grid itself and every
//! operation on it (flow add/remove, the rate and link-state queries,
//! the installs). Its price rule
//! ([`flowblock::PriceRule`]) is chosen once per grid: NED, or gradient
//! projection on a [`SerialAllocator::gradient`] grid (engine name
//! `gradient`, the §6.6 / Figure 12 baseline), which gets every
//! schedule, the incremental ticks and the exchange with it. There are
//! two ways to schedule an iteration, and they agree bit for bit:
//!
//! * on the caller's thread ([`SerialAllocator::new`], engine name
//!   `serial`) — the reference, the default engine of the network
//!   simulator, and the path every incremental tick takes;
//! * as a barrier pipeline ([`SerialAllocator::multicore`], engine name
//!   `multicore`, parallel.rs) — full sweeps spread over OS threads with
//!   barrier synchronization and mutex-protected buffer exchange, driven
//!   by a persistent [`WorkerPool`] that parks between ticks (no
//!   spawn/join on the 10 µs tick path); the schedule the §6.1
//!   tables (`table_multicore`, `table_fastpass`) run. No service builds
//!   it: `flowtune::Engine` names the caller-thread grids only.
//!
//! Queries fill caller-provided buffers; [`engine`] holds the two types
//! the grid's link state crosses into the exchange as ([`LinkRun`],
//! [`LinkInstall`]), in the grid's own slot order.
//!
//! The per-tick export is part of the engine too. Each flow's row carries
//! the normalized rate last *reported* for it, and
//! [`SerialAllocator::drain_changed_rates`] lends its caller exactly the
//! flows whose rate has since moved beyond the §6.4 update threshold —
//! for the grid one packed pass over two contiguous columns
//! ([`flowblock::report_pass`], the fourth FlowBlock kernel), only over
//! the FlowBlocks the dirty set says may have moved. The control-plane
//! service above keeps no per-flow filter state and touches its flow
//! table only for the flows it actually notifies.

#![deny(missing_docs)]

mod certificate;
mod dirty;
pub mod engine;
pub mod flowblock;
pub mod grow;
mod layout;
mod parallel;
pub mod pool;
mod reduce;
pub mod serial;

pub use certificate::Certificate;
pub use engine::{LinkInstall, LinkRun};
pub use flowblock::FlowRate;
pub use pool::WorkerPool;
pub use serial::SerialAllocator;

/// NED step size γ (Algorithm 1). §6.2: "experiments have γ = 0.4"; any
/// value in [0.2, 1.5] behaves similarly, so it is not a knob.
pub const GAMMA: f64 = 0.4;

/// Configuration of an allocator engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AllocConfig {
    /// Whether to F-NORM the rates after each iteration (§4.2). U-NORM is
    /// deliberately unsupported here: it needs a *global* max, which
    /// breaks the block decomposition — §4.2 notes F-NORM is the scheme
    /// that "reuses the multi-core design of NED".
    pub f_norm: bool,
    /// Fraction of each link's capacity made available to the optimizer.
    /// §6.4: "the allocator adjusts the available link capacities by the
    /// threshold; with a 0.01 threshold, the allocator would allocate 99%
    /// of link capacities."
    pub capacity_fraction: f64,
    /// Run iterations incrementally, under either price rule (NED or
    /// gradient): a dirty set tracks which FlowBlock workers saw a price
    /// move (see [`AllocConfig::dirty_eps`]) on a link their flows
    /// traverse, or had flows added/removed, and the rate/normalize
    /// passes touch only those. With `dirty_eps = 0` the incremental path
    /// is bit-for-bit identical to the full sweep. Off by default here —
    /// the exact full sweep the equivalence suites and the §6.1 tables
    /// drive — while a service's `FlowtuneConfig::default()` turns it on
    /// at wire precision. When on, the grid picks each tick's path from
    /// its dirty set: a tick on which every worker holding flows re-runs
    /// is the plain full sweep (no diff, no anchor), and the grid returns
    /// to the incremental path on its own. A grid of more than 64 blocks
    /// (one crosser-mask bit per member of a LinkBlock) keeps no dirty
    /// set and sweeps every tick, as does the pool schedule
    /// ([`SerialAllocator::multicore`]), which ignores it.
    pub incremental: bool,
    /// When incremental, force a pass of the link phases (aggregate,
    /// price update, diff) every this many iterations, so the Newton
    /// residual that quiet iterations hold back under a positive
    /// `dirty_eps` is applied; it re-prices no flow by itself, only the
    /// flows whose links that pass moves (`0` = never; at `dirty_eps = 0`
    /// the pass is a bitwise no-op).
    pub full_sweep_every: u64,
    /// How far a price or ratio must move to mark its link's flows dirty.
    /// `0.0` (the default) is exact: any bit change marks, which keeps
    /// incremental output equal to the full sweep. Any positive value
    /// switches to wire precision: a move must exceed a quarter `Rate16`
    /// step (2⁻¹³) relative to the last marked value, and this value is
    /// only the absolute floor of that test, for idle duals decaying
    /// toward 0. The knob goes once flowbench's `quiet100k` plane stops
    /// setting it (ROADMAP item 27).
    pub dirty_eps: f64,
}

impl Default for AllocConfig {
    fn default() -> Self {
        Self {
            f_norm: true,
            capacity_fraction: 1.0,
            incremental: false,
            full_sweep_every: 64,
            dirty_eps: 0.0,
        }
    }
}

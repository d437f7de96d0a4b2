//! System configuration.

use std::time::Duration;

use crate::placement::PlacementSpec;

/// The distributed peer runtime's exchange knobs: the barrier's round
/// timeout and staleness bound. In-process rows cannot be late, so the
/// in-process `ShardedService` has no use for them. The cadence and the
/// delta filter are not here: every plane reads them from its services'
/// own [`FlowtuneConfig`] ([`FlowtuneConfig::exchange_due`],
/// [`FlowtuneConfig::exchange_delta_eps`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExchangeConfig {
    /// How long an exchange barrier waits for a
    /// not-yet-stale peer's frame for the current round before
    /// degrading to that peer's last-received state.
    pub round_timeout: Duration,
    /// The staleness bound. A peer that has missed
    /// this many consecutive barriers is waited for again (up to
    /// [`ExchangeConfig::round_timeout`]) at *every* subsequent barrier
    /// until it recovers — throttling a healthy shard rather than
    /// letting it run unboundedly ahead of a laggard's state. `0`
    /// disables the throttle: stale peers are only ever polled
    /// non-blocking, and drift is unbounded.
    pub max_rounds_behind: u64,
}

impl Default for ExchangeConfig {
    fn default() -> Self {
        ExchangeConfig {
            round_timeout: Duration::from_secs(1),
            max_rounds_behind: 8,
        }
    }
}

impl ExchangeConfig {
    /// The peer-runtime defaults, whatever `cfg` says: a peer reads the
    /// cadence and the delta filter from its service's config, so new
    /// code calls [`ExchangeConfig::default`]. This stays only for
    /// flowbench's frozen `wire2uds` (`benchmark/src/workload.rs`) and
    /// the test suites written against it, until ROADMAP item 8's
    /// `[benchmark]` change moves them.
    pub fn from_flowtune(_cfg: &FlowtuneConfig) -> Self {
        ExchangeConfig::default()
    }

    /// Sets the peer runtime's per-round barrier timeout.
    #[must_use]
    pub fn round_timeout(mut self, timeout: Duration) -> Self {
        self.round_timeout = timeout;
        self
    }

    /// Sets the staleness bound (see the field docs; 0 = no throttle).
    #[must_use]
    pub fn max_rounds_behind(mut self, rounds: u64) -> Self {
        self.max_rounds_behind = rounds;
        self
    }
}

/// Allocator tick interval in picoseconds (10 µs). A tick is one NED
/// iteration (§6.2: "The allocator performs an iteration every 10 µs").
pub const TICK_INTERVAL_PS: u64 = 10_000_000;

/// Tunables of a Flowtune deployment, with the paper's values as defaults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowtuneConfig {
    /// Rate-update suppression threshold (§6.4; 0.01 default).
    pub update_threshold: f64,
    /// Idle time after which a sender's empty queue ends the flowlet
    /// (§1: "a flowlet ends when there is a threshold amount of time
    /// during which a sender's queue is empty"). Default 30 µs ≈ 2 RTTs.
    pub flowlet_idle_ps: u64,
    /// Whether the allocator F-NORMs rates before sending them (§4.2; on
    /// in every end-to-end experiment).
    pub f_norm: bool,
    /// Run the grid's iterations incrementally (the `serial` and
    /// `gradient` engines): the engine's dirty set tracks
    /// which FlowBlock workers saw flow churn or a price move beyond
    /// [`FlowtuneConfig::dirty_eps`] on a traversed link, and the
    /// flow-proportional passes touch only those — quiet ticks cost
    /// `O(changed)`, not `O(flows)`, and a settled plane re-prices
    /// nothing. On by default; at `dirty_eps = 0` the output is
    /// bit-for-bit identical to the full sweep. The grid falls back on
    /// its own: a tick on which every worker re-runs anyway (churn) is
    /// the plain full sweep, and it comes back once the churn stops. A
    /// grid of more than 64 blocks ignores it and sweeps every tick.
    pub incremental: bool,
    /// Incremental mode only: force a pass of the engine's link phases
    /// (aggregate, price update, diff) every this many iterations, so
    /// the Newton residual that quiet ticks hold back under a positive
    /// `dirty_eps` is applied. The pass re-prices no flow by itself, only
    /// the flows whose links it moves (`0` = never; at `dirty_eps = 0` it
    /// is a bitwise no-op).
    pub full_sweep_every: u64,
    /// Incremental mode only: how far a price or ratio must move to
    /// re-dirty a link's flows. `0.0` marks on any bit change — exact
    /// equivalence with the full sweep. Any positive value — `1e-9`, the
    /// default — runs at wire precision: a move must exceed a quarter
    /// `Rate16` step (2⁻¹³) relative to the last marked value, and this
    /// value is only that test's absolute floor, for idle duals decaying
    /// toward 0. The duality gap
    /// ([`AllocatorService::certificate`](crate::AllocatorService::certificate))
    /// judges such a plane against the exact one. The knob goes once
    /// flowbench's `quiet100k` plane stops setting it (ROADMAP item 27).
    pub dirty_eps: f64,
    /// Sharded control plane only: every `exchange_every` ticks the
    /// shards exchange per-link loads so each prices shared links for the
    /// whole network's traffic (the §5 aggregation step, one level up).
    /// `0` disables the exchange (each shard prices links for its own
    /// flows alone — exact only while no link carries two shards' flows);
    /// `1` exchanges every tick (tightest pricing, most exchange
    /// traffic); larger values trade staleness for exchange bandwidth.
    /// Ignored by unsharded services.
    pub exchange_every: u64,
    /// Sharded control plane only: the exchange's delta filter. A shard
    /// re-ships a link's state (load, Hessian diagonal, dual) only when
    /// any of the three moved by more than this since the last round it
    /// shipped that link (loads/Hessians in Gbit/s terms, duals in
    /// price units); receivers keep pricing the last shipped value
    /// meanwhile. `0.0` (the default) ships every *changed* link —
    /// identical arithmetic to a dense exchange, with links whose state
    /// has stopped moving costing no exchange bytes (an idle link still
    /// re-ships while its initial dual decays; a small positive value
    /// cuts that tail). Larger values trade pricing precision on
    /// slow-moving links for exchange bandwidth.
    pub exchange_delta_eps: f64,
    /// Sharded control plane only: run the shards' per-tick work
    /// (intake bookkeeping, allocator iterations, update export) on the
    /// worker pool's per-shard OS threads instead of sequentially on the
    /// caller. On by default; the output is bit-for-bit identical either
    /// way — the flag exists for single-core hosts and for debugging.
    /// With one shard there is nothing to parallelize and the sequential
    /// path is always taken.
    pub parallel_shards: bool,
    /// Sharded control plane only: how endpoints map to shards (the
    /// `--placement` flag). [`PlacementSpec::Contiguous`] (the default)
    /// is the historical equal-range split, bit-for-bit identical to
    /// pre-placement builds; [`PlacementSpec::Traffic`] groups
    /// communicating racks into the same shard from a traffic matrix
    /// supplied to the builder
    /// ([`ServiceBuilder::traffic_matrix`](crate::ServiceBuilder::traffic_matrix)),
    /// which shrinks the link state the inter-shard exchange must ship
    /// and falls back to contiguous when no matrix is available. Ignored
    /// by unsharded services.
    ///
    /// This field is builder *input*, not service state: the
    /// authoritative mapping is the materialized
    /// [`Placement`](crate::Placement) reported by
    /// [`ShardedService::placement`](crate::ShardedService::placement)
    /// (whose `strategy()` honestly reports `contiguous` after a
    /// fallback). Constructors with no traffic-matrix channel
    /// ([`ShardedService::new`](crate::ShardedService::new),
    /// [`ShardedService::from_shards`](crate::ShardedService::from_shards))
    /// always materialize the contiguous fallback whatever this spec
    /// says.
    pub placement: PlacementSpec,
}

impl Default for FlowtuneConfig {
    fn default() -> Self {
        Self {
            update_threshold: 0.01,
            flowlet_idle_ps: 30_000_000, // 30 µs
            f_norm: true,
            incremental: true,
            full_sweep_every: 64,
            dirty_eps: 1e-9,
            exchange_every: 0,
            exchange_delta_eps: 0.0,
            parallel_shards: true,
            placement: PlacementSpec::Contiguous,
        }
    }
}

impl FlowtuneConfig {
    /// The capacity fraction the allocator may hand out: §6.4 "the
    /// allocator adjusts the available link capacities by the threshold".
    pub fn capacity_fraction(&self) -> f64 {
        1.0 - self.update_threshold
    }

    /// Whether an exchange round is due on tick `tick` (counted from 1)
    /// of a `shards`-shard control plane: the exchange is on, there is
    /// another shard to exchange with, and the cadence divides the tick.
    pub fn exchange_due(&self, tick: u64, shards: usize) -> bool {
        self.exchange_every > 0 && shards > 1 && tick.is_multiple_of(self.exchange_every)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = FlowtuneConfig::default();
        assert_eq!(flowtune_alloc::GAMMA, 0.4);
        assert_eq!(TICK_INTERVAL_PS, 10_000_000);
        assert_eq!(c.update_threshold, 0.01);
        assert!((c.capacity_fraction() - 0.99).abs() < 1e-12);
        // Every service ticks incrementally at wire precision: a rate
        // leaves only as a `Rate16` past the 1 % threshold, so re-pricing
        // below a quarter step changes nothing an endpoint can see.
        assert!(c.incremental);
        assert_eq!(c.full_sweep_every, 64);
        assert_eq!(c.dirty_eps, 1e-9);
        // The grid's own default stays the exact full sweep.
        let a = flowtune_alloc::AllocConfig::default();
        assert!(!a.incremental);
        assert_eq!(a.dirty_eps, 0.0);
        // Exchange is opt-in: the default preserves the independent-shard
        // behavior sharded deployments had before the exchange existed.
        assert_eq!(c.exchange_every, 0);
        // The delta filter defaults to "ship exact changes only", which
        // keeps the exchange arithmetic identical to a dense exchange.
        assert_eq!(c.exchange_delta_eps, 0.0);
        // Sharded ticks run concurrently by default (the sequential path
        // is a debugging/bit-for-bit-checking fallback).
        assert!(c.parallel_shards);
        // Placement defaults to the historical contiguous ranges, so
        // existing sharded deployments keep their exact routing.
        assert_eq!(c.placement, PlacementSpec::Contiguous);
    }

    #[test]
    fn exchange_config_groups_the_flowtune_knobs() {
        // The peer-runtime knobs default to a 1 s barrier and a
        // staleness bound of 8 missed barriers, whatever the flat config
        // says about the cadence.
        let flat = FlowtuneConfig {
            exchange_every: 4,
            exchange_delta_eps: 1e-6,
            ..FlowtuneConfig::default()
        };
        let ex = ExchangeConfig::from_flowtune(&flat);
        assert_eq!(ex, ExchangeConfig::default());
        assert_eq!(ex.round_timeout, Duration::from_secs(1));
        assert_eq!(ex.max_rounds_behind, 8);
        let ex = ex
            .round_timeout(Duration::from_millis(20))
            .max_rounds_behind(3);
        assert_eq!(ex.round_timeout, Duration::from_millis(20));
        assert_eq!(ex.max_rounds_behind, 3);
        // The cadence divides the tick, needs a second shard, and is off
        // by default.
        assert!(flat.exchange_due(8, 2));
        assert!(!flat.exchange_due(6, 2));
        assert!(!flat.exchange_due(8, 1));
        assert!(!FlowtuneConfig::default().exchange_due(8, 2));
    }
}

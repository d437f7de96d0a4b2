//! The sharded control plane in one process: N independent allocator
//! services, one slice of the endpoint space each, ticked concurrently.
//!
//! The paper scales NED across cores of one machine (§5); the next scaling
//! step is to partition the *allocator itself* so independent fabric
//! blocks are served by independent services — the path to multi-socket
//! and multi-host allocators (cf. FairQ, arXiv:2401.04850: centralized
//! rate allocation survives at scale only when the allocator is
//! partitioned).
//!
//! [`ShardedService`] is the [`Router`] over the
//! [`InProcess`] shard set. Everything that makes the partition invisible
//! to endpoints — routing by source endpoint through a
//! [`Placement`] (the default is contiguous, equal server ranges: when
//! the shard count equals the fabric's block count a shard's range is
//! exactly one §5 block, so a shard's flows enter the fabric through its
//! own up-LinkBlock; a traffic-aware placement groups communicating racks
//! instead, see [`crate::placement`]), the token→shard table, duplicate
//! and stray accounting, the stream merge and stat aggregation — is the
//! router's, and shared with every other plane (see [`crate::router`]).
//! This module is what is particular to shards that share an address
//! space: how they tick and how their link state meets. Each shard runs
//! a full [`AllocatorService`] over the whole fabric but sees only its
//! own flows.
//!
//! # The two-phase tick
//!
//! A tick ([`ShardSet::tick`] of [`InProcess`]) runs in two phases
//! separated by a barrier:
//!
//! 1. **allocate ∥** — every shard's per-tick work (engine iterations,
//!    threshold-filtered update export, and — when an exchange round is
//!    due — its link-state export into reusable buffers) runs
//!    *concurrently*, one shard per slot of a persistent
//!    [`flowtune_alloc::WorkerPool`] whose OS threads park between
//!    ticks. Shards share nothing during this phase (each prices links
//!    from its own flows plus the background state installed by the
//!    *previous* exchange round), so concurrency cannot change the
//!    arithmetic: the output is bit-for-bit identical to ticking the
//!    shards one after another.
//! 2. **exchange-barrier, install** — once every shard is done (the
//!    pool's fan-out *is* the barrier), the exchange (when due) runs on
//!    the caller thread — each shard's delta filter into its row of the
//!    shared link-state table, the cross-shard consensus once, then per
//!    shard the background load/Hessian sums and the installs — and the
//!    shards' token-ordered update streams are handed to the router,
//!    which k-way merges them into one (disjoint token sets make the
//!    merge exact).
//!
//! [`FlowtuneConfig::parallel_shards`](crate::FlowtuneConfig) (default
//! on) sizes phase 1's pool: one slot per shard, or — turned off, or
//! with one shard — a single slot that ticks the shards one after
//! another on the caller's thread. Same bytes out either way; the
//! one-slot pool is useful on single-core hosts and as the reference in
//! equivalence tests. A shard whose engine
//! panics mid-tick is *contained*: siblings complete, the pool survives,
//! and [`TickDriver::try_tick_into`](crate::TickDriver::try_tick_into)
//! reports [`ServiceError::ShardPanicked`] instead of aborting the
//! process.
//!
//! # Cross-shard link-state exchange
//!
//! Partitioning alone is exact (bit-for-bit) only for workloads whose
//! links each carry a single shard's flows. When shards *do* contend for
//! a link (e.g. a many-to-one incast from several blocks), each shard in
//! isolation would price the link for its own flows alone, and the merged
//! allocation could over-subscribe it by up to a factor of the shard
//! count — per-shard F-NORM bounds each shard's own contribution but not
//! the sum.
//!
//! The fix is the paper's §5 aggregation step, one level up: a periodic
//! **link-state exchange**. Every
//! [`FlowtuneConfig::exchange_every`](crate::FlowtuneConfig) ticks, each
//! shard exports its per-link loads and Hessian diagonals (the `(G, H)`
//! pair its own price update just used — read back from the engine, not
//! recomputed) and its per-link duals, and the exchange runs three
//! consensus parts:
//!
//! * **load aggregation** — each shard imports the *other* shards' load
//!   sum as exogenous background load
//!   ([`flowtune_alloc::RateAllocator::set_background_loads`]), so its
//!   NED price gradient and F-NORM ratios see the true total utilization
//!   of shared links;
//! * **Hessian aggregation** — likewise for `Σ ∂x/∂p`
//!   ([`flowtune_alloc::RateAllocator::set_background_hessians`]), so
//!   the Newton step divides the global gradient by the *global*
//!   sensitivity; a shard using only its own diagonal takes steps
//!   multiplied by the shard count, which leaves NED's stable γ range;
//! * **dual consensus** — each loaded link's price is set to the
//!   load-weighted mean of the shards' duals
//!   ([`flowtune_alloc::RateAllocator::set_link_prices`]). Background
//!   terms alone pin only a shared link's *total* (any per-shard price
//!   split whose demands sum to capacity is stationary); agreeing on the
//!   dual makes the unsharded optimum the unique fixed point — §5's
//!   single authoritative LinkBlock owner, one level up.
//!
//! ## One shared table, a sparse delta protocol
//!
//! Exports go through the engines' buffer variants
//! ([`flowtune_alloc::RateAllocator::link_state_into`] — the loads and
//! Hessians the engine's last price update summed, scattered to global
//! link ids: `O(links)`, no walk over the flows — and
//! [`flowtune_alloc::RateAllocator::link_prices_into`]) into a per-shard
//! [`LinkExport`] reused every round, so a steady-state exchange
//! allocates nothing. The export is the shard's own link state *as of
//! its last iteration*, and it is taken right after the shard's tick.
//!
//! The shards of one process exchange through **one shared link-state
//! table** ([`crate::exchange`]): a row per shard holding what that
//! shard last shipped, written only by that shard's filter and read by
//! every shard's install. Nothing is encoded or decoded, and a row
//! exists once — not once per reader. What is the same for every shard
//! (the dual consensus, the per-link counts the byte accounting needs)
//! is computed once per round; only the background sums, which leave
//! out the shard's own row, and the subscription mask are per shard.
//! The serialized form of the same round — frames carrying exactly the
//! entries the filters write — exists only between processes, where
//! `flowtune-net`'s shard peers each keep private copies of the rows;
//! both are built from the same filter and the same install math, so
//! they agree bit for bit.
//!
//! The exchange is a **delta protocol**:
//! a shard re-ships a link's `(load, H, dual)` entry only when any of
//! the three moved by more than
//! [`FlowtuneConfig::exchange_delta_eps`](crate::FlowtuneConfig) since
//! the last time it shipped that link; every consumer prices the last
//! shipped value meanwhile. With the default `eps = 0` any change
//! ships, so the installed sums are *identical* to a dense exchange —
//! and links whose whole tuple has stopped moving (converged, or never
//! loaded and fully decayed) cost nothing. Note that an idle link still
//! re-ships while its initial dual decays toward zero under `eps = 0`
//! (and a freshly started system ships nearly everything, each entry
//! paying a 4-byte id the dense protocol didn't) — a small positive
//! `eps` cuts that tail immediately, which is the knob's point.
//! [`ServiceStats::exchange_bytes`] counts the sparse wire size: per
//! shipped entry, a 4-byte link id plus 8 bytes per vector shipped
//! (loads and duals always; Hessian diagonals only for second-order
//! engines), in both directions (deltas out; changed background sums and
//! consensus duals back in).
//!
//! Inbound, the exchange is **subscription-pruned**: a shard imports
//! (and is charged for) another shard's entry only on links it currently
//! prices itself — its own fresh export carries a positive load there
//! (the un-filtered export, so even a load too small to pass the
//! outbound delta filter still subscribes its shard). Link state on
//! a link a shard has no flows on cannot change its allocation (prices
//! enter rates only through flows' paths), so those imports are pure
//! waste; skipping them makes the inbound cost proportional to how many
//! links the partition actually *shares*. That is the lever
//! exchange-aware placement (see [`crate::placement`]) pulls: grouping
//! communicating racks into one shard unshares the hot links, and both
//! the double-shipping and the cross-subscriptions disappear. A shard
//! that gains a flow on a new link subscribes the same round it first
//! exports a load for it (exports are taken after the tick, installs
//! after the exports), so pruning adds no staleness beyond the exchange
//! cadence itself; an unsubscribed link's local dual simply keeps
//! decaying, exactly as if the link were idle.
//!
//! The cadence remains a staleness/bandwidth trade-off: between
//! exchanges a shard prices other shards' traffic at its last imported
//! value, so `exchange_every = 1` tracks cross-shard churn within a tick
//! while larger cadences cut rounds proportionally and lengthen the
//! window in which cross-shard churn is priced stale (F-NORM still
//! bounds the transient, now with a correct total on previously-seen
//! load). `exchange_every = 0` (the default) disables the exchange and
//! preserves the independent-shard behavior exactly. With a single shard
//! there is nothing to exchange and the path is never taken, keeping
//! one-shard deployments bit-for-bit equal to the unsharded service.

use std::time::{Duration, Instant};

use flowtune_alloc::WorkerPool;
use flowtune_proto::Message;
use flowtune_topo::TwoTierClos;

use crate::exchange::{LinkExport, LinkTables, ShardFilter};
use crate::placement::Placement;
use crate::router::{Router, ShardSet};
use crate::service::{AllocatorService, ServiceError, ServiceStats};
use crate::{ExchangeConfig, FlowtuneConfig};

/// N independent [`AllocatorService`] shards of one process behind one
/// [`TickDriver`](crate::TickDriver) face: the [`Router`] over the
/// [`InProcess`] shard set.
pub type ShardedService = Router<InProcess>;

/// One shard: its service, plus the per-tick outputs and export scratch
/// phase 1 writes and phase 2 reads — kept beside the service so the
/// fan-out hands each pool slot one item, and reused across ticks so the
/// hot path does not allocate.
#[derive(Debug)]
struct ShardSlot {
    svc: AllocatorService,
    /// The shard's side of the exchange: the delta filter that writes
    /// its row of the shared [`LinkTables`], and its install.
    filter: ShardFilter,
    /// The shard's token-ordered update stream from this tick; trades
    /// places with the router's merge input once the tick is complete.
    updates: Vec<(u16, Message)>,
    /// Link-state export, refreshed only on exchange rounds.
    export: LinkExport,
    /// Cumulative time spent refreshing `export` — phase 1's share of
    /// the exchange, timed per shard because the shards run it
    /// concurrently.
    refresh_time: Duration,
}

/// The shards of one process (see the module docs): ticked on a worker
/// pool, exchanging link state through one shared table set.
#[derive(Debug)]
pub struct InProcess {
    /// The shards, in partition order.
    slots: Vec<ShardSlot>,
    /// The exchange cadence, from the shards' shared configuration (the
    /// delta filter lives in each slot's [`ShardFilter`]).
    exchange: ExchangeConfig,
    /// Phase 1's pool: a slot per shard (config `parallel_shards` and
    /// more than one shard), its threads parked between ticks, or one
    /// slot, the caller's thread.
    pool: WorkerPool,
    /// Ticks driven so far (the exchange fires when `ticks` is a
    /// multiple of the cadence).
    ticks: u64,
    /// The exchange's one table set: every shard's last-shipped row,
    /// written by that shard's filter and read by every shard's install.
    tables: LinkTables,
    /// The exchange's rounds and logical bytes (zero whenever the
    /// exchange is off).
    counters: ServiceStats,
    /// Cumulative wall time spent in the exchange barrier (phase 2); the
    /// shards' `refresh_time` is the rest of the exchange.
    exchange_time: Duration,
}

impl ShardedService {
    /// Builds `shards` serial-engine shards over `fabric` — the shortcut
    /// mirroring [`AllocatorService::new`].
    ///
    /// # Panics
    /// Panics if `shards` is 0.
    pub fn new(fabric: &TwoTierClos, cfg: FlowtuneConfig, shards: usize) -> Self {
        Self::from_shards(
            (0..shards)
                .map(|_| AllocatorService::new(fabric, cfg))
                .collect(),
        )
    }

    /// Assembles the service from already-built shards (all over the same
    /// fabric) under the contiguous placement: shard `i` owns the `i`-th
    /// contiguous slice of the server space. The shards'
    /// [`FlowtuneConfig::placement`](crate::FlowtuneConfig) spec is *not*
    /// consulted — this constructor has no traffic-matrix channel, and a
    /// `Traffic` spec without a matrix falls back to contiguous anyway;
    /// to materialize a traffic-aware mapping go through
    /// [`ServiceBuilder::build_driver`](crate::ServiceBuilder::build_driver)
    /// or pass an explicit [`Placement`] to
    /// [`ShardedService::with_placement`].
    ///
    /// # Panics
    /// Panics if `shards` is empty or the shards disagree on the fabric
    /// or the configuration.
    pub fn from_shards(shards: Vec<AllocatorService>) -> Self {
        let first = shards
            .first()
            .expect("a sharded service needs at least one shard");
        let placement = Placement::contiguous(first.fabric().config().server_count(), shards.len());
        Self::with_placement(shards, placement)
    }

    /// [`ShardedService::from_shards`] with an explicit endpoint→shard
    /// [`Placement`] (built by [`crate::Placement::contiguous`] or
    /// [`crate::Placement::traffic`];
    /// [`ServiceBuilder::build_driver`](crate::ServiceBuilder::build_driver)
    /// materializes one from
    /// [`FlowtuneConfig::placement`](crate::FlowtuneConfig) and the
    /// builder's traffic matrix).
    ///
    /// # Panics
    /// Panics if `shards` is empty, the shards disagree on the fabric or
    /// the configuration, or the placement's shape (server count, shard
    /// count) does not match.
    pub fn with_placement(shards: Vec<AllocatorService>, placement: Placement) -> Self {
        let cfg = shards
            .first()
            .expect("a sharded service needs at least one shard")
            .config();
        let n = shards.len();
        let set = InProcess {
            slots: shards
                .into_iter()
                .enumerate()
                .map(|(i, svc)| ShardSlot {
                    svc,
                    filter: ShardFilter::new(i as u16, cfg.exchange_delta_eps),
                    updates: Vec::new(),
                    export: LinkExport::default(),
                    refresh_time: Duration::ZERO,
                })
                .collect(),
            exchange: ExchangeConfig::from_flowtune(&cfg),
            pool: WorkerPool::new(if cfg.parallel_shards { n } else { 1 }),
            ticks: 0,
            tables: LinkTables::new(n),
            counters: ServiceStats::default(),
            exchange_time: Duration::ZERO,
        };
        Router::over(set, placement)
    }

    /// Whether ticks run the shards concurrently on the worker pool.
    pub fn parallel_shards(&self) -> bool {
        self.shard_set().pool.size() > 1
    }
}

impl ShardSet for InProcess {
    type Error = ServiceError;
    const NAME: &'static str = "sharded";

    fn shard_count(&self) -> usize {
        self.slots.len()
    }

    fn service(&self, shard: usize) -> &AllocatorService {
        &self.slots[shard].svc
    }

    fn service_mut(&mut self, shard: usize) -> &mut AllocatorService {
        &mut self.slots[shard].svc
    }

    /// The two-phase tick of the module docs. Shard panics are contained:
    /// if a shard's engine panics mid-tick, the sibling shards still
    /// complete their tick, the worker pool survives, and the error names
    /// the dead shard. The panic payload reaches the panic hook (stderr)
    /// as usual.
    ///
    /// # Errors
    /// [`ServiceError::ShardPanicked`] naming the lowest-indexed shard
    /// whose tick panicked.
    // flowtune-lint: hot
    fn tick(&mut self, streams: &mut [Vec<(u16, Message)>]) -> Result<(), ServiceError> {
        self.ticks += 1;
        let exchange = self.exchange.due(self.ticks, self.slots.len());

        // Phase 1: allocate ∥ — every shard ticks (and, on exchange
        // rounds, exports its link state) with no shared state.
        let phase1 = self
            .pool
            .fan_out(&mut self.slots, &|_, slot| tick_shard(slot, exchange));
        if let Err(e) = phase1 {
            return Err(ServiceError::ShardPanicked { shard: e.item() });
        }

        // Phase 2: the fan-out return is the barrier — cross-shard
        // consensus and installs run with every shard's tick complete.
        if exchange {
            let t0 = Instant::now();
            self.exchange_link_state();
            self.exchange_time += t0.elapsed();
        }
        for (slot, stream) in self.slots.iter_mut().zip(streams) {
            std::mem::swap(&mut slot.updates, stream);
        }
        Ok(())
    }

    fn exchange_stats(&self) -> ServiceStats {
        self.counters
    }

    /// The barrier's wall time plus every shard's link-state export, as
    /// `flowtune-net`'s `ShardPeer::tick_export` counts it on the wire
    /// plane. Where the exports ran concurrently the sum is CPU time,
    /// like the other phases of a concurrent tick.
    fn exchange_time(&self) -> Duration {
        let refresh: Duration = self.slots.iter().map(|slot| slot.refresh_time).sum();
        self.exchange_time + refresh
    }

    fn contained(err: &ServiceError) -> Option<ServiceError> {
        Some(*err)
    }
}

impl InProcess {
    /// One round of the inter-shard link-state exchange, in three parts
    /// (the §5 aggregation's `(load, H)` pairs plus its
    /// owner-distributes-the-price step, one level up):
    ///
    /// 1. **Load aggregation** — every shard exports its own per-link
    ///    loads and imports the element-wise sum of the *other* shards'
    ///    shipped loads as exogenous background load, so each shard's
    ///    price gradient and F-NORM ratios see every link's true total.
    /// 2. **Hessian aggregation** — likewise for the per-link Hessian
    ///    diagonal, so each shard's Newton step divides the global
    ///    gradient by the *global* sensitivity. Without this a shard's
    ///    effective step is multiplied by the shard count (its own
    ///    diagonal under-counts `|H|` by the other shards' flows), which
    ///    pushes NED's effective γ out of its stable range from about
    ///    four shards — observed as severe under-allocation.
    /// 3. **Dual consensus** — every shard exports its per-link prices;
    ///    the load-weighted mean becomes each loaded link's consensus
    ///    price, installed into every shard. Background terms alone pin
    ///    only a shared link's *total* (any per-shard price split whose
    ///    demands sum to capacity would be stationary); agreeing on the
    ///    dual makes the unsharded optimum the unique fixed point. Links
    ///    no shard loads keep their per-shard prices (`NaN` in the
    ///    consensus vector) and decay as usual.
    ///
    /// The round runs over the one shared [`LinkTables`]: every shard's
    /// [`ShardFilter`] delta-filters its fresh export into its own row,
    /// [`LinkTables::agree`] computes what is the same for every shard —
    /// the dual consensus and the per-link state counts — once, and every
    /// shard's filter then sums the *other* rows, masks to its
    /// subscriptions and installs into its own service. Nothing is
    /// serialized: the frames a distributed deployment ships carry
    /// exactly the entries the filters write here (see
    /// [`crate::exchange`]). Engines with no second-order term (gradient
    /// projection) skip the Hessian part only.
    // flowtune-lint: hot
    fn exchange_link_state(&mut self) {
        self.tables.start_round();
        for slot in &mut self.slots {
            let LinkExport {
                loads,
                hessians,
                prices,
            } = &slot.export;
            slot.filter
                .export(&mut self.tables, loads, hessians, prices, |_| {});
        }
        // `false` means no shard exported any links — the round does
        // not count.
        if !self.tables.agree() {
            return;
        }
        for slot in &mut self.slots {
            self.counters.exchange_bytes += slot.filter.install(&self.tables, &mut slot.svc);
        }
        self.counters.exchange_rounds += 1;
    }
}

/// One shard's phase-1 work: tick, and on exchange rounds export its link
/// state into the slot's reusable buffers. Runs with no shared state —
/// concurrently on pool slots or sequentially on the caller, with
/// identical results.
// flowtune-lint: hot
fn tick_shard(slot: &mut ShardSlot, export: bool) {
    slot.svc.tick_into(&mut slot.updates);
    if export {
        let t0 = Instant::now();
        slot.export.refresh(&slot.svc);
        slot.refresh_time += t0.elapsed();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TickDriver;
    use flowtune_proto::{Rate16, Token};
    use flowtune_topo::ClosConfig;

    fn fabric() -> TwoTierClos {
        TwoTierClos::build(ClosConfig::multicore(2, 2, 4)) // 16 servers, 2 blocks
    }

    fn start(token: u32, src: u16, dst: u16) -> Message {
        Message::FlowletStart {
            token: Token::new(token),
            src,
            dst,
            size_hint: 100_000,
            weight_q8: 256,
            spine: 1,
        }
    }

    fn sharded(n: usize) -> ShardedService {
        ShardedService::new(&fabric(), FlowtuneConfig::default(), n)
    }

    #[test]
    fn shard_ranges_partition_the_server_space() {
        let svc = sharded(2);
        for src in 0..8u16 {
            assert_eq!(svc.shard_of(src), 0, "src {src}");
        }
        for src in 8..16u16 {
            assert_eq!(svc.shard_of(src), 1, "src {src}");
        }
        // Out-of-range sources clamp (and are then rejected by the shard).
        assert_eq!(svc.shard_of(9999), 1);
        // Shard boundaries coincide with fabric blocks when counts match.
        let f = fabric();
        for src in 0..16u16 {
            assert_eq!(
                svc.shard_of(src),
                f.block_of_server(src as usize).index(),
                "src {src}"
            );
        }
    }

    #[test]
    fn starts_route_by_source_and_ends_follow_tokens() {
        let mut svc = sharded(2);
        svc.on_message(start(1, 0, 12)).unwrap(); // shard 0
        svc.on_message(start(2, 12, 0)).unwrap(); // shard 1
        assert_eq!(svc.shard_for_token(Token::new(1)), Some(0));
        assert_eq!(svc.shard_for_token(Token::new(2)), Some(1));
        assert_eq!(svc.shard_set().slots[0].svc.active_flows(), 1);
        assert_eq!(svc.shard_set().slots[1].svc.active_flows(), 1);
        assert_eq!(svc.active_flows(), 2);
        svc.on_message(Message::FlowletEnd {
            token: Token::new(2),
        })
        .unwrap();
        assert_eq!(svc.shard_set().slots[1].svc.active_flows(), 0);
        assert_eq!(svc.shard_for_token(Token::new(2)), None);
        assert_eq!(svc.stats().ends, 1);
    }

    #[test]
    fn merged_updates_come_out_in_token_order() {
        let mut svc = sharded(2);
        // Interleave tokens across shards: odd tokens on shard 0, even on
        // shard 1.
        for (t, src) in [(1u32, 0u16), (2, 12), (3, 1), (4, 13), (5, 2)] {
            let dst = if src < 8 { src + 8 } else { src - 8 };
            svc.on_message(start(t, src, dst)).unwrap();
        }
        let updates = svc.tick();
        assert_eq!(updates.len(), 5);
        let tokens: Vec<u32> = updates
            .iter()
            .map(|(_, m)| match m {
                Message::RateUpdate { token, .. } => token.get(),
                other => panic!("tick emitted {other:?}"),
            })
            .collect();
        assert_eq!(tokens, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn cross_shard_duplicate_tokens_are_rejected() {
        let mut svc = sharded(2);
        svc.on_message(start(7, 0, 12)).unwrap();
        // Same token, different source — routes to the *other* shard, so
        // only the routing layer can catch it.
        let err = svc.on_message(start(7, 12, 0)).unwrap_err();
        assert_eq!(err, ServiceError::DuplicateToken(Token::new(7)));
        assert_eq!(svc.stats().rejected, 1);
        assert_eq!(svc.active_flows(), 1);
        assert_eq!(svc.shard_for_token(Token::new(7)), Some(0));
    }

    #[test]
    fn stray_rate_updates_and_unknown_ends_are_counted() {
        let mut svc = sharded(3);
        let upd = Message::RateUpdate {
            token: Token::new(5),
            rate: Rate16::encode(1.0),
        };
        assert_eq!(svc.on_message(upd), Err(ServiceError::UnexpectedRateUpdate));
        let end = Message::FlowletEnd {
            token: Token::new(9),
        };
        svc.on_message(end).unwrap();
        let st = svc.stats();
        assert_eq!(st.rejected, 1);
        assert_eq!(st.bytes_in, (upd.encoded_len() + end.encoded_len()) as u64);
        assert_eq!(st.ends, 0);
    }

    #[test]
    fn malformed_starts_are_rejected_by_the_owning_shard() {
        let mut svc = sharded(2);
        let err = svc.on_message(start(1, 9999, 0)).unwrap_err();
        assert!(matches!(err, ServiceError::MalformedStart(_)), "{err}");
        assert_eq!(svc.active_flows(), 0);
        assert_eq!(svc.stats().rejected, 1);
        assert_eq!(svc.shard_for_token(Token::new(1)), None);
    }

    #[test]
    fn exchange_fires_on_cadence_and_counts_bounded_traffic() {
        let f = fabric();
        let cfg = FlowtuneConfig {
            exchange_every: 4,
            ..FlowtuneConfig::default()
        };
        let mut svc = ShardedService::new(&f, cfg, 2);
        // One cross-block flow per shard, on disjoint paths.
        svc.on_message(start(1, 0, 12)).unwrap();
        svc.on_message(start(2, 8, 4)).unwrap();
        for _ in 0..10 {
            svc.tick();
        }
        let st = svc.stats();
        assert_eq!(st.exchange_rounds, 2, "rounds at ticks 4 and 8");
        // A round can never cost more than every link shipped by every
        // shard in both directions; the exact early-round counts are
        // pinned against the exports in the exact-accounting test, and
        // the steady-state win over the dense protocol in the delta-
        // filter test.
        let worst = st.exchange_rounds * 2 * 2 * f.topology().link_count() as u64 * (4 + 8 * 3);
        assert!(st.exchange_bytes > 0);
        assert!(
            st.exchange_bytes <= worst,
            "{} > {worst}",
            st.exchange_bytes
        );
    }

    #[test]
    fn exchange_bytes_count_exactly_the_shipped_entries() {
        // One tick, one exchange round, fresh tables: the delta filter
        // must ship exactly the entries whose (load, dual, Hessian)
        // tuple differs from the all-zero tables, and the byte counter
        // must equal id + three 8-byte values per entry, in both
        // directions. The expectation is recomputed independently from
        // the public exports of a *no-exchange twin* — same flows, same
        // single tick — because the exchanging service's own exports are
        // already mutated by the round's consensus install. In
        // particular, links with zero load but a decaying initial dual
        // ship (receivers track the dual), while links whose whole tuple
        // is zero never do.
        let f = fabric();
        let mk = |exchange_every| {
            let cfg = FlowtuneConfig {
                exchange_every,
                ..FlowtuneConfig::default()
            };
            let mut svc = ShardedService::new(&f, cfg, 2);
            svc.on_message(start(1, 0, 12)).unwrap(); // shard 0
            svc.on_message(start(2, 8, 4)).unwrap(); // shard 1
            svc.tick();
            svc
        };
        let svc = mk(1);
        let twin = mk(0);
        assert_eq!(twin.stats().exchange_bytes, 0, "twin must not exchange");
        let entry = 4 + 8 * 3; // id + load + dual + Hessian (serial NED)
        let exports: Vec<(Vec<f64>, Vec<f64>, Vec<f64>)> = twin
            .shards()
            .map(|s| {
                let (mut loads, mut prices, mut hess) = (Vec::new(), Vec::new(), Vec::new());
                s.link_state_into(&mut loads, &mut hess);
                s.link_prices_into(&mut prices);
                (loads, prices, hess)
            })
            .collect();
        let dirty: Vec<Vec<bool>> = exports
            .iter()
            .map(|(loads, prices, hess)| {
                (0..loads.len())
                    .map(|l| loads[l] != 0.0 || prices[l] != 0.0 || hess[l] != 0.0)
                    .collect()
            })
            .collect();
        // Out: each shard's dirty entries. In: each shard *subscribes*
        // only to the links it prices (its own load is positive), so it
        // receives the other shard's dirty entries on exactly those.
        let out: usize = dirty.iter().map(|d| d.iter().filter(|&&x| x).count()).sum();
        let recv_into = |me: usize, other: usize| -> usize {
            dirty[other]
                .iter()
                .enumerate()
                .filter(|&(l, &d)| d && exports[me].0[l] > 0.0)
                .count()
        };
        let entries = out + recv_into(0, 1) + recv_into(1, 0);
        assert!(entries > 0, "a first round must ship something");
        // Only shipped entries are counted (the PR 4 satellite fix: the
        // old dense accounting charged six full vectors per shard
        // whatever moved), and inbound only on subscribed links (this
        // PR: a shard with no flows on a link imports nothing for it).
        // On this fresh system every link is dirty outbound (initial
        // duals are decaying everywhere), but each shard's two disjoint
        // flows subscribe it to just its own four path links; the
        // delta-filter test covers the converged end where almost
        // nothing ships at all.
        assert!(entries < 2 * dirty[0].len() * 2, "pruning must bite");
        assert_eq!(svc.stats().exchange_bytes, (entries * entry) as u64);
    }

    #[test]
    fn delta_filter_stops_shipping_once_converged() {
        let f = fabric();
        let cfg = FlowtuneConfig {
            exchange_every: 1,
            exchange_delta_eps: 1e-6,
            ..FlowtuneConfig::default()
        };
        let mut svc = ShardedService::new(&f, cfg, 2);
        svc.on_message(start(1, 0, 12)).unwrap();
        svc.on_message(start(2, 8, 4)).unwrap();
        for _ in 0..300 {
            svc.tick();
        }
        let settled = svc.stats().exchange_bytes;
        for _ in 0..50 {
            svc.tick();
        }
        let st = svc.stats();
        assert_eq!(st.exchange_rounds, 350, "rounds keep firing");
        assert_eq!(
            st.exchange_bytes, settled,
            "converged state moves less than eps, so nothing ships"
        );
        // This is where the sparse protocol earns its keep: a dense
        // exchange would have shipped six full 8-byte-per-link vectors
        // per shard on every one of the 350 rounds.
        let dense = st.exchange_rounds * 6 * 8 * f.topology().link_count() as u64 * 2;
        assert!(
            st.exchange_bytes < dense / 5,
            "sparse {} vs dense {dense}",
            st.exchange_bytes
        );
    }

    #[test]
    fn a_new_subscriber_pays_catch_up_for_state_it_is_handed() {
        // Two runs, identical except for where the late flow lands: on a
        // receiver whose links shard 0 already prices (shared), or on a
        // fully disjoint path. In both, the late shard newly subscribes
        // to 4 links and ships 4 entries; in the shared case the round
        // additionally carries shard 0's fresh imports of the 2 shared
        // entries — the difference the wire must pay for sharing a
        // receiver. (Catch-up for state held from the decay era is
        // charged identically in both runs: `last` tables hold nonzero
        // final-shipped prices everywhere.)
        let f = fabric();
        let cfg = FlowtuneConfig {
            exchange_every: 1,
            exchange_delta_eps: 1e-3,
            ..FlowtuneConfig::default()
        };
        let run = |late_dst: u16| {
            let mut svc = ShardedService::new(&f, cfg, 2);
            svc.on_message(start(1, 0, 12)).unwrap(); // shard 0
            for _ in 0..300 {
                svc.tick();
            }
            let settled = svc.stats().exchange_bytes;
            svc.tick();
            assert_eq!(svc.stats().exchange_bytes, settled, "must be converged");
            svc.on_message(start(2, 8, late_dst)).unwrap(); // shard 1
            svc.tick();
            svc.stats().exchange_bytes - settled
        };
        // start() pins spine 1, so (8 → 12) shares exactly two links with
        // (0 → 12): the spine→ToR down link and the receiver's access
        // link. (8 → 4) shares none.
        let shared = run(12);
        let disjoint = run(4);
        assert!(disjoint > 0, "a new flow's links must ship");
        let entry = 4 + 8 * 3;
        assert_eq!(
            shared,
            disjoint + 2 * entry,
            "sharing a receiver must cost exactly the 2 shared links' fresh imports"
        );
    }

    #[test]
    fn phase_timings_cover_the_whole_exchange() {
        let mk = |exchange_every| {
            let cfg = FlowtuneConfig {
                exchange_every,
                ..FlowtuneConfig::default()
            };
            let mut svc = ShardedService::new(&fabric(), cfg, 2);
            svc.on_message(start(1, 0, 12)).unwrap();
            svc.on_message(start(2, 8, 4)).unwrap();
            svc
        };
        // Every exchange round costs each shard a link-state export
        // (phase 1) and the caller the barrier (phase 2): both count.
        let mut svc = mk(1);
        assert_eq!(svc.phase_timings().exchange, Duration::ZERO);
        let mut before = Duration::ZERO;
        for _ in 0..20 {
            svc.tick();
            let now = svc.phase_timings().exchange;
            assert!(now > before, "an exchange round takes time");
            before = now;
        }
        let set = svc.shard_set();
        let refresh: Duration = set.slots.iter().map(|s| s.refresh_time).sum();
        assert!(set.slots.iter().all(|s| s.refresh_time > Duration::ZERO));
        assert!(set.exchange_time > Duration::ZERO);
        assert_eq!(svc.phase_timings().exchange, set.exchange_time + refresh);
        // No exchange, no exchange time — the shards never export.
        let mut off = mk(0);
        for _ in 0..20 {
            off.tick();
        }
        assert_eq!(off.phase_timings().exchange, Duration::ZERO);
        assert!(off.phase_timings().export > Duration::ZERO);
    }

    #[test]
    fn single_shard_never_exchanges() {
        let cfg = FlowtuneConfig {
            exchange_every: 1,
            ..FlowtuneConfig::default()
        };
        let mut svc = ShardedService::new(&fabric(), cfg, 1);
        svc.on_message(start(1, 0, 12)).unwrap();
        for _ in 0..5 {
            svc.tick();
        }
        let st = svc.stats();
        assert_eq!(st.exchange_rounds, 0);
        assert_eq!(st.exchange_bytes, 0);
    }

    #[test]
    fn sequential_fallback_matches_parallel_configuration() {
        let cfg = FlowtuneConfig {
            parallel_shards: false,
            ..FlowtuneConfig::default()
        };
        let svc = ShardedService::new(&fabric(), cfg, 2);
        assert!(!svc.parallel_shards());
        // And a single shard never takes the pool path regardless.
        let one = ShardedService::new(&fabric(), FlowtuneConfig::default(), 1);
        assert!(!one.parallel_shards());
        let par = ShardedService::new(&fabric(), FlowtuneConfig::default(), 2);
        assert!(par.parallel_shards());
    }

    #[test]
    fn link_loads_sum_over_shards() {
        let f = fabric();
        let mut svc = sharded(2);
        svc.on_message(start(1, 0, 12)).unwrap(); // shard 0
        svc.on_message(start(2, 8, 4)).unwrap(); // shard 1
        for _ in 0..200 {
            svc.tick();
        }
        let loads = svc.link_loads();
        assert_eq!(loads.len(), f.topology().link_count());
        // Each flow converged to ~line rate on its own links; the sum
        // over all links is 4 hops × ~39.6 G × 2 flows.
        let total: f64 = loads.iter().sum();
        assert!((total - 2.0 * 4.0 * 39.6).abs() < 1.0, "total {total}");
    }

    #[test]
    fn default_placement_is_contiguous_and_shapes_must_match() {
        let svc = sharded(2);
        assert_eq!(svc.placement().strategy(), "contiguous");
        assert_eq!(svc.placement().servers(), 16);
        assert_eq!(svc.placement().shard_count(), 2);
    }

    #[test]
    #[should_panic(expected = "exactly the built shards")]
    fn with_placement_rejects_a_mismatched_placement() {
        let f = fabric();
        let shards: Vec<AllocatorService> = (0..2)
            .map(|_| AllocatorService::new(&f, FlowtuneConfig::default()))
            .collect();
        let _ = ShardedService::with_placement(shards, crate::Placement::contiguous(16, 3));
    }

    #[test]
    fn single_flow_converges_like_an_unsharded_service() {
        let mut svc = sharded(2);
        svc.on_message(start(1, 0, 12)).unwrap();
        for _ in 0..200 {
            svc.tick();
        }
        let rate = svc.flow_rate_gbps(Token::new(1)).unwrap();
        assert!((rate - 39.6).abs() < 0.2, "rate {rate}"); // 40 G × 0.99
    }
}

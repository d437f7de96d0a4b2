//! The sharded control plane: N independent allocator services, one slice
//! of the endpoint space each, ticked concurrently.
//!
//! The paper scales NED across cores of one machine (§5); the next scaling
//! step is to partition the *allocator itself* so independent fabric
//! blocks are served by independent services — the path to multi-socket
//! and multi-host allocators (cf. FairQ, arXiv:2401.04850: centralized
//! rate allocation survives at scale only when the allocator is
//! partitioned).
//!
//! [`ShardedService`] routes every `FlowletStart` to the shard that owns
//! its **source endpoint**, as decided by a
//! [`Placement`]: the default is contiguous,
//! equal server ranges (when the shard count equals the fabric's block count a
//! shard's range is exactly one §5 block, so a shard's flows enter the
//! fabric through its own up-LinkBlock), and a traffic-aware placement
//! groups communicating racks instead (see [`crate::placement`]).
//! Token-addressed messages (`FlowletEnd`) follow a token→shard routing
//! table. Each shard runs a full [`AllocatorService`] over the whole
//! fabric but sees only its own flows.
//!
//! A placement can be swapped at run time — a **re-placement epoch** —
//! with [`ShardedService::replace`]: tokens whose source endpoint now
//! belongs to a different shard are migrated deterministically (in
//! ascending token order, engine state detached from the old shard and
//! re-registered in the new one), after which the migrated flows
//! re-converge under their new shard's prices. The service accumulates
//! the signals a re-placement decision needs while it runs: a rack-level
//! traffic matrix from flowlet intake ([`ShardedService::observed_matrix`])
//! and the exchange's cumulative per-link ship counters
//! ([`ShardedService::exchange_shipped_counts`] — links that keep
//! re-shipping under churn are the shared hot links a better placement
//! would unshare).
//!
//! # The two-phase tick
//!
//! [`ShardedService::tick`] runs in two phases separated by a barrier:
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
//!    pool's fan-out *is* the barrier), the routing layer runs the
//!    exchange (when due) on the caller thread — each shard's delta
//!    filter into its row of the shared link-state table, the
//!    cross-shard consensus once, then per shard the background
//!    load/Hessian sums and the installs — and k-way merges the shards'
//!    token-ordered update streams into one (disjoint token sets make
//!    the merge exact).
//!
//! [`FlowtuneConfig::parallel_shards`](crate::FlowtuneConfig) (default
//! on) selects phase 1's concurrent path; turning it off ticks the shards
//! sequentially on the caller — same bytes out, useful on single-core
//! hosts and as the reference in equivalence tests. A shard whose engine
//! panics mid-tick is *contained*: siblings complete, the pool survives,
//! and [`ShardedService::try_tick`] reports
//! [`ServiceError::ShardPanicked`] instead of aborting the process.
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
//! pair its own price update uses) and its per-link duals, and the
//! routing layer runs three consensus parts:
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
//! ([`flowtune_alloc::RateAllocator::link_state_into`] — loads and
//! Hessians in one walk over the flows — and
//! [`flowtune_alloc::RateAllocator::link_prices_into`]) into per-shard
//! scratch reused every round, so a steady-state exchange allocates
//! nothing.
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
//! preserves the independent-shard behavior exactly; engines that do not
//! price fabric links (Fastpass) export nothing and the exchange
//! degrades to a no-op over them. With a single shard there is nothing
//! to exchange and the path is never taken, keeping one-shard
//! deployments bit-for-bit equal to the unsharded service.

use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::time::{Duration, Instant};

use flowtune_alloc::{RateAllocator, SerialAllocator, WorkerPool};
use flowtune_proto::{Message, Token};
use flowtune_topo::TwoTierClos;

use crate::driver::{PhaseTimings, TickDriver};
use crate::exchange::{LinkTables, ShardFilter};
use crate::placement::{Placement, TrafficMatrix};
use crate::service::{AllocatorService, ServiceError, ServiceStats};
use crate::FlowtuneConfig;

/// One shard: its service, plus the per-tick outputs and export scratch
/// phase 1 writes and phase 2 reads — kept beside the service so the
/// fan-out hands each pool slot one item, and reused across ticks so the
/// hot path does not allocate.
#[derive(Debug)]
struct ShardSlot<E: RateAllocator> {
    svc: AllocatorService<E>,
    /// The shard's side of the exchange: the delta filter that writes
    /// its row of the shared [`LinkTables`], and its install.
    filter: ShardFilter,
    /// The shard's token-ordered update stream from this tick.
    updates: Vec<(u16, Message)>,
    /// Link-state exports, refreshed only on exchange rounds.
    loads: Vec<f64>,
    hessians: Vec<f64>,
    prices: Vec<f64>,
}

/// N independent [`AllocatorService`] shards behind one
/// [`TickDriver`] face.
#[derive(Debug)]
pub struct ShardedService<E: RateAllocator = SerialAllocator> {
    /// The shards, in partition order.
    slots: Vec<ShardSlot<E>>,
    /// token → shard, for `FlowletEnd` routing and rate queries.
    route: HashMap<Token, u32>,
    /// The endpoint→shard mapping `FlowletStart`s route by; swapped by
    /// [`ShardedService::replace`].
    placement: Placement,
    /// Servers per rack, for the observed matrix's rack granularity.
    servers_per_rack: usize,
    /// Rack-level traffic matrix accumulated from accepted starts — the
    /// online placement signal.
    observed: TrafficMatrix,
    /// Cumulative count of exchange entries shipped per link (summed
    /// over shards) — the re-placement *trigger* signal: links that keep
    /// re-shipping are shared hot links.
    shipped_totals: Vec<u64>,
    /// Counters for messages the routing layer disposed of itself
    /// (duplicates, unknown ends, stray rate updates) and for the
    /// link-state exchange — folded into [`ShardedService::stats`] so the
    /// aggregate matches an unsharded service byte for byte (the exchange
    /// counters are zero whenever the exchange is off).
    local: ServiceStats,
    /// Exchange cadence in ticks, copied from the shards' shared
    /// configuration (0 = disabled).
    exchange_every: u64,
    /// The exchange's delta filter in Gbit/s (see the module docs).
    exchange_delta_eps: f64,
    /// Whether phase 1 runs on the worker pool (config `parallel_shards`
    /// and more than one shard).
    parallel: bool,
    /// Per-shard OS threads for the concurrent tick, created on the first
    /// parallel tick and parked between ticks.
    pool: Option<WorkerPool>,
    /// Ticks driven so far (the exchange fires when `ticks` is a
    /// multiple of the cadence).
    ticks: u64,
    /// The merge's input list: after phase 1 each shard's `updates`
    /// buffer is swapped in here, the merge drains it, and the next
    /// tick's swap hands the emptied buffer back to the shard.
    streams: Vec<Vec<(u16, Message)>>,
    /// The exchange's one table set: every shard's last-shipped row,
    /// written by that shard's filter and read by every shard's install.
    tables: LinkTables,
    /// Cumulative wall time spent in the exchange barrier (phase 2),
    /// reported as [`PhaseTimings::exchange`].
    exchange_time: Duration,
}

impl ShardedService {
    /// Builds `shards` serial-engine shards over `fabric` — the
    /// compile-time shortcut mirroring [`AllocatorService::new`].
    ///
    /// # Panics
    /// Panics if `shards` is 0.
    pub fn new(fabric: &TwoTierClos, cfg: FlowtuneConfig, shards: usize) -> Self {
        assert!(shards > 0, "a sharded service needs at least one shard");
        Self::from_shards(
            (0..shards)
                .map(|_| AllocatorService::new(fabric, cfg))
                .collect(),
        )
    }
}

impl<E: RateAllocator> ShardedService<E> {
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
    /// or on the exchange/parallelism/placement configuration.
    pub fn from_shards(shards: Vec<AllocatorService<E>>) -> Self {
        assert!(
            !shards.is_empty(),
            "a sharded service needs at least one shard"
        );
        let placement =
            Placement::contiguous(shards[0].fabric().config().server_count(), shards.len());
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
    /// on the exchange/parallelism/placement configuration, or the
    /// placement's shape (server count, shard count) does not match.
    pub fn with_placement(shards: Vec<AllocatorService<E>>, placement: Placement) -> Self {
        assert!(
            !shards.is_empty(),
            "a sharded service needs at least one shard"
        );
        let clos = shards[0].fabric().config().clone();
        assert!(
            shards.iter().all(|s| *s.fabric().config() == clos),
            "all shards must serve the same fabric"
        );
        let cfg = shards[0].config();
        assert!(
            shards.iter().all(|s| {
                let c = s.config();
                c.exchange_every == cfg.exchange_every
                    && c.exchange_delta_eps == cfg.exchange_delta_eps
                    && c.parallel_shards == cfg.parallel_shards
                    && c.placement == cfg.placement
                    && c.incremental == cfg.incremental
                    && c.full_sweep_every == cfg.full_sweep_every
                    && c.dirty_eps == cfg.dirty_eps
            }),
            "all shards must agree on the exchange, parallelism, placement and incremental configuration"
        );
        assert_eq!(
            placement.servers(),
            clos.server_count(),
            "placement must cover exactly the fabric's servers"
        );
        assert_eq!(
            placement.shard_count(),
            shards.len(),
            "placement must map onto exactly the built shards"
        );
        let n = shards.len();
        let racks = clos.server_count() / clos.servers_per_rack;
        Self {
            parallel: cfg.parallel_shards && n > 1,
            slots: shards
                .into_iter()
                .enumerate()
                .map(|(i, svc)| ShardSlot {
                    svc,
                    filter: ShardFilter::new(i as u16, cfg.exchange_delta_eps),
                    updates: Vec::new(),
                    loads: Vec::new(),
                    hessians: Vec::new(),
                    prices: Vec::new(),
                })
                .collect(),
            streams: (0..n).map(|_| Vec::new()).collect(),
            route: HashMap::new(),
            placement,
            servers_per_rack: clos.servers_per_rack,
            observed: TrafficMatrix::new(racks),
            shipped_totals: Vec::new(),
            local: ServiceStats::default(),
            exchange_every: cfg.exchange_every,
            exchange_delta_eps: cfg.exchange_delta_eps.max(0.0),
            pool: None,
            ticks: 0,
            tables: LinkTables::new(n),
            exchange_time: Duration::ZERO,
        }
    }

    /// The inter-shard link-state exchange cadence in ticks (0 =
    /// disabled).
    pub fn exchange_every(&self) -> u64 {
        self.exchange_every
    }

    /// The exchange's delta filter in Gbit/s (see the module docs).
    pub fn exchange_delta_eps(&self) -> f64 {
        self.exchange_delta_eps
    }

    /// Whether ticks run the shards concurrently on the worker pool.
    pub fn parallel_shards(&self) -> bool {
        self.parallel
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.slots.len()
    }

    /// Read access to the shards, in partition order.
    pub fn shards(&self) -> impl ExactSizeIterator<Item = &AllocatorService<E>> {
        self.slots.iter().map(|slot| &slot.svc)
    }

    /// The shard owning source endpoint `src`, per the current
    /// [`Placement`] (under the default contiguous placement, shard =
    /// block when the shard count equals the fabric's block count).
    /// Out-of-range endpoints clamp to the last server's shard, whose
    /// service rejects them as [`ServiceError::MalformedStart`].
    pub fn shard_of(&self, src: u16) -> usize {
        self.placement.shard_of(src)
    }

    /// The endpoint→shard mapping currently routing `FlowletStart`s.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// The rack-level traffic matrix accumulated from accepted flowlet
    /// starts since construction (offered bytes by `size_hint`, floored
    /// at 1 so zero-hint flowlets still register) — the online signal
    /// [`crate::Placement::traffic`] consumes for a re-placement epoch.
    pub fn observed_matrix(&self) -> &TrafficMatrix {
        &self.observed
    }

    /// Cumulative count of exchange entries shipped per link (summed over
    /// shards; indexed by global link id, empty until the first exchange
    /// round). Links that keep re-shipping under steady churn are the
    /// shared hot links an exchange-aware placement would unshare — a
    /// rising tail here is the signal to compute a fresh placement from
    /// [`ShardedService::observed_matrix`] and call
    /// [`ShardedService::replace`].
    pub fn exchange_shipped_counts(&self) -> &[u64] {
        &self.shipped_totals
    }

    /// Installs a new [`Placement`] — a **re-placement epoch**. Every
    /// active flowlet whose source endpoint now belongs to a different
    /// shard is migrated: detached from its old shard (engine state and
    /// threshold-filter memory dropped) and re-registered in the new one,
    /// in ascending token order so the epoch is deterministic. Migrated
    /// flows re-enter their engine at the initial rate and re-converge
    /// under the new shard's prices (F-NORM keeps the transient
    /// feasible); unmoved flows are untouched. Aggregate stats do not
    /// move — migration is not intake churn. Returns the number of flows
    /// migrated.
    ///
    /// The exchange's last-shipped rows are deliberately kept: they
    /// record what the other shards are still pricing, and the delta
    /// filter re-ships exactly what the migration moved on the next
    /// round. (A distributed cluster additionally re-ships unmoved
    /// entries as catch-up records after an epoch, for peers whose copies
    /// of the rows may be stale; here every shard reads the one table
    /// set, which cannot be.)
    ///
    /// # Panics
    /// Panics if the placement's shape (server count, shard count) does
    /// not match this service.
    pub fn replace(&mut self, placement: Placement) -> usize {
        assert_eq!(
            placement.servers(),
            self.placement.servers(),
            "replacement must cover the same server space"
        );
        assert_eq!(
            placement.shard_count(),
            self.slots.len(),
            "replacement must map onto the same shard count"
        );
        // flowtune-lint: allow(float-determinism, "snapshot is sorted by token before any flow moves")
        let mut tokens: Vec<(Token, u32)> = self.route.iter().map(|(&t, &s)| (t, s)).collect();
        tokens.sort_unstable_by_key(|&(t, _)| t);
        let mut moved = 0;
        for (token, old) in tokens {
            let src = self.slots[old as usize]
                .svc
                .flow_source(token)
                .expect("routed token must be registered in its shard");
            let new = placement.shard_of(src) as u32;
            if new == old {
                continue;
            }
            let migration = self.slots[old as usize]
                .svc
                .extract_flow(token)
                .expect("routed token must be extractable");
            self.slots[new as usize]
                .svc
                .adopt_flow(migration)
                .expect("tokens are unique across shards");
            self.route.insert(token, new);
            moved += 1;
        }
        self.placement = placement;
        moved
    }

    /// The shard an active flowlet is registered in.
    pub fn shard_for_token(&self, token: Token) -> Option<usize> {
        self.route.get(&token).map(|&s| s as usize)
    }

    /// Routes an endpoint notification to its shard (see
    /// [`AllocatorService::on_message`] for semantics; the behavior —
    /// including rejection counting — matches the unsharded service).
    ///
    /// # Errors
    /// The inner service's error, or [`ServiceError::DuplicateToken`] /
    /// [`ServiceError::UnexpectedRateUpdate`] raised at the routing layer.
    pub fn on_message(&mut self, msg: Message) -> Result<(), ServiceError> {
        match msg {
            Message::FlowletStart {
                token,
                src,
                dst,
                size_hint,
                ..
            } => {
                if self.route.contains_key(&token) {
                    // Cross-shard duplicate detection must happen here: the
                    // original may live in a different shard than the one
                    // `src` routes to.
                    self.local.bytes_in += msg.encoded_len() as u64;
                    self.local.rejected += 1;
                    return Err(ServiceError::DuplicateToken(token));
                }
                let shard = self.shard_of(src);
                self.slots[shard].svc.on_message(msg)?;
                self.route.insert(token, shard as u32);
                // Accepted (so src/dst are in range): feed the online
                // placement signal at rack granularity.
                let rack_of = |s: u16| s as usize / self.servers_per_rack;
                self.observed
                    .add(rack_of(src), rack_of(dst), f64::from(size_hint.max(1)));
                Ok(())
            }
            Message::FlowletEnd { token } => match self.route.remove(&token) {
                Some(shard) => self.slots[shard as usize].svc.on_message(msg),
                None => {
                    // Unknown ends are ignored (predecessor allocator or
                    // re-keyed endpoint), but their bytes still arrived.
                    self.local.bytes_in += msg.encoded_len() as u64;
                    Ok(())
                }
            },
            Message::RateUpdate { .. } => {
                self.local.bytes_in += msg.encoded_len() as u64;
                self.local.rejected += 1;
                Err(ServiceError::UnexpectedRateUpdate)
            }
        }
    }

    /// One tick of every shard (see the module docs' two-phase
    /// structure), with the per-shard update streams merged into `out`
    /// (cleared first) as a single token-ordered stream (each shard's
    /// stream is already token-ordered, and token sets are disjoint, so a
    /// k-way merge reproduces exactly the order an unsharded service
    /// emits). When the exchange cadence is due, the shards' post-tick
    /// link state is exchanged so the *next* tick's pricing sees the
    /// freshest cross-shard state.
    ///
    /// Shard panics are contained: if a shard's engine panics mid-tick,
    /// the sibling shards still complete their tick, the worker pool
    /// survives, and the error names the dead shard (`out` is left empty
    /// — a merged stream would be missing the failed shard's updates).
    /// The panic payload reaches the panic hook (stderr) as usual.
    ///
    /// # Errors
    /// [`ServiceError::ShardPanicked`] naming the lowest-indexed shard
    /// whose tick panicked.
    pub fn try_tick_into(&mut self, out: &mut Vec<(u16, Message)>) -> Result<(), ServiceError> {
        out.clear();
        self.ticks += 1;
        let exchange = self.exchange_every > 0
            && self.slots.len() > 1
            && self.ticks.is_multiple_of(self.exchange_every);

        // Phase 1: allocate ∥ — every shard ticks (and, on exchange
        // rounds, exports its link state) with no shared state.
        let mut panicked: Option<usize> = None;
        if self.parallel {
            let n = self.slots.len();
            let pool = self.pool.get_or_insert_with(|| WorkerPool::new(n));
            if let Err(e) = pool.fan_out(&mut self.slots, &|_, slot| tick_shard(slot, exchange)) {
                panicked = Some(e.item());
            }
        } else {
            for (i, slot) in self.slots.iter_mut().enumerate() {
                // Same containment as the pool path: siblings complete,
                // the lowest-indexed panic is reported.
                let outcome =
                    std::panic::catch_unwind(AssertUnwindSafe(|| tick_shard(slot, exchange)));
                if outcome.is_err() && panicked.is_none() {
                    panicked = Some(i);
                }
            }
        }
        if let Some(shard) = panicked {
            return Err(ServiceError::ShardPanicked { shard });
        }

        // Phase 2: the fan-out return is the barrier — cross-shard
        // consensus and installs run with every shard's tick complete.
        if exchange {
            let t0 = Instant::now();
            self.exchange_link_state();
            self.exchange_time += t0.elapsed();
        }
        for (slot, stream) in self.slots.iter_mut().zip(&mut self.streams) {
            std::mem::swap(&mut slot.updates, stream);
        }
        merge_by_token_into(&mut self.streams, out);
        Ok(())
    }

    /// [`ShardedService::try_tick_into`] returning an owned batch.
    ///
    /// # Errors
    /// As [`ShardedService::try_tick_into`].
    pub fn try_tick(&mut self) -> Result<Vec<(u16, Message)>, ServiceError> {
        TickDriver::try_tick(self)
    }

    /// [`ShardedService::try_tick`] for callers without an error path.
    ///
    /// # Panics
    /// Propagates a shard-tick panic as a panic on the caller.
    pub fn tick(&mut self) -> Vec<(u16, Message)> {
        TickDriver::tick(self)
    }

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
    /// [`crate::exchange`]). Shards whose engine exports nothing
    /// (Fastpass) write nothing and their installs are documented
    /// no-ops; engines with no second-order term (gradient projection)
    /// skip the Hessian part only.
    fn exchange_link_state(&mut self) {
        self.tables.start_round();
        for slot in &mut self.slots {
            slot.filter.export(
                &mut self.tables,
                &slot.loads,
                &slot.hessians,
                &slot.prices,
                |_| {},
            );
        }
        // `false` means no shard exported any links — the round does
        // not count.
        if !self.tables.agree() {
            return;
        }
        for slot in &mut self.slots {
            self.local.exchange_bytes += slot.filter.install(&self.tables, &mut slot.svc);
        }
        self.local.exchange_rounds += 1;
        let ships = self.tables.ship_counts();
        self.shipped_totals.resize(ships.len(), 0);
        for (total, &c) in self.shipped_totals.iter_mut().zip(ships) {
            *total += u64::from(c);
        }
    }

    /// Per-link loads of the whole control plane's raw allocation: the
    /// element-wise sum of the shards' own loads (empty if no shard
    /// prices fabric links). Telemetry path — allocates; the exchange
    /// itself uses the reusable per-shard buffers.
    pub fn link_loads(&self) -> Vec<f64> {
        let exports: Vec<Vec<f64>> = self.shards().map(|s| s.link_loads()).collect();
        let n_links = exports.iter().map(Vec::len).max().unwrap_or(0);
        if n_links == 0 {
            return Vec::new();
        }
        let mut total = vec![0.0; n_links];
        for export in exports.iter().filter(|e| !e.is_empty()) {
            debug_assert_eq!(export.len(), n_links, "short shard export");
            for (acc, x) in total.iter_mut().zip(export) {
                *acc += x;
            }
        }
        total
    }

    /// Current normalized rate of an active flowlet, Gbit/s.
    pub fn flow_rate_gbps(&self, token: Token) -> Option<f64> {
        let &shard = self.route.get(&token)?;
        self.slots[shard as usize].svc.flow_rate_gbps(token)
    }

    /// Number of active flowlets across all shards.
    pub fn active_flows(&self) -> usize {
        self.route.len()
    }

    /// Operating counters aggregated over shards (plus the routing
    /// layer's own rejections).
    pub fn stats(&self) -> ServiceStats {
        let mut total = self.local;
        for s in self.shards() {
            // Exhaustive destructuring: a counter added to `ServiceStats`
            // must fail to compile here until it is aggregated.
            let ServiceStats {
                starts,
                ends,
                updates_sent,
                updates_suppressed,
                bytes_in,
                bytes_out,
                iterations,
                rejected,
                exchange_rounds,
                exchange_bytes,
                exchange_decode_errors,
                dirty_flows,
                dirty_links,
            } = s.stats();
            total.starts += starts;
            total.ends += ends;
            total.updates_sent += updates_sent;
            total.updates_suppressed += updates_suppressed;
            total.bytes_in += bytes_in;
            total.bytes_out += bytes_out;
            total.iterations += iterations;
            total.rejected += rejected;
            // Inner services never run exchanges themselves (the rounds
            // are driven — and counted — by this routing layer), but
            // aggregate anyway so the destructuring stays exhaustive.
            total.exchange_rounds += exchange_rounds;
            total.exchange_bytes += exchange_bytes;
            total.exchange_decode_errors += exchange_decode_errors;
            total.dirty_flows += dirty_flows;
            total.dirty_links += dirty_links;
        }
        total
    }

    /// Cumulative per-phase wall time: the shards' intake/allocate/export
    /// phases summed over shards, plus this routing layer's exchange
    /// barrier. Under `parallel_shards` the shard phases run concurrently,
    /// so the sum is CPU time, not wall time — still the right weight for
    /// "where do the cycles go" breakdowns.
    pub fn phase_timings(&self) -> PhaseTimings {
        let mut total = PhaseTimings::default();
        for s in self.shards() {
            let t = s.phase_timings();
            total.intake += t.intake;
            total.allocate += t.allocate;
            total.export += t.export;
            total.exchange += t.exchange;
        }
        total.exchange += self.exchange_time;
        total
    }

    /// The fabric this control plane serves.
    pub fn fabric(&self) -> &TwoTierClos {
        self.slots[0].svc.fabric()
    }

    /// The engine each shard runs (`serial` / `multicore` / …).
    pub fn inner_engine_name(&self) -> &'static str {
        self.slots[0].svc.engine_name()
    }
}

impl<E: RateAllocator> TickDriver for ShardedService<E> {
    fn on_message(&mut self, msg: Message) -> Result<(), ServiceError> {
        ShardedService::on_message(self, msg)
    }

    /// # Panics
    /// Propagates a shard-tick panic as a panic on the caller; use
    /// [`TickDriver::try_tick_into`] to get a [`ServiceError`] instead.
    fn tick_into(&mut self, out: &mut Vec<(u16, Message)>) {
        if let Err(e) = self.try_tick_into(out) {
            panic!("{e}");
        }
    }

    fn try_tick_into(&mut self, out: &mut Vec<(u16, Message)>) -> Result<(), ServiceError> {
        ShardedService::try_tick_into(self, out)
    }

    fn flow_rate_gbps(&self, token: Token) -> Option<f64> {
        ShardedService::flow_rate_gbps(self, token)
    }

    fn active_flows(&self) -> usize {
        ShardedService::active_flows(self)
    }

    fn stats(&self) -> ServiceStats {
        ShardedService::stats(self)
    }

    fn phase_timings(&self) -> PhaseTimings {
        ShardedService::phase_timings(self)
    }

    fn link_loads(&self) -> Vec<f64> {
        ShardedService::link_loads(self)
    }

    fn fabric(&self) -> &TwoTierClos {
        ShardedService::fabric(self)
    }

    fn engine_name(&self) -> &'static str {
        "sharded"
    }
}

/// One shard's phase-1 work: tick, and on exchange rounds export its link
/// state into the slot's reusable buffers. Runs with no shared state —
/// concurrently on pool slots or sequentially on the caller, with
/// identical results.
fn tick_shard<E: RateAllocator>(slot: &mut ShardSlot<E>, export: bool) {
    slot.svc.tick_into(&mut slot.updates);
    if export {
        slot.svc
            .link_state_into(&mut slot.loads, &mut slot.hessians);
        slot.svc.link_prices_into(&mut slot.prices);
    }
}

fn update_token(msg: &Message) -> Token {
    match msg {
        Message::RateUpdate { token, .. }
        | Message::FlowletStart { token, .. }
        | Message::FlowletEnd { token } => *token,
    }
}

/// K-way merge of token-ordered update streams: each emitted element is
/// the smallest of the streams' heads, found by scanning them — `k`
/// comparisons per element for `k` streams, which at a control plane's
/// shard counts beats maintaining a heap of heads and needs no storage
/// beside the streams themselves. Token sets are disjoint across shards
/// so ties cannot occur; if a caller violated that, the lower stream
/// index goes first. Public because a distributed peer cluster merges
/// its peers' streams with exactly the same rule.
///
/// Clears `out`, drains every stream in `streams` (their capacity
/// survives for reuse), and appends the merged order, reserving once.
/// Once `out` has grown to a tick's update volume the merge allocates
/// nothing, which is what lets `try_tick_into` — here and in a peer
/// cluster — run alloc-free whether or not the tick emits updates.
pub fn merge_by_token_into(streams: &mut [Vec<(u16, Message)>], out: &mut Vec<(u16, Message)>) {
    out.clear();
    let total: usize = streams.iter().map(Vec::len).sum();
    if total == 0 {
        return;
    }
    out.reserve(total);
    if let [only] = streams {
        out.append(only);
        return;
    }
    // Reversed in place, a stream's head is its last element and `pop`
    // is its cursor.
    for stream in streams.iter_mut() {
        stream.reverse();
    }
    while let Some((_, stream)) = streams
        .iter_mut()
        .filter_map(|stream| Some((update_token(&stream.last()?.1), stream)))
        .min_by_key(|&(token, _)| token)
    {
        out.extend(stream.pop());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowtune_proto::Rate16;
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
        assert_eq!(svc.slots[0].svc.active_flows(), 1);
        assert_eq!(svc.slots[1].svc.active_flows(), 1);
        assert_eq!(svc.active_flows(), 2);
        svc.on_message(Message::FlowletEnd {
            token: Token::new(2),
        })
        .unwrap();
        assert_eq!(svc.slots[1].svc.active_flows(), 0);
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
        let tokens: Vec<u32> = updates.iter().map(|(_, m)| update_token(m).get()).collect();
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
    fn merge_handles_empty_and_many_streams() {
        let upd = |t: u32| {
            (
                t as u16,
                Message::RateUpdate {
                    token: Token::new(t),
                    rate: Rate16::encode(1.0),
                },
            )
        };
        let streams = vec![
            vec![upd(3), upd(9), upd(10)],
            vec![],
            vec![upd(1), upd(4)],
            vec![upd(2), upd(5), upd(6), upd(11)],
            vec![upd(7)],
        ];
        // The merge drains the streams in place and keeps their capacity
        // for the next tick.
        let mut streams = streams;
        let caps: Vec<usize> = streams.iter().map(Vec::capacity).collect();
        let mut merged = Vec::new();
        merge_by_token_into(&mut streams, &mut merged);
        let tokens: Vec<u32> = merged.iter().map(|(_, m)| update_token(m).get()).collect();
        assert_eq!(tokens, vec![1, 2, 3, 4, 5, 6, 7, 9, 10, 11]);
        assert!(streams.iter().all(Vec::is_empty));
        let kept: Vec<usize> = streams.iter().map(Vec::capacity).collect();
        assert_eq!(kept, caps);
        // The src halves ride along with their messages.
        assert!(merged
            .iter()
            .all(|(s, m)| *s as u32 == update_token(m).get()));
        // All-empty streams clear `out`; so does no stream at all.
        let mut out = merged;
        merge_by_token_into(&mut streams, &mut out);
        assert!(out.is_empty());
        merge_by_token_into(&mut [], &mut out);
        assert!(out.is_empty());
        let mut single = vec![vec![upd(5), upd(2)]];
        merge_by_token_into(&mut single, &mut out);
        let tokens: Vec<u32> = out.iter().map(|(_, m)| update_token(m).get()).collect();
        assert_eq!(tokens, vec![5, 2], "single stream passes through as-is");
    }

    #[test]
    fn exchange_fires_on_cadence_and_counts_bounded_traffic() {
        let f = fabric();
        let cfg = FlowtuneConfig {
            exchange_every: 4,
            ..FlowtuneConfig::default()
        };
        let mut svc = ShardedService::new(&f, cfg, 2);
        assert_eq!(svc.exchange_every(), 4);
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
            .map(|s| (s.link_loads(), s.link_prices(), s.link_hessians()))
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
        assert_eq!(svc.exchange_delta_eps(), 1e-6);
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
    #[should_panic(expected = "same shard count")]
    fn replace_rejects_a_mismatched_shard_count() {
        let mut svc = sharded(2);
        svc.replace(crate::Placement::contiguous(16, 3));
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
    fn replace_migrates_moved_tokens_and_reroutes() {
        // Swap the two shards' endpoint ranges: every active flow moves.
        let mut svc = sharded(2);
        svc.on_message(start(1, 0, 12)).unwrap(); // shard 0
        svc.on_message(start(2, 8, 4)).unwrap(); // shard 1
        for _ in 0..50 {
            svc.tick();
        }
        let starts_before = svc.stats().starts;
        // A signal-free traffic placement falls back to contiguous — a
        // no-op replace that migrates nothing.
        let fallback = crate::Placement::traffic(16, 8, 2, &TrafficMatrix::new(2), false);
        assert_eq!(svc.replace(fallback), 0);
        // Now actually move everything: over two 8-server units, a matrix
        // that makes unit 1 the heavy anchor lands it in shard 0 —
        // reversing the contiguous ranges.
        let mut m = TrafficMatrix::new(2);
        m.add(1, 1, 100.0);
        m.add(0, 0, 1.0);
        let reversed = crate::Placement::traffic(16, 8, 2, &m, false);
        assert_eq!(reversed.shard_of(8), 0, "heavy rack 1 anchors shard 0");
        assert_eq!(reversed.shard_of(0), 1);
        let moved = svc.replace(reversed);
        assert_eq!(moved, 2, "both flows changed shards");
        assert_eq!(svc.shard_for_token(Token::new(1)), Some(1));
        assert_eq!(svc.shard_for_token(Token::new(2)), Some(0));
        assert_eq!(svc.active_flows(), 2);
        // Migration is not churn: intake counters are unmoved.
        assert_eq!(svc.stats().starts, starts_before);
        assert_eq!(svc.stats().ends, 0);
        // The service keeps operating: both flows re-converge.
        for _ in 0..200 {
            svc.tick();
        }
        for t in [1u32, 2] {
            let rate = svc.flow_rate_gbps(Token::new(t)).unwrap();
            assert!((rate - 39.6).abs() < 0.2, "token {t}: {rate}");
        }
        // New starts route by the new placement.
        svc.on_message(start(3, 0, 12)).unwrap();
        assert_eq!(svc.shard_for_token(Token::new(3)), Some(1));
    }

    #[test]
    fn observed_matrix_accumulates_accepted_starts_only() {
        let mut svc = sharded(2);
        svc.on_message(start(1, 0, 12)).unwrap(); // rack 0 → rack 3
        svc.on_message(start(2, 1, 13)).unwrap(); // rack 0 → rack 3
        svc.on_message(start(1, 5, 9)).unwrap_err(); // duplicate: no signal
        svc.on_message(Message::FlowletEnd {
            token: Token::new(99),
        })
        .unwrap(); // unknown end: no signal
        let m = svc.observed_matrix();
        assert_eq!(m.racks(), 4, "4 racks of 4 servers");
        assert_eq!(m.get(0, 3), 2.0 * 100_000.0, "both accepted starts counted");
        assert_eq!(m.total(), 2.0 * 100_000.0);
    }

    #[test]
    fn shipped_counts_track_exchange_activity() {
        let f = fabric();
        let cfg = FlowtuneConfig {
            exchange_every: 1,
            ..FlowtuneConfig::default()
        };
        let mut svc = ShardedService::new(&f, cfg, 2);
        assert!(svc.exchange_shipped_counts().is_empty(), "no round yet");
        svc.on_message(start(1, 0, 12)).unwrap();
        svc.on_message(start(2, 8, 4)).unwrap();
        for _ in 0..5 {
            svc.tick();
        }
        let counts = svc.exchange_shipped_counts();
        assert_eq!(counts.len(), f.topology().link_count());
        let total: u64 = counts.iter().sum();
        assert!(total > 0, "five exchange rounds shipped something");
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

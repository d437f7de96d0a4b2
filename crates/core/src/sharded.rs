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
//! instead, see [`crate::placement`]), handing each message to the one
//! shard that answers it (the shard holding its token, if any — the
//! shards' own token indexes are the only ones), the one ordering of the
//! shards' passers and stat aggregation — is the router's, and shared
//! with every other plane (see [`crate::router`]).
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
//!    the threshold filter's passers into the slot's own unordered batch
//!    ([`AllocatorService::tick_passers`]), and — when an exchange round is
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
//!    shard the background load/Hessian sums and the installs — and
//!    every slot's batch is appended to the router's one [`Passers`],
//!    which the router orders once ([`Passers::emit`]). Token sets are
//!    disjoint across shards, so the order of the union is exactly the
//!    stream an unsharded service would emit; no shard orders its own.
//!
//! [`FlowtuneConfig::parallel_shards`](crate::FlowtuneConfig) (default
//! on) sizes phase 1's pool: one slot per shard, or — turned off, or
//! with one shard — a single slot that ticks the shards one after
//! another on the caller's thread. Same bytes out either way; the
//! one-slot pool is useful on single-core hosts and as the reference in
//! equivalence tests. A shard whose engine panics mid-tick panics the
//! tick: the payload reaches the caller of
//! [`TickDriver::tick`](crate::TickDriver::tick) with its own message,
//! once every other slot has finished.
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
//!   sum as exogenous background load, so its NED price gradient and
//!   F-NORM ratios see the true total utilization of shared links;
//! * **Hessian aggregation** — likewise for `Σ ∂x/∂p`, so the Newton
//!   step divides the global gradient by the *global* sensitivity; a
//!   shard using only its own diagonal takes steps multiplied by the
//!   shard count, which leaves NED's stable γ range;
//! * **dual consensus** — each loaded link's price is set to the
//!   load-weighted mean of the shards' duals. All three are one install
//!   ([`flowtune_alloc::SerialAllocator::install_link_state`]). Background
//!   terms alone pin only a shared link's *total* (any per-shard price
//!   split whose demands sum to capacity is stationary); agreeing on the
//!   dual makes the unsharded optimum the unique fixed point — §5's
//!   single authoritative LinkBlock owner, one level up.
//!
//! ## One shared table, a sparse delta protocol
//!
//! The exchange runs in the engines' own **slot order** — (direction,
//! LinkBlock, offset), every data link once, no control link
//! ([`flowtune_alloc::SerialAllocator::link_slots`]) — which every shard's
//! grid shares. A shard's export
//! ([`flowtune_alloc::SerialAllocator::link_state`]) is lent where it
//! lies: the loads and Hessians the engine's last price update summed,
//! and its prices, one run per LinkBlock — `O(links)`, no walk over the
//! flows, no copy and no scatter. It is the shard's own link state *as
//! of its last iteration*, and it is filtered right after the shard's
//! tick, still in phase 1.
//!
//! The shards of one process exchange through **one link-state table**
//! ([`crate::exchange`]): a row per shard holding what that shard last
//! shipped, lent to the shard for phase 1 and written only by its filter
//! there, then read by every shard's install. Nothing is encoded or
//! decoded, and a row exists once — not once per reader. What is the
//! same for every shard (the dual consensus) is computed once per round;
//! only the background sums, which leave out the shard's own row, and
//! the subscription mask are per shard, and they are written straight
//! into the background arrays and staged duals the shard's engine lends
//! — no gather, no re-split.
//! The serialized form of the same round — frames carrying exactly the
//! entries the filters write, indexed by the same slots — exists only
//! between processes, where `flowtune-net`'s shard peers each keep
//! private copies of the rows. Both shard sets run one export
//! (`ShardFilter::export`) and one install (`ShardFilter::install`) in
//! one index space; the frame codec is all that differs, so they agree
//! bit for bit.
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
//! paying a tag and a 4-byte id the dense protocol didn't) — a small
//! positive `eps` cuts that tail immediately, which is the knob's point.
//! [`ServiceStats::exchange_bytes`] counts the frames a wire would
//! carry, though nothing here encodes one: per shard and counted round,
//! a frame header plus one record per shipped entry (a tag, a 4-byte
//! slot index, 8 bytes each for load and dual, and 8 for the Hessian
//! diagonal of second-order engines). It is the same number a
//! `flowtune-net` cluster reports, whose transports then send each frame
//! once per receiver behind a length prefix.
//!
//! The install is **subscription-masked**: a shard installs the other
//! shards' background sums and the consensus dual only on links it
//! currently prices itself — its own fresh export carries a positive
//! load there (the un-filtered export, so even a load too small to pass
//! the outbound delta filter still subscribes its shard). Link state on
//! a link a shard has no flows on cannot change its allocation (prices
//! enter rates only through flows' paths), so masking them costs the
//! shard's rates nothing; it keeps an unsubscribed link's local dual
//! decaying, exactly as if the link were idle. A shard that gains a
//! flow on a new link subscribes the same round it first exports a load
//! for it (exports are taken after the tick, installs after the
//! exports), so the mask adds no staleness beyond the exchange cadence
//! itself. What exchange-aware placement (see [`crate::placement`])
//! saves is outbound: grouping communicating racks into one shard
//! leaves fewer links loaded from two sides, so fewer entries move and
//! re-ship.
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
use flowtune_proto::exchange::{record_bytes, FRAME_HEADER_BYTES};
use flowtune_topo::TwoTierClos;

use crate::exchange::{Round, Row, ShardFilter};
use crate::placement::Placement;
use crate::router::{Router, ShardSet};
use crate::service::{AllocatorService, Passers, ServiceStats};
use crate::FlowtuneConfig;

/// N independent [`AllocatorService`] shards of one process behind one
/// [`TickDriver`](crate::TickDriver) face: the [`Router`] over the
/// [`InProcess`] shard set.
pub type ShardedService = Router<InProcess>;

/// One shard: its service, plus the per-tick outputs and its exchange
/// row phase 1 writes and phase 2 reads — kept beside the service so the
/// fan-out hands each pool slot one item, and reused across ticks so the
/// hot path does not allocate.
#[derive(Debug)]
struct ShardSlot {
    svc: AllocatorService,
    /// The shard's side of the exchange: the delta filter that writes
    /// `row`, and its install.
    filter: ShardFilter,
    /// What this shard last shipped, in its engine's slot order, lent
    /// from the table for phase 1 (written only by its filter), and an
    /// empty row otherwise.
    row: Row,
    /// The frame this round's filter would put on a wire, counted: a
    /// header and its records, in bytes.
    frame_bytes: usize,
    /// The shard's passers from this tick, unordered; phase 2 appends
    /// them to the router's batch. Its own buffer so pool slots share
    /// nothing.
    updates: Passers,
    /// Cumulative time spent filtering the engine's export into `row` —
    /// phase 1's share of the exchange, timed per shard because the
    /// shards run it concurrently.
    refresh_time: Duration,
}

/// The shards of one process (see the module docs): ticked on a worker
/// pool, exchanging link state through one shared table set.
#[derive(Debug)]
pub struct InProcess {
    /// The shards, in partition order.
    slots: Vec<ShardSlot>,
    /// Phase 1's pool: a slot per shard (config `parallel_shards` and
    /// more than one shard), its threads parked between ticks, or one
    /// slot, the caller's thread.
    pool: WorkerPool,
    /// Ticks driven so far (the exchange fires when `ticks` is a
    /// multiple of the cadence).
    ticks: u64,
    /// The exchange's table: every shard's last-shipped row, in its
    /// engines' slot order, lent to the shard's slot while phase 1
    /// filters into it and read whole by every shard's install.
    rows: Vec<Row>,
    /// The exchange round's link count, Hessian mark and consensus.
    round: Round,
    /// The exchange's rounds and frame bytes (zero whenever the
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
    /// count) does not match. (The rows are in slot order, a function of
    /// the fabric alone, so shards of one fabric share it.)
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
                    row: Row::default(),
                    frame_bytes: 0,
                    updates: Passers::default(),
                    refresh_time: Duration::ZERO,
                })
                .collect(),
            pool: WorkerPool::new(if cfg.parallel_shards { n } else { 1 }),
            ticks: 0,
            rows: (0..n).map(|_| Row::default()).collect(),
            round: Round::default(),
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
    type Error = std::convert::Infallible;
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

    /// The two-phase tick of the module docs.
    ///
    /// # Panics
    /// Re-raises a shard engine's panic, with its own payload.
    // flowtune-lint: hot
    fn tick(&mut self, passers: &mut Passers) -> Result<(), Self::Error> {
        self.ticks += 1;
        let exchange = self.slots[0]
            .svc
            .config()
            .exchange_due(self.ticks, self.slots.len());

        // Phase 1: allocate ∥ — every shard ticks (and, on exchange
        // rounds, filters its link state into the row lent to it) with no
        // shared state.
        if exchange {
            self.lend_rows();
        }
        self.pool
            .fan_out(&mut self.slots, &|_, slot| tick_shard(slot, exchange));
        if exchange {
            self.lend_rows();
        }

        // Phase 2: the fan-out return is the barrier — cross-shard
        // consensus and installs run with every shard's tick complete.
        if exchange {
            let t0 = Instant::now();
            self.exchange_link_state();
            self.exchange_time += t0.elapsed();
        }
        for slot in &self.slots {
            passers.append(&slot.updates);
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
    /// The round runs over the shards' rows, in their engines' slot
    /// order: in phase 1 every shard's [`ShardFilter`] delta-filtered its
    /// engine's export into its own row ([`ShardSlot::export`]); here
    /// [`Round::agree`] computes what is the same for every shard — the
    /// dual consensus — once, and every shard's filter then sums the
    /// *other* rows and masks to its subscriptions straight into the
    /// buffers its engine lends. Nothing is serialized and nothing is
    /// re-indexed: the frames a distributed deployment ships carry
    /// exactly the entries the filters write here (see
    /// [`crate::exchange`]), and the round is charged their length.
    /// Engines with no second-order term (gradient projection) skip the
    /// Hessian part only.
    // flowtune-lint: hot
    fn exchange_link_state(&mut self) {
        self.round.start();
        // The frames a wire would carry, counted instead of encoded.
        let mut bytes = 0;
        for slot in &self.slots {
            let (links, has_hessians) = slot.filter.exported();
            self.round.note(links, has_hessians);
            bytes += slot.frame_bytes;
        }
        // `false` means no shard exported any links — the round does
        // not count.
        if !self.round.agree(&self.rows) {
            return;
        }
        for slot in &mut self.slots {
            slot.filter.install(&self.round, &self.rows, &mut slot.svc);
        }
        self.counters.exchange_rounds += 1;
        self.counters.exchange_bytes += bytes as u64;
    }

    /// Swaps every shard's row between the table and its slot: lends
    /// the rows to phase 1, and takes them back for phase 2.
    // flowtune-lint: hot
    fn lend_rows(&mut self) {
        for (slot, row) in self.slots.iter_mut().zip(&mut self.rows) {
            std::mem::swap(&mut slot.row, row);
        }
    }
}

impl ShardSlot {
    /// Phase 1's share of an exchange round: delta-filter the engine's
    /// fresh slot-order export, run by run where it lies, into this
    /// shard's row, and count the frame — a header, active or not, plus
    /// its records.
    // flowtune-lint: hot
    fn export(&mut self) {
        let Self {
            svc,
            filter,
            row,
            frame_bytes,
            ..
        } = self;
        *frame_bytes = FRAME_HEADER_BYTES;
        filter.export(row, svc, &mut |_, has_h| {
            *frame_bytes += record_bytes(has_h)
        });
    }
}

/// One shard's phase-1 work: tick into the slot's batch of passers, and
/// on exchange rounds filter its link state into its own row. Runs with
/// no shared state — concurrently on pool slots or sequentially on the
/// caller, with identical results.
// flowtune-lint: hot
fn tick_shard(slot: &mut ShardSlot, export: bool) {
    slot.updates.clear();
    slot.svc.tick_passers(&mut slot.updates);
    if export {
        let t0 = Instant::now();
        slot.export();
        slot.refresh_time += t0.elapsed();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ServiceError, TickDriver};
    use flowtune_proto::{Message, Rate16, Token};
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
        // Past the radix cutoff: 300 flows over 4 shards (one rack each),
        // tokens dealt round-robin so every shard's passers interleave
        // with every other's. Each flow stays inside its source's rack,
        // so no link carries two shards' flows and the first tick's
        // updates are an unsharded service's.
        let f = fabric();
        let mut svc = sharded(4);
        let mut plain = AllocatorService::new(&f, FlowtuneConfig::default());
        for t in 1..=300u32 {
            let rack = (t % 4) as u16 * 4;
            let (src, hop) = ((t / 4 % 4) as u16, (t / 16 % 3) as u16);
            let msg = start(t, rack + src, rack + (src + 1 + hop) % 4);
            svc.on_message(msg).unwrap();
            plain.on_message(msg).unwrap();
        }
        let updates = svc.tick();
        assert_eq!(updates.len(), 300);
        let tokens: Vec<u32> = updates
            .iter()
            .map(|(_, m)| match m {
                Message::RateUpdate { token, .. } => token.get(),
                other => panic!("tick emitted {other:?}"),
            })
            .collect();
        assert_eq!(tokens, (1..=300).collect::<Vec<u32>>());
        assert_eq!(updates, plain.tick());
    }

    #[test]
    fn cross_shard_duplicate_tokens_are_rejected() {
        let mut svc = sharded(2);
        svc.on_message(start(7, 0, 12)).unwrap();
        // Same token, different source — `src` maps to the *other* shard,
        // so the router hands the start to the shard holding the token.
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
    fn a_router_over_shards_that_hold_flowlets_answers_for_them() {
        let f = fabric();
        let cfg = FlowtuneConfig::default();
        let mut first = AllocatorService::new(&f, cfg);
        first.on_message(start(7, 0, 12)).unwrap();
        let mut svc = ShardedService::from_shards(vec![first, AllocatorService::new(&f, cfg)]);
        assert_eq!(svc.active_flows(), 1);
        // Source 12 maps to shard 1, but shard 0 holds the token, found
        // under the hasher `Router::over` re-keyed shard 0's index with.
        assert_eq!(
            svc.on_message(start(7, 12, 0)),
            Err(ServiceError::DuplicateToken(Token::new(7)))
        );
        assert_eq!(svc.active_flows(), 1);
        svc.on_message(Message::FlowletEnd {
            token: Token::new(7),
        })
        .unwrap();
        assert_eq!(svc.stats().ends, 1, "the end reached the holder");
        assert_eq!(svc.active_flows(), 0);
        // A grown index is re-keyed whole.
        let mut first = AllocatorService::new(&f, cfg);
        for t in 1..=300 {
            first.on_message(start(t, (t % 8) as u16, 12)).unwrap();
        }
        let svc = ShardedService::from_shards(vec![first, AllocatorService::new(&f, cfg)]);
        assert!((1..=300).all(|t| svc.shard_for_token(Token::new(t)) == Some(0)));
    }

    #[test]
    fn the_router_keeps_no_counters_of_its_own() {
        let cfg = FlowtuneConfig {
            exchange_every: 1,
            ..FlowtuneConfig::default()
        };
        let mut svc = ShardedService::new(&fabric(), cfg, 3);
        svc.on_message(start(7, 0, 12)).unwrap();
        svc.tick();
        let strays = [
            start(7, 12, 0), // a cross-shard duplicate
            Message::FlowletEnd {
                token: Token::new(9),
            },
            Message::RateUpdate {
                token: Token::new(5),
                rate: Rate16::encode(1.0),
            },
        ];
        for msg in strays {
            let before: Vec<ServiceStats> = svc.shards().map(AllocatorService::stats).collect();
            let _ = svc.on_message(msg);
            let counted = svc.shards().zip(&before);
            let counted = counted.filter(|(s, b)| s.stats() != **b).count();
            assert_eq!(counted, 1, "{msg:?} is counted by exactly one shard");
        }
        let mut sum = svc.shard_set().exchange_stats();
        assert!(sum.exchange_rounds > 0);
        for shard in svc.shards() {
            sum += shard.stats();
        }
        assert_eq!(svc.stats(), sum);
        assert_eq!(svc.stats().rejected, 2);
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
        // A round can never cost more than two frames that ship every
        // link; the exact early-round counts are pinned against the
        // exports in the exact-accounting test, and the steady-state win
        // over the dense protocol in the delta-filter test.
        let full_frame = FRAME_HEADER_BYTES + f.topology().link_count() * record_bytes(true);
        let worst = st.exchange_rounds * 2 * full_frame as u64;
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
        // must equal the two shards' frames: a header each plus one
        // record per shipped entry. The expectation is recomputed
        // independently from the public exports of a *no-exchange twin*
        // — same flows, same single tick — because the exchanging
        // service's own exports are already mutated by the round's
        // consensus install. In particular, links with zero load but a
        // decaying initial dual ship (receivers track the dual), while
        // links whose whole tuple is zero never do.
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
        let mut dirty = 0;
        for shard in twin.shards() {
            let (mut loads, mut prices, mut hess) = (Vec::new(), Vec::new(), Vec::new());
            shard.link_loads_into(&mut loads);
            shard.link_hessians_into(&mut hess);
            shard.link_prices_into(&mut prices);
            dirty += (0..loads.len())
                .filter(|&l| loads[l] != 0.0 || prices[l] != 0.0 || hess[l] != 0.0)
                .count();
        }
        assert!(dirty > 0, "a first round must ship something");
        // Serial NED exports Hessians: 29-byte records.
        assert_eq!(record_bytes(true), 29);
        assert_eq!(
            svc.stats().exchange_bytes,
            (2 * FRAME_HEADER_BYTES + dirty * record_bytes(true)) as u64
        );
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
            st.exchange_bytes - settled,
            50 * 2 * FRAME_HEADER_BYTES as u64,
            "converged state moves less than eps: the frames carry headers only"
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
        // The router's emit of the shards' passers is export too.
        let shards_export: Duration = svc.shards().map(|s| s.phase_timings().export).sum();
        assert!(svc.phase_timings().export > shards_export);
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

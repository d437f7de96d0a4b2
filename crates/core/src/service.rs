//! The centralized allocator as a library.
//!
//! # Layering: engines, services, drivers
//!
//! The control plane is built from three layers, each swappable
//! independently of the others:
//!
//! 1. **The engine** computes per-flow rates over a fixed fabric. There
//!    is one, the §5 FlowBlock/LinkBlock grid ([`SerialAllocator`]), and
//!    [`Engine`] names its two forms: [`Engine::Serial`] (the reference
//!    NED optimizer) and [`Engine::Gradient`] (the grid with first-order
//!    gradient projection's price step, the §6.6/Figure-12 baseline).
//!    The §5 worker pool (`SerialAllocator::multicore`) is no engine a
//!    service builds: it serves the §6.1 tables. So every
//!    engine a [`ServiceBuilder`] builds prices the fabric's links and
//!    exports their state.
//! 2. **[`AllocatorService`]** is the Figure-1 box around one grid, held
//!    directly — one concrete service type whatever form it takes. It
//!    consumes flowlet start/end notifications, keeps the flow table (a
//!    slab indexed by the engine-side [`FlowId`]: who a flow is, not
//!    what it was last told — the §6.4 filter memory sits in the
//!    engine, beside the rate it is compared with), and on every
//!    [`AllocatorService::tick_into`] (§6.2: every 10 µs) emits the rate
//!    updates the engine's threshold-filtered drain lends it. It is
//!    sans-IO — the network simulator delivers the messages over
//!    simulated TCP, the examples call it directly.
//! 3. **[`TickDriver`](crate::TickDriver)** abstracts "a thing with an
//!    allocator tick" — the message-in/updates-out contract shared by
//!    [`AllocatorService`] and the [`Router`](crate::router::Router)
//!    behind every partitioned plane.
//!    [`ShardedService`](crate::ShardedService) is that router over N
//!    inner services of one process (one fabric block each,
//!    [`Engine::Sharded`]): it routes notifications by source endpoint
//!    and orders every shard's passers ([`Passers`]) into one
//!    token-ordered stream. Embedders that should
//!    run sharded or unsharded by configuration hold a
//!    [`BoxTickDriver`](crate::BoxTickDriver) built with
//!    [`ServiceBuilder::build_driver`].
//!
//! Malformed or inconsistent control messages (duplicate live tokens,
//! rate updates sent *to* the allocator) are reportable conditions, not
//! crashes: [`AllocatorService::on_message`] returns a [`ServiceError`]
//! and bumps [`ServiceStats::rejected`].

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use std::time::Instant;

use flowtune_alloc::{
    grow, AllocConfig, Certificate, FlowRate, LinkInstall, LinkRun, SerialAllocator,
};
use flowtune_proto::codec::RATE_BYTES;
use flowtune_proto::{Message, Rate16, Token};
use flowtune_topo::{FlowId, LinkId, TwoTierClos};

use crate::driver::PhaseTimings;
use crate::slot_table::{Entry, SlotTable};
use crate::FlowtuneConfig;

/// A flowlet's slot in the service's flow table: its export key less the
/// rate, `token << 32 | src << 16` (see [`emit_ordered`]). That is all
/// the table keeps — the export is the one reader of a slot, and it
/// reads it only for a flow whose update is actually sent (the §6.4
/// memory that decides it lives in the engine, beside the flow's rate);
/// the rest of a `FlowletStart` is spent in [`AllocatorService::register`]
/// on the engine's path and weight.
fn slot_key(token: Token, src: u16) -> u64 {
    u64::from(token.get()) << 32 | u64::from(src) << 16
}

/// The raw token a [`slot_key`] holds.
fn key_token(key: u64) -> u32 {
    (key >> 32) as u32
}

/// The token index's key comparison: whether slab slot `slot` holds
/// `token`.
fn holds(slab: &[u64], token: Token) -> impl Fn(u32) -> bool + '_ {
    move |slot| key_token(slab[slot as usize]) == token.get()
}

/// Proportional-fairness weight of a flow that does not specify one.
pub(crate) const DEFAULT_WEIGHT: f64 = 1.0;

/// Operating counters, mostly for the overhead experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Flowlet starts accepted.
    pub starts: u64,
    /// Flowlet ends accepted.
    pub ends: u64,
    /// Rate updates emitted (post-filter).
    pub updates_sent: u64,
    /// Rate updates suppressed by the threshold filter.
    pub updates_suppressed: u64,
    /// Payload bytes received from endpoints.
    pub bytes_in: u64,
    /// Payload bytes sent to endpoints.
    pub bytes_out: u64,
    /// Allocator iterations run.
    pub iterations: u64,
    /// Messages rejected as corrupt or inconsistent (duplicate live
    /// tokens, rate updates addressed to the allocator).
    pub rejected: u64,
    /// Inter-shard link-state exchange rounds executed. Always 0 for an
    /// unsharded service and for sharded services with the exchange
    /// disabled ([`crate::FlowtuneConfig::exchange_every`] = 0).
    pub exchange_rounds: u64,
    /// Bytes of the exchange frames those rounds carried: every shard's
    /// frame header plus one record per entry its delta filter shipped
    /// ([`crate::sharded`]), before a transport copies each frame to
    /// every other shard.
    pub exchange_bytes: u64,
    /// Exchange frames that failed to decode or apply (truncated or
    /// corrupt bytes off a transport, version mismatches, out-of-range
    /// indices). Always 0 in-process; a distributed peer counts here
    /// what a real socket handed it that it had to drop.
    pub exchange_decode_errors: u64,
    /// Incremental engines only: cumulative count of flows whose rate
    /// pass was actually re-run (summed over shards). On a quiet tick
    /// this grows by the changed set, not the flow count; always 0 for
    /// full-sweep engines ([`crate::FlowtuneConfig::incremental`] off).
    pub dirty_flows: u64,
    /// Incremental engines only: cumulative count of per-iteration link
    /// price moves beyond [`crate::FlowtuneConfig::dirty_eps`] (root
    /// diffs and exchange installs; summed over shards). Always 0 for
    /// full-sweep engines.
    pub dirty_links: u64,
}

/// Field-wise sum — how a partitioned control plane folds its shards'
/// counters into one aggregate.
impl std::ops::AddAssign for ServiceStats {
    fn add_assign(&mut self, rhs: Self) {
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
        } = rhs;
        self.starts += starts;
        self.ends += ends;
        self.updates_sent += updates_sent;
        self.updates_suppressed += updates_suppressed;
        self.bytes_in += bytes_in;
        self.bytes_out += bytes_out;
        self.iterations += iterations;
        self.rejected += rejected;
        self.exchange_rounds += exchange_rounds;
        self.exchange_bytes += exchange_bytes;
        self.exchange_decode_errors += exchange_decode_errors;
        self.dirty_flows += dirty_flows;
        self.dirty_links += dirty_links;
    }
}

/// Why the allocator refused a control message or a build request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceError {
    /// A `FlowletStart` reused a token that is still active. Endpoints
    /// mint unique tokens, so this indicates corruption or a duplicated
    /// segment; the start is dropped and the original flowlet keeps its
    /// registration.
    DuplicateToken(Token),
    /// A `FlowletStart` named endpoints the fabric does not have —
    /// src/dst out of range, src == dst, or an unknown spine. A
    /// corrupted field, not a crash: the start is dropped.
    MalformedStart(Token),
    /// A `RateUpdate` arrived at the allocator; updates are allocator
    /// *output*, so receiving one indicates mis-wiring.
    UnexpectedRateUpdate,
    /// [`ServiceBuilder::build`] was called without a fabric.
    MissingFabric,
    /// [`ServiceBuilder::build`] was called with [`Engine::Sharded`]; a
    /// sharded control plane is a [`ShardedService`](crate::ShardedService),
    /// built through [`ServiceBuilder::build_driver`].
    ShardedNeedsDriver,
    /// [`Engine::Sharded`] named an impossible partition (zero shards,
    /// or shards nested inside shards).
    BadShards(&'static str),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::DuplicateToken(t) => {
                write!(f, "flowlet start reuses active token {t:?}")
            }
            ServiceError::MalformedStart(t) => {
                write!(f, "flowlet start {t:?} names endpoints outside the fabric")
            }
            ServiceError::UnexpectedRateUpdate => {
                write!(f, "allocator received a RateUpdate")
            }
            ServiceError::MissingFabric => {
                write!(f, "allocator builder needs a fabric")
            }
            ServiceError::ShardedNeedsDriver => {
                write!(
                    f,
                    "Engine::Sharded builds a ShardedService; use build_driver()"
                )
            }
            ServiceError::BadShards(why) => {
                write!(f, "bad shard spec: {why}")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

/// Which allocation engine a built service runs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Engine {
    /// Single-threaded reference NED engine.
    #[default]
    Serial,
    /// The caller-thread grid with first-order gradient projection's
    /// price step in place of NED's (§6.6 / Figure-12 baseline).
    Gradient,
    /// A [`ShardedService`](crate::ShardedService): `shards` independent
    /// inner services, each running its own `inner` engine over one slice
    /// of the endpoint space (one fabric block each when `shards` equals
    /// the fabric's block count). Built with
    /// [`ServiceBuilder::build_driver`]; `inner` must not itself be
    /// `Sharded`.
    Sharded {
        /// Number of independent shards (≥ 1).
        shards: usize,
        /// The engine each shard runs.
        inner: Box<Engine>,
    },
}

/// `--engine` names [`Engine::parse`] accepts. (`sharded` is not in the
/// list: sharding composes over a base engine via `--shards N`.)
pub const ENGINE_NAMES: [&str; 2] = ["serial", "gradient"];

/// An `--engine` value [`Engine::parse`] did not recognize. The `Display`
/// form lists the valid names, so surfacing it verbatim gives the operator
/// the fix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseEngineError {
    got: String,
}

impl ParseEngineError {
    /// The rejected engine name.
    pub fn got(&self) -> &str {
        &self.got
    }
}

impl std::fmt::Display for ParseEngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown engine `{}`; valid engines: {}",
            self.got,
            ENGINE_NAMES.join(", ")
        )
    }
}

impl std::error::Error for ParseEngineError {}

impl Engine {
    /// Parses an engine name as accepted by the experiment binaries'
    /// `--engine` flag.
    ///
    /// # Errors
    /// [`ParseEngineError`] (listing the valid names) on anything not in
    /// [`ENGINE_NAMES`].
    pub fn parse(s: &str) -> Result<Engine, ParseEngineError> {
        match s {
            "serial" => Ok(Engine::Serial),
            "gradient" => Ok(Engine::Gradient),
            _ => Err(ParseEngineError { got: s.to_string() }),
        }
    }

    /// The flag-style name (`serial` / `gradient` / `sharded`).
    pub fn name(&self) -> &'static str {
        match self {
            Engine::Serial => "serial",
            Engine::Gradient => "gradient",
            Engine::Sharded { .. } => "sharded",
        }
    }

    /// The partitions [`ServiceBuilder::build_driver`] refuses to build.
    ///
    /// # Errors
    /// [`ServiceError::BadShards`], saying why: zero shards, or shards
    /// nested inside shards.
    pub fn check_shards(shards: usize, inner: &Engine) -> Result<(), ServiceError> {
        if shards == 0 {
            return Err(ServiceError::BadShards("shard count must be at least 1"));
        }
        if matches!(inner, Engine::Sharded { .. }) {
            return Err(ServiceError::BadShards("shards cannot nest"));
        }
        Ok(())
    }

    /// Wraps this engine in [`Engine::Sharded`] over `shards` shards (the
    /// `--shards N` flag). `shards == 1` still builds a (single-shard)
    /// `ShardedService`, which is useful for equivalence testing.
    pub fn sharded(self, shards: usize) -> Engine {
        Engine::Sharded {
            shards,
            inner: Box::new(self),
        }
    }
}

/// Configures and constructs an [`AllocatorService`] with a run-time
/// engine choice. Obtained from [`AllocatorService::builder`].
#[derive(Debug, Clone, Default)]
pub struct ServiceBuilder {
    fabric: Option<TwoTierClos>,
    cfg: FlowtuneConfig,
    engine: Engine,
    matrix: Option<crate::placement::TrafficMatrix>,
}

impl ServiceBuilder {
    /// The fabric the allocator serves (required).
    pub fn fabric(mut self, fabric: &TwoTierClos) -> Self {
        self.fabric = Some(fabric.clone());
        self
    }

    /// Replaces the whole configuration (defaults to
    /// [`FlowtuneConfig::default`]).
    pub fn config(mut self, cfg: FlowtuneConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Selects the allocation engine (defaults to [`Engine::Serial`]).
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Supplies the rack-by-rack traffic matrix a
    /// [`crate::PlacementSpec::Traffic`] placement partitions by —
    /// sampled from the workload up front
    /// (`flowtune_workload::rack_traffic_matrix`).
    pub fn traffic_matrix(mut self, matrix: crate::placement::TrafficMatrix) -> Self {
        self.matrix = Some(matrix);
        self
    }

    /// Builds the service over the chosen engine.
    ///
    /// # Errors
    /// [`ServiceError::MissingFabric`] if no fabric was supplied;
    /// [`ServiceError::ShardedNeedsDriver`] if the engine is
    /// [`Engine::Sharded`] (a sharded control plane is not a single
    /// `AllocatorService` — build it with
    /// [`ServiceBuilder::build_driver`]).
    pub fn build(self) -> Result<AllocatorService, ServiceError> {
        if matches!(self.engine, Engine::Sharded { .. }) {
            return Err(ServiceError::ShardedNeedsDriver);
        }
        let fabric = self.fabric.ok_or(ServiceError::MissingFabric)?;
        let engine = move |fabric: &TwoTierClos, alloc_cfg| match self.engine {
            Engine::Serial => SerialAllocator::new(fabric, alloc_cfg),
            Engine::Gradient => SerialAllocator::gradient(fabric, alloc_cfg),
            Engine::Sharded { .. } => unreachable!("rejected above"),
        };
        Ok(AllocatorService::from_parts(fabric, self.cfg, engine))
    }

    /// Builds a boxed [`TickDriver`](crate::TickDriver) over the chosen
    /// engine: a [`ShardedService`](crate::ShardedService) for
    /// [`Engine::Sharded`], a plain [`AllocatorService`] otherwise. This
    /// is the constructor for embedders (simulator, fluid driver,
    /// experiment binaries) whose shard count is configuration.
    ///
    /// # Errors
    /// [`ServiceError::MissingFabric`] without a fabric;
    /// [`ServiceError::BadShards`] for zero shards or nested sharding.
    pub fn build_driver(self) -> Result<crate::BoxTickDriver, ServiceError> {
        match self.engine {
            Engine::Sharded { shards, inner } => {
                Engine::check_shards(shards, &inner)?;
                let fabric = self.fabric.ok_or(ServiceError::MissingFabric)?;
                let clos = fabric.config();
                let placement = match self.cfg.placement {
                    crate::PlacementSpec::Contiguous => {
                        crate::Placement::contiguous(clos.server_count(), shards)
                    }
                    crate::PlacementSpec::Traffic => {
                        // Without a matrix the placer has no signal, and
                        // Placement::traffic falls back to contiguous.
                        let racks = clos.server_count() / clos.servers_per_rack;
                        let empty = crate::placement::TrafficMatrix::new(racks);
                        crate::Placement::traffic(
                            clos.server_count(),
                            clos.servers_per_rack,
                            shards,
                            self.matrix.as_ref().unwrap_or(&empty),
                        )
                    }
                };
                let services = (0..shards)
                    .map(|_| {
                        ServiceBuilder {
                            fabric: Some(fabric.clone()),
                            cfg: self.cfg,
                            engine: (*inner).clone(),
                            matrix: None,
                        }
                        .build()
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Box::new(crate::ShardedService::with_placement(
                    services, placement,
                )))
            }
            _ => Ok(Box::new(self.build()?)),
        }
    }
}

/// The §6.4 capacity/threshold coupling, shared by every engine path.
fn alloc_config(cfg: &FlowtuneConfig) -> AllocConfig {
    AllocConfig {
        f_norm: cfg.f_norm,
        capacity_fraction: cfg.capacity_fraction(),
        incremental: cfg.incremental,
        full_sweep_every: cfg.full_sweep_every,
        dirty_eps: cfg.dirty_eps,
    }
}

/// The centralized rate allocator (engine + F-NORM + update filtering).
/// The engine is the §5 grid, held directly and built from the fabric
/// by [`AllocatorService::new`] (serial) or [`AllocatorService::builder`]
/// (an [`Engine`] by name): a tick calls its `iterate`,
/// `dirty_counters` and `drain_changed_rates`.
#[derive(Debug)]
pub struct AllocatorService {
    fabric: TwoTierClos,
    engine: SerialAllocator,
    cfg: FlowtuneConfig,
    /// The flow table: slot `i` holds the export key ([`slot_key`]) of
    /// the flow the engine knows as `FlowId(i)`, so an id the engine
    /// lends resolves to its token and source with one index. Slots
    /// outside `index` are vacant (listed in `free`) and hold stale
    /// keys.
    slab: Vec<u64>,
    /// Vacant slab slots, reused (last freed first) before the slab
    /// grows — ids are recycled, see [`SerialAllocator::add_flow`].
    free: Vec<u32>,
    /// Token → slab slot, for the paths that are handed a token: intake
    /// and rate queries. A [`SlotTable`]: its buckets hold only the slot
    /// (5 bytes a bucket, where std's map of token and slot paid 9), and a
    /// probe compares the token with the slab's key. Hashed under std's
    /// keyed `hasher` — tokens come off the wire — and never iterated:
    /// the tick does not consult it, update order comes from ordering
    /// each tick's passers ([`Passers::emit`]), not from this index.
    index: SlotTable,
    hasher: RandomState,
    /// The passers [`AllocatorService::tick_into`] orders, kept across
    /// ticks.
    passers: Passers,
    stats: ServiceStats,
    timings: PhaseTimings,
}

impl AllocatorService {
    /// Builds the serial-engine service over `fabric` — the shortcut the
    /// simulator's defaults and the unit tests use. The §6.4 capacity
    /// headroom (`1 − update_threshold`) is applied to every link.
    ///
    /// # Panics
    /// Panics on an `update_threshold` outside `[0, 1)`.
    pub fn new(fabric: &TwoTierClos, cfg: FlowtuneConfig) -> Self {
        Self::from_parts(fabric.clone(), cfg, SerialAllocator::new)
    }

    /// Starts configuring a service with a run-time engine choice.
    pub fn builder() -> ServiceBuilder {
        ServiceBuilder::default()
    }

    /// Checks `cfg`, then builds the engine from the fabric and the
    /// engine configuration `cfg` implies.
    fn from_parts(
        fabric: TwoTierClos,
        cfg: FlowtuneConfig,
        engine: impl FnOnce(&TwoTierClos, AllocConfig) -> SerialAllocator,
    ) -> Self {
        // The engines allocate `1 − update_threshold` of every link.
        assert!(
            (0.0..1.0).contains(&cfg.update_threshold),
            "update_threshold must be in [0, 1), got {}",
            cfg.update_threshold
        );
        let engine = engine(&fabric, alloc_config(&cfg));
        Self {
            fabric,
            engine,
            cfg,
            slab: Vec::new(),
            free: Vec::new(),
            index: SlotTable::default(),
            hasher: RandomState::new(),
            passers: Passers::default(),
            stats: ServiceStats::default(),
            timings: PhaseTimings::default(),
        }
    }

    /// Handles an endpoint notification. Unknown `FlowletEnd`s are
    /// ignored (the flowlet may have been re-keyed by an endpoint
    /// restart, or belong to a predecessor allocator).
    ///
    /// # Errors
    /// [`ServiceError::DuplicateToken`] if a `FlowletStart` reuses a
    /// token that is still active, [`ServiceError::UnexpectedRateUpdate`]
    /// if a `RateUpdate` is delivered to the allocator. Either way the
    /// message is dropped, [`ServiceStats::rejected`] is bumped, and the
    /// service remains consistent — rejecting is not fatal.
    // flowtune-lint: hot
    pub fn on_message(&mut self, msg: Message) -> Result<(), ServiceError> {
        self.stats.bytes_in += msg.encoded_len() as u64;
        match msg {
            Message::FlowletStart {
                token,
                src,
                dst,
                weight_q8,
                spine,
                ..
            } => {
                let started = self.register(token, src, dst, weight_q8, spine);
                match started {
                    Ok(()) => self.stats.starts += 1,
                    Err(_) => self.stats.rejected += 1,
                }
                started
            }
            Message::FlowletEnd { token } => {
                if self.release(token) {
                    self.stats.ends += 1;
                }
                Ok(())
            }
            Message::RateUpdate { .. } => {
                self.stats.rejected += 1;
                Err(ServiceError::UnexpectedRateUpdate)
            }
        }
    }

    /// One allocator tick (§6.2: every 10 µs): runs one engine
    /// iteration and fills `out` (cleared first) with the
    /// `(source server, update)` pairs of every flow whose normalized
    /// rate moved beyond the threshold, in ascending token order. With a
    /// warm `out` a tick that sends nothing touches the heap zero times.
    // flowtune-lint: hot
    pub fn tick_into(&mut self, out: &mut Vec<(u16, Message)>) {
        let mut passers = std::mem::take(&mut self.passers);
        passers.clear();
        let export_start = self.allocate();
        self.export_into(&mut passers);
        passers.emit(out);
        self.timings.export += export_start.elapsed();
        self.passers = passers;
    }

    /// [`AllocatorService::tick_into`] without the ordering: one engine
    /// iteration, then this tick's passers appended to `passers`
    /// (unordered, and whatever it already held kept). A partitioned
    /// plane hands every shard one batch and orders it once, which gives
    /// the stream an unsharded service would emit: live tokens are
    /// distinct across shards.
    // flowtune-lint: hot
    pub fn tick_passers(&mut self, passers: &mut Passers) {
        let export_start = self.allocate();
        self.export_into(passers);
        self.timings.export += export_start.elapsed();
    }

    /// [`AllocatorService::tick_into`] returning an owned batch.
    pub fn tick(&mut self) -> Vec<(u16, Message)> {
        crate::TickDriver::tick(self)
    }

    /// One engine iteration, timed as the allocate phase; returns when it
    /// ended, which is when the export begins.
    // flowtune-lint: hot
    fn allocate(&mut self) -> Instant {
        let t0 = Instant::now();
        self.engine.iterate();
        self.stats.iterations += 1;
        let t1 = Instant::now();
        self.timings.allocate += t1 - t0;
        if let Some((dirty_flows, dirty_links)) = self.engine.dirty_counters() {
            // The counters are running totals the engine owns; mirror
            // them so shard sums aggregate naturally.
            self.stats.dirty_flows = dirty_flows;
            self.stats.dirty_links = dirty_links;
        }
        t1
    }

    /// The update export, appended to `passers`. The engine runs the
    /// §6.4 rule where the rates are — against what it last lent for
    /// each flow, see [`SerialAllocator::drain_changed_rates`] — and lends
    /// only the flows whose update must be sent, in *its* order and
    /// layout; each of those becomes one packed key (its slab slot's
    /// token and source, the rate's [`Rate16`] code). The rule reads and
    /// writes one flow's state, so filtering before ordering yields
    /// exactly the stream of a token-ordered walk. Every live flow that
    /// was not lent counts as suppressed.
    // flowtune-lint: hot, float-kernel
    fn export_into(&mut self, passers: &mut Passers) {
        let (slab, keys) = (&self.slab, &mut passers.keys);
        let before = keys.len();
        let threshold = self.cfg.update_threshold;
        self.engine
            .drain_changed_rates(threshold, &mut |ids, normalized| {
                grow::reserve(keys, ids.len());
                keys.extend(ids.iter().zip(normalized).map(|(id, &rate)| {
                    slab[id.0 as usize] | u64::from(Rate16::encode(rate).bits())
                }));
            });
        let sent = (keys.len() - before) as u64;
        self.stats.bytes_out += sent * RATE_BYTES as u64;
        self.stats.updates_sent += sent;
        self.stats.updates_suppressed += self.index.len() as u64 - sent;
    }

    /// Current normalized rate of an active flowlet, Gbit/s.
    pub fn flow_rate_gbps(&self, token: Token) -> Option<f64> {
        let slot = self.slot_of(token)?;
        Some(self.engine.flow_rate(FlowId(slot as u64))?.normalized)
    }

    /// Whether `token`, hashed under the hasher
    /// [`AllocatorService::share_hasher`] handed in, is live here — what
    /// a router asks its shards instead of keeping a token → shard index
    /// of its own.
    pub(crate) fn holds(&self, hash: u64, token: Token) -> bool {
        self.index.get(hash, holds(&self.slab, token)).is_some()
    }

    /// Re-keys the token index under `hasher`: a router hands its shards
    /// one, so that a token it hashes once probes every shard.
    pub(crate) fn share_hasher(&mut self, hasher: &RandomState) {
        self.hasher = hasher.clone();
        if self.index.len() > 0 {
            let (slab, hasher) = (&self.slab, &self.hasher);
            let rehash = |slot: u32| hasher.hash_one(key_token(slab[slot as usize]));
            self.index.rehash_in_place(rehash);
        }
    }

    /// The slab slot of a live token.
    fn slot_of(&self, token: Token) -> Option<u32> {
        let hash = self.hasher.hash_one(token.get());
        self.index.get(hash, holds(&self.slab, token))
    }

    /// The `FlowletEnd` path: drops the flow from the index and the
    /// engine and puts its slot on the free list. Returns whether the
    /// token was live.
    // flowtune-lint: hot
    fn release(&mut self, token: Token) -> bool {
        let hash = self.hasher.hash_one(token.get());
        let Some(slot) = self.index.remove(hash, holds(&self.slab, token)) else {
            return false;
        };
        self.engine.remove_flow(FlowId(slot as u64));
        self.free.push(slot);
        true
    }

    /// The `FlowletStart` path: probe the index once (the vacant entry
    /// it finds is the one filled at the end), check the endpoint
    /// fields, take a slab slot (its index is the engine-side id), decode
    /// the Q8 weight, build the path — inline, no heap — and seat the
    /// flow in the engine and its export key in the flow table.
    ///
    /// # Errors
    /// [`ServiceError::DuplicateToken`] if the token is live,
    /// [`ServiceError::MalformedStart`] if the fabric has no such
    /// endpoints or spine; nothing is changed either way.
    // flowtune-lint: hot
    fn register(
        &mut self,
        token: Token,
        src: u16,
        dst: u16,
        weight_q8: u16,
        spine: u8,
    ) -> Result<(), ServiceError> {
        let hash = self.hasher.hash_one(token.get());
        let Entry::Vacant(vacant) = self.index.entry(hash, holds(&self.slab, token)) else {
            return Err(ServiceError::DuplicateToken(token));
        };
        // Endpoint fields come off the wire too: a corrupted
        // src/dst/spine must be a rejection, not an engine panic.
        let clos = self.fabric.config();
        let key = slot_key(token, src);
        let (src, dst, spine) = (src as usize, dst as usize, spine as usize);
        let servers = clos.server_count();
        if src >= servers || dst >= servers || src == dst || spine >= clos.spines {
            return Err(ServiceError::MalformedStart(token));
        }
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = key;
                slot
            }
            None => {
                grow::reserve(&mut self.slab, 1);
                self.slab.push(key);
                (self.slab.len() - 1) as u32
            }
        };
        let weight = if weight_q8 == 0 {
            DEFAULT_WEIGHT
        } else {
            weight_q8 as f64 / 256.0
        };
        let path = self.fabric.path_via_spine(src, dst, spine);
        self.engine
            .add_flow(FlowId(slot as u64), src, dst, weight, &path);
        let (slab, hasher) = (&self.slab, &self.hasher);
        vacant.insert(slot, |slot| hasher.hash_one(key_token(slab[slot as usize])));
        Ok(())
    }

    /// Number of active flowlets.
    pub fn active_flows(&self) -> usize {
        self.index.len()
    }

    /// Operating counters.
    pub fn stats(&self) -> ServiceStats {
        self.stats
    }

    /// Cumulative per-phase wall time (allocate / export; this unsharded
    /// service has no exchange phase).
    pub fn phase_timings(&self) -> PhaseTimings {
        self.timings
    }

    /// The fabric this allocator serves.
    pub fn fabric(&self) -> &TwoTierClos {
        &self.fabric
    }

    /// The configuration this service runs under.
    pub fn config(&self) -> FlowtuneConfig {
        self.cfg
    }

    /// Every flow's current allocation into a caller-provided buffer
    /// (cleared first) — the allocation-free steady-state export (see
    /// [`SerialAllocator::rates_into`]).
    // flowtune-lint: hot
    pub fn rates_into(&self, out: &mut Vec<FlowRate>) {
        self.engine.rates_into(out);
    }

    /// The engine's own per-link loads (raw rates summed per global link,
    /// as of its last iteration — see [`SerialAllocator::link_state`])
    /// into a caller-provided buffer: one scatter through the engine's
    /// link slots.
    pub fn link_loads_into(&self, out: &mut Vec<f64>) {
        self.scatter_link_state(out, |[load, _], _| load);
    }

    /// The Hessian diagonal beside [`AllocatorService::link_loads_into`]'s
    /// loads, by global link, into a caller-provided buffer. Left empty on
    /// a gradient grid, whose price step has no second-order term.
    pub fn link_hessians_into(&self, out: &mut Vec<f64>) {
        if !self.scatter_link_state(out, |[_, hessian], _| hessian) {
            out.clear();
        }
    }

    /// The engine's current per-link duals, by global link, into a
    /// caller-provided buffer.
    pub fn link_prices_into(&self, out: &mut Vec<f64>) {
        self.scatter_link_state(out, |_, price| price);
    }

    /// One global view of the engine's slot-order export: `out` cleared
    /// and sized to the fabric's link count (control links read 0), and
    /// each slot's `value(totals, price)` written at its link. Returns
    /// whether every run carried Hessians.
    fn scatter_link_state(&self, out: &mut Vec<f64>, value: impl Fn([f64; 2], f64) -> f64) -> bool {
        out.clear();
        out.resize(self.fabric.topology().link_count(), 0.0);
        let (mut slots, mut second_order) = (self.engine.link_slots().iter(), true);
        self.engine.link_state(|run| {
            second_order &= run.hessians;
            // The run first: a zip that ends on it takes no slot past it.
            for ((&totals, &price), link) in run.totals.iter().zip(run.prices).zip(&mut slots) {
                out[link.index()] = value(totals, price);
            }
        });
        second_order
    }

    /// The engine's link slots, in slot order: the global link each entry
    /// of its link-state export stands for, and what a record of an
    /// exchange frame indexes (see [`SerialAllocator::link_slots`]).
    pub fn link_slots(&self) -> &[LinkId] {
        self.engine.link_slots()
    }

    /// The engine's slot-order export (see [`SerialAllocator::link_state`]).
    // flowtune-lint: hot
    pub(crate) fn link_state(&self, visit: impl FnMut(LinkRun<'_>)) {
        self.engine.link_state(visit);
    }

    /// The engine's slot-order install (see
    /// [`SerialAllocator::install_link_state`]).
    // flowtune-lint: hot
    pub(crate) fn install_link_state(&mut self, fill: impl FnOnce(LinkInstall<'_>)) {
        self.engine.install_link_state(fill);
    }

    /// The engine's short name (`serial` / `gradient`).
    pub fn engine_name(&self) -> &'static str {
        self.engine.name()
    }

    /// The engine's optimality certificate (see
    /// [`SerialAllocator::certificate`]): on demand, never from the tick.
    pub fn certificate(&self) -> Certificate {
        self.engine.certificate()
    }

    /// The grid itself, for a certificate over several shards.
    pub(crate) fn grid(&self) -> &SerialAllocator {
        &self.engine
    }
}

/// A tick's passers: the flows whose update passed the §6.4 threshold,
/// each kept as one packed key, `token << 32 | src << 16 | rate16`, in no
/// particular order until [`Passers::emit`] orders them.
/// [`AllocatorService::tick_passers`] appends a service's passers;
/// [`Router`](crate::router::Router) gathers every shard's into one batch
/// and emits it once, and an unsharded [`AllocatorService::tick_into`]
/// emits its own. Reused across ticks: the batch keeps its capacity.
#[derive(Debug, Default)]
pub struct Passers {
    keys: Vec<u64>,
}

impl Passers {
    /// Empties the batch, keeping its capacity.
    // flowtune-lint: hot
    #[inline]
    pub fn clear(&mut self) {
        self.keys.clear();
    }

    /// Appends `other`'s passers — another shard's batch of the same
    /// tick.
    // flowtune-lint: hot
    #[inline]
    pub fn append(&mut self, other: &Passers) {
        grow::reserve(&mut self.keys, other.keys.len());
        self.keys.extend_from_slice(&other.keys);
    }

    /// Writes the batch into `out` (cleared first) as `(source server,
    /// update)` pairs in ascending token order — an LSD radix sort over
    /// the token's three bytes whose second buffer is a stack array or
    /// `out` itself, a comparison sort below 128 keys; the batch itself
    /// is left in an unspecified order. With a warm `out` it allocates
    /// nothing.
    // flowtune-lint: hot
    pub fn emit(&mut self, out: &mut Vec<(u16, Message)>) {
        emit_ordered(&mut self.keys, out);
    }
}

/// Batches shorter than this go through `sort_unstable`: below it the
/// radix passes' fixed cost (three 256-entry histograms to zero and
/// prefix-sum, ≈ 0.4 µs) is the larger. Measured crossover: 130–190 keys.
const RADIX_CUTOFF: usize = 128;

/// Batches of at most this many keys run the radix's first two passes
/// through an array on the stack (8 KiB); longer ones through `out`. The
/// stack passes move 8-byte keys where `out`'s move 20-byte updates and
/// decode them back, ≈ 1 ns a key faster at a `churn-web` tick's ≈ 650
/// keys; past ≈ 1 000 keys zeroing the array costs what they save.
const STACK_KEYS: usize = 1024;

/// A passer key as the update it stands for: `(src, RateUpdate { token,
/// rate })`. The pair holds every bit of the key, so [`update_key`]
/// turns it back. The token is masked to the 24 bits every key's token
/// has (it was a [`Token`]), which lets the compiler drop
/// [`Token::new`]'s range check.
// flowtune-lint: hot
#[inline]
fn key_update(key: u64) -> (u16, Message) {
    let token = Token::new((key >> 32) as u32 & Token::MAX);
    let rate = Rate16::from_bits(key as u16);
    ((key >> 16) as u16, Message::RateUpdate { token, rate })
}

/// The key of an update [`key_update`] made — its inverse. Only ever
/// handed a `RateUpdate`; anything else reads as key 0.
// flowtune-lint: hot
#[inline]
fn update_key(&(src, ref msg): &(u16, Message)) -> u64 {
    match *msg {
        Message::RateUpdate { token, rate } => slot_key(token, src) | u64::from(rate.bits()),
        _ => 0,
    }
}

/// Writes the tick's passers into `out` (cleared first) in ascending
/// token order — the body of [`Passers::emit`]. A passer is one key,
/// `token << 32 | src << 16 | rate16`; live tokens are distinct (across
/// shards too: the router refuses a duplicate), so the emitted stream is
/// a function of the *set* of keys — the one a comparison sort by token
/// would give.
///
/// The order is an LSD radix sort over the token's three bytes (the wire
/// gives a token 24 bits, [`Token::MAX`], so three 8-bit counting passes
/// are total, and their cost does not depend on the input): all three
/// histograms from one read of the keys, then `keys` → second buffer →
/// `keys` → `out`. The sort holds no heap buffer of its own: the second
/// buffer is an array on the stack for a batch of up to [`STACK_KEYS`],
/// and `out` itself for a longer one — an update holds every bit of its
/// key ([`key_update`], [`update_key`]), and `out` must be as long as the
/// batch anyway.
// flowtune-lint: hot
fn emit_ordered(keys: &mut [u64], out: &mut Vec<(u16, Message)>) {
    out.clear();
    if keys.len() < RADIX_CUTOFF {
        keys.sort_unstable();
        out.extend(keys.iter().map(|&key| key_update(key)));
        return;
    }
    let digit = |key: u64, byte: usize| (key >> (32 + 8 * byte)) as u8 as usize;
    // Counts, then each digit's first position: an exclusive prefix sum.
    let mut next = [[0u32; 256]; 3];
    for &key in keys.iter() {
        for (byte, counts) in next.iter_mut().enumerate() {
            counts[digit(key, byte)] += 1;
        }
    }
    for counts in &mut next {
        let mut first = 0;
        for count in counts.iter_mut() {
            first += std::mem::replace(count, first);
        }
    }
    let mut place = |byte: usize, key: u64| {
        let at = &mut next[byte][digit(key, byte)];
        *at += 1;
        *at as usize - 1
    };
    if keys.len() <= STACK_KEYS {
        let mut stack = [0u64; STACK_KEYS];
        let scratch = &mut stack[..keys.len()];
        for &key in keys.iter() {
            scratch[place(0, key)] = key;
        }
        for &key in scratch.iter() {
            keys[place(1, key)] = key;
        }
        out.resize(keys.len(), key_update(0));
    } else {
        out.resize(keys.len(), key_update(0));
        for &key in keys.iter() {
            out[place(0, key)] = key_update(key);
        }
        for update in out.iter() {
            let key = update_key(update);
            keys[place(1, key)] = key;
        }
    }
    for &key in keys.iter() {
        out[place(2, key)] = key_update(key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowtune_proto::ThresholdFilter;
    use flowtune_topo::ClosConfig;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    fn fabric() -> TwoTierClos {
        TwoTierClos::build(ClosConfig::paper_eval())
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

    #[test]
    fn single_flow_gets_headroom_scaled_line_rate() {
        let mut svc = AllocatorService::new(&fabric(), FlowtuneConfig::default());
        svc.on_message(start(1, 0, 140)).unwrap();
        // A handful of 10 µs ticks converge the only flow to line rate
        // × 0.99 headroom.
        let mut last = Vec::new();
        for _ in 0..200 {
            last = svc.tick();
        }
        let rate = svc.flow_rate_gbps(Token::new(1)).unwrap();
        assert!((rate - 9.9).abs() < 0.05, "rate {rate}");
        // Converged ⇒ the filter suppresses further updates.
        assert!(last.is_empty(), "{last:?}");
    }

    #[test]
    #[should_panic(expected = "update_threshold must be in [0, 1), got 1")]
    fn an_update_threshold_of_one_is_refused() {
        // It would leave the engine `1 − 1 = 0` of every link.
        let cfg = FlowtuneConfig {
            update_threshold: 1.0,
            ..FlowtuneConfig::default()
        };
        let _ = AllocatorService::builder()
            .fabric(&fabric())
            .config(cfg)
            .build();
    }

    #[test]
    #[should_panic(expected = "update_threshold must be in [0, 1), got 1.5")]
    fn an_update_threshold_above_one_is_refused() {
        let _ = AllocatorService::new(
            &fabric(),
            FlowtuneConfig {
                update_threshold: 1.5,
                ..FlowtuneConfig::default()
            },
        );
    }

    #[test]
    fn updates_route_to_the_source_server() {
        let mut svc = AllocatorService::new(&fabric(), FlowtuneConfig::default());
        svc.on_message(start(1, 17, 99)).unwrap();
        let updates = svc.tick();
        assert_eq!(updates.len(), 1);
        assert_eq!(updates[0].0, 17);
    }

    #[test]
    fn two_flows_share_fairly_and_end_frees() {
        let mut svc = AllocatorService::new(&fabric(), FlowtuneConfig::default());
        svc.on_message(start(1, 0, 140)).unwrap();
        svc.on_message(start(2, 1, 141)).unwrap(); // same rack 0 → shares nothing
        for _ in 0..100 {
            svc.tick();
        }
        // Different sources/destinations: both get full line rate.
        assert!((svc.flow_rate_gbps(Token::new(1)).unwrap() - 9.9).abs() < 0.05);
        assert!((svc.flow_rate_gbps(Token::new(2)).unwrap() - 9.9).abs() < 0.05);

        // Now two flows from the same source share its access link.
        svc.on_message(start(3, 0, 100)).unwrap();
        for _ in 0..200 {
            svc.tick();
        }
        let r1 = svc.flow_rate_gbps(Token::new(1)).unwrap();
        let r3 = svc.flow_rate_gbps(Token::new(3)).unwrap();
        assert!((r1 - 4.95).abs() < 0.1, "shared uplink: {r1}");
        assert!((r3 - 4.95).abs() < 0.1, "shared uplink: {r3}");

        svc.on_message(Message::FlowletEnd {
            token: Token::new(3),
        })
        .unwrap();
        for _ in 0..200 {
            svc.tick();
        }
        let r1 = svc.flow_rate_gbps(Token::new(1)).unwrap();
        assert!((r1 - 9.9).abs() < 0.05, "back to line rate: {r1}");
        assert_eq!(svc.active_flows(), 2);
    }

    #[test]
    fn threshold_suppresses_steady_state_updates() {
        let mut svc = AllocatorService::new(&fabric(), FlowtuneConfig::default());
        svc.on_message(start(1, 0, 140)).unwrap();
        for _ in 0..100 {
            svc.tick();
        }
        let before = svc.stats().updates_sent;
        for _ in 0..100 {
            let updates = svc.tick();
            assert!(updates.is_empty());
        }
        assert_eq!(svc.stats().updates_sent, before);
        assert!(svc.stats().updates_suppressed > 0);
    }

    fn end(token: u32) -> Message {
        Message::FlowletEnd {
            token: Token::new(token),
        }
    }

    fn update_tokens(updates: &[(u16, Message)]) -> Vec<u32> {
        updates
            .iter()
            .map(|(_, m)| match m {
                Message::RateUpdate { token, .. } => token.get(),
                other => panic!("tick emitted {other:?}"),
            })
            .collect()
    }

    /// The source server the flow table holds for a live token.
    fn source_of(svc: &AllocatorService, token: u32) -> Option<u16> {
        Some((svc.slab[svc.slot_of(Token::new(token))? as usize] >> 16) as u16)
    }

    #[test]
    fn updates_are_token_ordered_when_the_slab_is_not() {
        let mut svc = AllocatorService::new(&fabric(), FlowtuneConfig::default());
        // Slots are handed out in arrival order, and the freed slot 0 is
        // reused by the highest token: slab order ends up 9, 2, 7, 4.
        for (token, src) in [(5, 0), (2, 20), (7, 40), (4, 60)] {
            svc.on_message(start(token, src, src + 70)).unwrap();
        }
        svc.on_message(end(5)).unwrap();
        svc.on_message(start(9, 80, 10)).unwrap();
        let slab_order: Vec<u64> = svc.slab.iter().map(|key| key >> 32).collect();
        assert_eq!(slab_order, vec![9, 2, 7, 4]);
        let updates = svc.tick();
        assert_eq!(update_tokens(&updates), vec![2, 4, 7, 9]);
        let sources: Vec<u16> = updates.iter().map(|&(src, _)| src).collect();
        assert_eq!(sources, vec![20, 60, 40, 80]);
    }

    proptest! {
        // `emit_ordered` against the comparison sort it replaced: the
        // same batch as the old `(Token, u16, Rate16)` tuples through
        // `sort_unstable_by_key(token)`, element for element. Sizes: the
        // smallest batches, both sides of each cutoff, one batch a tick
        // of `churn-web` lends, and one of the 10⁵ a `quiet100k`
        // convergence tick does.
        #[test]
        fn emit_ordered_matches_the_comparison_sort(
            n in prop_oneof![
                Just(0usize), Just(1), Just(2), Just(3), Just(RADIX_CUTOFF - 1),
                Just(RADIX_CUTOFF), Just(RADIX_CUTOFF + 1), Just(650), Just(STACK_KEYS - 1),
                Just(STACK_KEYS), Just(STACK_KEYS + 1), Just(70_000), Just(100_000)
            ],
            shape in 0usize..5,
            seed in any::<u64>(),
        ) {
            let mut rng = TestRng::deterministic(&format!("emit-{seed}"));
            // Distinct tokens: an odd multiplier permutes any power-of-two
            // range, so `i * odd` walks it without a repeat.
            let odd = rng.next_u64() as u32 | 1;
            let mut tokens: Vec<u32> = match shape {
                // All 24 bits, in no order, ascending, descending.
                0..=2 => (0..n as u32).map(|i| i.wrapping_mul(odd) & Token::MAX).collect(),
                // One 256-token window wherever it falls, then an aligned
                // one — only the low byte differs, two digits constant.
                _ => {
                    let base = rng.below((Token::MAX - 255) as usize) as u32;
                    let base = if shape == 3 { base } else { base & !0xFF };
                    (0..n.min(256) as u32).map(|i| base + (i.wrapping_mul(odd) & 0xFF)).collect()
                }
            };
            match shape {
                1 => tokens.sort_unstable(),
                2 => tokens.sort_unstable_by(|a, b| b.cmp(a)),
                _ => {}
            }
            let mut tuples: Vec<(Token, u16, Rate16)> = tokens
                .iter()
                .map(|&t| {
                    let bits = rng.next_u64();
                    (Token::new(t), bits as u16, Rate16::from_bits((bits >> 16) as u16))
                })
                .collect();
            let mut keys: Vec<u64> = tuples
                .iter()
                .map(|&(token, src, rate)| {
                    u64::from(token.get()) << 32 | u64::from(src) << 16 | u64::from(rate.bits())
                })
                .collect();
            // Stale output from an earlier, longer tick.
            let mut out = vec![(7, end(7)); n + 7];
            emit_ordered(&mut keys, &mut out);
            tuples.sort_unstable_by_key(|&(token, ..)| token);
            let want: Vec<(u16, Message)> = tuples
                .iter()
                .map(|&(token, src, rate)| (src, Message::RateUpdate { token, rate }))
                .collect();
            prop_assert!(out == want, "n {} shape {} seed {}", n, shape, seed);
        }

        // The router's one emit of every shard's appended, unordered
        // batch against what it replaced: each shard's batch emitted
        // alone, then `merge_by_token_into` over those streams. Tokens
        // are disjoint across shards, as the router keeps them.
        #[test]
        fn emit_ordered_of_the_appended_shard_batches_equals_per_shard_emit_then_merge(
            sizes in proptest::collection::vec(
                prop_oneof![
                    Just(0usize), Just(1), Just(RADIX_CUTOFF - 1), Just(RADIX_CUTOFF),
                    Just(RADIX_CUTOFF + 1), 0usize..=1000
                ],
                1..=8,
            ),
            seed in any::<u64>(),
        ) {
            let mut rng = TestRng::deterministic(&format!("shards-{seed}"));
            let odd = rng.next_u64() as u32 | 1;
            let mut next = 0u32;
            let shards: Vec<Passers> = sizes
                .iter()
                .map(|&n| {
                    let mut batch = Passers::default();
                    batch.keys.extend((0..n).map(|_| {
                        let token = next.wrapping_mul(odd) & Token::MAX;
                        next += 1;
                        u64::from(token) << 32 | rng.next_u64() & 0xFFFF_FFFF
                    }));
                    batch
                })
                .collect();
            // A warm batch from an earlier, longer tick.
            let mut all = Passers {
                keys: vec![u64::MAX; 9000],
            };
            all.clear();
            for shard in &shards {
                all.append(shard);
            }
            let mut once = vec![(7, end(7)); 3];
            all.emit(&mut once);
            let mut streams: Vec<Vec<(u16, Message)>> = shards
                .into_iter()
                .map(|mut shard| {
                    let mut stream = Vec::new();
                    shard.emit(&mut stream);
                    stream
                })
                .collect();
            let mut merged = Vec::new();
            crate::router::merge_by_token_into(&mut streams, &mut merged);
            prop_assert!(once.len() == sizes.iter().sum::<usize>(), "sizes {:?}", sizes);
            prop_assert!(once == merged, "sizes {:?} seed {}", sizes, seed);
        }
    }

    #[test]
    fn the_flow_table_grows_by_a_quarter_not_double() {
        let fabric = fabric();
        let servers = fabric.config().server_count() as u32;
        let mut svc = AllocatorService::new(&fabric, FlowtuneConfig::default());
        for n in 1..=5_000u32 {
            let src = n % servers;
            let dst = (src + 1 + n / servers % (servers - 1)) % servers;
            svc.on_message(start(n, src as u16, dst as u16)).unwrap();
            let slots = svc.slab.capacity();
            assert!(
                slots <= grow::bound(n as usize),
                "{slots} slots for {n} flows"
            );
        }
    }

    #[test]
    fn recycled_slot_starts_without_a_last_sent_rate() {
        // A wide threshold makes inheritance observable: the successor's
        // first rate lands well within 50 % of what its predecessor was
        // last sent, so an id that kept that memory would stay silent.
        let cfg = FlowtuneConfig {
            update_threshold: 0.5,
            ..FlowtuneConfig::default()
        };
        let mut svc = AllocatorService::new(&fabric(), cfg);
        svc.on_message(start(1, 0, 140)).unwrap();
        // What the predecessor was last sent, as the endpoint decoded it
        // (Rate16's ≤ 0.025 % is nothing beside the threshold).
        let mut last_sent = None;
        for _ in 0..200 {
            if let [(_, Message::RateUpdate { rate, .. })] = svc.tick()[..] {
                last_sent = Some(rate.decode());
            }
        }
        assert!(last_sent.is_some());
        let slot = svc.slot_of(Token::new(1)).unwrap();
        // Same path, same tick: the prices the successor meets are the
        // converged ones its predecessor left behind.
        svc.on_message(end(1)).unwrap();
        svc.on_message(start(2, 0, 140)).unwrap();
        assert_eq!(
            svc.slot_of(Token::new(2)),
            Some(slot),
            "slot (and id) recycled"
        );
        let updates = svc.tick();
        assert_eq!(
            update_tokens(&updates),
            vec![2],
            "first rate is always sent"
        );
        let first = svc.flow_rate_gbps(Token::new(2)).unwrap();
        assert!(
            !ThresholdFilter::passes(cfg.update_threshold, last_sent, first),
            "premise: {first} must be within the threshold of {last_sent:?}"
        );
    }

    #[test]
    fn queries_follow_tokens_across_slot_reuse() {
        let mut svc = AllocatorService::new(&fabric(), FlowtuneConfig::default());
        svc.on_message(start(1, 0, 140)).unwrap();
        svc.on_message(start(2, 17, 99)).unwrap();
        svc.on_message(end(1)).unwrap();
        assert_eq!(svc.active_flows(), 1);
        assert_eq!(source_of(&svc, 1), None);
        assert_eq!(svc.flow_rate_gbps(Token::new(1)), None);
        // Token 3 takes over token 1's slot; token 1 stays unknown and
        // token 2 is undisturbed.
        svc.on_message(start(3, 30, 100)).unwrap();
        assert_eq!(
            svc.slab.len(),
            2,
            "the freed slot is reused, not grown past"
        );
        assert_eq!(svc.active_flows(), 2);
        assert_eq!(source_of(&svc, 3), Some(30));
        assert_eq!(source_of(&svc, 2), Some(17));
        assert_eq!(source_of(&svc, 1), None);
        for _ in 0..100 {
            svc.tick();
        }
        assert!((svc.flow_rate_gbps(Token::new(3)).unwrap() - 9.9).abs() < 0.05);
        assert!((svc.flow_rate_gbps(Token::new(2)).unwrap() - 9.9).abs() < 0.05);
        assert_eq!(svc.flow_rate_gbps(Token::new(1)), None);
        // A token can come back on a different slot after its own ended.
        svc.on_message(end(2)).unwrap();
        svc.on_message(start(1, 50, 120)).unwrap();
        assert_eq!(source_of(&svc, 1), Some(50));
        assert_eq!(update_tokens(&svc.tick()), vec![1]);
    }

    #[test]
    fn unknown_end_is_ignored() {
        let mut svc = AllocatorService::new(&fabric(), FlowtuneConfig::default());
        svc.on_message(Message::FlowletEnd {
            token: Token::new(9),
        })
        .unwrap();
        assert_eq!(svc.active_flows(), 0);
        assert_eq!(svc.stats().ends, 0);
    }

    #[test]
    fn byte_accounting_matches_wire_sizes() {
        let mut svc = AllocatorService::new(&fabric(), FlowtuneConfig::default());
        svc.on_message(start(1, 0, 140)).unwrap();
        svc.on_message(Message::FlowletEnd {
            token: Token::new(1),
        })
        .unwrap();
        assert_eq!(svc.stats().bytes_in, 16 + 4);
    }

    #[test]
    fn duplicate_active_token_is_rejected_not_fatal() {
        let mut svc = AllocatorService::new(&fabric(), FlowtuneConfig::default());
        svc.on_message(start(1, 0, 140)).unwrap();
        let err = svc.on_message(start(1, 2, 141)).unwrap_err();
        assert_eq!(err, ServiceError::DuplicateToken(Token::new(1)));
        assert_eq!(svc.stats().rejected, 1);
        assert_eq!(svc.stats().starts, 1, "original registration kept");
        // The service still operates: the original flow converges.
        for _ in 0..100 {
            svc.tick();
        }
        assert!(svc.flow_rate_gbps(Token::new(1)).unwrap() > 9.0);
    }

    #[test]
    fn corrupt_endpoint_fields_are_rejected_not_fatal() {
        let mut svc = AllocatorService::new(&fabric(), FlowtuneConfig::default());
        let mk = |token: u32, src: u16, dst: u16, spine: u8| Message::FlowletStart {
            token: Token::new(token),
            src,
            dst,
            size_hint: 1,
            weight_q8: 256,
            spine,
        };
        // src == dst, endpoint out of range, spine out of range: each a
        // rejection, none a panic.
        for (i, msg) in [
            mk(1, 5, 5, 1),
            mk(2, 9999, 0, 1),
            mk(3, 0, 9999, 1),
            mk(4, 0, 140, 200),
        ]
        .into_iter()
        .enumerate()
        {
            let err = svc.on_message(msg).unwrap_err();
            assert!(matches!(err, ServiceError::MalformedStart(_)), "{err}");
            assert_eq!(svc.stats().rejected, i as u64 + 1);
        }
        assert_eq!(svc.active_flows(), 0);
        // The service is unharmed: a valid start still converges.
        svc.on_message(start(5, 0, 140)).unwrap();
        for _ in 0..100 {
            svc.tick();
        }
        assert!(svc.flow_rate_gbps(Token::new(5)).unwrap() > 9.0);
    }

    #[test]
    fn rate_update_to_allocator_is_rejected() {
        let mut svc = AllocatorService::new(&fabric(), FlowtuneConfig::default());
        let msg = Message::RateUpdate {
            token: Token::new(5),
            rate: Rate16::encode(1.0),
        };
        assert_eq!(svc.on_message(msg), Err(ServiceError::UnexpectedRateUpdate));
        assert_eq!(svc.stats().rejected, 1);
    }

    #[test]
    fn builder_requires_a_fabric() {
        let err = AllocatorService::builder().build().unwrap_err();
        assert_eq!(err, ServiceError::MissingFabric);
    }

    #[test]
    fn engine_parse_roundtrips_names() {
        for engine in [Engine::Serial, Engine::Gradient] {
            assert_eq!(Engine::parse(engine.name()), Ok(engine));
        }
    }

    #[test]
    fn engine_parse_error_lists_valid_names() {
        // `multicore` is the grid's §5 pool schedule, which serves the
        // §6.1 tables and no service: refused like any other name.
        for bad in ["warp-drive", "multicore"] {
            let err = Engine::parse(bad).unwrap_err();
            assert_eq!(err.got(), bad);
            let msg = err.to_string();
            assert!(msg.contains(&format!("unknown engine `{bad}`")), "{msg}");
            for name in ENGINE_NAMES {
                assert!(msg.contains(name), "{msg} should list {name}");
            }
        }
    }

    #[test]
    fn sharded_engine_needs_the_driver_constructor() {
        let err = AllocatorService::builder()
            .fabric(&fabric())
            .engine(Engine::Serial.sharded(2))
            .build()
            .unwrap_err();
        assert_eq!(err, ServiceError::ShardedNeedsDriver);
    }

    #[test]
    fn build_driver_rejects_degenerate_shard_specs() {
        let err = AllocatorService::builder()
            .fabric(&fabric())
            .engine(Engine::Serial.sharded(0))
            .build_driver()
            .unwrap_err();
        assert!(matches!(err, ServiceError::BadShards(_)), "{err}");
        let err = AllocatorService::builder()
            .fabric(&fabric())
            .engine(Engine::Serial.sharded(2).sharded(2))
            .build_driver()
            .unwrap_err();
        assert!(matches!(err, ServiceError::BadShards(_)), "{err}");
    }

    #[test]
    #[should_panic(expected = "exchange_delta_eps must be finite and ≥ 0, got NaN")]
    fn a_nan_exchange_delta_eps_is_refused() {
        let cfg = FlowtuneConfig {
            exchange_delta_eps: f64::NAN,
            ..FlowtuneConfig::default()
        };
        let _ = AllocatorService::builder()
            .fabric(&fabric())
            .config(cfg)
            .engine(Engine::Serial.sharded(2))
            .build_driver();
    }

    #[test]
    fn build_driver_builds_plain_and_sharded_services() {
        let f = fabric();
        for (engine, name) in [
            (Engine::Serial, "serial"),
            (Engine::Gradient, "gradient"),
            (Engine::Serial.sharded(3), "sharded"),
        ] {
            let mut drv = AllocatorService::builder()
                .fabric(&f)
                .engine(engine)
                .build_driver()
                .unwrap();
            assert_eq!(drv.engine_name(), name);
            drv.on_message(start(1, 0, 140)).unwrap();
            let updates = drv.tick();
            assert_eq!(updates.len(), 1);
            assert_eq!(updates[0].0, 0);
        }
    }
}

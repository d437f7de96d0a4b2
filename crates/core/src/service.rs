//! The centralized allocator as a library.
//!
//! # Layering: engines, services, drivers
//!
//! The control plane is built from three layers, each swappable
//! independently of the others:
//!
//! 1. **[`RateAllocator`] engines** compute per-flow rates over a fixed
//!    fabric. [`Engine`] names them: [`Engine::Serial`] (the reference
//!    NED optimizer), [`Engine::Multicore`] (the §5 FlowBlock-parallel
//!    engine, bit-for-bit equal rates, persistent worker pool),
//!    [`Engine::Fastpass`] (per-packet timeslot arbitration, the §6.1
//!    baseline) and [`Engine::Gradient`] (first-order gradient
//!    projection, the §6.6/Figure-12 baseline).
//! 2. **[`AllocatorService`]** is the Figure-1 box around one engine,
//!    held as a boxed [`RateAllocator`] — one concrete service type
//!    whatever runs behind it, three dynamic calls a tick. It
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
//!    and merges the shards' update streams back into one token-ordered
//!    stream. Embedders that should
//!    run sharded or unsharded by configuration hold a
//!    [`BoxTickDriver`](crate::BoxTickDriver) built with
//!    [`ServiceBuilder::build_driver`].
//!
//! Malformed or inconsistent control messages (duplicate live tokens,
//! rate updates sent *to* the allocator) are reportable conditions, not
//! crashes: [`AllocatorService::on_message`] returns a [`ServiceError`]
//! and bumps [`ServiceStats::rejected`].

use std::collections::hash_map::{Entry, HashMap};
use std::time::Instant;

use flowtune_alloc::{AllocConfig, BoxEngine, FlowRate, RateAllocator, SerialAllocator};
use flowtune_fastpass::FastpassAdapter;
use flowtune_proto::codec::RATE_BYTES;
use flowtune_proto::{Message, Rate16, Token};
use flowtune_topo::{FlowId, TwoTierClos};

use crate::driver::PhaseTimings;
use crate::FlowtuneConfig;

/// A flowlet's registration: what a `FlowletStart` said about it. Held
/// in the service's flow table while the flowlet is live (one slab slot,
/// found by the [`FlowId`] the engine reports rates under).
///
/// The table is cold: the export reads a slot only for a flow whose
/// update is actually sent (the §6.4 memory that decides it lives in the
/// engine, beside the flow's rate), and then only `token` and `src`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FlowEntry {
    /// The endpoint-visible flowlet token.
    token: Token,
    /// Source server index.
    src: u16,
    /// Destination server index.
    dst: u16,
    /// Proportional-fairness weight in Q8 fixed point (0 = unspecified:
    /// weight 1), exactly as the original `FlowletStart` carried it.
    weight_q8: u16,
    /// The ECMP spine of the flow's path.
    spine: u8,
}

impl FlowEntry {
    /// The flow's export key less its rate: `token << 32 | src << 16`
    /// (see [`emit_ordered`]).
    fn key(&self) -> u64 {
        u64::from(self.token.get()) << 32 | u64::from(self.src) << 16
    }
}

/// Proportional-fairness weight of a flow that does not specify one.
pub(crate) const DEFAULT_WEIGHT: f64 = 1.0;

// A slot is what every live flowlet costs the table, and one cache line
// holds five of them.
const _: () = assert!(std::mem::size_of::<FlowEntry>() <= 12);

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
    /// Bytes of link state shipped between shards by those rounds: a
    /// 4-byte link id plus 8 bytes per vector for each entry the delta
    /// filter ships or a subscribed shard imports ([`crate::sharded`]).
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
    /// shards nested inside shards, or several Fastpass arbiters).
    BadShards(&'static str),
    /// A shard's engine panicked during a sharded
    /// [`TickDriver::try_tick_into`](crate::TickDriver::try_tick_into). The
    /// sibling shards completed the tick and the worker pool survives
    /// (the panic payload is printed by the panic hook as usual); the
    /// merged update stream for the tick is dropped because it would be
    /// missing the dead shard's updates.
    ShardPanicked {
        /// Index of the shard whose tick panicked.
        shard: usize,
    },
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
            ServiceError::ShardPanicked { shard } => {
                write!(f, "shard {shard} panicked during its tick")
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
    /// §5 FlowBlock-parallel NED engine. `workers` caps the OS threads
    /// per iteration; `0` sizes to the host.
    Multicore {
        /// OS-thread cap (0 = auto).
        workers: usize,
    },
    /// Fastpass-style per-packet timeslot arbitration (§6.1 baseline).
    Fastpass,
    /// First-order gradient projection (§6.6 / Figure-12 baseline).
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
pub const ENGINE_NAMES: [&str; 4] = ["serial", "multicore", "fastpass", "gradient"];

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
            "multicore" => Ok(Engine::Multicore { workers: 0 }),
            "fastpass" => Ok(Engine::Fastpass),
            "gradient" => Ok(Engine::Gradient),
            _ => Err(ParseEngineError { got: s.to_string() }),
        }
    }

    /// The flag-style name (`serial` / `multicore` / `fastpass` /
    /// `gradient` / `sharded`).
    pub fn name(&self) -> &'static str {
        match self {
            Engine::Serial => "serial",
            Engine::Multicore { .. } => "multicore",
            Engine::Fastpass => "fastpass",
            Engine::Gradient => "gradient",
            Engine::Sharded { .. } => "sharded",
        }
    }

    /// The partitions [`ServiceBuilder::build_driver`] refuses to build.
    ///
    /// # Errors
    /// [`ServiceError::BadShards`], saying why: zero shards, shards
    /// nested inside shards, or two or more Fastpass shards.
    pub fn check_shards(shards: usize, inner: &Engine) -> Result<(), ServiceError> {
        if shards == 0 {
            return Err(ServiceError::BadShards("shard count must be at least 1"));
        }
        if matches!(inner, Engine::Sharded { .. }) {
            return Err(ServiceError::BadShards("shards cannot nest"));
        }
        if shards > 1 && *inner == Engine::Fastpass {
            return Err(ServiceError::BadShards(
                "fastpass cannot be sharded: every shard's arbiter would match the whole \
                 fabric, and it prices no links for the shards to exchange",
            ));
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
        let tick_ps = self.cfg.tick_interval_ps;
        let engine = move |fabric: &TwoTierClos, alloc_cfg| -> BoxEngine {
            match self.engine {
                Engine::Serial => Box::new(SerialAllocator::new(fabric, alloc_cfg)),
                Engine::Multicore { workers } => {
                    Box::new(SerialAllocator::multicore(fabric, alloc_cfg, workers))
                }
                // The arbiter's iteration *is* fabric time: one tick of it.
                Engine::Fastpass => Box::new(
                    FastpassAdapter::new(fabric, alloc_cfg)
                        .with_iteration_time_ps(tick_ps, fabric.config().host_link_bps),
                ),
                Engine::Gradient => {
                    Box::new(flowtune_alloc::GradientAllocator::new(fabric, alloc_cfg))
                }
                Engine::Sharded { .. } => unreachable!("rejected above"),
            }
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
    /// [`ServiceError::BadShards`] for zero shards, nested sharding, or
    /// two or more shards of [`Engine::Fastpass`].
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
                    crate::PlacementSpec::Traffic { refine } => {
                        // Without a matrix the placer has no signal, and
                        // Placement::traffic falls back to contiguous.
                        let racks = clos.server_count() / clos.servers_per_rack;
                        let empty = crate::placement::TrafficMatrix::new(racks);
                        crate::Placement::traffic(
                            clos.server_count(),
                            clos.servers_per_rack,
                            shards,
                            self.matrix.as_ref().unwrap_or(&empty),
                            refine,
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
/// The engine sits behind one seam, a boxed [`RateAllocator`]: a tick
/// crosses it three times (`iterate`, `dirty_counters`,
/// `drain_changed_rates`) whichever engine was chosen, and whoever chose
/// it — [`AllocatorService::new`] (serial), [`AllocatorService::builder`]
/// (an [`Engine`] by name) or [`AllocatorService::with_engine`] (any
/// implementation, test doubles included).
#[derive(Debug)]
pub struct AllocatorService {
    fabric: TwoTierClos,
    engine: BoxEngine,
    cfg: FlowtuneConfig,
    /// The flow table: slot `i` holds the flow the engine knows as
    /// `FlowId(i)`, so an id the engine lends resolves to its
    /// registration with one index. Slots outside `index` are vacant
    /// (listed in `free`) and hold stale data.
    slab: Vec<FlowEntry>,
    /// Vacant slab slots, reused (last freed first) before the slab
    /// grows — ids are recycled, see [`RateAllocator::add_flow`].
    free: Vec<u32>,
    /// Token → slab slot, for the paths that are handed a token: intake
    /// and rate queries. Hashed, under std's keyed hasher — tokens come
    /// off the wire — and never iterated: the tick does not
    /// consult it, update order comes from ordering each tick's passers
    /// ([`emit_ordered`]), not from this map.
    index: HashMap<Token, u32>,
    /// Scratch buffers, kept across ticks: the tick's passers as packed
    /// keys, and the radix passes' second buffer.
    pass_buf: Vec<u64>,
    radix_buf: Vec<u64>,
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
        Self::from_parts(fabric.clone(), cfg, |fabric, alloc_cfg| {
            Box::new(SerialAllocator::new(fabric, alloc_cfg))
        })
    }

    /// Starts configuring a service with a run-time engine choice.
    pub fn builder() -> ServiceBuilder {
        ServiceBuilder::default()
    }

    /// Builds the service around an already-constructed engine. The
    /// engine must have been built over the same `fabric`.
    pub fn with_engine(
        fabric: &TwoTierClos,
        cfg: FlowtuneConfig,
        engine: impl RateAllocator + 'static,
    ) -> Self {
        Self::from_parts(fabric.clone(), cfg, |_, _| Box::new(engine))
    }

    /// Checks `cfg`, then builds the engine from the fabric and the
    /// engine configuration `cfg` implies.
    fn from_parts(
        fabric: TwoTierClos,
        cfg: FlowtuneConfig,
        engine: impl FnOnce(&TwoTierClos, AllocConfig) -> BoxEngine,
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
            index: HashMap::new(),
            pass_buf: Vec::new(),
            radix_buf: Vec::new(),
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
                let started = self.register(FlowEntry {
                    token,
                    src,
                    dst,
                    weight_q8,
                    spine,
                });
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
        self.export_into(out);
        self.timings.export += t1.elapsed();
    }

    /// [`AllocatorService::tick_into`] returning an owned batch.
    pub fn tick(&mut self) -> Vec<(u16, Message)> {
        crate::TickDriver::tick(self)
    }

    /// The update export. The engine runs the §6.4 rule where the rates
    /// are — against what it last lent for each flow, see
    /// [`RateAllocator::drain_changed_rates`] — and lends only the flows
    /// whose update must be sent, in *its* order and layout; each of
    /// those becomes one packed key (its slab slot's token and source,
    /// the rate's [`Rate16`] code), and [`emit_ordered`] writes the batch
    /// out in token order. The rule reads and writes one flow's state,
    /// so filtering before ordering yields exactly the stream of a
    /// token-ordered walk. Every live flow that was not lent counts as
    /// suppressed.
    // flowtune-lint: hot, float-kernel
    fn export_into(&mut self, out: &mut Vec<(u16, Message)>) {
        let (slab, pass_buf) = (&self.slab, &mut self.pass_buf);
        pass_buf.clear();
        let threshold = self.cfg.update_threshold;
        self.engine
            .drain_changed_rates(threshold, &mut |ids, normalized| {
                pass_buf.extend(ids.iter().zip(normalized).map(|(id, &rate)| {
                    slab[id.0 as usize].key() | u64::from(Rate16::encode(rate).bits())
                }));
            });
        emit_ordered(pass_buf, &mut self.radix_buf, out);
        let sent = out.len() as u64;
        self.stats.bytes_out += sent * RATE_BYTES as u64;
        self.stats.updates_sent += sent;
        self.stats.updates_suppressed += self.index.len() as u64 - sent;
    }

    /// Current normalized rate of an active flowlet, Gbit/s.
    pub fn flow_rate_gbps(&self, token: Token) -> Option<f64> {
        let &slot = self.index.get(&token)?;
        Some(self.engine.flow_rate(FlowId(slot as u64))?.normalized)
    }

    /// The `FlowletEnd` path: drops the flow from the index and the
    /// engine and puts its slot on the free list. Returns whether the
    /// token was live.
    // flowtune-lint: hot
    fn release(&mut self, token: Token) -> bool {
        let Some(slot) = self.index.remove(&token) else {
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
    /// flow in the engine and the flow table.
    ///
    /// # Errors
    /// [`ServiceError::DuplicateToken`] if the token is live,
    /// [`ServiceError::MalformedStart`] if the fabric has no such
    /// endpoints or spine; nothing is changed either way.
    // flowtune-lint: hot
    fn register(&mut self, reg: FlowEntry) -> Result<(), ServiceError> {
        let Entry::Vacant(vacant) = self.index.entry(reg.token) else {
            return Err(ServiceError::DuplicateToken(reg.token));
        };
        // Endpoint fields come off the wire too: a corrupted
        // src/dst/spine must be a rejection, not an engine panic.
        let clos = self.fabric.config();
        let (src, dst, spine) = (reg.src as usize, reg.dst as usize, reg.spine as usize);
        let servers = clos.server_count();
        if src >= servers || dst >= servers || src == dst || spine >= clos.spines {
            return Err(ServiceError::MalformedStart(reg.token));
        }
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = reg;
                slot
            }
            None => {
                self.slab.push(reg);
                (self.slab.len() - 1) as u32
            }
        };
        let weight = if reg.weight_q8 == 0 {
            DEFAULT_WEIGHT
        } else {
            reg.weight_q8 as f64 / 256.0
        };
        let path = self.fabric.path_via_spine(src, dst, spine);
        self.engine
            .add_flow(FlowId(slot as u64), src, dst, weight, &path);
        vacant.insert(slot);
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

    /// The loads half of [`AllocatorService::link_state_into`] (raw
    /// rates summed per global link, as of the engine's last iteration)
    /// into a caller-provided buffer. Left empty by engines that do not
    /// price fabric links. Allocates the half it drops.
    pub fn link_loads_into(&self, out: &mut Vec<f64>) {
        self.engine.link_state_into(out, &mut Vec::new());
    }

    /// Installs an exogenous per-link load the engine prices alongside
    /// its own flows (see [`RateAllocator::set_background_loads`]) — the
    /// import half of the sharded control plane's link-state exchange.
    // flowtune-lint: hot
    pub fn set_background_loads(&mut self, loads: &[f64]) {
        self.engine.set_background_loads(loads);
    }

    /// The Hessian half of [`AllocatorService::link_state_into`] into a
    /// caller-provided buffer. Left empty by engines without a
    /// second-order price term. Allocates the half it drops.
    pub fn link_hessians_into(&self, out: &mut Vec<f64>) {
        self.engine.link_state_into(&mut Vec::new(), out);
    }

    /// The engine's own per-link loads and Hessian diagonal in one pass
    /// (see [`RateAllocator::link_state_into`]) — the exchange's
    /// per-round export: the engine's own link state as of its last
    /// iteration, so read it after [`AllocatorService::tick_into`].
    // flowtune-lint: hot
    pub fn link_state_into(&self, loads: &mut Vec<f64>, hessians: &mut Vec<f64>) {
        self.engine.link_state_into(loads, hessians);
    }

    /// Installs the exogenous per-link Hessian diagonal accompanying the
    /// background loads (see [`RateAllocator::set_background_hessians`]).
    // flowtune-lint: hot
    pub fn set_background_hessians(&mut self, hdiag: &[f64]) {
        self.engine.set_background_hessians(hdiag);
    }

    /// Every flow's current allocation into a caller-provided buffer
    /// (cleared first) — the allocation-free steady-state export (see
    /// [`RateAllocator::rates_into`]).
    // flowtune-lint: hot
    pub fn rates_into(&self, out: &mut Vec<FlowRate>) {
        self.engine.rates_into(out);
    }

    /// The engine's current per-link duals into a caller-provided
    /// buffer (see [`RateAllocator::link_prices_into`]). Left empty by
    /// engines that do not price fabric links.
    // flowtune-lint: hot
    pub fn link_prices_into(&self, out: &mut Vec<f64>) {
        self.engine.link_prices_into(out);
    }

    /// Overwrites the engine's per-link duals with consensus values;
    /// `NaN` entries keep the current price (see
    /// [`RateAllocator::set_link_prices`]).
    // flowtune-lint: hot
    pub fn set_link_prices(&mut self, prices: &[f64]) {
        self.engine.set_link_prices(prices);
    }

    /// The engine's short name (`serial` / `multicore` / `fastpass` /
    /// `gradient`).
    pub fn engine_name(&self) -> &'static str {
        self.engine.name()
    }
}

/// Batches shorter than this go through `sort_unstable`: below it the
/// radix passes' fixed cost (three 256-entry histograms to zero and
/// prefix-sum, ≈ 0.4 µs) is the larger. Measured crossover: 130–190 keys.
const RADIX_CUTOFF: usize = 128;

/// Writes the tick's passers into `out` (cleared first) in ascending
/// token order. A passer is one key, `token << 32 | src << 16 | rate16`;
/// live tokens are distinct, so the emitted stream is a function of the
/// *set* of keys — the one a comparison sort by token would give.
///
/// The order is an LSD radix sort over the token's three bytes (the wire
/// gives a token 24 bits, [`Token::MAX`], so three 8-bit counting passes
/// are total, and their cost does not depend on the input): all three
/// histograms from one read of the keys, `keys` → `scratch` → `keys`,
/// and the last pass scatters the decoded updates straight into `out`.
// flowtune-lint: hot
fn emit_ordered(keys: &mut [u64], scratch: &mut Vec<u64>, out: &mut Vec<(u16, Message)>) {
    let update = |key: u64| {
        let token = Token::new((key >> 32) as u32);
        let rate = Rate16::from_bits(key as u16);
        ((key >> 16) as u16, Message::RateUpdate { token, rate })
    };
    out.clear();
    if keys.len() < RADIX_CUTOFF {
        keys.sort_unstable();
        out.extend(keys.iter().map(|&key| update(key)));
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
    // Every slot of the prefix is overwritten: only ever grown.
    if scratch.len() < keys.len() {
        scratch.resize(keys.len(), 0);
    }
    let scratch = &mut scratch[..keys.len()];
    for &key in keys.iter() {
        scratch[place(0, key)] = key;
    }
    for &key in scratch.iter() {
        keys[place(1, key)] = key;
    }
    out.resize(keys.len(), update(0));
    for &key in keys.iter() {
        out[place(2, key)] = update(key);
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
        Some(svc.slab[*svc.index.get(&Token::new(token))? as usize].src)
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
        let slab_order: Vec<u32> = svc.slab.iter().map(|r| r.token.get()).collect();
        assert_eq!(slab_order, vec![9, 2, 7, 4]);
        let updates = svc.tick();
        assert_eq!(update_tokens(&updates), vec![2, 4, 7, 9]);
        let sources: Vec<u16> = updates.iter().map(|&(src, _)| src).collect();
        assert_eq!(sources, vec![20, 60, 40, 80]);
    }

    proptest! {
        // `emit_ordered` against the comparison sort it replaced: the
        // same batch as the old `(Token, u16, Rate16)` tuples through
        // `sort_unstable_by_key(token)`, element for element.
        #[test]
        fn emit_ordered_matches_the_comparison_sort(
            n in prop_oneof![
                Just(0usize), Just(1), Just(RADIX_CUTOFF - 1), Just(RADIX_CUTOFF),
                Just(RADIX_CUTOFF + 1), Just(1000), Just(70_000)
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
            // Stale scratch and output from an earlier, longer tick.
            let mut scratch = vec![u64::MAX; n + 7];
            let mut out = vec![(7, end(7)); n + 7];
            emit_ordered(&mut keys, &mut scratch, &mut out);
            tuples.sort_unstable_by_key(|&(token, ..)| token);
            let want: Vec<(u16, Message)> = tuples
                .iter()
                .map(|&(token, src, rate)| (src, Message::RateUpdate { token, rate }))
                .collect();
            prop_assert!(out == want, "n {} shape {} seed {}", n, shape, seed);
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
        let slot = svc.index[&Token::new(1)];
        // Same path, same tick: the prices the successor meets are the
        // converged ones its predecessor left behind.
        svc.on_message(end(1)).unwrap();
        svc.on_message(start(2, 0, 140)).unwrap();
        assert_eq!(svc.index[&Token::new(2)], slot, "slot (and id) recycled");
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
        for engine in [
            Engine::Serial,
            Engine::Multicore { workers: 0 },
            Engine::Fastpass,
            Engine::Gradient,
        ] {
            assert_eq!(Engine::parse(engine.name()), Ok(engine));
        }
    }

    #[test]
    fn engine_parse_error_lists_valid_names() {
        let err = Engine::parse("warp-drive").unwrap_err();
        assert_eq!(err.got(), "warp-drive");
        let msg = err.to_string();
        assert!(msg.contains("unknown engine `warp-drive`"), "{msg}");
        for name in ENGINE_NAMES {
            assert!(msg.contains(name), "{msg} should list {name}");
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
    fn build_driver_rejects_sharded_fastpass() {
        let sharded = |n| {
            AllocatorService::builder()
                .fabric(&fabric())
                .engine(Engine::Fastpass.sharded(n))
                .build_driver()
        };
        let err = sharded(2).unwrap_err();
        assert!(matches!(err, ServiceError::BadShards(_)), "{err}");
        assert!(err.to_string().contains("fastpass"), "{err}");
        // One shard is the plain arbiter behind the router; the
        // equivalence suites build it.
        assert_eq!(sharded(1).unwrap().engine_name(), "sharded");
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

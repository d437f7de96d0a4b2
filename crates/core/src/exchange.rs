//! The link-state exchange, in three parts that the two shard sets —
//! the in-process one behind [`crate::ShardedService`] and a distributed
//! shard peer — assemble differently but never restate:
//!
//! * `ShardFilter` — one shard's **delta filter and accounting**: it
//!   compares the shard's fresh link-state export against the row it
//!   last shipped, overwrites the entries that moved, and hands each
//!   shipped entry to a caller-supplied sink as a [`Record`]. It also
//!   owns the per-shard half of the install (below).
//! * `LinkTables` — the **table set**: one last-shipped row per shard
//!   plus the round's dirty marks, and the round-wide quantities every
//!   shard's install reads and that are the same for all of them — the
//!   load-weighted dual consensus and the per-link count of shards
//!   holding state — computed once per round by `LinkTables::agree`.
//! * the **install math** — `LinkTables::agree` and then, per shard,
//!   `ShardFilter::install`: background load/Hessian sums over the
//!   *other* shards' rows, the subscription mask, and the three `set_*`
//!   installs into the shard's [`AllocatorService`] (the paper's §5
//!   aggregation step, one level up).
//!
//! In one process every shard's filter writes its own row of **one
//! shared** table set; nothing is serialized and each row exists once
//! (see [`crate::sharded`]). Across processes there is no shared memory,
//! so [`ExchangeCore`] — the unit a `ShardPeer` owns — pairs one filter
//! with a *private* table set and moves rows through the codec: the sink
//! of [`ExchangeCore::begin_round`] encodes each shipped entry into a
//! state frame, and [`ExchangeCore::apply_frame`] decodes
//! a peer's frame into that peer's row. The codec lives only there.
//!
//! The protocol on the wire is a **mesh broadcast**: every shard ships
//! its moved entries to every peer and keeps full copies of the others'
//! shipped rows, so each peer recomputes the aggregation locally and
//! needs nothing from the others beyond their frames — which is what
//! makes the distributed exchange bit-for-bit identical to the
//! in-process one. The *logical* byte accounting retained in
//! [`ServiceStats::exchange_bytes`](crate::ServiceStats) still models
//! the subscription-pruned hub protocol (aggregated entries down, 4+8·v
//! bytes per entry) exactly as the in-process service always counted
//! it; the broadcast's real cost is reported separately by the
//! transports as on-wire bytes.

use flowtune_proto::exchange::{
    encode_header, encode_record, FrameError, FrameHeader, Record, RecordIter,
};

use crate::service::AllocatorService;

/// Logical bytes of one shipped exchange entry: a 4-byte link id plus 8
/// bytes per 64-bit vector element riding along (loads and duals always;
/// Hessian diagonals only for second-order engines).
fn entry_bytes(vectors: u64) -> u64 {
    4 + 8 * vectors
}

/// The longest link vector a frame may announce to a core that holds no
/// row to compare it against (a core that has not exported yet, or whose
/// engine prices no links). Far above any fabric this code builds; it
/// only keeps a forged header from sizing a multi-GiB row.
const MAX_UNCHECKED_LINKS: usize = 1 << 22;

/// Why a received frame could not be applied: either it failed to
/// decode, or it decoded to values that cannot be valid in this cluster
/// (a shard or link index out of range, a link vector of the wrong
/// length, link state no engine exports).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApplyError {
    /// The frame failed to decode.
    Frame(FrameError),
    /// The sender's shard id is not in this cluster (or is the
    /// receiver's own).
    BadShard {
        /// The shard id found in the header.
        shard: u16,
    },
    /// A record names a link outside the frame's own `n_links`.
    BadLink {
        /// The link index found.
        link: u32,
    },
    /// An active frame's `n_links` is not the link-vector length this
    /// core already holds. Every shard of a cluster serves the same
    /// fabric, so a frame that disagrees is forged or misrouted; it is
    /// rejected before any row is resized.
    BadLinkCount {
        /// The `n_links` found in the header.
        n_links: u32,
    },
    /// A state record carries a load or dual that is negative or not
    /// finite, or a Hessian that is positive or not finite — nothing an
    /// engine exports. Installed, an infinite load would zero every
    /// normalized rate on the link and a `NaN` one would over-allocate
    /// it; the record is refused before it is written.
    BadValue {
        /// The record's link index.
        link: u32,
    },
}

impl From<FrameError> for ApplyError {
    fn from(e: FrameError) -> Self {
        ApplyError::Frame(e)
    }
}

impl std::fmt::Display for ApplyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ApplyError::Frame(e) => write!(f, "{e}"),
            ApplyError::BadShard { shard } => write!(f, "frame from out-of-range shard {shard}"),
            ApplyError::BadLink { link } => write!(f, "record names out-of-range link {link}"),
            ApplyError::BadLinkCount { n_links } => {
                write!(
                    f,
                    "frame announces {n_links} links, not this fabric's count"
                )
            }
            ApplyError::BadValue { link } => {
                write!(f, "record carries impossible link state for link {link}")
            }
        }
    }
}

impl std::error::Error for ApplyError {}

/// One shard's fresh link-state export — the `(G, H)` pair its own
/// price update summed in the tick just run, and the duals that update
/// produced — in buffers reused every round, so a steady-state exchange
/// allocates nothing. All three are the fabric's link count long, or
/// `hessians` is empty (first-order engines), or all are empty (engines
/// that do not price fabric links).
#[derive(Debug, Default)]
pub struct LinkExport {
    /// Per-link loads of the shard's own flows.
    pub loads: Vec<f64>,
    /// Per-link Hessian diagonal of the shard's own flows.
    pub hessians: Vec<f64>,
    /// The shard's per-link duals.
    pub prices: Vec<f64>,
}

impl LinkExport {
    /// Overwrites the buffers with `svc`'s post-tick link state: three
    /// `O(links)` scatters out of the engine — its sums are as of its
    /// last iteration (see
    /// [`flowtune_alloc::RateAllocator::link_state_into`]), so call this
    /// right after the tick, as both shard sets do.
    // flowtune-lint: hot
    pub fn refresh(&mut self, svc: &AllocatorService) {
        svc.link_state_into(&mut self.loads, &mut self.hessians);
        svc.link_prices_into(&mut self.prices);
    }
}

/// One shard's last-shipped link state. Empty vectors mean that shard
/// has never exported (engines that do not price fabric links).
#[derive(Debug, Default)]
struct Row {
    loads: Vec<f64>,
    hessians: Vec<f64>,
    prices: Vec<f64>,
}

impl Row {
    // flowtune-lint: hot
    fn nonzero_at(&self, l: usize) -> bool {
        self.loads.get(l).is_some_and(|&v| v != 0.0)
            || self.prices.get(l).is_some_and(|&v| v != 0.0)
            || self.hessians.get(l).is_some_and(|&v| v != 0.0)
    }
}

/// The table set of one exchange: every shard's last-shipped row, the
/// current round's dirty marks, and the round-wide results of
/// [`LinkTables::agree`] (see the module docs). Shared by all shards of
/// an in-process service; private to one [`ExchangeCore`] on a peer.
#[derive(Debug)]
pub(crate) struct LinkTables {
    rows: Vec<Row>,
    // ---- per-round state, valid from start_round to the installs ----
    /// Link-vector length this round: the longest export any shard
    /// wrote. Round-scoped so a round in which every shard exports
    /// nothing is recognized (and not counted).
    round_links: usize,
    /// Whether any shard's export carried Hessians this round.
    any_h: bool,
    /// Per-link count of shards that shipped the link this round — the
    /// inbound half of the byte accounting.
    ship_counts: Vec<u32>,
    // ---- results of `agree`, reused every round ----
    /// Load-weighted mean price per loaded link, `NaN` where no shard
    /// holds a positive load.
    consensus: Vec<f64>,
    /// Per-link count of shards holding any non-zero shipped state —
    /// what a new subscriber would have to be caught up on.
    state_count: Vec<u32>,
    /// `agree`'s scratch: Σ positive load per link.
    weight: Vec<f64>,
}

impl LinkTables {
    /// An empty table set for `shard_count` shards.
    pub(crate) fn new(shard_count: usize) -> Self {
        LinkTables {
            rows: (0..shard_count).map(|_| Row::default()).collect(),
            round_links: 0,
            any_h: false,
            ship_counts: Vec::new(),
            consensus: Vec::new(),
            state_count: Vec::new(),
            weight: Vec::new(),
        }
    }

    /// Forget the previous round's dirty marks; the rows stay.
    // flowtune-lint: hot
    pub(crate) fn start_round(&mut self) {
        self.round_links = 0;
        self.any_h = false;
        self.ship_counts.clear();
    }

    /// The round-wide half of the install math, run once all of the
    /// round's rows are written: the load-weighted dual consensus and
    /// the per-link state counts, from every row in shard order. Returns
    /// `false` when no shard exported any links this round (the round
    /// does not count and nothing is installed).
    // flowtune-lint: hot, untrusted-input
    pub(crate) fn agree(&mut self) -> bool {
        let n_links = self.round_links;
        if n_links == 0 {
            return false;
        }
        // `consensus` first accumulates the numerators Σ load·price.
        self.consensus.clear();
        self.consensus.resize(n_links, 0.0);
        self.weight.clear();
        self.weight.resize(n_links, 0.0);
        self.state_count.clear();
        self.state_count.resize(n_links, 0);
        for (j, row) in self.rows.iter().enumerate() {
            if row.loads.is_empty() {
                continue;
            }
            debug_assert_eq!(row.loads.len(), n_links, "short row of shard {j}");
            let sums = (
                self.consensus.as_mut_slice(),
                self.weight.as_mut_slice(),
                self.state_count.as_mut_slice(),
            );
            if row.hessians.is_empty() {
                accumulate(sums, row, std::iter::repeat(&0.0));
            } else {
                accumulate(sums, row, row.hessians.iter());
            }
        }
        for (num, &weight) in self.consensus.iter_mut().zip(&self.weight) {
            *num = if weight > 0.0 {
                *num / weight
            } else {
                f64::NAN
            };
        }
        true
    }

    /// `out[l]` = Σ over every shard but `me`, in shard order, of that
    /// shard's shipped `column` at `l` — on the links `subscribed` marks,
    /// zero elsewhere (no knowledge there, and the local dual just decays
    /// as if idle).
    // flowtune-lint: hot, untrusted-input
    fn sum_others(
        &self,
        me: usize,
        column: impl Fn(&Row) -> &[f64],
        subscribed: &[bool],
        out: &mut Vec<f64>,
    ) {
        out.clear();
        out.resize(self.round_links, 0.0);
        for (j, row) in self.rows.iter().enumerate() {
            let values = column(row);
            if j == me || values.is_empty() {
                continue;
            }
            debug_assert_eq!(values.len(), out.len(), "short row of shard {j}");
            for (acc, x) in out.iter_mut().zip(values) {
                *acc += x;
            }
        }
        for (acc, &sub) in out.iter_mut().zip(subscribed) {
            if !sub {
                *acc = 0.0;
            }
        }
        // An inactive shard's mask is empty: it subscribes to nothing.
        for acc in out.iter_mut().skip(subscribed.len()) {
            *acc = 0.0;
        }
    }
}

/// One row's contribution to [`LinkTables::agree`]'s per-link sums
/// (`Σ load·price` and `Σ load` over positive loads, and one more holder
/// wherever any of the row's three values is non-zero), with the row's
/// Hessians passed apart so a Hessian-less row can read as all zeros.
// flowtune-lint: hot, untrusted-input
fn accumulate<'a>(
    (nums, weights, holders): (&mut [f64], &mut [f64], &mut [u32]),
    row: &'a Row,
    hessians: impl Iterator<Item = &'a f64>,
) {
    let sums = nums.iter_mut().zip(weights).zip(holders);
    let state = row.loads.iter().zip(&row.prices).zip(hessians);
    for (((num, weight), holders), ((&load, &price), &hessian)) in sums.zip(state) {
        if load > 0.0 {
            *num += load * price;
            *weight += load;
        }
        if load != 0.0 || price != 0.0 || hessian != 0.0 {
            *holders += 1;
        }
    }
}

/// One shard's delta filter, its logical byte accounting, and the
/// per-shard half of the install (see the module docs). The row it
/// filters against lives in the [`LinkTables`] passed to each call — the
/// shared set in process, an [`ExchangeCore`]'s private one on a peer.
#[derive(Debug)]
pub(crate) struct ShardFilter {
    shard: u16,
    eps: f64,
    /// Own subscription mask from the previous exchange round (the
    /// catch-up accounting's "was I subscribed then" bit). Only updated
    /// on rounds this shard is active.
    sub_prev: Vec<bool>,
    /// Own announced subscriptions — what the sink was last told, as
    /// opposed to `sub_prev` which follows the accounting's cadence.
    announced: Vec<bool>,
    /// Re-ship unmoved non-zero entries on the next round (set to
    /// bootstrap a restarted peer's rows).
    resync_pending: bool,
    // ---- per-round state, valid from export to install ----
    own_active: bool,
    own_has_h: bool,
    /// Own entries shipped this round (outbound accounting).
    own_shipped: u64,
    /// Own dirty marks this round.
    own_dirty: Vec<bool>,
    /// Own fresh subscription mask this round (positive fresh load).
    fresh_sub: Vec<bool>,
    /// Install scratch, reused every round.
    scratch: Vec<f64>,
}

impl ShardFilter {
    /// A filter for shard `shard`, with the delta threshold `eps`.
    ///
    /// # Panics
    /// Panics on an `eps` that is not a finite value ≥ 0: a `NaN` or
    /// infinite one would make every `moved` compare false, so the shard
    /// would never ship its link state.
    pub(crate) fn new(shard: u16, eps: f64) -> Self {
        assert!(
            eps >= 0.0 && eps.is_finite(),
            "exchange_delta_eps must be finite and ≥ 0, got {eps}"
        );
        ShardFilter {
            shard,
            eps,
            sub_prev: Vec::new(),
            announced: Vec::new(),
            resync_pending: false,
            own_active: false,
            own_has_h: false,
            own_shipped: 0,
            own_dirty: Vec::new(),
            fresh_sub: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Delta-filter the shard's fresh export (`loads`/`hessians`/
    /// `prices`, all the same length or `hessians` empty; all empty when
    /// the engine prices no links) against its row of `tables`: entries
    /// that moved overwrite the row, mark the round's dirty counts and
    /// go to `ship` as [`Record::LinkState`], preceded by the
    /// subscription deltas and followed, after a resync request, by
    /// [`Record::CatchUp`] for the unmoved non-zero entries. `ship` sees
    /// exactly the records of the shard's wire frame, in frame order; a
    /// caller whose consumers read `tables` directly passes a no-op.
    ///
    /// # Panics
    /// Panics if this filter's shard has no row in `tables`.
    // flowtune-lint: hot
    pub(crate) fn export(
        &mut self,
        tables: &mut LinkTables,
        loads: &[f64],
        hessians: &[f64],
        prices: &[f64],
        mut ship: impl FnMut(Record),
    ) {
        let n = loads.len();
        let has_h = !hessians.is_empty();
        self.own_active = n > 0;
        self.own_has_h = has_h;
        self.own_shipped = 0;
        self.own_dirty.clear();
        self.own_dirty.resize(n, false);
        self.fresh_sub.clear();
        self.fresh_sub.extend(loads.iter().map(|&v| v > 0.0));
        tables.round_links = tables.round_links.max(n);
        tables.any_h |= has_h;
        if n == 0 {
            return;
        }
        debug_assert!(!has_h || hessians.len() == n, "short hessian export");
        debug_assert_eq!(prices.len(), n, "short price export");
        if tables.ship_counts.len() < n {
            tables.ship_counts.resize(n, 0);
        }
        // Subscription deltas: announce the links this shard started or
        // stopped carrying load on since its last announcement.
        self.announced.resize(n, false);
        for (l, (announced, &sub)) in self.announced.iter_mut().zip(&self.fresh_sub).enumerate() {
            if *announced != sub {
                let link = l as u32;
                ship(if sub {
                    Record::SubAdd { link }
                } else {
                    Record::SubRemove { link }
                });
                *announced = sub;
            }
        }
        let own = &mut tables.rows[self.shard as usize];
        own.loads.resize(n, 0.0);
        own.prices.resize(n, 0.0);
        if has_h {
            own.hessians.resize(n, 0.0);
        }
        // Delta filter: the whole entry is keyed — load, dual, and
        // Hessian — so a link whose dual keeps decaying while its load
        // sits still is still re-shipped (see the sharded module docs).
        for l in 0..n {
            let moved = (loads[l] - own.loads[l]).abs() > self.eps
                || (prices[l] - own.prices[l]).abs() > self.eps
                || (has_h && (hessians[l] - own.hessians[l]).abs() > self.eps);
            if moved {
                own.loads[l] = loads[l];
                own.prices[l] = prices[l];
                if has_h {
                    own.hessians[l] = hessians[l];
                }
                self.own_dirty[l] = true;
                tables.ship_counts[l] += 1;
                self.own_shipped += 1;
                ship(Record::LinkState {
                    link: l as u32,
                    load: loads[l],
                    dual: prices[l],
                    hessian: if has_h { hessians[l] } else { 0.0 },
                });
            }
        }
        if self.resync_pending {
            // Catch-up: re-ship what the filter skipped but a peer with
            // stale rows would be missing. Receivers apply these
            // idempotently (they set, not accumulate).
            for l in 0..n {
                if self.own_dirty[l] || !own.nonzero_at(l) {
                    continue;
                }
                ship(Record::CatchUp {
                    link: l as u32,
                    load: own.loads[l],
                    dual: own.prices[l],
                    hessian: if has_h { own.hessians[l] } else { 0.0 },
                });
            }
            self.resync_pending = false;
        }
    }

    /// The per-shard half of the install math, after
    /// [`LinkTables::agree`] returned `true`: sum the *other* shards'
    /// rows into this shard's background load (and Hessian), mask both
    /// and the consensus duals to the links this shard subscribes to,
    /// and install them into `svc`. Returns the round's logical exchange
    /// bytes for this shard (own entries out plus subscribed entries in
    /// — the hub-model accounting).
    // flowtune-lint: hot, untrusted-input
    pub(crate) fn install(&mut self, tables: &LinkTables, svc: &mut AllocatorService) -> u64 {
        let me = self.shard as usize;
        tables.sum_others(me, |row| &row.loads, &self.fresh_sub, &mut self.scratch);
        svc.set_background_loads(&self.scratch);
        // Engines without a second-order term export no Hessians and
        // receive none.
        if tables.any_h && self.own_has_h {
            tables.sum_others(me, |row| &row.hessians, &self.fresh_sub, &mut self.scratch);
            svc.set_background_hessians(&self.scratch);
        }
        self.sub_prev.resize(tables.round_links, false);

        // Outbound logical bytes: id + load + dual (+ Hessian) per
        // entry this shard shipped.
        let mut bytes = self.own_shipped * entry_bytes(2 + u64::from(self.own_has_h));
        if !self.own_active {
            return bytes;
        }
        let Some(own) = tables.rows.get(me) else {
            return bytes;
        };
        // Consensus duals install (and count) only on links this shard
        // prices; elsewhere NaN keeps its own decaying dual.
        self.scratch.clear();
        self.scratch.extend(
            self.fresh_sub
                .iter()
                .zip(&tables.consensus)
                .map(|(&sub, &dual)| if sub { dual } else { f64::NAN }),
        );
        svc.set_link_prices(&self.scratch);
        // Inbound logical bytes (the hub model): one aggregated entry
        // per subscribed link that some *other* shard re-shipped this
        // round — or, on a newly subscribed link, a catch-up entry for
        // the state other shards already hold.
        let reshipped = tables
            .ship_counts
            .iter()
            .zip(&self.own_dirty)
            .map(|(&ships, &mine)| ships > u32::from(mine));
        let subscriptions = self.fresh_sub.iter().zip(&self.sub_prev);
        let recv = subscriptions
            .zip(reshipped.zip(&tables.state_count))
            .enumerate()
            .filter(|&(l, ((&sub, &was_sub), (reshipped, &holders)))| {
                sub && (reshipped || (!was_sub && holders > u32::from(own.nonzero_at(l))))
            })
            .count() as u64;
        self.sub_prev.clone_from(&self.fresh_sub);
        bytes += recv * entry_bytes(2 + u64::from(self.own_has_h && tables.any_h));
        bytes
    }
}

/// Whether a decoded record's state is what an engine exports: a load
/// and a dual that are finite and ≥ 0, a Hessian that is finite and
/// ≤ 0 (a frame without Hessians decodes them as 0). `NaN` is none of
/// these.
// flowtune-lint: hot, untrusted-input
fn exportable(load: f64, dual: f64, hessian: f64) -> bool {
    let non_negative = |v: f64| (0.0..f64::INFINITY).contains(&v);
    non_negative(load) && non_negative(dual) && non_negative(-hessian)
}

// Write one decoded state word into a row column, or report the
// record's link as bad when the column does not reach that far.
fn write_state(column: &mut [f64], l: usize, value: f64, link: u32) -> Result<(), ApplyError> {
    match column.get_mut(l) {
        Some(slot) => {
            *slot = value;
            Ok(())
        }
        None => Err(ApplyError::BadLink { link }),
    }
}

/// One shard's side of the exchange when the other shards are reachable
/// only by frames (see the module docs): a `ShardFilter` and a private
/// `LinkTables` whose own row the filter writes and whose remote rows
/// [`ExchangeCore::apply_frame`] fills. Each distributed `ShardPeer`
/// owns exactly one.
///
/// One exchange round is three calls:
///
/// 1. [`ExchangeCore::begin_round`] — filter the shard's fresh export
///    and append its state frame to a caller-owned flat buffer. No
///    allocation once the buffer and tables are warm.
/// 2. [`ExchangeCore::apply_frame`] — decode every *other* shard's frame
///    into that shard's row.
/// 3. [`ExchangeCore::install`] — run the install math over the rows
///    and install the result into the shard's [`AllocatorService`].
#[derive(Debug)]
pub struct ExchangeCore {
    filter: ShardFilter,
    tables: LinkTables,
}

impl ExchangeCore {
    /// A core for shard `shard` of `shard_count`, with the delta
    /// filter's threshold `eps`.
    ///
    /// # Panics
    /// Panics if `shard` is not less than `shard_count`, or on an `eps`
    /// that is not a finite value ≥ 0.
    pub fn new(shard: u16, shard_count: usize, eps: f64) -> Self {
        assert!(
            (shard as usize) < shard_count,
            "shard {shard} out of range for {shard_count} shards"
        );
        ExchangeCore {
            filter: ShardFilter::new(shard, eps),
            tables: LinkTables::new(shard_count),
        }
    }

    /// Request that the next round's frame carry catch-up records for
    /// every non-zero entry that the delta filter would otherwise skip —
    /// re-seeding peers whose rows may predate this shard's state (when a
    /// restarted peer rejoins).
    // flowtune-lint: hot
    pub fn request_resync(&mut self) {
        self.filter.resync_pending = true;
    }

    /// Start an exchange round: delta-filter the fresh export
    /// (`loads`/`hessians`/`prices`, all the same length or `hessians`
    /// empty; all empty when the engine prices no links) against the
    /// last-shipped row and append this shard's state frame to `out`.
    /// Returns the frame's length in bytes.
    // flowtune-lint: hot
    pub fn begin_round(
        &mut self,
        round: u64,
        loads: &[f64],
        hessians: &[f64],
        prices: &[f64],
        out: &mut Vec<u8>,
    ) -> usize {
        let start = out.len();
        let has_hessians = !hessians.is_empty();
        encode_header(
            &FrameHeader {
                shard: self.filter.shard,
                round,
                n_links: loads.len() as u32,
                active: !loads.is_empty(),
                has_hessians,
            },
            out,
        );
        self.tables.start_round();
        self.filter
            .export(&mut self.tables, loads, hessians, prices, |record| {
                encode_record(&record, has_hessians, out);
            });
        out.len() - start
    }

    /// Apply another shard's state frame to its row.
    ///
    /// # Errors
    /// [`ApplyError`] if the frame fails to decode, names a shard or
    /// link this cluster does not have, announces a link vector of a
    /// different length than the rows already held (checked before
    /// anything is resized), or carries link state no engine exports
    /// (checked before the record is written). After a record-level
    /// error the row keeps whatever the frame carried up to it (a
    /// re-ship heals it).
    // flowtune-lint: hot, untrusted-input
    pub fn apply_frame(&mut self, frame: &[u8]) -> Result<(), ApplyError> {
        let (header, records) = RecordIter::new(frame)?;
        let bad_shard = ApplyError::BadShard {
            shard: header.shard,
        };
        if header.shard == self.filter.shard {
            return Err(bad_shard);
        }
        // Every row this core holds has the fabric's link count (its own
        // export among them once it has begun a round).
        let held = self
            .tables
            .rows
            .iter()
            .map(|row| row.loads.len())
            .find(|&len| len > 0);
        let LinkTables {
            rows,
            round_links,
            any_h,
            ship_counts,
            ..
        } = &mut self.tables;
        let from = header.shard as usize;
        let Some(row) = rows.get_mut(from) else {
            return Err(bad_shard);
        };
        *any_h |= header.has_hessians;
        // An inactive frame carries no link vector: it sizes nothing,
        // and any record it smuggles names a link past its end.
        let mut n = 0;
        if header.active {
            n = header.n_links as usize;
            if held.map_or(n > MAX_UNCHECKED_LINKS, |len| n != len) {
                return Err(ApplyError::BadLinkCount {
                    n_links: header.n_links,
                });
            }
            *round_links = (*round_links).max(n);
            if ship_counts.len() < n {
                ship_counts.resize(n, 0);
            }
            row.loads.resize(n, 0.0);
            row.prices.resize(n, 0.0);
            if header.has_hessians {
                row.hessians.resize(n, 0.0);
            }
        }
        for record in records {
            let record = record?;
            match record {
                Record::LinkState { link, .. }
                | Record::CatchUp { link, .. }
                | Record::SubAdd { link }
                | Record::SubRemove { link }
                    if link as usize >= n =>
                {
                    return Err(ApplyError::BadLink { link });
                }
                Record::LinkState {
                    link,
                    load,
                    dual,
                    hessian,
                }
                | Record::CatchUp {
                    link,
                    load,
                    dual,
                    hessian,
                } => {
                    if !exportable(load, dual, hessian) {
                        return Err(ApplyError::BadValue { link });
                    }
                    let l = link as usize;
                    write_state(&mut row.loads, l, load, link)?;
                    write_state(&mut row.prices, l, dual, link)?;
                    if header.has_hessians {
                        write_state(&mut row.hessians, l, hessian, link)?;
                    }
                    // A catch-up entry is not fresh movement: it does
                    // not count toward this round's dirty marks.
                    if matches!(record, Record::LinkState { .. }) {
                        if let Some(ships) = ship_counts.get_mut(l) {
                            *ships += 1;
                        }
                    }
                }
                // A peer's subscription announcements are decoded and
                // range-checked, not kept: the install math uses fresh
                // exports.
                Record::SubAdd { .. } | Record::SubRemove { .. } => {}
            }
        }
        Ok(())
    }

    /// Finish the round: run the install math over the rows — the
    /// round-wide consensus, then this shard's background sums and mask
    /// — and install the result into `svc` (this shard's service).
    /// Returns the round's logical exchange bytes for this shard (own
    /// entries out plus subscribed entries in — the hub-model
    /// accounting), or `None` when no shard exported any links this
    /// round (the round does not count).
    // flowtune-lint: hot, untrusted-input
    pub fn install(&mut self, svc: &mut AllocatorService) -> Option<u64> {
        if !self.tables.agree() {
            return None;
        }
        Some(self.filter.install(&self.tables, svc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run one full round across a set of cores given each shard's fresh
    /// exports, returning each core's logical bytes.
    fn round(
        cores: &mut [ExchangeCore],
        round_no: u64,
        exports: &[(Vec<f64>, Vec<f64>, Vec<f64>)],
        svcs: &mut [AllocatorService],
    ) -> Vec<Option<u64>> {
        let n = cores.len();
        let mut buf = Vec::new();
        let mut offs = vec![0usize];
        for (i, core) in cores.iter_mut().enumerate() {
            let (loads, hessians, prices) = &exports[i];
            core.begin_round(round_no, loads, hessians, prices, &mut buf);
            offs.push(buf.len());
        }
        for (j, core) in cores.iter_mut().enumerate() {
            for i in 0..n {
                if i != j {
                    core.apply_frame(&buf[offs[i]..offs[i + 1]]).unwrap();
                }
            }
        }
        cores
            .iter_mut()
            .zip(svcs.iter_mut())
            .map(|(c, s)| c.install(s))
            .collect()
    }

    fn two_svcs() -> (Vec<AllocatorService>, usize) {
        let fabric =
            flowtune_topo::TwoTierClos::build(flowtune_topo::ClosConfig::multicore(2, 2, 4));
        let links = fabric.topology().link_count();
        let svcs = (0..2)
            .map(|_| AllocatorService::new(&fabric, crate::FlowtuneConfig::default()))
            .collect();
        (svcs, links)
    }

    /// A full-fabric-length export with `(link, load, price)` spikes.
    fn export(links: usize, spikes: &[(usize, f64, f64)]) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let mut loads = vec![0.0; links];
        let mut prices = vec![0.0; links];
        for &(l, load, price) in spikes {
            loads[l] = load;
            prices[l] = price;
        }
        (loads, Vec::new(), prices)
    }

    #[test]
    fn empty_exports_do_not_count_a_round() {
        let mut cores = vec![ExchangeCore::new(0, 2, 0.0), ExchangeCore::new(1, 2, 0.0)];
        let (mut svcs, _) = two_svcs();
        let exports = vec![
            (Vec::new(), Vec::new(), Vec::new()),
            (Vec::new(), Vec::new(), Vec::new()),
        ];
        let bytes = round(&mut cores, 1, &exports, &mut svcs);
        assert_eq!(bytes, vec![None, None]);
    }

    #[test]
    fn rows_converge_and_deltas_stop() {
        let mut cores = vec![ExchangeCore::new(0, 2, 0.0), ExchangeCore::new(1, 2, 0.0)];
        let (mut svcs, links) = two_svcs();
        let exports = vec![
            export(links, &[(0, 1.0, 0.5)]),
            export(links, &[(1, 2.0, 0.25)]),
        ];
        let bytes1 = round(&mut cores, 1, &exports, &mut svcs);
        // Round 1: each ships its one moved entry (out 20) and receives
        // nothing it subscribes to (disjoint links).
        assert_eq!(bytes1, vec![Some(20), Some(20)]);
        // Round 2 with identical exports: nothing moves, nothing ships.
        let bytes2 = round(&mut cores, 2, &exports, &mut svcs);
        assert_eq!(bytes2, vec![Some(0), Some(0)]);
        // Each core's copy of the other's row now matches what was shipped.
        assert_eq!(cores[0].tables.rows[1].loads[1], 2.0);
        assert_eq!(cores[1].tables.rows[0].loads[0], 1.0);
    }

    #[test]
    fn shared_link_pays_inbound_entries() {
        let mut cores = vec![ExchangeCore::new(0, 2, 0.0), ExchangeCore::new(1, 2, 0.0)];
        let (mut svcs, links) = two_svcs();
        let exports = vec![
            export(links, &[(0, 1.0, 0.5)]),
            export(links, &[(0, 2.0, 0.7)]),
        ];
        let bytes = round(&mut cores, 1, &exports, &mut svcs);
        // Each ships its entry (20) and receives the aggregated entry
        // for the shared link it subscribes to (20).
        assert_eq!(bytes, vec![Some(40), Some(40)]);
    }

    #[test]
    fn resync_emits_catch_up_without_recounting() {
        let mut cores = vec![ExchangeCore::new(0, 2, 0.0), ExchangeCore::new(1, 2, 0.0)];
        let (mut svcs, links) = two_svcs();
        let exports = vec![
            export(links, &[(0, 1.0, 0.5)]),
            export(links, &[(0, 2.0, 0.7)]),
        ];
        round(&mut cores, 1, &exports, &mut svcs);
        // Steady state: no movement, nothing shipped, nothing received.
        assert_eq!(
            round(&mut cores, 2, &exports, &mut svcs),
            vec![Some(0), Some(0)],
        );
        // A resync re-ships shard 0's entry as catch-up: the rows stay
        // identical and the logical accounting does not move.
        cores[0].request_resync();
        let mut buf = Vec::new();
        let len = cores[0].begin_round(4, &exports[0].0, &exports[0].1, &exports[0].2, &mut buf);
        assert!(len > flowtune_proto::exchange::FRAME_HEADER_BYTES);
        let before = cores[1].tables.rows[0].loads.clone();
        cores[1].begin_round(
            4,
            &exports[1].0,
            &exports[1].1,
            &exports[1].2,
            &mut Vec::new(),
        );
        cores[1].apply_frame(&buf).unwrap();
        assert_eq!(cores[1].tables.rows[0].loads, before);
        assert_eq!(cores[1].install(&mut svcs[1]), Some(0));
    }

    #[test]
    fn corrupt_frames_are_rejected_not_panicked() {
        let mut core = ExchangeCore::new(0, 2, 0.0);
        assert!(matches!(
            core.apply_frame(&[0xFF; 4]),
            Err(ApplyError::Frame(_))
        ));
        // A frame claiming to be from an out-of-range shard.
        let mut buf = Vec::new();
        encode_header(
            &FrameHeader {
                shard: 7,
                round: 1,
                n_links: 1,
                active: true,
                has_hessians: false,
            },
            &mut buf,
        );
        assert_eq!(
            core.apply_frame(&buf),
            Err(ApplyError::BadShard { shard: 7 })
        );
        // A record naming a link beyond the frame's own n_links.
        let mut buf = Vec::new();
        encode_header(
            &FrameHeader {
                shard: 1,
                round: 1,
                n_links: 1,
                active: true,
                has_hessians: false,
            },
            &mut buf,
        );
        encode_record(
            &Record::LinkState {
                link: 5,
                load: 1.0,
                dual: 0.0,
                hessian: 0.0,
            },
            false,
            &mut buf,
        );
        assert_eq!(core.apply_frame(&buf), Err(ApplyError::BadLink { link: 5 }));
    }

    /// A Hessian-carrying state frame from shard 1 over four links, with
    /// one record at link 2.
    fn state_at_link_2(catch_up: bool, load: f64, dual: f64, hessian: f64) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_header(
            &FrameHeader {
                shard: 1,
                round: 1,
                n_links: 4,
                active: true,
                has_hessians: true,
            },
            &mut buf,
        );
        let link = 2;
        let record = if catch_up {
            Record::CatchUp {
                link,
                load,
                dual,
                hessian,
            }
        } else {
            Record::LinkState {
                link,
                load,
                dual,
                hessian,
            }
        };
        encode_record(&record, true, &mut buf);
        buf
    }

    #[test]
    fn impossible_link_state_is_refused_before_it_is_written() {
        let mut core = ExchangeCore::new(0, 2, 0.0);
        core.apply_frame(&state_at_link_2(false, 1.5, 0.25, -0.75))
            .unwrap();
        let entry = |core: &ExchangeCore| {
            let row = &core.tables.rows[1];
            [row.loads[2], row.prices[2], row.hessians[2]].map(f64::to_bits)
        };
        let held = entry(&core);
        let bad = [
            (f64::NAN, 0.25, -0.75),
            (f64::INFINITY, 0.25, -0.75),
            (f64::NEG_INFINITY, 0.25, -0.75),
            (-1.0, 0.25, -0.75),
            (1.5, -0.5, -0.75),
            (1.5, f64::NAN, -0.75),
            (1.5, 0.25, 0.5),
            (1.5, 0.25, f64::NEG_INFINITY),
        ];
        for (load, dual, hessian) in bad {
            for catch_up in [false, true] {
                assert_eq!(
                    core.apply_frame(&state_at_link_2(catch_up, load, dual, hessian)),
                    Err(ApplyError::BadValue { link: 2 }),
                    "({load}, {dual}, {hessian}), catch-up {catch_up}"
                );
                assert_eq!(entry(&core), held, "({load}, {dual}, {hessian})");
            }
        }
        // The edges of what an engine exports are not refused: an idle
        // link (zeros of either sign) and a Hessian-free frame's 0.
        for (load, dual, hessian) in [(0.0, 0.0, 0.0), (-0.0, -0.0, -0.0), (2.0, 0.5, 0.0)] {
            assert_eq!(
                core.apply_frame(&state_at_link_2(false, load, dual, hessian)),
                Ok(())
            );
        }
    }

    #[test]
    #[should_panic(expected = "exchange_delta_eps must be finite and ≥ 0, got inf")]
    fn an_infinite_delta_eps_is_refused() {
        // Every `moved` compare would be false: nothing would ever ship.
        ExchangeCore::new(0, 2, f64::INFINITY);
    }

    /// A header-only active state frame from shard 1.
    fn header_only(n_links: u32) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_header(
            &FrameHeader {
                shard: 1,
                round: 1,
                n_links,
                active: true,
                has_hessians: false,
            },
            &mut buf,
        );
        buf
    }

    #[test]
    fn a_frame_with_the_wrong_link_count_is_rejected_before_it_sizes_a_row() {
        let (mut svcs, links) = two_svcs();
        let mut core = ExchangeCore::new(0, 2, 0.0);
        let own = export(links, &[(0, 1.0, 0.5)]);
        core.begin_round(1, &own.0, &own.1, &own.2, &mut Vec::new());
        // Shorter than the fabric (the install's scans would run off the
        // row), longer (the engine's length assert), and absurd (a
        // multi-GiB resize): all refused, the row untouched.
        for n_links in [3, links as u32 + 1, u32::MAX] {
            assert_eq!(
                core.apply_frame(&header_only(n_links)),
                Err(ApplyError::BadLinkCount { n_links }),
            );
            assert!(core.tables.rows[1].loads.is_empty());
        }
        assert_eq!(core.install(&mut svcs[0]), Some(20), "own entry out");
        // The fabric's own count is what a peer legitimately sends.
        assert_eq!(core.apply_frame(&header_only(links as u32)), Ok(()));
        assert_eq!(core.tables.rows[1].loads.len(), links);

        // A core holding no row yet has nothing to compare against and
        // falls back to the hard bound.
        let mut fresh = ExchangeCore::new(0, 2, 0.0);
        assert_eq!(
            fresh.apply_frame(&header_only(u32::MAX)),
            Err(ApplyError::BadLinkCount { n_links: u32::MAX }),
        );
        assert!(fresh.tables.rows[1].loads.is_empty());
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The two frames shard 1 of 3 ships over four links: a first round,
    /// then a round after a resync request.
    fn pinned_frames() -> [Vec<u8>; 2] {
        let mut core = ExchangeCore::new(1, 3, 0.0);
        let mut first = Vec::new();
        let len = core.begin_round(
            7,
            &[0.0, 2.5, 0.0, 1.0],
            &[0.0, -0.5, 0.0, -0.25],
            &[0.0, 0.75, 0.125, 0.0],
            &mut first,
        );
        assert_eq!(len, first.len());
        core.request_resync();
        let mut second = Vec::new();
        core.begin_round(
            8,
            &[0.0, 2.5, 0.5, 0.0],
            &[0.0, -0.5, -1.0, 0.0],
            &[0.0, 0.75, 0.125, 0.0],
            &mut second,
        );
        [first, second]
    }

    #[test]
    fn begin_round_frames_are_pinned_byte_for_byte() {
        // Recorded from the commit before the filter and the codec were
        // separated: header, subscription deltas, link-state records in
        // link order, then (second frame, after a resync request) the
        // catch-up record for the entry that did not move.
        let [first, second] = pinned_frames();
        assert_eq!(
            hex(&first),
            "0201030001000000000000000700000004\
             0300000001\
             0300000003\
             010000000140040000000000003fe8000000000000bfe0000000000000\
             010000000200000000000000003fc00000000000000000000000000000\
             01000000033ff00000000000000000000000000000bfd0000000000000"
        );
        assert_eq!(
            hex(&second),
            "0201030001000000000000000800000004\
             0300000002\
             0400000003\
             01000000023fe00000000000003fc0000000000000bff0000000000000\
             0100000003000000000000000000000000000000000000000000000000\
             020000000140040000000000003fe8000000000000bfe0000000000000"
        );
    }

    #[test]
    fn every_prefix_and_byte_substitution_of_the_pinned_frames_is_refused_or_applied() {
        use flowtune_proto::exchange::FRAME_HEADER_BYTES;
        // A receiver that has begun a round holds the fabric's link
        // count, so a mutated `n_links` meets `BadLinkCount`, not a
        // resize.
        let mut core = ExchangeCore::new(0, 3, 0.0);
        core.begin_round(
            1,
            &[1.0, 0.0, 0.0, 0.0],
            &[],
            &[0.5, 0.0, 0.0, 0.0],
            &mut Vec::new(),
        );
        for frame in pinned_frames() {
            assert_eq!(core.apply_frame(&frame), Ok(()));
            for cut in 0..frame.len() {
                let applied = core.apply_frame(&frame[..cut]);
                if cut < FRAME_HEADER_BYTES {
                    assert!(
                        matches!(
                            applied,
                            Err(ApplyError::Frame(FrameError::Truncated { .. }))
                        ),
                        "prefix {cut}: {applied:?}"
                    );
                }
            }
            let mut mutated = frame.clone();
            for at in 0..frame.len() {
                for byte in (0..=u8::MAX).filter(|&b| b != frame[at]) {
                    mutated[at] = byte;
                    // No panic, and a refusal is an `ApplyError`; the
                    // version byte is refused before anything else.
                    let applied = core.apply_frame(&mutated);
                    if at == 0 {
                        let version = FrameError::BadVersion { version: byte };
                        assert_eq!(applied, Err(ApplyError::Frame(version)));
                    }
                }
                mutated[at] = frame[at];
            }
            // The retired epoch kind and its two record tags are refused.
            mutated[1] = 2;
            assert_eq!(
                core.apply_frame(&mutated),
                Err(ApplyError::Frame(FrameError::BadKind { kind: 2 }))
            );
            mutated[1] = frame[1];
            for tag in [5, 6] {
                mutated[FRAME_HEADER_BYTES] = tag;
                assert_eq!(
                    core.apply_frame(&mutated),
                    Err(ApplyError::Frame(FrameError::BadTag {
                        tag,
                        offset: FRAME_HEADER_BYTES
                    }))
                );
            }
        }
    }
}

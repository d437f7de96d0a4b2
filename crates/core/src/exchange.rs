//! The link-state exchange, in three parts that the two shard sets —
//! the in-process one behind [`crate::ShardedService`] and a distributed
//! shard peer — assemble differently but never restate:
//!
//! * `ShardFilter` — one shard's **delta filter**: it compares the
//!   shard's fresh link-state export, run by run, against the row it
//!   last shipped, overwrites the entries that moved, and hands each
//!   shipped entry to a caller-supplied sink as a [`Record`]. It also
//!   owns the per-shard half of the install (below).
//! * the **rows** — one last-shipped row per shard — and the `Round`:
//!   the round-wide quantity every shard's install reads and that is the
//!   same for all of them — the load-weighted dual consensus — computed
//!   once per round by `Round::agree`.
//! * the **install math** — `Round::agree` and then, per shard,
//!   `ShardFilter::install`: background load/Hessian sums over the
//!   *other* shards' rows, the subscription mask, and the masked
//!   consensus duals, written into the buffers the shard's engine lends
//!   ([`flowtune_alloc::SerialAllocator::install_link_state`]; the
//!   paper's §5 aggregation step, one level up).
//!
//! Both planes run these in **one index space**: the engines' own slot
//! order (direction, LinkBlock, offset —
//! [`flowtune_alloc::SerialAllocator::link_slots`]). The slot order is a
//! function of the fabric alone, so every shard of one fabric shares it,
//! in one process or across hosts. Each shard's filter reads its
//! engine's export where it lies (`ShardFilter::export`) and every
//! install writes straight into the engine's background arrays
//! (`ShardFilter::install`); no plane builds a global-id vector of link
//! state. The **codec** is the only difference between the shard sets.
//! In one process the rows form one shared table, nothing is serialized,
//! and the filter's sink only counts the frame (see [`crate::sharded`]).
//! Across processes there is no shared memory, so [`ExchangeCore`] — the
//! unit a `ShardPeer` owns — pairs one filter with *private* rows: the
//! sink of [`ExchangeCore::begin_round_from`] encodes each shipped entry
//! into a state frame whose records name slots, and
//! [`ExchangeCore::apply_frame`] decodes a peer's frame into that peer's
//! row.
//!
//! The protocol on the wire is a **mesh broadcast**: every shard ships
//! its moved entries to every peer and keeps full copies of the others'
//! shipped rows, so each peer recomputes the aggregation locally and
//! needs nothing from the others beyond their frames — which is what
//! makes the distributed exchange bit-for-bit identical to the
//! in-process one. [`ServiceStats::exchange_bytes`](crate::ServiceStats)
//! is what the broadcast sends: every shard's frame, header and records,
//! on every round that counts. In process the frames are counted, not
//! encoded; a transport adds its length prefix and one copy per
//! receiver on top.

use flowtune_proto::exchange::{
    encode_header, encode_record, FrameError, FrameHeader, Record, RecordIter,
};

use crate::service::AllocatorService;

/// The longest link vector a frame may announce to a core that holds no
/// row to compare it against (a core that has not exported yet and has
/// heard only inactive frames). Far above any fabric this code builds; it
/// only keeps a forged header from sizing a multi-GiB row.
const MAX_UNCHECKED_LINKS: usize = 1 << 22;

/// Why a received frame could not be applied: either it failed to
/// decode, or it decoded to values that cannot be valid in this cluster
/// (a shard or slot index out of range, a link vector of the wrong
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
    /// A record names a slot outside the frame's own `n_links`.
    BadLink {
        /// The slot index found.
        link: u32,
    },
    /// An active frame's `n_links` is not the slot count this core
    /// already holds. The slot order is read off the fabric alone, so
    /// shards of one fabric agree on it and on its length; a frame that
    /// disagrees comes from another fabric, or is forged or misrouted.
    /// It is rejected before any row is resized — the one guard the wire
    /// needs against two peers meaning different links by one slot.
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
        /// The record's slot index.
        link: u32,
    },
    /// An active frame carries Hessian diagonals from a shard whose row
    /// this core already holds without them: that shard's engine is
    /// first-order, and an engine does not change order. Refused before
    /// a Hessian row is sized.
    BadHessians {
        /// The shard id found in the header.
        shard: u16,
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
            ApplyError::BadLink { link } => write!(f, "record names out-of-range slot {link}"),
            ApplyError::BadLinkCount { n_links } => {
                write!(
                    f,
                    "frame announces {n_links} link slots, not this fabric's count"
                )
            }
            ApplyError::BadValue { link } => {
                write!(f, "record carries impossible link state for slot {link}")
            }
            ApplyError::BadHessians { shard } => {
                write!(f, "frame carries Hessians for first-order shard {shard}")
            }
        }
    }
}

impl std::error::Error for ApplyError {}

/// One shard's last-shipped link state, one entry per slot of the
/// engines' slot order. Empty vectors mean no export of that shard has
/// reached this row: it has not begun a round, or a wire peer sent only
/// inactive frames.
#[derive(Debug, Default)]
pub(crate) struct Row {
    loads: Vec<f64>,
    hessians: Vec<f64>,
    prices: Vec<f64>,
}

/// The round-wide state of one exchange: this round's link count and
/// Hessian mark, and the results of [`Round::agree`] — what is the same
/// for every shard's install. Beside the rows it reads: the in-process
/// shard set's one table, or an [`ExchangeCore`]'s private copies.
#[derive(Debug, Default)]
pub(crate) struct Round {
    /// Link-vector length this round: the longest export any shard
    /// wrote. Round-scoped so a round in which every shard exports
    /// nothing is recognized (and not counted).
    links: usize,
    /// Whether any shard's export carried Hessians this round.
    any_h: bool,
    // ---- results of `agree`, reused every round ----
    /// Load-weighted mean price per loaded link, `NaN` where no shard
    /// holds a positive load.
    consensus: Vec<f64>,
    /// `agree`'s scratch: Σ positive load per link.
    weight: Vec<f64>,
}

impl Round {
    /// Forget the previous round's link count and Hessian mark.
    // flowtune-lint: hot
    pub(crate) fn start(&mut self) {
        self.links = 0;
        self.any_h = false;
    }

    /// Count one shard's export (or frame) of `links` entries into the
    /// round.
    // flowtune-lint: hot
    pub(crate) fn note(&mut self, links: usize, has_hessians: bool) {
        self.links = self.links.max(links);
        self.any_h |= has_hessians;
    }

    /// The round-wide half of the install math, run once all of the
    /// round's rows are written: the load-weighted dual consensus, from
    /// every row in shard order. Returns `false` when no shard exported
    /// any links this round (the round does not count and nothing is
    /// installed).
    // flowtune-lint: hot, untrusted-input
    pub(crate) fn agree(&mut self, rows: &[Row]) -> bool {
        let n_links = self.links;
        if n_links == 0 {
            return false;
        }
        // `consensus` first accumulates the numerators Σ load·price.
        self.consensus.clear();
        self.consensus.resize(n_links, 0.0);
        self.weight.clear();
        self.weight.resize(n_links, 0.0);
        for (j, row) in rows.iter().enumerate() {
            if row.loads.is_empty() {
                continue;
            }
            debug_assert_eq!(row.loads.len(), n_links, "short row of shard {j}");
            let sums = self.consensus.iter_mut().zip(&mut self.weight);
            for ((num, weight), (&load, &price)) in sums.zip(row.loads.iter().zip(&row.prices)) {
                if load > 0.0 {
                    *num += load * price;
                    *weight += load;
                }
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
}

/// `out[l]` = Σ over every row but `me`'s, in shard order, of that row's
/// `column` at `l` — on the links `subscribed` marks, zero elsewhere (no
/// knowledge there, and the local dual just decays as if idle). Column
/// loops, one pass a row: the first row seeds the sums from `0.0`, and
/// the last row's pass applies the mask.
// flowtune-lint: hot, untrusted-input
fn sum_others(
    me: usize,
    rows: &[Row],
    column: impl Fn(&Row) -> &[f64],
    subscribed: &[bool],
    out: &mut [f64],
) {
    let mut others = rows
        .iter()
        .enumerate()
        .filter(|&(j, _)| j != me)
        .map(|(_, row)| column(row))
        .filter(|values| !values.is_empty());
    let Some(mut last) = others.next() else {
        out.fill(0.0);
        return;
    };
    // `0.0 + x`, as a clear and an add would: not `x` for `x = -0.0`.
    let mut seeded = false;
    for values in others {
        debug_assert_eq!(last.len(), out.len(), "short row");
        for (acc, x) in out.iter_mut().zip(last) {
            *acc = (if seeded { *acc } else { 0.0 }) + x;
        }
        (last, seeded) = (values, true);
    }
    debug_assert_eq!(last.len(), out.len(), "short row");
    for ((acc, x), &sub) in out.iter_mut().zip(last).zip(subscribed) {
        let sum = (if seeded { *acc } else { 0.0 }) + x;
        *acc = if sub { sum } else { 0.0 };
    }
    // An inactive shard's mask is empty: it subscribes to nothing.
    for acc in out.iter_mut().skip(subscribed.len()) {
        *acc = 0.0;
    }
}

/// One shard's delta filter and the per-shard half of the install (see
/// the module docs). The row it filters into and the rows its install
/// reads are passed to each call: the in-process table's, or an
/// [`ExchangeCore`]'s private ones on a peer.
#[derive(Debug)]
pub(crate) struct ShardFilter {
    shard: u16,
    eps: f64,
    /// Re-ship unmoved non-zero entries on the next round (set to
    /// bootstrap a restarted peer's rows).
    resync_pending: bool,
    // ---- per-round state, valid from export to install ----
    /// Whether this round's export re-ships unmoved entries.
    resync: bool,
    /// Length of this round's export (0: an empty export handed to
    /// [`ExchangeCore::begin_round`]).
    own_links: usize,
    own_has_h: bool,
    /// Own fresh subscription mask this round (positive fresh load).
    fresh_sub: Vec<bool>,
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
            resync_pending: false,
            resync: false,
            own_links: 0,
            own_has_h: false,
            fresh_sub: Vec::new(),
        }
    }

    /// This round's export: its length and whether it carried Hessians,
    /// for [`Round::note`].
    pub(crate) fn exported(&self) -> (usize, bool) {
        (self.own_links, self.own_has_h)
    }

    /// Start filtering a fresh export of `links` entries into `own`, this
    /// shard's row (an empty export leaves the row as it is); the entries
    /// then come in runs through [`ShardFilter::filter`].
    // flowtune-lint: hot
    fn start_export(&mut self, own: &mut Row, links: usize) {
        self.resync = std::mem::take(&mut self.resync_pending);
        self.own_links = links;
        self.own_has_h = false;
        self.fresh_sub.clear();
        self.fresh_sub.resize(links, false);
        if links > 0 {
            own.loads.resize(links, 0.0);
            own.prices.resize(links, 0.0);
        }
    }

    /// `svc`'s fresh slot-order export, delta-filtered run by run where
    /// it lies into `own`, this shard's row (see [`ShardFilter::filter`]).
    /// The engine's sums are as of its last iteration (see
    /// [`flowtune_alloc::SerialAllocator::link_state`]), so call this
    /// right after the tick.
    // flowtune-lint: hot
    pub(crate) fn export(
        &mut self,
        own: &mut Row,
        svc: &AllocatorService,
        ship: &mut impl FnMut(Record, bool),
    ) {
        self.start_export(own, svc.link_slots().len());
        let mut base = 0;
        svc.link_state(|run| {
            let entries = run.totals.iter().zip(run.prices);
            let entries = entries.map(|(&[load, hessian], &price)| (load, hessian, price));
            self.filter(own, base, run.hessians, entries, ship);
            base += run.totals.len();
        });
    }

    /// Delta-filter one run of the fresh export — `(load, hessian,
    /// price)` for entries `base..`, the Hessians part of the export when
    /// `has_h` — against `own`: entries that moved overwrite the row and
    /// go to `ship` as [`Record::LinkState`]; after a resync request, the
    /// unmoved non-zero entries go as [`Record::CatchUp`]. `ship` sees
    /// exactly the records of the shard's wire frame, in frame order
    /// (slot order), each with whether it carries a Hessian; a caller
    /// whose consumers read the rows directly only counts them.
    // flowtune-lint: hot
    fn filter(
        &mut self,
        own: &mut Row,
        base: usize,
        has_h: bool,
        entries: impl ExactSizeIterator<Item = (f64, f64, f64)>,
        ship: &mut impl FnMut(Record, bool),
    ) {
        let (eps, resync) = (self.eps, self.resync);
        let end = base + entries.len();
        self.own_has_h = has_h;
        if has_h && own.hessians.len() != self.own_links {
            own.hessians.resize(self.own_links, 0.0);
        }
        let held = own.loads[base..end]
            .iter_mut()
            .zip(&mut own.prices[base..end]);
        let held = held.zip(&mut self.fresh_sub[base..end]);
        let hessians = &mut own.hessians[..];
        // Delta filter: the whole entry is keyed — load, dual, and
        // Hessian — so a link whose dual keeps decaying while its load
        // sits still is still re-shipped (see the sharded module docs).
        for (i, ((load, hessian, price), ((held_load, held_price), sub))) in
            entries.zip(held).enumerate()
        {
            let l = base + i;
            *sub = load > 0.0;
            let moved = (load - *held_load).abs() > eps
                || (price - *held_price).abs() > eps
                || (has_h && (hessian - hessians[l]).abs() > eps);
            if moved {
                *held_load = load;
                *held_price = price;
                if has_h {
                    hessians[l] = hessian;
                }
                let record = Record::LinkState {
                    link: l as u32,
                    load,
                    dual: price,
                    hessian: if has_h { hessian } else { 0.0 },
                };
                ship(record, has_h);
                continue;
            }
            if !resync {
                continue;
            }
            let held_h = if has_h { hessians[l] } else { 0.0 };
            if *held_load != 0.0 || *held_price != 0.0 || held_h != 0.0 {
                // Catch-up: re-ship what the filter skipped but a peer
                // with stale rows would be missing. Receivers apply
                // these idempotently (they set, not accumulate).
                let record = Record::CatchUp {
                    link: l as u32,
                    load: *held_load,
                    dual: *held_price,
                    hessian: held_h,
                };
                ship(record, has_h);
            }
        }
    }

    /// The per-shard half of the install math, after [`Round::agree`]
    /// returned `true`: sum the *other* shards' `rows` (every shard's, in
    /// shard order, this one's included) into this shard's background
    /// loads and Hessians, and mask both and the consensus duals to the
    /// links this shard subscribes to — written straight into the
    /// slot-order buffers `svc`'s engine lends
    /// ([`flowtune_alloc::SerialAllocator::install_link_state`]): the one
    /// install of both shard sets. A consensus dual stays `NaN` where the
    /// shard takes none; a gradient grid lends no Hessians.
    // flowtune-lint: hot, untrusted-input
    pub(crate) fn install(&self, round: &Round, rows: &[Row], svc: &mut AllocatorService) {
        let me = self.shard as usize;
        svc.install_link_state(|dst| {
            sum_others(me, rows, |row| &row.loads, &self.fresh_sub, dst.loads);
            // Engines without a second-order term export no Hessians and
            // receive none.
            if let Some(hessians) = dst.hessians.filter(|_| round.any_h && self.own_has_h) {
                sum_others(me, rows, |row| &row.hessians, &self.fresh_sub, hessians);
            }
            // Consensus duals install only on links this shard prices;
            // elsewhere NaN keeps its own decaying dual.
            let consensus = self.fresh_sub.iter().zip(&round.consensus);
            for (price, (&sub, &dual)) in dst.prices.iter_mut().zip(consensus) {
                *price = if sub { dual } else { f64::NAN };
            }
        });
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
/// only by frames (see the module docs): a `ShardFilter` and private
/// rows, in the engines' slot order as the frames are, whose own row the
/// filter writes and whose remote rows [`ExchangeCore::apply_frame`]
/// fills. Each distributed `ShardPeer` owns exactly one.
///
/// One exchange round is three calls:
///
/// 1. [`ExchangeCore::begin_round_from`] — filter the shard's fresh
///    export and append its state frame to a caller-owned flat buffer.
///    No allocation once the buffer and rows are warm.
/// 2. [`ExchangeCore::apply_frame`] — decode every *other* shard's frame
///    into that shard's row.
/// 3. [`ExchangeCore::install`] — run the install math over the rows
///    and install the result into the shard's [`AllocatorService`].
#[derive(Debug)]
pub struct ExchangeCore {
    filter: ShardFilter,
    /// Every shard's last-shipped row, this shard's included.
    rows: Vec<Row>,
    round: Round,
    /// Length of the frame the last round start appended.
    frame_bytes: u64,
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
            rows: (0..shard_count).map(|_| Row::default()).collect(),
            round: Round::default(),
            frame_bytes: 0,
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

    /// Start an exchange round from `svc`, this shard's service, right
    /// after its tick: delta-filter the engine's slot-order export, run
    /// by run where it lies — the filter the in-process shards run —
    /// against the last-shipped row, and append this shard's state frame
    /// to `out`. Returns the frame's length in bytes.
    // flowtune-lint: hot
    pub fn begin_round_from(
        &mut self,
        round: u64,
        svc: &AllocatorService,
        out: &mut Vec<u8>,
    ) -> usize {
        // The header precedes the records, so whether they carry
        // Hessians is read off the runs first.
        let mut has_hessians = false;
        svc.link_state(|run| has_hessians |= run.hessians);
        let start = self.open_frame(round, svc.link_slots().len(), has_hessians, out);
        let own = &mut self.rows[self.filter.shard as usize];
        let mut ship = |record, _| encode_record(&record, has_hessians, out);
        self.filter.export(own, svc, &mut ship);
        self.close_frame(start, out)
    }

    /// [`ExchangeCore::begin_round_from`] for an export given as
    /// slot-indexed vectors — `loads`/`hessians`/`prices`, all the same
    /// length or `hessians` empty (a first-order engine); all empty for
    /// an inactive frame — filtered as one run.
    // flowtune-lint: hot
    pub fn begin_round(
        &mut self,
        round: u64,
        loads: &[f64],
        hessians: &[f64],
        prices: &[f64],
        out: &mut Vec<u8>,
    ) -> usize {
        let has_hessians = !hessians.is_empty();
        debug_assert!(
            !has_hessians || hessians.len() == loads.len(),
            "short hessian export"
        );
        debug_assert_eq!(prices.len(), loads.len(), "short price export");
        let start = self.open_frame(round, loads.len(), has_hessians, out);
        let own = &mut self.rows[self.filter.shard as usize];
        let mut ship = |record, _| encode_record(&record, has_hessians, out);
        self.filter.start_export(own, loads.len());
        if has_hessians {
            let entries = loads.iter().zip(hessians).zip(prices);
            let entries = entries.map(|((&load, &h), &price)| (load, h, price));
            self.filter.filter(own, 0, true, entries, &mut ship);
        } else {
            let entries = loads
                .iter()
                .zip(prices)
                .map(|(&load, &price)| (load, 0.0, price));
            self.filter.filter(own, 0, false, entries, &mut ship);
        }
        self.close_frame(start, out)
    }

    /// Open this shard's round with an export of `links` slots: append
    /// the frame's header to `out`, and return where the frame starts.
    fn open_frame(
        &mut self,
        round: u64,
        links: usize,
        has_hessians: bool,
        out: &mut Vec<u8>,
    ) -> usize {
        let start = out.len();
        let header = FrameHeader {
            shard: self.filter.shard,
            round,
            n_links: links as u32,
            active: links > 0,
            has_hessians,
        };
        encode_header(&header, out);
        self.round.start();
        self.round.note(links, has_hessians);
        start
    }

    /// The length of the frame at `out[start..]`, kept for the install
    /// to charge.
    fn close_frame(&mut self, start: usize, out: &[u8]) -> usize {
        let len = out.len() - start;
        self.frame_bytes = len as u64;
        len
    }

    /// Apply another shard's state frame to its row.
    ///
    /// # Errors
    /// [`ApplyError`] if the frame fails to decode, names a shard or
    /// slot this cluster does not have, announces a slot count other
    /// than the rows already held or Hessians for a row held without
    /// them (both checked before anything is resized), or carries link
    /// state no engine exports (checked before the record is written).
    /// After a record-level error the row keeps whatever the frame
    /// carried up to it, and nothing re-ships the rest: the sender's
    /// filter has already recorded those entries as shipped.
    // flowtune-lint: hot, untrusted-input
    pub fn apply_frame(&mut self, frame: &[u8]) -> Result<(), ApplyError> {
        let (header, records) = RecordIter::new(frame)?;
        let bad_shard = ApplyError::BadShard {
            shard: header.shard,
        };
        if header.shard == self.filter.shard {
            return Err(bad_shard);
        }
        // Every row this core holds has the fabric's slot count (its own
        // export among them once it has begun a round).
        let held = self
            .rows
            .iter()
            .map(|row| row.loads.len())
            .find(|&len| len > 0);
        let from = header.shard as usize;
        let Some(row) = self.rows.get_mut(from) else {
            return Err(bad_shard);
        };
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
            if header.has_hessians && !row.loads.is_empty() && row.hessians.is_empty() {
                return Err(ApplyError::BadHessians {
                    shard: header.shard,
                });
            }
            row.loads.resize(n, 0.0);
            row.prices.resize(n, 0.0);
            if header.has_hessians {
                row.hessians.resize(n, 0.0);
            }
        }
        self.round.note(n, header.has_hessians);
        // A catch-up entry sets the row exactly as a link-state one
        // does.
        for record in records {
            let (Record::LinkState {
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
            }) = record?;
            if link as usize >= n {
                return Err(ApplyError::BadLink { link });
            }
            if !exportable(load, dual, hessian) {
                return Err(ApplyError::BadValue { link });
            }
            let l = link as usize;
            write_state(&mut row.loads, l, load, link)?;
            write_state(&mut row.prices, l, dual, link)?;
            if header.has_hessians {
                write_state(&mut row.hessians, l, hessian, link)?;
            }
        }
        Ok(())
    }

    /// Finish the round: run the install math over the rows — the
    /// round-wide consensus, then this shard's background sums and mask
    /// — and install the result into `svc` (this shard's service).
    /// Returns the length of the frame this round's start appended —
    /// what the round costs this shard in
    /// `ServiceStats::exchange_bytes` — or `None` when no shard exported
    /// any links this round (the round does not count).
    // flowtune-lint: hot, untrusted-input
    pub fn install(&mut self, svc: &mut AllocatorService) -> Option<u64> {
        if !self.round.agree(&self.rows) {
            return None;
        }
        self.filter.install(&self.round, &self.rows, svc);
        Some(self.frame_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowtune_proto::exchange::{record_bytes, FRAME_HEADER_BYTES};

    /// Run one full round across a set of cores given each shard's fresh
    /// exports, returning what each core's install charges the round.
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
        // Round 1: each frame is a header and the one moved entry, a
        // Hessian-free record.
        let one_entry = (FRAME_HEADER_BYTES + record_bytes(false)) as u64;
        assert_eq!(bytes1, vec![Some(one_entry), Some(one_entry)]);
        // Round 2 with identical exports: nothing moves, the frames are
        // bare headers.
        let bytes2 = round(&mut cores, 2, &exports, &mut svcs);
        let header = FRAME_HEADER_BYTES as u64;
        assert_eq!(bytes2, vec![Some(header), Some(header)]);
        // Each core's copy of the other's row now matches what was shipped.
        assert_eq!(cores[0].rows[1].loads[1], 2.0);
        assert_eq!(cores[1].rows[0].loads[0], 1.0);
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
        // Steady state: no movement, header-only frames.
        let header = FRAME_HEADER_BYTES as u64;
        assert_eq!(
            round(&mut cores, 2, &exports, &mut svcs),
            vec![Some(header), Some(header)],
        );
        // A resync re-ships shard 0's entry as catch-up, which its frame
        // carries and its install charges; the receiver's rows stay
        // identical.
        cores[0].request_resync();
        let mut buf = Vec::new();
        let len = cores[0].begin_round(4, &exports[0].0, &exports[0].1, &exports[0].2, &mut buf);
        assert_eq!(len, FRAME_HEADER_BYTES + record_bytes(false));
        let before = cores[1].rows[0].loads.clone();
        cores[1].begin_round(
            4,
            &exports[1].0,
            &exports[1].1,
            &exports[1].2,
            &mut Vec::new(),
        );
        cores[1].apply_frame(&buf).unwrap();
        assert_eq!(cores[1].rows[0].loads, before);
        assert_eq!(cores[1].install(&mut svcs[1]), Some(header));
        assert_eq!(cores[0].install(&mut svcs[0]), Some(len as u64));
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
            let row = &core.rows[1];
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
    fn a_first_order_row_refuses_a_frame_with_hessians_before_sizing_one() {
        let mut core = ExchangeCore::new(0, 2, 0.0);
        let mut first_order = header_only(4);
        core.apply_frame(&first_order).unwrap();
        // The same shard's header with the Hessian flag set: the frame a
        // corrupted flags byte makes of it.
        first_order.clear();
        encode_header(
            &FrameHeader {
                shard: 1,
                round: 2,
                n_links: 4,
                active: true,
                has_hessians: true,
            },
            &mut first_order,
        );
        assert_eq!(
            core.apply_frame(&first_order),
            Err(ApplyError::BadHessians { shard: 1 })
        );
        assert!(core.rows[1].hessians.is_empty());
        assert!(!core.round.any_h, "a refused frame marks nothing");
        // A row the core has not held yet is sized by its first frame,
        // Hessians included.
        let mut fresh = ExchangeCore::new(0, 2, 0.0);
        assert_eq!(fresh.apply_frame(&first_order), Ok(()));
        assert_eq!(fresh.rows[1].hessians.len(), 4);
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
            assert!(core.rows[1].loads.is_empty());
        }
        let own_frame = (FRAME_HEADER_BYTES + record_bytes(false)) as u64;
        assert_eq!(core.install(&mut svcs[0]), Some(own_frame), "own frame");
        // The fabric's own count is what a peer legitimately sends.
        assert_eq!(core.apply_frame(&header_only(links as u32)), Ok(()));
        assert_eq!(core.rows[1].loads.len(), links);

        // A core holding no row yet has nothing to compare against and
        // falls back to the hard bound.
        let mut fresh = ExchangeCore::new(0, 2, 0.0);
        assert_eq!(
            fresh.apply_frame(&header_only(u32::MAX)),
            Err(ApplyError::BadLinkCount { n_links: u32::MAX }),
        );
        assert!(fresh.rows[1].loads.is_empty());
    }

    /// A ticked NED service over `fabric` holding flows from `srcs`.
    fn loaded(fabric: &flowtune_topo::TwoTierClos, srcs: &[u16]) -> AllocatorService {
        let mut svc = AllocatorService::new(fabric, crate::FlowtuneConfig::default());
        for (t, &src) in (1..).zip(srcs) {
            let start = flowtune_proto::Message::FlowletStart {
                token: flowtune_proto::Token::new(t),
                src,
                dst: (src + 9) % 16,
                size_hint: 1,
                weight_q8: 0,
                spine: (t % 2) as u8,
            };
            svc.on_message(start).unwrap();
        }
        for _ in 0..3 {
            svc.tick();
        }
        svc
    }

    /// What the last install left in `svc`'s grid, as bits: background
    /// loads and Hessians (read back through an install that writes
    /// nothing and keeps every dual) and the prices.
    fn installed(svc: &mut AllocatorService) -> [Vec<u64>; 3] {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let (mut loads, mut hessians, mut prices) = (Vec::new(), Vec::new(), Vec::new());
        svc.install_link_state(|dst| {
            loads = bits(dst.loads);
            hessians = dst.hessians.map_or_else(Vec::new, |h| bits(h));
        });
        svc.link_prices_into(&mut prices);
        [loads, hessians, bits(&prices)]
    }

    #[test]
    fn an_inactive_frame_installs_what_an_unwritten_row_does() {
        // Shard 0 of three: shard 1 sends an active frame, shard 2 a
        // header-only inactive one (`n_links` 0) — the one way a row can
        // still be empty. The install must write what it writes when
        // shard 2's row was never written at all.
        let fabric =
            flowtune_topo::TwoTierClos::build(flowtune_topo::ClosConfig::multicore(2, 2, 4));
        let own = [0, 1, 9];
        let peer = loaded(&fabric, &[2, 3, 12]);
        let mut active = Vec::new();
        ExchangeCore::new(1, 3, 0.0).begin_round_from(1, &peer, &mut active);
        let mut inactive = Vec::new();
        encode_header(
            &FrameHeader {
                shard: 2,
                round: 1,
                n_links: 0,
                active: false,
                has_hessians: false,
            },
            &mut inactive,
        );
        let mut outcome = Vec::new();
        for heard_inactive in [true, false] {
            let mut svc = loaded(&fabric, &own);
            let mut core = ExchangeCore::new(0, 3, 0.0);
            core.begin_round_from(1, &svc, &mut Vec::new());
            core.apply_frame(&active).unwrap();
            if heard_inactive {
                assert_eq!(core.apply_frame(&inactive), Ok(()));
                assert!(
                    core.rows[2].loads.is_empty(),
                    "an inactive frame sizes nothing"
                );
            }
            let charged = core.install(&mut svc);
            outcome.push((charged, installed(&mut svc)));
        }
        let [loads, hessians, _] = &outcome[1].1;
        assert!(outcome[1].0.is_some(), "the round counts");
        let written = |v: &[u64]| v.iter().any(|&x| f64::from_bits(x) != 0.0);
        assert!(
            written(loads) && written(hessians),
            "shard 1's state installed"
        );
        assert_eq!(outcome[0], outcome[1]);
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
        // Version 4: a 16-byte header (version, flags, shard, round,
        // n_links, the sender's slot count), then one record per slot in
        // slot order — link state for an entry that moved, and (second
        // frame, after a resync request) catch-up for a non-zero entry
        // that did not.
        let [first, second] = pinned_frames();
        assert_eq!(
            hex(&first),
            "04030001000000000000000700000004\
             010000000140040000000000003fe8000000000000bfe0000000000000\
             010000000200000000000000003fc00000000000000000000000000000\
             01000000033ff00000000000000000000000000000bfd0000000000000"
        );
        assert_eq!(
            hex(&second),
            "04030001000000000000000800000004\
             020000000140040000000000003fe8000000000000bfe0000000000000\
             01000000023fe00000000000003fc0000000000000bff0000000000000\
             0100000003000000000000000000000000000000000000000000000000"
        );
    }

    #[test]
    fn every_prefix_and_byte_substitution_of_the_pinned_frames_is_refused_or_applied() {
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
            // The retired subscription and epoch record tags are refused.
            for tag in 3..=6 {
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

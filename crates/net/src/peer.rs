//! One shard of the distributed control plane: a full
//! [`AllocatorService`] plus the exchange protocol run over a real
//! [`Transport`] — receiver-driven, so a slow peer degrades its own
//! freshness instead of stalling everyone's tick.
//!
//! A [`ShardPeer`] is one shard of a control plane whose other shards
//! are reachable only over a wire. In one process the shards share one
//! link-state table; here nothing is shared, so the peer owns an
//! [`ExchangeCore`] — the same delta filter and install math over a
//! private copy of the table — and an exchange round is export and
//! broadcast, apply every peer's frame, install. This is the only place
//! a frame is encoded or decoded every round. A tick is two phases —
//! run the allocator and broadcast this shard's frame, then the barrier
//! and install — which [`ShardPeer::tick_into`] runs back to back and a
//! `PeerCluster` interleaves across its peers, every first phase before
//! any second.
//!
//! Receiving is asynchronous: a [`RecvRuntime`] thread per remote peer
//! drains that peer's frames into a mailbox as they arrive, and the
//! barrier in the second phase installs **the freshest
//! state each mailbox holds** rather than blocking per socket:
//!
//! * a peer that was fresh last round is waited for (up to the round
//!   timeout) — in a healthy cluster frames are already buffered and
//!   the wait is a mailbox handoff, which is what keeps the on-time
//!   path bit-for-bit identical to the old blocking lockstep;
//! * a peer that already missed a barrier is only *polled* — its missed
//!   rounds cost nothing, the round installs from the last state it
//!   shipped, and [`WireStats`] reports how far behind it is
//!   ([`PeerLag::rounds_behind`]);
//! * a peer that has been stale for
//!   [`ExchangeConfig::max_rounds_behind`] consecutive barriers is
//!   waited for again each round, so a free-running cluster cannot
//!   drift unboundedly ahead of a laggard's state.
//!
//! A peer is fresh for a round only when a frame of that round from it
//! was applied. A frame that fails to decode or apply, or whose header
//! names another shard than the link it arrived on, counts one
//! `exchange_decode_errors` and credits nothing.
//!
//! The peer reports two byte counts: the *logical* hub-model accounting
//! (`ServiceStats::exchange_bytes`, identical to in-process) and the
//! actual on-wire bytes its transport moved ([`WireStats`]), frame
//! headers, record tags and length prefixes included — now with a
//! per-peer receive/staleness breakdown.

use std::io;
use std::time::{Duration, Instant};

use flowtune::exchange::LinkExport;
use flowtune::{AllocatorService, ExchangeConfig, ExchangeCore, ServiceError, ServiceStats};
use flowtune_proto::exchange::decode_header;
use flowtune_proto::Message;

use crate::runtime::{Polled, RecvRuntime};
use crate::transport::{Sender, Transport, TransportError};

/// What went wrong driving a peer's exchange. Layered over
/// [`TransportError`]: transport-level faults keep their typed cause,
/// OS-level ones carry the raw [`io::Error`], and the
/// `From<PeerError> for io::Error` shim lets callers that still speak
/// `io::Result` migrate incrementally.
#[derive(Debug)]
pub enum PeerError {
    /// The transport failed moving a frame to or from `peer`.
    Transport {
        /// The remote peer involved.
        peer: u16,
        /// The typed transport-level cause.
        error: TransportError,
    },
    /// An OS-level I/O failure on the link to `peer`.
    Io {
        /// The remote peer involved.
        peer: u16,
        /// The raw cause.
        error: io::Error,
    },
    /// `peer`'s receiver thread is gone and its mailbox is empty; the
    /// terminal cause was already reported.
    ReceiverGone {
        /// The peer whose receive path died.
        peer: u16,
    },
    /// Splitting the transport into its halves failed at construction.
    Setup {
        /// The raw cause.
        error: io::Error,
    },
}

impl std::fmt::Display for PeerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PeerError::Transport { peer, error } => write!(f, "peer {peer}: {error}"),
            PeerError::Io { peer, error } => write!(f, "peer {peer}: {error}"),
            PeerError::ReceiverGone { peer } => {
                write!(f, "receive path to peer {peer} is gone")
            }
            PeerError::Setup { error } => write!(f, "transport split failed: {error}"),
        }
    }
}

impl std::error::Error for PeerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PeerError::Transport { error, .. } => Some(error),
            PeerError::Io { error, .. } | PeerError::Setup { error } => Some(error),
            PeerError::ReceiverGone { .. } => None,
        }
    }
}

impl From<PeerError> for io::Error {
    fn from(e: PeerError) -> io::Error {
        let kind = match &e {
            PeerError::Transport { error, .. } => io::Error::from(*error).kind(),
            PeerError::Io { error, .. } | PeerError::Setup { error } => error.kind(),
            PeerError::ReceiverGone { .. } => io::ErrorKind::BrokenPipe,
        };
        io::Error::new(kind, e)
    }
}

/// Re-type an `io::Error` from a transport call: recover the
/// [`TransportError`] it carries when there is one.
fn io_to_peer(peer: u16, e: io::Error) -> PeerError {
    match e.get_ref().and_then(|r| r.downcast_ref::<TransportError>()) {
        Some(&error) => PeerError::Transport { peer, error },
        None => PeerError::Io { peer, error: e },
    }
}

/// One remote peer's receive/staleness view, as reported in
/// [`WireStats::peers`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeerLag {
    /// The remote peer's shard id.
    pub peer: u16,
    /// Consecutive exchange barriers this peer has missed. `0` means it
    /// was fresh at the latest barrier.
    pub rounds_behind: u64,
    /// The worst `rounds_behind` observed over the peer's lifetime —
    /// the high-water mark a post-run report reads after the laggard
    /// has recovered.
    pub peak_rounds_behind: u64,
    /// The last round (tick number) at which this peer's frame arrived
    /// in time for the barrier.
    pub last_fresh_round: u64,
    /// Bytes received from this peer (length prefixes included),
    /// counted at mailbox arrival.
    pub rx_bytes: u64,
    /// Frames received from this peer, counted at mailbox arrival.
    pub rx_frames: u64,
}

/// On-wire counters of one peer's transport use (separate from the
/// logical `ServiceStats::exchange_bytes` accounting — see the module
/// docs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Bytes shipped to peers (length prefixes included).
    pub tx_bytes: u64,
    /// Bytes received from peers (length prefixes included).
    pub rx_bytes: u64,
    /// Frames shipped.
    pub tx_frames: u64,
    /// Frames received.
    pub rx_frames: u64,
    /// Exchange rounds in which at least one peer's frame missed the
    /// barrier and the round installed from last-shipped state.
    pub late_rounds: u64,
    /// Per-remote-peer receive and staleness breakdown, ascending by
    /// shard id.
    pub peers: Vec<PeerLag>,
}

impl WireStats {
    /// How many consecutive barriers `peer` has missed, or `None` if
    /// `peer` is not a remote peer of this endpoint.
    pub fn rounds_behind(&self, peer: u16) -> Option<u64> {
        self.peers
            .iter()
            .find(|l| l.peer == peer)
            .map(|l| l.rounds_behind)
    }

    /// The worst staleness across remote peers (0 when everyone was
    /// fresh at the latest barrier).
    pub fn max_rounds_behind(&self) -> u64 {
        self.peers
            .iter()
            .map(|l| l.rounds_behind)
            .max()
            .unwrap_or(0)
    }

    /// The worst staleness any remote peer ever reached (the high-water
    /// mark survives recovery).
    pub fn max_peak_rounds_behind(&self) -> u64 {
        self.peers
            .iter()
            .map(|l| l.peak_rounds_behind)
            .max()
            .unwrap_or(0)
    }
}

/// Per-slot staleness bookkeeping behind [`PeerLag`].
#[derive(Debug, Clone, Copy, Default)]
struct SlotLag {
    rounds_behind: u64,
    peak_rounds_behind: u64,
    last_fresh_round: u64,
    /// Newest state-frame round ever applied from this peer. Carried
    /// across barriers: a free-running peer's frame for round `T+1` can
    /// be swept up during barrier `T`, and must still satisfy barrier
    /// `T+1` when it comes.
    freshest_round: u64,
}

/// One shard's allocator service plus its side of the wire exchange.
#[derive(Debug)]
pub struct ShardPeer<T: Transport> {
    svc: AllocatorService,
    core: ExchangeCore,
    tx: T::Tx,
    rt: RecvRuntime,
    exchange: ExchangeConfig,
    ticks: u64,
    /// An exchange round was exported this tick and awaits its barrier.
    round_due: bool,
    // Reusable export/frame scratch: the encode path allocates nothing
    // once these are warm.
    export: LinkExport,
    frame_buf: Vec<u8>,
    /// Per-mailbox-slot staleness bookkeeping.
    lag: Vec<SlotLag>,
    /// This peer's exchange counters (rounds, logical bytes, decode
    /// errors) — the distributed share of what the in-process routing
    /// layer counts centrally.
    local: ServiceStats,
    /// Send-side wire counters; the receive side lives in the runtime's
    /// mailboxes.
    tx_bytes: u64,
    tx_frames: u64,
    late_rounds: u64,
    /// Cumulative wall time spent exchanging: export, encode and
    /// broadcast in phase 1, barrier and install in phase 2.
    exchange_time: Duration,
}

impl<T: Transport> ShardPeer<T> {
    /// Wrap `svc` as the shard `transport.shard()` peer of a
    /// `transport.peers()`-shard cluster, splitting the transport and
    /// spawning the receiver runtime. The exchange cadence, delta
    /// filter, barrier timeout and staleness bound all come from
    /// `exchange` ([`ExchangeConfig::from_flowtune`] lifts the first two
    /// from a service's flat config).
    ///
    /// # Errors
    /// [`PeerError::Setup`] when splitting the transport fails.
    ///
    /// # Panics
    /// Panics if `exchange`'s cadence or delta filter differs from
    /// `svc`'s config: the in-process plane reads them from the config,
    /// so a peer that disagreed would exchange where it does not.
    pub fn new(
        svc: AllocatorService,
        transport: T,
        exchange: ExchangeConfig,
    ) -> Result<Self, PeerError> {
        let cfg = svc.config();
        assert!(
            (exchange.every, exchange.delta_eps) == (cfg.exchange_every, cfg.exchange_delta_eps),
            "exchange (every, delta_eps) = ({}, {}) differs from the service config's \
             (exchange_every, exchange_delta_eps) = ({}, {})",
            exchange.every,
            exchange.delta_eps,
            cfg.exchange_every,
            cfg.exchange_delta_eps
        );
        let shard = transport.shard();
        let peers = transport.peers();
        let core = ExchangeCore::new(shard, peers, exchange.delta_eps);
        let (tx, rxs) = transport
            .split()
            .map_err(|error| PeerError::Setup { error })?;
        let slots = rxs.len();
        let rt = RecvRuntime::spawn(rxs);
        Ok(ShardPeer {
            svc,
            core,
            tx,
            rt,
            exchange,
            ticks: 0,
            round_due: false,
            export: LinkExport::default(),
            frame_buf: Vec::new(),
            lag: vec![SlotLag::default(); slots],
            local: ServiceStats::default(),
            tx_bytes: 0,
            tx_frames: 0,
            late_rounds: 0,
            exchange_time: Duration::ZERO,
        })
    }

    /// This peer's shard id.
    pub fn shard(&self) -> u16 {
        self.tx.shard()
    }

    /// Total peers in the cluster, this one included.
    pub fn peers(&self) -> usize {
        self.tx.peers()
    }

    /// The wrapped allocator service (message intake for flows this
    /// shard owns goes through here).
    pub fn service(&self) -> &AllocatorService {
        &self.svc
    }

    /// Mutable access to the wrapped service.
    pub fn service_mut(&mut self) -> &mut AllocatorService {
        &mut self.svc
    }

    /// Hand an endpoint notification to this shard's service.
    ///
    /// # Errors
    /// The service's [`ServiceError`]; the message is dropped and
    /// counted.
    pub fn on_message(&mut self, msg: Message) -> Result<(), ServiceError> {
        self.svc.on_message(msg)
    }

    /// On-wire transport counters, including the per-peer
    /// receive/staleness breakdown.
    pub fn wire_stats(&self) -> WireStats {
        let mut ws = WireStats {
            tx_bytes: self.tx_bytes,
            tx_frames: self.tx_frames,
            late_rounds: self.late_rounds,
            rx_bytes: 0,
            rx_frames: 0,
            peers: Vec::with_capacity(self.lag.len()),
        };
        for (slot, (&peer, lag)) in self.rt.peers().iter().zip(&self.lag).enumerate() {
            let (rx_bytes, rx_frames) = self.rt.rx_counters(slot);
            ws.rx_bytes += rx_bytes;
            ws.rx_frames += rx_frames;
            ws.peers.push(PeerLag {
                peer,
                rounds_behind: lag.rounds_behind,
                peak_rounds_behind: lag.peak_rounds_behind,
                last_fresh_round: lag.last_fresh_round,
                rx_bytes,
                rx_frames,
            });
        }
        ws
    }

    /// This peer's exchange counters alone (logical bytes, rounds,
    /// decode errors) — what a cluster aggregates across peers.
    pub fn exchange_stats(&self) -> ServiceStats {
        self.local
    }

    /// Cumulative wall time this peer spent exchanging link state
    /// (export, encode and broadcast; barrier wait and install).
    pub fn exchange_time(&self) -> Duration {
        self.exchange_time
    }

    /// One whole tick: allocator, broadcast, barrier, install.
    ///
    /// # Errors
    /// Either phase's [`PeerError`].
    pub fn tick(&mut self) -> Result<Vec<(u16, Message)>, PeerError> {
        let mut out = Vec::new();
        self.tick_into(&mut out)?;
        Ok(out)
    }

    /// [`ShardPeer::tick`] into a caller-owned buffer: `out` is cleared
    /// and receives the tick's rate-update stream. In the converged
    /// steady state (no updates) this allocates nothing.
    ///
    /// # Errors
    /// Either phase's [`PeerError`]; `out` holds the tick's updates
    /// even when the barrier fails.
    // flowtune-lint: hot
    pub fn tick_into(&mut self, out: &mut Vec<(u16, Message)>) -> Result<(), PeerError> {
        self.tick_export(out)?;
        self.exchange_finish()
    }

    /// Phase 1: catch up an unfinished round, tick the service into
    /// `out` (cleared first), and when a round is due, export +
    /// broadcast.
    // flowtune-lint: hot
    pub(crate) fn tick_export(&mut self, out: &mut Vec<(u16, Message)>) -> Result<(), PeerError> {
        out.clear();
        // A tick that failed between its phases leaves the barrier
        // pending; run it before starting the next tick so rounds never
        // interleave.
        self.exchange_finish()?;
        self.ticks += 1;
        self.svc.tick_into(out);
        self.round_due = self.exchange.due(self.ticks, self.tx.peers());
        if self.round_due {
            let t0 = Instant::now();
            self.export.refresh(&self.svc);
            self.frame_buf.clear();
            self.core.begin_round(
                self.ticks,
                &self.export.loads,
                &self.export.hessians,
                &self.export.prices,
                &mut self.frame_buf,
            );
            self.broadcast_frame_buf()?;
            self.exchange_time += t0.elapsed();
        }
        Ok(())
    }

    /// Phase 2: the staleness-aware barrier. For each remote peer,
    /// install the freshest state its mailbox holds — waiting only for
    /// peers that were fresh last round (or are past the staleness
    /// bound), polling the rest — then install the recomputed
    /// aggregation into the service. A no-op when no round is due.
    // flowtune-lint: hot, untrusted-input
    pub(crate) fn exchange_finish(&mut self) -> Result<(), PeerError> {
        if !self.round_due {
            return Ok(());
        }
        self.round_due = false;
        let t0 = Instant::now();
        let target = self.ticks;
        for slot in 0..self.lag.len() {
            self.collect_slot(slot, target)?;
        }
        if let Some(bytes) = self.core.install(&mut self.svc) {
            self.local.exchange_rounds += 1;
            self.local.exchange_bytes += bytes;
        }
        self.exchange_time += t0.elapsed();
        Ok(())
    }

    /// Drain one peer's mailbox: apply every buffered frame in arrival
    /// order (the replica ends on the freshest), and decide fresh/stale
    /// from the newest round applied once the mailbox runs dry. A frame
    /// that fails to decode or apply, or whose header names a shard other
    /// than the peer it arrived from, counts one decode error and does
    /// not make the peer fresh.
    // flowtune-lint: hot, untrusted-input
    fn collect_slot(&mut self, slot: usize, target: u64) -> Result<(), PeerError> {
        let Some(&peer) = self.rt.peers().get(slot) else {
            return Ok(());
        };
        let (behind, mut freshest) = match self.lag.get(slot) {
            Some(l) => (l.rounds_behind, l.freshest_round),
            None => return Ok(()),
        };
        let throttle = self.exchange.max_rounds_behind;
        // Fresh peers are waited for — in a healthy cluster their frame
        // is already buffered and the wait is a mailbox handoff. A peer
        // that already missed a barrier is only polled, so its missed
        // rounds cost nothing; once it is `max_rounds_behind` barriers
        // behind we wait again every round, bounding the drift.
        let wait = behind == 0 || (throttle > 0 && behind >= throttle);
        let deadline = Instant::now() + self.exchange.round_timeout;
        loop {
            let polled = if wait && freshest < target {
                self.rt.pop_deadline(slot, deadline)
            } else {
                // Target reached (or peer not waited for): sweep
                // whatever else is already buffered so a recovering
                // peer's backlog drains in one barrier, not one frame
                // per round.
                self.rt.try_pop(slot)
            };
            match polled {
                Polled::Empty => break,
                Polled::Closed => {
                    // The peer's stream ended. A round its final frame
                    // already satisfied still completes (the normal
                    // shutdown race: the peer sent its last round and
                    // exited); the first barrier the closure leaves
                    // unsatisfied surfaces it as an error.
                    if freshest >= target {
                        break;
                    }
                    return Err(self.closed_error(slot, peer));
                }
                Polled::Frame(frame) => {
                    let applied = match decode_header(&frame) {
                        Ok(header) if header.shard == peer => {
                            self.core.apply_frame(&frame).map(|()| header.round).ok()
                        }
                        _ => None,
                    };
                    self.rt.recycle(frame);
                    match applied {
                        Some(round) => freshest = freshest.max(round),
                        None => self.local.exchange_decode_errors += 1,
                    }
                }
            }
        }
        if let Some(l) = self.lag.get_mut(slot) {
            l.freshest_round = freshest;
            if freshest >= target {
                l.rounds_behind = 0;
                l.last_fresh_round = target;
            } else {
                // Stale round (even if older catch-up frames arrived):
                // install from this peer's last-shipped state; its next
                // frame heals the replica.
                l.rounds_behind += 1;
                l.peak_rounds_behind = l.peak_rounds_behind.max(l.rounds_behind);
                self.late_rounds += 1;
            }
        }
        Ok(())
    }

    /// The error for a closed mailbox: the thread's recorded failure if
    /// it is still unclaimed, the generic receiver-gone otherwise.
    // flowtune-lint: untrusted-input
    fn closed_error(&self, slot: usize, peer: u16) -> PeerError {
        match self.rt.take_failure(slot) {
            Some(e) => io_to_peer(peer, e),
            None => PeerError::ReceiverGone { peer },
        }
    }

    // flowtune-lint: hot
    fn broadcast_frame_buf(&mut self) -> Result<(), PeerError> {
        let me = self.tx.shard();
        for p in 0..self.tx.peers() as u16 {
            if p == me {
                continue;
            }
            let bytes = self
                .tx
                .send(p, &self.frame_buf)
                .map_err(|e| io_to_peer(p, e))?;
            self.tx_bytes += bytes;
            self.tx_frames += 1;
        }
        Ok(())
    }
}

//! One shard of the distributed control plane: a full
//! [`AllocatorService`] plus the exchange protocol run over a real
//! [`Transport`] — receiver-driven, so a slow peer degrades its own
//! freshness instead of stalling everyone's tick.
//!
//! A [`ShardPeer`] is one shard of a control plane whose other shards
//! are reachable only over a wire. In one process the shards share one
//! link-state table; here nothing is shared, so the peer owns an
//! [`ExchangeCore`] — the same delta filter and install over a private
//! copy of the table — and an exchange round is export and broadcast,
//! apply every peer's frame, install. The rows and the frames' records
//! are in the engines' slot order, as the shared table is: the round
//! starts from the service's export where it lies
//! ([`ExchangeCore::begin_round_from`]) and the install writes into the
//! engine's own buffers, so no global-id vector is built. This is the
//! only place a frame is encoded or decoded every round. A tick is two
//! phases — run the allocator and broadcast this shard's frame, then the
//! barrier and install — which [`ShardPeer::tick_into`] runs back to
//! back and a `PeerCluster` interleaves across its peers, every first
//! phase before any second.
//!
//! The peer owns one thread's worth of work: the barrier in the second
//! phase polls every remote peer's [`Receiver`] without blocking, on
//! the tick thread, and installs **the freshest state each one holds**
//! — every frame buffered on a link is applied in arrival order, so a
//! backlog drains in one barrier. All awaited peers share one deadline,
//! [`ExchangeConfig::round_timeout`] after the barrier starts, read
//! from the peer's [`Clock`]:
//!
//! * a peer that was fresh last round is waited for — in a healthy
//!   cluster its frame is already in the socket and the wait is one
//!   read, which is what keeps the on-time path bit-for-bit identical
//!   to a blocking lockstep;
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
//! The peer's `ServiceStats::exchange_bytes` is the length of each frame
//! it built, on every round that counts — the same number the
//! in-process plane reports. [`WireStats`] is what its transport moved:
//! that frame once per remote peer, each behind a length prefix, with a
//! per-peer receive/staleness breakdown.

use std::io;
use std::time::{Duration, Instant};

use flowtune::{
    AllocatorService, ExchangeConfig, ExchangeCore, Passers, ServiceError, ServiceStats,
};
use flowtune_proto::exchange::decode_header;
use flowtune_proto::Message;

use crate::transport::{Receiver, Sender, Transport, TransportError};

/// Where a peer's exchange barrier reads the time, and how it spends a
/// wait. Every barrier deadline comes from the clock, so a test can
/// step virtual time instead of sleeping ([`ShardPeer::with_clock`]);
/// phase timings stay on [`Instant`].
pub trait Clock: std::fmt::Debug + Send {
    /// The current time.
    fn now(&mut self) -> Instant;

    /// Called between two polls of a barrier that is still waiting.
    fn idle(&mut self);
}

/// The clock of a deployed peer: [`Instant::now`], and a wait yields
/// the thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct WallClock;

impl Clock for WallClock {
    fn now(&mut self) -> Instant {
        Instant::now()
    }

    fn idle(&mut self) {
        std::thread::yield_now();
    }
}

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
            PeerError::Setup { error } => write!(f, "transport split failed: {error}"),
        }
    }
}

impl std::error::Error for PeerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PeerError::Transport { error, .. } => Some(error),
            PeerError::Io { error, .. } | PeerError::Setup { error } => Some(error),
        }
    }
}

impl From<PeerError> for io::Error {
    fn from(e: PeerError) -> io::Error {
        let kind = match &e {
            PeerError::Transport { error, .. } => io::Error::from(*error).kind(),
            PeerError::Io { error, .. } | PeerError::Setup { error } => error.kind(),
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
    /// counted when a barrier reads them.
    pub rx_bytes: u64,
    /// Frames received from this peer, counted when a barrier reads
    /// them.
    pub rx_frames: u64,
}

/// On-wire counters of one peer's transport use: its frames, as
/// `ServiceStats::exchange_bytes` counts them, times the remote peers,
/// plus a length prefix each (see the module docs).
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

/// One remote peer's receive half and staleness bookkeeping.
#[derive(Debug)]
struct Slot<R> {
    rx: R,
    lag: PeerLag,
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
    /// One per remote peer, ascending by shard id.
    slots: Vec<Slot<T::Rx>>,
    /// What the barrier reads its deadline from.
    clock: Box<dyn Clock>,
    exchange: ExchangeConfig,
    ticks: u64,
    /// An exchange round was exported this tick and awaits its barrier.
    round_due: bool,
    /// The frame this peer broadcasts, reused: the encode path
    /// allocates nothing once it is warm.
    frame_buf: Vec<u8>,
    /// The frame the barrier reads into.
    rx_buf: Vec<u8>,
    /// The passers [`ShardPeer::tick_into`] orders. A peer ticked by a
    /// `PeerCluster` appends to the router's batch instead, and this
    /// stays empty.
    passers: Passers,
    /// This peer's exchange counters (rounds, frame bytes, decode
    /// errors) — the distributed share of what the in-process routing
    /// layer counts centrally.
    local: ServiceStats,
    /// Send-side wire counters; the receive side lives in the slots.
    tx_bytes: u64,
    tx_frames: u64,
    late_rounds: u64,
    /// Cumulative wall time spent exchanging: export, encode and
    /// broadcast in phase 1, barrier and install in phase 2.
    exchange_time: Duration,
}

impl<T: Transport> ShardPeer<T> {
    /// Wrap `svc` as the shard `transport.shard()` peer of a
    /// `transport.peers()`-shard cluster, splitting the transport. The
    /// exchange cadence and delta filter come from `svc`'s config, as
    /// they do in process; the barrier timeout and staleness bound from
    /// `exchange`. The barrier runs on the [`WallClock`].
    ///
    /// # Errors
    /// [`PeerError::Setup`] when splitting the transport fails.
    pub fn new(
        svc: AllocatorService,
        transport: T,
        exchange: ExchangeConfig,
    ) -> Result<Self, PeerError> {
        Self::with_clock(svc, transport, exchange, Box::new(WallClock))
    }

    /// [`ShardPeer::new`] with the barrier's deadlines read from
    /// `clock`.
    ///
    /// # Errors
    /// [`PeerError::Setup`] when splitting the transport fails.
    pub fn with_clock(
        svc: AllocatorService,
        transport: T,
        exchange: ExchangeConfig,
        clock: Box<dyn Clock>,
    ) -> Result<Self, PeerError> {
        let shard = transport.shard();
        let peers = transport.peers();
        let core = ExchangeCore::new(shard, peers, svc.config().exchange_delta_eps);
        let (tx, rxs) = transport
            .split()
            .map_err(|error| PeerError::Setup { error })?;
        let slots = rxs
            .into_iter()
            .map(|rx| Slot {
                lag: PeerLag {
                    peer: rx.remote_peer(),
                    ..PeerLag::default()
                },
                rx,
                freshest_round: 0,
            })
            .collect();
        Ok(ShardPeer {
            svc,
            core,
            tx,
            slots,
            clock,
            exchange,
            ticks: 0,
            round_due: false,
            frame_buf: Vec::new(),
            rx_buf: Vec::new(),
            passers: Passers::default(),
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
        let peers: Vec<PeerLag> = self.slots.iter().map(|s| s.lag).collect();
        WireStats {
            tx_bytes: self.tx_bytes,
            tx_frames: self.tx_frames,
            late_rounds: self.late_rounds,
            rx_bytes: peers.iter().map(|l| l.rx_bytes).sum(),
            rx_frames: peers.iter().map(|l| l.rx_frames).sum(),
            peers,
        }
    }

    /// This peer's exchange counters alone (frame bytes, rounds,
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
        let mut passers = std::mem::take(&mut self.passers);
        passers.clear();
        let exported = self.tick_export(&mut passers);
        passers.emit(out);
        self.passers = passers;
        exported?;
        self.exchange_finish()
    }

    /// Phase 1: catch up an unfinished round, tick the service — its
    /// passers appended, unordered, to `passers` — and when a round is
    /// due, export + broadcast.
    // flowtune-lint: hot
    pub(crate) fn tick_export(&mut self, passers: &mut Passers) -> Result<(), PeerError> {
        // A tick that failed between its phases leaves the barrier
        // pending; run it before starting the next tick so rounds never
        // interleave.
        self.exchange_finish()?;
        self.ticks += 1;
        self.svc.tick_passers(passers);
        self.round_due = self.svc.config().exchange_due(self.ticks, self.tx.peers());
        if self.round_due {
            let t0 = Instant::now();
            self.frame_buf.clear();
            self.core
                .begin_round_from(self.ticks, &self.svc, &mut self.frame_buf);
            self.broadcast_frame_buf()?;
            self.exchange_time += t0.elapsed();
        }
        Ok(())
    }

    /// Phase 2: the staleness-aware barrier. Poll every remote peer
    /// until each one it waits for — fresh last round, or past the
    /// staleness bound — has shipped this round, or until one shared
    /// deadline passes; then settle each peer's staleness and install
    /// the recomputed aggregation into the service. A no-op when no
    /// round is due.
    // flowtune-lint: hot, untrusted-input
    pub(crate) fn exchange_finish(&mut self) -> Result<(), PeerError> {
        if !self.round_due {
            return Ok(());
        }
        self.round_due = false;
        let t0 = Instant::now();
        let target = self.ticks;
        let deadline = self.clock.now() + self.exchange.round_timeout;
        while self.poll_slots(target)? && self.clock.now() < deadline {
            self.clock.idle();
        }
        let mut late = false;
        for slot in &mut self.slots {
            let l = &mut slot.lag;
            if slot.freshest_round >= target {
                l.rounds_behind = 0;
                l.last_fresh_round = target;
            } else {
                // Stale round (even if older catch-up frames arrived):
                // install from this peer's last-shipped state; its next
                // frame heals the replica.
                l.rounds_behind += 1;
                l.peak_rounds_behind = l.peak_rounds_behind.max(l.rounds_behind);
                late = true;
            }
        }
        self.late_rounds += u64::from(late);
        if let Some(bytes) = self.core.install(&mut self.svc) {
            self.local.exchange_rounds += 1;
            self.local.exchange_bytes += bytes;
        }
        self.exchange_time += t0.elapsed();
        Ok(())
    }

    /// Drain every remote peer's receive half without blocking: apply
    /// each frame it holds in arrival order (the replica ends on the
    /// freshest). Returns whether a peer this barrier waits for still
    /// lacks a frame of round `target`. A peer that already missed a
    /// barrier is not waited for, so its missed rounds cost nothing;
    /// once it is `max_rounds_behind` barriers behind it is waited for
    /// again every round, bounding the drift. A frame that fails to
    /// decode or apply, or whose header names a shard other than the
    /// peer it arrived from, counts one decode error and does not make
    /// the peer fresh.
    // flowtune-lint: hot, untrusted-input
    fn poll_slots(&mut self, target: u64) -> Result<bool, PeerError> {
        let throttle = self.exchange.max_rounds_behind;
        let mut waiting = false;
        for slot in &mut self.slots {
            let peer = slot.lag.peer;
            loop {
                match slot.rx.recv(&mut self.rx_buf, Duration::ZERO) {
                    Ok(None) => break,
                    Ok(Some(bytes)) => {
                        slot.lag.rx_bytes += bytes;
                        slot.lag.rx_frames += 1;
                        let applied = match decode_header(&self.rx_buf) {
                            Ok(header) if header.shard == peer => self
                                .core
                                .apply_frame(&self.rx_buf)
                                .map(|()| header.round)
                                .ok(),
                            _ => None,
                        };
                        match applied {
                            Some(round) => slot.freshest_round = slot.freshest_round.max(round),
                            None => self.local.exchange_decode_errors += 1,
                        }
                    }
                    // The peer's stream ended. A round its final frame
                    // already satisfied still completes (the normal
                    // shutdown race: the peer sent its last round and
                    // exited); the first barrier the closure leaves
                    // unsatisfied surfaces it as an error.
                    Err(_) if slot.freshest_round >= target => break,
                    Err(e) => return Err(io_to_peer(peer, e)),
                }
            }
            let behind = slot.lag.rounds_behind;
            let awaited = behind == 0 || (throttle > 0 && behind >= throttle);
            waiting |= awaited && slot.freshest_round < target;
        }
        Ok(waiting)
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

#[cfg(test)]
mod tests {
    use std::sync::{Arc, Mutex};

    use flowtune::{add_path_load, worst_oversubscription, FlowtuneConfig, Placement};
    use flowtune_proto::exchange::{Record, RecordIter};
    use flowtune_proto::Token;
    use flowtune_topo::{ClosConfig, FlowId, TwoTierClos};

    use super::*;
    use crate::transport::{mem_mesh, MemTransport};

    const ROUND_TIMEOUT: Duration = Duration::from_millis(10);

    /// Virtual time: `now` is a fixed origin plus what the barriers have
    /// idled, and every idle steps it by `step`.
    #[derive(Debug)]
    struct Stepped {
        origin: Instant,
        idled: Arc<Mutex<Duration>>,
        step: Duration,
    }

    impl Clock for Stepped {
        fn now(&mut self) -> Instant {
            self.origin + *self.idled.lock().unwrap()
        }

        fn idle(&mut self) {
            *self.idled.lock().unwrap() += self.step;
        }
    }

    fn fabric() -> TwoTierClos {
        TwoTierClos::build(ClosConfig::multicore(2, 2, 4))
    }

    /// Shard 0 of an `n`-peer mem mesh exchanging every tick on a
    /// stepped clock, the other endpoints unsplit, and the clock's
    /// virtual time idled so far.
    fn stepped_peer(
        n: usize,
        max_rounds_behind: u64,
        step: Duration,
    ) -> (
        ShardPeer<MemTransport>,
        Vec<MemTransport>,
        Arc<Mutex<Duration>>,
    ) {
        let cfg = FlowtuneConfig {
            exchange_every: 1,
            ..FlowtuneConfig::default()
        };
        let exchange = ExchangeConfig::from_flowtune(&cfg)
            .round_timeout(ROUND_TIMEOUT)
            .max_rounds_behind(max_rounds_behind);
        let idled = Arc::new(Mutex::new(Duration::ZERO));
        let clock = Stepped {
            origin: Instant::now(),
            idled: Arc::clone(&idled),
            step,
        };
        let mut endpoints = mem_mesh(n).into_iter();
        let t0 = endpoints.next().unwrap();
        let svc = AllocatorService::new(&fabric(), cfg);
        let peer = ShardPeer::with_clock(svc, t0, exchange, Box::new(clock)).unwrap();
        (peer, endpoints.collect(), idled)
    }

    /// One tick of `peer`, returning the virtual time its barrier waited.
    fn timed_tick(peer: &mut ShardPeer<MemTransport>, idled: &Mutex<Duration>) -> Duration {
        let before = *idled.lock().unwrap();
        peer.tick().expect("a late peer is not an error");
        *idled.lock().unwrap() - before
    }

    #[test]
    fn silent_peers_share_one_barrier_deadline() {
        // A step that does not divide the timeout: the barrier idles
        // past the deadline by less than one step.
        let step = Duration::from_millis(3);
        let (mut peer, _silent, idled) = stepped_peer(3, 8, step);
        let waited = timed_tick(&mut peer, &idled);
        assert!(
            waited >= ROUND_TIMEOUT && waited < ROUND_TIMEOUT + step,
            "two silent peers cost {waited:?}, one round timeout is {ROUND_TIMEOUT:?}"
        );
        let wire = peer.wire_stats();
        assert_eq!(wire.rounds_behind(1), Some(1), "{wire:?}");
        assert_eq!(wire.rounds_behind(2), Some(1), "{wire:?}");
        assert_eq!(wire.late_rounds, 1, "one late round, two late peers");
    }

    #[test]
    fn the_throttle_envelope_in_virtual_time() {
        const BOUND: u64 = 4;
        const SILENT: u64 = BOUND + 3;
        let (mut peer, others, idled) = stepped_peer(2, BOUND, Duration::from_millis(1));
        let (mut remote, _) = others.into_iter().next().unwrap().split().unwrap();

        // The remote ships nothing for SILENT ticks. The barrier waits a
        // round timeout when it detects that, then only polls, then
        // waits again every round once the peer is BOUND behind.
        let mut waits = Vec::new();
        for tick in 1..=SILENT {
            waits.push(timed_tick(&mut peer, &idled));
            assert_eq!(peer.wire_stats().rounds_behind(1), Some(tick));
        }
        let mut expect = vec![ROUND_TIMEOUT];
        expect.extend((1..BOUND).map(|_| Duration::ZERO));
        expect.extend((BOUND..SILENT).map(|_| ROUND_TIMEOUT));
        assert_eq!(waits, expect);

        // It catches up: every round through the next one, shipped
        // before that tick, drains in one barrier without a wait.
        let links = fabric().topology().link_count();
        let (mut loads, prices) = (vec![0.0; links], vec![0.5; links]);
        let mut core = ExchangeCore::new(1, 2, 0.0);
        let mut frame = Vec::new();
        for round in 1..=SILENT + 1 {
            loads[0] = round as f64;
            frame.clear();
            core.begin_round(round, &loads, &[], &prices, &mut frame);
            remote.send(0, &frame).unwrap();
        }
        assert_eq!(timed_tick(&mut peer, &idled), Duration::ZERO);
        let wire = peer.wire_stats();
        assert_eq!(wire.rounds_behind(1), Some(0), "{wire:?}");
        assert_eq!(wire.max_peak_rounds_behind(), SILENT, "the peak survives");
        assert_eq!(wire.rx_frames, SILENT + 1);
        assert_eq!(wire.late_rounds, SILENT);
        assert_eq!(peer.exchange_stats().exchange_decode_errors, 0);
    }

    /// The cross-shard incast: four sources per block of the two-block
    /// fabric, all sending to server 15; token = 1-based source index.
    const SOURCES: [u16; 8] = [0, 1, 2, 3, 8, 9, 10, 11];
    const RECEIVER: u16 = 15;

    fn incast_start(fabric: &TwoTierClos, token: u32) -> Message {
        let src = SOURCES[token as usize - 1];
        let spine = fabric.ecmp_spine(src.into(), RECEIVER.into(), FlowId(token.into()));
        Message::FlowletStart {
            token: Token::new(token),
            src,
            dst: RECEIVER,
            size_hint: 1_000_000,
            weight_q8: 256,
            spine: spine as u8,
        }
    }

    #[test]
    fn a_broadcast_frame_indexes_its_records_by_slot() {
        let fabric = fabric();
        let (mut peer, others, _) = stepped_peer(2, 8, Duration::from_millis(1));
        for token in 1..=4 {
            peer.on_message(incast_start(&fabric, token)).unwrap();
        }
        peer.tick_export(&mut Passers::default()).unwrap();
        let (_, mut rxs) = others.into_iter().next().unwrap().split().unwrap();
        let mut frame = Vec::new();
        let received = rxs[0].recv(&mut frame, Duration::ZERO).unwrap();
        assert!(received.is_some(), "the round's frame was broadcast");

        let svc = peer.service();
        let slots = svc.link_slots();
        let mut loads = Vec::new();
        svc.link_loads_into(&mut loads);
        // On this fabric slot `s` is not link `s`, and the loads tell
        // the two apart.
        assert!(
            slots
                .iter()
                .enumerate()
                .any(|(s, link)| loads[link.index()] != loads[s]),
            "slot order equals link-id order on the loaded links"
        );
        let (header, records) = RecordIter::new(&frame).unwrap();
        assert_eq!(header.n_links as usize, slots.len());
        let mut loaded = 0;
        for record in records {
            let Record::LinkState { link: s, load, .. } = record.unwrap() else {
                panic!("a first round ships no catch-up record");
            };
            let link = slots[s as usize];
            assert_eq!(load.to_bits(), loads[link.index()].to_bits(), "slot {s}");
            loaded += usize::from(load > 0.0);
        }
        let expect = loads.iter().filter(|&&load| load > 0.0).count();
        assert!(expect > 0);
        assert_eq!(loaded, expect, "every loaded link ships");
    }

    #[test]
    fn a_sleeping_peer_degrades_the_plane_and_it_reconverges() {
        const TICKS: u64 = 200;
        /// The laggard sleeps before each of its ticks DELAY_FROM + 1
        /// ..= DELAY_FROM + DELAY_ROUNDS, SLEEP round timeouts each.
        const DELAY_FROM: u64 = 50;
        const DELAY_ROUNDS: u64 = 5;
        const SLEEP: u32 = 10;
        const T: Duration = ROUND_TIMEOUT;
        let fabric = fabric();
        let cfg = FlowtuneConfig {
            exchange_every: 1,
            ..FlowtuneConfig::default()
        };
        let exchange = ExchangeConfig::default().round_timeout(T);
        let bound = exchange.max_rounds_behind;

        // Two peers on one virtual clock, on this thread: time moves
        // only while a barrier idles.
        let idled = Arc::new(Mutex::new(Duration::ZERO));
        let origin = Instant::now();
        let mut peers = mem_mesh(2).into_iter().map(|t| {
            let clock = Stepped {
                origin,
                idled: Arc::clone(&idled),
                step: Duration::from_millis(1),
            };
            let svc = AllocatorService::new(&fabric, cfg);
            ShardPeer::with_clock(svc, t, exchange, Box::new(clock)).unwrap()
        });
        let (mut healthy, mut laggard) = (peers.next().unwrap(), peers.next().unwrap());
        let placement = Placement::contiguous(fabric.config().server_count(), 2);
        let tokens = 1..=SOURCES.len() as u32;
        for token in tokens.clone() {
            let peer = match placement.shard_of(SOURCES[token as usize - 1]) {
                0 => &mut healthy,
                _ => &mut laggard,
            };
            peer.on_message(incast_start(&fabric, token)).unwrap();
        }
        // Every flow's rate, each read from the peer that owns it.
        let rates = |healthy: &ShardPeer<MemTransport>, laggard: &ShardPeer<MemTransport>| {
            let rate = |token: u32| {
                let peer = [healthy, laggard][placement.shard_of(SOURCES[token as usize - 1])];
                (
                    token,
                    peer.service().flow_rate_gbps(Token::new(token)).unwrap(),
                )
            };
            tokens.clone().map(rate).collect::<Vec<_>>()
        };

        // Each round the healthy peer exports, then the laggard runs
        // free up to the same round unless it sleeps, then the healthy
        // barrier runs, as `Peers::tick` interleaves them.
        let now = || *idled.lock().unwrap();
        let mut passers = Passers::default();
        // The laggard's wake time, and the last tick it fell asleep before.
        let (mut wake, mut slept_before) = (Duration::ZERO, 0);
        let (mut waits, mut behind_after) = (Vec::new(), Vec::new());
        for round in 1..=TICKS {
            passers.clear();
            healthy.tick_export(&mut passers).unwrap();
            while laggard.ticks < round {
                let next = laggard.ticks + 1;
                let delayed = (DELAY_FROM + 1..=DELAY_FROM + DELAY_ROUNDS).contains(&next);
                if delayed && slept_before < next {
                    (wake, slept_before) = (now() + T * SLEEP, next);
                }
                if now() < wake {
                    break;
                }
                laggard.tick().unwrap();
            }
            let before = now();
            healthy.exchange_finish().unwrap();
            waits.push(now() - before);
            let behind = healthy.wire_stats().max_rounds_behind();
            behind_after.push(behind);

            // 4. Frozen exchange state freezes rates: no link is
            // over-subscribed while the plane is degraded.
            if behind > 0 {
                let mut loads = vec![0.0; fabric.topology().link_count()];
                for (token, rate) in rates(&healthy, &laggard) {
                    let src = SOURCES[token as usize - 1].into();
                    let path = fabric.path(src, RECEIVER.into(), FlowId(token.into()));
                    add_path_load(&mut loads, &path, rate);
                }
                let over = worst_oversubscription(&fabric, &loads);
                assert!(over <= 1e-6, "round {round}: over-subscribed by {over:.2e}");
            }
        }

        // 1 + 2. Detection costs one round timeout; the next stale
        // rounds cost nothing until the laggard is `bound` behind; then
        // every round waits one timeout until the laggard has slept its
        // DELAY_ROUNDS × SLEEP timeouts, and once it has caught up no
        // round waits.
        let throttled = u64::from(SLEEP) * DELAY_ROUNDS - 1;
        let mut expect = vec![Duration::ZERO; DELAY_FROM as usize];
        expect.push(T);
        expect.extend((1..bound).map(|_| Duration::ZERO));
        expect.extend((0..throttled).map(|_| T));
        expect.resize(TICKS as usize, Duration::ZERO);
        assert_eq!(waits, expect);

        // 3. The staleness is reported: `rounds_behind` climbs through
        // every degraded round, the peak survives recovery.
        let degraded = bound + throttled;
        let mut expect = vec![0; DELAY_FROM as usize];
        expect.extend(1..=degraded);
        expect.resize(TICKS as usize, 0);
        assert_eq!(behind_after, expect);
        let wire = healthy.wire_stats();
        assert_eq!(wire.rounds_behind(1), Some(0), "{wire:?}");
        assert_eq!(wire.max_peak_rounds_behind(), degraded);
        assert_eq!(wire.late_rounds, degraded);
        assert_eq!(laggard.wire_stats().late_rounds, 0);
        assert_eq!(now(), waits.iter().sum(), "only the healthy barrier waits");

        // 5. Recovered, the plane lands on the unsharded allocation.
        let mut reference = AllocatorService::new(&fabric, cfg);
        for token in tokens.clone() {
            reference.on_message(incast_start(&fabric, token)).unwrap();
        }
        for _ in 0..TICKS {
            reference.tick();
        }
        let tol = cfg.update_threshold;
        for (token, got) in rates(&healthy, &laggard) {
            let expect = reference.flow_rate_gbps(Token::new(token)).unwrap();
            assert!(
                (expect - got).abs() <= tol * expect.max(1.0),
                "token {token}: unsharded {expect} vs recovered plane {got}"
            );
        }
    }
}

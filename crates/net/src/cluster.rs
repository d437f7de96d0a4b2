//! A whole distributed control plane driven in lockstep from one
//! thread: the core crate's [`Router`] over a set of [`ShardPeer`]s.
//!
//! Routing — each message to the one peer whose service answers it:
//! the holder of its token, else `FlowletStart`s by source endpoint
//! through a [`Placement`] — the one ordering of every peer's passers,
//! stat aggregation — is the router's, the same code that
//! routes the in-process
//! `ShardedService`. This module supplies only what a wire changes:
//! `Peers`, the [`ShardSet`] whose tick is split-phase and whose exchange
//! runs through each peer's [`Transport`], and the on-wire counters. Over
//! the in-memory transport the whole construction is **bit-for-bit
//! identical** to `ShardedService`: same update streams, same rates,
//! same stats (pinned by the repository's sharded equivalence tests).
//! Over sockets it is the single-process harness the benches use to
//! price the wire.
//!
//! A cluster tick is split-phase across the peers — every peer ticks
//! (appending its passers to the router's one batch) and broadcasts
//! before any peer's exchange barrier runs (collect + install) — so
//! peers never deadlock waiting for a frame a later peer has not
//! produced yet, and the lockstep schedule reproduces the in-process
//! barrier.

use std::time::Duration;

use flowtune::router::{Router, ShardSet};
use flowtune::{
    AllocatorService, Passers, PhaseTimings, Placement, ServiceError, ServiceStats, TickDriver,
};
use flowtune_proto::{Message, Token};
use flowtune_topo::TwoTierClos;

use crate::peer::{PeerError, PeerLag, ShardPeer, WireStats};
use crate::transport::Transport;

/// The [`ShardSet`] of a [`PeerCluster`]: peers in shard order, ticked
/// split-phase.
#[derive(Debug)]
pub struct Peers<T: Transport> {
    peers: Vec<ShardPeer<T>>,
}

impl<T: Transport> ShardSet for Peers<T> {
    type Error = PeerError;
    const NAME: &'static str = "peer-cluster";

    fn shard_count(&self) -> usize {
        self.peers.len()
    }

    fn service(&self, shard: usize) -> &AllocatorService {
        self.peers[shard].service()
    }

    fn service_mut(&mut self, shard: usize) -> &mut AllocatorService {
        self.peers[shard].service_mut()
    }

    // flowtune-lint: hot, untrusted-input
    fn tick(&mut self, passers: &mut Passers) -> Result<(), PeerError> {
        for peer in &mut self.peers {
            peer.tick_export(passers)?;
        }
        for peer in &mut self.peers {
            peer.exchange_finish()?;
        }
        Ok(())
    }

    /// Exchange rounds are a cluster-wide event every peer counts once,
    /// so they aggregate as the max; frame bytes — each peer's own
    /// frames — and decode errors sum.
    fn exchange_stats(&self) -> ServiceStats {
        let mut total = ServiceStats::default();
        for peer in &self.peers {
            let own = peer.exchange_stats();
            total.exchange_rounds = total.exchange_rounds.max(own.exchange_rounds);
            total.exchange_bytes += own.exchange_bytes;
            total.exchange_decode_errors += own.exchange_decode_errors;
        }
        total
    }

    fn exchange_time(&self) -> Duration {
        self.peers.iter().map(ShardPeer::exchange_time).sum()
    }
}

/// N [`ShardPeer`]s behind one [`TickDriver`] face (see the module
/// docs).
#[derive(Debug)]
pub struct PeerCluster<T: Transport> {
    router: Router<Peers<T>>,
}

impl<T: Transport> PeerCluster<T> {
    /// Assemble a cluster from peers under the contiguous placement.
    /// Peers must arrive in shard order and agree with their transports
    /// on the cluster size, and with each other on the fabric and the
    /// configuration. Each peer reads its exchange cadence and delta
    /// filter from its service's config, so one configuration means one
    /// cadence: no peer skips a round the others run and leaves them
    /// waiting out their barrier timeout.
    ///
    /// # Panics
    /// Panics if `peers` is empty, a peer's shard id or peer count
    /// disagrees with its position, or the peers disagree on any of the
    /// above.
    pub fn from_peers(peers: Vec<ShardPeer<T>>) -> Self {
        assert!(!peers.is_empty(), "a cluster needs at least one peer");
        for (i, peer) in peers.iter().enumerate() {
            assert_eq!(
                usize::from(peer.shard()),
                i,
                "peer {i} claims shard {}",
                peer.shard()
            );
            assert_eq!(
                peer.peers(),
                peers.len(),
                "peer {i}'s transport spans {} peers, cluster has {}",
                peer.peers(),
                peers.len()
            );
        }
        let servers = peers[0].service().fabric().config().server_count();
        let placement = Placement::contiguous(servers, peers.len());
        PeerCluster {
            router: Router::over(Peers { peers }, placement),
        }
    }

    /// The routing layer: the placement, and the one ordering of the
    /// peers' passers.
    pub fn router(&self) -> &Router<Peers<T>> {
        &self.router
    }

    /// Read access to the peers, in shard order.
    pub fn peers(&self) -> &[ShardPeer<T>] {
        &self.router.shard_set().peers
    }

    /// One lockstep tick of the whole cluster: every peer ticks and
    /// broadcasts, then every peer runs its exchange barrier and
    /// installs, then the router orders every peer's passers into one
    /// token-ordered stream.
    ///
    /// # Errors
    /// The first [`PeerError`] encountered; the tick's update stream is
    /// dropped.
    // flowtune-lint: untrusted-input
    pub fn try_tick(&mut self) -> Result<Vec<(u16, Message)>, PeerError> {
        let mut out = Vec::new();
        self.try_tick_into(&mut out)?;
        Ok(out)
    }

    /// [`PeerCluster::try_tick`] into a caller-owned buffer: `out` is
    /// cleared and receives the tick's update stream. In the converged
    /// steady state (no updates) this allocates nothing.
    ///
    /// # Errors
    /// The first [`PeerError`] encountered; the tick's update stream is
    /// dropped.
    // flowtune-lint: hot, untrusted-input
    pub fn try_tick_into(&mut self, out: &mut Vec<(u16, Message)>) -> Result<(), PeerError> {
        self.router.tick_shards(out)
    }

    /// The peers' on-wire transport counters: totals summed, plus the
    /// cluster-level staleness view — one [`PeerLag`] per shard, with
    /// `rounds_behind`/`last_fresh_round` the worst any other peer
    /// observed of it and the receive counters summed across observers.
    pub fn wire_stats(&self) -> WireStats {
        let mut total = WireStats::default();
        let mut lags: Vec<PeerLag> = (0..self.peers().len() as u16)
            .map(|peer| PeerLag {
                peer,
                ..PeerLag::default()
            })
            .collect();
        for peer in self.peers() {
            let w = peer.wire_stats();
            total.tx_bytes += w.tx_bytes;
            total.rx_bytes += w.rx_bytes;
            total.tx_frames += w.tx_frames;
            total.rx_frames += w.rx_frames;
            total.late_rounds += w.late_rounds;
            for l in &w.peers {
                let Some(agg) = lags.get_mut(usize::from(l.peer)) else {
                    continue;
                };
                agg.rounds_behind = agg.rounds_behind.max(l.rounds_behind);
                agg.peak_rounds_behind = agg.peak_rounds_behind.max(l.peak_rounds_behind);
                agg.last_fresh_round = agg.last_fresh_round.max(l.last_fresh_round);
                agg.rx_bytes += l.rx_bytes;
                agg.rx_frames += l.rx_frames;
            }
        }
        total.peers = lags;
        total
    }
}

/// Every method is the router's.
impl<T: Transport> TickDriver for PeerCluster<T> {
    fn on_message(&mut self, msg: Message) -> Result<(), ServiceError> {
        self.router.on_message(msg)
    }

    /// # Panics
    /// Panics on a peer failure; use [`PeerCluster::try_tick_into`] for
    /// an error instead.
    // flowtune-lint: hot
    fn tick_into(&mut self, out: &mut Vec<(u16, Message)>) {
        self.router.tick_into(out);
    }

    fn flow_rate_gbps(&self, token: Token) -> Option<f64> {
        self.router.flow_rate_gbps(token)
    }

    fn active_flows(&self) -> usize {
        self.router.active_flows()
    }

    fn stats(&self) -> ServiceStats {
        self.router.stats()
    }

    fn phase_timings(&self) -> PhaseTimings {
        self.router.phase_timings()
    }

    fn link_loads(&self) -> Vec<f64> {
        self.router.link_loads()
    }

    fn fabric(&self) -> &TwoTierClos {
        self.router.fabric()
    }

    fn engine_name(&self) -> &'static str {
        self.router.engine_name()
    }
}

#[cfg(test)]
mod tests {
    use flowtune::{ExchangeConfig, FlowtuneConfig, ShardedService};
    use flowtune_proto::exchange::LENGTH_PREFIX_BYTES;
    use flowtune_topo::ClosConfig;

    use super::*;
    use crate::transport::mem_mesh;

    fn fabric() -> TwoTierClos {
        TwoTierClos::build(ClosConfig::multicore(2, 2, 4))
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

    fn cluster(
        fabric: &TwoTierClos,
        cfg: FlowtuneConfig,
        n: usize,
    ) -> PeerCluster<crate::transport::MemTransport> {
        let exchange = ExchangeConfig::from_flowtune(&cfg).round_timeout(Duration::from_secs(5));
        let peers = mem_mesh(n)
            .into_iter()
            .map(|t| {
                ShardPeer::new(AllocatorService::new(fabric, cfg), t, exchange)
                    .expect("mem transport splits infallibly")
            })
            .collect();
        PeerCluster::from_peers(peers)
    }

    #[test]
    #[should_panic(expected = "same fabric")]
    fn from_peers_rejects_a_peer_over_another_fabric() {
        let other = TwoTierClos::build(ClosConfig::multicore(2, 2, 8));
        let cfg = FlowtuneConfig::default();
        let exchange = ExchangeConfig::from_flowtune(&cfg);
        let peers = mem_mesh(2)
            .into_iter()
            .zip([fabric(), other])
            .map(|(t, f)| ShardPeer::new(AllocatorService::new(&f, cfg), t, exchange).unwrap())
            .collect();
        let _ = PeerCluster::from_peers(peers);
    }

    /// Each peer's cadence is its service's, so peers on different
    /// cadences are peers under different configurations.
    #[test]
    #[should_panic(expected = "one configuration")]
    fn from_peers_rejects_peers_on_different_cadences() {
        let f = fabric();
        let peers = mem_mesh(2)
            .into_iter()
            .zip([1, 2])
            .map(|(t, every)| {
                let cfg = FlowtuneConfig {
                    exchange_every: every,
                    ..FlowtuneConfig::default()
                };
                let exchange = ExchangeConfig::from_flowtune(&cfg);
                ShardPeer::new(AllocatorService::new(&f, cfg), t, exchange).unwrap()
            })
            .collect();
        let _ = PeerCluster::from_peers(peers);
    }

    /// A default-config service runs no exchange in process; its peers
    /// run none on the wire.
    #[test]
    fn a_default_config_peer_runs_no_exchange() {
        let mut c = cluster(&fabric(), FlowtuneConfig::default(), 2);
        c.on_message(start(1, 0, 15)).unwrap();
        c.on_message(start(2, 8, 15)).unwrap();
        for _ in 0..5 {
            c.tick();
        }
        let st = c.stats();
        assert_eq!(st.exchange_rounds, 0);
        assert_eq!(st.exchange_bytes, 0);
        assert_eq!(c.wire_stats().tx_frames, 0);
    }

    #[test]
    fn mem_cluster_matches_in_process_sharded_service_bit_for_bit() {
        let f = fabric();
        let cfg = FlowtuneConfig {
            exchange_every: 1,
            ..FlowtuneConfig::default()
        };
        let mut reference = ShardedService::new(&f, cfg, 2);
        let mut distributed = cluster(&f, cfg, 2);
        // A cross-shard incast onto server 15 plus a disjoint flow.
        for (t, src, dst) in [(1u32, 0u16, 15u16), (2, 8, 15), (3, 1, 15), (4, 2, 6)] {
            reference.on_message(start(t, src, dst)).unwrap();
            distributed.on_message(start(t, src, dst)).unwrap();
        }
        for round in 0..60 {
            let a = reference.tick();
            let b = distributed.tick();
            assert_eq!(a, b, "update streams diverged at tick {round}");
        }
        for t in [1u32, 2, 3, 4] {
            assert_eq!(
                reference.flow_rate_gbps(Token::new(t)).map(f64::to_bits),
                distributed.flow_rate_gbps(Token::new(t)).map(f64::to_bits),
                "token {t}"
            );
        }
        assert_eq!(reference.stats(), distributed.stats());
        let wire = distributed.wire_stats();
        assert!(wire.tx_bytes > 0, "frames crossed the transport");
        assert_eq!(wire.tx_frames, wire.rx_frames, "lockstep loses nothing");
        assert_eq!(wire.late_rounds, 0);
    }

    #[test]
    fn wire_bytes_are_the_counted_frames_sent_to_every_other_peer() {
        let f = fabric();
        let cfg = FlowtuneConfig {
            exchange_every: 1,
            ..FlowtuneConfig::default()
        };
        let peers = 3;
        let mut c = cluster(&f, cfg, peers);
        // One flow per shard, two of them onto one receiver.
        for (t, src, dst) in [(1u32, 0u16, 15u16), (2, 8, 15), (3, 12, 1)] {
            c.on_message(start(t, src, dst)).unwrap();
        }
        for _ in 0..30 {
            c.tick();
        }
        let st = c.stats();
        assert_eq!(st.exchange_rounds, 30);
        let frames = st.exchange_rounds * peers as u64;
        let receivers = peers as u64 - 1;
        let prefixes = LENGTH_PREFIX_BYTES as u64 * frames;
        let wire = c.wire_stats();
        assert_eq!(wire.tx_frames, receivers * frames);
        assert_eq!(wire.tx_bytes, receivers * (st.exchange_bytes + prefixes));
        assert_eq!(wire.rx_bytes, wire.tx_bytes, "lockstep loses nothing");
    }

    #[test]
    fn phase_timings_cover_the_wire_exchange() {
        let f = fabric();
        let cfg = FlowtuneConfig {
            exchange_every: 1,
            ..FlowtuneConfig::default()
        };
        let mut c = cluster(&f, cfg, 2);
        assert_eq!(c.phase_timings().exchange, Duration::ZERO);
        c.on_message(start(1, 0, 15)).unwrap();
        c.on_message(start(2, 8, 15)).unwrap();
        for _ in 0..20 {
            c.tick();
        }
        assert_eq!(c.stats().exchange_rounds, 20);
        let t = c.phase_timings();
        assert!(t.allocate > Duration::ZERO, "{t:?}");
        assert!(t.export > Duration::ZERO, "{t:?}");
        assert!(t.exchange > Duration::ZERO, "{t:?}");
    }

    #[test]
    fn single_peer_cluster_never_exchanges() {
        let f = fabric();
        let cfg = FlowtuneConfig {
            exchange_every: 1,
            ..FlowtuneConfig::default()
        };
        let mut c = cluster(&f, cfg, 1);
        c.on_message(start(1, 0, 12)).unwrap();
        for _ in 0..5 {
            c.tick();
        }
        let st = c.stats();
        assert_eq!(st.exchange_rounds, 0);
        assert_eq!(st.exchange_bytes, 0);
        assert_eq!(c.wire_stats().tx_frames, 0);
    }
}

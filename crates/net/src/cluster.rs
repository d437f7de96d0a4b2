//! A whole distributed control plane driven in lockstep from one
//! thread: the [`TickDriver`] face over a set of [`ShardPeer`]s.
//!
//! [`PeerCluster`] replicates the in-process `ShardedService` routing
//! layer exactly — `FlowletStart`s route by source endpoint through a
//! [`Placement`], token-addressed messages follow a token→peer table,
//! duplicates and strays are disposed of (and counted) at the routing
//! layer — while the exchange itself runs through each peer's
//! [`Transport`]. Over the in-memory transport the whole construction
//! is **bit-for-bit identical** to `ShardedService`: same update
//! streams, same rates, same stats (pinned by the repository's sharded
//! equivalence tests). Over sockets it is the single-process harness
//! the benches use to price the wire.
//!
//! A cluster tick is split-phase across the peers — every peer runs
//! [`ShardPeer::begin_round`] (tick + broadcast) before any peer's
//! [`ExchangeRound`](crate::ExchangeRound) is finished (collect + install) — so peers never
//! deadlock waiting for a frame a later peer has not produced yet, and
//! the lockstep schedule reproduces the in-process barrier.

use std::collections::HashMap;

use flowtune::{
    merge_by_token_into, FlowMigration, Placement, ServiceError, ServiceStats, TickDriver,
};
use flowtune_alloc::{RateAllocator, SerialAllocator};
use flowtune_proto::{Message, Token};
use flowtune_topo::TwoTierClos;

use crate::peer::{PeerError, PeerLag, ShardPeer, WireStats};
use crate::transport::Transport;

/// N [`ShardPeer`]s behind one [`TickDriver`] face (see the module
/// docs).
#[derive(Debug)]
pub struct PeerCluster<T: Transport, E: RateAllocator = SerialAllocator> {
    peers: Vec<ShardPeer<T, E>>,
    /// token → peer, for `FlowletEnd` routing and rate queries.
    route: HashMap<Token, u32>,
    placement: Placement,
    /// Routing-layer counters (duplicates, unknown ends, strays) —
    /// identical to the in-process routing layer's share of the stats.
    local: ServiceStats,
    /// Monotonic placement-epoch counter for [`PeerCluster::replace`].
    epoch: u64,
    /// Per-peer update-stream scratch, reused across ticks so a quiet
    /// tick allocates nothing.
    streams: Vec<Vec<(u16, Message)>>,
}

impl<T: Transport, E: RateAllocator> PeerCluster<T, E> {
    /// Assemble a cluster from peers under the default contiguous
    /// placement. Peers must arrive in shard order and agree with
    /// their transports on the cluster size.
    ///
    /// # Panics
    /// Panics if `peers` is empty or a peer's shard id or peer count
    /// disagrees with its position.
    pub fn from_peers(peers: Vec<ShardPeer<T, E>>) -> Self {
        assert!(!peers.is_empty(), "a cluster needs at least one peer");
        let servers = peers[0].service().fabric().config().server_count();
        let placement = Placement::contiguous(servers, peers.len());
        Self::with_placement(peers, placement)
    }

    /// [`PeerCluster::from_peers`] with an explicit endpoint→shard
    /// [`Placement`].
    ///
    /// # Panics
    /// Panics if `peers` is empty, a peer disagrees with its position
    /// or the cluster size, or the placement's shape does not match.
    pub fn with_placement(peers: Vec<ShardPeer<T, E>>, placement: Placement) -> Self {
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
        assert_eq!(
            placement.servers(),
            servers,
            "placement must cover exactly the fabric's servers"
        );
        assert_eq!(
            placement.shard_count(),
            peers.len(),
            "placement must map onto exactly the cluster's peers"
        );
        let streams = peers.iter().map(|_| Vec::new()).collect();
        PeerCluster {
            peers,
            route: HashMap::new(),
            placement,
            local: ServiceStats::default(),
            epoch: 0,
            streams,
        }
    }

    /// Number of peers (= shards).
    pub fn shard_count(&self) -> usize {
        self.peers.len()
    }

    /// Read access to the peers, in shard order.
    pub fn peers(&self) -> &[ShardPeer<T, E>] {
        &self.peers
    }

    /// The endpoint→shard mapping currently routing `FlowletStart`s.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// The peer an active flowlet is registered with.
    pub fn shard_for_token(&self, token: Token) -> Option<usize> {
        self.route.get(&token).map(|&s| s as usize)
    }

    /// One lockstep tick of the whole cluster: every peer ticks and
    /// broadcasts, then every peer runs its exchange barrier and
    /// installs, then the per-peer update streams are k-way merged into
    /// one token-ordered stream (same merge as the in-process service).
    ///
    /// # Errors
    /// The first [`PeerError`] encountered; the tick's update stream is
    /// dropped.
    pub fn try_tick(&mut self) -> Result<Vec<(u16, Message)>, PeerError> {
        // flowtune-lint: allow(hot-path-alloc, "owned-stream convenience entry; steady-state drivers use try_tick_into")
        let mut out = Vec::new();
        self.try_tick_into(&mut out)?;
        Ok(out)
    }

    /// [`PeerCluster::try_tick`] into a caller-owned buffer: `out` is
    /// cleared and receives the merged update stream. In the converged
    /// steady state (no updates) this allocates nothing.
    ///
    /// # Errors
    /// The first [`PeerError`] encountered; the tick's update stream is
    /// dropped.
    pub fn try_tick_into(&mut self, out: &mut Vec<(u16, Message)>) -> Result<(), PeerError> {
        out.clear();
        for (peer, stream) in self.peers.iter_mut().zip(self.streams.iter_mut()) {
            peer.tick_export(stream)?;
        }
        for peer in &mut self.peers {
            peer.exchange_finish()?;
        }
        merge_by_token_into(&mut self.streams, out);
        Ok(())
    }

    /// Installs a new [`Placement`] — a distributed **re-placement
    /// epoch**. Each peer extracts the flows the new placement takes
    /// from it (ascending token order) and broadcasts them in an epoch
    /// frame; every peer gathers the frames, adopts the migrations
    /// addressed to it (ascending token order), and marks its exchange
    /// for a catch-up resync. Functionally equivalent to the
    /// in-process `ShardedService::replace` — migrated flows re-enter
    /// at the initial rate and re-converge under their new shard's
    /// prices — though not bit-for-bit (extraction interleaves per
    /// peer, not in one global token order). Returns the number of
    /// flows migrated.
    ///
    /// # Errors
    /// A [`PeerError`]; an epoch is a barrier, so a missing peer frame
    /// is an error, not a late round.
    ///
    /// # Panics
    /// Panics if the placement's shape does not match this cluster.
    pub fn replace(&mut self, placement: Placement) -> Result<usize, PeerError> {
        assert_eq!(
            placement.servers(),
            self.placement.servers(),
            "replacement must cover the same server space"
        );
        assert_eq!(
            placement.shard_count(),
            self.peers.len(),
            "replacement must map onto the same peer count"
        );
        self.epoch += 1;
        // flowtune-lint: allow(float-determinism, "snapshot is sorted by token before any flow moves")
        let mut tokens: Vec<(Token, u32)> = self.route.iter().map(|(&t, &s)| (t, s)).collect();
        tokens.sort_unstable_by_key(|&(t, _)| t);
        let mut leavers: Vec<Vec<(FlowMigration, u16)>> = vec![Vec::new(); self.peers.len()];
        let mut moved = 0;
        for (token, old) in tokens {
            let src = self.peers[old as usize]
                .service()
                .flow_source(token)
                .expect("routed token must be registered with its peer");
            let new = placement.shard_of(src) as u32;
            if new == old {
                continue;
            }
            let migration = self.peers[old as usize]
                .service_mut()
                .extract_flow(token)
                .expect("routed token must be extractable");
            leavers[old as usize].push((migration, new as u16));
            self.route.insert(token, new);
            moved += 1;
        }
        let epoch = self.epoch;
        for (peer, leaving) in self.peers.iter_mut().zip(&leavers) {
            peer.broadcast_epoch(epoch, leaving)?;
        }
        let mut adopt = Vec::new();
        for peer in &mut self.peers {
            adopt.clear();
            peer.gather_epoch(&mut adopt)?;
            adopt.sort_unstable_by_key(|m| m.token);
            for m in adopt.drain(..) {
                peer.service_mut()
                    .adopt_flow(m)
                    .expect("tokens are unique across peers");
            }
        }
        self.placement = placement;
        Ok(moved)
    }

    /// The peers' on-wire transport counters: totals summed, plus the
    /// cluster-level staleness view — one [`PeerLag`] per shard, with
    /// `rounds_behind`/`last_fresh_round` the worst any other peer
    /// observed of it and the receive counters summed across observers.
    pub fn wire_stats(&self) -> WireStats {
        let mut total = WireStats::default();
        let mut lags: Vec<PeerLag> = (0..self.peers.len() as u16)
            .map(|peer| PeerLag {
                peer,
                ..PeerLag::default()
            })
            .collect();
        for peer in &self.peers {
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

impl<T: Transport, E: RateAllocator> TickDriver for PeerCluster<T, E> {
    fn on_message(&mut self, msg: Message) -> Result<(), ServiceError> {
        match msg {
            Message::FlowletStart { token, src, .. } => {
                if self.route.contains_key(&token) {
                    // Cross-shard duplicate detection lives here — the
                    // original may be registered with a different peer
                    // than the one `src` routes to.
                    self.local.bytes_in += msg.encoded_len() as u64;
                    self.local.rejected += 1;
                    return Err(ServiceError::DuplicateToken(token));
                }
                let shard = self.placement.shard_of(src);
                self.peers[shard].on_message(msg)?;
                self.route.insert(token, shard as u32);
                Ok(())
            }
            Message::FlowletEnd { token } => match self.route.remove(&token) {
                Some(shard) => self.peers[shard as usize].on_message(msg),
                None => {
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

    /// # Panics
    /// Panics on a peer failure; use [`PeerCluster::try_tick_into`] for
    /// an error instead.
    fn tick_into(&mut self, out: &mut Vec<(u16, Message)>) {
        if let Err(e) = self.try_tick_into(out) {
            panic!("cluster peer failed: {e}");
        }
    }

    fn flow_rate_gbps(&self, token: Token) -> Option<f64> {
        let &shard = self.route.get(&token)?;
        self.peers[shard as usize].service().flow_rate_gbps(token)
    }

    fn active_flows(&self) -> usize {
        self.route.len()
    }

    fn stats(&self) -> ServiceStats {
        let mut total = self.local;
        // Exchange rounds are a cluster-wide event every peer counts
        // once; the in-process service counts them once in total, so
        // aggregate as the max, while logical bytes — each peer's own
        // out + in share — sum, exactly as the in-process install loop
        // sums them.
        let mut rounds = 0;
        for peer in &self.peers {
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
            } = peer.stats();
            total.starts += starts;
            total.ends += ends;
            total.updates_sent += updates_sent;
            total.updates_suppressed += updates_suppressed;
            total.bytes_in += bytes_in;
            total.bytes_out += bytes_out;
            total.iterations += iterations;
            total.rejected += rejected;
            total.exchange_bytes += exchange_bytes;
            total.exchange_decode_errors += exchange_decode_errors;
            total.dirty_flows += dirty_flows;
            total.dirty_links += dirty_links;
            rounds = rounds.max(exchange_rounds);
        }
        total.exchange_rounds += rounds;
        total
    }

    fn link_loads(&self) -> Vec<f64> {
        let exports: Vec<Vec<f64>> = self
            .peers
            .iter()
            .map(|p| p.service().link_loads())
            .collect();
        let n_links = exports.iter().map(Vec::len).max().unwrap_or(0);
        let mut total = vec![0.0; n_links];
        for export in exports.iter().filter(|e| !e.is_empty()) {
            debug_assert_eq!(export.len(), n_links, "short peer export");
            for (acc, x) in total.iter_mut().zip(export) {
                *acc += x;
            }
        }
        total
    }

    fn fabric(&self) -> &TwoTierClos {
        self.peers[0].service().fabric()
    }

    fn engine_name(&self) -> &'static str {
        "peer-cluster"
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use flowtune::{AllocatorService, ExchangeConfig, FlowtuneConfig, ShardedService};
    use flowtune_topo::{ClosConfig, TwoTierClos};

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
    fn routing_layer_counts_duplicates_and_strays_like_in_process() {
        let f = fabric();
        let mut c = cluster(&f, FlowtuneConfig::default(), 2);
        c.on_message(start(7, 0, 12)).unwrap();
        let err = c.on_message(start(7, 12, 0)).unwrap_err();
        assert_eq!(err, ServiceError::DuplicateToken(Token::new(7)));
        assert_eq!(
            c.on_message(Message::RateUpdate {
                token: Token::new(5),
                rate: flowtune_proto::Rate16::encode(1.0),
            }),
            Err(ServiceError::UnexpectedRateUpdate)
        );
        c.on_message(Message::FlowletEnd {
            token: Token::new(99),
        })
        .unwrap();
        let st = c.stats();
        assert_eq!(st.rejected, 2);
        assert_eq!(st.starts, 1);
        assert_eq!(st.ends, 0);
        assert_eq!(c.active_flows(), 1);
    }

    #[test]
    fn replace_migrates_flows_over_epoch_frames() {
        let f = fabric();
        let cfg = FlowtuneConfig {
            exchange_every: 1,
            ..FlowtuneConfig::default()
        };
        let mut c = cluster(&f, cfg, 2);
        c.on_message(start(1, 0, 12)).unwrap(); // shard 0
        c.on_message(start(2, 8, 4)).unwrap(); // shard 1
        for _ in 0..50 {
            c.tick();
        }
        // Swap the shards' ranges: both flows migrate, over the wire.
        let mut m = flowtune::placement::TrafficMatrix::new(2);
        m.add(1, 1, 100.0);
        m.add(0, 0, 1.0);
        let reversed = Placement::traffic(16, 8, 2, &m, false);
        let moved = c.replace(reversed).unwrap();
        assert_eq!(moved, 2);
        assert_eq!(c.shard_for_token(Token::new(1)), Some(1));
        assert_eq!(c.shard_for_token(Token::new(2)), Some(0));
        assert_eq!(c.active_flows(), 2);
        // The cluster keeps operating and both flows re-converge.
        for _ in 0..200 {
            c.tick();
        }
        for t in [1u32, 2] {
            let rate = c.flow_rate_gbps(Token::new(t)).unwrap();
            assert!((rate - 39.6).abs() < 0.2, "token {t}: {rate}");
        }
        // New starts route by the new placement.
        c.on_message(start(3, 0, 12)).unwrap();
        assert_eq!(c.shard_for_token(Token::new(3)), Some(1));
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

//! The routing layer of a partitioned control plane, written once.
//!
//! Flowtune's allocator is one logical box (Fig. 1); how many shards sit
//! behind it, and whether they share a process, must be invisible to the
//! endpoints. [`Router`] is the part of a partitioned allocator that makes
//! it so, and it does not care where the shards live:
//!
//! * **intake** — every `FlowletStart` goes to the shard that owns its
//!   **source endpoint**, as decided by a [`Placement`]; token-addressed
//!   messages (`FlowletEnd`) follow a token→shard table. Duplicate
//!   tokens, unknown ends and stray rate updates are disposed of — and
//!   counted — here, so the aggregate [`ServiceStats`] equal an unsharded
//!   service's byte for byte;
//! * **the tick** — the shards tick (however their [`ShardSet`] runs
//!   them) into per-shard stream scratch the router owns, and
//!   [`merge_by_token_into`] folds the token-ordered, token-disjoint
//!   streams into the one stream an unsharded service would emit;
//! * **aggregation** — rates, flow counts, counters, phase timings and
//!   link loads summed over the shards.
//!
//! The [`Placement`] is fixed when the router is built: a flowlet stays in
//! the shard its source endpoint routed it to until it ends.
//!
//! What differs between planes is the [`ShardSet`]: how a round's work
//! and link state move between the shards. Two exist —
//! [`InProcess`](crate::sharded::InProcess) (a worker-pool fan-out over
//! one shared link-state table; [`ShardedService`](crate::ShardedService)
//! is the router over it) and `flowtune-net`'s peers (split-phase ticks
//! over a transport; `PeerCluster` holds the router over them). The
//! router is generic over the set, so the calls into the set are
//! statically dispatched either way; each shard's service reaches its
//! engine through the same boxed trait object on both.

use std::collections::HashMap;
use std::time::Duration;

use flowtune_proto::{Message, Token};
use flowtune_topo::TwoTierClos;

use crate::driver::{PhaseTimings, TickDriver};
use crate::placement::Placement;
use crate::service::{AllocatorService, ServiceError, ServiceStats};

/// The shards behind a [`Router`], and how one tick moves through them
/// (see the module docs). Shard `i` of the set is shard `i` of the
/// router's [`Placement`].
pub trait ShardSet: std::fmt::Debug + Send {
    /// What a failed tick reports.
    type Error: std::fmt::Display;
    /// The [`TickDriver::engine_name`] of a router over this set.
    const NAME: &'static str;

    /// Number of shards (≥ 1).
    fn shard_count(&self) -> usize;

    /// Shard `shard`'s service.
    fn service(&self, shard: usize) -> &AllocatorService;

    /// Shard `shard`'s service, for intake.
    fn service_mut(&mut self, shard: usize) -> &mut AllocatorService;

    /// One tick of every shard, and — when the cadence is due — the
    /// link-state exchange between them: shard `i`'s token-ordered update
    /// stream replaces the contents of `streams[i]`.
    ///
    /// # Errors
    /// The set's error; the streams are then unspecified and the router
    /// drops the tick's output.
    fn tick(&mut self, streams: &mut [Vec<(u16, Message)>]) -> Result<(), Self::Error>;

    /// The set's exchange counters — `exchange_rounds`, `exchange_bytes`
    /// and `exchange_decode_errors`, every other field zero — which the
    /// router adds to the shards' own.
    fn exchange_stats(&self) -> ServiceStats;

    /// Cumulative wall time the set spent exchanging link state.
    fn exchange_time(&self) -> Duration;

    /// The [`ServiceError`] [`TickDriver::try_tick_into`] returns for a
    /// failed tick, if the failure was contained behind an isolation
    /// boundary; `None` (the default) makes it a panic, as in
    /// [`TickDriver::tick_into`].
    fn contained(_err: &Self::Error) -> Option<ServiceError> {
        None
    }
}

/// N shards behind one [`TickDriver`] face (see the module docs).
#[derive(Debug)]
pub struct Router<S: ShardSet> {
    shards: S,
    /// token → shard, for `FlowletEnd` routing and rate queries.
    route: HashMap<Token, u32>,
    /// The endpoint→shard mapping `FlowletStart`s route by.
    placement: Placement,
    /// Counters for the messages the router disposed of itself
    /// (duplicates, unknown ends, stray rate updates).
    local: ServiceStats,
    /// The merge's inputs, one per shard, reused across ticks so a quiet
    /// tick allocates nothing.
    streams: Vec<Vec<(u16, Message)>>,
}

impl<S: ShardSet> Router<S> {
    /// Routes over `shards` by `placement`.
    ///
    /// # Panics
    /// Panics if `shards` is empty, the shards disagree on the fabric or
    /// the configuration, or the placement's shape (server count, shard
    /// count) does not match.
    pub fn over(shards: S, placement: Placement) -> Self {
        let n = shards.shard_count();
        assert!(n > 0, "a router needs at least one shard");
        let first = shards.service(0);
        let (clos, cfg) = (first.fabric().config(), first.config());
        let services = || (0..n).map(|i| shards.service(i));
        assert!(
            services().all(|s| s.fabric().config() == clos),
            "all shards must serve the same fabric"
        );
        assert!(
            services().all(|s| s.config() == cfg),
            "all shards must run under one configuration"
        );
        assert_eq!(
            placement.servers(),
            clos.server_count(),
            "placement must cover exactly the fabric's servers"
        );
        assert_eq!(
            placement.shard_count(),
            n,
            "placement must map onto exactly the built shards"
        );
        Self {
            shards,
            route: HashMap::new(),
            placement,
            local: ServiceStats::default(),
            streams: (0..n).map(|_| Vec::new()).collect(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.shard_count()
    }

    /// The shard set behind this router.
    pub fn shard_set(&self) -> &S {
        &self.shards
    }

    /// Read access to the shards' services, in partition order.
    pub fn shards(&self) -> impl ExactSizeIterator<Item = &AllocatorService> {
        (0..self.shards.shard_count()).map(|i| self.shards.service(i))
    }

    /// The shard owning source endpoint `src`, per the router's
    /// [`Placement`] (under the default contiguous placement, shard =
    /// block when the shard count equals the fabric's block count).
    /// Out-of-range endpoints clamp to the last server's shard, whose
    /// service rejects them as [`ServiceError::MalformedStart`].
    pub fn shard_of(&self, src: u16) -> usize {
        self.placement.shard_of(src)
    }

    /// The endpoint→shard mapping routing `FlowletStart`s.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// The shard an active flowlet is registered in.
    pub fn shard_for_token(&self, token: Token) -> Option<usize> {
        self.route.get(&token).map(|&s| s as usize)
    }

    /// [`TickDriver::tick_into`] reporting a failed tick as the shard
    /// set's own error: `out` is cleared, every shard ticks, and the
    /// per-shard streams are merged into `out` as one token-ordered
    /// stream. With a warm `out` a tick that sends nothing allocates
    /// nothing.
    ///
    /// # Errors
    /// [`ShardSet::tick`]'s error; `out` is left empty — a merged stream
    /// would be missing the failed shard's updates.
    // flowtune-lint: hot
    pub fn tick_shards(&mut self, out: &mut Vec<(u16, Message)>) -> Result<(), S::Error> {
        out.clear();
        self.shards.tick(&mut self.streams)?;
        merge_by_token_into(&mut self.streams, out);
        Ok(())
    }
}

impl<S: ShardSet> TickDriver for Router<S> {
    /// Routes an endpoint notification to its shard; the behavior —
    /// including rejection counting — matches the unsharded service.
    fn on_message(&mut self, msg: Message) -> Result<(), ServiceError> {
        match msg {
            Message::FlowletStart { token, src, .. } => {
                if self.route.contains_key(&token) {
                    // Cross-shard duplicate detection must happen here: the
                    // original may live in a different shard than the one
                    // `src` routes to.
                    self.local.bytes_in += msg.encoded_len() as u64;
                    self.local.rejected += 1;
                    return Err(ServiceError::DuplicateToken(token));
                }
                let shard = self.placement.shard_of(src);
                self.shards.service_mut(shard).on_message(msg)?;
                self.route.insert(token, shard as u32);
                Ok(())
            }
            Message::FlowletEnd { token } => match self.route.remove(&token) {
                Some(shard) => self.shards.service_mut(shard as usize).on_message(msg),
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

    /// # Panics
    /// Propagates a failed tick as a panic on the caller; use
    /// [`TickDriver::try_tick_into`] or [`Router::tick_shards`] to get an
    /// error instead.
    // flowtune-lint: hot
    fn tick_into(&mut self, out: &mut Vec<(u16, Message)>) {
        if let Err(e) = self.try_tick_into(out) {
            panic!("{e}");
        }
    }

    /// # Panics
    /// Panics on a failure the shard set does not contain
    /// ([`ShardSet::contained`]).
    // flowtune-lint: hot
    fn try_tick_into(&mut self, out: &mut Vec<(u16, Message)>) -> Result<(), ServiceError> {
        self.tick_shards(out).map_err(|e| match S::contained(&e) {
            Some(contained) => contained,
            None => panic!("{} tick failed: {e}", S::NAME),
        })
    }

    fn flow_rate_gbps(&self, token: Token) -> Option<f64> {
        let &shard = self.route.get(&token)?;
        self.shards.service(shard as usize).flow_rate_gbps(token)
    }

    fn active_flows(&self) -> usize {
        self.route.len()
    }

    fn stats(&self) -> ServiceStats {
        let mut total = self.local;
        for s in self.shards() {
            total += s.stats();
        }
        total += self.shards.exchange_stats();
        total
    }

    /// The shards' allocate/export phases summed over shards, plus
    /// the shard set's exchange time. Where shards run concurrently the
    /// sum is CPU time, not wall time — still the right weight for "where
    /// do the cycles go" breakdowns.
    fn phase_timings(&self) -> PhaseTimings {
        let mut total = PhaseTimings {
            exchange: self.shards.exchange_time(),
            ..PhaseTimings::default()
        };
        for s in self.shards() {
            let t = s.phase_timings();
            total.allocate += t.allocate;
            total.export += t.export;
        }
        total
    }

    /// The element-wise sum of the shards' own loads (empty if no shard
    /// prices fabric links). Telemetry path — allocates.
    fn link_loads(&self) -> Vec<f64> {
        let (mut total, mut export) = (Vec::new(), Vec::new());
        for shard in self.shards() {
            shard.link_loads_into(&mut export);
            // A shard whose engine prices no links exports nothing.
            total.resize(total.len().max(export.len()), 0.0);
            for (acc, x) in total.iter_mut().zip(&export) {
                *acc += x;
            }
        }
        total
    }

    fn fabric(&self) -> &TwoTierClos {
        self.shards.service(0).fabric()
    }

    fn engine_name(&self) -> &'static str {
        S::NAME
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
/// index goes first.
///
/// Clears `out`, drains every stream in `streams` (their capacity
/// survives for reuse), and appends the merged order, reserving once.
/// Once `out` has grown to a tick's update volume the merge allocates
/// nothing, which is what lets [`Router::tick_shards`] run alloc-free
/// whether or not the tick emits updates.
// flowtune-lint: hot
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
}

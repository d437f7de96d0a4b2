//! The routing layer of a partitioned control plane, written once.
//!
//! Flowtune's allocator is one logical box (Fig. 1); how many shards sit
//! behind it, and whether they share a process, must be invisible to the
//! endpoints. [`Router`] is the part of a partitioned allocator that makes
//! it so, and it does not care where the shards live:
//!
//! * **intake** — every message goes to exactly one shard's service,
//!   which does all of its accounting. A `FlowletStart` goes to the shard
//!   that already holds its token (which refuses it as a duplicate), else
//!   to the shard that owns its **source endpoint**, as decided by a
//!   [`Placement`]; a `FlowletEnd` goes to the shard holding its token,
//!   else to shard 0, which ignores it; a stray `RateUpdate` goes to
//!   shard 0, which rejects it. The router keeps no index of its own —
//!   it asks the shards, whose token indexes it would only duplicate —
//!   and no counters, so the shards' summed [`ServiceStats`] equal an
//!   unsharded service's byte for byte;
//! * **the tick** — the shards tick (however their [`ShardSet`] runs
//!   them) and append their unordered passers to one [`Passers`] batch
//!   the router owns, which it orders once: token sets are disjoint
//!   across shards, so the order of the union is the one stream an
//!   unsharded service would emit;
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
//! statically dispatched either way, and so is every call a shard's
//! service makes into its grid.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use std::time::{Duration, Instant};

use flowtune_alloc::Certificate;
use flowtune_proto::{Message, Token};
use flowtune_topo::TwoTierClos;

use crate::driver::{PhaseTimings, TickDriver};
use crate::placement::Placement;
use crate::service::{AllocatorService, Passers, ServiceError, ServiceStats};

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
    /// link-state exchange between them: every shard's passers are
    /// appended, unordered, to `passers`.
    ///
    /// # Errors
    /// The set's error; `passers` is then unspecified and the router
    /// drops the tick's output.
    fn tick(&mut self, passers: &mut Passers) -> Result<(), Self::Error>;

    /// The set's exchange counters — `exchange_rounds`, `exchange_bytes`
    /// and `exchange_decode_errors`, every other field zero — which the
    /// router adds to the shards' own.
    fn exchange_stats(&self) -> ServiceStats;

    /// Cumulative wall time the set spent exchanging link state.
    fn exchange_time(&self) -> Duration;
}

/// N shards behind one [`TickDriver`] face (see the module docs).
#[derive(Debug)]
pub struct Router<S: ShardSet> {
    shards: S,
    /// The endpoint→shard mapping `FlowletStart`s route by.
    placement: Placement,
    /// The keyed hasher every shard's token index runs under, so that a
    /// token hashed once here probes them all.
    hasher: RandomState,
    /// Every shard's passers of the tick, ordered once into its stream;
    /// reused across ticks so a quiet tick allocates nothing.
    passers: Passers,
    /// Cumulative time spent ordering `passers` — export, which
    /// [`TickDriver::phase_timings`] adds to the shards' own.
    emit_time: Duration,
}

impl<S: ShardSet> Router<S> {
    /// Routes over `shards` by `placement`, re-keying every shard's token
    /// index under the router's one hasher.
    ///
    /// # Panics
    /// Panics if `shards` is empty, the shards disagree on the fabric or
    /// the configuration, or the placement's shape (server count, shard
    /// count) does not match.
    pub fn over(mut shards: S, placement: Placement) -> Self {
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
        let hasher = RandomState::new();
        for i in 0..n {
            shards.service_mut(i).share_hasher(&hasher);
        }
        Self {
            shards,
            placement,
            hasher,
            passers: Passers::default(),
            emit_time: Duration::ZERO,
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

    /// The plane's optimality certificate (see [`Certificate`]): every
    /// shard's flows and loads summed, each link priced at the largest of
    /// the shards' duals — `D(p)` itself once they agree. On demand, off
    /// the tick path.
    pub fn certificate(&self) -> Certificate {
        Certificate::over(self.shards().map(AllocatorService::grid))
    }

    /// The shard an active flowlet is registered in: the one whose
    /// service holds the token.
    pub fn shard_for_token(&self, token: Token) -> Option<usize> {
        let hash = self.hasher.hash_one(token.get());
        (0..self.shards.shard_count()).find(|&i| self.shards.service(i).holds(hash, token))
    }

    /// [`TickDriver::tick_into`] reporting a failed tick as the shard
    /// set's own error: `out` is cleared, every shard ticks into the
    /// router's one batch of passers, and the batch is written into
    /// `out` as one token-ordered stream. With a warm `out` a tick that
    /// sends nothing allocates nothing.
    ///
    /// # Errors
    /// [`ShardSet::tick`]'s error; `out` is left empty — the stream
    /// would be missing the failed shard's updates.
    // flowtune-lint: hot
    pub fn tick_shards(&mut self, out: &mut Vec<(u16, Message)>) -> Result<(), S::Error> {
        out.clear();
        self.passers.clear();
        self.shards.tick(&mut self.passers)?;
        let t0 = Instant::now();
        self.passers.emit(out);
        self.emit_time += t0.elapsed();
        Ok(())
    }
}

impl<S: ShardSet> TickDriver for Router<S> {
    /// Hands an endpoint notification to the one shard that answers it
    /// (see the module docs); the behavior — including rejection
    /// counting — matches the unsharded service.
    fn on_message(&mut self, msg: Message) -> Result<(), ServiceError> {
        let shard = match msg {
            // The holder refuses a live token, whatever shard `src` maps to.
            Message::FlowletStart { token, src, .. } => self
                .shard_for_token(token)
                .unwrap_or_else(|| self.placement.shard_of(src)),
            Message::FlowletEnd { token } => self.shard_for_token(token).unwrap_or(0),
            Message::RateUpdate { .. } => 0,
        };
        self.shards.service_mut(shard).on_message(msg)
    }

    /// # Panics
    /// Panics on a failed tick — only a wire's shard set fails one; use
    /// [`Router::tick_shards`] to get its error instead. A shard engine's
    /// panic reaches the caller as it is.
    // flowtune-lint: hot
    fn tick_into(&mut self, out: &mut Vec<(u16, Message)>) {
        if let Err(e) = self.tick_shards(out) {
            panic!("{} tick failed: {e}", S::NAME);
        }
    }

    fn flow_rate_gbps(&self, token: Token) -> Option<f64> {
        self.shards().find_map(|s| s.flow_rate_gbps(token))
    }

    fn active_flows(&self) -> usize {
        self.shards().map(AllocatorService::active_flows).sum()
    }

    fn stats(&self) -> ServiceStats {
        let mut total = self.shards.exchange_stats();
        for s in self.shards() {
            total += s.stats();
        }
        total
    }

    /// The shards' allocate/export phases summed over shards, plus
    /// the router's ordering of their passers (export) and the shard
    /// set's exchange time. Where shards run concurrently the sum is CPU
    /// time, not wall time — still the right weight for "where do the
    /// cycles go" breakdowns.
    fn phase_timings(&self) -> PhaseTimings {
        let mut total = PhaseTimings {
            export: self.emit_time,
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

    /// The element-wise sum of the shards' own loads. Telemetry path —
    /// allocates.
    fn link_loads(&self) -> Vec<f64> {
        let mut total = vec![0.0; self.fabric().topology().link_count()];
        let mut export = Vec::new();
        for shard in self.shards() {
            shard.link_loads_into(&mut export);
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
/// comparisons per element for `k` streams. Token sets are disjoint
/// across shards so ties cannot occur; if a caller violated that, the
/// lower stream index goes first.
///
/// Clears `out`, drains every stream in `streams` (their capacity
/// survives for reuse), and appends the merged order, reserving once.
///
/// No tick calls it: [`Router::tick_shards`] orders the union of the
/// shards' passers once instead ([`Passers::emit`]). It stays as the
/// reference that one emit is checked against (per-shard emit, then
/// this merge, must give the same stream) and as what flowbench's
/// `sharded.merge_us` probe times.
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

//! The endpoint (server) side of Flowtune.
//!
//! Each server runs an agent that (1) watches its per-flow send queues and
//! turns occupancy transitions into flowlet start/end notifications, and
//! (2) receives rate updates from the allocator and exposes the pacing
//! rate the transport must honour. §6.2: "Whenever a server receives a
//! rate update for a flow from the allocator, it opens the flow's TCP
//! window and paces packets on that flow according to the allocated rate."
//!
//! The agent's state is a slab and two thin indexes (ARCHITECTURE.md,
//! "The endpoint agent"): a rate update names a token the agent minted
//! itself, so finding its flow is a binary search over the live tokens,
//! not a keyed hash; only the transport's own flow ids, which are
//! foreign input, go through a keyed hash, into a slot table whose
//! buckets hold the slot and leave the id in its row.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

use flowtune_alloc::grow;
use flowtune_proto::{Message, Token};
use flowtune_topo::clos::splitmix64;

use crate::flowlet::{FlowletAction, FlowletState, FlowletTracker};
use crate::service::DEFAULT_WEIGHT;
use crate::slot_table::{Entry, SlotTable};
use crate::token::TokenAllocator;
use crate::FlowtuneConfig;

/// One slab row: a flow id the transport has named, with or without an
/// active flowlet. Rows are never removed — an ended flow keeps its last
/// rate (§2's "starting point") and its id is usually backlogged again.
#[derive(Debug)]
struct FlowState {
    flow: u64,
    tracker: FlowletTracker,
    /// Last allocated pacing rate, Gbit/s; `NaN` until the first update
    /// (no [`flowtune_proto::Rate16`] decodes to `NaN`).
    rate_gbps: f64,
    /// The active flowlet's raw token; [`NO_TOKEN`] exactly while the
    /// tracker is idle.
    token: u32,
    dst: u16,
    spine: u8,
    /// Whether this row's slot is in [`EndpointAgent::draining`].
    listed: bool,
}

/// A row's `token` when it has no active flowlet: outside the 24-bit
/// token space.
const NO_TOKEN: u32 = u32::MAX;

// Half a cache line a flow id: the tracker is one word and neither the
// token nor the rate pays for an `Option` tag.
const _: () = assert!(std::mem::size_of::<FlowState>() <= 32);

impl FlowState {
    fn token(&self) -> Option<Token> {
        (self.token != NO_TOKEN).then(|| Token::new(self.token))
    }

    fn rate_gbps(&self) -> Option<f64> {
        (!self.rate_gbps.is_nan()).then_some(self.rate_gbps)
    }
}

/// Per-server Flowtune agent (sans-IO: the caller moves the messages).
#[derive(Debug)]
pub struct EndpointAgent {
    server: u16,
    spines: usize,
    cfg: FlowtuneConfig,
    tokens: TokenAllocator,
    /// The slab; a slot is the order in which its flow id was first seen.
    flows: Vec<FlowState>,
    /// Flow id → slot: a [`SlotTable`] whose buckets hold only the slot
    /// (5 bytes a bucket, where std's map of id and slot paid 17); a probe
    /// compares the id with the row's `flow`. The ids are the caller's,
    /// so they are hashed under std's keyed `hasher`.
    by_flow: SlotTable,
    hasher: RandomState,
    /// The live tokens with their slots, ascending by token. Minting is
    /// monotone, so a start appends except after the counter wraps.
    by_token: Vec<(Token, u32)>,
    /// Slots whose queue drained and whose flowlet has not ended yet: all
    /// a poll can end. A slot is listed at most once (`FlowState::listed`);
    /// one that was backlogged again stays until the next poll drops it.
    draining: Vec<u32>,
    /// Where in `by_token` the last rate update hit. The allocator emits
    /// a server's updates in ascending token order, so the next one
    /// usually names the entry after it: one compare, not a search. Only
    /// a hint — the entry's token is compared, so a stale cursor costs
    /// the search and never names a wrong flow.
    cursor: usize,
}

impl EndpointAgent {
    /// Creates the agent for `server` in a cluster of `cluster_size`
    /// servers with the default config and 4 spines (the evaluation
    /// fabric).
    pub fn new(server: u16, cluster_size: usize) -> Self {
        Self::with_config(server, cluster_size, 4, FlowtuneConfig::default())
    }

    /// Full-control constructor.
    pub fn with_config(
        server: u16,
        cluster_size: usize,
        spines: usize,
        cfg: FlowtuneConfig,
    ) -> Self {
        assert!(spines > 0);
        Self {
            server,
            spines,
            cfg,
            tokens: TokenAllocator::new(server, cluster_size),
            flows: Vec::new(),
            by_flow: SlotTable::default(),
            hasher: RandomState::new(),
            by_token: Vec::new(),
            draining: Vec::new(),
            cursor: 0,
        }
    }

    /// The ECMP spine this agent's fabric hashes `flow` to — must agree
    /// with [`flowtune_topo::TwoTierClos::ecmp_spine`] so the allocator
    /// reconstructs the true data path.
    pub fn spine_for(&self, flow: u64, dst: u16) -> u8 {
        let h = splitmix64(
            splitmix64(flow ^ 0x9e37_79b9_7f4a_7c15) ^ ((self.server as u64) << 32) ^ dst as u64,
        );
        (h % self.spines as u64) as u8
    }

    /// Data was queued for `flow` (identified by a cluster-unique id)
    /// toward `dst`. Returns a `FlowletStart` to forward to the allocator
    /// if this backlog begins a new flowlet.
    pub fn on_backlog(&mut self, flow: u64, dst: u16, bytes: u64, now_ps: u64) -> Option<Message> {
        self.on_backlog_weighted(flow, dst, bytes, DEFAULT_WEIGHT, now_ps)
    }

    /// [`EndpointAgent::on_backlog`] with an explicit proportional-fairness
    /// weight, carried in Q8 fixed point (clamped to `1/256 ..= 65535/256`).
    ///
    /// The start carries a token no live flowlet of this server holds:
    /// the counter skips values still in use after it wraps. With every
    /// counter value in use ([`TokenAllocator::capacity`] concurrent
    /// flowlets) the start is refused — `None`, the flow stays idle and a
    /// later backlog tries again — rather than collide.
    ///
    /// # Panics
    /// Panics unless `weight` is positive and finite — the engines' own
    /// contract, which a `NaN` (sent as Q8 0, read back as weight 1) or
    /// a negative weight (clamped to 1/256) would otherwise dodge.
    pub fn on_backlog_weighted(
        &mut self,
        flow: u64,
        dst: u16,
        bytes: u64,
        weight: f64,
        now_ps: u64,
    ) -> Option<Message> {
        assert!(
            weight > 0.0 && weight.is_finite(),
            "weight must be > 0 and finite, got {weight}"
        );
        let spine = self.spine_for(flow, dst);
        let flows = &self.flows;
        let hash = self.hasher.hash_one(flow);
        let slot = match self
            .by_flow
            .entry(hash, |slot| flows[slot as usize].flow == flow)
        {
            Entry::Occupied(slot) => slot,
            Entry::Vacant(vacant) => {
                let slot = u32::try_from(self.flows.len()).expect("fewer than 2^32 flow ids");
                grow::reserve(&mut self.flows, 1);
                self.flows.push(FlowState {
                    flow,
                    tracker: FlowletTracker::new(),
                    rate_gbps: f64::NAN,
                    token: NO_TOKEN,
                    dst,
                    spine,
                    listed: false,
                });
                let (flows, hasher) = (&self.flows, &self.hasher);
                vacant.insert(slot, |slot| hasher.hash_one(flows[slot as usize].flow));
                slot
            }
        };
        let state = &mut self.flows[slot as usize];
        if !state.tracker.active() && self.by_token.len() >= self.tokens.capacity() as usize {
            return None;
        }
        match state.tracker.on_backlog(now_ps) {
            FlowletAction::Started => {
                // Terminates: fewer than `capacity` values are live.
                let (token, at) = loop {
                    let token = self.tokens.mint();
                    if let Err(at) = self.by_token.binary_search_by_key(&token, |e| e.0) {
                        break (token, at);
                    }
                };
                grow::reserve(&mut self.by_token, 1);
                self.by_token.insert(at, (token, slot));
                state.token = token.get();
                Some(Message::FlowletStart {
                    token,
                    src: self.server,
                    dst,
                    size_hint: bytes.min(u32::MAX as u64) as u32,
                    weight_q8: (weight * 256.0).round().clamp(1.0, u16::MAX as f64) as u16,
                    spine,
                })
            }
            _ => None,
        }
    }

    /// The send queue of `flow` drained at `now`.
    // flowtune-lint: hot
    pub fn on_drained(&mut self, flow: u64, now_ps: u64) {
        let Some(slot) = self.slot_of(flow) else {
            return;
        };
        let state = &mut self.flows[slot as usize];
        let _ = state.tracker.on_drained(now_ps);
        if !state.listed && is_draining(&state.tracker) {
            state.listed = true;
            self.draining.push(slot);
        }
    }

    /// Clock tick: returns `FlowletEnd` messages for flows whose queues
    /// stayed empty past the idle threshold, in the order they drained.
    /// Ended flows keep their last rate as the §2 "starting point" for a
    /// future flowlet or a TCP fallback.
    // flowtune-lint: hot
    pub fn poll(&mut self, now_ps: u64) -> Vec<Message> {
        // flowtune-lint: allow(hot-path-alloc, "the ends are returned by value; an empty Vec owns no heap, so a poll that ends nothing allocates nothing (crates/net/tests/zero_alloc.rs)")
        let mut out = Vec::new();
        let idle_ps = self.cfg.flowlet_idle_ps;
        let (flows, by_token) = (&mut self.flows, &mut self.by_token);
        self.draining.retain(|&slot| {
            let state = &mut flows[slot as usize];
            if state.tracker.poll(now_ps, idle_ps) == FlowletAction::Ended {
                if let Some(token) = state.token() {
                    state.token = NO_TOKEN;
                    if let Ok(at) = by_token.binary_search_by_key(&token, |e| e.0) {
                        by_token.remove(at);
                    }
                    out.push(Message::FlowletEnd { token });
                }
            }
            // Ended, or backlogged again since it drained: off the list.
            state.listed = is_draining(&state.tracker);
            state.listed
        });
        out
    }

    /// Earliest deadline at which [`EndpointAgent::poll`] could emit an
    /// end, for event-driven callers.
    pub fn next_deadline_ps(&self) -> Option<u64> {
        self.draining
            .iter()
            .filter_map(|&slot| {
                self.flows[slot as usize]
                    .tracker
                    .end_deadline_ps(self.cfg.flowlet_idle_ps)
            })
            .min()
    }

    /// Handles a rate update from the allocator; returns the flow it
    /// applied to and the new pacing rate (Gbit/s). A token that is not
    /// live here — ended, another server's, forged — returns `None`.
    // flowtune-lint: hot
    pub fn on_rate_update(&mut self, msg: &Message) -> Option<(u64, f64)> {
        let Message::RateUpdate { token, rate } = msg else {
            return None;
        };
        let next = self.cursor.wrapping_add(1);
        let at = if self.by_token.get(next).is_some_and(|e| e.0 == *token) {
            next
        } else {
            self.by_token.binary_search_by_key(token, |e| e.0).ok()?
        };
        self.cursor = at;
        let state = &mut self.flows[self.by_token[at].1 as usize];
        let gbps = rate.decode();
        state.rate_gbps = gbps;
        Some((state.flow, gbps))
    }

    /// The slot of a flow id the transport has named.
    // flowtune-lint: hot
    fn slot_of(&self, flow: u64) -> Option<u32> {
        let flows = &self.flows;
        self.by_flow.get(self.hasher.hash_one(flow), |slot| {
            flows[slot as usize].flow == flow
        })
    }

    fn state(&self, flow: u64) -> Option<&FlowState> {
        self.slot_of(flow).map(|slot| &self.flows[slot as usize])
    }

    /// The current pacing rate of a flow (Gbit/s), if the allocator has
    /// assigned one.
    pub fn pacing_rate_gbps(&self, flow: u64) -> Option<f64> {
        self.state(flow)?.rate_gbps()
    }

    /// Whether `flow` currently has an active (notified) flowlet.
    pub fn flowlet_active(&self, flow: u64) -> bool {
        self.state(flow).is_some_and(|s| s.token != NO_TOKEN)
    }

    /// The active flowlet's token, if any.
    pub fn token_of(&self, flow: u64) -> Option<Token> {
        self.state(flow).and_then(FlowState::token)
    }

    /// The destination this flow was registered toward.
    pub fn dst_of(&self, flow: u64) -> Option<u16> {
        self.state(flow).map(|s| s.dst)
    }

    /// The spine carried in this flow's start notification.
    pub fn spine_of(&self, flow: u64) -> Option<u8> {
        self.state(flow).map(|s| s.spine)
    }
}

fn is_draining(tracker: &FlowletTracker) -> bool {
    matches!(tracker.state(), FlowletState::Draining { .. })
}

#[cfg(test)]
mod tests {
    use super::*;

    const US: u64 = 1_000_000;

    #[test]
    fn backlog_emits_start_once_per_flowlet() {
        let mut a = EndpointAgent::new(3, 144);
        let m1 = a.on_backlog(1, 100, 5000, 0);
        assert!(matches!(
            m1,
            Some(Message::FlowletStart {
                src: 3,
                dst: 100,
                ..
            })
        ));
        assert!(a.on_backlog(1, 100, 5000, 10).is_none(), "same flowlet");
        assert!(a.flowlet_active(1));
    }

    #[test]
    fn drain_then_poll_emits_end_with_matching_token() {
        let mut a = EndpointAgent::new(3, 144);
        let Some(Message::FlowletStart { token, .. }) = a.on_backlog(1, 100, 5000, 0) else {
            panic!("expected start");
        };
        a.on_drained(1, 10 * US);
        assert!(a.poll(10 * US + 1).is_empty(), "not idle long enough");
        let ends = a.poll(10 * US + 30 * US);
        assert_eq!(ends, vec![Message::FlowletEnd { token }]);
        assert!(!a.flowlet_active(1));
    }

    #[test]
    fn new_backlog_after_end_is_a_new_flowlet() {
        let mut a = EndpointAgent::new(3, 144);
        let Some(Message::FlowletStart { token: t1, .. }) = a.on_backlog(1, 100, 1000, 0) else {
            panic!()
        };
        a.on_drained(1, 0);
        a.poll(40 * US);
        let Some(Message::FlowletStart { token: t2, .. }) = a.on_backlog(1, 100, 1000, 80 * US)
        else {
            panic!("second flowlet should start")
        };
        assert_ne!(t1, t2, "fresh token per flowlet");
    }

    #[test]
    fn rate_update_applies_by_token() {
        let mut a = EndpointAgent::new(3, 144);
        let Some(Message::FlowletStart { token, .. }) = a.on_backlog(1, 100, 1000, 0) else {
            panic!()
        };
        assert_eq!(a.pacing_rate_gbps(1), None);
        let upd = Message::RateUpdate {
            token,
            rate: flowtune_proto::Rate16::encode(7.5),
        };
        let (flow, gbps) = a.on_rate_update(&upd).unwrap();
        assert_eq!(flow, 1);
        assert!((gbps - 7.5).abs() < 1e-2);
        assert!((a.pacing_rate_gbps(1).unwrap() - 7.5).abs() < 1e-2);
    }

    #[test]
    fn stale_rate_update_is_ignored() {
        let mut a = EndpointAgent::new(3, 144);
        let Some(Message::FlowletStart { token, .. }) = a.on_backlog(1, 100, 1000, 0) else {
            panic!()
        };
        a.on_drained(1, 0);
        a.poll(40 * US); // flowlet ends
        let upd = Message::RateUpdate {
            token,
            rate: flowtune_proto::Rate16::encode(7.5),
        };
        assert_eq!(a.on_rate_update(&upd), None);
    }

    #[test]
    fn rate_survives_flowlet_end_as_a_starting_point() {
        let mut a = EndpointAgent::new(3, 144);
        let Some(Message::FlowletStart { token, .. }) = a.on_backlog(1, 100, 1000, 0) else {
            panic!()
        };
        a.on_rate_update(&Message::RateUpdate {
            token,
            rate: flowtune_proto::Rate16::encode(2.0),
        });
        a.on_drained(1, 0);
        a.poll(40 * US);
        assert!(
            a.pacing_rate_gbps(1).is_some(),
            "kept as TCP starting point"
        );
    }

    #[test]
    fn start_is_refused_while_every_counter_value_is_live() {
        // 65 536 servers leave a token 8 counter bits.
        let mut a = EndpointAgent::with_config(9, 65_536, 4, FlowtuneConfig::default());
        let tokens: std::collections::HashSet<Token> = (0..256u64)
            .map(|flow| match a.on_backlog(flow, 1, 100, 0) {
                Some(Message::FlowletStart { token, .. }) => token,
                other => panic!("flow {flow}: {other:?}"),
            })
            .collect();
        assert_eq!(tokens.len(), 256);
        assert_eq!(a.on_backlog(256, 1, 100, 0), None, "no token left");
        assert!(!a.flowlet_active(256));

        let freed = a.token_of(7);
        a.on_drained(7, 0);
        assert_eq!(a.poll(40 * US).len(), 1);
        assert!(a.on_backlog(256, 1, 100, 40 * US).is_some(), "one is free");
        assert_eq!(a.token_of(256), freed);
    }

    #[test]
    fn a_flow_is_listed_as_draining_once() {
        let mut a = EndpointAgent::new(0, 16);
        a.on_backlog(1, 2, 100, 0);
        for round in 0..3 {
            a.on_drained(1, round * US);
            a.on_backlog(1, 2, 100, round * US);
        }
        a.on_drained(1, 5 * US);
        assert_eq!(a.draining, [0]);
        assert_eq!(a.next_deadline_ps(), Some(5 * US + 30 * US));
        // Backlogged again before the poll: the poll drops the entry.
        a.on_backlog(1, 2, 100, 6 * US);
        assert!(a.poll(100 * US).is_empty());
        assert!(a.draining.is_empty() && a.flowlet_active(1));
        a.on_drained(1, 100 * US);
        assert_eq!(a.poll(130 * US).len(), 1);
        assert!(a.draining.is_empty() && !a.flowlet_active(1));
    }

    #[test]
    #[should_panic(expected = "weight must be > 0 and finite, got NaN")]
    fn a_nan_weight_is_refused_not_sent_as_the_default() {
        EndpointAgent::new(3, 144).on_backlog_weighted(1, 100, 1000, f64::NAN, 0);
    }

    #[test]
    #[should_panic(expected = "weight must be > 0 and finite, got -2")]
    fn a_negative_weight_is_refused_not_clamped() {
        EndpointAgent::new(3, 144).on_backlog_weighted(1, 100, 1000, -2.0, 0);
    }

    #[test]
    fn the_slab_and_the_token_index_grow_by_a_quarter_not_double() {
        let mut a = EndpointAgent::new(0, 16);
        for n in 1..=20_000 {
            let flow = n as u64;
            assert!(a.on_backlog(flow, 1, 100, 0).is_some());
            let (flows, tokens) = (a.flows.capacity(), a.by_token.capacity());
            let bound = flowtune_alloc::grow::bound(n);
            assert!(
                flows <= bound && tokens <= bound,
                "{flows} / {tokens} slots for {n} flows"
            );
        }
    }

    #[test]
    fn spine_matches_fabric_hash() {
        use flowtune_topo::{ClosConfig, FlowId, TwoTierClos};
        let fabric = TwoTierClos::build(ClosConfig::paper_eval());
        let a = EndpointAgent::new(17, 144);
        for flow in 0..50u64 {
            assert_eq!(
                a.spine_for(flow, 99) as usize,
                fabric.ecmp_spine(17, 99, FlowId(flow)),
                "flow {flow}"
            );
        }
    }

    #[test]
    fn deadline_tracks_earliest_drain() {
        let mut a = EndpointAgent::new(0, 16);
        a.on_backlog(1, 2, 100, 0);
        a.on_backlog(2, 3, 100, 0);
        assert_eq!(a.next_deadline_ps(), None);
        a.on_drained(2, 5 * US);
        a.on_drained(1, 9 * US);
        assert_eq!(a.next_deadline_ps(), Some(5 * US + 30 * US));
    }
}

//! The endpoint (server) side of Flowtune.
//!
//! Each server runs an agent that (1) watches its per-flow send queues and
//! turns occupancy transitions into flowlet start/end notifications, and
//! (2) receives rate updates from the allocator and exposes the pacing
//! rate the transport must honour. §6.2: "Whenever a server receives a
//! rate update for a flow from the allocator, it opens the flow's TCP
//! window and paces packets on that flow according to the allocated rate."

use std::collections::HashMap;

use flowtune_proto::{Message, Token};
use flowtune_topo::clos::splitmix64;

use crate::flowlet::{FlowletAction, FlowletTracker};
use crate::service::DEFAULT_WEIGHT;
use crate::token::TokenAllocator;
use crate::FlowtuneConfig;

#[derive(Debug)]
struct FlowState {
    tracker: FlowletTracker,
    /// Token of the active flowlet, if any.
    token: Option<Token>,
    dst: u16,
    spine: u8,
    /// Last allocated pacing rate, Gbit/s; `None` until the first update.
    rate_gbps: Option<f64>,
}

/// Per-server Flowtune agent (sans-IO: the caller moves the messages).
#[derive(Debug)]
pub struct EndpointAgent {
    server: u16,
    spines: usize,
    cfg: FlowtuneConfig,
    tokens: TokenAllocator,
    flows: HashMap<u64, FlowState>,
    by_token: HashMap<Token, u64>,
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
            flows: HashMap::new(),
            by_token: HashMap::new(),
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
    /// weight.
    pub fn on_backlog_weighted(
        &mut self,
        flow: u64,
        dst: u16,
        bytes: u64,
        weight: f64,
        now_ps: u64,
    ) -> Option<Message> {
        let spine = self.spine_for(flow, dst);
        let state = self.flows.entry(flow).or_insert_with(|| FlowState {
            tracker: FlowletTracker::new(self.cfg.flowlet_idle_ps),
            token: None,
            dst,
            spine,
            rate_gbps: None,
        });
        match state.tracker.on_backlog(now_ps) {
            FlowletAction::Started => {
                let token = self.tokens.mint();
                state.token = Some(token);
                self.by_token.insert(token, flow);
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
    pub fn on_drained(&mut self, flow: u64, now_ps: u64) {
        if let Some(state) = self.flows.get_mut(&flow) {
            let _ = state.tracker.on_drained(now_ps);
        }
    }

    /// Clock tick: returns `FlowletEnd` messages for flows whose queues
    /// stayed empty past the idle threshold. Ended flows keep their last
    /// rate as the §2 "starting point" for a future flowlet or a TCP
    /// fallback.
    pub fn poll(&mut self, now_ps: u64) -> Vec<Message> {
        let mut out = Vec::new();
        for state in self.flows.values_mut() {
            if state.tracker.poll(now_ps) == FlowletAction::Ended {
                if let Some(token) = state.token.take() {
                    self.by_token.remove(&token);
                    out.push(Message::FlowletEnd { token });
                }
            }
        }
        out
    }

    /// Earliest deadline at which [`EndpointAgent::poll`] could emit an
    /// end, for event-driven callers.
    pub fn next_deadline_ps(&self) -> Option<u64> {
        self.flows
            .values()
            .filter_map(|s| s.tracker.end_deadline_ps())
            .min()
    }

    /// Handles a rate update from the allocator; returns the flow it
    /// applied to and the new pacing rate (Gbit/s).
    pub fn on_rate_update(&mut self, msg: &Message) -> Option<(u64, f64)> {
        let Message::RateUpdate { token, rate } = msg else {
            return None;
        };
        let flow = *self.by_token.get(token)?;
        let gbps = rate.decode();
        self.flows.get_mut(&flow)?.rate_gbps = Some(gbps);
        Some((flow, gbps))
    }

    /// The current pacing rate of a flow (Gbit/s), if the allocator has
    /// assigned one.
    pub fn pacing_rate_gbps(&self, flow: u64) -> Option<f64> {
        self.flows.get(&flow)?.rate_gbps
    }

    /// Whether `flow` currently has an active (notified) flowlet.
    pub fn flowlet_active(&self, flow: u64) -> bool {
        self.flows.get(&flow).is_some_and(|s| s.token.is_some())
    }

    /// The active flowlet's token, if any.
    pub fn token_of(&self, flow: u64) -> Option<Token> {
        self.flows.get(&flow).and_then(|s| s.token)
    }

    /// The destination this flow was registered toward.
    pub fn dst_of(&self, flow: u64) -> Option<u16> {
        self.flows.get(&flow).map(|s| s.dst)
    }

    /// The spine carried in this flow's start notification.
    pub fn spine_of(&self, flow: u64) -> Option<u8> {
        self.flows.get(&flow).map(|s| s.spine)
    }
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

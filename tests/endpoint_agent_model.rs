//! The slab endpoint agent against the design it replaced.
//!
//! `EndpointAgent` keeps its flows in a slab, finds a rate update's flow
//! through a sorted index of the live tokens and polls only the flows
//! that are draining. [`Model`] is the agent it replaced, kept here as
//! the reference: `flows: HashMap<u64, _>` walked whole by every poll,
//! `by_token: HashMap<Token, u64>` probed by every update. Random
//! transport events and rate updates — for live, ended, never-minted and
//! other-server tokens — must leave the two indistinguishable: the same
//! messages (a poll's ends compared as a set: the model's order is its
//! hasher's), the same return values, the same accessors and deadline
//! after every operation.
//!
//! Up to one point. The agents run at 65 536 servers, where a token
//! keeps 8 counter bits, and each case may begin 240–255 starts into the
//! counter's cycle, so it wraps within the random part. A wrap onto a
//! token whose flowlet has ended must still match; on a wrap onto a
//! *live* token the model is wrong — it hands the token out twice and
//! re-points it — and from there the test asserts what the agent does
//! instead: the start carries the next counter value no flowlet holds,
//! the flowlet that held the contested token keeps it, and every later
//! operation leaves the live tokens distinct and each resolving to its
//! own flow.

use std::collections::HashMap;

use flowtune::flowlet::FlowletAction;
use flowtune::{EndpointAgent, FlowletTracker, FlowtuneConfig, TokenAllocator};
use flowtune_proto::{Message, Rate16, Token};
use proptest::prelude::*;

const SERVER: u16 = 5;
const CLUSTER: usize = 65_536;
const SPINES: usize = 4;
const COUNTER_BITS: u32 = 8;
const IDLE_PS: u64 = 30_000_000;

/// Flow ids the random operations draw from; `FLOWS` itself is never
/// backlogged (the accessors' unknown-flow case).
const FLOWS: u64 = 8;
/// The flow the prologue cycles to advance the counter.
const SCRATCH_FLOW: u64 = 1000;

struct ModelFlow {
    tracker: FlowletTracker,
    token: Option<Token>,
    dst: u16,
    spine: u8,
    rate_gbps: Option<f64>,
}

/// The two-`HashMap` agent, reduced to what the comparison observes.
struct Model {
    tokens: TokenAllocator,
    flows: HashMap<u64, ModelFlow>,
    by_token: HashMap<Token, u64>,
    /// The flow whose live token the last start was handed as well.
    collided_with: Option<u64>,
}

impl Model {
    fn new() -> Self {
        Self {
            tokens: TokenAllocator::new(SERVER, CLUSTER),
            flows: HashMap::new(),
            by_token: HashMap::new(),
            collided_with: None,
        }
    }

    /// `spine` is the agent's ECMP hash, which the redesign left alone.
    fn on_backlog(
        &mut self,
        flow: u64,
        dst: u16,
        spine: u8,
        bytes: u64,
        weight: f64,
    ) -> Option<Message> {
        let state = self.flows.entry(flow).or_insert_with(|| ModelFlow {
            tracker: FlowletTracker::new(),
            token: None,
            dst,
            spine,
            rate_gbps: None,
        });
        if state.tracker.on_backlog(0) != FlowletAction::Started {
            return None;
        }
        let token = self.tokens.mint();
        state.token = Some(token);
        self.collided_with = self.by_token.insert(token, flow);
        Some(Message::FlowletStart {
            token,
            src: SERVER,
            dst,
            size_hint: bytes.min(u32::MAX as u64) as u32,
            weight_q8: (weight * 256.0).round().clamp(1.0, u16::MAX as f64) as u16,
            spine,
        })
    }

    fn on_drained(&mut self, flow: u64, now_ps: u64) {
        if let Some(state) = self.flows.get_mut(&flow) {
            let _ = state.tracker.on_drained(now_ps);
        }
    }

    fn poll(&mut self, now_ps: u64) -> Vec<Message> {
        let mut out = Vec::new();
        for state in self.flows.values_mut() {
            if state.tracker.poll(now_ps, IDLE_PS) == FlowletAction::Ended {
                if let Some(token) = state.token.take() {
                    self.by_token.remove(&token);
                    out.push(Message::FlowletEnd { token });
                }
            }
        }
        out
    }

    fn next_deadline_ps(&self) -> Option<u64> {
        self.flows
            .values()
            .filter_map(|s| s.tracker.end_deadline_ps(IDLE_PS))
            .min()
    }

    fn on_rate_update(&mut self, msg: &Message) -> Option<(u64, f64)> {
        let Message::RateUpdate { token, rate } = msg else {
            return None;
        };
        let flow = *self.by_token.get(token)?;
        let gbps = rate.decode();
        self.flows.get_mut(&flow)?.rate_gbps = Some(gbps);
        Some((flow, gbps))
    }
}

#[derive(Debug, Clone)]
enum Op {
    Backlog {
        flow: u64,
        dst: u16,
        bytes: u64,
        /// `None` is the unweighted entry point.
        weight: Option<f64>,
    },
    Drained(u64),
    /// Advance the clock by this many quarters of the idle threshold,
    /// then poll.
    Poll(u64),
    /// An update for the i-th token ever minted (live or ended).
    UpdateMinted(usize, u16),
    /// An update for a counter value of this server (mostly never
    /// minted or long ended) or of its neighbour's prefix.
    UpdateCounter {
        foreign: bool,
        counter: u32,
        bits: u16,
    },
    /// A message that is not a rate update.
    UpdateWrongKind(u32),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        8 => (0..FLOWS, 0u16..3, 0u64..3, 0usize..5).prop_map(|(flow, dst, size, w)| Op::Backlog {
            flow,
            dst: 100 + dst,
            bytes: [1, 1500, u64::MAX][size as usize],
            // 1e-3 and 1e9 clamp to the Q8 range's ends.
            weight: [None, Some(1e-3), Some(0.5), Some(2.5), Some(1e9)][w],
        }),
        // FLOWS, never backlogged, is a drain for an unknown flow.
        6 => (0..=FLOWS).prop_map(Op::Drained),
        4 => (0u64..10).prop_map(Op::Poll),
        3 => (any::<usize>(), any::<u16>()).prop_map(|(i, bits)| Op::UpdateMinted(i, bits)),
        2 => (any::<bool>(), 0u32..1 << COUNTER_BITS, any::<u16>())
            .prop_map(|(foreign, counter, bits)| Op::UpdateCounter { foreign, counter, bits }),
        1 => (0u32..1 << COUNTER_BITS).prop_map(Op::UpdateWrongKind),
    ]
}

fn token_at(server: u16, counter: u32) -> Token {
    Token::new(u32::from(server) << COUNTER_BITS | counter)
}

fn sorted(mut ends: Vec<Message>) -> Vec<Message> {
    ends.sort_unstable_by_key(|m| match m {
        Message::FlowletEnd { token } => *token,
        other => panic!("poll emitted {other:?}"),
    });
    ends
}

/// The agent under test beside its reference; `model` is dropped at the
/// first wrap onto a live token.
struct Pair {
    agent: EndpointAgent,
    model: Option<Model>,
    now_ps: u64,
    minted: Vec<Token>,
    flows: Vec<u64>,
}

impl Pair {
    fn new() -> Self {
        let mut flows: Vec<u64> = (0..=FLOWS).collect();
        flows.push(SCRATCH_FLOW);
        Self {
            agent: EndpointAgent::with_config(SERVER, CLUSTER, SPINES, FlowtuneConfig::default()),
            model: Some(Model::new()),
            now_ps: 0,
            minted: Vec::new(),
            flows,
        }
    }

    fn live_tokens(&self) -> Vec<(Token, u64)> {
        self.flows
            .iter()
            .filter_map(|&flow| Some((self.agent.token_of(flow)?, flow)))
            .collect()
    }

    fn backlog(&mut self, flow: u64, dst: u16, bytes: u64, weight: Option<f64>) {
        let live_before = self.live_tokens();
        let got = match weight {
            None => self.agent.on_backlog(flow, dst, bytes, self.now_ps),
            Some(w) => self
                .agent
                .on_backlog_weighted(flow, dst, bytes, w, self.now_ps),
        };
        if let Some(Message::FlowletStart { token, .. }) = got {
            self.minted.push(token);
        }
        let Some(model) = &mut self.model else {
            return;
        };
        let spine = self.agent.spine_for(flow, dst);
        let want = model.on_backlog(flow, dst, spine, bytes, weight.unwrap_or(1.0));
        let Some(victim) = model.collided_with else {
            prop_assert_eq!(got, want, "backlog of flow {}", flow);
            return;
        };
        // The model just handed out `contested` a second time. The agent
        // must have skipped it, and every live value after it.
        let Some(Message::FlowletStart {
            token: contested, ..
        }) = want
        else {
            unreachable!("a collision comes from a start");
        };
        let mut counter = contested.get() & ((1 << COUNTER_BITS) - 1);
        while live_before
            .iter()
            .any(|&(t, _)| t == token_at(SERVER, counter))
        {
            counter = (counter + 1) % (1 << COUNTER_BITS);
        }
        let Some(Message::FlowletStart { token, .. }) = got else {
            panic!(
                "flow {flow} was refused a start with {} flowlets live",
                live_before.len()
            );
        };
        prop_assert_eq!(
            token,
            token_at(SERVER, counter),
            "the next free counter value"
        );
        prop_assert_eq!(self.agent.token_of(victim), Some(contested));
        let update = Message::RateUpdate {
            token: contested,
            rate: Rate16::encode(1.0),
        };
        prop_assert_eq!(
            self.agent.on_rate_update(&update).map(|hit| hit.0),
            Some(victim)
        );
        self.model = None;
    }

    fn update(&mut self, msg: Message) {
        let got = self.agent.on_rate_update(&msg);
        if let Some(model) = &mut self.model {
            prop_assert_eq!(got, model.on_rate_update(&msg), "{:?}", msg);
        }
    }

    fn apply(&mut self, op: &Op) {
        match *op {
            Op::Backlog {
                flow,
                dst,
                bytes,
                weight,
            } => self.backlog(flow, dst, bytes, weight),
            Op::Drained(flow) => {
                self.agent.on_drained(flow, self.now_ps);
                if let Some(model) = &mut self.model {
                    model.on_drained(flow, self.now_ps);
                }
            }
            Op::Poll(quarters) => {
                self.now_ps += quarters * (IDLE_PS / 4);
                let got = sorted(self.agent.poll(self.now_ps));
                if let Some(model) = &mut self.model {
                    prop_assert_eq!(&got, &sorted(model.poll(self.now_ps)), "poll");
                }
            }
            Op::UpdateMinted(i, bits) => {
                if !self.minted.is_empty() {
                    self.update(Message::RateUpdate {
                        token: self.minted[i % self.minted.len()],
                        rate: Rate16::from_bits(bits),
                    });
                }
            }
            Op::UpdateCounter {
                foreign,
                counter,
                bits,
            } => self.update(Message::RateUpdate {
                token: token_at(SERVER + u16::from(foreign), counter),
                rate: Rate16::from_bits(bits),
            }),
            Op::UpdateWrongKind(counter) => self.update(Message::FlowletEnd {
                token: token_at(SERVER, counter),
            }),
        }
        self.check(op);
    }

    /// What must hold after every operation: against the model while
    /// there is one, and of the agent alone always.
    fn check(&self, op: &Op) {
        let a = &self.agent;
        if let Some(model) = &self.model {
            prop_assert_eq!(
                a.next_deadline_ps(),
                model.next_deadline_ps(),
                "after {:?}",
                op
            );
            for &flow in &self.flows {
                let m = model.flows.get(&flow);
                prop_assert_eq!(a.pacing_rate_gbps(flow), m.and_then(|s| s.rate_gbps));
                prop_assert_eq!(a.flowlet_active(flow), m.is_some_and(|s| s.token.is_some()));
                prop_assert_eq!(a.token_of(flow), m.and_then(|s| s.token), "after {:?}", op);
                prop_assert_eq!(a.dst_of(flow), m.map(|s| s.dst));
                prop_assert_eq!(a.spine_of(flow), m.map(|s| s.spine));
            }
        }
        let mut live = self.live_tokens();
        live.sort_unstable();
        prop_assert!(
            live.windows(2).all(|w| w[0].0 != w[1].0),
            "{:?} after {:?}",
            live,
            op
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn slab_agent_matches_the_two_map_agent(
        ahead in prop_oneof![Just(0u32), 240u32..256],
        ops in proptest::collection::vec(op(), 1..400),
    ) {
        let mut pair = Pair::new();
        // Flow 0 holds counter value 0; the scratch flow's cycles put the
        // counter `ahead` starts further on.
        pair.backlog(0, 100, 1 << 30, None);
        for _ in 0..ahead {
            pair.apply(&Op::Backlog { flow: SCRATCH_FLOW, dst: 101, bytes: 1, weight: None });
            pair.apply(&Op::Drained(SCRATCH_FLOW));
            pair.apply(&Op::Poll(4));
        }
        for op in &ops {
            pair.apply(op);
        }
        // Whatever happened, every live token still finds its own flow.
        for (token, flow) in pair.live_tokens() {
            let update = Message::RateUpdate { token, rate: Rate16::encode(2.0) };
            prop_assert_eq!(pair.agent.on_rate_update(&update).map(|hit| hit.0), Some(flow));
        }
    }
}

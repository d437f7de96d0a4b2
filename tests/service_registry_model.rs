//! The slab flow table against the design it replaced.
//!
//! `AllocatorService` keeps its flows in a slab indexed by the engine-side
//! `FlowId`, recycles slots (and therefore ids), leaves the §6.4 filter —
//! rule and memory — to the engine's drain, and sorts what the drain
//! lends. [`Model`] is the table it replaced, kept here as the reference:
//! a `BTreeMap<Token, _>` walked in token order each tick, never-reused
//! engine ids, a per-flow `flow_rate` probe and a separate
//! [`ThresholdFilter`] keyed by token. Random intake — duplicate starts,
//! unknown ends, and a token space small enough that tokens and slots
//! are reused constantly — must leave the two
//! indistinguishable over every engine a builder can build: the same
//! update stream every tick, the same `ServiceStats` after every
//! operation, the same rates at the end.

mod common;

use std::collections::BTreeMap;

use common::fabric;
use flowtune::{AllocatorService, Engine, FlowtuneConfig, ServiceError, ServiceStats};
use flowtune_alloc::{AllocConfig, SerialAllocator};
use flowtune_proto::{Message, Rate16, ThresholdFilter, Token};
use flowtune_topo::{FlowId, TwoTierClos};
use proptest::prelude::*;

/// The pre-slab service, reduced to what the comparison observes.
struct Model {
    fabric: TwoTierClos,
    engine: SerialAllocator,
    registry: BTreeMap<Token, (FlowId, Message)>,
    filter: ThresholdFilter,
    next_internal: u64,
    stats: ServiceStats,
}

impl Model {
    /// Hosts the engine `ServiceBuilder::build` would build for `engine`.
    fn new(fabric: &TwoTierClos, cfg: FlowtuneConfig, engine: &Engine) -> Self {
        let alloc_cfg = AllocConfig {
            f_norm: cfg.f_norm,
            capacity_fraction: cfg.capacity_fraction(),
            incremental: cfg.incremental,
            full_sweep_every: cfg.full_sweep_every,
            dirty_eps: cfg.dirty_eps,
        };
        let engine = match *engine {
            Engine::Serial => SerialAllocator::new(fabric, alloc_cfg),
            Engine::Gradient => SerialAllocator::gradient(fabric, alloc_cfg),
            Engine::Sharded { .. } => unreachable!("the model is one service"),
        };
        Self {
            fabric: fabric.clone(),
            engine,
            registry: BTreeMap::new(),
            filter: ThresholdFilter::new(cfg.update_threshold),
            next_internal: 0,
            stats: ServiceStats::default(),
        }
    }

    /// Seats `start` (a validated `FlowletStart`) under a fresh id.
    fn register(&mut self, start: Message) {
        let Message::FlowletStart {
            token,
            src,
            dst,
            weight_q8,
            spine,
            ..
        } = start
        else {
            unreachable!("only starts are registered");
        };
        let id = FlowId(self.next_internal);
        self.next_internal += 1;
        let weight = if weight_q8 == 0 {
            1.0
        } else {
            weight_q8 as f64 / 256.0
        };
        let path = self
            .fabric
            .path_via_spine(src as usize, dst as usize, spine as usize);
        self.engine
            .add_flow(id, src as usize, dst as usize, weight, &path);
        self.registry.insert(token, (id, start));
    }

    fn unregister(&mut self, token: Token) -> bool {
        let Some((id, _)) = self.registry.remove(&token) else {
            return false;
        };
        self.engine.remove_flow(id);
        self.filter.forget(token);
        true
    }

    fn on_message(&mut self, msg: Message) -> Result<(), ServiceError> {
        self.stats.bytes_in += msg.encoded_len() as u64;
        match msg {
            Message::FlowletStart { token, .. } => {
                if self.registry.contains_key(&token) {
                    self.stats.rejected += 1;
                    return Err(ServiceError::DuplicateToken(token));
                }
                self.register(msg);
                self.stats.starts += 1;
            }
            Message::FlowletEnd { token } => {
                if self.unregister(token) {
                    self.stats.ends += 1;
                }
            }
            Message::RateUpdate { .. } => unreachable!("not generated"),
        }
        Ok(())
    }

    fn tick(&mut self) -> Vec<(u16, Message)> {
        self.engine.iterate();
        self.stats.iterations += 1;
        if let Some((flows, links)) = self.engine.dirty_counters() {
            self.stats.dirty_flows = flows;
            self.stats.dirty_links = links;
        }
        let mut out = Vec::new();
        for (&token, (id, start)) in &self.registry {
            let Message::FlowletStart { src, .. } = *start else {
                unreachable!("registry holds starts");
            };
            let gbps = self.engine.flow_rate(*id).expect("registered").normalized;
            if self.filter.should_send(token, gbps) {
                let msg = Message::RateUpdate {
                    token,
                    rate: Rate16::encode(gbps),
                };
                self.stats.bytes_out += msg.encoded_len() as u64;
                self.stats.updates_sent += 1;
                out.push((src, msg));
            } else {
                self.stats.updates_suppressed += 1;
            }
        }
        out
    }

    fn flow_rate_bits(&self, token: Token) -> Option<u64> {
        let (id, _) = self.registry.get(&token)?;
        Some(self.engine.flow_rate(*id)?.normalized.to_bits())
    }
}

#[derive(Debug, Clone)]
enum Op {
    Start {
        token: u32,
        src: u16,
        hop: u16,
        weight_q8: u16,
        spine: u8,
    },
    End(u32),
    Tick,
}

/// Ten tokens for up to 160 operations: most starts after the first few
/// hit a live token (rejected) or a token whose flow ended (reused), most
/// ends hit a live flow, some hit nothing.
const TOKENS: u32 = 10;

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (0..TOKENS, 0u16..16, 1u16..16, 0u16..3, 0u8..4).prop_map(
            |(token, src, hop, w, spine)| Op::Start {
                token,
                src,
                hop,
                // 0 selects the configured default weight.
                weight_q8: [0, 256, 640][w as usize],
                spine,
            }
        ),
        3 => (0..TOKENS).prop_map(Op::End),
        4 => Just(Op::Tick),
    ]
}

fn check(engine: Engine, cfg: FlowtuneConfig, ops: &[Op]) {
    let fabric = fabric();
    let mut model = Model::new(&fabric, cfg, &engine);
    let mut svc = AllocatorService::builder()
        .fabric(&fabric)
        .config(cfg)
        .engine(engine)
        .build()
        .expect("unsharded engine over a fabric");
    let mut out = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        match *op {
            Op::Start {
                token,
                src,
                hop,
                weight_q8,
                spine,
            } => {
                let msg = Message::FlowletStart {
                    token: Token::new(token),
                    src,
                    dst: (src + hop) % 16,
                    size_hint: 1,
                    weight_q8,
                    spine,
                };
                prop_assert_eq!(svc.on_message(msg), model.on_message(msg), "op {}", i);
            }
            Op::End(token) => {
                let msg = Message::FlowletEnd {
                    token: Token::new(token),
                };
                prop_assert_eq!(svc.on_message(msg), model.on_message(msg), "op {}", i);
            }
            Op::Tick => {
                svc.tick_into(&mut out);
                prop_assert_eq!(&out, &model.tick(), "update stream, op {}", i);
            }
        }
        prop_assert_eq!(svc.stats(), model.stats, "stats after op {} ({:?})", i, op);
        prop_assert_eq!(svc.active_flows(), model.registry.len());
    }
    for token in (0..TOKENS).map(Token::new) {
        let rate = svc.flow_rate_gbps(token).map(f64::to_bits);
        prop_assert_eq!(rate, model.flow_rate_bits(token), "{:?}", token);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn slab_service_matches_the_token_walk(ops in proptest::collection::vec(op(), 1..160)) {
        // Each engine carries its own §6.4 memory; the model's is one
        // token-keyed filter whatever it hosts.
        for engine in [Engine::Serial, Engine::Gradient] {
            check(engine, FlowtuneConfig::default(), &ops);
        }
        // Incremental at eps 0: the engine filters only its changed
        // set, the model still walks everything.
        let incremental = FlowtuneConfig {
            incremental: true,
            full_sweep_every: 8,
            ..FlowtuneConfig::default()
        };
        check(Engine::Serial, incremental, &ops);
    }
}

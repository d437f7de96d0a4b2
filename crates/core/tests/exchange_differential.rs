//! The in-process exchange against the frame-connected one, over real
//! grids.
//!
//! `ShardedService` runs an exchange round over one shared link-state
//! table: every shard's filter writes its own row, the consensus is
//! computed once, nothing is serialized. A distributed cluster runs the
//! same round as N [`ExchangeCore`]s that each hold private copies of
//! every row and learn the others' through encoded frames. Both are
//! assembled from one filter and one statement of the install math, and
//! this test holds them to it. Each case builds both planes over the same
//! shards — NED and gradient grids mixed (a gradient grid exports no
//! Hessians), some shards left idle — and drives them with the same
//! seeded flowlet starts and ends, at a zero and a positive
//! `exchange_delta_eps`, with catch-up resyncs on the framed side. After
//! every round each shard must read the same link loads, Hessians and
//! prices bit for bit on both planes, the planes must emit the same
//! update stream, and the shared table must count exactly the rounds and
//! the bytes of the frames the framed side encodes (less the catch-up
//! records it alone sends), with no frame refused.

use std::collections::BTreeMap;

use flowtune::{
    merge_by_token_into, AllocatorService, Engine, ExchangeCore, FlowtuneConfig, ShardedService,
    TickDriver,
};
use flowtune_proto::exchange::{record_bytes, Record, RecordIter};
use flowtune_proto::{Message, Token};
use flowtune_topo::{ClosConfig, TwoTierClos};
use proptest::prelude::*;

const MAX_SHARDS: usize = 4;
/// Flowlet starts and ends drawn per round, at most.
const MAX_OPS: usize = 4;

/// Bytes of the catch-up records in `frame`: entries the framed side's
/// resyncs re-ship and the shared table has no copy of to heal.
fn catch_up_bytes(frame: &[u8]) -> usize {
    let (header, records) = RecordIter::new(frame).expect("a frame just encoded");
    let catch_ups = records.filter(|r| matches!(r, Ok(Record::CatchUp { .. })));
    catch_ups.count() * record_bytes(header.has_hessians)
}

fn service(fabric: &TwoTierClos, cfg: FlowtuneConfig, engine: &Engine) -> AllocatorService {
    AllocatorService::builder()
        .fabric(fabric)
        .config(cfg)
        .engine(engine.clone())
        .build()
        .expect("fabric was supplied")
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// A shard's link state as its service reports it, by global link:
/// loads, Hessians (empty on a gradient grid), prices.
fn link_state(svc: &AllocatorService) -> [Vec<u64>; 3] {
    let mut values = Vec::new();
    let mut read = |query: fn(&AllocatorService, &mut Vec<f64>)| {
        query(svc, &mut values);
        bits(&values)
    };
    [
        read(AllocatorService::link_loads_into),
        read(AllocatorService::link_hessians_into),
        read(AllocatorService::link_prices_into),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn shared_table_rounds_equal_frame_connected_rounds(
        shards in proptest::collection::vec(
            (prop_oneof![3 => Just(Engine::Serial), 2 => Just(Engine::Gradient)], 0u8..4),
            2..=MAX_SHARDS,
        ),
        positive_eps in any::<bool>(),
        exchange_every in 1u64..=2,
        rounds in proptest::collection::vec(
            (proptest::collection::vec((0u8..3, 0u16..16, 0u16..16), 0..=MAX_OPS), 0u8..6),
            6..20,
        ),
    ) {
        let n = shards.len();
        let fabric = TwoTierClos::build(ClosConfig::multicore(2, 2, 4));
        let spines = fabric.config().spines;
        let cfg = FlowtuneConfig {
            exchange_every,
            exchange_delta_eps: if positive_eps { 1e-3 } else { 0.0 },
            parallel_shards: false,
            ..FlowtuneConfig::default()
        };
        let engines: Vec<Engine> = shards.iter().map(|(engine, _)| engine.clone()).collect();
        // A quarter of the shards, by draw, own no flowlet all case long.
        let idle: Vec<bool> = shards.iter().map(|&(_, draw)| draw == 0).collect();

        // The shared-table plane.
        let mut sharded = ShardedService::from_shards(
            engines.iter().map(|e| service(&fabric, cfg, e)).collect(),
        );
        // The frame-connected plane: one core and one service per shard.
        let mut cores: Vec<ExchangeCore> = (0..n)
            .map(|i| ExchangeCore::new(i as u16, n, cfg.exchange_delta_eps))
            .collect();
        let mut svcs: Vec<AllocatorService> =
            engines.iter().map(|e| service(&fabric, cfg, e)).collect();

        // Live flowlets, token → owning shard.
        let mut live: BTreeMap<Token, usize> = BTreeMap::new();
        let mut next_token = 1u32;
        let mut updates = Vec::new();
        let mut streams = vec![Vec::new(); n];
        let mut framed_updates = Vec::new();
        let mut wire = Vec::new();
        let mut frame_ends = Vec::new();
        let (mut framed_rounds, mut framed_bytes, mut refused) = (0u64, 0u64, 0u64);
        for (tick, (ops, resync)) in (1u64..).zip(&rounds) {
            // Seeded churn, delivered to both planes: an end when the
            // draw says so and a flowlet lives, a start otherwise —
            // from a server of a shard that is not idle.
            for &(op, a, b) in ops {
                if op == 0 && !live.is_empty() {
                    let nth = usize::from(a) % live.len();
                    let (&token, &shard) = live.iter().nth(nth).expect("in range");
                    live.remove(&token);
                    let end = Message::FlowletEnd { token };
                    sharded.on_message(end).expect("an end is never refused");
                    svcs[shard].on_message(end).expect("an end is never refused");
                    continue;
                }
                let (src, dst) = (a, (a + 1 + b % 15) % 16);
                let shard = sharded.shard_of(src);
                if idle[shard] {
                    continue;
                }
                let token = Token::new(next_token);
                let start = Message::FlowletStart {
                    token,
                    src,
                    dst,
                    size_hint: 1,
                    weight_q8: 0,
                    spine: (next_token as usize % spines) as u8,
                };
                next_token += 1;
                sharded.on_message(start).expect("a fresh, well-formed start");
                svcs[shard].on_message(start).expect("a fresh, well-formed start");
                live.insert(token, shard);
            }

            sharded.tick_into(&mut updates);
            for (svc, stream) in svcs.iter_mut().zip(&mut streams) {
                svc.tick_into(stream);
            }
            merge_by_token_into(&mut streams, &mut framed_updates);
            prop_assert_eq!(&updates, &framed_updates, "tick {}: update streams", tick);

            if cfg.exchange_due(tick, n) {
                if *resync == 0 {
                    // The cluster re-ships unmoved entries as catch-up
                    // records; the shared table has no copies to heal.
                    // The catch-up may move no state and no count but
                    // its own bytes.
                    for core in &mut cores {
                        core.request_resync();
                    }
                }
                wire.clear();
                frame_ends.clear();
                let (mut round_bytes, mut catch_up) = (0, 0);
                for (core, svc) in cores.iter_mut().zip(&svcs) {
                    let start = wire.len();
                    round_bytes += core.begin_round_from(tick, svc, &mut wire);
                    frame_ends.push(wire.len());
                    catch_up += catch_up_bytes(&wire[start..]);
                }
                for (j, core) in cores.iter_mut().enumerate() {
                    let mut start = 0;
                    for (i, &end) in frame_ends.iter().enumerate() {
                        if i != j && core.apply_frame(&wire[start..end]).is_err() {
                            refused += 1;
                        }
                        start = end;
                    }
                }
                let mut counted = false;
                let mut start = 0;
                for ((core, svc), &end) in cores.iter_mut().zip(&mut svcs).zip(&frame_ends) {
                    if let Some(bytes) = core.install(svc) {
                        prop_assert_eq!(bytes, (end - start) as u64, "install charges its frame");
                        counted = true;
                    }
                    start = end;
                }
                if counted {
                    framed_rounds += 1;
                    framed_bytes += (round_bytes - catch_up) as u64;
                }
            }

            for (i, (shared, framed)) in sharded.shards().zip(&svcs).enumerate() {
                prop_assert_eq!(
                    link_state(shared),
                    link_state(framed),
                    "tick {}, shard {} ({:?}, idle {})", tick, i, engines[i], idle[i]
                );
            }
            let stats = sharded.stats();
            prop_assert_eq!(stats.exchange_rounds, framed_rounds, "tick {}", tick);
            prop_assert_eq!(stats.exchange_bytes, framed_bytes, "tick {}", tick);
            prop_assert_eq!(stats.exchange_decode_errors, 0);
            prop_assert_eq!(refused, 0, "tick {}: a frame just encoded was refused", tick);
        }
    }
}

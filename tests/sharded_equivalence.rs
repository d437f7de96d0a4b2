//! Sharded-vs-unsharded control-plane equivalence.
//!
//! The contract of `ShardedService` is that partitioning the endpoint
//! space is *transparent* to the endpoints:
//!
//! * at one shard the sharded service is the unsharded service —
//!   bit-for-bit: same update stream, same rates, same counters;
//! * with real partitioning (≥ 2 shards) a workload whose links each
//!   carry a single shard's flows allocates identically (within the
//!   update-threshold tolerance the figures use — in practice exactly),
//!   because every link price a flow sees is driven by the same loads;
//! * routing never misdirects: a flowlet lives in exactly the shard that
//!   owns its source endpoint (property-tested under random workloads).
//!
//! The replay/assert skeleton lives in `tests/common` (the differential
//! conformance harness); this file owns only what varies per pin.

mod common;

use common::{assert_bit_for_bit, fabric, start, Replay, StatsCheck};
use flowtune::{AllocatorService, Engine, FlowtuneConfig, ShardedService, TickDriver};
use flowtune_proto::{Message, Token};
use flowtune_topo::TwoTierClos;
use proptest::prelude::*;

/// A deterministic churny workload crossing both blocks: starts, some
/// rejected duplicates, an unknown end, real ends.
fn workload(fabric: &TwoTierClos) -> Vec<Message> {
    let mut msgs = Vec::new();
    for (t, src, dst) in [
        (1u32, 0u16, 9u16), // block 0 → 1
        (2, 8, 1),          // block 1 → 0
        (3, 0, 12),         // same src as 1: shares its uplink
        (4, 3, 2),          // same-block flow
        (5, 15, 6),
        (6, 4, 11),
    ] {
        msgs.push(start(fabric, t, src, dst));
    }
    msgs.push(start(fabric, 1, 7, 9)); // duplicate token: rejected
    msgs.push(Message::FlowletEnd {
        token: Token::new(99), // unknown: ignored
    });
    msgs.push(Message::FlowletEnd {
        token: Token::new(4),
    });
    msgs
}

#[test]
fn one_shard_is_bit_for_bit_the_unsharded_service() {
    let fabric = fabric();
    let cfg = FlowtuneConfig::default();
    // The original interleave as a replay schedule: five starts up
    // front, then the rest of the churn (duplicate, unknown end, real
    // end) dripped in every ten rounds across 300 rounds of ticking.
    let msgs = workload(&fabric);
    let mut rounds: Vec<Vec<Message>> = vec![Vec::new(); 300];
    rounds[0].extend_from_slice(&msgs[..5]);
    for (i, msg) in msgs[5..].iter().enumerate() {
        rounds[i * 10].push(*msg);
    }
    let replay = Replay { rounds };
    let mut plain = AllocatorService::new(&fabric, cfg);
    let mut sharded = ShardedService::new(&fabric, cfg, 1);
    assert_bit_for_bit(
        "one shard vs unsharded",
        &replay,
        &mut plain,
        &mut sharded,
        StatsCheck::Exact,
    );
    // The same under the gradient price rule, both built by name.
    let build = |engine: Engine| {
        AllocatorService::builder()
            .fabric(&fabric)
            .config(cfg)
            .engine(engine)
            .build_driver()
            .expect("a shardable engine over a set fabric")
    };
    assert_bit_for_bit(
        "one gradient shard vs unsharded gradient",
        &replay,
        &mut build(Engine::Gradient),
        &mut build(Engine::Gradient.sharded(1)),
        StatsCheck::Exact,
    );
}

#[test]
fn two_shards_match_unsharded_rates_on_a_cross_block_workload() {
    let fabric = fabric();
    let cfg = FlowtuneConfig::default();
    let mut plain = AllocatorService::new(&fabric, cfg);
    let mut sharded = ShardedService::new(&fabric, cfg, 2);
    assert_eq!(sharded.shard_count(), 2);

    // Every server sends two flows into the *opposite* block (distinct
    // receivers), so each source uplink carries two same-shard flows and
    // each receiver downlink carries flows of a single shard — the
    // partition the block structure is for.
    let mut token = 0u32;
    let mut tokens = Vec::new();
    for src in 0..16u16 {
        let base = if src < 8 { 8 } else { 0 };
        for k in 0..2u16 {
            let dst = base + ((src % 8) + 3 * k) % 8;
            token += 1;
            let msg = start(&fabric, token, src, dst);
            plain.on_message(msg).unwrap();
            sharded.on_message(msg).unwrap();
            tokens.push((Token::new(token), src));
        }
    }
    for _ in 0..400 {
        plain.tick();
        let updates = sharded.tick();
        // Merged stream stays token-ordered.
        let toks: Vec<u32> = updates
            .iter()
            .map(|(_, m)| match m {
                Message::RateUpdate { token, .. } => token.get(),
                other => panic!("tick emitted {other:?}"),
            })
            .collect();
        let mut sorted = toks.clone();
        sorted.sort_unstable();
        assert_eq!(toks, sorted, "merged updates out of token order");
    }
    // Acceptance: rates equal within the update-threshold tolerance.
    let tol = cfg.update_threshold;
    for (t, src) in tokens {
        let a = plain.flow_rate_gbps(t).unwrap();
        let b = sharded.flow_rate_gbps(t).unwrap();
        assert!(
            (a - b).abs() <= tol * a.max(1.0),
            "token {t:?} (src {src}): unsharded {a} vs sharded {b}"
        );
        // Feasibility: every flow gets a real share, nobody exceeds the
        // 40 G × 0.99 access line (exact shares depend on ECMP spine
        // contention, which proportional fairness rebalances per flow).
        assert!(b > 1.0 && b <= 39.6 * (1.0 + 1e-6), "token {t:?}: {b}");
    }
    // Endpoint-visible totals agree.
    assert_eq!(plain.active_flows(), sharded.active_flows());
    assert_eq!(plain.stats().starts, sharded.stats().starts);
}

#[test]
fn message_intake_stats_match_byte_for_byte_at_any_shard_count() {
    // The routing layer hands every message to one shard, which counts
    // it: a cross-shard duplicate to the shard holding its token, an
    // unknown `FlowletEnd` or a stray rate update to shard 0. Whichever
    // shard does the counting, the *aggregate* must equal the unsharded
    // service's counters byte for byte — in particular `bytes_in` for
    // unknown ends, which arrive and are ignored on both paths. No ticks here: this pins pure intake
    // accounting, independent of engine trajectories.
    let fabric = fabric();
    let mut msgs = workload(&fabric);
    msgs.push(Message::RateUpdate {
        token: Token::new(3),
        rate: flowtune_proto::Rate16::encode(2.0),
    }); // stray update: rejected by shard 0
    msgs.push(start(&fabric, 50, 9999, 1)); // malformed: clamped, then rejected
    msgs.push(Message::FlowletEnd {
        token: Token::new(50), // end of a rejected start: unknown
    });
    for shards in [1usize, 2, 3, 5] {
        let mut plain = AllocatorService::new(&fabric, FlowtuneConfig::default());
        let mut sharded = ShardedService::new(&fabric, FlowtuneConfig::default(), shards);
        for msg in &msgs {
            let a = plain.on_message(*msg);
            let b = sharded.on_message(*msg);
            assert_eq!(a, b, "{shards} shards: verdicts diverged on {msg:?}");
        }
        assert_eq!(
            plain.stats(),
            sharded.stats(),
            "{shards} shards: aggregate intake stats diverged"
        );
        assert_eq!(plain.active_flows(), sharded.active_flows());
    }
}

#[test]
fn parallel_tick_is_bit_for_bit_sequential() {
    // The concurrent two-phase tick must be *indistinguishable* from the
    // sequential fallback: same update stream every tick, same final
    // rates to the bit, same aggregate counters — across shard counts,
    // churn schedules, and with the exchange both off and on every tick.
    let fabric = fabric();
    for shards in [1usize, 2, 4] {
        for exchange_every in [0u64, 1] {
            for seed in [1u64, 7, 42] {
                let build = |parallel: bool| {
                    let cfg = FlowtuneConfig {
                        exchange_every,
                        parallel_shards: parallel,
                        ..FlowtuneConfig::default()
                    };
                    ShardedService::new(&fabric, cfg, shards)
                };
                let mut par = build(true);
                let mut seq = build(false);
                assert_eq!(par.parallel_shards(), shards > 1);
                assert!(!seq.parallel_shards());
                assert_bit_for_bit(
                    &format!("parallel vs sequential, {shards} shards, exchange {exchange_every}, seed {seed}"),
                    &Replay::churn(&fabric, seed, 90),
                    &mut seq,
                    &mut par,
                    StatsCheck::Exact,
                );
            }
        }
    }
}

#[test]
fn mem_wire_cluster_is_bit_for_bit_the_in_process_sharded_service() {
    // The distributed control plane's acceptance criterion: a cluster of
    // `ShardPeer`s speaking the serialized exchange format over the
    // in-memory transport is *indistinguishable* from the in-process
    // `ShardedService` — same update stream every tick, same final rates
    // to the bit, same aggregate counters — across shard counts, churn
    // schedules, and exchange cadences. Everything the wire adds
    // (framing, encode/decode, transport queues) must be behaviorally
    // invisible.
    use std::time::Duration;

    use flowtune::ExchangeConfig;
    use flowtune_net::{mem_mesh, PeerCluster, ShardPeer};

    let fabric = fabric();
    for shards in [1usize, 2, 4] {
        for exchange_every in [1u64, 3] {
            for seed in [1u64, 7, 42] {
                let cfg = FlowtuneConfig {
                    exchange_every,
                    ..FlowtuneConfig::default()
                };
                let exchange =
                    ExchangeConfig::from_flowtune(&cfg).round_timeout(Duration::from_secs(5));
                let mut svc = ShardedService::new(&fabric, cfg, shards);
                let peers: Vec<_> = mem_mesh(shards)
                    .into_iter()
                    .map(|t| {
                        ShardPeer::new(AllocatorService::new(&fabric, cfg), t, exchange)
                            .expect("mem transport splits infallibly")
                    })
                    .collect();
                let mut cluster = PeerCluster::from_peers(peers);

                assert_bit_for_bit(
                    &format!("mem cluster vs in-process, {shards} shards, exchange {exchange_every}, seed {seed}"),
                    &Replay::churn(&fabric, seed, 90),
                    &mut svc,
                    &mut cluster,
                    StatsCheck::Exact,
                );
                // Real frames moved through the transport whenever an
                // exchange could have happened.
                let wire = cluster.wire_stats();
                if shards > 1 {
                    assert!(wire.tx_bytes > 0, "no bytes on the mem wire");
                    assert_eq!(wire.tx_frames, wire.rx_frames);
                }
                assert_eq!(wire.late_rounds, 0);
            }
        }
    }

    // The two install paths the default NED grid (incremental, at wire
    // precision) leaves out: a first-order exchange (gradient grids ship
    // and receive no Hessians), and the full sweep, whose install marks
    // nothing.
    let full_sweep = FlowtuneConfig {
        incremental: false,
        ..FlowtuneConfig::default()
    };
    for (what, engine, cfg) in [
        ("gradient", Engine::Gradient, FlowtuneConfig::default()),
        ("full sweep", Engine::Serial, full_sweep),
    ] {
        let cfg = FlowtuneConfig {
            exchange_every: 1,
            ..cfg
        };
        let exchange = ExchangeConfig::from_flowtune(&cfg).round_timeout(Duration::from_secs(5));
        let build = || {
            let builder = AllocatorService::builder().fabric(&fabric).config(cfg);
            builder
                .engine(engine.clone())
                .build()
                .expect("fabric is set")
        };
        for shards in [2usize, 4] {
            for seed in [1u64, 7] {
                let mut svc = ShardedService::from_shards((0..shards).map(|_| build()).collect());
                let peers: Vec<_> = mem_mesh(shards)
                    .into_iter()
                    .map(|t| {
                        ShardPeer::new(build(), t, exchange)
                            .expect("mem transport splits infallibly")
                    })
                    .collect();
                let mut cluster = PeerCluster::from_peers(peers);
                assert_bit_for_bit(
                    &format!("mem cluster vs in-process, {what}, {shards} shards, seed {seed}"),
                    &Replay::churn(&fabric, seed, 90),
                    &mut svc,
                    &mut cluster,
                    StatsCheck::Exact,
                );
                let wire = cluster.wire_stats();
                assert!(wire.tx_bytes > 0, "no bytes on the mem wire");
                assert_eq!(wire.late_rounds, 0);
            }
        }
    }
}

#[test]
fn uds_wire_cluster_is_bit_for_bit_the_in_process_sharded_service() {
    // The same pin over a kernel transport: peers speaking the exchange
    // over Unix-domain sockets — real syscalls, real socket buffers,
    // each barrier reading a real wire without blocking — reproduce the
    // in-process ShardedService to the bit when every frame arrives on
    // time. (Smaller matrix than the mem pin: the property is transport
    // independence, the churn breadth is covered above.)
    use std::time::Duration;

    use flowtune::ExchangeConfig;
    use flowtune_net::{uds_mesh, PeerCluster, ShardPeer};

    let fabric = fabric();
    for shards in [2usize, 4] {
        for seed in [7u64, 42] {
            let cfg = FlowtuneConfig {
                exchange_every: 1,
                ..FlowtuneConfig::default()
            };
            let exchange =
                ExchangeConfig::from_flowtune(&cfg).round_timeout(Duration::from_secs(5));
            let mut svc = ShardedService::new(&fabric, cfg, shards);
            let dir = std::env::temp_dir().join(format!(
                "flowtune-equiv-uds-{}-{shards}-{seed}",
                std::process::id()
            ));
            std::fs::create_dir_all(&dir).expect("socket dir");
            let peers: Vec<_> = uds_mesh(&dir, shards as u16)
                .expect("uds mesh bootstrap")
                .into_iter()
                .map(|t| {
                    ShardPeer::new(AllocatorService::new(&fabric, cfg), t, exchange)
                        .expect("connected uds transport splits")
                })
                .collect();
            let mut cluster = PeerCluster::from_peers(peers);

            assert_bit_for_bit(
                &format!("uds cluster vs in-process, {shards} shards, seed {seed}"),
                &Replay::churn(&fabric, seed, 60),
                &mut svc,
                &mut cluster,
                StatsCheck::Exact,
            );
            let wire = cluster.wire_stats();
            assert!(wire.tx_bytes > 0, "no bytes on the uds wire");
            assert_eq!(wire.late_rounds, 0, "on-time frames must never be late");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // Shard routing never misdirects: an accepted flowlet is registered
    // in exactly the shard owning its source endpoint, updates come back
    // addressed to that source, and no other shard ever sees the token.
    #[test]
    fn shard_routing_never_misdirects(
        shards in 1usize..=5,
        flows in proptest::collection::vec((0u16..16, 0u16..16), 1..48),
    ) {
        let fabric = fabric();
        let mut svc = ShardedService::new(&fabric, FlowtuneConfig::default(), shards);
        let mut accepted = Vec::new();
        for (i, &(src, dst)) in flows.iter().enumerate() {
            let msg = start(&fabric, i as u32 + 1, src, dst);
            if svc.on_message(msg).is_ok() {
                accepted.push((Token::new(i as u32 + 1), src));
            }
        }
        for &(token, src) in &accepted {
            let owner = svc.shard_for_token(token);
            prop_assert_eq!(owner, Some(svc.shard_of(src)),
                "token {:?} from src {} landed in shard {:?}", token, src, owner);
            for (s, shard) in svc.shards().enumerate() {
                let here = shard.flow_rate_gbps(token).is_some();
                prop_assert_eq!(here, Some(s) == owner,
                    "token {:?} visible in shard {} but owned by {:?}", token, s, owner);
            }
        }
        // First tick reports every accepted flow back to its own source.
        let mut updated = std::collections::HashMap::new();
        for (src, msg) in svc.tick() {
            if let Message::RateUpdate { token, .. } = msg {
                updated.insert(token, src);
            }
        }
        for &(token, src) in &accepted {
            prop_assert_eq!(updated.get(&token), Some(&src));
        }
        prop_assert_eq!(svc.active_flows(), accepted.len());
    }
}

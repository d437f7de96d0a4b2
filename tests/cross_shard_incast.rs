//! Cross-shard incast: the workload sharding alone gets wrong, and the
//! inter-shard link-state exchange makes right.
//!
//! A many-to-one incast whose sources span both shards makes the
//! receiver's downlink a *shared* link: without the exchange each shard
//! prices it for its own flows alone and the merged allocation
//! over-subscribes it (~2× at two shards); with the exchange enabled
//! every shard prices the link for the true total and the sharded
//! service matches the unsharded one. Both behaviors are pinned here —
//! the first so the failure mode stays visible, the second as the
//! exchange's acceptance criterion.

use flowtune::{
    add_path_load, worst_oversubscription, AllocatorService, FlowtuneConfig, ShardedService,
    TickDriver,
};
use flowtune_proto::{Message, Token};
use flowtune_topo::{ClosConfig, TwoTierClos};

/// Two blocks of 2 racks × 4 servers: 16 servers, shard 0 = sources 0..8,
/// shard 1 = sources 8..16, 40 G links.
fn fabric() -> TwoTierClos {
    TwoTierClos::build(ClosConfig::multicore(2, 2, 4))
}

fn start(fabric: &TwoTierClos, token: u32, src: u16, dst: u16) -> Message {
    let spine = fabric.ecmp_spine(
        src as usize,
        dst as usize,
        flowtune_topo::FlowId(token as u64),
    );
    Message::FlowletStart {
        token: Token::new(token),
        src,
        dst,
        size_hint: 1_000_000,
        weight_q8: 256,
        spine: spine as u8,
    }
}

/// An incast flow set: one flow per source (fed to a service with
/// [`feed`], which addresses them all at the receiver). Returns
/// `(token, src)` pairs, token = 1-based index.
fn incast(sources: &[u16]) -> Vec<(Token, u16)> {
    sources
        .iter()
        .enumerate()
        .map(|(i, &src)| (Token::new(i as u32 + 1), src))
        .collect()
}

fn feed(svc: &mut dyn TickDriver, fabric: &TwoTierClos, flows: &[(Token, u16)], receiver: u16) {
    for &(token, src) in flows {
        svc.on_message(start(fabric, token.get(), src, receiver))
            .unwrap();
    }
}

/// Sum of the flows' *normalized* (endpoint-visible) rates per global
/// link — what the network would actually be asked to carry.
fn endpoint_link_loads(
    svc: &dyn TickDriver,
    fabric: &TwoTierClos,
    flows: &[(Token, u16)],
    receiver: u16,
) -> Vec<f64> {
    let mut loads = vec![0.0; fabric.topology().link_count()];
    for &(token, src) in flows {
        let rate = svc.flow_rate_gbps(token).unwrap();
        let flow = flowtune_topo::FlowId(token.get() as u64);
        let path = fabric.path(src as usize, receiver as usize, flow);
        add_path_load(&mut loads, &path, rate);
    }
    loads
}

const TICKS: usize = 400;

/// 4 sources per block, all sending to server 15 (shard 1): the
/// receiver's 40 G downlink carries both shards' flows.
const SOURCES: [u16; 8] = [0, 1, 2, 3, 8, 9, 10, 11];
const RECEIVER: u16 = 15;

#[test]
fn incast_without_exchange_oversubscribes_the_shared_downlink() {
    // Pins the bug the exchange exists to fix: with the exchange off
    // (the pre-exchange sharded behavior), each shard hands its four
    // flows nearly the whole downlink.
    let fabric = fabric();
    let mut svc = ShardedService::new(&fabric, FlowtuneConfig::default(), 2);
    let flows = incast(&SOURCES);
    feed(&mut svc, &fabric, &flows, RECEIVER);
    for _ in 0..TICKS {
        svc.tick();
    }
    let loads = endpoint_link_loads(&svc, &fabric, &flows, RECEIVER);
    let over = worst_oversubscription(&fabric, &loads);
    assert!(
        over > 0.5,
        "expected ≥1.5× over-subscription on the shared downlink, got {over}"
    );
    assert_eq!(svc.stats().exchange_rounds, 0);
}

#[test]
fn incast_with_exchange_matches_unsharded_and_respects_capacity() {
    // The tentpole acceptance: with a per-tick exchange, the 2-shard
    // incast converges to the unsharded service's per-flow rates and no
    // link's summed allocation exceeds capacity at steady state.
    let fabric = fabric();
    let cfg = FlowtuneConfig {
        exchange_every: 1,
        ..FlowtuneConfig::default()
    };
    let mut plain = AllocatorService::new(&fabric, cfg);
    let mut sharded = ShardedService::new(&fabric, cfg, 2);
    let flows = incast(&SOURCES);
    feed(&mut plain, &fabric, &flows, RECEIVER);
    feed(&mut sharded, &fabric, &flows, RECEIVER);
    for _ in 0..TICKS {
        plain.tick();
        sharded.tick();
    }
    // Per-flow rates match the unsharded service within the F-NORM /
    // update-threshold tolerance the figures use.
    let tol = cfg.update_threshold;
    for &(token, src) in &flows {
        let a = plain.flow_rate_gbps(token).unwrap();
        let b = sharded.flow_rate_gbps(token).unwrap();
        assert!(
            (a - b).abs() <= tol * a.max(1.0),
            "token {token:?} (src {src}): unsharded {a} vs sharded {b}"
        );
    }
    // No link is over-subscribed by the endpoint-visible rates.
    let loads = endpoint_link_loads(&sharded, &fabric, &flows, RECEIVER);
    let over = worst_oversubscription(&fabric, &loads);
    assert!(over <= 1e-6, "over-subscribed by {over}");
    // The 8 flows share the 40 G downlink (less the §6.4 headroom).
    let total: f64 = flows
        .iter()
        .map(|&(t, _)| sharded.flow_rate_gbps(t).unwrap())
        .sum();
    assert!((total - 39.6).abs() < 0.5, "downlink total {total}");
    assert_eq!(sharded.stats().exchange_rounds, TICKS as u64);
}

#[test]
fn asymmetric_incast_with_exchange_respects_capacity() {
    // 3 sources in shard 0 vs 5 in shard 1: the shards' price
    // trajectories differ, but the exchanged totals must still keep
    // every link feasible at steady state.
    let fabric = fabric();
    let cfg = FlowtuneConfig {
        exchange_every: 2,
        ..FlowtuneConfig::default()
    };
    let mut svc = ShardedService::new(&fabric, cfg, 2);
    let sources = [0u16, 1, 2, 8, 9, 10, 11, 12, 13];
    let flows = incast(&sources);
    feed(&mut svc, &fabric, &flows, RECEIVER);
    for _ in 0..TICKS {
        svc.tick();
    }
    let loads = endpoint_link_loads(&svc, &fabric, &flows, RECEIVER);
    let over = worst_oversubscription(&fabric, &loads);
    assert!(over <= 1e-6, "over-subscribed by {over}");
    // Everyone keeps a real share — the exchange must not starve either
    // shard's flows.
    for &(token, src) in &flows {
        let rate = svc.flow_rate_gbps(token).unwrap();
        assert!(rate > 1.0, "src {src} starved at {rate}");
    }
}

#[test]
fn four_shard_incast_with_exchange_matches_unsharded() {
    // Pins the Hessian half of the exchange: with background *loads*
    // only, each shard divides the global over-allocation by just its
    // own Hessian diagonal, multiplying NED's effective step by the
    // shard count — at 4 shards that is γ_eff ≈ 1.6, outside the
    // paper's stable [0.2, 1.5] range, and the allocation collapsed to
    // ~25% of optimal. Exchanging `Σ ∂x/∂p` alongside the loads keeps
    // the Newton step global and the fixed point at the unsharded
    // optimum for any shard count.
    let fabric = fabric();
    let cfg = FlowtuneConfig {
        exchange_every: 1,
        ..FlowtuneConfig::default()
    };
    let mut plain = AllocatorService::new(&fabric, cfg);
    let mut sharded = ShardedService::new(&fabric, cfg, 4);
    // Two sources per 4-server shard (receiver 15's own shard
    // contributes 12 and 13).
    let sources = [0u16, 1, 4, 5, 8, 9, 12, 13];
    let flows = incast(&sources);
    feed(&mut plain, &fabric, &flows, RECEIVER);
    feed(&mut sharded, &fabric, &flows, RECEIVER);
    for _ in 0..TICKS {
        plain.tick();
        sharded.tick();
    }
    let tol = cfg.update_threshold;
    for &(token, src) in &flows {
        let a = plain.flow_rate_gbps(token).unwrap();
        let b = sharded.flow_rate_gbps(token).unwrap();
        assert!(
            (a - b).abs() <= tol * a.max(1.0),
            "token {token:?} (src {src}): unsharded {a} vs 4-shard {b}"
        );
    }
    let loads = endpoint_link_loads(&sharded, &fabric, &flows, RECEIVER);
    let over = worst_oversubscription(&fabric, &loads);
    assert!(over <= 1e-6, "over-subscribed by {over}");
}

#[test]
fn exchange_disabled_two_shards_stay_bit_for_bit_pre_exchange() {
    // `exchange_every: 0` (the default) must leave the sharded service's
    // arithmetic untouched: same update streams and same rates as a
    // service built with the pre-exchange default configuration.
    let fabric = fabric();
    let explicit_off = FlowtuneConfig {
        exchange_every: 0,
        ..FlowtuneConfig::default()
    };
    let mut a = ShardedService::new(&fabric, FlowtuneConfig::default(), 2);
    let mut b = ShardedService::new(&fabric, explicit_off, 2);
    let flows = incast(&SOURCES);
    feed(&mut a, &fabric, &flows, RECEIVER);
    feed(&mut b, &fabric, &flows, RECEIVER);
    for round in 0..100 {
        assert_eq!(a.tick(), b.tick(), "diverged at tick {round}");
    }
    for &(token, _) in &flows {
        assert_eq!(
            a.flow_rate_gbps(token).map(f64::to_bits),
            b.flow_rate_gbps(token).map(f64::to_bits)
        );
    }
    assert_eq!(a.stats(), b.stats());
}

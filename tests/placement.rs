//! Exchange-aware shard placement: acceptance and determinism.
//!
//! The tentpole claims, pinned:
//!
//! * **contiguous is bit-for-bit the pre-placement service** — the
//!   `Placement::contiguous` table reproduces the historical routing
//!   formula exactly, and a sharded service built through the builder
//!   with the default placement emits the same update stream as one
//!   built directly;
//! * **the win** — on a rack-affine 2-shard workload with churn, traffic
//!   placement cuts [`ServiceStats::exchange_bytes`] by ≥ 30% at equal
//!   `exchange_every`, and never over-subscribes a link at steady state.

use flowtune::{
    AllocatorService, Engine, FlowtuneConfig, Placement, ShardedService, TickDriver, TrafficMatrix,
};
use flowtune_proto::{Message, Token};
use flowtune_topo::{ClosConfig, TwoTierClos};

/// 8 racks of 4 servers (32 servers, 40 G links), two shards. Rack
/// classes interleave (evens vs odds), so the contiguous split
/// {racks 0–3} | {racks 4–7} always separates class members.
fn fabric() -> TwoTierClos {
    TwoTierClos::build(ClosConfig::multicore(2, 4, 4))
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

/// The rack-affine incast-mesh flow set: each rack sends one flow from
/// every one of its servers to the same-offset server of each of `fan`
/// *other* racks of its class (even racks talk to even racks, odd to
/// odd). Every destination access link therefore carries an incast of
/// `fan` same-class flows — contended, so flowlet churn anywhere in a
/// class re-prices the whole class (the zero-sum reallocation a shared
/// bottleneck forces). That coupling is the point: under contiguous
/// placement each class spans both shards and every churn event makes
/// *both* shards re-ship link state; under traffic placement a class
/// lives in one shard and its churn never touches the other. Returns
/// `(src, dst)` pairs.
fn affine_flows(servers: usize, spr: usize, fan: usize) -> Vec<(u16, u16)> {
    let racks = servers / spr;
    let mut flows = Vec::new();
    for src_rack in 0..racks {
        let class = src_rack % 2;
        let others: Vec<usize> = (0..racks)
            .filter(|r| r % 2 == class && *r != src_rack)
            .collect();
        for k in 0..fan.min(others.len()) {
            let dst_rack = others[(src_rack / 2 + k) % others.len()];
            for s in 0..spr {
                flows.push(((src_rack * spr + s) as u16, (dst_rack * spr + s) as u16));
            }
        }
    }
    flows
}

/// The exact rack matrix of a flow list (what a workload would sample).
fn matrix_of(flows: &[(u16, u16)], racks: usize, spr: usize) -> TrafficMatrix {
    let mut m = TrafficMatrix::new(racks);
    for &(src, dst) in flows {
        m.add(src as usize / spr, dst as usize / spr, 1.0);
    }
    m
}

/// Drives `svc` through the same deterministic churny schedule: load the
/// flow set, converge, then rotate flowlets (end + restart a fraction,
/// round-robin) to keep link state moving, then a convergence tail.
/// Returns the per-flow tokens live at the end.
fn drive(svc: &mut dyn TickDriver, fabric: &TwoTierClos, flows: &[(u16, u16)]) -> Vec<Token> {
    let mut token = 0u32;
    let mut live: Vec<(Token, usize)> = Vec::new(); // (token, flow index)
    for (i, &(src, dst)) in flows.iter().enumerate() {
        token += 1;
        svc.on_message(start(fabric, token, src, dst)).unwrap();
        live.push((Token::new(token), i));
    }
    for _ in 0..100 {
        svc.tick();
    }
    // Churn: every 5 ticks, restart one flow under a fresh token (an end
    // and a start — flowlet churn on the same traffic pattern).
    let mut cursor = 0usize;
    for round in 0..300 {
        if round % 5 == 0 {
            let slot = cursor % live.len();
            cursor += 1;
            let (old, idx) = live[slot];
            svc.on_message(Message::FlowletEnd { token: old }).unwrap();
            token += 1;
            let (src, dst) = flows[idx];
            svc.on_message(start(fabric, token, src, dst)).unwrap();
            live[slot] = (Token::new(token), idx);
        }
        svc.tick();
    }
    // Tail: no churn, let everything converge.
    for _ in 0..200 {
        svc.tick();
    }
    live.iter().map(|&(t, _)| t).collect()
}

/// Worst per-link over-subscription of the endpoint-visible (normalized)
/// rates, as a fraction of capacity.
fn worst_oversubscription(
    svc: &dyn TickDriver,
    fabric: &TwoTierClos,
    flows: &[(u16, u16)],
    tokens: &[Token],
) -> f64 {
    let mut loads = vec![0.0; fabric.topology().link_count()];
    for (&token, &(src, dst)) in tokens.iter().zip(flows) {
        let rate = svc.flow_rate_gbps(token).unwrap();
        let flow = flowtune_topo::FlowId(token.get() as u64);
        let path = fabric.path(src as usize, dst as usize, flow);
        flowtune::add_path_load(&mut loads, &path, rate);
    }
    flowtune::worst_oversubscription(fabric, &loads)
}

fn exchange_cfg() -> FlowtuneConfig {
    FlowtuneConfig {
        exchange_every: 1,
        // A deployment-realistic delta filter: converged links stop
        // shipping, so the bytes measure ongoing reconciliation work,
        // not the decay tails of never-loaded links (identical under
        // any placement).
        exchange_delta_eps: 1e-3,
        ..FlowtuneConfig::default()
    }
}

fn contiguous_service(f: &TwoTierClos, cfg: FlowtuneConfig) -> ShardedService {
    ShardedService::new(f, cfg, 2)
}

fn placed_service(f: &TwoTierClos, cfg: FlowtuneConfig, m: &TrafficMatrix) -> ShardedService {
    let shards = (0..2).map(|_| AllocatorService::new(f, cfg)).collect();
    let placement = Placement::traffic(
        f.config().server_count(),
        f.config().servers_per_rack,
        2,
        m,
        true,
    );
    ShardedService::with_placement(shards, placement)
}

#[test]
fn traffic_placement_cuts_exchange_bytes_by_thirty_percent() {
    // The acceptance criterion. Same fabric, same churny rack-affine
    // workload, same exchange cadence and filter — only the placement
    // differs. Contiguous splits every rack class across the two shards,
    // so each destination's links are priced (and re-shipped, and
    // consensus-reconciled) from both sides; traffic placement puts each
    // class in one shard.
    let f = fabric();
    let flows = affine_flows(32, 4, 3);
    let m = matrix_of(&flows, 8, 4);
    let cfg = exchange_cfg();

    let mut contiguous = contiguous_service(&f, cfg);
    let tokens_c = drive(&mut contiguous, &f, &flows);
    let mut placed = placed_service(&f, cfg, &m);
    assert_eq!(placed.placement().strategy(), "traffic:refine");
    let tokens_p = drive(&mut placed, &f, &flows);

    let (bc, bp) = (
        contiguous.stats().exchange_bytes,
        placed.stats().exchange_bytes,
    );
    assert!(bc > 0 && bp > 0, "both configurations must exchange");
    let reduction = 1.0 - bp as f64 / bc as f64;
    eprintln!(
        "exchange bytes: contiguous {bc}, placed {bp} ({:.1}% saved)",
        reduction * 100.0
    );
    assert!(
        reduction >= 0.30,
        "traffic placement saved only {:.1}% exchange bytes \
         (contiguous {bc}, placed {bp})",
        reduction * 100.0
    );
    assert_eq!(
        contiguous.stats().exchange_rounds,
        placed.stats().exchange_rounds,
        "equal cadence — the savings are per-round, not fewer rounds"
    );

    // Never over-subscribed at steady state, under either placement.
    for (svc, tokens, name) in [
        (&contiguous, &tokens_c, "contiguous"),
        (&placed, &tokens_p, "placed"),
    ] {
        let over = worst_oversubscription(svc, &f, &flows, tokens);
        assert!(over <= 1e-6, "{name} over-subscribed by {over}");
        // And nobody is starved: the placement change must not cost
        // anyone their share.
        for &t in tokens.iter() {
            assert!(svc.flow_rate_gbps(t).unwrap() > 1.0, "{name} starved {t:?}");
        }
    }
}

#[test]
fn contiguous_placement_is_bit_for_bit_the_direct_construction() {
    // `--placement contiguous` (the default) must leave the sharded
    // service exactly as PR 4 built it: the builder path with the
    // default spec and the direct `ShardedService::new` path produce
    // identical update streams, rates and counters on a cross-shard
    // workload with the exchange on.
    let f = fabric();
    let cfg = FlowtuneConfig {
        exchange_every: 1,
        ..FlowtuneConfig::default()
    };
    let mut direct = ShardedService::new(&f, cfg, 2);
    let mut built = AllocatorService::builder()
        .fabric(&f)
        .config(cfg)
        .engine(Engine::Serial.sharded(2))
        .build_driver()
        .unwrap();
    let flows = affine_flows(32, 4, 1);
    let mut token = 0u32;
    for &(src, dst) in &flows {
        token += 1;
        let msg = start(&f, token, src, dst);
        assert_eq!(
            TickDriver::on_message(&mut direct, msg),
            built.on_message(msg)
        );
    }
    for round in 0..150 {
        assert_eq!(
            TickDriver::tick(&mut direct),
            built.tick(),
            "streams diverged at tick {round}"
        );
    }
    for t in 1..=flows.len() as u32 {
        assert_eq!(
            direct.flow_rate_gbps(Token::new(t)).map(f64::to_bits),
            built.flow_rate_gbps(Token::new(t)).map(f64::to_bits)
        );
    }
    assert_eq!(TickDriver::stats(&direct), built.stats());
}

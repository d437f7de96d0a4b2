//! End-to-end allocator tests spanning flowtune (service + agents),
//! flowtune-proto and flowtune-topo — the control loop without the packet
//! simulator in between.
//!
//! Services are built through the engine-agnostic builder API; the §5
//! pool schedule is pinned to the serial grid bit for bit at the grid
//! level (`tests/multicore_equivalence.rs`).

use flowtune::{
    AllocatorService, EndpointAgent, Engine, FlowtuneConfig, ServiceError, TickDriver, ENGINE_NAMES,
};
use flowtune_proto::{Message, Rate16, Token};
use flowtune_topo::{ClosConfig, TwoTierClos};

fn setup() -> (TwoTierClos, AllocatorService, Vec<EndpointAgent>) {
    let fabric = TwoTierClos::build(ClosConfig::paper_eval());
    let servers = fabric.config().server_count();
    let svc = AllocatorService::builder()
        .fabric(&fabric)
        .config(FlowtuneConfig::default())
        .engine(Engine::Serial)
        .build()
        .expect("fabric is set");
    let agents = (0..servers)
        .map(|s| EndpointAgent::new(s as u16, servers))
        .collect();
    (fabric, svc, agents)
}

/// Delivers all pending updates to the right agents.
fn pump(svc: &mut AllocatorService, agents: &mut [EndpointAgent], ticks: usize) {
    for _ in 0..ticks {
        for (server, msg) in svc.tick() {
            agents[server as usize].on_rate_update(&msg);
        }
    }
}

#[test]
fn many_flows_converge_to_proportional_fairness_every_ned_engine() {
    let (_, mut svc, mut agents) = setup();
    // 16 servers of rack 0 each send one flow to the same rack-8
    // server's 10 G downlink: proportional fairness gives each
    // ≈ 9.9/16 Gbit/s.
    for s in 0..16u16 {
        let msg = agents[s as usize]
            .on_backlog(s as u64, 143, 10_000_000, 0)
            .unwrap();
        svc.on_message(msg).unwrap();
    }
    pump(&mut svc, &mut agents, 300);
    for s in 0..16u16 {
        let rate = agents[s as usize].pacing_rate_gbps(s as u64).unwrap();
        assert!(
            (rate - 9.9 / 16.0).abs() < 0.03,
            "[{}] server {s} got {rate} Gbit/s",
            svc.engine_name()
        );
    }
}

#[test]
fn weighted_flows_get_weighted_shares_end_to_end() {
    let (_, mut svc, mut agents) = setup();
    let m1 = agents[0]
        .on_backlog_weighted(1, 143, 1_000_000, 3.0, 0)
        .unwrap();
    let m2 = agents[16]
        .on_backlog_weighted(2, 143, 1_000_000, 1.0, 0)
        .unwrap();
    svc.on_message(m1).unwrap();
    svc.on_message(m2).unwrap();
    pump(&mut svc, &mut agents, 400);
    let r1 = agents[0].pacing_rate_gbps(1).unwrap();
    let r2 = agents[16].pacing_rate_gbps(2).unwrap();
    assert!(
        (r1 / r2 - 3.0).abs() < 0.05,
        "[{}] ratio {}",
        svc.engine_name(),
        r1 / r2
    );
}

#[test]
fn flowlet_lifecycle_start_end_restart() {
    let (_, mut svc, mut agents) = setup();
    let start = agents[5].on_backlog(9, 99, 50_000, 0).unwrap();
    svc.on_message(start).unwrap();
    assert_eq!(svc.active_flows(), 1);
    pump(&mut svc, &mut agents, 50);

    // Queue drains; after the 30 µs idle threshold the agent reports an
    // end, freeing allocator state.
    agents[5].on_drained(9, 1_000_000_000);
    let ends = agents[5].poll(1_000_000_000 + 30_000_000);
    assert_eq!(ends.len(), 1);
    svc.on_message(ends[0]).unwrap();
    assert_eq!(svc.active_flows(), 0);

    // The same flow becomes backlogged again: a *new* flowlet (new
    // token), and the allocator accepts it.
    let restart = agents[5].on_backlog(9, 99, 50_000, 2_000_000_000).unwrap();
    let Message::FlowletStart { token, .. } = restart else {
        panic!("expected start");
    };
    svc.on_message(restart).unwrap();
    assert_eq!(svc.active_flows(), 1);
    pump(&mut svc, &mut agents, 50);
    assert!(svc.flow_rate_gbps(token).unwrap() > 9.0);
}

#[test]
fn rekeyed_end_then_reused_token_start_roundtrip() {
    // An endpoint restart can re-key its flowlets: the allocator then
    // sees (1) a FlowletEnd for a token it never registered, and (2) a
    // FlowletStart reusing a token that was freed moments ago. Both must
    // flow through the Result path without disturbing service state.
    let (_, mut svc, _) = setup();
    let start = |token: u32, src: u16| Message::FlowletStart {
        token: Token::new(token),
        src,
        dst: 143,
        size_hint: 50_000,
        weight_q8: 256,
        spine: 1,
    };

    svc.on_message(start(7, 3)).unwrap();
    // End for a token re-keyed out of existence: accepted (ignored).
    svc.on_message(Message::FlowletEnd {
        token: Token::new(999),
    })
    .unwrap();
    assert_eq!(svc.active_flows(), 1);
    assert_eq!(svc.stats().ends, 0);

    // While token 7 is live, a duplicate start is a reportable rejection…
    let err = svc.on_message(start(7, 4)).unwrap_err();
    assert_eq!(err, ServiceError::DuplicateToken(Token::new(7)));
    assert_eq!(svc.stats().rejected, 1);

    // …but after the real end, the token may be reused by a new flowlet.
    svc.on_message(Message::FlowletEnd {
        token: Token::new(7),
    })
    .unwrap();
    svc.on_message(start(7, 4)).unwrap();
    assert_eq!(svc.active_flows(), 1);
    assert_eq!(svc.stats().starts, 2);
    assert_eq!(svc.stats().rejected, 1, "no further rejections");
    for _ in 0..100 {
        svc.tick();
    }
    assert!(svc.flow_rate_gbps(Token::new(7)).unwrap() > 9.0);
}

#[test]
fn builder_constructs_every_engine_variant() {
    let fabric = TwoTierClos::build(ClosConfig::paper_eval());
    let start = Message::FlowletStart {
        token: Token::new(1),
        src: 0,
        dst: 140,
        size_hint: 100_000,
        weight_q8: 256,
        spine: 1,
    };
    // Every engine a builder builds prices the fabric's links, so each
    // has link state to export after a tick, plain and sharded alike.
    let priced = |drv: &dyn TickDriver, what: &str| {
        let loads = drv.link_loads();
        assert_eq!(loads.len(), fabric.topology().link_count(), "{what}");
        assert!(
            loads.iter().any(|&load| load > 0.0),
            "{what}: nothing loaded"
        );
    };
    let named = ENGINE_NAMES.map(|name| Engine::parse(name).unwrap());
    for engine in named {
        // First-order gradient steps need far more ticks than NED to
        // approach line rate (§3's argument for NED).
        let ticks = if engine == Engine::Gradient {
            4_000
        } else {
            120
        };
        let mut svc = AllocatorService::builder()
            .fabric(&fabric)
            .engine(engine.clone())
            .build()
            .unwrap();
        assert_eq!(svc.engine_name(), engine.name());
        svc.on_message(start).unwrap();
        let updates = svc.tick();
        assert_eq!(
            updates.len(),
            1,
            "{}: first tick reports a rate",
            engine.name()
        );
        priced(&svc, engine.name());

        let mut sharded = AllocatorService::builder()
            .fabric(&fabric)
            .engine(engine.clone().sharded(2))
            .build_driver()
            .unwrap();
        sharded.on_message(start).unwrap();
        sharded.tick();
        priced(&*sharded, &format!("{} over 2 shards", engine.name()));

        for _ in 0..ticks {
            svc.tick();
        }
        let rate = svc.flow_rate_gbps(Token::new(1)).unwrap();
        assert!(
            rate > 9.0,
            "{}: lone flow should get ~line rate, got {rate}",
            engine.name()
        );
    }
}

#[test]
fn misdelivered_rate_update_is_rejected_and_counted() {
    let (_, mut svc, _) = setup();
    let msg = Message::RateUpdate {
        token: Token::new(1),
        rate: Rate16::encode(5.0),
    };
    assert_eq!(svc.on_message(msg), Err(ServiceError::UnexpectedRateUpdate));
    assert_eq!(svc.stats().rejected, 1);
}

#[test]
fn fault_tolerance_rates_survive_allocator_restart() {
    // §2: "if the allocator fails, the rates expire and endpoint
    // congestion control takes over, using the previously allocated rates
    // as a starting point" — and a fresh allocator can be rebuilt from
    // new notifications without replication.
    let (fabric, mut svc, mut agents) = setup();
    let start = agents[0].on_backlog(1, 99, 1_000_000, 0).unwrap();
    svc.on_message(start).unwrap();
    pump(&mut svc, &mut agents, 100);
    let before = agents[0].pacing_rate_gbps(1).unwrap();
    assert!(before > 9.0);

    // Allocator crashes; endpoints keep their last rate.
    drop(svc);
    assert_eq!(agents[0].pacing_rate_gbps(1), Some(before));

    // A replacement allocator starts empty; the endpoint's *next* flowlet
    // re-registers and gets allocated again.
    let mut svc2 = AllocatorService::builder()
        .fabric(&fabric)
        .build()
        .expect("fabric is set");
    agents[0].on_drained(1, 1_000_000_000);
    for m in agents[0].poll(2_000_000_000) {
        // The end notification goes to the new allocator, which ignores
        // the unknown token gracefully.
        svc2.on_message(m).unwrap();
    }
    let restart = agents[0]
        .on_backlog(1, 99, 1_000_000, 3_000_000_000)
        .unwrap();
    svc2.on_message(restart).unwrap();
    pump(&mut svc2, &mut agents, 100);
    assert!(agents[0].pacing_rate_gbps(1).unwrap() > 9.0);
}

#[test]
fn update_traffic_is_quiet_at_steady_state() {
    let (_, mut svc, mut agents) = setup();
    for s in 0..32u16 {
        let dst = (s + 64) % 144;
        let msg = agents[s as usize]
            .on_backlog(s as u64, dst, 1_000_000, 0)
            .unwrap();
        svc.on_message(msg).unwrap();
    }
    pump(&mut svc, &mut agents, 200);
    let sent_before = svc.stats().updates_sent;
    pump(&mut svc, &mut agents, 100);
    let new_updates = svc.stats().updates_sent - sent_before;
    assert_eq!(
        new_updates, 0,
        "converged allocation must be silent under the threshold filter"
    );
}

#[test]
fn token_counter_wrap_skips_the_live_flowlet() {
    // At 65 536 servers a token keeps 8 counter bits: the counter wraps
    // every 256 starts, onto the token of a flowlet that started 256
    // starts ago if that one is still live.
    let (_, mut svc, _) = setup();
    let mut agent = EndpointAgent::with_config(5, 65_536, 4, FlowtuneConfig::default());
    let long_lived = agent.on_backlog(0, 99, 1 << 30, 0).unwrap();
    let Message::FlowletStart { token: held, .. } = long_lived else {
        panic!("expected a start")
    };
    svc.on_message(long_lived).unwrap();

    let mut now_ps = 0;
    for flow in 1..=300u64 {
        let start = agent.on_backlog(flow, 99, 1000, now_ps).unwrap();
        assert_eq!(
            svc.on_message(start),
            Ok(()),
            "start {flow} reused a live token"
        );
        assert_ne!(agent.token_of(flow), Some(held));
        agent.on_drained(flow, now_ps);
        now_ps += FlowtuneConfig::default().flowlet_idle_ps;
        for end in agent.poll(now_ps) {
            svc.on_message(end).unwrap();
        }
        assert!(!agent.flowlet_active(flow));
    }
    assert_eq!(svc.stats().rejected, 0);
    assert_eq!(svc.active_flows(), 1);
    assert_eq!(agent.token_of(0), Some(held));
    let update = Message::RateUpdate {
        token: held,
        rate: Rate16::encode(3.0),
    };
    assert_eq!(agent.on_rate_update(&update).map(|(flow, _)| flow), Some(0));
}

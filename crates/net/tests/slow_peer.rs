//! Sustained slow-peer degradation: one peer of a two-shard mem-mesh
//! cluster sleeps 10× the round timeout before each of five consecutive
//! ticks. The async runtime's promises under that fault:
//!
//! * the healthy peer pays the round timeout once (the barrier that
//!   detects the laggard) and then keeps ticking without blocking —
//!   stale rounds install from last-shipped state;
//! * its `WireStats` report the injected staleness (`rounds_behind`
//!   climbing through the delayed rounds, the peak surviving recovery);
//! * the degraded cluster never over-subscribes a link — frozen state
//!   freezes rates, it does not inflate them;
//! * once the laggard recovers, the cluster reconverges to the
//!   unsharded optimum.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use flowtune::{AllocatorService, ExchangeConfig, FlowtuneConfig, Placement};
use flowtune_net::{mem_mesh, MemTransport, ShardPeer};
use flowtune_proto::{Message, Token};
use flowtune_topo::{ClosConfig, FlowId, TwoTierClos};

/// The repo's cross-shard incast workload: four sources per block of a
/// two-block fabric, all sending to server 15.
const SOURCES: [u16; 8] = [0, 1, 2, 3, 8, 9, 10, 11];
const RECEIVER: u16 = 15;
const TICKS: u64 = 200;
const ROUND_TIMEOUT: Duration = Duration::from_millis(40);
/// 10× the round timeout, before each delayed tick.
const DELAY: Duration = Duration::from_millis(400);
const DELAY_FROM: u64 = 50;
const DELAY_ROUNDS: u64 = 5;

fn fabric() -> TwoTierClos {
    TwoTierClos::build(ClosConfig::multicore(2, 2, 4))
}

fn start(fabric: &TwoTierClos, token: u32, src: u16, dst: u16) -> Message {
    let spine = fabric.ecmp_spine(src as usize, dst as usize, FlowId(u64::from(token)));
    Message::FlowletStart {
        token: Token::new(token),
        src,
        dst,
        size_hint: 1_000_000,
        weight_q8: 256,
        spine: spine as u8,
    }
}

/// `(token, src)` per flow, token = 1-based index into [`SOURCES`].
fn flows() -> Vec<(u32, u16)> {
    SOURCES
        .iter()
        .enumerate()
        .map(|(i, &src)| (i as u32 + 1, src))
        .collect()
}

/// Worst relative link over-subscription for the given endpoint rates.
fn worst_oversubscription(fabric: &TwoTierClos, rates: &[(u32, f64)]) -> f64 {
    let mut loads = vec![0.0f64; fabric.topology().link_count()];
    for &(token, rate) in rates {
        let src = SOURCES[(token - 1) as usize] as usize;
        let path = fabric.path(src, RECEIVER as usize, FlowId(u64::from(token)));
        flowtune::add_path_load(&mut loads, &path, rate);
    }
    flowtune::worst_oversubscription(fabric, &loads)
}

#[test]
fn five_delayed_rounds_degrade_gracefully_and_reconverge() {
    let fabric = fabric();
    let cfg = FlowtuneConfig {
        exchange_every: 1,
        ..FlowtuneConfig::default()
    };
    let exchange = ExchangeConfig::from_flowtune(&cfg).round_timeout(ROUND_TIMEOUT);
    let mut mesh = mem_mesh(2).into_iter();
    let t0 = mesh.next().expect("mesh endpoint 0");
    let t1 = mesh.next().expect("mesh endpoint 1");
    let mut healthy = ShardPeer::new(AllocatorService::new(&fabric, cfg), t0, exchange)
        .expect("mem transport splits infallibly");
    let mut laggard = ShardPeer::new(AllocatorService::new(&fabric, cfg), t1, exchange)
        .expect("mem transport splits infallibly");

    let placement = Placement::contiguous(fabric.config().server_count(), 2);
    let mut healthy_flows = Vec::new();
    let mut laggard_flows = Vec::new();
    for (token, src) in flows() {
        if placement.shard_of(src) == 0 {
            healthy_flows.push((token, src));
            healthy
                .on_message(start(&fabric, token, src, RECEIVER))
                .unwrap();
        } else {
            laggard_flows.push((token, src));
            laggard
                .on_message(start(&fabric, token, src, RECEIVER))
                .unwrap();
        }
    }

    // The laggard publishes its endpoint-visible rates after every tick
    // so the healthy thread can assemble a whole-cluster feasibility
    // snapshot mid-degradation.
    let published: Arc<Mutex<Vec<(u32, f64)>>> = Arc::new(Mutex::new(Vec::new()));
    let publish = Arc::clone(&published);
    let lag_tokens: Vec<u32> = laggard_flows.iter().map(|&(t, _)| t).collect();
    let laggard_thread = std::thread::spawn(move || -> ShardPeer<MemTransport> {
        for tick in 0..TICKS {
            if (DELAY_FROM..DELAY_FROM + DELAY_ROUNDS).contains(&tick) {
                std::thread::sleep(DELAY);
            }
            laggard.tick().expect("laggard tick");
            let mut snap = publish.lock().unwrap();
            snap.clear();
            for &t in &lag_tokens {
                let rate = laggard
                    .service()
                    .flow_rate_gbps(Token::new(t))
                    .expect("laggard flow active");
                snap.push((t, rate));
            }
        }
        laggard
    });

    let mut durations = Vec::with_capacity(TICKS as usize);
    let mut behind_after = Vec::with_capacity(TICKS as usize);
    let mut degraded_feasibility: Option<f64> = None;
    for _ in 0..TICKS {
        let begun = Instant::now();
        healthy.tick().expect("healthy peer tick");
        durations.push(begun.elapsed());
        let ws = healthy.wire_stats();
        behind_after.push(ws.max_rounds_behind());
        if degraded_feasibility.is_none() && ws.max_rounds_behind() >= 2 {
            // Mid-degradation snapshot: this peer's current rates plus
            // the laggard's last-published ones.
            let mut rates: Vec<(u32, f64)> = published.lock().unwrap().clone();
            for &(t, _) in &healthy_flows {
                let rate = healthy
                    .service()
                    .flow_rate_gbps(Token::new(t))
                    .expect("healthy flow active");
                rates.push((t, rate));
            }
            assert_eq!(rates.len(), SOURCES.len(), "snapshot covers every flow");
            degraded_feasibility = Some(worst_oversubscription(&fabric, &rates));
        }
    }
    let laggard = laggard_thread.join().expect("laggard thread");

    // Staleness reporting: the healthy peer flagged every delayed round
    // and recovered afterwards.
    let ws = healthy.wire_stats();
    assert!(
        ws.max_peak_rounds_behind() >= DELAY_ROUNDS,
        "peak rounds_behind {} must cover the {DELAY_ROUNDS} delayed rounds",
        ws.max_peak_rounds_behind()
    );
    assert!(
        ws.late_rounds >= DELAY_ROUNDS,
        "late_rounds {} must count the delayed rounds",
        ws.late_rounds
    );
    assert_eq!(
        ws.max_rounds_behind(),
        0,
        "the laggard must be fresh again once it recovers"
    );
    assert_eq!(*behind_after.last().unwrap(), 0);

    // Non-blocking degradation: once the laggard is detected (one
    // barrier pays the round timeout, exactly as lockstep would), the
    // following stale rounds cost nothing until the bounded-lag
    // throttle engages. The rounds that climb `rounds_behind` through
    // 2..=5 are the pre-throttle ones — each must come in far under the
    // timeout, where the lockstep runtime would have blocked the full
    // timeout on every one.
    let mut windowed = Vec::new();
    for (i, &behind) in behind_after.iter().enumerate() {
        if (2..=DELAY_ROUNDS).contains(&behind) && i > 0 && behind_after[i - 1] == behind - 1 {
            windowed.push(durations[i]);
        }
    }
    assert!(
        windowed.len() >= (DELAY_ROUNDS - 1) as usize,
        "expected the staleness counter to climb through 2..={DELAY_ROUNDS}: {behind_after:?}"
    );
    for (k, d) in windowed.iter().enumerate() {
        assert!(
            *d < ROUND_TIMEOUT / 2,
            "stale round {} of the window blocked for {d:?} (timeout {ROUND_TIMEOUT:?})",
            k + 2
        );
    }
    // And no tick — detection and throttled rounds included — ever
    // blocks past one barrier timeout (plus scheduling slack).
    for (i, d) in durations.iter().enumerate() {
        assert!(
            *d < ROUND_TIMEOUT * 3,
            "tick {i} blocked for {d:?} (barrier bound {ROUND_TIMEOUT:?})"
        );
    }

    // Feasibility during degradation: frozen exchange state freezes
    // rates; it must not inflate them into over-subscription.
    let over = degraded_feasibility.expect("the degradation window was observed");
    assert!(
        over <= 1e-6,
        "a link over-subscribed by {over:.2e} while degraded"
    );

    // Reconvergence: after recovery the cluster lands on the unsharded
    // optimum (same criterion as the arbiterd demo).
    let mut reference = AllocatorService::new(&fabric, cfg);
    for (token, src) in flows() {
        reference
            .on_message(start(&fabric, token, src, RECEIVER))
            .unwrap();
    }
    for _ in 0..TICKS {
        reference.tick();
    }
    let tol = cfg.update_threshold;
    for (token, src) in flows() {
        let expect = reference.flow_rate_gbps(Token::new(token)).unwrap();
        let peer = if placement.shard_of(src) == 0 {
            &healthy
        } else {
            &laggard
        };
        let got = peer.service().flow_rate_gbps(Token::new(token)).unwrap();
        assert!(
            (expect - got).abs() <= tol * expect.max(1.0),
            "token {token}: unsharded {expect} vs recovered cluster {got}"
        );
    }
}

//! Layer probes: one layer's public functions in isolation, fed inputs
//! recorded from the workload that just ran (its live flowlets, its last
//! update batch), each reported as the median over up to [`CALLS`] calls.
//! A probe is capped by its share of the budget, so on `quiet100k`,
//! where one call is a sweep over 10⁵ flows, it makes fewer.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use flowtune::{merge_by_token_into, AllocatorService, ExchangeCore, FlowtuneConfig, Placement};
use flowtune_alloc::{AllocConfig, FlowRate, SerialAllocator};
use flowtune_net::{mem_mesh, Receiver, Sender, Transport};
use flowtune_proto::{Message, ThresholdFilter, Token};
use flowtune_topo::{FlowId, TwoTierClos};

use crate::harness::{Harness, Live};
use crate::workload::uds_pair;
use crate::{metric, Metric};

const CALLS: usize = 1000;
const MIN_CALLS: usize = 5;
/// Probes that share the budget.
const PROBES: u32 = 14;

/// Calls `call` up to [`CALLS`] times, stopping early (but not before
/// [`MIN_CALLS`]) once `budget` is spent.
fn repeat(budget: Duration, mut call: impl FnMut()) {
    let started = Instant::now();
    let mut calls = 0;
    while calls < CALLS && (calls < MIN_CALLS || started.elapsed() < budget) {
        call();
        calls += 1;
    }
}

fn median(mut ns: Vec<u64>) -> f64 {
    ns.sort_unstable();
    ns[ns.len() / 2] as f64
}

/// Median of what `call` returns (the ns it measured) over [`repeat`].
fn median_ns(budget: Duration, mut call: impl FnMut() -> u64) -> f64 {
    let mut ns = Vec::with_capacity(CALLS);
    repeat(budget, || ns.push(call()));
    median(ns)
}

fn timed<R>(f: impl FnOnce() -> R) -> u64 {
    let started = Instant::now();
    black_box(f());
    started.elapsed().as_nanos() as u64
}

/// Runs every probe on the state `h` ended in.
pub fn run(h: &Harness, budget: Duration) -> Vec<Metric> {
    let each = budget / PROBES;
    let live = h.live_sorted();
    let mut m = alloc_probes(&h.fabric, &live, each);
    m.extend(filter_probes(h, &live, each));
    m.push(merge_probe(h, each));
    let (exchange, frame) = exchange_probes(&h.fabric, &live, each);
    m.extend(exchange);
    m.extend(rtt_probes(&frame, &h.scratch, each));
    m
}

/// A standalone full-sweep `SerialAllocator` holding the workload's
/// flows: the cost of one NED sweep, of reading rates back, and of the
/// flow table's insert and remove.
fn alloc_probes(fabric: &TwoTierClos, live: &[(Token, Live)], each: Duration) -> Vec<Metric> {
    let cfg = AllocConfig {
        capacity_fraction: FlowtuneConfig::default().capacity_fraction(),
        ..AllocConfig::default()
    };
    let mut engine = SerialAllocator::new(fabric, cfg);
    for (i, (_, f)) in live.iter().enumerate() {
        let id = FlowId(i as u64);
        engine.add_flow(id, f.src as usize, f.dst as usize, 1.0, &f.path(fabric));
    }
    engine.run_iterations(8);
    let iterate = median_ns(each, || timed(|| engine.iterate()));
    let mut rates: Vec<FlowRate> = Vec::new();
    let rates_into = median_ns(each, || timed(|| engine.rates_into(&mut rates)));
    // Lookups are timed a thousand at a time: one is below the clock.
    let n = live.len().max(1) as u64;
    let mut next = 0u64;
    let flow_rate = median_ns(each, || {
        timed(|| {
            for _ in 0..1000 {
                next = (next + 7919) % n;
                black_box(engine.flow_rate(FlowId(next)));
            }
        })
    }) / 1000.0;
    let (mut add, mut remove) = (0.0, 0.0);
    if !live.is_empty() {
        let mut victim = 0usize;
        let mut removed = Vec::with_capacity(CALLS);
        add = median_ns(each * 2, || {
            victim = (victim + 7919) % live.len();
            let f = &live[victim].1;
            let id = FlowId(victim as u64);
            let p = f.path(fabric);
            removed.push(timed(|| engine.remove_flow(id)));
            timed(|| engine.add_flow(id, f.src as usize, f.dst as usize, 1.0, &p))
        });
        remove = median(removed);
    }
    vec![
        metric("alloc.iterate_us", "us", iterate * 1e-3),
        metric("alloc.rates_into_us", "us", rates_into * 1e-3),
        metric("alloc.flow_rate_ns", "ns", flow_rate),
        metric("alloc.add_flow_us", "us", add * 1e-3),
        metric("alloc.remove_flow_us", "us", remove * 1e-3),
    ]
}

/// `ThresholdFilter` holding the workload's tokens at their current
/// rates: the suppressing probe (the export walk's common case) and the
/// forget-then-first-send pair a flowlet swap costs.
fn filter_probes(h: &Harness, live: &[(Token, Live)], each: Duration) -> Vec<Metric> {
    let rated: Vec<(Token, f64)> = live
        .iter()
        .filter_map(|&(t, _)| Some((t, h.plane.driver().flow_rate_gbps(t)?)))
        .collect();
    if rated.is_empty() {
        return vec![
            metric("proto.filter_ns", "ns", 0.0),
            metric("proto.filter_swap_ns", "ns", 0.0),
        ];
    }
    let mut filter = ThresholdFilter::new(FlowtuneConfig::default().update_threshold);
    for &(token, rate) in &rated {
        filter.should_send(token, rate);
    }
    let mut next = 0usize;
    let mut step = || {
        next = (next + 7919) % rated.len();
        rated[next]
    };
    let hit = median_ns(each, || {
        timed(|| {
            for _ in 0..1000 {
                let (token, rate) = step();
                black_box(filter.should_send(token, rate));
            }
        })
    }) / 1000.0;
    let swap = median_ns(each, || {
        timed(|| {
            for _ in 0..1000 {
                let (token, rate) = step();
                filter.forget(token);
                black_box(filter.should_send(token, rate));
            }
        })
    }) / 1000.0;
    vec![
        metric("proto.filter_ns", "ns", hit),
        metric("proto.filter_swap_ns", "ns", swap),
    ]
}

/// `merge_by_token_into` on the workload's last non-empty update batch,
/// split four ways by the source's shard.
fn merge_probe(h: &Harness, each: Duration) -> Metric {
    let placement = Placement::contiguous(h.fabric.config().server_count(), 4);
    let mut split: Vec<Vec<(u16, Message)>> = vec![Vec::new(); 4];
    for &(server, update) in &h.sample_updates {
        split[placement.shard_of(server)].push((server, update));
    }
    let mut streams = split.clone();
    let mut out = Vec::with_capacity(h.sample_updates.len());
    let ns = median_ns(each, || {
        for (stream, from) in streams.iter_mut().zip(&split) {
            stream.clone_from(from);
        }
        timed(|| merge_by_token_into(&mut streams, &mut out))
    });
    metric("sharded.merge_us", "us", ns * 1e-3)
}

/// Two serial services, each with the flows of its half of the
/// servers, and their `ExchangeCore`s: one exchange round per call, one
/// flow swapped before it so the delta filter has something to ship.
/// Also returns shard 0's last frame, the payload for the RTT probes.
fn exchange_probes(
    fabric: &TwoTierClos,
    live: &[(Token, Live)],
    each: Duration,
) -> (Vec<Metric>, Vec<u8>) {
    let cfg = FlowtuneConfig::default();
    let placement = Placement::contiguous(fabric.config().server_count(), 2);
    let mut svcs = [
        AllocatorService::new(fabric, cfg),
        AllocatorService::new(fabric, cfg),
    ];
    for (token, f) in live {
        svcs[placement.shard_of(f.src)]
            .on_message(f.start(*token))
            .expect("live tokens are distinct and in range");
    }
    let mut cores = [ExchangeCore::new(0, 2, 0.0), ExchangeCore::new(1, 2, 0.0)];
    let mut frames = [Vec::new(), Vec::new()];
    let (mut loads, mut hessians, mut prices) = (Vec::new(), Vec::new(), Vec::new());
    let mut round = 0u64;
    let mut victim = 0usize;
    let (mut encode, mut apply, mut install) = (Vec::new(), Vec::new(), Vec::new());
    let mut bytes = Vec::new();
    repeat(each * 4, || {
        round += 1;
        if !live.is_empty() {
            victim = (victim + 7919) % live.len();
            let (token, f) = &live[victim];
            let svc = &mut svcs[placement.shard_of(f.src)];
            svc.on_message(Message::FlowletEnd { token: *token })
                .expect("ends are never rejected");
            svc.on_message(f.start(*token))
                .expect("the token was just freed");
        }
        for (i, svc) in svcs.iter_mut().enumerate() {
            svc.tick();
            svc.link_loads_into(&mut loads);
            svc.link_hessians_into(&mut hessians);
            svc.link_prices_into(&mut prices);
            frames[i].clear();
            let core = &mut cores[i];
            let frame = &mut frames[i];
            encode.push(timed(|| {
                core.begin_round(round, &loads, &hessians, &prices, frame)
            }));
            bytes.push(frame.len() as u64);
        }
        for i in 0..2 {
            let frame = &frames[1 - i];
            let core = &mut cores[i];
            apply.push(timed(|| {
                core.apply_frame(frame).expect("a frame just encoded")
            }));
        }
        for (core, svc) in cores.iter_mut().zip(svcs.iter_mut()) {
            install.push(timed(|| core.install(svc)));
        }
    });
    let metrics = vec![
        metric("exchange.encode_us", "us", median(encode) * 1e-3),
        metric("exchange.apply_us", "us", median(apply) * 1e-3),
        metric("exchange.install_us", "us", median(install) * 1e-3),
        metric("exchange.frame_bytes", "B", median(bytes)),
    ];
    let [frame, _] = frames;
    (metrics, frame)
}

/// Send → receive ping-pong of `frame` between the two halves of a
/// mesh: the floor under a wire round that no codec change can cross.
fn rtt_probes(frame: &[u8], scratch: &Path, each: Duration) -> Vec<Metric> {
    vec![
        metric(
            "net.uds_rtt_us",
            "us",
            rtt_ns(uds_pair(scratch), frame, each) * 1e-3,
        ),
        metric(
            "net.mem_rtt_us",
            "us",
            rtt_ns(mem_mesh(2), frame, each) * 1e-3,
        ),
    ]
}

fn rtt_ns<T: Transport>(mut mesh: Vec<T>, frame: &[u8], each: Duration) -> f64 {
    const WAIT: Duration = Duration::from_secs(5);
    // A one-byte frame tells the echo thread to stop; exchange frames
    // are never shorter than their header.
    const STOP: [u8; 1] = [0];
    assert!(frame.len() > STOP.len());
    let (mut b_tx, mut b_rx) = mesh
        .pop()
        .expect("two peers")
        .split()
        .expect("peer 1 splits");
    let (mut a_tx, mut a_rx) = mesh
        .pop()
        .expect("two peers")
        .split()
        .expect("peer 0 splits");
    std::thread::scope(|s| {
        let echo = s.spawn(move || {
            let mut buf = Vec::new();
            while let Ok(Some(_)) = b_rx[0].recv(&mut buf, WAIT) {
                if buf.len() == STOP.len() || b_tx.send(0, &buf).is_err() {
                    break;
                }
            }
        });
        let mut buf = Vec::new();
        let ns = median_ns(each, || {
            timed(|| {
                a_tx.send(1, frame).expect("send to the echo peer");
                a_rx[0].recv(&mut buf, WAIT).expect("echo arrives")
            })
        });
        a_tx.send(1, &STOP).expect("send the stop frame");
        echo.join().expect("the echo thread does not panic");
        ns
    })
}

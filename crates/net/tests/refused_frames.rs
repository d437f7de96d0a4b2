//! The exchange barrier credits a peer only for a frame it applied.
//!
//! A peer is fresh for a round when a frame of that round from that peer
//! was installed. Two frames must not count:
//!
//! * a frame whose records fail to apply (here a bad record tag after a
//!   valid header) — the row holds whatever came before the bad record,
//!   and a round that installed it as on time would hide the fault;
//! * a frame whose header names another shard than the peer whose link
//!   it arrived on — it would overwrite that other shard's row.
//!
//! Each counts one decode error and leaves its sender a round behind.

use std::time::Duration;

use flowtune::{AllocatorService, ExchangeConfig, ExchangeCore, FlowtuneConfig};
use flowtune_net::{mem_mesh, MemTransport, Sender, ShardPeer, Transport};
use flowtune_topo::{ClosConfig, TwoTierClos};

const ROUND_TIMEOUT: Duration = Duration::from_millis(20);

fn fabric() -> TwoTierClos {
    TwoTierClos::build(ClosConfig::multicore(2, 2, 4))
}

/// Shard 0 of an `n`-peer mem mesh as a peer exchanging every tick, and
/// the other endpoints, unsplit, for the test to forge frames on.
fn mesh(fabric: &TwoTierClos, n: usize) -> (ShardPeer<MemTransport>, Vec<MemTransport>) {
    let cfg = FlowtuneConfig {
        exchange_every: 1,
        ..FlowtuneConfig::default()
    };
    let exchange = ExchangeConfig::from_flowtune(&cfg).round_timeout(ROUND_TIMEOUT);
    let mut endpoints = mem_mesh(n).into_iter();
    let t0 = endpoints.next().expect("mesh endpoint 0");
    let peer = ShardPeer::new(AllocatorService::new(fabric, cfg), t0, exchange)
        .expect("mem transport splits infallibly");
    (peer, endpoints.collect())
}

/// A well-formed round-1 state frame from `shard` of `n` over the
/// fabric's links, with one loaded link.
fn state_frame(fabric: &TwoTierClos, shard: u16, n: usize) -> Vec<u8> {
    let links = fabric.topology().link_count();
    let (mut loads, mut prices) = (vec![0.0; links], vec![0.0; links]);
    loads[0] = 1.0;
    prices[0] = 0.5;
    let mut frame = Vec::new();
    ExchangeCore::new(shard, n, 0.0).begin_round(1, &loads, &[], &prices, &mut frame);
    frame
}

#[test]
fn a_frame_that_fails_to_apply_leaves_its_peer_behind() {
    let fabric = fabric();
    let (mut peer, others) = mesh(&fabric, 2);
    let (mut tx1, _rx1) = others
        .into_iter()
        .next()
        .expect("mesh endpoint 1")
        .split()
        .expect("mem transport splits infallibly");
    let mut frame = state_frame(&fabric, 1, 2);
    frame.push(0xEE);
    tx1.send(0, &frame).expect("mesh send");

    peer.tick().expect("a late peer is not an error");
    assert_eq!(peer.exchange_stats().exchange_decode_errors, 1);
    let wire = peer.wire_stats();
    assert_eq!(wire.rounds_behind(1), Some(1), "{wire:?}");
    assert_eq!(wire.late_rounds, 1);
}

#[test]
fn a_frame_naming_another_shard_is_refused() {
    let fabric = fabric();
    let (mut peer, others) = mesh(&fabric, 3);
    let mut halves: Vec<_> = others
        .into_iter()
        .map(|t| t.split().expect("mem transport splits infallibly"))
        .collect();
    let tx1 = &mut halves[0].0;
    assert_eq!(tx1.shard(), 1);
    // Well formed, but it claims shard 2 and arrives on shard 1's link.
    tx1.send(0, &state_frame(&fabric, 2, 3)).expect("mesh send");

    peer.tick().expect("a late peer is not an error");
    assert_eq!(peer.exchange_stats().exchange_decode_errors, 1);
    let wire = peer.wire_stats();
    assert_eq!(wire.rounds_behind(1), Some(1), "{wire:?}");
    assert_eq!(wire.rounds_behind(2), Some(1), "{wire:?}");
    assert_eq!(wire.late_rounds, 1, "one late round, two late peers");
}

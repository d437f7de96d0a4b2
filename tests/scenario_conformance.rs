//! Differential conformance on a collective scenario (ISSUE 10
//! acceptance): the notification stream of a ring-allreduce run —
//! recorded once from an unsharded oracle via the scenario runner's
//! trace hook — replays bit-for-bit through every control plane:
//!
//! * unsharded `AllocatorService` vs `ShardedService` (1 shard) vs
//!   `PeerCluster` over the in-memory wire (1 peer): the full
//!   unsharded / sharded / wire-cluster chain, exactly equal;
//! * `ShardedService` vs `PeerCluster` under real partitioning (2 and 4
//!   shards, exchange every tick): the wire stays behaviorally
//!   invisible on barrier-synchronized collective churn, whose
//!   admission edges (a whole phase starting the instant the previous
//!   one drains) are sharper than anything the seeded-churn pins feed;
//! * incremental vs full-sweep at `eps = 0` on the same stream.
//!
//! A collective stream cannot be generated per driver — barrier
//! admission depends on when flows complete, so the schedule is an
//! *output* of the oracle run. Replaying the recording is sound exactly
//! because the drivers under test are bit-for-bit equal, which is the
//! property being pinned.

mod common;

use std::time::Duration;

use common::{assert_bit_for_bit, fabric, Replay, StatsCheck};
use flowtune::{
    AllocatorService, ExchangeConfig, FlowtuneConfig, FluidPlane, ScenarioOptions, ShardedService,
};
use flowtune_net::{mem_mesh, MemTransport, PeerCluster, ShardPeer};
use flowtune_workload::ScenarioKind;

/// Records a ring-allreduce stream from an unsharded oracle under `cfg`.
fn recorded_allreduce(cfg: FlowtuneConfig) -> Replay {
    let fabric = fabric();
    let mut ticker = FluidPlane::new(AllocatorService::new(&fabric, cfg));
    let mut scenario = ScenarioKind::AllreduceRing.build(16, 2_000_000);
    let (replay, report) =
        Replay::record(&mut ticker, scenario.as_mut(), &ScenarioOptions::default());
    assert!(!report.truncated, "oracle run blew its tick budget");
    assert_eq!(report.phases.len(), 30, "2(n−1) phases for n = 16");
    assert_eq!(report.stats.starts, 16 * 30);
    assert_eq!(report.stats.ends, 16 * 30, "every flow drained");
    assert!(
        replay.message_count() >= 2 * 16 * 30,
        "a start and an end per flow"
    );
    replay
}

fn mem_cluster(
    fabric: &flowtune_topo::TwoTierClos,
    cfg: FlowtuneConfig,
    shards: usize,
) -> PeerCluster<MemTransport> {
    let exchange = ExchangeConfig::from_flowtune(&cfg).round_timeout(Duration::from_secs(5));
    let peers: Vec<_> = mem_mesh(shards)
        .into_iter()
        .map(|t| {
            ShardPeer::new(AllocatorService::new(fabric, cfg), t, exchange)
                .expect("mem transport splits infallibly")
        })
        .collect();
    PeerCluster::from_peers(peers)
}

#[test]
fn a_collective_stream_is_bit_for_bit_across_unsharded_sharded_and_wire_cluster() {
    let fabric = fabric();
    let cfg = FlowtuneConfig::default();
    let replay = recorded_allreduce(cfg);

    // Unsharded vs sharded.
    let mut plain = AllocatorService::new(&fabric, cfg);
    let mut sharded = ShardedService::new(&fabric, cfg, 1);
    assert_bit_for_bit(
        "allreduce: unsharded vs sharded",
        &replay,
        &mut plain,
        &mut sharded,
        StatsCheck::Exact,
    );

    // Unsharded vs the wire cluster — the same stream crosses the
    // serialized exchange path and stays exactly equal, closing the
    // unsharded ≡ sharded ≡ wire-cluster chain.
    let mut plain = AllocatorService::new(&fabric, cfg);
    let mut cluster = mem_cluster(&fabric, cfg, 1);
    assert_bit_for_bit(
        "allreduce: unsharded vs mem wire cluster",
        &replay,
        &mut plain,
        &mut cluster,
        StatsCheck::Exact,
    );
}

#[test]
fn the_partitioned_planes_match_bit_for_bit_on_collective_churn() {
    let fabric = fabric();
    for shards in [2usize, 4] {
        let cfg = FlowtuneConfig {
            exchange_every: 1,
            ..FlowtuneConfig::default()
        };
        // The stream is recorded under the same config the partitioned
        // planes run, so their tick trajectories see identical inputs.
        let replay = recorded_allreduce(cfg);
        let mut svc = ShardedService::new(&fabric, cfg, shards);
        let mut cluster = mem_cluster(&fabric, cfg, shards);
        assert_bit_for_bit(
            &format!("allreduce: {shards}-shard in-process vs mem wire cluster"),
            &replay,
            &mut svc,
            &mut cluster,
            StatsCheck::Exact,
        );
        let wire = cluster.wire_stats();
        assert!(wire.tx_bytes > 0, "no bytes on the mem wire");
        assert_eq!(wire.tx_frames, wire.rx_frames);
        assert_eq!(wire.late_rounds, 0);
    }
}

#[test]
fn incremental_matches_the_full_sweep_on_a_collective_stream_at_eps_zero() {
    let fabric = fabric();
    let base = FlowtuneConfig::default();
    let replay = recorded_allreduce(base);
    let build = |incremental: bool| {
        let cfg = FlowtuneConfig {
            incremental,
            dirty_eps: 0.0,
            ..base
        };
        AllocatorService::new(&fabric, cfg)
    };
    let mut full = build(false);
    let mut inc = build(true);
    assert_bit_for_bit(
        "allreduce: incremental vs full sweep",
        &replay,
        &mut full,
        &mut inc,
        StatsCheck::MaskedDirty,
    );
}

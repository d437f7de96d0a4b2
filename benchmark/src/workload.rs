//! The five workloads and the control planes they drive.

use std::path::Path;
use std::time::Duration;

use flowtune::{
    AllocatorService, BoxTickDriver, Engine, ExchangeConfig, FlowtuneConfig, ServiceBuilder,
    TickDriver,
};
use flowtune_net::{uds_mesh, PeerCluster, ShardPeer, UdsTransport, WireStats};
use flowtune_proto::Message;
use flowtune_topo::{ClosConfig, TwoTierClos};

use crate::trace::TraceSpec;

/// Which control plane a workload measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlaneKind {
    /// Unsharded serial engine, full sweep every tick.
    Serial,
    /// Unsharded serial engine with dirty-set (incremental) ticks.
    Incremental,
    /// In-process `ShardedService`, four shards ticked sequentially.
    Sharded4,
    /// Two `ShardPeer`s over Unix-domain sockets in a `PeerCluster`.
    Wire2Uds,
}

#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub plane: PlaneKind,
    pub trace: TraceSpec,
    /// Measured rounds per block. Fixed numbers, so the rounds behind a
    /// block statistic are the same on every machine; ≥ 1000 so a block
    /// supports a p99.
    pub rounds_per_block: usize,
}

/// The sharded planes exchange link state every tick.
pub fn is_sharded(kind: PlaneKind) -> bool {
    matches!(kind, PlaneKind::Sharded4 | PlaneKind::Wire2Uds)
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "steady4k",
        plane: PlaneKind::Serial,
        trace: TraceSpec {
            standing: 4096,
            web_load: None,
            swap_every: None,
        },
        rounds_per_block: 1000,
    },
    Workload {
        name: "churn-web",
        plane: PlaneKind::Serial,
        trace: TraceSpec {
            standing: 0,
            web_load: Some(0.8),
            swap_every: None,
        },
        rounds_per_block: 1000,
    },
    Workload {
        name: "quiet100k",
        plane: PlaneKind::Incremental,
        trace: TraceSpec {
            standing: 100_000,
            web_load: None,
            swap_every: Some(256),
        },
        rounds_per_block: 1024,
    },
    Workload {
        name: "shard4",
        plane: PlaneKind::Sharded4,
        trace: TraceSpec {
            standing: 2048,
            web_load: Some(0.2),
            swap_every: None,
        },
        rounds_per_block: 1000,
    },
    Workload {
        name: "wire2uds",
        plane: PlaneKind::Wire2Uds,
        trace: TraceSpec {
            standing: 2048,
            web_load: Some(0.2),
            swap_every: None,
        },
        rounds_per_block: 1000,
    },
];

/// The fabric `service_tick` uses: 4 blocks × 2 racks × 16 servers.
pub fn fabric() -> TwoTierClos {
    TwoTierClos::build(ClosConfig::multicore(4, 2, 16))
}

/// The configuration a plane runs under.
pub fn config(kind: PlaneKind) -> FlowtuneConfig {
    let base = FlowtuneConfig::default();
    match kind {
        PlaneKind::Serial => base,
        PlaneKind::Incremental => FlowtuneConfig {
            incremental: true,
            dirty_eps: 1e-9,
            full_sweep_every: 64,
            ..base
        },
        // Sequential on purpose: four pool threads on two cores would
        // measure the scheduler, not the exchange.
        PlaneKind::Sharded4 | PlaneKind::Wire2Uds => FlowtuneConfig {
            exchange_every: 1,
            parallel_shards: false,
            ..base
        },
    }
}

/// Two connected Unix-socket peers, their socket files bound under
/// `scratch` (a directory inside the checkout) and removed again.
pub fn uds_pair(scratch: &Path) -> Vec<UdsTransport> {
    std::fs::create_dir_all(scratch).expect("create the socket directory");
    let mesh = uds_mesh(scratch, 2).expect("bind and connect two uds peers");
    // The streams are connected; the socket files are done.
    let _ = std::fs::remove_dir_all(scratch);
    mesh
}

/// A control plane under test. Both arms are driven through
/// [`TickDriver`]; the wire arm keeps its concrete type for
/// `try_tick` (a peer failure is a failed operation, not a panic) and
/// `wire_stats`.
#[derive(Debug)]
pub enum Plane {
    Local(BoxTickDriver),
    Wire(Box<PeerCluster<UdsTransport>>),
}

impl Plane {
    /// Builds the plane of `kind` over `fabric`. The wire plane binds
    /// its sockets under `scratch`, a directory inside the checkout.
    pub fn build(kind: PlaneKind, fabric: &TwoTierClos, scratch: &Path) -> Plane {
        let cfg = config(kind);
        let builder: ServiceBuilder = AllocatorService::builder().fabric(fabric).config(cfg);
        match kind {
            PlaneKind::Serial | PlaneKind::Incremental => Plane::Local(
                builder
                    .engine(Engine::Serial)
                    .build_driver()
                    .expect("fabric is set"),
            ),
            PlaneKind::Sharded4 => Plane::Local(
                builder
                    .engine(Engine::Serial.sharded(4))
                    .build_driver()
                    .expect("fabric is set, four shards, no nesting"),
            ),
            PlaneKind::Wire2Uds => {
                let exchange =
                    ExchangeConfig::from_flowtune(&cfg).round_timeout(Duration::from_secs(5));
                let peers = uds_pair(scratch)
                    .into_iter()
                    .map(|t| {
                        ShardPeer::new(AllocatorService::new(fabric, cfg), t, exchange)
                            .expect("a connected mesh splits")
                    })
                    .collect();
                Plane::Wire(Box::new(PeerCluster::from_peers(peers)))
            }
        }
    }

    pub fn driver(&self) -> &dyn TickDriver {
        match self {
            Plane::Local(d) => d,
            Plane::Wire(c) => c.as_ref(),
        }
    }

    pub fn on_message(&mut self, msg: Message) -> Result<(), flowtune::ServiceError> {
        match self {
            Plane::Local(d) => d.on_message(msg),
            Plane::Wire(c) => c.on_message(msg),
        }
    }

    /// One tick. `Err` only from the wire plane, whose update stream of
    /// that tick is lost.
    pub fn tick(&mut self) -> Result<Vec<(u16, Message)>, String> {
        match self {
            Plane::Local(d) => Ok(d.tick()),
            Plane::Wire(c) => c.try_tick().map_err(|e| e.to_string()),
        }
    }

    /// On-wire counters; all zero for the in-process planes.
    pub fn wire_stats(&self) -> WireStats {
        match self {
            Plane::Local(_) => WireStats::default(),
            Plane::Wire(c) => c.wire_stats(),
        }
    }
}

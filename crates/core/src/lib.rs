//! # Flowtune: flowlet control for datacenter networks
//!
//! A from-scratch implementation of the system described in *"Flowtune:
//! Flowlet Control for Datacenter Networks"* (Perry, Balakrishnan, Shah —
//! MIT CSAIL TR 2016-011 / NSDI 2017).
//!
//! Flowtune makes congestion-control decisions at the granularity of a
//! **flowlet** — a batch of packets backlogged at a sender — instead of a
//! packet. Endpoints notify a logically centralized allocator when
//! flowlets start and end; the allocator computes explicit, optimal rates
//! for every flow in the network with the NED optimizer (network utility
//! maximization with an exactly-computed Hessian diagonal), normalizes
//! them with F-NORM so no link is over-allocated, and pushes rate updates
//! back to the endpoints, which pace their traffic accordingly.
//!
//! ## Crate map
//!
//! This crate is the system façade; the machinery lives in focused crates:
//!
//! * [`flowtune_topo`] — two-tier Clos fabrics, paths, allocator blocks;
//! * `flowtune_num` — NED and the baseline NUM optimizers, U/F-NORM;
//! * [`flowtune_alloc`] — the [`RateAllocator`] engine interface and its
//!   implementations: serial reference NED, the §5 multicore
//!   FlowBlock/LinkBlock engine (pool-backed), and the gradient
//!   baseline;
//! * [`flowtune_fastpass`] — the per-packet timeslot arbiter and its
//!   [`RateAllocator`] adapter (the §6.1 comparison baseline);
//! * [`flowtune_proto`] — the 16/4/6-byte control messages.
//!
//! ## Quickstart
//!
//! The allocator is assembled with a builder; the engine — serial NED,
//! multicore NED, Fastpass-style arbitration, or gradient projection —
//! is a run-time choice behind one type ([`AllocatorService`] holds a
//! boxed [`RateAllocator`]), and
//! [`ServiceBuilder::build_driver`] additionally shards the whole
//! control plane ([`Engine::Sharded`] → [`ShardedService`], the one
//! [`router::Router`] over in-process shards; `flowtune-net` runs the
//! same router over shard peers on a wire) behind the [`TickDriver`]
//! interface:
//!
//! ```
//! use flowtune::{AllocatorService, EndpointAgent, Engine, FlowtuneConfig};
//! use flowtune_topo::{ClosConfig, TwoTierClos};
//!
//! // The paper's evaluation fabric: 9 racks × 16 servers, 4 spines.
//! let fabric = TwoTierClos::build(ClosConfig::paper_eval());
//! let mut allocator = AllocatorService::builder()
//!     .fabric(&fabric)
//!     .config(FlowtuneConfig::default())
//!     .engine(Engine::Serial) // or Multicore { workers } / Fastpass
//!     .build()
//!     .expect("fabric was supplied");
//! let mut agent = EndpointAgent::new(0, 144);
//!
//! // Server 0 gets a 1 MB backlog toward server 140: a flowlet starts.
//! let start = agent.on_backlog(7, 140, 1_000_000, 0).unwrap();
//! allocator.on_message(start).expect("token is fresh");
//!
//! // One allocator tick (the paper runs one every 10 µs) produces rate
//! // updates for whoever changed by more than the threshold.
//! let updates = allocator.tick();
//! assert_eq!(updates.len(), 1);
//! for (dst_server, msg) in updates {
//!     assert_eq!(dst_server, 0);
//!     agent.on_rate_update(&msg);
//! }
//! // The only flow in an idle network gets its access line rate, less
//! // the 1% capacity headroom the update threshold reserves (§6.4).
//! let rate = agent.pacing_rate_gbps(7).unwrap();
//! assert!((rate - 9.9).abs() < 1e-2);
//!
//! // Corrupt control input is a reportable condition, not a crash:
//! // replaying the same start is rejected and counted.
//! assert!(allocator.on_message(start).is_err());
//! assert_eq!(allocator.stats().rejected, 1);
//! ```
//!
//! [`RateAllocator`]: flowtune_alloc::RateAllocator

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod driver;
pub mod endpoint;
pub mod exchange;
pub mod flowlet;
pub mod fluid;
pub mod placement;
pub mod router;
pub mod scenario;
pub mod service;
pub mod sharded;
pub mod token;

pub use config::{ExchangeConfig, FlowtuneConfig};
pub use driver::{BoxTickDriver, PhaseTimings, TickDriver};
pub use endpoint::EndpointAgent;
pub use exchange::{ApplyError, ExchangeCore};
pub use flowlet::FlowletTracker;
pub use fluid::{
    add_path_load, overallocation_gbps, worst_oversubscription, Ended, FluidFlows, FluidPlane,
};
pub use placement::{
    ParsePlacementError, Placement, PlacementSpec, TrafficMatrix, PLACEMENT_NAMES,
};
pub use router::merge_by_token_into;
pub use scenario::{
    jain_index, run_scenario, run_scenario_traced, PhaseReport, ScenarioOptions, ScenarioReport,
};
pub use service::{
    AllocatorService, Engine, ParseEngineError, ServiceBuilder, ServiceError, ServiceStats,
    ENGINE_NAMES,
};
pub use sharded::ShardedService;
pub use token::TokenAllocator;

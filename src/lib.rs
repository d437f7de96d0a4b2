//! Workspace root crate.
//!
//! This crate exists only to host the repository-level `examples/` and
//! `tests/` directories; all functionality lives in the `crates/`
//! members. See [`flowtune`] for the main library entry point.
//!
//! ## Crate map
//!
//! * [`flowtune`] (`crates/core`) — the system façade:
//!   `AllocatorService::builder()`, endpoint agents, flowlet tracking;
//! * `flowtune_topo` — two-tier Clos fabrics, ECMP paths, blocks;
//! * `flowtune_num` — NED and the baseline NUM optimizers, U/F-NORM;
//! * `flowtune_alloc` — the one engine, the §5 FlowBlock grid
//!   (`SerialAllocator`): NED or gradient projection on the caller's
//!   thread, and NED on a worker pool for the §6.1 tables;
//! * `flowtune_fastpass` — per-packet timeslot arbiter (the §6.1
//!   throughput baseline, measured by `table_fastpass`);
//! * `flowtune_proto` — the 16/4/6-byte control messages;
//! * `flowtune_sim` — deterministic packet-level simulator;
//! * `flowtune_workload` / `flowtune_bench` — traces and experiment
//!   binaries (all accept `--engine serial|gradient`).
//!
//! ## Quickstart
//!
//! Build an allocator over any engine behind one API:
//!
//! ```
//! use flowtune::{AllocatorService, Engine, FlowtuneConfig};
//! use flowtune_proto::{Message, Token};
//! use flowtune_topo::{ClosConfig, TwoTierClos};
//!
//! let fabric = TwoTierClos::build(ClosConfig::paper_eval());
//! for engine in [Engine::Serial, Engine::Gradient] {
//!     let mut allocator = AllocatorService::builder()
//!         .fabric(&fabric)
//!         .config(FlowtuneConfig::default())
//!         .engine(engine)
//!         .build()
//!         .expect("fabric was supplied");
//!     allocator
//!         .on_message(Message::FlowletStart {
//!             token: Token::new(1),
//!             src: 0,
//!             dst: 140,
//!             size_hint: 1_000_000,
//!             weight_q8: 256,
//!             spine: 1,
//!         })
//!         .expect("token 1 is fresh");
//!     for _ in 0..150 {
//!         allocator.tick();
//!     }
//!     // Whatever the engine, a lone flow converges to ~line rate.
//!     let rate = allocator.flow_rate_gbps(Token::new(1)).unwrap();
//!     assert!(rate > 9.0, "{}: {rate}", allocator.engine_name());
//! }
//! ```

#![forbid(unsafe_code)]

pub use flowtune as core;

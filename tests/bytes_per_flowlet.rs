//! What one standing flowlet costs on each side of the control loop,
//! measured on a plane shaped like flowbench's `quiet100k`: the 128-server
//! `ClosConfig::multicore(4, 2, 16)` fabric, the incremental serial
//! service, 10⁵ flowlets started by 128 `EndpointAgent`s and admitted
//! through `on_message`, then a few ticks whose updates the agents apply.
//!
//! A counting `#[global_allocator]` tracks live heap bytes. Each side is
//! measured by what dropping it frees, so the service's share holds the
//! engine (FlowBlock columns, the dense flow index, the dirty set, the
//! per-link arrays), its flow table and token index and its export
//! scratch, and the agents' share their slabs and indexes. The harness's
//! own buffers are freed before either is measured.
//!
//! The same flowlets are then admitted, one after the other, through a
//! 4-shard `ShardedService` over the same fabric and configuration (its
//! shards ticked on the caller's thread), and the router is measured the
//! same way: its shards' services and engines, its one batch of passers
//! and whatever index of its own it keeps — none, since the shards'
//! token indexes answer for it.
//!
//! Run with `-- --nocapture` to see the split. The bounds are the bytes
//! per flowlet after the dense index, the 52-byte FlowBlock row, the
//! 32-byte agent row, tables that grow by a quarter, an export with no
//! sort buffer of its own, a flow table of export keys and two slot
//! tables in place of std's hashed maps (ARCHITECTURE, "Bytes per
//! flowlet"); their predecessors, 99.0 and 67.5 bytes, fail it. The
//! router's bound fails a router that keeps a token → shard map (std's
//! map of token and shard, 9 B a bucket). This lives in its own
//! integration-test binary so the counter sees nothing but this test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering::Relaxed};

use flowtune::{AllocatorService, EndpointAgent, FlowtuneConfig, ShardedService, TickDriver};
use flowtune_topo::clos::splitmix64;
use flowtune_topo::{ClosConfig, TwoTierClos};

struct Counting;

static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as i64, Relaxed);
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as i64, Relaxed);
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Relaxed);
        // SAFETY: `ptr`, `layout` and `new_size` are the caller's, who
        // guarantees they describe a live `System` block.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn live() -> i64 {
    LIVE_BYTES.load(Relaxed)
}

/// Standing flowlets, as in `quiet100k`.
const FLOWLETS: u64 = 100_000;
/// Ticks after admission: the first lends every flow, the rest re-price.
const TICKS: usize = 4;
/// Bytes a flowlet may cost the service and its engine.
const SERVICE_BOUND: f64 = 95.0;
/// Bytes a flowlet may cost the endpoint agents.
const AGENTS_BOUND: f64 = 53.0;
/// Shards behind the router, as in `shard4`.
const SHARDS: usize = 4;
/// Bytes a flowlet may cost the 4-shard router and its shards.
const ROUTER_BOUND: f64 = 110.0;

#[test]
fn a_standing_flowlet_fits_the_byte_budget_on_both_sides() {
    let fabric = TwoTierClos::build(ClosConfig::multicore(4, 2, 16));
    let clos = fabric.config();
    let servers = clos.server_count();
    // flowbench's incremental plane.
    let cfg = FlowtuneConfig {
        incremental: true,
        dirty_eps: 1e-9,
        full_sweep_every: 64,
        ..FlowtuneConfig::default()
    };
    let before = live();
    let mut svc = AllocatorService::builder()
        .fabric(&fabric)
        .config(cfg)
        .build()
        .expect("fabric is set");
    let mut agents: Vec<EndpointAgent> = (0..servers)
        .map(|s| EndpointAgent::with_config(s as u16, servers, clos.spines, cfg))
        .collect();
    let empty = live() - before;

    // Uniform pairs; a source numbers its flows 0, 1, 2, … as the
    // flowbench trace's per-source slots do.
    let mut next_slot = vec![0u64; servers];
    let mut starts = Vec::with_capacity(FLOWLETS as usize);
    for k in 0..FLOWLETS {
        let draw = splitmix64(k ^ 0x5eed);
        let src = (draw % servers as u64) as usize;
        let dst = ((draw >> 32) % (servers as u64 - 1)) as usize;
        let dst = if dst >= src { dst + 1 } else { dst };
        let flow = (src as u64) << 32 | next_slot[src];
        next_slot[src] += 1;
        let start = agents[src]
            .on_backlog(flow, dst as u16, 1_000_000, 0)
            .expect("a fresh flow starts a flowlet");
        svc.on_message(start).expect("the start is well formed");
        starts.push(start);
    }
    assert_eq!(svc.active_flows(), FLOWLETS as usize);
    let mut updates = Vec::new();
    let mut applied = 0;
    for _ in 0..TICKS {
        svc.tick_into(&mut updates);
        for (server, update) in &updates {
            applied += usize::from(agents[*server as usize].on_rate_update(update).is_some());
        }
    }
    assert!(applied >= FLOWLETS as usize, "every flowlet got a rate");
    drop((updates, next_slot));

    let loaded = live();
    drop(agents);
    let agent_bytes = loaded - live();
    let with_service = live();
    drop(svc);
    let service_bytes = with_service - live();

    // The router, measured alone: the unsharded plane is gone.
    let mut router = ShardedService::new(
        &fabric,
        FlowtuneConfig {
            parallel_shards: false,
            ..cfg
        },
        SHARDS,
    );
    for start in starts.drain(..) {
        router.on_message(start).expect("the start is well formed");
    }
    assert_eq!(router.active_flows(), FLOWLETS as usize);
    let mut updates = Vec::new();
    for _ in 0..TICKS {
        router.tick_into(&mut updates);
    }
    drop((updates, starts));
    let with_router = live();
    drop(router);
    let router_bytes = with_router - live();

    let per = |bytes: i64| bytes as f64 / FLOWLETS as f64;
    println!(
        "bytes per flowlet ({FLOWLETS} flowlets, {servers} agents, {TICKS} ticks; \
         {empty} B before the first start):"
    );
    println!(
        "  service + engine  {:>10} B  {:>6.1} B a flowlet (bound {SERVICE_BOUND})",
        service_bytes,
        per(service_bytes)
    );
    println!(
        "  agents            {:>10} B  {:>6.1} B a flowlet (bound {AGENTS_BOUND})",
        agent_bytes,
        per(agent_bytes)
    );
    println!(
        "  {SHARDS}-shard router    {:>10} B  {:>6.1} B a flowlet (bound {ROUTER_BOUND})",
        router_bytes,
        per(router_bytes)
    );
    assert!(
        per(service_bytes) <= SERVICE_BOUND,
        "the service and its engine hold {:.1} B a flowlet",
        per(service_bytes)
    );
    assert!(
        per(agent_bytes) <= AGENTS_BOUND,
        "the agents hold {:.1} B a flowlet",
        per(agent_bytes)
    );
    assert!(
        per(router_bytes) <= ROUTER_BOUND,
        "the {SHARDS}-shard router holds {:.1} B a flowlet",
        per(router_bytes)
    );
}

//! Pins the steady-state allocation discipline of the hot paths:
//!
//! * an exchange round's encode + decode path (delta-filter, frame
//!   append, record walk, replica update) touches the heap zero times
//!   after warm-up — the frame goes into one flat reusable buffer and
//!   the receiver's replicas are grown once, steady-state rounds only
//!   overwrite;
//! * so does the decoder corpus: every prefix and single-byte
//!   substitution of a peer's frame through `ExchangeCore::apply_frame`
//!   on a warm core, each one refused or applied over rows already
//!   sized;
//! * a quiet allocator service tick (`AllocatorService::tick_into`) —
//!   engine iteration, rate export, update filtering — touches the heap
//!   zero times after warm-up, with the incremental engine on or off,
//!   including the forced link passes every `full_sweep_every` ticks and
//!   `rates_into` reads of every rate — and so does a round of churn,
//!   whose ticks the grid may run as the plain sweep: a `FlowletEnd` and a
//!   `FlowletStart` through `on_message` (hashed indexes, a recycled
//!   slab slot, an inline path) and the tick that reports the newcomer,
//!   whose export borrows the engine's id and rate columns through the
//!   lending drain (one `dyn` hop, the sink's) and
//!   copies nothing but the passers — and so do thousands of such swaps
//!   in a row, long enough for the token index to clear its tombstones
//!   by rehashing in place, more than once. The §5 pool schedule the
//!   §6.1 tables time (`SerialAllocator::multicore` on two threads) is
//!   held to the same: a warmed grid's barrier-pipeline iteration and
//!   drain of changed rates, quiet and across flow swaps;
//! * so does a 4-shard sequential `ShardedService::tick_into` with
//!   an exchange round every tick — shard ticks into recycled per-shard
//!   batches of passers, the filters writing the shared link-state
//!   table, the consensus and installs — quiet, and on rounds that swap
//!   a flowlet in every shard through the router and emit the updates,
//!   where the router has every shard's passers to order;
//! * the endpoint half of the loop: a warmed `EndpointAgent` applies a
//!   round's rate updates (sorted token index, no hash), takes a drain
//!   for every flow, polls without ending any and takes the refills that
//!   keep the flowlets alive, all without touching the heap;
//! * the fluid data plane over a serial service (`FluidPlane::tick` +
//!   `FluidPlane::drain`, the loop under the fig5–7 / 12 / 14 bins): with
//!   the update and retirement buffers warm, a window of steps in which
//!   flowlets run out and are ended — rate reads, the in-place compaction
//!   of the flow table, the `FlowletEnd`s — touches the heap zero times;
//! * a converged peer cluster over the mem transport — send path,
//!   barrier polls, install, the router's emit — recycles every frame
//!   buffer through the links' spare lists and ticks without touching
//!   the heap (`PeerCluster::try_tick_into`), and so does one over Unix
//!   sockets, its reassembly buffers included.
//!
//! A counting `#[global_allocator]` makes the claims checkable without
//! tooling: while the measured window is open it counts every
//! `alloc`/`realloc`/`alloc_zeroed` made by a thread that has marked
//! itself as part of the measured path — the measuring thread for as
//! long as it holds the [`Window`], and any thread that polls a receive
//! half through [`CountedTransport`]. The test harness's own threads (its
//! main thread printing a result, a finished test's thread reporting one)
//! never mark themselves, so they cannot dirty another test's window.
//! This lives in its own integration-test binary so the counter sees
//! nothing but these tests.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use flowtune::{
    AllocatorService, EndpointAgent, Engine, ExchangeCore, FlowtuneConfig, FluidPlane,
    ShardedService, TickDriver,
};
use flowtune_alloc::{AllocConfig, SerialAllocator};
use flowtune_proto::{Message, Rate16, Token};
use flowtune_topo::{ClosConfig, FlowId, TwoTierClos};

struct CountingAlloc;

static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Whether this thread's heap calls belong to the measured path.
    /// Const-initialized and without a destructor, so reading it from
    /// inside the allocator neither allocates nor fails at thread exit.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if ENABLED.load(Ordering::Relaxed) && COUNTED.with(Cell::get) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const LINKS: usize = 48;
const WARM_ROUNDS: u64 = 5;
const MEASURED_ROUNDS: u64 = 50;
/// Flowlet swaps before the counted ones, and counted.
const SWAP_WARM: usize = 1_000;
const SWAPS: usize = 4_000;
/// Swaps between two ticks in the swap loop.
const SWAP_TICK: usize = 8;

/// The counter window is process-global, so tests that open it must not
/// overlap (cargo runs `#[test]`s concurrently by default).
static WINDOW: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// A test's turn at the counter: holds [`WINDOW`] and marks the test's
/// thread as counted until dropped — before the thread goes on to report
/// its result into the next test's window.
struct Window {
    _guard: std::sync::MutexGuard<'static, ()>,
}

impl Window {
    fn lock() -> Self {
        let _guard = WINDOW.lock().unwrap();
        COUNTED.with(|c| c.set(true));
        Window { _guard }
    }
}

impl Drop for Window {
    fn drop(&mut self) {
        COUNTED.with(|c| c.set(false));
    }
}

#[test]
fn steady_state_exchange_round_allocates_nothing() {
    let _window = Window::lock();
    let mut a = ExchangeCore::new(0, 2, 0.0);
    let mut b = ExchangeCore::new(1, 2, 0.0);

    let mut loads_a = vec![1.0f64; LINKS];
    let mut loads_b = vec![2.0f64; LINKS];
    // A Hessian diagonal is a sum of `-x²/w`: never positive, and a
    // frame that carries a positive one is refused.
    let hessians: Vec<f64> = vec![-0.5; LINKS];
    let prices: Vec<f64> = vec![0.25; LINKS];

    // One generously pre-reserved flat buffer per side — the same
    // discipline ShardPeer and ShardedService use.
    let mut frame_a: Vec<u8> = Vec::with_capacity(64 * 1024);
    let mut frame_b: Vec<u8> = Vec::with_capacity(64 * 1024);

    let mut round = 0u64;
    let mut exchange = |a: &mut ExchangeCore,
                        b: &mut ExchangeCore,
                        loads_a: &[f64],
                        loads_b: &[f64],
                        frame_a: &mut Vec<u8>,
                        frame_b: &mut Vec<u8>| {
        round += 1;
        frame_a.clear();
        frame_b.clear();
        a.begin_round(round, loads_a, &hessians, &prices, frame_a);
        b.begin_round(round, loads_b, &hessians, &prices, frame_b);
        a.apply_frame(frame_b).expect("peer frame decodes");
        b.apply_frame(frame_a).expect("peer frame decodes");
    };

    // Warm-up: first rounds size the last-shipped tables, the replicas
    // and the frame buffers.
    for r in 0..WARM_ROUNDS {
        for load in loads_a.iter_mut().chain(loads_b.iter_mut()) {
            *load += 0.01 * (r + 1) as f64;
        }
        exchange(
            &mut a,
            &mut b,
            &loads_a,
            &loads_b,
            &mut frame_a,
            &mut frame_b,
        );
    }

    // Measured window: every load moves every round, so every entry is
    // re-shipped — the worst case for the encode path.
    ALLOCS.store(0, Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
    for r in 0..MEASURED_ROUNDS {
        for load in loads_a.iter_mut().chain(loads_b.iter_mut()) {
            *load += 0.001 * (r + 1) as f64;
        }
        exchange(
            &mut a,
            &mut b,
            &loads_a,
            &loads_b,
            &mut frame_a,
            &mut frame_b,
        );
    }
    ENABLED.store(false, Ordering::Relaxed);

    let allocs = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(
        allocs, 0,
        "steady-state exchange rounds must not allocate ({allocs} allocations over {MEASURED_ROUNDS} rounds)"
    );
}

#[test]
fn every_prefix_and_byte_substitution_of_a_peer_frame_allocates_nothing() {
    let _window = Window::lock();
    // Second-order (NED) frames carry Hessians, first-order (gradient)
    // ones do not; a flipped flags byte must not size a Hessian row for
    // the latter.
    for second_order in [true, false] {
        decoder_corpus_allocates_nothing(second_order);
    }
}

fn decoder_corpus_allocates_nothing(second_order: bool) {
    const FRAME_LINKS: usize = 6;
    // Shard `shard`'s first-round frame: a mix of loaded, priced-only and
    // idle links, so it carries subscriptions and state records.
    let frame_of = |core: &mut ExchangeCore, shard: u16| {
        let scale = 1.0 + f64::from(shard);
        let loads: Vec<f64> = (0..FRAME_LINKS).map(|l| (l % 3) as f64 * scale).collect();
        let hessians: Vec<f64> = if second_order {
            loads.iter().map(|x| -0.5 * x).collect()
        } else {
            Vec::new()
        };
        let prices: Vec<f64> = (0..FRAME_LINKS)
            .map(|l| (l % 2) as f64 * 0.25 * scale)
            .collect();
        let mut frame = Vec::new();
        core.begin_round(1, &loads, &hessians, &prices, &mut frame);
        frame
    };
    // The warm receiver: its own round begun, each remote row sized by
    // one good frame.
    let mut core = ExchangeCore::new(0, 3, 0.0);
    frame_of(&mut core, 0);
    let frames = [1, 2].map(|shard| frame_of(&mut ExchangeCore::new(shard, 3, 0.0), shard));
    for frame in &frames {
        core.apply_frame(frame).expect("a good frame applies");
    }

    let frame = &frames[0];
    let mut mutated = frame.clone();
    // The first mutation that allocated, if any: a fixed slot, so that
    // recording it cannot allocate.
    let mut first = None;
    let mut check = |what: (usize, Option<u8>)| {
        if first.is_none() && ALLOCS.load(Ordering::Relaxed) > 0 {
            first = Some(what);
        }
    };
    ALLOCS.store(0, Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
    for cut in 0..=frame.len() {
        let _ = core.apply_frame(&frame[..cut]);
        check((cut, None));
    }
    for at in 0..frame.len() {
        for byte in (0..=u8::MAX).filter(|&b| b != frame[at]) {
            mutated[at] = byte;
            let _ = core.apply_frame(&mutated);
            check((at, Some(byte)));
        }
        mutated[at] = frame[at];
    }
    ENABLED.store(false, Ordering::Relaxed);

    let allocs = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(
        allocs, 0,
        "the decoder corpus must not allocate (second order: {second_order}; {allocs} \
         allocations, the first at (prefix length or offset, substituted byte) = {first:?})"
    );
}

#[test]
fn steady_state_allocator_tick_allocates_nothing() {
    let _window = Window::lock();
    let fabric = TwoTierClos::build(ClosConfig::multicore(2, 2, 4));
    // The gradient grid runs the caller-thread schedule under its own
    // price rule.
    for engine in [Engine::Serial, Engine::Gradient] {
        for incremental in [true, false] {
            let cfg = FlowtuneConfig {
                incremental,
                // Small cadence so the measured window provably crosses
                // full-sweep ticks — the worst case for the export path
                // (every worker drains) must be allocation-free too.
                full_sweep_every: 8,
                ..FlowtuneConfig::default()
            };
            // Built as the planes build it: the service holds the grid
            // itself, and the drain's sink is its one `dyn FnMut` hop.
            let builder = AllocatorService::builder()
                .fabric(&fabric)
                .config(cfg)
                .engine(engine.clone());
            allocator_ticks_allocate_nothing(
                builder.build().expect("fabric is set"),
                &fabric,
                &format!("{engine:?}, incremental={incremental}"),
            );
        }
    }
    pool_iterations_allocate_nothing(&fabric);
}

/// The grid on its pool schedule, as `table_multicore` and
/// `table_fastpass` run it: the barrier pipeline on the caller's thread
/// and one pool thread, then the drain a service would take. Only the
/// caller's thread is counted, as for every other window here.
fn pool_iterations_allocate_nothing(fabric: &TwoTierClos) {
    let mut grid = SerialAllocator::multicore(fabric, AllocConfig::default(), 2);
    assert_eq!(grid.threads(), 2);
    let add = |grid: &mut SerialAllocator, id: u64, src: usize, k: usize| {
        let dst = (src + 5 + 3 * k) % 16;
        let id = FlowId(id);
        grid.add_flow(id, src, dst, 1.0, &fabric.path(src, dst, id));
    };
    for src in 0..16 {
        for k in 0..2 {
            add(&mut grid, (src * 2 + k) as u64, src, k);
        }
    }
    // One iteration and its drain; returns how many rates it lent.
    let step = |grid: &mut SerialAllocator| {
        grid.iterate();
        let mut lent = 0;
        grid.drain_changed_rates(0.01, &mut |ids, _| lent += ids.len());
        lent
    };
    // Warm-up: converge, build the pool and size its views and scratch.
    for _ in 0..300 {
        step(&mut grid);
    }
    let mut rates = Vec::new();
    grid.rates_into(&mut rates);
    assert_eq!(rates.len(), 32);

    ALLOCS.store(0, Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
    for _ in 0..MEASURED_ROUNDS {
        step(&mut grid);
        grid.rates_into(&mut rates);
    }
    ENABLED.store(false, Ordering::Relaxed);
    let allocs = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(
        allocs, 0,
        "pool iterations must not allocate ({allocs} over {MEASURED_ROUNDS})"
    );

    // A flow swapped for a fresh id every round: the first two swaps
    // warm the worker's free slots; after them nothing may touch the
    // heap.
    for round in 0..8usize {
        if round == 2 {
            ALLOCS.store(0, Ordering::Relaxed);
        }
        ENABLED.store(true, Ordering::Relaxed);
        assert!(grid.remove_flow(FlowId((round * 2) as u64)));
        add(&mut grid, 100 + round as u64, round, 0);
        let lent = step(&mut grid);
        ENABLED.store(false, Ordering::Relaxed);
        assert!(lent > 0, "the newcomer's first rate is lent");
    }
    let allocs = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(
        allocs, 0,
        "a flow swap and the pool iteration after it must not allocate \
         ({allocs} allocations over 6 rounds)"
    );
}

fn allocator_ticks_allocate_nothing(mut svc: AllocatorService, fabric: &TwoTierClos, what: &str) {
    let start = |token: u32, src: u16, k: u16| {
        let dst = (src + 5 + 3 * k) % 16;
        let id = flowtune_topo::FlowId(u64::from(token));
        Message::FlowletStart {
            token: Token::new(token),
            src,
            dst,
            size_hint: 1_000_000,
            weight_q8: 256,
            spine: fabric.ecmp_spine(src as usize, dst as usize, id) as u8,
        }
    };
    for src in 0..16u16 {
        for k in 0..2u16 {
            svc.on_message(start(u32::from(src * 2 + k) + 1, src, k))
                .unwrap();
        }
    }
    let mut rates = Vec::new();
    let mut updates = Vec::new();
    // Warm-up: converge the trajectory (so ticks are quiet and the
    // update filter suppresses everything) and size every reusable
    // buffer — passer scratch, the caller's vecs.
    for _ in 0..300 {
        svc.tick_into(&mut updates);
    }
    svc.rates_into(&mut rates);
    assert_eq!(rates.len(), 32);

    ALLOCS.store(0, Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
    for _ in 0..MEASURED_ROUNDS {
        svc.tick_into(&mut updates);
        assert!(updates.is_empty(), "quiet ticks must suppress updates");
        svc.rates_into(&mut rates);
    }
    ENABLED.store(false, Ordering::Relaxed);

    let allocs = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(
        allocs, 0,
        "steady-state allocator ticks must not allocate \
         ({what}: {allocs} allocations over {MEASURED_ROUNDS} ticks)"
    );
    assert_eq!(rates.len(), 32);

    // Churn, intake included: one flow is swapped for a fresh token
    // inside the window — the end frees a slab slot, an index entry and
    // an engine row, the start takes them back and builds its path
    // inline — so the next tick's drain lends a FlowBlock holding a flow
    // with no last-sent rate, and its neighbours' rates move. The first
    // two swaps warm the free list, the passer scratch and `updates`;
    // after them nothing may touch the heap.
    for round in 0..8u16 {
        if round == 2 {
            ALLOCS.store(0, Ordering::Relaxed);
        }
        let (old, new) = (u32::from(round * 2) + 1, u32::from(round) + 101);
        let end = Message::FlowletEnd {
            token: Token::new(old),
        };
        let begin = start(new, round, 0);
        ENABLED.store(true, Ordering::Relaxed);
        svc.on_message(end).unwrap();
        svc.on_message(begin).unwrap();
        svc.tick_into(&mut updates);
        ENABLED.store(false, Ordering::Relaxed);
        assert!(!updates.is_empty(), "the newcomer's first rate is sent");
    }
    let allocs = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(
        allocs, 0,
        "a flowlet swap and the tick that reports it must not allocate \
         ({what}: {allocs} allocations over 6 rounds)"
    );

    // Thousands of swaps between the same endpoints: a live token ends
    // and a fresh one starts with its source and destination, a tick every
    // `SWAP_TICK` swaps. The token index's removals leave tombstones that
    // use up its growth budget again and again, at 48 live flows a few
    // hundred swaps apart; each time the index must rehash in place, in
    // the buckets it has. The warm-up lets a table past half full grow
    // once, as std's map does; after it nothing may touch the heap.
    let mut live: Vec<(u32, u16, u16)> = (0..16u16)
        .flat_map(|src| (0..2u16).map(move |k| (u32::from(src * 2 + k) + 1, src, k)))
        .map(|(token, src, k)| match token {
            t if t % 2 == 1 && t < 16 => (u32::from(src) + 101, src, k),
            _ => (token, src, k),
        })
        .collect();
    for src in 0..16u16 {
        let token = u32::from(src) + 201;
        svc.on_message(start(token, src, 2)).unwrap();
        live.push((token, src, 2));
    }
    assert_eq!(svc.active_flows(), live.len());
    for swap in 0..SWAP_WARM + SWAPS {
        let next = 1_000 + swap as u32;
        if swap == SWAP_WARM {
            ALLOCS.store(0, Ordering::Relaxed);
        }
        // An odd stride walks every live flow, in no fixed order.
        let at = swap * 7 % live.len();
        let (old, src, k) = live[at];
        ENABLED.store(swap >= SWAP_WARM, Ordering::Relaxed);
        svc.on_message(Message::FlowletEnd {
            token: Token::new(old),
        })
        .unwrap();
        svc.on_message(start(next, src, k)).unwrap();
        if swap % SWAP_TICK == 0 {
            svc.tick_into(&mut updates);
        }
        ENABLED.store(false, Ordering::Relaxed);
        live[at] = (next, src, k);
    }
    assert_eq!(svc.active_flows(), live.len());
    let allocs = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(
        allocs, 0,
        "swaps after a warm-up of {SWAP_WARM} must not allocate \
         ({what}: {allocs} allocations over {SWAPS} swaps)"
    );
}

#[test]
fn steady_state_endpoint_agent_allocates_nothing() {
    let _window = Window::lock();
    const FLOWS: u64 = 32;
    let idle_ps = FlowtuneConfig::default().flowlet_idle_ps;
    let mut agent = EndpointAgent::new(3, 144);
    let updates: Vec<Message> = (0..FLOWS)
        .map(|flow| {
            let start = agent.on_backlog(flow, 100, 1_000_000, 0);
            let Some(Message::FlowletStart { token, .. }) = start else {
                panic!("flow {flow} did not start a flowlet");
            };
            Message::RateUpdate {
                token,
                rate: Rate16::encode(1.0 + flow as f64),
            }
        })
        .collect();

    // What a server does between two flowlet boundaries: the allocator's
    // updates arrive in token order, every queue runs empty, the clock
    // poll finds no flowlet idle for long enough, and data refills the
    // queues before one is. The first round sizes the draining list.
    for round in 0..=MEASURED_ROUNDS {
        if round == 1 {
            ALLOCS.store(0, Ordering::Relaxed);
            ENABLED.store(true, Ordering::Relaxed);
        }
        let now_ps = round * idle_ps;
        for update in &updates {
            assert!(agent.on_rate_update(update).is_some());
        }
        for flow in 0..FLOWS {
            agent.on_drained(flow, now_ps);
        }
        assert!(agent.poll(now_ps + idle_ps - 1).is_empty());
        assert_eq!(agent.next_deadline_ps(), Some(now_ps + idle_ps));
        for flow in 0..FLOWS {
            let refill = agent.on_backlog(flow, 100, 1_000, now_ps + idle_ps - 1);
            assert!(refill.is_none(), "a refill continues the flowlet");
        }
    }
    ENABLED.store(false, Ordering::Relaxed);

    let allocs = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(
        allocs, 0,
        "a warmed endpoint agent must not allocate between flowlet boundaries \
         ({allocs} allocations over {MEASURED_ROUNDS} rounds)"
    );
}

#[test]
fn warmed_fluid_plane_steps_allocate_nothing_while_flowlets_end() {
    let _window = Window::lock();
    let fabric = TwoTierClos::build(ClosConfig::paper_eval());
    let cfg = FlowtuneConfig::default();
    let mut plane = FluidPlane::new(AllocatorService::new(&fabric, cfg));
    // Disjoint pairs inside a rack (no shared uplink), so every flowlet
    // runs at its 9.9 Gbit/s line share, 12 375 bytes a tick. A first
    // generation of one-byte flowlets ends together on one step — sizing
    // the retirement buffer and the service's free lists past anything
    // the window sees — and a second runs out one or two a step from the
    // tenth step on.
    let pair = |i: u16| {
        let src = i / 8 * 16 + i % 8;
        (src, src + 8)
    };
    for i in 0..40 {
        let (src, dst) = pair(i);
        plane.start(src, dst, 1, 256, None);
    }
    plane.tick();
    assert_eq!(plane.drain(|_, _| {}).len(), 40);
    for i in 0..40 {
        let (src, dst) = pair(i);
        plane.start(src, dst, (10 + i as u64) * 12_000, 256, None);
    }
    let mut ended_in_window = 0;
    for step in 0..MEASURED_ROUNDS {
        if step == WARM_ROUNDS {
            ALLOCS.store(0, Ordering::Relaxed);
            ENABLED.store(true, Ordering::Relaxed);
        }
        plane.tick();
        let ended = plane.drain(|_, _| {}).len();
        if step >= WARM_ROUNDS {
            ended_in_window += ended;
        }
    }
    ENABLED.store(false, Ordering::Relaxed);

    assert_eq!(ended_in_window, 40, "every staggered flowlet ran out");
    assert!(plane.flows().is_empty());
    let allocs = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(
        allocs,
        0,
        "a warmed fluid plane must not allocate while flowlets end and none start \
         ({allocs} allocations over {} steps)",
        MEASURED_ROUNDS - WARM_ROUNDS
    );
}

#[test]
fn steady_state_sharded_tick_allocates_nothing() {
    let _window = Window::lock();
    // 4 blocks, so each of the 4 shards owns one; every flow crosses to
    // the next block, so the exchange has shared links to ship.
    let fabric = TwoTierClos::build(ClosConfig::multicore(4, 2, 4));
    let cfg = FlowtuneConfig {
        exchange_every: 1,
        // Sequential on purpose: the pool's handoff is not what this
        // pins, and the outputs are identical either way.
        parallel_shards: false,
        ..FlowtuneConfig::default()
    };
    let mut svc = ShardedService::new(&fabric, cfg, 4);
    let start = |token: u32, src: u16| {
        let dst = (src + 8) % 32;
        let spine = fabric.ecmp_spine(
            src as usize,
            dst as usize,
            flowtune_topo::FlowId(u64::from(token)),
        );
        Message::FlowletStart {
            token: Token::new(token),
            src,
            dst,
            size_hint: 1_000_000,
            weight_q8: 256,
            spine: spine as u8,
        }
    };
    for src in 0..32u16 {
        svc.on_message(start(u32::from(src) + 1, src)).unwrap();
    }
    let mut out = Vec::new();
    // Warm-up: converge, and size the per-shard update buffers, the
    // link-state scratch and the exchange's table rows.
    for _ in 0..400 {
        svc.tick_into(&mut out);
    }
    let rounds_before = svc.stats().exchange_rounds;

    ALLOCS.store(0, Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
    for _ in 0..MEASURED_ROUNDS {
        svc.tick_into(&mut out);
        assert!(out.is_empty(), "quiet sharded ticks must suppress updates");
    }
    ENABLED.store(false, Ordering::Relaxed);

    let allocs = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(
        allocs, 0,
        "steady-state sharded ticks must not allocate \
         ({allocs} allocations over {MEASURED_ROUNDS} ticks)"
    );
    assert_eq!(
        svc.stats().exchange_rounds - rounds_before,
        MEASURED_ROUNDS,
        "every measured tick ran an exchange round"
    );

    // Churn, intake included: one flow per shard is swapped for a fresh
    // token inside the window (the shard that holds a token answers its
    // end, and the placement's shard its start), so the next tick sends
    // four first rates, one in each shard's batch, for the router's one
    // emit to interleave.
    // The first two rounds warm the batches and the emit's scratch; from
    // the third on nothing may touch the heap.
    for round in 0..8u16 {
        if round == 2 {
            ALLOCS.store(0, Ordering::Relaxed);
        }
        ENABLED.store(true, Ordering::Relaxed);
        for shard in 0..4u16 {
            let src = shard * 8 + round;
            svc.on_message(Message::FlowletEnd {
                token: Token::new(u32::from(src) + 1),
            })
            .unwrap();
            svc.on_message(start(u32::from(src) + 101, src)).unwrap();
        }
        svc.tick_into(&mut out);
        ENABLED.store(false, Ordering::Relaxed);
        assert!(out.len() >= 4, "every shard sends its newcomer's rate");
    }
    let allocs = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(
        allocs, 0,
        "sharded swaps and the ticks that report them must not allocate \
         ({allocs} allocations over 6 rounds)"
    );
}

/// A mem-mesh endpoint whose receive halves mark the thread that polls
/// them as counted: whichever thread polls a receive half is on the
/// measured path, and this is the one seam it crosses in test code.
#[derive(Debug)]
struct CountedTransport(flowtune_net::MemTransport);

#[derive(Debug)]
struct CountedReceiver(flowtune_net::MemReceiver);

impl flowtune_net::Transport for CountedTransport {
    type Tx = flowtune_net::MemSender;
    type Rx = CountedReceiver;

    fn shard(&self) -> u16 {
        self.0.shard()
    }

    fn peers(&self) -> usize {
        self.0.peers()
    }

    fn split(self) -> std::io::Result<(Self::Tx, Vec<CountedReceiver>)> {
        let (tx, rxs) = self.0.split()?;
        Ok((tx, rxs.into_iter().map(CountedReceiver).collect()))
    }
}

impl flowtune_net::Receiver for CountedReceiver {
    fn remote_peer(&self) -> u16 {
        self.0.remote_peer()
    }

    fn recv(
        &mut self,
        buf: &mut Vec<u8>,
        timeout: std::time::Duration,
    ) -> std::io::Result<Option<u64>> {
        COUNTED.with(|c| c.set(true));
        self.0.recv(buf, timeout)
    }
}

#[test]
fn steady_state_peer_cluster_tick_allocates_nothing() {
    use std::time::Duration;

    use flowtune::ExchangeConfig;
    use flowtune_net::{mem_mesh, PeerCluster, ShardPeer};
    use flowtune_topo::FlowId;

    let _window = Window::lock();
    let fabric = TwoTierClos::build(ClosConfig::multicore(2, 2, 4));
    let cfg = FlowtuneConfig {
        exchange_every: 1,
        ..FlowtuneConfig::default()
    };
    let exchange = ExchangeConfig::from_flowtune(&cfg).round_timeout(Duration::from_secs(5));
    let peers: Vec<_> = mem_mesh(2)
        .into_iter()
        .map(|t| {
            ShardPeer::new(
                AllocatorService::new(&fabric, cfg),
                CountedTransport(t),
                exchange,
            )
            .expect("mem transport splits infallibly")
        })
        .collect();
    let mut cluster = PeerCluster::from_peers(peers);
    let mut token = 0u32;
    for src in 0..16u16 {
        let dst = (src + 5) % 16;
        token += 1;
        let spine = fabric.ecmp_spine(src as usize, dst as usize, FlowId(token as u64));
        cluster
            .on_message(Message::FlowletStart {
                token: Token::new(token),
                src,
                dst,
                size_hint: 1_000_000,
                weight_q8: 256,
                spine: spine as u8,
            })
            .unwrap();
    }
    let mut out = Vec::new();
    // Warm-up: converge (quiet ticks, empty update streams) and size
    // every reusable buffer — frame scratch, the mesh's queues and the
    // spare buffers they hand back, the barrier's receive buffer.
    for _ in 0..300 {
        cluster.try_tick_into(&mut out).expect("warm-up tick");
    }

    ALLOCS.store(0, Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
    for _ in 0..MEASURED_ROUNDS {
        cluster.try_tick_into(&mut out).expect("measured tick");
        assert!(out.is_empty(), "quiet cluster ticks must suppress updates");
    }
    ENABLED.store(false, Ordering::Relaxed);

    let allocs = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(
        allocs, 0,
        "steady-state peer cluster ticks must not allocate \
         ({allocs} allocations over {MEASURED_ROUNDS} ticks)"
    );
}

#[test]
fn steady_state_uds_peer_cluster_tick_allocates_nothing() {
    use std::time::Duration;

    use flowtune::ExchangeConfig;
    use flowtune_net::{uds_mesh, PeerCluster, ShardPeer};
    use flowtune_topo::FlowId;

    let _window = Window::lock();
    let fabric = TwoTierClos::build(ClosConfig::multicore(2, 2, 4));
    let cfg = FlowtuneConfig {
        exchange_every: 1,
        ..FlowtuneConfig::default()
    };
    let exchange = ExchangeConfig::from_flowtune(&cfg).round_timeout(Duration::from_secs(5));
    let dir = std::env::temp_dir().join(format!("flowtune-zero-alloc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mesh = uds_mesh(&dir, 2).expect("bind and connect two uds peers");
    let _ = std::fs::remove_dir_all(&dir);
    let peers: Vec<_> = mesh
        .into_iter()
        .map(|t| ShardPeer::new(AllocatorService::new(&fabric, cfg), t, exchange).unwrap())
        .collect();
    let mut cluster = PeerCluster::from_peers(peers);
    for src in 0..16u16 {
        let (token, dst) = (u32::from(src) + 1, (src + 5) % 16);
        let spine = fabric.ecmp_spine(src as usize, dst as usize, FlowId(u64::from(token)));
        cluster
            .on_message(Message::FlowletStart {
                token: Token::new(token),
                src,
                dst,
                size_hint: 1_000_000,
                weight_q8: 256,
                spine: spine as u8,
            })
            .unwrap();
    }
    let mut out = Vec::new();
    // Warm-up: converge, and size the frame scratch, the buffer each
    // barrier reads into and the sockets' reassembly buffers.
    for _ in 0..300 {
        cluster.try_tick_into(&mut out).expect("warm-up tick");
    }
    let frames_before = cluster.wire_stats().rx_frames;

    ALLOCS.store(0, Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
    for _ in 0..MEASURED_ROUNDS {
        cluster.try_tick_into(&mut out).expect("measured tick");
        assert!(out.is_empty(), "quiet cluster ticks must suppress updates");
    }
    ENABLED.store(false, Ordering::Relaxed);

    let allocs = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(
        allocs, 0,
        "steady-state peer cluster ticks over Unix sockets must not allocate \
         ({allocs} allocations over {MEASURED_ROUNDS} ticks)"
    );
    assert_eq!(
        cluster.wire_stats().rx_frames - frames_before,
        2 * MEASURED_ROUNDS,
        "every measured tick read a frame off each socket"
    );
}

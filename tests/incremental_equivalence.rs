//! Incremental-vs-full tick equivalence.
//!
//! The contract of the incremental tick (`FlowtuneConfig::incremental`)
//! is layered:
//!
//! * at `dirty_eps = 0` it is the full sweep — bit-for-bit: same update
//!   stream every tick, same final rates, same aggregate counters (the
//!   dirty-set telemetry aside, which the full sweep doesn't keep) —
//!   under either price rule (NED and gradient), across shard counts,
//!   exchange cadences, and churn schedules;
//! * at `dirty_eps > 0` it may skip recomputes whose inputs moved less
//!   than `eps`, so rates can diverge from the full sweep — but only
//!   boundedly, `O(eps)`: every flow reads prices within the relative
//!   rule of the ones it last read, and the periodic forced pass of the
//!   link phases (`full_sweep_every`) applies the residual quiet ticks
//!   hold back;
//! * flow intake dirties exactly the traversed links: an add or remove
//!   marks the links of that flow's path, nothing else (property-tested
//!   under random endpoint pairs);
//! * a converged plane's quiet tick is `O(changed)`: once it has
//!   settled, no tick re-runs a flow or emits anything, the forced pass
//!   of the link phases every `full_sweep_every` ticks included — pinned
//!   as counts, so it holds on any machine.
//!
//! The replay/assert skeleton lives in `tests/common` (the differential
//! conformance harness); this file owns only what varies per pin.

mod common;

use common::{assert_bit_for_bit, fabric, start, xorshift, Replay, StatsCheck};
use flowtune::{AllocatorService, Engine, FlowtuneConfig, TickDriver};
use flowtune_topo::{ClosConfig, TwoTierClos};
use proptest::prelude::*;

#[test]
fn incremental_is_bit_for_bit_the_full_sweep_at_eps_zero() {
    let fabric = fabric();
    for engine in [Engine::Serial, Engine::Gradient] {
        let name = engine.name();
        for shards in [1usize, 2, 4] {
            for exchange_every in [0u64, 1] {
                for seed in [1u64, 7, 42] {
                    let build = |incremental: bool| {
                        let cfg = FlowtuneConfig {
                            exchange_every,
                            incremental,
                            dirty_eps: 0.0,
                            ..FlowtuneConfig::default()
                        };
                        AllocatorService::builder()
                            .fabric(&fabric)
                            .config(cfg)
                            .engine(engine.clone().sharded(shards))
                            .build_driver()
                            .expect("a shardable engine over a set fabric")
                    };
                    let mut inc = build(true);
                    let mut full = build(false);
                    let replay = Replay::churn(&fabric, seed, 120);
                    let at =
                        format!("{name}, {shards} shards, exchange {exchange_every}, seed {seed}");
                    assert_bit_for_bit(
                        &format!("incremental vs full sweep, {at}"),
                        &replay,
                        &mut full,
                        &mut inc,
                        StatsCheck::MaskedDirty,
                    );
                    // The incremental run did skip work — the equivalence
                    // is not vacuous. A 120-tick full sweep would re-run
                    // every live flow's rate pass every tick; the dirty
                    // counter must come in strictly below that.
                    let live = replay.live_tokens();
                    let full_work: u64 = full.stats().iterations * live.len() as u64;
                    assert!(
                        inc.stats().dirty_flows < full_work || live.is_empty(),
                        "{at}: dirty_flows {} never skipped anything (full would be {full_work})",
                        inc.stats().dirty_flows,
                    );
                }
            }
        }
    }
}

#[test]
fn eps_divergence_is_bounded_and_sweep_cadence_caps_drift() {
    // With a positive dirty eps the incremental engine may hold a flow's
    // rate at a value computed from stale prices, so its rates drift
    // from the full sweep's — the acceptance criterion is that the drift
    // stays bounded at every sweep cadence, not that it vanishes.
    // Constant: a price re-dirties its flows once it moves by more than
    // a quarter `Rate16` step (2⁻¹³) relative to what they last read, or
    // by eps where that is larger (not on these priced links). Every
    // link of a path is then within 2⁻¹³ relative, so is the path price
    // λ, and so is a log-utility rate x = w/λ: ≈ 2.2·10⁻³ Gbit/s on the
    // ~18 Gbit/s flows here. 10⁴×eps = 10⁻² Gbit/s leaves ≈ 4.5× headroom
    // while still catching unbounded drift (which compounds per tick and
    // would blow through any fixed multiple within the 500 ticks).
    let fabric = fabric();
    let eps = 1e-6;
    for full_sweep_every in [4u64, 16, 64] {
        let build = |incremental: bool| {
            let cfg = FlowtuneConfig {
                incremental,
                dirty_eps: if incremental { eps } else { 0.0 },
                full_sweep_every,
                ..FlowtuneConfig::default()
            };
            AllocatorService::new(&fabric, cfg)
        };
        let mut inc = build(true);
        let mut full = build(false);
        let mut token = 0u32;
        let mut live = Vec::new();
        for src in 0..16u16 {
            for k in 0..2u16 {
                let dst = (src + 5 + 3 * k) % 16;
                token += 1;
                let msg = start(&fabric, token, src, dst);
                inc.on_message(msg).unwrap();
                full.on_message(msg).unwrap();
                live.push(flowtune_proto::Token::new(token));
            }
        }
        // Long quiet stretch: plenty of iterations for per-tick drift to
        // compound if the sweep failed to re-anchor the trajectory.
        for _ in 0..500 {
            inc.tick();
            full.tick();
        }
        let bound = 1e4 * eps;
        for &t in &live {
            let a = full.flow_rate_gbps(t).unwrap();
            let b = inc.flow_rate_gbps(t).unwrap();
            assert!(
                (a - b).abs() <= bound,
                "sweep cadence {full_sweep_every}: token {t:?} drifted \
                 {:.3e} Gbit/s (> {bound:.1e}): full {a} vs incremental {b}",
                (a - b).abs()
            );
        }
    }
}

#[test]
fn quiet_ticks_rerun_no_flow_between_sweeps() {
    // flowbench's `quiet100k` plane (same fabric, same config) at a
    // debug-build size. Once the standing set has settled, no tick
    // re-runs a flow (`dirty_flows`, rate passes re-run, a running
    // total) or sends an update — the forced pass of the link phases
    // every `full_sweep_every` ticks included. That pass applies the
    // price residual quiet ticks hold back; the anchored NED step
    // (`flowblock::price_update`) takes it on the load the flows would
    // carry at the current price, so a pass whose flows stand still
    // does not repeat its last move until a price crosses the dirty
    // test. Measured: the last re-run at tick 705 (2 073 flows in ticks
    // 512–768), then none in 39 000 ticks; without the anchor each pass
    // repeated the same step and re-dirtied 100k–175k flows per 4 000
    // ticks. A change that makes quiet ticks, or the cadence, touch
    // flows fails here as a count, whatever the machine.
    const SWEEP: u64 = 64;
    let fabric = TwoTierClos::build(ClosConfig::multicore(4, 2, 16));
    let cfg = FlowtuneConfig {
        incremental: true,
        dirty_eps: 1e-9,
        full_sweep_every: SWEEP,
        ..FlowtuneConfig::default()
    };
    let mut svc = AllocatorService::new(&fabric, cfg);
    let servers = fabric.config().server_count() as u64;
    let mut rng = 0x9E37_79B9_7F4A_7C15u64;
    for token in 0..4096u32 {
        let src = xorshift(&mut rng) % servers;
        let dst = (src + 1 + xorshift(&mut rng) % (servers - 1)) % servers;
        svc.on_message(start(&fabric, token, src as u16, dst as u16))
            .unwrap();
    }
    // Settled from tick ~705 on at this size. A multiple of the cadence
    // keeps the window's phase plain.
    for _ in 0..16 * SWEEP {
        svc.tick();
    }
    let mut sweeps = 0;
    for _ in 0..63 * SWEEP {
        let before = svc.stats();
        let updates = svc.tick();
        let rerun = svc.stats().dirty_flows - before.dirty_flows;
        let tick = before.iterations;
        sweeps += u32::from(tick.is_multiple_of(SWEEP));
        assert_eq!(rerun, 0, "quiet tick {tick} re-ran flows");
        assert!(updates.is_empty(), "quiet tick {tick}");
    }
    assert_eq!(sweeps, 63, "the window holds 63 forced link passes");
}

#[test]
fn a_swap_cycle_at_wire_precision_reruns_fewer_flows_than_the_exact_plane() {
    // The cascade a swap starts on a converged `quiet100k`-shaped plane:
    // at wire precision a link's flows re-run only when one of their
    // prices moves by more than a quarter `Rate16` step, and the exact
    // plane (dirty_eps 0) re-runs them on any bit change — on this plane,
    // every flow every tick. A whole swap cycle, the swap's tick to the
    // next swap, counted as rate passes re-run (`dirty_flows`). The
    // bound is the count measured once NED stepped on the load its flows
    // would carry at the current price (80 911, against 96 236 when a
    // link whose crossers had not re-run repeated its last move, and
    // 111 091 when four periodic sweeps of 4096 re-ran; the exact plane
    // re-ran 1 048 576), with a tenth of headroom: a cascade that winds
    // up again, or a cadence that re-prices again, fails here as a
    // count, whatever the machine.
    const SWAP: usize = 256;
    const BOUND: u64 = 89_000;
    let fabric = TwoTierClos::build(ClosConfig::multicore(4, 2, 16));
    let replay = Replay::swaps(&fabric, 4096, SWAP, 3 * SWAP, 1);
    let cycle = |dirty_eps: f64| {
        let cfg = FlowtuneConfig {
            incremental: true,
            dirty_eps,
            full_sweep_every: 64,
            ..FlowtuneConfig::default()
        };
        let mut svc = AllocatorService::new(&fabric, cfg);
        let mut before = 0;
        for (round, msgs) in replay.rounds.iter().enumerate() {
            if round == 2 * SWAP {
                before = svc.stats().dirty_flows;
            }
            for msg in msgs {
                svc.on_message(*msg).unwrap();
            }
            svc.tick();
        }
        svc.stats().dirty_flows - before
    };
    let (wire, exact) = (cycle(1e-9), cycle(0.0));
    assert!(
        wire < exact,
        "wire precision re-ran {wire} flows in a swap cycle, the exact plane {exact}"
    );
    assert!(
        wire <= BOUND,
        "a swap cycle re-ran {wire} flows (> {BOUND})"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Intake dirtiness is exact: adding a flow marks precisely the links
    // its path traverses (in traversal order, nothing else), the next
    // iteration drains the marks, and removing the flow re-marks the
    // same links.
    #[test]
    fn intake_dirties_exactly_the_traversed_links(
        src in 0usize..16,
        dst_off in 1usize..16,
        spine in 0usize..2,
        weight in 1u16..1024,
    ) {
        use flowtune_alloc::{AllocConfig, SerialAllocator};
        use flowtune_topo::FlowId;

        let fabric = fabric();
        let dst = (src + dst_off) % 16;
        let path = fabric.path_via_spine(src, dst, spine);
        let mut alloc = SerialAllocator::new(
            &fabric,
            AllocConfig {
                incremental: true,
                ..AllocConfig::default()
            },
        );
        prop_assert_eq!(alloc.dirty_link_ids(), Vec::new());

        alloc.add_flow(FlowId(1), src, dst, weight as f64 / 256.0, &path);
        prop_assert_eq!(
            alloc.dirty_link_ids(),
            path.links().to_vec(),
            "add must dirty the path links, in order"
        );

        // The iteration consumes the intake marks...
        alloc.iterate();
        prop_assert_eq!(alloc.dirty_link_ids(), Vec::new());

        // ...and the remove re-marks exactly the same links.
        prop_assert!(alloc.remove_flow(FlowId(1)));
        prop_assert_eq!(
            alloc.dirty_link_ids(),
            path.links().to_vec(),
            "remove must dirty the path links, in order"
        );
    }
}

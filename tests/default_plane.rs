//! The plane every service builds by default.
//!
//! `FlowtuneConfig::default()` ticks incrementally at wire precision
//! (`incremental: true`, `dirty_eps: 1e-9`): a rate leaves the allocator
//! only as a `Rate16` once it moves past the §6.4 threshold, so a plane
//! whose flows stand still has nothing to re-price. Under churn, where
//! every worker re-runs anyway, the grid falls back to the plain sweep
//! on its own, and comes back once the churn stops. Pinned as counts —
//! rate passes re-run (`dirty_flows`), links re-marked (`dirty_links`)
//! and updates sent — so it holds on any machine.

mod common;

use common::{start, xorshift};
use flowtune::{AllocatorService, FlowtuneConfig};
use flowtune_proto::{Message, Token};
use flowtune_topo::{ClosConfig, TwoTierClos};

/// `n` flowlets between random server pairs, tokens from `first`.
fn admit(svc: &mut AllocatorService, fabric: &TwoTierClos, first: u32, n: u32, rng: &mut u64) {
    let servers = fabric.config().server_count() as u64;
    for token in first..first + n {
        let src = xorshift(rng) % servers;
        let dst = (src + 1 + xorshift(rng) % (servers - 1)) % servers;
        svc.on_message(start(fabric, token, src as u16, dst as u16))
            .unwrap();
    }
}

#[test]
fn a_settled_default_plane_reruns_no_flow_and_sends_nothing() {
    // 4096 standing flowlets on flowbench's fabric, built from the
    // default config alone. Once settled, 4 000 ticks — the forced link
    // passes every `full_sweep_every` ticks among them — re-run no flow
    // and send no update.
    let fabric = TwoTierClos::build(ClosConfig::multicore(4, 2, 16));
    let cfg = FlowtuneConfig::default();
    let mut svc = AllocatorService::new(&fabric, cfg);
    let servers = fabric.config().server_count() as u64;
    let mut rng = 0x2545_F491_4F6C_DD1Du64;
    for token in 0..4096u32 {
        let src = xorshift(&mut rng) % servers;
        let dst = (src + 1 + xorshift(&mut rng) % (servers - 1)) % servers;
        svc.on_message(start(&fabric, token, src as u16, dst as u16))
            .unwrap();
    }
    for _ in 0..16 * cfg.full_sweep_every {
        svc.tick();
    }
    let settled = svc.stats();
    assert!(
        settled.dirty_flows > 0,
        "the default plane keeps a dirty set"
    );
    let mut passes = 0;
    for _ in 0..4000 {
        let before = svc.stats();
        let updates = svc.tick();
        let tick = before.iterations;
        passes += u32::from(tick.is_multiple_of(cfg.full_sweep_every));
        assert_eq!(
            svc.stats().dirty_flows,
            before.dirty_flows,
            "quiet tick {tick} re-ran flows"
        );
        assert!(updates.is_empty(), "quiet tick {tick} sent updates");
    }
    assert_eq!(passes, 63, "the window holds 63 forced link passes");
}

#[test]
fn a_default_plane_sweeps_through_churn_and_settles_after_it() {
    // 2048 standing flowlets, then 600 ticks that each start and end
    // eight: every worker re-runs on every tick, so the grid runs the
    // plain sweep — every flow re-run, no link marked — bar the ticks
    // on the forced-pass cadence, which try the way back. Once the churn
    // stops the next tick takes it, and the settled plane re-runs
    // nothing and sends nothing: a fall-back that never came back would
    // re-run every flow on every tick. Settling after churn has a long
    // tail at wire precision — a diff can still mark a link a thousand
    // ticks after the churn stops, on a plane that stayed on the
    // incremental path all along as on this one — so the plane gets 128
    // cadences.
    let fabric = TwoTierClos::build(ClosConfig::multicore(4, 2, 16));
    let cfg = FlowtuneConfig::default();
    let mut svc = AllocatorService::new(&fabric, cfg);
    let mut rng = 0x9E37_79B9_7F4A_7C15u64;
    admit(&mut svc, &fabric, 0, 2048, &mut rng);
    let (mut next, mut plain) = (2048, 0);
    for round in 0..600u32 {
        for k in 0..8 {
            let token = Token::new(round * 8 + k);
            svc.on_message(Message::FlowletEnd { token }).unwrap();
        }
        admit(&mut svc, &fabric, next, 8, &mut rng);
        next += 8;
        let before = svc.stats();
        svc.tick();
        let after = svc.stats();
        plain += u32::from(
            after.dirty_links == before.dirty_links
                && after.dirty_flows - before.dirty_flows == 2048,
        );
    }
    assert!(
        plain >= 580,
        "{plain} of 600 churn ticks ran the plain sweep"
    );
    for _ in 0..128 * cfg.full_sweep_every {
        svc.tick();
    }
    for _ in 0..4000 {
        let before = svc.stats();
        let updates = svc.tick();
        let tick = before.iterations;
        assert_eq!(
            svc.stats().dirty_flows,
            before.dirty_flows,
            "quiet tick {tick} re-ran flows"
        );
        assert!(updates.is_empty(), "quiet tick {tick} sent updates");
    }
}

#[test]
fn a_default_plane_past_64_blocks_sweeps_every_tick() {
    // 128 blocks: more than a crosser mask's 64 bits. The default
    // service builds no dirty set and runs the plain sweep every tick,
    // and its rates stay feasible.
    let fabric = TwoTierClos::build(ClosConfig::multicore(128, 1, 1));
    let mut svc = AllocatorService::new(&fabric, FlowtuneConfig::default());
    let mut rng = 0x2545_F491_4F6C_DD1Du64;
    admit(&mut svc, &fabric, 0, 512, &mut rng);
    for _ in 0..40 {
        svc.tick();
        assert!(svc.certificate().peak_util <= 1.0 + 1e-12);
    }
    let stats = svc.stats();
    assert_eq!((stats.iterations, stats.dirty_flows), (40, 0));
    assert!(svc.certificate().gap() >= 0.0);
}

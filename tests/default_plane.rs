//! The plane every service builds by default.
//!
//! `FlowtuneConfig::default()` ticks incrementally at wire precision
//! (`incremental: true`, `dirty_eps: 1e-9`): a rate leaves the allocator
//! only as a `Rate16` once it moves past the §6.4 threshold, so a plane
//! whose flows stand still has nothing to re-price. Pinned as counts —
//! rate passes re-run (`dirty_flows`) and updates sent — so it holds on
//! any machine.

mod common;

use common::{start, xorshift};
use flowtune::{AllocatorService, FlowtuneConfig};
use flowtune_topo::{ClosConfig, TwoTierClos};

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

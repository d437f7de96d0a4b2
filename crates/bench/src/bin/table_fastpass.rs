//! §6.1 "Throughput scaling and comparison to Fastpass".
//!
//! Measures, on identical hardware: (a) packets/s a Fastpass-style
//! per-packet arbiter allocates per core, as Tbit/s of scheduled traffic;
//! (b) Tbit/s of network the Flowtune allocator manages per thread that
//! ran (nodes × line rate × the share of the 10 µs budget an iteration
//! fits in). The paper's claim is 10.4× per-core advantage (2.2 Tbit/s on
//! 8 cores vs 15.36 on 4); a host whose pool runs fewer threads than the
//! four cores asked cannot test it, and says so.

use std::time::Instant;

use flowtune_alloc::{AllocConfig, SerialAllocator};
use flowtune_bench::{managed_tbps, Opts};
use flowtune_fastpass::Arbiter;
use flowtune_topo::{ClosConfig, FlowId, TwoTierClos};

fn main() {
    let opts = Opts::parse();
    let endpoints = 256usize;
    let mtu = 1500u64;

    // ---- Fastpass-style arbiter: packets scheduled per second per core.
    let mut arb = Arbiter::new(endpoints);
    let demand_rounds = opts.scaled(400, 60);
    for r in 0..demand_rounds {
        // Round r sends every endpoint to the one r + 1 places on (never
        // itself: the offset cycles through 1..endpoints).
        let offset = 1 + r % (endpoints as u64 - 1);
        for s in 0..endpoints as u16 {
            let d = ((s as u64 + offset) % endpoints as u64) as u16;
            arb.add_demand(s, d, 40);
        }
    }
    let t0 = Instant::now();
    let mut slots = 0u64;
    let mut matched = Vec::with_capacity(endpoints);
    while arb.backlog() > 0 {
        arb.allocate_slot_into(&mut matched);
        slots += 1;
    }
    let arb_secs = t0.elapsed().as_secs_f64();
    let arb_tbps = arb.allocated_bits(mtu) as f64 / arb_secs / 1e12;

    // ---- Flowtune: network bandwidth managed per core within 2 RTTs.
    let blocks = 2;
    let fabric = TwoTierClos::build(ClosConfig::multicore(blocks, 4, 48));
    let servers = fabric.config().server_count();
    let mut alloc = SerialAllocator::multicore(&fabric, AllocConfig::default(), 0);
    for f in 0..opts.scaled(3072, 1024) {
        let src = (f as usize * 7919) % servers;
        let mut dst = (f as usize * 104_729 + 13) % servers;
        if dst == src {
            dst = (dst + 1) % servers;
        }
        let path = fabric.path(src, dst, FlowId(f));
        alloc.add_flow(FlowId(f), src, dst, 1.0, &path);
    }
    let iters = opts.scaled(1000, 100) as usize;
    alloc.run_iterations(iters / 10 + 1);
    let took = alloc.run_iterations(iters);
    let iter_us = took.as_secs_f64() * 1e6 / iters as f64;
    let (cores, threads) = (blocks * blocks, alloc.threads());
    let ft_tbps = managed_tbps(servers, iter_us);
    let ratio = ft_tbps / threads as f64 / arb_tbps;

    println!("# §6.1 — Fastpass-style per-packet arbiter vs Flowtune per-flowlet allocator");
    println!("system,cores,threads,allocated_tbps,tbps_per_thread,notes");
    println!(
        "fastpass-arbiter,1,1,{arb_tbps:.3},{arb_tbps:.3},\"{} packets in {:.3} s ({} slots)\"",
        arb.allocated(),
        arb_secs,
        slots
    );
    println!(
        "flowtune,{cores},{threads},{ft_tbps:.2},{:.2},\"{} nodes @40G; {iter_us:.2} µs/iteration\"",
        ft_tbps / threads as f64,
        servers
    );
    println!("# per-thread ratio: {ratio:.1}x (paper: 10.4x per core)");
    if threads < cores {
        println!("# verdict: not testable ({cores} cores asked, {threads} threads ran)");
    } else if ratio >= 10.4 {
        println!("# verdict: holds");
    } else {
        println!("# verdict: fails");
    }
}

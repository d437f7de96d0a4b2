//! Quickstart: stand up a Flowtune allocator on the paper's evaluation
//! fabric, start a few flowlets, watch rates converge and churn re-settle.
//!
//! Run with: `cargo run --release --example quickstart`
//!
//! The allocator is built through `AllocatorService::builder()`; swap
//! `Engine::Serial` for `Engine::Gradient` to run the same control loop
//! under gradient projection's price step — or call
//! `.engine(Engine::Serial.sharded(n)).build_driver()` to run the same
//! loop over a sharded control plane (`ShardedService`), which the
//! experiment binaries expose as `--shards N`.

use flowtune::{AllocatorService, EndpointAgent, Engine, FlowtuneConfig};
use flowtune_topo::{ClosConfig, TwoTierClos};

fn main() {
    // 9 racks × 16 servers, 4 spines, 10 G hosts / 40 G fabric (§6.2).
    let fabric = TwoTierClos::build(ClosConfig::paper_eval());
    let servers = fabric.config().server_count();
    let mut allocator = AllocatorService::builder()
        .fabric(&fabric)
        .config(FlowtuneConfig::default())
        .engine(Engine::Serial)
        .build()
        .expect("fabric was supplied");
    let mut agents: Vec<EndpointAgent> = (0..servers)
        .map(|s| EndpointAgent::new(s as u16, servers))
        .collect();

    println!(
        "fabric: {servers} servers, {} links | engine: {}",
        fabric.topology().link_count(),
        allocator.engine_name()
    );

    // Three flowlets: two from server 0 (they will share its 10 G
    // uplink), one from server 17.
    let mut notify = |agents: &mut Vec<EndpointAgent>, flow: u64, src: usize, dst: u16| {
        if let Some(msg) = agents[src].on_backlog(flow, dst, 5_000_000, 0) {
            allocator.on_message(msg).expect("fresh token");
        }
    };
    notify(&mut agents, 1, 0, 140);
    notify(&mut agents, 2, 0, 70);
    notify(&mut agents, 3, 17, 99);

    // Run allocator ticks (one per 10 µs in deployment) and deliver the
    // rate updates back to the owning endpoint agents.
    for tick in 1..=40 {
        let updates = allocator.tick();
        for (server, msg) in &updates {
            agents[*server as usize].on_rate_update(msg);
        }
        if tick <= 3 || tick % 20 == 0 {
            println!(
                "tick {tick:>3}: {} updates | flow1 {:.2} Gbit/s, flow2 {:.2}, flow3 {:.2}",
                updates.len(),
                agents[0].pacing_rate_gbps(1).unwrap_or(0.0),
                agents[0].pacing_rate_gbps(2).unwrap_or(0.0),
                agents[17].pacing_rate_gbps(3).unwrap_or(0.0),
            );
        }
    }
    println!("→ flows 1+2 share server 0's uplink (≈4.95 each); flow 3 gets ≈9.9");

    // Flowlet 2 ends: the allocator reassigns the freed capacity.
    agents[0].on_drained(2, 400_000_000);
    for msg in agents[0].poll(400_000_000 + 30_000_000) {
        allocator.on_message(msg).expect("end is always accepted");
    }
    for _ in 0..40 {
        for (server, msg) in allocator.tick() {
            agents[server as usize].on_rate_update(&msg);
        }
    }
    println!(
        "after flow 2 ends: flow1 {:.2} Gbit/s (re-converged to line rate)",
        agents[0].pacing_rate_gbps(1).unwrap_or(0.0)
    );
    let stats = allocator.stats();
    println!(
        "allocator stats: {} starts, {} ends, {} updates sent, {} suppressed, {} B in / {} B out",
        stats.starts,
        stats.ends,
        stats.updates_sent,
        stats.updates_suppressed,
        stats.bytes_in,
        stats.bytes_out
    );
}

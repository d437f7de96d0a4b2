//! Figure 5: allocator update traffic as a fraction of network capacity,
//! per workload and load, at the 0.01 threshold.
//!
//! Paper result (C): "< 0.17%, 0.57%, and 1.13% of network capacity for
//! the Hadoop, cache, and web workloads"; traffic *to* the allocator is
//! substantially lower than *from* it.

use flowtune_bench::{FluidDriver, Opts};
use flowtune_workload::Workload;

fn main() {
    let opts = Opts::parse();
    let servers = opts.scaled(144, 48) as usize;
    let warmup = opts.scaled(20_000_000_000, 5_000_000_000); // 20 / 5 ms
    let window = opts.scaled(100_000_000_000, 20_000_000_000); // 100 / 20 ms
    println!("# Figure 5 — allocator traffic as fraction of network capacity (threshold 0.01)");
    println!("workload,load,from_alloc_fraction,to_alloc_fraction,flowlets_per_s,updates_per_s");
    for workload in Workload::ALL {
        for load in [0.2, 0.4, 0.6, 0.8] {
            let mut d = FluidDriver::with_engine(
                workload,
                load,
                opts.pair_affinity,
                servers,
                opts.config(),
                opts.seed,
                opts.engine.clone(),
            );
            let stats = d.run(warmup, window);
            let secs = window as f64 / 1e12;
            println!(
                "{},{load},{:.6},{:.6},{:.0},{:.0}",
                workload.name(),
                stats.from_alloc_fraction(servers, 10_000_000_000),
                stats.to_alloc_fraction(servers, 10_000_000_000),
                stats.flowlets as f64 / secs,
                stats.updates_sent as f64 / secs,
            );
        }
    }
}

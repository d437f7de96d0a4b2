//! Figure 6: reduction in allocator→server update traffic when raising
//! the notification threshold from 0.01 to 0.02–0.05.
//!
//! Paper result (D): thresholds of 0.05 save "up to 69%, 64% and 33% of
//! update traffic for the Hadoop, Cache, and Web workloads".

use flowtune::FlowtuneConfig;
use flowtune_bench::{FluidDriver, Opts};
use flowtune_workload::Workload;

fn main() {
    let opts = Opts::parse();
    let servers = opts.scaled(144, 48) as usize;
    let warmup = opts.scaled(20_000_000_000, 5_000_000_000);
    let window = opts.scaled(100_000_000_000, 20_000_000_000);
    let thresholds = [0.01, 0.02, 0.03, 0.04, 0.05];
    println!("# Figure 6 — % reduction in update traffic vs the 0.01 threshold");
    println!("workload,load,threshold,from_alloc_bytes,reduction_pct");
    for workload in Workload::ALL {
        for load in [0.2, 0.4, 0.6, 0.8] {
            let mut base = 0u64;
            for &t in &thresholds {
                let cfg = FlowtuneConfig {
                    update_threshold: t,
                    ..opts.config()
                };
                let mut d = FluidDriver::with_engine(
                    workload,
                    load,
                    opts.pair_affinity,
                    servers,
                    cfg,
                    opts.seed,
                    opts.engine.clone(),
                );
                let stats = d.run(warmup, window);
                if t == 0.01 {
                    base = stats.wire_from_alloc;
                }
                let reduction = if base > 0 {
                    100.0 * (1.0 - stats.wire_from_alloc as f64 / base as f64)
                } else {
                    0.0
                };
                println!(
                    "{},{load},{t},{},{reduction:.1}",
                    workload.name(),
                    stats.wire_from_alloc
                );
            }
        }
    }
}

//! Figure 7: update traffic vs network size.
//!
//! Paper result (E): "as the network grows from 128 servers up to 2048
//! servers, update traffic takes the same fraction of network capacity —
//! there is no debilitating cascading of updates".

use flowtune_bench::{FluidDriver, Opts};
use flowtune_workload::Workload;

fn main() {
    let opts = Opts::parse();
    let sizes: &[usize] = if opts.quick {
        &[128, 256, 512]
    } else {
        &[128, 256, 512, 1024, 2048]
    };
    let warmup = opts.scaled(10_000_000_000, 3_000_000_000);
    let window = opts.scaled(50_000_000_000, 10_000_000_000);
    println!("# Figure 7 — update-traffic capacity fraction vs network size (web workload)");
    println!("servers,load,from_alloc_fraction");
    for &servers in sizes {
        for load in [0.4, 0.6, 0.8] {
            // `opts.config()` carries `--exchange-every` into sharded
            // runs, so this figure also covers exchange-enabled scaling.
            let mut d = FluidDriver::with_engine(
                Workload::Web,
                load,
                opts.pair_affinity,
                servers,
                opts.config(),
                opts.seed,
                opts.engine.clone(),
            );
            let stats = d.run(warmup, window);
            println!(
                "{servers},{load},{:.6}",
                stats.from_alloc_fraction(servers, 10_000_000_000)
            );
        }
    }
}

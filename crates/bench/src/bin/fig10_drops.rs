//! Figure 10: rate at which the network drops data (Gbit/s) vs load.
//!
//! Paper result (H): sfqCoDel drops up to ~8% of bytes (>100 Gbit/s at
//! 0.8 load), pFabric ~6%; Flowtune, DCTCP and XCP drop negligibly.

use flowtune_bench::{run_cell, CellSpec, Opts};
use flowtune_sim::{Scheme, MS};

fn main() {
    let opts = Opts::parse();
    let drain = opts.scaled(40 * MS, 30 * MS);
    println!("# Figure 10 — dropped data (Gbit/s), and as % of delivered");
    println!("load,scheme,drop_gbps,drop_pct_of_offered");
    for &load in CellSpec::web_loads(&opts) {
        for scheme in Scheme::ALL {
            let spec = CellSpec::web(&opts, scheme, load, drain);
            let r = run_cell(&spec);
            let offered_gbps = load * spec.servers as f64 * 10.0;
            println!(
                "{load},{},{:.3},{:.2}",
                r.scheme,
                r.drop_gbps,
                100.0 * r.drop_gbps / offered_gbps
            );
        }
    }
}

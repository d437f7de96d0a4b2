//! Figure 9: p99 queueing delay on 2-hop and 4-hop paths vs load, for
//! the schemes with FIFO queues (Flowtune, DCTCP, XCP — pFabric/sfqCoDel
//! are excluded exactly as in the paper because their queues are not
//! FIFO, so sampled lengths don't give path delay).
//!
//! Paper result (G): Flowtune keeps p99 under 8.9 µs; at 0.8 load DCTCP
//! is 12× higher and XCP 3.5×.

use flowtune_bench::{run_cell, CellSpec, Opts};
use flowtune_sim::{Scheme, MS};

fn main() {
    let opts = Opts::parse();
    let drain = opts.scaled(40 * MS, 30 * MS);
    println!("# Figure 9 — p99 queueing delay (µs) on sampled 2-hop / 4-hop paths");
    println!("load,scheme,p99_2hop_us,p99_4hop_us");
    for &load in CellSpec::web_loads(&opts) {
        for scheme in [Scheme::Flowtune, Scheme::Dctcp, Scheme::Xcp] {
            let r = run_cell(&CellSpec::web(&opts, scheme, load, drain));
            println!(
                "{load},{},{:.2},{:.2}",
                r.scheme, r.p99_qdelay_2hop_us, r.p99_qdelay_4hop_us
            );
        }
    }
}

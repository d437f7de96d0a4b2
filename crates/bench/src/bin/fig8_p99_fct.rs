//! Figure 8: improvement ("speedup") in 99th-percentile normalized flow
//! completion time from switching each scheme to Flowtune, per flow-size
//! bin and load.
//!
//! Paper result (F): 8.6×–10.9× vs DCTCP on 1-packet flows, 1.7×–2.4× vs
//! pFabric, 3.5×–3.8× vs sfqCoDel on 10–100-packet flows, etc.

use flowtune_bench::simrun::BINS;
use flowtune_bench::{run_cell, CellSpec, Opts};
use flowtune_sim::{Scheme, MS};

fn main() {
    let opts = Opts::parse();
    let drain = opts.scaled(60 * MS, 40 * MS);
    println!("# Figure 8 — p99 FCT slowdown per bin, and speedup of Flowtune over each scheme");
    println!("load,scheme,bin,p99_slowdown,flowtune_speedup");
    for &load in CellSpec::web_loads(&opts) {
        let spec = |scheme| CellSpec::web(&opts, scheme, load, drain);
        let ft = run_cell(&spec(Scheme::Flowtune));
        for scheme in [
            Scheme::Dctcp,
            Scheme::Pfabric,
            Scheme::SfqCodel,
            Scheme::Xcp,
        ] {
            let other = run_cell(&spec(scheme));
            for (i, bin) in BINS.iter().enumerate() {
                if let (Some(f), Some(o)) = (ft.p99_by_bin[i], other.p99_by_bin[i]) {
                    println!("{load},{},{bin},{o:.2},{:.2}", other.scheme, o / f);
                }
            }
        }
        for (i, bin) in BINS.iter().enumerate() {
            if let Some(f) = ft.p99_by_bin[i] {
                println!("{load},Flowtune,{bin},{f:.2},1.00");
            }
        }
    }
}

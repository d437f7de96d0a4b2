//! Figure 11: proportional fairness of each scheme relative to Flowtune.
//!
//! The score is the mean per-flow log₂(rate); Figure 11 plots each
//! scheme's score minus Flowtune's (so 0 = as fair; −1 = flows got half
//! the proportionally-fair rate on average). Paper result: DCTCP 1.0–1.9
//! points below Flowtune, pFabric 0.45–0.83, XCP ~1.3, CoDel ~0.25.

use flowtune_bench::{run_cell, CellSpec, Opts};
use flowtune_sim::{Scheme, MS};

fn main() {
    let opts = Opts::parse();
    let drain = opts.scaled(40 * MS, 30 * MS);
    println!("# Figure 11 — per-flow fairness score relative to Flowtune");
    println!("load,scheme,score,relative_to_flowtune");
    for &load in CellSpec::web_loads(&opts) {
        let spec = |scheme| CellSpec::web(&opts, scheme, load, drain);
        let ft = run_cell(&spec(Scheme::Flowtune));
        println!("{load},Flowtune,{:.3},0.000", ft.fairness);
        for scheme in [
            Scheme::Dctcp,
            Scheme::Pfabric,
            Scheme::SfqCodel,
            Scheme::Xcp,
        ] {
            let r = run_cell(&spec(scheme));
            println!(
                "{load},{},{:.3},{:.3}",
                r.scheme,
                r.fairness,
                r.fairness - ft.fairness
            );
        }
    }
}

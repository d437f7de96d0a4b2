//! Figure 4: convergence to fair shares under flow churn.
//!
//! Five senders, one receiver; every 10 ms a flow starts, then every
//! 10 ms one stops. Prints each flow's throughput in 100 µs bins, per
//! scheme, as Figure 4 plots. Expected shapes: Flowtune snaps to 1/N
//! within tens of µs, DCTCP wobbles toward it over ms, pFabric starves
//! all but the shortest-remaining flow, sfqCoDel is fair but bursty, XCP
//! ramps slowly.

use flowtune_bench::Opts;
use flowtune_sim::{Scheme, SimConfig, Simulation, MS, US};
use flowtune_workload::ConvergenceScenario;

fn main() {
    let opts = Opts::parse();
    let scen = ConvergenceScenario::paper_default();
    // Quick mode shrinks the stagger to 2 ms so the run is 20 ms.
    let stagger = opts.scaled(scen.stagger_ps, 2 * MS);
    let scen = ConvergenceScenario {
        stagger_ps: stagger,
        ..scen
    };
    let bin = 100 * US;
    println!(
        "# Figure 4 — per-flow throughput (Gbit/s), {} µs bins",
        bin / US
    );
    println!("scheme,time_ms,flow0,flow1,flow2,flow3,flow4");
    for scheme in Scheme::ALL {
        let mut cfg = SimConfig::paper(scheme);
        cfg.engine = opts.engine.clone();
        cfg.flowtune = opts.config();
        cfg.throughput_bin_ps = bin;
        let mut sim = Simulation::new(cfg);
        let mut ids = Vec::new();
        for (k, &(start, stop)) in scen.schedule().iter().enumerate() {
            let src = scen.senders[k] as u16;
            ids.push(sim.add_open_flow(start, stop, src, scen.receiver as u16));
        }
        sim.run_until(scen.duration_ps() + 5 * MS);
        let m = sim.metrics();
        let bins = (scen.duration_ps() / bin) as usize;
        for b in 0..bins {
            let mut row = format!("{},{:.2}", scheme.name(), (b as u64 * bin) as f64 / 1e9);
            for id in &ids {
                let bytes = m
                    .throughput_bins
                    .get(id)
                    .and_then(|s| s.get(b))
                    .copied()
                    .unwrap_or(0);
                let gbps = bytes as f64 * 8.0 / (bin as f64 / 1e12) / 1e9;
                row.push_str(&format!(",{gbps:.3}"));
            }
            println!("{row}");
        }
    }
}

//! Figure 14 — collective & adversarial scenarios across engines.
//!
//! Drives every scenario family (ring/tree allreduce, all-to-all,
//! bursty on/off, permutation shift, incast) through the scenario
//! runner against NED (serial) and Gradient, and tabulates per-run
//! completion time, p99 FCT, the worst per-phase Jain fairness index,
//! and the peak raw over-allocation the engine asked for before
//! normalization (the Fig. 12 quantity).
//!
//! The paper's story, extended to structured workloads: NED converges
//! to the proportionally fair allocation within a handful of 10 µs
//! ticks, so phase-barriered collectives finish at the fluid optimum,
//! while Gradient converges more slowly under churny admission edges.
//!
//! This figure is the repository's, not the paper's, and it has no
//! Fastpass rows: the paper compares against Fastpass only in §6.1's
//! per-core throughput (`table_fastpass`, which measures the arbiter
//! itself), and a Fastpass engine behind the service would price no
//! links, so it would have no over-allocation to report and no link
//! state to exchange.
//!
//! `--scenario S` restricts the table to one family; `--engine` is
//! ignored (the engine sweep *is* the table). `--full` doubles the
//! fabric and payload scale.

use flowtune::{AllocatorService, Engine, FluidPlane, ScenarioOptions};
use flowtune_bench::Opts;
use flowtune_topo::{ClosConfig, TwoTierClos};
use flowtune_workload::ScenarioKind;

fn main() {
    let opts = Opts::parse();
    // Quick: the 16-server equivalence fabric. Full: 32 servers across
    // two blocks, with paper-scale payloads.
    let (fabric_cfg, servers, bytes) = if opts.quick {
        (ClosConfig::multicore(2, 2, 4), 16u32, 1u64 << 21)
    } else {
        (ClosConfig::multicore(2, 2, 8), 32u32, 1u64 << 24)
    };
    let fabric = TwoTierClos::build(fabric_cfg);
    let kinds: Vec<ScenarioKind> = match opts.scenario {
        Some(kind) => vec![kind],
        None => ScenarioKind::ALL.to_vec(),
    };
    let engines = [("ned", Engine::Serial), ("gradient", Engine::Gradient)];
    println!("# Figure 14 — scenario completion, tail FCT and fairness by engine");
    println!("scenario,engine,phases,ticks,completion_us,p99_fct_us,min_jain,peak_overalloc_gbps");
    for kind in kinds {
        for (name, engine) in &engines {
            let driver = AllocatorService::builder()
                .fabric(&fabric)
                .config(opts.config())
                .engine(engine.clone())
                .build_driver()
                .expect("fabric is set and the engine is unsharded");
            let mut plane = FluidPlane::new(driver);
            let mut scenario = kind.build(servers, bytes);
            let report =
                flowtune::run_scenario(&mut plane, scenario.as_mut(), &ScenarioOptions::default());
            let completion_us = report
                .max_phase_completion_ps()
                .map_or(f64::NAN, |ps| ps as f64 / 1e6);
            let p99_us = report.p99_fct_ps().map_or(f64::NAN, |ps| ps as f64 / 1e6);
            println!(
                "{},{name},{},{}{},{completion_us:.1},{p99_us:.1},{:.4},{:.2}",
                kind.name(),
                report.phases.len(),
                report.ticks,
                if report.truncated { " (truncated)" } else { "" },
                report.min_jain().unwrap_or(f64::NAN),
                report.peak_overallocation_gbps,
            );
        }
    }
}

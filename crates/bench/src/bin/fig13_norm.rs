//! Figure 13: U-NORM vs F-NORM throughput as a fraction of the optimal
//! allocation, for NED and Gradient under churn.
//!
//! Paper result (J): "F-NORM achieves over 99.7% of optimal throughput
//! with NED (98.4% with Gradient). In contrast, U-NORM scales flow
//! throughput too aggressively ... NED with F-NORM allocations
//! occasionally slightly exceed the optimal" (more throughput at slightly
//! worse fairness — never above link capacity).
//!
//! The churn rows run through the service path, as fig12's do: a
//! [`FluidDriver`] puts `Engine::Serial` (NED) or `Engine::Gradient` with
//! F-NORM off under the Web trace on the paper's 144-server fabric. Every
//! tenth in-window tick the rows read the engine's raw rates, build that
//! tick's NUM instance (the live flowlets' paths over capacities scaled
//! by `capacity_fraction()`, the ones the engine prices), normalize the
//! rates with `crates/num`'s F-NORM and U-NORM, and divide each total by
//! the throughput of a NED oracle run to convergence on the instance
//! (§6.6: "we ran a separate instance of NED until it converged to the
//! optimal allocation"), warm-started from the previous sample's prices.

use flowtune::{add_path_load, worst_oversubscription, AllocatorService, Engine, TickDriver};
use flowtune_bench::{FluidDriver, Opts};
use flowtune_num::normalize::{f_norm, total_throughput, u_norm};
use flowtune_num::{solve, Ned, NumProblem, SolverState, Utility};
use flowtune_proto::{Message, Token};
use flowtune_topo::{ClosConfig, FlowId, TwoTierClos};
use flowtune_workload::Workload;

fn main() {
    let opts = Opts::parse();
    let ticks = opts.scaled(20_000, 3_000);
    let warmup = ticks / 5;
    let sample_every = 10;
    let loads: &[f64] = if opts.quick {
        &[0.25, 0.5, 0.75]
    } else {
        &[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    };
    let cfg = flowtune::FlowtuneConfig {
        f_norm: false,
        ..opts.config()
    };
    println!("# Figure 13 — normalized throughput as fraction of the converged optimum");
    println!("algorithm,load,f_norm_fraction,u_norm_fraction");
    for (name, engine) in [("NED", Engine::Serial), ("Gradient", Engine::Gradient)] {
        for &load in loads {
            let mut driver = FluidDriver::with_engine(
                Workload::Web,
                load,
                0.0,
                144,
                cfg,
                opts.seed,
                engine.clone(),
            );
            // `solve` fits the oracle's state to each instance: every
            // price starts at 1 and is carried to the next sample.
            let mut oracle = SolverState {
                prices: Vec::new(),
                rates: Vec::new(),
            };
            let (mut f_sum, mut u_sum, mut n, mut tick) = (0.0, 0.0, 0u64, 0u64);
            let tick_ps = flowtune::TICK_INTERVAL_PS;
            let window = (ticks - warmup) * tick_ps;
            driver.run_sampled(warmup * tick_ps, window, &mut |drv, paths| {
                let sampled = tick % sample_every == 0;
                tick += 1;
                if !sampled {
                    return;
                }
                let links = drv.fabric().topology().links();
                let capacity = |bps: u64| bps as f64 / 1e9 * cfg.capacity_fraction();
                let mut problem =
                    NumProblem::new(links.iter().map(|l| capacity(l.capacity_bps)).collect());
                let mut rates = Vec::with_capacity(paths.len());
                for (&token, path) in paths {
                    problem.add_flow(path.links().to_vec(), Utility::log(1.0));
                    rates.push(drv.flow_rate_gbps(token).expect("live flowlet"));
                }
                solve(&mut Ned::new(1.0), &problem, &mut oracle, 5_000, 1e-7);
                let optimal = total_throughput(&problem, &oracle.rates);
                if optimal <= 0.0 {
                    return;
                }
                f_sum += total_throughput(&problem, &f_norm(&problem, &rates)) / optimal;
                u_sum += total_throughput(&problem, &u_norm(&problem, &rates)) / optimal;
                n += 1;
            });
            if n > 0 {
                println!(
                    "{name},{load},{:.4},{:.4}",
                    f_sum / n as f64,
                    u_sum / n as f64
                );
            }
        }
    }
    sharded_incast_panel(&opts);
}

/// Companion panel, through the service path: on a cross-shard incast,
/// per-shard F-NORM alone keeps each *shard* feasible but not the sum —
/// the "papers-over" failure mode the inter-shard link-state exchange
/// (`--shards N --exchange-every K`) removes. Reports F-NORMed throughput
/// as a fraction of the unsharded service's, and the worst link
/// over-subscription of the endpoint-visible rates.
fn sharded_incast_panel(opts: &Opts) {
    // `--engine` picks the (inner) engine of every row; `--shards N`
    // the partition width of the sharded rows. Same row shape as fig12.
    let (base, shards, cadence) = opts.sharded_comparison();
    // Two blocks of 2 racks × 8 servers; sources spread over both blocks,
    // one receiver: the downlink is a cross-shard bottleneck.
    let fabric = TwoTierClos::build(ClosConfig::multicore(2, 2, 8));
    let servers = fabric.config().server_count() as u16;
    let receiver = servers - 1;
    let sources: Vec<u16> = (0..servers - 1).step_by(2).collect();
    let drive = |svc: &mut dyn TickDriver| -> (f64, f64) {
        for (i, &src) in sources.iter().enumerate() {
            let spine = fabric.ecmp_spine(src as usize, receiver as usize, FlowId(i as u64));
            svc.on_message(Message::FlowletStart {
                token: Token::new(i as u32 + 1),
                src,
                dst: receiver,
                size_hint: 1_000_000,
                weight_q8: 256,
                spine: spine as u8,
            })
            .expect("unique tokens");
        }
        for _ in 0..600 {
            svc.tick();
        }
        let mut loads = vec![0.0; fabric.topology().link_count()];
        let mut throughput = 0.0;
        for (i, &src) in sources.iter().enumerate() {
            let rate = svc.flow_rate_gbps(Token::new(i as u32 + 1)).unwrap();
            throughput += rate;
            let path = fabric.path(src as usize, receiver as usize, FlowId(i as u64));
            add_path_load(&mut loads, &path, rate);
        }
        (throughput, worst_oversubscription(&fabric, &loads))
    };
    let mut unsharded = AllocatorService::builder()
        .fabric(&fabric)
        .config(opts.config())
        .engine(base.clone())
        .build_driver()
        .expect("fabric is set and the engine is unsharded");
    let (optimal, _) = drive(unsharded.as_mut());
    println!("# Figure 13 panel — cross-shard incast via the service path (F-NORM on)");
    println!("configuration,throughput_fraction_of_unsharded,worst_link_oversubscription");
    for (label, exchange_every) in [
        (format!("{}-sharded{shards}-noexchange", base.name()), 0),
        (
            format!("{}-sharded{shards}-x{cadence}", base.name()),
            cadence,
        ),
    ] {
        let cfg = flowtune::FlowtuneConfig {
            exchange_every,
            ..opts.config()
        };
        let mut svc = AllocatorService::builder()
            .fabric(&fabric)
            .config(cfg)
            .engine(base.clone().sharded(shards))
            .build_driver()
            .expect("fabric is set and shards do not nest");
        let (throughput, over) = drive(svc.as_mut());
        println!("{label},{:.4},{over:.4}", throughput / optimal);
    }
}

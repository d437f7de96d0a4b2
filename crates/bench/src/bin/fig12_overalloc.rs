//! Figure 12: total over-capacity allocation without normalization,
//! per engine, vs load — measured **through the service path**
//! (`ServiceBuilder` → `AllocatorService` / `ShardedService`) rather than
//! raw optimizers, so what is charged is exactly what the control plane
//! would hand endpoints with F-NORM disabled.
//!
//! Paper result (I): "Normalization is important; without it, NED
//! over-allocates links by up to 140 Gbits/s. NED over-allocates more
//! than Gradient because it is more aggressive." On top of the paper's
//! comparison, the sharded rows quantify the cross-shard pricing gap this
//! repo's link-state exchange closes: without the exchange each shard
//! prices shared links for its own flows alone (persistent
//! over-allocation on cross-shard hot links), with `--exchange-every K`
//! the shards price true totals and the row drops back to the unsharded
//! NED's transient-only over-allocation. The `exchange_bytes` column
//! prices that correction: the bytes of every exchange frame the shards
//! built over the whole run (warmup included — identical across rows,
//! so rows compare), before a transport copies each frame to every
//! receiver behind a length prefix.
//!
//! Passing `--placement traffic` adds a placed twin of the
//! exchanging sharded row: same engine, same cadence, but endpoints
//! partitioned by the workload's sampled traffic matrix instead of
//! contiguous ranges. To quantify the placement win, run it on a
//! rack-affine workload with a realistic delta filter —
//!
//! ```text
//! fig12_overalloc --quick --shards 2 --exchange-every 1 \
//!     --placement traffic --pair-affinity 0.8 --exchange-delta-eps 0.001
//! ```
//!
//! — the placed row then ships fewer exchange bytes (1–5 % fewer per
//! load in quick mode, more as load grows) at the same
//! (non-)over-allocation: communicating racks share a shard, so fewer
//! links are priced from two sides. (With the default `eps = 0` every
//! float wiggle of every loaded link re-ships each round, identically
//! under any placement, and the comparison drowns.)
//!
//! Flags: `--engine` picks the base engine of the sharded rows' inner
//! services, `--shards N` their shard count (default 2),
//! `--exchange-every K` the exchange cadence of the exchanging rows
//! (default 1), `--placement P` the placed row's placement and
//! `--pair-affinity F` the workload's rack-affine skew.

use flowtune::{overallocation_gbps, Engine, FlowtuneConfig, PlacementSpec};
use flowtune_bench::{FluidDriver, Opts};
use flowtune_workload::Workload;

fn main() {
    let opts = Opts::parse();
    let warmup = opts.scaled(5_000_000_000, 1_000_000_000);
    let window = opts.scaled(50_000_000_000, 5_000_000_000);
    // Quick mode runs 4 racks (not fig7's 2) so the sharded/placement
    // rows have a real rack topology to partition: with only 2 racks a
    // 2-shard placement has one rack per shard whatever the matrix says.
    let servers = if opts.quick { 64 } else { 144 };
    let loads: &[f64] = if opts.quick {
        &[0.25, 0.5, 0.75]
    } else {
        &[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    };
    // The sharded rows shard the *base* engine; same row shape as
    // fig13's sharded panel.
    let (base, shards, cadence) = opts.sharded_comparison();
    let mut rows: Vec<(String, Engine, u64, PlacementSpec)> = vec![
        ("NED".into(), Engine::Serial, 0, PlacementSpec::Contiguous),
        (
            "Gradient".into(),
            Engine::Gradient,
            0,
            PlacementSpec::Contiguous,
        ),
        (
            format!("{}-sharded{shards}-noexchange", base.name()),
            base.clone().sharded(shards),
            0,
            PlacementSpec::Contiguous,
        ),
        (
            format!("{}-sharded{shards}-x{cadence}", base.name()),
            base.clone().sharded(shards),
            cadence,
            PlacementSpec::Contiguous,
        ),
    ];
    let placement = opts.config().placement;
    if placement != PlacementSpec::Contiguous {
        rows.push((
            format!(
                "{}-sharded{shards}-x{cadence}-{}",
                base.name(),
                placement.name()
            ),
            base.sharded(shards),
            cadence,
            placement,
        ));
    }
    println!(
        "# Figure 12 — mean over-capacity allocation (Gbit/s) without normalization, service path"
    );
    println!("engine,load,mean_overallocation_gbps,p99_overallocation_gbps,exchange_bytes");
    for (label, engine, exchange_every, placement) in &rows {
        for &load in loads {
            // Base on the parsed options so `--exchange-delta-eps` and
            // `--parallel-shards` reach the rows too; each row then pins
            // its own cadence and placement.
            let cfg = FlowtuneConfig {
                f_norm: false,
                exchange_every: *exchange_every,
                placement: *placement,
                ..opts.config()
            };
            let mut driver = FluidDriver::with_engine(
                Workload::Web,
                load,
                opts.pair_affinity,
                servers,
                cfg,
                opts.seed,
                engine.clone(),
            );
            let mut samples = Vec::new();
            driver.run_sampled(warmup, window, &mut |drv, _| {
                samples.push(overallocation_gbps(drv));
            });
            let mean = samples.iter().sum::<f64>() / samples.len().max(1) as f64;
            let p99 = flowtune_sim::metrics::percentile(&mut samples, 99.0).unwrap_or(0.0);
            let bytes = driver.control_stats().exchange_bytes;
            println!("{label},{load},{mean:.2},{p99:.2},{bytes}");
        }
    }
}

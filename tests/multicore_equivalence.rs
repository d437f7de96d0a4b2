//! Cross-crate check of the §5 parallelization claim: the grid's pool
//! schedule (`SerialAllocator::multicore`, what the §6.1 tables time)
//! computes exactly what the caller-thread full sweep computes — rates,
//! normalized rates and the drained update stream, under churn — plus
//! engine-level feasibility checks.

use flowtune_alloc::{AllocConfig, SerialAllocator};
use flowtune_topo::{ClosConfig, FlowId, TwoTierClos};
use flowtune_workload::{TraceConfig, TraceGenerator, Workload};

fn trace_flows(fabric: &TwoTierClos, n: usize, seed: u64) -> Vec<(FlowId, usize, usize)> {
    let servers = fabric.config().server_count();
    let mut gen = TraceGenerator::new(TraceConfig {
        workload: Workload::Cache,
        load: 0.5,
        servers,
        server_link_bps: 40_000_000_000,
        seed,
        affinity: None,
    });
    (0..n)
        .map(|_| {
            let e = gen.next_event();
            (FlowId(e.id), e.src as usize, e.dst as usize)
        })
        .collect()
}

/// Every flow's `(id, rate, normalized)`, as bits.
fn rate_bits(grid: &SerialAllocator) -> Vec<(FlowId, u64, u64)> {
    grid.rates()
        .iter()
        .map(|r| (r.id, r.rate.to_bits(), r.normalized.to_bits()))
        .collect()
}

/// What one drain lends, in the order it lends it, as bits.
fn drained(grid: &mut SerialAllocator) -> Vec<(FlowId, u64)> {
    let mut lent = Vec::new();
    grid.drain_changed_rates(0.01, &mut |ids, normalized| {
        lent.extend(ids.iter().zip(normalized).map(|(&id, r)| (id, r.to_bits())));
    });
    lent
}

/// The headline §5 equivalence: identical adds, removes and iterations
/// into the caller-thread full sweep and the pool schedule produce
/// bit-for-bit identical rates, normalized rates and drained update
/// streams, under churn, across block counts.
#[test]
fn serial_and_multicore_grids_agree_bit_for_bit() {
    let cfg = AllocConfig {
        incremental: false,
        ..AllocConfig::default()
    };
    for blocks in [1usize, 2, 4] {
        let fabric = TwoTierClos::build(ClosConfig::multicore(blocks, 2, 8));
        let mut serial = SerialAllocator::new(&fabric, cfg);
        let mut multicore = SerialAllocator::multicore(&fabric, cfg, 2);

        let flows = trace_flows(&fabric, 72, 5);
        let mut live: Vec<FlowId> = Vec::new();
        let mut lent = 0;
        for (round, chunk) in flows.chunks(18).enumerate() {
            for &(id, src, dst) in chunk {
                let path = fabric.path(src, dst, id);
                serial.add_flow(id, src, dst, 1.0, &path);
                multicore.add_flow(id, src, dst, 1.0, &path);
                live.push(id);
            }
            for _ in 0..13 {
                serial.iterate();
                multicore.iterate();
                let a = drained(&mut serial);
                assert_eq!(
                    a,
                    drained(&mut multicore),
                    "blocks={blocks}: update streams diverged"
                );
                lent += a.len();
            }
            if round > 0 {
                let victim = live.remove(0);
                assert!(serial.remove_flow(victim));
                assert!(multicore.remove_flow(victim));
            }
            let a = rate_bits(&serial);
            assert_eq!(a.len(), live.len());
            assert_eq!(a, rate_bits(&multicore), "blocks={blocks}, round {round}");
        }
        assert!(lent > 0, "blocks={blocks}: the streams compared were empty");
    }
}

#[test]
fn f_norm_off_matches_too() {
    let fabric = TwoTierClos::build(ClosConfig::multicore(2, 2, 8));
    let cfg = AllocConfig {
        f_norm: false,
        ..AllocConfig::default()
    };
    let mut serial = SerialAllocator::new(&fabric, cfg);
    let mut parallel = SerialAllocator::multicore(&fabric, cfg, 2);
    for (id, src, dst) in trace_flows(&fabric, 40, 9) {
        let path = fabric.path(src, dst, id);
        serial.add_flow(id, src, dst, 1.0, &path);
        parallel.add_flow(id, src, dst, 1.0, &path);
    }
    serial.run_iterations(25);
    parallel.run_iterations(25);
    for (x, y) in serial.rates().iter().zip(&parallel.rates()) {
        assert_eq!(x.rate.to_bits(), y.rate.to_bits());
        assert_eq!(
            x.rate.to_bits(),
            x.normalized.to_bits(),
            "f_norm off ⇒ normalized == raw"
        );
        let _ = y;
    }
}

#[test]
fn normalized_rates_never_overallocate_fabric_links() {
    // Feasibility of F-NORM output on the real fabric: per-link sums of
    // normalized rates stay within (scaled) capacity even mid-convergence.
    let fabric = TwoTierClos::build(ClosConfig::multicore(4, 2, 8));
    let cfg = AllocConfig::default();
    let mut alloc = SerialAllocator::new(&fabric, cfg);
    let flows = trace_flows(&fabric, 120, 21);
    let mut paths = std::collections::HashMap::new();
    for &(id, src, dst) in &flows {
        let path = fabric.path(src, dst, id);
        alloc.add_flow(id, src, dst, 1.0, &path);
        paths.insert(id, path);
    }
    for _ in 0..5 {
        alloc.iterate();
        let mut load = vec![0.0f64; fabric.topology().link_count()];
        for fr in alloc.rates() {
            for link in paths[&fr.id].iter() {
                load[link.index()] += fr.normalized;
            }
        }
        for (l, link) in fabric.topology().links().iter().enumerate() {
            let cap = link.capacity_bps as f64 / 1e9;
            assert!(
                load[l] <= cap * (1.0 + 1e-9),
                "link {l} over-allocated: {} > {cap}",
                load[l]
            );
        }
    }
}

//! Cross-crate check of the §5 parallelization claim: the multicore
//! engine computes exactly what single-threaded NED computes — asserted
//! through the *public service API* (builder + messages + ticks), plus
//! engine-level churn/feasibility checks.

use flowtune::{AllocatorService, Engine, FlowtuneConfig};
use flowtune_alloc::{AllocConfig, SerialAllocator};
use flowtune_proto::{Message, Token};
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

/// A service on `engine`'s full sweep, the one schedule the multicore
/// engine's pool runs: the serial side turns the default incremental
/// ticks off to match it.
fn service_on(fabric: &TwoTierClos, engine: Engine) -> AllocatorService {
    AllocatorService::builder()
        .fabric(fabric)
        .config(FlowtuneConfig {
            incremental: false,
            ..FlowtuneConfig::default()
        })
        .engine(engine)
        .build()
        .expect("fabric is set")
}

/// The headline §5 equivalence, through the public control-plane API:
/// identical message sequences into a serial-engine service and a
/// multicore-engine service produce bit-for-bit identical rates and
/// identical update streams, under churn, across block counts.
#[test]
fn serial_and_multicore_services_agree_bit_for_bit() {
    for blocks in [1usize, 2, 4] {
        let fabric = TwoTierClos::build(ClosConfig::multicore(blocks, 2, 8));
        let mut serial = service_on(&fabric, Engine::Serial);
        let mut multicore = service_on(&fabric, Engine::Multicore { workers: 2 });

        let flows = trace_flows(&fabric, 72, 5);
        let mut live: Vec<Token> = Vec::new();
        for (round, chunk) in flows.chunks(18).enumerate() {
            for (k, &(id, src, dst)) in chunk.iter().enumerate() {
                let token = Token::new((round * 100 + k) as u32);
                let spine = fabric.ecmp_spine(src, dst, id);
                let msg = Message::FlowletStart {
                    token,
                    src: src as u16,
                    dst: dst as u16,
                    size_hint: 1_000_000,
                    weight_q8: 256,
                    spine: spine as u8,
                };
                serial.on_message(msg).unwrap();
                multicore.on_message(msg).unwrap();
                live.push(token);
            }
            for _ in 0..13 {
                let a = serial.tick();
                let b = multicore.tick();
                assert_eq!(a, b, "blocks={blocks}: update streams diverged");
            }
            if round > 0 {
                let victim = live.remove(0);
                let end = Message::FlowletEnd { token: victim };
                serial.on_message(end).unwrap();
                multicore.on_message(end).unwrap();
            }
            for &token in &live {
                let a = serial.flow_rate_gbps(token).unwrap();
                let b = multicore.flow_rate_gbps(token).unwrap();
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "blocks={blocks} token {token:?}: {a} vs {b}"
                );
            }
        }
        assert_eq!(serial.active_flows(), multicore.active_flows());
        assert_eq!(serial.stats(), multicore.stats());
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

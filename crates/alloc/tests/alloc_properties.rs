//! Property tests over the block-decomposed allocator: random flow sets
//! and churn sequences on random power-of-two fabrics.

use flowtune_alloc::{AllocConfig, SerialAllocator};
use flowtune_topo::{ClosConfig, FlowId, TwoTierClos};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Churn {
    blocks: usize,
    ops: Vec<Op>,
}

#[derive(Debug, Clone)]
enum Op {
    Add { src: usize, dst: usize, weight: f64 },
    Remove { nth: usize },
    Iterate { n: usize },
}

fn churn_strategy() -> impl Strategy<Value = Churn> {
    (prop_oneof![Just(1usize), Just(2), Just(4)]).prop_flat_map(|blocks| {
        let servers = blocks * 2 * 4; // racks_per_block=2, spr=4
        let op = prop_oneof![
            3 => (0..servers, 0..servers, 0.25f64..4.0).prop_map(|(src, dst, weight)| Op::Add {
                src,
                dst,
                weight
            }),
            1 => (0usize..64).prop_map(|nth| Op::Remove { nth }),
            2 => (1usize..12).prop_map(|n| Op::Iterate { n }),
        ];
        proptest::collection::vec(op, 1..40).prop_map(move |ops| Churn { blocks, ops })
    })
}

/// Applies the churn sequence; returns the live flow ids.
fn apply(churn: &Churn, fabric: &TwoTierClos, engine: &mut SerialAllocator) -> Vec<FlowId> {
    let mut live: Vec<FlowId> = Vec::new();
    let mut next = 0u64;
    let servers = fabric.config().server_count();
    for op in &churn.ops {
        match *op {
            Op::Add { src, dst, weight } => {
                let dst = if dst == src { (dst + 1) % servers } else { dst };
                let id = FlowId(next);
                next += 1;
                engine.add_flow(id, src, dst, weight, &fabric.path(src, dst, id));
                live.push(id);
            }
            Op::Remove { nth } => {
                if !live.is_empty() {
                    let id = live.remove(nth % live.len());
                    assert!(engine.remove_flow(id));
                }
            }
            Op::Iterate { n } => {
                engine.run_iterations(n);
            }
        }
    }
    live
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn serial_and_parallel_agree_under_arbitrary_churn(churn in churn_strategy()) {
        let fabric = TwoTierClos::build(ClosConfig::multicore(churn.blocks, 2, 4));
        let cfg = AllocConfig::default();
        let mut serial = SerialAllocator::new(&fabric, cfg);
        let mut parallel = SerialAllocator::multicore(&fabric, cfg, 2);

        apply(&churn, &fabric, &mut serial);
        apply(&churn, &fabric, &mut parallel);

        let a = serial.rates();
        let b = parallel.rates();
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(x.id, y.id);
            prop_assert_eq!(x.rate.to_bits(), y.rate.to_bits());
            prop_assert_eq!(x.normalized.to_bits(), y.normalized.to_bits());
        }
    }

    #[test]
    fn rates_stay_finite_positive_and_capacity_safe(churn in churn_strategy()) {
        let fabric = TwoTierClos::build(ClosConfig::multicore(churn.blocks, 2, 4));
        let mut alloc = SerialAllocator::new(&fabric, AllocConfig::default());
        apply(&churn, &fabric, &mut alloc);
        alloc.run_iterations(3);

        // Reconstruct each live flow's path from its id (paths are a pure
        // function of (src, dst, id), but we only have ids here — so ask
        // the engine for the rates and rebuild paths by replaying adds).
        let mut replay = SerialAllocator::new(&fabric, AllocConfig::default());
        let live = apply(&churn, &fabric, &mut replay);
        let mut paths = std::collections::HashMap::new();
        let mut next = 0u64;
        let servers = fabric.config().server_count();
        for op in &churn.ops {
            if let Op::Add { src, dst, .. } = *op {
                let dst = if dst == src { (dst + 1) % servers } else { dst };
                let id = FlowId(next);
                next += 1;
                paths.insert(id, fabric.path(src, dst, id));
            }
        }
        let _ = live;

        let mut load = vec![0.0f64; fabric.topology().link_count()];
        for fr in alloc.rates() {
            prop_assert!(fr.rate.is_finite() && fr.rate > 0.0);
            prop_assert!(fr.normalized.is_finite() && fr.normalized >= 0.0);
            for link in paths[&fr.id].iter() {
                load[link.index()] += fr.normalized;
            }
        }
        for (l, link) in fabric.topology().links().iter().enumerate() {
            let cap = link.capacity_bps as f64 / 1e9;
            prop_assert!(
                load[l] <= cap * (1.0 + 1e-9),
                "link {l}: {} > {cap}",
                load[l]
            );
        }
    }
}

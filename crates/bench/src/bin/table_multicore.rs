//! §6.1 table: multicore allocator latency vs cores, nodes and flows.
//!
//! Reproduces the row structure exactly (rows 1–3: more cores; 3–5: more
//! flows; 5–7: more nodes). "Cycles" are derived from wall time at the
//! nominal 2.4 GHz of the paper's E7-8870s so the two reports are directly
//! comparable; absolute values differ with host hardware, the scaling
//! shape is the claim (see EXPERIMENTS.md).

use std::time::Duration;

use flowtune_alloc::{AllocConfig, SerialAllocator};
use flowtune_bench::Opts;
use flowtune_topo::{ClosConfig, FlowId, TwoTierClos};

struct Row {
    blocks: usize,
    racks_per_block: usize,
    flows: usize,
}

fn run_row(row: &Row, iters: usize, seed: u64) -> (usize, usize, Duration) {
    let servers_per_rack = 48; // Jupiter-like racks, as in DESIGN.md
    let cfg = ClosConfig::multicore(row.blocks, row.racks_per_block, servers_per_rack);
    let fabric = TwoTierClos::build(cfg);
    let servers = fabric.config().server_count();
    let mut alloc = SerialAllocator::multicore(&fabric, AllocConfig::default(), 0);
    for f in 0..row.flows {
        let id = FlowId(f as u64);
        let src = (f.wrapping_mul(7919).wrapping_add(seed as usize)) % servers;
        let mut dst = (f.wrapping_mul(104_729).wrapping_add(13)) % servers;
        if dst == src {
            dst = (dst + 1) % servers;
        }
        let path = fabric.path(src, dst, id);
        alloc.add_flow(id, src, dst, 1.0, &path);
    }
    // Warm up caches/threads, then measure.
    alloc.run_iterations(iters / 10 + 1);
    let took = alloc.run_iterations(iters);
    (row.blocks * row.blocks, servers, took / iters as u32)
}

fn main() {
    let opts = Opts::parse();
    let iters = opts.scaled(1000, 100) as usize;
    // The paper's seven rows: (blocks → cores = B², racks/block, flows).
    let rows = [
        Row {
            blocks: 2,
            racks_per_block: 4,
            flows: 3072,
        },
        Row {
            blocks: 4,
            racks_per_block: 4,
            flows: 6144,
        },
        Row {
            blocks: 8,
            racks_per_block: 4,
            flows: 12288,
        },
        Row {
            blocks: 8,
            racks_per_block: 4,
            flows: 24576,
        },
        Row {
            blocks: 8,
            racks_per_block: 4,
            flows: 49152,
        },
        Row {
            blocks: 8,
            racks_per_block: 8,
            flows: 49152,
        },
        Row {
            blocks: 8,
            racks_per_block: 12,
            flows: 49152,
        },
    ];
    println!(
        "# §6.1 table — multicore allocator latency ({} iterations/row)",
        iters
    );
    println!("# paper rows: 8.29 / 8.86 / 12.63 / 13.99 / 16.93 / 23.76 / 30.71 µs");
    println!("cores,nodes,flows,cycles@2.4GHz,time_us,alloc_tbps_40g");
    for row in &rows {
        let (cores, nodes, per_iter) = run_row(row, iters, opts.seed);
        let us = per_iter.as_secs_f64() * 1e6;
        let cycles = per_iter.as_secs_f64() * 2.4e9;
        // §6.1: allocated throughput = nodes × 40 Gbit/s line rate.
        let tbps = nodes as f64 * 40e9 / 1e12;
        println!(
            "{cores},{nodes},{},{cycles:.1},{us:.2},{tbps:.2}",
            row.flows
        );
    }
}

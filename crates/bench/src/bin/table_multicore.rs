//! §6.1 table: multicore allocator latency vs cores, nodes and flows.
//!
//! Reproduces the row structure exactly (rows 1–3: more cores; 3–5: more
//! flows; 5–7: more nodes) and prints what ran: the pool's threads (at
//! most the host's parallelism, so a row may ask for more cores than it
//! gets), the measured time an iteration, and the Tbit/s the allocator
//! manages within the 10 µs budget. A row whose pool ran fewer threads
//! than the row's cores is "not testable" here; the others are judged
//! against the paper's time for the row.

use flowtune_alloc::{AllocConfig, SerialAllocator};
use flowtune_bench::{managed_tbps, Opts};
use flowtune_topo::{ClosConfig, FlowId, TwoTierClos};

struct Row {
    blocks: usize,
    racks_per_block: usize,
    flows: usize,
    /// The paper's µs an iteration for the row.
    paper_us: f64,
}

/// What one row measured.
struct Ran {
    cores: usize,
    threads: usize,
    nodes: usize,
    iter_us: f64,
}

fn run_row(row: &Row, iters: usize, seed: u64) -> Ran {
    let servers_per_rack = 48; // Jupiter-like racks
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
    Ran {
        cores: row.blocks * row.blocks,
        threads: alloc.threads(),
        nodes: servers,
        iter_us: took.as_secs_f64() * 1e6 / iters as f64,
    }
}

fn main() {
    let opts = Opts::parse();
    let iters = opts.scaled(1000, 100) as usize;
    // The paper's seven rows: (blocks → cores = B², racks/block, flows).
    let row = |blocks, racks_per_block, flows, paper_us| Row {
        blocks,
        racks_per_block,
        flows,
        paper_us,
    };
    let rows = [
        row(2, 4, 3072, 8.29),
        row(4, 4, 6144, 8.86),
        row(8, 4, 12288, 12.63),
        row(8, 4, 24576, 13.99),
        row(8, 4, 49152, 16.93),
        row(8, 8, 49152, 23.76),
        row(8, 12, 49152, 30.71),
    ];
    println!(
        "# §6.1 table — multicore allocator latency ({} iterations/row)",
        iters
    );
    println!("cores,threads,nodes,flows,time_us,paper_us,managed_tbps,verdict");
    for row in &rows {
        let ran = run_row(row, iters, opts.seed);
        let verdict = if ran.threads < ran.cores {
            "not testable".to_string()
        } else if ran.iter_us <= row.paper_us {
            "holds".to_string()
        } else {
            format!(
                "fails ({:.1}x the paper's time)",
                ran.iter_us / row.paper_us
            )
        };
        println!(
            "{},{},{},{},{:.2},{:.2},{:.2},{verdict}",
            ran.cores,
            ran.threads,
            ran.nodes,
            row.flows,
            ran.iter_us,
            row.paper_us,
            managed_tbps(ran.nodes, ran.iter_us),
        );
    }
}

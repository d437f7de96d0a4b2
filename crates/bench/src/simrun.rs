//! Packet-simulation harness for the data-plane figures (4, 8, 9, 10,
//! 11): one "cell" = one (scheme, workload, load) simulation.

use flowtune::FlowtuneConfig;
use flowtune_sim::{Engine, Scheme, SimConfig, Simulation, MS};
use flowtune_topo::ClosConfig;
use flowtune_workload::{TraceConfig, TraceGenerator, Workload};

/// Parameters of one simulation cell.
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// Scheme under test.
    pub scheme: Scheme,
    /// Allocation engine for Flowtune cells (ignored by other schemes).
    pub engine: Engine,
    /// Flowtune control-plane settings (ignored by other schemes) —
    /// carries `--exchange-every` into sharded cells via
    /// [`Opts::config`](crate::Opts::config).
    pub flowtune: FlowtuneConfig,
    /// Flow-size distribution.
    pub workload: Workload,
    /// Average server load.
    pub load: f64,
    /// Servers (multiple of 16; racks of 16 as in the paper).
    pub servers: usize,
    /// Trace horizon, ps — flows arriving within it are simulated.
    pub horizon_ps: u64,
    /// Extra drain time after the horizon before measuring, ps.
    pub drain_ps: u64,
    /// Trace seed.
    pub seed: u64,
}

impl CellSpec {
    /// The cell figures 8–11 sweep: the Web workload at `load` under
    /// `scheme` on the figures' shared fabric and horizon (144 servers
    /// for 60 ms; 48 for 8 ms under `--quick`), with `opts`' engine,
    /// control-plane settings and seed.
    pub fn web(opts: &crate::Opts, scheme: Scheme, load: f64, drain_ps: u64) -> Self {
        CellSpec {
            scheme,
            engine: opts.engine.clone(),
            flowtune: opts.config(),
            workload: Workload::Web,
            load,
            servers: opts.scaled(144, 48) as usize,
            horizon_ps: opts.scaled(60 * MS, 8 * MS),
            drain_ps,
            seed: opts.seed,
        }
    }

    /// The loads figures 8–11 sweep.
    pub fn web_loads(opts: &crate::Opts) -> &'static [f64] {
        if opts.quick {
            &[0.4, 0.8]
        } else {
            &[0.2, 0.4, 0.6, 0.8]
        }
    }
}

/// Summary of one cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Scheme name.
    pub scheme: &'static str,
    /// p99 slowdown per Figure-8 size bin, in bin order
    /// (1 / 1-10 / 10-100 / 100-1000 / large); `None` = empty bin.
    pub p99_by_bin: [Option<f64>; 5],
    /// p99 queueing delay on sampled 2-hop paths, µs.
    pub p99_qdelay_2hop_us: f64,
    /// p99 queueing delay on sampled 4-hop paths, µs.
    pub p99_qdelay_4hop_us: f64,
    /// Data dropped, Gbit/s over the horizon.
    pub drop_gbps: f64,
    /// Mean per-flow log₂(rate in Gbit/s) (Figure 11's score).
    pub fairness: f64,
    /// Completed / offered flows.
    pub completed: usize,
    /// Flows offered by the trace.
    pub offered: usize,
    /// Control wire bytes (Flowtune only) as fraction of capacity.
    pub ctrl_fraction: f64,
}

/// Figure-8 bin labels, in order.
pub const BINS: [&str; 5] = [
    "1 packet",
    "1-10 packets",
    "10-100 packets",
    "100-1000 packets",
    "large",
];

/// Runs one cell and summarizes it.
pub fn run_cell(spec: &CellSpec) -> CellResult {
    assert!(spec.servers.is_multiple_of(16));
    let clos = ClosConfig {
        racks: spec.servers / 16,
        servers_per_rack: 16,
        racks_per_block: spec.servers / 16,
        ..ClosConfig::paper_eval()
    };
    let mut cfg = SimConfig::paper(spec.scheme);
    cfg.clos = clos;
    cfg.engine = spec.engine.clone();
    cfg.flowtune = spec.flowtune;
    // Sample queues fast enough to see short runs.
    cfg.sample_interval_ps = (spec.horizon_ps / 200).clamp(100_000_000, MS);
    let mut sim = Simulation::new(cfg);

    let mut gen = TraceGenerator::new(TraceConfig {
        workload: spec.workload,
        load: spec.load,
        servers: spec.servers,
        server_link_bps: 10_000_000_000,
        seed: spec.seed,
        affinity: None,
    });
    let events = gen.events_until(spec.horizon_ps);
    let offered = events.len();
    for e in &events {
        sim.add_flow(e.at_ps, e.src as u16, e.dst as u16, e.bytes);
    }
    sim.run_until(spec.horizon_ps + spec.drain_ps);

    let m = sim.metrics();
    let mut p99_by_bin = [None; 5];
    for (i, bin) in BINS.iter().enumerate() {
        p99_by_bin[i] = m.p_slowdown(bin, 99.0);
    }
    let secs = (spec.horizon_ps + spec.drain_ps) as f64 / 1e12;
    let capacity = spec.servers as f64 * 1e10;
    CellResult {
        scheme: spec.scheme.name(),
        p99_by_bin,
        p99_qdelay_2hop_us: m.p_queue_delay(2, 99.0).unwrap_or(0) as f64 / 1e6,
        p99_qdelay_4hop_us: m.p_queue_delay(4, 99.0).unwrap_or(0) as f64 / 1e6,
        drop_gbps: m.drop_gbps(spec.horizon_ps + spec.drain_ps),
        fairness: m.fairness_score(),
        completed: m.fcts.len(),
        offered,
        ctrl_fraction: (m.ctrl_bytes_to_alloc + m.ctrl_bytes_from_alloc) as f64 * 8.0
            / secs
            / capacity,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_cell_runs_for_flowtune_and_dctcp() {
        for scheme in [Scheme::Flowtune, Scheme::Dctcp] {
            let r = run_cell(&CellSpec {
                scheme,
                engine: Engine::Serial,
                flowtune: FlowtuneConfig::default(),
                workload: Workload::Web,
                load: 0.4,
                servers: 32,
                horizon_ps: 3 * MS,
                drain_ps: 10 * MS,
                seed: 5,
            });
            assert!(r.offered > 0);
            assert!(
                r.completed as f64 >= r.offered as f64 * 0.8,
                "{}: {}/{} completed",
                r.scheme,
                r.completed,
                r.offered
            );
        }
    }
}

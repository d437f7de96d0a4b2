//! Fluid-model driver for the control-plane experiments (Figures 5–7,
//! 12 and 13).
//!
//! Update-traffic volume is a property of the allocator's threshold
//! filtering and the flowlet churn, not of packet-level queueing, so these
//! figures run the *real* [`AllocatorService`] under the fluid data plane
//! ([`FluidPlane`]: every 10 µs tick, each active flowlet drains at its
//! currently allocated, normalized rate and ends exactly when its bytes
//! run out). What is this driver's own is trace admission, the warm-up
//! window, each live flowlet's path and the byte accounting, with the
//! real 16/4/6-byte encodings plus Ethernet framing
//! ([`flowtune_proto::wire`]). The control plane is
//! whatever `ServiceBuilder::build_driver` makes of the engine and
//! configuration the binary parsed, sharded or not, always in process.

use flowtune::{
    AllocatorService, Engine, FlowtuneConfig, FluidPlane, PlacementSpec, ServiceStats, TickDriver,
    TrafficMatrix,
};
use flowtune_proto::codec::{END_BYTES, START_BYTES};
use flowtune_proto::{wire, Token};
use flowtune_topo::{ClosConfig, FlowId, Path, TwoTierClos};
use flowtune_workload::{rack_traffic_matrix, RackAffinity, TraceConfig, TraceGenerator, Workload};
use std::collections::BTreeMap;

/// Accounting of one fluid run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FluidStats {
    /// Payload bytes endpoint→allocator (starts + ends).
    pub payload_to_alloc: u64,
    /// Payload bytes allocator→endpoints (rate updates).
    pub payload_from_alloc: u64,
    /// Wire bytes (64-byte-min frames + preamble) endpoint→allocator.
    pub wire_to_alloc: u64,
    /// Wire bytes allocator→endpoints.
    pub wire_from_alloc: u64,
    /// Flowlets started / ended.
    pub flowlets: u64,
    /// Rate updates sent (post-filter) / suppressed.
    pub updates_sent: u64,
    /// Updates suppressed by the threshold.
    pub updates_suppressed: u64,
    /// Simulated duration, ps.
    pub duration_ps: u64,
}

impl FluidStats {
    /// Update traffic from the allocator as a fraction of total network
    /// capacity (Figure 5's y axis), where network capacity is the sum of
    /// server access links.
    pub fn from_alloc_fraction(&self, servers: usize, link_bps: u64) -> f64 {
        let secs = self.duration_ps as f64 / 1e12;
        let bits = self.wire_from_alloc as f64 * 8.0;
        bits / secs / (servers as f64 * link_bps as f64)
    }

    /// Counts one endpoint→allocator notification of `len` payload bytes.
    fn account_to_alloc(&mut self, len: usize) {
        self.payload_to_alloc += len as u64;
        self.wire_to_alloc += wire::segment_wire_bytes(len) as u64;
    }

    /// Update traffic *to* the allocator as a capacity fraction.
    pub fn to_alloc_fraction(&self, servers: usize, link_bps: u64) -> f64 {
        let secs = self.duration_ps as f64 / 1e12;
        let bits = self.wire_to_alloc as f64 * 8.0;
        bits / secs / (servers as f64 * link_bps as f64)
    }
}

/// Every live flowlet's path, by token, as [`FluidDriver`] admitted it.
pub type LivePaths = BTreeMap<Token, Path>;

/// The fluid-model experiment driver.
#[derive(Debug)]
pub struct FluidDriver {
    /// The control plane under its data plane; this driver advances
    /// simulated time and steps it.
    plane: FluidPlane,
    trace: TraceGenerator,
    paths: LivePaths,
    stats: FluidStats,
    now_ps: u64,
}

impl FluidDriver {
    /// Builds a driver over `servers` servers (racks of 16) running the
    /// uniform `workload` at `load` with the serial reference engine.
    pub fn new(
        workload: Workload,
        load: f64,
        servers: usize,
        cfg: FlowtuneConfig,
        seed: u64,
    ) -> Self {
        Self::with_engine(workload, load, 0.0, servers, cfg, seed, Engine::Serial)
    }

    /// The full constructor, where the binaries' `--engine` / `--shards`
    /// / `--pair-affinity` flags and their parsed configuration land.
    ///
    /// `engine`: an [`Engine::Sharded`] spec runs the real sharded
    /// control plane.
    ///
    /// `affinity`: with this probability a flowlet's destination is drawn
    /// from the source's rack-affinity class (two interleaved classes of
    /// 16-server racks, see [`flowtune_workload::RackAffinity`]); 0.0 is
    /// the uniform workload. When the configuration asks for
    /// traffic-aware shard placement ([`FlowtuneConfig::placement`]), the
    /// placer's matrix is sampled from this same trace configuration
    /// (first 4096 events — deterministic in the seed), so `--placement
    /// traffic` sees exactly the workload it will place for.
    pub fn with_engine(
        workload: Workload,
        load: f64,
        affinity: f64,
        servers: usize,
        cfg: FlowtuneConfig,
        seed: u64,
        engine: Engine,
    ) -> Self {
        assert!(servers.is_multiple_of(16), "whole racks of 16 expected");
        let clos = ClosConfig {
            racks: servers / 16,
            servers_per_rack: 16,
            racks_per_block: servers / 16,
            ..ClosConfig::paper_eval()
        };
        let fabric = TwoTierClos::build(clos);
        let trace_cfg = TraceConfig {
            workload,
            load,
            servers,
            server_link_bps: 10_000_000_000,
            seed,
            affinity: (affinity > 0.0).then_some(RackAffinity {
                probability: affinity,
                ..RackAffinity::heavy()
            }),
        };
        let mut builder = AllocatorService::builder()
            .fabric(&fabric)
            .config(cfg)
            .engine(engine);
        if cfg.placement != PlacementSpec::Contiguous {
            let racks = servers / 16;
            builder = builder.traffic_matrix(TrafficMatrix::from_weights(
                racks,
                rack_traffic_matrix(&trace_cfg, 16, 4096),
            ));
        }
        let service = builder
            .build_driver()
            .expect("fabric is set and the engine spec is sane");
        let trace = TraceGenerator::new(trace_cfg);
        Self {
            plane: FluidPlane::new(service),
            trace,
            paths: LivePaths::new(),
            stats: FluidStats::default(),
            now_ps: 0,
        }
    }

    /// Runs the fluid simulation for `duration_ps`, returning the
    /// accounting. A `warmup_ps` prefix is simulated but not accounted so
    /// steady-state concurrency is measured.
    pub fn run(&mut self, warmup_ps: u64, duration_ps: u64) -> FluidStats {
        self.run_sampled(warmup_ps, duration_ps, &mut |_, _| {})
    }

    /// [`FluidDriver::run`] with a per-tick observer: after every
    /// in-window allocator tick, `sample` sees the driver's control plane
    /// (for link-load / over-allocation telemetry, as in Figure 12) and
    /// the path of every flowlet the tick allocated for, by token (for
    /// rebuilding the tick's NUM instance, as in Figure 13).
    pub fn run_sampled(
        &mut self,
        warmup_ps: u64,
        duration_ps: u64,
        sample: &mut dyn FnMut(&dyn TickDriver, &LivePaths),
    ) -> FluidStats {
        let tick = flowtune::TICK_INTERVAL_PS;
        let end = warmup_ps + duration_ps;
        let mut pending = self.trace.next_event();
        while self.now_ps < end {
            let in_window = self.now_ps >= warmup_ps;
            // Admit arrivals up to now; the ECMP hash input is the trace's
            // own event id.
            while pending.at_ps <= self.now_ps {
                let (src, dst) = (pending.src as u16, pending.dst as u16);
                let (token, _) = self
                    .plane
                    .start(src, dst, pending.bytes, 256, Some(pending.id));
                let path = self.plane.driver().fabric().path(
                    src as usize,
                    dst as usize,
                    FlowId(pending.id),
                );
                self.paths.insert(token, path);
                if in_window {
                    self.stats.flowlets += 1;
                    self.stats.account_to_alloc(START_BYTES);
                }
                pending = self.trace.next_event();
            }

            // One step per simulated interval: the allocator ticks, the
            // flowlets drain, the finished ones end.
            let updates = self.plane.tick();
            if in_window {
                for (_, msg) in updates {
                    let len = msg.encoded_len();
                    self.stats.payload_from_alloc += len as u64;
                    self.stats.wire_from_alloc += wire::segment_wire_bytes(len) as u64;
                    self.stats.updates_sent += 1;
                }
                sample(self.plane.driver(), &self.paths);
            }
            for flow in self.plane.drain(|_, _| {}) {
                self.paths.remove(&flow.key);
                if in_window {
                    self.stats.account_to_alloc(END_BYTES);
                }
            }

            self.now_ps += tick;
        }
        let svc = self.plane.driver().stats();
        self.stats.updates_suppressed = svc.updates_suppressed;
        self.stats.duration_ps = duration_ps;
        self.stats
    }

    /// The control plane's own operating counters — exchange
    /// rounds/bytes, intake, update filtering (aggregated over shards,
    /// where applicable).
    pub fn control_stats(&self) -> ServiceStats {
        self.plane.driver().stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowtune_proto::Token;

    #[test]
    fn fluid_run_reaches_steady_state_and_accounts() {
        let mut d = FluidDriver::new(Workload::Web, 0.5, 32, FlowtuneConfig::default(), 7);
        let stats = d.run(2_000_000_000, 10_000_000_000); // 2 ms warmup, 10 ms window
        assert!(stats.flowlets > 10, "flowlets {}", stats.flowlets);
        assert!(stats.updates_sent > 0);
        assert!(stats.wire_from_alloc > stats.payload_from_alloc);
        let frac = stats.from_alloc_fraction(32, 10_000_000_000);
        assert!(frac > 0.0 && frac < 0.2, "fraction {frac}");
    }

    /// Runs one seed twice in one process (hash seeds differ between
    /// the two drivers): everything observable must agree.
    fn assert_seed_reproduces(cfg: FlowtuneConfig, engine: Engine) {
        let run = || {
            let mut d =
                FluidDriver::with_engine(Workload::Web, 0.7, 0.0, 32, cfg, 13, engine.clone());
            let stats = d.run(1_000_000_000, 6_000_000_000);
            let rates: Vec<(Token, u64)> = d
                .plane
                .flows()
                .keys()
                .map(|t| {
                    let rate = d.plane.driver().flow_rate_gbps(t).expect("live flowlet");
                    (t, rate.to_bits())
                })
                .collect();
            (stats, d.control_stats(), rates)
        };
        let (a, b) = (run(), run());
        assert!(a.0.flowlets > 50 && !a.2.is_empty(), "{:?}", a.0);
        assert_eq!(a, b, "{}", engine.name());
    }

    /// fig13's shape: raw rates (F-NORM off).
    fn raw_rates() -> FlowtuneConfig {
        FlowtuneConfig {
            f_norm: false,
            ..FlowtuneConfig::default()
        }
    }

    #[test]
    fn a_seed_reproduces_its_run_to_the_bit() {
        // fig12's sharded shape.
        let sharded = FlowtuneConfig {
            exchange_every: 1,
            ..FlowtuneConfig::default()
        };
        assert_seed_reproduces(sharded, Engine::Serial.sharded(2));
    }

    #[test]
    fn a_seed_reproduces_a_raw_rate_gradient_run_to_the_bit() {
        // fig13's Gradient rows.
        assert_seed_reproduces(raw_rates(), Engine::Gradient);
    }

    #[test]
    fn a_raw_rate_churn_run_sustains_flows() {
        // fig13's shape on the paper's 144 servers: within 5 ms at load
        // 0.5, flowlets arrive and the allocator holds them, on both
        // price rules.
        for engine in [Engine::Serial, Engine::Gradient] {
            let mut d = FluidDriver::with_engine(
                Workload::Web,
                0.5,
                0.0,
                144,
                raw_rates(),
                3,
                engine.clone(),
            );
            let tick = flowtune::TICK_INTERVAL_PS;
            let mut saw_active = false;
            d.run_sampled(0, 500 * tick, &mut |drv, _| {
                assert!(flowtune::overallocation_gbps(drv) >= 0.0);
                saw_active |= drv.active_flows() > 0;
            });
            assert!(saw_active, "{}: no flowlet was ever live", engine.name());
        }
    }

    #[test]
    fn overallocation_settles_low_between_events() {
        // fig13's shape: raw rates on the paper's 144 servers, on both
        // price rules. The observer sees every live flowlet's path.
        let cfg = raw_rates();
        for engine in [Engine::Serial, Engine::Gradient] {
            let mut d =
                FluidDriver::with_engine(Workload::Cache, 0.3, 0.0, 144, cfg, 9, engine.clone());
            let tick = flowtune::TICK_INTERVAL_PS;
            let mut samples = Vec::new();
            d.run_sampled(201 * tick, 799 * tick, &mut |drv, paths| {
                assert_eq!(paths.len(), drv.active_flows());
                assert!(paths.keys().all(|&t| drv.flow_rate_gbps(t).is_some()));
                samples.push(flowtune::overallocation_gbps(drv));
            });
            let mean = samples.iter().sum::<f64>() / samples.len() as f64;
            // 144 servers × 10 G = 1.44 Tbit/s of access capacity; mean
            // over-allocation must be a tiny fraction of it.
            assert!(
                mean < 100.0,
                "{}: mean over-allocation {mean} Gbit/s",
                engine.name()
            );
        }
    }

    #[test]
    fn fluid_runs_under_every_engine() {
        for engine in [Engine::Serial, Engine::Gradient, Engine::Serial.sharded(2)] {
            let mut d = FluidDriver::with_engine(
                Workload::Web,
                0.4,
                0.0,
                32,
                FlowtuneConfig::default(),
                5,
                engine.clone(),
            );
            let stats = d.run(1_000_000_000, 4_000_000_000);
            assert!(stats.flowlets > 0, "{}: no flowlets", engine.name());
            assert!(stats.updates_sent > 0, "{}: no updates", engine.name());
        }
    }

    #[test]
    fn traffic_placement_runs_and_reports_exchange_stats() {
        let cfg = FlowtuneConfig {
            exchange_every: 1,
            placement: PlacementSpec::Traffic,
            ..FlowtuneConfig::default()
        };
        let mut d = FluidDriver::with_engine(
            Workload::Web,
            0.4,
            0.9,
            32,
            cfg,
            5,
            Engine::Serial.sharded(2),
        );
        let stats = d.run(1_000_000_000, 4_000_000_000);
        assert!(stats.flowlets > 0);
        let svc = d.control_stats();
        assert!(svc.exchange_rounds > 0, "exchange must run");
        assert!(svc.exchange_bytes > 0);
    }

    #[test]
    fn higher_threshold_cuts_update_traffic() {
        let run = |threshold: f64| {
            let cfg = FlowtuneConfig {
                update_threshold: threshold,
                ..FlowtuneConfig::default()
            };
            let mut d = FluidDriver::new(Workload::Web, 0.6, 32, cfg, 11);
            d.run(2_000_000_000, 10_000_000_000)
        };
        let t1 = run(0.01);
        let t5 = run(0.05);
        assert!(
            t5.updates_sent < t1.updates_sent,
            "0.05 sent {} vs 0.01 sent {}",
            t5.updates_sent,
            t1.updates_sent
        );
    }

    #[test]
    fn web_generates_more_updates_than_hadoop() {
        let run = |w: Workload| {
            let mut d = FluidDriver::new(w, 0.6, 32, FlowtuneConfig::default(), 3);
            d.run(2_000_000_000, 10_000_000_000)
        };
        let web = run(Workload::Web);
        let hadoop = run(Workload::Hadoop);
        assert!(
            web.wire_from_alloc > hadoop.wire_from_alloc,
            "web {} vs hadoop {}",
            web.wire_from_alloc,
            hadoop.wire_from_alloc
        );
    }
}

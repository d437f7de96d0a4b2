//! Flowlet trace generation.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::facebook::Workload;
use crate::poisson::PoissonArrivals;

/// One generated flowlet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowletEvent {
    /// Arrival time, picoseconds from trace start.
    pub at_ps: u64,
    /// Source server index.
    pub src: u32,
    /// Destination server index (≠ src).
    pub dst: u32,
    /// Flowlet size in bytes.
    pub bytes: u64,
    /// Sequential flowlet id (unique within the trace).
    pub id: u64,
}

/// Destination skew toward a source's rack-affinity class — the
/// "communicating racks" structure exchange-aware shard placement
/// exploits. Racks are striped into `classes` interleaved classes (rack
/// `r` belongs to class `r % classes`), so class members are *never*
/// contiguous: a contiguous equal-range shard split always separates
/// them, which is exactly the adversarial case a traffic-aware placement
/// repairs by grouping each class into one shard.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RackAffinity {
    /// Probability that a flowlet's destination is drawn from the
    /// source's own class (the remainder stays uniform over all
    /// servers). 0 disables the skew.
    pub probability: f64,
    /// Servers per rack (the class granularity).
    pub servers_per_rack: usize,
    /// Number of interleaved rack classes (≥ 2 for any skew to exist).
    pub classes: usize,
}

impl RackAffinity {
    /// The benchmark default: strong (90%) affinity over two interleaved
    /// classes of 16-server racks.
    pub fn heavy() -> Self {
        Self {
            probability: 0.9,
            servers_per_rack: 16,
            classes: 2,
        }
    }
}

/// Trace parameters.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Which flow-size distribution to draw from.
    pub workload: Workload,
    /// Average server load in (0, 1].
    pub load: f64,
    /// Number of servers; sources are uniform, destinations are uniform
    /// unless `affinity` skews them.
    pub servers: usize,
    /// Server access-link capacity (bits/s) for the load calibration.
    pub server_link_bps: u64,
    /// RNG seed — traces are fully reproducible.
    pub seed: u64,
    /// Optional rack-affine destination skew (`None` = uniform, the
    /// historical behavior).
    pub affinity: Option<RackAffinity>,
}

/// An infinite, lazily-generated Poisson flowlet trace.
#[derive(Debug)]
pub struct TraceGenerator {
    cfg: TraceConfig,
    arrivals: PoissonArrivals,
    cdf: crate::dist::EmpiricalCdf,
    rng: StdRng,
    clock_ps: u64,
    next_id: u64,
}

impl TraceGenerator {
    /// Builds a generator.
    ///
    /// # Panics
    /// Panics if `servers < 2` (flows need distinct endpoints) or the load
    /// is not positive.
    pub fn new(cfg: TraceConfig) -> Self {
        assert!(cfg.servers >= 2, "need at least two servers");
        let cdf = cfg.workload.cdf();
        let arrivals =
            PoissonArrivals::for_load(cfg.load, cfg.servers, cfg.server_link_bps, cdf.mean());
        let rng = StdRng::seed_from_u64(cfg.seed);
        Self {
            cfg,
            arrivals,
            cdf,
            rng,
            clock_ps: 0,
            next_id: 0,
        }
    }

    /// Aggregate flowlet arrival rate (per second).
    pub fn rate_per_sec(&self) -> f64 {
        self.arrivals.rate_per_sec()
    }

    /// Generates the next flowlet (arrival times strictly increase).
    pub fn next_event(&mut self) -> FlowletEvent {
        self.clock_ps += self.arrivals.next_gap_ps(&mut self.rng).max(1);
        let src = self.rng.random_range(0..self.cfg.servers) as u32;
        let mut dst = self.pick_dst(src);
        if dst == src {
            dst = (dst + 1) % self.cfg.servers as u32;
        }
        let bytes = self.cdf.sample(&mut self.rng).max(1.0) as u64;
        let id = self.next_id;
        self.next_id += 1;
        FlowletEvent {
            at_ps: self.clock_ps,
            src,
            dst,
            bytes,
            id,
        }
    }

    /// The destination draw: uniform, or — with the configured affinity
    /// probability — uniform over the servers of the source's rack class.
    fn pick_dst(&mut self, src: u32) -> u32 {
        if let Some(aff) = self.cfg.affinity {
            let spr = aff.servers_per_rack;
            // Guard before dividing: a zero rack size falls back to the
            // uniform draw instead of panicking.
            let racks = self.cfg.servers.checked_div(spr).unwrap_or(0);
            let usable = aff.probability > 0.0 && aff.classes >= 2 && racks >= aff.classes;
            if usable && self.rng.random::<f64>() < aff.probability {
                // Racks of the source's class: src_class, src_class + classes, …
                let src_class = (src as usize / spr) % aff.classes;
                let class_racks = (racks - src_class).div_ceil(aff.classes);
                let pick = self.rng.random_range(0..class_racks * spr);
                let rack = src_class + (pick / spr) * aff.classes;
                return (rack * spr + pick % spr) as u32;
            }
        }
        self.rng.random_range(0..self.cfg.servers) as u32
    }

    /// Collects every flowlet arriving before `horizon_ps`.
    pub fn events_until(&mut self, horizon_ps: u64) -> Vec<FlowletEvent> {
        let mut out = Vec::new();
        loop {
            let e = self.next_event();
            if e.at_ps >= horizon_ps {
                // The generator's clock has passed the horizon; the event
                // is discarded (the trace is a prefix, not a stream with
                // push-back), which is fine for fixed-horizon experiments.
                return out;
            }
            out.push(e);
        }
    }
}

/// Samples the rack-by-rack traffic matrix a trace configuration offers:
/// row-major `racks × racks` offered bytes, estimated from the first
/// `samples` events of a **fresh** generator (the caller's own event
/// stream is untouched, and the same config + seed always yields the
/// same matrix — the determinism exchange-aware shard placement relies
/// on). Racks are `servers_per_rack`-sized server ranges.
///
/// # Panics
/// Panics if `servers_per_rack` is 0 or does not divide the config's
/// server count.
pub fn rack_traffic_matrix(cfg: &TraceConfig, servers_per_rack: usize, samples: usize) -> Vec<f64> {
    assert!(
        servers_per_rack > 0 && cfg.servers.is_multiple_of(servers_per_rack),
        "servers_per_rack must divide the server count"
    );
    let racks = cfg.servers / servers_per_rack;
    let mut weights = vec![0.0; racks * racks];
    let mut gen = TraceGenerator::new(cfg.clone());
    for _ in 0..samples {
        let e = gen.next_event();
        let (src, dst) = (
            e.src as usize / servers_per_rack,
            e.dst as usize / servers_per_rack,
        );
        weights[src * racks + dst] += e.bytes as f64;
    }
    weights
}

/// The §6.3 convergence experiment: five senders to one receiver, one
/// long-running flow starting every 10 ms, then one stopping every 10 ms.
#[derive(Debug, Clone)]
pub struct ConvergenceScenario {
    /// Sender server indices (5 in the paper).
    pub senders: Vec<u32>,
    /// Receiver server index.
    pub receiver: u32,
    /// Gap between consecutive starts/stops, ps (10 ms in the paper).
    pub stagger_ps: u64,
}

impl ConvergenceScenario {
    /// The paper's configuration on a 144-server fabric: senders 0–4
    /// (picked in different racks by the caller if desired), receiver 5,
    /// 10 ms stagger.
    pub fn paper_default() -> Self {
        Self {
            senders: vec![0, 16, 32, 48, 64],
            receiver: 5,
            stagger_ps: 10_000_000_000, // 10 ms
        }
    }

    /// `(start_ps, stop_ps)` for each sender: sender `k` starts at
    /// `k·stagger` and stops at `(N+k)·stagger`, so the active set ramps
    /// 1,2,…,N then N−1,…,0 — exactly Figure 4's staircase.
    pub fn schedule(&self) -> Vec<(u64, u64)> {
        let n = self.senders.len() as u64;
        (0..n)
            .map(|k| (k * self.stagger_ps, (n + k) * self.stagger_ps))
            .collect()
    }

    /// Total experiment duration (when the last flow stops).
    pub fn duration_ps(&self) -> u64 {
        2 * self.senders.len() as u64 * self.stagger_ps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(load: f64, seed: u64) -> TraceConfig {
        TraceConfig {
            workload: Workload::Web,
            load,
            servers: 144,
            server_link_bps: 10_000_000_000,
            seed,
            affinity: None,
        }
    }

    #[test]
    fn trace_is_reproducible() {
        let mut a = TraceGenerator::new(cfg(0.5, 42));
        let mut b = TraceGenerator::new(cfg(0.5, 42));
        for _ in 0..100 {
            assert_eq!(a.next_event(), b.next_event());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = TraceGenerator::new(cfg(0.5, 1));
        let mut b = TraceGenerator::new(cfg(0.5, 2));
        let ea: Vec<_> = (0..10).map(|_| a.next_event()).collect();
        let eb: Vec<_> = (0..10).map(|_| b.next_event()).collect();
        assert_ne!(ea, eb);
    }

    #[test]
    fn times_strictly_increase_and_ids_are_sequential() {
        let mut g = TraceGenerator::new(cfg(0.8, 3));
        let mut last = 0;
        for i in 0..1000 {
            let e = g.next_event();
            assert!(e.at_ps > last);
            assert_eq!(e.id, i);
            assert_ne!(e.src, e.dst);
            assert!(e.bytes >= 1);
            last = e.at_ps;
        }
    }

    #[test]
    fn offered_load_matches_target() {
        // Generate 200 ms of trace and check total offered bytes/s per
        // server ≈ load × capacity.
        let load = 0.6;
        let mut g = TraceGenerator::new(cfg(load, 9));
        let horizon_ps: u64 = 200_000_000_000; // 200 ms
        let events = g.events_until(horizon_ps);
        let total_bytes: u64 = events.iter().map(|e| e.bytes).sum();
        let secs = horizon_ps as f64 / 1e12;
        let offered_bps = total_bytes as f64 * 8.0 / secs / 144.0;
        let target = load * 1e10;
        let rel = (offered_bps - target).abs() / target;
        assert!(
            rel < 0.1,
            "offered {offered_bps:.3e} vs target {target:.3e}"
        );
    }

    #[test]
    fn doubling_load_doubles_rate() {
        let a = TraceGenerator::new(cfg(0.3, 1)).rate_per_sec();
        let b = TraceGenerator::new(cfg(0.6, 1)).rate_per_sec();
        assert!((b / a - 2.0).abs() < 1e-9);
    }

    #[test]
    fn convergence_schedule_staircase() {
        let s = ConvergenceScenario::paper_default();
        let sched = s.schedule();
        assert_eq!(sched.len(), 5);
        assert_eq!(sched[0], (0, 50_000_000_000));
        assert_eq!(sched[4], (40_000_000_000, 90_000_000_000));
        assert_eq!(s.duration_ps(), 100_000_000_000);
        // At t = 45 ms: started 0..4 (all 5), stopped senders with stop <
        // 45 ms: none (first stop at 50 ms) → 5 active.
        let t = 45_000_000_000u64;
        let active = sched.iter().filter(|&&(a, b)| a <= t && t < b).count();
        assert_eq!(active, 5);
    }

    #[test]
    fn affine_traces_stay_reproducible_and_in_class() {
        // 8 racks of 4 servers, two interleaved classes, full affinity.
        let mk = |seed| TraceConfig {
            workload: Workload::Web,
            load: 0.5,
            servers: 32,
            server_link_bps: 10_000_000_000,
            seed,
            affinity: Some(RackAffinity {
                probability: 1.0,
                servers_per_rack: 4,
                classes: 2,
            }),
        };
        let mut a = TraceGenerator::new(mk(9));
        let mut b = TraceGenerator::new(mk(9));
        for _ in 0..300 {
            let e = a.next_event();
            assert_eq!(e, b.next_event(), "same seed, same affine trace");
            assert_ne!(e.src, e.dst);
            // Full affinity: destination rack shares the source's class
            // (modulo the src==dst nudge, which stays in or next to the
            // source rack — both in class).
            let (sr, dr) = (e.src as usize / 4, e.dst as usize / 4);
            assert!(
                sr % 2 == dr % 2 || dr == (sr + 1) % 8,
                "src rack {sr} → dst rack {dr} left its class"
            );
        }
    }

    #[test]
    fn rack_matrix_reflects_the_affinity_classes() {
        let base = TraceConfig {
            workload: Workload::Web,
            load: 0.5,
            servers: 32,
            server_link_bps: 10_000_000_000,
            seed: 11,
            affinity: Some(RackAffinity {
                probability: 1.0,
                servers_per_rack: 4,
                classes: 2,
            }),
        };
        let m = rack_traffic_matrix(&base, 4, 2000);
        assert_eq!(m.len(), 64);
        // Deterministic: same config → same matrix.
        assert_eq!(m, rack_traffic_matrix(&base, 4, 2000));
        let (mut in_class, mut cross) = (0.0, 0.0);
        for s in 0..8 {
            for d in 0..8 {
                if s % 2 == d % 2 {
                    in_class += m[s * 8 + d];
                } else {
                    cross += m[s * 8 + d];
                }
            }
        }
        assert!(
            in_class > 20.0 * cross.max(1.0),
            "in-class {in_class} vs cross {cross}"
        );
        // A uniform config spreads weight across classes instead.
        let uniform = TraceConfig {
            affinity: None,
            ..base
        };
        let mu = rack_traffic_matrix(&uniform, 4, 2000);
        let cross_u: f64 = (0..8)
            .flat_map(|s| (0..8).map(move |d| (s, d)))
            .filter(|&(s, d)| s % 2 != d % 2)
            .map(|(s, d)| mu[s * 8 + d])
            .sum();
        assert!(cross_u > 0.0, "uniform traffic crosses classes");
    }

    #[test]
    #[should_panic(expected = "at least two servers")]
    fn one_server_rejected() {
        let mut c = cfg(0.5, 1);
        c.servers = 1;
        let _ = TraceGenerator::new(c);
    }
}

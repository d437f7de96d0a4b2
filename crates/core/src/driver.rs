//! The tick-driver abstraction over allocator control planes.
//!
//! [`TickDriver`] is the contract embedders program against: something
//! that consumes flowlet notifications and, on every 10 µs tick, produces
//! `(source server, rate update)` pairs. Two implementations exist:
//!
//! * [`AllocatorService`] — one service, one grid (the Figure-1 box);
//! * [`Router`](crate::router::Router) — N inner services, the endpoint
//!   space partitioned across them, generic over where the shards live:
//!   [`ShardedService`](crate::ShardedService) is the router over the
//!   shards of one process, `flowtune-net`'s `PeerCluster` holds the
//!   router over shard peers on a wire. Both planes get every method
//!   from the one implementation.
//!
//! The network simulator, the fluid-model driver and the experiment
//! binaries all hold a [`BoxTickDriver`] obtained from
//! [`ServiceBuilder::build_driver`](crate::ServiceBuilder::build_driver),
//! so "how many shards" is a run-time configuration like the engine
//! choice, not a compile-time fork.
//!
//! The fluid-model experiments put a driver under a
//! [`FluidPlane`](crate::FluidPlane), which owns its cadence, the
//! tokens and the flowlets' drain; the packet simulator ticks its driver
//! from its own event loop.

use flowtune_proto::{Message, Token};
use flowtune_topo::TwoTierClos;

use crate::service::{AllocatorService, ServiceError, ServiceStats};

/// Cumulative wall time spent in each phase of the control plane's work,
/// for localizing a bench regression to a phase instead of a whole tick.
/// All fields are running totals since construction; a sharded driver
/// reports its shards' sums plus its own exchange time.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimings {
    /// Engine iterations (`run_iterations` inside `tick`).
    pub allocate: std::time::Duration,
    /// Update export: rate reads, threshold filtering, message encoding.
    pub export: std::time::Duration,
    /// Inter-shard link-state exchange rounds (sharded drivers only).
    pub exchange: std::time::Duration,
}

/// A control plane with an allocator tick: notifications in, rate updates
/// out, behind either one [`AllocatorService`] or a
/// [`Router`](crate::router::Router) over several.
pub trait TickDriver: std::fmt::Debug + Send {
    /// Handles an endpoint notification (see
    /// [`AllocatorService::on_message`]).
    ///
    /// # Errors
    /// [`ServiceError`] when the message is corrupt or inconsistent; the
    /// message is dropped and counted, the driver stays consistent.
    fn on_message(&mut self, msg: Message) -> Result<(), ServiceError>;

    /// One allocator tick (§6.2: every 10 µs): runs the engine(s) and
    /// fills `out` (cleared first) with `(source server, update)` pairs
    /// in ascending token order. The one tick implementation — a caller
    /// that keeps `out` across ticks pays no allocation for a tick that
    /// sends nothing; [`TickDriver::tick`] wraps it for callers that
    /// want an owned batch.
    fn tick_into(&mut self, out: &mut Vec<(u16, Message)>);

    /// [`TickDriver::tick_into`] returning an owned batch, sized once by
    /// the implementation's single reserve.
    fn tick(&mut self) -> Vec<(u16, Message)> {
        let mut out = Vec::new();
        self.tick_into(&mut out);
        out
    }

    /// Current normalized rate of an active flowlet, Gbit/s.
    fn flow_rate_gbps(&self, token: Token) -> Option<f64>;

    /// Number of active flowlets.
    fn active_flows(&self) -> usize;

    /// Operating counters (aggregated over shards, where applicable).
    fn stats(&self) -> ServiceStats;

    /// Cumulative per-phase wall time (aggregated over shards, where
    /// applicable).
    fn phase_timings(&self) -> PhaseTimings;

    /// Per-link loads of the control plane's raw allocation as of its
    /// last tick (what the engines' own price updates summed — see
    /// [`flowtune_alloc::SerialAllocator::link_state`]; read it after a
    /// tick), scattered to global [`LinkId`](flowtune_topo::LinkId)s
    /// through the engines' link slots (summed over shards, where
    /// applicable), one entry per fabric link.
    /// Powers the over-allocation telemetry of the Figure-12
    /// experiment and capacity assertions in tests — the one allocating
    /// link-state query, and off the tick path.
    fn link_loads(&self) -> Vec<f64>;

    /// The fabric this control plane serves.
    fn fabric(&self) -> &TwoTierClos;

    /// Short engine name (`serial` / `gradient` / `sharded`).
    fn engine_name(&self) -> &'static str;
}

/// A run-time-chosen control plane (plain or sharded, any engine).
pub type BoxTickDriver = Box<dyn TickDriver>;

impl TickDriver for BoxTickDriver {
    fn on_message(&mut self, msg: Message) -> Result<(), ServiceError> {
        (**self).on_message(msg)
    }

    // flowtune-lint: hot
    fn tick_into(&mut self, out: &mut Vec<(u16, Message)>) {
        (**self).tick_into(out);
    }

    fn flow_rate_gbps(&self, token: Token) -> Option<f64> {
        (**self).flow_rate_gbps(token)
    }

    fn active_flows(&self) -> usize {
        (**self).active_flows()
    }

    fn stats(&self) -> ServiceStats {
        (**self).stats()
    }

    fn phase_timings(&self) -> PhaseTimings {
        (**self).phase_timings()
    }

    fn link_loads(&self) -> Vec<f64> {
        (**self).link_loads()
    }

    fn fabric(&self) -> &TwoTierClos {
        (**self).fabric()
    }

    fn engine_name(&self) -> &'static str {
        (**self).engine_name()
    }
}

impl TickDriver for AllocatorService {
    fn on_message(&mut self, msg: Message) -> Result<(), ServiceError> {
        AllocatorService::on_message(self, msg)
    }

    // flowtune-lint: hot
    fn tick_into(&mut self, out: &mut Vec<(u16, Message)>) {
        AllocatorService::tick_into(self, out);
    }

    fn flow_rate_gbps(&self, token: Token) -> Option<f64> {
        AllocatorService::flow_rate_gbps(self, token)
    }

    fn active_flows(&self) -> usize {
        AllocatorService::active_flows(self)
    }

    fn stats(&self) -> ServiceStats {
        AllocatorService::stats(self)
    }

    fn phase_timings(&self) -> PhaseTimings {
        AllocatorService::phase_timings(self)
    }

    fn link_loads(&self) -> Vec<f64> {
        let mut loads = Vec::new();
        self.link_loads_into(&mut loads);
        loads
    }

    fn fabric(&self) -> &TwoTierClos {
        AllocatorService::fabric(self)
    }

    fn engine_name(&self) -> &'static str {
        AllocatorService::engine_name(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlowtuneConfig;
    use flowtune_topo::ClosConfig;

    #[test]
    fn allocator_service_is_a_tick_driver() {
        let fabric = TwoTierClos::build(ClosConfig::paper_eval());
        let svc = AllocatorService::new(&fabric, FlowtuneConfig::default());
        let mut drv: BoxTickDriver = Box::new(svc);
        drv.on_message(Message::FlowletStart {
            token: Token::new(1),
            src: 0,
            dst: 140,
            size_hint: 1,
            weight_q8: 256,
            spine: 1,
        })
        .unwrap();
        assert_eq!(drv.active_flows(), 1);
        assert_eq!(drv.tick().len(), 1);
        assert!(drv.flow_rate_gbps(Token::new(1)).unwrap() > 0.0);
        assert_eq!(drv.engine_name(), "serial");
        assert_eq!(drv.fabric().config().server_count(), 144);
        assert_eq!(drv.stats().starts, 1);
    }
}

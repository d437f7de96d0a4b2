//! Datacenter traffic workloads.
//!
//! §6.2: "To model micro-bursts, flowlets follow a Poisson arrival process.
//! Flowlet size distributions are according to the Web, Cache, and Hadoop
//! workloads published by Facebook [Roy et al., SIGCOMM 2015]. The Poisson
//! rate at which flows enter the system is chosen to reach a specific
//! average server load, where 100% load is when the rate equals server
//! link capacity divided by the mean flow size. ... Sources and
//! destinations are chosen uniformly at random."
//!
//! The exact Facebook CDFs are not published as data; [`facebook`]
//! provides piecewise-linear approximations of the published curves that
//! preserve the properties the evaluation depends on:
//! Web has the smallest flows (hence the highest flowlet churn and the
//! most allocator update traffic), Cache intermediate objects, Hadoop the
//! heavy tail.

#![forbid(unsafe_code)]

pub mod adversarial;
pub mod collective;
pub mod dist;
pub mod facebook;
pub mod generator;
pub mod poisson;
pub mod scenario;

pub use adversarial::{BurstyOnOff, Incast, PermutationShift};
pub use collective::{AllToAll, RingAllreduce, TreeAllreduce};
pub use dist::EmpiricalCdf;
pub use facebook::{Workload, CACHE, HADOOP, WEB};
pub use generator::{
    rack_traffic_matrix, ConvergenceScenario, FlowletEvent, RackAffinity, TraceConfig,
    TraceGenerator,
};
pub use poisson::PoissonArrivals;
pub use scenario::{Admission, Phase, Scenario, ScenarioFlow, ScenarioKind};

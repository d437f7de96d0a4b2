//! Adversarial phase generators: bursty on/off sources, permutation
//! shift, and N:1 incast.
//!
//! Unlike the collectives, these are mostly *timed*
//! ([`Admission::AtTick`]): the point is to stress the allocator's
//! reaction latency, not to respect a dependency order. Burst off-windows
//! and permutation rotations *cut* still-running flows (`ends_previous`),
//! so the allocator sees abrupt arrival and departure edges.
//!
//! [`Admission::AtTick`]: crate::scenario::Admission::AtTick

use crate::scenario::{Phase, Scenario, ScenarioFlow};

/// Bursty on/off sources: the lower half of the fabric sends to the upper
/// half for `on_ticks`, goes silent for `off_ticks`, repeated `bursts`
/// times. Each burst emits two phases: a timed admission with the flows,
/// then an empty cut phase that force-ends whatever survived the window.
#[derive(Debug, Clone)]
pub struct BurstyOnOff {
    servers: u32,
    bytes: u64,
    on_ticks: u64,
    off_ticks: u64,
    bursts: u64,
    emitted: u64,
}

impl BurstyOnOff {
    /// Builds `bursts` on/off cycles over `servers` endpoints, each source
    /// `s < servers/2` sending `bytes` to `s + servers/2`.
    ///
    /// # Panics
    /// Panics if `servers < 2`, either window is zero ticks, or
    /// `bursts == 0`.
    pub fn new(servers: u32, bytes: u64, on_ticks: u64, off_ticks: u64, bursts: u64) -> Self {
        assert!(servers >= 2, "on/off needs at least one src/dst pair");
        assert!(on_ticks > 0 && off_ticks > 0, "windows must be nonzero");
        assert!(bursts > 0, "need at least one burst");
        BurstyOnOff {
            servers,
            bytes,
            on_ticks,
            off_ticks,
            bursts,
            emitted: 0,
        }
    }

    /// The configured duty cycle, `on / (on + off)`.
    pub fn duty_cycle(&self) -> f64 {
        self.on_ticks as f64 / (self.on_ticks + self.off_ticks) as f64
    }

    /// Ticks from one burst start to the next.
    pub fn period_ticks(&self) -> u64 {
        self.on_ticks + self.off_ticks
    }
}

impl Scenario for BurstyOnOff {
    fn name(&self) -> &'static str {
        "burst"
    }

    fn next_phase(&mut self) -> Option<Phase> {
        let burst = self.emitted / 2;
        if burst >= self.bursts {
            return None;
        }
        let start = burst * self.period_ticks();
        let phase = if self.emitted.is_multiple_of(2) {
            let half = self.servers / 2;
            let flows = (0..half)
                .map(|s| ScenarioFlow {
                    src: s,
                    dst: s + half,
                    bytes: self.bytes,
                })
                .collect();
            Phase::at_tick(start, format!("burst {burst}"), flows)
        } else {
            Phase::cut_at_tick(start + self.on_ticks, format!("off {burst}"), Vec::new())
        };
        self.emitted += 1;
        Some(phase)
    }
}

/// Permutation shift: every server sends to `(i + shift) % servers`, and
/// the shift rotates every `rotate_every` ticks — each rotation cuts the
/// previous permutation's flows, an adversarial churn pattern for the
/// allocator's dirty-set machinery.
#[derive(Debug, Clone)]
pub struct PermutationShift {
    servers: u32,
    bytes: u64,
    rotate_every: u64,
    phases: u64,
    base_shift: u32,
    next: u64,
}

impl PermutationShift {
    /// Builds `phases` rotations over `servers` endpoints, rotating every
    /// `rotate_every` ticks starting from shift `1 + base_shift mod (n−1)`.
    ///
    /// # Panics
    /// Panics if `servers < 2`, `rotate_every == 0`, or `phases == 0`.
    pub fn new(servers: u32, bytes: u64, rotate_every: u64, phases: u64, base_shift: u32) -> Self {
        assert!(servers >= 2, "a permutation needs at least 2 servers");
        assert!(rotate_every > 0, "rotation period must be nonzero");
        assert!(phases > 0, "need at least one permutation phase");
        PermutationShift {
            servers,
            bytes,
            rotate_every,
            phases,
            base_shift,
            next: 0,
        }
    }

    /// The shift used by phase `p` — always in `1..servers`, never the
    /// identity, so no flow is ever a self-loop.
    pub fn shift_of(&self, p: u64) -> u32 {
        1 + ((self.base_shift as u64 + p) % (self.servers as u64 - 1)) as u32
    }

    /// Ticks between rotations.
    pub fn rotate_every(&self) -> u64 {
        self.rotate_every
    }
}

impl Scenario for PermutationShift {
    fn name(&self) -> &'static str {
        "permshift"
    }

    fn next_phase(&mut self) -> Option<Phase> {
        let p = self.next;
        if p >= self.phases {
            return None;
        }
        self.next += 1;
        let shift = self.shift_of(p);
        let flows = (0..self.servers)
            .map(|i| ScenarioFlow {
                src: i,
                dst: (i + shift) % self.servers,
                bytes: self.bytes,
            })
            .collect();
        let mut phase =
            Phase::cut_at_tick(p * self.rotate_every, format!("perm shift {shift}"), flows);
        phase.ends_previous = p > 0;
        Some(phase)
    }
}

/// N:1 incast: every source sends `bytes` to one receiver simultaneously,
/// a single barrier phase. The fan-in degree is `sources.len()`.
#[derive(Debug, Clone)]
pub struct Incast {
    sources: Vec<u32>,
    receiver: u32,
    bytes: u64,
    done: bool,
}

impl Incast {
    /// Builds an incast of `sources.len()` senders onto `receiver`.
    ///
    /// # Panics
    /// Panics if `sources` is empty or contains `receiver`.
    pub fn new(sources: Vec<u32>, receiver: u32, bytes: u64) -> Self {
        assert!(!sources.is_empty(), "incast needs at least one source");
        assert!(
            !sources.contains(&receiver),
            "the receiver cannot also be a source"
        );
        Incast {
            sources,
            receiver,
            bytes,
            done: false,
        }
    }

    /// The fan-in degree.
    pub fn fan_in(&self) -> usize {
        self.sources.len()
    }
}

impl Scenario for Incast {
    fn name(&self) -> &'static str {
        "incast"
    }

    fn next_phase(&mut self) -> Option<Phase> {
        if self.done {
            return None;
        }
        self.done = true;
        let flows = self
            .sources
            .iter()
            .map(|&s| ScenarioFlow {
                src: s,
                dst: self.receiver,
                bytes: self.bytes,
            })
            .collect();
        Some(Phase::barrier(format!("incast {}:1", self.fan_in()), flows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Admission;

    #[test]
    fn bursts_alternate_admission_and_cut_at_the_configured_duty_cycle() {
        let mut s = BurstyOnOff::new(8, 10_000, 30, 70, 2);
        assert!((s.duty_cycle() - 0.3).abs() < 1e-12);
        let phases: Vec<Phase> = std::iter::from_fn(|| s.next_phase()).collect();
        assert_eq!(phases.len(), 4);
        assert_eq!(phases[0].admission, Admission::AtTick(0));
        assert!(!phases[0].ends_previous && phases[0].flows.len() == 4);
        assert_eq!(phases[1].admission, Admission::AtTick(30));
        assert!(phases[1].ends_previous && phases[1].flows.is_empty());
        assert_eq!(phases[2].admission, Admission::AtTick(100));
        assert_eq!(phases[3].admission, Admission::AtTick(130));
    }

    #[test]
    fn permshift_rotates_the_shift_and_cuts_from_the_second_phase_on() {
        let mut s = PermutationShift::new(6, 1_000, 50, 7, 3);
        let phases: Vec<Phase> = std::iter::from_fn(|| s.next_phase()).collect();
        assert_eq!(phases.len(), 7);
        assert!(!phases[0].ends_previous, "first phase has nothing to cut");
        assert!(phases[1..].iter().all(|p| p.ends_previous));
        // Shifts walk 1 + (3 + p) mod 5: 4, 5, 1, 2, 3, 4, 5 — never 0.
        for (p, phase) in phases.iter().enumerate() {
            assert_eq!(phase.admission, Admission::AtTick(p as u64 * 50));
            for f in &phase.flows {
                assert_ne!(f.src, f.dst);
            }
        }
    }

    #[test]
    fn incast_is_one_phase_of_pure_fan_in() {
        let mut s = Incast::new(vec![0, 1, 2, 3, 8, 9], 15, 500_000);
        let p = s.next_phase().unwrap();
        assert_eq!(p.flows.len(), 6);
        assert!(p.flows.iter().all(|f| f.dst == 15));
        assert!(s.next_phase().is_none());
    }

    #[test]
    #[should_panic(expected = "receiver cannot also be a source")]
    fn incast_rejects_a_source_receiver() {
        let _ = Incast::new(vec![0, 1], 1, 100);
    }
}

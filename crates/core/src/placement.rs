//! Exchange-aware shard placement: which endpoints each shard owns.
//!
//! Sharding the allocator only scales if the partition does not
//! re-create the very congestion it is meant to control. The
//! [`ShardedService`](crate::ShardedService) routes every flowlet to the
//! shard owning its **source** endpoint, so a fabric link is *shared* —
//! and must be reconciled through the periodic link-state exchange —
//! exactly when sources in different shards load it (destination-side
//! links of a rack that receives from several shards; source-side links
//! are single-shard by construction). The historical placement is
//! [`Placement::contiguous`]: equal contiguous server ranges, which
//! routinely lands communicating racks in different shards and turns
//! every hot destination link into exchange traffic and consensus
//! staleness.
//!
//! [`Placement::traffic`] instead partitions **racks** by the workload's
//! traffic matrix: a deterministic greedy grouping (communicating racks
//! attract) followed by an optional Kernighan–Lin-style swap refinement,
//! both over rack-aligned units with balanced shard sizes. Racks that
//! exchange traffic end up in the same shard, so each destination's
//! senders concentrate in one shard, shared links become single-shard
//! links, and the sparse exchange re-ships them once instead of once per
//! loading shard (and installs fewer consensus duals back). The traffic
//! matrix is supplied when the plane is built (sampled from the workload
//! generator, see `flowtune_workload::rack_traffic_matrix`, and handed to
//! [`ServiceBuilder::traffic_matrix`](crate::ServiceBuilder::traffic_matrix));
//! the placement then stays fixed for the plane's life.
//!
//! When the matrix carries no signal (all zeros, or a shape the fabric
//! does not match), [`Placement::traffic`] falls back to the contiguous
//! placement, so enabling it is always safe.

use std::fmt;

/// How a sharded control plane should map endpoints to shards — the
/// `Copy`-able *policy* half of placement, carried in
/// [`FlowtuneConfig`](crate::FlowtuneConfig) (the materialized mapping is
/// a [`Placement`], built by
/// [`ServiceBuilder::build_driver`](crate::ServiceBuilder) from this spec
/// plus the builder's traffic matrix, if any).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementSpec {
    /// Contiguous equal server ranges — the historical default, and
    /// bit-for-bit identical to the pre-placement sharded service.
    #[default]
    Contiguous,
    /// Traffic-matrix-driven rack grouping (greedy agglomeration;
    /// `refine` adds the Kernighan–Lin-style swap pass). Falls back to
    /// [`PlacementSpec::Contiguous`] when no matrix is supplied or the
    /// matrix carries no signal.
    Traffic {
        /// Run the swap-refinement pass after the greedy grouping.
        refine: bool,
    },
}

/// `--placement` names [`PlacementSpec::parse`] accepts.
pub const PLACEMENT_NAMES: [&str; 3] = ["contiguous", "traffic", "traffic:refine"];

/// A `--placement` value [`PlacementSpec::parse`] did not recognize; its
/// `Display` lists the valid names so surfacing it verbatim gives the
/// operator the fix (mirrors [`ParseEngineError`](crate::ParseEngineError)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePlacementError {
    got: String,
}

impl ParsePlacementError {
    /// The rejected placement name.
    pub fn got(&self) -> &str {
        &self.got
    }
}

impl fmt::Display for ParsePlacementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown placement `{}`; valid placements: {}",
            self.got,
            PLACEMENT_NAMES.join(", ")
        )
    }
}

impl std::error::Error for ParsePlacementError {}

impl PlacementSpec {
    /// Parses a placement name as accepted by the experiment binaries'
    /// `--placement` flag.
    ///
    /// # Errors
    /// [`ParsePlacementError`] (listing the valid names) on anything not
    /// in [`PLACEMENT_NAMES`].
    pub fn parse(s: &str) -> Result<PlacementSpec, ParsePlacementError> {
        match s {
            "contiguous" => Ok(PlacementSpec::Contiguous),
            "traffic" => Ok(PlacementSpec::Traffic { refine: false }),
            "traffic:refine" => Ok(PlacementSpec::Traffic { refine: true }),
            _ => Err(ParsePlacementError { got: s.to_string() }),
        }
    }

    /// The flag-style name (`contiguous` / `traffic` / `traffic:refine`).
    pub fn name(&self) -> &'static str {
        match self {
            PlacementSpec::Contiguous => "contiguous",
            PlacementSpec::Traffic { refine: false } => "traffic",
            PlacementSpec::Traffic { refine: true } => "traffic:refine",
        }
    }
}

/// A rack-by-rack traffic matrix: `weights[src_rack][dst_rack]` in
/// offered bytes (any consistent unit works — the placer only compares
/// magnitudes). Built from a sampled workload trace
/// (`flowtune_workload::rack_traffic_matrix`).
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficMatrix {
    racks: usize,
    /// Row-major `racks × racks` weights.
    weights: Vec<f64>,
}

impl TrafficMatrix {
    /// An all-zero matrix over `racks` racks.
    pub fn new(racks: usize) -> Self {
        Self {
            racks,
            weights: vec![0.0; racks * racks],
        }
    }

    /// Builds a matrix from row-major `racks × racks` weights.
    ///
    /// # Panics
    /// Panics if `weights.len() != racks * racks`.
    pub fn from_weights(racks: usize, weights: Vec<f64>) -> Self {
        assert_eq!(
            weights.len(),
            racks * racks,
            "a {racks}-rack matrix needs {racks}×{racks} weights"
        );
        Self { racks, weights }
    }

    /// Number of racks the matrix covers.
    pub fn racks(&self) -> usize {
        self.racks
    }

    /// Offered traffic from `src` rack to `dst` rack.
    pub fn get(&self, src: usize, dst: usize) -> f64 {
        self.weights[src * self.racks + dst]
    }

    /// Accumulates `bytes` of offered traffic from `src` rack to `dst`
    /// rack.
    pub fn add(&mut self, src: usize, dst: usize, bytes: f64) {
        self.weights[src * self.racks + dst] += bytes;
    }

    /// Symmetrized pair weight `w(a→b) + w(b→a)` — the attraction the
    /// placer optimizes (direction does not matter for co-location).
    pub fn pair_weight(&self, a: usize, b: usize) -> f64 {
        self.get(a, b) + self.get(b, a)
    }

    /// Total offered traffic; zero means the matrix carries no placement
    /// signal.
    pub fn total(&self) -> f64 {
        self.weights.iter().sum()
    }
}

/// A materialized endpoint→shard mapping, fixed when a sharded plane is
/// built and consulted by its router on every `FlowletStart`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// server index → shard index.
    shard_of: Vec<u32>,
    shards: usize,
    strategy: &'static str,
}

impl Placement {
    /// The historical placement: `shards` contiguous, equal ranges of the
    /// `servers`-sized endpoint space. The mapping is exactly the
    /// pre-placement routing formula
    /// (`src * shards / servers`, clamped), so contiguous-placement
    /// deployments stay bit-for-bit identical to older builds.
    ///
    /// # Panics
    /// Panics if `servers` or `shards` is 0.
    pub fn contiguous(servers: usize, shards: usize) -> Self {
        assert!(servers > 0, "a placement needs at least one server");
        assert!(shards > 0, "a placement needs at least one shard");
        let shard_of = (0..servers)
            .map(|s| ((s * shards / servers).min(shards - 1)) as u32)
            .collect();
        Self {
            shard_of,
            shards,
            strategy: "contiguous",
        }
    }

    /// Traffic-aware placement: groups communicating racks into the same
    /// shard so destination-side links are loaded by a single shard and
    /// the inter-shard exchange has less to reconcile.
    ///
    /// Racks are the placement unit (`servers / servers_per_rack` of
    /// them, rack `r` owning servers `r*servers_per_rack ..`); shard
    /// sizes are balanced to within one rack. The placer is two
    /// deterministic phases:
    ///
    /// 1. **greedy agglomeration** — racks in descending total-traffic
    ///    order each join the non-full shard they are most attracted to
    ///    (largest summed [`TrafficMatrix::pair_weight`] to the racks
    ///    already there; ties pick the lowest shard index);
    /// 2. **swap refinement** (when `refine`) — repeatedly apply the
    ///    cross-shard rack swap with the largest positive gain in
    ///    intra-shard weight (the Kernighan–Lin move, size-preserving by
    ///    construction) until no swap gains.
    ///
    /// Falls back to [`Placement::contiguous`] when the matrix carries no
    /// signal: zero total traffic, a rack count that does not match
    /// `servers / servers_per_rack`, or more shards than racks. The
    /// placer has no randomness — the same matrix and shape always yield
    /// the same placement.
    ///
    /// # Panics
    /// Panics if `servers`, `servers_per_rack` or `shards` is 0, or if
    /// `servers_per_rack` does not divide `servers`.
    pub fn traffic(
        servers: usize,
        servers_per_rack: usize,
        shards: usize,
        matrix: &TrafficMatrix,
        refine: bool,
    ) -> Self {
        assert!(servers > 0, "a placement needs at least one server");
        assert!(servers_per_rack > 0, "racks need at least one server");
        assert!(shards > 0, "a placement needs at least one shard");
        assert!(
            servers.is_multiple_of(servers_per_rack),
            "servers_per_rack must divide servers"
        );
        let racks = servers / servers_per_rack;
        if matrix.racks() != racks || shards > racks || matrix.total() <= 0.0 {
            return Self::contiguous(servers, shards);
        }

        let rack_shard = refine_racks(greedy_racks(racks, shards, matrix), matrix, refine);

        let mut shard_of = Vec::with_capacity(servers);
        for (r, &shard) in rack_shard.iter().enumerate() {
            debug_assert!(r < racks);
            shard_of.extend(std::iter::repeat_n(shard, servers_per_rack));
        }
        Self {
            shard_of,
            shards,
            strategy: if refine { "traffic:refine" } else { "traffic" },
        }
    }

    /// Number of shards this placement maps onto.
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// Number of servers this placement covers.
    pub fn servers(&self) -> usize {
        self.shard_of.len()
    }

    /// The shard owning source endpoint `src`. Out-of-range endpoints
    /// clamp to the last server's shard (whose service then rejects the
    /// start as malformed) — the same clamp the contiguous routing
    /// formula always applied.
    pub fn shard_of(&self, src: u16) -> usize {
        self.shard_of[(src as usize).min(self.shard_of.len() - 1)] as usize
    }

    /// The strategy that produced this placement (`contiguous`,
    /// `traffic`, `traffic:refine`) — telemetry only. A traffic request
    /// that fell back reports `contiguous`, honestly.
    pub fn strategy(&self) -> &'static str {
        self.strategy
    }

    /// Number of endpoints assigned to `shard`.
    pub fn shard_size(&self, shard: usize) -> usize {
        self.shard_of
            .iter()
            .filter(|&&s| s as usize == shard)
            .count()
    }
}

/// Phase 1: deterministic greedy agglomeration — racks in descending
/// total-traffic order join the non-full shard with the strongest
/// attraction. Returns rack → shard.
fn greedy_racks(racks: usize, shards: usize, matrix: &TrafficMatrix) -> Vec<u32> {
    // Balanced shard capacities: the first `racks % shards` shards take
    // one extra rack.
    let base = racks / shards;
    let extra = racks % shards;
    let capacity: Vec<usize> = (0..shards).map(|i| base + usize::from(i < extra)).collect();

    // Heaviest racks place first (they anchor their communication
    // partners); ties break on rack index so the pass is deterministic.
    let totals: Vec<f64> = (0..racks)
        .map(|r| (0..racks).map(|s| matrix.pair_weight(r, s)).sum())
        .collect();
    let mut order: Vec<usize> = (0..racks).collect();
    order.sort_by(|&a, &b| {
        totals[b]
            .partial_cmp(&totals[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });

    let mut assignment = vec![u32::MAX; racks];
    let mut fill = vec![0usize; shards];
    for &r in &order {
        let mut best_shard = usize::MAX;
        let mut best_attraction = f64::NEG_INFINITY;
        let mut best_fill = usize::MAX;
        for shard in 0..shards {
            if fill[shard] >= capacity[shard] {
                continue;
            }
            let attraction: f64 = (0..racks)
                .filter(|&s| assignment[s] == shard as u32)
                .map(|s| matrix.pair_weight(r, s))
                .sum();
            // Equal attraction (typically zero — a rack with no placed
            // partner yet) prefers the emptiest shard, so unrelated
            // anchors spread out instead of piling into shard 0; the
            // remaining tie keeps the lowest shard index. Deterministic
            // either way.
            if attraction > best_attraction
                || (attraction == best_attraction && fill[shard] < best_fill)
            {
                best_attraction = attraction;
                best_shard = shard;
                best_fill = fill[shard];
            }
        }
        assignment[r] = best_shard as u32;
        fill[best_shard] += 1;
    }
    assignment
}

/// Phase 2: Kernighan–Lin-style refinement — apply the best
/// strictly-positive cross-shard rack swap until none remains. Each
/// applied swap strictly increases intra-shard weight, so the loop
/// terminates; the scan order (and strict improvement) makes it
/// deterministic.
fn refine_racks(mut assignment: Vec<u32>, matrix: &TrafficMatrix, refine: bool) -> Vec<u32> {
    if !refine {
        return assignment;
    }
    let racks = assignment.len();
    // Attraction of rack r to every rack currently in `shard`, excluding
    // a rack to ignore (the swap partner, which is leaving).
    let conn = |assignment: &[u32], r: usize, shard: u32, ignore: usize| -> f64 {
        (0..racks)
            .filter(|&s| s != r && s != ignore && assignment[s] == shard)
            .map(|s| matrix.pair_weight(r, s))
            .sum()
    };
    loop {
        let mut best_gain = 0.0;
        let mut best_pair = None;
        for a in 0..racks {
            for b in a + 1..racks {
                let (sa, sb) = (assignment[a], assignment[b]);
                if sa == sb {
                    continue;
                }
                let gain = conn(&assignment, a, sb, b) - conn(&assignment, a, sa, b)
                    + conn(&assignment, b, sa, a)
                    - conn(&assignment, b, sb, a);
                if gain > best_gain {
                    best_gain = gain;
                    best_pair = Some((a, b));
                }
            }
        }
        match best_pair {
            Some((a, b)) => assignment.swap(a, b),
            None => return assignment,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parses_and_roundtrips() {
        for spec in [
            PlacementSpec::Contiguous,
            PlacementSpec::Traffic { refine: false },
            PlacementSpec::Traffic { refine: true },
        ] {
            assert_eq!(PlacementSpec::parse(spec.name()), Ok(spec));
        }
        let err = PlacementSpec::parse("hilbert").unwrap_err();
        assert_eq!(err.got(), "hilbert");
        let msg = err.to_string();
        for name in PLACEMENT_NAMES {
            assert!(msg.contains(name), "{msg} should list {name}");
        }
    }

    #[test]
    fn contiguous_matches_the_historical_formula() {
        for (servers, shards) in [(16, 2), (16, 3), (24, 2), (144, 4), (7, 3), (5, 5)] {
            let p = Placement::contiguous(servers, shards);
            assert_eq!(p.servers(), servers);
            assert_eq!(p.shard_count(), shards);
            for src in 0..(servers + 10) as u16 {
                let expected = ((src as usize).min(servers - 1) * shards / servers).min(shards - 1);
                assert_eq!(p.shard_of(src), expected, "{servers}/{shards} src {src}");
            }
        }
    }

    /// A 6-rack matrix whose affinity classes interleave (0↔2↔4, 1↔3↔5):
    /// the adversarial case for contiguous placement.
    fn interleaved(racks: usize) -> TrafficMatrix {
        let mut m = TrafficMatrix::new(racks);
        for a in 0..racks {
            for b in 0..racks {
                if a != b && a % 2 == b % 2 {
                    m.add(a, b, 100.0);
                }
            }
        }
        m
    }

    #[test]
    fn traffic_groups_communicating_racks() {
        let m = interleaved(6);
        for refine in [false, true] {
            let p = Placement::traffic(24, 4, 2, &m, refine);
            assert_eq!(
                p.strategy(),
                if refine { "traffic:refine" } else { "traffic" }
            );
            // Each class lands in one shard; sizes balance 12/12.
            assert_eq!(p.shard_size(0), 12);
            assert_eq!(p.shard_size(1), 12);
            for rack in 0..6 {
                let shard = p.shard_of((rack * 4) as u16);
                let class_anchor = p.shard_of((4 * (rack % 2)) as u16);
                assert_eq!(shard, class_anchor, "rack {rack} left its class");
                // Rack-aligned: all four servers of the rack agree.
                for s in 0..4u16 {
                    assert_eq!(p.shard_of((rack * 4) as u16 + s), shard);
                }
            }
            // The two classes are in *different* shards.
            assert_ne!(p.shard_of(0), p.shard_of(4));
        }
    }

    #[test]
    fn traffic_placement_is_deterministic() {
        let m = interleaved(6);
        for refine in [false, true] {
            let a = Placement::traffic(24, 4, 2, &m, refine);
            let b = Placement::traffic(24, 4, 2, &m, refine);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn refinement_fixes_a_bad_greedy_seed() {
        // Two heavy pairs (0,3) and (1,2) plus a uniform background that
        // makes every rack's total equal, so the greedy order is by
        // index: greedy seats 0 and 1 together (0 anchors shard 0; 1 is
        // attracted to 0's background weight... construct so greedy errs)
        // — the swap pass must recover the pairing regardless.
        let mut m = TrafficMatrix::new(4);
        // Heavy true pairs.
        m.add(0, 3, 100.0);
        m.add(1, 2, 100.0);
        // A decoy edge that misleads the greedy phase.
        m.add(0, 1, 60.0);
        let refined = Placement::traffic(16, 4, 2, &m, true);
        assert_eq!(refined.shard_of(0), refined.shard_of(12), "pair (0,3)");
        assert_eq!(refined.shard_of(4), refined.shard_of(8), "pair (1,2)");
        assert_ne!(refined.shard_of(0), refined.shard_of(4));
    }

    #[test]
    fn no_signal_falls_back_to_contiguous() {
        let servers = 24;
        let contiguous = Placement::contiguous(servers, 2);
        // Zero matrix.
        let zero = Placement::traffic(servers, 4, 2, &TrafficMatrix::new(6), true);
        assert_eq!(zero, contiguous);
        assert_eq!(zero.strategy(), "contiguous");
        // Rack-count mismatch.
        let wrong = Placement::traffic(servers, 4, 2, &interleaved(5), false);
        assert_eq!(wrong, contiguous);
        // More shards than racks.
        let m2 = interleaved(2);
        let crowded = Placement::traffic(8, 4, 3, &m2, false);
        assert_eq!(crowded, Placement::contiguous(8, 3));
    }

    #[test]
    fn balanced_sizes_with_ragged_rack_counts() {
        // 5 racks over 2 shards: sizes 3 and 2 racks, deterministic.
        let mut m = TrafficMatrix::new(5);
        for a in 0..5 {
            for b in 0..5 {
                if a != b {
                    m.add(a, b, 1.0 + (a * 5 + b) as f64 * 0.01);
                }
            }
        }
        let p = Placement::traffic(20, 4, 2, &m, true);
        let sizes = [p.shard_size(0), p.shard_size(1)];
        assert_eq!(sizes.iter().sum::<usize>(), 20);
        assert!(sizes.contains(&12) && sizes.contains(&8), "{sizes:?}");
    }

    #[test]
    fn matrix_accessors() {
        let mut m = TrafficMatrix::new(3);
        m.add(0, 2, 5.0);
        m.add(2, 0, 7.0);
        assert_eq!(m.racks(), 3);
        assert_eq!(m.get(0, 2), 5.0);
        assert_eq!(m.pair_weight(0, 2), 12.0);
        assert_eq!(m.pair_weight(2, 0), 12.0);
        assert_eq!(m.total(), 12.0);
        let w = TrafficMatrix::from_weights(2, vec![0.0, 1.0, 2.0, 0.0]);
        assert_eq!(w.pair_weight(0, 1), 3.0);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn ragged_rack_size_rejected() {
        let _ = Placement::traffic(10, 4, 2, &TrafficMatrix::new(2), false);
    }
}

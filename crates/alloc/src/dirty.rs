//! Dirty-set tracking for incremental grid iterations (either price
//! rule).
//!
//! At production scale most ticks are quiet: a handful of flowlet
//! starts/ends against a steady mass of converged flows. A full sweep
//! re-prices every flow anyway. [`DirtySet`] records *which FlowBlock
//! workers could possibly produce different output* and lets the engine
//! skip the rest:
//!
//! * a worker is **rate-dirty** when a flow was added to or removed from
//!   it, or when the authoritative price of a link its flows traverse
//!   has *moved* since the worker last ran its rate pass (detected by
//!   diffing the freshly updated LinkBlock prices against a per-link
//!   snapshot, or by an exchange install overwriting a dual);
//! * a worker is **norm-dirty** when a utilization ratio on a link its
//!   flows traverse moved this iteration (F-NORM reads ratios, not
//!   prices).
//!
//! What counts as a move is [`DirtySet::moved`]'s one rule: a move
//! beyond [`DirtySet::slack`] of the snapshot. At `eps = 0` the slack is
//! zero and any change of value marks. At a positive `eps` it is [`REL`]
//! — a quarter of the `Rate16` step a rate leaves the allocator with —
//! of the snapshot, or `eps` itself where that is larger: `eps` is only
//! the absolute floor for an idle dual decaying toward 0. Finer
//! re-pricing changes no byte an endpoint can receive, bar a rate at a
//! rounding boundary; the duality gap of `crate::certificate` is how such
//! a plane is judged against the exact one, since its update stream
//! differs.
//!
//! Two consequences of the slack keep a positive-`eps` plane close to the
//! exact one. F-NORM reads each link's *ratio ceiling*, snapshot plus
//! slack — the largest ratio that passes unmarked — so a clean worker's
//! normalized rates never load a link past its capacity. And the NED
//! price step is *anchored* at the price snapshot (the price the link's
//! crossers last read): it steps on the load those flows would carry at
//! the current price, to first order, so a link whose crossers have not
//! re-run yet does not repeat its last move every time the link phases
//! run. Both are no-ops at `eps = 0`.
//!
//! The correctness invariant is *output equivalence at `eps = 0`*: a
//! clean worker's accumulators and rates are bitwise what a recompute
//! would produce, because every input its kernels read (its flow set and
//! the prices/ratios at the offsets those flows traverse — tracked by
//! per-offset *touch counts*) is numerically unchanged since its last
//! recompute. Dirty workers re-run the full per-worker kernel
//! (`Accums::clear` + `rate_pass`), so accumulator clearing is *lazy*:
//! instead of a per-tick global `clear`, each worker's accumulators are
//! reset only in the iteration ("epoch") that actually recomputes it —
//! `DirtySet::iter` is that epoch counter.
//!
//! The aggregate/price-update phases cost `O(B²·L)` (links, not flows)
//! and run whenever any worker recomputed *or* any price or
//! ratio is still in motion (`DirtySet::moving`) — the NED price update
//! is not idempotent before convergence, so it must keep integrating
//! until the whole system is numerically stationary. Once no worker is
//! dirty and nothing moved in the last diff, a quiet iteration skips the
//! link phases entirely (exact at `eps = 0`: a markless diff means the
//! update reproduced its input bitwise). Under a positive `eps`, skipped
//! updates hold back a Newton residual within the relative rule — a
//! price or ratio within a quarter `Rate16` step of what its flows last
//! read. Every `full_sweep_every`-th iteration forces one pass of the
//! link phases to apply it; that pass re-prices no flow by itself, only
//! the workers whose links its diff marks, and with the anchored step a
//! pass over loads that have not changed does not repeat the last
//! pass's move: on a settled plane it marks nothing. Nothing compounds
//! in between: a snapshot moves only when its link marks, so no flow
//! reads a price further than the rule from the one it last read, and a
//! worker that re-runs rebuilds its accumulators from scratch.

use crate::reduce::{members, position, Dir, DIRS};

/// The relative move below which a positive-`eps` dirty set leaves a
/// link's flows alone: 2⁻¹³, a quarter of a `Rate16` step. A rate is
/// `w / Σ p` over its path, so a relative price move `δ` moves it by at
/// most `δ` relative, and a move under a quarter step changes what the
/// wire carries only where a rate sits at a rounding boundary.
pub(crate) const REL: f64 = 1.0 / 8192.0;

/// Dirty-state bookkeeping for one engine's B×B worker grid.
///
/// Owned by the engine's grid when
/// [`AllocConfig::incremental`](crate::AllocConfig::incremental) is set;
/// all mutation happens inside the engine's iterate/intake/install paths.
#[derive(Debug)]
pub(crate) struct DirtySet {
    /// `0` marks any change; otherwise the absolute floor of
    /// [`DirtySet::moved`]'s relative rule.
    pub(crate) eps: f64,
    /// Force a pass of the link phases each time `iter` hits a multiple
    /// of this (`0` = never); it re-prices no flow by itself.
    pub(crate) full_sweep_every: u64,
    /// Iterations run so far — the epoch counter behind the lazy
    /// accumulator clears and the forced link passes.
    pub(crate) iter: u64,
    /// Grid dimension B.
    pub(crate) blocks: usize,
    /// Worker must re-run its rate pass next iteration.
    pub(crate) rate_dirty: Vec<bool>,
    /// Worker must re-run F-NORM this iteration (a traversed ratio
    /// moved); rebuilt during every diff phase.
    pub(crate) norm_dirty: Vec<bool>,
    /// Worker re-ran its rate pass *this* iteration (scratch).
    pub(crate) recomputed: Vec<bool>,
    /// Worker's rates/normalized may have changed since the last
    /// [`drain_changed_rates`](crate::SerialAllocator::drain_changed_rates)
    /// drain (accumulates across iterations within a tick): the workers
    /// the drain runs its report pass over.
    pub(crate) export_dirty: Vec<bool>,
    /// Per direction, per worker, per LinkBlock offset: how many of the
    /// worker's flows traverse that link. A price move only dirties
    /// workers whose count is positive — the others never read the moved
    /// price.
    pub(crate) touch: [Vec<Vec<u32>>; 2],
    /// Per direction, per block: the LinkBlock's prices as of the last
    /// time each link was marked (diffs compare against these, with
    /// [`DirtySet::slack`] hysteresis) — the prices the links' crossers
    /// last read, and so also the NED step's anchor
    /// (`flowblock::price_update`).
    pub(crate) prev_prices: [Vec<Vec<f64>>; 2],
    /// Per direction, per block: the utilization-ratio snapshots; F-NORM
    /// reads each plus its slack at a positive `eps`.
    pub(crate) prev_ratio: [Vec<Vec<f64>>; 2],
    /// Per direction, per block, per offset: marked by intake since the
    /// last iteration (observability: `dirty_link_ids`).
    pub(crate) intake: [Vec<Vec<bool>>; 2],
    /// Dedup'd `(direction, block, offset)` list of the intake marks
    /// above, in first-marked order.
    pub(crate) intake_list: Vec<(Dir, u32, u32)>,
    /// Some price or ratio is still in motion: the last diff phase saw a
    /// move beyond `eps` on *any* link — including links no flow touches
    /// (the decay branch keeps evolving an unloaded link's dual long
    /// after every touch count is zero) — or an exchange install
    /// overwrote a dual since. While set, the aggregate/price phases
    /// must keep running even with zero rate-dirty workers, or
    /// the frozen trajectory would diverge from the full sweep's the
    /// moment a new flow lands on one of those links.
    pub(crate) moving: bool,
    /// Cumulative count of flows whose rate pass was re-run.
    pub(crate) dirty_flows: u64,
    /// Cumulative count of (link, iteration) price moves beyond `eps`
    /// (price-update diffs and exchange installs).
    pub(crate) dirty_links: u64,
}

impl DirtySet {
    /// A fresh set over a `blocks`×`blocks` grid whose LinkBlocks hold
    /// `links_per_lb` links each. Every worker starts rate-dirty (the
    /// first iteration is a full sweep by construction) and the price
    /// snapshots start at the `PriceView::new` initial values.
    pub(crate) fn new(blocks: usize, links_per_lb: usize, eps: f64, full_sweep_every: u64) -> Self {
        let n = blocks * blocks;
        Self {
            eps,
            full_sweep_every,
            iter: 0,
            blocks,
            rate_dirty: vec![true; n],
            norm_dirty: vec![false; n],
            recomputed: vec![false; n],
            export_dirty: vec![false; n],
            touch: [(); 2].map(|_| vec![vec![0; links_per_lb]; n]),
            // PriceView::new starts all prices at 1 and all ratios at 0.
            prev_prices: [(); 2].map(|_| vec![vec![1.0; links_per_lb]; blocks]),
            prev_ratio: [(); 2].map(|_| vec![vec![0.0; links_per_lb]; blocks]),
            intake: [(); 2].map(|_| vec![vec![false; links_per_lb]; blocks]),
            intake_list: Vec::new(),
            moving: true,
            dirty_flows: 0,
            dirty_links: 0,
        }
    }

    /// Cumulative `(dirty_flows, dirty_links)` counters: flows whose rate
    /// pass re-ran, and per-iteration link price moves beyond `eps`.
    pub(crate) fn counters(&self) -> (u64, u64) {
        (self.dirty_flows, self.dirty_links)
    }

    /// Records a flow added to worker `w` traversing the given
    /// per-direction offsets: bumps the touch counts, marks the worker
    /// rate-dirty, and marks the traversed links as intake-dirty.
    // flowtune-lint: hot
    pub(crate) fn note_add(&mut self, w: usize, path: [&[u16]; 2]) {
        self.note(w, path, |count| *count += 1);
    }

    /// Records a flow removed from worker `w` (its real offsets, as
    /// `FlowBlock::path` reports them — never the sentinel): decrements
    /// the touch counts, marks the worker rate-dirty, and marks the
    /// traversed links as intake-dirty.
    // flowtune-lint: hot
    pub(crate) fn note_remove(&mut self, w: usize, path: [&[u16]; 2]) {
        self.note(w, path, |count| *count -= 1);
    }

    /// What an add and a remove share; `step` moves one touch count.
    // flowtune-lint: hot
    fn note(&mut self, w: usize, path: [&[u16]; 2], step: impl Fn(&mut u32)) {
        self.rate_dirty[w] = true;
        for d in DIRS {
            let block = position(d, w, self.blocks).0 as u32;
            for &o in path[d] {
                step(&mut self.touch[d][w][o as usize]);
                let cell = &mut self.intake[d][block as usize][o as usize];
                if !*cell {
                    *cell = true;
                    self.intake_list.push((d, block, o.into()));
                }
            }
        }
    }

    /// Clears the intake marks (called at the start of each iteration,
    /// after they have served their purpose of marking workers).
    // flowtune-lint: hot
    pub(crate) fn drain_intake(&mut self) {
        for &(d, block, offset) in &self.intake_list {
            self.intake[d][block as usize][offset as usize] = false;
        }
        self.intake_list.clear();
    }

    /// Sets `norm_dirty` (else `rate_dirty`) on every member of LinkBlock
    /// `(d, blk)` whose flows traverse offset `o`.
    // flowtune-lint: hot
    pub(crate) fn mark_crossers(&mut self, d: Dir, blk: usize, o: usize, norm: bool) {
        let flags = if norm {
            &mut self.norm_dirty
        } else {
            &mut self.rate_dirty
        };
        for w in members(d, blk, self.blocks) {
            if self.touch[d][w][o] > 0 {
                flags[w] = true;
            }
        }
    }

    /// How far a price or ratio may move from its snapshot `snap`
    /// without re-running the flows that read it: `0` at `eps == 0`, so
    /// any change of value marks and the incremental tick stays the full
    /// sweep bit for bit. Otherwise [`REL`] of the snapshot, with `eps`
    /// as the absolute floor where the snapshot is near zero (an idle
    /// dual decaying toward it).
    // flowtune-lint: hot
    #[inline]
    pub(crate) fn slack(&self, snap: f64) -> f64 {
        if self.eps == 0.0 {
            0.0
        } else {
            (REL * snap.abs()).max(self.eps)
        }
    }

    /// Has a price or ratio moved from its snapshot `snap` to `new` by
    /// more than [`DirtySet::slack`]?
    // flowtune-lint: hot
    #[inline]
    pub(crate) fn moved(&self, new: f64, snap: f64) -> bool {
        (new - snap).abs() > self.slack(snap)
    }

    /// A price of LinkBlock `(d, blk)` moved beyond eps to `p`, by a
    /// price update or an install: snapshot it and rate-dirty every
    /// worker whose flows cross the link.
    // flowtune-lint: hot
    pub(crate) fn price_moved(&mut self, d: Dir, blk: usize, o: usize, p: f64) {
        self.moving = true;
        self.dirty_links += 1;
        self.prev_prices[d][blk][o] = p;
        self.mark_crossers(d, blk, o, false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduce::{DOWN, UP};

    #[test]
    fn touch_counts_follow_add_remove() {
        let mut ds = DirtySet::new(2, 4, 0.0, 0);
        ds.note_add(1, [&[0, 2], &[3]]);
        assert_eq!(ds.touch[UP][1][0], 1);
        assert_eq!(ds.touch[UP][1][2], 1);
        assert_eq!(ds.touch[DOWN][1][3], 1);
        assert!(ds.rate_dirty[1]);
        // Worker 1 = (row 0, col 1): up block 0, down block 1.
        assert_eq!(ds.intake_list, vec![(UP, 0, 0), (UP, 0, 2), (DOWN, 1, 3)]);
        // A second flow on a shared link dedups the intake mark.
        ds.note_add(1, [&[0], &[3]]);
        assert_eq!(ds.touch[UP][1][0], 2);
        assert_eq!(ds.intake_list.len(), 3);
        ds.drain_intake();
        assert!(ds.intake_list.is_empty());
        ds.note_remove(1, [&[0, 2], &[3]]);
        assert_eq!(ds.touch[UP][1][0], 1);
        assert_eq!(ds.touch[UP][1][2], 0);
        assert_eq!(ds.intake_list.len(), 3, "remove re-marks its links");
    }

    #[test]
    fn a_ratio_at_its_ceiling_has_not_moved() {
        // F-NORM reads `snap + slack(snap)` between marks: the test must
        // let that very value pass, at either precision, and mark the
        // next float above it.
        for eps in [0.0, 1e-9, 0.5] {
            let ds = DirtySet::new(1, 1, eps, 0);
            for snap in [0.0, 1e-12, 0.37, 0.99, 1.0, 3.5, 1e6] {
                let ceiling = snap + ds.slack(snap);
                assert!(!ds.moved(ceiling, snap), "eps {eps}, snap {snap}");
                let above = f64::from_bits(ceiling.to_bits() + 1);
                assert!(ds.moved(above, snap), "eps {eps}, snap {snap}");
            }
        }
        assert_eq!(DirtySet::new(1, 1, 0.0, 0).slack(0.5), 0.0);
    }

    #[test]
    fn counters_start_at_zero_and_workers_start_dirty() {
        let ds = DirtySet::new(4, 8, 1e-9, 16);
        assert_eq!(ds.counters(), (0, 0));
        assert!(ds.rate_dirty.iter().all(|&d| d));
        assert!(ds.export_dirty.iter().all(|&d| !d));
        assert_eq!(ds.eps, 1e-9);
        assert_eq!(ds.prev_prices[UP][0][0], 1.0);
        assert_eq!(ds.prev_ratio[UP][0][0], 0.0);
    }
}

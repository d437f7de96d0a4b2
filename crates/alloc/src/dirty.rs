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
//! What counts as a move is [`moved`]'s one rule: a move beyond
//! [`slack`] of the snapshot. At `eps = 0` the slack is
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
//! per-link *touch counts*) is numerically unchanged since its last
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
//!
//! **Layout.** Everything per link lives in the grid's slot order,
//! (direction, LinkBlock, offset) — LinkBlock `(d, blk)`'s `lpl` entries
//! from `layout.first_slot(d, blk)` — as flat arrays: the snapshots, the
//! intake marks, and per slot a *crosser mask* whose bit `k` is set while
//! member `k` of the slot's LinkBlock (`reduce::member`) has a flow on
//! the link. Intake keeps the masks ([`DirtySet::note_add`] /
//! [`DirtySet::note_remove`] set or clear a bit as its touch count leaves
//! or reaches zero), so a diff ([`DirtySet::diff`]) or an install
//! ([`DirtySet::install`]) is one branch-free pass over a LinkBlock's
//! slots — a moved flag per slot, the snapshot as a select, an OR of the
//! moved slots' masks — and then one flag write per member. A mask is a
//! `u64`, so a dirty set covers at most 64 blocks: a larger grid builds
//! none and runs the plain sweep every tick.
//!
//! **The plain path.** Under churn the set can skip nothing: every worker
//! that holds flows is rate-dirty, and the diff and the install's marks
//! only cost. So a tick on which every such worker re-runs its rate pass
//! is the plain sweep — no anchor, no diff, no ceilings, and an install
//! is the plain copy — and leaves every worker rate-dirty
//! ([`DirtySet::plain`]), so the grid stays on that path. It tries the
//! way back on a tick with no news from outside — no intake, no install
//! that moved a dual — and on the forced-pass cadence after the first
//! tick: the snapshots are resynced to the views ([`DirtySet::resync`]),
//! the prices every flow just read, and that tick diffs every link
//! against them and decides again.

use crate::reduce::{member, position, Dir, DIRS};

/// The relative move below which a positive-`eps` dirty set leaves a
/// link's flows alone: 2⁻¹³, a quarter of a `Rate16` step. A rate is
/// `w / Σ p` over its path, so a relative price move `δ` moves it by at
/// most `δ` relative, and a move under a quarter step changes what the
/// wire carries only where a rate sits at a rounding boundary.
pub(crate) const REL: f64 = 1.0 / 8192.0;

/// The most blocks a dirty set covers: one bit of a crosser mask per
/// member of a LinkBlock.
pub(crate) const MAX_BLOCKS: usize = u64::BITS as usize;

/// Dirty-state bookkeeping for one engine's B×B worker grid.
///
/// Owned by the engine's grid when
/// [`AllocConfig::incremental`](crate::AllocConfig::incremental) is set;
/// all mutation happens inside the engine's iterate/intake/install paths.
/// Per-link state is indexed by slot (see the module docs).
#[derive(Debug)]
#[cfg_attr(test, derive(Clone))]
pub(crate) struct DirtySet {
    /// `0` marks any change; otherwise the absolute floor of
    /// [`moved`]'s relative rule.
    pub(crate) eps: f64,
    /// The relative part of [`slack`]: [`REL`] at a positive `eps`, `0`
    /// at `eps == 0` (so the slack is `max(0, 0) = 0`).
    rel: f64,
    /// Force a pass of the link phases each time `iter` hits a multiple
    /// of this (`0` = never); it re-prices no flow by itself.
    pub(crate) full_sweep_every: u64,
    /// Iterations run so far — the epoch counter behind the lazy
    /// accumulator clears and the forced link passes.
    pub(crate) iter: u64,
    /// Grid dimension B.
    pub(crate) blocks: usize,
    /// Links per LinkBlock: a LinkBlock's run of slots.
    lpl: usize,
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
    /// Per slot, per member `k` of the slot's LinkBlock (index
    /// `slot · B + k`): how many of that worker's flows traverse the
    /// link.
    pub(crate) touch: Vec<u32>,
    /// Per slot: bit `k` set while `touch[slot · B + k]` is positive. A
    /// price move dirties only these members — the others never read
    /// the moved price.
    pub(crate) crossers: Vec<u64>,
    /// Per slot: the price as of the last time the link was marked
    /// (diffs compare against these, with [`slack`] hysteresis)
    /// — the price the link's crossers last read, and so also the NED
    /// step's anchor (`flowblock::price_update`).
    pub(crate) prev_prices: Vec<f64>,
    /// Per slot: the utilization-ratio snapshot; F-NORM reads each plus
    /// its slack at a positive `eps`.
    pub(crate) prev_ratio: Vec<f64>,
    /// Per slot: marked by intake since the last iteration
    /// (observability: `dirty_link_ids`).
    pub(crate) intake: Vec<bool>,
    /// The slots of the intake marks above, each once, in first-marked
    /// order.
    pub(crate) intake_list: Vec<u32>,
    /// The last tick ran the plain sweep: every worker is rate-dirty and
    /// no diff has kept the snapshots, so the tick back resyncs them and
    /// an install until then is the plain copy.
    pub(crate) plain: bool,
    /// An install since the last tick moved a dual ([`moved`]): news
    /// from outside the grid, as intake is, so the next tick is no way
    /// back from the plain path.
    pub(crate) install_moved: bool,
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

/// How far a price or ratio may move from its snapshot `snap` without
/// re-running the flows that read it, for a set's `rel` and `floor`
/// (`DirtySet::rel`, `DirtySet::eps`): `0` at `eps == 0`, so any change
/// of value marks and the incremental tick stays the full sweep bit for
/// bit. Otherwise [`REL`] of the snapshot, with `eps` as the absolute
/// floor where the snapshot is near zero (an idle dual decaying toward
/// it).
///
/// Written as a compare and select rather than `f64::max`, which also
/// orders a `NaN` and costs a blend more per call: with `floor` never a
/// `NaN` (a set's `eps` is finite) the two agree for every `snap`: a
/// `NaN` snapshot gives `floor`, and an infinite one gives `floor` at
/// `eps == 0` and `∞` otherwise.
// flowtune-lint: hot, float-kernel
#[inline]
pub(crate) fn slack(snap: f64, rel: f64, floor: f64) -> f64 {
    let relative = rel * snap.abs();
    if relative > floor {
        relative
    } else {
        floor
    }
}

/// The dirty test: has a price or ratio moved from its snapshot `snap`
/// to `new` by more than [`slack`]? A `NaN` `new` never has.
// flowtune-lint: hot, float-kernel
#[inline]
pub(crate) fn moved(new: f64, snap: f64, rel: f64, floor: f64) -> bool {
    (new - snap).abs() > slack(snap, rel, floor)
}

/// All ones where `flag` is set, else zero: a mask select with no jump.
#[inline]
fn all_if(flag: bool) -> u64 {
    u64::from(flag).wrapping_neg()
}

impl DirtySet {
    /// A fresh set over a `blocks`×`blocks` grid whose LinkBlocks hold
    /// `links_per_lb` links each. Every worker starts rate-dirty (the
    /// first iteration is a full sweep by construction) and the price
    /// snapshots start at the `PriceView::new` initial values.
    ///
    /// # Panics
    /// Panics on more than [`MAX_BLOCKS`] blocks.
    pub(crate) fn new(blocks: usize, links_per_lb: usize, eps: f64, full_sweep_every: u64) -> Self {
        assert!(
            blocks <= MAX_BLOCKS,
            "incremental ticks support at most {MAX_BLOCKS} blocks, got {blocks}; \
             a larger grid keeps no dirty set and sweeps every tick"
        );
        let (n, slots) = (blocks * blocks, 2 * blocks * links_per_lb);
        Self {
            eps,
            rel: if eps == 0.0 { 0.0 } else { REL },
            full_sweep_every,
            iter: 0,
            blocks,
            lpl: links_per_lb,
            rate_dirty: vec![true; n],
            norm_dirty: vec![false; n],
            recomputed: vec![false; n],
            export_dirty: vec![false; n],
            touch: vec![0; slots * blocks],
            crossers: vec![0; slots],
            // PriceView::new starts all prices at 1 and all ratios at 0.
            prev_prices: vec![1.0; slots],
            prev_ratio: vec![0.0; slots],
            intake: vec![false; slots],
            intake_list: Vec::new(),
            plain: false,
            install_moved: false,
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

    /// The first of LinkBlock `(d, blk)`'s `lpl` slots,
    /// `layout.first_slot(d, blk)`.
    #[inline]
    pub(crate) fn first(&self, d: Dir, blk: usize) -> usize {
        (d * self.blocks + blk) * self.lpl
    }

    /// Records a flow added to worker `w` traversing the given
    /// per-direction offsets: bumps the touch counts (setting a crosser
    /// bit where one leaves zero), marks the worker rate-dirty, and marks
    /// the traversed links as intake-dirty.
    // flowtune-lint: hot
    pub(crate) fn note_add(&mut self, w: usize, path: [&[u16]; 2]) {
        self.note(w, path, |count| *count += 1);
    }

    /// Records a flow removed from worker `w` (its real offsets, as
    /// `FlowBlock::path` reports them — never the sentinel): decrements
    /// the touch counts (clearing a crosser bit where one reaches zero),
    /// marks the worker rate-dirty, and marks the traversed links as
    /// intake-dirty.
    // flowtune-lint: hot
    pub(crate) fn note_remove(&mut self, w: usize, path: [&[u16]; 2]) {
        self.note(w, path, |count| *count -= 1);
    }

    /// What an add and a remove share; `step` moves one touch count.
    // flowtune-lint: hot
    fn note(&mut self, w: usize, path: [&[u16]; 2], step: impl Fn(&mut u32)) {
        self.rate_dirty[w] = true;
        for d in DIRS {
            let (blk, k) = position(d, w, self.blocks);
            let first = self.first(d, blk);
            for &o in path[d] {
                let slot = first + usize::from(o);
                let count = &mut self.touch[slot * self.blocks + k];
                step(count);
                let crosses = u64::from(*count > 0) << k;
                self.crossers[slot] = self.crossers[slot] & !(1 << k) | crosses;
                if !self.intake[slot] {
                    self.intake[slot] = true;
                    self.intake_list.push(slot as u32);
                }
            }
        }
    }

    /// Clears the intake marks (called at the start of each iteration,
    /// after they have served their purpose of marking workers).
    // flowtune-lint: hot
    pub(crate) fn drain_intake(&mut self) {
        for &slot in &self.intake_list {
            self.intake[slot as usize] = false;
        }
        self.intake_list.clear();
    }

    /// The diff of LinkBlock `(d, blk)` after its price update, given the
    /// view's real links (`prices`, `ratios`): a price that moved
    /// ([`moved`] from its snapshot) is snapshotted, counted in
    /// `dirty_links` and rate-dirties the link's crossers for the *next*
    /// iteration; a ratio that moved is snapshotted and norm-dirties them
    /// for *this* iteration's F-NORM. Either sets `moving`. At a positive
    /// `eps` each ratio is then replaced by its ceiling, snapshot plus
    /// slack; at `eps == 0` the ratios are left as the update wrote them
    /// (the pass is monomorphized on which, so neither carries a branch
    /// for the other).
    ///
    /// One pass with no data-dependent jump: the moved flags select the
    /// snapshots, AND the crosser masks and OR into one mask per flag
    /// kind; the members' flags are written once each after it. Never
    /// inlined, so that `scripts/kernel_asm.sh` finds it (with both of
    /// its loops) by name.
    // flowtune-lint: hot
    #[inline(never)]
    pub(crate) fn diff(&mut self, d: Dir, blk: usize, prices: &[f64], ratios: &mut [f64]) {
        if self.eps > 0.0 {
            self.diff_pass::<true>(d, blk, prices, ratios);
        } else {
            self.diff_pass::<false>(d, blk, prices, ratios);
        }
    }

    /// [`DirtySet::diff`], writing the ratio ceilings iff `CEILINGS`.
    /// Every value is loaded before it is used, so each select is over
    /// registers and the loop vectorizes.
    // flowtune-lint: hot, float-kernel
    #[inline(always)]
    fn diff_pass<const CEILINGS: bool>(
        &mut self,
        d: Dir,
        blk: usize,
        prices: &[f64],
        ratios: &mut [f64],
    ) {
        let (first, n) = (self.first(d, blk), self.lpl);
        let (rel, floor) = (self.rel, self.eps);
        let crossers = &self.crossers[first..][..n];
        let snap_p = &mut self.prev_prices[first..][..n];
        let snap_r = &mut self.prev_ratio[first..][..n];
        let (prices, ratios) = (&prices[..n], &mut ratios[..n]);
        let (mut rate, mut norm, mut moves, mut ratio_moves) = (0u64, 0u64, 0u64, 0u64);
        for o in 0..n {
            let (p, sp, r, sr, c) = (prices[o], snap_p[o], ratios[o], snap_r[o], crossers[o]);
            let pm = moved(p, sp, rel, floor);
            snap_p[o] = if pm { p } else { sp };
            let rm = moved(r, sr, rel, floor);
            let sr = if rm { r } else { sr };
            snap_r[o] = sr;
            if CEILINGS {
                ratios[o] = sr + slack(sr, rel, floor);
            }
            rate |= c & all_if(pm);
            norm |= c & all_if(rm);
            moves += u64::from(pm);
            ratio_moves += u64::from(rm);
        }
        self.dirty_links += moves;
        self.moving |= moves + ratio_moves != 0;
        self.flag(d, blk, rate, norm);
    }

    /// The marking half of an exchange install into LinkBlock `(d, blk)`,
    /// fused with the write: `held` is the view's real prices, `staged`
    /// the consensus duals for them (`NaN` keeps the held price). A
    /// staged dual that moved from the held one ([`moved`];
    /// never a `NaN`) is snapshotted, counted in `dirty_links`, sets
    /// `moving` and rate-dirties the link's crossers. One pass with no
    /// data-dependent jump, as [`DirtySet::diff`]; the keep-on-`NaN` is
    /// a select like the snapshot's. Never inlined, as [`DirtySet::diff`].
    // flowtune-lint: hot, float-kernel
    #[inline(never)]
    pub(crate) fn install(&mut self, d: Dir, blk: usize, held: &mut [f64], staged: &[f64]) {
        let (first, n) = (self.first(d, blk), self.lpl);
        let (rel, floor) = (self.rel, self.eps);
        let crossers = &self.crossers[first..][..n];
        let snap = &mut self.prev_prices[first..][..n];
        let (held, staged) = (&mut held[..n], &staged[..n]);
        let (mut rate, mut moves) = (0u64, 0u64);
        for o in 0..n {
            let (p, h, s) = (staged[o], held[o], snap[o]);
            let m = moved(p, h, rel, floor);
            snap[o] = if m { p } else { s };
            held[o] = if p.is_nan() { h } else { p };
            rate |= crossers[o] & all_if(m);
            moves += u64::from(m);
        }
        self.dirty_links += moves;
        self.moving |= moves != 0;
        self.install_moved |= moves != 0;
        self.flag(d, blk, rate, 0);
    }

    /// The install after a plain tick, into one LinkBlock's real links:
    /// the plain copy of the staged duals over the held ones (`NaN`
    /// keeps), noting in `install_moved` whether one [`moved`]. Nothing
    /// is marked or snapshotted — every worker is dirty already.
    // flowtune-lint: hot, float-kernel
    pub(crate) fn copy(&mut self, held: &mut [f64], staged: &[f64]) {
        let (rel, floor) = (self.rel, self.eps);
        let mut moves = false;
        for (h, &p) in held.iter_mut().zip(staged) {
            moves |= moved(p, *h, rel, floor);
            *h = if p.is_nan() { *h } else { p };
        }
        self.install_moved |= moves;
    }

    /// The way back from the plain path, for LinkBlock `(d, blk)`: its
    /// snapshots become the view's real links as they stand (`prices`,
    /// `ratios`) — after a tick on which every worker re-ran, the prices
    /// each link's crossers just read. The diff that follows marks
    /// against them.
    // flowtune-lint: hot
    pub(crate) fn resync(&mut self, d: Dir, blk: usize, prices: &[f64], ratios: &[f64]) {
        let (first, n) = (self.first(d, blk), self.lpl);
        self.prev_prices[first..][..n].copy_from_slice(&prices[..n]);
        self.prev_ratio[first..][..n].copy_from_slice(&ratios[..n]);
    }

    /// Sets `rate_dirty` on the members of LinkBlock `(d, blk)` whose bit
    /// is set in `rate`, and `norm_dirty` on those set in `norm`: one
    /// write of each flag per member.
    // flowtune-lint: hot
    #[inline]
    fn flag(&mut self, d: Dir, blk: usize, rate: u64, norm: u64) {
        let b = self.blocks;
        for k in 0..b {
            let w = member(d, blk, k, b);
            self.rate_dirty[w] |= rate >> k & 1 != 0;
            self.norm_dirty[w] |= norm >> k & 1 != 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduce::{members, DOWN, UP};
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    /// The per-link rule the flat passes replace, kept as their oracle:
    /// each link marks on its own, reading the touch counts member by
    /// member (never the masks).
    impl DirtySet {
        /// The rule [`slack`] computes, stated as it was before the
        /// compare-and-select: `0` at `eps == 0`, else
        /// `max(REL·|snap|, eps)` by `f64::max`.
        pub(crate) fn slack(&self, snap: f64) -> f64 {
            if self.eps == 0.0 {
                0.0
            } else {
                (REL * snap.abs()).max(self.eps)
            }
        }

        /// The dirty test over [`DirtySet::slack`].
        pub(crate) fn moved(&self, new: f64, snap: f64) -> bool {
            (new - snap).abs() > self.slack(snap)
        }

        /// Sets `norm_dirty` (else `rate_dirty`) on every member of
        /// LinkBlock `(d, blk)` whose flows traverse offset `o`.
        fn mark_crossers(&mut self, d: Dir, blk: usize, o: usize, norm: bool) {
            let slot = self.first(d, blk) + o;
            for (k, w) in members(d, blk, self.blocks).enumerate() {
                if self.touch[slot * self.blocks + k] > 0 {
                    if norm {
                        self.norm_dirty[w] = true;
                    } else {
                        self.rate_dirty[w] = true;
                    }
                }
            }
        }

        /// A price of LinkBlock `(d, blk)` moved beyond eps to `p`:
        /// snapshot it and rate-dirty the link's crossers.
        fn price_moved(&mut self, d: Dir, blk: usize, o: usize, p: f64) {
            self.moving = true;
            self.dirty_links += 1;
            let slot = self.first(d, blk) + o;
            self.prev_prices[slot] = p;
            self.mark_crossers(d, blk, o, false);
        }

        /// [`DirtySet::diff`], link by link.
        fn diff_by_link(&mut self, d: Dir, blk: usize, prices: &[f64], ratios: &mut [f64]) {
            let first = self.first(d, blk);
            for o in 0..self.lpl {
                let p = prices[o];
                if self.moved(p, self.prev_prices[first + o]) {
                    self.price_moved(d, blk, o, p);
                }
                let r = ratios[o];
                if self.moved(r, self.prev_ratio[first + o]) {
                    self.moving = true;
                    self.prev_ratio[first + o] = r;
                    self.mark_crossers(d, blk, o, true);
                }
                if self.eps > 0.0 {
                    let snap = self.prev_ratio[first + o];
                    ratios[o] = snap + self.slack(snap);
                }
            }
        }

        /// [`DirtySet::install`], link by link.
        fn install_by_link(&mut self, d: Dir, blk: usize, held: &mut [f64], staged: &[f64]) {
            for (o, (held, &p)) in held.iter_mut().zip(staged).enumerate() {
                if p.is_nan() {
                    continue;
                }
                if self.moved(p, *held) {
                    self.price_moved(d, blk, o, p);
                }
                *held = p;
            }
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn touch_counts_follow_add_remove() {
        let mut ds = DirtySet::new(2, 4, 0.0, 0);
        // Worker 1 = (row 0, col 1): up block 0 at member 1, down block 1
        // at member 0.
        assert_eq!((position(UP, 1, 2), position(DOWN, 1, 2)), ((0, 1), (1, 0)));
        let (up, down) = (ds.first(UP, 0), ds.first(DOWN, 1));
        ds.note_add(1, [&[0, 2], &[3]]);
        assert_eq!(ds.touch[up * 2 + 1], 1);
        assert_eq!(ds.touch[(up + 2) * 2 + 1], 1);
        assert_eq!(ds.touch[(down + 3) * 2], 1);
        assert_eq!(
            (ds.crossers[up], ds.crossers[up + 2], ds.crossers[down + 3]),
            (2, 2, 1)
        );
        assert!(ds.rate_dirty[1]);
        let slots = [up, up + 2, down + 3].map(|s| s as u32);
        assert_eq!(ds.intake_list, slots);
        // A second flow on a shared link dedups the intake mark.
        ds.note_add(1, [&[0], &[3]]);
        assert_eq!(ds.touch[up * 2 + 1], 2);
        assert_eq!(ds.intake_list.len(), 3);
        ds.drain_intake();
        assert!(ds.intake_list.is_empty());
        ds.note_remove(1, [&[0, 2], &[3]]);
        assert_eq!(ds.touch[up * 2 + 1], 1);
        assert_eq!(ds.touch[(up + 2) * 2 + 1], 0);
        assert_eq!(ds.crossers[up], 2, "a count above zero keeps its bit");
        assert_eq!(ds.crossers[up + 2], 0, "a count at zero clears its bit");
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
                let ceiling = snap + slack(snap, ds.rel, ds.eps);
                assert!(
                    !moved(ceiling, snap, ds.rel, ds.eps),
                    "eps {eps}, snap {snap}"
                );
                let above = f64::from_bits(ceiling.to_bits() + 1);
                assert!(moved(above, snap, ds.rel, ds.eps), "eps {eps}, snap {snap}");
            }
        }
    }

    #[test]
    fn the_compare_and_select_slack_is_the_max_rule() {
        // `slack` is `f64::max`'s rule for every snapshot, the ones that
        // make `rel·|snap|` a `NaN` (`0·∞` at eps 0, a `NaN` snapshot)
        // included.
        for eps in [0.0, 1e-9, 0.5] {
            let ds = DirtySet::new(1, 1, eps, 0);
            for snap in [
                0.0,
                -0.0,
                1e-300,
                0.37,
                -2.5,
                1e300,
                f64::INFINITY,
                f64::NAN,
            ] {
                let (got, want) = (slack(snap, ds.rel, ds.eps), ds.slack(snap));
                assert_eq!(got.to_bits(), want.to_bits(), "eps {eps}, snap {snap}");
            }
        }
    }

    #[test]
    fn counters_start_at_zero_and_workers_start_dirty() {
        let ds = DirtySet::new(4, 8, 1e-9, 16);
        assert_eq!(ds.counters(), (0, 0));
        assert!(ds.rate_dirty.iter().all(|&d| d));
        assert!(ds.export_dirty.iter().all(|&d| !d));
        assert_eq!(ds.eps, 1e-9);
        assert_eq!(ds.prev_prices.len(), 2 * 4 * 8);
        assert!(ds.prev_prices.iter().all(|&p| p == 1.0));
        assert!(ds.prev_ratio.iter().all(|&r| r == 0.0));
    }

    #[test]
    #[should_panic(expected = "incremental ticks support at most 64 blocks, got 128")]
    fn a_grid_past_the_mask_width_is_refused() {
        let _ = DirtySet::new(128, 1, 0.0, 0);
    }

    /// A value near `snap` for the passes to judge: held, inside and
    /// just outside the slack, far, zero, or a `NaN` (the install's
    /// "keep").
    fn near(rng: &mut TestRng, ds: &DirtySet, snap: f64, nan: bool) -> f64 {
        match rng.below(7) {
            0 => snap,
            1 => snap + ds.slack(snap) * rng.unit_f64(),
            2 => snap - ds.slack(snap),
            3 => f64::from_bits((snap + ds.slack(snap)).to_bits() + 1),
            4 => 0.0,
            5 if nan => f64::NAN,
            _ => rng.unit_f64() * 2.0,
        }
    }

    proptest! {
        // The flat passes against the per-link rule: after random intake
        // (adds and removes over every worker), diffs and installs over
        // every LinkBlock, both sets hold the same flags, snapshots,
        // ratios, held prices, `moving` and counters, bit for bit, and
        // the masks are the touch counts' positive bits.
        #[test]
        fn the_flat_passes_mark_what_the_per_link_rule_marks(
            blocks in prop_oneof![Just(1usize), Just(2), Just(4), Just(8)],
            lpl in 1usize..12,
            eps in prop_oneof![Just(0.0f64), Just(1e-9)],
            seed in any::<u64>(),
        ) {
            let mut rng = TestRng::deterministic(&format!("flat-{seed}"));
            let mut flat = DirtySet::new(blocks, lpl, eps, 0);
            let mut paths: Vec<(usize, Vec<u16>, Vec<u16>)> = Vec::new();
            for _ in 0..6 {
                for _ in 0..rng.below(3 * blocks * blocks) {
                    if !paths.is_empty() && rng.below(3) == 0 {
                        let (w, up, down) = paths.swap_remove(rng.below(paths.len()));
                        flat.note_remove(w, [&up, &down]);
                    } else {
                        let w = rng.below(blocks * blocks);
                        let hop = |rng: &mut TestRng| rng.below(lpl) as u16;
                        let up: Vec<u16> = (0..1 + rng.below(2)).map(|_| hop(&mut rng)).collect();
                        let down: Vec<u16> = (0..1 + rng.below(2)).map(|_| hop(&mut rng)).collect();
                        flat.note_add(w, [&up, &down]);
                        paths.push((w, up, down));
                    }
                }
                flat.drain_intake();
                for (slot, &mask) in flat.crossers.iter().enumerate() {
                    for k in 0..blocks {
                        let counted = flat.touch[slot * blocks + k] > 0;
                        prop_assert_eq!(mask >> k & 1 == 1, counted, "slot {} member {}", slot, k);
                    }
                }
                let mut oracle = flat.clone();
                for set in [&mut flat, &mut oracle] {
                    set.moving = false;
                    set.rate_dirty.fill(false);
                    set.norm_dirty.fill(false);
                }
                for d in DIRS {
                    for blk in 0..blocks {
                        let run = flat.first(d, blk)..flat.first(d, blk) + lpl;
                        let prices: Vec<f64> = run.clone()
                            .map(|s| near(&mut rng, &flat, flat.prev_prices[s], false))
                            .collect();
                        let ratios: Vec<f64> = run.clone()
                            .map(|s| near(&mut rng, &flat, flat.prev_ratio[s], false))
                            .collect();
                        let (mut a, mut b) = (ratios.clone(), ratios);
                        flat.diff(d, blk, &prices, &mut a);
                        oracle.diff_by_link(d, blk, &prices, &mut b);
                        prop_assert_eq!(bits(&a), bits(&b));
                        // The install reads the held prices, not the
                        // snapshots: stage values near those.
                        let staged: Vec<f64> = prices
                            .iter()
                            .map(|&p| near(&mut rng, &flat, p, true))
                            .collect();
                        let (mut a, mut b) = (prices.clone(), prices);
                        flat.install(d, blk, &mut a, &staged);
                        oracle.install_by_link(d, blk, &mut b, &staged);
                        prop_assert_eq!(bits(&a), bits(&b));
                    }
                }
                prop_assert_eq!(&flat.rate_dirty, &oracle.rate_dirty);
                prop_assert_eq!(&flat.norm_dirty, &oracle.norm_dirty);
                prop_assert_eq!(bits(&flat.prev_prices), bits(&oracle.prev_prices));
                prop_assert_eq!(bits(&flat.prev_ratio), bits(&oracle.prev_ratio));
                prop_assert_eq!(flat.moving, oracle.moving);
                prop_assert_eq!(flat.counters(), oracle.counters());
            }
        }
    }
}

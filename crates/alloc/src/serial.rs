//! Single-threaded reference engine.
//!
//! Performs exactly the same arithmetic, in exactly the same order, as the
//! parallel engine: per-FlowBlock rate passes, binomial-tree aggregation of
//! LinkBlock partials, NED price update on the diagonal copies, and
//! distribution back — just on one thread. The `parallel_matches_serial`
//! tests assert bit-for-bit equality, which is what makes the parallel
//! engine trustworthy.

use std::collections::HashMap;

use flowtune_topo::{BlockId, FlowId, Path, TwoTierClos};

use crate::dirty::DirtySet;
use crate::flowblock::{
    absorb, normalize_pass, price_update, rate_pass, report_pass, Accums, FlowBlock, FlowRate,
    PriceView,
};
use crate::layout::BlockLayout;
use crate::reduce::{binomial_reduce_in_order, down_root, down_worker, up_root, up_worker};
use crate::AllocConfig;

/// The single-threaded allocator engine: the §5 FlowBlock × LinkBlock
/// grid and every operation on it. The multicore engine wraps one and
/// replaces only the full-sweep iteration with its barrier pipeline.
#[derive(Debug)]
pub struct SerialAllocator {
    pub(crate) layout: BlockLayout,
    pub(crate) cfg: AllocConfig,
    /// server index → block, for FlowBlock assignment.
    server_block: Vec<BlockId>,
    /// B² workers in row-major (src block, dst block) order.
    pub(crate) workers: Vec<WorkerCore>,
    /// flow id → (worker, slot within worker).
    index: HashMap<FlowId, (usize, usize)>,
    /// Exogenous per-link load (other shards' flows), pre-split per
    /// LinkBlock so the price update indexes it like `load`/`capacity`.
    /// `None` (no exchange installed) takes the exact pre-exchange
    /// arithmetic path.
    pub(crate) bg: Option<BgLoads>,
    /// Exogenous per-link Hessian diagonal (other shards' `Σ ∂x/∂p`),
    /// same layout; folded into the price update's `H` so the Newton
    /// step divides the global gradient by the global sensitivity.
    pub(crate) bg_h: Option<BgLoads>,
    /// Dirty-set bookkeeping when `cfg.incremental` is on; `None` runs
    /// the classic full sweep every iteration.
    dirty: Option<DirtySet>,
    /// Preallocated per-iteration buffers (aggregation partials and the
    /// distribute copies), so the steady-state tick path never allocates.
    scratch: IterScratch,
}

/// Reusable buffers for one iteration: the binomial-tree partials (one
/// LinkBlock of `[load, hessian]` pairs per virtual index) and the root
/// price/ratio copies the distribute phase fans out. Sized once at
/// construction — the fabric shape is fixed — so iterations never
/// reallocate.
#[derive(Debug, Clone)]
struct IterScratch {
    partials: Vec<Vec<[f64; 2]>>,
    prices: Vec<f64>,
    ratios: Vec<f64>,
}

/// Background (other-shard) per-link values in LinkBlock layout: one
/// slice per block for the upward and downward LinkBlocks, offsets
/// matching the capacity arrays (holds loads or Hessian diagonals).
#[derive(Debug, Clone)]
pub(crate) struct BgLoads {
    pub up: Vec<Vec<f64>>,
    pub down: Vec<Vec<f64>>,
}

/// One FlowBlock worker's private state.
#[derive(Debug, Clone)]
pub(crate) struct WorkerCore {
    pub flows: FlowBlock,
    pub acc: Accums,
    pub view: PriceView,
}

impl WorkerCore {
    fn new(links_per_lb: usize) -> Self {
        Self {
            flows: FlowBlock::new(links_per_lb),
            acc: Accums::new(links_per_lb),
            view: PriceView::new(links_per_lb),
        }
    }
}

impl SerialAllocator {
    /// Builds an allocator over `fabric`. The fabric's block count must be
    /// a power of two (1 is fine: a single-block fabric degenerates to
    /// plain NED with no aggregation steps).
    pub fn new(fabric: &TwoTierClos, cfg: AllocConfig) -> Self {
        assert!(
            fabric.block_count().is_power_of_two(),
            "the aggregation tree needs a power-of-two block count"
        );
        let layout = BlockLayout::new(fabric, cfg.capacity_fraction);
        let b = layout.blocks();
        let server_block = (0..fabric.config().server_count())
            .map(|s| fabric.block_of_server(s))
            .collect();
        let lpl = layout.links_per_lb();
        let workers = (0..b * b).map(|_| WorkerCore::new(lpl)).collect();
        let scratch = IterScratch {
            partials: vec![vec![[0.0; 2]; lpl]; b],
            prices: vec![0.0; lpl + 1],
            ratios: vec![0.0; lpl + 1],
        };
        let dirty = cfg
            .incremental
            .then(|| DirtySet::new(b, lpl, cfg.dirty_eps, cfg.full_sweep_every));
        Self {
            layout,
            cfg,
            server_block,
            workers,
            index: HashMap::new(),
            bg: None,
            bg_h: None,
            dirty,
            scratch,
        }
    }

    /// Registers a flow. `path` must come from the same fabric.
    ///
    /// # Panics
    /// Panics on duplicate ids, non-positive weights, or paths that
    /// violate block locality.
    pub fn add_flow(
        &mut self,
        id: FlowId,
        src_server: usize,
        dst_server: usize,
        weight: f64,
        path: &Path,
    ) {
        assert!(weight > 0.0 && weight.is_finite(), "weight must be > 0");
        assert!(
            !self.index.contains_key(&id),
            "flow {id} already registered"
        );
        let b = self.layout.blocks();
        let src_block = self.server_block[src_server];
        let dst_block = self.server_block[dst_server];
        let (up, down) = self.layout.split_path(path, src_block, dst_block);
        let x_max = up
            .iter()
            .map(|&o| self.layout.up_capacity(src_block.index())[o as usize])
            .chain(
                down.iter()
                    .map(|&o| self.layout.down_capacity(dst_block.index())[o as usize]),
            )
            .fold(f64::INFINITY, f64::min);
        let w = src_block.index() * b + dst_block.index();
        if let Some(ds) = &mut self.dirty {
            ds.note_add(w, &up, &down);
        }
        let flows = &mut self.workers[w].flows;
        flows.push(id, weight, &up, &down, x_max);
        self.index.insert(id, (w, flows.len() - 1));
    }

    /// Deregisters a flow; returns whether it existed.
    pub fn remove_flow(&mut self, id: FlowId) -> bool {
        let Some((w, slot)) = self.index.remove(&id) else {
            return false;
        };
        let flows = &mut self.workers[w].flows;
        if let Some(ds) = &mut self.dirty {
            let (up, down) = flows.path(slot);
            ds.note_remove(w, up, down);
        }
        if let Some(moved) = flows.swap_remove(slot) {
            // A flow was moved into the vacated slot; re-index it.
            self.index.insert(moved, (w, slot));
        }
        true
    }

    /// Number of registered flows.
    pub fn flow_count(&self) -> usize {
        self.index.len()
    }

    /// All flows' current allocations (Gbit/s), in deterministic
    /// (FlowBlock, slot) order, into a caller-provided buffer (cleared
    /// first; allocation-free once it is warm): materializes every flow,
    /// for readers off the tick path.
    pub fn rates_into(&self, out: &mut Vec<FlowRate>) {
        out.clear();
        for worker in &self.workers {
            out.extend((0..worker.flows.len()).map(|slot| worker.flows.flow_rate(slot)));
        }
    }

    /// Drains the changed-rate set: runs [`report_pass`] — the §6.4 rule
    /// against each flow's `reported` word — over every worker whose
    /// output may have moved since the last drain (every worker, without
    /// a dirty set), lending `sink` exactly the flows that must be
    /// reported (see [`crate::RateAllocator::drain_changed_rates`]). A
    /// worker that is skipped is bitwise as the last drain left it, and
    /// what did not pass then does not pass now.
    pub fn drain_changed_rates(&mut self, threshold: f64, sink: &mut dyn FnMut(&[FlowId], &[f64])) {
        for (w, worker) in self.workers.iter_mut().enumerate() {
            if let Some(ds) = &mut self.dirty {
                if !std::mem::take(&mut ds.export_dirty[w]) {
                    continue;
                }
            }
            report_pass(&mut worker.flows, threshold, sink);
        }
    }

    /// Cumulative `(dirty_flows, dirty_links)` counters, when the engine
    /// runs incrementally (see [`crate::RateAllocator::dirty_counters`]).
    pub fn dirty_counters(&self) -> Option<(u64, u64)> {
        self.dirty.as_ref().map(DirtySet::counters)
    }

    /// The links marked dirty by flow intake (adds/removes) since the
    /// last iteration, as global link ids in first-marked order. Empty
    /// when not running incrementally. Observability hook for tests: an
    /// add/remove must dirty exactly the links the flow traverses.
    pub fn dirty_link_ids(&self) -> Vec<flowtune_topo::LinkId> {
        let Some(ds) = &self.dirty else {
            return Vec::new();
        };
        ds.intake_list
            .iter()
            .map(|&(up, block, offset)| {
                if up {
                    self.layout.up_links(block as usize)[offset as usize]
                } else {
                    self.layout.down_links(block as usize)[offset as usize]
                }
            })
            .collect()
    }

    /// One flow's current allocation.
    pub fn flow_rate(&self, id: FlowId) -> Option<FlowRate> {
        let &(w, slot) = self.index.get(&id)?;
        Some(self.workers[w].flows.flow_rate(slot))
    }

    /// Own per-link loads, global-link indexed: each flow's current raw
    /// rate summed onto the links its path crosses. Background loads are
    /// *not* included (see [`crate::RateAllocator::link_loads_into`]).
    pub fn link_loads_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.resize(self.layout.total_links(), 0.0);
        self.for_each_hop(|link, rate, _| out[link] += rate);
    }

    /// Calls `hop(global link index, rate, ∂x/∂p)` for every link of every
    /// flow's path, in (worker, slot, path) order — the one walk, and so
    /// the one summation order, behind every link-state export. For the
    /// log-utility hot path `∂x/∂p = −x/λ = −x²/w`, reconstructed from the
    /// stored rate and weight.
    fn for_each_hop(&self, mut hop: impl FnMut(usize, f64, f64)) {
        let b = self.layout.blocks();
        for (w, worker) in self.workers.iter().enumerate() {
            let up_links = self.layout.up_links(w / b);
            let down_links = self.layout.down_links(w % b);
            let flows = &worker.flows;
            for (slot, (&rate, &weight)) in flows.rates.iter().zip(&flows.weight).enumerate() {
                let dx = -(rate * rate) / weight;
                let (up, down) = flows.path(slot);
                for &o in up {
                    hop(up_links[o as usize].index(), rate, dx);
                }
                for &o in down {
                    hop(down_links[o as usize].index(), rate, dx);
                }
            }
        }
    }

    /// Current per-link duals, global-link indexed, read from the
    /// authoritative (root) LinkBlock copies. Links outside any
    /// LinkBlock (control links) report 0.
    pub fn link_prices_into(&self, out: &mut Vec<f64>) {
        let b = self.layout.blocks();
        out.clear();
        out.resize(self.layout.total_links(), 0.0);
        for blk in 0..b {
            let up_view = &self.workers[up_root(blk, b)].view;
            for (o, link) in self.layout.up_links(blk).iter().enumerate() {
                out[link.index()] = up_view.up_prices[o];
            }
            let down_view = &self.workers[down_root(blk, b)].view;
            for (o, link) in self.layout.down_links(blk).iter().enumerate() {
                out[link.index()] = down_view.down_prices[o];
            }
        }
    }

    /// Overwrites per-link duals from a global-link-indexed vector; `NaN`
    /// entries keep the current price. Every worker's LinkBlock copy is
    /// rewritten (not only the roots'), so the next rate pass — which
    /// reads the per-worker copies before any distribution step — already
    /// prices flows with the consensus duals, identically in the serial
    /// and multicore engines.
    pub fn set_link_prices(&mut self, prices: &[f64]) {
        if prices.is_empty() {
            return;
        }
        assert_eq!(
            prices.len(),
            self.layout.total_links(),
            "price vector must cover every fabric link"
        );
        let b = self.layout.blocks();
        if self.dirty.is_some() {
            // Marking pass (before the overwrite below): an install that
            // actually moves a dual beyond eps invalidates the rate pass
            // of every worker whose flows traverse that link. The current
            // root views are valid comparison points because distribution
            // keeps every copy exactly synced to the roots.
            let Self {
                layout,
                workers,
                dirty,
                ..
            } = self;
            let ds = dirty.as_mut().expect("checked above");
            for blk in 0..b {
                let up_view = &workers[up_root(blk, b)].view;
                for (o, link) in layout.up_links(blk).iter().enumerate() {
                    let p = prices[link.index()];
                    if p.is_nan() || (p - up_view.up_prices[o]).abs() <= ds.eps {
                        continue;
                    }
                    ds.moving = true;
                    ds.dirty_links += 1;
                    ds.prev_up_prices[blk][o] = p;
                    for j in 0..b {
                        let w = blk * b + j;
                        if ds.up_touch[w][o] > 0 {
                            ds.rate_dirty[w] = true;
                        }
                    }
                }
                let down_view = &workers[down_root(blk, b)].view;
                for (o, link) in layout.down_links(blk).iter().enumerate() {
                    let p = prices[link.index()];
                    if p.is_nan() || (p - down_view.down_prices[o]).abs() <= ds.eps {
                        continue;
                    }
                    ds.moving = true;
                    ds.dirty_links += 1;
                    ds.prev_down_prices[blk][o] = p;
                    for i in 0..b {
                        let w = i * b + blk;
                        if ds.down_touch[w][o] > 0 {
                            ds.rate_dirty[w] = true;
                        }
                    }
                }
            }
        }
        for (w, worker) in self.workers.iter_mut().enumerate() {
            let up_links = self.layout.up_links(w / b);
            let down_links = self.layout.down_links(w % b);
            for (o, link) in up_links.iter().enumerate() {
                let p = prices[link.index()];
                if !p.is_nan() {
                    worker.view.up_prices[o] = p;
                }
            }
            for (o, link) in down_links.iter().enumerate() {
                let p = prices[link.index()];
                if !p.is_nan() {
                    worker.view.down_prices[o] = p;
                }
            }
        }
    }

    /// Re-splits a global-link-indexed vector into the LinkBlock-layout
    /// slot *in place*: the `BgLoads` buffers are allocated on the first
    /// install only and overwritten on every subsequent one, so the
    /// steady-state exchange path never allocates. An empty slice clears
    /// the slot.
    fn refill_bg(layout: &BlockLayout, slot: &mut Option<BgLoads>, values: &[f64]) {
        if values.is_empty() {
            *slot = None;
            return;
        }
        assert_eq!(
            values.len(),
            layout.total_links(),
            "background vectors must cover every fabric link"
        );
        let b = layout.blocks();
        let lpl = layout.links_per_lb();
        let bg = slot.get_or_insert_with(|| BgLoads {
            up: vec![vec![0.0; lpl]; b],
            down: vec![vec![0.0; lpl]; b],
        });
        for blk in 0..b {
            for (o, link) in layout.up_links(blk).iter().enumerate() {
                bg.up[blk][o] = values[link.index()];
            }
            for (o, link) in layout.down_links(blk).iter().enumerate() {
                bg.down[blk][o] = values[link.index()];
            }
        }
    }

    /// Installs (or clears, for an empty slice) the exogenous per-link
    /// load, re-split into LinkBlock layout for the price update.
    pub fn set_background_loads(&mut self, loads: &[f64]) {
        Self::refill_bg(&self.layout, &mut self.bg, loads);
    }

    /// Own per-link Hessian diagonal, global-link indexed: `Σ ∂x/∂p`
    /// over this engine's flows crossing each link — the same values the
    /// engine's own rate pass accumulates beside the loads in `Accums`.
    pub fn link_hessians_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.resize(self.layout.total_links(), 0.0);
        self.for_each_hop(|link, _, dx| out[link] += dx);
    }

    /// [`SerialAllocator::link_loads_into`] and
    /// [`SerialAllocator::link_hessians_into`] in one walk over the
    /// flows: the exchange wants both every round. Both vectors
    /// accumulate in the order the single-vector exports use, so every
    /// per-link sum is bit-identical to theirs.
    pub fn link_state_into(&self, loads: &mut Vec<f64>, hessians: &mut Vec<f64>) {
        loads.clear();
        loads.resize(self.layout.total_links(), 0.0);
        hessians.clear();
        hessians.resize(self.layout.total_links(), 0.0);
        self.for_each_hop(|link, rate, dx| {
            loads[link] += rate;
            hessians[link] += dx;
        });
    }

    /// Installs (or clears, for an empty slice) the exogenous per-link
    /// Hessian diagonal accompanying the background loads.
    pub fn set_background_hessians(&mut self, hdiag: &[f64]) {
        Self::refill_bg(&self.layout, &mut self.bg_h, hdiag);
    }

    /// One full NED iteration: rate pass → aggregate → price update →
    /// distribute → (optionally) F-NORM, dispatching to the incremental
    /// path (see [`crate::dirty`]) when [`AllocConfig::incremental`]
    /// installed a dirty set. Both engines call this on one thread; the
    /// multicore engine only takes its barrier pipeline when running the
    /// classic full sweep.
    pub fn iterate(&mut self) {
        if self.dirty.is_some() {
            self.iterate_incremental();
        } else {
            self.iterate_full();
        }
    }

    /// Runs `n` iterations.
    pub fn run_iterations(&mut self, n: usize) {
        for _ in 0..n {
            self.iterate();
        }
    }

    /// The classic full sweep: rate pass everywhere → aggregate → price
    /// update → distribute → F-NORM everywhere.
    fn iterate_full(&mut self) {
        self.rate_phase_full();
        self.aggregate_and_price();
        self.distribute();
        self.normalize_phase_full();
    }

    /// The incremental iteration. The flow-proportional phases (rate
    /// pass, F-NORM) are gated per worker on the dirty set, and a diff
    /// phase converts observed price/ratio movement into next-iteration
    /// dirtiness. Phases B–D (aggregate, price update, distribute) are
    /// `O(B²·L)` in links, not flows, and run whenever *any* worker
    /// recomputed — but are skipped entirely on a fully quiet iteration.
    ///
    /// The quiet-iteration skip is what lets the engine reach true
    /// quiescence. With zero recomputes every accumulator is bitwise
    /// unchanged, so running the price update anyway would integrate the
    /// same Newton residual tick after tick: prices drift, cross `eps`,
    /// re-mark the very flows whose recompute then jolts the load back —
    /// a relaxation oscillator with amplitude `O(eps)` that keeps ~10% of
    /// the fabric dirty forever. Freezing prices instead is exact at
    /// `eps = 0`: the skip requires a markless previous diff (`moving`
    /// false — no price or ratio moved anywhere, touched links or not),
    /// which means the last price update already reproduced its own
    /// input bitwise (same prices, same loads), so the skipped update is
    /// the identity. For `eps > 0` the suppressed residual is `O(eps)`
    /// by construction and the periodic full sweep re-marks every
    /// worker, letting the next price update apply it before float
    /// drift can compound.
    fn iterate_incremental(&mut self) {
        {
            let ds = self.dirty.as_mut().expect("incremental path");
            ds.drain_intake();
            if ds.full_sweep_every > 0 && ds.iter.is_multiple_of(ds.full_sweep_every) {
                ds.rate_dirty.fill(true);
            }
            ds.iter += 1;
        }
        let recomputed = self.rate_phase_dirty();
        if recomputed || self.dirty.as_ref().expect("incremental path").moving {
            self.aggregate_and_price();
            self.diff_and_mark();
            self.distribute();
        }
        self.normalize_phase_dirty();
    }

    /// Phase A (full): clear accumulators and re-run the rate pass in
    /// every worker.
    fn rate_phase_full(&mut self) {
        for worker in &mut self.workers {
            worker.acc.clear();
            rate_pass(&mut worker.flows, &worker.view, &mut worker.acc);
        }
    }

    /// Phase A (incremental): re-run the rate pass only in rate-dirty
    /// workers. A clean worker's accumulators and rates are bitwise what
    /// a recompute would produce — its flow set and every price it reads
    /// are unchanged — so skipping it is exact. The accumulator clear is
    /// the lazy per-epoch one: it happens here, only for recomputed
    /// workers, instead of globally every iteration. Returns whether any
    /// worker recomputed, which gates the link-proportional phases.
    fn rate_phase_dirty(&mut self) -> bool {
        let Self { workers, dirty, .. } = self;
        let ds = dirty.as_mut().expect("incremental path");
        let mut any = false;
        for (w, worker) in workers.iter_mut().enumerate() {
            ds.recomputed[w] = ds.rate_dirty[w];
            if !ds.rate_dirty[w] {
                continue;
            }
            any = true;
            ds.rate_dirty[w] = false;
            ds.dirty_flows += worker.flows.len() as u64;
            worker.acc.clear();
            rate_pass(&mut worker.flows, &worker.view, &mut worker.acc);
        }
        any
    }

    /// Phases B+C: aggregate each LinkBlock along the binomial tree (in
    /// the tree's exact pairwise order) into preallocated scratch and run
    /// the NED price update on the diagonal owner's copy.
    fn aggregate_and_price(&mut self) {
        let b = self.layout.blocks();
        let lpl = self.layout.links_per_lb();
        let partials = &mut self.scratch.partials;
        for i in 0..b {
            for (k, part) in partials.iter_mut().enumerate() {
                part.copy_from_slice(&self.workers[up_worker(i, k, b)].acc.up[..lpl]);
            }
            binomial_reduce_in_order(partials, |a, o| absorb(a, o));
            let view = &mut self.workers[up_root(i, b)].view;
            price_update(
                &partials[0],
                self.bg.as_ref().map(|bg| bg.up[i].as_slice()),
                self.bg_h.as_ref().map(|bg| bg.up[i].as_slice()),
                self.layout.up_capacity(i),
                self.cfg.gamma,
                &mut view.up_prices,
                &mut view.up_ratio,
            );
        }
        for j in 0..b {
            for (k, part) in partials.iter_mut().enumerate() {
                part.copy_from_slice(&self.workers[down_worker(j, k, b)].acc.down[..lpl]);
            }
            binomial_reduce_in_order(partials, |a, o| absorb(a, o));
            let view = &mut self.workers[down_root(j, b)].view;
            price_update(
                &partials[0],
                self.bg.as_ref().map(|bg| bg.down[j].as_slice()),
                self.bg_h.as_ref().map(|bg| bg.down[j].as_slice()),
                self.layout.down_capacity(j),
                self.cfg.gamma,
                &mut view.down_prices,
                &mut view.down_ratio,
            );
        }
    }

    /// Diff phase (incremental only): compare the fresh root prices and
    /// ratios against the per-link snapshots. A price move beyond eps
    /// rate-dirties every traversing worker for the *next* iteration (the
    /// rates they computed this iteration used the pre-update price —
    /// exactly like the full sweep); a ratio move beyond eps norm-dirties
    /// traversing workers for *this* iteration's F-NORM, which reads the
    /// post-update ratios.
    fn diff_and_mark(&mut self) {
        let b = self.layout.blocks();
        let lpl = self.layout.links_per_lb();
        let Self { workers, dirty, .. } = self;
        let ds = dirty.as_mut().expect("incremental path");
        // Rebuilt from scratch each diff: stays false only when *no*
        // price or ratio anywhere moved beyond eps — touched or not —
        // which is the precondition for freezing the price phases.
        ds.moving = false;
        for blk in 0..b {
            let view = &workers[up_root(blk, b)].view;
            for o in 0..lpl {
                let p = view.up_prices[o];
                if (p - ds.prev_up_prices[blk][o]).abs() > ds.eps {
                    ds.moving = true;
                    ds.dirty_links += 1;
                    ds.prev_up_prices[blk][o] = p;
                    for j in 0..b {
                        let w = blk * b + j;
                        if ds.up_touch[w][o] > 0 {
                            ds.rate_dirty[w] = true;
                        }
                    }
                }
                let r = view.up_ratio[o];
                if (r - ds.prev_up_ratio[blk][o]).abs() > ds.eps {
                    ds.moving = true;
                    ds.prev_up_ratio[blk][o] = r;
                    for j in 0..b {
                        let w = blk * b + j;
                        if ds.up_touch[w][o] > 0 {
                            ds.norm_dirty[w] = true;
                        }
                    }
                }
            }
            let view = &workers[down_root(blk, b)].view;
            for o in 0..lpl {
                let p = view.down_prices[o];
                if (p - ds.prev_down_prices[blk][o]).abs() > ds.eps {
                    ds.moving = true;
                    ds.dirty_links += 1;
                    ds.prev_down_prices[blk][o] = p;
                    for i in 0..b {
                        let w = i * b + blk;
                        if ds.down_touch[w][o] > 0 {
                            ds.rate_dirty[w] = true;
                        }
                    }
                }
                let r = view.down_ratio[o];
                if (r - ds.prev_down_ratio[blk][o]).abs() > ds.eps {
                    ds.moving = true;
                    ds.prev_down_ratio[blk][o] = r;
                    for i in 0..b {
                        let w = i * b + blk;
                        if ds.down_touch[w][o] > 0 {
                            ds.norm_dirty[w] = true;
                        }
                    }
                }
            }
        }
    }

    /// Phase D: distribute prices + ratios from the roots back to every
    /// row/column member via the preallocated scratch copies (the byte
    /// content is identical to the reverse-tree broadcast). Runs in full
    /// on the incremental path too: it keeps every view exactly synced to
    /// the roots, which is what makes the diff phase's root comparisons
    /// valid as proxies for "what this worker would read".
    fn distribute(&mut self) {
        let b = self.layout.blocks();
        let Self {
            workers, scratch, ..
        } = self;
        for i in 0..b {
            let root = &workers[up_root(i, b)].view;
            scratch.prices.copy_from_slice(&root.up_prices);
            scratch.ratios.copy_from_slice(&root.up_ratio);
            for j in 0..b {
                let view = &mut workers[i * b + j].view;
                view.up_prices.copy_from_slice(&scratch.prices);
                view.up_ratio.copy_from_slice(&scratch.ratios);
            }
        }
        for j in 0..b {
            let root = &workers[down_root(j, b)].view;
            scratch.prices.copy_from_slice(&root.down_prices);
            scratch.ratios.copy_from_slice(&root.down_ratio);
            for i in 0..b {
                let view = &mut workers[i * b + j].view;
                view.down_prices.copy_from_slice(&scratch.prices);
                view.down_ratio.copy_from_slice(&scratch.ratios);
            }
        }
    }

    /// Phase E (full): F-NORM (or a plain copy) in every worker.
    fn normalize_phase_full(&mut self) {
        if self.cfg.f_norm {
            for worker in &mut self.workers {
                normalize_pass(&mut worker.flows, &worker.view);
            }
        } else {
            for worker in &mut self.workers {
                worker.flows.normalized.copy_from_slice(&worker.flows.rates);
            }
        }
    }

    /// Phase E (incremental): F-NORM only where the inputs changed — the
    /// worker recomputed its rates this iteration, or a ratio on a
    /// traversed link moved. Every worker that runs is marked
    /// export-dirty for [`SerialAllocator::drain_changed_rates`].
    fn normalize_phase_dirty(&mut self) {
        let f_norm = self.cfg.f_norm;
        let Self { workers, dirty, .. } = self;
        let ds = dirty.as_mut().expect("incremental path");
        for (w, worker) in workers.iter_mut().enumerate() {
            let run = ds.recomputed[w] || ds.norm_dirty[w];
            ds.norm_dirty[w] = false;
            if !run {
                continue;
            }
            ds.export_dirty[w] = true;
            if f_norm {
                normalize_pass(&mut worker.flows, &worker.view);
            } else {
                worker.flows.normalized.copy_from_slice(&worker.flows.rates);
            }
        }
    }

    /// The current price of a (data-plane) link, if it belongs to a
    /// LinkBlock.
    pub fn link_price(&self, link: flowtune_topo::LinkId) -> Option<f64> {
        let slot = self.layout.slot(link)?;
        let b = self.layout.blocks();
        let view = if slot.up {
            &self.workers[up_root(slot.block.index(), b)].view
        } else {
            &self.workers[down_root(slot.block.index(), b)].view
        };
        Some(if slot.up {
            view.up_prices[slot.offset as usize]
        } else {
            view.down_prices[slot.offset as usize]
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RateAllocator;
    use flowtune_topo::ClosConfig;

    fn fabric() -> TwoTierClos {
        TwoTierClos::build(ClosConfig::multicore(2, 2, 4))
    }

    fn cfg() -> AllocConfig {
        AllocConfig {
            gamma: 0.4,
            f_norm: true,
            capacity_fraction: 1.0,
            ..AllocConfig::default()
        }
    }

    #[test]
    fn two_flows_share_a_host_link() {
        let f = fabric();
        let mut alloc = SerialAllocator::new(&f, cfg());
        // Two flows from server 0 to two different remote servers: they
        // share server 0's 40 G uplink.
        let p1 = f.path(0, 8, FlowId(1));
        let p2 = f.path(0, 12, FlowId(2));
        alloc.add_flow(FlowId(1), 0, 8, 1.0, &p1);
        alloc.add_flow(FlowId(2), 0, 12, 1.0, &p2);
        alloc.run_iterations(200);
        let r1 = alloc.flow_rate(FlowId(1)).unwrap();
        let r2 = alloc.flow_rate(FlowId(2)).unwrap();
        assert!((r1.rate - 20.0).abs() < 1e-6, "{r1:?}");
        assert!((r2.rate - 20.0).abs() < 1e-6, "{r2:?}");
        // F-NORM keeps the shared uplink at its capacity.
        assert!(r1.normalized + r2.normalized <= 40.0 * (1.0 + 1e-9));
    }

    #[test]
    fn single_flow_gets_line_rate() {
        let f = fabric();
        let mut alloc = SerialAllocator::new(&f, cfg());
        let p = f.path(3, 13, FlowId(7));
        alloc.add_flow(FlowId(7), 3, 13, 1.0, &p);
        alloc.run_iterations(300);
        let r = alloc.flow_rate(FlowId(7)).unwrap();
        assert!((r.rate - 40.0).abs() < 1e-4, "{r:?}");
    }

    #[test]
    fn remove_flow_frees_capacity() {
        let f = fabric();
        let mut alloc = SerialAllocator::new(&f, cfg());
        let p1 = f.path(0, 8, FlowId(1));
        let p2 = f.path(0, 12, FlowId(2));
        alloc.add_flow(FlowId(1), 0, 8, 1.0, &p1);
        alloc.add_flow(FlowId(2), 0, 12, 1.0, &p2);
        alloc.run_iterations(200);
        assert!(alloc.remove_flow(FlowId(1)));
        assert!(!alloc.remove_flow(FlowId(1)), "double remove");
        alloc.run_iterations(200);
        let r2 = alloc.flow_rate(FlowId(2)).unwrap();
        assert!((r2.rate - 40.0).abs() < 1e-4, "{r2:?}");
        assert_eq!(alloc.flow_count(), 1);
    }

    #[test]
    fn weighted_flows_split_proportionally() {
        let f = fabric();
        let mut alloc = SerialAllocator::new(&f, cfg());
        let p1 = f.path(0, 8, FlowId(1));
        let p2 = f.path(0, 12, FlowId(2));
        alloc.add_flow(FlowId(1), 0, 8, 3.0, &p1);
        alloc.add_flow(FlowId(2), 0, 12, 1.0, &p2);
        alloc.run_iterations(400);
        let r1 = alloc.flow_rate(FlowId(1)).unwrap().rate;
        let r2 = alloc.flow_rate(FlowId(2)).unwrap().rate;
        assert!((r1 / r2 - 3.0).abs() < 1e-3, "{r1} / {r2}");
    }

    #[test]
    fn capacity_fraction_headroom_is_respected() {
        let f = fabric();
        let mut alloc = SerialAllocator::new(
            &f,
            AllocConfig {
                capacity_fraction: 0.95,
                ..cfg()
            },
        );
        let p = f.path(3, 13, FlowId(7));
        alloc.add_flow(FlowId(7), 3, 13, 1.0, &p);
        alloc.run_iterations(300);
        let r = alloc.flow_rate(FlowId(7)).unwrap();
        assert!((r.rate - 38.0).abs() < 1e-4, "{r:?}");
    }

    #[test]
    fn matches_flowtune_num_ned() {
        // The block-decomposed engine must agree with the monolithic NED
        // from flowtune-num on the same instance, γ and iteration count.
        use flowtune_num::{solver::Optimizer, Ned, NumProblem, SolverState, Utility};
        let f = fabric();
        let mut alloc = SerialAllocator::new(&f, cfg());
        let caps_gbps: Vec<f64> = f
            .topology()
            .links()
            .iter()
            .map(|l| l.capacity_bps as f64 / 1e9)
            .collect();
        let mut problem = NumProblem::new(caps_gbps);
        let pairs = [(0usize, 9usize), (1, 8), (0, 12), (5, 3), (14, 2), (9, 0)];
        let mut slot_of = Vec::new();
        for (i, &(src, dst)) in pairs.iter().enumerate() {
            let id = FlowId(i as u64);
            let path = f.path(src, dst, id);
            alloc.add_flow(id, src, dst, 1.0, &path);
            slot_of.push(problem.add_flow(path.links().to_vec(), Utility::log(1.0)));
        }
        let mut state = SolverState::new(&problem);
        let mut ned = Ned::new(0.4);
        for _ in 0..150 {
            ned.iterate(&problem, &mut state);
        }
        alloc.run_iterations(150);
        for (i, &slot) in slot_of.iter().enumerate() {
            let got = alloc.flow_rate(FlowId(i as u64)).unwrap().rate;
            let want = state.rates[slot];
            assert!(
                (got - want).abs() < 1e-9 * want.max(1.0),
                "flow {i}: block engine {got} vs NED {want}"
            );
        }
    }

    #[test]
    fn link_loads_sum_flow_rates_per_link() {
        let f = fabric();
        let mut alloc = SerialAllocator::new(&f, cfg());
        let p1 = f.path(0, 8, FlowId(1));
        let p2 = f.path(0, 12, FlowId(2));
        alloc.add_flow(FlowId(1), 0, 8, 1.0, &p1);
        alloc.add_flow(FlowId(2), 0, 12, 1.0, &p2);
        alloc.run_iterations(200);
        let mut loads = Vec::new();
        alloc.link_loads_into(&mut loads);
        // The shared server-0 uplink carries both flows' raw rates …
        let shared = p1.links()[0];
        assert_eq!(shared, p2.links()[0]);
        assert!((loads[shared.index()] - 40.0).abs() < 1e-6, "{loads:?}");
        // … each private final hop carries one.
        let last1 = *p1.links().last().unwrap();
        assert!((loads[last1.index()] - 20.0).abs() < 1e-6);
        // Installing a background must NOT be echoed back by the export.
        alloc.set_background_loads(&vec![7.0; loads.len()]);
        alloc.link_loads_into(&mut loads);
        assert!((loads[shared.index()] - 40.0).abs() < 1e-6, "no echo");
    }

    #[test]
    fn background_load_shifts_the_shared_link_price() {
        // Two own flows share server 0's 40 G uplink with 20 G of
        // exogenous (other-shard) load: NED must converge them to equal
        // shares of the remaining 20 G.
        let f = fabric();
        let mut alloc = SerialAllocator::new(&f, cfg());
        let p1 = f.path(0, 8, FlowId(1));
        let p2 = f.path(0, 12, FlowId(2));
        alloc.add_flow(FlowId(1), 0, 8, 1.0, &p1);
        alloc.add_flow(FlowId(2), 0, 12, 1.0, &p2);
        let mut bg = vec![0.0; f.topology().link_count()];
        bg[p1.links()[0].index()] = 20.0;
        alloc.set_background_loads(&bg);
        alloc.run_iterations(400);
        let r1 = alloc.flow_rate(FlowId(1)).unwrap();
        let r2 = alloc.flow_rate(FlowId(2)).unwrap();
        assert!((r1.rate - 10.0).abs() < 1e-4, "{r1:?}");
        assert!((r2.rate - 10.0).abs() < 1e-4, "{r2:?}");
        // The uplink ratio sees the total (40/40 = 1), so F-NORM leaves
        // the feasible rates alone.
        assert!(r1.normalized + r2.normalized <= 20.0 * (1.0 + 1e-9));
        // Clearing the background restores the whole link.
        alloc.set_background_loads(&[]);
        alloc.run_iterations(400);
        let r1 = alloc.flow_rate(FlowId(1)).unwrap();
        assert!((r1.rate - 20.0).abs() < 1e-4, "{r1:?}");
    }

    #[test]
    fn incremental_is_bitwise_identical_at_eps_zero() {
        // Interleave iterations with adds/removes and background installs;
        // at dirty_eps = 0 the incremental engine must stay bit-for-bit
        // equal to the full sweep after every single iteration.
        let f = fabric();
        let mut full = SerialAllocator::new(&f, cfg());
        let mut inc = SerialAllocator::new(
            &f,
            AllocConfig {
                incremental: true,
                full_sweep_every: 7,
                ..cfg()
            },
        );
        let servers = 16;
        let mut present: Vec<FlowId> = Vec::new();
        let mut next = 0u64;
        let mut scratch = Vec::new();
        let (mut full_prices, mut inc_prices) = (Vec::new(), Vec::new());
        for step in 0..120u64 {
            // Deterministic churn: add two flows, occasionally remove one.
            for _ in 0..2 {
                let id = FlowId(next);
                next += 1;
                let src = ((id.0 * 7919) % servers) as usize;
                let mut dst = ((id.0 * 104_729 + 13) % servers) as usize;
                if dst == src {
                    dst = (dst + 1) % servers as usize;
                }
                let w = 1.0 + (id.0 % 4) as f64;
                let path = f.path(src, dst, id);
                full.add_flow(id, src, dst, w, &path);
                inc.add_flow(id, src, dst, w, &path);
                present.push(id);
            }
            if step % 3 == 2 {
                let victim = present.swap_remove((step as usize * 31) % present.len());
                assert!(full.remove_flow(victim));
                assert!(inc.remove_flow(victim));
            }
            if step == 40 {
                let bg: Vec<f64> = (0..f.topology().link_count())
                    .map(|l| (l % 5) as f64)
                    .collect();
                full.set_background_loads(&bg);
                inc.set_background_loads(&bg);
            }
            full.iterate();
            inc.iterate();
            let a = full.rates();
            inc.rates_into(&mut scratch);
            assert_eq!(a.len(), scratch.len());
            for (x, y) in a.iter().zip(&scratch) {
                assert_eq!(x.id, y.id);
                assert!(
                    x.rate.to_bits() == y.rate.to_bits()
                        && x.normalized.to_bits() == y.normalized.to_bits(),
                    "step {step} flow {:?}: full ({}, {}) vs incremental ({}, {})",
                    x.id,
                    x.rate,
                    x.normalized,
                    y.rate,
                    y.normalized,
                );
            }
            full.link_prices_into(&mut full_prices);
            inc.link_prices_into(&mut inc_prices);
            assert_eq!(full_prices, inc_prices);
        }
        assert!(inc.dirty_counters().is_some());
        assert!(full.dirty_counters().is_none());
    }

    #[test]
    fn changed_rate_drain_covers_all_updates() {
        // At threshold zero every changed bit must be reported: replaying
        // only the drained sets on top of a map must reproduce the full
        // export at every step.
        use std::collections::HashMap;
        let f = fabric();
        let mut inc = SerialAllocator::new(
            &f,
            AllocConfig {
                incremental: true,
                ..cfg()
            },
        );
        let p1 = f.path(0, 8, FlowId(1));
        let p2 = f.path(0, 12, FlowId(2));
        inc.add_flow(FlowId(1), 0, 8, 1.0, &p1);
        inc.add_flow(FlowId(2), 0, 12, 1.0, &p2);
        let mut replay: HashMap<FlowId, u64> = HashMap::new();
        for step in 0..400 {
            if step == 200 {
                let p3 = f.path(5, 9, FlowId(3));
                inc.add_flow(FlowId(3), 5, 9, 2.0, &p3);
            }
            inc.iterate();
            inc.drain_changed_rates(0.0, &mut |ids, normalized| {
                assert_eq!(ids.len(), normalized.len());
                replay.extend(ids.iter().zip(normalized).map(|(&id, r)| (id, r.to_bits())));
            });
            for r in inc.rates() {
                assert_eq!(
                    replay.get(&r.id),
                    Some(&r.normalized.to_bits()),
                    "step {step} flow {:?} stale in replay",
                    r.id
                );
            }
        }
        // Late in a converged quiet run the drain should be empty.
        inc.iterate();
        inc.drain_changed_rates(0.0, &mut |_, _| {});
        inc.iterate();
        inc.drain_changed_rates(0.0, &mut |ids, _| {
            panic!("converged tick still lent {ids:?}")
        });
        // A full-sweep engine has no dirty set to skip workers by, and
        // the same memory: every flow once, then only what moves.
        let mut full = SerialAllocator::new(&f, cfg());
        full.add_flow(FlowId(1), 0, 8, 1.0, &p1);
        full.add_flow(FlowId(2), 0, 12, 1.0, &p2);
        let drain = |full: &mut SerialAllocator| {
            let mut lent = Vec::new();
            full.drain_changed_rates(0.0, &mut |ids, _| lent.extend_from_slice(ids));
            lent
        };
        assert_eq!(drain(&mut full), vec![FlowId(1), FlowId(2)]);
        assert_eq!(drain(&mut full), vec![]);
        full.iterate();
        assert_eq!(drain(&mut full), vec![FlowId(1), FlowId(2)]);
    }

    #[test]
    fn intake_dirty_links_are_exactly_the_path() {
        let f = fabric();
        let mut inc = SerialAllocator::new(
            &f,
            AllocConfig {
                incremental: true,
                ..cfg()
            },
        );
        let p = f.path(0, 8, FlowId(1));
        inc.add_flow(FlowId(1), 0, 8, 1.0, &p);
        let mut dirty = inc.dirty_link_ids();
        dirty.sort_unstable();
        let mut want: Vec<_> = p.links().to_vec();
        want.sort_unstable();
        want.dedup();
        assert_eq!(dirty, want);
        inc.iterate();
        assert!(inc.dirty_link_ids().is_empty(), "iterate drains intake");
    }

    /// Every per-link array's sentinel entry, over all workers.
    fn sentinels(alloc: &SerialAllocator) -> Vec<f64> {
        let lpl = alloc.layout.links_per_lb();
        let views = alloc.workers.iter().map(|w| &w.view);
        views
            .flat_map(|v| [&v.up_prices, &v.down_prices, &v.up_ratio, &v.down_ratio])
            .map(|column| {
                assert_eq!(column.len(), lpl + 1);
                column[lpl]
            })
            .collect()
    }

    #[test]
    fn sentinel_price_and_ratio_stay_zero() {
        // Same-rack flows (1 up + 1 down hop) pad with the sentinel, so
        // its accumulator fills with their rates; price update,
        // distribution, a consensus install and a background install must
        // all leave its price and ratio at the 0.0 the kernels rely on.
        let f = fabric();
        for incremental in [false, true] {
            let mut alloc = SerialAllocator::new(
                &f,
                AllocConfig {
                    incremental,
                    ..cfg()
                },
            );
            for (i, (src, dst)) in [(0, 1), (2, 3), (0, 9), (5, 4)].into_iter().enumerate() {
                let id = FlowId(i as u64);
                alloc.add_flow(id, src, dst, 1.0, &f.path(src, dst, id));
            }
            let links = f.topology().link_count();
            for step in 0..40 {
                if step == 10 {
                    alloc.set_link_prices(&vec![0.7; links]);
                }
                if step == 20 {
                    alloc.set_background_loads(&vec![3.0; links]);
                    alloc.set_background_hessians(&vec![-0.5; links]);
                }
                alloc.iterate();
                assert!(sentinels(&alloc).iter().all(|&x| x == 0.0), "step {step}");
            }
            let lpl = alloc.layout.links_per_lb();
            assert!(
                alloc.workers[0].acc.up[lpl][0] > 0.0,
                "premise: padded flows do scatter into the sentinel accumulator"
            );
        }
    }

    #[test]
    fn dirty_set_never_sees_the_sentinel() {
        let f = fabric();
        let mut inc = SerialAllocator::new(
            &f,
            AllocConfig {
                incremental: true,
                ..cfg()
            },
        );
        let lpl = inc.layout.links_per_lb();
        // A same-rack flow: one real hop each way, one padded.
        let p = f.path(0, 1, FlowId(1));
        assert_eq!(p.links().len(), 2);
        inc.add_flow(FlowId(1), 0, 1, 1.0, &p);
        let ds = inc.dirty.as_ref().unwrap();
        // The touch arrays have no slot for it, and exactly the real hops
        // are counted.
        assert!(ds
            .up_touch
            .iter()
            .chain(&ds.down_touch)
            .all(|t| t.len() == lpl));
        assert_eq!(ds.up_touch[0].iter().sum::<u32>(), 1);
        assert_eq!(ds.down_touch[0].iter().sum::<u32>(), 1);
        let mut dirty = inc.dirty_link_ids();
        dirty.sort_unstable();
        let mut want = p.links().to_vec();
        want.sort_unstable();
        assert_eq!(dirty, want);
        inc.iterate();
        assert!(inc.remove_flow(FlowId(1)));
        let ds = inc.dirty.as_ref().unwrap();
        assert!(ds.up_touch[0]
            .iter()
            .chain(&ds.down_touch[0])
            .all(|&t| t == 0));
        assert_eq!(inc.dirty_link_ids().len(), 2);
    }

    #[test]
    fn swap_remove_keeps_columns_and_index_consistent() {
        // Deterministic churn over a few workers, checking after every
        // removal that the index finds each survivor in the slot whose
        // columns describe it.
        let f = fabric();
        let mut alloc = SerialAllocator::new(&f, cfg());
        let mut reference = SerialAllocator::new(&f, cfg());
        let mut live: Vec<(FlowId, usize, usize, f64)> = Vec::new();
        for i in 0..40u64 {
            let (src, dst) = ((i * 7 % 16) as usize, ((i * 11 + 3) % 16) as usize);
            if src != dst {
                live.push((FlowId(i), src, dst, 1.0 + (i % 4) as f64));
            }
        }
        for &(id, src, dst, w) in &live {
            alloc.add_flow(id, src, dst, w, &f.path(src, dst, id));
        }
        alloc.run_iterations(3);
        while !live.is_empty() {
            let (victim, ..) = live.swap_remove(live.len() * 5 / 7);
            let before: Vec<FlowRate> = alloc.rates();
            assert!(alloc.remove_flow(victim));
            assert_eq!(alloc.flow_count(), live.len());
            for &(id, src, dst, w) in &live {
                let &(worker, slot) = alloc.index.get(&id).expect("survivor indexed");
                let flows = &alloc.workers[worker].flows;
                assert_eq!(flows.ids[slot], id);
                assert_eq!(flows.weight[slot], w);
                let was = before.iter().find(|r| r.id == id).unwrap();
                assert_eq!(alloc.flow_rate(id), Some(*was), "rates moved with the flow");
                // Its path columns are what a fresh add would store.
                reference.add_flow(id, src, dst, w, &f.path(src, dst, id));
                let &(rw, rs) = reference.index.get(&id).unwrap();
                assert_eq!(rw, worker);
                assert_eq!(flows.path(slot), reference.workers[rw].flows.path(rs));
                assert_eq!(flows.floor[slot], reference.workers[rw].flows.floor[rs]);
                reference.remove_flow(id);
            }
            let held: usize = alloc.workers.iter().map(|w| w.flows.len()).sum();
            assert_eq!(held, live.len());
        }
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn duplicate_flow_id_rejected() {
        let f = fabric();
        let mut alloc = SerialAllocator::new(&f, cfg());
        let p = f.path(0, 8, FlowId(1));
        alloc.add_flow(FlowId(1), 0, 8, 1.0, &p);
        alloc.add_flow(FlowId(1), 0, 8, 1.0, &p);
    }
}

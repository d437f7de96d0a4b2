//! The §5 grid engine and its caller-thread schedule.
//!
//! An iteration is per-FlowBlock rate passes, binomial-tree aggregation
//! of LinkBlock partials, the price update of each LinkBlock's prices
//! (NED's, or gradient projection's on a [`SerialAllocator::gradient`]
//! grid: `flowblock::PriceRule`, the one place the two differ), and
//! F-NORM. Here it runs on the caller's thread; a grid built
//! with [`SerialAllocator::multicore`] runs its full sweeps through the
//! barrier pipeline in `parallel.rs` instead — exactly the same
//! arithmetic in exactly the same order, which the
//! `parallel_matches_serial` tests assert bit for bit.
//!
//! **Link state is read, not re-derived, and never re-indexed.** The
//! `[load, hessian]` totals each price update reduces are kept per
//! LinkBlock (`LinkTotals`), and the link-state export lends them and
//! the LinkBlock's prices as they lie, one run per LinkBlock in slot
//! order — (direction, LinkBlock, offset), the order of
//! [`SerialAllocator::link_slots`]: `O(links)`, no walk over the
//! flows and no copy. What it reports is therefore the engine's own link
//! state *as of its last iteration* — the sums its own price update just
//! used; see [`SerialAllocator::link_state`] for the contract. The
//! install writes the other shards' loads and Hessians straight into the
//! flat slot-order background arrays the price update slices per
//! LinkBlock.
//!
//! **One copy of a LinkBlock's prices.** Each worker's accumulators are
//! private — its rate pass writes nothing else — but the prices and
//! ratios it reads are its two LinkBlocks' one [`PriceView`] each, the
//! copy the price update writes. A flow pass only reads prices, so
//! sharing the copy between the LinkBlock's B workers shares no write,
//! and there is no distribution step and nothing to keep in step: the
//! diff phase, the price export and the consensus install
//! ([`SerialAllocator::install_link_state`]) read and patch exactly
//! what the next flow pass reads, 2·B views of `O(links)` each.
//!
//! **An empty FlowBlock costs nothing.** A shard's grid spans the whole
//! fabric but holds flows in some FlowBlocks only — one row of four on a
//! four-shard plane with contiguous placement. The caller-thread
//! iteration passes over a FlowBlock with no flows in every flow phase
//! (no clear, rate pass, F-NORM or report pass), and the aggregation
//! tree neither copies nor absorbs it (`Partial`): a LinkBlock's totals
//! are its live members' sum, bit for bit the dense tree's, which adds
//! the empty ones' zeros. Emptiness is read off the flow set each
//! iteration, so a stale accumulator is never read and nothing is
//! cleared when a FlowBlock empties. The barrier pipeline stays dense.

use std::sync::{Mutex, RwLock};
use std::time::{Duration, Instant};

use flowtune_topo::{BlockId, FlowId, LinkId, Path, TwoTierClos};

use crate::dirty::{DirtySet, MAX_BLOCKS};
use crate::engine::{LinkInstall, LinkRun};
use crate::flowblock::{
    absorb, normalize_pass, rate_pass, report_pass, Accums, FlowBlock, FlowRate, PriceRule,
    PriceView,
};
use crate::layout::BlockLayout;
use crate::pool::WorkerPool;
use crate::reduce::{binomial_reduce_in_order, member, position, DIRS, DOWN, UP};
use crate::{grow, AllocConfig};

/// The §5 FlowBlock × LinkBlock grid and every operation on it, with two
/// ways to schedule an iteration: on the caller's thread
/// ([`SerialAllocator::new`], engine name `serial`), or with full sweeps
/// spread over a worker pool ([`SerialAllocator::multicore`], engine name
/// `multicore`). The schedule never changes a bit of the output.
#[derive(Debug)]
pub struct SerialAllocator {
    pub(crate) layout: BlockLayout,
    pub(crate) cfg: AllocConfig,
    /// The price step every LinkBlock's update takes: NED, or gradient
    /// projection for a [`SerialAllocator::gradient`] grid.
    pub(crate) rule: PriceRule,
    /// server index → block, for FlowBlock assignment.
    server_block: Vec<BlockId>,
    /// B² workers in row-major (src block, dst block) order.
    pub(crate) workers: Vec<WorkerCore>,
    /// Per direction, each LinkBlock's prices and ratios: the one copy
    /// the price update writes and every worker of the LinkBlock reads
    /// ([`views_of`]).
    pub(crate) views: [Vec<PriceView>; 2],
    /// Flow id → (worker, slot within worker), [`VACANT`] for an id no
    /// flow holds: a dense table indexed by the id itself, grown to the
    /// largest id registered so far — engine ids are dense (see
    /// [`SerialAllocator::add_flow`]).
    index: Vec<(u32, u32)>,
    /// Number of registered flows.
    flows: usize,
    /// Exogenous per-slot load (other shards' flows), in slot order:
    /// the price update reads LinkBlock `(d, b)`'s `lpl` entries from
    /// `layout.first_slot(d, b)`, offsets matching `load`/`capacity`.
    /// Empty until the first install: no background takes the exact
    /// pre-exchange arithmetic path.
    pub(crate) bg: Vec<f64>,
    /// Exogenous per-slot Hessian diagonal (other shards' `Σ ∂x/∂p`),
    /// same layout; folded into the price update's `H` so the Newton
    /// step divides the global gradient by the global sensitivity. Never
    /// sized on a gradient grid, whose step has no second-order term.
    pub(crate) bg_h: Vec<f64>,
    /// The consensus duals an install stages, in slot order, before it
    /// patches them into `views`: empty until the first install.
    staged: Vec<f64>,
    /// Dirty-set bookkeeping when `cfg.incremental` is on and the grid
    /// has at most 64 blocks; `None` runs the plain sweep every
    /// iteration.
    dirty: Option<DirtySet>,
    /// What the last price update summed, kept for the exports.
    pub(crate) totals: LinkTotals,
    /// The binomial tree's partials, one per virtual index: sized once at
    /// construction — the fabric shape is fixed — so iterations never
    /// reallocate.
    partials: Vec<Partial>,
    /// OS threads of the pool schedule; `None` iterates on the caller's
    /// thread.
    threads: Option<usize>,
    /// The pool schedule's parked worker threads, built on its first
    /// full sweep and reused for every one after.
    pub(crate) pool: Option<WorkerPool>,
    /// Where the pool schedule's threads reach [`SerialAllocator::views`]:
    /// one lock per view, which a pipelined run swaps the views into and
    /// back out of, so the caller's thread reads plain fields and takes
    /// no lock. Empty on a caller-thread grid.
    pub(crate) pool_views: [Vec<RwLock<PriceView>>; 2],
    /// Where a pipelined run moves the workers, each under its own
    /// mutex: empty between runs, its capacity kept from one to the next.
    pub(crate) pool_cells: Vec<Mutex<WorkerCore>>,
    /// One LinkBlock of `[load, hessian]` pairs per pool slot, the
    /// pipeline's copy-out buffer for the aggregation: sized once, with
    /// the pool schedule. Empty on a caller-thread grid.
    pub(crate) pool_scratch: Vec<Mutex<Vec<[f64; 2]>>>,
}

/// The index entry of an id no flow holds: no grid has `u32::MAX`
/// workers.
const VACANT: (u32, u32) = (u32::MAX, u32::MAX);

/// Per direction, each LinkBlock's reduced `[load, hessian]` pairs (real
/// links only) — the `(G, H)` the last price update consumed, over this
/// engine's own flows. All zeros until the first iteration; carried
/// unchanged across a skipped quiet iteration, when no accumulator moved
/// and a re-aggregation would reproduce them bit for bit.
pub(crate) type LinkTotals = [Vec<Vec<[f64; 2]>>; 2];

/// One FlowBlock worker's private state.
#[derive(Debug, Clone)]
pub(crate) struct WorkerCore {
    pub flows: FlowBlock,
    pub acc: Accums,
}

impl WorkerCore {
    fn new(links_per_lb: usize) -> Self {
        Self {
            flows: FlowBlock::new(links_per_lb),
            acc: Accums::new(links_per_lb),
        }
    }
}

/// One virtual index's partial in the caller-thread tree: a LinkBlock of
/// `[load, hessian]` pairs, and whether it is *live* — whether any
/// FlowBlock summed into it holds a flow. A dead partial stands for the
/// all-`+0.0` one the dense tree adds; its buffer is stale and never read.
#[derive(Debug)]
struct Partial {
    live: bool,
    pairs: Vec<[f64; 2]>,
}

impl Partial {
    /// One tree step, `self += sender`, skipping what adds nothing: a
    /// dead sender is passed over, and a dead receiver takes the live
    /// sender's buffer (the sender is not read again).
    ///
    /// Bit for bit the dense tree's `absorb`, which adds a dead
    /// FlowBlock's cleared accumulators: `x + (+0.0)` and `(+0.0) + x`
    /// are `x` for every `x` but `−0.0`, and no accumulator entry — nor
    /// any sum of them — is `−0.0`. Loads sum rates `w/λ > 0` and
    /// Hessian entries sum `−x/λ < 0`, each from the clear's `+0.0`, and
    /// a round-to-nearest sum is `−0.0` only when both addends are: even
    /// a term that underflowed to `−0.0` leaves a `+0.0` entry `+0.0`.
    // flowtune-lint: hot, float-kernel
    fn absorb(&mut self, sender: &mut Partial) {
        if !sender.live {
            return;
        }
        if self.live {
            absorb(&mut self.pairs, &sender.pairs);
        } else {
            std::mem::swap(self, sender);
        }
    }
}

/// The two views worker `w` of a `b`-block grid reads, `[up, down]`: its
/// up-LinkBlock's and its down-LinkBlock's.
pub(crate) fn views_of<V>(views: &[Vec<V>; 2], w: usize, b: usize) -> [&V; 2] {
    DIRS.map(|d| &views[d][position(d, w, b).0])
}

impl SerialAllocator {
    /// Builds an allocator over `fabric` that iterates on the caller's
    /// thread. The fabric's block count must be a power of two (1 is
    /// fine: a single-block fabric degenerates to plain NED with no
    /// aggregation steps).
    ///
    /// # Panics
    /// Panics on a block count that is not a power of two, a
    /// `capacity_fraction` outside `(0, 1]`, or a `dirty_eps` that is not
    /// a finite value ≥ 0 (a `NaN` or infinite one would never re-dirty a
    /// worker). A grid of more than 64 blocks (one crosser-mask bit per
    /// member of a LinkBlock) keeps no dirty set whatever
    /// `cfg.incremental` says, and sweeps every tick.
    pub fn new(fabric: &TwoTierClos, cfg: AllocConfig) -> Self {
        assert!(
            fabric.block_count().is_power_of_two(),
            "the aggregation tree needs a power-of-two block count"
        );
        assert!(
            cfg.dirty_eps >= 0.0 && cfg.dirty_eps.is_finite(),
            "dirty_eps must be finite and ≥ 0, got {}",
            cfg.dirty_eps
        );
        let layout = BlockLayout::new(fabric, cfg.capacity_fraction);
        let b = layout.blocks();
        let server_block = (0..fabric.config().server_count())
            .map(|s| fabric.block_of_server(s))
            .collect();
        let lpl = layout.links_per_lb();
        let workers = (0..b * b).map(|_| WorkerCore::new(lpl)).collect();
        // B LinkBlocks of pairs: each direction's totals.
        let zeros = vec![vec![[0.0; 2]; lpl]; b];
        let dirty = (cfg.incremental && b <= MAX_BLOCKS)
            .then(|| DirtySet::new(b, lpl, cfg.dirty_eps, cfg.full_sweep_every));
        Self {
            layout,
            cfg,
            rule: PriceRule::Ned,
            server_block,
            workers,
            views: [(); 2].map(|_| vec![PriceView::new(lpl); b]),
            index: Vec::new(),
            flows: 0,
            bg: Vec::new(),
            bg_h: Vec::new(),
            staged: Vec::new(),
            dirty,
            partials: (0..b)
                .map(|_| Partial {
                    live: false,
                    pairs: vec![[0.0; 2]; lpl],
                })
                .collect(),
            totals: [zeros.clone(), zeros],
            threads: None,
            pool: None,
            pool_views: [Vec::new(), Vec::new()],
            pool_cells: Vec::new(),
            pool_scratch: Vec::new(),
        }
    }

    /// [`SerialAllocator::new`] on the pool schedule: full sweeps run as
    /// the barrier pipeline over B² logical workers on at most `workers`
    /// OS threads (`0` sizes to the host, capped at 16 — beyond that the
    /// barriers cost more than the small per-phase work gains, the
    /// paper's own profile: "Communication between CPUs in the aggregate
    /// and distribute steps took more than half of the runtime in all
    /// experiments"). The pool schedule is the full sweep's: it ignores
    /// `cfg.incremental` and keeps no dirty set (an incremental tick
    /// skips almost every worker, far below the barrier cost, so it would
    /// gain nothing from the pool).
    pub fn multicore(fabric: &TwoTierClos, cfg: AllocConfig, workers: usize) -> Self {
        let cfg = AllocConfig {
            incremental: false,
            ..cfg
        };
        Self::new(fabric, cfg).on_pool(workers)
    }

    /// [`SerialAllocator::new`] with gradient projection's price step in
    /// place of NED's (engine name `gradient`, the §6.6 baseline): the
    /// same rate pass, tree, F-NORM, drain and incremental ticks, and a
    /// first-order link-state export (no Hessians). The step is
    /// `flowtune_num::Gradient::stable_for(c_max, 2.0, 1.0)`'s, `1 /
    /// c_max²`, with `c_max` the largest link capacity in Gbit/s after
    /// `capacity_fraction` (at least 1): half of the `2/L` bound for a
    /// dual curvature `L ≈ c²/(n·w)` at two unit-weight flows a link.
    pub fn gradient(fabric: &TwoTierClos, cfg: AllocConfig) -> Self {
        let c_max = fabric
            .topology()
            .links()
            .iter()
            .map(|l| l.capacity_bps as f64 / 1e9 * cfg.capacity_fraction)
            .fold(1.0f64, f64::max);
        Self {
            rule: PriceRule::Gradient(1.0 / (c_max * c_max)),
            ..Self::new(fabric, cfg)
        }
    }

    /// This full-sweep grid on the pool schedule of
    /// [`SerialAllocator::multicore`].
    pub(crate) fn on_pool(self, workers: usize) -> Self {
        assert!(self.dirty.is_none(), "the pool schedule runs full sweeps");
        let cap = match workers {
            0 => std::thread::available_parallelism().map_or(8, |c| c.get().min(16)),
            n => n,
        };
        let (b, lpl) = (self.layout.blocks(), self.layout.links_per_lb());
        let threads = self.workers.len().min(cap);
        Self {
            threads: Some(threads),
            pool_views: [(); 2].map(|_| (0..b).map(|_| RwLock::default()).collect()),
            pool_scratch: (0..threads)
                .map(|_| Mutex::new(vec![[0.0; 2]; lpl]))
                .collect(),
            ..self
        }
    }

    /// Registers a flow. `path` must come from the same fabric. The id
    /// indexes a table grown to the largest id registered, so ids must be
    /// dense — `0..n`, or slots recycled the way the service recycles its
    /// flow-table slots — not hashes or wire values.
    ///
    /// # Panics
    /// Panics on duplicate ids, ids of 2³² or more, non-positive weights,
    /// or paths that violate block locality.
    // flowtune-lint: hot
    pub fn add_flow(
        &mut self,
        id: FlowId,
        src_server: usize,
        dst_server: usize,
        weight: f64,
        path: &Path,
    ) {
        assert!(weight > 0.0 && weight.is_finite(), "weight must be > 0");
        let Ok(key) = u32::try_from(id.0) else {
            panic!(
                "flow id {} does not fit the dense flow index (ids below 2^32)",
                id.0
            );
        };
        assert!(self.locate(id).is_none(), "flow {id} already registered");
        let b = self.layout.blocks();
        let src_block = self.server_block[src_server];
        let dst_block = self.server_block[dst_server];
        let ((up, ups), (down, downs)) = self.layout.split_path(path, src_block, dst_block);
        let (up, down) = (&up[..ups], &down[..downs]);
        let x_max = up
            .iter()
            .map(|&o| self.layout.capacity(UP, src_block.index())[o as usize])
            .chain(
                down.iter()
                    .map(|&o| self.layout.capacity(DOWN, dst_block.index())[o as usize]),
            )
            .fold(f64::INFINITY, f64::min);
        let w = src_block.index() * b + dst_block.index();
        if let Some(ds) = &mut self.dirty {
            ds.note_add(w, [up, down]);
        }
        let flows = &mut self.workers[w].flows;
        flows.push(key, weight, up, down, x_max);
        let slot = flows.len() - 1;
        assert!(
            w < VACANT.0 as usize && slot <= u32::MAX as usize,
            "worker {w} / slot {slot} does not fit the index"
        );
        let key = key as usize;
        if key >= self.index.len() {
            let missing = key + 1 - self.index.len();
            grow::reserve(&mut self.index, missing);
            self.index.resize(key + 1, VACANT);
        }
        self.index[key] = (w as u32, slot as u32);
        self.flows += 1;
    }

    /// `(worker, slot)` of a registered flow.
    // flowtune-lint: hot
    fn locate(&self, id: FlowId) -> Option<(usize, usize)> {
        let &(w, slot) = self.index.get(usize::try_from(id.0).ok()?)?;
        (w != VACANT.0).then_some((w as usize, slot as usize))
    }

    /// Deregisters a flow; returns whether it existed.
    // flowtune-lint: hot
    pub fn remove_flow(&mut self, id: FlowId) -> bool {
        let Some((w, slot)) = self.locate(id) else {
            return false;
        };
        self.index[id.0 as usize] = VACANT;
        self.flows -= 1;
        let flows = &mut self.workers[w].flows;
        if let Some(ds) = &mut self.dirty {
            let (up, down) = flows.path(slot);
            ds.note_remove(w, [up, down]);
        }
        if let Some(moved) = flows.swap_remove(slot) {
            // A flow was moved into the vacated slot; re-index it.
            self.index[moved as usize] = (w as u32, slot as u32);
        }
        true
    }

    /// All flows' current allocations (Gbit/s), in deterministic
    /// (FlowBlock, slot) order, into a caller-provided buffer (cleared
    /// first; allocation-free once it is warm): materializes every flow,
    /// for readers off the tick path.
    // flowtune-lint: hot
    pub fn rates_into(&self, out: &mut Vec<FlowRate>) {
        out.clear();
        for worker in &self.workers {
            out.extend((0..worker.flows.len()).map(|slot| worker.flows.flow_rate(slot)));
        }
    }

    /// The links marked dirty by flow intake (adds/removes) since the
    /// last iteration, as global link ids in first-marked order. Empty
    /// when not running incrementally. Observability hook for tests: an
    /// add/remove must dirty exactly the links the flow traverses.
    pub fn dirty_link_ids(&self) -> Vec<flowtune_topo::LinkId> {
        let Some(ds) = &self.dirty else {
            return Vec::new();
        };
        let links = self.layout.slot_links();
        ds.intake_list
            .iter()
            .map(|&slot| links[slot as usize])
            .collect()
    }

    /// One flow's current allocation.
    pub fn flow_rate(&self, id: FlowId) -> Option<FlowRate> {
        let (w, slot) = self.locate(id)?;
        Some(self.workers[w].flows.flow_rate(slot))
    }

    /// One NED iteration, on the schedule the grid was built for: the
    /// barrier pipeline for a [`SerialAllocator::multicore`] grid, the
    /// caller's thread otherwise.
    // flowtune-lint: hot
    pub fn iterate(&mut self) {
        match self.threads {
            Some(threads) => {
                self.run_pipeline(threads, 1);
            }
            None => self.sweep(),
        }
    }

    /// Runs `n` iterations and returns the wall time spent inside the
    /// iteration loop — on the pool schedule, pool handoff excluded — so
    /// `elapsed / n` is the per-iteration latency the §6.1 table reports.
    // flowtune-lint: hot
    pub fn run_iterations(&mut self, n: usize) -> Duration {
        match self.threads {
            Some(threads) => self.run_pipeline(threads, n),
            None => {
                let t0 = Instant::now();
                for _ in 0..n {
                    self.sweep();
                }
                t0.elapsed()
            }
        }
    }

    /// One NED iteration on the caller's thread: rate pass → aggregate →
    /// price update → (optionally) F-NORM.
    ///
    /// With a dirty set (see `crate::dirty`) the iteration is
    /// incremental. The flow-proportional phases (rate pass, F-NORM) are
    /// gated per worker on the dirty set, and a diff phase converts
    /// observed price/ratio movement into next-iteration dirtiness. The
    /// link phases (aggregate, price update) are `O(B²·L)` in links, not
    /// flows, and run whenever *any* worker recomputed — but are skipped
    /// entirely on a fully quiet iteration.
    ///
    /// The quiet-iteration skip is what lets the engine reach true
    /// quiescence. With zero recomputes every accumulator is bitwise
    /// unchanged, so running the price update anyway would integrate the
    /// same Newton residual tick after tick: prices drift, cross the
    /// dirty test's threshold, re-mark the very flows whose recompute
    /// then jolts the load back — a relaxation oscillator with the
    /// threshold's amplitude that keeps ~10% of
    /// the fabric dirty forever. Freezing prices instead is exact at
    /// `eps = 0`: the skip requires a markless previous diff (`moving`
    /// false — no price or ratio moved anywhere, touched links or not),
    /// which means the last price update already reproduced its own
    /// input bitwise (same prices, same loads), so the skipped update is
    /// the identity. For `eps > 0` the suppressed residual is within the
    /// dirty test's threshold (`dirty::moved`, a quarter `Rate16` step
    /// relative) by construction.
    ///
    /// Every `full_sweep_every`-th iteration forces one pass of the link
    /// phases (aggregate, price update, diff) whatever the dirty set
    /// says, so that residual is still applied; only the workers whose
    /// links that diff marks re-run, and no flow re-runs for the cadence
    /// itself. At `eps = 0` the forced pass is the identity the skip
    /// stands for; at `eps > 0` nothing compounds without a re-pricing
    /// sweep (`crate::dirty` says why), and the NED step's anchor
    /// (`flowblock::price_update`) keeps a pass over frozen loads from
    /// repeating the move the last one made.
    ///
    /// The grid picks the path each tick from its own dirty set. A tick
    /// on which every worker that holds flows re-runs its rate pass skips
    /// nothing, so it is the plain sweep: the price update takes no
    /// anchor, no diff runs (F-NORM reads the fresh ratios) and every
    /// worker stays rate-dirty ([`DirtySet::plain`]), which keeps the
    /// grid on that path. Intake keeps the touch counts and masks
    /// current on both. The way back is tried on a tick with no news
    /// from outside the grid — no intake, no install that moved a dual —
    /// and on the forced-pass cadence after the first tick: such a tick
    /// never sweeps plainly, and after a plain one it first resyncs the
    /// snapshots to the prices every flow just read
    /// ([`DirtySet::resync`]), so its diff judges every link afresh.
    /// Without a dirty set every tick is the plain sweep.
    // flowtune-lint: hot
    fn sweep(&mut self) {
        let (mut moving, mut back) = (true, false);
        if let Some(ds) = &mut self.dirty {
            let forced = ds.full_sweep_every > 0 && ds.iter.is_multiple_of(ds.full_sweep_every);
            let news = !ds.intake_list.is_empty() | std::mem::take(&mut ds.install_moved);
            back = !news || (forced && ds.iter > 0);
            ds.drain_intake();
            ds.iter += 1;
            moving = ds.moving || forced;
        }
        let (any, every) = self.rate_phase();
        if let Some(ds) = &mut self.dirty {
            if every && !back {
                ds.rate_dirty.fill(true);
                ds.plain = true;
            } else if std::mem::take(&mut ds.plain) {
                for d in DIRS {
                    for (blk, view) in self.views[d].iter().enumerate() {
                        ds.resync(d, blk, &view.prices, &view.ratios);
                    }
                }
            }
        }
        if any || moving {
            self.aggregate_and_price();
            self.diff_and_mark();
        }
        self.normalize_phase();
    }

    /// Phase A: clear the accumulators and re-run the rate pass in every
    /// worker — with a dirty set, only in the rate-dirty ones. A clean
    /// worker's accumulators and rates are bitwise what a recompute
    /// would produce — its flow set and every price it reads are
    /// unchanged — so skipping it is exact. The accumulator clear is the
    /// lazy per-epoch one: it happens here, only for recomputed workers,
    /// instead of globally every iteration, and stops at the sentinel.
    /// An empty FlowBlock is neither cleared nor passed: the tree does
    /// not read a dead worker's accumulators ([`Partial`]). It still
    /// counts as recomputed, so a FlowBlock whose last flow just left
    /// takes its old sums out of the totals.
    /// Returns whether any worker recomputed, which gates the
    /// link-proportional phases, and whether every worker that holds
    /// flows did, which makes the tick a plain sweep.
    // flowtune-lint: hot
    fn rate_phase(&mut self) -> (bool, bool) {
        let (b, lpl) = (self.layout.blocks(), self.layout.links_per_lb());
        let Self {
            workers,
            views,
            dirty,
            ..
        } = self;
        let (mut any, mut every) = (false, true);
        for (w, worker) in workers.iter_mut().enumerate() {
            if let Some(ds) = dirty {
                ds.recomputed[w] = std::mem::take(&mut ds.rate_dirty[w]);
                if !ds.recomputed[w] {
                    every &= worker.flows.is_empty();
                    continue;
                }
                ds.dirty_flows += worker.flows.len() as u64;
            }
            any = true;
            if worker.flows.is_empty() {
                continue;
            }
            worker.acc.clear(lpl);
            let prices = views_of(views, w, b).map(|v| &v.prices[..]);
            rate_pass(&mut worker.flows, prices, &mut worker.acc);
        }
        (any, every)
    }

    /// Phases B+C: aggregate each LinkBlock along the binomial tree (in
    /// the tree's exact pairwise order) into preallocated scratch and run
    /// the NED price update on its view. Only the members whose
    /// FlowBlock holds flows are copied in and absorbed ([`Partial`]); a
    /// LinkBlock with none gets zero totals, and its price update runs
    /// all the same. The reduced totals trade places with the
    /// LinkBlock's [`LinkTotals`] buffer — no copy; the next reduction
    /// overwrites all of a live `partials[0]` — so the exports read
    /// exactly what the update was given. With a dirty set off the plain
    /// path the NED step is anchored at the price snapshots
    /// (`DirtySet::prev_prices`, the prices the links' crossers last
    /// read): it steps on the load those flows would carry at the current
    /// price, so a link whose crossers have not re-run does not repeat
    /// its last move. At `eps = 0` every
    /// price equals its snapshot here and the anchor changes no bit.
    // flowtune-lint: hot, float-kernel
    fn aggregate_and_price(&mut self) {
        let b = self.layout.blocks();
        let lpl = self.layout.links_per_lb();
        let partials = &mut self.partials;
        for d in DIRS {
            for blk in 0..b {
                for (k, part) in partials.iter_mut().enumerate() {
                    let worker = &self.workers[member(d, blk, k, b)];
                    part.live = !worker.flows.is_empty();
                    if part.live {
                        part.pairs.copy_from_slice(&worker.acc.pairs[d][..lpl]);
                    }
                }
                binomial_reduce_in_order(partials, Partial::absorb);
                let total = &mut self.totals[d][blk];
                if partials[0].live {
                    std::mem::swap(&mut partials[0].pairs, total);
                } else {
                    total.fill([0.0; 2]);
                }
                let first = self.layout.first_slot(d, blk);
                self.rule.update(
                    &self.totals[d][blk],
                    self.bg.get(first..first + lpl),
                    self.bg_h.get(first..first + lpl),
                    self.dirty
                        .as_ref()
                        .filter(|ds| !ds.plain)
                        .map(|ds| &ds.prev_prices[first..][..lpl]),
                    self.layout.capacity(d, blk),
                    &mut self.views[d][blk],
                );
            }
        }
    }

    /// Diff phase (with a dirty set off the plain path only): compare the
    /// fresh prices and ratios against the per-link snapshots, one flat
    /// pass per LinkBlock (`DirtySet::diff`). A price that moved
    /// (`dirty::moved`) rate-dirties every traversing worker for the
    /// *next* iteration (the rates they computed this iteration used the
    /// pre-update price — exactly like the full sweep); a ratio that
    /// moved norm-dirties traversing workers for *this* iteration's
    /// F-NORM, which reads the post-update ratios.
    ///
    /// At a positive `eps` each view's ratio is then replaced by its
    /// ceiling, `snap + dirty::slack(snap)`: the largest ratio the test
    /// lets pass without a mark. A ceiling changes only on a mark, and a
    /// mark re-normalizes every crosser of the link, so every flow divides
    /// by at least the current ratio and F-NORM's load stays within
    /// capacity up to rounding. The current ratio is at least the
    /// snapshot less one slack, so a rate gives up at most two slacks
    /// (2⁻¹², half a `Rate16` step) against F-NORM at the current ratio.
    /// At `eps = 0` the ratios are left as the update wrote them.
    // flowtune-lint: hot
    fn diff_and_mark(&mut self) {
        let lpl = self.layout.links_per_lb();
        let Self {
            views,
            dirty: Some(ds),
            ..
        } = self
        else {
            return;
        };
        if ds.plain {
            return;
        }
        // Rebuilt from scratch each diff: stays false only when *no*
        // price or ratio anywhere moved — touched or not —
        // which is the precondition for freezing the price phases.
        ds.moving = false;
        for d in DIRS {
            for (blk, view) in views[d].iter_mut().enumerate() {
                ds.diff(d, blk, &view.prices[..lpl], &mut view.ratios[..lpl]);
            }
        }
    }

    /// Phase D: F-NORM (or a plain copy) in every worker — with a dirty
    /// set, only where the inputs changed: the worker recomputed its
    /// rates this iteration, or a ratio on a traversed link moved. Each
    /// of those is marked export-dirty for the drain
    /// ([`SerialAllocator::drain_changed_rates`]). An empty FlowBlock has
    /// nothing to normalize and is passed over.
    // flowtune-lint: hot
    fn normalize_phase(&mut self) {
        let f_norm = self.cfg.f_norm;
        let b = self.layout.blocks();
        let Self {
            workers,
            views,
            dirty,
            ..
        } = self;
        for (w, worker) in workers.iter_mut().enumerate() {
            if let Some(ds) = dirty {
                if !(std::mem::take(&mut ds.norm_dirty[w]) | ds.recomputed[w]) {
                    continue;
                }
                ds.export_dirty[w] = true;
            }
            if worker.flows.is_empty() {
                continue;
            }
            if f_norm {
                let ratios = views_of(views, w, b).map(|v| &v.ratios[..]);
                normalize_pass(&mut worker.flows, ratios);
            } else {
                worker.flows.normalized.copy_from_slice(&worker.flows.rates);
            }
        }
    }
}

/// The grid's queries, the §6.4 drain, and the two halves of an
/// exchange round.
impl SerialAllocator {
    /// Number of registered flows.
    pub fn flow_count(&self) -> usize {
        self.flows
    }

    /// [`SerialAllocator::rates_into`] into a fresh vector: the one
    /// allocating query, for tests and one-shot readers.
    pub fn rates(&self) -> Vec<FlowRate> {
        let mut out = Vec::with_capacity(self.flows);
        self.rates_into(&mut out);
        out
    }

    /// The per-tick export: lends `sink` the ids and normalized rates
    /// (Gbit/s; two slices of one length, element `i` of each the same
    /// flow) of exactly the flows that **must be reported** — whose rate
    /// moved by more than `threshold` (§6.4, relative) from what this
    /// grid last lent for them, or for which it never lent any — and
    /// remembers what it lent. The rule is
    /// `flowtune_proto::ThresholdFilter::passes` bit for bit; the memory
    /// lives with the flow's rate (`FlowBlock::reported`), starts empty at
    /// [`SerialAllocator::add_flow`] and goes with
    /// [`SerialAllocator::remove_flow`], so a recycled id inherits
    /// nothing.
    ///
    /// Runs [`report_pass`] over every worker whose output may have moved
    /// since the last drain (every worker, without a dirty set) and holds
    /// flows. A worker that is skipped is bitwise as the last drain left
    /// it, and what did not pass then does not pass now.
    // flowtune-lint: hot, float-kernel
    pub fn drain_changed_rates(&mut self, threshold: f64, sink: &mut dyn FnMut(&[FlowId], &[f64])) {
        for (w, worker) in self.workers.iter_mut().enumerate() {
            if let Some(ds) = &mut self.dirty {
                if !std::mem::take(&mut ds.export_dirty[w]) {
                    continue;
                }
            }
            if worker.flows.is_empty() {
                continue;
            }
            report_pass(&mut worker.flows, threshold, sink);
        }
    }

    /// Cumulative `(dirty_flows, dirty_links)` of an incremental grid:
    /// flows whose rate pass re-ran, and per-iteration link price moves
    /// the dirty test counted (`AllocConfig::dirty_eps`). `None` on a grid
    /// running full sweeps.
    pub fn dirty_counters(&self) -> Option<(u64, u64)> {
        self.dirty.as_ref().map(DirtySet::counters)
    }

    /// The global link each slot of the link state stands for, in slot
    /// order: the one map between the grid's layout and [`LinkId`]s. A
    /// slot is a (direction, LinkBlock, offset) triple — 2·B·lpl slots,
    /// every data link exactly once, no control link — a function of the
    /// fabric alone, so every grid over one fabric shares it.
    pub fn link_slots(&self) -> &[LinkId] {
        self.layout.slot_links()
    }

    /// The grid's own link state — what an exchange round exports — lent
    /// to `visit` in slot order, one [`LinkRun`] per LinkBlock, read
    /// where its last price update left it, nothing copied:
    ///
    /// * `totals`: per slot, the sum of the raw (pre-normalization) rates
    ///   of *this grid's* flows crossing the link — the load term its own
    ///   price update used — and `Σ ∂x/∂p` over the same flows (≤ 0), the
    ///   `H` that update divided by. Installed background state is **not**
    ///   echoed back, so a sharded control plane can sum shards' exports
    ///   without double counting; shipping `H` lets every shard's Newton
    ///   step divide the global gradient by the global sensitivity. A
    ///   gradient grid's step has no second-order term, so its runs say
    ///   `hessians: false`.
    /// * `prices`: the slots' current duals.
    ///
    /// **As of the last iteration**: zeros before the first one; a flow
    /// removed since still counts until the next, and a flow added since
    /// does not count yet. Read right after [`SerialAllocator::iterate`],
    /// that is the current rates' link state, and a link no flow crosses
    /// reads exactly `0.0`. `O(links)`; allocates nothing.
    // flowtune-lint: hot
    pub fn link_state(&self, mut visit: impl FnMut(LinkRun<'_>)) {
        let lpl = self.layout.links_per_lb();
        for d in DIRS {
            for (totals, view) in self.totals[d].iter().zip(&self.views[d]) {
                visit(LinkRun {
                    totals,
                    prices: &view.prices[..lpl],
                    hessians: self.rule == PriceRule::Ned,
                });
            }
        }
    }

    /// The install half of an exchange round, in slot order: lends `fill`
    /// the flat background arrays and the staged duals ([`LinkInstall`],
    /// one entry per slot of [`SerialAllocator::link_slots`]; the duals
    /// all `NaN` on entry) for it to write the other shards' load and
    /// Hessian on each link — read by the price update as they are left —
    /// and the consensus duals (`NaN` keeps the grid's own). Then patches
    /// every staged dual that is not `NaN` into its LinkBlock's view —
    /// the one copy every worker of the LinkBlock reads, so the next rate
    /// pass prices flows with it, on either schedule. On the incremental
    /// path the same pass marks: an install that moves a dual (by the
    /// dirty test's rule) invalidates the rate pass of every worker whose
    /// flows traverse that link. After a plain tick every worker is dirty
    /// already, and the install is the plain copy.
    ///
    /// Dual consensus is what makes a partitioned allocator's fixed point
    /// unique: background loads alone pin only the *total* on a shared
    /// link, so shards must agree on the price itself, like §5's single
    /// authoritative LinkBlock owner.
    // flowtune-lint: hot
    pub fn install_link_state(&mut self, fill: impl FnOnce(LinkInstall<'_>)) {
        let n = self.layout.slot_links().len();
        let second_order = self.rule == PriceRule::Ned;
        self.bg.resize(n, 0.0);
        if second_order {
            self.bg_h.resize(n, 0.0);
        }
        self.staged.clear();
        self.staged.resize(n, f64::NAN);
        fill(LinkInstall {
            slots: self.layout.slot_links(),
            loads: &mut self.bg,
            hessians: second_order.then_some(&mut self.bg_h[..]),
            prices: &mut self.staged,
        });
        let lpl = self.layout.links_per_lb();
        let mut staged = self.staged.chunks_exact(lpl);
        for d in DIRS {
            for (blk, view) in self.views[d].iter_mut().enumerate() {
                let held = &mut view.prices[..lpl];
                let staged = staged.next().unwrap_or_default();
                match &mut self.dirty {
                    Some(ds) if !ds.plain => ds.install(d, blk, held, staged),
                    Some(ds) => ds.copy(held, staged),
                    None => {
                        for (held, &p) in held.iter_mut().zip(staged) {
                            *held = if p.is_nan() { *held } else { p };
                        }
                    }
                }
            }
        }
    }

    /// The OS threads a full sweep runs on: the pool schedule's (at most
    /// the host's parallelism when built with `workers = 0`, and at most
    /// B²), or 1 on the caller's thread.
    pub fn threads(&self) -> usize {
        self.threads.unwrap_or(1)
    }

    /// Short engine name for logs and experiment output: `serial`,
    /// `multicore` or `gradient`.
    pub fn name(&self) -> &'static str {
        match (self.rule, self.threads) {
            (PriceRule::Gradient(_), _) => "gradient",
            (PriceRule::Ned, Some(_)) => "multicore",
            (PriceRule::Ned, None) => "serial",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::global;
    use crate::flowblock::padded_len;
    use flowtune_topo::ClosConfig;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    /// What the link-state exports did before they read the price
    /// update's sums, and the consensus install as a marking pass and a
    /// rewrite, kept as the oracles the differential tests compare
    /// against.
    impl SerialAllocator {
        /// `(loads, hessians, prices)` by global link: the slot-order
        /// export scattered through `link_slots`.
        fn global_state(&self) -> [Vec<f64>; 3] {
            global::state(self, self.layout.total_links())
        }

        /// The slot-order install of global-link-indexed values, gathered
        /// through `link_slots`; `None` leaves that part as it was.
        fn install_global(
            &mut self,
            loads: Option<&[f64]>,
            hessians: Option<&[f64]>,
            prices: Option<&[f64]>,
        ) {
            global::install(self, loads, hessians, prices);
        }

        /// Calls `hop(global link index, rate, ∂x/∂p)` for every link of
        /// every flow's path, in (worker, slot, path) order. For the
        /// log-utility hot path `∂x/∂p = −x/λ = −x²/w`, reconstructed
        /// from the stored rate and weight.
        fn for_each_hop(&self, mut hop: impl FnMut(usize, f64, f64)) {
            let b = self.layout.blocks();
            for (w, worker) in self.workers.iter().enumerate() {
                let up_links = self.layout.links(UP, w / b);
                let down_links = self.layout.links(DOWN, w % b);
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

        /// `(loads, hessians)` of the *current* flows at their current
        /// rates, by the walk.
        fn link_state_by_walk(&self) -> (Vec<f64>, Vec<f64>) {
            let mut loads = vec![0.0; self.layout.total_links()];
            let mut hessians = loads.clone();
            self.for_each_hop(|link, rate, dx| {
                loads[link] += rate;
                hessians[link] += dx;
            });
            (loads, hessians)
        }

        /// The background half of the install as a rewrite of the flat
        /// slot-order arrays, link by link, from global vectors.
        fn set_background_link_by_link(&mut self, loads: &[f64], hessians: &[f64]) {
            let lpl = self.layout.links_per_lb();
            let n = 2 * self.layout.blocks() * lpl;
            self.bg.resize(n, 0.0);
            self.bg_h.resize(n, 0.0);
            for d in DIRS {
                for blk in 0..self.layout.blocks() {
                    let first = self.layout.first_slot(d, blk);
                    for (o, link) in self.layout.links(d, blk).iter().enumerate() {
                        self.bg[first + o] = loads[link.index()];
                        self.bg_h[first + o] = hessians[link.index()];
                    }
                }
            }
        }

        /// The install as a marking pass over the views and then a
        /// rewrite of each view, link by link, from `prices`.
        fn set_link_prices_link_by_link(&mut self, prices: &[f64]) {
            let b = self.layout.blocks();
            let Self {
                layout,
                views,
                dirty,
                ..
            } = self;
            if let Some(ds) = dirty {
                for d in DIRS {
                    for (blk, view) in views[d].iter().enumerate() {
                        let first = layout.first_slot(d, blk);
                        for (o, link) in layout.links(d, blk).iter().enumerate() {
                            let p = prices[link.index()];
                            if p.is_nan() || !ds.moved(p, view.prices[o]) {
                                continue;
                            }
                            ds.install_moved = true;
                            // After a plain tick the install only copies.
                            if ds.plain {
                                continue;
                            }
                            ds.moving = true;
                            ds.dirty_links += 1;
                            ds.prev_prices[first + o] = p;
                            // The LinkBlock's workers: grid row `blk` up,
                            // column `blk` down; each one's touch count
                            // sits at its member index.
                            for k in 0..b {
                                let w = if d == UP { blk * b + k } else { k * b + blk };
                                let member = position(d, w, b).1;
                                if ds.touch[(first + o) * b + member] > 0 {
                                    ds.rate_dirty[w] = true;
                                }
                            }
                        }
                    }
                }
            }
            for d in DIRS {
                for (blk, view) in views[d].iter_mut().enumerate() {
                    for (o, link) in layout.links(d, blk).iter().enumerate() {
                        let p = prices[link.index()];
                        if !p.is_nan() {
                            view.prices[o] = p;
                        }
                    }
                }
            }
        }
    }

    fn fabric() -> TwoTierClos {
        TwoTierClos::build(ClosConfig::multicore(2, 2, 4))
    }

    fn cfg() -> AllocConfig {
        AllocConfig {
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
    fn a_multicore_grid_runs_full_sweeps_on_its_pool_whatever_the_config() {
        let f = fabric();
        let incremental = AllocConfig {
            incremental: true,
            dirty_eps: 1e-9,
            ..cfg()
        };
        let mut pool = SerialAllocator::multicore(&f, incremental, 2);
        let mut full = SerialAllocator::new(&f, cfg());
        assert_eq!((pool.threads(), pool.dirty_counters()), (2, None));
        for (id, (src, dst)) in [(0, 8), (0, 12), (5, 9), (13, 2)].into_iter().enumerate() {
            let id = FlowId(id as u64);
            let path = f.path(src, dst, id);
            pool.add_flow(id, src, dst, 1.0, &path);
            full.add_flow(id, src, dst, 1.0, &path);
        }
        pool.run_iterations(50);
        full.run_iterations(50);
        for id in (0..4).map(FlowId) {
            assert_eq!(pool.flow_rate(id), full.flow_rate(id), "{id:?}");
        }
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
    fn matches_flowtune_num_gradient() {
        // The gradient rule must agree with the monolithic gradient
        // projection from flowtune-num on the same instance, step and
        // iteration count — raw rates and F-NORMed ones — on both
        // schedules, which also agree with each other bit for bit.
        use flowtune_num::{normalize, solver::Optimizer, Gradient, NumProblem};
        use flowtune_num::{SolverState, Utility};
        let f = fabric();
        let caps_gbps: Vec<f64> = f
            .topology()
            .links()
            .iter()
            .map(|l| l.capacity_bps as f64 / 1e9)
            .collect();
        let c_max = caps_gbps.iter().fold(1.0f64, |a, &c| a.max(c));
        let mut problem = NumProblem::new(caps_gbps);
        let mut serial = SerialAllocator::gradient(&f, cfg());
        let mut pool = SerialAllocator::gradient(&f, cfg()).on_pool(2);
        let pairs = [(0, 9), (1, 8), (0, 12), (5, 3), (14, 2), (9, 0), (0, 1)];
        let mut slot_of = Vec::new();
        for (i, &(src, dst)) in pairs.iter().enumerate() {
            let id = FlowId(i as u64);
            let weight = 1.0 + (i % 3) as f64;
            let path = f.path(src, dst, id);
            for alloc in [&mut serial, &mut pool] {
                alloc.add_flow(id, src, dst, weight, &path);
            }
            slot_of.push(problem.add_flow(path.links().to_vec(), Utility::log(weight)));
        }
        let mut state = SolverState::new(&problem);
        let mut gradient = Gradient::stable_for(c_max, 2.0, 1.0);
        assert_eq!(pool.name(), "gradient");
        // In the transient and once converged.
        for (done, n) in [(1, 1), (10, 9), (40, 30), (400, 360)] {
            for _ in 0..n {
                gradient.iterate(&problem, &mut state);
            }
            let normalized = normalize::f_norm(&problem, &state.rates);
            serial.run_iterations(n);
            pool.run_iterations(n);
            assert_eq!(serial.rates(), pool.rates(), "the schedules agree");
            for (i, &slot) in slot_of.iter().enumerate() {
                let got = serial.flow_rate(FlowId(i as u64)).unwrap();
                for (what, got, want) in [
                    ("rate", got.rate, state.rates[slot]),
                    ("normalized", got.normalized, normalized[slot]),
                ] {
                    assert!(
                        (got - want).abs() < 1e-9 * want.max(1.0),
                        "flow {i} after {done}: grid {what} {got} vs Gradient {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn gradient_single_flow_converges_to_line_rate() {
        let f = fabric();
        let mut alloc = SerialAllocator::gradient(&f, cfg());
        let p = f.path(3, 13, FlowId(7));
        alloc.add_flow(FlowId(7), 3, 13, 1.0, &p);
        // First-order steps need far more iterations than NED — which is
        // the very point of the §6.6 comparison.
        alloc.run_iterations(20_000);
        let r = alloc.flow_rate(FlowId(7)).unwrap();
        assert!((r.rate - 40.0).abs() < 0.5, "{r:?}");
        assert!(r.normalized <= 40.0 * (1.0 + 1e-9), "{r:?}");
    }

    #[test]
    fn gradient_f_norm_keeps_shared_link_feasible_during_transients() {
        let f = fabric();
        let mut alloc = SerialAllocator::gradient(&f, cfg());
        let p1 = f.path(0, 8, FlowId(1));
        let p2 = f.path(0, 12, FlowId(2));
        alloc.add_flow(FlowId(1), 0, 8, 1.0, &p1);
        alloc.add_flow(FlowId(2), 0, 12, 1.0, &p2);
        for _ in 0..500 {
            alloc.iterate();
            let r1 = alloc.flow_rate(FlowId(1)).unwrap().normalized;
            let r2 = alloc.flow_rate(FlowId(2)).unwrap().normalized;
            // The two flows share server 0's 40 G uplink; F-NORM must keep
            // the pair feasible on every iteration, converged or not.
            assert!(r1 + r2 <= 40.0 * (1.0 + 1e-9), "{r1} + {r2}");
        }
    }

    #[test]
    fn link_slots_name_every_data_link_once_and_no_control_link() {
        let mut f = TwoTierClos::build(ClosConfig::multicore(4, 2, 4));
        f.attach_allocator();
        let control = f.allocator().unwrap();
        let control: Vec<_> = control.to_spine.iter().chain(&control.from_spine).collect();
        for alloc in [
            SerialAllocator::new(&f, cfg()),
            SerialAllocator::gradient(&f, cfg()),
        ] {
            let slots = alloc.link_slots();
            let lpl = alloc.layout.links_per_lb();
            assert_eq!(slots.len(), 2 * 4 * lpl, "2·B·lpl slots");
            let mut seen = vec![0u32; f.topology().link_count()];
            for link in slots {
                seen[link.index()] += 1;
            }
            for (l, &n) in seen.iter().enumerate() {
                let is_control = control.iter().any(|c| c.index() == l);
                assert_eq!(n, u32::from(!is_control), "link {l}, control {is_control}");
            }
            assert!(!control.is_empty() && control.len() + slots.len() == seen.len());
            // Slot order is (direction, LinkBlock, offset).
            for d in DIRS {
                for blk in 0..4 {
                    let first = alloc.layout.first_slot(d, blk);
                    assert_eq!(&slots[first..first + lpl], alloc.layout.links(d, blk));
                }
            }
            // The export visits the slots in that order, one run per
            // LinkBlock.
            let mut runs = 0;
            alloc.link_state(|run| {
                assert_eq!((run.totals.len(), run.prices.len()), (lpl, lpl));
                assert_eq!(run.hessians, alloc.name() == "serial");
                runs += 1;
            });
            assert_eq!(runs, 2 * 4);
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
        let [loads, ..] = alloc.global_state();
        // The shared server-0 uplink carries both flows' raw rates …
        let shared = p1.links()[0];
        assert_eq!(shared, p2.links()[0]);
        assert!((loads[shared.index()] - 40.0).abs() < 1e-6, "{loads:?}");
        // … each private final hop carries one.
        let last1 = *p1.links().last().unwrap();
        assert!((loads[last1.index()] - 20.0).abs() < 1e-6);
        // Installing a background must NOT be echoed back by the export.
        alloc.install_global(Some(&vec![7.0; loads.len()]), None, None);
        let [loads, ..] = alloc.global_state();
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
        alloc.install_global(Some(&bg), None, None);
        alloc.run_iterations(400);
        let r1 = alloc.flow_rate(FlowId(1)).unwrap();
        let r2 = alloc.flow_rate(FlowId(2)).unwrap();
        assert!((r1.rate - 10.0).abs() < 1e-4, "{r1:?}");
        assert!((r2.rate - 10.0).abs() < 1e-4, "{r2:?}");
        // The uplink ratio sees the total (40/40 = 1), so F-NORM leaves
        // the feasible rates alone.
        assert!(r1.normalized + r2.normalized <= 20.0 * (1.0 + 1e-9));
        // Clearing the background restores the whole link.
        alloc.install_global(Some(&vec![0.0; bg.len()]), None, None);
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
                full.install_global(Some(&bg), None, None);
                inc.install_global(Some(&bg), None, None);
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
            assert_eq!(full.global_state()[2], inc.global_state()[2]);
            // The totals a skipped (quiet) iteration carried over are
            // the ones the full sweep re-reduced.
            assert_eq!(exports(&full), exports(&inc), "step {step}");
        }
        assert!(inc.dirty_counters().is_some());
        assert!(full.dirty_counters().is_none());
    }

    #[test]
    fn a_tick_that_reruns_every_worker_is_the_plain_sweep() {
        // From a cold start every worker is dirty, and a tick that brings
        // flows (before the first forced-pass cadence) keeps it so: the
        // wire-precision grid runs the plain sweep — no anchor, no diff,
        // no ratio ceilings, the install's plain copy — bit for bit the
        // full sweep's, counting every flow it re-runs and no link.
        let f = fabric();
        let mut full = SerialAllocator::new(&f, cfg());
        let mut inc = SerialAllocator::new(
            &f,
            AllocConfig {
                incremental: true,
                dirty_eps: 1e-9,
                ..cfg()
            },
        );
        let servers = 16u64;
        let (mut present, mut reran) = (Vec::new(), 0u64);
        for step in 0..cfg().full_sweep_every {
            for id in [2 * step, 2 * step + 1].map(FlowId) {
                let src = id.0 * 7919 % servers;
                let dst = (src + 1 + id.0 * 104_729 % (servers - 1)) % servers;
                let (src, dst) = (src as usize, dst as usize);
                let path = f.path(src, dst, id);
                full.add_flow(id, src, dst, 1.0, &path);
                inc.add_flow(id, src, dst, 1.0, &path);
                present.push(id);
            }
            if step % 3 == 2 {
                let victim = present.swap_remove(step as usize * 31 % present.len());
                assert!(full.remove_flow(victim) && inc.remove_flow(victim));
            }
            if step == 20 {
                let bg: Vec<f64> = (0..f.topology().link_count())
                    .map(|l| (l % 5) as f64)
                    .collect();
                let prices: Vec<f64> = (0..bg.len()).map(|l| 0.1 * (l % 3) as f64).collect();
                full.install_global(Some(&bg), None, Some(&prices));
                inc.install_global(Some(&bg), None, Some(&prices));
            }
            full.iterate();
            inc.iterate();
            reran += inc.flow_count() as u64;
            let (a, b) = (full.rates(), inc.rates());
            let pairs = |r: &[FlowRate]| -> Vec<_> {
                r.iter()
                    .map(|x| (x.id, x.rate.to_bits(), x.normalized.to_bits()))
                    .collect()
            };
            assert_eq!(pairs(&a), pairs(&b), "step {step}");
            assert_eq!(exports(&full), exports(&inc), "step {step}");
            assert_eq!(
                bits(&full.global_state()[2]),
                bits(&inc.global_state()[2]),
                "step {step}"
            );
            assert_eq!(inc.dirty_counters(), Some((reran, 0)), "step {step}");
        }
        // A tick that brings no flow takes the way back: it diffs.
        inc.iterate();
        assert!(inc.dirty_counters().unwrap().1 > 0, "the quiet tick diffed");
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The link-state export by global link, as bits.
    fn exports(alloc: &SerialAllocator) -> [Vec<u64>; 2] {
        let [loads, hessians, _] = alloc.global_state();
        assert_eq!(loads.len(), alloc.layout.total_links());
        assert_eq!(hessians.len(), alloc.layout.total_links());
        [bits(&loads), bits(&hessians)]
    }

    #[test]
    fn link_state_is_as_of_the_last_iteration() {
        let f = fabric();
        for incremental in [false, true] {
            let mut alloc = SerialAllocator::new(
                &f,
                AllocConfig {
                    incremental,
                    ..cfg()
                },
            );
            let links = f.topology().link_count();
            // Before the first iteration: zeros at full length, flows or
            // not (an added flow's rate is still 0).
            let zeros = [bits(&vec![0.0; links]), bits(&vec![0.0; links])];
            assert_eq!(exports(&alloc), zeros);
            let (p1, p2) = (f.path(0, 8, FlowId(1)), f.path(5, 13, FlowId(2)));
            alloc.add_flow(FlowId(1), 0, 8, 1.0, &p1);
            alloc.add_flow(FlowId(2), 5, 13, 2.0, &p2);
            assert_eq!(exports(&alloc), zeros);
            alloc.run_iterations(30);
            let before = exports(&alloc);
            let private = p2.links()[0].index();
            assert!(f64::from_bits(before[0][private]) > 0.0);
            assert!(f64::from_bits(before[1][private]) < 0.0);
            // A removed flow is counted until the next iteration …
            assert!(alloc.remove_flow(FlowId(2)));
            assert_eq!(exports(&alloc), before, "no iteration, no change");
            // … and gone, to an exact 0.0, after it.
            alloc.iterate();
            let after = exports(&alloc);
            for l in p2.links() {
                assert_eq!(after[0][l.index()], 0.0f64.to_bits(), "{l}");
                assert_eq!(after[1][l.index()], 0.0f64.to_bits(), "{l}");
            }
            let (want_loads, _) = alloc.link_state_by_walk();
            assert_eq!(after[0], bits(&want_loads), "one flow a link: one term");
        }
    }

    #[test]
    fn a_quiet_incremental_tick_exports_what_the_one_before_did() {
        let f = fabric();
        let mut inc = SerialAllocator::new(
            &f,
            AllocConfig {
                incremental: true,
                ..cfg()
            },
        );
        for (i, (src, dst)) in [(0, 8), (0, 12), (5, 4), (9, 1)].into_iter().enumerate() {
            let id = FlowId(i as u64);
            inc.add_flow(id, src, dst, 1.0 + i as f64, &f.path(src, dst, id));
        }
        // Converge until an iteration recomputes no worker and runs no
        // price update: the aggregation is skipped, the totals are not.
        let mut quiet = 0;
        let mut last = (inc.dirty_counters(), exports(&inc));
        for _ in 0..2000 {
            inc.iterate();
            let now = (inc.dirty_counters(), exports(&inc));
            if now.0 == last.0 {
                assert_eq!(now.1, last.1, "quiet tick, same export");
                quiet += 1;
            }
            last = now;
        }
        assert!(quiet > 100, "the engine never went quiet ({quiet})");
        let (loads, hessians) = inc.link_state_by_walk();
        assert!(loads.iter().any(|&x| x > 0.0) && hessians.iter().any(|&x| x < 0.0));
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

    /// Every entry no link owns in the per-link arrays, as bits: the
    /// sentinel's and the padding's in the 2·B LinkBlock views' prices
    /// and ratios, the padding's in every worker's two accumulators
    /// (whose sentinel entry collects the padded flows' rates and is
    /// never read).
    fn unowned_entries(alloc: &SerialAllocator) -> Vec<u64> {
        let lpl = alloc.layout.links_per_lb();
        let mut bits = Vec::new();
        assert_eq!(
            alloc.views.iter().flatten().count(),
            2 * alloc.layout.blocks()
        );
        for view in alloc.views.iter().flatten() {
            for column in [&view.prices, &view.ratios] {
                assert_eq!(column.len(), padded_len(lpl));
                bits.extend(column[lpl..].iter().map(|x| x.to_bits()));
            }
        }
        for worker in &alloc.workers {
            for pairs in &worker.acc.pairs {
                assert_eq!(pairs.len(), padded_len(lpl));
                bits.extend(pairs[lpl + 1..].iter().flatten().map(|x| x.to_bits()));
            }
        }
        bits
    }

    #[test]
    fn sentinel_price_and_ratio_stay_zero() {
        // Same-rack flows (1 up + 1 down hop) pad with the sentinel, so
        // its accumulator fills with their rates; price update, a
        // consensus install and a background install must all leave its
        // price and ratio at the 0.0 the kernels rely on.
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
                    alloc.install_global(None, None, Some(&vec![0.7; links]));
                }
                if step == 20 {
                    let (bg, bg_h) = (vec![3.0; links], vec![-0.5; links]);
                    alloc.install_global(Some(&bg), Some(&bg_h), None);
                }
                alloc.iterate();
                assert!(
                    unowned_entries(&alloc).iter().all(|&x| x == 0),
                    "step {step}"
                );
            }
            let lpl = alloc.layout.links_per_lb();
            assert!(
                alloc.workers[0].acc.pairs[UP][lpl][0] > 0.0,
                "premise: padded flows do scatter into the sentinel accumulator"
            );
        }
    }

    #[test]
    fn padding_stays_zero_through_churn() {
        // The kernels index at `offset & (len - 1)`; that is the identity
        // only while nothing but `+0.0` lives past the sentinel. Adds,
        // swap-removes, a consensus install, a FlowBlock emptied and
        // refilled, and 200 iterations, on the full sweep, the
        // incremental path and the barrier pipeline.
        let f = fabric();
        let servers = f.config().server_count();
        let links = f.topology().link_count();
        for (incremental, multicore) in [(false, false), (true, false), (false, true)] {
            let cfg = AllocConfig {
                incremental,
                ..cfg()
            };
            let mut alloc = if multicore {
                SerialAllocator::multicore(&f, cfg, 2)
            } else {
                SerialAllocator::new(&f, cfg)
            };
            let mut rng = TestRng::deterministic("padding-churn");
            let (mut live, mut next_id) = (Vec::new(), 0);
            for step in 0..200 {
                for _ in 0..rng.below(4) {
                    let (src, dst) = (rng.below(servers), rng.below(servers));
                    if src != dst {
                        let id = FlowId(next_id);
                        next_id += 1;
                        alloc.add_flow(id, src, dst, 1.0, &f.path(src, dst, id));
                        live.push(id);
                    }
                }
                if live.len() > 6 {
                    let id = live.swap_remove(rng.below(live.len()));
                    assert!(alloc.remove_flow(id));
                }
                if step == 100 {
                    alloc.install_global(None, None, Some(&vec![0.3; links]));
                }
                if step == 120 {
                    // Empty FlowBlock (1, 0); the churn refills it.
                    let held = alloc.workers[2].flows.len();
                    live.retain(|&id| {
                        let here = alloc.locate(id).expect("live").0 == 2;
                        assert!(!here || alloc.remove_flow(id));
                        !here
                    });
                    assert!(held > 0 && alloc.workers[2].flows.is_empty());
                }
                alloc.iterate();
                assert!(
                    unowned_entries(&alloc).iter().all(|&x| x == 0),
                    "step {step}, incremental {incremental}, multicore {multicore}"
                );
            }
            assert!(live.len() >= 6, "premise: the churn kept flows in");
            assert!(!alloc.workers[2].flows.is_empty(), "premise: refilled");
        }
    }

    #[test]
    fn a_flowblock_that_empties_matches_the_dense_tree() {
        // A shard-shaped grid — flows in one row of FlowBlocks, plus one
        // lone flow elsewhere — whose lone flow leaves and, 50 iterations
        // later, comes back. The caller-thread grid skips the emptied
        // FlowBlock with its old sums still in its accumulators; the
        // pipeline clears and absorbs every FlowBlock. Every total,
        // price and ratio must match, full sweep and incremental alike.
        let f = TwoTierClos::build(ClosConfig::multicore(4, 2, 4));
        let block = |s: usize| f.block_of_server(s).index();
        let dense_cfg = AllocConfig {
            dirty_eps: 0.0,
            ..cfg()
        };
        let mut dense = SerialAllocator::multicore(&f, dense_cfg, 2);
        let mut full = SerialAllocator::new(&f, dense_cfg);
        let mut inc = SerialAllocator::new(
            &f,
            AllocConfig {
                incremental: true,
                ..dense_cfg
            },
        );
        let servers = f.config().server_count();
        let row = (0..servers).filter(|&s| block(s) == 1);
        let pairs: Vec<(usize, usize)> = row
            .flat_map(|src| [(src, (src * 5 + 3) % servers), (src, (src + 9) % servers)])
            .filter(|&(src, dst)| src != dst)
            .collect();
        let (lone, lone_src, lone_dst) = (FlowId(pairs.len() as u64), 30, 21);
        let lone_path = f.path(lone_src, lone_dst, lone);
        let lone_cell = block(lone_src) * 4 + block(lone_dst);
        for engine in [&mut dense, &mut full, &mut inc] {
            for (i, &(src, dst)) in pairs.iter().enumerate() {
                let id = FlowId(i as u64);
                engine.add_flow(id, src, dst, 1.0 + (i % 3) as f64, &f.path(src, dst, id));
            }
            engine.add_flow(lone, lone_src, lone_dst, 2.0, &lone_path);
        }
        assert_eq!(full.workers[lone_cell].flows.len(), 1, "premise: alone");
        let views = |alloc: &SerialAllocator| -> Vec<u64> {
            let columns = alloc.views.iter().flatten();
            columns
                .flat_map(|v| bits(&v.prices).into_iter().chain(bits(&v.ratios)))
                .collect()
        };
        for step in 0..200 {
            if step == 20 {
                for engine in [&mut dense, &mut full, &mut inc] {
                    assert!(engine.remove_flow(lone));
                }
            }
            if step == 70 {
                for engine in [&mut dense, &mut full, &mut inc] {
                    engine.add_flow(lone, lone_src, lone_dst, 2.0, &lone_path);
                }
            }
            for engine in [&mut dense, &mut full, &mut inc] {
                engine.iterate();
            }
            let want = (exports(&dense), views(&dense));
            assert_eq!((exports(&full), views(&full)), want, "full, step {step}");
            assert_eq!(
                (exports(&inc), views(&inc)),
                want,
                "incremental, step {step}"
            );
            if (20..70).contains(&step) {
                // The old sums are still there, and must not be read.
                let stale = &full.workers[lone_cell].acc.pairs;
                assert!(stale.iter().flatten().any(|p| p[0] > 0.0), "step {step}");
            }
        }
        let empty = full.workers.iter().filter(|w| w.flows.is_empty()).count();
        assert_eq!(
            empty,
            16 - 4 - 1,
            "premise: one row and one cell hold flows"
        );
    }

    #[test]
    fn an_idle_links_dual_snaps_to_zero_at_the_subnormal_edge() {
        // Halving from 1.0 reaches the smallest normal after 1022 steps
        // and would crawl through 52 subnormal ones — a microcode assist
        // a link a tick — before rounding to 0.0.
        let f = fabric();
        let mut alloc = SerialAllocator::new(&f, cfg());
        for iteration in 1..=1100 {
            alloc.iterate();
            let [.., prices] = alloc.global_state();
            assert!(
                prices.iter().all(|p| !p.is_subnormal()),
                "iteration {iteration}"
            );
            if iteration == 1022 {
                assert!(prices.iter().all(|&p| p == f64::MIN_POSITIVE));
            }
            if iteration >= 1023 {
                assert!(prices.iter().all(|&p| p == 0.0), "iteration {iteration}");
            }
        }
        // A free fabric: the newcomer is capped by its line rate alone.
        let id = FlowId(1);
        alloc.add_flow(id, 0, 9, 1.0, &f.path(0, 9, id));
        alloc.iterate();
        let got = alloc.flow_rate(id).unwrap();
        let line_rate = f.config().host_link_bps as f64 / 1e9;
        assert_eq!((got.rate, got.normalized), (line_rate, line_rate));
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
        let b = inc.layout.blocks();
        assert_eq!(ds.touch.len(), 2 * b * lpl * b);
        for d in DIRS {
            let run = inc.layout.first_slot(d, 0)..inc.layout.first_slot(d, 0) + lpl;
            let counts = &ds.touch[run.start * b..run.end * b];
            assert_eq!(counts.iter().sum::<u32>(), 1);
            assert_eq!(ds.crossers[run].iter().filter(|&&m| m != 0).count(), 1);
        }
        let mut dirty = inc.dirty_link_ids();
        dirty.sort_unstable();
        let mut want = p.links().to_vec();
        want.sort_unstable();
        assert_eq!(dirty, want);
        inc.iterate();
        assert!(inc.remove_flow(FlowId(1)));
        let ds = inc.dirty.as_ref().unwrap();
        assert!(ds.touch.iter().all(|&t| t == 0));
        assert!(ds.crossers.iter().all(|&m| m == 0));
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
                let (worker, slot) = alloc.locate(id).expect("survivor indexed");
                let flows = &alloc.workers[worker].flows;
                assert_eq!(u64::from(flows.ids[slot]), id.0);
                assert_eq!(flows.weight[slot], w);
                let was = before.iter().find(|r| r.id == id).unwrap();
                assert_eq!(alloc.flow_rate(id), Some(*was), "rates moved with the flow");
                // Its path columns are what a fresh add would store.
                reference.add_flow(id, src, dst, w, &f.path(src, dst, id));
                let (rw, rs) = reference.locate(id).unwrap();
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

    /// A grid over [`fabric`] with `cfg()` changed by `edit`.
    fn build_with(edit: impl FnOnce(&mut AllocConfig)) -> SerialAllocator {
        let mut cfg = AllocConfig {
            incremental: true,
            ..cfg()
        };
        edit(&mut cfg);
        SerialAllocator::new(&fabric(), cfg)
    }

    #[test]
    #[should_panic(expected = "dirty_eps must be finite and ≥ 0, got NaN")]
    fn a_nan_dirty_eps_is_refused() {
        // Every `> eps` compare would be false: no price move re-dirties.
        build_with(|c| c.dirty_eps = f64::NAN);
    }

    #[test]
    #[should_panic(expected = "dirty_eps must be finite and ≥ 0, got inf")]
    fn an_infinite_dirty_eps_is_refused() {
        build_with(|c| c.dirty_eps = f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "dirty_eps must be finite and ≥ 0, got -0.001")]
    fn a_negative_dirty_eps_is_refused() {
        build_with(|c| c.dirty_eps = -1e-3);
    }

    #[test]
    #[should_panic(expected = "capacity_fraction must be in (0, 1], got 0")]
    fn a_zero_capacity_fraction_is_refused() {
        build_with(|c| c.capacity_fraction = 0.0);
    }

    #[test]
    #[should_panic(expected = "capacity_fraction must be in (0, 1], got 1.5")]
    fn a_capacity_fraction_above_one_is_refused() {
        build_with(|c| c.capacity_fraction = 1.5);
    }

    #[test]
    #[should_panic(expected = "flow id 4294967296 does not fit the dense flow index")]
    fn an_id_past_the_dense_index_is_refused() {
        let f = fabric();
        let mut alloc = SerialAllocator::new(&f, cfg());
        let id = FlowId(1 << 32);
        alloc.add_flow(id, 0, 8, 1.0, &f.path(0, 8, id));
    }

    #[test]
    fn the_index_is_dense_and_recycles_ids() {
        // Ids may come back in any order after a remove, and a hole
        // below the largest id is simply vacant.
        let f = fabric();
        let mut alloc = SerialAllocator::new(&f, cfg());
        for k in [5u64, 0, 9] {
            alloc.add_flow(FlowId(k), 0, 8, 1.0, &f.path(0, 8, FlowId(k)));
        }
        assert_eq!((alloc.flow_count(), alloc.index.len()), (3, 10));
        assert!(alloc.flow_rate(FlowId(3)).is_none());
        assert!(alloc.flow_rate(FlowId(u64::MAX)).is_none());
        assert!(!alloc.remove_flow(FlowId(3)) && !alloc.remove_flow(FlowId(10)));
        assert!(alloc.remove_flow(FlowId(5)));
        alloc.add_flow(FlowId(5), 3, 13, 2.0, &f.path(3, 13, FlowId(5)));
        assert_eq!(alloc.flow_count(), 3);
        let ids: Vec<FlowId> = alloc.rates().iter().map(|r| r.id).collect();
        assert_eq!(ids.len(), 3);
        for id in ids {
            let (w, slot) = alloc.locate(id).unwrap();
            assert_eq!(u64::from(alloc.workers[w].flows.ids[slot]), id.0);
        }
    }

    /// Seeded churn over one or more engines kept in lockstep: each call
    /// adds up to six flows — every third one inside the source's rack
    /// (one hop each way, the rest padded), the others anywhere — and
    /// removes up to two.
    struct Churn {
        rng: TestRng,
        servers: usize,
        next: u64,
        live: Vec<FlowId>,
    }

    impl Churn {
        fn new(fabric: &TwoTierClos, label: &str) -> Self {
            Churn {
                rng: TestRng::deterministic(label),
                servers: fabric.config().server_count(),
                next: 0,
                live: Vec::new(),
            }
        }

        fn step(&mut self, fabric: &TwoTierClos, engines: &mut [&mut SerialAllocator]) {
            for _ in 0..self.rng.below(7) {
                let id = FlowId(self.next);
                self.next += 1;
                let src = self.rng.below(self.servers);
                let dst = if id.0.is_multiple_of(3) {
                    src ^ 1 // racks hold 4 servers: the neighbour shares one
                } else {
                    (src + 1 + self.rng.below(self.servers - 1)) % self.servers
                };
                let weight = 1.0 + self.rng.below(4) as f64;
                let path = fabric.path(src, dst, id);
                for engine in engines.iter_mut() {
                    engine.add_flow(id, src, dst, weight, &path);
                }
                self.live.push(id);
            }
            for _ in 0..self.rng.below(3).min(self.live.len()) {
                let victim = self.live.swap_remove(self.rng.below(self.live.len()));
                for engine in engines.iter_mut() {
                    assert!(engine.remove_flow(victim));
                }
            }
        }

        /// A global-link-indexed vector of `draw`s.
        fn per_link(&mut self, links: usize, draw: impl Fn(&mut TestRng) -> f64) -> Vec<f64> {
            (0..links).map(|_| draw(&mut self.rng)).collect()
        }
    }

    proptest! {
        // The slot-order exports, scattered through `link_slots`, against
        // the walk they replaced: same terms, summed (slot, then tree)
        // instead of (FlowBlock, slot). A gradient grid exports the same
        // loads and no Hessians; both export the views' prices.
        #[test]
        fn exports_match_the_flow_walk(
            blocks in prop_oneof![Just(1usize), Just(2), Just(4)],
            incremental in any::<bool>(),
            gradient in any::<bool>(),
            per_tick in 1usize..3,
            background in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let f = TwoTierClos::build(ClosConfig::multicore(blocks, 2, 4));
            let links = f.topology().link_count();
            let cfg = AllocConfig {
                incremental,
                full_sweep_every: 5,
                ..cfg()
            };
            let mut alloc = if gradient {
                SerialAllocator::gradient(&f, cfg)
            } else {
                SerialAllocator::new(&f, cfg)
            };
            let mut churn = Churn::new(&f, &format!("export-{seed}"));
            for step in 0..10 {
                churn.step(&f, &mut [&mut alloc]);
                if background && step == 3 {
                    // Priced, never echoed; gathered into the flat
                    // arrays slot by slot.
                    let bg = churn.per_link(links, |r| r.unit_f64() * 9.0);
                    let bg_h = churn.per_link(links, |r| -r.unit_f64());
                    alloc.install_global(Some(&bg), Some(&bg_h), None);
                    for (s, link) in alloc.link_slots().iter().enumerate() {
                        prop_assert_eq!(alloc.bg[s].to_bits(), bg[link.index()].to_bits());
                        if !gradient {
                            prop_assert_eq!(alloc.bg_h[s].to_bits(), bg_h[link.index()].to_bits());
                        }
                    }
                    prop_assert_eq!(alloc.bg_h.is_empty(), gradient);
                }
                alloc.run_iterations(per_tick);
                let [loads, mut hessians, prices] = alloc.global_state();
                let (want_loads, want_hessians) = alloc.link_state_by_walk();
                let lpl = alloc.layout.links_per_lb();
                for d in DIRS {
                    for (blk, view) in alloc.views[d].iter().enumerate() {
                        for (link, &p) in alloc.layout.links(d, blk).iter().zip(&view.prices[..lpl]) {
                            prop_assert_eq!(prices[link.index()].to_bits(), p.to_bits());
                        }
                    }
                }
                if gradient {
                    prop_assert!(hessians.is_empty(), "first order: no Hessians");
                    hessians = want_hessians.clone();
                }
                let [loads, hessians] = [loads, hessians].map(|v| bits(&v));
                let got = loads.iter().chain(&hessians).map(|&x| f64::from_bits(x));
                for (l, (got, want)) in got.zip(want_loads.iter().chain(&want_hessians)).enumerate() {
                    if *want == 0.0 {
                        // No flow crosses it: an exact +0.0 in both.
                        prop_assert_eq!((got.to_bits(), want.to_bits()), (0, 0), "entry {}", l);
                    } else {
                        prop_assert!(
                            (got - want).abs() <= 1e-12 * want.abs(),
                            "step {} entry {}: {} vs walk {}", step, l, got, want
                        );
                    }
                }
                prop_assert!(churn.live.is_empty() || want_loads.iter().any(|&x| x > 0.0));
            }
        }

        // The slot-order install, gathered through `link_slots`, against
        // a marking pass and a rewrite of the views, link by link; its
        // background half against the flat arrays rewritten link by link.
        #[test]
        fn set_link_prices_matches_the_link_by_link_rewrite(
            blocks in prop_oneof![Just(1usize), Just(2), Just(4)],
            incremental in any::<bool>(),
            dirty_eps in prop_oneof![Just(0.0f64), Just(1e-3)],
            seed in any::<u64>(),
        ) {
            let f = TwoTierClos::build(ClosConfig::multicore(blocks, 2, 4));
            let links = f.topology().link_count();
            let build = || SerialAllocator::new(
                &f,
                AllocConfig {
                    incremental,
                    dirty_eps,
                    full_sweep_every: 6,
                    ..cfg()
                },
            );
            let (mut new, mut old) = (build(), build());
            let mut churn = Churn::new(&f, &format!("install-{seed}"));
            for step in 0..8 {
                churn.step(&f, &mut [&mut new, &mut old]);
                new.run_iterations(1 + step % 2);
                old.run_iterations(1 + step % 2);
                // Holes, the price already held (no move to mark), a
                // move inside eps, and fresh values.
                let [.., current] = new.global_state();
                let prices: Vec<f64> = current
                    .iter()
                    .map(|&p| match churn.rng.below(5) {
                        0 => f64::NAN,
                        1 => p,
                        2 => p + 5e-4,
                        _ => churn.rng.unit_f64() * 2.0,
                    })
                    .collect();
                prop_assert_eq!(prices.len(), links);
                let background = (step % 3 == 1).then(|| {
                    let bg = churn.per_link(links, |r| r.unit_f64() * 5.0);
                    let bg_h = churn.per_link(links, |r| -r.unit_f64());
                    (bg, bg_h)
                });
                let (bg, bg_h) = match &background {
                    Some((bg, bg_h)) => (Some(&bg[..]), Some(&bg_h[..])),
                    None => (None, None),
                };
                new.install_global(bg, bg_h, Some(&prices));
                if let (Some(bg), Some(bg_h)) = (bg, bg_h) {
                    old.set_background_link_by_link(bg, bg_h);
                }
                old.set_link_prices_link_by_link(&prices);
                // Before its first background, the rewrite has no arrays
                // where the install sized zeros: the same prices.
                let or_zeros = |v: &[f64]| if v.is_empty() { vec![0.0; new.bg.len()] } else { v.to_vec() };
                prop_assert_eq!(bits(&new.bg), bits(&or_zeros(&old.bg)));
                prop_assert_eq!(bits(&new.bg_h), bits(&or_zeros(&old.bg_h)));
                let lpl = new.layout.links_per_lb();
                for d in DIRS {
                    for (blk, (a, b)) in new.views[d].iter().zip(&old.views[d]).enumerate() {
                        prop_assert_eq!(bits(&a.prices), bits(&b.prices), "view {} {}", d, blk);
                        prop_assert_eq!(bits(&a.ratios), bits(&b.ratios), "view {} {}", d, blk);
                        prop_assert_eq!(a.prices[lpl], 0.0);
                    }
                }
                prop_assert_eq!(new.dirty_counters(), old.dirty_counters());
                if let (Some(a), Some(b)) = (&new.dirty, &old.dirty) {
                    prop_assert_eq!(
                        (&a.rate_dirty, a.moving, a.plain, a.install_moved),
                        (&b.rate_dirty, b.moving, b.plain, b.install_moved)
                    );
                    prop_assert_eq!(&a.prev_prices, &b.prev_prices);
                }
            }
            // And what the installs led to is the same allocation.
            new.run_iterations(3);
            old.run_iterations(3);
            prop_assert_eq!(new.rates(), old.rates());
        }
    }
}

//! The §5 thread schedule: a full sweep as a barrier pipeline, one OS
//! thread per group of FlowBlocks.
//!
//! A grid built with [`SerialAllocator::multicore`] runs its full sweeps
//! here. Every phase boundary is a barrier. A worker's private state sits
//! behind its own mutex, and partials move between workers through those
//! mutexes, never holding two at once (the receiver copies the peer's
//! buffer out under the peer's lock, then merges under its own). Each
//! LinkBlock's one price view sits behind an `RwLock`: the flow passes
//! read-lock it, and its diagonal owner write-locks it for the price
//! update, in a phase of its own. The phase structure per iteration is:
//!
//! 1. **rate pass** — private accumulators, the two views read;
//! 2. `log₂ B` **aggregation** steps (Figure 3) — up partials move along
//!    rows toward the main diagonal, down partials along columns toward the
//!    secondary diagonal;
//! 3. **price update** — only the 2B diagonal workers are active, each
//!    writing its LinkBlock's view;
//! 4. **F-NORM** — private rates, the two views read.
//!
//! Figure 3's reverse tree, which distributes fresh prices back to every
//! worker, has no phase here: on shared memory every worker reads the
//! view the price update wrote (see [`crate::serial`]).
//!
//! The pipeline produces *bit-for-bit* the same rates as the caller-thread
//! schedule: aggregation follows the same pairwise summation order, and
//! everything else is element-wise over the same arrays.
//!
//! The same holds for its link state. The tree absorbs in place, so when
//! the pool returns, the 2·B root workers' accumulators are the totals
//! the last price update consumed; the caller thread copies them into
//! the grid's per-LinkBlock buffers, where the caller-thread iteration
//! leaves its own, and the export reads those (see [`crate::serial`]).
//!
//! The pipeline stays dense, on purpose: phase 1 clears every worker and
//! the tree absorbs every partial, an empty FlowBlock's zeros included.
//! The caller-thread iteration skips empty FlowBlocks; the pipeline is
//! the reference that skip is tested against bit for bit
//! (`check_equivalence` here, with flow sets that fill one grid row, one
//! column or one cell, and `a_flowblock_that_empties_matches_the_dense_tree`
//! in `serial.rs`).
//!
//! When the grid has more FlowBlocks than the machine has cores, several
//! logical workers share one OS thread (the paper does the same: "we
//! divided all FlowBlocks into groups of 2-by-2, and put two adjacent
//! groups on each CPU"); phases remain globally barrier-synchronized, so
//! the aggregation schedule and therefore the arithmetic are unchanged.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

use crate::flowblock::{absorb, normalize_pass, rate_pass, PriceView};
use crate::pool::WorkerPool;
use crate::reduce::{aggregate, position, root, steps, Role, DIRS};
use crate::serial::views_of;
use crate::SerialAllocator;

impl SerialAllocator {
    /// Runs `n` full-sweep iterations across B² logical workers on
    /// `threads` OS threads and returns the wall time spent *inside* the
    /// iteration loop (pool handoff excluded). The threads come from a
    /// persistent [`WorkerPool`] that parks between calls — the first
    /// call pays thread spawn, subsequent ticks pay one lock + wakeup.
    // flowtune-lint: hot, float-kernel
    // Worker loops index `cells[w]` because `w` also names the grid cell
    // in the tree-role lookups; an iterator would obscure that.
    #[allow(clippy::needless_range_loop)]
    pub(crate) fn run_pipeline(&mut self, threads: usize, n: usize) -> Duration {
        let b = self.layout.blocks();
        let lpl = self.layout.links_per_lb();
        let n_workers = b * b;
        let tree_steps = steps(b);
        let chunk = n_workers.div_ceil(threads);
        let f_norm = self.cfg.f_norm;
        let layout = &self.layout;
        let rule = self.rule;
        let bg = &self.bg;
        let bg_h = &self.bg_h;

        // Move every worker's state under a mutex, and every view under
        // its lock, for the parallel phase.
        self.pool_cells
            .extend(self.workers.drain(..).map(Mutex::new));
        swap_views(&mut self.views, &mut self.pool_views);
        let (cells, scratch, views) = (&self.pool_cells, &self.pool_scratch, &self.pool_views);
        let barrier = SpinBarrier::new(threads);
        let elapsed = Mutex::new(Duration::ZERO);
        let pool = self.pool.get_or_insert_with(|| WorkerPool::new(threads));

        pool.run(&|t| {
            let lo = t * chunk;
            let hi = ((t + 1) * chunk).min(n_workers);
            barrier.wait();
            let t0 = Instant::now();
            // This slot's scratch for the aggregation's copy-out exchange.
            // Only the real links travel — nobody's sentinel slot or
            // padding is read or written.
            let mut buf = lock(&scratch[t]);
            for _ in 0..n {
                // Phase 1: rate pass.
                for w in lo..hi {
                    let mut me = lock(&cells[w]);
                    let me = &mut *me;
                    let held = views_of(views, w, b).map(read);
                    me.acc.clear(lpl);
                    rate_pass(
                        &mut me.flows,
                        held.each_ref().map(|v| &v.prices[..]),
                        &mut me.acc,
                    );
                }
                barrier.wait();

                // Phase 2: aggregation tree.
                for s in 0..tree_steps {
                    for w in lo..hi {
                        for d in DIRS {
                            if let Role::Recv { from } = aggregate(d, w, b, s) {
                                buf.copy_from_slice(&lock(&cells[from]).acc.pairs[d][..lpl]);
                                absorb(&mut lock(&cells[w]).acc.pairs[d][..lpl], &buf);
                            }
                        }
                    }
                    barrier.wait();
                }

                // Phase 3: price update on the diagonal owners, the
                // LinkBlocks' members at virtual index 0.
                for w in lo..hi {
                    for d in DIRS {
                        let (blk, k) = position(d, w, b);
                        if k != 0 {
                            continue;
                        }
                        let me = lock(&cells[w]);
                        let mut view = write(&views[d][blk]);
                        let view = &mut *view;
                        let first = layout.first_slot(d, blk);
                        rule.update(
                            &me.acc.pairs[d],
                            bg.get(first..first + lpl),
                            bg_h.get(first..first + lpl),
                            None,
                            layout.capacity(d, blk),
                            view,
                        );
                    }
                }
                barrier.wait();

                // Phase 4: normalization.
                for w in lo..hi {
                    let mut me = lock(&cells[w]);
                    let me = &mut *me;
                    if f_norm {
                        let held = views_of(views, w, b).map(read);
                        normalize_pass(&mut me.flows, held.each_ref().map(|v| &v.ratios[..]));
                    } else {
                        me.flows.normalized.copy_from_slice(&me.flows.rates);
                    }
                }
                barrier.wait();
            }
            if t == 0 {
                *lock(&elapsed) = t0.elapsed();
            }
        });

        swap_views(&mut self.views, &mut self.pool_views);
        let unpoison = |cell: Mutex<_>| cell.into_inner().unwrap_or_else(PoisonError::into_inner);
        self.workers.extend(self.pool_cells.drain(..).map(unpoison));
        // The tree absorbs in place, so each root's accumulators now *are*
        // its LinkBlock's totals (the other workers' are partly absorbed
        // and must not be reduced again): keep them for the export, as
        // the caller-thread iteration does.
        for d in DIRS {
            for (blk, total) in self.totals[d].iter_mut().enumerate() {
                total.copy_from_slice(&self.workers[root(d, blk, b)].acc.pairs[d][..lpl]);
            }
        }
        let took = *lock(&elapsed);
        took
    }
}

/// Trades every view for its pool lock's contents: a pipelined run moves
/// the views into the locks before it starts and back out after it ends.
// flowtune-lint: hot
fn swap_views(views: &mut [Vec<PriceView>; 2], locks: &mut [Vec<RwLock<PriceView>>; 2]) {
    for (view, slot) in views.iter_mut().flatten().zip(locks.iter_mut().flatten()) {
        std::mem::swap(view, slot.get_mut().unwrap_or_else(PoisonError::into_inner));
    }
}

/// Locks a worker cell. A poisoned lock is recovered, not re-raised: a
/// worker panic the pool contains must not become a second panic here.
fn lock<T>(cell: &Mutex<T>) -> MutexGuard<'_, T> {
    cell.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Read-locks a view, recovering a poisoned lock as [`lock`] does.
fn read<T>(view: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    view.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write-locks a view, recovering a poisoned lock as [`lock`] does.
fn write<T>(view: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    view.write().unwrap_or_else(PoisonError::into_inner)
}

/// Spins a [`SpinBarrier`] waiter makes before it starts yielding: a few
/// µs, about one phase of a small grid (a `spin_loop` is one `pause`,
/// 10–140 cycles by core). A longer spin only delays a peer that is
/// waiting for this core, by up to the whole spin each phase.
const SPINS_BEFORE_YIELD: u32 = 512;

/// Sense-reversing spin barrier: threads busy-wait for about a phase,
/// then yield between polls, instead of parking on a condvar — keeping
/// phase-boundary latency in the sub-microsecond range the §6.1 numbers
/// depend on.
#[derive(Debug)]
struct SpinBarrier {
    total: usize,
    count: AtomicUsize,
    generation: AtomicUsize,
}

impl SpinBarrier {
    fn new(total: usize) -> Self {
        Self {
            total,
            count: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
        }
    }

    fn wait(&self) {
        let generation = self.generation.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.total {
            self.count.store(0, Ordering::Release);
            self.generation.fetch_add(1, Ordering::Release);
            return;
        }
        let mut spins = 0u32;
        while self.generation.load(Ordering::Acquire) == generation {
            spins = spins.saturating_add(1);
            if spins < SPINS_BEFORE_YIELD {
                std::hint::spin_loop();
            } else {
                // A peer is late by more than a phase: it may be waiting
                // for this core (oversubscribed, or descheduled), so let
                // it run.
                std::thread::yield_now();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::global;
    use crate::AllocConfig;
    use flowtune_topo::{ClosConfig, FlowId, Path, TwoTierClos};

    /// Deterministic pseudo-random flow set over a fabric.
    fn spray_flows(
        fabric: &TwoTierClos,
        n: usize,
        mut add: impl FnMut(FlowId, usize, usize, f64, &Path),
    ) {
        let servers = fabric.config().server_count();
        for f in 0..n {
            let id = FlowId(f as u64);
            let src = (f * 7919) % servers;
            let mut dst = (f * 104_729 + 13) % servers;
            if dst == src {
                dst = (dst + 1) % servers;
            }
            let weight = 1.0 + (f % 4) as f64;
            let path = fabric.path(src, dst, id);
            add(id, src, dst, weight, &path);
        }
    }

    /// The schedules on 64 sprayed flows, and on the flow sets a shard's
    /// grid holds, which leave FlowBlocks empty — one source block (a
    /// grid row), one destination block (a column), one FlowBlock: the
    /// caller-thread grid skips the empty ones, the dense pipeline adds
    /// their zeros.
    fn check_equivalence(blocks: usize) {
        let (last, wide) = (blocks - 1, 64 * blocks * blocks);
        check_equivalence_of(blocks, 64, |_, _| true);
        check_equivalence_of(blocks, wide, |src, _| src == last);
        check_equivalence_of(blocks, wide, |_, dst| dst == 0);
        check_equivalence_of(blocks, wide, |src, dst| (src, dst) == (0, 1 % blocks));
    }

    /// The schedules on those of `n` sprayed flows whose (source block,
    /// destination block) `keep` admits.
    fn check_equivalence_of(blocks: usize, n: usize, keep: impl Fn(usize, usize) -> bool) {
        let fabric = TwoTierClos::build(ClosConfig::multicore(blocks, 2, 4));
        let cfg = AllocConfig::default();
        let mut serial = SerialAllocator::new(&fabric, cfg);
        let mut parallel = SerialAllocator::multicore(&fabric, cfg, 2);
        let kept = |s: usize, d: usize| {
            keep(
                fabric.block_of_server(s).index(),
                fabric.block_of_server(d).index(),
            )
        };
        for engine in [&mut serial, &mut parallel] {
            spray_flows(&fabric, n, |id, s, d, w, p| {
                if kept(s, d) {
                    engine.add_flow(id, s, d, w, p);
                }
            });
        }
        assert!(serial.flow_count() > 0, "premise: the set holds flows");
        serial.run_iterations(37);
        parallel.run_iterations(37);
        let a = serial.rates();
        let b = parallel.rates();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.id, y.id);
            assert_eq!(
                x.rate.to_bits(),
                y.rate.to_bits(),
                "rate mismatch for {:?}: {} vs {}",
                x.id,
                x.rate,
                y.rate
            );
            assert_eq!(
                x.normalized.to_bits(),
                y.normalized.to_bits(),
                "normalized mismatch for {:?}",
                x.id
            );
        }
    }

    #[test]
    fn parallel_matches_serial_b2() {
        check_equivalence(2);
    }

    #[test]
    fn parallel_matches_serial_b4() {
        check_equivalence(4);
    }

    #[test]
    fn parallel_matches_serial_b8() {
        check_equivalence(8);
    }

    #[test]
    fn parallel_matches_serial_single_block() {
        check_equivalence(1);
    }

    #[test]
    fn parallel_matches_serial_with_background_load() {
        // The background-load path must keep the schedules' bit-for-bit
        // contract: both split the same global vector into LinkBlock
        // slices and hand it to the same price-update kernel. So must a
        // consensus install between runs: the pipeline's first rate pass
        // reads the patched views, with no distribution step between.
        let fabric = TwoTierClos::build(ClosConfig::multicore(4, 2, 4));
        let cfg = AllocConfig::default();
        let mut serial = SerialAllocator::new(&fabric, cfg);
        // Two threads over sixteen workers: every tree step crosses the
        // thread boundary.
        let mut parallel = SerialAllocator::multicore(&fabric, cfg, 2);
        let bg: Vec<f64> = (0..fabric.topology().link_count())
            .map(|l| ((l * 31 + 7) % 11) as f64)
            .collect();
        let bg_h: Vec<f64> = bg.iter().map(|x| -x / 4.0).collect();
        for engine in [&mut serial, &mut parallel] {
            spray_flows(&fabric, 48, |id, s, d, w, p| {
                engine.add_flow(id, s, d, w, p)
            });
            global::install(engine, Some(&bg), Some(&bg_h), None);
        }
        // The link-state export: the pipeline leaves it in the roots'
        // accumulators, the caller-thread iteration in its reduction
        // scratch.
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let links = fabric.topology().link_count();
        let exports = |engine: &SerialAllocator| global::state(engine, links).map(|v| bits(&v));
        // A run of several iterations, single ones, and none at all, each
        // after an install that leaves every third link's dual alone.
        for (round, n) in [37, 1, 1, 0, 5].into_iter().enumerate() {
            let [.., mut prices] = global::state(&serial, links);
            for (l, p) in prices.iter_mut().enumerate() {
                *p = match (l + round) % 3 {
                    0 => f64::NAN,
                    1 => *p * 1.5,
                    _ => 0.05 * (l % 7) as f64,
                };
            }
            for engine in [&mut serial, &mut parallel] {
                global::install(engine, None, None, Some(&prices));
            }
            serial.run_iterations(n);
            parallel.run_iterations(n);
            let want = exports(&serial);
            assert!(want[0].iter().any(|&x| f64::from_bits(x) > 0.0));
            assert!(want[1].iter().any(|&x| f64::from_bits(x) < 0.0));
            let (a, b) = (serial.rates(), parallel.rates());
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.id, y.id);
                assert_eq!(x.rate.to_bits(), y.rate.to_bits(), "{:?}", x.id);
                assert_eq!(x.normalized.to_bits(), y.normalized.to_bits());
            }
            assert_eq!(exports(&parallel), want, "after {n}");
        }
    }

    #[test]
    fn churn_between_parallel_runs() {
        let fabric = TwoTierClos::build(ClosConfig::multicore(2, 2, 4));
        let cfg = AllocConfig::default();
        let mut alloc = SerialAllocator::multicore(&fabric, cfg, 2);
        spray_flows(&fabric, 16, |id, s, d, w, p| alloc.add_flow(id, s, d, w, p));
        alloc.run_iterations(20);
        assert!(alloc.remove_flow(FlowId(0)));
        assert!(alloc.remove_flow(FlowId(5)));
        spray_flows(&fabric, 4, |id, s, d, w, p| {
            alloc.add_flow(FlowId(id.0 + 1000), s, d, w, p)
        });
        alloc.run_iterations(20);
        assert_eq!(alloc.flow_count(), 18);
        for r in alloc.rates() {
            assert!(r.rate.is_finite() && r.rate > 0.0);
            assert!(r.normalized.is_finite() && r.normalized >= 0.0);
        }
    }

    #[test]
    fn returns_nonzero_elapsed() {
        let fabric = TwoTierClos::build(ClosConfig::multicore(2, 2, 4));
        let mut alloc = SerialAllocator::multicore(&fabric, AllocConfig::default(), 2);
        spray_flows(&fabric, 8, |id, s, d, w, p| alloc.add_flow(id, s, d, w, p));
        let took = alloc.run_iterations(10);
        assert!(took > Duration::ZERO);
    }
}

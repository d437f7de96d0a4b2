//! A persistent worker pool for the grid's thread schedule and the
//! sharded tick.
//!
//! The allocator ticks every 10 µs; spawning and joining OS threads on
//! every pipelined iteration of a
//! [`SerialAllocator::multicore`](crate::SerialAllocator::multicore)
//! grid puts tens of microseconds of `clone(2)` on the tick path.
//! [`WorkerPool`] instead keeps its threads alive between calls, parked on
//! a condvar, and hands each call's work over with one lock + notify:
//!
//! * [`WorkerPool::run`] publishes a *scoped* task (`&dyn Fn(usize)`), wakes
//!   every worker, runs slot 0 on the calling thread, and blocks until all
//!   workers have finished — which is what makes the borrowed task sound:
//!   the borrow cannot end before `run` returns.
//! * [`WorkerPool::fan_out`] is the data-parallel form: it stripes a
//!   `&mut [T]` of work items across the slots (one `&mut` item per task
//!   call). An item's panic is re-raised on the caller like any slot's.
//! * Workers park again immediately after finishing; a pool that is never
//!   run again costs nothing but memory.
//! * Dropping the pool shuts the threads down and joins them.
//!
//! The pool intentionally knows nothing about FlowBlocks or barriers — the
//! engine's phase barriers stay inside the task. It replaces only the
//! spawn/join, which is precisely the part the §6.1 tick-latency numbers
//! must not pay.

use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// A lifetime-erased `*mut T` that may cross threads. Soundness is
/// provided by [`WorkerPool::fan_out`]: each index is visited by exactly
/// one slot and the call does not return until every slot is done.
struct SendPtr<T>(*mut T);

impl<T> SendPtr<T> {
    /// Accessor (rather than direct field use) so closures capture the
    /// whole `SendPtr` — whose `Sync` impl below carries the safety
    /// argument — instead of the raw `*mut T` field path.
    fn get(&self) -> *mut T {
        self.0
    }
}

// SAFETY: see `fan_out` — disjoint-index access only, bounded by the call.
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// Locks the pool state, shrugging off poisoning: every mutation of
/// `PoolState` happens with its invariants already restored (panic
/// payloads are carried in `PoolState::panic`, never by unwinding while
/// the lock is held), so a poisoned flag carries no information here —
/// and must not wedge the pool after [`WorkerPool::run`] re-raised a
/// worker panic the caller chose to catch.
fn lock_state(shared: &Shared) -> MutexGuard<'_, PoolState> {
    shared.state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A lifetime-erased pointer to the current scoped task. Soundness is
/// provided by [`WorkerPool::run`], which does not return until every
/// worker is done with the pointer.
#[derive(Clone, Copy)]
struct Task(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared calls from many threads are fine)
// and `run` keeps the pointee alive for as long as any worker can use it.
unsafe impl Send for Task {}

struct PoolState {
    /// The task of the current generation, if one is in flight.
    task: Option<Task>,
    /// Bumped once per `run` call; workers use it to run each task once.
    generation: u64,
    /// Workers still executing the current task.
    remaining: usize,
    /// The first panic payload caught in a worker this generation; `run`
    /// re-raises it on the caller with the original message intact (the
    /// diagnostics `std::thread::scope` used to give).
    panic: Option<Box<dyn std::any::Any + Send>>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    /// Workers wait here for a new generation.
    work: Condvar,
    /// `run` waits here for `remaining == 0`.
    done: Condvar,
}

/// A fixed-size pool of parked worker threads executing scoped tasks.
///
/// A pool of size `n` serves task slots `0..n`: slot 0 runs inline on the
/// thread that calls [`WorkerPool::run`], slots `1..n` on the pool's
/// `n - 1` persistent threads.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    size: usize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("size", &self.size)
            .finish()
    }
}

impl WorkerPool {
    /// Creates a pool serving `size` task slots (spawning `size - 1` OS
    /// threads; a pool of size 1 spawns none and runs everything inline).
    ///
    /// # Panics
    /// Panics if `size` is 0.
    pub fn new(size: usize) -> Self {
        assert!(size > 0, "a pool needs at least one slot");
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                task: None,
                generation: 0,
                remaining: 0,
                panic: None,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (1..size)
            .map(|slot| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("flowtune-worker-{slot}"))
                    .spawn(move || worker_loop(&shared, slot))
                    .expect("spawning an allocator worker thread")
            })
            .collect();
        Self {
            shared,
            handles,
            size,
        }
    }

    /// Number of task slots (threads + the caller).
    pub fn size(&self) -> usize {
        self.size
    }

    /// Runs `task(slot)` for every slot in `0..size`, slot 0 on the
    /// calling thread, and returns when all slots have finished.
    ///
    /// Takes `&mut self` so overlapping `run` calls on a shared pool are
    /// impossible in safe code — an overlap would let a second call
    /// overwrite the in-flight task slot and return while a worker still
    /// holds the first call's borrowed task pointer.
    ///
    /// # Panics
    /// Re-raises a panic if any slot's task panicked.
    pub fn run(&mut self, task: &(dyn Fn(usize) + Sync)) {
        if self.size == 1 {
            // No worker to hand anything to.
            return task(0);
        }
        // SAFETY: the pointer is only dereferenced by workers between the
        // notify below and the `remaining == 0` wait; we do not return
        // (ending the borrow) until that wait completes, and `&mut self`
        // excludes a concurrent `run` replacing the task meanwhile.
        let erased = Task(unsafe {
            std::mem::transmute::<
                *const (dyn Fn(usize) + Sync),
                *const (dyn Fn(usize) + Sync + 'static),
            >(task as *const _)
        });
        {
            let mut st = lock_state(&self.shared);
            debug_assert!(st.task.is_none(), "pool is not reentrant");
            st.task = Some(erased);
            st.generation += 1;
            st.remaining = self.size - 1;
            st.panic = None;
            self.shared.work.notify_all();
        }
        let caller_outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| task(0)));
        // Always drain the generation — even when the caller's own slot
        // panicked — so `task`/`remaining` are reset and no worker can
        // still hold the borrowed task pointer once `run` unwinds. This
        // is what keeps the pool usable after a re-raised panic.
        let worker_panic = {
            let mut st = lock_state(&self.shared);
            while st.remaining > 0 {
                st = self
                    .shared
                    .done
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            st.task = None;
            st.panic.take()
        };
        if let Err(p) = caller_outcome {
            std::panic::resume_unwind(p);
        }
        if let Some(p) = worker_panic {
            std::panic::resume_unwind(p);
        }
    }

    /// Fans `task` out over `items`: item `i` runs as `task(i, &mut
    /// items[i])`, slot `s` of the pool processing the strided indices
    /// `s, s + size, s + 2·size, …` (so any number of items works on any
    /// pool size; with `items.len() <= size` each item gets its own
    /// slot). Like [`WorkerPool::run`], the call blocks until every item
    /// has finished, which is what makes the borrowed items and task
    /// sound.
    ///
    /// # Panics
    /// Re-raises a panic if any item's task panicked, as
    /// [`WorkerPool::run`] does; the pool stays usable.
    pub fn fan_out<T: Send>(&mut self, items: &mut [T], task: &(dyn Fn(usize, &mut T) + Sync)) {
        let len = items.len();
        let stride = self.size;
        let base = SendPtr(items.as_mut_ptr());
        self.run(&|slot| {
            let mut i = slot;
            while i < len {
                // SAFETY: index `i ≡ slot (mod stride)` is visited only by
                // this slot, indices are in bounds, and `run` does not
                // return (ending the `items` borrow) until every slot is
                // done.
                task(i, unsafe { &mut *base.get().add(i) });
                i += stride;
            }
        });
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = lock_state(&self.shared);
            st.shutdown = true;
            self.shared.work.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared, slot: usize) {
    let mut seen = 0u64;
    loop {
        let task = {
            let mut st = lock_state(shared);
            loop {
                if st.shutdown {
                    return;
                }
                if st.generation != seen {
                    if let Some(task) = st.task {
                        seen = st.generation;
                        break task;
                    }
                }
                st = shared.work.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        };
        // SAFETY: `run` keeps the pointee alive until we decrement
        // `remaining` below.
        let f = unsafe { &*task.0 };
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(slot)));
        let mut st = lock_state(shared);
        if let Err(p) = outcome {
            st.panic.get_or_insert(p);
        }
        st.remaining -= 1;
        if st.remaining == 0 {
            shared.done.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn all_slots_run_exactly_once_per_call() {
        let mut pool = WorkerPool::new(4);
        let hits: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        for _ in 0..100 {
            pool.run(&|slot| {
                hits[slot].fetch_add(1, Ordering::Relaxed);
            });
        }
        for h in &hits {
            assert_eq!(h.load(Ordering::Relaxed), 100);
        }
    }

    #[test]
    fn single_slot_pool_runs_inline() {
        let mut pool = WorkerPool::new(1);
        let count = AtomicUsize::new(0);
        pool.run(&|slot| {
            assert_eq!(slot, 0);
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn scoped_borrows_are_visible_after_run() {
        let mut pool = WorkerPool::new(3);
        let sums: Vec<AtomicUsize> = (0..3).map(|_| AtomicUsize::new(0)).collect();
        pool.run(&|slot| {
            sums[slot].store(slot * 10 + 1, Ordering::Relaxed);
        });
        let got: Vec<usize> = sums.iter().map(|s| s.load(Ordering::Relaxed)).collect();
        assert_eq!(got, vec![1, 11, 21]);
    }

    #[test]
    fn pool_survives_a_worker_panic() {
        let mut pool = WorkerPool::new(2);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(&|slot| {
                if slot == 1 {
                    panic!("boom");
                }
            });
        }));
        let payload = r.expect_err("panic must propagate to the caller");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"boom"),
            "original payload must survive the handoff"
        );
        // The pool is still usable afterwards.
        let count = AtomicUsize::new(0);
        pool.run(&|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn pool_survives_a_caller_slot_panic() {
        // Slot 0 runs inline on the calling thread; its panic is caught,
        // the generation is drained (workers finish and `remaining`/
        // `task` reset), and only then re-raised — so the pool stays
        // usable with no poisoned-mutex wedge.
        let mut pool = WorkerPool::new(3);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(&|slot| {
                if slot == 0 {
                    panic!("caller boom");
                }
            });
        }));
        assert_eq!(
            r.expect_err("panic must propagate").downcast_ref::<&str>(),
            Some(&"caller boom")
        );
        let count = AtomicUsize::new(0);
        pool.run(&|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn pool_survives_repeated_panics_across_generations() {
        // Generation/`remaining`/`task` bookkeeping must reset on every
        // panic path, not just the first: alternate panicking runs (from
        // worker slots and the caller slot, including all slots at once)
        // with clean runs and check each clean run executes every slot.
        let mut pool = WorkerPool::new(4);
        for round in 0..5 {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                pool.run(&|slot| {
                    if round % 2 == 0 || slot == round % 4 {
                        panic!("boom {round}");
                    }
                });
            }));
            assert!(r.is_err(), "round {round} should re-raise");
            let count = AtomicUsize::new(0);
            pool.run(&|_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(count.load(Ordering::Relaxed), 4, "round {round}");
        }
        assert_eq!(pool.size(), 4);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_size_rejected() {
        let _ = WorkerPool::new(0);
    }

    #[test]
    fn fan_out_visits_every_item_exactly_once() {
        // More items than slots (strided), fewer items than slots (idle
        // slots), and the empty case.
        let mut pool = WorkerPool::new(3);
        for n_items in [0usize, 2, 3, 10] {
            let mut items: Vec<usize> = vec![0; n_items];
            pool.fan_out(&mut items, &|i, item| {
                *item += i + 1;
            });
            let want: Vec<usize> = (0..n_items).map(|i| i + 1).collect();
            assert_eq!(items, want, "{n_items} items");
        }
        // An item's panic reaches the caller with its own payload, and
        // the next fan-out on the same pool still visits every item.
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.fan_out(&mut [0usize; 6], &|i, _| {
                if i == 4 {
                    panic!("item boom");
                }
            });
        }));
        assert_eq!(
            r.expect_err("item 4 panicked").downcast_ref::<&str>(),
            Some(&"item boom")
        );
        let mut again = vec![0usize; 10];
        pool.fan_out(&mut again, &|i, x| *x = i + 1);
        assert_eq!(again, (1..=10).collect::<Vec<_>>());
    }

    /// The sharded tick fans its shards out over a pool — one slot per
    /// shard, or one slot in all with `parallel_shards: false` — so this
    /// is where a shard engine's panic reaches the tick's caller: with
    /// the panicking item's own payload, from a worker slot or the
    /// caller's, and with the pool still usable for the next tick.
    #[test]
    fn a_panicking_item_reaches_the_caller_with_its_own_payload() {
        for size in [3, 1] {
            let mut pool = WorkerPool::new(size);
            // Item 0 runs on the caller's slot, item 4 on a worker's
            // (on the one-slot pool both run inline).
            for culprit in [0usize, 4] {
                let mut items = vec![0usize; 6];
                let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    pool.fan_out(&mut items, &|i, item| {
                        if i == culprit {
                            panic!("shard {i} fault");
                        }
                        *item = i + 1;
                    });
                }));
                let payload = r.expect_err("the item's panic must reach the caller");
                assert_eq!(
                    payload.downcast_ref::<String>().map(String::as_str),
                    Some(format!("shard {culprit} fault").as_str()),
                    "{size} slots"
                );
                let mut next = vec![0usize; 6];
                pool.fan_out(&mut next, &|i, item| *item = i + 1);
                assert_eq!(next, (1..=6).collect::<Vec<_>>(), "{size} slots");
            }
        }
    }
}

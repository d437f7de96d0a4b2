//! The receiver side of the async peer runtime: one thread per remote
//! peer drains that peer's [`Receiver`] half into a per-peer mailbox
//! the moment frames arrive, so the tick loop's exchange barrier never
//! blocks on a socket — it looks at what the mailboxes already hold and
//! decides per peer whether to wait, install, or degrade.
//!
//! Layering (one [`ShardPeer`](crate::ShardPeer), `n`-peer mesh):
//!
//! ```text
//!  wire ──► Receiver(peer 0) ──► thread 0 ──► Mailbox 0 ─┐
//!  wire ──► Receiver(peer 2) ──► thread 1 ──► Mailbox 1 ─┼─► barrier
//!  wire ──► Receiver(peer 3) ──► thread 2 ──► Mailbox 2 ─┘   (tick loop)
//! ```
//!
//! Threads follow the `WorkerPool` idioms from `flowtune-alloc`: they
//! are spawned once, park in a bounded-timeout receive so a shutdown
//! flag is honored promptly, and are joined on drop. Frame buffers
//! cycle through a shared [`BufferPool`] — the barrier returns every
//! buffer it drains, the threads take them back for the next frame —
//! so the steady-state receive path allocates nothing.

use std::collections::VecDeque;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::pool::BufferPool;
use crate::transport::Receiver;

/// How long a receiver thread's blocking receive lasts before it
/// re-checks the shutdown flag. A frame's arrival interrupts the wait
/// immediately; this only bounds how long `drop` waits for a thread
/// whose peer is silent.
const SHUTDOWN_POLL: Duration = Duration::from_millis(25);

/// What a mailbox poll produced.
#[derive(Debug)]
pub enum Polled {
    /// The next frame, in arrival order. Return the buffer via
    /// [`RecvRuntime::recycle`] once drained.
    Frame(Vec<u8>),
    /// No frame arrived before the deadline (the peer is merely slow).
    Empty,
    /// No frame is buffered and none can arrive: the receiver thread
    /// exited. [`RecvRuntime::take_failure`] tells why.
    Closed,
}

#[derive(Debug, Default)]
struct MailboxState {
    frames: VecDeque<Vec<u8>>,
    rx_bytes: u64,
    rx_frames: u64,
    /// The receiver thread's terminal failure, held for
    /// [`RecvRuntime::take_failure`].
    failed: Option<io::Error>,
    closed: bool,
}

#[derive(Debug, Default)]
struct Mailbox {
    state: Mutex<MailboxState>,
    cv: Condvar,
}

#[derive(Debug)]
struct Shared {
    boxes: Vec<Mailbox>,
    pool: Mutex<BufferPool>,
    shutdown: AtomicBool,
}

/// A poisoned mailbox means a receiver thread panicked mid-deposit; the
/// counters and queue are still structurally sound, so recovering the
/// guard beats poisoning the whole control plane.
// flowtune-lint: untrusted-input
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl Shared {
    fn pool_get(&self, len_hint: usize) -> Vec<u8> {
        lock(&self.pool).get(len_hint)
    }

    fn pool_put(&self, buf: Vec<u8>) {
        lock(&self.pool).put(buf);
    }
}

/// One peer's receiver runtime: the threads and mailboxes behind a
/// `ShardPeer`'s non-blocking exchange barrier (see the module docs).
#[derive(Debug)]
pub struct RecvRuntime {
    shared: Arc<Shared>,
    /// Remote shard id per mailbox slot, ascending.
    peers: Vec<u16>,
    threads: Vec<JoinHandle<()>>,
}

impl RecvRuntime {
    /// Spawn one receiver thread per receive half. Mailbox slots come
    /// out in the order of `rxs` (ascending remote shard id when the
    /// halves come from [`Transport::split`](crate::Transport::split)).
    pub fn spawn<R: Receiver>(rxs: Vec<R>) -> Self {
        let peers: Vec<u16> = rxs.iter().map(Receiver::remote_peer).collect();
        let shared = Arc::new(Shared {
            boxes: rxs.iter().map(|_| Mailbox::default()).collect(),
            pool: Mutex::new(BufferPool::new()),
            shutdown: AtomicBool::new(false),
        });
        let threads = rxs
            .into_iter()
            .enumerate()
            .map(|(slot, rx)| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || receive_loop(rx, &shared, slot))
            })
            .collect();
        RecvRuntime {
            shared,
            peers,
            threads,
        }
    }

    /// Remote shard ids in mailbox-slot order.
    pub fn peers(&self) -> &[u16] {
        &self.peers
    }

    /// Pop the next frame from `slot`'s mailbox without blocking.
    pub fn try_pop(&self, slot: usize) -> Polled {
        self.pop_with(slot, None)
    }

    /// Pop the next frame from `slot`'s mailbox, waiting until
    /// `deadline` for one to arrive.
    pub fn pop_deadline(&self, slot: usize, deadline: Instant) -> Polled {
        self.pop_with(slot, Some(deadline))
    }

    // flowtune-lint: hot, untrusted-input
    fn pop_with(&self, slot: usize, deadline: Option<Instant>) -> Polled {
        let Some(mb) = self.shared.boxes.get(slot) else {
            return Polled::Closed;
        };
        let mut st = lock(&mb.state);
        loop {
            if let Some(frame) = st.frames.pop_front() {
                return Polled::Frame(frame);
            }
            if st.closed {
                return Polled::Closed;
            }
            let Some(deadline) = deadline else {
                return Polled::Empty;
            };
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Polled::Empty;
            }
            st = match mb.cv.wait_timeout(st, left) {
                Ok((guard, _)) => guard,
                Err(poisoned) => poisoned.into_inner().0,
            };
        }
    }

    /// Return a drained frame buffer to the pool for the receiver
    /// threads to reuse.
    // flowtune-lint: hot, untrusted-input
    pub fn recycle(&self, buf: Vec<u8>) {
        self.shared.pool_put(buf);
    }

    /// Cumulative `(rx_bytes, rx_frames)` deposited into `slot`'s
    /// mailbox — counted at arrival, whether or not the barrier has
    /// drained them yet.
    pub fn rx_counters(&self, slot: usize) -> (u64, u64) {
        match self.shared.boxes.get(slot) {
            Some(mb) => {
                let st = lock(&mb.state);
                (st.rx_bytes, st.rx_frames)
            }
            None => (0, 0),
        }
    }

    /// Take `slot`'s terminal receive failure, if its thread has exited
    /// with one. Subsequent calls return `None`.
    // flowtune-lint: untrusted-input
    pub fn take_failure(&self, slot: usize) -> Option<io::Error> {
        let mb = self.shared.boxes.get(slot)?;
        lock(&mb.state).failed.take()
    }
}

impl Drop for RecvRuntime {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        for t in self.threads.drain(..) {
            // A receiver thread's own panics are contained by its loop;
            // a join failure here means a bug in this module, and the
            // tick loop's state is gone anyway.
            let _ = t.join();
        }
    }
}

// flowtune-lint: hot, untrusted-input
fn receive_loop<R: Receiver>(mut rx: R, shared: &Shared, slot: usize) {
    let Some(mb) = shared.boxes.get(slot) else {
        return;
    };
    let mut buf = shared.pool_get(1024);
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            shared.pool_put(buf);
            return;
        }
        match rx.recv(&mut buf, SHUTDOWN_POLL) {
            Ok(None) => {}
            Ok(Some(bytes)) => {
                // Swap in a recycled buffer before handing the filled
                // one over; the barrier recycles it back once drained.
                let next = shared.pool_get(buf.len().max(64));
                let frame = std::mem::replace(&mut buf, next);
                let mut st = lock(&mb.state);
                st.frames.push_back(frame);
                st.rx_bytes += bytes;
                st.rx_frames += 1;
                drop(st);
                mb.cv.notify_all();
            }
            Err(e) => {
                shared.pool_put(buf);
                let mut st = lock(&mb.state);
                st.failed = Some(e);
                st.closed = true;
                drop(st);
                mb.cv.notify_all();
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{mem_mesh, Sender, Transport};

    #[test]
    fn frames_arrive_in_mailboxes_without_the_consumer_receiving() {
        let mut endpoints = mem_mesh(3);
        let c = endpoints.pop().unwrap();
        let b = endpoints.pop().unwrap();
        let a = endpoints.pop().unwrap();
        let (_a_tx, a_rxs) = a.split().unwrap();
        let (mut b_tx, _b_rxs) = b.split().unwrap();
        let (mut c_tx, _c_rxs) = c.split().unwrap();
        let rt = RecvRuntime::spawn(a_rxs);
        assert_eq!(rt.peers(), &[1, 2]);
        b_tx.send(0, &[0xB0; 32]).unwrap();
        c_tx.send(0, &[0xC0; 48]).unwrap();
        c_tx.send(0, &[0xC1; 48]).unwrap();
        // Frames land per peer, in order, counted at arrival.
        let deadline = Instant::now() + Duration::from_secs(2);
        let Polled::Frame(f) = rt.pop_deadline(0, deadline) else {
            panic!("frame from shard 1 never arrived");
        };
        assert_eq!(f, [0xB0; 32]);
        rt.recycle(f);
        for expect in [[0xC0; 48], [0xC1; 48]] {
            let Polled::Frame(f) = rt.pop_deadline(1, deadline) else {
                panic!("frame from shard 2 never arrived");
            };
            assert_eq!(f, expect);
            rt.recycle(f);
        }
        // Nothing else is buffered; an expired deadline reports Empty.
        assert!(matches!(rt.try_pop(0), Polled::Empty));
        assert!(matches!(rt.pop_deadline(1, Instant::now()), Polled::Empty));
        let (bytes, frames) = rt.rx_counters(1);
        assert_eq!(frames, 2);
        assert!(bytes > 0);
        assert!(rt.take_failure(0).is_none());
    }

    #[test]
    fn drop_joins_the_receiver_threads_promptly() {
        let mut endpoints = mem_mesh(2);
        let _b = endpoints.pop().unwrap();
        let a = endpoints.pop().unwrap();
        let (_a_tx, a_rxs) = a.split().unwrap();
        let rt = RecvRuntime::spawn(a_rxs);
        let begun = Instant::now();
        drop(rt);
        // One silent peer: the thread notices the flag within one
        // shutdown-poll window (plus scheduling slack).
        assert!(
            begun.elapsed() < Duration::from_secs(2),
            "drop took {:?}",
            begun.elapsed()
        );
    }
}

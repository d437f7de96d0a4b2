//! Transports that carry exchange frames between shard peers.
//!
//! A [`Transport`] moves already-encoded exchange frames (see
//! [`flowtune_proto::exchange`]) between the peers of one cluster and
//! reports the **on-wire** cost of doing so — the frame bytes plus the
//! 4-byte length prefix ([`framed_wire_bytes`]) — separately from the
//! *logical* hub-model accounting kept in
//! `ServiceStats::exchange_bytes`. Three implementations:
//!
//! * [`MemTransport`] — an in-process mesh of queues, one per directed
//!   peer pair, recycling frame buffers through a [`BufferPool`]. The
//!   reference: a peer cluster over it is bit-for-bit identical to the
//!   in-process `ShardedService`.
//! * [`UdsTransport`] — length-prefixed frames over Unix-domain stream
//!   sockets; the multi-process single-host deployment.
//! * [`TcpTransport`] — the same framing over TCP (`TCP_NODELAY` set),
//!   for peers on different hosts.
//!
//! The socket transports share one generic engine,
//! [`SocketTransport`], over anything that implements [`FrameStream`].
//! Mesh setup is symmetric: peer `i` listens, dials every lower-id
//! peer, and accepts from every higher-id one; a 2-byte hello carrying
//! the dialer's shard id identifies each accepted stream.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use flowtune_proto::exchange::{framed_wire_bytes, MAX_FRAME_BYTES};

use crate::pool::BufferPool;

/// How long mesh constructors keep retrying dials and accepts before
/// giving up on a peer that never showed.
pub const SETUP_TIMEOUT: Duration = Duration::from_secs(10);

/// What went wrong moving a frame. Constructing a variant never
/// allocates — the boxing happens only when one crosses into an
/// [`io::Error`] on the (cold) failure path, which keeps `send`/`recv`
/// allocation-free in the steady state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportError {
    /// The peer id is out of range or names this endpoint itself.
    NoSuchPeer {
        /// The offending peer id.
        peer: u16,
    },
    /// No stream is connected to that peer.
    NotConnected {
        /// The peer without a stream.
        peer: u16,
    },
    /// A shared lock was poisoned by a panicking thread.
    Poisoned {
        /// Which shared structure the lock guards.
        what: &'static str,
    },
    /// The frame is longer than [`MAX_FRAME_BYTES`], the longest any
    /// encoder emits: refused by `send`, and by `recv` on its length
    /// prefix alone, before anything is buffered.
    FrameTooLarge {
        /// The frame length sent or announced.
        len: usize,
    },
    /// The peer stalled mid-frame past the retry budget.
    TornFrame,
    /// The peer closed the stream mid-frame.
    PeerClosed,
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            TransportError::NoSuchPeer { peer } => write!(f, "no peer {peer} in the mesh"),
            TransportError::NotConnected { peer } => write!(f, "no stream to peer {peer}"),
            TransportError::Poisoned { what } => write!(f, "{what} lock poisoned"),
            TransportError::FrameTooLarge { len } => {
                write!(f, "frame of {len} bytes exceeds {MAX_FRAME_BYTES}")
            }
            TransportError::TornFrame => write!(f, "torn frame: peer stalled mid-frame"),
            TransportError::PeerClosed => write!(f, "peer closed the stream mid-frame"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<TransportError> for io::Error {
    fn from(e: TransportError) -> io::Error {
        let kind = match e {
            TransportError::NoSuchPeer { .. } | TransportError::FrameTooLarge { .. } => {
                io::ErrorKind::InvalidInput
            }
            TransportError::NotConnected { .. } => io::ErrorKind::NotConnected,
            TransportError::Poisoned { .. } => io::ErrorKind::Other,
            TransportError::TornFrame => io::ErrorKind::TimedOut,
            TransportError::PeerClosed => io::ErrorKind::UnexpectedEof,
        };
        io::Error::new(kind, e)
    }
}

/// The send half of a split [`Transport`]: ships whole frames to any
/// peer. A [`Receiver`] on the other side yields exactly the bytes of
/// one `send`, in order, per directed peer pair. Reports on-wire bytes
/// ([`framed_wire_bytes`] of the frame length) so a peer can account
/// what its transport actually moved.
pub trait Sender: std::fmt::Debug + Send {
    /// This endpoint's shard id.
    fn shard(&self) -> u16;

    /// Total peers in the mesh, this endpoint included.
    fn peers(&self) -> usize;

    /// Ship one frame to peer `to`, returning its on-wire bytes.
    ///
    /// # Errors
    /// An [`io::Error`] from the underlying channel; the frame may or
    /// may not have been delivered.
    fn send(&mut self, to: u16, frame: &[u8]) -> io::Result<u64>;
}

/// The receive half of a split [`Transport`] for **one** remote peer:
/// the unit a receiver thread owns. Splitting per peer is what lets the
/// mailbox runtime block on every peer concurrently — no peer's silence
/// can stall another peer's frames.
pub trait Receiver: std::fmt::Debug + Send + 'static {
    /// The remote peer this half receives from.
    fn remote_peer(&self) -> u16;

    /// Receive the next frame into `buf` (cleared first), returning its
    /// on-wire bytes — or `None` when `timeout` elapsed before a frame
    /// *started* arriving.
    ///
    /// # Errors
    /// An [`io::Error`] from the underlying channel, including a
    /// timeout that struck mid-frame (a torn frame is a peer failure,
    /// not a late round).
    fn recv(&mut self, buf: &mut Vec<u8>, timeout: Duration) -> io::Result<Option<u64>>;
}

/// One unsplit endpoint of a frame mesh. Splitting yields the
/// [`Sender`] half the tick loop keeps and one [`Receiver`] half per
/// remote peer for the receiver threads; the mem/UDS/TCP meshes all
/// feed the mailbox layer through exactly this seam.
pub trait Transport: std::fmt::Debug + Send {
    /// The send half this endpoint splits into.
    type Tx: Sender;
    /// The per-peer receive half this endpoint splits into.
    type Rx: Receiver;

    /// This endpoint's shard id.
    fn shard(&self) -> u16;

    /// Total peers in the mesh, this endpoint included.
    fn peers(&self) -> usize;

    /// Consume the endpoint into its send half and one receive half per
    /// remote peer, in ascending shard order (this endpoint's own slot
    /// skipped).
    ///
    /// # Errors
    /// Duplicating a socket handle for the receive half failed.
    fn split(self) -> io::Result<(Self::Tx, Vec<Self::Rx>)>;
}

// ---------------------------------------------------------------- memory

/// The shared state of an in-process mesh: one FIFO per directed peer
/// pair, plus the buffer pool frames are recycled through.
#[derive(Debug)]
struct MemMesh {
    n: usize,
    /// Queue `from * n + to`, each with the condvar its receiver waits
    /// on.
    links: Vec<(Mutex<VecDeque<Vec<u8>>>, Condvar)>,
    pool: Mutex<BufferPool>,
}

/// One endpoint of an in-process mesh built by [`mem_mesh`].
#[derive(Debug)]
pub struct MemTransport {
    mesh: Arc<MemMesh>,
    me: u16,
}

/// Build an `n`-peer in-process mesh and return its endpoints in shard
/// order. Endpoints may be moved to different threads; each directed
/// pair is an independent FIFO.
///
/// # Panics
/// Panics if `n` is 0 or exceeds `u16` range.
pub fn mem_mesh(n: usize) -> Vec<MemTransport> {
    assert!(n > 0, "a mesh needs at least one peer");
    assert!(u16::try_from(n).is_ok(), "too many peers for u16 ids");
    let mesh = Arc::new(MemMesh {
        n,
        links: (0..n * n)
            .map(|_| (Mutex::new(VecDeque::new()), Condvar::new()))
            .collect(),
        pool: Mutex::new(BufferPool::new()),
    });
    (0..n as u16)
        .map(|me| MemTransport {
            mesh: Arc::clone(&mesh),
            me,
        })
        .collect()
}

/// The send half of a [`MemTransport`].
#[derive(Debug)]
pub struct MemSender {
    mesh: Arc<MemMesh>,
    me: u16,
}

/// The receive half of a [`MemTransport`] for one remote peer.
#[derive(Debug)]
pub struct MemReceiver {
    mesh: Arc<MemMesh>,
    me: u16,
    from: u16,
}

impl MemSender {
    /// Buffer-pool `(hits, misses)` across the whole mesh — a warm
    /// exchange recycles every frame buffer it ships.
    pub fn pool_stats(&self) -> (u64, u64) {
        let pool = self.mesh.pool.lock().expect("pool poisoned");
        (pool.hits(), pool.misses())
    }
}

impl Transport for MemTransport {
    type Tx = MemSender;
    type Rx = MemReceiver;

    fn shard(&self) -> u16 {
        self.me
    }

    fn peers(&self) -> usize {
        self.mesh.n
    }

    fn split(self) -> io::Result<(MemSender, Vec<MemReceiver>)> {
        let rxs = (0..self.mesh.n as u16)
            .filter(|&from| from != self.me)
            .map(|from| MemReceiver {
                mesh: Arc::clone(&self.mesh),
                me: self.me,
                from,
            })
            .collect();
        let tx = MemSender {
            mesh: self.mesh,
            me: self.me,
        };
        Ok((tx, rxs))
    }
}

impl Sender for MemSender {
    fn shard(&self) -> u16 {
        self.me
    }

    fn peers(&self) -> usize {
        self.mesh.n
    }

    // flowtune-lint: hot
    fn send(&mut self, to: u16, frame: &[u8]) -> io::Result<u64> {
        let n = self.mesh.n;
        if usize::from(to) >= n || to == self.me {
            return Err(TransportError::NoSuchPeer { peer: to }.into());
        }
        let mut msg = self
            .mesh
            .pool
            .lock()
            .map_err(|_| TransportError::Poisoned { what: "frame pool" })?
            .get(frame.len());
        msg.extend_from_slice(frame);
        let (queue, cv) = &self.mesh.links[usize::from(self.me) * n + usize::from(to)];
        queue
            .lock()
            .map_err(|_| TransportError::Poisoned { what: "peer queue" })?
            .push_back(msg);
        cv.notify_one();
        Ok(framed_wire_bytes(frame.len()))
    }
}

impl Receiver for MemReceiver {
    fn remote_peer(&self) -> u16 {
        self.from
    }

    // flowtune-lint: hot, untrusted-input
    fn recv(&mut self, buf: &mut Vec<u8>, timeout: Duration) -> io::Result<Option<u64>> {
        let n = self.mesh.n;
        // flowtune-lint: allow(panic, "bounded: from < n held by construction, links holds n*n queues")
        let (queue, cv) = &self.mesh.links[usize::from(self.from) * n + usize::from(self.me)];
        let deadline = Instant::now() + timeout;
        let mut q = queue
            .lock()
            .map_err(|_| TransportError::Poisoned { what: "peer queue" })?;
        let msg = loop {
            if let Some(msg) = q.pop_front() {
                break msg;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Ok(None);
            }
            let (guard, wait) = cv
                .wait_timeout(q, left)
                .map_err(|_| TransportError::Poisoned { what: "peer queue" })?;
            q = guard;
            if wait.timed_out() && q.is_empty() {
                return Ok(None);
            }
        };
        drop(q);
        buf.clear();
        buf.extend_from_slice(&msg);
        let bytes = framed_wire_bytes(msg.len());
        self.mesh
            .pool
            .lock()
            .map_err(|_| TransportError::Poisoned { what: "frame pool" })?
            .put(msg);
        Ok(Some(bytes))
    }
}

// ---------------------------------------------------------------- socket

/// A bidirectional byte stream a [`SocketTransport`] can frame over:
/// Unix-domain or TCP stream sockets.
pub trait FrameStream: Read + Write + Send + std::fmt::Debug + 'static {
    /// Set the stream's read timeout (`None` = block forever).
    ///
    /// # Errors
    /// An [`io::Error`] from the socket layer.
    fn set_stream_timeout(&self, timeout: Option<Duration>) -> io::Result<()>;

    /// Duplicate the handle: both halves refer to the same underlying
    /// socket, which is what lets a receiver thread read while the tick
    /// loop writes (stream sockets are full-duplex).
    ///
    /// # Errors
    /// An [`io::Error`] from the socket layer.
    fn try_clone_stream(&self) -> io::Result<Self>
    where
        Self: Sized;
}

impl FrameStream for UnixStream {
    fn set_stream_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.set_read_timeout(timeout)
    }

    fn try_clone_stream(&self) -> io::Result<Self> {
        self.try_clone()
    }
}

impl FrameStream for TcpStream {
    fn set_stream_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.set_read_timeout(timeout)
    }

    fn try_clone_stream(&self) -> io::Result<Self> {
        self.try_clone()
    }
}

/// Did this read error mean "the timeout elapsed" (as opposed to a real
/// failure)? Both kinds occur depending on platform and socket family.
fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// How many consecutive mid-frame timeouts a read tolerates before
/// declaring the frame torn. A peer that started a frame finishes it
/// within a few timeout windows or is considered failed.
const MID_FRAME_RETRIES: u32 = 100;

/// Length-prefixed framing (u32 big-endian, then the frame) over one
/// [`FrameStream`] per peer. Built by [`uds_connect`] / [`tcp_connect`]
/// (one process per peer) or [`uds_mesh`] (all peers in one process, for
/// tests and benches).
#[derive(Debug)]
pub struct SocketTransport<S: FrameStream> {
    me: u16,
    /// Stream to each peer, `None` at the own index.
    streams: Vec<Option<S>>,
}

/// [`SocketTransport`] over Unix-domain sockets.
pub type UdsTransport = SocketTransport<UnixStream>;

/// [`SocketTransport`] over TCP (`TCP_NODELAY`; a frame per exchange
/// round must not sit in Nagle's buffer).
pub type TcpTransport = SocketTransport<TcpStream>;

/// The send half of a [`SocketTransport`]: the write side of every
/// peer's stream.
#[derive(Debug)]
pub struct SocketSender<S: FrameStream> {
    me: u16,
    /// Stream to each peer, `None` at the own index.
    streams: Vec<Option<S>>,
}

/// The receive half of a [`SocketTransport`] for one remote peer: a
/// duplicated handle of that peer's stream, read side only.
#[derive(Debug)]
pub struct SocketReceiver<S: FrameStream> {
    from: u16,
    stream: S,
    /// The read timeout currently applied to the socket, so a steady
    /// polling cadence costs one syscall, not one per poll.
    applied_timeout: Option<Duration>,
}

impl<S: FrameStream> SocketSender<S> {
    // flowtune-lint: untrusted-input
    fn stream(&mut self, peer: u16) -> io::Result<&mut S> {
        self.streams
            .get_mut(usize::from(peer))
            .and_then(Option::as_mut)
            .ok_or_else(|| TransportError::NotConnected { peer }.into())
    }
}

/// Read exactly `out.len()` bytes. `None` means the timeout elapsed
/// before the first byte (only allowed when `allow_empty` — the start
/// of a frame); a timeout mid-buffer retries up to
/// [`MID_FRAME_RETRIES`] times and then errors (a torn frame).
// flowtune-lint: hot, untrusted-input
fn read_full<S: FrameStream>(
    s: &mut S,
    out: &mut [u8],
    allow_empty: bool,
) -> io::Result<Option<()>> {
    let mut got = 0usize;
    let mut stalls = 0u32;
    while got < out.len() {
        // flowtune-lint: allow(panic, "bounded: got < out.len() holds by the loop condition")
        match s.read(&mut out[got..]) {
            Ok(0) => return Err(TransportError::PeerClosed.into()),
            Ok(k) => {
                got += k;
                stalls = 0;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) => {
                if got == 0 && allow_empty {
                    return Ok(None);
                }
                stalls += 1;
                if stalls > MID_FRAME_RETRIES {
                    return Err(TransportError::TornFrame.into());
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(Some(()))
}

impl<S: FrameStream> Transport for SocketTransport<S> {
    type Tx = SocketSender<S>;
    type Rx = SocketReceiver<S>;

    fn shard(&self) -> u16 {
        self.me
    }

    fn peers(&self) -> usize {
        self.streams.len()
    }

    fn split(self) -> io::Result<(SocketSender<S>, Vec<SocketReceiver<S>>)> {
        let mut rxs = Vec::new();
        for (from, slot) in self.streams.iter().enumerate() {
            if let Some(s) = slot {
                rxs.push(SocketReceiver {
                    from: from as u16,
                    stream: s.try_clone_stream()?,
                    applied_timeout: None,
                });
            }
        }
        let tx = SocketSender {
            me: self.me,
            streams: self.streams,
        };
        Ok((tx, rxs))
    }
}

impl<S: FrameStream> Sender for SocketSender<S> {
    fn shard(&self) -> u16 {
        self.me
    }

    fn peers(&self) -> usize {
        self.streams.len()
    }

    // flowtune-lint: hot
    fn send(&mut self, to: u16, frame: &[u8]) -> io::Result<u64> {
        if frame.len() > MAX_FRAME_BYTES {
            return Err(TransportError::FrameTooLarge { len: frame.len() }.into());
        }
        let s = self.stream(to)?;
        s.write_all(&(frame.len() as u32).to_be_bytes())?;
        s.write_all(frame)?;
        s.flush()?;
        Ok(framed_wire_bytes(frame.len()))
    }
}

impl<S: FrameStream> Receiver for SocketReceiver<S> {
    fn remote_peer(&self) -> u16 {
        self.from
    }

    // flowtune-lint: hot, untrusted-input
    fn recv(&mut self, buf: &mut Vec<u8>, timeout: Duration) -> io::Result<Option<u64>> {
        // A zero read timeout means "block forever" to the socket
        // layer; clamp to the smallest real window instead.
        let timeout = Some(timeout.max(Duration::from_millis(1)));
        if self.applied_timeout != timeout {
            self.stream.set_stream_timeout(timeout)?;
            self.applied_timeout = timeout;
        }
        let mut prefix = [0u8; 4];
        if read_full(&mut self.stream, &mut prefix, true)?.is_none() {
            return Ok(None);
        }
        let len = u32::from_be_bytes(prefix) as usize;
        if len > MAX_FRAME_BYTES {
            return Err(TransportError::FrameTooLarge { len }.into());
        }
        buf.clear();
        buf.resize(len, 0);
        read_full(&mut self.stream, buf, false)?;
        Ok(Some(framed_wire_bytes(len)))
    }
}

/// Accept loop shared by the socket families: poll `accept` until
/// `expect` peers with ids above `me` have dialed in and identified
/// themselves with a 2-byte hello.
fn accept_highers<S: FrameStream, L>(
    listener: &L,
    accept: impl Fn(&L) -> io::Result<S>,
    streams: &mut [Option<S>],
    me: u16,
    deadline: Instant,
) -> io::Result<()> {
    let peers = streams.len() as u16;
    let expect = usize::from(peers - 1 - me);
    let mut accepted = 0;
    while accepted < expect {
        match accept(listener) {
            Ok(mut s) => {
                s.set_stream_timeout(Some(SETUP_TIMEOUT))?;
                let mut hello = [0u8; 2];
                read_full(&mut s, &mut hello, false)?;
                let who = u16::from_be_bytes(hello);
                if who <= me || who >= peers {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "peer hello names shard {who}, expected one in {}..{peers}",
                            me + 1
                        ),
                    ));
                }
                let slot = &mut streams[usize::from(who)];
                if slot.is_some() {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("shard {who} dialed twice"),
                    ));
                }
                *slot = Some(s);
                accepted += 1;
            }
            Err(e) if is_timeout(&e) => {
                if Instant::now() >= deadline {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!("only {accepted}/{expect} higher peers dialed in"),
                    ));
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Dial with retries until `deadline` — the lower-id peer may not have
/// bound its listener yet.
fn dial_until<S>(deadline: Instant, connect: impl Fn() -> io::Result<S>) -> io::Result<S> {
    loop {
        match connect() {
            Ok(s) => return Ok(s),
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(e);
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
}

/// The socket path peer `shard` listens on under `dir`.
pub fn uds_socket_path(dir: &Path, shard: u16) -> std::path::PathBuf {
    dir.join(format!("peer{shard}.sock"))
}

/// Join (or bootstrap) a Unix-domain socket mesh as shard `shard` of
/// `peers`: bind `dir/peer<shard>.sock`, dial every lower-id peer
/// (retrying until it binds), accept every higher-id one. Blocks until
/// the mesh is fully connected or [`SETUP_TIMEOUT`] expires.
///
/// # Errors
/// Binding, dialing or accepting failed, or a peer never showed.
///
/// # Panics
/// Panics if `shard >= peers` or `peers` is 0.
pub fn uds_connect(dir: &Path, shard: u16, peers: u16) -> io::Result<UdsTransport> {
    assert!(peers > 0, "a mesh needs at least one peer");
    assert!(
        shard < peers,
        "shard {shard} out of range for {peers} peers"
    );
    let deadline = Instant::now() + SETUP_TIMEOUT;
    let path = uds_socket_path(dir, shard);
    let _ = std::fs::remove_file(&path);
    let listener = UnixListener::bind(&path)?;
    listener.set_nonblocking(true)?;
    let mut streams: Vec<Option<UnixStream>> = (0..peers).map(|_| None).collect();
    for j in 0..shard {
        let peer_path = uds_socket_path(dir, j);
        let mut s = dial_until(deadline, || UnixStream::connect(&peer_path))?;
        s.write_all(&shard.to_be_bytes())?;
        s.flush()?;
        streams[usize::from(j)] = Some(s);
    }
    accept_highers(
        &listener,
        |l: &UnixListener| {
            let (s, _) = l.accept()?;
            s.set_nonblocking(false)?;
            Ok(s)
        },
        &mut streams,
        shard,
        deadline,
    )?;
    Ok(SocketTransport { me: shard, streams })
}

/// [`uds_connect`] with every loopback peer on `127.0.0.1:base_port +
/// shard` instead of a socket file. `TCP_NODELAY` is set on every
/// stream.
///
/// # Errors
/// `InvalidInput` when the port run `base_port..base_port + peers` does
/// not fit in `u16`; otherwise binding, dialing or accepting failed, or
/// a peer never showed.
///
/// # Panics
/// Panics if `shard >= peers` or `peers` is 0.
pub fn tcp_connect(base_port: u16, shard: u16, peers: u16) -> io::Result<TcpTransport> {
    assert!(peers > 0, "a mesh needs at least one peer");
    assert!(
        shard < peers,
        "shard {shard} out of range for {peers} peers"
    );
    if base_port.checked_add(peers - 1).is_none() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("{peers} ports from base port {base_port} run past 65535"),
        ));
    }
    let deadline = Instant::now() + SETUP_TIMEOUT;
    let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, base_port + shard))?;
    listener.set_nonblocking(true)?;
    let mut streams: Vec<Option<TcpStream>> = (0..peers).map(|_| None).collect();
    for j in 0..shard {
        let addr = (Ipv4Addr::LOCALHOST, base_port + j);
        let mut s = dial_until(deadline, || TcpStream::connect(addr))?;
        s.set_nodelay(true)?;
        s.write_all(&shard.to_be_bytes())?;
        s.flush()?;
        streams[usize::from(j)] = Some(s);
    }
    accept_highers(
        &listener,
        |l: &TcpListener| {
            let (s, _) = l.accept()?;
            s.set_nonblocking(false)?;
            s.set_nodelay(true)?;
            Ok(s)
        },
        &mut streams,
        shard,
        deadline,
    )?;
    Ok(SocketTransport { me: shard, streams })
}

/// Build a whole Unix-domain socket mesh inside one process (a thread
/// per peer runs [`uds_connect`]; dialing and accepting concurrently is
/// what avoids the bootstrap deadlock). For tests and benches.
///
/// # Errors
/// Any peer's [`uds_connect`] failed.
///
/// # Panics
/// Panics if `n` is 0 or a setup thread panicked.
pub fn uds_mesh(dir: &Path, n: u16) -> io::Result<Vec<UdsTransport>> {
    let handles: Vec<_> = (0..n)
        .map(|i| {
            let dir = dir.to_path_buf();
            std::thread::spawn(move || uds_connect(&dir, i, n))
        })
        .collect();
    handles
        .into_iter()
        // A panic in a setup thread is a bug in this module, not a peer
        // failure; propagating it is the honest report.
        .map(|h| h.join().expect("mesh setup thread panicked"))
        .collect()
}

/// Probes for `n` consecutive free loopback TCP ports and returns the
/// first — a base for [`tcp_connect`]. The kernel picks a candidate base
/// (bind to port 0); the run holds if all `n` ports bind. The ports are
/// released on return, so a racing process can still take one before the
/// mesh binds them.
///
/// # Errors
/// A bind to port 0 failed, or 16 candidates in a row had a taken port in
/// their run (`AddrInUse`).
pub fn free_tcp_port_run(n: u16) -> io::Result<u16> {
    for _ in 0..16 {
        let probe = TcpListener::bind((Ipv4Addr::LOCALHOST, 0))?;
        let base = probe.local_addr()?.port();
        drop(probe);
        if base.checked_add(n).is_none() {
            continue;
        }
        let holds: Vec<_> = (0..n)
            .map(|i| TcpListener::bind((Ipv4Addr::LOCALHOST, base + i)))
            .collect();
        if holds.iter().all(Result::is_ok) {
            return Ok(base);
        }
    }
    Err(io::Error::new(
        io::ErrorKind::AddrInUse,
        "no free loopback port run found",
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`uds_mesh`] over loopback TCP at `base_port..base_port + n`.
    fn tcp_mesh(base_port: u16, n: u16) -> io::Result<Vec<TcpTransport>> {
        let handles: Vec<_> = (0..n)
            .map(|i| std::thread::spawn(move || tcp_connect(base_port, i, n)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("mesh setup thread panicked"))
            .collect()
    }

    fn roundtrip_pair<T: Transport>(a: T, b: T) {
        // Split both endpoints into their halves: the send half plus
        // one receive half per remote peer (here exactly one each).
        let (mut a_tx, mut a_rxs) = a.split().unwrap();
        let (mut b_tx, mut b_rxs) = b.split().unwrap();
        let a_rx = &mut a_rxs[0]; // receives from shard 1
        let b_rx = &mut b_rxs[0]; // receives from shard 0
        assert_eq!(a_rx.remote_peer(), 1);
        assert_eq!(b_rx.remote_peer(), 0);
        let frame = vec![0xA5u8; 300];
        let sent = a_tx.send(1, &frame).unwrap();
        assert_eq!(sent, framed_wire_bytes(300));
        let mut buf = Vec::new();
        let got = b_rx
            .recv(&mut buf, Duration::from_secs(2))
            .unwrap()
            .expect("frame was sent");
        assert_eq!(got, sent);
        assert_eq!(buf, frame);
        // The reverse direction is independent.
        b_tx.send(0, &[1, 2, 3]).unwrap();
        let mut buf2 = Vec::new();
        a_rx.recv(&mut buf2, Duration::from_secs(2)).unwrap();
        assert_eq!(buf2, [1, 2, 3]);
        // An empty timeout window reports a late round, not an error.
        assert_eq!(
            a_rx.recv(&mut buf2, Duration::from_millis(5)).unwrap(),
            None
        );
    }

    #[test]
    fn mem_mesh_roundtrips_and_times_out() {
        let mut endpoints = mem_mesh(2);
        let b = endpoints.pop().unwrap();
        let a = endpoints.pop().unwrap();
        roundtrip_pair(a, b);
    }

    #[test]
    fn mem_mesh_preserves_frame_order_and_recycles_buffers() {
        let mut endpoints = mem_mesh(2);
        let b = endpoints.pop().unwrap();
        let a = endpoints.pop().unwrap();
        let (mut a_tx, _a_rxs) = a.split().unwrap();
        let (_b_tx, mut b_rxs) = b.split().unwrap();
        let b_rx = &mut b_rxs[0];
        let mut buf = Vec::new();
        for round in 0..10u8 {
            a_tx.send(1, &[round; 64]).unwrap();
            b_rx.recv(&mut buf, Duration::from_secs(1)).unwrap();
            assert_eq!(buf, [round; 64]);
        }
        let (hits, misses) = a_tx.pool_stats();
        assert!(hits >= 8, "warm frames must recycle: {hits} hits");
        assert!(misses <= 2, "{misses} misses");
    }

    #[test]
    fn mem_mesh_rejects_self_and_out_of_range_peers() {
        let mut endpoints = mem_mesh(2);
        let a = endpoints.remove(0);
        let (mut tx, rxs) = a.split().unwrap();
        assert!(tx.send(0, &[1]).is_err(), "self-send");
        assert!(tx.send(7, &[1]).is_err(), "out of range");
        // The split yields no receive half for the own slot — only the
        // one remote peer's.
        assert_eq!(rxs.len(), 1);
        assert_eq!(rxs[0].remote_peer(), 1);
    }

    #[test]
    fn uds_mesh_roundtrips() {
        let dir = std::env::temp_dir().join(format!("flowtune-uds-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut endpoints = uds_mesh(&dir, 2).unwrap();
        let b = endpoints.pop().unwrap();
        let a = endpoints.pop().unwrap();
        roundtrip_pair(a, b);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_oversized_length_prefix_is_refused_unbuffered() {
        let dir = std::env::temp_dir().join(format!("flowtune-uds-len-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut endpoints = uds_mesh(&dir, 2).unwrap();
        let (_b_tx, mut b_rxs) = endpoints.pop().unwrap().split().unwrap();
        let (mut a_tx, _a_rxs) = endpoints.pop().unwrap().split().unwrap();
        let len = MAX_FRAME_BYTES + 1;
        let prefix = u32::try_from(len).unwrap().to_be_bytes();
        a_tx.stream(1).unwrap().write_all(&prefix).unwrap();
        let mut buf = Vec::new();
        let t0 = Instant::now();
        let err = b_rxs[0]
            .recv(&mut buf, Duration::from_millis(10))
            .unwrap_err();
        let err = err
            .get_ref()
            .and_then(|e| e.downcast_ref::<TransportError>());
        assert_eq!(err, Some(&TransportError::FrameTooLarge { len }));
        assert!(
            t0.elapsed() < Duration::from_millis(500),
            "no torn-frame wait"
        );
        assert_eq!(buf.capacity(), 0, "nothing buffered");
        // Nor does a sender emit one (zeroed pages: never touched).
        let err = a_tx.send(1, &vec![0; len]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn uds_three_peer_mesh_is_fully_connected() {
        let dir = std::env::temp_dir().join(format!("flowtune-uds3-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mesh = uds_mesh(&dir, 3).unwrap();
        let mut txs = Vec::new();
        let mut rxs = Vec::new();
        for t in mesh {
            let (tx, rx) = t.split().unwrap();
            txs.push(tx);
            rxs.push(rx);
        }
        // Every ordered pair carries its own frames.
        let mut buf = Vec::new();
        for from in 0..3u16 {
            for to in 0..3u16 {
                if from == to {
                    continue;
                }
                let payload = [from as u8, to as u8, 0xEE];
                txs[usize::from(from)].send(to, &payload).unwrap();
                let rx = rxs[usize::from(to)]
                    .iter_mut()
                    .find(|r| r.remote_peer() == from)
                    .expect("a receive half per remote peer");
                rx.recv(&mut buf, Duration::from_secs(2))
                    .unwrap()
                    .expect("frame was sent");
                assert_eq!(buf, payload);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tcp_mesh_roundtrips() {
        // The probed pair is free until someone else binds it: racing
        // rarely enough for a test, retried when it happens.
        let mut endpoints = None;
        for _ in 0..10 {
            let base = free_tcp_port_run(2).unwrap();
            if let Ok(m) = tcp_mesh(base, 2) {
                endpoints = Some(m);
                break;
            }
        }
        let mut endpoints = endpoints.expect("no free port pair after 10 probes");
        let b = endpoints.pop().unwrap();
        let a = endpoints.pop().unwrap();
        roundtrip_pair(a, b);
    }

    #[test]
    fn a_port_run_past_65535_is_refused_before_binding() {
        // Shard 1 of 2 at base 65535 would listen on port 65536.
        let t0 = Instant::now();
        let err = tcp_connect(u16::MAX, 1, 2).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
        assert!(t0.elapsed() < Duration::from_secs(1), "no setup wait");
        // The last base whose run fits is not refused for its ports:
        // shard 0 of 1 at 65535 binds (or meets a taken port), it never
        // reports InvalidInput.
        if let Err(e) = tcp_connect(u16::MAX, 0, 1) {
            assert_ne!(e.kind(), io::ErrorKind::InvalidInput, "{e}");
        }
    }
}

//! Transports that carry exchange frames between shard peers.
//!
//! A [`Transport`] moves already-encoded exchange frames (see
//! [`flowtune_proto::exchange`]) between the peers of one cluster and
//! reports the **on-wire** cost of doing so: per copy sent, the frame
//! bytes that `ServiceStats::exchange_bytes` counts plus the 4-byte
//! length prefix ([`framed_wire_bytes`]). Three implementations:
//!
//! * [`MemTransport`] — an in-process mesh of queues, one per directed
//!   peer pair, each with a spare list the receiver hands drained
//!   buffers back through. The reference: a peer cluster over it is
//!   bit-for-bit identical to the in-process `ShardedService`.
//! * [`UdsTransport`] — length-prefixed frames over Unix-domain stream
//!   sockets; the multi-process single-host deployment.
//! * [`TcpTransport`] — the same framing over TCP (`TCP_NODELAY` set),
//!   for peers on different hosts.
//!
//! Nothing here owns a thread. A [`Receiver`] is polled by whoever
//! holds it — a peer's exchange barrier, on the tick thread — and
//! [`Receiver::recv`] with `Duration::ZERO` is one non-blocking poll on
//! every transport; a longer timeout polls and yields until it runs
//! out.
//!
//! The socket transports share one generic engine,
//! [`SocketTransport`], over anything that implements [`FrameStream`].
//! Mesh setup is symmetric: peer `i` listens, dials every lower-id
//! peer, and accepts from every higher-id one; a 2-byte hello carrying
//! the dialer's shard id identifies each accepted stream. Splitting
//! makes the stream non-blocking — both halves, since they share one
//! open file description — so a receive half keeps a reassembly buffer
//! for frames that arrive in pieces, and a send half retries a full
//! socket for at most [`SEND_TIMEOUT`] and then gives the stream up.

use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
use std::net::{Ipv4Addr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use flowtune_proto::exchange::{framed_wire_bytes, MAX_FRAME_BYTES};

/// How long mesh constructors keep retrying dials and accepts before
/// giving up on a peer that never showed.
pub const SETUP_TIMEOUT: Duration = Duration::from_secs(10);

/// How long a socket send retries a full socket before it gives the
/// stream up: a peer that has stopped reading fails the send instead of
/// hanging it. A healthy peer drains its sockets at every barrier, and
/// a socket buffer holds many frames, so a send that waits at all is
/// rare.
pub const SEND_TIMEOUT: Duration = Duration::from_secs(1);

/// The reassembly buffer a socket receive half starts with; it grows
/// once to the longest frame seen when one does not fit.
const RECV_BUF_BYTES: usize = 64 * 1024;

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
    /// The peer closed the stream mid-frame.
    TornFrame,
    /// The peer closed the stream.
    PeerClosed,
    /// The peer stopped reading: a send could not finish within
    /// [`SEND_TIMEOUT`], and the stream is given up.
    Stalled,
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
            TransportError::TornFrame => write!(f, "torn frame: peer closed the stream mid-frame"),
            TransportError::PeerClosed => write!(f, "peer closed the stream"),
            TransportError::Stalled => {
                write!(
                    f,
                    "peer stopped reading: send gave up after {SEND_TIMEOUT:?}"
                )
            }
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
            TransportError::TornFrame | TransportError::PeerClosed => io::ErrorKind::UnexpectedEof,
            TransportError::Stalled => io::ErrorKind::TimedOut,
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

/// The receive half of a split [`Transport`] for **one** remote peer.
/// A peer's exchange barrier polls one per remote peer, so no peer's
/// silence can hold back another peer's frames.
pub trait Receiver: std::fmt::Debug + Send {
    /// The remote peer this half receives from.
    fn remote_peer(&self) -> u16;

    /// Receive the next frame into `buf` (cleared first), returning its
    /// on-wire bytes — or `None` when no whole frame arrived within
    /// `timeout`. `Duration::ZERO` is one non-blocking poll; a longer
    /// timeout polls and yields the thread until it runs out. A frame
    /// that has only partly arrived stays buffered for the next call.
    ///
    /// # Errors
    /// An [`io::Error`] from the underlying channel, including the peer
    /// closing the stream (mid-frame: [`TransportError::TornFrame`]).
    fn recv(&mut self, buf: &mut Vec<u8>, timeout: Duration) -> io::Result<Option<u64>>;
}

/// One unsplit endpoint of a frame mesh. Splitting yields the
/// [`Sender`] half and one [`Receiver`] half per remote peer, all kept
/// by the peer that ticks; the mem/UDS/TCP meshes all feed the exchange
/// barrier through exactly this seam.
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

/// Call `poll` until it yields a value, yielding the thread between
/// tries, for at most `timeout`: `Duration::ZERO` calls it once.
// flowtune-lint: hot, untrusted-input
fn poll_for<T>(
    timeout: Duration,
    mut poll: impl FnMut() -> io::Result<Option<T>>,
) -> io::Result<Option<T>> {
    let mut deadline = None;
    loop {
        if let Some(got) = poll()? {
            return Ok(Some(got));
        }
        let now = Instant::now();
        if now >= *deadline.get_or_insert(now + timeout) {
            return Ok(None);
        }
        std::thread::yield_now();
    }
}

// ---------------------------------------------------------------- memory

/// One directed peer pair of an in-process mesh.
#[derive(Debug, Default)]
struct MemLink {
    /// Frames in flight, oldest first.
    frames: VecDeque<Vec<u8>>,
    /// Buffers the receiver drained, for the sender's next frames: a
    /// warm link ships frames without allocating.
    spare: Vec<Vec<u8>>,
}

/// The shared state of an in-process mesh.
#[derive(Debug)]
struct MemMesh {
    n: usize,
    /// Link `from * n + to`.
    links: Vec<Mutex<MemLink>>,
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
        links: (0..n * n).map(|_| Mutex::default()).collect(),
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

impl MemMesh {
    // flowtune-lint: hot, untrusted-input
    fn link(&self, from: u16, to: u16) -> io::Result<std::sync::MutexGuard<'_, MemLink>> {
        self.links
            .get(usize::from(from) * self.n + usize::from(to))
            .ok_or(TransportError::NoSuchPeer { peer: to })?
            .lock()
            .map_err(|_| TransportError::Poisoned { what: "peer link" }.into())
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
        let mut link = self.mesh.link(self.me, to)?;
        let mut msg = link.spare.pop().unwrap_or_default();
        msg.clear();
        msg.extend_from_slice(frame);
        link.frames.push_back(msg);
        Ok(framed_wire_bytes(frame.len()))
    }
}

impl Receiver for MemReceiver {
    fn remote_peer(&self) -> u16 {
        self.from
    }

    // flowtune-lint: hot, untrusted-input
    fn recv(&mut self, buf: &mut Vec<u8>, timeout: Duration) -> io::Result<Option<u64>> {
        poll_for(timeout, || {
            let mut link = self.mesh.link(self.from, self.me)?;
            let Some(msg) = link.frames.pop_front() else {
                return Ok(None);
            };
            buf.clear();
            buf.extend_from_slice(&msg);
            let bytes = framed_wire_bytes(msg.len());
            link.spare.push(msg);
            Ok(Some(bytes))
        })
    }
}

// ---------------------------------------------------------------- socket

/// A bidirectional byte stream a [`SocketTransport`] can frame over:
/// Unix-domain or TCP stream sockets.
pub trait FrameStream: Read + Write + Send + std::fmt::Debug {
    /// A second handle on the same socket for the receive half,
    /// switched to non-blocking. `O_NONBLOCK` lives on the open file
    /// description both handles share, so the original turns
    /// non-blocking too.
    ///
    /// # Errors
    /// An [`io::Error`] from the socket layer.
    fn try_clone_nonblocking(&self) -> io::Result<Self>
    where
        Self: Sized;
}

impl FrameStream for UnixStream {
    fn try_clone_nonblocking(&self) -> io::Result<Self> {
        let s = self.try_clone()?;
        s.set_nonblocking(true)?;
        Ok(s)
    }
}

impl FrameStream for TcpStream {
    fn try_clone_nonblocking(&self) -> io::Result<Self> {
        let s = self.try_clone()?;
        s.set_nonblocking(true)?;
        Ok(s)
    }
}

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
/// peer's stream, non-blocking since the split.
#[derive(Debug)]
pub struct SocketSender<S: FrameStream> {
    me: u16,
    /// Stream to each peer, `None` at the own index and for a stream a
    /// send gave up on.
    streams: Vec<Option<S>>,
}

/// The receive half of a [`SocketTransport`] for one remote peer: a
/// duplicated, non-blocking handle of that peer's stream, read side
/// only, and the bytes read off it that no frame has claimed yet.
#[derive(Debug)]
pub struct SocketReceiver<S: FrameStream> {
    from: u16,
    stream: S,
    /// The reassembly buffer: `pending[start..end]` holds what has been
    /// read and not handed out — a frame split across reads, or a
    /// backlog of several frames.
    pending: Vec<u8>,
    start: usize,
    end: usize,
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

/// Write the length prefix and `frame` to a non-blocking stream:
/// finish short writes, and retry a full socket for at most
/// [`SEND_TIMEOUT`].
// flowtune-lint: hot
fn write_frame<S: Write>(s: &mut S, frame: &[u8]) -> io::Result<()> {
    let prefix = (frame.len() as u32).to_be_bytes();
    let total = prefix.len() + frame.len();
    let mut sent = 0;
    let done = poll_for(SEND_TIMEOUT, || loop {
        let wrote = if sent < prefix.len() {
            s.write_vectored(&[IoSlice::new(&prefix[sent..]), IoSlice::new(frame)])
        } else {
            s.write(&frame[sent - prefix.len()..])
        };
        match wrote {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(k) => {
                sent += k;
                if sent == total {
                    return Ok(Some(()));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(None),
            Err(e) => return Err(e),
        }
    })?;
    done.ok_or_else(|| TransportError::Stalled.into())
}

impl<S: FrameStream> SocketReceiver<S> {
    /// One non-blocking step of [`Receiver::recv`]: hand out the frame
    /// at the head of the reassembly buffer once it is whole, reading
    /// the stream only when it is not. The length prefix is checked
    /// against [`MAX_FRAME_BYTES`] before any of the frame is buffered.
    // flowtune-lint: hot, untrusted-input
    fn poll_frame(&mut self, out: &mut Vec<u8>) -> io::Result<Option<u64>> {
        loop {
            let buffered = self.pending.get(self.start..self.end).unwrap_or_default();
            let mut need = 4;
            if let Some((prefix, rest)) = buffered.split_first_chunk::<4>() {
                let len = u32::from_be_bytes(*prefix) as usize;
                if len > MAX_FRAME_BYTES {
                    return Err(TransportError::FrameTooLarge { len }.into());
                }
                if let Some(frame) = rest.get(..len) {
                    out.clear();
                    out.extend_from_slice(frame);
                    self.start += 4 + len;
                    return Ok(Some(framed_wire_bytes(len)));
                }
                need += len;
            }
            if !self.fill(need)? {
                return Ok(None);
            }
        }
    }

    /// Read what the stream holds into the buffer's free tail, first
    /// moving the unclaimed bytes to the front when there are none or
    /// when the head frame's `need` bytes would not fit behind them, and
    /// growing the buffer when they would not fit at all. `false` when
    /// nothing was read.
    // flowtune-lint: hot, untrusted-input
    fn fill(&mut self, need: usize) -> io::Result<bool> {
        if self.start == self.end || self.start + need > self.pending.len() {
            self.pending.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if need > self.pending.len() {
            self.pending.resize(need, 0);
        }
        loop {
            // flowtune-lint: allow(panic, "bounded: end - start < need fits behind start, so end < len")
            match self.stream.read(&mut self.pending[self.end..]) {
                Ok(0) if self.start == self.end => return Err(TransportError::PeerClosed.into()),
                Ok(0) => return Err(TransportError::TornFrame.into()),
                Ok(k) => {
                    self.end += k;
                    return Ok(true);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) => return Err(e),
            }
        }
    }
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
                    stream: s.try_clone_nonblocking()?,
                    pending: vec![0; RECV_BUF_BYTES],
                    start: 0,
                    end: 0,
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

    /// # Errors
    /// Besides the stream's own errors, [`TransportError::Stalled`] when
    /// the peer has stopped reading. A stream a send fails on is given
    /// up — it may hold part of a frame — and later sends to that peer
    /// fail with [`TransportError::NotConnected`].
    // flowtune-lint: hot
    fn send(&mut self, to: u16, frame: &[u8]) -> io::Result<u64> {
        if frame.len() > MAX_FRAME_BYTES {
            return Err(TransportError::FrameTooLarge { len: frame.len() }.into());
        }
        write_frame(self.stream(to)?, frame).inspect_err(|_| {
            if let Some(slot) = self.streams.get_mut(usize::from(to)) {
                *slot = None;
            }
        })?;
        Ok(framed_wire_bytes(frame.len()))
    }
}

impl<S: FrameStream> Receiver for SocketReceiver<S> {
    fn remote_peer(&self) -> u16 {
        self.from
    }

    // flowtune-lint: hot, untrusted-input
    fn recv(&mut self, buf: &mut Vec<u8>, timeout: Duration) -> io::Result<Option<u64>> {
        poll_for(timeout, || self.poll_frame(buf))
    }
}

/// [`connect_mesh`]'s accept loop: poll `accept` until every peer
/// with an id above `me` has dialed in and identified itself with a
/// 2-byte hello.
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
                let mut hello = [0u8; 2];
                s.read_exact(&mut hello)?;
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
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
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

/// The bootstrap both socket families share, as shard `me` of `peers`:
/// bind a non-blocking listener, dial every lower-id peer (retrying
/// until it binds) and send it a 2-byte hello, then accept every
/// higher-id one. `accept` hands back a blocking stream whose reads time
/// out after [`SETUP_TIMEOUT`]; that deadline bounds the whole setup.
fn connect_mesh<S: FrameStream, L>(
    me: u16,
    peers: u16,
    bind: impl FnOnce() -> io::Result<L>,
    accept: impl Fn(&L) -> io::Result<S>,
    dial: impl Fn(u16) -> io::Result<S>,
) -> io::Result<SocketTransport<S>> {
    assert!(peers > 0, "a mesh needs at least one peer");
    assert!(me < peers, "shard {me} out of range for {peers} peers");
    let deadline = Instant::now() + SETUP_TIMEOUT;
    let listener = bind()?;
    let mut streams: Vec<Option<S>> = (0..peers).map(|_| None).collect();
    for j in 0..me {
        let mut s = dial_until(deadline, || dial(j))?;
        s.write_all(&me.to_be_bytes())?;
        s.flush()?;
        streams[usize::from(j)] = Some(s);
    }
    accept_highers(&listener, accept, &mut streams, me, deadline)?;
    Ok(SocketTransport { me, streams })
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
    connect_mesh(
        shard,
        peers,
        || {
            let path = uds_socket_path(dir, shard);
            let _ = std::fs::remove_file(&path);
            let listener = UnixListener::bind(&path)?;
            listener.set_nonblocking(true)?;
            Ok(listener)
        },
        |l: &UnixListener| {
            let (s, _) = l.accept()?;
            s.set_nonblocking(false)?;
            s.set_read_timeout(Some(SETUP_TIMEOUT))?;
            Ok(s)
        },
        |j| UnixStream::connect(uds_socket_path(dir, j)),
    )
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
    connect_mesh(
        shard,
        peers,
        || {
            if base_port.checked_add(peers - 1).is_none() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("{peers} ports from base port {base_port} run past 65535"),
                ));
            }
            let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, base_port + shard))?;
            listener.set_nonblocking(true)?;
            Ok(listener)
        },
        |l: &TcpListener| {
            let (s, _) = l.accept()?;
            s.set_nonblocking(false)?;
            s.set_read_timeout(Some(SETUP_TIMEOUT))?;
            s.set_nodelay(true)?;
            Ok(s)
        },
        |j| {
            let s = TcpStream::connect((Ipv4Addr::LOCALHOST, base_port + j))?;
            s.set_nodelay(true)?;
            Ok(s)
        },
    )
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

    /// The two halves of a 2-peer UDS mesh built under `tag`: shard 0's
    /// sender and shard 1's receive half.
    fn uds_pair(tag: &str) -> (SocketSender<UnixStream>, SocketReceiver<UnixStream>) {
        let dir = std::env::temp_dir().join(format!("flowtune-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut endpoints = uds_mesh(&dir, 2).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        let (_b_tx, mut b_rxs) = endpoints.pop().unwrap().split().unwrap();
        let (a_tx, _a_rxs) = endpoints.pop().unwrap().split().unwrap();
        (a_tx, b_rxs.remove(0))
    }

    #[test]
    fn frames_split_across_reads_reassemble_and_a_backlog_drains_in_order() {
        let (mut a_tx, mut b_rx) = uds_pair("uds-reasm");
        let mut wire = Vec::new();
        for (len, byte) in [(300usize, 1u8), (5, 2), (RECV_BUF_BYTES + 10, 3)] {
            wire.extend_from_slice(&(len as u32).to_be_bytes());
            wire.extend(std::iter::repeat_n(byte, len));
        }
        let mut buf = Vec::new();
        // Half a prefix, then half a frame: nothing whole arrived yet.
        for cut in [2, 150] {
            a_tx.stream(1).unwrap().write_all(&wire[..cut]).unwrap();
            wire.drain(..cut);
            assert_eq!(b_rx.recv(&mut buf, Duration::ZERO).unwrap(), None);
        }
        // The rest in one write: three frames, the last longer than the
        // reassembly buffer, handed out one a call.
        a_tx.stream(1).unwrap().write_all(&wire).unwrap();
        for (len, byte) in [(300, 1u8), (5, 2), (RECV_BUF_BYTES + 10, 3)] {
            let got = b_rx.recv(&mut buf, Duration::from_secs(2)).unwrap();
            assert_eq!(got, Some(framed_wire_bytes(len)));
            assert!(buf.len() == len && buf.iter().all(|&b| b == byte));
        }
        assert_eq!(b_rx.recv(&mut buf, Duration::ZERO).unwrap(), None);
        // A stream that ends mid-frame is torn; one that ends between
        // frames is closed.
        a_tx.stream(1).unwrap().write_all(&[0, 0, 0, 9, 1]).unwrap();
        drop(a_tx);
        let torn = b_rx.recv(&mut buf, Duration::from_secs(2)).unwrap_err();
        let torn = torn
            .get_ref()
            .and_then(|e| e.downcast_ref::<TransportError>());
        assert_eq!(torn, Some(&TransportError::TornFrame));
    }

    #[test]
    fn a_peer_that_never_reads_fails_the_send_within_its_bound() {
        let (mut a_tx, _b_rx) = uds_pair("uds-stall");
        let frame = vec![0x5A; 64 * 1024];
        let t0 = Instant::now();
        // The socket buffer holds a few frames; a send past that waits
        // out SEND_TIMEOUT and gives the stream up.
        let err = (0..10_000)
            .find_map(|_| a_tx.send(1, &frame).err())
            .expect("a socket buffer never fills");
        assert!(
            t0.elapsed() < SEND_TIMEOUT * 3,
            "send blocked for {:?}",
            t0.elapsed()
        );
        let err = err
            .get_ref()
            .and_then(|e| e.downcast_ref::<TransportError>());
        assert_eq!(err, Some(&TransportError::Stalled));
        let err = a_tx.send(1, &frame).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotConnected, "{err}");
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

//! # Flowtune distributed control plane
//!
//! Shard peers and the link-state exchange protocol on a real wire.
//!
//! The core crate routes a partitioned allocator once (`Router`) over a
//! *shard set*; its `ShardedService` is that router over shards inside
//! one process. This crate supplies the other shard set — shards in
//! separate processes (or hosts), reachable only through a transport —
//! and the same router drives it. The pieces:
//!
//! * [`Transport`] — a connected mesh endpoint that [`Transport::split`]s
//!   into a [`Sender`] half and one [`Receiver`] half per remote peer,
//!   all kept by the peer that ticks: no thread here outlives the
//!   constructor that spawned it. Three implementations: the in-process
//!   [`MemTransport`] mesh (the bit-for-bit reference), length-prefixed
//!   Unix-domain sockets ([`UdsTransport`]) and TCP ([`TcpTransport`]).
//! * [`ShardPeer`] — one shard's `AllocatorService` plus its side of
//!   the exchange (an `ExchangeCore`: the export filter and the install
//!   the in-process service runs over its shared table, in the same
//!   slot order, here over private rows filled from frames whose records
//!   name slots — the codec is the only difference). A tick is two
//!   phases: run the allocator and broadcast this shard's frame, then a
//!   staleness-aware barrier that polls every receive half on the tick
//!   thread against one deadline read from the peer's [`Clock`]: a peer
//!   that was fresh last round is awaited up to the configured round
//!   timeout, a peer
//!   already behind is only polled (its frames install whenever they
//!   arrive), and a peer behind by `max_rounds_behind` rounds is
//!   awaited again so the lag stays bounded. Stale rounds install from
//!   last-shipped state; per-peer [`PeerLag`] (current and peak
//!   `rounds_behind`) is surfaced through [`WireStats`].
//! * [`PeerCluster`] — a `TickDriver` over a set of peers: the core
//!   crate's `Router` over the [`cluster::Peers`] shard set, which runs
//!   every peer's first phase before any peer's second. Routing, the
//!   one ordering of the peers' passers and stat aggregation are the
//!   router's — nothing here
//!   restates them — so when every frame is on time the cluster is
//!   bit-for-bit identical to `ShardedService`, over every transport.
//! * `flowtune-arbiterd` (this crate's binary) — one shard peer per
//!   process, plus a `--demo` launcher that spawns an N-process
//!   cluster, checks it converges to the unsharded optimum and reports
//!   per-peer staleness.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod cluster;
pub mod peer;
pub mod transport;

pub use cluster::PeerCluster;
pub use peer::{Clock, PeerError, PeerLag, ShardPeer, WallClock, WireStats};
pub use transport::{
    free_tcp_port_run, mem_mesh, tcp_connect, uds_connect, uds_mesh, uds_socket_path, FrameStream,
    MemReceiver, MemSender, MemTransport, Receiver, Sender, SocketReceiver, SocketSender,
    SocketTransport, TcpTransport, Transport, UdsTransport,
};

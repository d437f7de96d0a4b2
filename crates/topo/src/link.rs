//! Unidirectional capacitated links.

use crate::ids::{LinkId, NodeId};

/// Direction of a link relative to the Clos hierarchy.
///
/// The multicore allocator (§5) partitions links into *upward* LinkBlocks
/// (server→ToR and ToR→spine) and *downward* LinkBlocks (spine→ToR and
/// ToR→server): all updates to upward links of a block come only from flows
/// *sourced* in that block, and symmetrically for downward links.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkDir {
    /// Toward the spine layer: server→ToR or ToR→spine.
    Up,
    /// Toward the servers: spine→ToR or ToR→server.
    Down,
    /// Control-plane attachment (allocator↔spine); not part of any
    /// LinkBlock and never allocated by the optimizer.
    Control,
}

/// A unidirectional link with fixed capacity and propagation delay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Link {
    /// Dense identifier; equals this link's position in `Topology::links`.
    pub id: LinkId,
    /// Transmitting node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Capacity in bits per second.
    pub capacity_bps: u64,
    /// Propagation delay in picoseconds.
    pub delay_ps: u64,
    /// Position in the Clos hierarchy.
    pub dir: LinkDir,
}

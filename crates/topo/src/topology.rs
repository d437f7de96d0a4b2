//! Generic directed topology graph.

use crate::ids::{LinkId, NodeId};
use crate::link::{Link, LinkDir};

/// Role of a node in the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// An endpoint host.
    Server,
    /// Top-of-rack switch.
    Tor,
    /// Spine/aggregation switch.
    Spine,
    /// The centralized Flowtune allocator machine.
    Allocator,
}

/// A node with its role and a per-node forwarding delay.
///
/// §6.2 gives 2 µs server delay and calibrates the topology to a 14 µs
/// 2-hop / 22 µs 4-hop RTT; with 1.5 µs links that decomposes into a 2 µs
/// server delay, 0 ToR delay, and 1 µs spine forwarding delay (see
/// `ClosConfig`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    /// Dense identifier; equals this node's position in `Topology::nodes`.
    pub id: NodeId,
    /// Role of the node.
    pub kind: NodeKind,
    /// Per-node forwarding/processing delay in picoseconds, applied once
    /// per traversal by the simulator.
    pub delay_ps: u64,
}

/// A directed graph of nodes and capacitated links.
///
/// `Topology` is deliberately dumb: it stores nodes and links, and
/// answers lookups. Routing policy lives in the builders (e.g.
/// [`crate::clos::TwoTierClos`]) because it depends on the fabric type.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    nodes: Vec<Node>,
    links: Vec<Link>,
}

impl Topology {
    /// Creates an empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self, kind: NodeKind, delay_ps: u64) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node { id, kind, delay_ps });
        id
    }

    /// Adds a unidirectional link and returns its id.
    ///
    /// # Panics
    /// Panics if `src` or `dst` is out of range, if they are equal, or if
    /// the capacity is zero (§3 requires strictly positive capacities).
    pub fn add_link(
        &mut self,
        src: NodeId,
        dst: NodeId,
        capacity_bps: u64,
        delay_ps: u64,
        dir: LinkDir,
    ) -> LinkId {
        assert!(src.index() < self.nodes.len(), "src node out of range");
        assert!(dst.index() < self.nodes.len(), "dst node out of range");
        assert_ne!(src, dst, "self-loop links are not allowed");
        assert!(capacity_bps > 0, "link capacity must be strictly positive");
        let id = LinkId(self.links.len() as u32);
        self.links.push(Link {
            id,
            src,
            dst,
            capacity_bps,
            delay_ps,
            dir,
        });
        id
    }

    /// All nodes, indexed by [`NodeId`].
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// All links, indexed by [`LinkId`].
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Looks up a node.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Looks up a link.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (Topology, NodeId, NodeId, NodeId) {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Server, 2_000_000);
        let b = t.add_node(NodeKind::Tor, 0);
        let c = t.add_node(NodeKind::Server, 2_000_000);
        t.add_link(a, b, 10_000_000_000, 1_500_000, LinkDir::Up);
        t.add_link(b, c, 10_000_000_000, 1_500_000, LinkDir::Down);
        (t, a, b, c)
    }

    #[test]
    fn build_and_lookup() {
        let (t, a, b, c) = tiny();
        assert_eq!(t.link_count(), 2);
        assert_eq!(t.node(a).kind, NodeKind::Server);
        assert_eq!(t.node(b).kind, NodeKind::Tor);
        assert_eq!(t.link(LinkId(0)).src, a);
        assert_eq!(t.link(LinkId(0)).dst, b);
        assert_eq!(t.link(LinkId(1)).src, b);
        assert_eq!(t.link(LinkId(1)).dst, c);
    }

    #[test]
    #[should_panic(expected = "strictly positive")]
    fn zero_capacity_rejected() {
        let (mut t, a, b, _) = tiny();
        t.add_link(b, a, 0, 1, LinkDir::Down);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_rejected() {
        let (mut t, a, ..) = tiny();
        t.add_link(a, a, 1, 1, LinkDir::Up);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn dangling_node_rejected() {
        let (mut t, a, ..) = tiny();
        t.add_link(a, NodeId(99), 1, 1, LinkDir::Up);
    }
}

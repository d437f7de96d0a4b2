//! Datacenter topology substrate for the Flowtune reproduction.
//!
//! The paper (§5, §6.2) evaluates Flowtune on two-tier full-bisection Clos
//! fabrics: racks of servers, one ToR switch per rack, and a layer of spine
//! switches with every ToR connected to every spine. This crate provides:
//!
//! * strongly-typed identifiers ([`NodeId`], [`LinkId`], [`RackId`],
//!   [`BlockId`], [`FlowId`]),
//! * a generic directed [`Topology`] graph of nodes and capacitated links,
//! * a [`TwoTierClos`] builder matching the paper's
//!   evaluation topology (9 racks × 16 servers × 4 spines at 10 Gbit/s),
//! * deterministic hash-based ECMP path resolution ([`clos::TwoTierClos::path`]),
//! * the rack→block grouping and upward/downward LinkBlock membership used
//!   by the multicore allocator (§5, Figure 2).
//!
//! Everything is deterministic: the same inputs always produce the same
//! paths, which the simulator and the allocator both rely on.

#![forbid(unsafe_code)]

pub mod clos;
pub mod ids;
pub mod link;
pub mod topology;

pub use clos::{ClosConfig, TwoTierClos};
pub use ids::{BlockId, FlowId, LinkId, NodeId, RackId};
pub use link::{Link, LinkDir};
pub use topology::{Node, NodeKind, Topology};

/// A loop-free path through the network: the ordered list of links a packet
/// traverses from source host to destination host.
///
/// Paths in a two-tier Clos have at most 4 links (host→ToR, ToR→spine,
/// spine→ToR, ToR→host) and are stored inline — building one touches no
/// heap, which keeps flowlet intake allocation-free. The type still
/// supports arbitrary lengths, on the heap, so the NUM solvers can also be
/// exercised on synthetic topologies (parking-lot chains, random graphs)
/// in tests.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Path(Repr);

/// Links a [`Path`] holds without a heap allocation: the two-tier maximum.
const INLINE_LINKS: usize = 4;

/// Canonical by construction — a path of at most [`INLINE_LINKS`] links is
/// always `Inline` with its unused slots zeroed — so the derived `Eq` and
/// `Hash` compare paths, not representations.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Repr {
    Inline {
        len: u8,
        links: [LinkId; INLINE_LINKS],
    },
    Heap(Vec<LinkId>),
}

impl Path {
    /// Creates a path from an ordered list of links.
    ///
    /// # Panics
    /// Panics if `links` is empty: every flow traverses at least one link
    /// (§3: "Each flow passes through at least one link").
    pub fn new(links: Vec<LinkId>) -> Self {
        if links.len() <= INLINE_LINKS {
            Self::from_links(&links)
        } else {
            Path(Repr::Heap(links))
        }
    }

    /// [`Path::new`] from a slice; up to four links touch no heap.
    pub fn from_links(links: &[LinkId]) -> Self {
        assert!(!links.is_empty(), "a path must traverse at least one link");
        if links.len() > INLINE_LINKS {
            return Path(Repr::Heap(links.to_vec()));
        }
        let mut inline = [LinkId(0); INLINE_LINKS];
        inline[..links.len()].copy_from_slice(links);
        Path(Repr::Inline {
            len: links.len() as u8,
            links: inline,
        })
    }

    /// The links of the path, in traversal order.
    pub fn links(&self) -> &[LinkId] {
        match &self.0 {
            Repr::Inline { len, links } => &links[..*len as usize],
            Repr::Heap(links) => links,
        }
    }

    /// Number of links (hops) in the path.
    pub fn len(&self) -> usize {
        self.links().len()
    }

    /// Paths are never empty; provided for clippy-completeness.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Iterates over the links of the path.
    pub fn iter(&self) -> impl Iterator<Item = LinkId> + '_ {
        self.links().iter().copied()
    }
}

impl<'a> IntoIterator for &'a Path {
    type Item = LinkId;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, LinkId>>;

    fn into_iter(self) -> Self::IntoIter {
        self.links().iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_basic_accessors() {
        let p = Path::new(vec![LinkId(3), LinkId(7)]);
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
        assert_eq!(p.links(), &[LinkId(3), LinkId(7)]);
        let collected: Vec<LinkId> = p.iter().collect();
        assert_eq!(collected, vec![LinkId(3), LinkId(7)]);
        let collected2: Vec<LinkId> = (&p).into_iter().collect();
        assert_eq!(collected2, collected);
    }

    #[test]
    fn short_paths_are_inline_and_every_path_is_canonical() {
        use std::hash::{BuildHasher, RandomState};
        let hasher = RandomState::new();
        for n in 1..=8u32 {
            let links: Vec<LinkId> = (0..n).map(|l| LinkId(l * 3 + 1)).collect();
            let (owned, sliced) = (Path::new(links.clone()), Path::from_links(&links));
            let inline = matches!(owned.0, Repr::Inline { .. });
            assert_eq!(inline, n <= 4, "{n} links");
            assert_eq!(owned.links(), &links[..], "links() round-trips");
            assert_eq!(owned.len(), n as usize);
            assert_eq!(owned, sliced, "one representation per path");
            assert_eq!(hasher.hash_one(&owned), hasher.hash_one(&sliced));
            assert_eq!(owned.clone(), owned);
            // A prefix is a different path, whatever the spare slots hold.
            let prefix = Path::from_links(&links[..links.len().max(2) - 1]);
            assert_eq!(prefix != owned, n > 1);
        }
    }

    #[test]
    #[should_panic(expected = "at least one link")]
    fn empty_path_rejected() {
        let _ = Path::new(vec![]);
    }
}

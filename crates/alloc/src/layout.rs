//! LinkBlock layout: the mapping between global [`LinkId`]s and per-block
//! (LinkBlock, offset) slots.

use flowtune_topo::{BlockId, LinkId, TwoTierClos};

use crate::flowblock::sentinel;
use crate::reduce::{Dir, DIRS, UP};

/// Where a link lives in the block decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LinkSlot {
    /// `true` → the link belongs to its block's upward LinkBlock (a flag,
    /// not a `Dir`, so that an `Option<LinkSlot>` per fabric link stays
    /// 8 bytes).
    pub(crate) up: bool,
    /// Owning block.
    pub(crate) block: BlockId,
    /// Dense offset within the LinkBlock's arrays.
    pub(crate) offset: u16,
}

/// The static link partition of a fabric: B upward and B downward
/// LinkBlocks, all of identical size (§5: "each LinkBlock contains exactly
/// the same number of links, making transfer latency more predictable").
#[derive(Debug, Clone)]
pub(crate) struct BlockLayout {
    blocks: usize,
    links_per_lb: usize,
    /// The global id of every slot, in slot order: direction, then
    /// LinkBlock, then offset — LinkBlock `(d, b)` is the `lpl` ids from
    /// [`BlockLayout::first_slot`]`(d, b)`.
    slot_links: Vec<LinkId>,
    /// Per direction, per block: capacities of the LinkBlock's links
    /// (slot order), in Gbit/s.
    capacity: [Vec<Vec<f64>>; 2],
    /// Global link id → slot (None for control-plane links).
    slots: Vec<Option<LinkSlot>>,
}

impl BlockLayout {
    /// Builds the layout for a fabric, scaling capacities by
    /// `capacity_fraction` (see [`crate::AllocConfig::capacity_fraction`])
    /// and converting to Gbit/s.
    ///
    /// # Panics
    /// Panics if `capacity_fraction` is outside `(0, 1]` or a LinkBlock's
    /// sentinel does not fit a `u16` offset (see [`sentinel`]).
    pub(crate) fn new(fabric: &TwoTierClos, capacity_fraction: f64) -> Self {
        assert!(
            capacity_fraction > 0.0 && capacity_fraction <= 1.0,
            "capacity_fraction must be in (0, 1], got {capacity_fraction}"
        );
        let blocks = fabric.block_count();
        let topo = fabric.topology();
        let mut slots = vec![None; topo.link_count()];
        let (mut links, mut capacity): ([Vec<Vec<LinkId>>; 2], _) =
            ([vec![], vec![]], [vec![], vec![]]);
        let to_gbps = |l: &LinkId| topo.link(*l).capacity_bps as f64 / 1e9 * capacity_fraction;
        for dir in DIRS {
            let up = dir == UP;
            for b in 0..blocks {
                let block = BlockId(b as u16);
                let lb = if up {
                    fabric.up_linkblock(block)
                } else {
                    fabric.down_linkblock(block)
                };
                sentinel(lb.len());
                for (offset, &l) in (0..).zip(&lb) {
                    slots[l.index()] = Some(LinkSlot { up, block, offset });
                }
                capacity[dir].push(lb.iter().map(to_gbps).collect());
                links[dir].push(lb);
            }
        }
        let links_per_lb = links[UP].first().map_or(0, Vec::len);
        debug_assert!(links.iter().flatten().all(|v| v.len() == links_per_lb));
        Self {
            blocks,
            links_per_lb,
            slot_links: links.into_iter().flatten().flatten().collect(),
            capacity,
            slots,
        }
    }

    /// Number of blocks B.
    pub(crate) fn blocks(&self) -> usize {
        self.blocks
    }

    /// Links per LinkBlock (identical for every LinkBlock).
    pub(crate) fn links_per_lb(&self) -> usize {
        self.links_per_lb
    }

    /// Total links in the underlying topology (data-plane *and* control
    /// links) — the length of the tests' global-link-indexed views.
    #[cfg(test)]
    pub(crate) fn total_links(&self) -> usize {
        self.slots.len()
    }

    /// The slot of a global link, or `None` for control-plane links.
    pub(crate) fn slot(&self, link: LinkId) -> Option<LinkSlot> {
        self.slots.get(link.index()).copied().flatten()
    }

    /// The slot of offset 0 in LinkBlock `(d, b)`.
    pub(crate) fn first_slot(&self, d: Dir, b: usize) -> usize {
        (d * self.blocks + b) * self.links_per_lb
    }

    /// Global link ids of every slot, in slot order (see
    /// [`crate::SerialAllocator::link_slots`]).
    pub(crate) fn slot_links(&self) -> &[LinkId] {
        &self.slot_links
    }

    /// Global link ids of LinkBlock `(d, b)`, in slot order.
    #[cfg(test)]
    pub(crate) fn links(&self, d: Dir, b: usize) -> &[LinkId] {
        &self.slot_links[self.first_slot(d, b)..][..self.links_per_lb]
    }

    /// Capacities (Gbit/s, already scaled) of LinkBlock `(d, b)`.
    pub(crate) fn capacity(&self, d: Dir, b: usize) -> &[f64] {
        &self.capacity[d][b]
    }

    /// Splits a flow's path into (src-block up offsets, dst-block down
    /// offsets), verifying the block-locality invariant that makes the
    /// decomposition contention-free. Each half is [`Hops`]: inline, so
    /// registering a flow allocates nothing here.
    ///
    /// # Panics
    /// Panics if any path link is a control link or lies outside the
    /// expected LinkBlocks (which would indicate a routing bug), or if
    /// the path has more than two links in either direction.
    // flowtune-lint: hot
    pub(crate) fn split_path(
        &self,
        path: &flowtune_topo::Path,
        src_block: BlockId,
        dst_block: BlockId,
    ) -> (Hops, Hops) {
        let (mut up, mut down) = (Hops::default(), Hops::default());
        for link in path.iter() {
            let slot = self
                .slot(link)
                .unwrap_or_else(|| panic!("path crosses non-data link {link}"));
            let half = if slot.up {
                assert_eq!(slot.block, src_block, "up link outside source block");
                &mut up
            } else {
                assert_eq!(slot.block, dst_block, "down link outside destination block");
                &mut down
            };
            assert!(half.1 < half.0.len(), "2-tier paths only");
            half.0[half.1] = slot.offset;
            half.1 += 1;
        }
        (up, down)
    }
}

/// One direction of a split path: its LinkBlock offsets — two at most, the
/// two-tier maximum — and how many of them are real.
pub(crate) type Hops = ([u16; 2], usize);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduce::DOWN;
    use flowtune_topo::{ClosConfig, FlowId};

    fn fabric() -> TwoTierClos {
        TwoTierClos::build(ClosConfig::multicore(4, 2, 8))
    }

    #[test]
    fn every_data_link_has_exactly_one_slot() {
        let f = fabric();
        let layout = BlockLayout::new(&f, 1.0);
        let mut seen = std::collections::HashSet::new();
        for dir in DIRS {
            for b in 0..layout.blocks() {
                for (off, &l) in layout.links(dir, b).iter().enumerate() {
                    let offset = off as u16;
                    let block = BlockId(b as u16);
                    let up = dir == UP;
                    assert_eq!(layout.slot(l), Some(LinkSlot { up, block, offset }));
                    assert!(seen.insert(l));
                }
            }
        }
        assert_eq!(seen.len(), f.topology().link_count());
    }

    #[test]
    fn control_links_have_no_slot() {
        let mut f = fabric();
        f.attach_allocator();
        let layout = BlockLayout::new(&f, 1.0);
        let ctrl = f.allocator().unwrap().to_spine[0];
        assert_eq!(layout.slot(ctrl), None);
    }

    #[test]
    fn capacities_scaled_and_in_gbps() {
        let f = fabric();
        let layout = BlockLayout::new(&f, 0.99);
        // multicore config: 40 G host links.
        assert!((layout.capacity(UP, 0)[0] - 40.0 * 0.99).abs() < 1e-12);
    }

    #[test]
    fn split_path_respects_block_locality() {
        let f = fabric();
        let layout = BlockLayout::new(&f, 1.0);
        let src = 0usize;
        let dst = f.config().server_count() - 1;
        let path = f.path(src, dst, FlowId(9));
        let ((up, ups), (down, downs)) =
            layout.split_path(&path, f.block_of_server(src), f.block_of_server(dst));
        assert_eq!((ups, downs), (2, 2));
        // Offsets must point back at the path's links.
        let sb = f.block_of_server(src).index();
        let db = f.block_of_server(dst).index();
        assert_eq!(layout.links(UP, sb)[up[0] as usize], path.links()[0]);
        assert_eq!(layout.links(DOWN, db)[down[1] as usize], path.links()[3]);
    }

    #[test]
    fn same_rack_path_splits_one_one() {
        let f = fabric();
        let layout = BlockLayout::new(&f, 1.0);
        let path = f.path(0, 1, FlowId(3));
        let b = f.block_of_server(0);
        let ((_, ups), (_, downs)) = layout.split_path(&path, b, b);
        assert_eq!((ups, downs), (1, 1));
    }

    #[test]
    #[should_panic(expected = "2-tier paths only")]
    fn a_third_hop_one_way_is_caught() {
        let f = fabric();
        let layout = BlockLayout::new(&f, 1.0);
        let up = f.path(0, 63, FlowId(3)).links()[0];
        let b = f.block_of_server(0);
        let _ = layout.split_path(&flowtune_topo::Path::new(vec![up; 3]), b, b);
    }

    #[test]
    #[should_panic(expected = "a LinkBlock of 65536 links: its sentinel does not fit a u16 offset")]
    fn a_linkblock_past_u16_offsets_is_refused() {
        // One rack of 65 532 servers under 4 spines: 65 536 links a way.
        let f = TwoTierClos::build(ClosConfig::multicore(1, 1, 65_532));
        let _ = BlockLayout::new(&f, 1.0);
    }

    #[test]
    #[should_panic(expected = "outside source block")]
    fn wrong_block_is_caught() {
        let f = fabric();
        let layout = BlockLayout::new(&f, 1.0);
        let path = f.path(0, 63, FlowId(3));
        // Claim the flow belongs to the wrong source block.
        let _ = layout.split_path(&path, BlockId(3), f.block_of_server(63));
    }
}

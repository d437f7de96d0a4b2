//! LinkBlock layout: the mapping between global [`LinkId`]s and per-block
//! (LinkBlock, offset) slots.

use flowtune_topo::{BlockId, LinkId, TwoTierClos};

/// Where a link lives in the block decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkSlot {
    /// `true` → the link belongs to its block's upward LinkBlock.
    pub up: bool,
    /// Owning block.
    pub block: BlockId,
    /// Dense offset within the LinkBlock's arrays.
    pub offset: u32,
}

/// The static link partition of a fabric: B upward and B downward
/// LinkBlocks, all of identical size (§5: "each LinkBlock contains exactly
/// the same number of links, making transfer latency more predictable").
#[derive(Debug, Clone)]
pub struct BlockLayout {
    blocks: usize,
    links_per_lb: usize,
    /// Per block: global ids of its upward LinkBlock's links (slot order).
    up_links: Vec<Vec<LinkId>>,
    /// Per block: global ids of its downward LinkBlock's links.
    down_links: Vec<Vec<LinkId>>,
    /// Per block: capacities of the upward LinkBlock's links (slot order),
    /// in Gbit/s.
    up_capacity: Vec<Vec<f64>>,
    /// Per block: capacities of the downward LinkBlock's links, in Gbit/s.
    down_capacity: Vec<Vec<f64>>,
    /// Global link id → slot (None for control-plane links).
    slots: Vec<Option<LinkSlot>>,
}

impl BlockLayout {
    /// Builds the layout for a fabric, scaling capacities by
    /// `capacity_fraction` (see [`crate::AllocConfig::capacity_fraction`])
    /// and converting to Gbit/s.
    pub fn new(fabric: &TwoTierClos, capacity_fraction: f64) -> Self {
        assert!(
            capacity_fraction > 0.0 && capacity_fraction <= 1.0,
            "capacity fraction must be in (0, 1]"
        );
        let blocks = fabric.block_count();
        let topo = fabric.topology();
        let mut slots = vec![None; topo.link_count()];
        let mut up_links = Vec::with_capacity(blocks);
        let mut down_links = Vec::with_capacity(blocks);
        let mut up_capacity = Vec::with_capacity(blocks);
        let mut down_capacity = Vec::with_capacity(blocks);
        let to_gbps = |bps: u64| bps as f64 / 1e9 * capacity_fraction;
        for b in 0..blocks {
            let block = BlockId(b as u16);
            let up = fabric.up_linkblock(block);
            let down = fabric.down_linkblock(block);
            for (offset, &l) in up.iter().enumerate() {
                slots[l.index()] = Some(LinkSlot {
                    up: true,
                    block,
                    offset: offset as u32,
                });
            }
            for (offset, &l) in down.iter().enumerate() {
                slots[l.index()] = Some(LinkSlot {
                    up: false,
                    block,
                    offset: offset as u32,
                });
            }
            up_capacity.push(
                up.iter()
                    .map(|&l| to_gbps(topo.link(l).capacity_bps))
                    .collect(),
            );
            down_capacity.push(
                down.iter()
                    .map(|&l| to_gbps(topo.link(l).capacity_bps))
                    .collect(),
            );
            up_links.push(up);
            down_links.push(down);
        }
        let links_per_lb = up_links.first().map_or(0, Vec::len);
        debug_assert!(up_links.iter().all(|v| v.len() == links_per_lb));
        debug_assert!(down_links.iter().all(|v| v.len() == links_per_lb));
        Self {
            blocks,
            links_per_lb,
            up_links,
            down_links,
            up_capacity,
            down_capacity,
            slots,
        }
    }

    /// Number of blocks B.
    pub fn blocks(&self) -> usize {
        self.blocks
    }

    /// Links per LinkBlock (identical for every LinkBlock).
    pub fn links_per_lb(&self) -> usize {
        self.links_per_lb
    }

    /// Total links in the underlying topology (data-plane *and* control
    /// links) — the length of global-link-indexed vectors such as
    /// engine link-load exports.
    pub fn total_links(&self) -> usize {
        self.slots.len()
    }

    /// The slot of a global link, or `None` for control-plane links.
    pub fn slot(&self, link: LinkId) -> Option<LinkSlot> {
        self.slots.get(link.index()).copied().flatten()
    }

    /// Global link ids of block `b`'s upward LinkBlock, in slot order.
    pub fn up_links(&self, b: usize) -> &[LinkId] {
        &self.up_links[b]
    }

    /// Global link ids of block `b`'s downward LinkBlock, in slot order.
    pub fn down_links(&self, b: usize) -> &[LinkId] {
        &self.down_links[b]
    }

    /// Capacities (Gbit/s, already scaled) of block `b`'s upward
    /// LinkBlock.
    pub fn up_capacity(&self, b: usize) -> &[f64] {
        &self.up_capacity[b]
    }

    /// Capacities (Gbit/s, already scaled) of block `b`'s downward
    /// LinkBlock.
    pub fn down_capacity(&self, b: usize) -> &[f64] {
        &self.down_capacity[b]
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
    pub fn split_path(
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
pub type Hops = ([u32; 2], usize);

#[cfg(test)]
mod tests {
    use super::*;
    use flowtune_topo::{ClosConfig, FlowId};

    fn fabric() -> TwoTierClos {
        TwoTierClos::build(ClosConfig::multicore(4, 2, 8))
    }

    #[test]
    fn every_data_link_has_exactly_one_slot() {
        let f = fabric();
        let layout = BlockLayout::new(&f, 1.0);
        let mut seen = std::collections::HashSet::new();
        for b in 0..layout.blocks() {
            for (off, &l) in layout.up_links(b).iter().enumerate() {
                let s = layout.slot(l).unwrap();
                assert!(s.up && s.block == BlockId(b as u16) && s.offset == off as u32);
                assert!(seen.insert(l));
            }
            for (off, &l) in layout.down_links(b).iter().enumerate() {
                let s = layout.slot(l).unwrap();
                assert!(!s.up && s.block == BlockId(b as u16) && s.offset == off as u32);
                assert!(seen.insert(l));
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
        assert!((layout.up_capacity(0)[0] - 40.0 * 0.99).abs() < 1e-12);
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
        assert_eq!(layout.up_links(sb)[up[0] as usize], path.links()[0]);
        assert_eq!(layout.down_links(db)[down[1] as usize], path.links()[3]);
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
    #[should_panic(expected = "outside source block")]
    fn wrong_block_is_caught() {
        let f = fabric();
        let layout = BlockLayout::new(&f, 1.0);
        let path = f.path(0, 63, FlowId(3));
        // Claim the flow belongs to the wrong source block.
        let _ = layout.split_path(&path, BlockId(3), f.block_of_server(63));
    }
}

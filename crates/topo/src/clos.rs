//! Two-tier full-bisection Clos (leaf–spine) fabric builder.
//!
//! This is the topology of the paper's evaluation (§6.2): "a two-tier
//! full-bisection topology with 4 spine switches connected to 9 racks of 16
//! servers each, where servers are connected with a 10 Gbits/s link" — the
//! same topology as pFabric's evaluation, in which the leaf–spine links run
//! at 40 Gbit/s so the fabric has full bisection bandwidth
//! (16 × 10 G up = 4 × 40 G).
//!
//! The builder also exposes the *block* structure of §5: racks are grouped
//! into blocks; every block owns one **upward LinkBlock** (its servers'
//! server→ToR links plus its ToRs' ToR→spine links) and one **downward
//! LinkBlock** (spine→ToR plus ToR→server links into the block). A flow
//! from block *i* to block *j* touches only up-LinkBlock *i* and
//! down-LinkBlock *j*, which is what makes the multicore partitioning
//! contention-free.

use crate::ids::{BlockId, FlowId, LinkId, NodeId, RackId};
use crate::link::LinkDir;
use crate::topology::{NodeKind, Topology};
use crate::Path;

/// Configuration for [`TwoTierClos`].
#[derive(Debug, Clone, PartialEq)]
pub struct ClosConfig {
    /// Number of racks (= ToR switches).
    pub racks: usize,
    /// Servers per rack.
    pub servers_per_rack: usize,
    /// Number of spine switches; every ToR connects to every spine.
    pub spines: usize,
    /// Capacity of server↔ToR links, bits/s.
    pub host_link_bps: u64,
    /// Capacity of ToR↔spine links, bits/s.
    pub fabric_link_bps: u64,
    /// Per-link propagation delay, picoseconds (paper: 1.5 µs).
    pub link_delay_ps: u64,
    /// Per-server processing delay, picoseconds (paper: 2 µs).
    pub server_delay_ps: u64,
    /// Per-spine forwarding delay, picoseconds. 1 µs reproduces the
    /// paper's 22 µs 4-hop RTT together with the delays above (ToRs add
    /// zero), see `rtt_ps` tests.
    pub spine_delay_ps: u64,
    /// Racks per allocator block (§5). Must divide `racks` exactly for
    /// block-aware operations; topologies that don't use the multicore
    /// allocator may set it to `racks`.
    pub racks_per_block: usize,
}

impl ClosConfig {
    /// The evaluation topology of §6.2: 9 racks × 16 servers, 4 spines,
    /// 10 G hosts / 40 G fabric, 14 µs 2-hop and 22 µs 4-hop RTTs.
    ///
    /// 9 racks do not split evenly into power-of-two blocks, so the
    /// simulator runs the allocator single-block; the multicore benchmarks
    /// use [`ClosConfig::multicore`] instead, mirroring how the paper
    /// benchmarks the allocator on larger Jupiter-like fabrics.
    pub fn paper_eval() -> Self {
        Self {
            racks: 9,
            servers_per_rack: 16,
            spines: 4,
            host_link_bps: 10_000_000_000,
            fabric_link_bps: 40_000_000_000,
            link_delay_ps: 1_500_000,
            server_delay_ps: 2_000_000,
            spine_delay_ps: 1_000_000,
            racks_per_block: 9,
        }
    }

    /// A fabric for allocator benchmarks (§6.1): `blocks` blocks of
    /// `racks_per_block` racks of `servers_per_rack` servers, 40 G links
    /// (the paper's table assumes 40 Gbit/s links).
    pub fn multicore(blocks: usize, racks_per_block: usize, servers_per_rack: usize) -> Self {
        Self {
            racks: blocks * racks_per_block,
            servers_per_rack,
            spines: 4,
            host_link_bps: 40_000_000_000,
            fabric_link_bps: 40_000_000_000 * servers_per_rack as u64 / 4,
            link_delay_ps: 1_500_000,
            server_delay_ps: 2_000_000,
            spine_delay_ps: 1_000_000,
            racks_per_block,
        }
    }

    /// Total number of servers.
    pub fn server_count(&self) -> usize {
        self.racks * self.servers_per_rack
    }

    /// Number of blocks.
    pub fn block_count(&self) -> usize {
        self.racks / self.racks_per_block
    }
}

/// A built two-tier Clos fabric with id lookup tables and routing.
#[derive(Debug, Clone)]
pub struct TwoTierClos {
    cfg: ClosConfig,
    topo: Topology,
    servers: Vec<NodeId>,
    spines: Vec<NodeId>,
    /// server index → server→ToR link.
    up_host: Vec<LinkId>,
    /// server index → ToR→server link.
    down_host: Vec<LinkId>,
    /// rack index × spine index → ToR→spine link.
    up_fabric: Vec<Vec<LinkId>>,
    /// spine index × rack index → spine→ToR link.
    down_fabric: Vec<Vec<LinkId>>,
    /// The allocator node and its control links, if attached.
    allocator: Option<AllocatorAttachment>,
}

/// The allocator machine and its 40 G control links to every spine (§6.2:
/// "The allocator is connected using a 40 Gbits/s link to each of the spine
/// switches").
#[derive(Debug, Clone)]
pub struct AllocatorAttachment {
    /// The allocator's node id.
    pub node: NodeId,
    /// allocator→spine links, by spine index.
    pub to_spine: Vec<LinkId>,
    /// spine→allocator links, by spine index.
    pub from_spine: Vec<LinkId>,
}

impl TwoTierClos {
    /// Builds the fabric.
    ///
    /// # Panics
    /// Panics if any dimension is zero or if `racks_per_block` does not
    /// divide `racks`.
    pub fn build(cfg: ClosConfig) -> Self {
        assert!(cfg.racks > 0 && cfg.servers_per_rack > 0 && cfg.spines > 0);
        assert!(
            cfg.racks_per_block > 0 && cfg.racks.is_multiple_of(cfg.racks_per_block),
            "racks_per_block must divide racks"
        );
        let mut topo = Topology::new();

        let spines: Vec<NodeId> = (0..cfg.spines)
            .map(|_| topo.add_node(NodeKind::Spine, cfg.spine_delay_ps))
            .collect();
        let tors: Vec<NodeId> = (0..cfg.racks)
            .map(|_| topo.add_node(NodeKind::Tor, 0))
            .collect();
        let servers: Vec<NodeId> = (0..cfg.server_count())
            .map(|_| topo.add_node(NodeKind::Server, cfg.server_delay_ps))
            .collect();

        let mut up_host = Vec::with_capacity(servers.len());
        let mut down_host = Vec::with_capacity(servers.len());
        for (i, &s) in servers.iter().enumerate() {
            let tor = tors[i / cfg.servers_per_rack];
            up_host.push(topo.add_link(s, tor, cfg.host_link_bps, cfg.link_delay_ps, LinkDir::Up));
            down_host.push(topo.add_link(
                tor,
                s,
                cfg.host_link_bps,
                cfg.link_delay_ps,
                LinkDir::Down,
            ));
        }

        let mut up_fabric = vec![Vec::with_capacity(cfg.spines); cfg.racks];
        let mut down_fabric = vec![Vec::with_capacity(cfg.racks); cfg.spines];
        for (r, &tor) in tors.iter().enumerate() {
            for (sp, &spine) in spines.iter().enumerate() {
                up_fabric[r].push(topo.add_link(
                    tor,
                    spine,
                    cfg.fabric_link_bps,
                    cfg.link_delay_ps,
                    LinkDir::Up,
                ));
                down_fabric[sp].push(topo.add_link(
                    spine,
                    tor,
                    cfg.fabric_link_bps,
                    cfg.link_delay_ps,
                    LinkDir::Down,
                ));
            }
        }

        Self {
            cfg,
            topo,
            servers,
            spines,
            up_host,
            down_host,
            up_fabric,
            down_fabric,
            allocator: None,
        }
    }

    /// Attaches the allocator machine with 40 G links to every spine.
    /// Returns its node id. Idempotent: calling twice returns the same id.
    pub fn attach_allocator(&mut self) -> NodeId {
        if let Some(a) = &self.allocator {
            return a.node;
        }
        let node = self
            .topo
            .add_node(NodeKind::Allocator, self.cfg.server_delay_ps);
        let mut to_spine = Vec::with_capacity(self.spines.len());
        let mut from_spine = Vec::with_capacity(self.spines.len());
        for &sp in &self.spines {
            to_spine.push(self.topo.add_link(
                node,
                sp,
                40_000_000_000,
                self.cfg.link_delay_ps,
                LinkDir::Control,
            ));
            from_spine.push(self.topo.add_link(
                sp,
                node,
                40_000_000_000,
                self.cfg.link_delay_ps,
                LinkDir::Control,
            ));
        }
        self.allocator = Some(AllocatorAttachment {
            node,
            to_spine,
            from_spine,
        });
        node
    }

    /// The allocator attachment, if [`TwoTierClos::attach_allocator`] was called.
    pub fn allocator(&self) -> Option<&AllocatorAttachment> {
        self.allocator.as_ref()
    }

    /// The underlying graph.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The configuration this fabric was built from.
    pub fn config(&self) -> &ClosConfig {
        &self.cfg
    }

    /// Node ids of all servers, indexed by server index.
    pub fn servers(&self) -> &[NodeId] {
        &self.servers
    }

    /// Node ids of all spines, indexed by spine index.
    pub fn spines(&self) -> &[NodeId] {
        &self.spines
    }

    /// The rack a server belongs to.
    pub fn rack_of_server(&self, server: usize) -> RackId {
        RackId((server / self.cfg.servers_per_rack) as u16)
    }

    /// The block a rack belongs to.
    pub fn block_of_rack(&self, rack: RackId) -> BlockId {
        BlockId((rack.index() / self.cfg.racks_per_block) as u16)
    }

    /// The block a server belongs to.
    pub fn block_of_server(&self, server: usize) -> BlockId {
        self.block_of_rack(self.rack_of_server(server))
    }

    /// Number of blocks.
    pub fn block_count(&self) -> usize {
        self.cfg.block_count()
    }

    /// Deterministic ECMP spine choice for (src, dst, flow).
    ///
    /// Models a hash-based ECMP fabric: the allocator can recompute every
    /// flow's path from the same hash (§7 "Routing information can be
    /// computed from the network state: in ECMP-based networks, given the
    /// ECMP hash function").
    pub fn ecmp_spine(&self, src: usize, dst: usize, flow: FlowId) -> usize {
        let h = splitmix64(
            splitmix64(flow.0 ^ 0x9e37_79b9_7f4a_7c15) ^ ((src as u64) << 32) ^ dst as u64,
        );
        (h % self.cfg.spines as u64) as usize
    }

    /// The path of a flow from server `src` to server `dst`.
    ///
    /// Same-rack flows take 2 hops (server→ToR→server); all others take 4
    /// hops via the ECMP-chosen spine.
    ///
    /// # Panics
    /// Panics if `src == dst` or either index is out of range.
    pub fn path(&self, src: usize, dst: usize, flow: FlowId) -> Path {
        self.path_via_spine(src, dst, self.ecmp_spine(src, dst, flow))
    }

    /// The path of a flow through an explicitly-chosen spine — how the
    /// allocator reconstructs a path from the spine index carried in a
    /// `FlowletStart` notification (§7: the allocator must "know each
    /// flow's path"). Same-rack flows ignore `spine`.
    ///
    /// # Panics
    /// Panics if `src == dst`, any index is out of range, or `spine` is
    /// not a valid spine index for cross-rack flows.
    // flowtune-lint: hot
    pub fn path_via_spine(&self, src: usize, dst: usize, spine: usize) -> Path {
        assert_ne!(src, dst, "a flow needs distinct endpoints");
        let src_rack = self.rack_of_server(src).index();
        let dst_rack = self.rack_of_server(dst).index();
        if src_rack == dst_rack {
            Path::from_links(&[self.up_host[src], self.down_host[dst]])
        } else {
            Path::from_links(&[
                self.up_host[src],
                self.up_fabric[src_rack][spine],
                self.down_fabric[spine][dst_rack],
                self.down_host[dst],
            ])
        }
    }

    /// Control path from server `src` to the allocator (3 links) via the
    /// ECMP-chosen spine.
    ///
    /// # Panics
    /// Panics if the allocator is not attached.
    pub fn path_to_allocator(&self, src: usize, flow: FlowId) -> Path {
        let a = self.allocator.as_ref().expect("allocator not attached");
        let rack = self.rack_of_server(src).index();
        let sp = self.ecmp_spine(src, usize::MAX, flow);
        Path::new(vec![
            self.up_host[src],
            self.up_fabric[rack][sp],
            a.from_spine[sp],
        ])
    }

    /// Control path from the allocator to server `dst` (3 links).
    ///
    /// # Panics
    /// Panics if the allocator is not attached.
    pub fn path_from_allocator(&self, dst: usize, flow: FlowId) -> Path {
        let a = self.allocator.as_ref().expect("allocator not attached");
        let rack = self.rack_of_server(dst).index();
        let sp = self.ecmp_spine(usize::MAX, dst, flow);
        Path::new(vec![
            a.to_spine[sp],
            self.down_fabric[sp][rack],
            self.down_host[dst],
        ])
    }

    /// The server→ToR access link of a server.
    pub fn host_up_link(&self, server: usize) -> LinkId {
        self.up_host[server]
    }

    /// The ToR→server access link of a server.
    pub fn host_down_link(&self, server: usize) -> LinkId {
        self.down_host[server]
    }

    /// All links of block `b`'s **upward LinkBlock**: server→ToR links of
    /// its servers and ToR→spine links of its racks (Figure 2a).
    pub fn up_linkblock(&self, b: BlockId) -> Vec<LinkId> {
        let mut out = Vec::new();
        for rack in self.racks_of_block(b) {
            let first = rack * self.cfg.servers_per_rack;
            for s in first..first + self.cfg.servers_per_rack {
                out.push(self.up_host[s]);
            }
            out.extend_from_slice(&self.up_fabric[rack]);
        }
        out
    }

    /// All links of block `b`'s **downward LinkBlock**: spine→ToR links
    /// toward its racks and ToR→server links of its servers (Figure 2b).
    pub fn down_linkblock(&self, b: BlockId) -> Vec<LinkId> {
        let mut out = Vec::new();
        for rack in self.racks_of_block(b) {
            for sp in 0..self.cfg.spines {
                out.push(self.down_fabric[sp][rack]);
            }
            let first = rack * self.cfg.servers_per_rack;
            for s in first..first + self.cfg.servers_per_rack {
                out.push(self.down_host[s]);
            }
        }
        out
    }

    /// Rack indices of block `b`.
    pub fn racks_of_block(&self, b: BlockId) -> std::ops::Range<usize> {
        let first = b.index() * self.cfg.racks_per_block;
        first..first + self.cfg.racks_per_block
    }

    /// One-way latency of a path in picoseconds, counting link propagation
    /// and per-node forwarding delays of the interior nodes plus both
    /// endpoints (matches the paper's RTT accounting, see tests).
    pub fn path_latency_ps(&self, path: &Path) -> u64 {
        let mut total = 0;
        // Source node delay.
        total += self.topo.node(self.topo.link(path.links()[0]).src).delay_ps;
        for l in path.iter() {
            let link = self.topo.link(l);
            total += link.delay_ps;
            total += self.topo.node(link.dst).delay_ps;
        }
        total
    }
}

/// SplitMix64: a tiny, high-quality deterministic mixer used for ECMP
/// hashing (no external dependency, identical results on every platform).
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval_fabric() -> TwoTierClos {
        TwoTierClos::build(ClosConfig::paper_eval())
    }

    #[test]
    fn paper_eval_dimensions() {
        let f = eval_fabric();
        assert_eq!(f.servers().len(), 144);
        let nodes = f.topology().nodes().iter();
        assert_eq!(nodes.filter(|n| n.kind == NodeKind::Tor).count(), 9);
        assert_eq!(f.spines().len(), 4);
        // links: 144*2 host + 9*4*2 fabric = 288 + 72 = 360
        assert_eq!(f.topology().link_count(), 360);
    }

    #[test]
    fn full_bisection() {
        let f = eval_fabric();
        let cfg = f.config();
        let up_host = cfg.servers_per_rack as u64 * cfg.host_link_bps;
        let up_fabric = cfg.spines as u64 * cfg.fabric_link_bps;
        assert_eq!(up_host, up_fabric, "paper fabric has full bisection");
    }

    #[test]
    fn same_rack_path_has_two_hops() {
        let f = eval_fabric();
        let p = f.path(0, 1, FlowId(7));
        assert_eq!(p.len(), 2);
        assert_eq!(p.links()[0], f.host_up_link(0));
        assert_eq!(p.links()[1], f.host_down_link(1));
    }

    #[test]
    fn cross_rack_path_has_four_hops() {
        let f = eval_fabric();
        let p = f.path(0, 143, FlowId(7));
        assert_eq!(p.len(), 4);
        let topo = f.topology();
        // Contiguity: each link starts where the previous ended.
        for w in p.links().windows(2) {
            assert_eq!(topo.link(w[0]).dst, topo.link(w[1]).src);
        }
        assert_eq!(topo.link(p.links()[0]).src, f.servers()[0]);
        assert_eq!(topo.link(p.links()[3]).dst, f.servers()[143]);
    }

    #[test]
    fn rtt_matches_paper() {
        // §6.2: 14 µs 2-hop RTT and 22 µs 4-hop RTT.
        let f = eval_fabric();
        let p2 = f.path(0, 1, FlowId(1));
        assert_eq!(2 * f.path_latency_ps(&p2), 14_000_000);
        let p4 = f.path(0, 143, FlowId(1));
        assert_eq!(2 * f.path_latency_ps(&p4), 22_000_000);
    }

    #[test]
    fn ecmp_is_deterministic_and_spreads() {
        let f = eval_fabric();
        let a = f.ecmp_spine(0, 100, FlowId(42));
        let b = f.ecmp_spine(0, 100, FlowId(42));
        assert_eq!(a, b);
        // Different flows between the same pair should hit >1 spine.
        let mut seen = std::collections::HashSet::new();
        for fl in 0..64 {
            seen.insert(f.ecmp_spine(0, 100, FlowId(fl)));
        }
        assert!(seen.len() > 1, "ECMP should spread across spines");
    }

    #[test]
    fn blocks_partition_racks() {
        let cfg = ClosConfig::multicore(4, 2, 8); // 8 racks, 4 blocks
        let f = TwoTierClos::build(cfg);
        assert_eq!(f.block_count(), 4);
        assert_eq!(f.block_of_server(0), BlockId(0));
        assert_eq!(f.block_of_server(15), BlockId(0)); // rack 1, block 0
        assert_eq!(f.block_of_server(16), BlockId(1)); // rack 2, block 1
        assert_eq!(f.racks_of_block(BlockId(3)), 6..8);
    }

    #[test]
    fn linkblocks_cover_all_data_links_exactly_once() {
        let cfg = ClosConfig::multicore(2, 2, 4);
        let f = TwoTierClos::build(cfg);
        let mut seen = std::collections::HashSet::new();
        for b in 0..f.block_count() {
            for l in f
                .up_linkblock(BlockId(b as u16))
                .into_iter()
                .chain(f.down_linkblock(BlockId(b as u16)))
            {
                assert!(seen.insert(l), "link {l} appears in two LinkBlocks");
            }
        }
        assert_eq!(seen.len(), f.topology().link_count());
    }

    #[test]
    fn linkblock_sizes_are_uniform() {
        // §5: "each LinkBlock contains exactly the same number of links".
        let cfg = ClosConfig::multicore(4, 3, 8);
        let f = TwoTierClos::build(cfg);
        let up0 = f.up_linkblock(BlockId(0)).len();
        let down0 = f.down_linkblock(BlockId(0)).len();
        for b in 1..f.block_count() {
            assert_eq!(f.up_linkblock(BlockId(b as u16)).len(), up0);
            assert_eq!(f.down_linkblock(BlockId(b as u16)).len(), down0);
        }
    }

    #[test]
    fn flow_touches_only_its_blocks() {
        let cfg = ClosConfig::multicore(4, 2, 8);
        let f = TwoTierClos::build(cfg);
        let src = 0; // block 0
        let dst = f.config().server_count() - 1; // last block
        let p = f.path(src, dst, FlowId(5));
        let up: std::collections::HashSet<_> =
            f.up_linkblock(f.block_of_server(src)).into_iter().collect();
        let down: std::collections::HashSet<_> = f
            .down_linkblock(f.block_of_server(dst))
            .into_iter()
            .collect();
        for l in p.iter() {
            assert!(
                up.contains(&l) || down.contains(&l),
                "path link outside the flow's two LinkBlocks"
            );
        }
    }

    #[test]
    fn allocator_paths() {
        let mut f = eval_fabric();
        let node = f.attach_allocator();
        assert_eq!(f.attach_allocator(), node, "idempotent");
        let topo = f.topology();
        let to = f.path_to_allocator(5, FlowId(1));
        assert_eq!(to.len(), 3);
        assert_eq!(topo.link(to.links()[2]).dst, node);
        let from = f.path_from_allocator(5, FlowId(1));
        assert_eq!(from.len(), 3);
        assert_eq!(topo.link(from.links()[0]).src, node);
        assert_eq!(topo.link(from.links()[2]).dst, f.servers()[5]);
    }

    #[test]
    #[should_panic(expected = "distinct endpoints")]
    fn self_flow_rejected() {
        let f = eval_fabric();
        let _ = f.path(3, 3, FlowId(0));
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn bad_block_size_rejected() {
        let mut cfg = ClosConfig::paper_eval();
        cfg.racks_per_block = 2; // 9 racks not divisible by 2
        let _ = TwoTierClos::build(cfg);
    }
}

//! A multi-level radix page table, populated on first touch.
//!
//! Each tenant owns one [`PageTable`]. A walk over a [`Vpn`] yields the
//! physical addresses of the page-table entries read at each level (these
//! are what the walkers fetch through the L2/DRAM) plus the final frame
//! number. Interior nodes and leaf frames are allocated lazily from a shared
//! [`FrameAlloc`] the first time a page is touched — mirroring first-touch
//! demand allocation.
//!
//! The host-side layout is the radix tree itself: every node is a 512-slot
//! array next to the simulated frame that holds it, so a walk does one
//! indexed load per level and host memory grows with the page-table frames
//! allocated, not with the span of VPNs touched.

use walksteal_sim_core::{PhysAddr, Ppn, TenantId, Vpn};

use crate::frame::FrameAlloc;
use crate::page::PageSize;

/// Size of one page-table entry in bytes.
pub const PTE_BYTES: u64 = 8;

/// Entries per node: one 4 KB frame of [`PTE_BYTES`]-byte entries,
/// whatever the data page size.
const FANOUT: usize = 512;

/// Mask selecting a node's slot from an index-prefix.
const SLOT_MASK: u64 = FANOUT as u64 - 1;

/// An unset slot: no child node, or no page mapped.
const EMPTY: u64 = u64::MAX;

/// The result of resolving a [`Vpn`] through the radix tree.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WalkPath {
    /// Physical address of the entry read at each level, root first.
    /// A walker that hits the page-walk cache skips a prefix of these.
    pub entry_addrs: Vec<PhysAddr>,
    /// Physical address of each *node* visited, root first. Entry `i` of
    /// `entry_addrs` lies within node `i`. Used to fill the page-walk cache.
    pub node_addrs: Vec<PhysAddr>,
    /// The translated frame.
    pub ppn: Ppn,
}

/// One page-table node and the simulated frame that holds it.
#[derive(Debug, Clone)]
struct Node {
    frame: Ppn,
    /// In an interior node, the index into [`PageTable::nodes`] of the child
    /// each entry points to; in a last-level node, the data frame each
    /// entry maps. [`EMPTY`] where unset.
    slots: Box<[u64; FANOUT]>,
}

impl Node {
    fn new(frame: Ppn) -> Self {
        Node {
            frame,
            slots: Box::new([EMPTY; FANOUT]),
        }
    }

    fn addr(&self) -> PhysAddr {
        PhysAddr(self.frame.0 << 12)
    }
}

/// One tenant's multi-level page table.
///
/// # Examples
///
/// ```
/// use walksteal_vm::{FrameAlloc, PageSize, PageTable};
/// use walksteal_sim_core::{TenantId, Vpn};
///
/// let mut frames = FrameAlloc::new();
/// let mut pt = PageTable::new(TenantId(0), PageSize::Small4K);
/// let first = pt.walk_path(Vpn(7), &mut frames);
/// let again = pt.walk_path(Vpn(7), &mut frames);
/// assert_eq!(first, again); // mappings are stable
/// ```
#[derive(Debug, Clone)]
pub struct PageTable {
    tenant: TenantId,
    page_size: PageSize,
    /// Every node allocated so far; `nodes[0]` is the root once the first
    /// walk has run. Nodes are never freed or remapped.
    nodes: Vec<Node>,
    /// Children of the root for VPNs at or beyond the table's reach, as
    /// `(root prefix, node index)` sorted by prefix. The root entry such a
    /// VPN reads wraps onto an in-reach one, but each prefix owns a distinct
    /// subtree, so high VPNs never alias low ones.
    far: Vec<(u64, usize)>,
    touched_pages: u64,
    /// First touch of any page maps its whole aligned group of this many
    /// pages contiguously (1 = plain first-touch allocation). The
    /// contiguity guarantee behind Mosaic-style coalescing: page `i` of a
    /// group always lands `i * granules` frames past the group's base.
    reserve_pages: u64,
}

impl PageTable {
    /// Creates an empty page table for `tenant`.
    #[must_use]
    pub fn new(tenant: TenantId, page_size: PageSize) -> Self {
        debug_assert_eq!(1 << page_size.bits_per_level(), FANOUT);
        PageTable {
            tenant,
            page_size,
            nodes: Vec::new(),
            far: Vec::new(),
            touched_pages: 0,
            reserve_pages: 1,
        }
    }

    /// As [`new`](Self::new), but the first touch of any page eagerly maps
    /// its whole aligned group of `reserve_pages` pages to contiguous
    /// frames (Mosaic-style contiguity reservation).
    ///
    /// # Panics
    ///
    /// Panics if `reserve_pages` is not a power of two, or exceeds the 512
    /// entries of one last-level node (a group must not span two).
    #[must_use]
    pub fn with_reservation(tenant: TenantId, page_size: PageSize, reserve_pages: u64) -> Self {
        assert!(
            reserve_pages.is_power_of_two() && reserve_pages <= FANOUT as u64,
            "reservation group must be a power of two of at most {FANOUT} pages"
        );
        let mut pt = PageTable::new(tenant, page_size);
        pt.reserve_pages = reserve_pages;
        pt
    }

    /// The tenant owning this table.
    #[must_use]
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }

    /// The page size this table maps.
    #[must_use]
    pub fn page_size(&self) -> PageSize {
        self.page_size
    }

    /// Number of distinct pages touched (and thus mapped) so far.
    #[must_use]
    pub fn touched_pages(&self) -> u64 {
        self.touched_pages
    }

    /// Looks up the mapping for `vpn` without allocating.
    #[must_use]
    pub fn translate(&self, vpn: Vpn) -> Option<Ppn> {
        let last = self.page_size.levels() - 1;
        let leaf = self.descend(vpn, last)?;
        let ppn = self.nodes[leaf].slots[self.index_at(vpn, last)];
        (ppn != EMPTY).then_some(Ppn(ppn))
    }

    /// The radix index used at `level` (0 = root) for `vpn`.
    fn index_at(&self, vpn: Vpn, level: usize) -> usize {
        (self.prefix_at(vpn, level) & SLOT_MASK) as usize
    }

    /// The index-prefix consumed by levels `0..=level` of `vpn`.
    ///
    /// Two VPNs share the page-table node *entered after* `level` iff their
    /// prefixes at `level` are equal — this is the page-walk-cache key.
    #[must_use]
    pub fn prefix_at(&self, vpn: Vpn, level: usize) -> u64 {
        let bits = self.page_size.bits_per_level() as usize;
        let levels = self.page_size.levels();
        vpn.0 >> (bits * (levels - 1 - level))
    }

    /// The child `vpn` descends to from `node` at `level`, if allocated.
    /// The root resolves its children by the full prefix (see `far`).
    fn child(&self, node: usize, vpn: Vpn, level: usize) -> Option<usize> {
        let prefix = self.prefix_at(vpn, level);
        if level == 0 && prefix > SLOT_MASK {
            let i = self.far.binary_search_by_key(&prefix, |&(p, _)| p).ok()?;
            return Some(self.far[i].1);
        }
        let id = self.nodes[node].slots[(prefix & SLOT_MASK) as usize];
        (id != EMPTY).then_some(id as usize)
    }

    /// Allocates the missing child `vpn` descends to from `node` at
    /// `level`, and returns it.
    fn add_child(&mut self, node: usize, vpn: Vpn, level: usize, frames: &mut FrameAlloc) -> usize {
        let id = self.nodes.len();
        self.nodes.push(Node::new(frames.alloc()));
        let prefix = self.prefix_at(vpn, level);
        if level == 0 && prefix > SLOT_MASK {
            let at = self.far.partition_point(|&(p, _)| p < prefix);
            self.far.insert(at, (prefix, id));
        } else {
            self.nodes[node].slots[(prefix & SLOT_MASK) as usize] = id as u64;
        }
        id
    }

    /// The node reached after consuming levels `0..depth` of `vpn` (depth
    /// 0 is the root), or `None` where that subtree is not allocated.
    fn descend(&self, vpn: Vpn, depth: usize) -> Option<usize> {
        if self.nodes.is_empty() {
            return None;
        }
        (0..depth).try_fold(0, |node, level| self.child(node, vpn, level))
    }

    /// Resolves `vpn` through the tree, allocating any missing interior
    /// nodes and the leaf frame from `frames` (first touch).
    ///
    /// Returns the per-level entry addresses the walker must read, the node
    /// addresses (for page-walk-cache fills), and the final frame.
    pub fn walk_path(&mut self, vpn: Vpn, frames: &mut FrameAlloc) -> WalkPath {
        let mut out = WalkPath::default();
        self.walk_path_into(vpn, frames, &mut out);
        out
    }

    /// As [`walk_path`](Self::walk_path), but writes into `out`, reusing its
    /// buffers. The walker dispatch path calls this once per walk, so it
    /// must not allocate in steady state.
    ///
    /// Frames are allocated in walk order: the root on the first walk, then
    /// any missing nodes from the top down, then the data frames.
    pub fn walk_path_into(&mut self, vpn: Vpn, frames: &mut FrameAlloc, out: &mut WalkPath) {
        if self.nodes.is_empty() {
            self.nodes.push(Node::new(frames.alloc()));
        }
        let last = self.page_size.levels() - 1;
        out.entry_addrs.clear();
        out.node_addrs.clear();
        let mut node = 0;
        for level in 0..=last {
            let base = self.nodes[node].addr();
            out.node_addrs.push(base);
            out.entry_addrs.push(PhysAddr(
                base.0 + self.index_at(vpn, level) as u64 * PTE_BYTES,
            ));
            if level < last {
                node = match self.child(node, vpn, level) {
                    Some(child) => child,
                    None => self.add_child(node, vpn, level, frames),
                };
            }
        }
        let mapped = self.nodes[node].slots[self.index_at(vpn, last)];
        out.ppn = if mapped == EMPTY {
            self.map_group(node, vpn, frames)
        } else {
            Ppn(mapped)
        };
    }

    /// First touch of `vpn`: maps its aligned group of `reserve_pages`
    /// pages into last-level node `leaf`, page `i` of the group at frame
    /// offset `i * granules` (the contiguity Mosaic coalescing needs), and
    /// returns `vpn`'s frame. Data frames come in 4 KB granules; a large
    /// page reserves all of its granules so its cache lines never alias
    /// another allocation's.
    fn map_group(&mut self, leaf: usize, vpn: Vpn, frames: &mut FrameAlloc) -> Ppn {
        let granules = self.page_size.bytes() / 4096;
        let group_base = vpn.0 & !(self.reserve_pages - 1);
        let frame_base = frames.alloc_contiguous(granules * self.reserve_pages).0;
        let slots = &mut self.nodes[leaf].slots;
        for i in 0..self.reserve_pages {
            slots[((group_base + i) & SLOT_MASK) as usize] = frame_base + i * granules;
        }
        self.touched_pages += self.reserve_pages;
        Ppn(frame_base + (vpn.0 - group_base) * granules)
    }

    /// The node physical address a walk would continue from after consuming
    /// levels `0..=level` — i.e. what a page-walk-cache hit at `level`
    /// provides. Returns `None` if that subtree has not been allocated yet,
    /// and for the last level, which leads to a data page, not a node.
    #[must_use]
    pub fn node_after(&self, vpn: Vpn, level: usize) -> Option<PhysAddr> {
        if level + 1 >= self.page_size.levels() {
            return None;
        }
        self.descend(vpn, level + 1).map(|n| self.nodes[n].addr())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt() -> (PageTable, FrameAlloc) {
        (
            PageTable::new(TenantId(0), PageSize::Small4K),
            FrameAlloc::new(),
        )
    }

    #[test]
    fn walk_has_one_entry_per_level() {
        let (mut pt, mut f) = pt();
        let p = pt.walk_path(Vpn(0xABCDE), &mut f);
        assert_eq!(p.entry_addrs.len(), 4);
        assert_eq!(p.node_addrs.len(), 4);
    }

    #[test]
    fn large_pages_walk_three_levels() {
        let mut pt = PageTable::new(TenantId(0), PageSize::Large64K);
        let mut f = FrameAlloc::new();
        let p = pt.walk_path(Vpn(0x123), &mut f);
        assert_eq!(p.entry_addrs.len(), 3);
    }

    #[test]
    fn mapping_is_stable() {
        let (mut pt, mut f) = pt();
        let a = pt.walk_path(Vpn(42), &mut f);
        let b = pt.walk_path(Vpn(42), &mut f);
        assert_eq!(a, b);
        assert_eq!(pt.touched_pages(), 1);
    }

    #[test]
    fn distinct_pages_get_distinct_frames() {
        let (mut pt, mut f) = pt();
        let a = pt.walk_path(Vpn(1), &mut f).ppn;
        let b = pt.walk_path(Vpn(2), &mut f).ppn;
        assert_ne!(a, b);
        assert_eq!(pt.touched_pages(), 2);
    }

    #[test]
    fn neighboring_pages_share_upper_nodes() {
        let (mut pt, mut f) = pt();
        let a = pt.walk_path(Vpn(0x100), &mut f);
        let b = pt.walk_path(Vpn(0x101), &mut f);
        // Same leaf-level node, different entry within it.
        assert_eq!(a.node_addrs[3], b.node_addrs[3]);
        assert_ne!(a.entry_addrs[3], b.entry_addrs[3]);
        // And the same root.
        assert_eq!(a.node_addrs[0], b.node_addrs[0]);
    }

    #[test]
    fn far_pages_diverge_at_the_root() {
        let (mut pt, mut f) = pt();
        // Differ in the top 9 bits of a 36-bit VPN.
        let a = pt.walk_path(Vpn(0), &mut f);
        let b = pt.walk_path(Vpn(1 << 27), &mut f);
        assert_eq!(a.node_addrs[0], b.node_addrs[0]); // shared root node
        assert_ne!(a.entry_addrs[0], b.entry_addrs[0]); // different root entry
        assert_ne!(a.node_addrs[1], b.node_addrs[1]);
    }

    #[test]
    fn vpns_beyond_reach_get_their_own_subtree() {
        let (mut pt, mut f) = pt();
        let high_vpn = Vpn((1 << 36) | 5);
        let low = pt.walk_path(Vpn(5), &mut f);
        let high = pt.walk_path(high_vpn, &mut f);
        // The root index wraps onto the same entry, but the subtree and the
        // page are distinct.
        assert_eq!(low.entry_addrs[0], high.entry_addrs[0]);
        assert_ne!(low.node_addrs[1], high.node_addrs[1]);
        assert_ne!(low.ppn, high.ppn);
        assert_eq!(pt.translate(high_vpn), Some(high.ppn));
        assert_eq!(pt.node_after(high_vpn, 0), Some(high.node_addrs[1]));
    }

    #[test]
    #[should_panic(expected = "reservation group")]
    fn reservation_wider_than_a_node_is_rejected() {
        let _ = PageTable::with_reservation(TenantId(0), PageSize::Small4K, 1024);
    }

    #[test]
    fn translate_is_non_allocating() {
        let (mut pt, mut f) = pt();
        assert_eq!(pt.translate(Vpn(5)), None);
        let p = pt.walk_path(Vpn(5), &mut f);
        assert_eq!(pt.translate(Vpn(5)), Some(p.ppn));
    }

    #[test]
    fn node_after_matches_walk() {
        let (mut pt, mut f) = pt();
        let p = pt.walk_path(Vpn(0x2_0000), &mut f);
        // A PWC hit at level 2 yields the node read at level 3.
        assert_eq!(pt.node_after(Vpn(0x2_0000), 2), Some(p.node_addrs[3]));
        // An unwalked subtree has no node.
        assert_eq!(pt.node_after(Vpn(0x7777_0000), 2), None);
    }

    #[test]
    fn entry_addrs_lie_within_their_node_frame() {
        let (mut pt, mut f) = pt();
        let p = pt.walk_path(Vpn(0x1FF), &mut f);
        for (e, n) in p.entry_addrs.iter().zip(&p.node_addrs) {
            assert!(e.0 >= n.0 && e.0 < n.0 + 4096, "entry outside node frame");
        }
    }

    #[test]
    fn reservation_maps_aligned_groups_contiguously() {
        let mut pt = PageTable::with_reservation(TenantId(0), PageSize::Small4K, 8);
        let mut f = FrameAlloc::new();
        let base = pt.walk_path(Vpn(11), &mut f).ppn;
        // First touch of vpn 11 mapped its whole group 8..16; page i of the
        // group sits i frames past the group base.
        assert_eq!(pt.touched_pages(), 8);
        let group_base = Ppn(base.0 - 3);
        for i in 0..8u64 {
            assert_eq!(
                pt.translate(Vpn(8 + i)),
                Some(Ppn(group_base.0 + i)),
                "page {i}"
            );
        }
        // Touching another page of the same group allocates nothing new.
        assert_eq!(pt.walk_path(Vpn(8), &mut f).ppn, group_base);
        assert_eq!(pt.touched_pages(), 8);
    }

    #[test]
    fn reservation_of_one_matches_plain_first_touch() {
        let (mut plain, mut f1) = pt();
        let mut res = PageTable::with_reservation(TenantId(0), PageSize::Small4K, 1);
        let mut f2 = FrameAlloc::new();
        for v in [7u64, 3, 900, 7] {
            assert_eq!(
                plain.walk_path(Vpn(v), &mut f1),
                res.walk_path(Vpn(v), &mut f2)
            );
        }
        assert_eq!(plain.touched_pages(), res.touched_pages());
    }

    #[test]
    fn index_at_slices_vpn() {
        let (pt, _) = pt();
        // VPN bits: [L0:9][L1:9][L2:9][L3:9]
        let vpn = Vpn((1 << 27) | (2 << 18) | (3 << 9) | 4);
        assert_eq!(pt.index_at(vpn, 0), 1);
        assert_eq!(pt.index_at(vpn, 1), 2);
        assert_eq!(pt.index_at(vpn, 2), 3);
        assert_eq!(pt.index_at(vpn, 3), 4);
    }
}

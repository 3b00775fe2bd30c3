//! Addresses, cache lines, pages, and the CC-NUMA placement policy.
//!
//! Following §4.1 of the paper: *"Shared data pages are distributed in a
//! round-robin fashion among the nodes, and private data pages are allocated
//! locally."* The address space is split by the top bit: shared addresses
//! have bit 63 clear and their 4 KiB page number selects the home node
//! round-robin; private addresses have bit 63 set, carry their owning node
//! in bits 48..62, and are always homed at that node.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a node (one processor + caches + memory slice) in the
/// machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(u16);

impl NodeId {
    /// Creates a node id from its index.
    pub const fn new(index: u16) -> Self {
        NodeId(index)
    }

    /// The node's index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The node's index as the raw u16.
    pub const fn as_u16(self) -> u16 {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A byte address in the simulated physical address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Addr(u64);

/// Cache line size in bytes (Table 1: 64 B lines at both levels).
pub const LINE_BYTES: u64 = 64;
/// Page size in bytes for NUMA placement.
pub const PAGE_BYTES: u64 = 4096;

const PRIVATE_BIT: u64 = 1 << 63;
const PRIVATE_NODE_SHIFT: u32 = 48;
const PRIVATE_NODE_MASK: u64 = 0x7FFF;
const PRIVATE_OFFSET_MASK: u64 = (1 << PRIVATE_NODE_SHIFT) - 1;

impl Addr {
    /// Creates an address from its raw bits.
    pub const fn new(raw: u64) -> Self {
        Addr(raw)
    }

    /// Raw bits.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// The cache line containing this address.
    pub const fn line(self) -> LineAddr {
        LineAddr(self.0 / LINE_BYTES)
    }

    /// `true` if this address lies in some node's private region.
    pub const fn is_private(self) -> bool {
        self.0 & PRIVATE_BIT != 0
    }

    /// For private addresses, the owning node.
    pub fn private_owner(self) -> Option<NodeId> {
        if self.is_private() {
            Some(NodeId(
                ((self.0 >> PRIVATE_NODE_SHIFT) & PRIVATE_NODE_MASK) as u16,
            ))
        } else {
            None
        }
    }

    /// The 4 KiB page number (within the shared or the per-node private
    /// region).
    pub const fn page(self) -> u64 {
        (self.0 & !PRIVATE_BIT & PRIVATE_OFFSET_MASK) / PAGE_BYTES
    }

    /// Address `bytes` later.
    pub const fn offset(self, bytes: u64) -> Addr {
        Addr(self.0 + bytes)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(node) = self.private_owner() {
            write!(f, "priv[{node}]+{:#x}", self.0 & PRIVATE_OFFSET_MASK)
        } else {
            write!(f, "shared+{:#x}", self.0)
        }
    }
}

/// A cache-line address (byte address divided by the line size).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LineAddr(u64);

impl LineAddr {
    /// Raw line number.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// First byte address of the line.
    pub const fn base_addr(self) -> Addr {
        Addr(self.0 * LINE_BYTES)
    }

    /// The line `lines` lines later.
    pub(crate) const fn offset(self, lines: u64) -> LineAddr {
        LineAddr(self.0 + lines)
    }

    /// The first line of the next page: every line from this one up to
    /// it shares this line's page, and so its home.
    pub(crate) const fn next_page(self) -> LineAddr {
        LineAddr((self.0 | (PAGE_BYTES / LINE_BYTES - 1)) + 1)
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{:#x}", self.0)
    }
}

/// The machine's address-space layout: how many nodes exist and where each
/// line's home (directory + memory) lives.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemLayout {
    nodes: u16,
}

impl MemLayout {
    /// Creates a layout for `nodes` nodes.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= nodes <= 64` (the directory's sharer set is a
    /// 64-bit full map, matching the paper's 64-node system).
    pub fn new(nodes: u16) -> Self {
        assert!(
            (1..=64).contains(&nodes),
            "node count must be in 1..=64, got {nodes}"
        );
        MemLayout { nodes }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> u16 {
        self.nodes
    }

    /// An address in the shared region: byte `offset` within shared page
    /// `page`.
    ///
    /// # Panics
    ///
    /// Panics if `offset >= PAGE_BYTES` or the address would collide with
    /// the private region encoding.
    pub fn shared_addr(&self, page: u64, offset: u64) -> Addr {
        assert!(offset < PAGE_BYTES, "offset {offset} exceeds page size");
        let raw = page * PAGE_BYTES + offset;
        assert!(raw & PRIVATE_BIT == 0, "shared page number too large");
        Addr(raw)
    }

    /// An address in `node`'s private region: byte `offset` within private
    /// page `page`.
    ///
    /// # Panics
    ///
    /// Panics if the node is out of range, `offset >= PAGE_BYTES`, or the
    /// page number overflows the private region.
    pub fn private_addr(&self, node: NodeId, page: u64, offset: u64) -> Addr {
        assert!(
            node.index() < self.nodes as usize,
            "node {node} out of range (machine has {} nodes)",
            self.nodes
        );
        assert!(offset < PAGE_BYTES, "offset {offset} exceeds page size");
        let local = page * PAGE_BYTES + offset;
        assert!(
            local <= PRIVATE_OFFSET_MASK,
            "private page number too large"
        );
        Addr(PRIVATE_BIT | ((node.as_u16() as u64) << PRIVATE_NODE_SHIFT) | local)
    }

    /// The home node of a line: the node whose memory and directory slice
    /// own it. Shared pages are assigned round-robin by page number; private
    /// pages are homed at their owner.
    pub fn home_of(&self, line: LineAddr) -> NodeId {
        let addr = line.base_addr();
        if let Some(owner) = addr.private_owner() {
            owner
        } else if self.nodes.is_power_of_two() {
            // Every transaction past the L2 computes its home, so avoid
            // the integer division in the (universal in practice)
            // power-of-two case; the bus substrate permits other sizes.
            NodeId((addr.page() & (self.nodes as u64 - 1)) as u16)
        } else {
            NodeId((addr.page() % self.nodes as u64) as u16)
        }
    }

    /// Iterates over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes).map(NodeId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_math() {
        let a = Addr::new(130);
        assert_eq!(a.line().as_u64(), 2);
        assert_eq!(a.line().base_addr(), Addr::new(128));
        assert_eq!(a.offset(6), Addr::new(136));
    }

    #[test]
    fn shared_pages_round_robin() {
        let l = MemLayout::new(4);
        for page in 0..16 {
            let a = l.shared_addr(page, 0);
            assert_eq!(l.home_of(a.line()).index(), (page % 4) as usize);
        }
    }

    #[test]
    fn private_pages_are_local() {
        let l = MemLayout::new(8);
        for n in l.node_ids() {
            for page in 0..4 {
                let a = l.private_addr(n, page, 64);
                assert!(a.is_private());
                assert_eq!(a.private_owner(), Some(n));
                assert_eq!(l.home_of(a.line()), n);
            }
        }
    }

    #[test]
    fn private_regions_do_not_collide_across_nodes() {
        let l = MemLayout::new(64);
        let a = l.private_addr(NodeId::new(3), 7, 0);
        let b = l.private_addr(NodeId::new(4), 7, 0);
        assert_ne!(a, b);
        assert_ne!(a.line(), b.line());
    }

    #[test]
    fn shared_and_private_distinct() {
        let l = MemLayout::new(2);
        let s = l.shared_addr(0, 0);
        let p = l.private_addr(NodeId::new(0), 0, 0);
        assert_ne!(s, p);
        assert!(!s.is_private());
        assert_eq!(s.private_owner(), None);
    }

    #[test]
    fn page_numbers() {
        let l = MemLayout::new(2);
        assert_eq!(l.shared_addr(5, 100).page(), 5);
        assert_eq!(l.private_addr(NodeId::new(1), 9, 0).page(), 9);
    }

    #[test]
    #[should_panic(expected = "node count")]
    fn too_many_nodes_rejected() {
        let _ = MemLayout::new(65);
    }

    #[test]
    #[should_panic(expected = "exceeds page size")]
    fn oversized_offset_rejected() {
        MemLayout::new(2).shared_addr(0, PAGE_BYTES);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn private_node_out_of_range() {
        MemLayout::new(2).private_addr(NodeId::new(2), 0, 0);
    }

    #[test]
    fn display_formats() {
        let l = MemLayout::new(2);
        assert!(l.shared_addr(1, 0).to_string().contains("shared"));
        assert!(l
            .private_addr(NodeId::new(1), 0, 8)
            .to_string()
            .contains("priv[n1]"));
        assert_eq!(NodeId::new(3).to_string(), "n3");
        assert!(Addr::new(64).line().to_string().starts_with('L'));
    }

    #[test]
    fn node_ids_iterates_all() {
        let l = MemLayout::new(5);
        let ids: Vec<usize> = l.node_ids().map(|n| n.index()).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }
}

//! The interconnects that carry coherence transactions past the L2.
//!
//! The paper's machine uses a wormhole-routed hypercube with 250 MHz
//! pipelined routers, 16 ns pin-to-pin latency per hop, and 16 ns endpoint
//! (un)marshaling on each side. With wormhole routing and short coherence
//! messages, transfer time is dominated by the header path, so the model is
//! `marshal + hops × pin_to_pin + unmarshal` plus a serialization term for
//! payload-carrying messages (a 64 B cache line crossing a 16 B-wide path).
//!
//! Its related work (Jetty, serial snooping) targets bus-based SMPs
//! instead, so [`Interconnect`] also offers a snooping bus. For the thrifty
//! barrier the two differ in one place: the external wake-up. On a bus the
//! flag flip's invalidation is one broadcast that **all** sharers observe
//! at the same instant, while the directory sends staggered point-to-point
//! messages. The bus also serializes every miss, so arrival storms contend.

use crate::addr::NodeId;
use serde::{Deserialize, Serialize};
use tb_sim::Cycles;

/// How transactions that miss in the L2 reach memory and the other caches.
///
/// Both interconnects keep the same full-map sharer directory (on a bus it
/// plays the role of duplicate snoop tags); they differ only in the timing
/// of a transaction and in when its invalidations are delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Interconnect {
    /// Table 1: home directories on a [`Hypercube`]. A directory sends one
    /// invalidation every `dir_dispatch` (controller occupancy), and each
    /// travels point to point to its sharer.
    Hypercube {
        /// Serialization gap between successive invalidations.
        dir_dispatch: Cycles,
    },
    /// A snooping bus: every miss arbitrates for the one bus, and its
    /// address phase, which every controller snoops, invalidates all other
    /// copies at once. Data comes from memory or the owning cache in one
    /// data phase.
    Bus {
        /// Arbitration latency (request to grant, uncontended).
        arbitration: Cycles,
        /// Address-phase duration.
        snoop: Cycles,
    },
}

/// Hypercube topology with Table 1 latency parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Hypercube {
    nodes: u16,
    dimension: u32,
    pin_to_pin: Cycles,
    marshal: Cycles,
    line_serialization: Cycles,
}

impl Hypercube {
    /// Creates the Table 1 network for `nodes` nodes: 16 ns per hop, 16 ns
    /// marshaling and unmarshaling, 16 ns serialization for line-sized
    /// payloads (64 B over a 16 B-wide 250 MHz path).
    ///
    /// # Panics
    ///
    /// Panics unless `nodes` is a power of two in `1..=64`.
    pub fn table1(nodes: u16) -> Self {
        Hypercube::new(
            nodes,
            Cycles::from_nanos(16),
            Cycles::from_nanos(16),
            Cycles::from_nanos(16),
        )
    }

    /// Creates a hypercube with explicit latencies.
    ///
    /// # Panics
    ///
    /// Panics unless `nodes` is a power of two in `1..=64`.
    pub fn new(
        nodes: u16,
        pin_to_pin: Cycles,
        marshal: Cycles,
        line_serialization: Cycles,
    ) -> Self {
        assert!(
            (1..=64).contains(&nodes) && nodes.is_power_of_two(),
            "hypercube requires a power-of-two node count in 1..=64, got {nodes}"
        );
        Hypercube {
            nodes,
            dimension: nodes.trailing_zeros(),
            pin_to_pin,
            marshal,
            line_serialization,
        }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> u16 {
        self.nodes
    }

    /// The cube's dimension (log2 of the node count).
    pub fn dimension(&self) -> u32 {
        self.dimension
    }

    /// Number of router hops between two nodes: the Hamming distance of
    /// their ids.
    ///
    /// # Panics
    ///
    /// Panics if either node is outside the machine.
    pub fn hops(&self, a: NodeId, b: NodeId) -> u32 {
        assert!(
            a.index() < self.nodes as usize && b.index() < self.nodes as usize,
            "nodes {a},{b} outside a {}-node machine",
            self.nodes
        );
        (a.as_u16() ^ b.as_u16()).count_ones()
    }

    /// One-way latency of a header-only (control) message.
    ///
    /// Same-node "messages" (e.g. a request to the local directory) skip
    /// the network entirely and cost nothing here.
    pub fn control_latency(&self, from: NodeId, to: NodeId) -> Cycles {
        let hops = self.hops(from, to);
        if hops == 0 {
            return Cycles::ZERO;
        }
        self.marshal + self.pin_to_pin * hops as u64 + self.marshal
    }

    /// One-way latency of a message carrying a cache line.
    pub fn line_latency(&self, from: NodeId, to: NodeId) -> Cycles {
        let hops = self.hops(from, to);
        if hops == 0 {
            return Cycles::ZERO;
        }
        self.control_latency(from, to) + self.line_serialization
    }

    /// Worst-case hop count (the cube's diameter).
    pub fn diameter(&self) -> u32 {
        self.dimension
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hops_is_hamming_distance() {
        let net = Hypercube::table1(64);
        assert_eq!(net.hops(NodeId::new(0), NodeId::new(0)), 0);
        assert_eq!(net.hops(NodeId::new(0), NodeId::new(1)), 1);
        assert_eq!(net.hops(NodeId::new(0), NodeId::new(63)), 6);
        assert_eq!(net.hops(NodeId::new(0b101010), NodeId::new(0b010101)), 6);
        assert_eq!(net.hops(NodeId::new(5), NodeId::new(4)), 1);
    }

    #[test]
    fn diameter_is_dimension() {
        assert_eq!(Hypercube::table1(64).diameter(), 6);
        assert_eq!(Hypercube::table1(16).diameter(), 4);
        assert_eq!(Hypercube::table1(1).diameter(), 0);
    }

    #[test]
    fn control_latency_table1() {
        let net = Hypercube::table1(64);
        // 1 hop: 16 (marshal) + 16 (hop) + 16 (unmarshal) = 48 ns.
        assert_eq!(
            net.control_latency(NodeId::new(0), NodeId::new(1)),
            Cycles::from_nanos(48)
        );
        // 6 hops: 16 + 96 + 16 = 128 ns.
        assert_eq!(
            net.control_latency(NodeId::new(0), NodeId::new(63)),
            Cycles::from_nanos(128)
        );
    }

    #[test]
    fn local_messages_are_free() {
        let net = Hypercube::table1(8);
        assert_eq!(
            net.control_latency(NodeId::new(3), NodeId::new(3)),
            Cycles::ZERO
        );
        assert_eq!(
            net.line_latency(NodeId::new(3), NodeId::new(3)),
            Cycles::ZERO
        );
    }

    #[test]
    fn line_messages_pay_serialization() {
        let net = Hypercube::table1(64);
        let c = net.control_latency(NodeId::new(0), NodeId::new(7));
        let l = net.line_latency(NodeId::new(0), NodeId::new(7));
        assert_eq!(l, c + Cycles::from_nanos(16));
    }

    #[test]
    fn latency_is_symmetric() {
        let net = Hypercube::table1(32);
        for a in 0..32u16 {
            let b = (a * 7 + 3) % 32;
            assert_eq!(
                net.control_latency(NodeId::new(a), NodeId::new(b)),
                net.control_latency(NodeId::new(b), NodeId::new(a))
            );
        }
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn non_power_of_two_rejected() {
        let _ = Hypercube::table1(48);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_node_rejected() {
        Hypercube::table1(8).hops(NodeId::new(0), NodeId::new(8));
    }
}

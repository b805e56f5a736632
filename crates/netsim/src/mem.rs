//! Bytes a simulator holds, by category.
//!
//! [`MemBytes`] says where a world's memory lives. It is computed on
//! demand by walking the simulator's storage, and counts what the
//! allocator handed out: the capacity of every vector, deque and boxed
//! slice, and the inline size of the records they hold. It describes
//! host-side storage, not simulated state, so it is part of neither
//! [`crate::SimPerf`] nor any digest.
//!
//! Capacity is an upper bound on what the process keeps resident: pages
//! of a vector that were reserved but never written are not, so the
//! operating system's peak resident set reads below [`MemBytes::total`].

use std::collections::VecDeque;
use std::mem::size_of;

/// Bytes held per category, from [`crate::Simulator::mem_bytes`] or
/// [`crate::ShardedSimulator::mem_bytes`].
///
/// B-tree maps count their entries, not their node slack; controllers
/// count their own struct, not heap state behind it. CBR sources, fault
/// tables and the probe log are not counted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemBytes {
    /// Hot arena columns: one `SubflowSender`, `SubflowReceiver`, RTO
    /// timer pair and generation per hot slot, and the free lists.
    pub hot: u64,
    /// Scoreboard and reassembly ring words and retransmitted-out lists.
    pub rings: u64,
    /// Per-packet send metadata of every hot slot.
    pub sent_meta: u64,
    /// Connection records, their controllers and reinjection state.
    pub connections: u64,
    /// Subflow statistics frozen when a flow retires.
    pub final_stats: u64,
    /// Cold per-subflow rows (one per subflow ever admitted).
    pub cold: u64,
    /// Standalone routes (the sharded world keeps them in the world map).
    pub routes: u64,
    /// Per-call scratch buffers.
    pub scratch: u64,
    /// Event-queue storage.
    pub event_queue: u64,
    /// Link records and their fault-only state.
    pub link_records: u64,
    /// Link packet queues: the packet in service and those waiting.
    pub link_queues: u64,
    /// In-flight ACK payloads and their free list.
    pub ack_pool: u64,
    /// Cross-shard outboxes.
    pub outboxes: u64,
    /// Placement and routes of a sharded world.
    pub world_map: u64,
}

impl MemBytes {
    /// Every category with its name, in declaration order.
    pub fn categories(&self) -> [(&'static str, u64); 14] {
        [
            ("hot", self.hot),
            ("rings", self.rings),
            ("sent_meta", self.sent_meta),
            ("connections", self.connections),
            ("final_stats", self.final_stats),
            ("cold", self.cold),
            ("routes", self.routes),
            ("scratch", self.scratch),
            ("event_queue", self.event_queue),
            ("link_records", self.link_records),
            ("link_queues", self.link_queues),
            ("ack_pool", self.ack_pool),
            ("outboxes", self.outboxes),
            ("world_map", self.world_map),
        ]
    }

    /// The sum over every category.
    pub fn total(&self) -> u64 {
        self.categories().iter().map(|&(_, b)| b).sum()
    }
}

impl std::ops::AddAssign for MemBytes {
    fn add_assign(&mut self, o: Self) {
        self.hot += o.hot;
        self.rings += o.rings;
        self.sent_meta += o.sent_meta;
        self.connections += o.connections;
        self.final_stats += o.final_stats;
        self.cold += o.cold;
        self.routes += o.routes;
        self.scratch += o.scratch;
        self.event_queue += o.event_queue;
        self.link_records += o.link_records;
        self.link_queues += o.link_queues;
        self.ack_pool += o.ack_pool;
        self.outboxes += o.outboxes;
        self.world_map += o.world_map;
    }
}

/// Bytes a vector's buffer holds.
pub(crate) fn vec_bytes<T>(v: &Vec<T>) -> u64 {
    (v.capacity() * size_of::<T>()) as u64
}

/// Bytes a deque's buffer holds.
pub(crate) fn deque_bytes<T>(v: &VecDeque<T>) -> u64 {
    (v.capacity() * size_of::<T>()) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_is_the_sum_of_the_categories() {
        let mut m = MemBytes { hot: 3, world_map: 4, ..MemBytes::default() };
        m += MemBytes { rings: 5, hot: 1, ..MemBytes::default() };
        assert_eq!((m.hot, m.total()), (4, 13));
        assert_eq!(m.categories().len(), 14);
    }
}

//! The epidemic routing protocol (Vahdat & Becker, 2000) — the paper's
//! benchmark baseline.
//!
//! When two nodes come into contact they exchange *summary vectors* (the
//! ids of the messages they carry); each then requests the messages it
//! lacks, and the carrier transfers them. Every node keeps every message it
//! has ever successfully received (bounded only by the optional FIFO
//! buffer limit) — nothing is ever acknowledged end-to-end, which is
//! exactly the storage blow-up the paper's Tables 4/5 and Figure 7 measure
//! against.

use crate::buffer::{BufferedMessage, FifoBuffer};
use glr_sim::{Ctx, MessageId, MessageInfo, NodeId, PacketKind, Protocol};

/// Over-the-air packets of epidemic routing.
#[derive(Debug, Clone)]
pub enum EpidemicPacket {
    /// "These are the messages I carry."
    Summary(Vec<MessageId>),
    /// "Send me these."
    Request(Vec<MessageId>),
    /// A carried message copy.
    Data {
        /// End-to-end message facts.
        info: MessageInfo,
        /// Link hops taken by this copy, including the hop in flight.
        hops: u32,
    },
}

/// Size in bytes of a summary/request entry on the wire.
const ID_BYTES: u32 = 8;
/// Fixed control-packet header size in bytes.
const HDR_BYTES: u32 = 16;

/// One node's epidemic routing instance.
///
/// Construct per node via [`Epidemic::new`] and hand to
/// [`glr_sim::Simulation::new`]:
///
/// ```
/// use glr_epidemic::Epidemic;
/// use glr_sim::{SimConfig, Simulation, Workload};
///
/// let cfg = SimConfig::paper(250.0, 7).with_duration(60.0);
/// let wl = Workload::paper_style(50, 10, 1000);
/// let stats = Simulation::new(cfg, wl, Epidemic::new).run();
/// assert!(stats.delivery_ratio() > 0.0);
/// ```
#[derive(Debug)]
pub struct Epidemic {
    buffer: FifoBuffer,
}

impl Epidemic {
    /// Creates the protocol instance for `node`, honouring the
    /// configuration's storage limit.
    pub fn new(node: NodeId, config: &glr_sim::SimConfig) -> Self {
        let _ = node;
        Epidemic {
            buffer: FifoBuffer::new(config.storage_limit),
        }
    }

    fn send_summary(&self, ctx: &mut Ctx<'_, EpidemicPacket>, to: NodeId) {
        let sv = self.buffer.summary_vector();
        let size = HDR_BYTES + ID_BYTES * sv.len() as u32;
        let _ = ctx.send(to, EpidemicPacket::Summary(sv), size, PacketKind::Control);
    }

    fn store(&mut self, ctx: &mut Ctx<'_, EpidemicPacket>, msg: BufferedMessage) {
        if self.buffer.insert(msg).is_some() {
            ctx.report_storage_drop();
        }
    }
}

impl Protocol for Epidemic {
    type Packet = EpidemicPacket;

    fn on_message_created(&mut self, ctx: &mut Ctx<'_, Self::Packet>, info: MessageInfo) {
        self.store(ctx, BufferedMessage { info, hops: 0 });
        // The message was born after any standing contacts formed, so it
        // would otherwise wait for the next contact event; announce it to
        // the current neighbourhood (one summary each — receivers pull).
        for e in ctx.neighbors().iter() {
            self.send_summary(ctx, e.id);
        }
    }

    fn on_neighbor_appeared(&mut self, ctx: &mut Ctx<'_, Self::Packet>, nbr: NodeId) {
        if !self.buffer.is_empty() {
            self.send_summary(ctx, nbr);
        }
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_, Self::Packet>, from: NodeId, packet: Self::Packet) {
        match packet {
            EpidemicPacket::Summary(ids) => {
                let missing: Vec<MessageId> = ids
                    .into_iter()
                    .filter(|&id| !self.buffer.contains(id))
                    .collect();
                if !missing.is_empty() {
                    let size = HDR_BYTES + ID_BYTES * missing.len() as u32;
                    let _ = ctx.send(
                        from,
                        EpidemicPacket::Request(missing),
                        size,
                        PacketKind::Control,
                    );
                }
            }
            EpidemicPacket::Request(ids) => {
                for id in ids {
                    if let Some(m) = self.buffer.get(id) {
                        let pkt = EpidemicPacket::Data {
                            info: m.info,
                            hops: m.hops + 1,
                        };
                        // Queue overflow silently drops the tail of large
                        // transfers — the contention cost of flooding.
                        let _ = ctx.send(from, pkt, m.info.size, PacketKind::Data);
                    }
                }
            }
            EpidemicPacket::Data { info, hops } => {
                if info.dst == ctx.me() {
                    ctx.deliver(info.id, hops);
                }
                // Destination keeps carrying the copy too: without
                // end-to-end acks nobody knows it was delivered.
                self.store(ctx, BufferedMessage { info, hops });
            }
        }
    }

    fn storage_used(&self) -> usize {
        self.buffer.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glr_mobility::Region;
    use glr_sim::{SimConfig, Simulation, Workload};

    /// A small dense network where everyone is always within range: every
    /// message must be delivered quickly.
    fn dense_config(seed: u64) -> SimConfig {
        let mut c = SimConfig::paper(250.0, seed).with_duration(120.0);
        c.n_nodes = 10;
        c.region = Region::new(150.0, 150.0);
        c
    }

    #[test]
    fn delivers_in_dense_network() {
        let wl = Workload::paper_style(10, 5, 1000);
        let stats = Simulation::new(dense_config(1), wl, Epidemic::new).run();
        assert_eq!(stats.messages_created(), 5);
        assert_eq!(
            stats.messages_delivered(),
            5,
            "dense epidemic must deliver all"
        );
        assert!(stats.avg_latency().unwrap() < 10.0);
    }

    #[test]
    fn messages_replicate_to_many_nodes() {
        let wl = Workload::single(glr_sim::NodeId(0), glr_sim::NodeId(5), 1.0, 1000);
        let stats = Simulation::new(dense_config(2), wl, Epidemic::new).run();
        // One message flooded through 10 nodes: storage peak is 1 at
        // essentially every node, and data transmissions well exceed the
        // single end-to-end delivery.
        assert_eq!(stats.messages_delivered(), 1);
        assert!(
            stats.data_tx >= 5,
            "flooding should copy the message widely"
        );
        assert_eq!(stats.max_peak_storage(), 1);
    }

    #[test]
    fn storage_limit_causes_drops_under_load() {
        let mut cfg = dense_config(3);
        cfg.storage_limit = Some(2);
        let wl = Workload::paper_style(10, 40, 1000);
        let stats = Simulation::new(cfg, wl, Epidemic::new).run();
        assert!(stats.storage_drops > 0, "tiny buffers must evict");
        assert!(stats.max_peak_storage() <= 2);
    }

    #[test]
    fn no_delivery_across_partition() {
        // Two nodes pinned far apart in a huge region with tiny range.
        let mut cfg = SimConfig::paper(10.0, 4).with_duration(60.0);
        cfg.n_nodes = 2;
        cfg.region = Region::new(50_000.0, 50_000.0);
        cfg.speed_range = (0.0, 0.1);
        let wl = Workload::single(glr_sim::NodeId(0), glr_sim::NodeId(1), 1.0, 1000);
        let stats = Simulation::new(cfg, wl, Epidemic::new).run();
        assert_eq!(stats.messages_delivered(), 0);
    }

    #[test]
    fn hop_counts_reflect_relaying() {
        // A 3-node chain: 0 and 2 are never in range of each other, 1
        // shuttles between them? Simplest: dense network, hops >= 1.
        let wl = Workload::paper_style(10, 10, 1000);
        let stats = Simulation::new(dense_config(5), wl, Epidemic::new).run();
        let h = stats.avg_hops().unwrap();
        assert!(h >= 1.0, "delivered copies travelled at least one hop");
    }
}

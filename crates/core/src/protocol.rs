//! The GLR protocol proper: Algorithm 2 (geometric routing with controlled
//! flooding) plus store-and-forward, custody transfer, location diffusion,
//! face-routing recovery and stale-location perturbation.

use crate::config::{GlrConfig, LocationMode};
use crate::location::{LocationEstimate, LocationTable};
use crate::packet::{DataPacket, GlrPacket, DATA_HEADER_BYTES};
use crate::spanner::{face_next_hop, first_ccw_from_direction, SpannerScratch};
use crate::storage::{FaceState, MessageStore, RouteVerdict, StoredMessage};
use glr_geometry::{dstd_next_hop, DstdKind, Point2};
use glr_sim::{
    BuildIdHasher, Ctx, MessageId, MessageInfo, NodeId, PacketKind, Protocol, SimConfig, SimTime,
};
use rand::Rng;
use std::collections::HashMap;

/// Timer token for the periodic route check.
const ROUTE_CHECK: u64 = 1;

/// Hop budget for one face-recovery walk.
const FACE_BUDGET: u8 = 12;

/// How long a sent copy waits in the Cache for its custody
/// acknowledgement before being rescheduled (seconds).
const CACHE_TIMEOUT: f64 = 4.0;

/// Route checks without progress before the destination estimate is
/// perturbed (stale-location escape).
const STUCK_THRESHOLD: u32 = 10;

/// Link hops after which a copy is discarded (loop safety valve; far
/// above any observed path length).
const MAX_HOPS: u32 = 512;

/// One node's GLR instance.
///
/// Construct per node via [`Glr::new`] (paper defaults) or
/// [`Glr::with_config`] and hand to [`glr_sim::Simulation::new`]:
///
/// ```
/// use glr_core::Glr;
/// use glr_sim::{SimConfig, Simulation, Workload};
///
/// let cfg = SimConfig::paper(250.0, 11).with_duration(60.0);
/// let wl = Workload::paper_style(50, 10, 1000);
/// let stats = Simulation::new(cfg, wl, Glr::new).run();
/// assert!(stats.delivery_ratio() > 0.0);
/// ```
#[derive(Debug)]
pub struct Glr {
    cfg: GlrConfig,
    messages: MessageStore,
    locations: LocationTable,
    timer_armed: bool,
    /// Recently admitted copies, keyed by `(id, tag)` with the sender, hop
    /// count and admission time. A frame matching all three within the
    /// retransmission window is the *same transmission* arriving again
    /// (the custody ack was lost or late): it is re-acknowledged but not
    /// re-admitted — without this, every late acknowledgement would fork
    /// another copy into the network. A frame with a different sender or
    /// hop count is a legitimate revisit (the destination estimate moved)
    /// and is admitted normally.
    seen: HashMap<(MessageId, u8), (NodeId, u32, SimTime), BuildIdHasher>,
    /// Hash of the fresh one-hop neighbour set at the previous route check.
    last_nbr_hash: u64,
    /// Whether the neighbourhood changed since the previous check (set at
    /// the start of every routing pass).
    topology_changed: bool,
    /// Buffers the route check rebuilds the local spanner into.
    spanner: SpannerScratch,
    /// Bit per destination id, all clear between calls: the dedupe set of
    /// [`stuck_destinations`], kept to reuse its allocation. It only grows
    /// on nodes that hold stuck copies, to the largest such destination id
    /// (12.5 KiB at 100k nodes).
    dst_bits: Vec<u64>,
}

impl Glr {
    /// Creates a GLR instance with paper-default protocol parameters,
    /// honouring the simulation's storage limit.
    pub fn new(node: NodeId, sim: &SimConfig) -> Self {
        Self::with_config(node, sim, GlrConfig::paper())
    }

    /// Creates a GLR instance with explicit protocol parameters.
    pub fn with_config(node: NodeId, sim: &SimConfig, cfg: GlrConfig) -> Self {
        let _ = node;
        cfg.validate();
        Glr {
            cfg,
            messages: MessageStore::new(sim.storage_limit),
            locations: LocationTable::new(),
            timer_armed: false,
            seen: Default::default(),
            last_nbr_hash: 0,
            topology_changed: true,
            spanner: SpannerScratch::default(),
            dst_bits: Vec::new(),
        }
    }

    /// Returns a factory closure for [`glr_sim::Simulation::new`] that
    /// builds every node with the same protocol configuration.
    pub fn factory(cfg: GlrConfig) -> impl FnMut(NodeId, &SimConfig) -> Glr {
        move |node, sim| Glr::with_config(node, sim, cfg.clone())
    }

    fn ensure_timer(&mut self, ctx: &mut Ctx<'_, GlrPacket>) {
        if !self.timer_armed && !self.messages.is_empty() {
            ctx.set_timer(self.cfg.check_interval, ROUTE_CHECK);
            self.timer_armed = true;
        }
    }

    /// Initial destination estimate per the location-knowledge scenario.
    fn initial_dest_estimate(
        &mut self,
        ctx: &mut Ctx<'_, GlrPacket>,
        dst: NodeId,
    ) -> LocationEstimate {
        let now = ctx.now();
        match self.cfg.location_mode {
            LocationMode::AllKnow | LocationMode::SourceKnows => {
                LocationEstimate::new(ctx.true_pos(dst), now)
            }
            LocationMode::NoneKnow => {
                // "Random location is given at the beginning" — but anything
                // we have diffused beats a blind guess.
                if let Some(known) = self.locations.get(dst) {
                    return known;
                }
                let region = ctx.config().region;
                let x = ctx.rng().random_range(0.0..=region.width());
                let y = ctx.rng().random_range(0.0..=region.height());
                LocationEstimate::new(Point2::new(x, y), SimTime::ZERO)
            }
        }
    }

    /// One routing pass over the Store (the body of Algorithm 2).
    fn route_all(&mut self, ctx: &mut Ctx<'_, GlrPacket>) {
        let now = ctx.now();
        // One view of the fresh contacts serves the whole pass: folding
        // them into the long-term location table, and both filters below.
        let nbrs = ctx.neighbors();
        for e in &nbrs {
            self.locations
                .update(e.id, LocationEstimate::new(e.pos, e.heard_at));
        }
        if self.messages.is_empty() {
            return;
        }

        let my_pos = ctx.my_pos();
        let view = ctx.local_view();
        // Link-margin filter: a neighbour whose beacon is `age` seconds old
        // may have moved up to `v_max * age` metres; transmitting to an
        // entry without enough range margin mostly burns airtime on
        // retries (and the resulting slow acks fork custody). Half the
        // worst case is used as the expected displacement.
        let v_max = ctx.config().speed_range.1;
        let range = ctx.config().radio_range;
        let one_hop: Vec<NodeId> = nbrs
            .iter()
            .filter(|e| {
                let age = (now - e.heard_at).max(0.0);
                e.pos.dist(my_pos) <= range - 0.3 * v_max * age
            })
            .map(|e| e.id)
            .collect();
        // Direct contacts with destinations are too precious to filter: a
        // marginal link to the destination is always worth trying.
        let all_contacts: Vec<NodeId> = nbrs.iter().map(|e| e.id).collect();
        self.query_destinations(ctx, &one_hop);

        // Expired custody waits: retransmit to the same next hop once (the
        // receiver dedupes and re-acks if it already took custody), then
        // fall back to re-routing.
        for e in self.messages.take_expired(now) {
            if self.cfg.custody && e.attempts <= 1 && one_hop.contains(&e.sent_to) {
                ctx.count_event("glr.custody_retx");
                if self.transmit(ctx, e.sent_to, &e.msg) {
                    let backlog = ctx.tx_queue_len() as f64
                        * ctx.config().tx_time(e.msg.info.size + DATA_HEADER_BYTES);
                    self.messages.to_cache_with_attempts(
                        e.msg,
                        e.sent_to,
                        now + CACHE_TIMEOUT + backlog,
                        e.attempts + 1,
                    );
                    continue;
                }
            }
            ctx.count_event("glr.custody_reroute");
            self.messages.push(e.msg);
        }
        if self.messages.store_len() == 0 {
            return;
        }
        // Has the neighbourhood changed since the last pass? (FNV over the
        // sorted id set.)
        let mut ids: Vec<u32> = one_hop.iter().map(|n| n.0).collect();
        ids.sort_unstable();
        let mut hash: u64 = 0xcbf29ce484222325;
        for id in ids {
            hash ^= id as u64;
            hash = hash.wrapping_mul(0x100000001b3);
        }
        self.topology_changed = hash != self.last_nbr_hash;
        self.last_nbr_hash = hash;
        // The spanner buffers and the Store are taken out of `self` for the
        // pass, so `route_one` can borrow the neighbours and the pass can
        // walk the Store while the closure mutates the node; both are put
        // back at the end (`route_one`, `transmit` and
        // `perturb_destination` never touch `self.messages`).
        let mut scratch = std::mem::take(&mut self.spanner);
        let spanner = scratch.neighbors(
            my_pos,
            &view,
            &one_hop,
            ctx.config().radio_range,
            self.cfg.spanner,
        );
        let mut messages = std::mem::take(&mut self.messages);
        messages.route_store(|msg| {
            // Oracle mode refreshes the estimate at every hop/check.
            if self.cfg.location_mode == LocationMode::AllKnow {
                msg.dest_est = LocationEstimate::new(ctx.true_pos(msg.info.dst), now);
            } else if let Some(fresher) = self.locations.fresher_for(msg.info.dst, &msg.dest_est) {
                msg.dest_est = fresher;
            }

            match self.route_one(ctx, my_pos, spanner, &all_contacts, msg) {
                Some(next) => {
                    if !self.transmit(ctx, next, msg) {
                        // The link-layer queue is full: further send
                        // attempts this pass are pointless churn, so this
                        // copy and every one behind it wait, untouched,
                        // for the next check.
                        return RouteVerdict::Halt;
                    }
                    if !self.cfg.custody {
                        // Without custody the copy is forgotten on send.
                        return RouteVerdict::Forget;
                    }
                    // The acknowledgement cannot arrive before the frames
                    // already queued ahead have drained, so the custody
                    // timeout starts after the (locally-known) queue
                    // backlog.
                    let backlog = ctx.tx_queue_len() as f64
                        * ctx.config().tx_time(msg.info.size + DATA_HEADER_BYTES);
                    RouteVerdict::Sent {
                        to: next,
                        expires: now + CACHE_TIMEOUT + backlog,
                    }
                }
                None => {
                    msg.stuck_checks += 1;
                    // A copy stuck this long sits at the locally-closest
                    // node to a (probably stale) destination estimate; the
                    // paper's escape assigns a new nearby estimate "so that
                    // the node which is closest to the wrong location could
                    // deliver it out to another node". Being at the
                    // estimated spot makes staleness certain, so the escape
                    // fires sooner there; repeated escapes back off
                    // exponentially so a hard-to-reach destination does not
                    // turn into a permanent random walk.
                    let at_stale_spot = my_pos.dist(msg.dest_est.pos) <= ctx.config().radio_range;
                    let base = if at_stale_spot {
                        STUCK_THRESHOLD
                    } else {
                        STUCK_THRESHOLD * 4
                    };
                    let threshold = base << msg.perturbations.min(4);
                    if msg.stuck_checks >= threshold {
                        ctx.count_event("glr.perturb");
                        self.perturb_destination(ctx, msg);
                    }
                    RouteVerdict::Keep
                }
            }
        });
        self.messages = messages;
        self.spanner = scratch;
    }

    /// Picks the next hop for one copy; `None` leaves it stored.
    fn route_one(
        &mut self,
        ctx: &mut Ctx<'_, GlrPacket>,
        my_pos: Point2,
        spanner: &[(NodeId, Point2)],
        one_hop: &[NodeId],
        msg: &mut StoredMessage,
    ) -> Option<NodeId> {
        let dst = msg.info.dst;
        // Direct contact with the destination trumps everything.
        if one_hop.contains(&dst) {
            msg.face = None;
            return Some(dst);
        }
        let est = msg.dest_est.pos;
        let my_d = my_pos.dist(est);

        // Perimeter (face) mode.
        if let Some(fs) = msg.face {
            if my_d < fs.entry_dist {
                msg.face = None; // recovered: resume greedy below
            } else if fs.entry == ctx.me() && fs.prev != ctx.me() {
                // Walked the whole face back to the entry point without
                // progress: the estimate is hopeless — perturb and retry.
                msg.face = None;
                self.perturb_destination(ctx, msg);
                return None;
            } else if fs.budget == 0 {
                // Walk budget exhausted: wait for mobility instead.
                msg.face = None;
                msg.stuck_checks = msg.stuck_checks.max(1);
                return None;
            } else {
                let next = face_next_hop(my_pos, spanner, fs.prev, est)?;
                msg.face = Some(FaceState {
                    prev: ctx.me(),
                    budget: fs.budget - 1,
                    ..fs
                });
                return Some(next);
            }
        }

        // Greedy along this copy's DSTD tree.
        if let Some(next) = dstd_next_hop(my_pos, est, spanner, msg.tree) {
            return Some(next);
        }

        // Local minimum: enter face recovery — but only on a *fresh*
        // failure or after the neighbourhood changed (the paper resends
        // stored messages "when its relative location with respect to the
        // neighbouring nodes changes"); otherwise the same doomed walk
        // would be re-launched every check interval.
        if msg.stuck_checks > 0 && !self.topology_changed {
            return None;
        }
        let entry_next = first_ccw_from_direction(my_pos, spanner, est)?;
        if spanner.len() < 2 {
            // A single edge can only ping-pong; store and wait instead.
            return None;
        }
        msg.face = Some(FaceState {
            entry: ctx.me(),
            entry_dist: my_d,
            prev: ctx.me(),
            budget: FACE_BUDGET,
        });
        Some(entry_next)
    }

    /// Queues the data frame; `true` on success.
    fn transmit(&mut self, ctx: &mut Ctx<'_, GlrPacket>, to: NodeId, msg: &StoredMessage) -> bool {
        let pkt = GlrPacket::Data(DataPacket {
            info: msg.info,
            tree: msg.tree,
            copy_tag: msg.copy_tag,
            hops: msg.hops + 1,
            dest_est: msg.dest_est,
            face: msg.face,
            perturbations: msg.perturbations,
        });
        let size = pkt.wire_size();
        ctx.send(to, pkt, size, PacketKind::Data).is_ok()
    }

    /// Location diffusion during the neighbour-info collection phase of a
    /// route check: send stuck destinations' current estimates to the
    /// neighbourhood; anyone knowing better replies.
    fn query_destinations(&mut self, ctx: &mut Ctx<'_, GlrPacket>, one_hop: &[NodeId]) {
        if one_hop.is_empty() {
            return;
        }
        let entries = stuck_destinations(&self.messages, &mut self.dst_bits);
        if entries.is_empty() {
            return;
        }
        let pkt = GlrPacket::LocQuery(entries);
        let size = pkt.wire_size();
        for &n in one_hop {
            let _ = ctx.send(n, pkt.clone(), size, PacketKind::Control);
        }
    }

    /// Stale-location escape: assign a fresh random estimate near the old
    /// one, widening with each attempt (paper §3.3).
    ///
    /// The perturbed estimate is stamped *now*: everything the network
    /// knew before this moment was evidently not leading anywhere, so only
    /// sightings newer than the perturbation may override it. (Stamping it
    /// older lets any relay's equally-stale table entry snap the copy
    /// right back to the attractor it just escaped.)
    fn perturb_destination(&mut self, ctx: &mut Ctx<'_, GlrPacket>, msg: &mut StoredMessage) {
        let region = ctx.config().region;
        let radius = ctx.config().radio_range * (1.0 + msg.perturbations as f64);
        let angle = ctx.rng().random_range(0.0..std::f64::consts::TAU);
        let r = ctx.rng().random_range(0.5..=1.0) * radius;
        let p = region.clamp(msg.dest_est.pos + Point2::new(angle.cos(), angle.sin()) * r);
        msg.dest_est = if self.cfg.perturb_gossip {
            // Shared-rendezvous variant: the new estimate is "fresh" and
            // may spread; only sightings after this moment override it.
            LocationEstimate::new(p, ctx.now())
        } else {
            // Message-local variant: the guess inherits the base
            // observation's timestamp, so real sightings newer than the
            // base still override it (each snap-back ratchets the base
            // upward until the stale consensus is exhausted).
            LocationEstimate::guess(p, msg.dest_est.at)
        };
        msg.perturbations += 1;
        msg.stuck_checks = 0;
    }

    fn handle_data(&mut self, ctx: &mut Ctx<'_, GlrPacket>, from: NodeId, d: DataPacket) {
        // Location diffusion: learn from the carried estimate, and tell the
        // sender if we know better.
        let fresher_back = self.locations.fresher_for(d.info.dst, &d.dest_est);
        self.locations.update(d.info.dst, d.dest_est);

        if self.cfg.custody {
            let ack = GlrPacket::HopAck {
                id: d.info.id,
                copy_tag: d.copy_tag,
                fresher_dest: fresher_back.map(|est| (d.info.dst, est)),
            };
            let size = ack.wire_size();
            let _ = ctx.send(from, ack, size, PacketKind::Control);
        }

        if d.info.dst == ctx.me() {
            ctx.deliver(d.info.id, d.hops);
            return;
        }
        if d.hops >= MAX_HOPS {
            ctx.count_event("glr.ttl_drop");
            return; // loop safety valve
        }
        if self.messages.contains(d.info.id, d.copy_tag) {
            return; // duplicate copy already in custody here
        }
        // Exact-retransmission dedupe (same sender, same hop count, within
        // the window): re-acknowledged above but not re-admitted.
        let key = (d.info.id, d.copy_tag);
        let now = ctx.now();
        let window = 2.0 * CACHE_TIMEOUT;
        if let Some(&(from0, hops0, t)) = self.seen.get(&key) {
            if from0 == from && hops0 == d.hops && now - t < window {
                ctx.count_event("glr.retx_dedupe");
                return;
            }
        }
        self.seen.insert(key, (from, d.hops, now));
        let mut msg = StoredMessage::new(d.info, d.tree, d.copy_tag, d.dest_est);
        msg.hops = d.hops;
        msg.face = d.face;
        msg.perturbations = d.perturbations;
        // Apply any fresher local knowledge immediately.
        if let Some(fresher) = self.locations.fresher_for(d.info.dst, &msg.dest_est) {
            msg.dest_est = fresher;
        }
        let outcome = self.messages.push(msg);
        for _ in 0..outcome.evicted {
            ctx.report_storage_drop();
        }
        if !outcome.stored {
            ctx.report_storage_drop();
        }
        self.ensure_timer(ctx);
    }
}

/// The destinations of the Store's stuck copies (`stuck_checks >= 1`), each
/// once, with the estimate of its first stuck copy, in first-occurrence
/// order. `bits` is a destination-id bit set, all clear on entry and on
/// return: it grows to the largest id seen and only the bits set here are
/// cleared, so a call costs O(store), not O(store × entries).
fn stuck_destinations(
    messages: &MessageStore,
    bits: &mut Vec<u64>,
) -> Vec<(NodeId, LocationEstimate)> {
    let mut entries = Vec::new();
    for m in messages.iter_store().filter(|m| m.stuck_checks >= 1) {
        let i = m.info.dst.index();
        if i / 64 >= bits.len() {
            bits.resize(i / 64 + 1, 0);
        }
        let bit = 1u64 << (i % 64);
        if bits[i / 64] & bit == 0 {
            bits[i / 64] |= bit;
            entries.push((m.info.dst, m.dest_est));
        }
    }
    for (dst, _) in &entries {
        bits[dst.index() / 64] &= !(1u64 << (dst.index() % 64));
    }
    entries
}

impl Protocol for Glr {
    type Packet = GlrPacket;

    fn on_message_created(&mut self, ctx: &mut Ctx<'_, Self::Packet>, info: MessageInfo) {
        let est = self.initial_dest_estimate(ctx, info.dst);
        let sim = ctx.config();
        // Table 2 pins copy counts per scenario via the policy; the
        // default adaptive policy decides from density (Algorithm 1).
        let copies = self
            .cfg
            .copy_policy
            .copies(sim.n_nodes, sim.radio_range, sim.region);
        for (tag, tree) in DstdKind::for_copies(copies).into_iter().enumerate() {
            self.seen
                .insert((info.id, tag as u8), (ctx.me(), 0, ctx.now()));
            let msg = StoredMessage::new(info, tree, tag as u8, est);
            let outcome = self.messages.push(msg);
            for _ in 0..outcome.evicted {
                ctx.report_storage_drop();
            }
            if !outcome.stored {
                ctx.report_storage_drop();
            }
        }
        // "A node initiates the geometric routing process if it has
        // messages in its storage area" — first pass happens immediately.
        self.route_all(ctx);
        self.ensure_timer(ctx);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_, Self::Packet>, from: NodeId, packet: Self::Packet) {
        match packet {
            GlrPacket::Data(d) => self.handle_data(ctx, from, d),
            GlrPacket::HopAck {
                id,
                copy_tag,
                fresher_dest,
            } => {
                self.messages.ack(id, copy_tag);
                if let Some((dst, est)) = fresher_dest {
                    self.locations.update(dst, est);
                    self.messages.refresh_destination(dst, est);
                }
            }
            GlrPacket::LocQuery(entries) => {
                let mut fresher = Vec::new();
                for (dst, est) in entries {
                    if let Some(mine) = self.locations.fresher_for(dst, &est) {
                        fresher.push((dst, mine));
                    }
                    self.locations.update(dst, est);
                }
                if !fresher.is_empty() {
                    let pkt = GlrPacket::LocReply(fresher);
                    let size = pkt.wire_size();
                    let _ = ctx.send(from, pkt, size, PacketKind::Control);
                }
            }
            GlrPacket::LocReply(entries) => {
                for (dst, est) in entries {
                    self.locations.update(dst, est);
                    self.messages.refresh_destination(dst, est);
                }
            }
        }
    }

    fn on_neighbor_appeared(&mut self, ctx: &mut Ctx<'_, Self::Packet>, nbr: NodeId) {
        // Contact-time location exchange (paper §2.3.1): remember where we
        // met everyone.
        if let Some(e) = ctx.neighbors().iter().find(|e| e.id == nbr) {
            self.locations
                .update(e.id, LocationEstimate::new(e.pos, e.heard_at));
        }
        self.ensure_timer(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self::Packet>, token: u64) {
        if token != ROUTE_CHECK {
            return;
        }
        self.timer_armed = false;
        self.route_all(ctx);
        self.ensure_timer(ctx);
    }

    fn storage_used(&self) -> usize {
        self.messages.total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glr_mobility::Region;
    use glr_sim::{SimConfig, Simulation, Workload};

    fn dense_config(seed: u64) -> SimConfig {
        let mut c = SimConfig::paper(250.0, seed).with_duration(120.0);
        c.n_nodes = 10;
        c.region = Region::new(150.0, 150.0);
        c
    }

    #[test]
    fn stuck_destinations_dedupes_in_first_occurrence_order() {
        use glr_geometry::Point2;
        use glr_sim::{MessageId, SimTime};
        let stored = |seq: u32, dst: u32, stuck: u32| {
            let info = MessageInfo {
                id: MessageId {
                    src: NodeId(0),
                    seq,
                },
                dst: NodeId(dst),
                size: 1000,
                created: SimTime::ZERO,
            };
            let est = LocationEstimate::new(Point2::new(seq as f64, 0.0), SimTime::ZERO);
            let mut m = StoredMessage::new(info, DstdKind::Max, 0, est);
            m.stuck_checks = stuck;
            m
        };
        let mut store = MessageStore::new(None);
        // (seq, dst, stuck_checks): dst 7 first occurs unstuck (seq 0), so
        // its entry comes from seq 4; ids straddle several 64-bit words.
        for (seq, dst, stuck) in [
            (0, 7, 0),
            (1, 200, 1),
            (2, 65, 2),
            (3, 200, 1),
            (4, 7, 1),
            (5, 64, 1),
            (6, 65, 1),
        ] {
            store.push(stored(seq, dst, stuck));
        }
        let mut bits = Vec::new();
        let want: Vec<(NodeId, f64)> = [(200, 1.0), (65, 2.0), (7, 4.0), (64, 5.0)]
            .map(|(d, x)| (NodeId(d), x))
            .to_vec();
        for _ in 0..3 {
            let got: Vec<(NodeId, f64)> = stuck_destinations(&store, &mut bits)
                .into_iter()
                .map(|(d, est)| (d, est.pos.x))
                .collect();
            assert_eq!(got, want);
            assert!(bits.iter().all(|&w| w == 0), "bits cleared after a call");
        }
        assert_eq!(bits.len(), 4, "sized to the largest id seen");
    }

    #[test]
    fn delivers_in_dense_network() {
        let wl = Workload::paper_style(10, 5, 1000);
        let stats = Simulation::new(dense_config(1), wl, Glr::new).run();
        assert_eq!(stats.messages_created(), 5);
        assert_eq!(stats.messages_delivered(), 5, "dense GLR must deliver all");
        // Dense regime: the adaptive policy uses a single copy, so the
        // number of data transmissions stays modest (one custody chain per
        // message, not a flood).
        assert!(stats.data_tx < 60, "data_tx = {}", stats.data_tx);
    }

    #[test]
    fn single_copy_in_dense_regime() {
        // In a dense deployment the source launches exactly one copy; peak
        // storage at the source right after creation is therefore 1.
        let wl = Workload::single(NodeId(0), NodeId(5), 1.0, 1000);
        let stats = Simulation::new(dense_config(2), wl, Glr::new).run();
        assert_eq!(stats.messages_delivered(), 1);
        assert!(stats.max_peak_storage() <= 1);
    }

    #[test]
    fn paper_strip_sparse_uses_multiple_copies() {
        // 100 m in the strip is the 3-copy regime: right after creation the
        // source holds 3 copies.
        let cfg = SimConfig::paper(100.0, 3).with_duration(200.0);
        let wl = Workload::paper_style(50, 20, 1000);
        let stats = Simulation::new(cfg, wl, Glr::new).run();
        // At least one source held 3 copies at some sample point, or the
        // copies left within the first second; peak storage across the run
        // must reflect multi-copy operation somewhere.
        assert!(
            stats.max_peak_storage() >= 2,
            "multi-copy regime should show in storage peaks (got {})",
            stats.max_peak_storage()
        );
        assert!(stats.messages_delivered() > 0);
    }

    #[test]
    fn custody_retransmits_after_loss() {
        // Two nodes, tiny collision-free world: disable custody and compare
        // isn't deterministic here; instead verify the cache drains on ack
        // and the run delivers with custody on despite contention.
        let mut cfg = dense_config(4);
        cfg.collision_prob = 0.3; // hostile channel
        let wl = Workload::paper_style(10, 10, 1000);
        let stats = Simulation::new(cfg, wl, Glr::new).run();
        assert_eq!(
            stats.messages_delivered(),
            10,
            "custody must push everything through a lossy channel"
        );
    }

    #[test]
    fn no_custody_forgets_after_send() {
        let mut cfg = dense_config(5);
        cfg.collision_prob = 0.0;
        let wl = Workload::paper_style(10, 8, 1000);
        let factory = Glr::factory(GlrConfig::paper().with_custody(false));
        let stats = Simulation::new(cfg, wl, factory).run();
        // Without custody, clean channel: still delivers.
        assert_eq!(stats.messages_delivered(), 8);
    }

    #[test]
    fn storage_limit_respected() {
        let mut cfg = dense_config(6);
        cfg.storage_limit = Some(2);
        let wl = Workload::paper_style(10, 30, 1000);
        let stats = Simulation::new(cfg, wl, Glr::new).run();
        assert!(stats.max_peak_storage() <= 2);
    }

    #[test]
    fn oracle_location_mode_runs() {
        let cfg = SimConfig::paper(100.0, 7).with_duration(150.0);
        let wl = Workload::paper_style(50, 10, 1000);
        let factory = Glr::factory(GlrConfig::paper().with_location_mode(LocationMode::AllKnow));
        let stats = Simulation::new(cfg, wl, factory).run();
        assert!(stats.messages_delivered() > 0);
    }

    #[test]
    fn none_know_mode_still_delivers_some() {
        let cfg = SimConfig::paper(150.0, 8).with_duration(400.0);
        let wl = Workload::paper_style(50, 10, 1000);
        let factory = Glr::factory(GlrConfig::paper().with_location_mode(LocationMode::NoneKnow));
        let stats = Simulation::new(cfg, wl, factory).run();
        assert!(
            stats.messages_delivered() > 0,
            "diffusion + perturbation must deliver something"
        );
    }

    #[test]
    fn partitioned_pair_never_delivers() {
        let mut cfg = SimConfig::paper(10.0, 9).with_duration(60.0);
        cfg.n_nodes = 2;
        cfg.region = Region::new(50_000.0, 50_000.0);
        cfg.speed_range = (0.0, 0.1);
        let wl = Workload::single(NodeId(0), NodeId(1), 1.0, 1000);
        let stats = Simulation::new(cfg, wl, Glr::new).run();
        assert_eq!(stats.messages_delivered(), 0);
        // But the source keeps custody of its copies.
        assert!(stats.max_peak_storage() >= 1);
    }

    #[test]
    fn store_and_forward_bridges_partitions_via_mobility() {
        // The paper-strip at 50 m is heavily partitioned; mobility plus
        // store-and-forward must still deliver a decent share over time.
        let cfg = SimConfig::paper(50.0, 10).with_duration(1500.0);
        let wl = Workload::paper_style(50, 30, 1000);
        let stats = Simulation::new(cfg, wl, Glr::new).run();
        let ratio = stats.delivery_ratio();
        assert!(
            ratio > 0.3,
            "store-and-forward should bridge partitions, got {ratio}"
        );
    }
}

//! IMEP-style neighbour sensing: the per-node 1-hop and 2-hop tables
//! built from periodic beacons and overheard frames.
//!
//! Beacons carry the sender's position and a snapshot of its fresh 1-hop
//! table; receivers merge both with freshest-wins semantics and expire
//! entries after `config.neighbor_ttl` seconds. Protocol views are
//! therefore *stale by design*, exactly as in the paper: positions are
//! as of each neighbour's last beacon, and departures are only noticed
//! when the TTL lapses.
//!
//! # Backends
//!
//! Two implementations sit behind [`NeighborTables`], selected by
//! [`TableBackend`] (mirroring the [`crate::SpatialIndex`] grid /
//! linear-scan pair):
//!
//! * [`TableBackend::Shared`] (the default) is built for 10k+-node
//!   deployments. A beacon's 1-hop snapshot is materialised **once** per
//!   beacon event behind an `Arc` ([`BeaconSnapshot`]) and shared by
//!   every receiver; [`NeighborTables::record_beacon`] stores the `Arc`
//!   keyed by sender — amortised O(1) per reception — instead of merging
//!   the snapshot entry-by-entry into a linearly-scanned 2-hop `Vec`.
//!   1-hop upserts go through a hash index, expiry is swept lazily
//!   (amortised, never a per-beacon full-table rebuild), and the
//!   protocol-facing views ([`NeighborsView`]) are `Arc`-backed and
//!   cached per `(node, time, generation)`, so repeated
//!   [`crate::Ctx::neighbors`] / [`crate::Ctx::local_view`] calls within
//!   one event are allocation-free.
//! * [`TableBackend::CloneMerge`] is the original clone-and-merge
//!   implementation, kept as the behavioural reference the shared
//!   backend is validated against (`tests/table_equivalence.rs`).
//!
//! Both backends are **observably identical**: for any fixed seed a full
//! simulation produces bit-identical [`crate::RunStats`] under either.
//! The equivalence hinges on two invariants the engine maintains:
//!
//! 1. *Deterministic entries*: every entry recorded for node `x` with
//!    `heard_at = t` carries `x`'s true position at `t`, so freshest-wins
//!    ties can never disagree on the winning value.
//! 2. *Monotone snapshots*: an id missing from a sender's newer beacon
//!    snapshot was expired from the sender's table, hence (same TTL) is
//!    expired for every receiver too — so keeping only the latest
//!    snapshot per sender loses nothing a fresh query could see.

use crate::ids::{NodeId, NodeMap};
use crate::time::SimTime;
use glr_geometry::Point2;
use std::collections::HashMap;
use std::sync::Arc;

/// A neighbour-table entry: where a node was when we last heard it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NeighborEntry {
    /// The neighbour.
    pub id: NodeId,
    /// Its position at the time of the beacon that created this entry.
    pub pos: Point2,
    /// When the information was obtained.
    pub heard_at: SimTime,
}

/// Which data structure backs the neighbour tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TableBackend {
    /// `Arc`-interned beacon snapshots, hash-indexed 1-hop tables,
    /// amortised staleness sweeping — O(1) per beacon reception. The
    /// default.
    #[default]
    Shared,
    /// The original clone-and-merge tables: every reception deep-merges
    /// the snapshot into `Vec`-scanned 1-/2-hop tables. Kept as the
    /// reference implementation the shared backend is validated against.
    CloneMerge,
}

impl TableBackend {
    /// A short stable name (`"shared"` / `"clone-merge"`) for labels.
    pub fn name(&self) -> &'static str {
        match self {
            TableBackend::Shared => "shared",
            TableBackend::CloneMerge => "clone-merge",
        }
    }
}

/// A cheap, immutable, shareable view of neighbour entries.
///
/// Dereferences to `[NeighborEntry]` and iterates by value like the
/// `Vec<NeighborEntry>` it replaced, but cloning is an `Arc` bump: the
/// shared backend hands the same allocation to every caller asking for
/// the same node's view at the same time.
#[derive(Debug, Clone, PartialEq)]
pub struct NeighborsView {
    entries: Arc<[NeighborEntry]>,
}

impl NeighborsView {
    /// Iterates the entries by reference.
    pub fn iter(&self) -> std::slice::Iter<'_, NeighborEntry> {
        self.entries.iter()
    }
}

impl From<Vec<NeighborEntry>> for NeighborsView {
    fn from(v: Vec<NeighborEntry>) -> Self {
        NeighborsView { entries: v.into() }
    }
}

impl std::ops::Deref for NeighborsView {
    type Target = [NeighborEntry];
    fn deref(&self) -> &[NeighborEntry] {
        &self.entries
    }
}

/// Owning iterator over a [`NeighborsView`]; yields entries by value,
/// exactly like iterating an owned `Vec<NeighborEntry>`.
#[derive(Debug)]
pub struct NeighborsIter {
    entries: Arc<[NeighborEntry]>,
    at: usize,
}

impl Iterator for NeighborsIter {
    type Item = NeighborEntry;

    fn next(&mut self) -> Option<NeighborEntry> {
        let e = self.entries.get(self.at).copied();
        self.at += 1;
        e
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.entries.len().saturating_sub(self.at);
        (n, Some(n))
    }
}

impl IntoIterator for NeighborsView {
    type Item = NeighborEntry;
    type IntoIter = NeighborsIter;
    fn into_iter(self) -> NeighborsIter {
        NeighborsIter {
            entries: self.entries,
            at: 0,
        }
    }
}

impl<'a> IntoIterator for &'a NeighborsView {
    type Item = &'a NeighborEntry;
    type IntoIter = std::slice::Iter<'a, NeighborEntry>;
    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter()
    }
}

/// One beacon's payload: the sender's fresh 1-hop table, materialised
/// once per beacon event and shared (`Arc`) by every receiver.
///
/// Deliberately thin — two words, a fat `Arc` pointer. Every receiver
/// of a beacon stores a copy inside its `NodeTable`'s peer map, so
/// each byte here is a byte per `(node, peer)` pair at 100k nodes; the
/// freshest-entry timestamp the old layout cached inline is recomputed
/// during the (amortised) sweeps that need it instead.
#[derive(Debug, Clone)]
pub struct BeaconSnapshot {
    entries: Arc<[NeighborEntry]>,
}

impl BeaconSnapshot {
    fn new(entries: Arc<[NeighborEntry]>) -> Self {
        BeaconSnapshot { entries }
    }

    /// Whether every entry is older than `horizon` (vacuously true when
    /// empty) — i.e. no fresh query can see anything in this snapshot.
    fn expired(&self, horizon: f64) -> bool {
        self.entries.iter().all(|e| e.heard_at.as_secs() < horizon)
    }

    /// Builds a snapshot from explicit entries (tests and benches; the
    /// engine obtains snapshots from [`NeighborTables::beacon_snapshot`]).
    pub fn from_entries(entries: &[NeighborEntry]) -> Self {
        BeaconSnapshot::new(entries.into())
    }

    /// The snapshot's entries.
    pub fn entries(&self) -> &[NeighborEntry] {
        &self.entries
    }
}

// ---------------------------------------------------------------------------
// Facade
// ---------------------------------------------------------------------------

/// All nodes' 1-hop and 2-hop neighbour tables, behind a selectable
/// [`TableBackend`].
///
/// # Examples
///
/// ```
/// use glr_sim::{BeaconSnapshot, NeighborEntry, NeighborTables, NodeId, SimTime, TableBackend};
/// use glr_geometry::Point2;
///
/// let mut t = NeighborTables::new(3, 2.5, TableBackend::Shared);
/// let now = SimTime::from_secs(1.0);
/// let sender = NeighborEntry { id: NodeId(0), pos: Point2::new(0.0, 0.0), heard_at: now };
/// let snap = BeaconSnapshot::from_entries(&[]);
/// t.record_beacon(NodeId(1), sender, &snap, now);
/// assert_eq!(t.fresh_one_hop(NodeId(1), now).len(), 1);
/// ```
#[derive(Debug)]
pub struct NeighborTables {
    backend: Backend,
}

#[derive(Debug)]
enum Backend {
    Shared(SharedTables),
    CloneMerge(CloneTables),
}

impl NeighborTables {
    /// Creates empty tables for `n_nodes` nodes with the given entry TTL
    /// (seconds) over the chosen backend.
    pub fn new(n_nodes: usize, ttl: f64, backend: TableBackend) -> Self {
        let backend = match backend {
            TableBackend::Shared => Backend::Shared(SharedTables::new(n_nodes, ttl)),
            TableBackend::CloneMerge => Backend::CloneMerge(CloneTables::new(n_nodes, ttl)),
        };
        NeighborTables { backend }
    }

    /// The beacon payload for `u` at `now`: its fresh 1-hop table,
    /// materialised once and shared by all receivers of the beacon.
    pub fn beacon_snapshot(&mut self, u: NodeId, now: SimTime) -> BeaconSnapshot {
        match &mut self.backend {
            Backend::Shared(t) => t.snapshot(u, now),
            Backend::CloneMerge(t) => BeaconSnapshot::new(t.fresh_one_hop(u, now).into()),
        }
    }

    /// Fresh (non-expired) one-hop entries for `u` at `now`, in table
    /// order.
    pub fn fresh_one_hop(&mut self, u: NodeId, now: SimTime) -> NeighborsView {
        match &mut self.backend {
            Backend::Shared(t) => NeighborsView {
                entries: t.snapshot(u, now).entries,
            },
            Backend::CloneMerge(t) => t.fresh_one_hop(u, now).into(),
        }
    }

    /// Fresh merged 1- and 2-hop entries for `u` — the "distance two
    /// neighbourhood information" the paper's nodes collect to build the
    /// LDTG. Excludes `u` itself; the freshest entry per id wins; sorted
    /// by id.
    pub fn fresh_view(&mut self, u: NodeId, now: SimTime) -> NeighborsView {
        match &mut self.backend {
            Backend::Shared(t) => t.fresh_view(u, now),
            Backend::CloneMerge(t) => t.fresh_view(u, now).into(),
        }
    }

    /// Records that `receiver` heard `sender`'s beacon carrying
    /// `snapshot` (the sender's fresh 1-hop table). Merges the sender
    /// into the receiver's 1-hop table and the snapshot into its 2-hop
    /// knowledge, and expires old entries. Returns whether the sender
    /// was already a *fresh* 1-hop neighbour before the beacon (`false`
    /// means this is a new radio contact).
    ///
    /// Entries handed to the tables must be *deterministic*: two entries
    /// for the same `(id, heard_at)` must be identical (the engine
    /// guarantees this — an entry always carries the node's true
    /// position at `heard_at`). The backends may otherwise disagree on
    /// freshest-wins ties.
    pub fn record_beacon(
        &mut self,
        receiver: NodeId,
        sender: NeighborEntry,
        snapshot: &BeaconSnapshot,
        now: SimTime,
    ) -> bool {
        match &mut self.backend {
            Backend::Shared(t) => t.record_beacon(receiver, sender, snapshot, now),
            Backend::CloneMerge(t) => t.record_beacon(receiver, sender, snapshot.entries(), now),
        }
    }

    /// Heap footprint of the tables — the per-node protocol-state
    /// telemetry the 100k-node memory work reports (hash-map sizes are
    /// bucket-count estimates; everything else is exact capacity
    /// arithmetic).
    pub fn footprint(&self) -> TableFootprint {
        match &self.backend {
            Backend::Shared(t) => t.footprint(),
            Backend::CloneMerge(t) => t.footprint(),
        }
    }

    /// What the same live content would occupy under the PR-4 layout
    /// (fat snapshot handles, inline view caches, wide sweep counters)
    /// — the baseline the footprint telemetry reports its savings
    /// against, in the mould of
    /// [`glr_mobility::DeploymentArena::vec_equivalent_bytes`]. For the
    /// [`TableBackend::CloneMerge`] reference backend (whose layout is
    /// unchanged) this equals [`NeighborTables::footprint`]'s total.
    pub fn baseline_footprint_bytes(&self) -> usize {
        match &self.backend {
            Backend::Shared(t) => t.baseline_equivalent_bytes(),
            Backend::CloneMerge(t) => t.footprint().total_bytes(),
        }
    }

    /// Records that `receiver` heard a (data or control) frame from the
    /// node described by `entry`: hearing any frame refreshes the
    /// receiver's 1-hop entry for the sender — data exchange doubles as
    /// location exchange, as in the paper's IMEP adaptation.
    pub fn heard_frame(&mut self, receiver: NodeId, entry: NeighborEntry) {
        match &mut self.backend {
            Backend::Shared(t) => t.heard_frame(receiver, entry),
            Backend::CloneMerge(t) => t.heard_frame(receiver, entry),
        }
    }
}

// ---------------------------------------------------------------------------
// Shared backend
// ---------------------------------------------------------------------------

/// Sweep a node's table once this many mutations have accumulated (and
/// at least [`SWEEP_SLACK`] × the table's size) — classic amortisation,
/// so no single beacon reception pays for a full-table rebuild.
const MIN_SWEEP_OPS: usize = 32;

/// Mutations per table entry between physical sweeps. Sweeping is
/// unobservable (it drops only entries no fresh query can return), so
/// this trades a bounded amount of zombie/orphan memory for doing the
/// O(table) compaction — with its hash probe per entry — four times
/// less often than the steady-state beacon rate.
const SWEEP_SLACK: usize = 4;

#[derive(Debug)]
struct SharedTables {
    /// Hot per-node state: everything a beacon reception touches. Kept
    /// separate from the cold view caches (SoA split) so the dense
    /// beacon storm walks a ~45 % smaller array.
    nodes: Vec<NodeTable>,
    /// Cold per-node state: the `(time, generation)`-keyed snapshot and
    /// view caches, touched only when a node sends a beacon or a
    /// protocol asks for its neighbourhood.
    caches: Vec<NodeCache>,
    ttl: f64,
    /// Reusable freshest-wins merge buffer for [`SharedTables::fresh_view`].
    scratch: NodeMap<NeighborEntry>,
    /// Reusable staging buffer for snapshot materialisation, so a beacon
    /// costs exactly one allocation (the shared `Arc`).
    snap_scratch: Vec<NeighborEntry>,
}

/// "This peer has no (live or zombie) slot in `order`."
const NO_SLOT: u32 = u32::MAX;

/// Everything a node knows about one peer: where its 1-hop entry sits
/// and the latest beacon snapshot heard from it. Keeping both behind
/// **one** hash lookup is what makes a beacon reception cheap — the
/// previous two-map layout (`id → slot` plus `id → snapshot`) paid two
/// hashed probes into two scattered tables per reception, and those
/// cache misses dominated the dense-regime beacon storm. The layout is
/// deliberately compact (one `u32` + one thin [`BeaconSnapshot`]):
/// peer-map entries are the dominant per-node memory term at 100k
/// nodes, one entry per `(node, peer)` pair.
#[derive(Debug)]
struct PeerState {
    /// Current slot in `order`, or [`NO_SLOT`].
    slot: u32,
    /// Latest beacon snapshot from this peer (the receiving node's 2-hop
    /// knowledge). An `Arc` clone of the sender-side materialisation.
    snap: Option<BeaconSnapshot>,
}

/// Hot per-node table state — see [`SharedTables::nodes`].
#[derive(Debug, Default)]
struct NodeTable {
    /// 1-hop entries in *revival order* (the order the reference backend
    /// keeps physically): live entries plus trailing zombies/orphans
    /// that are swept out lazily and can never surface in a fresh view.
    order: Vec<NeighborEntry>,
    /// id → slot + latest snapshot, one probe per reception.
    peers: NodeMap<PeerState>,
    /// TTL horizon (seconds) of the most recent `record_beacon` — the
    /// moment the reference backend last garbage-collected this node's
    /// tables. Entries older than this are "zombies": physically present
    /// in `order` but observably deleted.
    gc_horizon: f64,
    /// Mutations since the last physical sweep.
    ops: u32,
    /// Bumped (wrapping) on every mutation; keys the view caches. A
    /// false cache hit needs the same `(time, gen)` pair, i.e. 2^32
    /// mutations of one node's table within a single timestamp — out of
    /// reach for any run this simulator can represent.
    gen: u32,
}

/// Cold per-node cache state — see [`SharedTables::caches`].
#[derive(Debug, Default)]
struct NodeCache {
    one: Option<(SimTime, u32, BeaconSnapshot)>,
    view: Option<(SimTime, u32, NeighborsView)>,
}

impl NodeTable {
    fn new() -> Self {
        NodeTable {
            gc_horizon: f64::NEG_INFINITY,
            ..NodeTable::default()
        }
    }

    /// Freshest-wins upsert with the reference backend's placement
    /// semantics: live entries update in place (keeping their slot),
    /// zombies — entries the reference physically removed at the last
    /// beacon GC — re-append at the end like any new contact.
    fn upsert(&mut self, entry: NeighborEntry) {
        self.gen = self.gen.wrapping_add(1);
        self.ops += 1;
        let order = &mut self.order;
        let gc_horizon = self.gc_horizon;
        let st = self.peers.entry(entry.id).or_insert(PeerState {
            slot: NO_SLOT,
            snap: None,
        });
        let i = st.slot as usize;
        if st.slot != NO_SLOT && order[i].heard_at.as_secs() >= gc_horizon {
            // Live: freshest-wins in place, keeping the slot.
            if entry.heard_at >= order[i].heard_at {
                order[i] = entry;
            }
        } else {
            // Zombie or absent: (re-)append at the end; a stale slot
            // stays behind as an orphan until the next sweep (it can
            // never surface — its heard_at is below every future query
            // horizon).
            st.slot = order.len() as u32;
            order.push(entry);
        }
    }

    /// The per-receiver beacon merge: freshest-wins upsert of the
    /// sender, latest-snapshot-per-sender store, GC-horizon advance and
    /// amortised sweep — all off a single `peers` probe. Touches only
    /// this table.
    fn record_beacon(
        &mut self,
        sender: NeighborEntry,
        snapshot: &BeaconSnapshot,
        horizon: f64,
    ) -> bool {
        let order = &mut self.order;
        let gc_horizon = self.gc_horizon;
        let st = self.peers.entry(sender.id).or_insert(PeerState {
            slot: NO_SLOT,
            snap: None,
        });
        let i = st.slot as usize;
        let was_fresh = st.slot != NO_SLOT && order[i].heard_at.as_secs() >= horizon;
        if st.slot != NO_SLOT && order[i].heard_at.as_secs() >= gc_horizon {
            // Live: freshest-wins in place, keeping the slot.
            if sender.heard_at >= order[i].heard_at {
                order[i] = sender;
            }
        } else {
            // Zombie (observably GC'd) or absent: (re-)append at the
            // end, like the reference after its physical removal.
            st.slot = order.len() as u32;
            order.push(sender);
        }
        st.snap = Some(snapshot.clone());
        // This is the reference backend's GC moment: from here on,
        // anything older than `horizon` is observably deleted.
        self.gc_horizon = self.gc_horizon.max(horizon);
        self.gen = self.gen.wrapping_add(1);
        self.ops += 1;
        self.maybe_sweep();
        was_fresh
    }

    /// Physically removes zombies, orphans and expired snapshots once
    /// enough mutations have amortised the cost. Unobservable: it drops
    /// only entries no fresh query could return. (The expiry check
    /// scans each snapshot's entries — the price of the thin snapshot
    /// layout — but runs only here, under the same amortisation.)
    fn maybe_sweep(&mut self) {
        if (self.ops as usize) < MIN_SWEEP_OPS.max(self.order.len() * SWEEP_SLACK) {
            return;
        }
        self.ops = 0;
        let horizon = self.gc_horizon;
        let mut kept = 0;
        for i in 0..self.order.len() {
            let e = self.order[i];
            let Some(st) = self.peers.get_mut(&e.id) else {
                continue;
            };
            if st.slot != i as u32 {
                continue; // orphaned duplicate slot
            }
            if e.heard_at.as_secs() >= horizon {
                self.order[kept] = e;
                st.slot = kept as u32;
                kept += 1;
            } else {
                st.slot = NO_SLOT;
            }
        }
        self.order.truncate(kept);
        self.peers.retain(|_, st| {
            if st.snap.as_ref().is_some_and(|s| s.expired(horizon)) {
                st.snap = None;
            }
            st.slot != NO_SLOT || st.snap.is_some()
        });
    }
}

impl SharedTables {
    fn new(n_nodes: usize, ttl: f64) -> Self {
        SharedTables {
            nodes: (0..n_nodes).map(|_| NodeTable::new()).collect(),
            caches: (0..n_nodes).map(|_| NodeCache::default()).collect(),
            ttl,
            scratch: NodeMap::default(),
            snap_scratch: Vec::new(),
        }
    }

    fn snapshot(&mut self, u: NodeId, now: SimTime) -> BeaconSnapshot {
        let SharedTables {
            nodes,
            caches,
            ttl,
            snap_scratch,
            ..
        } = self;
        let t = &mut nodes[u.index()];
        let cache = &mut caches[u.index()];
        if let Some((at, gen, snap)) = &cache.one {
            if *at == now && *gen == t.gen {
                return snap.clone();
            }
        }
        let horizon = now.as_secs() - *ttl;
        snap_scratch.clear();
        snap_scratch.extend(
            t.order
                .iter()
                .filter(|e| e.heard_at.as_secs() >= horizon)
                .copied(),
        );
        let snap = BeaconSnapshot::new(Arc::from(&snap_scratch[..]));
        cache.one = Some((now, t.gen, snap.clone()));
        snap
    }

    fn fresh_view(&mut self, u: NodeId, now: SimTime) -> NeighborsView {
        let t = &mut self.nodes[u.index()];
        let cache = &mut self.caches[u.index()];
        if let Some((at, gen, view)) = &cache.view {
            if *at == now && *gen == t.gen {
                return view.clone();
            }
        }
        let horizon = now.as_secs() - self.ttl;
        let best = &mut self.scratch;
        best.clear();
        let mut merge = |e: &NeighborEntry| {
            if e.heard_at.as_secs() < horizon || e.id == u {
                return;
            }
            match best.get(&e.id) {
                Some(cur) if cur.heard_at >= e.heard_at => {}
                _ => {
                    best.insert(e.id, *e);
                }
            }
        };
        for e in &t.order {
            merge(e);
        }
        for st in t.peers.values() {
            let Some(snap) = &st.snap else { continue };
            for e in snap.entries.iter() {
                merge(e);
            }
        }
        let mut out: Vec<NeighborEntry> = best.values().copied().collect();
        out.sort_by_key(|e| e.id);
        let view = NeighborsView::from(out);
        cache.view = Some((now, t.gen, view.clone()));
        view
    }

    fn record_beacon(
        &mut self,
        receiver: NodeId,
        sender: NeighborEntry,
        snapshot: &BeaconSnapshot,
        now: SimTime,
    ) -> bool {
        let horizon = now.as_secs() - self.ttl;
        self.nodes[receiver.index()].record_beacon(sender, snapshot, horizon)
    }

    fn heard_frame(&mut self, receiver: NodeId, entry: NeighborEntry) {
        let t = &mut self.nodes[receiver.index()];
        t.upsert(entry);
        t.maybe_sweep();
    }

    fn footprint(&self) -> TableFootprint {
        let mut table_bytes = self.nodes.capacity() * std::mem::size_of::<NodeTable>()
            + self.caches.capacity() * std::mem::size_of::<NodeCache>();
        let mut snapshots: HashMap<*const NeighborEntry, usize> = HashMap::new();
        let mut note = |entries: &Arc<[NeighborEntry]>| {
            snapshots.insert(
                entries.as_ptr(),
                entries.len() * std::mem::size_of::<NeighborEntry>() + ARC_SLICE_HEADER,
            );
        };
        for t in &self.nodes {
            table_bytes += t.order.capacity() * std::mem::size_of::<NeighborEntry>()
                + map_heap_bytes(
                    t.peers.capacity(),
                    std::mem::size_of::<(NodeId, PeerState)>(),
                );
            for st in t.peers.values() {
                if let Some(snap) = &st.snap {
                    note(&snap.entries);
                }
            }
        }
        for c in &self.caches {
            if let Some((_, _, snap)) = &c.one {
                note(&snap.entries);
            }
            if let Some((_, _, view)) = &c.view {
                note(&view.entries);
            }
        }
        TableFootprint {
            nodes: self.nodes.len(),
            table_bytes,
            snapshot_bytes: snapshots.values().sum(),
        }
    }

    /// What the same live content would occupy under the PR-4 layout —
    /// fat 24-byte snapshot handles stored per `(node, peer)` pair,
    /// view caches inline in the hot per-node struct, `usize`/`u64`
    /// sweep counters. The baseline for the footprint telemetry, in the
    /// mould of [`glr_mobility::DeploymentArena::vec_equivalent_bytes`].
    fn baseline_equivalent_bytes(&self) -> usize {
        // Sizes of the replaced layout, from its definitions:
        // NodeTable {order Vec 24, peers HashMap 48, gc_horizon 8,
        //   ops usize 8, gen u64 8,
        //   one_cache Option<(SimTime, u64, BeaconSnapshot{Arc,f64})> 40,
        //   view_cache Option<(SimTime, u64, NeighborsView)> 32} = 168;
        // peer-map entry (NodeId, PeerState{slot u32, snap Option<{Arc
        //   16, max_heard 8}>}) = 40.
        const OLD_NODE_TABLE: usize = 168;
        const OLD_PEER_ENTRY: usize = 40;
        let mut bytes = self.nodes.capacity() * OLD_NODE_TABLE;
        let mut snapshots: HashMap<*const NeighborEntry, usize> = HashMap::new();
        let mut note = |entries: &Arc<[NeighborEntry]>| {
            snapshots.insert(
                entries.as_ptr(),
                entries.len() * std::mem::size_of::<NeighborEntry>() + ARC_SLICE_HEADER,
            );
        };
        for t in &self.nodes {
            bytes += t.order.capacity() * std::mem::size_of::<NeighborEntry>()
                + map_heap_bytes(t.peers.capacity(), OLD_PEER_ENTRY);
            for st in t.peers.values() {
                if let Some(snap) = &st.snap {
                    note(&snap.entries);
                }
            }
        }
        // The old layout's inline one_cache/view_cache fields held the
        // same interned allocations the split-out caches hold now —
        // count them so both sides of the comparison cover identical
        // content (the struct bytes are already in OLD_NODE_TABLE).
        for c in &self.caches {
            if let Some((_, _, snap)) = &c.one {
                note(&snap.entries);
            }
            if let Some((_, _, view)) = &c.view {
                note(&view.entries);
            }
        }
        bytes + snapshots.values().sum::<usize>()
    }
}

/// `ArcInner` bookkeeping preceding an `Arc<[T]>`'s payload (strong +
/// weak counts).
const ARC_SLICE_HEADER: usize = 2 * std::mem::size_of::<usize>();

/// Estimated heap bytes of a `HashMap` with `capacity` usable slots and
/// `entry` bytes per `(K, V)` pair: hashbrown allocates a power-of-two
/// bucket array at 7/8 load factor plus one control byte per bucket.
fn map_heap_bytes(capacity: usize, entry: usize) -> usize {
    if capacity == 0 {
        return 0;
    }
    let buckets = (capacity * 8).div_ceil(7).next_power_of_two().max(4);
    buckets * (entry + 1) + 16
}

/// Heap-memory telemetry for [`NeighborTables`] — the per-node
/// protocol-state counterpart of
/// [`glr_mobility::DeploymentArena::heap_bytes`], reported by the
/// `neighbor_footprint` bench rows at 100k nodes.
#[derive(Debug, Clone, Copy)]
pub struct TableFootprint {
    /// Number of per-node tables.
    pub nodes: usize,
    /// Bytes in per-node structures: the hot/cold arrays, 1-hop entry
    /// buffers and peer maps (map sizes are bucket estimates).
    pub table_bytes: usize,
    /// Bytes in interned beacon-snapshot/view allocations, counted once
    /// per unique `Arc` however many peers share it.
    pub snapshot_bytes: usize,
}

impl TableFootprint {
    /// Total heap bytes.
    pub fn total_bytes(&self) -> usize {
        self.table_bytes + self.snapshot_bytes
    }

    /// Total heap bytes per node.
    pub fn bytes_per_node(&self) -> usize {
        self.total_bytes() / self.nodes.max(1)
    }
}

// ---------------------------------------------------------------------------
// Clone-merge reference backend
// ---------------------------------------------------------------------------

/// The original clone-and-merge implementation: `Vec`-scanned tables,
/// per-reception entry-by-entry merges and eager expiry.
#[derive(Debug)]
struct CloneTables {
    one_hop: Vec<Vec<NeighborEntry>>,
    two_hop: Vec<Vec<NeighborEntry>>,
    /// Entries older than this many seconds are considered gone.
    ttl: f64,
}

impl CloneTables {
    fn new(n_nodes: usize, ttl: f64) -> Self {
        CloneTables {
            one_hop: vec![Vec::new(); n_nodes],
            two_hop: vec![Vec::new(); n_nodes],
            ttl,
        }
    }

    fn horizon(&self, now: SimTime) -> f64 {
        now.as_secs() - self.ttl
    }

    fn upsert(table: &mut Vec<NeighborEntry>, entry: NeighborEntry) {
        match table.iter_mut().find(|e| e.id == entry.id) {
            Some(e) => {
                if entry.heard_at >= e.heard_at {
                    *e = entry;
                }
            }
            None => table.push(entry),
        }
    }

    fn fresh_one_hop(&self, u: NodeId, now: SimTime) -> Vec<NeighborEntry> {
        let horizon = self.horizon(now);
        self.one_hop[u.index()]
            .iter()
            .filter(|e| e.heard_at.as_secs() >= horizon)
            .copied()
            .collect()
    }

    fn fresh_view(&self, u: NodeId, now: SimTime) -> Vec<NeighborEntry> {
        let horizon = self.horizon(now);
        let mut best: HashMap<NodeId, NeighborEntry> = Default::default();
        for e in self.one_hop[u.index()]
            .iter()
            .chain(self.two_hop[u.index()].iter())
        {
            if e.heard_at.as_secs() < horizon || e.id == u {
                continue;
            }
            match best.get(&e.id) {
                Some(cur) if cur.heard_at >= e.heard_at => {}
                _ => {
                    best.insert(e.id, *e);
                }
            }
        }
        let mut out: Vec<NeighborEntry> = best.into_values().collect();
        out.sort_by_key(|e| e.id);
        out
    }

    fn record_beacon(
        &mut self,
        receiver: NodeId,
        sender: NeighborEntry,
        snapshot: &[NeighborEntry],
        now: SimTime,
    ) -> bool {
        let horizon = self.horizon(now);
        let one_hop = &mut self.one_hop[receiver.index()];
        let two_hop = &mut self.two_hop[receiver.index()];
        let was_fresh = one_hop
            .iter()
            .any(|e| e.id == sender.id && e.heard_at.as_secs() >= horizon);
        Self::upsert(one_hop, sender);
        for e in snapshot {
            if e.id != receiver {
                Self::upsert(two_hop, *e);
            }
        }
        // Garbage-collect expired entries to bound memory.
        one_hop.retain(|e| e.heard_at.as_secs() >= horizon);
        two_hop.retain(|e| e.heard_at.as_secs() >= horizon);
        was_fresh
    }

    fn heard_frame(&mut self, receiver: NodeId, entry: NeighborEntry) {
        Self::upsert(&mut self.one_hop[receiver.index()], entry);
    }

    fn footprint(&self) -> TableFootprint {
        let vec_bytes = |tables: &Vec<Vec<NeighborEntry>>| {
            tables.capacity() * std::mem::size_of::<Vec<NeighborEntry>>()
                + tables
                    .iter()
                    .map(|t| t.capacity() * std::mem::size_of::<NeighborEntry>())
                    .sum::<usize>()
        };
        TableFootprint {
            nodes: self.one_hop.len(),
            table_bytes: vec_bytes(&self.one_hop) + vec_bytes(&self.two_hop),
            snapshot_bytes: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BACKENDS: [TableBackend; 2] = [TableBackend::Shared, TableBackend::CloneMerge];

    fn entry(id: u32, at: f64) -> NeighborEntry {
        NeighborEntry {
            id: NodeId(id),
            pos: Point2::new(id as f64, at),
            heard_at: SimTime::from_secs(at),
        }
    }

    fn snap(entries: &[NeighborEntry]) -> BeaconSnapshot {
        BeaconSnapshot::from_entries(entries)
    }

    /// The 100k-node memory work pinned these layouts; growing them
    /// again is a per-`(node, peer)`-pair regression at deployment
    /// scale (the PR-4 sizes were 24/40/168-byte equivalents).
    #[test]
    fn per_node_state_stays_compact() {
        assert_eq!(std::mem::size_of::<BeaconSnapshot>(), 16);
        assert!(std::mem::size_of::<(NodeId, PeerState)>() <= 32);
        assert!(std::mem::size_of::<NodeTable>() <= 88);
        assert!(std::mem::size_of::<NodeCache>() <= 64);
    }

    #[test]
    fn footprint_counts_shared_snapshots_once() {
        let mut t = NeighborTables::new(4, 100.0, TableBackend::Shared);
        let now = SimTime::from_secs(5.0);
        t.record_beacon(NodeId(0), entry(2, 4.0), &snap(&[]), now);
        let s = t.beacon_snapshot(NodeId(0), now);
        // The same snapshot recorded at three receivers must be counted
        // once, not three times.
        let before = t.footprint().snapshot_bytes;
        for v in [1u32, 2, 3] {
            t.record_beacon(NodeId(v), entry(0, 5.0), &s, now);
        }
        let after = t.footprint().snapshot_bytes;
        assert_eq!(before, after);
        // And the compact layout must beat its PR-4 equivalent.
        let fp = t.footprint();
        assert!(
            fp.total_bytes() < t.baseline_footprint_bytes(),
            "current {} vs baseline {}",
            fp.total_bytes(),
            t.baseline_footprint_bytes()
        );
    }

    #[test]
    fn beacons_fill_tables_and_expire() {
        for backend in BACKENDS {
            let mut t = NeighborTables::new(3, 2.5, backend);
            let now = SimTime::from_secs(10.0);
            let fresh = t.record_beacon(NodeId(1), entry(0, 10.0), &snap(&[entry(2, 9.5)]), now);
            assert!(!fresh, "first contact must not be fresh ({backend:?})");
            assert_eq!(t.fresh_one_hop(NodeId(1), now).len(), 1);
            assert_eq!(t.fresh_view(NodeId(1), now).len(), 2);
            // Second beacon inside the TTL: already fresh.
            let now2 = SimTime::from_secs(11.0);
            assert!(t.record_beacon(NodeId(1), entry(0, 11.0), &snap(&[]), now2));
            // Long silence: entries expire.
            let later = SimTime::from_secs(20.0);
            assert!(t.fresh_one_hop(NodeId(1), later).is_empty());
            assert!(!t.record_beacon(NodeId(1), entry(0, 20.0), &snap(&[]), later));
        }
    }

    #[test]
    fn fresh_view_dedups_freshest_wins() {
        for backend in BACKENDS {
            let mut t = NeighborTables::new(3, 100.0, backend);
            let now = SimTime::from_secs(10.0);
            // Node 2 known both directly (older) and via the snapshot (newer).
            t.record_beacon(NodeId(0), entry(2, 5.0), &snap(&[]), now);
            t.record_beacon(NodeId(0), entry(1, 9.0), &snap(&[entry(2, 8.0)]), now);
            let view = t.fresh_view(NodeId(0), now);
            assert_eq!(view.len(), 2);
            let e2 = view.iter().find(|e| e.id == NodeId(2)).unwrap();
            assert_eq!(e2.heard_at, SimTime::from_secs(8.0), "{backend:?}");
        }
    }

    #[test]
    fn snapshot_skips_the_receiver_itself() {
        for backend in BACKENDS {
            let mut t = NeighborTables::new(2, 100.0, backend);
            let now = SimTime::from_secs(1.0);
            t.record_beacon(NodeId(1), entry(0, 1.0), &snap(&[entry(1, 0.5)]), now);
            assert!(t
                .fresh_view(NodeId(1), now)
                .iter()
                .all(|e| e.id != NodeId(1)));
        }
    }

    #[test]
    fn heard_frame_refreshes_without_gc() {
        for backend in BACKENDS {
            let mut t = NeighborTables::new(2, 2.5, backend);
            t.heard_frame(NodeId(1), entry(0, 1.0));
            t.heard_frame(NodeId(1), entry(0, 2.0));
            let got = t.fresh_one_hop(NodeId(1), SimTime::from_secs(2.0));
            assert_eq!(got.len(), 1);
            assert_eq!(got[0].heard_at, SimTime::from_secs(2.0));
            // Stale upsert does not regress the entry.
            t.heard_frame(NodeId(1), entry(0, 1.5));
            let got = t.fresh_one_hop(NodeId(1), SimTime::from_secs(2.0));
            assert_eq!(got[0].heard_at, SimTime::from_secs(2.0), "{backend:?}");
        }
    }

    #[test]
    fn beacon_snapshot_is_shared_not_copied() {
        let mut t = NeighborTables::new(4, 100.0, TableBackend::Shared);
        let now = SimTime::from_secs(5.0);
        t.record_beacon(NodeId(0), entry(2, 4.0), &snap(&[]), now);
        let s = t.beacon_snapshot(NodeId(0), now);
        // Cached: a second ask at the same time is the same allocation.
        let s2 = t.beacon_snapshot(NodeId(0), now);
        assert!(Arc::ptr_eq(&s.entries, &s2.entries));
        // Receivers of the beacon share it too: record it at two nodes
        // and confirm both 2-hop views see the carried entry.
        t.record_beacon(NodeId(1), entry(0, 5.0), &s, now);
        t.record_beacon(NodeId(3), entry(0, 5.0), &s, now);
        for v in [NodeId(1), NodeId(3)] {
            assert!(t.fresh_view(v, now).iter().any(|e| e.id == NodeId(2)));
        }
    }

    #[test]
    fn views_are_cached_per_time_and_invalidated_on_mutation() {
        let mut t = NeighborTables::new(3, 100.0, TableBackend::Shared);
        let now = SimTime::from_secs(1.0);
        t.record_beacon(NodeId(1), entry(0, 1.0), &snap(&[entry(2, 0.5)]), now);
        let a = t.fresh_view(NodeId(1), now);
        let b = t.fresh_view(NodeId(1), now);
        assert!(
            Arc::ptr_eq(&a.entries, &b.entries),
            "same (time, gen) must hit the cache"
        );
        // A mutation invalidates.
        t.record_beacon(NodeId(1), entry(2, 1.5), &snap(&[]), now);
        let c = t.fresh_view(NodeId(1), now);
        assert!(!Arc::ptr_eq(&a.entries, &c.entries));
        assert_eq!(
            c.iter().find(|e| e.id == NodeId(2)).unwrap().heard_at,
            SimTime::from_secs(1.5)
        );
    }

    /// The lazy sweep must reproduce the reference's *placement* of
    /// revived entries: once an entry has been observably GC'd (a beacon
    /// arrived after it expired), a re-contact appends at the end.
    #[test]
    fn revived_contact_reorders_like_the_reference() {
        for backend in BACKENDS {
            let mut t = NeighborTables::new(4, 2.5, backend);
            // Contacts 1 then 2.
            t.record_beacon(
                NodeId(0),
                entry(1, 1.0),
                &snap(&[]),
                SimTime::from_secs(1.0),
            );
            t.record_beacon(
                NodeId(0),
                entry(2, 2.0),
                &snap(&[]),
                SimTime::from_secs(2.0),
            );
            // Node 1 goes silent; a beacon from 2 at t=5 GCs it (1.0 < 5-2.5).
            t.record_beacon(
                NodeId(0),
                entry(2, 5.0),
                &snap(&[]),
                SimTime::from_secs(5.0),
            );
            // Node 1 returns: it must now list AFTER node 2.
            t.record_beacon(
                NodeId(0),
                entry(1, 6.0),
                &snap(&[]),
                SimTime::from_secs(6.0),
            );
            let ids: Vec<NodeId> = t
                .fresh_one_hop(NodeId(0), SimTime::from_secs(6.0))
                .iter()
                .map(|e| e.id)
                .collect();
            assert_eq!(ids, vec![NodeId(2), NodeId(1)], "{backend:?}");
        }
    }

    /// Without an intervening beacon GC, a stale entry that refreshes
    /// keeps its original slot — in both backends.
    #[test]
    fn stale_refresh_without_gc_keeps_position() {
        for backend in BACKENDS {
            let mut t = NeighborTables::new(4, 2.5, backend);
            t.record_beacon(
                NodeId(0),
                entry(1, 1.0),
                &snap(&[]),
                SimTime::from_secs(1.0),
            );
            t.record_beacon(
                NodeId(0),
                entry(2, 1.5),
                &snap(&[]),
                SimTime::from_secs(1.5),
            );
            // Node 1's entry is stale at t=6 but no beacon GC'd it;
            // a data frame refreshes it in place.
            t.heard_frame(NodeId(0), entry(1, 6.0));
            t.heard_frame(NodeId(0), entry(2, 6.0));
            let ids: Vec<NodeId> = t
                .fresh_one_hop(NodeId(0), SimTime::from_secs(6.0))
                .iter()
                .map(|e| e.id)
                .collect();
            assert_eq!(ids, vec![NodeId(1), NodeId(2)], "{backend:?}");
        }
    }

    /// Long random-ish op sequences keep the shared backend's lazily
    /// swept tables identical to the eager reference.
    #[test]
    fn sweeping_is_unobservable_under_churn() {
        let mut shared = NeighborTables::new(8, 2.5, TableBackend::Shared);
        let mut reference = NeighborTables::new(8, 2.5, TableBackend::CloneMerge);
        let mut t = 0.0f64;
        for step in 0u32..600 {
            t += 0.1 + (step % 7) as f64 * 0.05;
            let now = SimTime::from_secs(t);
            let sender = step % 5;
            let receiver = (step / 5) % 8;
            if sender == receiver {
                continue;
            }
            // Snapshot comes from the sender's own table, like the engine.
            let ss = shared.beacon_snapshot(NodeId(sender), now);
            let rs = reference.beacon_snapshot(NodeId(sender), now);
            assert_eq!(
                ss.entries(),
                rs.entries(),
                "snapshots diverged at step {step}"
            );
            let e = entry(sender, t);
            let a = shared.record_beacon(NodeId(receiver), e, &ss, now);
            let b = reference.record_beacon(NodeId(receiver), e, &rs, now);
            assert_eq!(a, b, "was_fresh diverged at step {step}");
            if step % 3 == 0 {
                shared.heard_frame(NodeId(receiver), e);
                reference.heard_frame(NodeId(receiver), e);
            }
            for u in 0..8u32 {
                assert_eq!(
                    &*shared.fresh_one_hop(NodeId(u), now),
                    &*reference.fresh_one_hop(NodeId(u), now),
                    "one-hop diverged at step {step} node {u}"
                );
                assert_eq!(
                    &*shared.fresh_view(NodeId(u), now),
                    &*reference.fresh_view(NodeId(u), now),
                    "view diverged at step {step} node {u}"
                );
            }
        }
    }
}

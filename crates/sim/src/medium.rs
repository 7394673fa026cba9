//! The radio/PHY layer: transmit queues, serialisation, carrier-sense
//! backoff, ARQ and the loss models — behind the [`Medium`] trait.
//!
//! The engine is medium-agnostic: it hands every link-layer decision to a
//! [`Medium`] implementation and only schedules the completion times the
//! medium returns. The built-in radios are one queue layer driven by a
//! [`MediumKind`]: [`MediumKind::Contention`] is the default and
//! reproduces the paper's NS-2-calibrated 802.11 model, and the other
//! kinds (ideal lossless links, probabilistic shadowing, duty-cycled
//! radios) change only the access delay and the loss decision. Queueing,
//! ARQ and delivery are shared. [`MediumKind::build`] instantiates one for
//! [`crate::Simulation::with_boxed_medium`]; a custom PHY implements the
//! trait and is passed the same way — no engine changes required.
//!
//! Determinism contract: a medium must draw all randomness from
//! [`World::rng`] and must not depend on anything outside the `World`
//! handed to it, so that a run stays a pure function of
//! `(config, workload, protocol, seed)`.

use crate::ids::NodeId;
use crate::time::SimTime;
use crate::world::World;
use glr_geometry::Point2;
use rand::Rng;
use std::collections::VecDeque;

/// Whether a frame carries user data or protocol control information
/// (acknowledgements, summary vectors, …). Only affects accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PacketKind {
    /// End-to-end message payload.
    Data,
    /// Protocol control traffic.
    Control,
}

/// Error returned by [`crate::Ctx::send`] when the link-layer queue is
/// full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull;

impl std::fmt::Display for QueueFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "link-layer transmit queue is full")
    }
}

impl std::error::Error for QueueFull {}

/// A link-layer frame: one over-the-air transmission attempt's worth of
/// protocol packet plus addressing and accounting metadata.
#[derive(Debug, Clone)]
pub struct Frame<Pk> {
    /// Destination node (unicast).
    pub to: NodeId,
    /// The protocol's packet payload.
    pub packet: Pk,
    /// Payload size in bytes (drives serialisation time).
    pub size: u32,
    /// Data or control, for accounting.
    pub kind: PacketKind,
    /// Transmission attempts already failed for this frame.
    pub retries: u32,
}

/// Outcome of a transmission that just finished serialising, as resolved
/// by the medium.
#[derive(Debug)]
pub enum TxResolution<Pk> {
    /// The frame arrived: the engine counts the delivery (data vs
    /// control, from `kind`), hands `packet` to `to`, and then asks the
    /// medium to start the sender's next queued frame. Accounting lives
    /// in the engine so that a medium's last word on a frame (e.g. a
    /// duty-cycled receiver that turns out to be asleep) never has to
    /// unwind statistics.
    Delivered {
        /// Receiving node.
        to: NodeId,
        /// The payload to hand to the receiver's protocol.
        packet: Pk,
        /// Where the sender was at delivery time (receivers learn the
        /// sender's position from any overheard frame, as in the paper's
        /// IMEP adaptation).
        from_pos: Point2,
        /// Data or control, for the engine's delivery accounting.
        kind: PacketKind,
    },
    /// The frame is definitively lost (retry budget exhausted or receiver
    /// out of range); the engine starts the sender's next queued frame.
    Lost,
    /// The medium is retrying the frame itself (802.11-style ARQ): the
    /// radio stays busy and the engine schedules another completion at
    /// `at`.
    Retrying {
        /// When the retry's serialisation finishes.
        at: SimTime,
    },
}

/// A radio/PHY model: owns the per-node transmit state and decides how
/// long transmissions take and whether they arrive.
///
/// Object-safe: the engine stores `Box<dyn Medium<Pk>>`, so media can be
/// swapped at construction without touching the engine's type.
///
/// Every completion time a medium returns must be `>= world.now` (in
/// practice `now + access delay + serialisation`, or an ARQ backoff on
/// top). The engine pops one event at a time in `(time, scheduling
/// order)`, so an event scheduled in the past would run out of order;
/// debug builds assert the invariant where events are scheduled.
pub trait Medium<Pk> {
    /// Queues `frame` for transmission from `from`.
    ///
    /// Returns `Ok(Some(at))` when the radio was idle and started
    /// transmitting immediately — the engine schedules the completion at
    /// `at`. Returns `Ok(None)` when the frame was queued behind an
    /// in-flight transmission.
    ///
    /// # Errors
    ///
    /// [`QueueFull`] when the transmit queue is at capacity; the frame is
    /// dropped.
    fn enqueue(
        &mut self,
        world: &mut World,
        from: NodeId,
        frame: Frame<Pk>,
    ) -> Result<Option<SimTime>, QueueFull>;

    /// Resolves the transmission in flight at `from`, whose serialisation
    /// just completed.
    fn tx_complete(&mut self, world: &mut World, from: NodeId) -> TxResolution<Pk>;

    /// Starts the next queued frame at `from` if the radio is idle;
    /// returns the new transmission's completion time.
    fn start_next(&mut self, world: &mut World, from: NodeId) -> Option<SimTime>;

    /// Number of frames waiting (not in flight) in `node`'s queue.
    fn queue_len(&self, node: NodeId) -> usize;
}

/// Which radio/PHY model a scenario runs over.
///
/// A value that names a built-in radio and can be stored in a scenario,
/// printed, compared, and expanded along a sweep axis;
/// [`MediumKind::build`] turns it into a [`Medium`]. Every kind shares
/// the same queue layer:
///
/// * per-node transmit queues of `config.queue_limit` frames with
///   drop-tail overflow (NS-2's `IFq`);
/// * control frames jump ahead of queued data — the MAC-level priority
///   short frames enjoy in practice; without it, custody
///   acknowledgements would sit behind seconds of queued data and every
///   cache timeout would fork a duplicate copy;
/// * serialisation at `config.data_rate_bps` plus fixed MAC overhead
///   ([`crate::SimConfig::tx_time`]) after the kind's access delay;
/// * a lost frame is retried with 802.11-style exponential backoff (one
///   random jitter slot on top) up to `config.mac_retries` times while
///   the radio stays busy — head-of-line blocking, the paper's
///   contention mechanism.
///
/// Custom media implement [`Medium`] and go to
/// [`crate::Simulation::with_boxed_medium`] directly.
#[derive(Debug, Clone, PartialEq)]
pub enum MediumKind {
    /// The paper's NS-2-calibrated 802.11 contention model (the default):
    ///
    /// * unit-disk reception at `config.radio_range`;
    /// * carrier-sense access delay proportional to busy transmitters
    ///   within twice the radio range, plus one slot of random jitter;
    /// * probabilistic collision loss growing with the number of
    ///   interferers near the receiver (hidden terminals included), and
    ///   loss of every frame whose receiver has moved out of range;
    /// * carrier sense and interference both count the medium's on-air
    ///   list — the radios with a frame in flight — with the exact
    ///   distance test a scan over every radio would apply. The list holds
    ///   a handful of radios on the shipped workloads, 10k-node runs
    ///   included, so walking it is cheaper than a spatial query.
    Contention,
    /// A lossless, zero-contention radio for protocol-logic debugging.
    ///
    /// Every frame arrives after pure serialisation time: no carrier-sense
    /// backoff, no jitter, no collisions, no range check — if the protocol
    /// sends it, the destination hears it. The queue discipline is the
    /// shared one, so queue-pressure behaviour stays comparable.
    ///
    /// It draws nothing from [`World::rng`] and never touches the
    /// `collisions`/`out_of_range` counters — a run whose statistics show
    /// either non-zero under this medium has found an engine bug
    /// (asserted by the cross-medium invariant tests).
    Ideal,
    /// Log-distance path loss with per-frame log-normal shadowing.
    ///
    /// The model is calibrated so that at `config.radio_range` the mean
    /// path loss exactly meets the receiver threshold: the fade margin of
    /// a frame over distance `d` is `10·n·log10(range/d)` dB, and the
    /// frame is lost when a per-frame shadowing draw `X ~ N(0, σ²)` (from
    /// [`World::rng`], preserving the determinism contract) exceeds that
    /// margin. Links well inside the nominal range are near-certain, the
    /// delivery probability is 50 % exactly at the range, and — unlike the
    /// unit-disk media — a lucky fade can carry a frame *beyond* it: soft
    /// range edges instead of a cliff.
    ///
    /// Fade losses are retried by the shared ARQ and accounted under the
    /// [`SHADOWING_FADE_LOSS`] event counter (the `collisions` /
    /// `out_of_range` counters stay the contention model's). Access delay
    /// is the contention model's minus the carrier-sense term: one random
    /// jitter slot.
    ///
    /// Portability caveat: the fade decision evaluates `ln`/`cos`/`log10`,
    /// which IEEE 754 does not require to be correctly rounded — their
    /// last-ulp behaviour belongs to the platform libm. Shadowing runs are
    /// therefore bit-reproducible per binary (and across shard invocations
    /// of that binary), but a shard computed on a host with a different
    /// libm may diverge; keep multi-machine sweeps on one build when this
    /// medium is in the grid. The unit-disk media use only arithmetic,
    /// `sqrt` and `powi` and carry no such caveat.
    Shadowing(ShadowingParams),
    /// Any inner medium, with radios that sleep for the back
    /// `1 - on_fraction` of every `period` seconds and drop frames
    /// arriving during sleep.
    ///
    /// Each node's radio wakes for the first `on_fraction` of every
    /// `period`, with a deterministic per-node phase offset (golden-ratio
    /// staggering, so sleep windows are spread instead of synchronised
    /// network-wide). The schedule is a pure function of `(node, time)` —
    /// no randomness. Access delay and loss are the inner model's: a frame
    /// must first survive it, then find its receiver awake.
    ///
    /// Dropped-at-sleep frames are counted under [`DUTY_SLEEP_DROP`] and
    /// are *not* retried: the transmitter's MAC saw no collision and moves
    /// on, which is exactly the silent-loss failure mode that makes
    /// aggressive duty cycling expensive for beacon-driven protocols.
    /// Engine-level beacons bypass the [`Medium`] trait (the engine
    /// computes their receiver sets geometrically), so duty cycling here
    /// models the *data plane*: unicast data and protocol control frames.
    DutyCycled {
        /// The wrapped medium (usually [`MediumKind::Contention`]).
        inner: Box<MediumKind>,
        /// Fraction of each period the radio is awake, in `(0, 1]`.
        on_fraction: f64,
        /// Sleep/wake cycle length in seconds.
        period: f64,
    },
}

impl MediumKind {
    /// The shadowing medium with default parameters.
    pub fn shadowing() -> Self {
        MediumKind::Shadowing(ShadowingParams::default())
    }

    /// A duty-cycled wrapper around `inner` with the given wake fraction
    /// and period.
    pub fn duty_cycled(inner: MediumKind, on_fraction: f64, period: f64) -> Self {
        MediumKind::DutyCycled {
            inner: Box::new(inner),
            on_fraction,
            period,
        }
    }

    /// Instantiates the medium for `n_nodes` radios.
    ///
    /// # Panics
    ///
    /// Panics if a shadowing parameter is non-positive or non-finite
    /// (`sigma_db` may be zero), or unless a duty cycle has
    /// `0 < on_fraction <= 1` and a positive, finite `period`.
    pub fn build<Pk: Clone + std::fmt::Debug + 'static>(
        &self,
        n_nodes: usize,
    ) -> Box<dyn Medium<Pk>> {
        Box::new(RadioMedium::new(self.clone(), n_nodes))
    }

    /// A short stable name (`"contention"`, `"ideal"`, `"shadowing"`,
    /// `"duty-cycled"`) for labels and CLI flags.
    pub fn name(&self) -> &'static str {
        match self {
            MediumKind::Contention => "contention",
            MediumKind::Ideal => "ideal",
            MediumKind::Shadowing(_) => "shadowing",
            MediumKind::DutyCycled { .. } => "duty-cycled",
        }
    }

    /// Panics on out-of-range parameters, innermost kind first.
    fn validate(&self) {
        match self {
            MediumKind::Contention | MediumKind::Ideal => {}
            MediumKind::Shadowing(p) => {
                assert!(
                    p.path_loss_exp > 0.0 && p.path_loss_exp.is_finite(),
                    "path-loss exponent must be positive"
                );
                assert!(
                    p.sigma_db >= 0.0 && p.sigma_db.is_finite(),
                    "shadowing sigma must be non-negative"
                );
                assert!(
                    p.d0 > 0.0 && p.d0.is_finite(),
                    "reference distance must be positive"
                );
            }
            MediumKind::DutyCycled {
                inner,
                on_fraction,
                period,
            } => {
                inner.validate();
                assert!(
                    *on_fraction > 0.0 && *on_fraction <= 1.0,
                    "on_fraction must be in (0, 1], got {on_fraction}"
                );
                assert!(
                    *period > 0.0 && period.is_finite(),
                    "period must be positive and finite, got {period}"
                );
            }
        }
    }

    /// The radio model under any duty-cycle wrappers: what decides access
    /// delay and loss.
    fn phy(&self) -> &MediumKind {
        match self {
            MediumKind::DutyCycled { inner, .. } => inner.phy(),
            phy => phy,
        }
    }

    /// Whether `node`'s radio is awake at `now` under every duty cycle in
    /// this kind (always, without one).
    fn awake(&self, node: NodeId, now: SimTime) -> bool {
        match self {
            MediumKind::DutyCycled {
                inner,
                on_fraction,
                period,
            } => awake(node, now, *on_fraction, *period) && inner.awake(node, now),
            _ => true,
        }
    }
}

impl std::fmt::Display for MediumKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Parameters of the log-distance shadowing model
/// ([`MediumKind::Shadowing`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShadowingParams {
    /// Path-loss exponent `n` of the log-distance model (2 = free space,
    /// ~3 = the urban/suburban settings the paper's scenarios resemble).
    pub path_loss_exp: f64,
    /// Standard deviation of the per-frame log-normal shadowing term, in
    /// dB (typical measured values: 4–10 dB).
    pub sigma_db: f64,
    /// Reference distance `d0` in metres; below it reception is treated
    /// as certain (shadowing cannot beat a zero-length link).
    pub d0: f64,
}

impl Default for ShadowingParams {
    fn default() -> Self {
        ShadowingParams {
            path_loss_exp: 3.0,
            sigma_db: 6.0,
            d0: 1.0,
        }
    }
}

/// Counter key under which [`MediumKind::Shadowing`] reports fade losses
/// in [`crate::RunStats::counters`].
pub const SHADOWING_FADE_LOSS: &str = "medium.shadow_fade";

/// Counter key under which [`MediumKind::DutyCycled`] reports frames
/// dropped because the receiver's radio was asleep, in
/// [`crate::RunStats::counters`].
pub const DUTY_SLEEP_DROP: &str = "medium.duty_sleep_drop";

/// Whether `node`'s radio is awake at `now` under an
/// `on_fraction`/`period` duty cycle: within the first `on_fraction` of
/// its (phase-staggered) period.
fn awake(node: NodeId, now: SimTime, on_fraction: f64, period: f64) -> bool {
    // Low bits of the golden ratio spread phases maximally evenly.
    let phase = (node.0 as f64 * 0.618_033_988_749_894_9).fract() * period;
    let local = (now.as_secs() + phase) % period;
    local < on_fraction * period
}

/// A standard normal draw via Box–Muller (the vendored `rand` shim has no
/// distributions module).
fn standard_normal(rng: &mut impl Rng) -> f64 {
    let u1: f64 = rng.random_range(0.0..1.0);
    let u2: f64 = rng.random_range(0.0..1.0);
    // 1 - u1 ∈ (0, 1], so the log is finite.
    (-2.0 * (1.0 - u1).ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[derive(Debug)]
struct Radio<Pk> {
    queue: VecDeque<Frame<Pk>>,
    current: Option<Frame<Pk>>,
}

impl<Pk> Default for Radio<Pk> {
    fn default() -> Self {
        Radio {
            queue: VecDeque::new(),
            current: None,
        }
    }
}

impl<Pk> Radio<Pk> {
    /// Queues a frame: drop-tail at `limit`, control frames ahead of
    /// queued data (see [`MediumKind`]).
    fn push(&mut self, frame: Frame<Pk>, limit: usize) -> Result<(), QueueFull> {
        if self.queue.len() >= limit {
            return Err(QueueFull);
        }
        match frame.kind {
            PacketKind::Control => {
                // Behind any already-queued control frames, ahead of data.
                let at = self
                    .queue
                    .iter()
                    .position(|f| f.kind == PacketKind::Data)
                    .unwrap_or(self.queue.len());
                self.queue.insert(at, frame);
            }
            PacketKind::Data => self.queue.push_back(frame),
        }
        Ok(())
    }

    /// Takes the frame whose serialisation just completed.
    ///
    /// # Panics
    ///
    /// Panics when no frame is in flight — a `TxComplete` event without
    /// one is an engine/medium sequencing bug.
    fn take_in_flight(&mut self) -> Frame<Pk> {
        self.current
            .take()
            .expect("TxComplete without a frame in flight")
    }

    /// Pops the next queued frame iff the radio is idle (the caller
    /// computes its completion time and hands it back via `current`).
    fn pop_next(&mut self) -> Option<Frame<Pk>> {
        if self.current.is_some() {
            return None;
        }
        self.queue.pop_front()
    }
}

/// The built-in [`Medium`]: per-node [`Radio`] queues and an on-air list
/// shared by every radio model, with access delay and loss decided by the
/// [`MediumKind`] it was built from.
#[derive(Debug)]
struct RadioMedium<Pk> {
    kind: MediumKind,
    radios: Vec<Radio<Pk>>,
    /// Every node whose radio has a frame in flight (ARQ retries
    /// included), in no particular order: only counts are read from it.
    on_air: Vec<NodeId>,
}

impl<Pk> RadioMedium<Pk> {
    /// Creates the medium for `n_nodes` radios; panics as
    /// [`MediumKind::build`] documents.
    fn new(kind: MediumKind, n_nodes: usize) -> Self {
        kind.validate();
        RadioMedium {
            kind,
            radios: (0..n_nodes).map(|_| Radio::default()).collect(),
            on_air: Vec::new(),
        }
    }

    /// Number of on-air radios other than `except` within `range` of `p`
    /// — the same exact distance test as the spatial index's, so the
    /// count equals a scan over all radios.
    fn on_air_within(&self, world: &World, p: Point2, range: f64, except: NodeId) -> usize {
        self.on_air
            .iter()
            .filter(|&&v| v != except && world.pos(v).dist(p) <= range)
            .count()
    }

    /// Takes `from` off the on-air list once its frame has resolved.
    fn leave_air(&mut self, from: NodeId) {
        let i = self
            .on_air
            .iter()
            .position(|&v| v == from)
            .expect("resolved a frame that was not on air");
        self.on_air.swap_remove(i);
    }

    /// Whether the frame `from` (at `from_pos`) just finished sending to
    /// `to` is lost under the radio model; counts the loss under the
    /// model's statistic.
    fn lost(&self, world: &mut World, from: NodeId, from_pos: Point2, to: NodeId) -> bool {
        let range = world.config().radio_range;
        match self.kind.phy() {
            MediumKind::Ideal => false,
            MediumKind::Contention => {
                let pos_to = world.pos(to);
                if from_pos.dist(pos_to) > range {
                    world.stats().out_of_range += 1;
                    return true;
                }
                // Interference near the receiver (includes hidden terminals).
                let k = self.on_air_within(world, pos_to, range, from);
                let p_loss = 1.0 - (1.0 - world.config().collision_prob).powi(k as i32);
                let collided = k > 0 && world.rng().random_range(0.0..1.0) < p_loss;
                if collided {
                    world.stats().collisions += 1;
                }
                collided
            }
            MediumKind::Shadowing(p) => {
                let d = from_pos.dist(world.pos(to)).max(p.d0);
                // Fade margin in dB: zero at the nominal range, positive inside.
                let margin_db = 10.0 * p.path_loss_exp * (range / d).log10();
                let faded = p.sigma_db * standard_normal(world.rng()) > margin_db;
                if faded {
                    world.stats().count_event(SHADOWING_FADE_LOSS);
                }
                faded
            }
            MediumKind::DutyCycled { .. } => unreachable!("phy() is never duty-cycled"),
        }
    }
}

impl<Pk> Medium<Pk> for RadioMedium<Pk> {
    fn enqueue(
        &mut self,
        world: &mut World,
        from: NodeId,
        frame: Frame<Pk>,
    ) -> Result<Option<SimTime>, QueueFull> {
        if let Err(e) = self.radios[from.index()].push(frame, world.config().queue_limit) {
            world.stats().queue_drops += 1;
            return Err(e);
        }
        Ok(self.start_next(world, from))
    }

    fn tx_complete(&mut self, world: &mut World, from: NodeId) -> TxResolution<Pk> {
        let mut frame = self.radios[from.index()].take_in_flight();
        let from_pos = world.pos(from);
        if self.lost(world, from, from_pos, frame.to) {
            // 802.11-style ARQ: retry with exponential backoff until the
            // retry budget is spent; the radio stays busy meanwhile.
            if frame.retries < world.config().mac_retries {
                frame.retries += 1;
                let slots = (1u32 << frame.retries.min(10)) as f64;
                let jitter: f64 = world.rng().random_range(0.0..=1.0);
                let backoff = world.config().mac_slot * slots * (1.0 + jitter);
                let at = world.now() + backoff + world.config().tx_time(frame.size);
                self.radios[from.index()].current = Some(frame);
                return TxResolution::Retrying { at };
            }
            self.leave_air(from);
            return TxResolution::Lost;
        }
        self.leave_air(from);
        if !self.kind.awake(frame.to, world.now()) {
            world.stats().count_event(DUTY_SLEEP_DROP);
            return TxResolution::Lost;
        }
        TxResolution::Delivered {
            to: frame.to,
            packet: frame.packet,
            from_pos,
            kind: frame.kind,
        }
    }

    fn start_next(&mut self, world: &mut World, from: NodeId) -> Option<SimTime> {
        let frame = self.radios[from.index()].pop_next()?;
        let slot = world.config().mac_slot;
        let access = match self.kind.phy() {
            MediumKind::Ideal => 0.0,
            MediumKind::Contention => {
                // Carrier sense: back off proportionally to busy
                // transmitters in a two-radius neighbourhood, plus random
                // jitter of one slot.
                let range = 2.0 * world.config().radio_range;
                let contention = self.on_air_within(world, world.pos(from), range, from) as f64;
                let jitter: f64 = world.rng().random_range(0.0..=1.0);
                slot * (contention + jitter)
            }
            MediumKind::Shadowing(_) => slot * world.rng().random_range(0.0..=1.0),
            MediumKind::DutyCycled { .. } => unreachable!("phy() is never duty-cycled"),
        };
        let done = world.now() + access + world.config().tx_time(frame.size);
        self.radios[from.index()].current = Some(frame);
        self.on_air.push(from);
        Some(done)
    }

    fn queue_len(&self, node: NodeId) -> usize {
        self.radios[node.index()].queue.len()
    }
}

#[cfg(test)]
mod on_air_tests {
    use super::*;
    use crate::equivalence::Flood;
    use crate::{SimConfig, Simulation, Workload};
    use std::cell::Cell;
    use std::rc::Rc;

    /// Resolutions the checked medium handed back, read after the run.
    #[derive(Default)]
    struct Outcomes {
        retrying: Cell<u64>,
        lost: Cell<u64>,
    }

    /// The contention [`RadioMedium`] with its on-air list checked
    /// against a scan of every radio before and after each call.
    struct Checked<Pk> {
        inner: RadioMedium<Pk>,
        outcomes: Rc<Outcomes>,
    }

    impl<Pk> Checked<Pk> {
        /// Asserts that the on-air list holds exactly the radios with a
        /// frame in flight, once each, and that its count at every
        /// `(point, range, except)` probe equals a brute-force scan.
        fn check(&self, world: &World, probes: &[(Point2, f64, NodeId)]) {
            let radios = &self.inner.radios;
            let mut listed = self.inner.on_air.clone();
            listed.sort_unstable();
            listed.dedup();
            assert_eq!(
                listed.len(),
                self.inner.on_air.len(),
                "duplicate on-air entry"
            );
            let busy: Vec<NodeId> = (0..radios.len() as u32)
                .map(NodeId)
                .filter(|v| radios[v.index()].current.is_some())
                .collect();
            assert_eq!(
                listed, busy,
                "on-air list differs from the radios in flight"
            );
            for &(p, range, except) in probes {
                let scan = (0..radios.len() as u32)
                    .map(NodeId)
                    .filter(|&v| {
                        radios[v.index()].current.is_some()
                            && v != except
                            && world.pos(v).dist(p) <= range
                    })
                    .count();
                assert_eq!(self.inner.on_air_within(world, p, range, except), scan);
            }
        }

        /// The carrier-sense probe of a transmission starting at `from`.
        fn sense_probe(world: &World, from: NodeId) -> (Point2, f64, NodeId) {
            (world.pos(from), 2.0 * world.config().radio_range, from)
        }
    }

    impl<Pk> Medium<Pk> for Checked<Pk> {
        fn enqueue(
            &mut self,
            world: &mut World,
            from: NodeId,
            frame: Frame<Pk>,
        ) -> Result<Option<SimTime>, QueueFull> {
            let probe = [Self::sense_probe(world, from)];
            self.check(world, &probe);
            let started = self.inner.enqueue(world, from, frame);
            self.check(world, &probe);
            started
        }

        fn tx_complete(&mut self, world: &mut World, from: NodeId) -> TxResolution<Pk> {
            // The interference probe around the receiver of the frame in
            // flight, as the collision model counts it.
            let to = self.inner.radios[from.index()]
                .current
                .as_ref()
                .expect("TxComplete without a frame in flight")
                .to;
            let probe = [(world.pos(to), world.config().radio_range, from)];
            self.check(world, &probe);
            let resolution = self.inner.tx_complete(world, from);
            self.check(world, &probe);
            let counter = match resolution {
                TxResolution::Retrying { .. } => &self.outcomes.retrying,
                TxResolution::Lost => &self.outcomes.lost,
                TxResolution::Delivered { .. } => return resolution,
            };
            counter.set(counter.get() + 1);
            resolution
        }

        fn start_next(&mut self, world: &mut World, from: NodeId) -> Option<SimTime> {
            let probe = [Self::sense_probe(world, from)];
            self.check(world, &probe);
            let started = self.inner.start_next(world, from);
            self.check(world, &probe);
            started
        }

        fn queue_len(&self, node: NodeId) -> usize {
            self.inner.queue_len(node)
        }
    }

    #[test]
    fn on_air_list_matches_a_scan_of_every_radio() {
        let cfg = SimConfig::paper(150.0, 7).with_duration(30.0);
        let wl = Workload::paper_style(cfg.n_nodes, 20, 1000);
        let outcomes = Rc::new(Outcomes::default());
        let medium = Checked {
            inner: RadioMedium::new(MediumKind::Contention, cfg.n_nodes),
            outcomes: Rc::clone(&outcomes),
        };
        let stats = Simulation::with_boxed_medium(cfg, wl, |_, _| Flood, Box::new(medium)).run();
        // Every branch of the bookkeeping must have run for the check to
        // mean anything.
        assert!(stats.collisions > 0, "no collisions");
        assert!(stats.out_of_range > 0, "no out-of-range losses");
        assert!(stats.queue_drops > 0, "no queue drops");
        assert!(outcomes.retrying.get() > 0, "no ARQ retries");
        assert!(outcomes.lost.get() > 0, "no lost frames");
    }
}

#[cfg(test)]
mod duty_tests {
    use super::*;

    #[test]
    fn wake_windows_cover_on_fraction() {
        for node in [NodeId(0), NodeId(1), NodeId(2), NodeId(3)] {
            let awake = (0..1000)
                .filter(|i| awake(node, SimTime::from_secs(*i as f64 * 0.01), 0.25, 1.0))
                .count();
            // 25% on-time, sampled over 10 periods.
            assert!((200..=300).contains(&awake), "node {node:?}: {awake}");
        }
        // Phases are staggered: node 0 and node 1 differ somewhere.
        assert!((0..100).any(|i| {
            let t = SimTime::from_secs(i as f64 * 0.01);
            awake(NodeId(0), t, 0.25, 1.0) != awake(NodeId(1), t, 0.25, 1.0)
        }));
    }

    #[test]
    fn full_on_fraction_never_sleeps() {
        for i in 0..500 {
            assert!(awake(
                NodeId(1),
                SimTime::from_secs(i as f64 * 0.1),
                1.0,
                5.0
            ));
        }
    }

    #[test]
    #[should_panic(expected = "on_fraction")]
    fn zero_on_fraction_rejected() {
        MediumKind::duty_cycled(MediumKind::Ideal, 0.0, 1.0).build::<()>(2);
    }
}

#[cfg(test)]
mod validation_tests {
    use super::*;

    fn build_shadowing(params: ShadowingParams) {
        MediumKind::Shadowing(params).build::<()>(2);
    }

    #[test]
    #[should_panic(expected = "path-loss exponent must be positive")]
    fn zero_path_loss_exponent_rejected() {
        build_shadowing(ShadowingParams {
            path_loss_exp: 0.0,
            ..ShadowingParams::default()
        });
    }

    #[test]
    #[should_panic(expected = "shadowing sigma must be non-negative")]
    fn negative_sigma_rejected() {
        build_shadowing(ShadowingParams {
            sigma_db: -1.0,
            ..ShadowingParams::default()
        });
    }

    #[test]
    #[should_panic(expected = "reference distance must be positive")]
    fn zero_reference_distance_rejected() {
        build_shadowing(ShadowingParams {
            d0: 0.0,
            ..ShadowingParams::default()
        });
    }
}

//! The radio/PHY layer: transmit queues, serialisation, carrier-sense
//! backoff, ARQ and the collision model — behind the pluggable
//! [`Medium`] trait.
//!
//! The engine is medium-agnostic: it hands every link-layer decision to a
//! [`Medium`] implementation and only schedules the completion times the
//! medium returns. [`ContentionMedium`] is the default and reproduces the
//! paper's NS-2-calibrated 802.11 model; alternate PHYs (ideal lossless
//! links, probabilistic shadowing, duty-cycled radios, …) drop in by
//! implementing the trait and passing the instance to
//! [`crate::Simulation::with_medium`] — no engine changes required.
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
    /// in the engine so that wrapper media (e.g. [`DutyCycledMedium`])
    /// can veto an inner medium's delivery without unwinding statistics.
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

/// Why a frame failed at the link layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FrameLoss {
    Collision,
    OutOfRange,
}

#[derive(Debug, Clone)]
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
    /// Queues a frame under the shared discipline: drop-tail at `limit`,
    /// control frames jump ahead of queued data (the MAC-level priority
    /// short frames enjoy in practice; without it, custody
    /// acknowledgements would sit behind seconds of queued data and every
    /// cache timeout would fork a duplicate copy).
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

    /// Number of frames waiting (not in flight).
    fn queue_len(&self) -> usize {
        self.queue.len()
    }
}

/// Builds the [`TxResolution::Delivered`] the engine expects; the engine
/// performs the data/control delivery accounting when it processes the
/// resolution (so wrapper media can still veto the delivery).
fn deliver<Pk>(frame: Frame<Pk>, from_pos: Point2) -> TxResolution<Pk> {
    TxResolution::Delivered {
        to: frame.to,
        packet: frame.packet,
        from_pos,
        kind: frame.kind,
    }
}

/// 802.11-style ARQ re-arm shared by the lossy media: bumps the retry
/// counter and returns the frame together with its next completion time
/// (exponential backoff with one slot of random jitter, then
/// re-serialisation). The caller has already checked the retry budget.
fn arq_retry<Pk>(world: &mut World, mut frame: Frame<Pk>) -> (Frame<Pk>, SimTime) {
    frame.retries += 1;
    let slots = (1u32 << frame.retries.min(10)) as f64;
    let jitter: f64 = world.rng().random_range(0.0..=1.0);
    let backoff = world.config().mac_slot * slots * (1.0 + jitter);
    let duration = world.config().tx_time(frame.size);
    let at = world.now() + backoff + duration;
    (frame, at)
}

/// The default medium: the paper's contention model.
///
/// * unit-disk reception at `config.radio_range`;
/// * per-node FIFO transmit queues of `config.queue_limit` frames with
///   drop-tail overflow (NS-2's `IFq`);
/// * control frames jump ahead of queued data — the MAC-level priority
///   short frames enjoy in practice; without it, custody
///   acknowledgements would sit behind seconds of queued data and every
///   cache timeout would fork a duplicate copy;
/// * carrier-sense access delay proportional to busy transmitters within
///   twice the radio range, plus one slot of random jitter;
/// * serialisation at `config.data_rate_bps` plus fixed MAC overhead;
/// * probabilistic collision loss growing with the number of interferers
///   near the receiver (hidden terminals included), retried with
///   exponential backoff up to `config.mac_retries` times while the
///   radio stays busy (head-of-line blocking — the paper's contention
///   mechanism);
/// * carrier sense and interference both count the medium's on-air list
///   — the radios with a frame in flight — with the exact distance test a
///   scan over every radio would apply. The list holds a handful of
///   radios on the shipped workloads, 10k-node runs included, so walking
///   it is cheaper than a spatial query.
#[derive(Debug)]
pub struct ContentionMedium<Pk> {
    radios: Vec<Radio<Pk>>,
    /// Every node whose radio has a frame in flight (ARQ retries
    /// included), in no particular order: only counts are read from it.
    on_air: Vec<NodeId>,
}

impl<Pk> ContentionMedium<Pk> {
    /// Creates the medium for `n_nodes` radios.
    pub fn new(n_nodes: usize) -> Self {
        ContentionMedium {
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
}

impl<Pk: Clone + std::fmt::Debug> Medium<Pk> for ContentionMedium<Pk> {
    fn enqueue(
        &mut self,
        world: &mut World,
        from: NodeId,
        frame: Frame<Pk>,
    ) -> Result<Option<SimTime>, QueueFull> {
        let ui = from.index();
        if let Err(e) = self.radios[ui].push(frame, world.config().queue_limit) {
            world.stats().queue_drops += 1;
            return Err(e);
        }
        Ok(self.start_next(world, from))
    }

    fn tx_complete(&mut self, world: &mut World, from: NodeId) -> TxResolution<Pk> {
        let frame = self.radios[from.index()].take_in_flight();
        let pos_u = world.pos(from);
        let pos_to = world.pos(frame.to);
        let range = world.config().radio_range;

        let failure = if pos_u.dist(pos_to) > range {
            Some(FrameLoss::OutOfRange)
        } else {
            // Interference near the receiver (includes hidden terminals).
            let k = self.on_air_within(world, pos_to, range, from);
            let p_loss = 1.0 - (1.0 - world.config().collision_prob).powi(k as i32);
            if k > 0 && world.rng().random_range(0.0..1.0) < p_loss {
                Some(FrameLoss::Collision)
            } else {
                None
            }
        };

        if let Some(loss) = failure {
            match loss {
                FrameLoss::Collision => world.stats().collisions += 1,
                FrameLoss::OutOfRange => world.stats().out_of_range += 1,
            }
            // 802.11-style ARQ: retry with exponential backoff until the
            // retry budget is spent; the radio stays busy meanwhile.
            if frame.retries < world.config().mac_retries {
                let (frame, at) = arq_retry(world, frame);
                self.radios[from.index()].current = Some(frame);
                return TxResolution::Retrying { at };
            }
            self.leave_air(from);
            return TxResolution::Lost;
        }

        self.leave_air(from);
        deliver(frame, pos_u)
    }

    fn start_next(&mut self, world: &mut World, from: NodeId) -> Option<SimTime> {
        let ui = from.index();
        let frame = self.radios[ui].pop_next()?;
        let pos_u = world.pos(from);
        // Carrier sense: back off proportionally to busy transmitters in a
        // two-radius neighbourhood, plus random jitter of one slot.
        let contention =
            self.on_air_within(world, pos_u, 2.0 * world.config().radio_range, from) as f64;
        let jitter: f64 = world.rng().random_range(0.0..=1.0);
        let access = world.config().mac_slot * (contention + jitter);
        let duration = world.config().tx_time(frame.size);
        let done = world.now() + access + duration;
        self.radios[ui].current = Some(frame);
        self.on_air.push(from);
        Some(done)
    }

    fn queue_len(&self, node: NodeId) -> usize {
        self.radios[node.index()].queue_len()
    }
}

/// A lossless, zero-contention radio for protocol-logic debugging.
///
/// Every enqueued frame arrives after pure serialisation time
/// ([`crate::SimConfig::tx_time`]): no carrier-sense backoff, no jitter,
/// no collisions, no range check — if the protocol sends it, the
/// destination hears it. The queue discipline (drop-tail at
/// `queue_limit`, control-before-data) is shared with
/// [`ContentionMedium`], so queue-pressure behaviour stays comparable.
///
/// `IdealMedium` draws nothing from [`World::rng`], which trivially
/// satisfies the determinism contract, and never touches the
/// `collisions`/`out_of_range` counters — a run whose statistics show
/// either non-zero under this medium has found an engine bug (asserted
/// by the cross-medium invariant tests).
#[derive(Debug)]
pub struct IdealMedium<Pk> {
    radios: Vec<Radio<Pk>>,
}

impl<Pk> IdealMedium<Pk> {
    /// Creates the medium for `n_nodes` radios.
    pub fn new(n_nodes: usize) -> Self {
        IdealMedium {
            radios: (0..n_nodes).map(|_| Radio::default()).collect(),
        }
    }
}

impl<Pk: Clone + std::fmt::Debug> Medium<Pk> for IdealMedium<Pk> {
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
        let frame = self.radios[from.index()].take_in_flight();
        let from_pos = world.pos(from);
        deliver(frame, from_pos)
    }

    fn start_next(&mut self, world: &mut World, from: NodeId) -> Option<SimTime> {
        let ui = from.index();
        let frame = self.radios[ui].pop_next()?;
        let done = world.now() + world.config().tx_time(frame.size);
        self.radios[ui].current = Some(frame);
        Some(done)
    }

    fn queue_len(&self, node: NodeId) -> usize {
        self.radios[node.index()].queue_len()
    }
}

/// Parameters of the log-distance shadowing model.
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

/// Counter key under which [`ShadowingMedium`] reports fade losses in
/// [`crate::RunStats::counters`].
pub const SHADOWING_FADE_LOSS: &str = "medium.shadow_fade";

/// Log-distance path loss with per-frame log-normal shadowing.
///
/// The model is calibrated so that at `config.radio_range` the mean path
/// loss exactly meets the receiver threshold: the fade margin of a frame
/// over distance `d` is `10·n·log10(range/d)` dB, and the frame is lost
/// when a per-frame shadowing draw `X ~ N(0, σ²)` (from [`World::rng`],
/// preserving the determinism contract) exceeds that margin. Links well
/// inside the nominal range are near-certain, the delivery probability
/// is 50 % exactly at the range, and — unlike the unit-disk media — a
/// lucky fade can carry a frame *beyond* it: soft range edges instead of
/// a cliff.
///
/// Lost frames are retried with the same exponential-backoff ARQ as
/// [`ContentionMedium`] and accounted under the [`SHADOWING_FADE_LOSS`]
/// event counter (the `collisions`/`out_of_range` counters stay the
/// contention model's). Serialisation and queueing match
/// [`ContentionMedium`] minus the carrier-sense term: one random jitter
/// slot of medium-access delay, then `tx_time`.
///
/// Portability caveat: the fade decision evaluates `ln`/`cos`/`log10`,
/// which IEEE 754 does not require to be correctly rounded — their
/// last-ulp behaviour belongs to the platform libm. Shadowing runs are
/// therefore bit-reproducible per binary (and across shard invocations
/// of that binary), but a shard computed on a host with a different
/// libm may diverge; keep multi-machine sweeps on one build when this
/// medium is in the grid. The unit-disk media use only arithmetic,
/// `sqrt` and `powi` and carry no such caveat.
#[derive(Debug)]
pub struct ShadowingMedium<Pk> {
    radios: Vec<Radio<Pk>>,
    params: ShadowingParams,
}

impl<Pk> ShadowingMedium<Pk> {
    /// Creates the medium for `n_nodes` radios.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is non-positive or non-finite.
    pub fn new(n_nodes: usize, params: ShadowingParams) -> Self {
        assert!(
            params.path_loss_exp > 0.0 && params.path_loss_exp.is_finite(),
            "path-loss exponent must be positive"
        );
        assert!(
            params.sigma_db >= 0.0 && params.sigma_db.is_finite(),
            "shadowing sigma must be non-negative"
        );
        assert!(
            params.d0 > 0.0 && params.d0.is_finite(),
            "reference distance must be positive"
        );
        ShadowingMedium {
            radios: (0..n_nodes).map(|_| Radio::default()).collect(),
            params,
        }
    }

    /// A standard normal draw via Box–Muller (the vendored `rand` shim has
    /// no distributions module).
    fn standard_normal(rng: &mut impl Rng) -> f64 {
        let u1: f64 = rng.random_range(0.0..1.0);
        let u2: f64 = rng.random_range(0.0..1.0);
        // 1 - u1 ∈ (0, 1], so the log is finite.
        (-2.0 * (1.0 - u1).ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

impl<Pk: Clone + std::fmt::Debug> Medium<Pk> for ShadowingMedium<Pk> {
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
        let frame = self.radios[from.index()].take_in_flight();
        let pos_u = world.pos(from);
        let d = pos_u.dist(world.pos(frame.to)).max(self.params.d0);
        // Fade margin in dB: zero at the nominal range, positive inside.
        let margin_db = 10.0 * self.params.path_loss_exp * (world.config().radio_range / d).log10();
        let shadow_db = self.params.sigma_db * Self::standard_normal(world.rng());

        if shadow_db > margin_db {
            world.stats().count_event(SHADOWING_FADE_LOSS);
            if frame.retries < world.config().mac_retries {
                let (frame, at) = arq_retry(world, frame);
                self.radios[from.index()].current = Some(frame);
                return TxResolution::Retrying { at };
            }
            return TxResolution::Lost;
        }

        deliver(frame, pos_u)
    }

    fn start_next(&mut self, world: &mut World, from: NodeId) -> Option<SimTime> {
        let ui = from.index();
        let frame = self.radios[ui].pop_next()?;
        let jitter: f64 = world.rng().random_range(0.0..=1.0);
        let access = world.config().mac_slot * jitter;
        let done = world.now() + access + world.config().tx_time(frame.size);
        self.radios[ui].current = Some(frame);
        Some(done)
    }

    fn queue_len(&self, node: NodeId) -> usize {
        self.radios[node.index()].queue_len()
    }
}

/// Counter key under which [`DutyCycledMedium`] reports frames dropped
/// because the receiver's radio was asleep, in
/// [`crate::RunStats::counters`].
pub const DUTY_SLEEP_DROP: &str = "medium.duty_sleep_drop";

/// A duty-cycled radio: wraps any inner [`Medium`] and drops frames that
/// *arrive* while the receiving node's radio is asleep.
///
/// Each node's radio wakes for the first `on_fraction` of every `period`
/// seconds, with a deterministic per-node phase offset (golden-ratio
/// staggering, so sleep windows are spread instead of synchronised
/// network-wide). The schedule is a pure function of `(node, time)` — no
/// randomness — which trivially preserves the determinism contract, and
/// the wrapper delegates queueing, serialisation, contention and loss
/// modelling entirely to the inner medium: a frame must first survive
/// the inner model, then find its receiver awake.
///
/// Dropped-at-sleep frames are counted under [`DUTY_SLEEP_DROP`] and are
/// *not* retried: the transmitter's MAC saw no collision and moves on,
/// which is exactly the silent-loss failure mode that makes aggressive
/// duty cycling expensive for beacon-driven protocols. Engine-level
/// beacons bypass the [`Medium`] trait (the engine computes their
/// receiver sets geometrically), so duty cycling here models the *data
/// plane*: unicast data and protocol control frames.
///
/// Built declaratively via [`crate::MediumKind::DutyCycled`].
pub struct DutyCycledMedium<Pk> {
    inner: Box<dyn Medium<Pk>>,
    on_fraction: f64,
    period: f64,
}

impl<Pk> DutyCycledMedium<Pk> {
    /// Wraps `inner` with an `on_fraction`/`period` sleep schedule.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < on_fraction <= 1` and `period` is positive and
    /// finite.
    pub fn new(inner: Box<dyn Medium<Pk>>, on_fraction: f64, period: f64) -> Self {
        assert!(
            on_fraction > 0.0 && on_fraction <= 1.0,
            "on_fraction must be in (0, 1], got {on_fraction}"
        );
        assert!(
            period > 0.0 && period.is_finite(),
            "period must be positive and finite, got {period}"
        );
        DutyCycledMedium {
            inner,
            on_fraction,
            period,
        }
    }

    /// Whether `node`'s radio is awake at `now`: within the first
    /// `on_fraction` of its (phase-staggered) period.
    pub fn awake(&self, node: NodeId, now: SimTime) -> bool {
        // Low bits of the golden ratio spread phases maximally evenly.
        let phase = (node.0 as f64 * 0.618_033_988_749_894_9).fract() * self.period;
        let local = (now.as_secs() + phase) % self.period;
        local < self.on_fraction * self.period
    }
}

impl<Pk> std::fmt::Debug for DutyCycledMedium<Pk> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DutyCycledMedium")
            .field("on_fraction", &self.on_fraction)
            .field("period", &self.period)
            .finish_non_exhaustive()
    }
}

impl<Pk: Clone + std::fmt::Debug> Medium<Pk> for DutyCycledMedium<Pk> {
    fn enqueue(
        &mut self,
        world: &mut World,
        from: NodeId,
        frame: Frame<Pk>,
    ) -> Result<Option<SimTime>, QueueFull> {
        self.inner.enqueue(world, from, frame)
    }

    fn tx_complete(&mut self, world: &mut World, from: NodeId) -> TxResolution<Pk> {
        match self.inner.tx_complete(world, from) {
            TxResolution::Delivered { to, .. } if !self.awake(to, world.now()) => {
                world.stats().count_event(DUTY_SLEEP_DROP);
                TxResolution::Lost
            }
            resolution => resolution,
        }
    }

    fn start_next(&mut self, world: &mut World, from: NodeId) -> Option<SimTime> {
        self.inner.start_next(world, from)
    }

    fn queue_len(&self, node: NodeId) -> usize {
        self.inner.queue_len(node)
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

    /// [`ContentionMedium`] with its on-air list checked against a scan of
    /// every radio before and after each call.
    struct Checked<Pk> {
        inner: ContentionMedium<Pk>,
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

    impl<Pk: Clone + std::fmt::Debug> Medium<Pk> for Checked<Pk> {
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
            inner: ContentionMedium::new(cfg.n_nodes),
            outcomes: Rc::clone(&outcomes),
        };
        let stats = Simulation::with_medium(cfg, wl, |_, _| Flood, medium).run();
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
        let m: DutyCycledMedium<()> =
            DutyCycledMedium::new(Box::new(IdealMedium::new(4)), 0.25, 1.0);
        for node in [NodeId(0), NodeId(1), NodeId(2), NodeId(3)] {
            let awake = (0..1000)
                .filter(|i| m.awake(node, SimTime::from_secs(*i as f64 * 0.01)))
                .count();
            // 25% on-time, sampled over 10 periods.
            assert!((200..=300).contains(&awake), "node {node:?}: {awake}");
        }
        // Phases are staggered: node 0 and node 1 differ somewhere.
        assert!((0..100).any(|i| {
            let t = SimTime::from_secs(i as f64 * 0.01);
            m.awake(NodeId(0), t) != m.awake(NodeId(1), t)
        }));
    }

    #[test]
    fn full_on_fraction_never_sleeps() {
        let m: DutyCycledMedium<()> =
            DutyCycledMedium::new(Box::new(IdealMedium::new(2)), 1.0, 5.0);
        for i in 0..500 {
            assert!(m.awake(NodeId(1), SimTime::from_secs(i as f64 * 0.1)));
        }
    }

    #[test]
    #[should_panic(expected = "on_fraction")]
    fn zero_on_fraction_rejected() {
        let _: DutyCycledMedium<()> =
            DutyCycledMedium::new(Box::new(IdealMedium::new(2)), 0.0, 1.0);
    }
}

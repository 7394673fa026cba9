//! Layer tracing from outside the program: wrappers that implement the
//! simulator's `Protocol` and `Medium` traits around the real protocol and
//! medium, time every call that crosses into them, and keep per-function
//! aggregates (calls, self nanoseconds) in memory.
//!
//! A protocol hook's self time excludes the medium calls it makes (a
//! `Ctx::send` enqueues straight into the medium), so the two layers'
//! self times never overlap; the engine's self time is what the run took
//! beyond both. Each layer's self time carries most of its own wrapper's
//! timing cost; a hook also keeps about one clock read per medium call it
//! makes.

use glr_sim::{Ctx, Frame, Medium, MessageInfo, NodeId, Protocol, QueueFull, SimTime};
use glr_sim::{TxResolution, World};
use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

/// Protocol hooks, in the order of [`Tracer::hooks`].
pub const HOOKS: [&str; 6] = [
    "on_init",
    "on_message_created",
    "on_packet",
    "on_neighbor_appeared",
    "on_timer",
    "storage_used",
];
const ON_INIT: usize = 0;
const ON_MESSAGE_CREATED: usize = 1;
const ON_PACKET: usize = 2;
const ON_NEIGHBOR_APPEARED: usize = 3;
const ON_TIMER: usize = 4;
const STORAGE_USED: usize = 5;

/// Medium functions, in the order of [`Tracer::medium`].
pub const MEDIUM_FNS: [&str; 4] = ["enqueue", "tx_complete", "start_next", "queue_len"];
const ENQUEUE: usize = 0;
const TX_COMPLETE: usize = 1;
const START_NEXT: usize = 2;
const QUEUE_LEN: usize = 3;

/// Calls and self time of one traced function.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Agg {
    pub calls: u64,
    pub self_ns: u64,
}

impl Agg {
    fn add(&mut self, other: Agg) {
        self.calls += other.calls;
        self.self_ns += other.self_ns;
    }
}

/// What the medium made of its calls: `tx_complete` resolutions plus
/// enqueues refused by a full queue.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Outcomes {
    pub delivered: u64,
    pub lost: u64,
    pub retrying: u64,
    pub queue_full: u64,
}

/// The in-memory aggregates of one traced simulation (or a sum of them).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Profile {
    pub hooks: [Agg; 6],
    pub medium: [Agg; 4],
    pub outcomes: Outcomes,
}

impl Profile {
    pub fn add(&mut self, other: &Profile) {
        for (a, b) in self.hooks.iter_mut().zip(&other.hooks) {
            a.add(*b);
        }
        for (a, b) in self.medium.iter_mut().zip(&other.medium) {
            a.add(*b);
        }
        self.outcomes.delivered += other.outcomes.delivered;
        self.outcomes.lost += other.outcomes.lost;
        self.outcomes.retrying += other.outcomes.retrying;
        self.outcomes.queue_full += other.outcomes.queue_full;
    }

    /// The profile with every time multiplied by `factor`.
    pub fn scaled(&self, factor: f64) -> Profile {
        let scale = |a: &Agg| Agg {
            calls: a.calls,
            self_ns: (a.self_ns as f64 * factor).round() as u64,
        };
        Profile {
            hooks: self.hooks.each_ref().map(scale),
            medium: self.medium.each_ref().map(scale),
            outcomes: self.outcomes,
        }
    }

    pub fn protocol_self_ns(&self) -> u64 {
        self.hooks.iter().map(|a| a.self_ns).sum()
    }

    pub fn medium_self_ns(&self) -> u64 {
        self.medium.iter().map(|a| a.self_ns).sum()
    }

    pub fn hook(&self, name: &str) -> Agg {
        self.hooks[HOOKS.iter().position(|h| *h == name).expect("known hook")]
    }

    pub fn medium_fn(&self, name: &str) -> Agg {
        self.medium[MEDIUM_FNS
            .iter()
            .position(|f| *f == name)
            .expect("known medium function")]
    }
}

/// Shared by every wrapper of one simulation (the engine is
/// single-threaded, so plain cells suffice).
#[derive(Default)]
pub struct Tracer {
    hooks: [Cell<Agg>; 6],
    medium: [Cell<Agg>; 4],
    outcomes: Cell<Outcomes>,
    /// Running total of medium nanoseconds, read before and after each
    /// protocol hook to take nested medium calls out of its self time.
    medium_ns: Cell<u64>,
}

impl Tracer {
    pub fn profile(&self) -> Profile {
        Profile {
            hooks: std::array::from_fn(|i| self.hooks[i].get()),
            medium: std::array::from_fn(|i| self.medium[i].get()),
            outcomes: self.outcomes.get(),
        }
    }

    fn hook<R>(&self, hook: usize, f: impl FnOnce() -> R) -> R {
        let nested_before = self.medium_ns.get();
        let start = Instant::now();
        let r = f();
        let elapsed = start.elapsed().as_nanos() as u64;
        let nested = self.medium_ns.get() - nested_before;
        let cell = &self.hooks[hook];
        let mut agg = cell.get();
        agg.calls += 1;
        agg.self_ns += elapsed.saturating_sub(nested);
        cell.set(agg);
        r
    }

    /// Times a medium call. The span closes after the call count is
    /// stored, so the bookkeeping is the medium's; what stays in an
    /// enclosing hook's self time is about one clock read per call.
    fn medium<R>(&self, func: usize, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        let cell = &self.medium[func];
        let mut agg = cell.get();
        agg.calls += 1;
        cell.set(agg);
        let span = start.elapsed().as_nanos() as u64;
        self.medium_ns.set(self.medium_ns.get() + span);
        agg.self_ns += span;
        cell.set(agg);
        r
    }

    fn outcome(&self, f: impl FnOnce(&mut Outcomes)) {
        let mut o = self.outcomes.get();
        f(&mut o);
        self.outcomes.set(o);
    }
}

/// A protocol instance whose hooks are timed into a shared [`Tracer`].
pub struct TracedProtocol<P> {
    inner: P,
    tracer: Rc<Tracer>,
}

impl<P> TracedProtocol<P> {
    pub fn new(inner: P, tracer: Rc<Tracer>) -> Self {
        TracedProtocol { inner, tracer }
    }
}

impl<P: Protocol> Protocol for TracedProtocol<P> {
    type Packet = P::Packet;

    fn on_init(&mut self, ctx: &mut Ctx<'_, P::Packet>) {
        let inner = &mut self.inner;
        self.tracer.hook(ON_INIT, || inner.on_init(ctx))
    }

    fn on_message_created(&mut self, ctx: &mut Ctx<'_, P::Packet>, info: MessageInfo) {
        let inner = &mut self.inner;
        self.tracer
            .hook(ON_MESSAGE_CREATED, || inner.on_message_created(ctx, info))
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_, P::Packet>, from: NodeId, packet: P::Packet) {
        let inner = &mut self.inner;
        self.tracer
            .hook(ON_PACKET, || inner.on_packet(ctx, from, packet))
    }

    fn on_neighbor_appeared(&mut self, ctx: &mut Ctx<'_, P::Packet>, nbr: NodeId) {
        let inner = &mut self.inner;
        self.tracer.hook(ON_NEIGHBOR_APPEARED, || {
            inner.on_neighbor_appeared(ctx, nbr)
        })
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, P::Packet>, token: u64) {
        let inner = &mut self.inner;
        self.tracer.hook(ON_TIMER, || inner.on_timer(ctx, token))
    }

    fn storage_used(&self) -> usize {
        self.tracer.hook(STORAGE_USED, || self.inner.storage_used())
    }
}

/// A medium whose every call is timed into a shared [`Tracer`], with the
/// outcome of each `tx_complete` and each refused enqueue counted.
pub struct TracedMedium<Pk> {
    inner: Box<dyn Medium<Pk>>,
    tracer: Rc<Tracer>,
}

impl<Pk> TracedMedium<Pk> {
    pub fn new(inner: Box<dyn Medium<Pk>>, tracer: Rc<Tracer>) -> Self {
        TracedMedium { inner, tracer }
    }
}

impl<Pk> Medium<Pk> for TracedMedium<Pk> {
    fn enqueue(
        &mut self,
        world: &mut World,
        from: NodeId,
        frame: Frame<Pk>,
    ) -> Result<Option<SimTime>, QueueFull> {
        let inner = &mut self.inner;
        let r = self
            .tracer
            .medium(ENQUEUE, || inner.enqueue(world, from, frame));
        if r.is_err() {
            self.tracer.outcome(|o| o.queue_full += 1);
        }
        r
    }

    fn tx_complete(&mut self, world: &mut World, from: NodeId) -> TxResolution<Pk> {
        let inner = &mut self.inner;
        let r = self
            .tracer
            .medium(TX_COMPLETE, || inner.tx_complete(world, from));
        self.tracer.outcome(|o| match r {
            TxResolution::Delivered { .. } => o.delivered += 1,
            TxResolution::Lost => o.lost += 1,
            TxResolution::Retrying { .. } => o.retrying += 1,
        });
        r
    }

    fn start_next(&mut self, world: &mut World, from: NodeId) -> Option<SimTime> {
        let inner = &mut self.inner;
        self.tracer
            .medium(START_NEXT, || inner.start_next(world, from))
    }

    fn queue_len(&self, node: NodeId) -> usize {
        self.tracer.medium(QUEUE_LEN, || self.inner.queue_len(node))
    }
}

//! The benchmark's workloads: each is a fixed set of simulations derived
//! from the invocation's seed, built and run through the simulator's
//! public API (`Scenario`, `MediumKind::build`,
//! `Simulation::with_boxed_medium`).

use crate::trace::{Profile, TracedMedium, TracedProtocol, Tracer};
use glr_core::{Glr, GlrConfig};
use glr_epidemic::Epidemic;
use glr_sim::{MediumKind, NodeId, Protocol, RunStats, Scenario, SimConfig, Simulation};
use std::rc::Rc;
use std::time::Instant;

/// `--quick` traffic of the paper's Table 6 (a quarter of 1980 messages).
const QUICK_MESSAGES: usize = 495;

/// Constructions timed per simulation run. Its set-up time is the
/// fastest of them: one construction takes about 0.1 ms for the 50-node
/// workloads, short enough that an interrupt, a cache refill after the
/// previous run or a slow moment of the host moves it by tens of percent.
const SETUP_REPEATS: usize = 9;

/// Nodes of the `large-n` workload.
const LARGE_N_NODES: usize = 100_000;
/// Simulated seconds of each `large-n` simulation.
const LARGE_N_SECONDS: f64 = 2.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Proto {
    Glr,
    Epidemic,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// GLR on the Table 1 setup at 100 m and 50 m: the route check is
    /// heaviest here.
    GlrRoute,
    /// Epidemic routing on the Table 1 setup at 250 m: same engine and
    /// medium, no route checks.
    EpidemicFlood,
    /// Epidemic routing at 100k nodes and paper density for a few
    /// simulated seconds: the engine does nearly all the work.
    LargeN,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::GlrRoute,
        Workload::EpidemicFlood,
        Workload::LargeN,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::GlrRoute => "glr-route",
            Workload::EpidemicFlood => "epidemic-flood",
            Workload::LargeN => "large-n",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Simulation seeds per pass: enough that the seed-to-seed spread of
    /// simulated work averages out within one pass.
    fn seeds_per_pass(self) -> u64 {
        match self {
            Workload::GlrRoute => 8,
            Workload::EpidemicFlood => 8,
            Workload::LargeN => 4,
        }
    }

    /// The workload's fixed set of simulations for `seed`. The same seed
    /// always gives the same set; each simulation seed belongs to exactly
    /// one benchmark seed.
    pub fn sims(self, seed: u64) -> Vec<SimSpec> {
        let per_pass = self.seeds_per_pass();
        let mut sims = Vec::new();
        for i in 0..per_pass {
            let sim_seed = seed.wrapping_mul(64).wrapping_add(i);
            match self {
                Workload::GlrRoute => {
                    for (label, radius) in [("glr-route/100m", 100.0), ("glr-route/50m", 50.0)] {
                        sims.push(SimSpec::paper(label, Proto::Glr, radius, sim_seed));
                    }
                }
                Workload::EpidemicFlood => sims.push(SimSpec::paper(
                    "epidemic-flood/250m",
                    Proto::Epidemic,
                    250.0,
                    sim_seed,
                )),
                Workload::LargeN => {
                    let config = SimConfig::paper_scaled(LARGE_N_NODES, 100.0, sim_seed)
                        .with_duration(LARGE_N_SECONDS);
                    let scenario = Scenario::new("large-n/100k", config)
                        .with_messages(LARGE_N_NODES / 50)
                        .with_medium(MediumKind::Contention);
                    sims.push(SimSpec {
                        label: "large-n/100k",
                        proto: Proto::Epidemic,
                        scenario,
                    });
                }
            }
        }
        sims
    }
}

/// One simulation of a workload.
#[derive(Debug, Clone)]
pub struct SimSpec {
    /// Workload and cell, e.g. `glr-route/50m` (the digest table's key
    /// together with the seed).
    pub label: &'static str,
    pub proto: Proto,
    pub scenario: Scenario,
}

impl SimSpec {
    /// The paper's Table 1 setup (50 nodes, 1500 m × 300 m, random
    /// waypoint 0–20 m/s, 3800 s, contention medium) with `--quick`
    /// traffic.
    fn paper(label: &'static str, proto: Proto, radius: f64, seed: u64) -> SimSpec {
        let scenario = Scenario::new(label, SimConfig::paper(radius, seed))
            .with_messages(QUICK_MESSAGES)
            .with_medium(MediumKind::Contention);
        SimSpec {
            label,
            proto,
            scenario,
        }
    }

    pub fn seed(&self) -> u64 {
        self.scenario.config.seed
    }

    /// Node-seconds of simulated work: `n_nodes × sim_duration`.
    pub fn node_seconds(&self) -> f64 {
        self.scenario.config.n_nodes as f64 * self.scenario.config.sim_duration
    }

    /// Same simulation, shorter and over another medium (for the wrapper
    /// self-test).
    pub fn shortened(&self, duration: f64, medium: MediumKind) -> SimSpec {
        let mut s = self.clone();
        s.scenario.config = s.scenario.config.with_duration(duration);
        s.scenario.medium = medium;
        s
    }

    /// Builds the simulation without running it (set-up warm-up).
    pub fn build_only(&self) {
        match self.proto {
            Proto::Glr => drop(self.build(glr_factory(), None)),
            Proto::Epidemic => drop(self.build(Epidemic::new, None)),
        }
    }

    /// Builds and runs the simulation, tracing it when `tracer` is given.
    pub fn run(&self, tracer: Option<&Rc<Tracer>>) -> SimResult {
        match self.proto {
            Proto::Glr => self.run_with(glr_factory(), tracer),
            Proto::Epidemic => self.run_with(Epidemic::new, tracer),
        }
    }

    /// Builds the simulation [`SETUP_REPEATS`] times, timing each
    /// construction, and runs the last one.
    fn run_with<P: Protocol>(
        &self,
        mut factory: impl FnMut(NodeId, &SimConfig) -> P,
        tracer: Option<&Rc<Tracer>>,
    ) -> SimResult {
        let mut setups = Vec::with_capacity(SETUP_REPEATS);
        for _ in 1..SETUP_REPEATS {
            let start = Instant::now();
            let sim = self.build(&mut factory, tracer);
            setups.push(start.elapsed().as_secs_f64());
            drop(sim);
        }
        let start = Instant::now();
        let sim = self.build(factory, tracer);
        let built = Instant::now();
        setups.push((built - start).as_secs_f64());
        let stats = sim.run();
        let done = Instant::now();
        SimResult {
            setup_s: setups.iter().copied().fold(f64::INFINITY, f64::min),
            run_s: (done - built).as_secs_f64(),
            profile: tracer.map(|t| t.profile()),
            stats,
        }
    }

    /// Simulation construction: workload, medium, deployment, tables and
    /// one protocol instance per node. Traced simulations get wrapped
    /// protocols and a wrapped medium.
    fn build<P: Protocol>(
        &self,
        mut factory: impl FnMut(NodeId, &SimConfig) -> P,
        tracer: Option<&Rc<Tracer>>,
    ) -> Sim<P> {
        let sc = &self.scenario;
        let workload = sc.build_workload();
        let medium = sc.medium.build::<P::Packet>(sc.config.n_nodes);
        match tracer {
            None => Sim::Plain(Simulation::with_boxed_medium(
                sc.config.clone(),
                workload,
                factory,
                medium,
            )),
            Some(t) => Sim::Traced(Simulation::with_boxed_medium(
                sc.config.clone(),
                workload,
                |id, cfg| TracedProtocol::new(factory(id, cfg), Rc::clone(t)),
                Box::new(TracedMedium::new(medium, Rc::clone(t))),
            )),
        }
    }
}

fn glr_factory() -> impl FnMut(NodeId, &SimConfig) -> Glr {
    Glr::factory(GlrConfig::paper())
}

enum Sim<P: Protocol> {
    Plain(Simulation<P>),
    Traced(Simulation<TracedProtocol<P>>),
}

impl<P: Protocol> Sim<P> {
    fn run(self) -> RunStats {
        match self {
            Sim::Plain(s) => s.run(),
            Sim::Traced(s) => s.run(),
        }
    }
}

/// What one simulation produced.
pub struct SimResult {
    /// Host seconds of the fastest construction.
    pub setup_s: f64,
    pub run_s: f64,
    pub stats: RunStats,
    /// The layer aggregates, for traced simulations.
    pub profile: Option<Profile>,
}

fn fnv(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0000_0100_0000_01b3)
}

/// The `RunStats` digest of `examples/fingerprint.rs`: every counter and
/// every per-message record (bit-exact times) folded into 64 bits.
pub fn digest(stats: &RunStats) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in [
        stats.data_tx,
        stats.control_tx,
        stats.collisions,
        stats.out_of_range,
        stats.queue_drops,
        stats.storage_drops,
    ] {
        h = fnv(h, v);
    }
    for &p in &stats.peak_storage {
        h = fnv(h, p as u64);
    }
    let mut counters: Vec<_> = stats.counters.iter().collect();
    counters.sort();
    for (name, v) in counters {
        for b in name.bytes() {
            h = fnv(h, b as u64);
        }
        h = fnv(h, *v);
    }
    for r in stats.records() {
        h = fnv(h, r.src.0 as u64);
        h = fnv(h, r.dst.0 as u64);
        h = fnv(h, r.created.as_secs().to_bits());
        h = fnv(h, r.delivered.map_or(0, |t| t.as_secs().to_bits()));
        h = fnv(h, r.hops.unwrap_or(0) as u64);
        h = fnv(h, r.duplicate_deliveries as u64);
    }
    h
}

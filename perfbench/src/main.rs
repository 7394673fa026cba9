//! End-to-end benchmark of the GLR reproduction.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload glr-route --seed 1 --seconds 30 --trace 0
//! ```
//!
//! One invocation builds its workload's fixed set of simulations from
//! `--seed` and runs it over and over on one thread, one *pass* per
//! repetition, for `--seconds`. Every simulation's `RunStats` digest is
//! checked against the recorded digest for its seed (`digests.txt`) and
//! against the same simulation's digest in earlier passes.
//!
//! * `--trace 0` prints the end-to-end metrics: medians over passes of
//!   the pass wall time, node-seconds simulated per second, and set-up
//!   time, all in reference seconds (`clock.rs`), and the process's peak
//!   RSS.
//! * `--trace 1` alternates untraced passes with passes whose protocol and
//!   medium are wrapped in timing shims (`trace.rs`), and prints the
//!   per-layer split and the tracing overhead.
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//!
//! Other modes: `--self-test` checks the tracing wrappers, and
//! `--record-digests FIRST LAST` prints the digest table for
//! benchmark seeds `FIRST..=LAST`.

mod clock;
mod trace;
mod workloads;

use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::rc::Rc;
use std::time::Instant;
use trace::{Profile, Tracer, MEDIUM_FNS};
use workloads::{digest, SimResult, SimSpec, Workload};

/// Passes an invocation always makes, however short `--seconds` is, so
/// that the median over passes can drop one disturbed pass.
const MIN_PASSES: usize = 3;
/// Untraced/traced pass pairs a `--trace 1` invocation always makes.
const MIN_TRACE_PAIRS: usize = 1;

/// Recorded digests: `<label> <simulation seed> <digest>` per line.
const DIGESTS: &str = include_str!("../digests.txt");

/// Protocol hooks and medium functions reported as per-layer metrics
/// (`on_init` runs once per node and is folded into `protocol.self_s`).
const REPORTED_HOOKS: [&str; 5] = [
    "on_timer",
    "on_packet",
    "on_message_created",
    "on_neighbor_appeared",
    "storage_used",
];
const GLR_COUNTERS: [&str; 5] = [
    "glr.custody_retx",
    "glr.custody_reroute",
    "glr.perturb",
    "glr.retx_dedupe",
    "glr.ttl_drop",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <glr-route|epidemic-flood|large-n> --seed <n> \
         --seconds <s> --trace <0|1>\n       perfbench --self-test\n       \
         perfbench --record-digests <first seed> <last seed>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("--self-test") => return self_test(),
        Some("--record-digests") => {
            let first = argv.get(1).and_then(|a| a.parse().ok());
            let last = argv.get(2).and_then(|a| a.parse().ok());
            return match (first, last) {
                (Some(first), Some(last)) if argv.len() == 3 => {
                    record_digests(first, last);
                    ExitCode::SUCCESS
                }
                _ => usage(),
            };
        }
        _ => {}
    }
    let Some(args) = parse_args(&argv) else {
        return usage();
    };
    let out = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    println!("{}", out.json());
    ExitCode::SUCCESS
}

fn parse_args(argv: &[String]) -> Option<Args> {
    let mut flags = HashMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                flags.insert(k.as_str(), v.as_str());
            }
            _ => return None,
        }
    }
    let args = Args {
        workload: Workload::parse(flags.remove("--workload")?)?,
        seed: flags.remove("--seed")?.parse().ok()?,
        seconds: flags.remove("--seconds")?.parse().ok()?,
        trace: match flags.remove("--trace")? {
            "0" => false,
            "1" => true,
            _ => return None,
        },
    };
    (flags.is_empty() && args.seconds > 0.0).then_some(args)
}

// ---------------------------------------------------------------------------
// Output check
// ---------------------------------------------------------------------------

fn recorded_digests() -> HashMap<(&'static str, u64), u64> {
    DIGESTS
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            let [label, seed, hex] = f[..] else {
                panic!("malformed digests.txt line: {l}");
            };
            let seed = seed.parse().expect("digests.txt: seed is an integer");
            let hex = u64::from_str_radix(hex, 16).expect("digests.txt: digest is hex");
            ((label, seed), hex)
        })
        .collect()
}

/// Checks every simulation of an invocation: against the recorded digest
/// for its label and seed, and against its own digest in earlier passes
/// (traced passes included, so a traced run must equal its untraced twin).
struct Checker {
    recorded: HashMap<(&'static str, u64), u64>,
    seen: Vec<Option<u64>>,
    attempted: u64,
    failed: u64,
    recorded_matches: u64,
}

impl Checker {
    fn new(n_sims: usize) -> Self {
        Checker {
            recorded: recorded_digests(),
            seen: vec![None; n_sims],
            attempted: 0,
            failed: 0,
            recorded_matches: 0,
        }
    }

    /// Runs simulation `i`, counting a panic or a digest mismatch as a
    /// failure.
    fn run(&mut self, i: usize, sim: &SimSpec, tracer: Option<&Rc<Tracer>>) -> Option<SimResult> {
        self.attempted += 1;
        let Ok(result) = catch_unwind(AssertUnwindSafe(|| sim.run(tracer))) else {
            eprintln!("FAILED {} seed {}: panicked", sim.label, sim.seed());
            self.failed += 1;
            return None;
        };
        let d = digest(&result.stats);
        let mut ok = true;
        if let Some(&want) = self.recorded.get(&(sim.label, sim.seed())) {
            if d == want {
                self.recorded_matches += 1;
            } else {
                eprintln!(
                    "FAILED {} seed {}: digest {d:016x}, recorded {want:016x}",
                    sim.label,
                    sim.seed()
                );
                ok = false;
            }
        }
        match self.seen[i] {
            Some(prev) if prev != d => {
                eprintln!(
                    "FAILED {} seed {}: digest {d:016x}, earlier pass {prev:016x}",
                    sim.label,
                    sim.seed()
                );
                ok = false;
            }
            _ => self.seen[i] = Some(d),
        }
        if !ok {
            self.failed += 1;
        }
        Some(result)
    }
}

// ---------------------------------------------------------------------------
// Passes
// ---------------------------------------------------------------------------

/// One pass over the workload's simulations. Times are in reference
/// seconds (see `clock.rs`) unless named `host_`.
#[derive(Default)]
struct Pass {
    /// Set-up plus run of every simulation.
    wall_s: f64,
    setup_s: f64,
    run_s: f64,
    /// Host seconds from the pass's start to its end.
    host_wall_s: f64,
    /// Host speed over the pass relative to the reference (the median of
    /// the probe's reference time over its measured time).
    speed: f64,
    /// Each simulation's run, in workload order.
    sim_run_s: Vec<f64>,
    /// Deterministic size of the pass's simulated work: frames sent.
    frames: u64,
    profile: Profile,
    stats: BTreeMap<String, u64>,
}

fn run_pass(sims: &[SimSpec], traced: bool, checker: &mut Checker) -> Pass {
    let mut pass = Pass::default();
    let start = Instant::now();
    let mut speeds = Vec::new();
    let mut probe_before = clock::probe();
    for (i, sim) in sims.iter().enumerate() {
        let tracer = traced.then(|| Rc::new(Tracer::default()));
        let result = checker.run(i, sim, tracer.as_ref());
        let probe_after = clock::probe();
        let speed = 2.0 * clock::REF_PROBE_S / (probe_before + probe_after);
        probe_before = probe_after;
        speeds.push(speed);
        let Some(r) = result else {
            pass.sim_run_s.push(0.0);
            continue;
        };
        // Reference seconds: host seconds at the reference speed.
        let setup_s = r.setup_s * speed;
        let run_s = r.run_s * speed;
        pass.setup_s += setup_s;
        pass.run_s += run_s;
        pass.wall_s += setup_s + run_s;
        pass.sim_run_s.push(run_s);
        let s = &r.stats;
        pass.frames += s.data_tx + s.control_tx + s.collisions + s.out_of_range;
        if let Some(p) = &r.profile {
            pass.profile.add(&p.scaled(speed));
        }
        let mut add = |k: &str, v: u64| *pass.stats.entry(k.to_string()).or_default() += v;
        add("data_tx", s.data_tx);
        add("control_tx", s.control_tx);
        add("collisions", s.collisions);
        add("out_of_range", s.out_of_range);
        add("queue_drops", s.queue_drops);
        add("storage_drops", s.storage_drops);
        add("delivered", s.messages_delivered() as u64);
        for c in GLR_COUNTERS {
            add(&format!("counter.{c}"), s.event_count(c));
        }
    }
    pass.host_wall_s = start.elapsed().as_secs_f64();
    pass.speed = median(&speeds);
    pass
}

/// Whether to start another pass: always until `min` passes are done,
/// then while a pass of the median length so far still ends within
/// `seconds` of `start`.
fn another_pass(took: &[f64], min: usize, start: Instant, seconds: f64) -> bool {
    took.len() < min || start.elapsed().as_secs_f64() + median(took) <= seconds
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

struct Output {
    checker: Checker,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Output {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.checker.failed == 0,
            self.checker.attempted,
            self.checker.failed,
            metrics.join(", ")
        )
    }
}

fn start_invocation(args: &Args) -> (Vec<SimSpec>, Checker) {
    let sims = args.workload.sims(args.seed);
    // Warm set-up: the first construction in a process pays for
    // allocator growth that later ones do not.
    sims[0].build_only();
    let checker = Checker::new(sims.len());
    (sims, checker)
}

fn report_check(checker: &Checker) {
    println!(
        "check: {} simulations, {} failed, {} matched a recorded digest",
        checker.attempted, checker.failed, checker.recorded_matches
    );
}

/// End-to-end metrics: untraced passes until `--seconds` have elapsed.
fn untraced(args: &Args) -> Output {
    let (sims, mut checker) = start_invocation(args);
    let node_s: f64 = sims.iter().map(SimSpec::node_seconds).sum();
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut took = Vec::new();
    while another_pass(&took, MIN_PASSES, start, args.seconds) {
        let p = run_pass(&sims, false, &mut checker);
        took.push(p.host_wall_s);
        println!(
            "pass {}: wall {:.4} s, setup {:.5} s (reference seconds); host wall {:.4} s, \
             host speed {:.3}",
            passes.len() + 1,
            p.wall_s,
            p.setup_s,
            p.host_wall_s,
            p.speed
        );
        passes.push(p);
    }
    report_check(&checker);
    let col = |f: fn(&Pass) -> f64| passes.iter().map(f).collect::<Vec<f64>>();
    let wall = col(|p| p.wall_s);
    let setup = col(|p| p.setup_s);
    let host_wall = col(|p| p.host_wall_s);
    let speed = col(|p| p.speed);
    let sim_run_s: Vec<Vec<f64>> = passes.iter().map(|p| p.sim_run_s.clone()).collect();
    println!(
        "{{\"detail\": {{\"workload\": \"{}\", \"seed\": {}, \"simulations\": {}, \
         \"frames\": {}, \"pass_wall_s\": {:?}, \"pass_setup_s\": {:?}, \
         \"pass_host_wall_s\": {:?}, \"pass_speed\": {:?}, \"sim_run_s\": {:?}}}}}",
        args.workload.name(),
        args.seed,
        sims.len(),
        passes[0].frames,
        wall,
        setup,
        host_wall,
        speed,
        sim_run_s
    );
    let wall_s = median(&wall);
    let metrics = vec![
        ("wall_s".to_string(), wall_s, "s"),
        ("node_s_per_s".to_string(), node_s / wall_s, "node_s/s"),
        ("setup_s".to_string(), median(&setup), "s"),
        ("peak_rss_mib".to_string(), peak_rss_mib(), "MiB"),
    ];
    Output { checker, metrics }
}

/// The per-layer split of one traced pass.
fn layer_metrics(p: &Pass) -> Vec<(String, f64, &'static str)> {
    let s = |ns: u64| ns as f64 * 1e-9;
    let prof = &p.profile;
    let mut m: Vec<(String, f64, &'static str)> = Vec::new();
    for h in REPORTED_HOOKS {
        let a = prof.hook(h);
        m.push((format!("protocol.{h}.calls"), a.calls as f64, "count"));
        m.push((format!("protocol.{h}.self_s"), s(a.self_ns), "s"));
    }
    for h in ["on_timer", "on_packet"] {
        let a = prof.hook(h);
        let us = if a.calls == 0 {
            0.0
        } else {
            a.self_ns as f64 * 1e-3 / a.calls as f64
        };
        m.push((format!("protocol.{h}.us_per_call"), us, "us"));
    }
    let protocol_s = s(prof.protocol_self_ns());
    m.push(("protocol.self_s".into(), protocol_s, "s"));
    for f in MEDIUM_FNS {
        let a = prof.medium_fn(f);
        m.push((format!("medium.{f}.calls"), a.calls as f64, "count"));
        m.push((format!("medium.{f}.self_s"), s(a.self_ns), "s"));
    }
    let medium_s = s(prof.medium_self_ns());
    m.push(("medium.self_s".into(), medium_s, "s"));
    let o = prof.outcomes;
    m.push(("medium.delivered".into(), o.delivered as f64, "count"));
    m.push(("medium.lost".into(), o.lost as f64, "count"));
    m.push(("medium.retrying".into(), o.retrying as f64, "count"));
    m.push(("medium.queue_full".into(), o.queue_full as f64, "count"));
    let attempts = prof.medium_fn("tx_complete").calls;
    let per_attempt = if attempts == 0 {
        0.0
    } else {
        o.delivered as f64 / attempts as f64
    };
    m.push(("medium.delivered_per_attempt".into(), per_attempt, "ratio"));
    let engine_s = p.run_s - protocol_s - medium_s;
    // Every beacon counts one control transmission; so does every
    // delivered control frame, and every delivered data frame counts one
    // data transmission — hence the beacons are the rest.
    let stat = |k: &str| p.stats.get(k).copied().unwrap_or(0);
    let beacons = (stat("data_tx") + stat("control_tx")).saturating_sub(o.delivered);
    m.push(("engine.self_s".into(), engine_s, "s"));
    m.push(("engine.beacons".into(), beacons as f64, "count"));
    m.push((
        "engine.us_per_beacon".into(),
        engine_s * 1e6 / beacons.max(1) as f64,
        "us",
    ));
    m.push(("setup.self_s".into(), p.setup_s, "s"));
    for (k, v) in &p.stats {
        m.push((format!("stats.{k}"), *v as f64, "count"));
    }
    m
}

/// Per-layer metrics: untraced and traced passes alternate until
/// `--seconds` have elapsed; each metric is its median over traced passes.
fn traced(args: &Args) -> Output {
    let (sims, mut checker) = start_invocation(args);
    let start = Instant::now();
    let mut plain_run = Vec::new();
    let mut traced_passes = Vec::new();
    let mut took = Vec::new();
    while another_pass(&took, MIN_TRACE_PAIRS, start, args.seconds) {
        let plain = run_pass(&sims, false, &mut checker);
        let traced = run_pass(&sims, true, &mut checker);
        took.push(plain.host_wall_s + traced.host_wall_s);
        println!(
            "pair {}: untraced run {:.4} s, traced run {:.4} s",
            traced_passes.len() + 1,
            plain.run_s,
            traced.run_s
        );
        plain_run.push(plain.run_s);
        traced_passes.push(traced);
    }
    report_check(&checker);
    let per_pass: Vec<Vec<(String, f64, &'static str)>> =
        traced_passes.iter().map(layer_metrics).collect();
    let mut metrics: Vec<(String, f64, &'static str)> = per_pass[0]
        .iter()
        .enumerate()
        .map(|(i, (name, _, unit))| {
            let values: Vec<f64> = per_pass.iter().map(|m| m[i].1).collect();
            (name.clone(), median(&values), *unit)
        })
        .collect();
    let traced_run = median(&traced_passes.iter().map(|p| p.run_s).collect::<Vec<_>>());
    metrics.push(("trace.run_s".into(), traced_run, "s"));
    metrics.push((
        "trace.overhead_frac".into(),
        traced_run / median(&plain_run) - 1.0,
        "ratio",
    ));
    for (name, value, unit) in &metrics {
        println!("  {name:<40} {value:>16.6} {unit}");
    }
    Output { checker, metrics }
}

// ---------------------------------------------------------------------------
// Maintenance modes
// ---------------------------------------------------------------------------

/// Prints the digest table for benchmark seeds `first..=last` of every
/// workload, in the format of `digests.txt`; each simulation's host
/// seconds go to standard error.
fn record_digests(first: u64, last: u64) {
    for w in Workload::ALL {
        for seed in first..=last {
            for sim in w.sims(seed) {
                let r = sim.run(None);
                println!("{} {} {:016x}", sim.label, sim.seed(), digest(&r.stats));
                eprintln!("{} {} {:.6}", sim.label, sim.seed(), r.run_s);
            }
        }
    }
}

/// Beacons the engine schedules: node `i` of `n` beacons at
/// `interval × (i + 1) / (n + 1)` and every `interval` after, up to and
/// including `duration`.
fn expected_beacons(sim: &SimSpec) -> u64 {
    let c = &sim.scenario.config;
    let n = c.n_nodes;
    let mut count = 0;
    for i in 0..n {
        let mut t =
            glr_sim::SimTime::from_secs(c.beacon_interval * (i as f64 + 1.0) / (n as f64 + 1.0));
        while t.as_secs() <= c.sim_duration {
            count += 1;
            t += c.beacon_interval;
        }
    }
    count
}

/// Checks the tracing wrappers on every workload shape, shortened, under
/// all four media: traced `RunStats` equal untraced ones, the layer self
/// times leave the engine a positive share of the traced run, medium
/// outcomes account for every `tx_complete`, every delivery reaches
/// `on_packet`, and the beacon count derived from the statistics matches
/// the engine's beacon schedule.
fn self_test() -> ExitCode {
    use glr_sim::MediumKind;
    let media = [
        MediumKind::Contention,
        MediumKind::Ideal,
        MediumKind::shadowing(),
        MediumKind::duty_cycled(MediumKind::Contention, 0.3, 1.0),
    ];
    let mut failures = 0;
    for w in Workload::ALL {
        let mut shapes = w.sims(0);
        shapes.sort_by_key(|s| s.label);
        shapes.dedup_by_key(|s| s.label);
        for shape in shapes {
            let duration = if w == Workload::LargeN { 1.0 } else { 600.0 };
            for medium in &media {
                let sim = shape.shortened(duration, medium.clone());
                let plain = sim.run(None);
                let tracer = Rc::new(Tracer::default());
                let traced = sim.run(Some(&tracer));
                let prof = traced.profile.expect("traced run has a profile");
                let run_ns = (traced.run_s * 1e9) as u64;
                let layers_ns = prof.protocol_self_ns() + prof.medium_self_ns();
                let o = prof.outcomes;
                let s = &traced.stats;
                let beacons = (s.data_tx + s.control_tx).saturating_sub(o.delivered);
                let checks = [
                    ("traced RunStats == untraced", plain.stats == traced.stats),
                    ("engine share > 0", layers_ns < run_ns),
                    (
                        "delivered + lost + retrying == tx_complete calls",
                        o.delivered + o.lost + o.retrying == prof.medium_fn("tx_complete").calls,
                    ),
                    (
                        "medium.delivered == on_packet calls",
                        o.delivered == prof.hook("on_packet").calls,
                    ),
                    (
                        "engine.beacons == beacon schedule",
                        beacons == expected_beacons(&sim),
                    ),
                ];
                for (what, ok) in checks {
                    if !ok {
                        failures += 1;
                    }
                    println!(
                        "{} {:<22} {:<12} {what}",
                        if ok { "ok  " } else { "FAIL" },
                        sim.label,
                        medium.name()
                    );
                }
                println!(
                    "     protocol {:.1} %, medium {:.1} %, engine {:.1} % of {:.3} s traced run",
                    100.0 * prof.protocol_self_ns() as f64 / run_ns as f64,
                    100.0 * prof.medium_self_ns() as f64 / run_ns as f64,
                    100.0 * (run_ns - layers_ns.min(run_ns)) as f64 / run_ns as f64,
                    traced.run_s
                );
            }
        }
    }
    if failures == 0 {
        println!("self-test passed");
        ExitCode::SUCCESS
    } else {
        println!("self-test: {failures} checks failed");
        ExitCode::FAILURE
    }
}

//! Cross-crate integration tests: the full stack (geometry + mobility +
//! simulator + protocols) exercised end to end.

use glr::core::{CopyPolicy, Glr, GlrConfig, LocationMode};
use glr::epidemic::Epidemic;
use glr::mobility::Region;
use glr::sim::{NodeId, SimConfig, Simulation, Workload};

fn dense(seed: u64) -> SimConfig {
    let mut c = SimConfig::paper(250.0, seed).with_duration(150.0);
    c.n_nodes = 12;
    c.region = Region::new(200.0, 200.0);
    c
}

#[test]
fn both_protocols_deliver_everything_in_a_dense_network() {
    let wl = Workload::paper_style(12, 12, 1000);
    let g = Simulation::new(dense(1), wl.clone(), Glr::new).run();
    let e = Simulation::new(dense(1), wl, Epidemic::new).run();
    assert_eq!(g.messages_delivered(), 12, "GLR");
    assert_eq!(e.messages_delivered(), 12, "epidemic");
}

#[test]
fn glr_uses_far_less_storage_than_epidemic() {
    // The headline systems claim (Tables 4/5): epidemic's storage equals
    // the messages in transit; GLR's stays near the copy count.
    let cfg = SimConfig::paper(100.0, 5).with_duration(400.0);
    let wl = Workload::paper_style(50, 300, 1000);
    let g = Simulation::new(cfg.clone(), wl.clone(), Glr::new).run();
    let e = Simulation::new(cfg, wl, Epidemic::new).run();
    assert!(
        g.max_peak_storage() * 3 < e.max_peak_storage(),
        "GLR peak {} should be far below epidemic peak {}",
        g.max_peak_storage(),
        e.max_peak_storage()
    );
}

#[test]
fn glr_outlasts_epidemic_under_storage_pressure() {
    // Figure 7's shape: with tiny buffers epidemic loses messages wholesale.
    let mk = |seed| {
        let mut c = SimConfig::paper(50.0, seed).with_duration(1500.0);
        c.storage_limit = Some(25);
        c
    };
    let wl = Workload::paper_style(50, 400, 1000);
    let g = Simulation::new(mk(9), wl.clone(), Glr::new).run();
    let e = Simulation::new(mk(9), wl, Epidemic::new).run();
    assert!(
        g.delivery_ratio() > e.delivery_ratio(),
        "GLR {:.2} must beat epidemic {:.2} at 25 msgs/node",
        g.delivery_ratio(),
        e.delivery_ratio()
    );
    assert!(e.storage_drops > g.storage_drops);
}

#[test]
fn glr_hop_counts_exceed_epidemic() {
    // Table 6's shape: geometric relaying takes more hops than epidemic's
    // contact flooding.
    let cfg = SimConfig::paper(100.0, 11).with_duration(600.0);
    let wl = Workload::paper_style(50, 200, 1000);
    let g = Simulation::new(cfg.clone(), wl.clone(), Glr::new).run();
    let e = Simulation::new(cfg, wl, Epidemic::new).run();
    let (gh, eh) = (g.avg_hops().unwrap(), e.avg_hops().unwrap());
    assert!(
        gh > eh,
        "GLR hops {gh:.1} must exceed epidemic hops {eh:.1}"
    );
}

#[test]
fn oracle_location_beats_blind_location() {
    // Table 2's ordering: all-know <= none-know in latency, and both run.
    let wl = Workload::paper_style(50, 60, 1000);
    let run = |mode| {
        let cfg = SimConfig::paper(100.0, 13).with_duration(900.0);
        let glr = GlrConfig::paper()
            .with_location_mode(mode)
            .with_copy_policy(CopyPolicy::Fixed(3));
        Simulation::new(cfg, wl.clone(), Glr::factory(glr)).run()
    };
    let oracle = run(LocationMode::AllKnow);
    let blind = run(LocationMode::NoneKnow);
    assert!(oracle.delivery_ratio() >= blind.delivery_ratio());
    if let (Some(a), Some(b)) = (oracle.avg_latency(), blind.avg_latency()) {
        assert!(
            a <= b * 1.5,
            "oracle latency {a:.1} should not dramatically exceed blind {b:.1}"
        );
    }
}

#[test]
fn deterministic_across_identical_runs() {
    let cfg = SimConfig::paper(150.0, 77).with_duration(300.0);
    let wl = Workload::paper_style(50, 100, 1000);
    let a = Simulation::new(cfg.clone(), wl.clone(), Glr::new).run();
    let b = Simulation::new(cfg, wl, Glr::new).run();
    assert_eq!(a.messages_delivered(), b.messages_delivered());
    assert_eq!(a.data_tx, b.data_tx);
    assert_eq!(a.control_tx, b.control_tx);
    assert_eq!(a.avg_latency(), b.avg_latency());
    assert_eq!(a.peak_storage, b.peak_storage);
}

#[test]
fn custody_improves_delivery_on_lossy_channels() {
    let mk = |seed: u64, custody: bool| {
        let mut cfg = SimConfig::paper(100.0, seed).with_duration(900.0);
        cfg.collision_prob = 0.25;
        let glr = GlrConfig::paper().with_custody(custody);
        let wl = Workload::paper_style(50, 150, 1000);
        Simulation::new(cfg, wl, Glr::factory(glr)).run()
    };
    // Averaged over a few seeds to keep the comparison stable.
    let avg = |custody: bool| {
        (0..3)
            .map(|s| mk(40 + s, custody).delivery_ratio())
            .sum::<f64>()
            / 3.0
    };
    let with = avg(true);
    let without = avg(false);
    assert!(
        with > without,
        "custody {with:.3} must beat no-custody {without:.3}"
    );
}

#[test]
fn workload_ids_are_registered_once_each() {
    let wl = Workload::paper_style(50, 500, 1000);
    let mut ids = std::collections::HashSet::new();
    for i in 0..wl.len() {
        assert!(ids.insert(wl.message_id(i)), "duplicate id at {i}");
    }
}

#[test]
fn partitioned_static_pair_is_undeliverable_for_both() {
    let mk = |seed| {
        let mut c = SimConfig::paper(5.0, seed).with_duration(120.0);
        c.n_nodes = 2;
        c.region = Region::new(100_000.0, 100_000.0);
        c.speed_range = (0.0, 0.01);
        c
    };
    let wl = Workload::single(NodeId(0), NodeId(1), 1.0, 500);
    let g = Simulation::new(mk(2), wl.clone(), Glr::new).run();
    let e = Simulation::new(mk(2), wl, Epidemic::new).run();
    assert_eq!(g.messages_delivered(), 0);
    assert_eq!(e.messages_delivered(), 0);
}

#[test]
fn parallel_multi_run_matches_serial_for_glr() {
    use glr::sim::{Scenario, Sweep};
    let cfg = SimConfig::paper(200.0, 21).with_duration(120.0);
    let cells = [Scenario::new("glr", cfg).with_messages(20)];
    let run_fn = |sc: &Scenario, run: usize| sc.run_nth(run, Glr::new);
    let sweep = Sweep::new(4).with_threads(4);
    let par = sweep.execute(&cells, run_fn);
    let ser = sweep.execute_serial(&cells, run_fn);
    assert_eq!(par[0].runs.len(), 4);
    for (p, s) in par[0].runs.iter().zip(&ser[0].runs) {
        assert_eq!(p, s, "parallel GLR run diverged from serial");
    }
}

#[test]
fn facade_reexports_line_up() {
    // The facade's modules expose the same items as the subcrates.
    let p: glr::geometry::Point2 = glr::geometry::Point2::new(1.0, 2.0);
    assert_eq!(p.x, 1.0);
    let _k: glr::core::CopyPolicy = glr::core::CopyPolicy::PAPER;
    let _r: glr::mobility::Region = glr::mobility::Region::PAPER_STRIP;
    let s = glr::sim::summarize(&[1.0, 2.0]);
    assert_eq!(s.n, 2);
}

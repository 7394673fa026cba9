//! Cross-medium invariants: for a fixed seed, the ideal medium never
//! does worse than the contention medium, never records a contention
//! loss, and the shadowing medium is deterministic and actually fades.

use glr_sim::{
    Ctx, MediumKind, MessageInfo, NodeId, PacketKind, Protocol, RunStats, Scenario, SimConfig,
    SHADOWING_FADE_LOSS,
};

/// A TTL-bounded flooder: enough traffic to make contention bite, simple
/// enough that delivery depends only on what the medium lets through.
struct Flood;

#[derive(Debug, Clone)]
struct FloodPkt {
    info: MessageInfo,
    ttl: u32,
    hops: u32,
}

impl Protocol for Flood {
    type Packet = FloodPkt;

    fn on_message_created(&mut self, ctx: &mut Ctx<'_, FloodPkt>, info: MessageInfo) {
        let pkt = FloodPkt {
            info,
            ttl: 4,
            hops: 1,
        };
        for nbr in ctx.neighbors().iter() {
            let _ = ctx.send(nbr.id, pkt.clone(), pkt.info.size, PacketKind::Data);
        }
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_, FloodPkt>, from: NodeId, pkt: FloodPkt) {
        if pkt.info.dst == ctx.me() {
            ctx.deliver(pkt.info.id, pkt.hops);
            return;
        }
        if pkt.ttl == 0 {
            return;
        }
        let fwd = FloodPkt {
            info: pkt.info,
            ttl: pkt.ttl - 1,
            hops: pkt.hops + 1,
        };
        for nbr in ctx.neighbors().iter() {
            if nbr.id != from {
                let _ = ctx.send(nbr.id, fwd.clone(), fwd.info.size, PacketKind::Data);
            }
        }
    }
}

fn run_under(medium: MediumKind, seed: u64) -> RunStats {
    let cfg = SimConfig::paper(150.0, seed).with_duration(90.0);
    Scenario::new(format!("media-{medium}"), cfg)
        .with_messages(120)
        .with_medium(medium)
        .run(|_, _| Flood)
}

#[test]
fn ideal_medium_never_records_contention_losses() {
    for seed in [1u64, 17, 42] {
        let ideal = run_under(MediumKind::Ideal, seed);
        assert_eq!(ideal.collisions, 0, "seed {seed}");
        assert_eq!(ideal.out_of_range, 0, "seed {seed}");
        assert_eq!(ideal.event_count(SHADOWING_FADE_LOSS), 0, "seed {seed}");
    }
}

#[test]
fn ideal_delivery_dominates_contention() {
    for seed in [1u64, 17, 42] {
        let ideal = run_under(MediumKind::Ideal, seed);
        let contention = run_under(MediumKind::Contention, seed);
        assert!(
            ideal.delivery_ratio() >= contention.delivery_ratio(),
            "seed {seed}: ideal {} < contention {}",
            ideal.delivery_ratio(),
            contention.delivery_ratio()
        );
        // The comparison is only meaningful if the contention model
        // actually lost frames in this configuration.
        assert!(
            contention.collisions + contention.out_of_range > 0,
            "seed {seed}: contention run saw no losses — test too lenient"
        );
    }
}

#[test]
fn shadowing_is_deterministic_and_fades() {
    let a = run_under(MediumKind::shadowing(), 7);
    let b = run_under(MediumKind::shadowing(), 7);
    assert_eq!(a, b, "same seed, same medium must be bit-identical");
    assert!(
        a.event_count(SHADOWING_FADE_LOSS) > 0,
        "a 90 s flood at paper density should hit at least one fade"
    );
    // Shadowing losses are its own mechanism, not the unit-disk ones.
    assert_eq!(a.collisions, 0);
    assert_eq!(a.out_of_range, 0);
}

#[test]
fn media_actually_differ() {
    let seed = 5;
    let ideal = run_under(MediumKind::Ideal, seed);
    let contention = run_under(MediumKind::Contention, seed);
    let shadowing = run_under(MediumKind::shadowing(), seed);
    // Identical workloads and mobility, different PHY: the link-layer
    // traffic counts must diverge (otherwise the selector is a no-op).
    assert_ne!(ideal.data_tx, contention.data_tx);
    assert_ne!(shadowing.data_tx, contention.data_tx);
}

#[test]
fn duty_cycled_drops_sleeping_receptions_and_never_beats_its_inner() {
    for seed in [1u64, 17] {
        let inner = run_under(MediumKind::Ideal, seed);
        let duty = run_under(MediumKind::duty_cycled(MediumKind::Ideal, 0.3, 1.0), seed);
        // Sleeping 70% of the time over an ideal radio must drop frames…
        assert!(
            duty.event_count(glr_sim::DUTY_SLEEP_DROP) > 0,
            "seed {seed}: no sleep drops in a 90 s flood at 30% duty"
        );
        // …and can only lower delivery relative to the always-on inner.
        assert!(
            duty.delivery_ratio() <= inner.delivery_ratio(),
            "seed {seed}: duty {} > inner {}",
            duty.delivery_ratio(),
            inner.delivery_ratio()
        );
        // The wrapper adds no losses of the inner media's kinds.
        assert_eq!(duty.collisions, 0, "seed {seed}");
        assert_eq!(duty.out_of_range, 0, "seed {seed}");
    }
}

#[test]
fn duty_cycled_is_deterministic_and_full_duty_is_transparent() {
    let a = run_under(MediumKind::duty_cycled(MediumKind::Contention, 0.5, 2.0), 7);
    let b = run_under(MediumKind::duty_cycled(MediumKind::Contention, 0.5, 2.0), 7);
    assert_eq!(a, b, "same seed, same medium must be bit-identical");
    // on_fraction == 1.0 never sleeps: statistics match the bare inner
    // medium exactly.
    let always_on = run_under(MediumKind::duty_cycled(MediumKind::Contention, 1.0, 2.0), 7);
    let bare = run_under(MediumKind::Contention, 7);
    assert_eq!(always_on, bare);
    assert_eq!(always_on.event_count(glr_sim::DUTY_SLEEP_DROP), 0);
}

//! Refactor-safety properties for the engine's two hot layers: full
//! simulation runs must produce *bit-identical* [`RunStats`] when the
//! test-only reference implementations replace the production ones —
//! the linear-scan oracle for the grid [`crate::SpatialIndex`], and the
//! clone-and-merge oracle for the shared-snapshot
//! [`crate::NeighborTables`] — across random configurations, seeds and
//! all three media.

use crate::{
    Ctx, MediumKind, MessageInfo, NodeId, PacketKind, Protocol, RunStats, SimConfig, Simulation,
    Workload,
};
use proptest::prelude::*;

/// A controlled flood over the fresh 1-hop table: exercises queues,
/// contention, collisions and ARQ, and any divergence in the index's
/// node sets or in table entry *content or order* changes queueing
/// order, contention, RNG draws and therefore the statistics.
pub(crate) struct Flood;

#[derive(Debug, Clone)]
pub(crate) struct FloodPacket {
    info: MessageInfo,
    hops: u32,
}

impl Protocol for Flood {
    type Packet = FloodPacket;

    fn on_message_created(&mut self, ctx: &mut Ctx<'_, Self::Packet>, info: MessageInfo) {
        for e in ctx.neighbors().iter() {
            let _ = ctx.send(
                e.id,
                FloodPacket { info, hops: 1 },
                info.size,
                PacketKind::Data,
            );
        }
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_, Self::Packet>, _from: NodeId, pkt: Self::Packet) {
        if pkt.info.dst == ctx.me() {
            ctx.deliver(pkt.info.id, pkt.hops);
        } else if pkt.hops < 3 {
            for e in ctx.neighbors().iter() {
                let _ = ctx.send(
                    e.id,
                    FloodPacket {
                        info: pkt.info,
                        hops: pkt.hops + 1,
                    },
                    pkt.info.size,
                    PacketKind::Data,
                );
            }
        }
    }
}

/// Greedy forwarding over the merged 1-/2-hop view (`Ctx::local_view`),
/// the consumer GLR's LDTG construction feeds on: picks the view entry
/// nearest the destination's believed position, so any difference in the
/// two-hop merge (entry set, freshest-wins winner, or ordering) redirects
/// traffic and shows up in the statistics.
struct ViewGreedy;

#[derive(Debug, Clone)]
struct GreedyPacket {
    info: MessageInfo,
    hops: u32,
}

impl Protocol for ViewGreedy {
    type Packet = GreedyPacket;

    fn on_message_created(&mut self, ctx: &mut Ctx<'_, Self::Packet>, info: MessageInfo) {
        self.forward(ctx, GreedyPacket { info, hops: 0 });
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_, Self::Packet>, _from: NodeId, pkt: Self::Packet) {
        if pkt.info.dst == ctx.me() {
            ctx.deliver(pkt.info.id, pkt.hops);
        } else if pkt.hops < 6 {
            self.forward(ctx, pkt);
        }
    }
}

impl ViewGreedy {
    fn forward(&mut self, ctx: &mut Ctx<'_, GreedyPacket>, mut pkt: GreedyPacket) {
        let dst_pos = ctx.true_pos(pkt.info.dst);
        let view = ctx.local_view();
        let next = view
            .iter()
            .min_by(|a, b| a.pos.dist(dst_pos).total_cmp(&b.pos.dist(dst_pos)))
            .map(|e| e.id);
        if let Some(next) = next {
            pkt.hops += 1;
            let size = pkt.info.size;
            let _ = ctx.send(next, pkt, size, PacketKind::Data);
        }
    }
}

fn medium_for(choice: u8) -> MediumKind {
    match choice % 3 {
        0 => MediumKind::Contention,
        1 => MediumKind::Ideal,
        _ => MediumKind::shadowing(),
    }
}

/// Runs one simulation; `oracles` swaps reference implementations in
/// before the run (the identity keeps the production ones).
fn run<P: Protocol>(
    cfg: &SimConfig,
    wl: &Workload,
    medium: &MediumKind,
    factory: impl FnMut(NodeId, &SimConfig) -> P,
    oracles: impl FnOnce(Simulation<P>) -> Simulation<P>,
) -> RunStats {
    let sim =
        Simulation::with_boxed_medium(cfg.clone(), wl.clone(), factory, medium.build(cfg.n_nodes));
    oracles(sim).run()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Full engine equivalence: for random configurations and seeds, a
    /// complete `Simulation::run` produces *bit-identical* `RunStats`
    /// with the grid index and with the linear-scan oracle.
    #[test]
    fn full_runs_are_bit_identical_across_backends(
        seed in 0u64..100_000,
        range in 30.0..300.0f64,
        msgs in 1usize..25,
    ) {
        let cfg = SimConfig::paper(range, seed)
            .with_nodes(30)
            .with_duration(60.0);
        let wl = Workload::paper_style(cfg.n_nodes, msgs, 1000);
        let medium = MediumKind::Contention;
        let grid = run(&cfg, &wl, &medium, |_, _| Flood, |s| s);
        let linear = run(&cfg, &wl, &medium, |_, _| Flood, |s| s.with_linear_scan_index());
        prop_assert_eq!(grid, linear, "seed={} range={} msgs={}", seed, range, msgs);
    }

    /// Full engine equivalence on the 1-hop path: for random
    /// configurations, seeds, and media, a complete run produces
    /// bit-identical `RunStats` with the shared tables and with the
    /// clone-and-merge oracle — over the grid index and over the
    /// linear-scan oracle.
    #[test]
    fn flood_runs_are_bit_identical_across_table_backends(
        seed in 0u64..100_000,
        range in 30.0..300.0f64,
        msgs in 1usize..25,
        medium_choice in 0u8..3,
    ) {
        let medium = medium_for(medium_choice);
        for linear_index in [false, true] {
            let index = |s: Simulation<Flood>| {
                if linear_index { s.with_linear_scan_index() } else { s }
            };
            let cfg = SimConfig::paper(range, seed)
                .with_nodes(30)
                .with_duration(60.0);
            let wl = Workload::paper_style(cfg.n_nodes, msgs, 1000);
            let shared = run(&cfg, &wl, &medium, |_, _| Flood, index);
            let reference = run(&cfg, &wl, &medium, |_, _| Flood, |s| {
                index(s).with_clone_merge_tables()
            });
            prop_assert_eq!(
                shared, reference,
                "seed={} range={} msgs={} medium={} linear_index={}",
                seed, range, msgs, medium, linear_index
            );
        }
    }

    /// Same property on the 2-hop path: greedy forwarding over
    /// `local_view` (the merged 1-/2-hop tables) is bit-identical, so the
    /// interned-snapshot two-hop representation is observably equal to
    /// the entry-by-entry merge.
    #[test]
    fn view_greedy_runs_are_bit_identical_across_table_backends(
        seed in 0u64..100_000,
        range in 30.0..250.0f64,
        msgs in 1usize..20,
        medium_choice in 0u8..3,
    ) {
        let medium = medium_for(medium_choice);
        let cfg = SimConfig::paper(range, seed)
            .with_nodes(30)
            .with_duration(60.0);
        let wl = Workload::paper_style(cfg.n_nodes, msgs, 1000);
        let shared = run(&cfg, &wl, &medium, |_, _| ViewGreedy, |s| s);
        let reference = run(&cfg, &wl, &medium, |_, _| ViewGreedy, |s| {
            s.with_clone_merge_tables()
        });
        prop_assert_eq!(
            shared, reference,
            "seed={} range={} msgs={} medium={}", seed, range, msgs, medium
        );
    }
}

/// Long runs cross many TTL horizons (entries expire and revive), which
/// is where the lazy sweep and the eager reference could drift; pin a few
/// fixed seeds at paper duration scale.
#[test]
fn long_runs_with_churn_stay_bit_identical() {
    for (seed, range) in [(3u64, 60.0), (11, 120.0), (29, 200.0)] {
        let cfg = SimConfig::paper(range, seed)
            .with_nodes(40)
            .with_duration(300.0);
        let wl = Workload::paper_style(cfg.n_nodes, 30, 1000);
        let medium = MediumKind::Contention;
        let shared = run(&cfg, &wl, &medium, |_, _| ViewGreedy, |s| s);
        let reference = run(
            &cfg,
            &wl,
            &medium,
            |_, _| ViewGreedy,
            |s| s.with_clone_merge_tables(),
        );
        assert_eq!(shared, reference, "seed={seed} range={range}");
    }
}

//! Tour of the baseline RowHammer mitigations on the raw DRAM simulator:
//! counter-per-row, Hydra, TWiCe, Graphene, RRS (against both attacker
//! types) and SHADOW — the systems DNN-Defender is compared against in
//! Tables 2–3.
//!
//! Run with: `cargo run --release --example mitigation_zoo`

use dd_baselines::{
    AttackerTracking, CounterPerRow, GrapheneDefense, HydraTracker, RowSwapMechanism,
    ShadowMechanism, SwapScheme, TwiceTable,
};
use dd_dram::{DramConfig, DramError, GlobalRowId, MemoryController};
use dd_qnn::BitAddr;
use dnn_defender::defense::{CampaignView, DefenseMechanism};

fn fresh() -> (MemoryController, GlobalRowId, GlobalRowId) {
    let mem = MemoryController::try_new(DramConfig::lpddr4_small()).expect("valid config");
    (mem, GlobalRowId::new(0, 0, 10), GlobalRowId::new(0, 0, 11))
}

/// One attacker campaign against bit 0 of `victim`, with `defense`
/// playing the race; whether the flip landed.
fn campaign(
    defense: &mut impl DefenseMechanism,
    mem: &mut MemoryController,
    victim: GlobalRowId,
) -> Result<bool, DramError> {
    let view = CampaignView {
        mem,
        map: None,
        victim,
        bit_in_row: 0,
        addr: BitAddr {
            param: 0,
            index: 0,
            bit: 0,
        },
    };
    Ok(defense.filter_flip(view)?.landed())
}

fn main() -> Result<(), DramError> {
    let t_rh = DramConfig::lpddr4_small().rowhammer_threshold;
    println!("device: LPDDR4-small, T_RH = {t_rh}\n");

    // Undefended reference.
    let (mut mem, victim, aggressor) = fresh();
    mem.hammer(aggressor, t_rh)?;
    println!(
        "undefended        : flip {}",
        if mem.attempt_flip(victim, &[0])?.flipped() {
            "LANDED"
        } else {
            "resisted"
        }
    );

    // Counter-per-row.
    let (mut mem, victim, aggressor) = fresh();
    let mut cpr = CounterPerRow::new();
    for _ in 0..10 {
        mem.hammer(aggressor, t_rh / 10)?;
        cpr.on_activations(&mut mem, aggressor, t_rh / 10, t_rh / 2)?;
    }
    println!(
        "counter-per-row   : flip {}, {} refreshes, {} live counters",
        if mem.attempt_flip(victim, &[0])?.flipped() {
            "LANDED"
        } else {
            "resisted"
        },
        cpr.refreshes,
        cpr.live_counters()
    );

    // Hydra two-level tracking.
    let (mut mem, victim, aggressor) = fresh();
    let mut hydra = HydraTracker::new(16, t_rh / 6);
    for _ in 0..10 {
        mem.hammer(aggressor, t_rh / 10)?;
        hydra.on_activations(&mut mem, aggressor, t_rh / 10, t_rh / 2)?;
    }
    println!(
        "hydra             : flip {}, {} refreshes, {} spilled row counters",
        if mem.attempt_flip(victim, &[0])?.flipped() {
            "LANDED"
        } else {
            "resisted"
        },
        hydra.refreshes,
        hydra.spilled_rows
    );

    // TWiCe pruned table.
    let (mut mem, victim, aggressor) = fresh();
    let mut twice = TwiceTable::new();
    for noise_row in 40..60 {
        mem.hammer(GlobalRowId::new(0, 0, noise_row), 2)?;
        twice.on_activations(&mut mem, GlobalRowId::new(0, 0, noise_row), 2, t_rh / 2, 4)?;
    }
    for _ in 0..10 {
        mem.hammer(aggressor, t_rh / 10)?;
        twice.on_activations(&mut mem, aggressor, t_rh / 10, t_rh / 2, 4)?;
    }
    println!(
        "twice             : flip {}, {} refreshes, {} pruned, {} live entries",
        if mem.attempt_flip(victim, &[0])?.flipped() {
            "LANDED"
        } else {
            "resisted"
        },
        twice.refreshes,
        twice.pruned,
        twice.live_entries()
    );

    // Graphene Misra-Gries.
    let (mut mem, victim, aggressor) = fresh();
    let mut graphene = GrapheneDefense::new(16, t_rh / 2);
    for _ in 0..10 {
        mem.hammer(aggressor, t_rh / 10)?;
        graphene.on_activations(&mut mem, aggressor, t_rh / 10)?;
    }
    println!(
        "graphene          : flip {}, {} refreshes",
        if mem.attempt_flip(victim, &[0])?.flipped() {
            "LANDED"
        } else {
            "resisted"
        },
        graphene.refreshes
    );

    // RRS against both attacker types.
    for tracking in [
        AttackerTracking::FollowsAggressorData,
        AttackerTracking::FollowsVictimAdjacency,
    ] {
        let (mut mem, victim, _) = fresh();
        let mut rrs = RowSwapMechanism::with_tracking(SwapScheme::Rrs, tracking, 5);
        let landed = campaign(&mut rrs, &mut mem, victim)?;
        println!(
            "rrs vs {:<28}: flip {}, {} aggressor swaps",
            format!("{tracking:?}"),
            if landed { "LANDED" } else { "resisted" },
            rrs.stats().defense_ops
        );
    }

    // SHADOW with and without budget.
    for budget in [1000u64, 0] {
        let (mut mem, victim, _) = fresh();
        let mut shadow = ShadowMechanism::new(budget, 5);
        let landed = campaign(&mut shadow, &mut mem, victim)?;
        println!(
            "shadow (budget {budget:>4}) : flip {}, {} shuffles",
            if landed { "LANDED" } else { "resisted" },
            shadow.stats().defense_ops
        );
    }

    println!(
        "\nTakeaway: counter schemes work but pay Table-2 storage; RRS only \
         stops the attacker that chases its aggressor data; SHADOW and \
         DNN-Defender both relocate the *victim* — see the quickstart and \
         priority_protection examples for DNN-Defender itself."
    );
    Ok(())
}

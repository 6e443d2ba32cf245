//! Tour of the hardware RowHammer mitigations on the raw DRAM simulator:
//! Graphene, RRS (against both attacker types) and SHADOW — the systems
//! DNN-Defender is compared against in Table 3.
//!
//! Run with: `cargo run --release --example mitigation_zoo`

use dd_baselines::{
    AttackerTracking, GrapheneDefense, RowSwapMechanism, ShadowMechanism, SwapScheme,
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
        "\nTakeaway: Graphene's counters stop the flip but pay Table-2 storage; RRS only \
         stops the attacker that chases its aggressor data; SHADOW and \
         DNN-Defender both relocate the *victim* — see the quickstart and \
         priority_protection examples for DNN-Defender itself."
    );
    Ok(())
}

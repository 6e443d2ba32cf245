//! The four-step in-DRAM swap (Algorithm 1, Fig. 5).
//!
//! One swap protects a *target* row (and opportunistically refreshes a
//! *non-target* victim row) using only RowClone copies inside one
//! subarray:
//!
//! 1. `reserved ← random` — back up a random row into the reserved region;
//! 2. `random ← target` — move the target data to the random row's
//!    location (this ACT also recharges/refreshes the target data);
//! 3. `target_loc ← reserved` — put the random row's old content where the
//!    target used to live, completing the swap;
//! 4. `reserved ← non_target` — stash a non-target victim row in the
//!    reserved slot, refreshing it and making it the next swap's "random"
//!    source (the Fig. 6 pipeline).
//!
//! After the swap the attacker (who knows the mapping) re-aims at the
//! target's *new* location; the random and non-target rows are no longer
//! interesting to it.

use dd_dram::{DramError, GlobalRowId, MemoryController, RowInSubarray};

use crate::mapping::WeightMap;

/// Result of one four-step swap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwapOutcome {
    /// Where the target data now lives.
    pub new_target_row: GlobalRowId,
    /// The row now holding the old random-row data (the target's old spot).
    pub vacated_row: GlobalRowId,
    /// RowClone copies issued (4 for a full swap, 3 when no non-target row
    /// was supplied).
    pub row_clones: u32,
}

/// Perform one four-step swap, keeping the [`WeightMap`] coherent.
///
/// All four rows must live in the same bank + subarray as `target`
/// (RowClone cannot cross subarrays). `non_target` is optional: pass
/// `None` when the subarray has no other victim row worth refreshing
/// (the swap then costs 3 copies).
///
/// # Errors
///
/// Returns a [`DramError`] if any row address is invalid or a
/// cross-subarray copy is requested.
pub fn four_step_swap(
    mem: &mut MemoryController,
    map: &mut WeightMap,
    target: GlobalRowId,
    random: RowInSubarray,
    reserved: RowInSubarray,
    non_target: Option<RowInSubarray>,
) -> Result<SwapOutcome, DramError> {
    if random == target.row || reserved == target.row || random == reserved {
        return Err(DramError::InvalidConfig(
            "swap rows must be distinct (target/random/reserved)".into(),
        ));
    }
    let (bank, subarray) = (target.bank, target.subarray);
    let random_addr = GlobalRowId {
        bank,
        subarray,
        row: random,
    };

    // Step 1: reserved <- random.
    mem.row_clone(bank, subarray, random, reserved)?;
    // Step 2: random <- target (refreshes the target data; the copy in
    // the random slot is now the live one).
    mem.row_clone(bank, subarray, target.row, random)?;
    // Step 3: target's old location <- reserved (old random content).
    mem.row_clone(bank, subarray, reserved, target.row)?;
    let mut clones = 3;
    // Step 4: reserved <- non-target victim (refresh + next pipeline
    // stage).
    if let Some(nt) = non_target {
        mem.row_clone(bank, subarray, nt, reserved)?;
        clones += 1;
    }

    // The mapping file now points the target's weights at the random
    // row's location; whatever data lived there moved to the target's
    // old address.
    map.relocate(target, random_addr);

    Ok(SwapOutcome {
        new_target_row: random_addr,
        vacated_row: target,
        row_clones: clones,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_dram::{BankId, DramConfig, SubarrayId};
    use dd_nn::init::seeded_rng;
    use dd_nn::layers::{Flatten, Linear};
    use dd_nn::model::Network;
    use dd_qnn::{BitAddr, QModel};

    fn setup() -> (MemoryController, WeightMap, QModel) {
        let mut rng = seeded_rng(3);
        let net = Network::new("m")
            .push(Flatten::new())
            .push(Linear::kaiming("fc1", 64, 32, &mut rng));
        let model = QModel::from_network(net);
        let config = DramConfig::lpddr4_small();
        let mut mem = MemoryController::try_new(config.clone()).expect("valid config");
        let map = WeightMap::layout(&model, &config);
        // Deploy weights into DRAM.
        for slot in map.slots() {
            let bytes = model.qtensor(slot.param).to_bytes();
            let mut row = vec![0u8; config.row_bytes];
            row[..slot.len].copy_from_slice(&bytes[slot.offset..slot.offset + slot.len]);
            mem.poke_row(slot.row.bank, slot.row.subarray, slot.row.row, &row)
                .unwrap();
        }
        (mem, map, model)
    }

    #[test]
    fn swap_moves_data_and_updates_map() {
        let (mut mem, mut map, model) = setup();
        let addr = BitAddr {
            param: 0,
            index: 0,
            bit: 0,
        };
        let before = map.locate(addr);
        let target_data = mem
            .peek_row(before.row.bank, before.row.subarray, before.row.row)
            .unwrap()
            .to_vec();

        let sub_rows = mem.config().rows_per_subarray;
        let reserved = RowInSubarray(sub_rows - 1);
        let random = RowInSubarray(sub_rows - 10);
        let outcome =
            four_step_swap(&mut mem, &mut map, before.row, random, reserved, None).unwrap();

        // Data followed the map.
        let after = map.locate(addr);
        assert_eq!(after.row, outcome.new_target_row);
        let moved = mem
            .peek_row(after.row.bank, after.row.subarray, after.row.row)
            .unwrap();
        assert_eq!(moved, &target_data[..]);
        assert_eq!(outcome.row_clones, 3);
        assert_eq!(mem.stats().row_clones, 3);
        let _ = model;
    }

    #[test]
    fn swap_refreshes_target_disturbance() {
        let (mut mem, mut map, _model) = setup();
        let addr = BitAddr {
            param: 0,
            index: 0,
            bit: 0,
        };
        let loc = map.locate(addr);
        let aggressor =
            dd_dram::rowhammer::preferred_aggressor(loc.row, mem.config().rows_per_subarray);
        // Hammer almost to threshold.
        mem.hammer(aggressor, mem.config().rowhammer_threshold - 1)
            .unwrap();
        assert!(mem.disturbance(loc.row) > 0);

        let sub_rows = mem.config().rows_per_subarray;
        four_step_swap(
            &mut mem,
            &mut map,
            loc.row,
            RowInSubarray(sub_rows - 10),
            RowInSubarray(sub_rows - 1),
            None,
        )
        .unwrap();
        // The target data moved away; its new row carries no disturbance
        // from the old campaign (it was recharged by the clone).
        let new_loc = map.locate(addr);
        assert_eq!(mem.disturbance(new_loc.row), 0);
    }

    #[test]
    fn four_copies_with_non_target() {
        let (mut mem, mut map, _model) = setup();
        let addr = BitAddr {
            param: 0,
            index: 0,
            bit: 0,
        };
        let loc = map.locate(addr);
        let sub_rows = mem.config().rows_per_subarray;
        let outcome = four_step_swap(
            &mut mem,
            &mut map,
            loc.row,
            RowInSubarray(sub_rows - 10),
            RowInSubarray(sub_rows - 1),
            Some(RowInSubarray(loc.row.row.0 + 1)),
        )
        .unwrap();
        assert_eq!(outcome.row_clones, 4);
        assert_eq!(mem.stats().row_clones, 4);
    }

    #[test]
    fn rejects_degenerate_rows() {
        let (mut mem, mut map, _model) = setup();
        let addr = BitAddr {
            param: 0,
            index: 0,
            bit: 0,
        };
        let loc = map.locate(addr);
        let err = four_step_swap(
            &mut mem,
            &mut map,
            loc.row,
            loc.row.row, // random == target
            RowInSubarray(127),
            None,
        );
        assert!(err.is_err());
    }

    #[test]
    fn double_swap_returns_target_home() {
        let (mut mem, mut map, _model) = setup();
        let addr = BitAddr {
            param: 0,
            index: 5,
            bit: 3,
        };
        let home = map.locate(addr);
        let sub_rows = mem.config().rows_per_subarray;
        let first = four_step_swap(
            &mut mem,
            &mut map,
            home.row,
            RowInSubarray(sub_rows - 10),
            RowInSubarray(sub_rows - 1),
            None,
        )
        .unwrap();
        // Swap again from the new location back using the vacated row as
        // the random destination.
        four_step_swap(
            &mut mem,
            &mut map,
            first.new_target_row,
            first.vacated_row.row,
            RowInSubarray(sub_rows - 1),
            None,
        )
        .unwrap();
        assert_eq!(map.locate(addr).row, home.row);
        let slot = map.slot_at(home.row).unwrap();
        assert_eq!(slot.param, 0);
    }

    #[test]
    fn bank_bytes_follow_weights_coherently() {
        // After any swap, reading the mapped row for every slot must
        // reproduce the model's quantized bytes.
        let (mut mem, mut map, model) = setup();
        let sub_rows = mem.config().rows_per_subarray;
        // Swap three different target rows.
        for index in [0usize, 64, 128] {
            let loc = map.locate(BitAddr {
                param: 0,
                index,
                bit: 0,
            });
            four_step_swap(
                &mut mem,
                &mut map,
                loc.row,
                RowInSubarray(sub_rows - 10),
                RowInSubarray(sub_rows - 1),
                None,
            )
            .unwrap();
        }
        for slot in map.slots() {
            let bytes = model.qtensor(slot.param).to_bytes();
            let row = mem
                .peek_row(slot.row.bank, slot.row.subarray, slot.row.row)
                .unwrap();
            assert_eq!(
                &row[..slot.len],
                &bytes[slot.offset..slot.offset + slot.len],
                "slot {slot:?} out of sync"
            );
        }
        let _ = (BankId(0), SubarrayId(0));
    }
}

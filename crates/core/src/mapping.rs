//! The weight→DRAM mapping file (Fig. 4).
//!
//! Quantized weights are stored one byte per weight, parameter after
//! parameter, striped across banks and subarrays so that vulnerable rows
//! are "neither concentrated in one/two sub-arrays nor evenly distributed"
//! (hardware threat model, §3). Both the defender and the white-box
//! attacker hold this map: the attacker uses it to aim RowHammer at the
//! row holding a chosen weight bit, the defender to classify rows into
//! target / non-target victims.

use std::collections::HashMap;

use dd_dram::{DramConfig, GlobalRowId};
use dd_qnn::{BitAddr, QModel};

/// One contiguous chunk of a parameter stored in one DRAM row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowSlot {
    /// The physical row.
    pub row: GlobalRowId,
    /// Which quantizable parameter the bytes belong to.
    pub param: usize,
    /// Byte offset within the parameter.
    pub offset: usize,
    /// Number of weight bytes stored in this row.
    pub len: usize,
}

/// Physical location of one weight bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitLocation {
    /// Row holding the weight byte.
    pub row: GlobalRowId,
    /// Bit offset within the row payload.
    pub bit_in_row: usize,
}

/// The mapping file: where every quantized weight lives in DRAM.
#[derive(Debug, Clone)]
pub struct WeightMap {
    slots: Vec<RowSlot>,
    /// `param -> (starting slot index, weights per row)` would not be
    /// enough for irregular tails, so keep a per-param slot list.
    slots_of_param: Vec<Vec<usize>>,
    row_to_slot: HashMap<GlobalRowId, usize>,
    row_bytes: usize,
}

impl WeightMap {
    /// Lay out a model's quantized parameters over a device.
    ///
    /// Rows are allocated round-robin over banks (then subarrays, then
    /// rows), skipping each subarray's reserved region. Consecutive chunks
    /// of one parameter therefore land in *different* banks, spreading the
    /// protected rows the way the threat model assumes.
    ///
    /// # Panics
    ///
    /// Panics if the device has too few data rows for the model.
    // The loop indexes are semantic (bit/param addresses), not mere
    // positions; iterator rewrites would obscure that.
    #[allow(clippy::needless_range_loop)]
    pub fn layout(model: &QModel, config: &DramConfig) -> Self {
        let row_bytes = config.row_bytes;
        let data_rows = config.data_rows_per_subarray();
        let capacity_rows = config.banks * config.subarrays_per_bank * data_rows;

        let mut slots = Vec::new();
        let mut slots_of_param = vec![Vec::new(); model.num_qparams()];
        let mut row_cursor = 0usize;

        let next_row = |cursor: &mut usize| -> GlobalRowId {
            assert!(
                *cursor < capacity_rows,
                "model does not fit in the configured DRAM"
            );
            // Round-robin over banks first, then subarray, then row.
            let bank = *cursor % config.banks;
            let rest = *cursor / config.banks;
            let subarray = rest % config.subarrays_per_bank;
            let row = rest / config.subarrays_per_bank;
            *cursor += 1;
            GlobalRowId::new(bank, subarray, row)
        };

        for param in 0..model.num_qparams() {
            let total = model.qtensor(param).len();
            let mut offset = 0;
            while offset < total {
                let len = row_bytes.min(total - offset);
                let row = next_row(&mut row_cursor);
                slots_of_param[param].push(slots.len());
                slots.push(RowSlot {
                    row,
                    param,
                    offset,
                    len,
                });
                offset += len;
            }
        }

        let row_to_slot = slots.iter().enumerate().map(|(i, s)| (s.row, i)).collect();

        WeightMap {
            slots,
            slots_of_param,
            row_to_slot,
            row_bytes,
        }
    }

    /// All row slots in layout order.
    pub fn slots(&self) -> &[RowSlot] {
        &self.slots
    }

    /// Row payload size this map was laid out for.
    pub fn row_bytes(&self) -> usize {
        self.row_bytes
    }

    /// Locate the row and in-row bit offset of a weight bit.
    ///
    /// # Panics
    ///
    /// Panics if `addr.param` is out of range for the mapped model.
    pub fn locate(&self, addr: BitAddr) -> BitLocation {
        let slot_idx = self.slots_of_param[addr.param]
            .iter()
            .copied()
            .find(|&i| {
                let s = &self.slots[i];
                addr.index >= s.offset && addr.index < s.offset + s.len
            })
            .expect("weight index beyond parameter size");
        let slot = &self.slots[slot_idx];
        let byte_in_row = addr.index - slot.offset;
        BitLocation {
            row: slot.row,
            bit_in_row: byte_in_row * 8 + addr.bit as usize,
        }
    }

    /// The slot stored in `row`, if it holds weights.
    pub fn slot_at(&self, row: GlobalRowId) -> Option<&RowSlot> {
        self.row_to_slot.get(&row).map(|&i| &self.slots[i])
    }

    /// Record that the weight chunk previously at `from` now lives at `to`
    /// (a defense swap moved it). The displaced row's content (if it held
    /// weights) moves to `from`.
    pub fn relocate(&mut self, from: GlobalRowId, to: GlobalRowId) {
        let from_slot = self.row_to_slot.get(&from).copied();
        let to_slot = self.row_to_slot.get(&to).copied();
        if let Some(i) = from_slot {
            self.slots[i].row = to;
        }
        if let Some(i) = to_slot {
            self.slots[i].row = from;
        }
        match (from_slot, to_slot) {
            (Some(fi), Some(ti)) => {
                self.row_to_slot.insert(to, fi);
                self.row_to_slot.insert(from, ti);
            }
            (Some(fi), None) => {
                self.row_to_slot.remove(&from);
                self.row_to_slot.insert(to, fi);
            }
            (None, Some(ti)) => {
                self.row_to_slot.remove(&to);
                self.row_to_slot.insert(from, ti);
            }
            (None, None) => {}
        }
    }

    /// Rows that hold at least one of the given bits (the *target rows*
    /// of the priority protection mechanism).
    pub fn target_rows<'a>(&self, bits: impl IntoIterator<Item = &'a BitAddr>) -> Vec<GlobalRowId> {
        let mut seen = std::collections::HashSet::new();
        let mut rows = Vec::new();
        for &addr in bits {
            let loc = self.locate(addr);
            if seen.insert(loc.row) {
                rows.push(loc.row);
            }
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_nn::init::seeded_rng;
    use dd_nn::layers::{Flatten, Linear};
    use dd_nn::model::Network;

    fn model_and_config() -> (QModel, DramConfig) {
        let mut rng = seeded_rng(2);
        let net = Network::new("m")
            .push(Flatten::new())
            .push(Linear::kaiming("fc1", 64, 128, &mut rng))
            .push(Linear::kaiming("fc2", 128, 10, &mut rng));
        (QModel::from_network(net), DramConfig::lpddr4_small())
    }

    #[test]
    fn layout_covers_every_weight() {
        let (model, config) = model_and_config();
        let map = WeightMap::layout(&model, &config);
        let mapped: usize = map.slots().iter().map(|s| s.len).sum();
        let weights: usize = (0..model.num_qparams())
            .map(|p| model.qtensor(p).len())
            .sum();
        assert_eq!(mapped, weights);
        // fc1 = 8192 weights / 64 B rows = 128 rows; fc2 = 1280 / 64 = 20.
        assert_eq!(map.slots().len(), 148);
    }

    #[test]
    fn layout_never_uses_reserved_rows() {
        let (model, config) = model_and_config();
        let map = WeightMap::layout(&model, &config);
        let first_reserved = config.first_reserved_row();
        assert!(map.slots().iter().all(|s| s.row.row.0 < first_reserved));
    }

    #[test]
    fn layout_stripes_across_banks() {
        let (model, config) = model_and_config();
        let map = WeightMap::layout(&model, &config);
        let banks_used: std::collections::HashSet<usize> =
            map.slots().iter().map(|s| s.row.bank.0).collect();
        assert_eq!(
            banks_used.len(),
            config.banks,
            "weights not striped over all banks"
        );
        // Consecutive slots land in different banks.
        assert_ne!(map.slots()[0].row.bank, map.slots()[1].row.bank);
    }

    #[test]
    fn locate_is_consistent_with_slots() {
        let (model, config) = model_and_config();
        let map = WeightMap::layout(&model, &config);
        // Weight 100 of param 0, bit 7: row holds bytes [64..128) in slot 1.
        let loc = map.locate(BitAddr {
            param: 0,
            index: 100,
            bit: 7,
        });
        let slot = map.slot_at(loc.row).unwrap();
        assert_eq!(slot.param, 0);
        assert!(slot.offset <= 100 && 100 < slot.offset + slot.len);
        assert_eq!(loc.bit_in_row, (100 - slot.offset) * 8 + 7);
    }

    #[test]
    fn relocate_swaps_row_bindings() {
        let (model, config) = model_and_config();
        let mut map = WeightMap::layout(&model, &config);
        let addr = BitAddr {
            param: 0,
            index: 0,
            bit: 0,
        };
        let before = map.locate(addr);
        let free_row = GlobalRowId::new(0, 7, 100); // not used by layout
        assert!(map.slot_at(free_row).is_none());
        map.relocate(before.row, free_row);
        let after = map.locate(addr);
        assert_eq!(after.row, free_row);
        assert_eq!(after.bit_in_row, before.bit_in_row);
        assert!(map.slot_at(before.row).is_none());
        // Relocating back restores the original location.
        map.relocate(free_row, before.row);
        assert_eq!(map.locate(addr).row, before.row);
    }

    #[test]
    fn target_rows_deduplicates() {
        let (model, config) = model_and_config();
        let map = WeightMap::layout(&model, &config);
        // Two bits in the same weight byte share a row.
        let bits = [
            BitAddr {
                param: 0,
                index: 0,
                bit: 0,
            },
            BitAddr {
                param: 0,
                index: 0,
                bit: 7,
            },
            BitAddr {
                param: 0,
                index: 1,
                bit: 3,
            },
        ];
        let rows = map.target_rows(bits.iter());
        assert_eq!(rows.len(), 1);
    }
}

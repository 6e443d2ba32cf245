//! Oracle for the dense disturbance table.
//!
//! The RowHammer tracker as it was before the dense per-device table — a
//! hash map from row to `(epoch, count)`, where a missing row has zero
//! disturbance — kept as a reference: the properties below drive it and
//! the dense [`HammerTracker`] with the same random disturb / refresh /
//! activate / read sequences, across epoch rollovers, on the edge rows of
//! every subarray and on the last bank and subarray, and require every
//! read to agree, out-of-range rows included. A second property checks
//! [`MemoryController::disturbances`] against per-row reads and against
//! the reference on both sides of a refresh-window boundary, over every
//! flat row index and past the table's end.

use std::collections::HashMap;

use proptest::prelude::*;

use crate::controller::MemoryController;
use crate::geometry::{DramConfig, GlobalRowId};
use crate::rowhammer::HammerTracker;
use crate::timing::Nanos;

/// The hash-map tracker the dense table replaced.
#[derive(Debug, Default)]
struct HashMapTracker {
    counts: HashMap<GlobalRowId, (u64, u64)>,
}

impl HashMapTracker {
    fn disturb(&mut self, row: GlobalRowId, n: u64, epoch: u64) {
        let entry = self.counts.entry(row).or_insert((epoch, 0));
        if entry.0 != epoch {
            *entry = (epoch, 0);
        }
        entry.1 += n;
    }

    fn refresh(&mut self, row: GlobalRowId) {
        self.counts.remove(&row);
    }

    fn disturbance(&self, row: GlobalRowId, epoch: u64) -> u64 {
        match self.counts.get(&row) {
            Some(&(e, n)) if e == epoch => n,
            _ => 0,
        }
    }

    /// Recharge `row` and disturb its in-subarray neighbours by `n`.
    fn activate(&mut self, aggressor: GlobalRowId, rows_per_subarray: usize, n: u64, epoch: u64) {
        self.refresh(aggressor);
        for row in aggressor.row.neighbours(rows_per_subarray) {
            self.disturb(GlobalRowId { row, ..aggressor }, n, epoch);
        }
    }
}

/// Two small geometries: more banks than subarrays (a bank/subarray mix-up
/// in the flat index aliases rows) and fewer (it indexes past the table).
fn geometry(which: usize) -> DramConfig {
    let (banks, subarrays, rows) = [(3, 2, 4), (2, 3, 5)][which];
    DramConfig::lpddr4_small()
        .with_banks(banks)
        .with_subarrays_per_bank(subarrays)
        .with_rows_per_subarray(rows)
        .with_reserved_rows(1)
        .with_row_bytes(8)
}

/// Every row of `config`, in flat order.
fn all_rows(config: &DramConfig) -> Vec<GlobalRowId> {
    let mut rows = Vec::with_capacity(config.total_rows());
    for bank in 0..config.banks {
        for sub in 0..config.subarrays_per_bank {
            for row in 0..config.rows_per_subarray {
                rows.push(GlobalRowId::new(bank, sub, row));
            }
        }
    }
    rows
}

/// Rows just outside `config`, one per coordinate; each would land on
/// another row's slot (or past the table) under an unchecked flat index.
fn outside_rows(config: &DramConfig) -> [GlobalRowId; 3] {
    [
        GlobalRowId::new(0, 0, config.rows_per_subarray),
        GlobalRowId::new(0, config.subarrays_per_bank, 0),
        GlobalRowId::new(config.banks, 0, 0),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The dense table and the hash map agree on every read after every
    /// step of a random disturb / refresh / activate sequence whose epoch
    /// rolls over now and then.
    #[test]
    fn dense_table_matches_hash_map_tracker(
        which in 0usize..2,
        ops in collection::vec((0u8..4, 0usize..30, 1u64..50, 0u8..6), 1..80),
    ) {
        let config = geometry(which);
        let rows = all_rows(&config);
        let mut dense = HammerTracker::new(&config);
        let mut reference = HashMapTracker::default();
        let mut epoch = 0u64;
        for (kind, pick, n, roll) in ops {
            if roll == 0 {
                epoch += 1;
            }
            let row = rows[pick % rows.len()];
            let flat = dense.index(row);
            match kind {
                0 => {
                    dense.disturb(flat, n, epoch);
                    reference.disturb(row, n, epoch);
                }
                1 => {
                    dense.refresh(flat);
                    reference.refresh(row);
                }
                2 => {
                    dense.activate(flat, row.row.0, n, epoch);
                    reference.activate(row, config.rows_per_subarray, n, epoch);
                }
                _ => {}
            }
            for &probe in rows.iter().chain(&outside_rows(&config)) {
                for at in [epoch, epoch + 1] {
                    prop_assert_eq!(
                        dense.disturbance(probe, at),
                        reference.disturbance(probe, at),
                        "{:?} at epoch {} after op {} on {:?}", probe, at, kind, row
                    );
                }
            }
        }
    }

    /// `disturbances` equals per-row `disturbance` and the reference, just
    /// before and just after every refresh-window boundary the random
    /// hammer / refresh sequence crosses.
    #[test]
    fn bulk_read_matches_per_row_reads_across_epochs(
        which in 0usize..2,
        ops in collection::vec((0u8..3, 0usize..30, 1u64..5000), 1..40),
    ) {
        let config = geometry(which);
        let mut probes = all_rows(&config);
        probes.extend(outside_rows(&config));
        let rows = &probes[..config.total_rows()];
        let mut mem = MemoryController::try_new(config.clone()).expect("valid config");
        let mut reference = HashMapTracker::default();
        let t_ref = config.timing.t_ref.0;
        let check = |mem: &MemoryController, reference: &HashMapTracker| {
            // Every flat index in order, then two past the table's end,
            // which read 0 as the rows outside the geometry do.
            let bulk: Vec<(usize, u64)> = mem.disturbances(0..rows.len() + 2).collect();
            let beyond = [0, 0].into_iter();
            let single: Vec<(usize, u64)> =
                rows.iter().map(|&r| mem.disturbance(r)).chain(beyond.clone()).enumerate().collect();
            let oracle: Vec<(usize, u64)> = rows
                .iter()
                .map(|&r| reference.disturbance(r, mem.epoch()))
                .chain(beyond)
                .enumerate()
                .collect();
            assert_eq!(bulk, single, "bulk vs per-row at {:?}", mem.now());
            assert_eq!(bulk, oracle, "dense vs reference at {:?}", mem.now());
            for &r in &probes[rows.len()..] {
                assert_eq!(mem.disturbance(r), reference.disturbance(r, mem.epoch()), "{r:?}");
            }
        };
        for (kind, pick, n) in ops {
            let row = rows[pick % rows.len()];
            match kind {
                0 => {
                    mem.hammer(row, n).expect("in range");
                    reference.activate(row, config.rows_per_subarray, n, mem.epoch());
                }
                1 => {
                    mem.refresh_row(row).expect("in range");
                    reference.refresh(row);
                }
                _ => {
                    let boundary = (mem.now().0 / t_ref + 1) * t_ref;
                    mem.advance(Nanos(boundary - 1 - mem.now().0));
                    check(&mem, &reference);
                    mem.advance(Nanos(1));
                }
            }
            check(&mem, &reference);
        }
    }
}

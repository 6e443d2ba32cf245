//! Oracle for the dense disturbance table.
//!
//! The RowHammer tracker as it was before the dense per-device table — a
//! hash map from row to `(epoch, count)`, where a missing row has zero
//! disturbance — kept as a reference: the properties below drive it and
//! the dense [`HammerTracker`] with the same random disturb / refresh /
//! activate / read sequences, across epoch rollovers, on the edge rows of
//! every subarray and on the last bank and subarray, and require every
//! read to agree, out-of-range rows included. A second property checks
//! [`MemoryController::window_disturbances`] against the reference and
//! against per-row reads, on both sides of every refresh-window boundary
//! and twice in a row within a window, under hammers, refreshes,
//! RowClones and successful flips.

use std::collections::HashMap;

use proptest::prelude::*;

use crate::controller::MemoryController;
use crate::geometry::{DramConfig, GlobalRowId};
use crate::rowhammer::{preferred_aggressor, HammerTracker};
use crate::timing::Nanos;

/// The hash-map tracker the dense table replaced, plus the epoch each row
/// was last disturbed in.
#[derive(Debug, Default)]
struct HashMapTracker {
    counts: HashMap<GlobalRowId, (u64, u64)>,
    last_disturbed: HashMap<GlobalRowId, u64>,
}

impl HashMapTracker {
    fn disturb(&mut self, row: GlobalRowId, n: u64, epoch: u64) {
        let entry = self.counts.entry(row).or_insert((epoch, 0));
        if entry.0 != epoch {
            *entry = (epoch, 0);
        }
        entry.1 += n;
        self.last_disturbed.insert(row, epoch);
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

    /// `window_disturbances` yields exactly the rows the reference reads
    /// nonzero, each once with its reference value, plus possibly rows
    /// disturbed in the window and refreshed since, at 0; each value is
    /// the per-row read's, and every per-row read, rows outside the
    /// geometry included, is the reference's. Checked 1 ns before and at
    /// every refresh-window boundary the random hammer / refresh /
    /// RowClone / flip sequence crosses, and twice after every op.
    #[test]
    fn window_read_matches_the_reference_across_epochs(
        which in 0usize..2,
        ops in collection::vec((0u8..5, 0usize..30, 0usize..30, 1u64..5000), 1..40),
    ) {
        let config = geometry(which);
        let rows = all_rows(&config);
        let rows_per_subarray = config.rows_per_subarray;
        let threshold = config.rowhammer_threshold;
        let mut mem = MemoryController::try_new(config.clone()).expect("valid config");
        let mut reference = HashMapTracker::default();
        let t_ref = config.timing.t_ref.0;
        let check = |mem: &mut MemoryController, reference: &HashMapTracker| {
            let epoch = mem.epoch();
            let read: Vec<(usize, u64)> = mem.window_disturbances().collect();
            assert!(
                read.windows(2).all(|pair| pair[0].0 < pair[1].0),
                "rows out of order or repeated at {:?}: {read:?}", mem.now()
            );
            let nonzero: Vec<(usize, u64)> = rows
                .iter()
                .map(|&r| reference.disturbance(r, epoch))
                .enumerate()
                .filter(|&(_, d)| d > 0)
                .collect();
            let read_nonzero: Vec<(usize, u64)> =
                read.iter().copied().filter(|&(_, d)| d > 0).collect();
            assert_eq!(read_nonzero, nonzero, "window read vs reference at {:?}", mem.now());
            for &(flat, d) in &read {
                let row = rows[flat];
                assert_eq!(mem.disturbance(row), d, "window read vs per-row read of {row:?}");
                assert_eq!(
                    reference.last_disturbed.get(&row),
                    Some(&epoch),
                    "{row:?} read but not disturbed in the window"
                );
            }
            for &r in rows.iter().chain(&outside_rows(&config)) {
                assert_eq!(mem.disturbance(r), reference.disturbance(r, epoch), "{r:?}");
            }
        };
        for (kind, pick, other, n) in ops {
            let row = rows[pick % rows.len()];
            match kind {
                0 => {
                    mem.hammer(row, n).expect("in range");
                    reference.activate(row, rows_per_subarray, n, mem.epoch());
                }
                1 => {
                    mem.refresh_row(row).expect("in range");
                    reference.refresh(row);
                }
                2 => {
                    // Another row of the same subarray, or the row itself.
                    let dst = GlobalRowId { row: rows[other % rows.len()].row, ..row };
                    mem.row_clone(row.bank, row.subarray, row.row, dst.row).expect("in range");
                    let epoch = mem.epoch();
                    reference.activate(row, rows_per_subarray, 1, epoch);
                    reference.activate(dst, rows_per_subarray, 1, epoch);
                }
                3 => {
                    // A full hammer of a neighbour, then a flip that lands
                    // and recharges the row.
                    let aggressor = preferred_aggressor(row, rows_per_subarray);
                    mem.hammer(aggressor, threshold).expect("in range");
                    reference.activate(aggressor, rows_per_subarray, threshold, mem.epoch());
                    assert!(mem.attempt_flip(row, &[0]).expect("in range").flipped());
                    reference.refresh(row);
                }
                _ => {
                    let boundary = (mem.now().0 / t_ref + 1) * t_ref;
                    mem.advance(Nanos(boundary - 1 - mem.now().0));
                    check(&mut mem, &reference);
                    mem.advance(Nanos(1));
                }
            }
            check(&mut mem, &reference);
            check(&mut mem, &reference);
        }
    }
}

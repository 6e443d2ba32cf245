//! Benign row sets, held as 4-byte flat row indices.
//!
//! A generator draws its rows from a [`Rows`] universe: a listed set (a
//! serving hot set, a shuffled popularity order) held as flat row indices
//! ([`DramConfig::flat_row_index`], 4 bytes a row), or the data rows of a
//! bank slice — every data row of the device, or one tenant's banks —
//! computed on demand, so no generator lists the device. A row becomes a
//! [`GlobalRowId`] only where an op is emitted.
//!
//! A traffic's disturbance-scan universe, and the rows a run saw
//! disturbed, are a [`RowSet`]: one bit per device row at its flat index,
//! walked in address order.

use std::collections::HashSet;
use std::ops::Range;

use dd_dram::{DramConfig, GlobalRowId};

/// Flat-index addressing of one device geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Geometry {
    banks: usize,
    subarrays_per_bank: usize,
    rows_per_subarray: usize,
}

impl Geometry {
    /// # Panics
    ///
    /// Panics when the device has more rows than a 4-byte index holds.
    fn of(config: &DramConfig) -> Self {
        assert!(
            config.total_rows() <= 1 << 32,
            "benign row sets address at most 2^32 rows"
        );
        Geometry {
            banks: config.banks,
            subarrays_per_bank: config.subarrays_per_bank,
            rows_per_subarray: config.rows_per_subarray,
        }
    }

    /// The row at flat index `flat`.
    #[inline]
    fn row(self, flat: u32) -> GlobalRowId {
        let flat = flat as usize;
        let subarray = flat / self.rows_per_subarray;
        GlobalRowId::new(
            subarray / self.subarrays_per_bank,
            subarray % self.subarrays_per_bank,
            flat % self.rows_per_subarray,
        )
    }
}

#[derive(Debug, Clone)]
enum Listing {
    /// Flat row indices, in list order.
    Listed(Vec<u32>),
    /// The data rows of banks `first`, `first + stride`, … in address
    /// order.
    Banks {
        first: usize,
        stride: usize,
        data_rows: usize,
    },
}

/// The rows a benign generator draws from, in a fixed order: listed flat
/// row indices, or the data rows of a bank slice computed on demand.
#[derive(Debug, Clone)]
pub struct Rows {
    geometry: Geometry,
    listing: Listing,
}

impl Rows {
    /// List `rows`, in order.
    ///
    /// # Panics
    ///
    /// Panics when a row lies outside `config`'s geometry.
    pub fn listed(config: &DramConfig, rows: impl IntoIterator<Item = GlobalRowId>) -> Rows {
        let geometry = Geometry::of(config);
        let flat = rows
            .into_iter()
            .map(|row| match config.flat_row_index(row) {
                Some(i) => i as u32,
                None => panic!("{row:?} lies outside the device geometry"),
            })
            .collect();
        Rows {
            geometry,
            listing: Listing::Listed(flat),
        }
    }

    /// The data rows of banks `first`, `first + stride`, … of `config`,
    /// in address order.
    pub(crate) fn banks(config: &DramConfig, first: usize, stride: usize) -> Rows {
        Rows {
            geometry: Geometry::of(config),
            listing: Listing::Banks {
                first,
                stride,
                data_rows: config.data_rows_per_subarray(),
            },
        }
    }

    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        match &self.listing {
            Listing::Listed(flat) => flat.len(),
            &Listing::Banks {
                first,
                stride,
                data_rows,
            } => {
                (self.geometry.banks - first).div_ceil(stride)
                    * self.geometry.subarrays_per_bank
                    * data_rows
            }
        }
    }

    /// Whether there are no rows.
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flat index of the `i`-th row.
    #[inline]
    fn flat(&self, i: usize) -> u32 {
        match &self.listing {
            Listing::Listed(flat) => flat[i],
            Listing::Banks { .. } => {
                let row = self.row(i);
                ((row.bank.0 * self.geometry.subarrays_per_bank + row.subarray.0)
                    * self.geometry.rows_per_subarray
                    + row.row.0) as u32
            }
        }
    }

    /// The `i`-th row, for `i < self.len()`.
    #[inline]
    pub(crate) fn row(&self, i: usize) -> GlobalRowId {
        debug_assert!(i < self.len(), "row {i} of {}", self.len());
        match &self.listing {
            Listing::Listed(flat) => self.geometry.row(flat[i]),
            &Listing::Banks {
                first,
                stride,
                data_rows,
            } => {
                let per_bank = self.geometry.subarrays_per_bank * data_rows;
                GlobalRowId::new(
                    first + i / per_bank * stride,
                    i % per_bank / data_rows,
                    i % data_rows,
                )
            }
        }
    }

    /// Every row, in order.
    pub fn iter(&self) -> impl Iterator<Item = GlobalRowId> + '_ {
        (0..self.len()).map(|i| self.row(i))
    }

    /// `n` rows spread evenly from the first: every `len / n`-th row (every
    /// row when there are fewer than `n`), listed.
    pub fn spread(&self, n: usize) -> Rows {
        let flat = (0..self.len())
            .step_by((self.len() / n).max(1))
            .take(n)
            .map(|i| self.flat(i))
            .collect();
        Rows {
            geometry: self.geometry,
            listing: Listing::Listed(flat),
        }
    }

    /// The rows listed in an order `permute` chooses, given their flat
    /// indices in order.
    pub(crate) fn permuted(self, permute: impl FnOnce(&mut [u32])) -> Rows {
        let mut flat = match self.listing {
            Listing::Listed(flat) => flat,
            Listing::Banks { .. } => (0..self.len()).map(|i| self.flat(i)).collect(),
        };
        permute(&mut flat);
        Rows {
            geometry: self.geometry,
            listing: Listing::Listed(flat),
        }
    }
}

/// A set of rows of one device: one bit per device row at its flat index
/// ([`DramConfig::flat_row_index`]), plus the distinct rows outside the
/// geometry that a replayed trace may name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowSet {
    geometry: Geometry,
    bits: Vec<u64>,
    outside: HashSet<GlobalRowId>,
}

impl RowSet {
    /// The empty set over `config`'s rows.
    pub fn new(config: &DramConfig) -> RowSet {
        RowSet {
            geometry: Geometry::of(config),
            bits: vec![0; config.total_rows().div_ceil(64)],
            outside: HashSet::new(),
        }
    }

    /// Whether the set's flat indices are `config`'s.
    pub(crate) fn is_for(&self, config: &DramConfig) -> bool {
        self.geometry == Geometry::of(config)
    }

    /// The distinct rows of `rows`.
    pub(crate) fn of(config: &DramConfig, rows: impl IntoIterator<Item = GlobalRowId>) -> RowSet {
        let mut set = RowSet::new(config);
        for row in rows {
            set.insert_row(config, row);
        }
        set
    }

    /// Add `row`, which may lie outside `config`'s geometry.
    pub(crate) fn insert_row(&mut self, config: &DramConfig, row: GlobalRowId) {
        match config.flat_row_index(row) {
            Some(flat) => self.insert(flat),
            None => {
                self.outside.insert(row);
            }
        }
    }

    /// Add every row of `rows`; the data rows of a bank slice go in a
    /// subarray at a time.
    ///
    /// # Panics
    ///
    /// Panics when `rows` belong to another device geometry.
    pub(crate) fn insert_rows(&mut self, rows: &Rows) {
        assert_eq!(
            rows.geometry, self.geometry,
            "rows of another device geometry"
        );
        match &rows.listing {
            Listing::Listed(flat) => flat.iter().for_each(|&i| self.insert(i as usize)),
            &Listing::Banks {
                first,
                stride,
                data_rows,
            } => {
                let Geometry {
                    banks,
                    subarrays_per_bank,
                    rows_per_subarray,
                } = rows.geometry;
                for bank in (first..banks).step_by(stride) {
                    for subarray in 0..subarrays_per_bank {
                        let start = (bank * subarrays_per_bank + subarray) * rows_per_subarray;
                        self.insert_range(start, start + data_rows);
                    }
                }
            }
        }
    }

    /// Add the row at flat index `flat`.
    #[inline]
    pub fn insert(&mut self, flat: usize) {
        self.bits[flat / 64] |= 1 << (flat % 64);
    }

    fn insert_range(&mut self, mut start: usize, end: usize) {
        while start < end {
            let bit = start % 64;
            let n = (64 - bit).min(end - start);
            self.bits[start / 64] |= (u64::MAX >> (64 - n)) << bit;
            start += n;
        }
    }

    /// The flat indices of the rows inside the geometry, in address
    /// order, walked a run of consecutive rows at a time.
    pub fn iter(&self) -> impl Iterator<Item = usize> + Clone + '_ {
        Runs::new(self.bits.iter().copied()).flatten()
    }

    /// The flat indices of the rows inside the geometry that are not in
    /// `other`, in address order.
    ///
    /// # Panics
    ///
    /// Panics when the two sets belong to different device geometries.
    pub(crate) fn difference<'a>(
        &'a self,
        other: &'a RowSet,
    ) -> impl Iterator<Item = usize> + Clone + 'a {
        assert_eq!(
            self.geometry, other.geometry,
            "row sets of different devices"
        );
        Runs::new(self.bits.iter().zip(&other.bits).map(|(a, b)| a & !b)).flatten()
    }

    /// Number of rows, those outside the geometry included.
    pub fn len(&self) -> usize {
        self.bits
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum::<usize>()
            + self.outside.len()
    }

    /// Whether the set holds no row.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of rows outside the geometry.
    pub fn outside(&self) -> usize {
        self.outside.len()
    }
}

/// The runs of consecutive set bits of a stream of 64-bit words, as index
/// ranges in increasing order.
#[derive(Debug, Clone)]
struct Runs<W> {
    words: W,
    /// The bits of the current word not yet yielded.
    word: u64,
    /// Index of the bit after the current word's last.
    end: usize,
}

impl<W: Iterator<Item = u64>> Runs<W> {
    fn new(words: W) -> Self {
        Runs {
            words,
            word: 0,
            end: 0,
        }
    }
}

impl<W: Iterator<Item = u64>> Iterator for Runs<W> {
    type Item = Range<usize>;

    fn next(&mut self) -> Option<Range<usize>> {
        while self.word == 0 {
            self.word = self.words.next()?;
            self.end += 64;
        }
        let base = self.end - 64;
        let first = self.word.trailing_zeros();
        // The run ends at the first clear bit above its first set bit.
        let ones = (!(self.word | ((1 << first) - 1))).trailing_zeros();
        if ones < 64 {
            self.word &= u64::MAX << ones;
            return Some(base + first as usize..base + ones as usize);
        }
        // The run reaches the word's top bit: it goes on through the
        // low set bits of the words after it.
        let mut run_end = self.end;
        self.word = 0;
        for word in self.words.by_ref() {
            self.end += 64;
            let ones = (!word).trailing_zeros();
            run_end += ones as usize;
            if ones < 64 {
                self.word = word & (u64::MAX << ones);
                break;
            }
        }
        Some(base + first as usize..run_end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{all_data_rows, tenant_rows};
    use proptest::prelude::*;

    fn listed_data_rows(config: &DramConfig, tenant: usize, tenants: usize) -> Vec<GlobalRowId> {
        let mut rows = Vec::new();
        for bank in (tenant % tenants..config.banks).step_by(tenants) {
            for subarray in 0..config.subarrays_per_bank {
                for row in 0..config.data_rows_per_subarray() {
                    rows.push(GlobalRowId::new(bank, subarray, row));
                }
            }
        }
        rows
    }

    /// A small geometry whose dimensions are not powers of two.
    fn odd_geometry() -> DramConfig {
        DramConfig::lpddr4_small()
            .with_banks(5)
            .with_subarrays_per_bank(3)
            .with_rows_per_subarray(7)
            .with_reserved_rows(2)
    }

    #[test]
    fn computed_bank_slices_list_the_data_rows_in_address_order() {
        for config in [DramConfig::lpddr4_small(), odd_geometry()] {
            for tenants in 1..=4 {
                for tenant in 0..tenants {
                    let rows = tenant_rows(&config, tenant, tenants);
                    let expected = listed_data_rows(&config, tenant, tenants);
                    assert_eq!(rows.len(), expected.len());
                    assert_eq!(rows.iter().collect::<Vec<_>>(), expected);
                    let set = RowSet::of(&config, expected.iter().copied());
                    let mut from_rows = RowSet::new(&config);
                    from_rows.insert_rows(&rows);
                    assert_eq!(from_rows, set, "{tenant} of {tenants}");
                }
            }
        }
    }

    #[test]
    fn spread_keeps_the_step_by_positions() {
        let config = DramConfig::lpddr4_small();
        let rows = all_data_rows(&config);
        let listed = listed_data_rows(&config, 0, 1);
        for n in [1, 64, 192, listed.len(), listed.len() + 5] {
            let expected: Vec<GlobalRowId> = listed
                .iter()
                .copied()
                .step_by((listed.len() / n).max(1))
                .take(n)
                .collect();
            assert_eq!(rows.spread(n).iter().collect::<Vec<_>>(), expected, "{n}");
        }
    }

    #[test]
    #[should_panic(expected = "outside the device geometry")]
    fn listing_a_row_outside_the_geometry_panics() {
        let config = DramConfig::lpddr4_small();
        Rows::listed(&config, [GlobalRowId::new(0, 0, 128)]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The runs cover exactly the set bits, in order, each run as long
        /// as it can be, across empty, full and mixed words.
        #[test]
        fn runs_cover_the_set_bits_in_maximal_runs(
            draws in proptest::collection::vec((0u8..3, any::<u64>()), 0..12),
        ) {
            let words: Vec<u64> = draws
                .iter()
                .map(|&(kind, raw)| [0, u64::MAX, raw][kind as usize])
                .collect();
            let is_set = |i: usize| words.get(i / 64).is_some_and(|w| w >> (i % 64) & 1 == 1);
            let bits: Vec<usize> = (0..words.len() * 64).filter(|&i| is_set(i)).collect();
            let runs: Vec<Range<usize>> = Runs::new(words.iter().copied()).collect();
            prop_assert_eq!(runs.iter().cloned().flatten().collect::<Vec<_>>(), bits);
            for run in &runs {
                prop_assert!(!run.is_empty());
                prop_assert!(run.start == 0 || !is_set(run.start - 1), "{:?} starts late", run);
                prop_assert!(!is_set(run.end), "{:?} ends early", run);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// A row set holds the hash set's rows: every row inside the
        /// geometry at its flat index, in address order, and every row
        /// outside it once, on both presets, with repeats and with rows
        /// just outside the geometry or far beyond it.
        #[test]
        fn row_sets_match_the_hash_set(
            ddr4 in any::<bool>(),
            coords in proptest::collection::vec((any::<usize>(), any::<usize>(), any::<usize>()), 0..200),
            repeats in proptest::collection::vec(any::<usize>(), 0..200),
            far in 0usize..4,
        ) {
            let config = if ddr4 {
                DramConfig::ddr4_32gb()
            } else {
                DramConfig::lpddr4_small()
            };
            let mut rows: Vec<GlobalRowId> = coords
                .iter()
                .map(|&(b, s, r)| {
                    GlobalRowId::new(
                        b % (config.banks + 1),
                        s % (config.subarrays_per_bank + 1),
                        r % (config.rows_per_subarray + 1),
                    )
                })
                .collect();
            let drawn = rows.len();
            if drawn > 0 {
                rows.extend(repeats.iter().map(|&i| rows[i % drawn]).collect::<Vec<_>>());
            }
            rows.extend((0..far).map(|i| GlobalRowId::new(usize::MAX - i % 2, 0, i)));
            let distinct: HashSet<GlobalRowId> = rows.iter().copied().collect();
            let mut inside: Vec<usize> =
                distinct.iter().filter_map(|&r| config.flat_row_index(r)).collect();
            inside.sort_unstable();
            let set = RowSet::of(&config, rows.iter().copied());
            prop_assert_eq!(set.iter().collect::<Vec<_>>(), inside.clone());
            let every_third: HashSet<usize> = inside.iter().copied().step_by(3).collect();
            let mut others = RowSet::new(&config);
            every_third.iter().for_each(|&i| others.insert(i));
            let rest: Vec<usize> =
                inside.iter().copied().filter(|i| !every_third.contains(i)).collect();
            prop_assert_eq!(set.difference(&others).collect::<Vec<_>>(), rest);
            prop_assert_eq!(set.outside(), distinct.len() - inside.len());
            prop_assert_eq!(set.len(), distinct.len());
        }
    }
}

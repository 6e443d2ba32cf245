//! Bank model and the logical→physical row-indirection utility used by
//! swap-based mitigations (RRS/SRS keep such a table in SRAM; DNN-Defender
//! tracks target relocation at the mapping-file level).

use std::collections::HashMap;
use std::sync::Arc;

use crate::error::DramError;
use crate::geometry::{RowInSubarray, SubarrayId};
use crate::subarray::Subarray;

/// One DRAM bank: a stack of subarrays.
#[derive(Debug, Clone)]
pub struct Bank {
    subarrays: Vec<Subarray>,
}

impl Bank {
    /// Create a bank of `subarrays` zero-initialized subarrays.
    pub fn new(subarrays: usize, rows_per_subarray: usize, row_bytes: usize) -> Self {
        let zero_row: Arc<[u8]> = vec![0; row_bytes].into();
        Bank {
            subarrays: (0..subarrays)
                .map(|_| Subarray::sharing(rows_per_subarray, zero_row.clone()))
                .collect(),
        }
    }

    /// Number of subarrays.
    pub fn subarrays(&self) -> usize {
        self.subarrays.len()
    }

    /// Immutable subarray access.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::SubarrayOutOfRange`] for an invalid index.
    pub fn subarray(&self, id: SubarrayId) -> Result<&Subarray, DramError> {
        self.subarrays
            .get(id.0)
            .ok_or(DramError::SubarrayOutOfRange {
                subarray: id,
                subarrays: self.subarrays.len(),
            })
    }

    /// Direct mutable subarray access for pre-validated indices (the
    /// batched fast path decodes and bounds-checks addresses once per
    /// chunk, so the per-command range check would be pure overhead).
    pub(crate) fn subarray_raw_mut(&mut self, idx: usize) -> &mut Subarray {
        &mut self.subarrays[idx]
    }

    /// Mutable subarray access.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::SubarrayOutOfRange`] for an invalid index.
    pub fn subarray_mut(&mut self, id: SubarrayId) -> Result<&mut Subarray, DramError> {
        let n = self.subarrays.len();
        self.subarrays
            .get_mut(id.0)
            .ok_or(DramError::SubarrayOutOfRange {
                subarray: id,
                subarrays: n,
            })
    }
}

/// A sparse logical→physical row map for one subarray.
///
/// Starts as the identity; mitigations record swaps here. Lookup is O(1)
/// and unmapped rows resolve to themselves, so the table only grows with
/// the number of *displaced* rows — mirroring the bounded SRAM row
/// indirection tables of RRS/SRS.
#[derive(Debug, Clone, Default)]
pub struct RowIndirection {
    map: HashMap<usize, usize>,
}

impl RowIndirection {
    /// Identity mapping.
    pub fn new() -> Self {
        RowIndirection::default()
    }

    /// Physical row currently backing `logical`.
    pub fn resolve(&self, logical: RowInSubarray) -> RowInSubarray {
        RowInSubarray(*self.map.get(&logical.0).unwrap_or(&logical.0))
    }

    /// Record that the contents of logical rows `a` and `b` exchanged
    /// physical locations.
    pub fn swap(&mut self, a: RowInSubarray, b: RowInSubarray) {
        let pa = self.resolve(a).0;
        let pb = self.resolve(b).0;
        self.map.insert(a.0, pb);
        self.map.insert(b.0, pa);
        // Keep the table sparse: drop identity entries.
        if self.map.get(&a.0) == Some(&a.0) {
            self.map.remove(&a.0);
        }
        if self.map.get(&b.0) == Some(&b.0) {
            self.map.remove(&b.0);
        }
    }

    /// Number of displaced (non-identity) entries.
    pub fn displaced(&self) -> usize {
        self.map.len()
    }

    /// Reset to the identity mapping (an "unswap all").
    pub fn clear(&mut self) {
        self.map.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bank_exposes_subarrays() {
        let mut b = Bank::new(4, 16, 8);
        assert_eq!(b.subarrays(), 4);
        assert!(b.subarray(SubarrayId(3)).is_ok());
        assert!(b.subarray(SubarrayId(4)).is_err());
        assert!(b.subarray_mut(SubarrayId(4)).is_err());
    }

    #[test]
    fn indirection_starts_identity() {
        let r = RowIndirection::new();
        assert_eq!(r.resolve(RowInSubarray(42)), RowInSubarray(42));
        assert_eq!(r.displaced(), 0);
    }

    #[test]
    fn swap_exchanges_mappings() {
        let mut r = RowIndirection::new();
        r.swap(RowInSubarray(1), RowInSubarray(9));
        assert_eq!(r.resolve(RowInSubarray(1)), RowInSubarray(9));
        assert_eq!(r.resolve(RowInSubarray(9)), RowInSubarray(1));
        assert_eq!(r.displaced(), 2);
    }

    #[test]
    fn double_swap_restores_identity() {
        let mut r = RowIndirection::new();
        r.swap(RowInSubarray(1), RowInSubarray(9));
        r.swap(RowInSubarray(1), RowInSubarray(9));
        assert_eq!(r.resolve(RowInSubarray(1)), RowInSubarray(1));
        assert_eq!(r.resolve(RowInSubarray(9)), RowInSubarray(9));
        assert_eq!(r.displaced(), 0);
    }

    #[test]
    fn chained_swaps_compose() {
        let mut r = RowIndirection::new();
        r.swap(RowInSubarray(1), RowInSubarray(2));
        r.swap(RowInSubarray(2), RowInSubarray(3));
        // 1 -> 2, then the content at logical 2 (physical 1) moves to 3.
        assert_eq!(r.resolve(RowInSubarray(1)), RowInSubarray(2));
        assert_eq!(r.resolve(RowInSubarray(2)), RowInSubarray(3));
        assert_eq!(r.resolve(RowInSubarray(3)), RowInSubarray(1));
        r.clear();
        assert_eq!(r.displaced(), 0);
    }
}

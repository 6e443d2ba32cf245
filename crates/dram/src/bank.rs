//! Bank model: one bank is a stack of subarrays.

use std::sync::Arc;

use crate::error::DramError;
use crate::geometry::SubarrayId;
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
}

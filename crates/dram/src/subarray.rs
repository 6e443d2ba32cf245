//! Subarray model: row storage, row buffer, RowClone.
//!
//! A subarray is the unit inside which (a) rows are physically adjacent —
//! the RowHammer blast radius — and (b) RowClone can copy a whole row in
//! one ACT–ACT pair because the rows share sense amplifiers (§2.1).

use std::sync::Arc;

use crate::error::DramError;
use crate::geometry::RowInSubarray;

/// One DRAM subarray: a stack of physically adjacent rows plus a row buffer.
///
/// The rows' payloads are one `rows × row_bytes` block, allocated zeroed
/// on the subarray's first write. Until then every row reads as zeros from
/// one zero row, shared with the bank's other subarrays, so building a
/// device costs no payload memory (a full `ddr4_32gb` device would need
/// 32 GiB of it).
#[derive(Debug, Clone)]
pub struct Subarray {
    /// Row payloads, row-major; empty until the first write.
    data: Vec<u8>,
    /// One all-zero row: what every row reads before the first write.
    zero_row: Arc<[u8]>,
    rows: usize,
    /// Currently open row, if any (the row latched in the sense amplifiers).
    open_row: Option<RowInSubarray>,
}

impl Subarray {
    /// Create a zero-initialized subarray of `rows` rows × `row_bytes` bytes.
    pub fn new(rows: usize, row_bytes: usize) -> Self {
        Subarray::sharing(rows, vec![0; row_bytes].into())
    }

    /// [`Subarray::new`], reading unwritten rows from `zero_row`.
    pub(crate) fn sharing(rows: usize, zero_row: Arc<[u8]>) -> Self {
        Subarray {
            data: Vec::new(),
            zero_row,
            rows,
            open_row: None,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Row payload size in bytes.
    pub fn row_bytes(&self) -> usize {
        self.zero_row.len()
    }

    /// The row currently latched in the row buffer, if any.
    pub fn open_row(&self) -> Option<RowInSubarray> {
        self.open_row
    }

    fn check(&self, row: RowInSubarray) -> Result<(), DramError> {
        if row.0 >= self.rows {
            Err(DramError::RowOutOfRange {
                row,
                rows: self.rows,
            })
        } else {
            Ok(())
        }
    }

    /// The payload of a pre-validated row, allocating the block on the
    /// subarray's first write.
    fn row_bytes_mut(&mut self, row: usize) -> &mut [u8] {
        let len = self.row_bytes();
        if self.data.is_empty() {
            self.data = vec![0; self.rows * len];
        }
        &mut self.data[row * len..][..len]
    }

    /// `ACT`: open `row` into the row buffer.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::RowOutOfRange`] for an invalid row.
    pub fn activate(&mut self, row: RowInSubarray) -> Result<(), DramError> {
        self.check(row)?;
        self.open_row = Some(row);
        Ok(())
    }

    /// `PRE`: close the open row.
    pub fn precharge(&mut self) {
        self.open_row = None;
    }

    /// Fill a pre-validated row with one byte value (the batched write
    /// path; the deterministic tenant payloads are single-byte fills).
    pub(crate) fn fill_row_raw(&mut self, row: usize, byte: u8) {
        self.row_bytes_mut(row).fill(byte);
    }

    /// A row's payload.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::RowOutOfRange`] for an invalid row.
    pub fn row(&self, row: RowInSubarray) -> Result<&[u8], DramError> {
        self.check(row)?;
        if self.data.is_empty() {
            return Ok(&self.zero_row);
        }
        Ok(&self.data[row.0 * self.row_bytes()..][..self.row_bytes()])
    }

    /// Flip bit `bit` of a row (LSB-first within each byte), returning its
    /// new value.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::RowOutOfRange`] for an invalid row and
    /// [`DramError::BitOutOfRange`] when `bit >= 8 * row_bytes()`.
    pub fn flip_bit(&mut self, row: RowInSubarray, bit: usize) -> Result<bool, DramError> {
        self.check(row)?;
        let bits = self.row_bytes() * 8;
        if bit >= bits {
            return Err(DramError::BitOutOfRange { bit, bits });
        }
        let byte = &mut self.row_bytes_mut(row.0)[bit / 8];
        *byte ^= 1 << (bit % 8);
        Ok(*byte >> (bit % 8) & 1 == 1)
    }

    /// Overwrite a row's payload.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::RowOutOfRange`] for an invalid row and
    /// [`DramError::RowSizeMismatch`] when `data` is not exactly one row.
    pub fn write_row(&mut self, row: RowInSubarray, data: &[u8]) -> Result<(), DramError> {
        self.check(row)?;
        if data.len() != self.row_bytes() {
            return Err(DramError::RowSizeMismatch {
                expected: self.row_bytes(),
                got: data.len(),
            });
        }
        self.row_bytes_mut(row.0).copy_from_slice(data);
        Ok(())
    }

    /// RowClone: copy `src` into `dst` entirely inside the subarray
    /// (ACT(src) latches the row into the sense amps, ACT(dst) drives it
    /// into the destination cells). Leaves `dst` open, mirroring the
    /// back-to-back-ACT sequence.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::RowOutOfRange`] when either row is invalid.
    pub fn row_clone(&mut self, src: RowInSubarray, dst: RowInSubarray) -> Result<(), DramError> {
        self.check(src)?;
        self.check(dst)?;
        // Before the first write both rows are zeros already.
        if src != dst && !self.data.is_empty() {
            let len = self.row_bytes();
            self.data
                .copy_within(src.0 * len..(src.0 + 1) * len, dst.0 * len);
        }
        self.open_row = Some(dst);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flip_bit_addresses_lsb_first() {
        let mut s = Subarray::new(2, 2);
        assert!(s.flip_bit(RowInSubarray(1), 0).unwrap());
        assert!(s.flip_bit(RowInSubarray(1), 9).unwrap());
        assert!(!s.flip_bit(RowInSubarray(1), 0).unwrap());
        assert_eq!(s.row(RowInSubarray(1)).unwrap(), &[0, 0b10]);
        assert_eq!(s.row(RowInSubarray(0)).unwrap(), &[0, 0]);
        assert!(s.flip_bit(RowInSubarray(1), 16).is_err());
        assert!(s.flip_bit(RowInSubarray(2), 0).is_err());
    }

    #[test]
    fn rows_read_zero_until_the_first_write() {
        let mut s = Subarray::new(4, 3);
        assert_eq!(s.row(RowInSubarray(3)).unwrap(), &[0, 0, 0]);
        s.row_clone(RowInSubarray(0), RowInSubarray(1)).unwrap();
        assert!(s.data.is_empty(), "no payload block before a write");
        s.write_row(RowInSubarray(2), &[1, 2, 3]).unwrap();
        assert_eq!(s.row(RowInSubarray(2)).unwrap(), &[1, 2, 3]);
        assert_eq!(s.row(RowInSubarray(3)).unwrap(), &[0, 0, 0]);
    }

    #[test]
    fn activate_precharge_tracks_open_row() {
        let mut s = Subarray::new(8, 4);
        assert_eq!(s.open_row(), None);
        s.activate(RowInSubarray(3)).unwrap();
        assert_eq!(s.open_row(), Some(RowInSubarray(3)));
        s.precharge();
        assert_eq!(s.open_row(), None);
        assert!(s.activate(RowInSubarray(8)).is_err());
    }

    #[test]
    fn row_clone_copies_payload() {
        let mut s = Subarray::new(8, 4);
        s.write_row(RowInSubarray(1), &[1, 2, 3, 4]).unwrap();
        s.row_clone(RowInSubarray(1), RowInSubarray(5)).unwrap();
        assert_eq!(s.row(RowInSubarray(5)).unwrap(), &[1, 2, 3, 4]);
        // Source unchanged.
        assert_eq!(s.row(RowInSubarray(1)).unwrap(), &[1, 2, 3, 4]);
        // Destination left open (second ACT of the AAP pair).
        assert_eq!(s.open_row(), Some(RowInSubarray(5)));
    }

    #[test]
    fn row_clone_same_row_is_noop() {
        let mut s = Subarray::new(4, 2);
        s.write_row(RowInSubarray(0), &[9, 9]).unwrap();
        s.row_clone(RowInSubarray(0), RowInSubarray(0)).unwrap();
        assert_eq!(s.row(RowInSubarray(0)).unwrap(), &[9, 9]);
    }

    #[test]
    fn write_row_validates_size() {
        let mut s = Subarray::new(4, 4);
        assert!(matches!(
            s.write_row(RowInSubarray(0), &[1, 2]),
            Err(DramError::RowSizeMismatch {
                expected: 4,
                got: 2
            })
        ));
    }
}

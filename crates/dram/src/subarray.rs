//! Subarray model: row storage, row buffer, RowClone.
//!
//! A subarray is the unit inside which (a) rows are physically adjacent —
//! the RowHammer blast radius — and (b) RowClone can copy a whole row in
//! one ACT–ACT pair because the rows share sense amplifiers (§2.1).

use crate::error::DramError;
use crate::geometry::RowInSubarray;

/// The payload of one DRAM row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowData {
    bytes: Vec<u8>,
}

impl RowData {
    /// An all-zero row of `len` bytes.
    pub fn zeroed(len: usize) -> Self {
        RowData {
            bytes: vec![0; len],
        }
    }

    /// Wrap an existing byte buffer.
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        RowData { bytes }
    }

    /// Byte view.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Mutable byte view.
    pub fn as_bytes_mut(&mut self) -> &mut [u8] {
        &mut self.bytes
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the row holds zero bytes.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Read bit `bit` (LSB-first within each byte).
    ///
    /// # Errors
    ///
    /// Returns [`DramError::BitOutOfRange`] when `bit >= 8 * len()`.
    pub fn bit(&self, bit: usize) -> Result<bool, DramError> {
        let byte = bit / 8;
        if byte >= self.bytes.len() {
            return Err(DramError::BitOutOfRange {
                bit,
                bits: self.bytes.len() * 8,
            });
        }
        Ok(self.bytes[byte] >> (bit % 8) & 1 == 1)
    }

    /// Flip bit `bit`, returning its new value.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::BitOutOfRange`] when `bit >= 8 * len()`.
    pub fn flip_bit(&mut self, bit: usize) -> Result<bool, DramError> {
        let byte = bit / 8;
        if byte >= self.bytes.len() {
            return Err(DramError::BitOutOfRange {
                bit,
                bits: self.bytes.len() * 8,
            });
        }
        self.bytes[byte] ^= 1 << (bit % 8);
        Ok(self.bytes[byte] >> (bit % 8) & 1 == 1)
    }
}

/// One DRAM subarray: a stack of physically adjacent rows plus a row buffer.
#[derive(Debug, Clone)]
pub struct Subarray {
    rows: Vec<RowData>,
    row_bytes: usize,
    /// Currently open row, if any (the row latched in the sense amplifiers).
    open_row: Option<RowInSubarray>,
}

impl Subarray {
    /// Create a zero-initialized subarray of `rows` rows × `row_bytes` bytes.
    pub fn new(rows: usize, row_bytes: usize) -> Self {
        Subarray {
            rows: (0..rows).map(|_| RowData::zeroed(row_bytes)).collect(),
            row_bytes,
            open_row: None,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows.len()
    }

    /// Row payload size in bytes.
    pub fn row_bytes(&self) -> usize {
        self.row_bytes
    }

    /// The row currently latched in the row buffer, if any.
    pub fn open_row(&self) -> Option<RowInSubarray> {
        self.open_row
    }

    fn check(&self, row: RowInSubarray) -> Result<(), DramError> {
        if row.0 >= self.rows.len() {
            Err(DramError::RowOutOfRange {
                row,
                rows: self.rows.len(),
            })
        } else {
            Ok(())
        }
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
        self.rows[row].as_bytes_mut().fill(byte);
    }

    /// Immutable access to a row's payload.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::RowOutOfRange`] for an invalid row.
    pub fn row(&self, row: RowInSubarray) -> Result<&RowData, DramError> {
        self.check(row)?;
        Ok(&self.rows[row.0])
    }

    /// Mutable access to a row's payload (models a full-row write through
    /// the row buffer).
    ///
    /// # Errors
    ///
    /// Returns [`DramError::RowOutOfRange`] for an invalid row.
    pub fn row_mut(&mut self, row: RowInSubarray) -> Result<&mut RowData, DramError> {
        self.check(row)?;
        Ok(&mut self.rows[row.0])
    }

    /// Overwrite a row's payload.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::RowOutOfRange`] for an invalid row and
    /// [`DramError::RowSizeMismatch`] when `data` is not exactly one row.
    pub fn write_row(&mut self, row: RowInSubarray, data: &[u8]) -> Result<(), DramError> {
        self.check(row)?;
        if data.len() != self.row_bytes {
            return Err(DramError::RowSizeMismatch {
                expected: self.row_bytes,
                got: data.len(),
            });
        }
        self.rows[row.0].as_bytes_mut().copy_from_slice(data);
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
        if src != dst {
            let data = self.rows[src.0].clone();
            self.rows[dst.0] = data;
        }
        self.open_row = Some(dst);
        Ok(())
    }

    /// Swap the payloads of two rows (three RowClone copies through a
    /// scratch location are modelled at the controller level; this is the
    /// end state).
    ///
    /// # Errors
    ///
    /// Returns [`DramError::RowOutOfRange`] when either row is invalid.
    pub fn swap_rows(&mut self, a: RowInSubarray, b: RowInSubarray) -> Result<(), DramError> {
        self.check(a)?;
        self.check(b)?;
        self.rows.swap(a.0, b.0);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rowdata_bit_ops() {
        let mut r = RowData::zeroed(2);
        assert!(!r.bit(0).unwrap());
        assert!(r.flip_bit(0).unwrap());
        assert!(r.bit(0).unwrap());
        assert!(r.flip_bit(9).unwrap());
        assert_eq!(r.as_bytes(), &[0b1, 0b10]);
        assert!(r.bit(16).is_err());
        assert!(r.flip_bit(16).is_err());
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
        assert_eq!(s.row(RowInSubarray(5)).unwrap().as_bytes(), &[1, 2, 3, 4]);
        // Source unchanged.
        assert_eq!(s.row(RowInSubarray(1)).unwrap().as_bytes(), &[1, 2, 3, 4]);
        // Destination left open (second ACT of the AAP pair).
        assert_eq!(s.open_row(), Some(RowInSubarray(5)));
    }

    #[test]
    fn row_clone_same_row_is_noop() {
        let mut s = Subarray::new(4, 2);
        s.write_row(RowInSubarray(0), &[9, 9]).unwrap();
        s.row_clone(RowInSubarray(0), RowInSubarray(0)).unwrap();
        assert_eq!(s.row(RowInSubarray(0)).unwrap().as_bytes(), &[9, 9]);
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

    #[test]
    fn swap_rows_exchanges_payloads() {
        let mut s = Subarray::new(4, 1);
        s.write_row(RowInSubarray(0), &[7]).unwrap();
        s.write_row(RowInSubarray(2), &[8]).unwrap();
        s.swap_rows(RowInSubarray(0), RowInSubarray(2)).unwrap();
        assert_eq!(s.row(RowInSubarray(0)).unwrap().as_bytes(), &[8]);
        assert_eq!(s.row(RowInSubarray(2)).unwrap().as_bytes(), &[7]);
    }
}

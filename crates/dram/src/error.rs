//! Error type for the DRAM simulator.

use std::error::Error;
use std::fmt;

use crate::geometry::{BankId, RowInSubarray, SubarrayId};

/// Errors returned by the DRAM simulator.
///
/// Every fallible public operation in this crate returns
/// `Result<_, DramError>`.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DramError {
    /// A bank index was out of range for the configured device.
    BankOutOfRange {
        /// The offending bank.
        bank: BankId,
        /// Banks the device has.
        banks: usize,
    },
    /// A subarray index was out of range for the configured bank.
    SubarrayOutOfRange {
        /// The offending subarray.
        subarray: SubarrayId,
        /// Subarrays each bank has.
        subarrays: usize,
    },
    /// A row index was out of range for the configured subarray.
    RowOutOfRange {
        /// The offending row.
        row: RowInSubarray,
        /// Rows each subarray has.
        rows: usize,
    },
    /// The written buffer did not match the configured row size.
    RowSizeMismatch {
        /// The configured row size in bytes.
        expected: usize,
        /// The buffer size that was passed.
        got: usize,
    },
    /// A bit offset exceeded the number of bits in a row.
    BitOutOfRange {
        /// The offending bit offset.
        bit: usize,
        /// Bits each row holds.
        bits: usize,
    },
    /// The configuration was internally inconsistent (e.g. zero rows).
    InvalidConfig(String),
    /// A reserved row was addressed through the normal data path.
    ReservedRowAccess {
        /// The reserved row that was addressed.
        row: RowInSubarray,
    },
}

impl fmt::Display for DramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DramError::BankOutOfRange { bank, banks } => {
                write!(f, "bank {} out of range (device has {banks} banks)", bank.0)
            }
            DramError::SubarrayOutOfRange {
                subarray,
                subarrays,
            } => write!(
                f,
                "subarray {} out of range (bank has {subarrays} subarrays)",
                subarray.0
            ),
            DramError::RowOutOfRange { row, rows } => {
                write!(f, "row {} out of range (subarray has {rows} rows)", row.0)
            }
            DramError::RowSizeMismatch { expected, got } => {
                write!(
                    f,
                    "row buffer size mismatch: expected {expected} bytes, got {got}"
                )
            }
            DramError::BitOutOfRange { bit, bits } => {
                write!(f, "bit offset {bit} out of range (row holds {bits} bits)")
            }
            DramError::InvalidConfig(msg) => write!(f, "invalid dram configuration: {msg}"),
            DramError::ReservedRowAccess { row } => {
                write!(f, "row {} is reserved for the defense mechanism", row.0)
            }
        }
    }
}

impl Error for DramError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_nonempty() {
        let errs = [
            DramError::BankOutOfRange {
                bank: BankId(17),
                banks: 16,
            },
            DramError::SubarrayOutOfRange {
                subarray: SubarrayId(99),
                subarrays: 64,
            },
            DramError::RowOutOfRange {
                row: RowInSubarray(600),
                rows: 512,
            },
            DramError::RowSizeMismatch {
                expected: 8192,
                got: 64,
            },
            DramError::BitOutOfRange {
                bit: 1 << 20,
                bits: 65536,
            },
            DramError::InvalidConfig("zero rows".into()),
            DramError::ReservedRowAccess {
                row: RowInSubarray(510),
            },
        ];
        for e in errs {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase());
            assert!(!s.ends_with('.'));
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DramError>();
    }
}

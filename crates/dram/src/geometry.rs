//! DRAM device geometry: bank / subarray / row hierarchy and typed addresses.
//!
//! The simulator follows the organization described in §2.1 of the paper
//! (Fig. 2): a device is a set of banks; each bank is a stack of 2-D
//! subarrays (mats); each subarray holds a contiguous range of rows that
//! share sense amplifiers — which is what makes RowClone possible between
//! two rows of the *same* subarray, and what makes physically adjacent rows
//! RowHammer victims of each other.

use crate::error::DramError;

/// Index of a bank inside the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BankId(pub usize);

/// Index of a subarray inside a bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SubarrayId(pub usize);

/// Physical row index *within one subarray* (0-based from the subarray's
/// first wordline). Adjacency at this granularity is what RowHammer exploits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RowInSubarray(pub usize);

impl RowInSubarray {
    /// The two physical neighbours (victims when `self` is an aggressor).
    ///
    /// Rows at the subarray edge only have one neighbour.
    pub fn neighbours(self, rows_per_subarray: usize) -> impl Iterator<Item = RowInSubarray> {
        let up = self.0.checked_sub(1).map(RowInSubarray);
        let down = if self.0 + 1 < rows_per_subarray {
            Some(RowInSubarray(self.0 + 1))
        } else {
            None
        };
        up.into_iter().chain(down)
    }
}

/// Fully qualified physical row address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GlobalRowId {
    /// Bank holding the row.
    pub bank: BankId,
    /// Subarray within the bank.
    pub subarray: SubarrayId,
    /// Row within the subarray.
    pub row: RowInSubarray,
}

impl GlobalRowId {
    /// Convenience constructor.
    pub fn new(bank: usize, subarray: usize, row: usize) -> Self {
        GlobalRowId {
            bank: BankId(bank),
            subarray: SubarrayId(subarray),
            row: RowInSubarray(row),
        }
    }
}

/// Static geometry + policy parameters of a simulated DRAM device.
///
/// Use one of the presets ([`DramConfig::ddr4_32gb`],
/// [`DramConfig::lpddr4_small`]) or the builder-style setters to construct a
/// custom device, then validate with [`DramConfig::validate`] (done
/// automatically by [`crate::MemoryController::try_new`]).
#[derive(Debug, Clone, PartialEq)]
pub struct DramConfig {
    /// Number of banks in the device (16 for the paper's DDR4 setup).
    pub banks: usize,
    /// Number of subarrays per bank.
    pub subarrays_per_bank: usize,
    /// Number of rows per subarray (typically 512).
    pub rows_per_subarray: usize,
    /// Row size in bytes (8 KiB for DDR4).
    pub row_bytes: usize,
    /// Number of rows at the top of each subarray reserved for the
    /// DNN-Defender swap mechanism. These hold no user data.
    ///
    /// The paper stresses the reserved region is *not* a capacity overhead
    /// because ordinary DRAM already provisions spare rows for remapping;
    /// we still model them explicitly.
    pub reserved_rows_per_subarray: usize,
    /// RowHammer activation threshold `T_RH`: activations of one aggressor
    /// row within a single refresh window needed to disturb its neighbours.
    pub rowhammer_threshold: u64,
    /// Timing parameters (see [`crate::timing::TimingParams`]).
    pub timing: crate::timing::TimingParams,
}

impl DramConfig {
    /// The paper's comparison platform: 32 GB, 16-bank DDR4.
    ///
    /// 16 banks × 512 subarrays × 512 rows × 8 KiB = 32 GiB.
    pub fn ddr4_32gb() -> Self {
        DramConfig {
            banks: 16,
            subarrays_per_bank: 512,
            rows_per_subarray: 512,
            row_bytes: 8192,
            reserved_rows_per_subarray: 2,
            rowhammer_threshold: 10_000,
            timing: crate::timing::TimingParams::ddr4(),
        }
    }

    /// A small LPDDR4-like device for fast simulation: 16 banks,
    /// 8 subarrays × 128 rows × 64 B rows, `T_RH` = 4800 (the LPDDR4(new)
    /// threshold in Fig. 1(a)).
    ///
    /// The tiny row size keeps full-system experiments (model weights mapped
    /// into rows, thousands of swaps) fast while preserving the adjacency
    /// and timing behaviour that the defense depends on.
    pub fn lpddr4_small() -> Self {
        DramConfig {
            banks: 16,
            subarrays_per_bank: 8,
            rows_per_subarray: 128,
            row_bytes: 64,
            reserved_rows_per_subarray: 2,
            rowhammer_threshold: 4800,
            timing: crate::timing::TimingParams::lpddr4(),
        }
    }

    /// Set the RowHammer threshold (`T_RH`), returning the modified config.
    pub fn with_rowhammer_threshold(mut self, t_rh: u64) -> Self {
        self.rowhammer_threshold = t_rh;
        self
    }

    /// Set the number of reserved rows per subarray.
    pub fn with_reserved_rows(mut self, reserved: usize) -> Self {
        self.reserved_rows_per_subarray = reserved;
        self
    }

    /// Set the number of rows per subarray.
    pub fn with_rows_per_subarray(mut self, rows: usize) -> Self {
        self.rows_per_subarray = rows;
        self
    }

    /// Set the row payload size in bytes.
    pub fn with_row_bytes(mut self, bytes: usize) -> Self {
        self.row_bytes = bytes;
        self
    }

    /// Set the number of banks.
    pub fn with_banks(mut self, banks: usize) -> Self {
        self.banks = banks;
        self
    }

    /// Set the number of subarrays per bank.
    pub fn with_subarrays_per_bank(mut self, subarrays: usize) -> Self {
        self.subarrays_per_bank = subarrays;
        self
    }

    /// Number of data rows (non-reserved) per subarray.
    pub fn data_rows_per_subarray(&self) -> usize {
        self.rows_per_subarray - self.reserved_rows_per_subarray
    }

    /// First reserved row index; rows `[first_reserved_row(),
    /// rows_per_subarray)` form the reserved region.
    pub fn first_reserved_row(&self) -> usize {
        self.data_rows_per_subarray()
    }

    /// Total rows in the device.
    pub fn total_rows(&self) -> usize {
        self.banks * self.subarrays_per_bank * self.rows_per_subarray
    }

    /// Dense index of `row` in `0..total_rows()`,
    /// `(bank·spb + subarray)·rows + row` — the slot the RowHammer table
    /// and the batch decoder use — or `None` for a row outside this
    /// geometry.
    pub fn flat_row_index(&self, row: GlobalRowId) -> Option<usize> {
        self.check_addr(row).ok()?;
        Some(crate::rowhammer::flat_index(
            row,
            self.subarrays_per_bank,
            self.rows_per_subarray,
        ))
    }

    /// Check internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::InvalidConfig`] when any dimension is zero, when
    /// the reserved region swallows the whole subarray, or when `T_RH` is 0.
    pub fn validate(&self) -> Result<(), DramError> {
        if self.banks == 0 {
            return Err(DramError::InvalidConfig(
                "device must have at least one bank".into(),
            ));
        }
        if self.subarrays_per_bank == 0 {
            return Err(DramError::InvalidConfig(
                "bank must have at least one subarray".into(),
            ));
        }
        if self.rows_per_subarray < 2 {
            return Err(DramError::InvalidConfig(
                "subarray must have at least two rows".into(),
            ));
        }
        if self.row_bytes == 0 {
            return Err(DramError::InvalidConfig("row size must be non-zero".into()));
        }
        if self.reserved_rows_per_subarray >= self.rows_per_subarray {
            return Err(DramError::InvalidConfig(
                "reserved region must leave at least one data row".into(),
            ));
        }
        if self.rowhammer_threshold == 0 {
            return Err(DramError::InvalidConfig(
                "rowhammer threshold must be positive".into(),
            ));
        }
        Ok(())
    }

    /// Validate a fully qualified row address against this geometry.
    ///
    /// # Errors
    ///
    /// Returns the corresponding out-of-range error for the first coordinate
    /// that does not fit the configured device.
    pub fn check_addr(&self, addr: GlobalRowId) -> Result<(), DramError> {
        if addr.bank.0 >= self.banks {
            return Err(DramError::BankOutOfRange {
                bank: addr.bank,
                banks: self.banks,
            });
        }
        if addr.subarray.0 >= self.subarrays_per_bank {
            return Err(DramError::SubarrayOutOfRange {
                subarray: addr.subarray,
                subarrays: self.subarrays_per_bank,
            });
        }
        if addr.row.0 >= self.rows_per_subarray {
            return Err(DramError::RowOutOfRange {
                row: addr.row,
                rows: self.rows_per_subarray,
            });
        }
        Ok(())
    }
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig::lpddr4_small()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddr4_preset_is_32_gib() {
        let c = DramConfig::ddr4_32gb();
        assert_eq!(c.total_rows() * c.row_bytes, 32 * (1usize << 30));
        c.validate().unwrap();
    }

    #[test]
    fn lpddr4_small_validates() {
        DramConfig::lpddr4_small().validate().unwrap();
    }

    #[test]
    fn neighbours_of_interior_row() {
        let n: Vec<_> = RowInSubarray(5).neighbours(128).collect();
        assert_eq!(n, vec![RowInSubarray(4), RowInSubarray(6)]);
    }

    #[test]
    fn neighbours_of_edge_rows() {
        let first: Vec<_> = RowInSubarray(0).neighbours(128).collect();
        assert_eq!(first, vec![RowInSubarray(1)]);
        let last: Vec<_> = RowInSubarray(127).neighbours(128).collect();
        assert_eq!(last, vec![RowInSubarray(126)]);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(DramConfig::lpddr4_small().with_banks(0).validate().is_err());
        assert!(DramConfig::lpddr4_small()
            .with_row_bytes(0)
            .validate()
            .is_err());
        assert!(DramConfig::lpddr4_small()
            .with_rows_per_subarray(1)
            .validate()
            .is_err());
        assert!(DramConfig::lpddr4_small()
            .with_reserved_rows(128)
            .validate()
            .is_err());
        let mut c = DramConfig::lpddr4_small();
        c.rowhammer_threshold = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn check_addr_bounds() {
        let c = DramConfig::lpddr4_small();
        assert!(c.check_addr(GlobalRowId::new(0, 0, 0)).is_ok());
        assert!(matches!(
            c.check_addr(GlobalRowId::new(16, 0, 0)),
            Err(DramError::BankOutOfRange { .. })
        ));
        assert!(matches!(
            c.check_addr(GlobalRowId::new(0, 8, 0)),
            Err(DramError::SubarrayOutOfRange { .. })
        ));
        assert!(matches!(
            c.check_addr(GlobalRowId::new(0, 0, 128)),
            Err(DramError::RowOutOfRange { .. })
        ));
    }

    #[test]
    fn reserved_region_layout() {
        let c = DramConfig::lpddr4_small().with_reserved_rows(4);
        assert_eq!(c.data_rows_per_subarray(), 124);
        assert_eq!(c.first_reserved_row(), 124);
    }
}

//! Physical-address ↔ DRAM-coordinate mapping.
//!
//! The white-box threat model (§3, Fig. 4) grants the attacker "complete
//! knowledge of the DRAM addressing scheme": the function from physical
//! addresses to (bank, subarray, row) coordinates, including the XOR bank
//! hash real controllers use to spread row-buffer conflicts. Reverse
//! engineering this mapping (DRAMA-style) is what makes double-sided
//! RowHammer possible in practice; here both sides of the simulation get
//! it from the same [`AddressMapping`].

use crate::error::DramError;
use crate::geometry::{DramConfig, GlobalRowId};

/// A physical byte address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PhysAddr(pub u64);

/// Decoded coordinates of a physical address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodedAddr {
    /// Row coordinates.
    pub row: GlobalRowId,
    /// Byte offset within the row (column).
    pub column: usize,
}

/// Bit-field address mapping with an optional XOR bank hash.
///
/// Layout (LSB→MSB): column | bank | subarray | row, with
/// `bank_xor = bank ⊕ (low row bits)` when hashing is enabled — the
/// standard trick that makes consecutive rows of one bank land in
/// different banks from the OS's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressMapping {
    column_bits: u32,
    bank_bits: u32,
    subarray_bits: u32,
    row_bits: u32,
    /// XOR the bank index with the low row bits (rank/bank hashing).
    pub xor_bank_hash: bool,
}

impl AddressMapping {
    /// Derive a mapping from a device configuration.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::InvalidConfig`] when any dimension is not a
    /// power of two (bit-field mappings require that).
    pub fn from_config(config: &DramConfig, xor_bank_hash: bool) -> Result<Self, DramError> {
        let bits_of = |n: usize, what: &str| -> Result<u32, DramError> {
            if !n.is_power_of_two() {
                return Err(DramError::InvalidConfig(format!(
                    "{what} ({n}) must be a power of two for bit-field addressing"
                )));
            }
            Ok(n.trailing_zeros())
        };
        Ok(AddressMapping {
            column_bits: bits_of(config.row_bytes, "row size")?,
            bank_bits: bits_of(config.banks, "bank count")?,
            subarray_bits: bits_of(config.subarrays_per_bank, "subarray count")?,
            row_bits: bits_of(config.rows_per_subarray, "rows per subarray")?,
            xor_bank_hash,
        })
    }

    /// Total addressable bytes.
    pub fn capacity(&self) -> u64 {
        1u64 << (self.column_bits + self.bank_bits + self.subarray_bits + self.row_bits)
    }

    fn mask(bits: u32) -> u64 {
        (1u64 << bits) - 1
    }

    fn hash_bank(&self, bank: u64, row: u64) -> u64 {
        if self.xor_bank_hash {
            (bank ^ row) & Self::mask(self.bank_bits)
        } else {
            bank
        }
    }

    /// Decode a physical address.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::InvalidConfig`] when the address exceeds the
    /// device capacity.
    pub fn decode(&self, addr: PhysAddr) -> Result<DecodedAddr, DramError> {
        if addr.0 >= self.capacity() {
            return Err(DramError::InvalidConfig(format!(
                "physical address {:#x} beyond capacity {:#x}",
                addr.0,
                self.capacity()
            )));
        }
        let mut a = addr.0;
        let column = (a & Self::mask(self.column_bits)) as usize;
        a >>= self.column_bits;
        let raw_bank = a & Self::mask(self.bank_bits);
        a >>= self.bank_bits;
        let subarray = (a & Self::mask(self.subarray_bits)) as usize;
        a >>= self.subarray_bits;
        let row = a & Self::mask(self.row_bits);
        // The hash is an involution: decode applies the same XOR.
        let bank = self.hash_bank(raw_bank, row) as usize;
        Ok(DecodedAddr {
            row: GlobalRowId::new(bank, subarray, row as usize),
            column,
        })
    }

    /// Encode coordinates back to a physical address (inverse of
    /// [`AddressMapping::decode`]).
    pub fn encode(&self, decoded: DecodedAddr) -> PhysAddr {
        let row = decoded.row.row.0 as u64;
        let raw_bank = self.hash_bank(decoded.row.bank.0 as u64, row);
        let mut a = row;
        a = (a << self.subarray_bits) | decoded.row.subarray.0 as u64;
        a = (a << self.bank_bits) | raw_bank;
        a = (a << self.column_bits) | decoded.column as u64;
        PhysAddr(a)
    }

    /// The physical addresses of a row's two RowHammer victims — what a
    /// DRAMA-style attacker computes once it has the mapping.
    pub fn victim_addrs(&self, addr: PhysAddr, rows_per_subarray: usize) -> Vec<PhysAddr> {
        let Ok(decoded) = self.decode(addr) else {
            return Vec::new();
        };
        decoded
            .row
            .row
            .neighbours(rows_per_subarray)
            .map(|row| {
                self.encode(DecodedAddr {
                    row: GlobalRowId { row, ..decoded.row },
                    column: decoded.column,
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mapping(xor: bool) -> AddressMapping {
        AddressMapping::from_config(&DramConfig::lpddr4_small(), xor).unwrap()
    }

    #[test]
    fn capacity_matches_config() {
        let config = DramConfig::lpddr4_small();
        let m = mapping(false);
        assert_eq!(m.capacity() as usize, config.capacity_bytes());
    }

    #[test]
    fn decode_encode_roundtrip_no_hash() {
        let m = mapping(false);
        for addr in [0u64, 1, 63, 64, 8191, 100_000, m.capacity() - 1] {
            let d = m.decode(PhysAddr(addr)).unwrap();
            assert_eq!(m.encode(d).0, addr, "addr {addr:#x}");
        }
    }

    #[test]
    fn decode_encode_roundtrip_with_hash() {
        let m = mapping(true);
        for addr in (0..m.capacity()).step_by(97_777) {
            let d = m.decode(PhysAddr(addr)).unwrap();
            assert_eq!(m.encode(d).0, addr, "addr {addr:#x}");
        }
    }

    #[test]
    fn hash_spreads_consecutive_rows() {
        let m = mapping(true);
        let config = DramConfig::lpddr4_small();
        // Same (raw bank, subarray), consecutive rows: the hash must put
        // them in different banks.
        let stride = (config.row_bytes * config.banks * config.subarrays_per_bank) as u64;
        let d0 = m.decode(PhysAddr(0)).unwrap();
        let d1 = m.decode(PhysAddr(stride)).unwrap();
        assert_eq!(d0.row.subarray, d1.row.subarray);
        assert_ne!(d0.row.bank, d1.row.bank, "xor hash had no effect");
    }

    #[test]
    fn out_of_range_rejected() {
        let m = mapping(false);
        assert!(m.decode(PhysAddr(m.capacity())).is_err());
    }

    #[test]
    fn non_power_of_two_rejected() {
        let bad = DramConfig::lpddr4_small().with_rows_per_subarray(100);
        assert!(AddressMapping::from_config(&bad, false).is_err());
    }

    #[test]
    fn victim_addrs_are_row_neighbours() {
        let m = mapping(false);
        let config = DramConfig::lpddr4_small();
        // Pick a mid-subarray row.
        let base = m.encode(DecodedAddr {
            row: GlobalRowId::new(3, 2, 10),
            column: 5,
        });
        let victims = m.victim_addrs(base, config.rows_per_subarray);
        assert_eq!(victims.len(), 2);
        for v in victims {
            let d = m.decode(v).unwrap();
            assert_eq!(d.row.bank.0, 3);
            assert_eq!(d.row.subarray.0, 2);
            assert!(d.row.row.0 == 9 || d.row.row.0 == 11);
            assert_eq!(d.column, 5);
        }
    }
}

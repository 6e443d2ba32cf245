//! Hardware-overhead accounting (Table 2).
//!
//! Compares DNN-Defender against prior RowHammer mitigations on the same
//! 32 GB / 16-bank DDR4 platform. Entries whose cost is derivable from the
//! device geometry (counter-per-row, counter tree) are computed; the rest
//! carry the numbers reported by the respective papers.

use dd_dram::DramConfig;

/// Kind of storage a mitigation occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemKind {
    /// Commodity DRAM capacity.
    Dram,
    /// On-chip SRAM.
    Sram,
    /// Content-addressable memory.
    Cam,
}

impl MemKind {
    /// Short label used in the table (matches the paper's footnotes).
    pub fn label(self) -> &'static str {
        match self {
            MemKind::Dram => "DRAM",
            MemKind::Sram => "SRAM",
            MemKind::Cam => "CAM",
        }
    }
}

/// One capacity-overhead component.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CapacityCost {
    /// A known cost in mebibytes of a given memory kind.
    Mb(f64, MemKind),
    /// The framework needs this memory kind but did not report a size
    /// ("NR" in the table).
    NotReported(MemKind),
    /// No capacity overhead at all (DNN-Defender's headline property).
    None,
}

impl CapacityCost {
    /// Render like the paper's table cell ("1.12MB†", "NR†", "0").
    pub fn render(&self) -> String {
        match self {
            CapacityCost::Mb(mb, kind) => format!("{mb}MB[{}]", kind.label()),
            CapacityCost::NotReported(kind) => format!("NR[{}]", kind.label()),
            CapacityCost::None => "0".to_string(),
        }
    }

    /// The size in MiB if reported.
    pub fn mb(&self) -> Option<f64> {
        match self {
            CapacityCost::Mb(mb, _) => Some(*mb),
            CapacityCost::NotReported(_) => None,
            CapacityCost::None => Some(0.0),
        }
    }
}

/// One row of Table 2.
#[derive(Debug, Clone, PartialEq)]
pub struct OverheadEntry {
    /// Framework name.
    pub framework: &'static str,
    /// Memory technologies the framework occupies.
    pub involved: Vec<MemKind>,
    /// Capacity overheads.
    pub capacity: Vec<CapacityCost>,
    /// Area overhead as reported (counters or % of die).
    pub area: &'static str,
}

impl OverheadEntry {
    /// Total *reported* capacity overhead in MiB (unreported parts count
    /// as zero, matching how the paper compares).
    pub fn total_reported_mb(&self) -> f64 {
        self.capacity.iter().filter_map(CapacityCost::mb).sum()
    }

    /// Whether the framework needs any fast (SRAM/CAM) memory.
    pub fn needs_fast_memory(&self) -> bool {
        self.involved
            .iter()
            .any(|k| matches!(k, MemKind::Sram | MemKind::Cam))
    }
}

/// Counter-per-row cost: one 8-byte counter per DRAM row.
pub fn counter_per_row_bytes(config: &DramConfig) -> u64 {
    config.total_rows() as u64 * 8
}

/// Counter-tree cost: a 4-bit tree node per row (Seyedzadeh et al.).
pub fn counter_tree_bytes(config: &DramConfig) -> u64 {
    config.total_rows() as u64 / 2
}

/// Build Table 2 for a device configuration.
pub fn overhead_table(config: &DramConfig) -> Vec<OverheadEntry> {
    let mb = |bytes: u64| bytes as f64 / (1024.0 * 1024.0);
    vec![
        OverheadEntry {
            framework: "Graphene",
            involved: vec![MemKind::Cam, MemKind::Sram],
            capacity: vec![
                CapacityCost::Mb(0.53, MemKind::Cam),
                CapacityCost::Mb(1.12, MemKind::Sram),
            ],
            area: "1 counter",
        },
        OverheadEntry {
            framework: "Hydra",
            involved: vec![MemKind::Sram, MemKind::Dram],
            capacity: vec![
                CapacityCost::Mb(56.0 / 1024.0, MemKind::Sram),
                CapacityCost::Mb(4.0, MemKind::Dram),
            ],
            area: "1 counter",
        },
        OverheadEntry {
            framework: "TWiCe",
            involved: vec![MemKind::Sram, MemKind::Cam],
            capacity: vec![
                CapacityCost::Mb(3.16, MemKind::Sram),
                CapacityCost::Mb(1.6, MemKind::Cam),
            ],
            area: "1 counter",
        },
        OverheadEntry {
            framework: "Counter per Row",
            involved: vec![MemKind::Dram],
            capacity: vec![CapacityCost::Mb(
                mb(counter_per_row_bytes(config)),
                MemKind::Dram,
            )],
            area: "16384 counters",
        },
        OverheadEntry {
            framework: "Counter Tree",
            involved: vec![MemKind::Dram],
            capacity: vec![CapacityCost::Mb(
                mb(counter_tree_bytes(config)),
                MemKind::Dram,
            )],
            area: "1024 counters",
        },
        OverheadEntry {
            framework: "RRS",
            involved: vec![MemKind::Dram, MemKind::Sram],
            capacity: vec![
                CapacityCost::Mb(4.0, MemKind::Dram),
                CapacityCost::NotReported(MemKind::Sram),
            ],
            area: "NULL",
        },
        OverheadEntry {
            framework: "SRS",
            involved: vec![MemKind::Dram, MemKind::Sram],
            capacity: vec![
                CapacityCost::Mb(1.26, MemKind::Dram),
                CapacityCost::NotReported(MemKind::Sram),
            ],
            area: "NULL",
        },
        OverheadEntry {
            framework: "SHADOW",
            involved: vec![MemKind::Dram],
            capacity: vec![CapacityCost::Mb(0.16, MemKind::Dram)],
            area: "0.6%",
        },
        OverheadEntry {
            framework: "P-PIM",
            involved: vec![MemKind::Dram],
            capacity: vec![CapacityCost::Mb(4.125, MemKind::Dram)],
            area: "0.34%",
        },
        OverheadEntry {
            framework: "DNN-Defender",
            involved: vec![MemKind::Dram],
            capacity: vec![CapacityCost::None],
            area: "0.02%",
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_per_row_matches_paper_32mb() {
        let config = DramConfig::ddr4_32gb();
        let mb = counter_per_row_bytes(&config) as f64 / (1024.0 * 1024.0);
        assert_eq!(mb, 32.0);
    }

    #[test]
    fn counter_tree_matches_paper_2mb() {
        let config = DramConfig::ddr4_32gb();
        let mb = counter_tree_bytes(&config) as f64 / (1024.0 * 1024.0);
        assert_eq!(mb, 2.0);
    }

    #[test]
    fn table_has_ten_frameworks_ending_with_ours() {
        let t = overhead_table(&DramConfig::ddr4_32gb());
        assert_eq!(t.len(), 10);
        assert_eq!(t.last().unwrap().framework, "DNN-Defender");
    }

    #[test]
    fn dnn_defender_has_zero_capacity_and_dram_only() {
        let t = overhead_table(&DramConfig::ddr4_32gb());
        let dd = t.last().unwrap();
        assert_eq!(dd.total_reported_mb(), 0.0);
        assert!(!dd.needs_fast_memory());
    }

    #[test]
    fn dnn_defender_is_cheapest() {
        let t = overhead_table(&DramConfig::ddr4_32gb());
        let dd_mb = t.last().unwrap().total_reported_mb();
        for e in &t[..t.len() - 1] {
            assert!(
                e.total_reported_mb() > dd_mb,
                "{} not more expensive",
                e.framework
            );
        }
    }

    #[test]
    fn fast_memory_classification_matches_paper() {
        let t = overhead_table(&DramConfig::ddr4_32gb());
        let fast: Vec<&str> = t
            .iter()
            .filter(|e| e.needs_fast_memory())
            .map(|e| e.framework)
            .collect();
        assert_eq!(fast, vec!["Graphene", "Hydra", "TWiCe", "RRS", "SRS"]);
    }

    #[test]
    fn capacity_rendering() {
        assert_eq!(CapacityCost::Mb(4.0, MemKind::Dram).render(), "4MB[DRAM]");
        assert_eq!(
            CapacityCost::NotReported(MemKind::Sram).render(),
            "NR[SRAM]"
        );
        assert_eq!(CapacityCost::None.render(), "0");
    }
}

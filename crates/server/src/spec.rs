//! Cell specifications and the standard sweep base.
//!
//! A [`CellSpec`] names one matrix cell by its four axes — defense,
//! attacker, device, background load — using the same canonical labels the
//! batch harness puts in artifacts, plus a scheduling priority. The
//! [`SweepBase`] fixes everything else (victim recipe, attack config,
//! attempt budget, matrix seed) to **the same constants as the bench
//! crate's workload matrix**, so a cell computed by the server has the
//! same content-addressed cache key — and therefore the same bytes — as
//! the batch path (locked by a test in `dd-bench`).

use dd_attack::AttackConfig;
use dd_baselines::{
    AttackerKind, BackgroundLoad, DefenseKind, Scenario, ScenarioMatrix, VictimSpec,
};
use dd_dram::DramConfig;
use dnn_defender::{Json, JsonError};

fn err<T>(message: impl Into<String>) -> Result<T, JsonError> {
    Err(JsonError {
        message: message.into(),
    })
}

/// Named device presets addressable over the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceBase {
    /// [`DramConfig::lpddr4_small`] — the fast-simulation default device.
    Lpddr4Small,
    /// [`DramConfig::ddr4_32gb`] — the paper's DDR4 comparison platform.
    Ddr4_32gb,
}

impl DeviceBase {
    /// Wire label of the preset.
    pub fn label(self) -> &'static str {
        match self {
            DeviceBase::Lpddr4Small => "lpddr4_small",
            DeviceBase::Ddr4_32gb => "ddr4_32gb",
        }
    }

    /// Inverse of [`DeviceBase::label`].
    pub fn parse(label: &str) -> Option<DeviceBase> {
        match label {
            "lpddr4_small" => Some(DeviceBase::Lpddr4Small),
            "ddr4_32gb" => Some(DeviceBase::Ddr4_32gb),
            _ => None,
        }
    }

    /// The preset's full device config.
    pub fn config(self) -> DramConfig {
        match self {
            DeviceBase::Lpddr4Small => DramConfig::lpddr4_small(),
            DeviceBase::Ddr4_32gb => DramConfig::ddr4_32gb(),
        }
    }
}

/// A device axis entry: a preset plus an optional RowHammer-threshold
/// override, written `lpddr4_small` or `lpddr4_small@3000`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceSpec {
    /// Base preset.
    pub base: DeviceBase,
    /// Optional `T_RH` override applied on top of the preset.
    pub t_rh: Option<u64>,
}

impl DeviceSpec {
    /// Parse `preset[@t_rh]`.
    pub fn parse(text: &str) -> Option<DeviceSpec> {
        let (base, t_rh) = match text.split_once('@') {
            Some((base, t)) => (base, Some(t.parse().ok()?)),
            None => (text, None),
        };
        Some(DeviceSpec {
            base: DeviceBase::parse(base)?,
            t_rh,
        })
    }

    /// Canonical wire label (`preset` or `preset@t_rh`).
    pub fn label(&self) -> String {
        match self.t_rh {
            Some(t) => format!("{}@{t}", self.base.label()),
            None => self.base.label().to_string(),
        }
    }

    /// Materialize the full device config.
    pub fn config(&self) -> DramConfig {
        let config = self.base.config();
        match self.t_rh {
            Some(t) => config.with_rowhammer_threshold(t),
            None => config,
        }
    }

    /// Total rows of the device — the size factor in the cost model.
    pub fn rows(&self) -> u64 {
        let c = self.config();
        (c.banks * c.subarrays_per_bank * c.rows_per_subarray) as u64
    }
}

/// One requested matrix cell plus its scheduling priority (higher survives
/// longer under storm shedding; default 0).
#[derive(Debug, Clone, PartialEq)]
pub struct CellSpec {
    /// Defense under test.
    pub defense: DefenseKind,
    /// Attacker of the cell.
    pub attacker: AttackerKind,
    /// Simulated device.
    pub device: DeviceSpec,
    /// Background benign load level.
    pub load: BackgroundLoad,
    /// Scheduling priority; under storm shedding the lowest goes first.
    pub priority: i64,
}

impl CellSpec {
    /// Wire encoding (labels for every axis; priority only when non-zero
    /// would be surprising, so it is always written).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("defense", Json::str(self.defense.label()))
            .with("attacker", Json::str(self.attacker.label()))
            .with("device", Json::str(self.device.label()))
            .with("load", Json::str(self.load.label()))
            .with("priority", Json::num(self.priority as f64))
    }

    /// Decode the wire encoding; `priority` defaults to 0.
    pub fn from_json(json: &Json) -> Result<CellSpec, JsonError> {
        let defense_label = json.field_str("defense")?;
        let Some(defense) = DefenseKind::parse(defense_label) else {
            return err(format!("unknown defense `{defense_label}`"));
        };
        let attacker_label = json.field_str("attacker")?;
        let Some(attacker) = AttackerKind::parse(attacker_label) else {
            return err(format!("unknown attacker `{attacker_label}`"));
        };
        let device_label = json.field_str("device")?;
        let Some(device) = DeviceSpec::parse(device_label) else {
            return err(format!("unknown device `{device_label}`"));
        };
        let load_label = json.field_str("load")?;
        let Some(load) = BackgroundLoad::parse(load_label) else {
            return err(format!("unknown load `{load_label}`"));
        };
        let priority = match json.get("priority") {
            Some(p) => match p.as_f64() {
                Some(v) => v as i64,
                None => return err("priority must be a number"),
            },
            None => 0,
        };
        Ok(CellSpec {
            defense,
            attacker,
            device,
            load,
            priority,
        })
    }

    /// Parse the CLI shorthand `defense:attacker:device:load[:priority]`,
    /// e.g. `DNN-Defender:BFA:lpddr4_small:light`.
    pub fn parse_compact(text: &str) -> Result<CellSpec, String> {
        let parts: Vec<&str> = text.split(':').collect();
        if parts.len() != 4 && parts.len() != 5 {
            return Err(format!(
                "cell spec `{text}` must be defense:attacker:device:load[:priority]"
            ));
        }
        let defense = DefenseKind::parse(parts[0])
            .ok_or_else(|| format!("unknown defense `{}`", parts[0]))?;
        let attacker = AttackerKind::parse(parts[1])
            .ok_or_else(|| format!("unknown attacker `{}`", parts[1]))?;
        let device =
            DeviceSpec::parse(parts[2]).ok_or_else(|| format!("unknown device `{}`", parts[2]))?;
        let load = BackgroundLoad::parse(parts[3])
            .ok_or_else(|| format!("unknown load `{}`", parts[3]))?;
        let priority = match parts.get(4) {
            Some(p) => p
                .parse()
                .map_err(|_| format!("priority `{p}` is not an integer"))?,
            None => 0,
        };
        Ok(CellSpec {
            defense,
            attacker,
            device,
            load,
            priority,
        })
    }

    /// Human-readable one-line label.
    pub fn label(&self) -> String {
        format!(
            "{} × {} × {} × {}",
            self.defense.label(),
            self.attacker.label(),
            self.device.label(),
            self.load.label()
        )
    }
}

/// The highest RowHammer threshold a served device may set (`@t_rh`;
/// the lowest is 1, since a device needs one). At most `u32::MAX`, every
/// count a served cell derives from it, such as the priced commands or a
/// row's disturbance, stays below 2^53, the largest integer the wire's
/// JSON numbers hold exactly.
pub const MAX_SERVED_T_RH: u64 = u32::MAX as u64;

/// The most flips a served `Random(n)` cell may draw (the fewest is 1:
/// a `Random(0)` cell would be priced at nothing yet still deploy its
/// defense). The cell replays every flip as its own campaign, so `n`
/// sets its cost: a `Random(4096)` cell took 0.09 s without background
/// load and 0.38 s under heavy load on a 2-vCPU Xeon VM.
pub const MAX_SERVED_RANDOM_FLIPS: usize = 4096;

/// The fixed sweep base every server cell runs under.
///
/// Byte-for-byte the same constants as `dd_bench::workload_matrix` —
/// victim `tiny_mlp(2024)`, attack target 0.3 / max 40 flips, budget 4
/// (quick) or 10 (full), matrix seed 2024 — so server-computed cells share
/// cache keys (and bytes) with the batch path. A test in `dd-bench` locks
/// the two against drifting apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepBase {
    quick: bool,
}

impl SweepBase {
    /// The standard base in quick (smoke) or full mode.
    pub fn standard(quick: bool) -> Self {
        SweepBase { quick }
    }

    /// Whether this base runs in quick (smoke) mode.
    pub fn quick(&self) -> bool {
        self.quick
    }

    /// Attacker attempt budget per cell (the dominant cost driver).
    pub fn budget(&self) -> usize {
        if self.quick {
            4
        } else {
            10
        }
    }

    /// The victim every cell attacks.
    fn victim(&self) -> VictimSpec {
        VictimSpec::tiny_mlp(2024)
    }

    /// Check that the base can run and price `spec`: every T-BFA class
    /// must be one of the victim's classes, a device's `T_RH` override
    /// must lie in `1..=`[`MAX_SERVED_T_RH`], and a `Random(n)` attacker's
    /// `n` in `1..=`[`MAX_SERVED_RANDOM_FLIPS`]. Both lower ends keep
    /// every admitted cell's price above zero. The error is the reason.
    pub(crate) fn check(&self, spec: &CellSpec) -> Result<(), String> {
        let classes = self.victim().spec.classes;
        match spec.attacker {
            AttackerKind::Tbfa(goal) => {
                let highest = goal.source_class.unwrap_or(0).max(goal.target_class);
                if highest >= classes {
                    return Err(format!(
                        "attacker `{}` names class {highest}, but the victim has {classes} classes",
                        spec.attacker.label()
                    ));
                }
            }
            AttackerKind::Random { flips } if !(1..=MAX_SERVED_RANDOM_FLIPS).contains(&flips) => {
                return Err(format!(
                    "attacker `{}` draws {flips} flips, outside 1..={MAX_SERVED_RANDOM_FLIPS}",
                    spec.attacker.label()
                ));
            }
            _ => {}
        }
        if let Some(t_rh) = spec.device.t_rh {
            if !(1..=MAX_SERVED_T_RH).contains(&t_rh) {
                return Err(format!(
                    "device `{}` sets T_RH {t_rh}, outside 1..={MAX_SERVED_T_RH}",
                    spec.device.label()
                ));
            }
        }
        Ok(())
    }

    /// The single-cell matrix for one spec. `threads(1)` because the
    /// server's own executor provides the parallelism across cells.
    pub fn matrix_for(&self, spec: &CellSpec) -> ScenarioMatrix {
        let attack = AttackConfig {
            target_accuracy: 0.3,
            max_flips: 40,
            ..Default::default()
        };
        ScenarioMatrix::new(self.victim())
            .attack_config(attack)
            .budget(self.budget())
            .seed(2024)
            .attacker(spec.attacker)
            .background(spec.load)
            .dram_config(spec.device.config())
            .defense_kind(spec.defense)
            .threads(1)
    }

    /// The spec's scenario row and content-addressed cache key — the same
    /// key the batch path computes for this cell.
    pub fn cell_key(&self, spec: &CellSpec) -> (Scenario, u64) {
        self.matrix_for(spec)
            .cell_keys()
            .into_iter()
            .next()
            .expect("single-cell matrix has one cell")
    }

    /// Deterministic estimate of the DRAM commands the cell will simulate:
    /// the attack campaigns (≈ `T_RH` activations per attempt) plus the
    /// benign traffic replayed around them (`ops × (1 + batch)` commands
    /// per window, over the attempts plus two warm-up windows). The
    /// attempts are the budget, or a `Random(n)` attacker's `n` flips,
    /// each of which is replayed. An *estimate* for admission pricing —
    /// the simulator does not promise this count — but monotone in
    /// attempts, threshold, and load level, and saturating rather than
    /// wrapping for a spec outside the served ranges
    /// ([`MAX_SERVED_T_RH`], [`MAX_SERVED_RANDOM_FLIPS`]), which
    /// admission refuses before pricing.
    pub fn estimated_commands(&self, spec: &CellSpec) -> u64 {
        let attempts = match spec.attacker {
            AttackerKind::Random { flips } => flips as u64,
            _ => self.budget() as u64,
        };
        let t_rh = spec.device.config().rowhammer_threshold;
        let warmup = if spec.load == BackgroundLoad::None {
            0
        } else {
            2
        };
        let windows = attempts.saturating_add(warmup);
        let per_window = spec.load.ops_per_window() * (1 + spec.load.batch());
        attempts
            .saturating_mul(t_rh)
            .saturating_add(windows.saturating_mul(per_window))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(device: &str, load: BackgroundLoad) -> CellSpec {
        CellSpec {
            defense: DefenseKind::DnnDefender,
            attacker: AttackerKind::Bfa,
            device: DeviceSpec::parse(device).expect("device"),
            load,
            priority: 0,
        }
    }

    #[test]
    fn device_spec_parses_and_overrides_threshold() {
        let plain = DeviceSpec::parse("lpddr4_small").expect("plain");
        assert_eq!(plain.config(), DramConfig::lpddr4_small());
        assert_eq!(plain.label(), "lpddr4_small");
        assert_eq!(plain.rows(), 16 * 8 * 128);

        let tuned = DeviceSpec::parse("ddr4_32gb@7777").expect("tuned");
        assert_eq!(tuned.config().rowhammer_threshold, 7777);
        assert_eq!(tuned.label(), "ddr4_32gb@7777");
        assert_eq!(DeviceSpec::parse(&tuned.label()), Some(tuned));

        assert_eq!(DeviceSpec::parse("hbm3"), None);
        assert_eq!(DeviceSpec::parse("lpddr4_small@fast"), None);
    }

    #[test]
    fn cell_spec_round_trips_json_and_compact() {
        let spec = CellSpec {
            defense: DefenseKind::Graphene,
            attacker: AttackerKind::Random { flips: 9 },
            device: DeviceSpec::parse("lpddr4_small@3000").expect("device"),
            load: BackgroundLoad::MultiTenant,
            priority: -2,
        };
        let back = CellSpec::from_json(&spec.to_json()).expect("round trip");
        assert_eq!(back, spec);

        let compact =
            CellSpec::parse_compact("Graphene:Random(9):lpddr4_small@3000:multi-tenant:-2")
                .expect("compact");
        assert_eq!(compact, spec);
        assert!(CellSpec::parse_compact("Graphene:BFA:lpddr4_small").is_err());
        assert!(CellSpec::parse_compact("Fortress:BFA:lpddr4_small:none").is_err());
    }

    #[test]
    fn cell_keys_differ_across_axes_and_modes() {
        let base = SweepBase::standard(true);
        let a = base.cell_key(&spec("lpddr4_small", BackgroundLoad::None)).1;
        let b = base
            .cell_key(&spec("lpddr4_small", BackgroundLoad::Light))
            .1;
        let c = base
            .cell_key(&spec("lpddr4_small@3000", BackgroundLoad::None))
            .1;
        let full = SweepBase::standard(false)
            .cell_key(&spec("lpddr4_small", BackgroundLoad::None))
            .1;
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, full, "budget change must change the key");
    }

    #[test]
    fn check_bounds_tbfa_classes_by_the_victim() {
        let base = SweepBase::standard(true);
        let check = |attacker: &str| {
            let text = format!("Baseline (undefended):{attacker}:lpddr4_small:none");
            base.check(&CellSpec::parse_compact(&text).expect("spec"))
        };
        assert_eq!(check("T-BFA(*->3)"), Ok(()));
        assert_eq!(check("T-BFA(3->0)"), Ok(()));
        assert_eq!(check("BFA"), Ok(()));
        assert!(check("T-BFA(*->4)").is_err());
        assert!(check("T-BFA(4->0)").is_err());
    }

    #[test]
    fn check_bounds_the_threshold_at_both_ends() {
        let base = SweepBase::standard(true);
        let check = |device: &str| base.check(&spec(device, BackgroundLoad::None));
        assert_eq!(check("lpddr4_small"), Ok(()));
        assert_eq!(check("lpddr4_small@1"), Ok(()));
        assert_eq!(check(&format!("lpddr4_small@{MAX_SERVED_T_RH}")), Ok(()));
        assert!(check("lpddr4_small@0").is_err());
        assert!(check(&format!("ddr4_32gb@{}", MAX_SERVED_T_RH + 1)).is_err());
        assert!(check(&format!("lpddr4_small@{}", u64::MAX)).is_err());
    }

    #[test]
    fn check_bounds_random_flips_and_pricing_counts_them() {
        let base = SweepBase::standard(true);
        let random = |flips: usize| CellSpec {
            attacker: AttackerKind::Random { flips },
            ..spec("lpddr4_small", BackgroundLoad::Light)
        };
        assert!(base.check(&random(0)).is_err());
        assert_eq!(base.check(&random(1)), Ok(()));
        assert_eq!(base.check(&random(9)), Ok(()));
        assert_eq!(base.check(&random(MAX_SERVED_RANDOM_FLIPS)), Ok(()));
        assert!(base.check(&random(MAX_SERVED_RANDOM_FLIPS + 1)).is_err());
        assert!(base.check(&random(usize::MAX)).is_err());
        // Every flip is a campaign: the estimate grows with `n`, and the
        // budget-sized draw costs what a budget-sized search does.
        let estimate = |flips| base.estimated_commands(&random(flips));
        assert!(estimate(9) < estimate(10) && estimate(10) < estimate(MAX_SERVED_RANDOM_FLIPS));
        // The cheapest admitted cell, one flip on the lowest threshold
        // with no background load, still has a price.
        let cheapest = CellSpec {
            load: BackgroundLoad::None,
            device: DeviceSpec::parse("lpddr4_small@1").expect("device"),
            ..random(1)
        };
        assert_eq!(base.check(&cheapest), Ok(()));
        assert_eq!(base.estimated_commands(&cheapest), 1);
        let bfa = base.estimated_commands(&spec("lpddr4_small", BackgroundLoad::Light));
        assert_eq!(estimate(base.budget()), bfa);
        // The largest admitted cell's count stays exact on the wire.
        let largest = CellSpec {
            load: BackgroundLoad::Heavy,
            device: DeviceSpec::parse(&format!("ddr4_32gb@{MAX_SERVED_T_RH}")).expect("device"),
            ..random(MAX_SERVED_RANDOM_FLIPS)
        };
        assert_eq!(base.check(&largest), Ok(()));
        assert!(base.estimated_commands(&largest) < 1 << 53);
    }

    #[test]
    fn estimated_commands_monotone_in_load_and_threshold() {
        let base = SweepBase::standard(true);
        let none = base.estimated_commands(&spec("lpddr4_small", BackgroundLoad::None));
        let light = base.estimated_commands(&spec("lpddr4_small", BackgroundLoad::Light));
        let heavy = base.estimated_commands(&spec("lpddr4_small", BackgroundLoad::Heavy));
        assert!(none < light && light < heavy);
        let tuned = base.estimated_commands(&spec("lpddr4_small@9600", BackgroundLoad::None));
        assert!(tuned > none);
    }

    /// The served T-BFA and random cells, recorded as `CellReport` JSON:
    /// no committed artifact covers either attacker in the matrix.
    #[test]
    fn served_tbfa_and_random_cells_are_pinned() {
        let pinned = [
            (
                "Baseline (undefended):T-BFA(*->1):lpddr4_small:none",
                r#"{"scenario":{"defense":"Baseline (undefended)","attacker":"T-BFA(*->1)","dram":"16b/8s/128r T_RH=4800","workload":"none","seed":"0x0a2826ad90c54a17"},"clean_accuracy":1,"post_attack_accuracy":0.5416666865348816,"attempts":4,"landed":4,"stats":{"attempts":4,"flips_resisted":0,"flips_landed":4,"defense_misses":0,"defense_ops":0,"row_clones":0,"non_target_refreshes":0}}"#,
            ),
            (
                "Baseline (undefended):Random(9):lpddr4_small:none",
                r#"{"scenario":{"defense":"Baseline (undefended)","attacker":"Random(9)","dram":"16b/8s/128r T_RH=4800","workload":"none","seed":"0x420274509bc07c71"},"clean_accuracy":1,"post_attack_accuracy":1,"attempts":9,"landed":9,"stats":{"attempts":9,"flips_resisted":0,"flips_landed":9,"defense_misses":0,"defense_ops":0,"row_clones":0,"non_target_refreshes":0}}"#,
            ),
        ];
        let base = SweepBase::standard(true);
        for (text, json) in pinned {
            let spec = CellSpec::parse_compact(text).expect("spec");
            let report = base.matrix_for(&spec).run().expect("cell runs");
            assert_eq!(report.cells[0].to_json().render_compact(), json, "{text}");
        }
    }
}

//! Diurnal fleet-scale traffic profiles for corpus sweeps.
//!
//! A single [`BackgroundLoad`] level is a steady-state recipe; a real
//! fleet's day is not steady. This module composes the existing seeded
//! generators into a [`DiurnalProfile`]: an ordered sequence of
//! [`CorpusPhase`]s modeling a compressed day of serving traffic —
//! overnight scan-heavy maintenance at low intensity, a morning load
//! ramp, a midday multi-tenant peak with tenant churn (rotated tenant
//! weights), an afternoon hot-key shift (the zipfian popularity
//! permutation re-seeded), and an evening drain.
//!
//! Everything is deterministic given the profile seed: the same profile
//! produces the same op stream on every machine, so the corpus sweep in
//! `dd-bench` can compare the full defense roster on identical traffic,
//! and [`DiurnalProfile::sample_ops`] can pin a golden
//! `corpus_v2.trace` without touching a simulated device.
//!
//! [`BackgroundLoad`]: crate::generator::BackgroundLoad

use dd_dram::DramConfig;

use crate::driver::BenignTraffic;
use crate::generator::{
    all_data_rows, tenant_rows, PointerChase, StreamingScan, TenantMix, WorkloadGenerator,
    WorkloadOp, ZipfianServing,
};
use crate::rows::RowSet;

/// Which generator recipe a phase composes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseShape {
    /// Overnight maintenance: streaming scans with sparse writes plus a
    /// trickle of residual serving traffic.
    ScanHeavy,
    /// Serving traffic (zipfian reads over a hot set) plus a pointer
    /// chase — the morning ramp and evening drain, differing only in
    /// intensity.
    Serving,
    /// Four co-located tenants with bank affinity; the tenant weights
    /// rotate with the phase seed, modeling tenant churn at peak.
    PeakChurn,
    /// Serving again, but with the zipfian permutation re-seeded so the
    /// popular rows move — the afternoon hot-key shift.
    HotKeyShift,
}

/// One phase of a diurnal profile: a shape plus its intensity.
#[derive(Debug, Clone)]
pub struct CorpusPhase {
    /// Phase label (stable; used in reports and artifacts).
    pub name: &'static str,
    /// Generator recipe.
    pub shape: PhaseShape,
    /// Benign ops per driver window — the load-ramp axis.
    pub ops_per_window: u64,
    /// Ops issued back-to-back per stream turn.
    pub batch: u64,
    /// Driver windows this phase runs in a full sweep.
    pub windows: u64,
}

/// A seeded, ordered sequence of [`CorpusPhase`]s — one compressed day
/// of fleet traffic.
#[derive(Debug, Clone)]
pub struct DiurnalProfile {
    /// Profile label (stable; used in reports and artifacts).
    pub label: String,
    /// Master seed; every phase derives its own stream seeds from it.
    pub seed: u64,
    /// The phases, in diurnal order.
    pub phases: Vec<CorpusPhase>,
}

/// Rows in the serving hot set (per serving-shaped phase).
const HOT_ROWS: usize = 192;

/// Tenants in the peak-churn mix (capped at the device's bank count).
const PEAK_TENANTS: usize = 4;

impl DiurnalProfile {
    /// The canonical compressed fleet day: six phases ramping
    /// 96 → 384 ops/window and back, with churn and a hot-key shift at
    /// the top of the curve.
    pub fn fleet_day(seed: u64) -> Self {
        DiurnalProfile {
            label: format!("fleet-day-{seed:#x}"),
            seed,
            phases: vec![
                CorpusPhase {
                    name: "night-scan",
                    shape: PhaseShape::ScanHeavy,
                    ops_per_window: 96,
                    batch: 16,
                    windows: 6,
                },
                CorpusPhase {
                    name: "dawn-ramp",
                    shape: PhaseShape::Serving,
                    ops_per_window: 192,
                    batch: 32,
                    windows: 6,
                },
                CorpusPhase {
                    name: "midday-peak",
                    shape: PhaseShape::PeakChurn,
                    ops_per_window: 384,
                    batch: 32,
                    windows: 8,
                },
                CorpusPhase {
                    name: "hot-shift",
                    shape: PhaseShape::HotKeyShift,
                    ops_per_window: 384,
                    batch: 32,
                    windows: 8,
                },
                CorpusPhase {
                    name: "evening-serve",
                    shape: PhaseShape::Serving,
                    ops_per_window: 256,
                    batch: 32,
                    windows: 6,
                },
                CorpusPhase {
                    name: "late-drain",
                    shape: PhaseShape::ScanHeavy,
                    ops_per_window: 128,
                    batch: 16,
                    windows: 6,
                },
            ],
        }
    }

    /// The per-phase seed: the master seed FNV-mixed with the phase
    /// index, so phases draw independent streams while staying
    /// reproducible.
    fn phase_seed(&self, phase: usize) -> u64 {
        (self.seed ^ (phase as u64).wrapping_add(0xcbf2_9ce4_8422_2325))
            .wrapping_mul(0x0100_0000_01b3)
    }

    /// Build the generator streams of phase `phase` over `config`'s
    /// address space.
    ///
    /// # Panics
    ///
    /// Panics when `phase` is out of range.
    fn phase_streams(
        &self,
        phase: usize,
        config: &DramConfig,
    ) -> Vec<(Box<dyn WorkloadGenerator>, u32)> {
        let spec = &self.phases[phase];
        let seed = self.phase_seed(phase);
        let rows = all_data_rows(config);
        let hot = rows.spread(HOT_ROWS);
        match spec.shape {
            PhaseShape::ScanHeavy => vec![
                (
                    Box::new(StreamingScan::new(rows, 16)) as Box<dyn WorkloadGenerator>,
                    3,
                ),
                (Box::new(ZipfianServing::new(hot, 1.0, seed)), 1),
            ],
            PhaseShape::Serving => vec![
                // The serving permutation is seeded from the *profile*,
                // not the phase, so dawn-ramp and evening-serve hit the
                // same hot keys — only HotKeyShift moves them.
                (
                    Box::new(ZipfianServing::new(hot, 1.1, self.seed))
                        as Box<dyn WorkloadGenerator>,
                    3,
                ),
                (Box::new(PointerChase::new(rows, seed)), 1),
            ],
            PhaseShape::PeakChurn => {
                let tenants = PEAK_TENANTS.min(config.banks);
                let mut streams: Vec<ZipfianServing> = Vec::with_capacity(tenants);
                for t in 0..tenants {
                    let rows = tenant_rows(config, t, tenants);
                    let tenant_seed = seed.wrapping_add(t as u64);
                    streams.push(match streams.first() {
                        Some(first) => first.sibling(rows, tenant_seed),
                        None => ZipfianServing::new(rows, 1.0, tenant_seed),
                    });
                }
                let mix: Vec<(Box<dyn WorkloadGenerator>, u32)> = streams
                    .into_iter()
                    .enumerate()
                    .map(|(t, stream)| {
                        // Rotate the weight schedule by the phase seed:
                        // which tenant dominates changes with the seed,
                        // modeling churn in who is loud at peak.
                        let weight = [4u32, 3, 2, 1][(t + seed as usize) % tenants.max(1)];
                        (Box::new(stream) as Box<dyn WorkloadGenerator>, weight)
                    })
                    .collect();
                vec![(Box::new(TenantMix::new(mix, seed)), 1)]
            }
            PhaseShape::HotKeyShift => vec![
                // Re-seeded permutation: the same hot-set rows, but the
                // popularity ranks shuffled — the hot keys move.
                (
                    Box::new(ZipfianServing::new(hot, 1.1, seed ^ 0x5bd1_e995))
                        as Box<dyn WorkloadGenerator>,
                    3,
                ),
                (Box::new(PointerChase::new(rows, seed)), 1),
            ],
        }
    }

    /// Build the [`BenignTraffic`] of phase `phase`, ready for the
    /// driver. The universe is every data row of the device, so defense
    /// state carries across phases of the same day.
    ///
    /// # Panics
    ///
    /// Panics when `phase` is out of range.
    pub fn traffic(&self, phase: usize, config: &DramConfig) -> BenignTraffic {
        let spec = &self.phases[phase];
        let mut universe = RowSet::new(config);
        universe.insert_rows(&all_data_rows(config));
        BenignTraffic::new(
            self.phase_streams(phase, config),
            format!("{}/{}", self.label, spec.name),
            spec.ops_per_window,
            spec.batch,
            universe,
            config,
        )
    }

    /// Draw `per_phase` ops from every phase, concatenated in diurnal
    /// order, without touching a simulated device — a deterministic
    /// weighted-round-robin over each phase's streams. This is what
    /// pins the golden `corpus_v2.trace` and the trace-size comparison
    /// in the corpus report.
    pub fn sample_ops(&self, config: &DramConfig, per_phase: usize) -> Vec<WorkloadOp> {
        let mut ops = Vec::with_capacity(self.phases.len() * per_phase);
        for phase in 0..self.phases.len() {
            let mut streams = self.phase_streams(phase, config);
            // Weighted round-robin: each turn, stream `i` contributes
            // `weight_i` ops. Deterministic and device-free.
            let mut drawn = 0usize;
            'phase: loop {
                for (gen, weight) in &mut streams {
                    for _ in 0..*weight {
                        if drawn == per_phase {
                            break 'phase;
                        }
                        ops.push(gen.next_op());
                        drawn += 1;
                    }
                }
            }
        }
        ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> DramConfig {
        DramConfig::lpddr4_small()
    }

    #[test]
    fn fleet_day_is_deterministic_per_seed() {
        let config = config();
        let a = DiurnalProfile::fleet_day(7).sample_ops(&config, 200);
        let b = DiurnalProfile::fleet_day(7).sample_ops(&config, 200);
        let c = DiurnalProfile::fleet_day(8).sample_ops(&config, 200);
        assert_eq!(a, b, "same seed must replay identically");
        assert_ne!(a, c, "different seeds must differ");
        assert_eq!(a.len(), 6 * 200);
    }

    #[test]
    fn every_phase_builds_driver_traffic() {
        let config = config();
        let profile = DiurnalProfile::fleet_day(20240808);
        assert_eq!(profile.phases.len(), 6);
        assert!(profile.phases.iter().map(|p| p.windows).sum::<u64>() >= 36);
        for phase in 0..profile.phases.len() {
            let traffic = profile.traffic(phase, &config);
            assert!(
                traffic.label().contains(profile.phases[phase].name),
                "phase label missing"
            );
        }
    }

    #[test]
    fn hot_key_shift_moves_the_popular_rows() {
        let config = config();
        let profile = DiurnalProfile::fleet_day(99);
        let dawn = 1; // Serving
        let shift = 3; // HotKeyShift
        let a = {
            let mut streams = profile.phase_streams(dawn, &config);
            (0..500)
                .map(|_| streams[0].0.next_op().row)
                .collect::<Vec<_>>()
        };
        let b = {
            let mut streams = profile.phase_streams(shift, &config);
            (0..500)
                .map(|_| streams[0].0.next_op().row)
                .collect::<Vec<_>>()
        };
        assert_ne!(a, b, "hot-key shift must re-rank popularity");
    }

    #[test]
    fn load_ramp_spans_the_day() {
        let profile = DiurnalProfile::fleet_day(1);
        let peak = profile.phases.iter().map(|p| p.ops_per_window).max();
        let night = profile.phases.iter().map(|p| p.ops_per_window).min();
        assert!(peak.unwrap() >= 3 * night.unwrap(), "ramp too flat");
    }
}

//! # dd-bench — the experiment harness
//!
//! Home of the `repro` artifact pipeline: [`experiments`] implements
//! every figure/table of the paper's evaluation once, [`report`] defines
//! the versioned artifact schema and the EXPERIMENTS.md renderer, and
//! the `repro` binary ties them together with content-hash caching (see
//! `docs/artifacts.md`). The per-figure binaries (`fig1a`, `fig1b`,
//! `table2`, `fig8a`, `fig8b`, `fig9`, `table3`, `power`) are thin
//! wrappers over [`experiments::run_standalone`]; the Criterion benches
//! live under `benches/`. See EXPERIMENTS.md for the paper-vs-measured
//! record.
//!
//! Set `DD_QUICK=1` (or pass `--smoke` to `repro`) to shrink every
//! experiment (fewer training epochs, smaller attack budgets) for smoke
//! runs.

use dd_attack::AttackData;
use dd_nn::data::{Dataset, SyntheticSpec};
use dd_nn::init::seeded_rng;
use dd_nn::train::{evaluate, train, TrainConfig};
use dd_qnn::{build_model, Architecture, ModelConfig, QModel};

pub mod cache;
pub mod chaos;
pub mod corpus;
pub mod experiments;
pub mod kernel;
pub mod report;
pub mod serve;
pub mod trace;

/// Whether quick (smoke-test) mode is active.
pub fn quick_mode() -> bool {
    std::env::var("DD_QUICK").map(|v| v == "1").unwrap_or(false)
}

/// Which synthetic dataset a victim trains on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetKind {
    /// 10-class CIFAR-10 stand-in.
    Cifar10,
    /// 20-class ImageNet stand-in.
    ImageNet,
}

impl DatasetKind {
    /// Spec for the dataset.
    pub fn spec(self) -> SyntheticSpec {
        match self {
            DatasetKind::Cifar10 => SyntheticSpec::cifar10_like(),
            DatasetKind::ImageNet => SyntheticSpec::imagenet_like(),
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            DatasetKind::Cifar10 => "CIFAR-10 (synthetic)",
            DatasetKind::ImageNet => "ImageNet (synthetic)",
        }
    }

    /// Random-guess accuracy.
    pub fn chance(self) -> f32 {
        self.spec().chance_level()
    }
}

/// A trained, quantized victim ready to attack.
pub struct Victim {
    /// The quantized model.
    pub model: QModel,
    /// Attacker's batches (search + eval).
    pub data: AttackData,
    /// The full dataset (for larger evaluations).
    pub dataset: Dataset,
    /// Clean test accuracy after quantization.
    pub clean_accuracy: f32,
    /// Architecture used.
    pub arch: Architecture,
    /// Dataset used.
    pub dataset_kind: DatasetKind,
}

/// Train and quantize a victim model.
///
/// `base_width` controls the channel scaling (see DESIGN.md); the
/// experiment binaries use 4 to keep full paper sweeps tractable on CPU.
/// `quick` selects the smoke-sized schedule — pass the same flag that
/// keyed the experiment's config hash (a [`quick_mode`] mismatch here
/// would mis-label cached artifacts).
pub fn prepare_victim(
    arch: Architecture,
    dataset_kind: DatasetKind,
    base_width: usize,
    seed: u64,
    quick: bool,
) -> Victim {
    let mut rng = seeded_rng(seed);
    let spec = dataset_kind.spec();
    let dataset = Dataset::generate(spec, &mut rng);
    let config = ModelConfig {
        arch,
        in_channels: spec.channels,
        image_side: spec.height,
        classes: spec.classes,
        base_width,
    };
    // Two-phase schedule (main + lr/5 fine-tune). Deep residual victims
    // are occasionally seed-sensitive at this scale, so keep the best of
    // up to three attempts.
    let epochs = if quick { 5 } else { 14 };
    let tc = TrainConfig {
        epochs,
        batch_size: 64,
        lr: 0.03,
        momentum: 0.9,
        weight_decay: 1e-4,
    };
    let ft = TrainConfig {
        epochs: if quick { 2 } else { 6 },
        lr: tc.lr / 5.0,
        ..tc
    };
    let mut best: Option<(dd_nn::Network, f32)> = None;
    for attempt in 0..3 {
        let mut attempt_rng = seeded_rng(seed ^ (attempt as u64) << 32);
        let mut net = build_model(&config, &mut attempt_rng);
        train(&mut net, &dataset, tc, &mut attempt_rng);
        train(&mut net, &dataset, ft, &mut attempt_rng);
        let acc = evaluate(&mut net, &dataset.test, ft.batch_size);
        let good_enough = acc > 0.85;
        if best.as_ref().is_none_or(|(_, b)| acc > *b) {
            best = Some((net, acc));
        }
        if good_enough {
            break;
        }
    }
    let (net, _) = best.expect("at least one training attempt");
    let mut model = QModel::from_network(net);

    let batch_size = if quick { 32 } else { 64 };
    let search = dataset.attack_batch(batch_size, &mut rng);
    let eval = dataset.attack_batch(128.min(dataset.test.len()), &mut rng);
    let data = AttackData {
        search_images: search.images,
        search_labels: search.labels,
        eval_images: eval.images,
        eval_labels: eval.labels,
    };
    // Report quantized accuracy on the eval batch for consistency with
    // the attack trajectories.
    let clean_accuracy = model.accuracy(&data.eval_images, &data.eval_labels);
    Victim {
        model,
        data,
        dataset,
        clean_accuracy,
        arch,
        dataset_kind,
    }
}

/// Print a fixed-width ASCII table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |sep: &str| {
        let parts: Vec<String> = widths.iter().map(|w| sep.repeat(w + 2)).collect();
        format!("+{}+", parts.join("+"))
    };
    println!("{}", line("-"));
    let hdr: Vec<String> = headers
        .iter()
        .zip(&widths)
        .map(|(h, w)| format!(" {h:<w$} "))
        .collect();
    println!("|{}|", hdr.join("|"));
    println!("{}", line("="));
    for row in rows {
        let cells: Vec<String> = row
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!(" {c:<w$} "))
            .collect();
        println!("|{}|", cells.join("|"));
    }
    println!("{}", line("-"));
}

/// Format an accuracy as a percentage.
pub fn pct(x: f32) -> String {
    format!("{:.2}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_kind_metadata() {
        assert_eq!(DatasetKind::Cifar10.chance(), 0.1);
        assert_eq!(DatasetKind::ImageNet.chance(), 0.05);
        assert!(DatasetKind::ImageNet.name().contains("ImageNet"));
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.9171), "91.71%");
    }

    #[test]
    fn quick_victim_trains_above_chance() {
        let v = prepare_victim(Architecture::Mlp, DatasetKind::Cifar10, 4, 11, true);
        assert!(v.clean_accuracy > 2.0 * DatasetKind::Cifar10.chance());
    }
}

//! Synthetic class-conditional image datasets.
//!
//! Stand-ins for CIFAR-10 and ImageNet (see the substitution table in
//! DESIGN.md). Each class gets a smooth random prototype image; samples are
//! the prototype plus Gaussian pixel noise and a random brightness shift.
//! The noise level is chosen so that the scaled models train to accuracies
//! comparable to the paper's victims (>90% clean accuracy) while still
//! leaving a non-trivial decision boundary for the BFA to attack.

use rand::Rng;

use crate::init::normal;
use crate::tensor::Tensor;

/// Specification of a synthetic dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyntheticSpec {
    /// Number of classes.
    pub classes: usize,
    /// Image channels.
    pub channels: usize,
    /// Image height.
    pub height: usize,
    /// Image width.
    pub width: usize,
    /// Training samples per class.
    pub train_per_class: usize,
    /// Test samples per class.
    pub test_per_class: usize,
    /// Per-pixel Gaussian noise std.
    pub noise: f32,
    /// Global brightness jitter std.
    pub brightness_jitter: f32,
}

impl SyntheticSpec {
    /// CIFAR-10 stand-in: 10 classes of 3×16×16 images.
    pub fn cifar10_like() -> Self {
        SyntheticSpec {
            classes: 10,
            channels: 3,
            height: 16,
            width: 16,
            train_per_class: 64,
            test_per_class: 32,
            noise: 0.55,
            brightness_jitter: 0.25,
        }
    }

    /// ImageNet stand-in: 20 classes of 3×16×16 images (documented
    /// scale-down of 1000 classes; random-guess level = 5%).
    pub fn imagenet_like() -> Self {
        SyntheticSpec {
            classes: 20,
            channels: 3,
            height: 16,
            width: 16,
            train_per_class: 48,
            test_per_class: 24,
            noise: 0.55,
            brightness_jitter: 0.25,
        }
    }

    /// Random-guess accuracy for this dataset.
    pub fn chance_level(&self) -> f32 {
        1.0 / self.classes as f32
    }
}

/// A materialized split: images plus integer labels.
#[derive(Debug, Clone)]
pub struct Split {
    /// `[n, c, h, w]` image batch.
    pub images: Tensor,
    /// One label per image.
    pub labels: Vec<usize>,
}

impl Split {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the split is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Copy a subset of samples by index.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn subset(&self, indices: &[usize]) -> Split {
        let shape = self.images.shape();
        let (c, h, w) = (shape[1], shape[2], shape[3]);
        let stride = c * h * w;
        let mut data = Vec::with_capacity(indices.len() * stride);
        let mut labels = Vec::with_capacity(indices.len());
        for &i in indices {
            data.extend_from_slice(&self.images.as_slice()[i * stride..(i + 1) * stride]);
            labels.push(self.labels[i]);
        }
        Split {
            images: Tensor::from_vec(&[indices.len(), c, h, w], data),
            labels,
        }
    }

    /// Take the first `n` samples (or all if fewer).
    pub fn take(&self, n: usize) -> Split {
        let idx: Vec<usize> = (0..n.min(self.len())).collect();
        self.subset(&idx)
    }
}

/// A full dataset: train + test split of the same distribution.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Generating specification.
    pub spec: SyntheticSpec,
    /// Training split.
    pub train: Split,
    /// Held-out test split.
    pub test: Split,
}

impl Dataset {
    /// Generate a dataset from a spec with a deterministic seed.
    pub fn generate(spec: SyntheticSpec, rng: &mut impl Rng) -> Self {
        let pixels = spec.channels * spec.height * spec.width;
        // Smooth prototypes: a coarse 4×4 per-channel grid upsampled
        // bilinearly gives spatial structure a conv net can exploit.
        let coarse = 4usize;
        let mut prototypes = Vec::with_capacity(spec.classes);
        for _ in 0..spec.classes {
            let grid = normal(&[spec.channels, coarse, coarse], 1.0, rng);
            let mut proto = vec![0.0f32; pixels];
            for c in 0..spec.channels {
                for y in 0..spec.height {
                    for x in 0..spec.width {
                        // Bilinear sample of the coarse grid.
                        let gy = y as f32 / spec.height as f32 * (coarse - 1) as f32;
                        let gx = x as f32 / spec.width as f32 * (coarse - 1) as f32;
                        let (y0, x0) = (gy as usize, gx as usize);
                        let (y1, x1) = ((y0 + 1).min(coarse - 1), (x0 + 1).min(coarse - 1));
                        let (fy, fx) = (gy - y0 as f32, gx - x0 as f32);
                        let g =
                            |yy: usize, xx: usize| grid.as_slice()[(c * coarse + yy) * coarse + xx];
                        let v = g(y0, x0) * (1.0 - fy) * (1.0 - fx)
                            + g(y0, x1) * (1.0 - fy) * fx
                            + g(y1, x0) * fy * (1.0 - fx)
                            + g(y1, x1) * fy * fx;
                        proto[(c * spec.height + y) * spec.width + x] = v;
                    }
                }
            }
            prototypes.push(proto);
        }

        fn gen_split(
            spec: &SyntheticSpec,
            prototypes: &[Vec<f32>],
            per_class: usize,
            rng: &mut impl Rng,
        ) -> Split {
            let pixels = spec.channels * spec.height * spec.width;
            let n = per_class * spec.classes;
            let mut data = Vec::with_capacity(n * pixels);
            let mut labels = Vec::with_capacity(n);
            for _s in 0..per_class {
                for (class, prototype) in prototypes.iter().enumerate() {
                    let shift: f32 = {
                        let u: f32 = rng.gen_range(-1.0..1.0);
                        u * spec.brightness_jitter
                    };
                    let noise = normal(&[pixels], spec.noise, rng);
                    for (p, &nz) in prototype.iter().zip(noise.as_slice()) {
                        data.push(p + nz + shift);
                    }
                    labels.push(class);
                }
            }
            Split {
                images: Tensor::from_vec(&[n, spec.channels, spec.height, spec.width], data),
                labels,
            }
        }

        let train = gen_split(&spec, &prototypes, spec.train_per_class, rng);
        let test = gen_split(&spec, &prototypes, spec.test_per_class, rng);
        Dataset { spec, train, test }
    }

    /// A random attack batch of `n` test samples (what the white-box
    /// attacker is granted: a small batch of test data, Table 1).
    pub fn attack_batch(&self, n: usize, rng: &mut impl Rng) -> Split {
        let mut idx: Vec<usize> = (0..self.test.len()).collect();
        // Fisher–Yates shuffle prefix.
        for i in 0..n.min(idx.len()) {
            let j = rng.gen_range(i..idx.len());
            idx.swap(i, j);
        }
        idx.truncate(n.min(self.test.len()));
        self.test.subset(&idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::seeded_rng;

    #[test]
    fn generate_has_right_sizes() {
        let spec = SyntheticSpec::cifar10_like();
        let ds = Dataset::generate(spec, &mut seeded_rng(1));
        assert_eq!(ds.train.len(), 640);
        assert_eq!(ds.test.len(), 320);
        assert_eq!(ds.train.images.shape(), &[640, 3, 16, 16]);
        assert_eq!(spec.chance_level(), 0.1);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Dataset::generate(SyntheticSpec::cifar10_like(), &mut seeded_rng(9));
        let b = Dataset::generate(SyntheticSpec::cifar10_like(), &mut seeded_rng(9));
        assert_eq!(a.train.images.as_slice(), b.train.images.as_slice());
        assert_eq!(a.train.labels, b.train.labels);
    }

    #[test]
    fn labels_are_balanced() {
        let ds = Dataset::generate(SyntheticSpec::cifar10_like(), &mut seeded_rng(2));
        let mut counts = [0usize; 10];
        for &l in &ds.train.labels {
            counts[l] += 1;
        }
        assert!(counts.iter().all(|&c| c == 64));
    }

    #[test]
    fn subset_and_take() {
        let ds = Dataset::generate(SyntheticSpec::cifar10_like(), &mut seeded_rng(3));
        let sub = ds.test.subset(&[0, 5, 9]);
        assert_eq!(sub.len(), 3);
        assert_eq!(sub.labels[0], ds.test.labels[0]);
        assert_eq!(sub.labels[2], ds.test.labels[9]);
        assert_eq!(ds.test.take(7).len(), 7);
    }

    #[test]
    fn attack_batch_draws_from_test() {
        let ds = Dataset::generate(SyntheticSpec::imagenet_like(), &mut seeded_rng(4));
        let batch = ds.attack_batch(128, &mut seeded_rng(5));
        assert_eq!(batch.len(), 128);
        assert!(batch.labels.iter().all(|&l| l < 20));
    }

    #[test]
    fn classes_are_separable_by_prototype_distance() {
        // Prototype structure should make same-class samples closer to
        // their own prototype than to others, on average.
        let ds = Dataset::generate(SyntheticSpec::cifar10_like(), &mut seeded_rng(6));
        let pixels = 3 * 16 * 16;
        // Compute class means of training data as prototype estimates.
        let mut means = vec![vec![0.0f32; pixels]; 10];
        let mut counts = vec![0usize; 10];
        for (i, &l) in ds.train.labels.iter().enumerate() {
            for (m, &v) in means[l]
                .iter_mut()
                .zip(&ds.train.images.as_slice()[i * pixels..(i + 1) * pixels])
            {
                *m += v;
            }
            counts[l] += 1;
        }
        for (m, &c) in means.iter_mut().zip(&counts) {
            m.iter_mut().for_each(|v| *v /= c as f32);
        }
        // Nearest-mean classification on test data should beat chance by a lot.
        let mut correct = 0;
        for (i, &l) in ds.test.labels.iter().enumerate() {
            let img = &ds.test.images.as_slice()[i * pixels..(i + 1) * pixels];
            let best = (0..10)
                .min_by(|&a, &b| {
                    let da: f32 = means[a].iter().zip(img).map(|(m, v)| (m - v).powi(2)).sum();
                    let db: f32 = means[b].iter().zip(img).map(|(m, v)| (m - v).powi(2)).sum();
                    da.partial_cmp(&db).unwrap()
                })
                .unwrap();
            if best == l {
                correct += 1;
            }
        }
        let acc = correct as f32 / ds.test.len() as f32;
        assert!(acc > 0.8, "synthetic classes not separable: {acc}");
    }
}

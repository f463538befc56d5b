//! Meta-model stage (paper Section 5.2, "Meta Model Training"): build the
//! probe set `D_Q`, extract concatenated confidence vectors from prompted
//! models, and train the random-forest meta-classifier on `D_meta`.

use crate::prompting::LearnedPrompt;
use crate::resume::{decode_rng, encode_rng, journaled, Checkpointer};
use crate::{BpromConfig, Result, ShadowSet};
use bprom_data::Dataset;
use bprom_meta::{ForestConfig, RandomForest, TreeConfig};
use bprom_nn::{softmax, Layer, Mode, Sequential};
use bprom_regimes::{vote_features, OracleRegime};
use bprom_tensor::{Rng, Tensor};
use bprom_vp::{BlackBoxModel, VisualPrompt};

/// The fixed probe set `D_Q`: `q` samples from `D_T`'s test split.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeSet {
    /// Probe images, `[q, c, t, t]`.
    pub images: Tensor,
    /// Target-domain labels of the probes (used for the prompted-accuracy
    /// feature).
    pub labels: Vec<usize>,
}

impl ProbeSet {
    /// Draws `q` random probes from the target test set (Algorithm 1,
    /// line 14).
    ///
    /// # Errors
    ///
    /// Returns an error if `q` exceeds the test-set size.
    pub fn sample(t_test: &Dataset, q: usize, rng: &mut Rng) -> Result<Self> {
        if q == 0 || q > t_test.len() {
            return Err(crate::BpromError::InvalidConfig {
                reason: format!("probe count {q} invalid for test set of {}", t_test.len()),
            });
        }
        let idx = rng.sample_indices(t_test.len(), q);
        let subset = t_test.select(&idx)?;
        Ok(ProbeSet {
            images: subset.images,
            labels: subset.labels,
        })
    }

    /// Number of probes `q`.
    pub fn len(&self) -> usize {
        self.images.shape()[0]
    }

    /// Whether the probe set is empty (never true once constructed).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Turns a `[q, k]` probe confidence matrix into the meta feature vector.
///
/// Two refinements over raw concatenation, both forced by the fact that
/// the backdoor target class `y_t` varies per model:
///
/// 1. **Class canonicalization** — classes are reordered by descending
///    mean probability over the probes, so "one class's probability is
///    inflated everywhere" (the backdoor signature) always lands on the
///    same feature dimensions regardless of which class was the target.
///    Axis-aligned forest splits cannot otherwise express the
///    permutation-invariant pattern.
/// 2. **Aggregate features** — per-rank mean probabilities, mean
///    prediction entropy, and the prompted accuracy (the paper's headline
///    statistic: "BPROM leverages the low classification accuracy of
///    prompted models") appended explicitly, so the forest sees
///    probe-noise-free summaries alongside the raw vectors.
pub fn feature_from_confidences(probs: &Tensor, probe_labels: &[usize]) -> Result<Vec<f32>> {
    let (q, k) = (probs.shape()[0], probs.shape()[1]);
    if probe_labels.len() != q {
        return Err(crate::BpromError::InvalidConfig {
            reason: format!("{} probe labels for {q} probe rows", probe_labels.len()),
        });
    }
    // Mean probability per class over probes.
    let mut mean = vec![0.0f32; k];
    for row in 0..q {
        for c in 0..k {
            mean[c] += probs.data()[row * k + c];
        }
    }
    let mut order: Vec<usize> = (0..k).collect();
    order.sort_by(|&a, &b| mean[b].total_cmp(&mean[a]));
    let mut feature = Vec::with_capacity(q * k + k + 2);
    for row in 0..q {
        for &c in &order {
            feature.push(probs.data()[row * k + c]);
        }
    }
    // Aggregate features: per-rank mean probability (k values) — the
    // rank-0 entry is the "inflated class" statistic — mean prediction
    // entropy, and the prompted accuracy under the identity mapping.
    for &c in &order {
        feature.push(mean[c] / q as f32);
    }
    let mut entropy = 0.0f32;
    for row in 0..q {
        for c in 0..k {
            let p = probs.data()[row * k + c].max(1e-9);
            entropy -= p * p.ln();
        }
    }
    feature.push(entropy / q as f32);
    let mut correct = 0usize;
    for (row, &label) in probe_labels.iter().enumerate() {
        let slice = &probs.data()[row * k..(row + 1) * k];
        let mut best = 0usize;
        for c in 1..k {
            if slice[c] > slice[best] {
                best = c;
            }
        }
        if best == label {
            correct += 1;
        }
    }
    feature.push(correct as f32 / q as f32);
    Ok(feature)
}

/// The regime-aware meta feature for a `[q, k]` probe confidence matrix:
/// degrades `probs` to the regime's wire shape first (idempotent, so a
/// matrix an oracle already served under the regime passes through
/// unchanged), then extracts either the canonical soft-score feature
/// ([`feature_from_confidences`], with top-k rows renormalized to their
/// surviving mass) or — under a label-only contract — the vote-count
/// feature ([`bprom_regimes::vote_features`], length `k + 3`).
///
/// Training (white-box shadows, full softmax available) and inference
/// (black-box oracle enforcing the regime) both funnel through this
/// function, which is what keeps the two feature distributions matched:
/// the meta forest never sees soft scores the deployed endpoint would
/// withhold.
///
/// # Errors
///
/// Propagates feature-extraction failures.
pub fn regime_feature(
    regime: OracleRegime,
    mut probs: Tensor,
    probe_labels: &[usize],
) -> Result<Vec<f32>> {
    regime.prepare_confidences(&mut probs);
    if regime.has_soft_scores() {
        feature_from_confidences(&probs, probe_labels)
    } else {
        Ok(vote_features(&probs, probe_labels))
    }
}

/// Extracts the meta feature of a *white-box* (shadow) model: canonicalized
/// prompted confidence vectors `f(x_Q^1) || ... || f(x_Q^q)` plus the
/// prompted-accuracy feature. Under a degraded [`OracleRegime`] the
/// shadow's full softmax is first degraded to the regime's wire shape,
/// matching what a black-box endpoint would serve.
///
/// # Errors
///
/// Propagates prompting/forward failures.
pub fn probe_features_whitebox(
    model: &mut Sequential,
    prompt: &VisualPrompt,
    probes: &ProbeSet,
    regime: OracleRegime,
) -> Result<Vec<f32>> {
    let prompted = prompt.apply_batch(&probes.images)?;
    let logits = model.forward(&prompted, Mode::Eval)?;
    let probs = softmax(&logits)?;
    regime_feature(regime, probs, &probes.labels)
}

/// Extracts the meta feature of a *black-box* (suspicious) model through
/// queries only, under a declared [`OracleRegime`]. The degrade step is
/// idempotent, so this is correct whether the oracle natively enforces
/// the regime or serves full scores.
///
/// # Errors
///
/// Propagates prompting/query failures.
pub fn probe_features_blackbox(
    oracle: &dyn BlackBoxModel,
    prompt: &VisualPrompt,
    probes: &ProbeSet,
    regime: OracleRegime,
) -> Result<Vec<f32>> {
    let prompted = prompt.apply_batch(&probes.images)?;
    let probs = oracle.query(&prompted)?;
    regime_feature(regime, probs, &probes.labels)
}

/// Builds `D_meta` from the prompted shadows and trains the random-forest
/// meta-classifier (Algorithm 1, lines 15–25).
///
/// # Errors
///
/// Propagates feature-extraction and forest-training failures.
pub fn train_meta(
    config: &BpromConfig,
    shadows: &mut ShadowSet,
    prompts: &[LearnedPrompt],
    probes: &ProbeSet,
    rng: &mut Rng,
) -> Result<RandomForest> {
    train_meta_ckpt(config, shadows, prompts, probes, rng, None)
}

/// Checkpointed variant of [`train_meta`]: the fitted forest is
/// snapshotted (unit `meta`) together with the RNG state at completion
/// — forest training consumes the caller's stream directly, so the
/// restore path must also restore the stream position to keep the
/// continued run bit-identical.
pub(crate) fn train_meta_ckpt(
    config: &BpromConfig,
    shadows: &mut ShadowSet,
    prompts: &[LearnedPrompt],
    probes: &ProbeSet,
    rng: &mut Rng,
    ckpt: Option<&Checkpointer>,
) -> Result<RandomForest> {
    let fit = |rng: &mut Rng| -> Result<RandomForest> {
        let mut features = Vec::with_capacity(shadows.len());
        {
            bprom_obs::span!("build_meta_dataset");
            for (shadow, learned) in shadows.shadows.iter_mut().zip(prompts) {
                features.push(probe_features_whitebox(
                    &mut shadow.model,
                    &learned.prompt,
                    probes,
                    config.regime,
                )?);
                bprom_obs::counter_add("meta.features", 1);
            }
        }
        let labels = shadows.labels();
        bprom_obs::span!("forest_fit");
        let forest = RandomForest::fit(
            &features,
            &labels,
            &ForestConfig {
                trees: config.forest_trees,
                tree: TreeConfig::default(),
            },
            rng,
        )?;
        bprom_obs::log_event(
            "meta.forest_fit",
            [
                ("shadows", features.len().into()),
                ("trees", config.forest_trees.into()),
            ],
        );
        Ok(forest)
    };
    journaled(
        ckpt,
        "meta",
        rng,
        fit,
        |enc, forest, rng| {
            forest.persist(enc);
            encode_rng(enc, rng);
        },
        |dec, rng| {
            let forest = RandomForest::restore(dec)?;
            *rng = decode_rng(dec)?;
            Ok(forest)
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use bprom_data::SynthDataset;
    use bprom_nn::models::{mlp, ModelSpec};
    use bprom_vp::QueryOracle;

    #[test]
    fn probe_set_sampling() {
        let mut rng = Rng::new(0);
        let t = SynthDataset::Stl10.generate(4, 16, 1).unwrap();
        let probes = ProbeSet::sample(&t, 8, &mut rng).unwrap();
        assert_eq!(probes.len(), 8);
        assert!(ProbeSet::sample(&t, 0, &mut rng).is_err());
        assert!(ProbeSet::sample(&t, 1000, &mut rng).is_err());
    }

    #[test]
    fn whitebox_and_blackbox_features_agree() {
        let mut rng = Rng::new(1);
        let t = SynthDataset::Stl10.generate(3, 16, 2).unwrap();
        let probes = ProbeSet::sample(&t, 5, &mut rng).unwrap();
        let prompt = VisualPrompt::random(3, 16, 4, &mut rng).unwrap();
        let spec = ModelSpec::new(3, 16, 10);
        let mut model = mlp(&spec, &mut rng).unwrap();
        let full = OracleRegime::FullScores;
        let white = probe_features_whitebox(&mut model, &prompt, &probes, full).unwrap();
        let oracle = QueryOracle::new(model, 10);
        let black = probe_features_blackbox(&oracle, &prompt, &probes, full).unwrap();
        assert_eq!(white.len(), 5 * 10 + 10 + 2);
        for (w, b) in white.iter().zip(&black) {
            assert!((w - b).abs() < 1e-6);
        }
    }

    #[test]
    fn regime_features_match_across_box_boundaries() {
        // The contract behind per-regime meta forests: the white-box
        // (training) and black-box (inference) feature paths must agree
        // under every regime, including against an oracle that natively
        // enforces the regime (degrade idempotence).
        use bprom_regimes::RegimeOracle;
        let mut rng = Rng::new(3);
        let t = SynthDataset::Stl10.generate(3, 16, 2).unwrap();
        let probes = ProbeSet::sample(&t, 5, &mut rng).unwrap();
        let prompt = VisualPrompt::random(3, 16, 4, &mut rng).unwrap();
        let spec = ModelSpec::new(3, 16, 10);
        for regime in [
            OracleRegime::FullScores,
            OracleRegime::Quantized(2),
            OracleRegime::TopK(3),
            OracleRegime::LabelOnly,
        ] {
            let mut model = mlp(&spec, &mut rng).unwrap();
            let white = probe_features_whitebox(&mut model, &prompt, &probes, regime).unwrap();
            let oracle = QueryOracle::new(model, 10);
            let wrapped = RegimeOracle::new(&oracle, regime);
            let black = probe_features_blackbox(&wrapped, &prompt, &probes, regime).unwrap();
            let expected = if regime.has_soft_scores() {
                5 * 10 + 10 + 2
            } else {
                10 + 3
            };
            assert_eq!(white.len(), expected, "{regime}");
            assert_eq!(black.len(), expected, "{regime}");
            for (w, b) in white.iter().zip(&black) {
                assert!((w - b).abs() < 1e-6, "{regime}: {w} vs {b}");
            }
        }
    }
}

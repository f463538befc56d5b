//! Suspicious-model zoo construction: the clean and attacker-backdoored
//! models the experiments feed to the detector (paper Section 6.1 uses 30
//! clean + 30 backdoored suspicious models per attack).

use crate::resume::{
    decode_model_into, decode_rng, encode_model, encode_rng, journaled, Checkpointer,
};
use crate::{BpromError, Result};
use bprom_attacks::{attack_success_rate, poison_dataset, AttackKind, PoisonConfig};
use bprom_data::SynthDataset;
use bprom_nn::models::{build, Architecture, ModelSpec};
use bprom_nn::{Sequential, TrainConfig, Trainer};
use bprom_tensor::Rng;

/// One suspicious model with its ground truth and quality metrics.
pub struct SuspiciousModel {
    /// The trained classifier.
    pub model: Sequential,
    /// Ground truth: was a backdoor planted?
    pub backdoored: bool,
    /// Clean test accuracy.
    pub accuracy: f32,
    /// Attack success rate (0 for clean models).
    pub asr: f32,
}

impl std::fmt::Debug for SuspiciousModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SuspiciousModel")
            .field("backdoored", &self.backdoored)
            .field("accuracy", &self.accuracy)
            .field("asr", &self.asr)
            .finish()
    }
}

impl SuspiciousModel {
    /// Stable fingerprint of this model's weights (see
    /// [`model_fingerprint`]) — the identity the verdict pipeline's
    /// correlation stage groups repeated audits by.
    pub fn fingerprint(&self) -> String {
        model_fingerprint(&self.model)
    }
}

/// Stable 16-hex-digit fingerprint of a model's exact parameters and
/// batch-norm buffers (FNV-1a over the IEEE-754 bits, in visit order).
///
/// In the MLaaS threat model the auditor holds the model artifact it
/// uploaded even though inference is query-only, so a weight fingerprint
/// is available without extra oracle spend. Deterministic training makes
/// it bit-stable across reruns and thread counts, which the byte-stable
/// `incident.json` fixtures rely on.
pub fn model_fingerprint(model: &Sequential) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut absorb = |bits: u32| {
        for byte in bits.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for tensor in model.export_params() {
        for &v in tensor.data() {
            absorb(v.to_bits());
        }
    }
    for buffer in model.export_buffers() {
        for &v in &buffer {
            absorb(v.to_bits());
        }
    }
    format!("m{hash:016x}")
}

/// Configuration for building a suspicious-model zoo.
#[derive(Debug, Clone, PartialEq)]
pub struct ZooConfig {
    /// Dataset the suspicious models train on.
    pub dataset: SynthDataset,
    /// Image side length.
    pub image_size: usize,
    /// Training samples per class.
    pub samples_per_class: usize,
    /// Architecture of the suspicious models.
    pub architecture: Architecture,
    /// Attack planted in the backdoored half.
    pub attack: AttackKind,
    /// Poisoning parameters; `None` uses the attack's defaults with a
    /// random target class per model.
    pub poison: Option<PoisonConfig>,
    /// Number of clean models.
    pub clean: usize,
    /// Number of backdoored models.
    pub backdoored: usize,
    /// Training hyperparameters.
    pub train: TrainConfig,
}

impl ZooConfig {
    /// Creates a zoo configuration with sensible defaults.
    pub fn new(dataset: SynthDataset, attack: AttackKind) -> Self {
        ZooConfig {
            dataset,
            image_size: dataset.default_size(),
            samples_per_class: 20,
            architecture: Architecture::ResNetMini,
            attack,
            poison: None,
            clean: 6,
            backdoored: 6,
            train: TrainConfig::default(),
        }
    }
}

/// Trains the zoo: `clean` clean models + `backdoored` models poisoned
/// with the configured attack. Each model gets a fresh dataset seed and a
/// fresh trigger instance, as in the paper's 30+30 evaluation protocol.
///
/// # Errors
///
/// Propagates training/poisoning failures and rejects empty zoos.
pub fn build_suspicious_zoo(config: &ZooConfig, rng: &mut Rng) -> Result<Vec<SuspiciousModel>> {
    build_suspicious_zoo_ckpt(config, rng, None)
}

/// Checkpointed variant of [`build_suspicious_zoo`]: each trained model
/// is snapshotted (unit `zoo-<i>`) with its metrics and the RNG state at
/// completion. Zoo models consume the caller's stream sequentially, so a
/// restored unit also restores the stream position recorded when it
/// finished, keeping every later model bit-identical.
///
/// # Errors
///
/// Propagates training/poisoning and checkpoint failures and rejects
/// empty zoos.
pub fn build_suspicious_zoo_ckpt(
    config: &ZooConfig,
    rng: &mut Rng,
    ckpt: Option<&Checkpointer>,
) -> Result<Vec<SuspiciousModel>> {
    if config.clean + config.backdoored == 0 {
        return Err(BpromError::InvalidConfig {
            reason: "zoo must contain at least one model".to_string(),
        });
    }
    let spec = ModelSpec::new(3, config.image_size, config.dataset.num_classes());
    let trainer = Trainer::new(config.train);
    let mut zoo = Vec::with_capacity(config.clean + config.backdoored);
    for i in 0..config.clean + config.backdoored {
        let is_backdoored = i >= config.clean;
        let train = |rng: &mut Rng| -> Result<SuspiciousModel> {
            let full = config.dataset.generate(
                config.samples_per_class,
                config.image_size,
                rng.next_u64(),
            )?;
            let (train, test) = full.split(0.8, rng)?;
            let mut model = build(config.architecture, &spec, rng)?;
            let (accuracy, asr);
            if is_backdoored {
                let attack = config.attack.build(config.image_size, rng)?;
                let poison_cfg = config.poison.unwrap_or_else(|| {
                    config
                        .attack
                        .default_config(rng.below(config.dataset.num_classes()))
                });
                let poisoned = poison_dataset(&train, attack.as_ref(), &poison_cfg, rng)?;
                trainer.fit(
                    &mut model,
                    &poisoned.dataset.images,
                    &poisoned.dataset.labels,
                    rng,
                )?;
                accuracy = trainer.evaluate(&mut model, &test.images, &test.labels)?;
                asr = attack_success_rate(&mut model, attack.as_ref(), &test, &poison_cfg, rng)?;
            } else {
                trainer.fit(&mut model, &train.images, &train.labels, rng)?;
                accuracy = trainer.evaluate(&mut model, &test.images, &test.labels)?;
                asr = 0.0;
            }
            Ok(SuspiciousModel {
                model,
                backdoored: is_backdoored,
                accuracy,
                asr,
            })
        };
        zoo.push(journaled(
            ckpt,
            &format!("zoo-{i}"),
            rng,
            train,
            |enc, m, rng| {
                enc.put_bool(m.backdoored);
                enc.put_f32(m.accuracy);
                enc.put_f32(m.asr);
                encode_model(enc, &m.model);
                encode_rng(enc, rng);
            },
            |dec, rng| {
                let backdoored = dec.get_bool()?;
                let accuracy = dec.get_f32()?;
                let asr = dec.get_f32()?;
                // A fresh skeleton receives the snapshotted weights; the
                // draws its construction makes are irrelevant because the
                // recorded post-unit stream position is restored next.
                let mut model = build(config.architecture, &spec, rng)?;
                decode_model_into(dec, &mut model)?;
                *rng = decode_rng(dec)?;
                Ok(SuspiciousModel {
                    model,
                    backdoored,
                    accuracy,
                    asr,
                })
            },
        )?);
    }
    Ok(zoo)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zoo_has_requested_composition() {
        let mut rng = Rng::new(0);
        let mut cfg = ZooConfig::new(SynthDataset::Cifar10, AttackKind::BadNets);
        cfg.clean = 2;
        cfg.backdoored = 2;
        cfg.samples_per_class = 30;
        cfg.train = TrainConfig::default();
        let zoo = build_suspicious_zoo(&cfg, &mut rng).unwrap();
        assert_eq!(zoo.len(), 4);
        assert_eq!(zoo.iter().filter(|m| m.backdoored).count(), 2);
        for m in &zoo {
            assert!(m.accuracy > 0.5, "model too weak: {m:?}");
            if !m.backdoored {
                assert_eq!(m.asr, 0.0);
            }
        }
    }

    #[test]
    fn fingerprint_is_stable_and_weight_sensitive() {
        let mut rng = Rng::new(7);
        let spec = ModelSpec::new(3, 8, 10);
        let a = build(Architecture::ResNetMini, &spec, &mut rng).unwrap();
        let b = build(Architecture::ResNetMini, &spec, &mut rng).unwrap();
        let fp_a = model_fingerprint(&a);
        assert_eq!(fp_a, model_fingerprint(&a), "same weights, same id");
        assert_ne!(fp_a, model_fingerprint(&b), "different weights differ");
        assert_eq!(fp_a.len(), 17);
        assert!(fp_a.starts_with('m'));
    }

    #[test]
    fn empty_zoo_rejected() {
        let mut rng = Rng::new(1);
        let mut cfg = ZooConfig::new(SynthDataset::Cifar10, AttackKind::BadNets);
        cfg.clean = 0;
        cfg.backdoored = 0;
        assert!(build_suspicious_zoo(&cfg, &mut rng).is_err());
    }
}

//! Shadow-model generation (paper Section 5.2, "Generating Shadow
//! Models"): clean shadows trained on `D_S`, backdoor shadows trained on
//! poisoned copies `D_P` with per-shadow trigger/target variation.

use crate::resume::{decode_model_into, encode_model, journaled, Checkpointer, Decoder};
use crate::{BpromConfig, Result};
use bprom_attacks::{poison_dataset, PoisonConfig};
use bprom_ckpt::Encoder;
use bprom_data::Dataset;
use bprom_nn::models::{build, ModelSpec};
use bprom_nn::{Sequential, Trainer};
use bprom_tensor::Rng;

/// Placeholder model used when a shadow is temporarily moved into a query
/// oracle (swapped back immediately afterwards).
pub(crate) fn empty_model() -> Sequential {
    Sequential::new(Vec::new())
}

/// Serializes a trained shadow: its label, target class and weights.
fn encode_shadow(enc: &mut Encoder, shadow: &ShadowModel) {
    enc.put_bool(shadow.backdoored);
    enc.put_bool(shadow.target_class.is_some());
    if let Some(t) = shadow.target_class {
        enc.put_usize(t);
    }
    encode_model(enc, &shadow.model);
}

/// Rebuilds a journalled shadow from its artifact snapshot: a fresh
/// skeleton of the configured architecture (initialized from the
/// shadow's private forked stream, which is then discarded) receives the
/// snapshotted parameters and buffers.
fn decode_shadow(
    dec: &mut Decoder<'_>,
    config: &BpromConfig,
    spec: &ModelSpec,
    rng: &mut Rng,
) -> Result<ShadowModel> {
    let backdoored = dec.get_bool()?;
    let target_class = if dec.get_bool()? {
        Some(dec.get_usize()?)
    } else {
        None
    };
    let mut model = build(config.architecture, spec, rng)?;
    decode_model_into(dec, &mut model)?;
    Ok(ShadowModel {
        model,
        backdoored,
        target_class,
    })
}

/// One trained shadow model plus its ground-truth label.
pub struct ShadowModel {
    /// The trained classifier.
    pub model: Sequential,
    /// Whether this shadow was trained on a poisoned dataset.
    pub backdoored: bool,
    /// The backdoor target class, for backdoored shadows.
    pub target_class: Option<usize>,
}

impl std::fmt::Debug for ShadowModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShadowModel")
            .field("backdoored", &self.backdoored)
            .field("target_class", &self.target_class)
            .finish()
    }
}

/// The full shadow-model set of a BPROM detector.
#[derive(Debug)]
pub struct ShadowSet {
    /// All shadows, clean first.
    pub shadows: Vec<ShadowModel>,
}

impl ShadowSet {
    /// Trains `clean_shadows` clean + `backdoor_shadows` poisoned shadow
    /// models on (copies of) `ds`, following Algorithm 1 lines 2–8.
    ///
    /// Each backdoored shadow draws its own trigger instance and target
    /// class (paper: "by sampling different combinations of backdoor
    /// patterns (m, t, α, y_t), various `D_P` can be generated").
    ///
    /// # Errors
    ///
    /// Propagates training/poisoning failures.
    pub fn train(config: &BpromConfig, ds: &Dataset, rng: &mut Rng) -> Result<Self> {
        Self::train_ckpt(config, ds, rng, None)
    }

    /// Checkpointed variant of [`ShadowSet::train`]: each trained shadow
    /// is snapshotted (unit `shadow-<i>`) and journalled, and shadows the
    /// journal marks done are restored instead of retrained.
    ///
    /// Each shadow trains from its own pre-forked RNG stream, so a
    /// restored shadow simply discards that stream — no RNG state needs
    /// recording, and the caller's stream is untouched either way.
    pub(crate) fn train_ckpt(
        config: &BpromConfig,
        ds: &Dataset,
        rng: &mut Rng,
        ckpt: Option<&Checkpointer>,
    ) -> Result<Self> {
        let spec = ModelSpec::new(ds.channels(), ds.image_size(), ds.num_classes);
        let trainer = Trainer::new(config.train);
        // Fork one child generator per shadow *up front, in shadow order*.
        // Every shadow then trains from its own stream regardless of which
        // worker runs it, so the set is bit-identical at any thread count.
        let mut jobs: Vec<(usize, bool, Rng)> =
            Vec::with_capacity(config.clean_shadows + config.backdoor_shadows);
        for i in 0..config.clean_shadows {
            jobs.push((i, false, rng.fork()));
        }
        for i in 0..config.backdoor_shadows {
            jobs.push((config.clean_shadows + i, true, rng.fork()));
        }
        let timed = bprom_obs::enabled();
        let shadows = bprom_par::par_map(jobs, |(i, backdoored, mut rng)| {
            let train = |rng: &mut Rng| -> Result<ShadowModel> {
                let start = timed.then(std::time::Instant::now);
                let (model, target_class) = if backdoored {
                    // Fresh trigger instance per shadow (random pattern
                    // components draw from the shadow's stream), fresh
                    // target.
                    let attack = config.shadow_attack.build(ds.image_size(), rng)?;
                    let target = rng.below(ds.num_classes);
                    let defaults = config.shadow_attack.default_config(target);
                    let cfg = PoisonConfig::new(defaults.poison_rate, defaults.cover_rate, target);
                    let poisoned = poison_dataset(ds, attack.as_ref(), &cfg, rng)?;
                    let mut model = build(config.architecture, &spec, rng)?;
                    trainer.fit(
                        &mut model,
                        &poisoned.dataset.images,
                        &poisoned.dataset.labels,
                        rng,
                    )?;
                    (model, Some(target))
                } else {
                    let mut model = build(config.architecture, &spec, rng)?;
                    trainer.fit(&mut model, &ds.images, &ds.labels, rng)?;
                    (model, None)
                };
                if let Some(start) = start {
                    bprom_obs::observe("shadow.train_ns", start.elapsed().as_nanos() as u64);
                    bprom_obs::counter_add(
                        if backdoored {
                            "shadows.backdoored"
                        } else {
                            "shadows.clean"
                        },
                        1,
                    );
                    bprom_obs::log_event(
                        "shadow.trained",
                        [("index", i.into()), ("backdoored", backdoored.into())],
                    );
                }
                Ok(ShadowModel {
                    model,
                    backdoored,
                    target_class,
                })
            };
            journaled(
                ckpt,
                &format!("shadow-{i}"),
                &mut rng,
                train,
                |enc, shadow, _| encode_shadow(enc, shadow),
                |dec, rng| decode_shadow(dec, config, &spec, rng),
            )
        })
        .into_iter()
        .collect::<Result<Vec<_>>>()?;
        Ok(ShadowSet { shadows })
    }

    /// Number of shadow models.
    pub fn len(&self) -> usize {
        self.shadows.len()
    }

    /// Whether the set is empty (never true for trained sets).
    pub fn is_empty(&self) -> bool {
        self.shadows.is_empty()
    }

    /// Ground-truth labels, in shadow order.
    pub fn labels(&self) -> Vec<bool> {
        self.shadows.iter().map(|s| s.backdoored).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bprom_data::SynthDataset;
    use bprom_nn::TrainConfig;

    #[test]
    fn trains_mixed_shadow_set() {
        let mut rng = Rng::new(0);
        let mut config = BpromConfig::fast(SynthDataset::Cifar10, SynthDataset::Stl10);
        config.clean_shadows = 2;
        config.backdoor_shadows = 2;
        config.train = TrainConfig {
            epochs: 4,
            ..TrainConfig::default()
        };
        let ds = SynthDataset::Cifar10.generate(10, 16, 1).unwrap();
        let set = ShadowSet::train(&config, &ds, &mut rng).unwrap();
        assert_eq!(set.len(), 4);
        assert_eq!(set.labels(), vec![false, false, true, true]);
        for s in &set.shadows {
            assert_eq!(s.backdoored, s.target_class.is_some());
        }
    }

    #[test]
    fn backdoor_shadows_vary_targets() {
        let mut rng = Rng::new(3);
        let mut config = BpromConfig::fast(SynthDataset::Cifar10, SynthDataset::Stl10);
        config.clean_shadows = 1;
        config.backdoor_shadows = 6;
        config.train = TrainConfig {
            epochs: 1,
            ..TrainConfig::default()
        };
        let ds = SynthDataset::Cifar10.generate(8, 16, 2).unwrap();
        let set = ShadowSet::train(&config, &ds, &mut rng).unwrap();
        let targets: Vec<usize> = set.shadows.iter().filter_map(|s| s.target_class).collect();
        assert_eq!(targets.len(), 6);
        // With 6 draws over 10 classes, expect at least two distinct targets.
        let mut distinct = targets.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(distinct.len() >= 2, "targets {targets:?}");
    }
}

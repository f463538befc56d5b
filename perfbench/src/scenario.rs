//! The pinned audit scenario every workload runs: one detector spec, one
//! suspicious fleet, and the seed streams derived from the workload seed.
//!
//! The detector and the fleet are pinned (fixed seeds, program defaults
//! plus pinned scale fields) so that every run measures the same work;
//! the workload seed varies the inspection randomness (CMA-ES search,
//! fault plans) of each audit.

use bprom::{build_suspicious_zoo, model_fingerprint, Bprom, BpromConfig, ZooConfig};
use bprom_attacks::AttackKind;
use bprom_audit::DetectorSpec;
use bprom_data::SynthDataset;
use bprom_nn::models::{build, Architecture, ModelSpec};
use bprom_nn::Sequential;
use bprom_tensor::{Rng, Tensor};

/// Seed of the pinned detector fit.
pub const FIT_SEED: u64 = 7;
/// Seed of the pinned suspicious fleet.
pub const ZOO_SEED: u64 = 99;
/// Clean models in the fleet.
pub const FLEET_CLEAN: usize = 2;
/// BadNets-backdoored models in the fleet.
pub const FLEET_BACKDOORED: usize = 2;
/// CMA-ES generations, for shadow prompting and for inspection alike.
pub const CMAES_GENERATIONS: usize = 30;

/// Label space of the CIFAR-10 source domain.
const NUM_CLASSES: usize = 10;

/// The detector configuration: the program's defaults for a CIFAR-10 →
/// STL-10 ResNetMini detector with BadNets shadows, plus the pinned
/// scale fields. Everything else (cache policy, regime, mode) stays at
/// the program default, so a change to a default is measured.
pub fn detector_config(shadows_per_kind: usize) -> BpromConfig {
    let mut config = BpromConfig::new(SynthDataset::Cifar10, SynthDataset::Stl10);
    config.clean_shadows = shadows_per_kind;
    config.backdoor_shadows = shadows_per_kind;
    config.prompt.cmaes_generations = CMAES_GENERATIONS;
    config
}

/// The registry coordinate of the pinned detector.
pub fn detector_spec(shadows_per_kind: usize) -> DetectorSpec {
    DetectorSpec::new(detector_config(shadows_per_kind), FIT_SEED)
}

/// FNV-1a digest of a detector's [`Bprom::persist`] bytes.
pub fn detector_digest(detector: &Bprom) -> u64 {
    let mut enc = bprom_ckpt::Encoder::new();
    detector.persist(&mut enc);
    bprom_ckpt::fnv1a64(&enc.into_bytes())
}

/// One trained fleet model, kept as weights so it can be instantiated
/// once per audit (models are consumed by the oracles that seal them).
#[derive(Debug)]
pub struct FleetModel {
    params: Vec<Tensor>,
    buffers: Vec<Vec<f32>>,
    /// Ground truth.
    pub backdoored: bool,
    /// Weight fingerprint of the trained model.
    pub fingerprint: String,
}

/// The pinned suspicious fleet.
#[derive(Debug)]
pub struct Fleet {
    spec: ModelSpec,
    /// The models, clean first.
    pub models: Vec<FleetModel>,
}

impl Fleet {
    /// Trains the fleet: [`FLEET_CLEAN`] clean and [`FLEET_BACKDOORED`]
    /// BadNets models on CIFAR-10 with the program's zoo defaults.
    ///
    /// # Errors
    ///
    /// Propagates training failures.
    pub fn train() -> Result<Self, String> {
        let mut zoo_config = ZooConfig::new(SynthDataset::Cifar10, AttackKind::BadNets);
        zoo_config.clean = FLEET_CLEAN;
        zoo_config.backdoored = FLEET_BACKDOORED;
        let spec = ModelSpec::new(3, zoo_config.image_size, NUM_CLASSES);
        let zoo = build_suspicious_zoo(&zoo_config, &mut Rng::new(ZOO_SEED))
            .map_err(|e| format!("fleet training failed: {e}"))?;
        let models = zoo
            .into_iter()
            .map(|m| FleetModel {
                params: m.model.export_params(),
                buffers: m.model.export_buffers(),
                backdoored: m.backdoored,
                fingerprint: model_fingerprint(&m.model),
            })
            .collect();
        Ok(Fleet { spec, models })
    }

    /// Number of models.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// Whether the fleet is empty.
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// Classes each model predicts.
    pub fn num_classes(&self) -> usize {
        self.spec.num_classes
    }

    /// A fresh copy of model `i`, bit-identical to the trained one.
    ///
    /// # Errors
    ///
    /// Fails if the stored weights no longer fit the architecture, or if
    /// the copy's fingerprint differs from the trained model's.
    pub fn instantiate(&self, i: usize) -> Result<Sequential, String> {
        let m = &self.models[i];
        let mut model = build(Architecture::ResNetMini, &self.spec, &mut Rng::new(0))
            .map_err(|e| e.to_string())?;
        model.import_params(&m.params).map_err(|e| e.to_string())?;
        model
            .import_buffers(&m.buffers)
            .map_err(|e| e.to_string())?;
        if model_fingerprint(&model) != m.fingerprint {
            return Err(format!("fleet model {i} did not replicate bit-exactly"));
        }
        Ok(model)
    }

    /// Multiply-add FLOPs of one ResNetMini forward row, computed from
    /// the fleet's layer shapes: the stem conv and the first residual
    /// block run at full resolution, the stride-2 block and its 1×1
    /// projection at half, then the dense head.
    ///
    /// # Errors
    ///
    /// Fails if the parameter layout is not the ResNetMini one.
    pub fn forward_flops_per_row(&self) -> Result<f64, String> {
        let params = &self.models.first().ok_or("empty fleet")?.params;
        let convs: Vec<&[usize]> = params
            .iter()
            .map(Tensor::shape)
            .filter(|s| s.len() == 4)
            .collect();
        let dense = params
            .iter()
            .map(Tensor::shape)
            .rfind(|s| s.len() == 2)
            .ok_or("no dense layer")?;
        if convs.len() != 6 {
            return Err(format!(
                "expected 6 ResNetMini convs, found {}",
                convs.len()
            ));
        }
        let full = (self.spec.image_size * self.spec.image_size) as f64;
        let half = full / 4.0;
        let conv = |s: &[usize], hw: f64| 2.0 * s.iter().product::<usize>() as f64 * hw;
        let flops = convs[..3].iter().map(|s| conv(s, full)).sum::<f64>()
            + convs[3..].iter().map(|s| conv(s, half)).sum::<f64>()
            + 2.0 * dense.iter().product::<usize>() as f64;
        Ok(flops)
    }
}

/// SplitMix64 finalizer over `a` mixed with `b`: the benchmark's seed
/// derivation.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a
        .wrapping_add(b.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Inspection seed of slot `slot` of model `model` in round `round`.
pub fn inspect_seed(workload_seed: u64, round: u64, model: usize, slot: usize) -> u64 {
    mix(
        mix(mix(workload_seed, round), model as u64),
        slot as u64 + 1,
    )
}

//! Degradation curve of the detector under hostile oracles: the verdict
//! must survive the fault regimes a real MLaaS endpoint exhibits.
//!
//! * Transient drops behind a retry layer deliver bit-identical
//!   responses, so scores (and the logical query budget) are
//!   bit-identical to the fault-free run — and the absorbed faults are
//!   visible in the verdict budget and the telemetry counters.
//! * Quantized (2-decimal) and top-k (k = 3) responses perturb the
//!   CMA-ES trajectory but must not flip the decision on either the
//!   clean or the backdoored fixture.
//!
//! At this test's miniature scale the meta-forest's scores are coarse
//! and sit near 0.5, so decisions are taken at a threshold calibrated on
//! the fault-free scores (the midpoint between the clean and backdoored
//! baseline — exactly what [`DetectionReport::best_threshold`] does for
//! deployments). The contract under test is that no fault regime moves
//! either model across that margin.

use bprom_suite::attacks::AttackKind;
use bprom_suite::bprom::{build_suspicious_zoo, Bprom, BpromConfig, Verdict, ZooConfig};
use bprom_suite::data::SynthDataset;
use bprom_suite::faults::{
    FaultProfile, FaultyOracle, Quantize, RetryPolicy, RetryingOracle, TopK, Transient,
};
use bprom_suite::nn::TrainConfig;
use bprom_suite::obs;
use bprom_suite::tensor::Rng;
use bprom_suite::vp::{BlackBoxModel, PromptTrainConfig, QueryOracle};

fn tiny_config() -> BpromConfig {
    let mut config = BpromConfig::fast(SynthDataset::Cifar10, SynthDataset::Stl10);
    config.clean_shadows = 2;
    config.backdoor_shadows = 2;
    config.test_samples_per_class = 20;
    config.target_samples_per_class = 10;
    config.train = TrainConfig {
        epochs: 3,
        ..TrainConfig::default()
    };
    config.prompt = PromptTrainConfig {
        epochs: 3,
        cmaes_generations: 5,
        cmaes_population: 6,
        ..PromptTrainConfig::default()
    };
    config
}

/// Every inspection below uses a fresh, identically-seeded generator so
/// the only difference between legs is the oracle stack itself.
fn inspect(detector: &Bprom, oracle: &dyn BlackBoxModel) -> Verdict {
    let mut rng = Rng::new(7);
    detector.inspect(oracle, &mut rng).unwrap()
}

#[test]
#[ignore = "tier-2 degradation sweep (fit + zoo + 9 inspections); CI runs it via -- --ignored"]
fn verdicts_survive_hostile_oracles() {
    let mut rng = Rng::new(4321);
    let config = tiny_config();
    let detector = Bprom::fit(&config, &mut rng).unwrap();

    let mut zoo_cfg = ZooConfig::new(SynthDataset::Cifar10, AttackKind::BadNets);
    zoo_cfg.clean = 1;
    zoo_cfg.backdoored = 1;
    zoo_cfg.samples_per_class = 20;
    zoo_cfg.train = TrainConfig {
        epochs: 3,
        ..TrainConfig::default()
    };
    let zoo = build_suspicious_zoo(&zoo_cfg, &mut rng).unwrap();
    let num_classes = config.source_dataset.num_classes();
    let fixtures: Vec<(QueryOracle, bool)> = zoo
        .into_iter()
        .map(|s| (QueryOracle::new(s.model, num_classes), s.backdoored))
        .collect();

    // Fault-free baselines, and the threshold they calibrate.
    let baselines: Vec<Verdict> = fixtures
        .iter()
        .map(|(oracle, _)| inspect(&detector, oracle))
        .collect();
    for baseline in &baselines {
        assert!(!baseline.budget.degraded());
    }
    let clean_score = baselines[fixtures.iter().position(|f| !f.1).unwrap()].score;
    let backdoored_score = baselines[fixtures.iter().position(|f| f.1).unwrap()].score;
    assert!(
        backdoored_score > clean_score,
        "baseline must separate the fixtures ({backdoored_score} vs {clean_score})"
    );
    let threshold = (clean_score + backdoored_score) / 2.0;
    let decide = |score: f32| score > threshold;

    for ((oracle, _), baseline) in fixtures.iter().zip(&baselines) {
        // --- Transient drops absorbed by retries: bit-identical run. ---
        let session = obs::Session::begin("fault-tolerance");
        let faulty = FaultyOracle::new(oracle, Transient { rate: 0.05 }, 0xFA01);
        let retrying = RetryingOracle::new(&faulty, RetryPolicy::default());
        let transient = inspect(&detector, &retrying);
        let snapshot = session.finish();
        assert_eq!(transient.score, baseline.score);
        // Retries are invisible to the logical query budget.
        assert_eq!(transient.queries, baseline.queries);
        assert_eq!(
            transient.budget.prompt_queries,
            baseline.budget.prompt_queries
        );
        // ...but the absorbed hostility is fully accounted.
        assert!(transient.budget.faults_injected > 0);
        assert_eq!(transient.budget.retries, transient.budget.faults_injected);
        assert_eq!(transient.budget.retry_exhausted, 0);
        assert_eq!(transient.budget.penalized_candidates, 0);
        assert!(transient.budget.backoff_virtual_ms >= transient.budget.retries * 50);
        // Acceptance criterion: telemetry sees the retries and faults.
        assert!(snapshot.counter("oracle.retries") > 0);
        assert!(snapshot.counter("oracle.faults_injected") > 0);
        assert_eq!(snapshot.counter("oracle.retries"), transient.budget.retries);
        assert_eq!(
            snapshot.counter("oracle.faults_injected"),
            transient.budget.faults_injected
        );

        // --- Quantized responses: decision unchanged. ---
        let quantizing = FaultyOracle::new(oracle, Quantize { decimals: 2 }, 0xFA02);
        let quantized = inspect(&detector, &quantizing);
        assert_eq!(
            decide(quantized.score),
            decide(baseline.score),
            "Quantize{{2}} flipped the verdict ({} vs baseline {})",
            quantized.score,
            baseline.score
        );
        assert!(quantized.budget.degraded_responses > 0);
        assert_eq!(quantized.budget.faults_injected, 0);

        // --- Top-k truncated responses: decision unchanged. ---
        let truncating = FaultyOracle::new(oracle, TopK { k: 3 }, 0xFA03);
        let truncated = inspect(&detector, &truncating);
        assert_eq!(
            decide(truncated.score),
            decide(baseline.score),
            "TopK{{3}} flipped the verdict ({} vs baseline {})",
            truncated.score,
            baseline.score
        );
        assert!(truncated.budget.degraded_responses > 0);

        // --- Env-selected profile (exercised for real by the hostile CI
        // job, a passthrough otherwise): decision unchanged. ---
        let profiled = FaultProfile::from_env().wrap(oracle, 0xFA04, |o| inspect(&detector, o));
        assert_eq!(
            decide(profiled.score),
            decide(baseline.score),
            "env fault profile flipped the verdict ({} vs baseline {})",
            profiled.score,
            baseline.score
        );
    }
}

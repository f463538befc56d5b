//! Golden-run regression suite for the backbone scenario: the serialized
//! `DetectionReport` of a pinned pipeline — a tiny detector auditing a
//! {clean backbone, BadNets backbone} composite zoo behind the hostile
//! retry → fault stack — is checked in for three seeds. The fixtures pin
//! every stage the scenario adds on top of the monolithic pipeline:
//! backbone pretraining (clean and poisoned), frozen-model prompt
//! adaptation, label-map translation, the composite's query accounting,
//! the `scenario: backbone` stamp, the clean-downstream-training
//! attestation, and any `B013` findings the rule engine derives from it.
//!
//! Regenerate fixtures after an *intentional* behavior change with:
//!
//! ```text
//! BPROM_BLESS=1 cargo test --test golden_backbone
//! ```
//!
//! As in `golden_report`, the runs hard-pin `CacheConfig::unbounded()`
//! and `OracleRegime::FullScores` so the CI matrix legs (`BPROM_QCACHE`,
//! `BPROM_ORACLE_REGIME`) cannot drift the pinned numbers; thread count
//! is already report-invariant.

mod common;

use bprom_suite::attacks::AttackKind;
use bprom_suite::bprom::{
    evaluate_zoo, Bprom, BpromConfig, CacheConfig, DetectionReport, OracleRegime, Scenario,
};
use bprom_suite::data::SynthDataset;
use bprom_suite::faults::FaultProfile;
use bprom_suite::nn::TrainConfig;
use bprom_suite::scenarios::{backbone_entries, build_backbone_zoo, BackboneScenarioConfig};
use bprom_suite::tensor::Rng;
use bprom_suite::vp::PromptTrainConfig;
use std::path::PathBuf;

fn fixture_path(seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(format!("golden_backbone_seed_{seed}.json"))
}

/// The pinned pipeline: fit a tiny detector, build a two-composite
/// backbone zoo (one clean backbone, one BadNets-poisoned backbone, each
/// prompt-adapted downstream on clean data), and evaluate it behind the
/// hostile retry → fault stack. Everything derives from `seed`;
/// wall-clock is the only field zeroed.
fn golden_report(seed: u64) -> DetectionReport {
    let mut rng = Rng::new(seed);
    let mut config = BpromConfig::fast(SynthDataset::Cifar10, SynthDataset::Stl10);
    config.clean_shadows = 2;
    config.backdoor_shadows = 2;
    config.test_samples_per_class = 20;
    config.target_samples_per_class = 10;
    config.train = TrainConfig {
        epochs: 2,
        ..TrainConfig::default()
    };
    config.prompt = PromptTrainConfig {
        epochs: 2,
        cmaes_generations: 4,
        cmaes_population: 6,
        ..PromptTrainConfig::default()
    };
    config.cache = CacheConfig::unbounded();
    config.regime = OracleRegime::FullScores;
    let detector = Bprom::fit(&config, &mut rng).unwrap();

    let mut zoo_cfg = BackboneScenarioConfig::new(
        SynthDataset::Cifar10,
        SynthDataset::Stl10,
        AttackKind::BadNets,
    );
    zoo_cfg.clean = 1;
    zoo_cfg.backdoored = 1;
    zoo_cfg.samples_per_class = 30;
    zoo_cfg.downstream_samples_per_class = 10;
    zoo_cfg.prompt = PromptTrainConfig {
        epochs: 2,
        ..PromptTrainConfig::default()
    };
    let zoo = build_backbone_zoo(&zoo_cfg, &mut rng).unwrap();

    let mut report = evaluate_zoo(
        &detector,
        Scenario::Backbone,
        backbone_entries(zoo),
        &mut rng,
        |detector, oracle, rng, _| {
            FaultProfile::Hostile.wrap(&oracle, 0xFA17, |o| detector.inspect(o, rng))
        },
    )
    .unwrap();
    report.mean_inspect_ms = 0.0;
    report
}

fn assert_matches_fixture(seed: u64) {
    let got = golden_report(seed).to_json().unwrap();
    let what = format!("backbone detection report for seed {seed}");
    common::assert_golden(&fixture_path(seed), &got, &what);
}

#[test]
fn golden_backbone_seed_42() {
    assert_matches_fixture(42);
}

#[test]
fn golden_backbone_seed_1337() {
    assert_matches_fixture(1337);
}

#[test]
fn golden_backbone_seed_2024() {
    assert_matches_fixture(2024);
}

/// The committed fixtures are well-formed backbone-scenario reports —
/// scenario stamp, attestation and per-audit records included — and the
/// comparison really is bit-for-bit: perturbing a single character of a
/// fixture is flagged with a line-level diff.
#[test]
fn fixtures_parse_and_one_bit_drift_is_detected() {
    for seed in [42u64, 1337, 2024] {
        let path = fixture_path(seed);
        let want = common::read_fixture(&path);
        let report = DetectionReport::from_json(&want).unwrap();
        assert_eq!(report.scenario, "backbone");
        assert_eq!(report.scores.len(), 2);
        assert_eq!(report.labels.iter().filter(|&&b| b).count(), 1);
        assert!(report.total_queries > 0);
        assert!(report.total_faults > 0, "hostile stack must inject faults");
        assert_eq!(report.audits.len(), 2);
        for audit in &report.audits {
            assert_eq!(audit.scenario, "backbone");
            assert!(
                audit.signals.clean_downstream_training,
                "every backbone audit must carry the clean-downstream \
                 attestation B013 keys on"
            );
            // B013 only ever fires with the attestation present; when the
            // pinned run derives it, the fixture locks that decision too.
            for finding in &audit.findings {
                if finding.rule.code() == "B013" {
                    assert!(finding.rule.is_backdoor_evidence());
                }
            }
        }

        let pos = want
            .find(|c: char| c.is_ascii_digit())
            .expect("fixture contains numbers");
        let mut bytes = want.clone().into_bytes();
        let old = bytes[pos];
        bytes[pos] = if old == b'9' { b'8' } else { old + 1 };
        let perturbed = String::from_utf8(bytes).unwrap();
        let diff = common::diff_lines(&want, &perturbed).expect("perturbation must be detected");
        assert!(diff.contains("line "));
    }
}

//! End-to-end contract of the declared oracle regimes (`bprom-regimes`):
//! an audit of a constrained endpoint — top-k truncated or label-only —
//! still runs the full BPROM pipeline, records its regime on every audit
//! record and incident, and stays deterministic enough to pin as a
//! golden fixture.
//!
//! The label-only leg is the hardest regime (no soft score ever reaches
//! the detector: CMA-ES runs on miss-rate fitness, the meta-forest on
//! vote-count features), so its full `DetectionReport` is pinned as a
//! checked-in fixture. Regenerate after an *intentional* behavior change
//! with:
//!
//! ```text
//! BPROM_BLESS=1 cargo test --test regimes
//! ```

mod common;

use bprom_suite::attacks::AttackKind;
use bprom_suite::bprom::{
    build_suspicious_zoo, evaluate_detector, Bprom, BpromConfig, CacheConfig, DetectionReport,
    OracleRegime, ZooConfig,
};
use bprom_suite::data::SynthDataset;
use bprom_suite::nn::TrainConfig;
use bprom_suite::tensor::Rng;
use bprom_suite::verdict::{validate_incident, Mode, RulePolicy};
use bprom_suite::vp::PromptTrainConfig;
use std::path::PathBuf;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join("golden_label_only_seed_42.json")
}

/// One pinned audit at golden-fixture scale under the given regime: a
/// tiny detector fitted for that regime inspects a {clean, BadNets} zoo
/// through plain oracles. Cache and regime are pinned in the config so
/// the run is immune to the CI matrix's env overrides.
fn regime_report(regime: OracleRegime) -> DetectionReport {
    let mut rng = Rng::new(42);
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
    config.regime = regime;
    let detector = Bprom::fit(&config, &mut rng).unwrap();

    let mut zoo_cfg = ZooConfig::new(SynthDataset::Cifar10, AttackKind::BadNets);
    zoo_cfg.clean = 1;
    zoo_cfg.backdoored = 1;
    zoo_cfg.samples_per_class = 20;
    zoo_cfg.train = TrainConfig {
        epochs: 2,
        ..TrainConfig::default()
    };
    let zoo = build_suspicious_zoo(&zoo_cfg, &mut rng).unwrap();
    let mut report = evaluate_detector(&detector, zoo, &mut rng).unwrap();
    report.mean_inspect_ms = 0.0;
    report
}

/// Every audit of a degraded-regime run records the regime on its audit
/// record, and the incident report it rolls into is schema-valid and
/// carries the regime on the model incident.
fn assert_regime_recorded(regime: OracleRegime, report: &DetectionReport) {
    assert_eq!(report.audits.len(), 2);
    for audit in &report.audits {
        assert_eq!(audit.regime, regime.as_wire());
    }
    let incident = report.incident("regimes-test", &RulePolicy::default(), Mode::Learning);
    let text = incident.to_json_string();
    let doc = bprom_suite::obs::json::Value::parse(&text).unwrap();
    validate_incident(&doc)
        .unwrap_or_else(|errs| panic!("{regime} incident failed schema validation: {errs:?}"));
    for model in &incident.incidents {
        assert_eq!(model.regimes, vec![regime.as_wire()]);
    }
}

/// The label-only pipeline end to end, pinned byte-for-byte: miss-rate
/// CMA-ES fitness, vote-count meta-features, and a per-regime forest,
/// with the full report (scores, budgets, per-audit findings) compared
/// against the checked-in fixture.
#[test]
fn label_only_golden_fixture() {
    let report = regime_report(OracleRegime::LabelOnly);
    assert_regime_recorded(OracleRegime::LabelOnly, &report);
    assert!(report.total_queries > 0);

    let got = report.to_json().unwrap();
    common::assert_golden(&fixture_path(), &got, "label-only detection report");
}

/// The committed fixture parses back through the typed API and really is
/// a label-only run: two audits, regime recorded, non-trivial spend.
#[test]
fn label_only_fixture_parses_and_records_regime() {
    let path = fixture_path();
    let want = common::read_fixture(&path);
    let report = DetectionReport::from_json(&want).unwrap();
    assert_eq!(report.scores.len(), 2);
    assert_eq!(report.audits.len(), 2);
    assert!(report.total_queries > 0);
    for audit in &report.audits {
        assert_eq!(audit.regime, "label_only");
    }
}

/// Top-k truncation end to end: the renormalized feature path produces a
/// schema-valid incident with the regime recorded.
#[test]
fn top_k_audit_records_regime_in_schema_valid_incident() {
    let report = regime_report(OracleRegime::TopK(3));
    assert_regime_recorded(OracleRegime::TopK(3), &report);
}

/// A fleet can mix regimes: audits collected under different regimes
/// correlate into one incident per model with every distinct regime
/// recorded in first-seen order.
#[test]
fn mixed_regime_fleet_collects_distinct_regimes() {
    use bprom_suite::verdict::{Signals, VerdictPipeline};
    let mut pipeline = VerdictPipeline::new("mixed", RulePolicy::default(), Mode::Learning);
    pipeline.collect_in_regime("mA", "full", Signals::default());
    pipeline.collect_in_regime("mA", "label_only", Signals::default());
    pipeline.collect_in_regime("mA", "full", Signals::default());
    let report = pipeline.report();
    assert_eq!(report.incidents.len(), 1);
    assert_eq!(report.incidents[0].regimes, vec!["full", "label_only"]);
    let doc = bprom_suite::obs::json::Value::parse(&report.to_json_string()).unwrap();
    validate_incident(&doc).unwrap();
}

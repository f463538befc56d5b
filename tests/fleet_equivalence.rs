//! Fleet-equivalence contract of the audit engine (`bprom-audit`): with
//! cache sharing off, a fleet audit of N requests is **byte-identical**
//! to N independent single-model runs of the same (model, spec, seed)
//! triples — same signals, same findings, same `incident.json` bytes —
//! at any thread count, any cache mode, hostile oracle stacks included.
//! The registry may only change *when* shadow training is paid, never
//! what any audit concludes.
//!
//! Tier 1 runs one fast leg (default threads, unbounded cache, plain
//! oracle). The full thread count × cache mode × oracle-hostility matrix
//! is `#[ignore]`d and run by the tier-2 CI job
//! (`cargo test -q --workspace -- --ignored`).

use bprom_suite::attacks::AttackKind;
use bprom_suite::audit::{AuditEngine, AuditRequest, DetectorSpec, FleetReport, ShadowZooRegistry};
use bprom_suite::bprom::{
    build_suspicious_zoo, Bprom, BpromConfig, CacheConfig, Scenario, Verdict, ZooConfig,
};
use bprom_suite::data::SynthDataset;
use bprom_suite::faults::FaultProfile;
use bprom_suite::nn::TrainConfig;
use bprom_suite::par;
use bprom_suite::qcache::CachingOracle;
use bprom_suite::tensor::Rng;
use bprom_suite::verdict::{AuditRecord, IncidentReport, Mode, RulePolicy};
use bprom_suite::vp::{PromptTrainConfig, QueryOracle};
use std::sync::Mutex;

/// Serializes the tier-2 matrix with any other test that flips the
/// process-global worker-pool size.
static THREAD_KNOB: Mutex<()> = Mutex::new(());

const FIT_SEED: u64 = 7;
const ZOO_SEED: u64 = 99;
const FLEET_LABEL: &str = "fleet-equivalence";

fn tiny_config(cache: CacheConfig) -> BpromConfig {
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
        cmaes_generations: 3,
        cmaes_population: 4,
        ..PromptTrainConfig::default()
    };
    config.cache = cache;
    config
}

/// The fleet's suspicious models: one clean + one backdoored, trained
/// deterministically from `ZOO_SEED` so every rebuild is bit-identical.
fn marketplace() -> Vec<bprom_suite::bprom::SuspiciousModel> {
    let mut zoo_cfg = ZooConfig::new(SynthDataset::Cifar10, AttackKind::BadNets);
    zoo_cfg.clean = 1;
    zoo_cfg.backdoored = 1;
    zoo_cfg.samples_per_class = 20;
    zoo_cfg.train = TrainConfig {
        epochs: 2,
        ..TrainConfig::default()
    };
    build_suspicious_zoo(&zoo_cfg, &mut Rng::new(ZOO_SEED)).unwrap()
}

/// The audit queue: both marketplace models, plus a *repeat* upload of
/// the first one (same weights, same inspection seed) so the incident
/// report exercises fingerprint correlation.
fn queue(config: &BpromConfig) -> Vec<AuditRequest> {
    let spec = DetectorSpec::new(config.clone(), FIT_SEED);
    let mut models = marketplace();
    let repeat = marketplace().remove(0);
    let second = models.remove(1);
    let first = models.remove(0);
    vec![
        AuditRequest::from_suspicious("m0", first, 10, spec.clone(), 11),
        AuditRequest::from_suspicious("m1", second, 10, spec.clone(), 12),
        AuditRequest::from_suspicious("m0-repeat", repeat, 10, spec, 11),
    ]
}

/// The inspection path both sides of the comparison share: plain, or a
/// hostile retry → faults stack over the sealed cached oracle.
fn inspect(
    hostile: bool,
    detector: &Bprom,
    oracle: &CachingOracle<QueryOracle>,
    rng: &mut Rng,
) -> bprom_suite::bprom::Result<Verdict> {
    let profile = if hostile {
        FaultProfile::Hostile
    } else {
        FaultProfile::Off
    };
    profile.wrap(oracle, 0xFA17, |o| detector.inspect(o, rng))
}

/// N independent single-model runs: no engine, no registry — each audit
/// seals its own fresh cached oracle and consumes its own freshly seeded
/// RNG, exactly as a standalone inspection would. The detector fit is
/// shared only because fitting is deterministic per (config, seed); a
/// per-run refit would produce bit-identical weights.
fn independent_runs(config: &BpromConfig, hostile: bool) -> (Vec<AuditRecord>, IncidentReport) {
    let detector = Bprom::fit(config, &mut Rng::new(FIT_SEED)).unwrap();
    let policy = RulePolicy::default();
    let mut records = Vec::new();
    for request in queue(config) {
        let fingerprint = bprom_suite::bprom::model_fingerprint(&request.model);
        let oracle = CachingOracle::new(
            QueryOracle::new(request.model, request.num_classes),
            config.cache,
        );
        let verdict = inspect(
            hostile,
            &detector,
            &oracle,
            &mut Rng::new(request.inspect_seed),
        )
        .unwrap();
        records.push(detector.audit_record(fingerprint, Scenario::Downstream, &verdict, &policy));
    }
    let incident = IncidentReport::assemble(FLEET_LABEL, &policy, Mode::Strict, &records);
    (records, incident)
}

/// One fleet run through the engine (fresh in-memory registry, cache
/// sharing off) under the currently installed thread count.
fn fleet_run(config: &BpromConfig, hostile: bool) -> FleetReport {
    let engine = AuditEngine::new(FLEET_LABEL, ShadowZooRegistry::in_memory());
    engine
        .run_with(queue(config), |detector, oracle, rng| {
            inspect(hostile, detector, oracle, rng)
        })
        .unwrap()
}

fn assert_fleet_matches(
    fleet: &FleetReport,
    records: &[AuditRecord],
    incident: &IncidentReport,
    context: &str,
) {
    assert_eq!(fleet.outcomes.len(), records.len(), "{context}");
    for (outcome, record) in fleet.outcomes.iter().zip(records) {
        // Byte-identical per audit: fingerprint, every signal (cache
        // tallies included — sharing is off, so each audit sealed a
        // fresh cache just like the independent run), every finding.
        assert_eq!(&outcome.record, record, "{context}");
    }
    assert_eq!(
        fleet.incident.to_json_string(),
        incident.to_json_string(),
        "{context}: incident.json must be byte-identical"
    );
    // One fit served the whole fleet.
    assert_eq!(fleet.registry.builds, 1, "{context}");
    assert_eq!(fleet.registry.mem_hits, 2, "{context}");
}

/// Tier-1 fast leg: default thread count, unbounded cache, plain oracle.
#[test]
fn fleet_matches_independent_runs() {
    let config = tiny_config(CacheConfig::unbounded());
    let (records, incident) = independent_runs(&config, false);
    let fleet = fleet_run(&config, false);
    assert_fleet_matches(&fleet, &records, &incident, "tier-1 leg");

    // The repeat audit correlated: two audits of one fingerprint.
    assert_eq!(fleet.incident.audits, 3);
    assert_eq!(fleet.incident.incidents.len(), 2);
    assert_eq!(fleet.incident.incidents[0].audits, 2);
}

/// Tier-2: threads {1, 4} × cache {off, unbounded} × {plain, hostile} —
/// every fleet run byte-identical to the independent baseline of its
/// cache/hostility cell, independent of the thread count.
#[test]
#[ignore = "tier-2 fleet matrix (8 full runs); CI runs it via -- --ignored"]
fn full_matrix_is_byte_identical() {
    let _guard = THREAD_KNOB.lock().unwrap_or_else(|e| e.into_inner());
    for hostile in [false, true] {
        for cache in [CacheConfig::off(), CacheConfig::unbounded()] {
            let config = tiny_config(cache);
            let (records, incident) = independent_runs(&config, hostile);
            for threads in [1usize, 4] {
                par::set_thread_count(threads);
                let fleet = fleet_run(&config, hostile);
                par::set_thread_count(0);
                assert_fleet_matches(
                    &fleet,
                    &records,
                    &incident,
                    &format!("hostile={hostile} cache={cache:?} threads={threads}"),
                );
                if hostile {
                    let faults: u64 = fleet
                        .outcomes
                        .iter()
                        .map(|o| o.record.signals.faults_injected)
                        .sum();
                    assert!(faults > 0, "hostile stack must actually inject");
                }
            }
        }
    }
}

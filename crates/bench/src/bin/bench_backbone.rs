//! Backbone-scenario shootout: BPROM vs a gradient-free trigger-inversion
//! baseline at identical query budgets, on a zoo of prompted-backbone
//! composites (clean and BadNets-poisoned backbones adapted downstream on
//! clean data — the BadBone threat model).
//!
//! Both detectors audit the *same* deterministic zoo under the *same*
//! per-model query budget (images submitted): BPROM's bill comes from its
//! `InspectBudget`, and the inversion baseline's CMA-ES search is capped
//! at BPROM's mean per-model spend through its exact generation-granular
//! budget fence. Results land in `BENCH_backbone.json`; CI gates
//! `bprom.auroc >= inversion.auroc - 0.05` at equal budgets, which this
//! binary also asserts in-process.
//!
//! `BPROM_QUICK=1` shrinks shadow/zoo counts as everywhere else.

use bprom::{evaluate_zoo, Bprom, Scenario};
use bprom_attacks::AttackKind;
use bprom_bench::{detector_config, header, quick, row, TelemetryGuard};
use bprom_data::SynthDataset;
use bprom_defenses::trigger_inversion::{invert_trigger, TriggerInversionConfig};
use bprom_metrics::auroc;
use bprom_obs::{ToJson, Value};
use bprom_scenarios::{backbone_entries, build_backbone_zoo, BackboneScenarioConfig};
use bprom_tensor::Rng;
use bprom_vp::{BlackBoxModel, PromptTrainConfig};

const ZOO_SEED: u64 = 42;

/// Bench-scale backbone-scenario zoo (paper scale would be 30 + 30).
fn backbone_zoo_config() -> BackboneScenarioConfig {
    let mut cfg = BackboneScenarioConfig::new(
        SynthDataset::Cifar10,
        SynthDataset::Stl10,
        AttackKind::BadNets,
    );
    let n = if quick() { 3 } else { 5 };
    cfg.clean = n;
    cfg.backdoored = n;
    cfg.samples_per_class = 30;
    cfg.downstream_samples_per_class = 20;
    cfg.prompt = PromptTrainConfig {
        epochs: 5,
        ..PromptTrainConfig::default()
    };
    cfg
}

fn main() {
    let _telemetry = TelemetryGuard::begin("bench_backbone");

    // --- BPROM leg -------------------------------------------------------
    let mut rng = Rng::new(ZOO_SEED);
    let cfg = detector_config(SynthDataset::Cifar10, SynthDataset::Stl10);
    let detector = Bprom::fit(&cfg, &mut rng).expect("detector fit");
    // Both legs audit a bit-identical zoo: clone the stream position and
    // rebuild the zoo for the inversion leg instead of sharing (the BPROM
    // evaluation consumes its copy).
    let zoo_rng = rng.clone();
    let zoo = build_backbone_zoo(&backbone_zoo_config(), &mut rng).expect("backbone zoo");
    let labels: Vec<bool> = zoo.iter().map(|s| s.backdoored).collect();
    let report = evaluate_zoo(
        &detector,
        Scenario::Backbone,
        backbone_entries(zoo),
        &mut rng,
        |detector, oracle, rng, _| detector.inspect(&oracle, rng),
    )
    .expect("bprom eval");
    let b013_audits = report
        .audits
        .iter()
        .filter(|a| a.findings.iter().any(|f| f.rule.code() == "B013"))
        .count();
    assert_eq!(report.scenario, "backbone");
    assert!(
        report
            .audits
            .iter()
            .all(|a| a.scenario == "backbone" && a.signals.clean_downstream_training),
        "backbone evaluation must attest clean downstream training"
    );

    // --- Trigger-inversion leg at the same per-model budget --------------
    // The zoo is rebuilt bit-identically from the cloned stream position,
    // then each composite gets exactly BPROM's mean per-model image
    // budget, split evenly across candidate target classes with the exact
    // budget fence as a backstop.
    let mut rng = zoo_rng;
    let zoo = build_backbone_zoo(&backbone_zoo_config(), &mut rng).expect("backbone zoo");
    let probes = SynthDataset::Stl10
        .generate(1, backbone_zoo_config().downstream_size, 7)
        .expect("probe batch")
        .images;
    let n_probes = probes.shape()[0];
    let budget = report.mean_queries as u64;
    let base = TriggerInversionConfig::default();
    let per_generation = (base.population * n_probes) as u64;
    let num_classes = SynthDataset::Stl10.num_classes();
    let inversion_cfg = TriggerInversionConfig {
        generations: ((budget / (num_classes as u64 * per_generation)).max(1)) as usize,
        query_budget: Some(budget),
        ..base
    };
    let mut scores = Vec::with_capacity(zoo.len());
    let mut inversion_queries = 0u64;
    let mut exhausted = 0u64;
    for system in &zoo {
        let oracle: &dyn BlackBoxModel = &system.system;
        let inv = invert_trigger(oracle, &probes, &inversion_cfg, &mut Rng::new(11))
            .expect("trigger inversion");
        assert!(
            inv.queries <= budget,
            "inversion exceeded the shared budget"
        );
        inversion_queries += inv.queries;
        exhausted += u64::from(inv.budget_exhausted);
        scores.push(inv.anomaly);
    }
    let inversion_auroc = auroc(&scores, &labels).expect("inversion auroc");

    header(
        "Backbone shootout (BadNets backbones, equal query budgets)",
        &["detector", "auroc", "mean_queries", "budget"],
    );
    row("bprom", &[report.auroc, report.mean_queries, budget as f32]);
    row(
        "inversion",
        &[
            inversion_auroc,
            inversion_queries as f32 / zoo.len() as f32,
            budget as f32,
        ],
    );
    println!(
        "\nB013 (backbone-implanted backdoor suspected) raised on {b013_audits} of {} audits",
        report.audits.len()
    );

    // The CI gate, asserted in-process too: at identical query budgets
    // BPROM must not trail the inversion baseline by more than 0.05 AUROC.
    assert!(
        report.auroc >= inversion_auroc - 0.05,
        "BPROM AUROC {} trails inversion {} by more than 0.05 at equal budgets",
        report.auroc,
        inversion_auroc
    );

    let json = Value::object(vec![
        ("quick", quick().to_json()),
        ("query_budget_per_model", budget.to_json()),
        (
            "bprom",
            Value::object(vec![
                ("auroc", report.auroc.to_json()),
                ("f1", report.f1.to_json()),
                ("mean_queries", report.mean_queries.to_json()),
                ("total_queries", report.total_queries.to_json()),
                ("b013_audits", (b013_audits as u64).to_json()),
                ("audits", (report.audits.len() as u64).to_json()),
            ]),
        ),
        (
            "inversion",
            Value::object(vec![
                ("auroc", inversion_auroc.to_json()),
                (
                    "mean_queries",
                    (inversion_queries as f32 / labels.len() as f32).to_json(),
                ),
                (
                    "generations_per_class",
                    (inversion_cfg.generations as u64).to_json(),
                ),
                ("budget_exhausted_models", exhausted.to_json()),
            ]),
        ),
        ("auroc_gap", (report.auroc - inversion_auroc).to_json()),
    ])
    .to_pretty();
    match std::fs::write("BENCH_backbone.json", &json) {
        Ok(()) => println!("written -> BENCH_backbone.json"),
        Err(e) => eprintln!("BENCH_backbone.json write failed: {e}"),
    }
}

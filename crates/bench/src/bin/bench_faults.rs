//! Fault-injection overhead benchmark: times CMA-ES prompt learning
//! against a bare oracle and against the same oracle behind the hostile
//! stack (`FaultyOracle` + `RetryingOracle`), and writes
//! `BENCH_faults.json` with the wall-clock numbers, the decorator
//! overhead, and the fault/retry/virtual-backoff totals.
//!
//! The retry clock is virtual, so the measured overhead is pure
//! bookkeeping (content hashing, fault draws, re-issued queries) — a real
//! client would additionally sleep `backoff_virtual_ms` of wall time.

use bprom_bench::{header, quick, row};
use bprom_data::SynthDataset;
use bprom_faults::FaultProfile;
use bprom_nn::models::{mlp, ModelSpec};
use bprom_obs::{ToJson, Value};
use bprom_tensor::Rng;
use bprom_vp::{
    train_prompt_cmaes, BlackBoxModel, LabelMap, OracleStats, PromptTrainConfig, QueryOracle,
    VisualPrompt,
};
use std::time::Instant;

fn cmaes_config() -> PromptTrainConfig {
    PromptTrainConfig {
        cmaes_generations: if quick() { 10 } else { 25 },
        cmaes_population: 12,
        ..PromptTrainConfig::default()
    }
}

/// One full CMA-ES prompt-learning run against `oracle`; returns the
/// wall-clock seconds and the oracle stack's fault accounting.
fn time_cmaes(oracle: &dyn BlackBoxModel) -> (f64, OracleStats) {
    let mut rng = Rng::new(200);
    let target = SynthDataset::Stl10.generate(10, 16, 9).expect("dataset");
    let map = LabelMap::identity(10, 10).expect("map");
    let mut prompt = VisualPrompt::random(3, 16, 4, &mut rng).expect("prompt");
    let before = oracle.oracle_stats();
    let t0 = Instant::now();
    train_prompt_cmaes(
        oracle,
        &mut prompt,
        &target.images,
        &target.labels,
        &map,
        &cmaes_config(),
        &mut rng,
    )
    .expect("cmaes");
    (
        t0.elapsed().as_secs_f64(),
        oracle.oracle_stats().delta_since(&before),
    )
}

fn oracle() -> QueryOracle {
    let mut rng = Rng::new(100);
    let model = mlp(&ModelSpec::new(3, 16, 10), &mut rng).expect("model");
    QueryOracle::new(model, 10)
}

fn main() {
    header(
        "bprom-faults decorator overhead (CMA-ES prompt learning)",
        &["stack", "secs", "faults", "retries", "backoff_ms"],
    );

    let bare_oracle = oracle();
    let (bare_secs, bare_stats) = time_cmaes(&bare_oracle);
    row("bare", &[bare_secs as f32, 0.0, 0.0, 0.0]);
    assert_eq!(bare_stats, OracleStats::default());

    let inner = oracle();
    let (hostile_secs, stats) = FaultProfile::Hostile.wrap(&inner, 0xBE7C, time_cmaes);
    row(
        "hostile",
        &[
            hostile_secs as f32,
            stats.faults_injected as f32,
            stats.retries as f32,
            stats.backoff_virtual_ms as f32,
        ],
    );

    let overhead = hostile_secs / bare_secs.max(1e-9) - 1.0;
    println!("\nhostile-stack overhead: {:.1} %", overhead * 100.0);

    let json = Value::object(vec![
        ("bare_s", bare_secs.to_json()),
        ("hostile_s", hostile_secs.to_json()),
        ("overhead_frac", overhead.to_json()),
        ("faults_injected", stats.faults_injected.to_json()),
        ("degraded_responses", stats.degraded_responses.to_json()),
        ("retries", stats.retries.to_json()),
        ("retry_exhausted", stats.retry_exhausted.to_json()),
        ("backoff_virtual_ms", stats.backoff_virtual_ms.to_json()),
    ])
    .to_pretty();
    match std::fs::write("BENCH_faults.json", &json) {
        Ok(()) => println!("written -> BENCH_faults.json"),
        Err(e) => eprintln!("BENCH_faults.json write failed: {e}"),
    }
}

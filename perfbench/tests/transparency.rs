//! The timing wrapper must be invisible to the program: every trait
//! method forwards, so an inspection through a stack with wrappers at
//! every height reaches the same `Signals` — cache and fault tallies
//! included — as one through the bare stack.

use bprom::{Bprom, BpromConfig};
use bprom_ckpt::{Decoder, Encoder};
use bprom_data::SynthDataset;
use bprom_faults::{FaultProfile, FaultyOracle, RetryingOracle, Transient};
use bprom_nn::models::{build, Architecture, ModelSpec};
use bprom_nn::{Sequential, TrainConfig};
use bprom_perfbench::trace::{TimedOracle, Tracer};
use bprom_qcache::{CacheConfig, CachingOracle};
use bprom_tensor::{Rng, Tensor};
use bprom_vp::{BlackBoxModel, PromptTrainConfig, QueryOracle};

fn tiny_config() -> BpromConfig {
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
    config.cache = CacheConfig::unbounded();
    config
}

fn model(config: &BpromConfig) -> Sequential {
    let spec = ModelSpec::new(3, config.image_size, 10);
    build(Architecture::ResNetMini, &spec, &mut Rng::new(5)).expect("model")
}

#[test]
fn inspection_through_timing_wrappers_is_unchanged() {
    let config = tiny_config();
    let detector = Bprom::fit(&config, &mut Rng::new(3)).expect("fit");
    let profile = FaultProfile::Hostile;
    let (inspect_seed, fault_seed) = (11, 12);

    let bare_cache = CachingOracle::new(QueryOracle::new(model(&config), 10), config.cache);
    let faulty = FaultyOracle::new(&bare_cache, profile.plan(), fault_seed);
    let retrying = RetryingOracle::new(&faulty, profile.retry_policy());
    let bare = detector
        .inspect(&retrying, &mut Rng::new(inspect_seed))
        .expect("bare inspection");

    let tracer = Tracer::new();
    let below = TimedOracle::new(
        QueryOracle::new(model(&config), 10),
        "below",
        1,
        None,
        &tracer,
    );
    let timed_cache = CachingOracle::new(below, config.cache);
    let above = TimedOracle::new(&timed_cache, "above", 1, None, &tracer);
    let faulty = FaultyOracle::new(&above, profile.plan(), fault_seed);
    let retrying = RetryingOracle::new(&faulty, profile.retry_policy());
    let top = TimedOracle::new(&retrying, "top", 1, None, &tracer);
    let timed = detector
        .inspect(&top, &mut Rng::new(inspect_seed))
        .expect("timed inspection");

    let signals = timed.signals();
    assert_eq!(signals, bare.signals());
    assert!(
        signals.faults_injected > 0,
        "the hostile plan injected faults"
    );
    assert!(
        signals.retries > 0,
        "retries were tallied through the wrapper"
    );
    assert!(
        signals.cache_misses > 0 && signals.cache_hits > 0,
        "cache tallies reached the top"
    );
    // Every wrapper saw traffic and recorded one span per call.
    let spans = tracer.spans();
    for wrapper in [timed_cache.inner().tally(), above.tally(), top.tally()] {
        assert!(wrapper.calls() > 0 && wrapper.rows() > 0 && wrapper.busy_ns() > 0);
    }
    let count = |name: &str| spans.iter().filter(|s| s.name == name).count() as u64;
    assert_eq!(count("top"), top.tally().calls());
    assert_eq!(count("below"), timed_cache.inner().tally().calls());
    // The provider billed the same rows either way.
    assert_eq!(
        timed_cache.inner().queries_used(),
        bare_cache.inner().queries_used()
    );
}

#[test]
fn every_trait_method_forwards() {
    let config = tiny_config();
    let tracer = Tracer::new();
    let cache = CachingOracle::new(QueryOracle::new(model(&config), 10), config.cache);
    let timed = TimedOracle::new(&cache, "cache", 0, None, &tracer);
    let batch = Tensor::rand_uniform(&[3, 3, 16, 16], 0.0, 1.0, &mut Rng::new(9));

    assert_eq!(timed.num_classes(), 10);
    let probs = timed.query(&batch).expect("query");
    let again = timed
        .try_query_batch(&batch)
        .expect("hard error")
        .expect("no fault");
    assert_eq!(probs, again);
    assert_eq!(timed.queries_used(), cache.queries_used());
    assert_eq!(timed.oracle_stats(), cache.oracle_stats());
    assert_eq!(timed.oracle_stats().cache_hits, 3);

    // Cache export and import reach the cache beneath the wrapper.
    let mut via_wrapper = Encoder::new();
    let mut direct = Encoder::new();
    assert!(timed.export_cache(&mut via_wrapper));
    assert!(cache.export_cache(&mut direct));
    let bytes = via_wrapper.into_bytes();
    assert_eq!(bytes, direct.into_bytes());
    let fresh = CachingOracle::new(QueryOracle::new(model(&config), 10), config.cache);
    let fresh_timed = TimedOracle::new(&fresh, "fresh", 0, None, &tracer);
    fresh_timed
        .import_cache(&mut Decoder::new(&bytes))
        .expect("import");
    assert_eq!(fresh.entry_count(), cache.entry_count());

    // In-band faults pass through untouched.
    let always = FaultyOracle::new(&cache, Transient { rate: 1.0 }, 1);
    let timed_faulty = TimedOracle::new(&always, "faulty", 0, None, &tracer);
    assert!(timed_faulty
        .try_query_batch(&batch)
        .expect("no hard error")
        .is_err());
    assert_eq!(timed_faulty.oracle_stats(), always.oracle_stats());
    assert_eq!(timed_faulty.oracle_stats().faults_injected, 1);
}

//! The two workloads and the metrics they report.
//!
//! Every workload is closed-loop and runs in one process on the
//! `bprom-par` pool: the auditor is a batch tool, so each reports work
//! per second at a stated size, not latency under an arrival rate.
//! Every run sets up [`SETUPS`] times (the fleet and the detector fit,
//! through [`ShadowZooRegistry::detector`]) and keeps the last set-up.
//!
//! - `screen`: a cold fleet screen. Set-up fits the detector into the
//!   registry; timed rounds of [`AuditEngine::run`] audit every fleet
//!   model under fresh inspection seeds, each audit behind its own cache
//!   with the program's default policy.
//! - `rescreen_hostile`: a periodic re-screen behind a hostile endpoint.
//!   Set-up audits every (model, seed) once into a per-model unbounded
//!   cache; timed rounds re-audit them through retry ∘ faults ∘ cache.

use crate::host;
use crate::report::Report;
use crate::scenario::{detector_digest, detector_spec, inspect_seed, mix, Fleet, FIT_SEED};
use crate::stats::{median, summarize};
use crate::trace::{covered_ns, Tally, TimedOracle, Tracer};
use bprom::meta_model::{train_meta, ProbeSet};
use bprom::prompting::prompt_shadows;
use bprom::Signals;
use bprom::{Bprom, BpromConfig, ShadowSet, Verdict};
use bprom_audit::{AuditEngine, AuditRequest, DetectorSpec, ShadowZooRegistry};
use bprom_faults::{FaultProfile, FaultyOracle, RetryingOracle};
use bprom_qcache::{CacheConfig, CachingOracle};
use bprom_tensor::Rng;
use bprom_vp::{BlackBoxModel, LabelMap, QueryOracle};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Shadows per kind (clean, backdoored) of the detector every workload
/// fits in set-up. Inspection cost does not depend on it.
pub const AUDIT_SHADOWS: usize = 4;
/// Set-ups of an untraced run: `setup_s` is their median and `fit_s` the
/// median of their fits. The traced run, which reports neither, sets up
/// once.
pub const SETUPS: usize = 2;
/// Inspection seeds per fleet model in one `screen` round.
pub const SCREEN_SEEDS: usize = 6;
/// Inspection seeds per fleet model the traced run replays.
const REPLAY_SEEDS: usize = 2;
/// Inspection seeds per fleet model in `rescreen_hostile`.
pub const RESCREEN_SEEDS: usize = 5;

/// Nominal wall-clock of one timed round of each workload on the 2-core
/// host the benchmark was calibrated on: a 24-audit engine run, a 20-audit
/// warm re-screen. A run does `max(1, floor(seconds / nominal))` rounds,
/// so every run with the same `--seconds` does the same work however fast
/// the program is, and measures for about `--seconds` on that host.
const SCREEN_ROUND_S: f64 = 10.0;
const RESCREEN_ROUND_S: f64 = 4.0;

/// Salt separating fault-plan seeds from inspection seeds.
const FAULT_SALT: u64 = 0xFA17_5EED;
/// Span name of the wrapper directly above the provider.
const BELOW_CACHE: &str = "oracle.below_cache";
/// Span name of the wrapper directly above the cache.
const ABOVE_CACHE: &str = "oracle.above_cache";
/// Span name of the wrapper above retry (hostile stack only).
const ABOVE_RETRY: &str = "oracle.above_retry";
/// Span name of one traced audit.
const AUDIT_SPAN: &str = "audit";

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold fleet screen through the audit engine.
    Screen,
    /// Warm re-screen behind a hostile endpoint.
    RescreenHostile,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::Screen, Workload::RescreenHostile];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Screen => "screen",
            Workload::RescreenHostile => "rescreen_hostile",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Where the run reads its source and keeps its cross-run records.
#[derive(Debug, Clone)]
pub struct Context {
    /// Repository root (the directory holding `crates/`).
    pub root: PathBuf,
    /// Digest of the measured source (see [`host::source_digest`]).
    pub source_digest: String,
    /// Workload seed.
    pub seed: u64,
    /// Minimum measured time.
    pub seconds: Duration,
    /// Worker threads of the `bprom-par` pool.
    pub threads: usize,
}

impl Context {
    /// Timed rounds a run does, for a round of nominal length `round_s`.
    fn rounds(&self, round_s: f64) -> u64 {
        ((self.seconds.as_secs_f64() / round_s).floor() as u64).max(1)
    }

    /// Directory for run outputs (results, spans, digests).
    pub fn out_dir(&self) -> PathBuf {
        self.root.join("perfbench").join("out")
    }
}

/// Runs `workload`; `tracer` selects the traced run, which reports the
/// per-layer metrics instead of the end-to-end ones.
///
/// # Errors
///
/// Returns a message when set-up fails (the fit or the fleet), in which
/// case no metric can be measured.
pub fn run(workload: Workload, ctx: &Context, tracer: Option<&Tracer>) -> Result<Report, String> {
    match workload {
        Workload::Screen => screen(ctx, tracer),
        Workload::RescreenHostile => rescreen_hostile(ctx, tracer),
    }
}

/// Timings of the set-ups of one run.
#[derive(Debug, Default)]
struct Setups {
    /// Wall-clock of each whole set-up.
    setup_s: Vec<f64>,
    /// Wall-clock of the detector fit within each.
    fit_s: Vec<f64>,
    /// Digest of each set-up's detector.
    digests: Vec<u64>,
}

/// Runs `setup` `n` times and keeps what the last one built; each is
/// dropped before the next starts, so peak memory is that of one.
/// `setup` returns what it built, its detector-fit time and its detector
/// digest.
fn set_up<T>(
    n: usize,
    mut setup: impl FnMut() -> Result<(T, f64, u64), String>,
) -> Result<(T, Setups), String> {
    let mut timings = Setups::default();
    let mut last = None;
    for _ in 0..n.max(1) {
        drop(last.take());
        let start = Instant::now();
        let (built, fit_s, digest) = setup()?;
        timings.setup_s.push(secs(start.elapsed()));
        timings.fit_s.push(fit_s);
        timings.digests.push(digest);
        last = Some(built);
    }
    Ok((last.expect("at least one set-up"), timings))
}

/// Set-ups of a run: [`SETUPS`], or one in the traced run.
fn setups(tracer: Option<&Tracer>) -> usize {
    if tracer.is_some() {
        1
    } else {
        SETUPS
    }
}

/// Checks that the set-ups of this run, and earlier runs of the same
/// source, fit identical detector bytes.
fn check_setups(
    r: &mut Report,
    ctx: &Context,
    spec: &DetectorSpec,
    setups: &Setups,
) -> Result<(), String> {
    let digests = &setups.digests;
    r.check(
        format!("{} set-ups fit identical detector bytes", digests.len()),
        digests.windows(2).all(|w| w[0] == w[1]),
    );
    check_digest_across_runs(r, ctx, spec, digests[0])
}

/// One finished audit.
#[derive(Debug, Clone)]
struct Sample {
    truth: bool,
    verdict: Verdict,
    latency_s: f64,
}

/// Per-layer tallies of one traced audit.
#[derive(Debug, Clone, Default)]
struct Traced {
    audit: u64,
    verdict: Option<Verdict>,
    /// Wall-clock of the traced audit.
    wall_s: f64,
    /// The same audit without timing wrappers, run just before it.
    plain: Option<Verdict>,
    plain_s: f64,
    top_busy_ns: u64,
    top_calls: u64,
    top_rows: u64,
    above_cache_busy_ns: u64,
    above_cache_rows: u64,
    below_busy_ns: u64,
    below_rows: u64,
    bytes_cached: u64,
}

impl Traced {
    fn top(&mut self, tally: &Tally) {
        self.top_busy_ns = tally.busy_ns();
        self.top_calls = tally.calls();
        self.top_rows = tally.rows();
    }

    fn above_cache(&mut self, tally: &Tally) {
        self.above_cache_busy_ns = tally.busy_ns();
        self.above_cache_rows = tally.rows();
    }
}

/// Wall-clock of the phases of a staged fit.
#[derive(Debug, Clone, Copy, Default)]
struct FitStages {
    wall_s: f64,
    shadow_training_s: f64,
    prompt_shadows_s: f64,
    train_meta_s: f64,
    shadow_train_rows: f64,
    digest: u64,
}

/// Everything the per-layer metrics are computed from.
#[derive(Debug, Default)]
struct Layers {
    stages: FitStages,
    fit_speedup: f64,
    /// Traced audits of the timed phase.
    timed: Vec<Traced>,
    /// Name of the outermost wrapper on the timed audits.
    top_layer: &'static str,
    /// Provider (below-cache) busy time and rows over every traced audit
    /// that reached the provider: the timed ones on a cold workload, the
    /// set-up pass on the warm one.
    provider_busy_ns: u64,
    provider_rows: u64,
    /// Above-cache busy time over those same audits.
    miss_above_cache_busy_ns: u64,
    /// Distinct (model, seed) pairs the provider time is spread over.
    pairs: usize,
    bytes_cached_per_audit: f64,
    registry_builds: u64,
    pool_utilization: f64,
    flops_per_row: f64,
}

impl Layers {
    /// Fills the provider and miss-path fields from audits that carry
    /// their own below-cache tallies.
    fn provider_from(&mut self, audits: &[Traced]) {
        self.provider_busy_ns = audits.iter().map(|t| t.below_busy_ns).sum();
        self.provider_rows = audits.iter().map(|t| t.below_rows).sum();
        self.miss_above_cache_busy_ns = audits.iter().map(|t| t.above_cache_busy_ns).sum();
        self.bytes_cached_per_audit =
            audits.iter().map(|t| t.bytes_cached as f64).sum::<f64>() / audits.len().max(1) as f64;
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, secs(start.elapsed()))
}

/// Fits the detector for `spec` into the engine's registry.
fn warm(engine: &AuditEngine, spec: &DetectorSpec) -> Result<(std::sync::Arc<Bprom>, f64), String> {
    let (detector, fit_s) = time(|| engine.registry().detector(spec));
    Ok((
        detector.map_err(|e| format!("detector fit failed: {e}"))?,
        fit_s,
    ))
}

/// Model-major (model, inspection seed) pairs of one round.
fn round_pairs(ctx: &Context, round: u64, models: usize, seeds: usize) -> Vec<(usize, u64)> {
    (0..models)
        .flat_map(|i| (0..seeds).map(move |s| (i, s)))
        .map(|(i, s)| (i, inspect_seed(ctx.seed, round, i, s)))
        .collect()
}

/// One [`AuditEngine::run`] over `pairs`; returns the audits in queue
/// order and the run's wall-clock.
fn engine_round(
    engine: &AuditEngine,
    fleet: &Fleet,
    spec: &DetectorSpec,
    pairs: &[(usize, u64)],
) -> Result<(Vec<Sample>, f64), String> {
    let mut queue = Vec::with_capacity(pairs.len());
    for &(i, seed) in pairs {
        queue.push(AuditRequest {
            label: format!("m{i}-{seed:016x}"),
            model: fleet.instantiate(i)?,
            num_classes: fleet.num_classes(),
            truth: Some(fleet.models[i].backdoored),
            spec: spec.clone(),
            inspect_seed: seed,
        });
    }
    let (report, wall_s) = time(|| engine.run(queue));
    let report = report.map_err(|e| format!("engine run failed: {e}"))?;
    let samples = report
        .outcomes
        .into_iter()
        .map(|o| Sample {
            truth: o.truth.unwrap_or(false),
            latency_s: o.verdict.budget.total_ns as f64 * 1e-9,
            verdict: o.verdict,
        })
        .collect();
    Ok((samples, wall_s))
}

/// Provider rows an engine audit billed: its logical rows minus those
/// the cache served.
fn billed_rows(verdict: &Verdict) -> u64 {
    verdict.queries - verdict.budget.cache_hits
}

/// `signals` with the cache tallies cleared, for comparing a warm audit
/// with its cold original.
fn without_cache(mut signals: Signals) -> Signals {
    signals.cache_hits = 0;
    signals.cache_misses = 0;
    signals.cache_evictions = 0;
    signals
}

fn auroc(samples: &[Sample]) -> f64 {
    let scores: Vec<f32> = samples.iter().map(|s| s.verdict.score).collect();
    let truth: Vec<bool> = samples.iter().map(|s| s.truth).collect();
    bprom_metrics::auroc(&scores, &truth).map_or(0.0, f64::from)
}

/// Checks shared by every workload's audits.
fn audit_checks(r: &mut Report, samples: &[Sample]) {
    let logical: Vec<u64> = samples.iter().map(|s| s.verdict.queries).collect();
    r.check(
        format!(
            "every audit spends the same logical queries ({:?})",
            logical.first()
        ),
        logical.windows(2).all(|w| w[0] == w[1]),
    );
    r.check(
        "the fleet holds clean and backdoored audits",
        samples.iter().any(|s| s.truth) && samples.iter().any(|s| !s.truth),
    );
}

/// Compares the detector digest with the one recorded by an earlier run
/// of the same source and detector spec (the detector is pinned, so
/// every run of the same code must fit the same bytes), then records it.
fn check_digest_across_runs(
    r: &mut Report,
    ctx: &Context,
    spec: &DetectorSpec,
    digest: u64,
) -> Result<(), String> {
    let dir = ctx.out_dir().join("detector-digests");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-{:016x}", ctx.source_digest, spec.digest()));
    let ours = format!("{digest:016x}");
    match std::fs::read_to_string(&path) {
        Ok(recorded) => r.check(
            format!(
                "detector digest {ours} matches earlier runs ({})",
                recorded.trim()
            ),
            recorded.trim() == ours,
        ),
        Err(_) => {
            let tmp = path.with_extension("tmp");
            std::fs::write(&tmp, &ours)
                .and_then(|()| std::fs::rename(&tmp, &path))
                .map_err(|e| format!("{}: {e}", path.display()))?;
            r.check(format!("detector digest {ours} recorded"), true);
        }
    }
    Ok(())
}

/// The end-to-end metrics, from the run's set-ups, its audits and the
/// wall-clock of its timed audit phase.
fn end_to_end(
    r: &mut Report,
    setups: &Setups,
    samples: &[Sample],
    timed_wall_s: f64,
    billed: u64,
    pairs: usize,
) {
    let each = |v: &[f64]| {
        let v: Vec<String> = v.iter().map(|x| format!("{x:.3}")).collect();
        v.join(", ")
    };
    r.metric(
        "setup_s",
        median(&setups.setup_s),
        "s",
        format!("median of set-ups [{}] s", each(&setups.setup_s)),
    );
    r.metric(
        "fit_s",
        median(&setups.fit_s),
        "s",
        format!("median of set-up fits [{}] s", each(&setups.fit_s)),
    );
    let latency: Vec<f64> = samples.iter().map(|s| s.latency_s).collect();
    let lat = summarize(&latency);
    r.metric("audit_p50_s", lat.p50, "s", format!("n={}", lat.n));
    r.metric(
        "audit_tail_s",
        lat.tail,
        "s",
        format!("p{:.0} of n={}", lat.tail_pct, lat.n),
    );
    r.metric(
        "audits_per_s",
        samples.len() as f64 / timed_wall_s,
        "1/s",
        format!("{} audits in {timed_wall_s:.3} s", samples.len()),
    );
    r.metric(
        "provider_rows_per_audit",
        billed as f64 / pairs as f64,
        "rows",
        format!("{billed} rows billed over {pairs} distinct (model, seed) audits"),
    );
    r.metric(
        "detect_auroc",
        auroc(samples),
        "auroc",
        format!("over n={}", samples.len()),
    );
    r.metric(
        "peak_rss_mb",
        host::peak_rss_mb().unwrap_or(0.0),
        "MB",
        "VmHWM at exit",
    );
}

/// Replays the staged fit through the public stage functions, in the
/// order `Bprom::fit` runs them, timing each stage.
fn staged_fit(config: &BpromConfig, tracer: &Tracer, id: u64) -> Result<FitStages, String> {
    let err = |e: bprom::BpromError| e.to_string();
    let mut stages = FitStages::default();
    let start = Instant::now();
    tracer.span("core.fit", id, None, |_| -> Result<(), String> {
        let mut rng = Rng::new(FIT_SEED);
        let source_test = config
            .source_dataset
            .generate(
                config.test_samples_per_class,
                config.image_size,
                rng.next_u64(),
            )
            .map_err(|e| e.to_string())?;
        let ds = source_test
            .subsample(config.ds_fraction, &mut rng)
            .map_err(|e| e.to_string())?;
        let target = config
            .target_dataset
            .generate(
                config.target_samples_per_class,
                config.image_size,
                rng.next_u64(),
            )
            .map_err(|e| e.to_string())?;
        let (t_train, t_test) = target.split(0.7, &mut rng).map_err(|e| e.to_string())?;
        let map =
            LabelMap::identity(t_train.num_classes, ds.num_classes).map_err(|e| e.to_string())?;
        let (shadows, s) = time(|| {
            tracer.span("core.shadow_training", id, None, |_| {
                ShadowSet::train(config, &ds, &mut rng)
            })
        });
        let mut shadows = shadows.map_err(err)?;
        stages.shadow_training_s = s;
        stages.shadow_train_rows = (shadows.len() * ds.len() * config.train.epochs) as f64;
        let (prompts, s) = time(|| {
            tracer.span("core.prompt_shadows", id, None, |_| {
                prompt_shadows(config, &mut shadows, &t_train, &map, &mut rng)
            })
        });
        let prompts = prompts.map_err(err)?;
        stages.prompt_shadows_s = s;
        let probes = tracer
            .span("core.probe_sample", id, None, |_| {
                ProbeSet::sample(&t_test, config.probe_count, &mut rng)
            })
            .map_err(err)?;
        let (meta, s) = time(|| {
            tracer.span("core.train_meta", id, None, |_| {
                train_meta(config, &mut shadows, &prompts, &probes, &mut rng)
            })
        });
        let meta = meta.map_err(err)?;
        stages.train_meta_s = s;
        stages.digest = stage_digest(&meta, &probes);
        Ok(())
    })?;
    stages.wall_s = secs(start.elapsed());
    Ok(stages)
}

/// Digest of what a staged fit produces that the detector keeps: the
/// meta forest and the probe set.
fn stage_digest(meta: &bprom_meta::RandomForest, probes: &ProbeSet) -> u64 {
    let mut enc = bprom_ckpt::Encoder::new();
    meta.persist(&mut enc);
    let mut bytes = enc.into_bytes();
    for v in probes.images.data() {
        bytes.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    for &l in &probes.labels {
        bytes.extend_from_slice(&(l as u64).to_le_bytes());
    }
    bprom_ckpt::fnv1a64(&bytes)
}

/// Traced run only: times the fit stages at the pool's thread count and
/// the whole staged fit again on one thread, and checks the staged fit
/// reproduces the detector `Bprom::fit` built.
fn fit_attribution(
    r: &mut Report,
    ctx: &Context,
    layers: &mut Layers,
    config: &BpromConfig,
    detector: &Bprom,
    tracer: &Tracer,
) -> Result<(), String> {
    let stages = staged_fit(config, tracer, 1_000_000)?;
    r.check(
        "staged fit reproduces the detector's meta forest and probes",
        stages.digest == stage_digest(detector.meta(), detector.probes()),
    );
    bprom_par::set_thread_count(1);
    let single = staged_fit(config, tracer, 1_000_001);
    bprom_par::set_thread_count(ctx.threads);
    let single = single?;
    r.check(
        "one-thread staged fit reproduces the pooled one",
        single.digest == stages.digest,
    );
    layers.fit_speedup = single.wall_s / stages.wall_s;
    layers.stages = stages;
    Ok(())
}

/// Traced run only: replays `pairs` outside the engine, grouped by model
/// and fanned out on the pool like the engine. Each pair runs twice in a
/// row: once through the engine's stack (a cache of the program's default
/// policy over the provider), then with timing wrappers below and above
/// that cache. The pairing makes the tracing overhead a same-moment
/// comparison.
fn replay(
    fleet: &Fleet,
    detector: &Bprom,
    pairs: &[(usize, u64)],
    tracer: &Tracer,
) -> Result<Vec<Traced>, String> {
    let mut groups: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
    for (k, &(i, seed)) in pairs.iter().enumerate() {
        groups.entry(i).or_default().push((k as u64 + 1, seed));
    }
    let jobs: Vec<(usize, Vec<(u64, u64)>)> = groups.into_iter().collect();
    let cache = detector.config().cache;
    let audit_err = |e: bprom::BpromError| format!("replayed audit failed: {e}");
    let results = bprom_par::par_map(jobs, |(i, audits)| -> Result<Vec<Traced>, String> {
        let mut out = Vec::new();
        for (id, seed) in audits {
            let plain_cache = CachingOracle::new(
                QueryOracle::new(fleet.instantiate(i)?, fleet.num_classes()),
                cache,
            );
            let (plain, plain_s) = time(|| detector.inspect(&plain_cache, &mut Rng::new(seed)));
            let model = fleet.instantiate(i)?;
            let (traced, wall_s) = time(|| {
                tracer.span(AUDIT_SPAN, id, None, |root| {
                    let provider = QueryOracle::new(model, fleet.num_classes());
                    let below = TimedOracle::new(provider, BELOW_CACHE, id, Some(root), tracer);
                    let cached = CachingOracle::new(below, cache);
                    let above = TimedOracle::new(&cached, ABOVE_CACHE, id, Some(root), tracer);
                    let verdict = detector.inspect(&above, &mut Rng::new(seed));
                    let mut t = Traced {
                        audit: id,
                        below_busy_ns: cached.inner().tally().busy_ns(),
                        below_rows: cached.inner().tally().rows(),
                        bytes_cached: cached.bytes_cached(),
                        ..Traced::default()
                    };
                    t.top(above.tally());
                    t.above_cache(above.tally());
                    verdict.map(|v| {
                        t.verdict = Some(v);
                        t
                    })
                })
            });
            let mut traced = traced.map_err(audit_err)?;
            traced.plain = Some(plain.map_err(audit_err)?);
            traced.plain_s = plain_s;
            traced.wall_s = wall_s;
            out.push(traced);
        }
        Ok(out)
    });
    let mut traced = Vec::new();
    for group in results {
        traced.extend(group?);
    }
    traced.sort_by_key(|t| t.audit);
    Ok(traced)
}

/// Traced run only: checks that the replayed audits, plain and traced,
/// reach the engine's verdicts exactly.
fn check_replay(r: &mut Report, engine: &[&Sample], replayed: &[Traced]) {
    let same = |v: &Option<Verdict>, e: &Sample| {
        v.as_ref()
            .is_some_and(|v| v.signals() == e.verdict.signals())
    };
    let ok = engine.len() == replayed.len()
        && engine
            .iter()
            .zip(replayed)
            .all(|(e, t)| same(&t.plain, e) && same(&t.verdict, e));
    r.check(
        format!(
            "{} replayed audits, plain and traced, reach the engine's verdicts exactly",
            replayed.len()
        ),
        ok,
    );
}

fn utilization(samples: &[Sample], wall_s: f64, threads: usize) -> f64 {
    samples.iter().map(|s| s.latency_s).sum::<f64>() / (wall_s * threads as f64)
}

/// Traced run of `screen`: replays the first [`REPLAY_SEEDS`] seeds of
/// every model of the timed audits `(samples, pairs, wall-clock)`,
/// attributes the fit, and reports the per-layer metrics.
fn engine_layers(
    r: &mut Report,
    ctx: &Context,
    engine: &AuditEngine,
    fleet: &Fleet,
    detector: &Bprom,
    (samples, pairs, wall_s): (&[Sample], &[(usize, u64)], f64),
    tracer: &Tracer,
) -> Result<(), String> {
    let keep: Vec<usize> = (0..pairs.len())
        .filter(|k| k % SCREEN_SEEDS < REPLAY_SEEDS)
        .collect();
    let subset: Vec<(usize, u64)> = keep.iter().map(|&k| pairs[k]).collect();
    let engine_subset: Vec<&Sample> = keep.iter().map(|&k| &samples[k]).collect();
    let traced = replay(fleet, detector, &subset, tracer)?;
    check_replay(r, &engine_subset, &traced);
    let mut layers = Layers {
        registry_builds: engine.registry().stats().builds,
        pool_utilization: utilization(samples, wall_s, ctx.threads),
        flops_per_row: fleet.forward_flops_per_row()?,
        top_layer: ABOVE_CACHE,
        pairs: subset.len(),
        ..Layers::default()
    };
    layers.provider_from(&traced);
    layers.timed = traced;
    fit_attribution(r, ctx, &mut layers, detector.config(), detector, tracer)?;
    per_layer(r, &layers, tracer);
    Ok(())
}

/// `screen`: rounds of cold engine runs over the fleet.
fn screen(ctx: &Context, tracer: Option<&Tracer>) -> Result<Report, String> {
    let mut r = Report::default();
    let spec = detector_spec(AUDIT_SHADOWS);
    let ((fleet, engine, detector), setups) = set_up(setups(tracer), || {
        let fleet = Fleet::train()?;
        let engine = AuditEngine::new("perfbench-screen", ShadowZooRegistry::in_memory());
        let (detector, fit_s) = warm(&engine, &spec)?;
        let digest = detector_digest(&detector);
        Ok(((fleet, engine, detector), fit_s, digest))
    })?;
    check_setups(&mut r, ctx, &spec, &setups)?;
    let mut samples = Vec::new();
    let mut first_pairs = Vec::new();
    let mut wall_s = 0.0;
    for round in 0..ctx.rounds(SCREEN_ROUND_S) {
        let pairs = round_pairs(ctx, round, fleet.len(), SCREEN_SEEDS);
        r.attempted += pairs.len() as u64;
        let (s, w) = engine_round(&engine, &fleet, &spec, &pairs)
            .inspect_err(|_| r.failed += pairs.len() as u64)?;
        samples.extend(s);
        wall_s += w;
        if round == 0 {
            first_pairs = pairs;
        }
    }
    audit_checks(&mut r, &samples);
    let billed = samples.iter().map(|s| billed_rows(&s.verdict)).sum();
    match tracer {
        None => end_to_end(&mut r, &setups, &samples, wall_s, billed, samples.len()),
        Some(tracer) => engine_layers(
            &mut r,
            ctx,
            &engine,
            &fleet,
            &detector,
            (&samples, &first_pairs, wall_s),
            tracer,
        )?,
    }
    Ok(r)
}

/// One audit through retry ∘ faults (hostile profile) ∘ `cache`, with
/// timing wrappers above the cache and above retry when traced.
fn hostile_audit<B: BlackBoxModel>(
    detector: &Bprom,
    cache: &CachingOracle<B>,
    (inspect_seed, fault_seed): (u64, u64),
    trace: Option<(&Tracer, u64)>,
) -> (Result<Verdict, String>, f64, Traced) {
    let profile = FaultProfile::Hostile;
    let err = |e: bprom::BpromError| format!("hostile audit failed: {e}");
    let start = Instant::now();
    let mut t = Traced::default();
    let verdict = match trace {
        None => {
            let faulty = FaultyOracle::new(cache, profile.plan(), fault_seed);
            let retrying = RetryingOracle::new(&faulty, profile.retry_policy());
            detector
                .inspect(&retrying, &mut Rng::new(inspect_seed))
                .map_err(err)
        }
        Some((tracer, id)) => tracer.span(AUDIT_SPAN, id, None, |root| {
            t.audit = id;
            let above = TimedOracle::new(cache, ABOVE_CACHE, id, Some(root), tracer);
            let faulty = FaultyOracle::new(&above, profile.plan(), fault_seed);
            let retrying = RetryingOracle::new(&faulty, profile.retry_policy());
            let top = TimedOracle::new(&retrying, ABOVE_RETRY, id, Some(root), tracer);
            let verdict = detector
                .inspect(&top, &mut Rng::new(inspect_seed))
                .map_err(err);
            t.top(top.tally());
            t.above_cache(above.tally());
            verdict
        }),
    };
    t.verdict = verdict.as_ref().ok().copied();
    (verdict, secs(start.elapsed()), t)
}

/// `rescreen_hostile`: warm re-audits of an unchanged fleet behind a
/// hostile endpoint.
fn rescreen_hostile(ctx: &Context, tracer: Option<&Tracer>) -> Result<Report, String> {
    match tracer {
        None => rescreen_with(ctx, None, |oracle, _| oracle),
        Some(tracer) => rescreen_with(ctx, Some(tracer), |oracle, model| {
            TimedOracle::new(oracle, BELOW_CACHE, 2_000_000 + model as u64, None, tracer)
        }),
    }
}

/// What one `rescreen_hostile` set-up builds: the fleet, the detector,
/// the per-model caches the cold pass filled, and the cold verdicts.
struct Primed<B: BlackBoxModel> {
    fleet: Fleet,
    engine: AuditEngine,
    detector: std::sync::Arc<Bprom>,
    endpoints: Vec<CachingOracle<B>>,
    /// (model, (inspection seed, fault seed)).
    pairs: Vec<(usize, (u64, u64))>,
    cold_verdicts: Vec<Option<Verdict>>,
    cold_traced: Vec<Traced>,
}

/// [`rescreen_hostile`] over providers wrapped by `provider` (a timing
/// wrapper in the traced run, nothing otherwise).
fn rescreen_with<B: BlackBoxModel>(
    ctx: &Context,
    tracer: Option<&Tracer>,
    provider: impl Fn(QueryOracle, usize) -> B,
) -> Result<Report, String> {
    let mut r = Report::default();
    let spec = detector_spec(AUDIT_SHADOWS);
    let (primed, setups) = set_up(setups(tracer), || {
        let fleet = Fleet::train()?;
        let engine = AuditEngine::new("perfbench-rescreen", ShadowZooRegistry::in_memory());
        let (detector, fit_s) = warm(&engine, &spec)?;
        let endpoints: Vec<CachingOracle<B>> = (0..fleet.len())
            .map(|i| {
                let oracle = QueryOracle::new(fleet.instantiate(i)?, fleet.num_classes());
                Ok(CachingOracle::new(
                    provider(oracle, i),
                    CacheConfig::unbounded(),
                ))
            })
            .collect::<Result<_, String>>()?;
        let pairs: Vec<(usize, (u64, u64))> = round_pairs(ctx, 0, fleet.len(), RESCREEN_SEEDS)
            .into_iter()
            .map(|(i, seed)| (i, (seed, mix(seed, FAULT_SALT))))
            .collect();
        // Cold pass: every (model, seed) once, models fanned out on the pool.
        let by_model: Vec<Vec<(usize, usize)>> = (0..fleet.len())
            .map(|i| {
                pairs
                    .iter()
                    .enumerate()
                    .filter(|(_, &(m, _))| m == i)
                    .map(|(k, _)| (k, i))
                    .collect()
            })
            .collect();
        let cold = bprom_par::par_map(by_model, |jobs| {
            jobs.into_iter()
                .map(|(k, i)| {
                    let trace = tracer.map(|t| (t, 3_000_000 + k as u64));
                    let (verdict, _, traced) =
                        hostile_audit(&detector, &endpoints[i], pairs[k].1, trace);
                    (k, verdict, traced)
                })
                .collect::<Vec<_>>()
        });
        let mut cold_verdicts: Vec<Option<Verdict>> = vec![None; pairs.len()];
        let mut cold_traced = Vec::new();
        for (k, verdict, traced) in cold.into_iter().flatten() {
            r.attempted += 1;
            match verdict {
                Ok(v) => cold_verdicts[k] = Some(v),
                Err(e) => {
                    r.failed += 1;
                    eprintln!("{e}");
                }
            }
            cold_traced.push(traced);
        }
        let digest = detector_digest(&detector);
        let primed = Primed {
            fleet,
            engine,
            detector,
            endpoints,
            pairs,
            cold_verdicts,
            cold_traced,
        };
        Ok((primed, fit_s, digest))
    })?;
    check_setups(&mut r, ctx, &spec, &setups)?;
    let Primed {
        fleet,
        engine,
        detector,
        endpoints,
        pairs,
        cold_verdicts,
        cold_traced,
    } = primed;
    let billed_after_cold: u64 = endpoints.iter().map(|e| e.inner().queries_used()).sum();

    // Timed: one client re-audits every pair per round, in order.
    let mut samples = Vec::new();
    let mut wall_s = 0.0;
    let mut warm_matches_cold = true;
    for _ in 0..ctx.rounds(RESCREEN_ROUND_S) {
        let round_start = Instant::now();
        for (k, &(i, seeds)) in pairs.iter().enumerate() {
            r.attempted += 1;
            let (verdict, latency_s, _) = hostile_audit(&detector, &endpoints[i], seeds, None);
            match verdict {
                Ok(v) => {
                    warm_matches_cold &= cold_verdicts[k]
                        .as_ref()
                        .is_some_and(|c| without_cache(c.signals()) == without_cache(v.signals()));
                    samples.push(Sample {
                        truth: fleet.models[i].backdoored,
                        verdict: v,
                        latency_s,
                    });
                }
                Err(e) => {
                    r.failed += 1;
                    eprintln!("{e}");
                }
            }
        }
        wall_s += secs(round_start.elapsed());
    }
    let billed: u64 = endpoints.iter().map(|e| e.inner().queries_used()).sum();
    audit_checks(&mut r, &samples);
    r.check(
        "warm re-audits reach the cold audits' signals (cache tallies aside)",
        warm_matches_cold,
    );
    r.check(
        format!(
            "warm re-audits bill no provider rows ({billed_after_cold} before, {billed} after)"
        ),
        billed == billed_after_cold,
    );
    match tracer {
        None => end_to_end(&mut r, &setups, &samples, wall_s, billed, pairs.len()),
        Some(tracer) => {
            // One more round, each re-audit run plain and then traced.
            let mut timed = Vec::new();
            let mut traced_matches = true;
            for (k, &(i, seeds)) in pairs.iter().enumerate() {
                let id = 4_000_000 + k as u64;
                let (plain, plain_s, _) = hostile_audit(&detector, &endpoints[i], seeds, None);
                let (verdict, wall_s, mut traced) =
                    hostile_audit(&detector, &endpoints[i], seeds, Some((tracer, id)));
                traced_matches &= match (&plain, &verdict) {
                    (Ok(p), Ok(v)) => p.signals() == v.signals(),
                    _ => false,
                };
                traced.plain = plain.ok();
                traced.plain_s = plain_s;
                traced.wall_s = wall_s;
                timed.push(traced);
            }
            r.check(
                "traced re-audits reach the untraced verdicts exactly",
                traced_matches,
            );
            // The warm rounds never reach the provider: its time and rows
            // come from the cold pass, through the per-model wrappers.
            let provider_busy_ns = tracer
                .spans()
                .iter()
                .filter(|s| s.name == BELOW_CACHE)
                .map(|s| s.len_ns())
                .sum();
            let mut layers = Layers {
                registry_builds: engine.registry().stats().builds,
                pool_utilization: utilization(&samples, wall_s, ctx.threads),
                flops_per_row: fleet.forward_flops_per_row()?,
                top_layer: ABOVE_RETRY,
                pairs: pairs.len(),
                provider_busy_ns,
                provider_rows: billed,
                miss_above_cache_busy_ns: cold_traced.iter().map(|t| t.above_cache_busy_ns).sum(),
                bytes_cached_per_audit: endpoints
                    .iter()
                    .map(|e| e.bytes_cached() as f64)
                    .sum::<f64>()
                    / pairs.len() as f64,
                timed,
                ..Layers::default()
            };
            fit_attribution(&mut r, ctx, &mut layers, &spec.config, &detector, tracer)?;
            per_layer(&mut r, &layers, tracer);
        }
    }
    Ok(r)
}

/// The per-layer metrics of a traced run, each noted with the
/// end-to-end metric it should move and the workload it moves it on.
fn per_layer(r: &mut Report, layers: &Layers, tracer: &Tracer) {
    let spans = tracer.spans();
    let timed = &layers.timed;
    let n = timed.len().max(1) as f64;
    let sum = |f: fn(&Traced) -> u64| timed.iter().map(f).sum::<u64>() as f64;
    let verdicts: Vec<&Verdict> = timed.iter().filter_map(|t| t.verdict.as_ref()).collect();
    let budget_median = |f: fn(&Verdict) -> u64| {
        let v: Vec<f64> = verdicts.iter().map(|v| f(v) as f64 * 1e-9).collect();
        if v.is_empty() {
            0.0
        } else {
            median(&v)
        }
    };
    // Self time of the search and meta layers: each audit's wall-clock
    // minus the part of it the outermost oracle wrapper covers.
    let vp_self: Vec<f64> = timed
        .iter()
        .filter_map(|t| {
            let root = spans
                .iter()
                .find(|s| s.audit == t.audit && s.name == AUDIT_SPAN)?;
            let covered = covered_ns(
                spans
                    .iter()
                    .filter(|s| s.audit == t.audit && s.name == layers.top_layer)
                    .map(|s| (s.start_ns, s.end_ns))
                    .collect(),
            );
            Some(root.len_ns().saturating_sub(covered) as f64 * 1e-9)
        })
        .collect();
    let stages = &layers.stages;
    let provider_s = layers.provider_busy_ns as f64 * 1e-9;
    let per_s = |x: f64, s: f64| if s > 0.0 { x / s } else { 0.0 };
    let cache_self_ns = sum(|t| t.above_cache_busy_ns) - sum(|t| t.below_busy_ns);
    let faults_self_ns = sum(|t| t.top_busy_ns) - sum(|t| t.above_cache_busy_ns);
    let miss_self_ns = layers.miss_above_cache_busy_ns as f64 - layers.provider_busy_ns as f64;
    let hits = verdicts.iter().map(|v| v.budget.cache_hits).sum::<u64>() as f64;
    let misses = verdicts.iter().map(|v| v.budget.cache_misses).sum::<u64>() as f64;
    let signal_mean = |f: fn(&Verdict) -> u64| {
        verdicts.iter().map(|v| f(v)).sum::<u64>() as f64 / verdicts.len().max(1) as f64
    };
    let rows: Vec<(&'static str, f64, &'static str, &'static str)> = vec![
        (
            "core.shadow_training_s",
            stages.shadow_training_s,
            "s",
            "fit_s (the set-up fits)",
        ),
        (
            "core.prompt_shadows_s",
            stages.prompt_shadows_s,
            "s",
            "fit_s (the set-up fits)",
        ),
        (
            "core.train_meta_s",
            stages.train_meta_s,
            "s",
            "fit_s (the set-up fits)",
        ),
        (
            "core.inspect_prompt_s",
            budget_median(|v| v.budget.prompt_ns),
            "s",
            "audit_p50_s on screen",
        ),
        (
            "core.inspect_probe_s",
            budget_median(|v| v.budget.probe_ns),
            "s",
            "audit_p50_s on screen and rescreen_hostile",
        ),
        (
            "nn.shadow_train_rows_per_s",
            per_s(stages.shadow_train_rows, stages.shadow_training_s),
            "rows/s",
            "fit_s (the set-up fits)",
        ),
        (
            "nn.provider_s_per_audit",
            provider_s / layers.pairs.max(1) as f64,
            "s",
            "audit_p50_s and audits_per_s on screen",
        ),
        (
            "nn.provider_rows_per_s",
            per_s(layers.provider_rows as f64, provider_s),
            "rows/s",
            "audit_p50_s and audits_per_s on screen",
        ),
        (
            "tensor.provider_gflops",
            per_s(
                layers.provider_rows as f64 * layers.flops_per_row,
                provider_s,
            ) * 1e-9,
            "GFLOP/s",
            "audit_p50_s on screen (FLOPs computed from layer shapes)",
        ),
        (
            "vp.oracle_calls_per_audit",
            sum(|t| t.top_calls) / n,
            "calls",
            "audit_p50_s on screen; fit_s via shadow prompting",
        ),
        (
            "vp.rows_per_call",
            per_s(sum(|t| t.top_rows), sum(|t| t.top_calls)),
            "rows",
            "audit_p50_s on screen; fit_s via shadow prompting",
        ),
        (
            "vp.self_s_per_audit",
            if vp_self.is_empty() {
                0.0
            } else {
                median(&vp_self)
            },
            "s",
            "audit_p50_s on rescreen_hostile",
        ),
        (
            "vp.logical_queries_per_audit",
            signal_mean(|v| v.queries),
            "rows",
            "nothing: an invariant on every workload",
        ),
        (
            "qcache.hit_rate",
            per_s(hits, hits + misses),
            "frac",
            "audit_p50_s: miss path on screen, hit path on rescreen_hostile",
        ),
        (
            "qcache.self_ns_per_row",
            per_s(cache_self_ns, sum(|t| t.above_cache_rows)),
            "ns",
            "audit_p50_s: miss path on screen, hit path on rescreen_hostile",
        ),
        (
            "qcache.miss_overhead_frac",
            per_s(miss_self_ns, layers.provider_busy_ns as f64),
            "frac",
            "audit_p50_s on screen",
        ),
        (
            "qcache.bytes_cached_per_audit",
            layers.bytes_cached_per_audit,
            "bytes",
            "peak_rss_mb on screen",
        ),
        (
            "faults.injected_per_audit",
            signal_mean(|v| v.budget.faults_injected),
            "count",
            "audit_p50_s and failures on rescreen_hostile",
        ),
        (
            "faults.retries_per_audit",
            signal_mean(|v| v.budget.retries),
            "count",
            "audit_p50_s and failures on rescreen_hostile",
        ),
        (
            "faults.retry_exhausted_per_audit",
            signal_mean(|v| v.budget.retry_exhausted),
            "count",
            "audit_p50_s and failures on rescreen_hostile",
        ),
        (
            "faults.penalized_candidates_per_audit",
            signal_mean(|v| v.budget.penalized_candidates),
            "count",
            "audit_p50_s and failures on rescreen_hostile",
        ),
        (
            "faults.self_frac",
            per_s(faults_self_ns, sum(|t| t.top_busy_ns)),
            "frac",
            "audit_p50_s on rescreen_hostile (share of oracle-stack time)",
        ),
        (
            "audit.registry_builds",
            layers.registry_builds as f64,
            "count",
            "setup_s on screen",
        ),
        (
            "audit.pool_utilization",
            layers.pool_utilization,
            "frac",
            "audits_per_s on screen",
        ),
        (
            "par.fit_speedup",
            layers.fit_speedup,
            "x",
            "fit_s (one-thread staged fit / pooled staged fit)",
        ),
        (
            "trace.overhead_frac",
            per_s(
                timed.iter().map(|t| t.wall_s).sum(),
                timed.iter().map(|t| t.plain_s).sum(),
            ) - 1.0,
            "frac",
            "nothing: traced audit wall / same audit untraced, paired - 1",
        ),
    ];
    for (name, value, unit, moves) in rows {
        r.metric(name, value, unit, format!("moves {moves}"));
    }
}

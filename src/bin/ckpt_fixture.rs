//! Kill-at-any-point resume fixture for the `bprom-ckpt` subsystem.
//!
//! Two modes:
//!
//! - `ckpt_fixture run [--ckpt-dir DIR] [--out FILE] [--hostile]
//!   [--threads N]` — one identically-seeded fit + zoo + evaluate
//!   pipeline (a scaled-down version of the tier-1 determinism fixture),
//!   checkpointed when `--ckpt-dir` is given. Writes the detection
//!   report JSON to `--out` and the number of checkpoint boundaries
//!   crossed to `<out>.boundaries`. With `BPROM_CRASH_AFTER=n` in the
//!   environment the process dies at the `n`-th boundary with exit code
//!   86 (see `bprom_ckpt::crash_point`).
//!
//! - `ckpt_fixture --sweep [--hostile] [--threads N] [--points a,b,c]
//!   [--stride k]` — the headline crash-safety contract, self-hosted:
//!   run an uncheckpointed baseline, prove a checkpointed uninterrupted
//!   run matches it byte-for-byte, then for each kill point spawn a run
//!   that crashes there, resume it, and require the resumed report to be
//!   byte-identical to the baseline.

use bprom_suite::attacks::AttackKind;
use bprom_suite::bprom::{
    build_suspicious_zoo_ckpt, downstream_entries, evaluate_zoo, Bprom, BpromConfig, Checkpointer,
    DetectionReport, Scenario, ZooConfig,
};
use bprom_suite::ckpt::{crossings, CRASH_EXIT_CODE};
use bprom_suite::data::SynthDataset;
use bprom_suite::faults::FaultProfile;
use bprom_suite::nn::TrainConfig;
use bprom_suite::par;
use bprom_suite::tensor::Rng;
use bprom_suite::vp::PromptTrainConfig;
use std::path::Path;
use std::process::Command;

/// One identically-seeded fit + zoo + evaluate run, optionally
/// checkpointed; `hostile` stacks fault injection plus retries on every
/// inspected oracle. Scaled down from `tests/par_determinism.rs` so the
/// kill sweep stays fast.
fn run_pipeline(hostile: bool, ck: Option<&Checkpointer>) -> DetectionReport {
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
        cmaes_generations: 3,
        cmaes_population: 6,
        ..PromptTrainConfig::default()
    };
    let detector = Bprom::fit_ckpt(&config, &mut rng, ck).expect("fit failed");

    let mut zoo_cfg = ZooConfig::new(SynthDataset::Cifar10, AttackKind::BadNets);
    zoo_cfg.clean = 1;
    zoo_cfg.backdoored = 1;
    zoo_cfg.samples_per_class = 20;
    zoo_cfg.train = TrainConfig {
        epochs: 2,
        ..TrainConfig::default()
    };
    let zoo = build_suspicious_zoo_ckpt(&zoo_cfg, &mut rng, ck).expect("zoo failed");
    let profile = if hostile {
        FaultProfile::Hostile
    } else {
        FaultProfile::Off
    };
    let mut report = evaluate_zoo(
        &detector,
        Scenario::Downstream,
        downstream_entries(zoo, config.source_dataset.num_classes()),
        &mut rng,
        |detector, oracle, rng, i| {
            profile.wrap(&oracle, 0xFA17, |o| {
                detector.inspect_ckpt(o, rng, ck, &i.to_string())
            })
        },
    )
    .expect("evaluate failed");
    // Wall-clock is the one legitimately nondeterministic field; zero it
    // so file-level comparison covers everything else byte-for-byte.
    report.mean_inspect_ms = 0.0;
    report
}

fn run(ckpt_dir: Option<String>, out: Option<String>, hostile: bool, threads: usize) {
    par::set_thread_count(threads);
    let ck = ckpt_dir.map(|d| Checkpointer::open(d).expect("checkpoint dir"));
    let report = run_pipeline(hostile, ck.as_ref());
    let json = report.to_json().expect("report json");
    match out {
        Some(out) => {
            std::fs::write(&out, &json).expect("write report");
            std::fs::write(format!("{out}.boundaries"), format!("{}\n", crossings()))
                .expect("write boundaries");
        }
        None => println!("{json}"),
    }
}

/// Spawns this binary in `run` mode. `crash_after` arms the injected
/// crash; the crash env var is always scrubbed first so an armed parent
/// environment cannot leak into subprocesses.
fn spawn_run(
    hostile: bool,
    threads: usize,
    ckpt_dir: Option<&Path>,
    out: &Path,
    crash_after: Option<u64>,
) -> std::process::ExitStatus {
    let exe = std::env::current_exe().expect("current exe");
    let mut cmd = Command::new(exe);
    cmd.arg("run")
        .arg("--threads")
        .arg(threads.to_string())
        .arg("--out")
        .arg(out)
        .env_remove("BPROM_CRASH_AFTER");
    if hostile {
        cmd.arg("--hostile");
    }
    if let Some(dir) = ckpt_dir {
        cmd.arg("--ckpt-dir").arg(dir);
    }
    if let Some(n) = crash_after {
        cmd.env("BPROM_CRASH_AFTER", n.to_string());
    }
    cmd.status().expect("spawn fixture subprocess")
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path:?}: {e}"))
}

fn sweep(hostile: bool, threads: usize, points: Option<Vec<u64>>, stride: u64) {
    let scratch = std::env::temp_dir().join(format!(
        "bprom-ckpt-sweep-{}{}",
        std::process::id(),
        if hostile { "-hostile" } else { "" }
    ));
    std::fs::remove_dir_all(&scratch).ok();
    std::fs::create_dir_all(&scratch).expect("create scratch dir");

    // 1. Uncheckpointed baseline: the ground-truth report.
    let base_out = scratch.join("base.json");
    let status = spawn_run(hostile, threads, None, &base_out, None);
    assert!(status.success(), "baseline run failed: {status}");
    let baseline = read(&base_out);

    // 2. Checkpointing enabled, never interrupted: snapshot overhead must
    //    not perturb a single byte of the report.
    let full_dir = scratch.join("full");
    let full_out = scratch.join("full.json");
    let status = spawn_run(hostile, threads, Some(&full_dir), &full_out, None);
    assert!(status.success(), "checkpointed run failed: {status}");
    assert_eq!(
        read(&full_out),
        baseline,
        "enabling checkpointing changed the detection report"
    );
    let total: u64 = read(&full_out.with_extension("json.boundaries"))
        .trim()
        .parse()
        .expect("boundary count");
    println!("[sweep] fixture has {total} checkpoint boundaries");

    // 3. Kill at each requested boundary, resume, compare byte-for-byte.
    let kill_points: Vec<u64> = match points {
        Some(p) => p.into_iter().filter(|&n| n >= 1 && n <= total).collect(),
        None => (1..=total).step_by(stride.max(1) as usize).collect(),
    };
    assert!(
        !kill_points.is_empty(),
        "no kill points in range 1..={total}"
    );
    for &n in &kill_points {
        let dir = scratch.join(format!("kill-{n}"));
        let out = scratch.join(format!("kill-{n}.json"));
        let status = spawn_run(hostile, threads, Some(&dir), &out, Some(n));
        assert_eq!(
            status.code(),
            Some(CRASH_EXIT_CODE),
            "run armed to crash at boundary {n} exited with {status}"
        );
        let status = spawn_run(hostile, threads, Some(&dir), &out, None);
        assert!(
            status.success(),
            "resume after boundary {n} failed: {status}"
        );
        assert_eq!(
            read(&out),
            baseline,
            "resume after a crash at boundary {n} diverged from the baseline"
        );
        println!("[sweep] kill at boundary {n}/{total}: resume byte-identical");
    }
    println!(
        "[sweep] OK — {} kill points, {} threads, hostile={hostile}",
        kill_points.len(),
        if threads == 0 {
            "default".to_string()
        } else {
            threads.to_string()
        }
    );
    std::fs::remove_dir_all(&scratch).ok();
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut mode_sweep = false;
    let mut ckpt_dir: Option<String> = None;
    let mut out: Option<String> = None;
    let mut hostile = false;
    let mut threads = 0usize;
    let mut points: Option<Vec<u64>> = None;
    let mut stride = 1u64;
    let mut i = 0;
    while i < args.len() {
        let next = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i)
                .unwrap_or_else(|| panic!("missing value after {}", args[*i - 1]))
                .clone()
        };
        match args[i].as_str() {
            "run" => {}
            "--sweep" => mode_sweep = true,
            "--ckpt-dir" => ckpt_dir = Some(next(&mut i)),
            "--out" => out = Some(next(&mut i)),
            "--hostile" => hostile = true,
            "--threads" => threads = next(&mut i).parse().expect("--threads"),
            "--stride" => stride = next(&mut i).parse().expect("--stride"),
            "--points" => {
                points = Some(
                    next(&mut i)
                        .split(',')
                        .map(|s| s.trim().parse().expect("--points"))
                        .collect(),
                )
            }
            other => {
                eprintln!(
                    "unknown argument {other}; usage: ckpt_fixture run|--sweep \
                     [--ckpt-dir DIR] [--out FILE] [--hostile] [--threads N] \
                     [--points a,b,c] [--stride k]"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if mode_sweep {
        sweep(hostile, threads, points, stride);
    } else {
        run(ckpt_dir, out, hostile, threads);
    }
}

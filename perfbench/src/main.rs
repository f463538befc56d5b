//! Command-line entry point of the benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <screen|rescreen_hostile> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run it from the repository root. It prints every metric with its unit,
//! the correctness checks and the run's provenance, writes the same to
//! `perfbench/out/`, and ends with one JSON result line. It exits non-zero
//! when a correctness check fails, and exits with code 2 without a result
//! line when it cannot run at all.

use bprom_perfbench::report::{json_number, json_string, Report};
use bprom_perfbench::trace::Tracer;
use bprom_perfbench::workloads::{self, Context, Workload};
use bprom_perfbench::{host, scenario};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|e| format!("--seconds {value}: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

fn provenance(args: &Args, ctx: &Context) -> String {
    let fields = [
        ("workload", json_string(args.workload.name())),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", args.trace.to_string()),
        ("commit", json_string(&host::commit(&ctx.root))),
        ("source_digest", json_string(&ctx.source_digest)),
        ("nproc", host::nproc().to_string()),
        ("threads", ctx.threads.to_string()),
        ("gemm_path", json_string(host::gemm_path())),
        ("fit_seed", scenario::FIT_SEED.to_string()),
        ("zoo_seed", scenario::ZOO_SEED.to_string()),
        (
            "fleet",
            json_string(&format!(
                "{} clean + {} BadNets ResNetMini",
                scenario::FLEET_CLEAN,
                scenario::FLEET_BACKDOORED
            )),
        ),
        (
            "detector_shadows_per_kind",
            workloads::AUDIT_SHADOWS.to_string(),
        ),
        ("cmaes_generations", scenario::CMAES_GENERATIONS.to_string()),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_string(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn detail_json(report: &Report, provenance: &str) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "    {}: {{\"value\": {}, \"unit\": {}, \"note\": {}}}",
                json_string(m.name),
                json_number(m.value),
                json_string(m.unit),
                json_string(&m.note)
            )
        })
        .collect();
    let checks: Vec<String> = report
        .checks
        .iter()
        .map(|c| {
            format!(
                "    {{\"check\": {}, \"passed\": {}}}",
                json_string(&c.name),
                c.passed
            )
        })
        .collect();
    format!(
        "{{\n  \"provenance\": {provenance},\n  \"attempted\": {},\n  \"failed\": {},\n  \"metrics\": {{\n{}\n  }},\n  \"checks\": [\n{}\n  ]\n}}\n",
        report.attempted,
        report.failed,
        metrics.join(",\n"),
        checks.join(",\n")
    )
}

fn write_outputs(
    args: &Args,
    ctx: &Context,
    report: &Report,
    provenance: &str,
    tracer: Option<&Tracer>,
) -> std::io::Result<()> {
    let dir = ctx.out_dir();
    std::fs::create_dir_all(&dir)?;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    std::fs::write(
        dir.join(format!("{stem}.json")),
        detail_json(report, provenance),
    )?;
    if let Some(tracer) = tracer {
        tracer.write_json(&dir.join(format!("{stem}-spans.json")))?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let overrides = host::program_env_overrides();
    if !overrides.is_empty() {
        eprintln!(
            "perfbench: refusing to run with program settings overridden from the environment: {}",
            overrides.join(", ")
        );
        return ExitCode::from(2);
    }
    let root: PathBuf = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    if !Path::new(&root).join("crates").is_dir() {
        eprintln!("perfbench: run from the repository root (no crates/ here)");
        return ExitCode::from(2);
    }
    let threads = host::nproc();
    bprom_par::set_thread_count(threads);
    let ctx = Context {
        source_digest: host::source_digest(&root),
        root,
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        threads,
    };
    let tracer = args.trace.then(Tracer::new);
    let report = match workloads::run(args.workload, &ctx, tracer.as_ref()) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {} could not run: {e}", args.workload.name());
            return ExitCode::from(2);
        }
    };
    let provenance = provenance(&args, &ctx);
    println!("# perfbench {} (seed {})", args.workload.name(), args.seed);
    for m in &report.metrics {
        println!("{:<40} {:>16.6} {:<8} {}", m.name, m.value, m.unit, m.note);
    }
    for c in &report.checks {
        println!(
            "check {:<4} {}",
            if c.passed { "ok" } else { "FAIL" },
            c.name
        );
    }
    println!("provenance {provenance}");
    if let Err(e) = write_outputs(&args, &ctx, &report, &provenance, tracer.as_ref()) {
        eprintln!("perfbench: could not write outputs: {e}");
    }
    println!("{}", report.result_json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

//! `lightts-e2e-bench`: one end-to-end benchmark of the LightTS
//! reproduction, one named workload per invocation.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload <pipeline|serve_latency|serve_throughput> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every input is generated from `--seed`. The run checks the program's
//! outputs, counts attempted and failed operations, and prints as its last
//! stdout line one JSON object: the end-to-end metrics with `--trace 0`,
//! the per-layer metrics with `--trace 1`. It exits non-zero when any
//! check fails. See `README.md` for what each metric means.

mod measure;
mod pipeline;
mod report;
mod serve;

use measure::max_rss_mb;
use report::{result_line, Checks, Metrics};
use std::time::Instant;

/// End-to-end metrics, printed by every workload with `--trace 0`.
const E2E: [(&str, &str); 4] =
    [("setup_s", "s"), ("op_ms", "ms"), ("cpu_ms_per_op", "ms"), ("max_rss_mb", "MiB")];

/// Per-layer metrics, printed by every workload with `--trace 1`; a layer
/// the workload never enters reads 0.
const LAYERS: [(&str, &str); 38] = [
    ("data.generate_s", "s"),
    ("pipeline.teachers_s", "s"),
    ("pipeline.distill_s", "s"),
    ("pipeline.search_s", "s"),
    ("pipeline.student_acc", "share"),
    ("models.teachers_cpu_s", "s"),
    ("distill.teacher_probs_s", "s"),
    ("distill.aed_runs", "count"),
    ("distill.cpu_s", "s"),
    ("search.oracle_calls", "count"),
    ("search.oracle_s", "s"),
    ("search.model_s", "s"),
    ("search.cpu_s", "s"),
    ("tensor.teachers.conv_fwd_s", "s"),
    ("tensor.teachers.conv_bwd_weight_s", "s"),
    ("tensor.teachers.conv_bwd_input_s", "s"),
    ("tensor.teachers.gemm_s", "s"),
    ("tensor.teachers.unattributed_cpu_s", "s"),
    ("tensor.distill.conv_fwd_s", "s"),
    ("tensor.distill.conv_bwd_weight_s", "s"),
    ("tensor.distill.conv_bwd_input_s", "s"),
    ("tensor.distill.gemm_s", "s"),
    ("tensor.distill.unattributed_cpu_s", "s"),
    ("tensor.search.conv_fwd_s", "s"),
    ("tensor.search.conv_bwd_weight_s", "s"),
    ("tensor.search.conv_bwd_input_s", "s"),
    ("tensor.search.gemm_s", "s"),
    ("tensor.search.unattributed_cpu_s", "s"),
    ("serve.batch_mean", "count"),
    ("serve.service_us_per_batch", "us"),
    ("serve.server_latency_us", "us"),
    ("serve.queue_wait_us", "us"),
    ("net.overhead_us", "us"),
    ("models.plan_f32_b1_us", "us"),
    ("models.plan_i8_b1_us", "us"),
    ("models.plan_f32_b16_us", "us"),
    ("models.plan_i8_b16_us", "us"),
    ("tensor.pool_held_mb", "MiB"),
];

/// Data set-ups timed per pipeline run; `setup_s` is their median.
const PIPELINE_SETUPS: usize = 25;
/// Run length granted to each pipeline: a run makes
/// `max(1, round(seconds / PIPELINE_SLOT_S))` whole pipelines, a count that
/// depends on `--seconds` alone. Three pipelines per 30 s run take about
/// 36 s on a 2-CPU host; the median of three shrugs off one slowed by the
/// rest of the host.
const PIPELINE_SLOT_S: f64 = 10.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

/// Runs the whole pipelines that fit `--seconds` at their nominal length.
fn run_pipeline(args: &Args, checks: &mut Checks, e2e: &mut Metrics, layers: &mut Metrics) {
    let mut splits = None;
    for _ in 0..PIPELINE_SETUPS {
        let t0 = Instant::now();
        splits = Some(pipeline::generate(args.seed));
        let s = t0.elapsed().as_secs_f64();
        e2e.add("setup_s", s);
        layers.add("data.generate_s", s);
    }
    let splits = splits.expect("set up");
    let pipelines = ((args.seconds / PIPELINE_SLOT_S).round() as usize).max(1);
    let start = Instant::now();
    for _ in 0..pipelines {
        lightts_obs::prof::set_enabled(args.trace);
        let run = pipeline::run(&splits, args.seed, checks, layers);
        lightts_obs::prof::set_enabled(false);
        for (name, s) in ["teachers", "distill", "search"].iter().zip(run.phase_s) {
            layers.add(&format!("pipeline.{name}_s"), s);
        }
        e2e.add("op_ms", run.phase_s.iter().sum::<f64>() * 1e3);
        e2e.add("cpu_ms_per_op", run.cpu_s * 1e3);
        if args.trace {
            serve::time_plans(&run.student, &splits.test, layers);
        }
    }
    println!(
        "pipelines: {pipelines} in {:.1} s; phases (s, median): teachers {:.2} distill {:.2} search {:.2}",
        start.elapsed().as_secs_f64(),
        layers.get("pipeline.teachers_s").unwrap_or(0.0),
        layers.get("pipeline.distill_s").unwrap_or(0.0),
        layers.get("pipeline.search_s").unwrap_or(0.0),
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage: --workload <pipeline|serve_latency|serve_throughput> --seed <n> --seconds <s> --trace <0|1>\n{e}");
            std::process::exit(2);
        }
    };
    // End-to-end runs keep span emission and the profiler off whatever
    // the environment says; traced runs switch the profiler on per phase.
    lightts_obs::set_sink(lightts_obs::SinkTarget::Off);
    lightts_obs::prof::set_enabled(false);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "workload {} seed {} seconds {} trace {} nproc {} kernel threads {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc,
        lightts::runtime::num_threads()
    );

    let (mut checks, mut e2e, mut layers) =
        (Checks::default(), Metrics::default(), Metrics::default());
    match args.workload.as_str() {
        "pipeline" => run_pipeline(&args, &mut checks, &mut e2e, &mut layers),
        "serve_latency" => serve::run(1, 1, &args, &mut checks, &mut e2e, &mut layers),
        "serve_throughput" => {
            serve::run(2, serve::PIPELINE_DEPTH, &args, &mut checks, &mut e2e, &mut layers)
        }
        other => {
            eprintln!("unknown workload {other}");
            std::process::exit(2);
        }
    }
    e2e.add("max_rss_mb", max_rss_mb());
    layers.add(
        "tensor.pool_held_mb",
        lightts_tensor::pool::pool_held_bytes() as f64 / (1 << 20) as f64,
    );
    println!("operations: attempted {} failed {}", checks.attempted, checks.failed);
    if args.trace {
        // The traced run's own end-to-end figures, so tracing's cost shows.
        println!("end-to-end while traced: {}", e2e.to_json(&E2E, None).unwrap_or_else(|e| e));
    }
    let metrics =
        if args.trace { layers.to_json(&LAYERS, Some(0.0)) } else { e2e.to_json(&E2E, None) };
    match metrics {
        Ok(m) => println!("{}", result_line(&checks, &m)),
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    }
    if checks.failed > 0 {
        std::process::exit(1);
    }
}

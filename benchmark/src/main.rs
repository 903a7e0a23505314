//! End-to-end benchmark of the automotive CPS workspace.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <campaign_faulty|design_fleet|service_mixed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload makes its inputs from `--seed`, measures for `--seconds`,
//! verifies every output and prints a human-readable report followed, on
//! the last line, by one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. With `--trace 0` the metrics are the end-to-end set; with
//! `--trace 1` the run also records spans around calls into each crate and
//! the metrics are the per-layer set (see `README.md` in this directory).

mod campaign;
mod design;
mod replay;
mod service;
mod specs;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Worker threads, client threads and connections the benchmark may use:
/// sized for a two-core host.
pub const THREADS: usize = 2;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload hands back to `run` for reporting.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (campaigns, designs, requests).
    pub attempted: u64,
    /// Operations that failed or did not verify.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Spans of the traced run, written to the span file.
    pub spans: Vec<trace::Span>,
}

impl Outcome {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records one verification verdict.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            eprintln!("verification failed: {}", what());
        }
    }
}

/// The per-layer metric set, in report order; a traced run reports each,
/// as 0 where its workload does not exercise the layer.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("flexray.bus_ns_per_period", "ns"),
    ("flexray.bus_share", "frac"),
    ("flexray.cycles", "count"),
    ("flexray.frames_sent", "count"),
    ("flexray.frames_lost", "count"),
    ("control.kernel_ns_per_period", "ns"),
    ("control.kernel_share", "frac"),
    ("control.holds", "count"),
    ("control.synth_ms_per_app", "ms"),
    ("control.char_ms_per_app", "ms"),
    ("control.char_share", "frac"),
    ("core.runtime_ns_per_period", "ns"),
    ("core.remainder_ns_per_period", "ns"),
    ("core.tt_demotions", "count"),
    ("core.campaign_overhead_frac", "frac"),
    ("core.campaign_scaling_eff", "frac"),
    ("core.freeze_us", "us"),
    ("sched.construct_us", "us"),
    ("sched.solve_ms", "ms"),
    ("sched.nodes_per_solve", "count"),
    ("sched.nodes_per_s", "1/s"),
    ("sched.greedy_gap", "count"),
    ("sched.scaling_eff", "frac"),
    ("serve.encode_us", "us"),
    ("serve.decode_us", "us"),
    ("serve.hit_rtt_us", "us"),
    ("serve.miss_compute_ms", "ms"),
    ("serve.queue_transport_us", "us"),
    ("serve.cache_hit_frac", "frac"),
    ("serve.shed_frac", "frac"),
    ("serve.deduped", "count"),
    ("serve.generator_late_p99_ms", "ms"),
    ("trace.overhead_frac", "frac"),
];

/// The end-to-end metric set every untraced run reports.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
];

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `setup` `times` times and returns the median wall time in seconds
/// with the last result.
pub fn timed_setup<T>(
    times: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(f64, T), String> {
    let mut durations = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times {
        let start = Instant::now();
        last = Some(setup()?);
        durations.push(start.elapsed().as_secs_f64());
    }
    Ok((
        stats::median(&durations),
        last.expect("at least one set-up"),
    ))
}

/// Prints `name = value unit`, the human-readable form of a metric.
pub fn say(name: &str, value: f64, unit: &str, note: &str) {
    println!("  {name:<30} {value:>14.4} {unit:<6} {note}");
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
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn json_number(value: f64) -> String {
    // Rust's shortest round-trip formatting keeps every significant digit.
    let text = format!("{value}");
    if text.contains(['.', 'e', 'E']) {
        text
    } else {
        format!("{text}.0")
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    println!(
        "workload {} seed {} seconds {} trace {} (available parallelism {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let mut outcome = match args.workload.as_str() {
        "campaign_faulty" => campaign::run(&args)?,
        "design_fleet" => design::run(&args)?,
        "service_mixed" => service::run(&args)?,
        other => return Err(format!("unknown workload {other}")),
    };
    if outcome.attempted == 0 {
        return Err("the workload attempted no operation".to_string());
    }

    // Report exactly the contracted metric set, in contract order.
    let expected = if args.trace { PER_LAYER } else { END_TO_END };
    let mut by_name: BTreeMap<&str, Metric> = outcome
        .metrics
        .drain(..)
        .map(|metric| (metric.name, metric))
        .collect();
    let mut metrics = Vec::with_capacity(expected.len());
    for &(name, unit) in expected {
        let metric = by_name.remove(name).unwrap_or(Metric {
            name,
            value: 0.0,
            unit,
        });
        if metric.unit != unit || !metric.value.is_finite() {
            return Err(format!(
                "metric {name} = {} {} is malformed",
                metric.value, metric.unit
            ));
        }
        metrics.push(metric);
    }
    if let Some(extra) = by_name.keys().next() {
        return Err(format!("metric {extra} is not in the contracted set"));
    }

    if args.trace {
        let path: PathBuf = [
            env!("CARGO_MANIFEST_DIR"),
            "out",
            &format!("spans-{}-{}.csv", args.workload, args.seed),
        ]
        .iter()
        .collect();
        trace::write_spans(&path, &outcome.spans).map_err(|e| format!("span file: {e}"))?;
        println!(
            "\n{} spans written to {}",
            outcome.spans.len(),
            path.display()
        );
    }

    println!(
        "\nattempted {} failed {} failed_frac {}",
        outcome.attempted,
        outcome.failed,
        ratio(outcome.failed as f64, outcome.attempted as f64)
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("benchmark error: {error}");
            ExitCode::FAILURE
        }
    }
}

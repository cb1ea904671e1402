//! End-to-end and per-layer benchmark of the Hive-on-DataMPI runtime.
//!
//! ```text
//! perfbench --workload <batch-datampi|batch-hadoop|serve-mix>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a human-readable report, then as its last line one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. Exits 1 on a
//! wrong result (printing no JSON) and 2 on bad arguments or a failed
//! set-up. See README.md for the workloads and metrics.

mod batch;
mod calib;
mod check;
mod gen;
mod serve;
mod stats;
mod trace;

use hdm_core::{Driver, EngineKind};
use hdm_storage::FormatKind;
use hdm_workloads::hibench::HiBenchConfig;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// TPC-H scale factor of every workload's warehouse.
pub const TPCH_SCALE: f64 = 0.01;
/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// The latency limit `serve_goodput_qps` counts requests within.
pub const LIMIT_MS: f64 = 1000.0;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!("--seconds {}: expected 0 < s <= 600", args.seconds));
    }
    Ok(args)
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Statements and requests sent to the program.
    pub attempted: u64,
    /// Of those: errors, sheds, rejections and cancellations.
    pub failed: u64,
    /// Wrong results; any makes the run exit nonzero.
    pub wrong: Vec<String>,
    /// End-to-end metrics (untraced run) or per-layer ones (traced run).
    pub metrics: Vec<Metric>,
    /// Report lines printed before the JSON.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Record a wrong result, keeping the report short.
    pub fn wrong(&mut self, what: String) {
        if self.wrong.len() < 20 {
            self.wrong.push(what);
        }
    }
}

/// Load the shared warehouse: TPC-H at [`TPCH_SCALE`] in ORC plus the
/// default-size HiBench tables, both from seeds derived from `seed`.
pub fn load_warehouse(seed: u64) -> hdm_common::error::Result<Driver> {
    let mut driver = Driver::in_memory();
    hdm_workloads::tpch::load(
        &mut driver,
        TPCH_SCALE,
        gen::stream_seed(seed, gen::TPCH_STREAM),
        FormatKind::Orc,
    )?;
    let hibench = HiBenchConfig {
        seed: gen::stream_seed(seed, gen::HIBENCH_STREAM),
        ..HiBenchConfig::default()
    };
    hdm_workloads::hibench::load(&mut driver, &hibench)?;
    Ok(driver)
}

/// Run `build` `times` times; return the last product and the median
/// wall time in seconds.
pub fn timed_setups<T>(
    times: usize,
    mut build: impl FnMut() -> hdm_common::error::Result<T>,
) -> hdm_common::error::Result<(T, f64)> {
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times.max(1) {
        // Drop the previous product first so set-ups do not stack up.
        drop(last.take());
        let t = Instant::now();
        last = Some(build()?);
        secs.push(t.elapsed().as_secs_f64());
    }
    let median = stats::median(&secs).expect("at least one set-up ran");
    Ok((last.expect("at least one set-up ran"), median))
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn json_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run = match args.workload.as_str() {
        "batch-datampi" => batch::run(&args, EngineKind::DataMpi),
        "batch-hadoop" => batch::run(&args, EngineKind::Hadoop),
        "serve-mix" => serve::run(&args),
        other => Err(format!("unknown workload {other:?}")),
    };
    let outcome = match run {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for line in &outcome.notes {
        println!("{line}");
    }
    if !outcome.wrong.is_empty() {
        for w in &outcome.wrong {
            eprintln!("perfbench: WRONG RESULT: {w}");
        }
        return ExitCode::from(1);
    }
    if let Some(m) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("perfbench: metric {} is not finite", m.name);
        return ExitCode::from(2);
    }
    for m in &outcome.metrics {
        println!("{:<34} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!("{}", json_line(&outcome));
    ExitCode::SUCCESS
}

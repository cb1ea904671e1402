//! `batch-datampi` and `batch-hadoop`: one session, closed loop. Each
//! pass runs the 22 TPC-H scripts in order, then HiBench AGGREGATE and
//! JOIN, through `Driver::execute_on` at the shipped defaults.

use crate::calib::{self, Calibration};
use crate::check::{canonical_text, digest, ends_ordered, normalized_text};
use crate::trace::{self, Layers, ThreadSampler, Totals};
use crate::{load_warehouse, metric, ms, stats, timed_setups, Args, Outcome, LIMIT_MS, SETUPS};
use hdm_common::conf::KEY_OBS_ENABLED;
use hdm_core::{Driver, EngineKind, QueryResult};
use std::time::{Duration, Instant};

/// The seed whose result digests are pinned below.
const PINNED_SEED: u64 = 1;

/// Canonical result digests of every script for [`PINNED_SEED`], on
/// which both engines agree. A pass on either engine must reproduce them.
const PINNED: [(&str, u64); 24] = [
    ("q1", 0xe2e212955472c365),
    ("q2", 0x9e8a233489c327f3),
    ("q3", 0x5536111e2e46f94e),
    ("q4", 0x989934b4669bc2dd),
    ("q5", 0xb7793a3de17ad582),
    ("q6", 0x18269566f8fc62ea),
    ("q7", 0x8691d81533feb4f5),
    ("q8", 0x6cd3df5143b5e732),
    ("q9", 0x359adbed0cd9ff82),
    ("q10", 0xa91b5534d70de176),
    ("q11", 0x102129b4b1fa56b8),
    ("q12", 0xdfe8fae56b6a4f7a),
    ("q13", 0x1394b2d369e6fe15),
    ("q14", 0xaa019ef9b37c55d0),
    ("q15", 0x5c64e419a4b30d8c),
    ("q16", 0x8261c4dfbc55962c),
    ("q17", 0x12c374fdec3e28cc),
    ("q18", 0x0b4e244b7143a760),
    ("q19", 0x04812e968d1d8416),
    ("q20", 0xb4a1c9aecc9d1098),
    ("q21", 0x8f5266774c6c5775),
    ("q22", 0x4cdc9470da0dfcee),
    ("hibench-aggregate", 0x7c2e727ce93b4603),
    ("hibench-join", 0x260c654a0c535e80),
];

struct Script {
    name: String,
    sql: &'static str,
    ordered: bool,
}

fn suite() -> Vec<Script> {
    let tpch = hdm_workloads::tpch::queries::all()
        .map(|n| (format!("q{n}"), hdm_workloads::tpch::queries::query(n)));
    let hibench = [
        (
            "hibench-aggregate".to_string(),
            hdm_workloads::hibench::aggregate_query(),
        ),
        (
            "hibench-join".to_string(),
            hdm_workloads::hibench::join_query(),
        ),
    ];
    tpch.chain(hibench)
        .map(|(name, sql)| Script {
            name,
            sql,
            ordered: ends_ordered(sql),
        })
        .collect()
}

/// Digests of one script's result: of its exact text, which must repeat
/// pass after pass on one engine, and of its canonical text, which both
/// engines must agree on.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Digests {
    exact: u64,
    canonical: u64,
}

fn digests(result: &QueryResult, ordered: bool) -> Digests {
    Digests {
        exact: digest(&normalized_text(result, ordered)),
        canonical: digest(&canonical_text(result, ordered)),
    }
}

/// One pass: per script its latency and result digests (or error), plus
/// the pass's wall time.
struct Pass {
    runs: Vec<(f64, Result<Digests, String>)>,
    wall_s: f64,
}

fn run_pass(driver: &Driver, engine: EngineKind, scripts: &[Script]) -> Pass {
    let start = Instant::now();
    let runs = scripts
        .iter()
        .map(|s| {
            let t = Instant::now();
            let result = driver.execute_on(s.sql, engine);
            let latency = ms(t.elapsed());
            (
                latency,
                result
                    .map(|r| digests(&r, s.ordered))
                    .map_err(|e| e.to_string()),
            )
        })
        .collect();
    Pass {
        runs,
        wall_s: start.elapsed().as_secs_f64(),
    }
}

/// A pass statement by statement, with bench-side spans around
/// `trace::compile` and `Driver::execute_on`, `hive.obs` on, and each
/// query's obs snapshot kept for the roll-up after the pass.
fn run_traced_pass(
    driver: &mut Driver,
    engine: EngineKind,
    scripts: &[Script],
    totals: &mut Totals,
    layers: &mut Layers,
) -> Pass {
    driver.conf_mut().set(KEY_OBS_ENABLED, "true");
    let dfs = driver.dfs().clone();
    let metrics = dfs.metrics();
    let (read0, write0, (_, remote0)) = (
        metrics.total_bytes_read(),
        metrics.total_bytes_written(),
        metrics.locality_counts(),
    );
    let mut snapshots = Vec::new();
    let start = Instant::now();
    let runs = scripts
        .iter()
        .map(|s| {
            let t = Instant::now();
            let mut last = Err("empty script".to_string());
            for stmt in s.sql.split(';').map(str::trim).filter(|t| !t.is_empty()) {
                let c = Instant::now();
                let compiled = trace::compile(stmt, driver.metastore());
                totals.compile_ms += ms(c.elapsed());
                if let Err(e) = compiled {
                    last = Err(format!("compile: {e}"));
                    break;
                }
                let c = Instant::now();
                let result = driver.execute_on(stmt, engine);
                totals.call_ms += ms(c.elapsed());
                match result {
                    Ok(r) => {
                        if !r.stages.is_empty() {
                            snapshots.extend(driver.last_obs_snapshot());
                            let (stages, tasks) = trace::stage_counts(&r);
                            totals.stages += stages;
                            totals.tasks += tasks;
                        }
                        last = Ok(r);
                    }
                    Err(e) => {
                        last = Err(e.to_string());
                        break;
                    }
                }
            }
            let latency = ms(t.elapsed());
            (latency, last.map(|r| digests(&r, s.ordered)))
        })
        .collect();
    let wall_s = start.elapsed().as_secs_f64();
    driver.conf_mut().set(KEY_OBS_ENABLED, "false");
    for snap in &snapshots {
        layers.absorb(snap);
    }
    totals.requests += scripts.len() as u64;
    totals.wall_ms += wall_s * 1e3;
    totals.dfs_read += metrics.total_bytes_read() - read0;
    totals.dfs_write += metrics.total_bytes_written() - write0;
    totals.dfs_remote += metrics.locality_counts().1 - remote0;
    Pass { runs, wall_s }
}

/// Count errors and check every result against the expected exact
/// digests.
fn check(out: &mut Outcome, scripts: &[Script], pass: &Pass, expect: &[u64], label: &str) {
    for ((script, (_, got)), want) in scripts.iter().zip(&pass.runs).zip(expect) {
        out.attempted += 1;
        match got {
            Ok(d) if d.exact == *want => {}
            Ok(d) => out.wrong(format!(
                "{} {label}: digest {:016x}, first pass {want:016x}",
                script.name, d.exact
            )),
            Err(e) => {
                out.failed += 1;
                out.note(format!("error: {} {label}: {e}", script.name));
            }
        }
    }
}

fn other(engine: EngineKind) -> EngineKind {
    match engine {
        EngineKind::DataMpi => EngineKind::Hadoop,
        EngineKind::Hadoop => EngineKind::DataMpi,
    }
}

pub fn run(args: &Args, engine: EngineKind) -> Result<Outcome, String> {
    let scripts = suite();
    let setups = if args.trace { 1 } else { SETUPS };
    let mut cal = Calibration::default();
    if !args.trace {
        cal.sample();
    }
    let (mut driver, setup_s) =
        timed_setups(setups, || load_warehouse(args.seed)).map_err(|e| format!("set-up: {e}"))?;
    let mut out = Outcome::default();

    // The reference: one pass on the other engine, outside the timed
    // interval. The measured engine's first pass must agree with it up to
    // float rounding, and every later pass must repeat the first exactly.
    let reference = run_pass(&driver, other(engine), &scripts);
    let warm = run_pass(&driver, engine, &scripts);
    let mut expect = Vec::with_capacity(scripts.len());
    for (i, s) in scripts.iter().enumerate() {
        let theirs = reference.runs[i].1.as_ref();
        let ours = warm.runs[i].1.as_ref();
        let (theirs, ours) = match (theirs, ours) {
            (Ok(t), Ok(o)) => (t, o),
            (Err(e), _) | (_, Err(e)) => return Err(format!("reference pass, {}: {e}", s.name)),
        };
        if theirs.canonical != ours.canonical {
            out.wrong(format!(
                "{}: {} digest {:016x}, {} digest {:016x}",
                s.name,
                engine.name(),
                ours.canonical,
                other(engine).name(),
                theirs.canonical
            ));
        }
        if args.seed == PINNED_SEED && (PINNED[i].0 != s.name || PINNED[i].1 != ours.canonical) {
            out.wrong(format!(
                "{}: digest {:016x}, pinned {:016x}",
                s.name, ours.canonical, PINNED[i].1
            ));
        }
        expect.push(ours.exact);
    }
    out.attempted += scripts.len() as u64;

    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut totals = Totals::default();
    let mut layers = Layers::default();
    while plain.is_empty() || traced.is_empty() && args.trace || Instant::now() < deadline {
        // The traced run alternates untraced and traced passes, so the
        // overhead compares passes under the same conditions.
        if args.trace && plain.len() > traced.len() {
            let sampler = ThreadSampler::start();
            let pass = run_traced_pass(&mut driver, engine, &scripts, &mut totals, &mut layers);
            totals.peak_threads = totals.peak_threads.max(sampler.finish());
            check(&mut out, &scripts, &pass, &expect, "traced pass");
            traced.push(pass);
        } else {
            if !args.trace {
                cal.sample();
            }
            let pass = run_pass(&driver, engine, &scripts);
            check(&mut out, &scripts, &pass, &expect, "pass");
            plain.push(pass);
        }
    }

    let suite_s = |passes: &[Pass]| {
        stats::median(&passes.iter().map(|p| p.wall_s).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    out.note(format!(
        "workload {} seed {} engine {} passes {} (+{} traced), reference {} pass {:.3} s",
        args.workload,
        args.seed,
        engine.name(),
        plain.len(),
        traced.len(),
        other(engine).name(),
        reference.wall_s
    ));
    let mut per_script = Vec::new();
    for (i, s) in scripts.iter().enumerate() {
        let lat: Vec<f64> = plain
            .iter()
            .filter_map(|p| p.runs[i].1.is_ok().then_some(p.runs[i].0))
            .collect();
        let med = stats::median(&lat).unwrap_or(0.0);
        let canonical = warm.runs[i].1.as_ref().map_or(0, |d| d.canonical);
        out.note(format!(
            "  {:<18} median {:>9.3} ms  digest {canonical:016x}",
            s.name, med
        ));
        per_script.push(med);
    }
    let failed_ratio = out.failed as f64 / out.attempted.max(1) as f64;
    out.note(format!(
        "failed_ratio {failed_ratio} ({} of {})",
        out.failed, out.attempted
    ));

    if args.trace {
        let overhead = suite_s(&traced) / suite_s(&plain) - 1.0;
        totals.overhead_pct = overhead * 100.0;
        totals.layers = layers;
        totals.exec_ms = totals.call_ms;
        out.metrics = totals.metrics();
        return Ok(out);
    }

    let latencies: Vec<f64> = plain
        .iter()
        .flat_map(|p| p.runs.iter().filter(|r| r.1.is_ok()).map(|r| r.0))
        .collect();
    // Goodput per pass, then its median, so that a pass the host stalled
    // weighs no more than any other.
    let goodput: Vec<f64> = plain
        .iter()
        .map(|p| {
            let within = p.runs.iter().filter(|r| r.1.is_ok() && r.0 <= LIMIT_MS);
            within.count() as f64 / p.wall_s
        })
        .collect();
    let tail = stats::tail(&latencies).ok_or("too few statements for a tail percentile")?;
    out.note(format!(
        "serve_tail_ms is p{:.2} of {} statements ({} beyond)",
        tail.pct, tail.n, tail.beyond
    ));
    let suite = suite_s(&plain);
    if let Some(q) = stats::quartiles(&plain.iter().map(|p| p.wall_s).collect::<Vec<_>>()) {
        out.note(format!(
            "pass wall s: q1 {:.4} median {:.4} q3 {:.4}",
            q.q1, q.median, q.q3
        ));
    }
    out.note(format!(
        "suite ratio {} / {}: {:.3} (single reference pass, information only)",
        other(engine).name(),
        engine.name(),
        reference.wall_s / suite
    ));
    out.note(cal.note());
    let raw = vec![
        metric("setup_s", setup_s, "s"),
        metric("suite_s", suite, "s"),
        metric(
            "geomean_ms",
            stats::geomean(&per_script).ok_or("a script never completed")?,
            "ms",
        ),
        metric(
            "serve_p50_ms",
            stats::median(&latencies).ok_or("no statement completed")?,
            "ms",
        ),
        metric("serve_tail_ms", tail.value, "ms"),
        metric(
            "serve_goodput_qps",
            stats::median(&goodput).ok_or("no pass completed")?,
            "1/s",
        ),
        metric("peak_rss_mb", trace::peak_rss_mb(), "MB"),
    ];
    // Goodput is scripts per second of program work, so it scales too.
    calib::to_reference(&mut out, raw, cal.factor()?, &["serve_goodput_qps"]);
    Ok(out)
}

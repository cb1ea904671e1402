//! `serve-mix`: `HdmServer` over the batch warehouse, a DataMPI session,
//! open loop. Requests arrive on a seeded schedule at a fixed offered
//! rate; one that falls due while the session is busy waits client-side,
//! and latency counts from each request's due time.

use crate::calib::{self, Calibration};
use crate::check::normalized_text;
use crate::gen::{self, Arrival, Kind, Mix, Rng, EVENTS_DDL, EVENTS_TABLE};
use crate::trace::{self, Layers, ThreadSampler, Totals};
use crate::{load_warehouse, metric, ms, stats, timed_setups, Args, Outcome, LIMIT_MS, SETUPS};
use hdm_common::conf::KEY_OBS_ENABLED;
use hdm_core::{Driver, EngineKind};
use hdm_obs::ObsSnapshot;
use hdm_server::HdmServer;
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Open-loop sessions. One: with two, requests that overlapped a request
/// on the other session contended for the two cores as the host happened
/// to schedule them, and the tail moved 2x between runs of one build.
/// README.md gives the measurements.
const SESSIONS: usize = 1;
/// Threads that compute the solo baselines, after the timed interval:
/// one per core of the 2-core reference machine.
const BASELINE_THREADS: usize = 2;
/// Offered load: about 0.2x of the mix's 1-session capacity on the
/// reference machine, so that neither the host's own speed swings nor
/// a one-second stall of the host delays the ten requests the tail
/// percentile leaves beyond it. README.md gives the measurements.
const RATE_QPS: f64 = 8.0;
/// Closed-loop passes over the TPC-H read templates, half before the
/// open loop and half after it, so that they sample the host's speed at
/// both ends of the run; they give `suite_s` and `geomean_ms`.
const POWER_PASSES: usize = 30;
/// The open loop runs this long before the measured interval starts, so
/// the result and io caches fill first; its answers are checked but not
/// measured.
const WARM_OPEN_LOOP: Duration = Duration::from_secs(5);
/// Lead time between scheduling the first arrival and its due time.
const START_SLACK: Duration = Duration::from_millis(50);
/// The untraced open loop takes a calibration sample (a few ms) while
/// its session idles, when the next request is due at least this much
/// later, and at most once per [`CALIBRATE_EVERY`].
const CALIBRATE_SLACK: Duration = Duration::from_millis(50);
const CALIBRATE_EVERY: Duration = Duration::from_secs(1);
const ENGINE: EngineKind = EngineKind::DataMpi;

/// One request as the client saw it.
struct Served {
    request: gen::Request,
    due: Instant,
    sent: Instant,
    done: Instant,
    /// The result as exact text, or the error.
    result: Result<String, String>,
    /// How late an idle session woke for the request, ms.
    lag_ms: Option<f64>,
    traced: Option<TraceRec>,
}

#[derive(Default)]
struct TraceRec {
    compile_ms: f64,
    call_ms: f64,
    snapshot: Option<ObsSnapshot>,
    stages: u64,
    tasks: u64,
}

impl Served {
    fn latency_ms(&self) -> f64 {
        ms(self.done - self.due)
    }
}

fn execute(
    session: &hdm_server::Session,
    request: &gen::Request,
    traced: bool,
) -> (Result<String, String>, Option<TraceRec>) {
    let mut rec = None;
    if traced {
        let t = Instant::now();
        let compiled = trace::compile(&request.sql, session.driver().metastore());
        rec = Some(TraceRec {
            compile_ms: ms(t.elapsed()),
            ..TraceRec::default()
        });
        if let Err(e) = compiled {
            return (Err(format!("compile: {e}")), rec);
        }
    }
    let t = Instant::now();
    let result = session.execute_on(&request.sql, ENGINE);
    if let Some(rec) = &mut rec {
        rec.call_ms = ms(t.elapsed());
        if let Ok(r) = &result {
            if !r.stages.is_empty() {
                rec.snapshot = session.driver().last_obs_snapshot();
                (rec.stages, rec.tasks) = trace::stage_counts(r);
            }
        }
    }
    (
        result
            .map(|r| normalized_text(&r, true))
            .map_err(|e| e.to_string()),
        rec,
    )
}

/// Run a schedule open-loop over [`SESSIONS`] sessions. Returns what was
/// served and, untraced, the calibration samples taken on the way.
fn open_loop(server: &HdmServer, arrivals: &[Arrival], traced: bool) -> (Vec<Served>, Vec<f64>) {
    let start = Instant::now() + START_SLACK;
    let next = AtomicUsize::new(0);
    let mut served = Vec::new();
    let mut samples = Vec::new();
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..SESSIONS)
            .map(|w| {
                let next = &next;
                s.spawn(move || {
                    let mut session = server.session(&format!("tenant{w}"));
                    if traced {
                        session.conf_mut().set(KEY_OBS_ENABLED, "true");
                    }
                    let mut mine = Vec::new();
                    let mut samples = Vec::new();
                    let mut sampled: Option<Instant> = None;
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let Some(arrival) = arrivals.get(i) else {
                            break;
                        };
                        let due = start + arrival.due;
                        let now = Instant::now();
                        if !traced
                            && due > now + CALIBRATE_SLACK
                            && sampled.is_none_or(|t| now - t >= CALIBRATE_EVERY)
                        {
                            samples.push(calib::sample());
                            sampled = Some(now);
                        }
                        let now = Instant::now();
                        let lag_ms = (now < due).then(|| {
                            std::thread::sleep(due - now);
                            ms(Instant::now() - due)
                        });
                        let sent = Instant::now();
                        let (result, rec) = execute(&session, &arrival.request, traced);
                        mine.push((
                            i,
                            Served {
                                request: arrival.request.clone(),
                                due,
                                sent,
                                done: Instant::now(),
                                result,
                                lag_ms,
                                traced: rec,
                            },
                        ));
                    }
                    (mine, samples)
                })
            })
            .collect();
        for w in workers {
            let (mine, mut theirs) = w.join().expect("session worker panicked");
            served.extend(mine);
            samples.append(&mut theirs);
        }
    });
    served.sort_by_key(|(i, _)| *i);
    (served.into_iter().map(|(_, s)| s).collect(), samples)
}

/// Closed-loop passes over the TPC-H read templates, through one
/// session, with texts the open loop rarely draws: pass `p` runs each
/// template's `p`-th least popular text, after a calibration sample.
/// Returns each pass's wall time and the session's obs track.
fn power_passes(
    server: &HdmServer,
    mix: &Mix,
    passes: Range<usize>,
    out: &mut Vec<Served>,
    cal: &mut Calibration,
) -> (Vec<f64>, String) {
    let session = server.session("power");
    let walls = passes
        .map(|p| {
            cal.sample();
            let start = Instant::now();
            for kind in Kind::TPCH {
                let request = gen::Request {
                    kind,
                    sql: mix.cold_text(kind, p),
                    v: 0,
                    k: 0,
                };
                let sent = Instant::now();
                let (result, _) = execute(&session, &request, false);
                out.push(Served {
                    request,
                    due: sent,
                    sent,
                    done: Instant::now(),
                    result,
                    lag_ms: None,
                    traced: None,
                });
            }
            start.elapsed().as_secs_f64()
        })
        .collect();
    (walls, format!("session{}", session.id()))
}

/// Check every answer. TPC-H reads must match a solo run of the same
/// text with the server's caches out of the way, byte for byte; reads of
/// the events table must see every insert acknowledged before they were
/// sent and none sent after they completed.
fn verify(out: &mut Outcome, base: &Driver, phases: &[&[Served]]) {
    base.dfs().attach_read_cache(None);
    let baselines = solo_baselines(base, phases);
    for phase in phases {
        for s in phase.iter() {
            out.attempted += 1;
            let got = match &s.result {
                Ok(text) => text,
                Err(e) => {
                    out.failed += 1;
                    out.note(format!("error: {}: {e}", s.request.kind.name()));
                    continue;
                }
            };
            match s.request.kind {
                Kind::Insert => {}
                Kind::Events => check_events(out, s, got, phase),
                _ => match &baselines[s.request.sql.as_str()] {
                    Ok(want) if want == got => {}
                    Ok(want) => out.wrong(format!(
                        "{}: served {got:?}, solo baseline {want:?} for {}",
                        s.request.kind.name(),
                        s.request.sql
                    )),
                    Err(e) => out.wrong(format!("solo baseline failed: {e}: {}", s.request.sql)),
                },
            }
        }
    }
}

/// Run every distinct TPC-H read text once, solo on `base`, split over
/// [`BASELINE_THREADS`] threads.
fn solo_baselines<'a>(
    base: &Driver,
    phases: &[&'a [Served]],
) -> HashMap<&'a str, Result<String, String>> {
    let mut texts: Vec<&str> = phases
        .iter()
        .flat_map(|p| p.iter())
        .filter(|s| Kind::TPCH.contains(&s.request.kind))
        .map(|s| s.request.sql.as_str())
        .collect();
    texts.sort_unstable();
    texts.dedup();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..BASELINE_THREADS)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    while let Some(sql) = texts.get(next.fetch_add(1, Ordering::SeqCst)) {
                        let result = base
                            .execute_on(sql, ENGINE)
                            .map(|r| normalized_text(&r, true))
                            .map_err(|e| e.to_string());
                        mine.push((*sql, result));
                    }
                    mine
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("baseline worker panicked"))
            .collect()
    })
}

fn check_events(out: &mut Outcome, read: &Served, got: &str, phase: &[Served]) {
    // Per inserted value: rows that must be visible, and rows that may be.
    let mut bounds = [(0u64, 0u64); gen::INSERT_VALUES + 1];
    for s in phase
        .iter()
        .filter(|s| s.request.kind == Kind::Insert && s.request.v >= read.request.v)
    {
        let b = &mut bounds[s.request.v as usize];
        if s.result.is_ok() && s.done < read.sent {
            b.0 += 1;
        }
        if s.sent < read.done {
            b.1 += 1;
        }
    }
    let mut seen = [0u64; gen::INSERT_VALUES + 1];
    let mut parsed = true;
    for line in got.lines().skip(1) {
        match line
            .split_once('\t')
            .map(|(v, n)| (v.parse::<usize>(), n.parse::<u64>()))
        {
            Some((Ok(v), Ok(n))) if v < seen.len() => seen[v] = n,
            _ => parsed = false,
        }
    }
    let consistent = bounds
        .iter()
        .zip(seen)
        .all(|((lo, hi), n)| (*lo..=*hi).contains(&n));
    if !parsed || !consistent {
        out.wrong(format!(
            "{}: got {got:?}, visible-row bounds per v {:?}",
            read.request.sql,
            bounds
                .iter()
                .enumerate()
                .filter(|(_, b)| b.1 > 0)
                .collect::<Vec<_>>()
        ));
    }
}

/// A fresh server over `base`'s warehouse with an empty events table.
fn start_server(base: &Driver) -> hdm_common::error::Result<HdmServer> {
    base.execute(&format!("DROP TABLE IF EXISTS {EVENTS_TABLE}"))?;
    base.execute(EVENTS_DDL)?;
    HdmServer::over(base.session())
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let setups = if args.trace { 1 } else { SETUPS };
    let mut cal = Calibration::default();
    cal.sample();
    let ((base, server), setup_s) = timed_setups(setups, || {
        let base = load_warehouse(args.seed)?;
        let server = start_server(&base)?;
        Ok((base, server))
    })
    .map_err(|e| format!("set-up: {e}"))?;

    let seed = gen::stream_seed(args.seed, gen::SCHEDULE_STREAM);
    let mut mix = Mix::new(seed);
    let mut rng = Rng::new(seed ^ 0x5eed);
    // The traced run splits its time between an untraced and a traced
    // phase over the same schedule, each on a fresh server.
    let span = Duration::from_secs_f64(if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    });
    let count = (RATE_QPS * (WARM_OPEN_LOOP + span).as_secs_f64())
        .round()
        .max(1.0) as usize;
    let arrivals = gen::schedule(&mut mix, count, WARM_OPEN_LOOP + span, &mut rng);
    let mut out = Outcome::default();
    out.note(format!(
        "workload serve-mix seed {} sessions {SESSIONS} rate {RATE_QPS} qps, {count} arrivals over {:.1} s ({:.1} s measured), {} distinct read texts",
        args.seed,
        (WARM_OPEN_LOOP + span).as_secs_f64(),
        span.as_secs_f64(),
        mix.distinct_texts()
    ));

    let mut warm = Vec::new();
    let half = POWER_PASSES / 2;
    let (mut passes, _) = power_passes(&server, &mix, 0..half, &mut warm, &mut cal);
    let (plain, samples) = open_loop(&server, &arrivals, false);
    cal.extend(samples);
    // The measured interval: arrivals due after the open-loop warm-up.
    let first = arrivals.partition_point(|a| a.due < WARM_OPEN_LOOP);
    let plain_stats = server.stats();

    if args.trace {
        drop(server);
        let server = start_server(&base).map_err(|e| format!("server restart: {e}"))?;
        let mut warm2 = Vec::new();
        let (_, warm_track) = power_passes(&server, &mix, 0..half, &mut warm2, &mut cal);
        let metrics = base.dfs().metrics();
        let (read0, write0, (_, remote0)) = (
            metrics.total_bytes_read(),
            metrics.total_bytes_written(),
            metrics.locality_counts(),
        );
        let before = server.stats();
        let sampler = ThreadSampler::start();
        let (traced, _) = open_loop(&server, &arrivals, true);
        let mut totals = Totals {
            peak_threads: sampler.finish(),
            dfs_read: metrics.total_bytes_read() - read0,
            dfs_write: metrics.total_bytes_written() - write0,
            dfs_remote: metrics.locality_counts().1 - remote0,
            ..Totals::default()
        };
        let after = server.stats();
        totals.result_hits = after.result_hits - before.result_hits;
        totals.result_lookups = totals.result_hits + after.result_misses - before.result_misses;
        if let (Some(io), Some(io0)) = (after.io, before.io) {
            totals.io_hits = io.hits - io0.hits;
            totals.io_lookups = totals.io_hits + io.misses - io0.misses;
        }
        totals.shed = after.shed - before.shed;
        let mut layers = Layers::default();
        let server_obs = server.obs_snapshot();
        layers.dropped_spans += server_obs.dropped_spans;
        // The warm-up session is not part of the traced interval.
        for span in server_obs.spans.iter().filter(|s| s.track != warm_track) {
            match span.name.as_str() {
                "admit" => totals.admit_ms += span.dur_us as f64 / 1e3,
                "exec" => totals.server_exec_ms += span.dur_us as f64 / 1e3,
                _ => {}
            }
        }
        let lags: Vec<f64> = traced.iter().filter_map(|s| s.lag_ms).collect();
        totals.gen_lag_ms = lag_metric(&lags);
        for s in &traced {
            totals.requests += 1;
            totals.wall_ms += s.latency_ms();
            totals.client_queue_ms += ms(s.sent - s.due);
            if let Some(rec) = &s.traced {
                totals.compile_ms += rec.compile_ms;
                totals.call_ms += rec.call_ms;
                totals.stages += rec.stages;
                totals.tasks += rec.tasks;
                if let Some(snap) = &rec.snapshot {
                    layers.absorb(snap);
                }
            }
        }
        totals.exec_ms = totals.server_exec_ms;
        totals.layers = layers;
        let p50 = |v: &[Served]| {
            stats::median(&v.iter().map(Served::latency_ms).collect::<Vec<_>>()).unwrap_or(0.0)
        };
        totals.overhead_pct = (p50(&traced[first..]) / p50(&plain[first..]) - 1.0) * 100.0;
        verify(&mut out, &base, &[&warm, &plain, &warm2, &traced]);
        out.metrics = totals.metrics();
        return Ok(out);
    }

    passes.extend(power_passes(&server, &mix, half..POWER_PASSES, &mut warm, &mut cal).0);
    drop(server);
    let t = Instant::now();
    verify(&mut out, &base, &[&warm, &plain]);
    out.note(format!("verified in {:.3} s", t.elapsed().as_secs_f64()));
    let measured = &plain[first..];
    let ok: Vec<&Served> = measured.iter().filter(|s| s.result.is_ok()).collect();
    let latencies: Vec<f64> = ok.iter().map(|s| s.latency_ms()).collect();
    let tail = stats::tail(&latencies).ok_or("too few requests for a tail percentile")?;
    let open = by_kind(ok.iter().copied());
    let closed = by_kind(warm.iter().filter(|s| s.result.is_ok()));
    // geomean_ms is TPC-H power style: over the read templates, each
    // one's median in the closed-loop passes, where it runs alone.
    let mut read_medians = Vec::new();
    for kind in Kind::ALL {
        let lat = open.get(&kind).map(Vec::as_slice).unwrap_or(&[]);
        let med = stats::median(lat).ok_or(format!("no {} request completed", kind.name()))?;
        let mut line = format!(
            "  {:<8} open loop n {:>4} median {:>9.3} ms",
            kind.name(),
            lat.len(),
            med
        );
        if let Some(alone) = closed.get(&kind).and_then(|l| stats::median(l)) {
            line += &format!("  closed loop median {alone:>9.3} ms");
            if Kind::TPCH.contains(&kind) {
                read_medians.push(alone);
            }
        }
        out.note(line);
    }
    let within = latencies.iter().filter(|l| **l <= LIMIT_MS).count();
    // The measured interval runs from the first due time to the last
    // completion, so a backlog that drains late lowers goodput.
    let first_due = measured
        .iter()
        .map(|s| s.due)
        .min()
        .ok_or("empty schedule")?;
    let last_done = measured
        .iter()
        .map(|s| s.done)
        .max()
        .ok_or("empty schedule")?;
    let interval_s = (last_done - first_due).as_secs_f64();
    out.note(format!(
        "open loop: {} completed in {interval_s:.3} s, {:.2} qps achieved",
        ok.len(),
        ok.len() as f64 / interval_s
    ));
    let failed_ratio = out.failed as f64 / out.attempted.max(1) as f64;
    out.note(format!(
        "failed_ratio {failed_ratio} ({} of {})",
        out.failed, out.attempted
    ));
    out.note(format!(
        "serve_tail_ms is p{:.2} of {} requests ({} beyond); result cache {} hits / {} lookups; gen lag {:.3} ms",
        tail.pct,
        tail.n,
        tail.beyond,
        plain_stats.result_hits,
        plain_stats.result_hits + plain_stats.result_misses,
        lag_metric(&measured.iter().filter_map(|s| s.lag_ms).collect::<Vec<_>>())
    ));
    out.note(cal.note());
    let raw = vec![
        metric("setup_s", setup_s, "s"),
        metric(
            "suite_s",
            stats::median(&passes).ok_or("no warm-up pass")?,
            "s",
        ),
        metric(
            "geomean_ms",
            stats::geomean(&read_medians).ok_or("a read template never completed")?,
            "ms",
        ),
        metric(
            "serve_p50_ms",
            stats::median(&latencies).ok_or("no request completed")?,
            "ms",
        ),
        metric("serve_tail_ms", tail.value, "ms"),
        metric("serve_goodput_qps", within as f64 / interval_s, "1/s"),
        metric("peak_rss_mb", trace::peak_rss_mb(), "MB"),
    ];
    // Goodput follows the offered schedule, not the host, so it stays
    // as measured.
    calib::to_reference(&mut out, raw, cal.factor()?, &[]);
    Ok(out)
}

/// Latencies of served requests by kind.
fn by_kind<'a>(served: impl Iterator<Item = &'a Served>) -> BTreeMap<Kind, Vec<f64>> {
    let mut kinds: BTreeMap<Kind, Vec<f64>> = BTreeMap::new();
    for s in served {
        kinds
            .entry(s.request.kind)
            .or_default()
            .push(s.latency_ms());
    }
    kinds
}

/// The tail of the generator's wake-up lateness, or its maximum when too
/// few requests found a session idle.
fn lag_metric(lags: &[f64]) -> f64 {
    stats::tail(lags)
        .map(|t| t.value)
        .unwrap_or_else(|| lags.iter().copied().fold(0.0, f64::max))
}

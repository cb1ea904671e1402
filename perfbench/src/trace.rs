//! The traced run's roll-up: bench-side spans around the public calls,
//! the program's own `hive.obs` spans and counters folded into named
//! per-layer metrics, a wall-time attribution that adds up, and a
//! thread-count sampler.

use crate::{metric, Metric};
use hdm_common::error::Result;
use hdm_core::ast::Statement;
use hdm_core::catalog::Metastore;
use hdm_core::physical::StageOutput;
use hdm_core::QueryResult;
use hdm_obs::{ObsSnapshot, SpanEvent};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Compile one statement through the public front-end entry points —
/// `parse_script`, `logical::analyze`, `physical::plan_select` and
/// `optimizer::optimize_stage` — so the traced run can time the compile
/// layer on its own. Statements that plan nothing compile to nothing.
pub fn compile(sql: &str, metastore: &Metastore) -> Result<()> {
    for stmt in hdm_core::parser::parse_script(sql)? {
        let (query, sink) = match stmt {
            Statement::Select(query) => (query, StageOutput::Collect),
            Statement::CreateTableAs {
                name,
                format,
                query,
            } => (query, StageOutput::Table { name, format }),
            _ => continue,
        };
        let block = hdm_core::logical::analyze(&query, metastore)?;
        let mut plan = hdm_core::physical::plan_select(&block, sink)?;
        for stage in &mut plan.stages {
            hdm_core::optimizer::optimize_stage(stage);
        }
        std::hint::black_box(&plan);
    }
    Ok(())
}

/// Stages and tasks (map plus reduce) a query ran, from its `StageResult`s.
pub fn stage_counts(result: &QueryResult) -> (u64, u64) {
    let tasks = result
        .stages
        .iter()
        .map(|s| (s.map_tasks + s.reduce_tasks) as u64)
        .sum();
    (result.stages.len() as u64, tasks)
}

/// Layers of the in-engine wall-time attribution, most specific first:
/// at each instant of a query the most specific active span, on any
/// track, owns the time. This is self time (span minus child coverage)
/// taken across tracks, so the shares add up to the query's wall time.
pub const ENGINE_LAYERS: [&str; 6] = [
    "reduce_pipeline",
    "map_pipeline",
    "shuffle",
    "task",
    "stage",
    "sched_wait",
];

/// `O3` -> `O`, `stage12` -> `stage`.
fn track_kind(track: &str) -> &str {
    track.trim_end_matches(|c: char| c.is_ascii_digit())
}

fn engine_layer(span: &SpanEvent) -> Option<usize> {
    let layer = match (track_kind(&span.track), span.cat, span.name.as_str()) {
        (_, "operator", "reduce-pipeline") => 0,
        (_, "operator", "map-pipeline") => 1,
        ("O" | "A" | "M" | "R", "phase", _) => 2,
        ("O" | "A" | "M" | "R", "task" | "recovery", _) => 3,
        ("stage", "sched", "sched.wait") => 5,
        ("stage", _, _) => 4,
        _ => return None,
    };
    Some(layer)
}

/// The per-layer busy-time metric a span feeds. Rank-track spans count
/// their self time on their own track (a task minus its pipeline and
/// phase children); scheduler spans count whole.
fn busy_metric(span: &SpanEvent) -> Option<&'static str> {
    let metric = match (track_kind(&span.track), span.cat, span.name.as_str()) {
        (_, "operator", "map-pipeline") => "core.map_pipeline_ms",
        (_, "operator", "reduce-pipeline") => "core.reduce_pipeline_ms",
        ("O", "task", _) => "datampi.o_task_ms",
        ("A", "task", _) => "datampi.a_task_ms",
        ("A", "phase", "receive") => "datampi.receive_wait_ms",
        ("A", "phase", "merge") => "datampi.merge_ms",
        ("M", "task", _) => "mapred.map_task_ms",
        ("M", "phase", "sort-merge") => "mapred.sort_merge_ms",
        ("R", "task", _) => "mapred.reduce_task_ms",
        ("R", "phase", "copy") => "mapred.copy_ms",
        ("R", "phase", "merge") => "mapred.merge_ms",
        ("stage", "sched", "sched.wait") => "core.sched.wait_ms",
        ("stage", "sched", "sched.run") => "core.sched.run_ms",
        _ => return None,
    };
    Some(metric)
}

/// Total length of the union of `[start, end)` intervals.
fn union_len(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0, 0);
    for (s, e) in intervals {
        let s = s.max(reach);
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// A span's duration minus the coverage of the spans nested in it on its
/// own track. Guards record on drop, so of two spans with the same
/// interval the one recorded first is the child.
fn self_time_us(spans: &[SpanEvent], i: usize) -> u64 {
    let span = &spans[i];
    let (s, e) = (span.start_us, span.start_us + span.dur_us);
    let children = spans
        .iter()
        .enumerate()
        .filter(|(j, c)| {
            let (cs, ce) = (c.start_us, c.start_us + c.dur_us);
            *j != i && c.track == span.track && cs >= s && ce <= e && (ce - cs < e - s || *j < i)
        })
        .map(|(_, c)| (c.start_us, c.start_us + c.dur_us))
        .collect();
    span.dur_us - union_len(children)
}

/// Rolled-up `hive.obs` state of every traced query.
#[derive(Debug, Default)]
pub struct Layers {
    /// Busy time per metric name, ms.
    pub busy_ms: BTreeMap<&'static str, f64>,
    /// Wall time per [`ENGINE_LAYERS`] entry, ms.
    pub wall_ms: [f64; ENGINE_LAYERS.len()],
    /// Wall time some engine span covered, ms.
    pub covered_ms: f64,
    /// Counter totals by name (labels summed).
    pub counters: BTreeMap<String, u64>,
    /// Timer totals by name, ms, from bucket midpoints.
    pub timers_ms: BTreeMap<String, f64>,
    pub max_concurrent: i64,
    pub dropped_spans: u64,
}

impl Layers {
    pub fn absorb(&mut self, snap: &ObsSnapshot) {
        self.dropped_spans += snap.dropped_spans;
        for (i, span) in snap.spans.iter().enumerate() {
            if let Some(metric) = busy_metric(span) {
                let us = if track_kind(&span.track) == "stage" {
                    span.dur_us
                } else {
                    self_time_us(&snap.spans, i)
                };
                *self.busy_ms.entry(metric).or_default() += us as f64 / 1e3;
            }
        }
        self.sweep(&snap.spans);
        for (name, _, v) in &snap.counters {
            *self.counters.entry(name.clone()).or_default() += v;
        }
        for (name, _, hist) in &snap.timers {
            let half = hist.bucket_width() as f64 / 2.0;
            let us: f64 = hist
                .buckets()
                .map(|(lo, n)| (lo as f64 + half) * n as f64)
                .sum();
            *self.timers_ms.entry(name.clone()).or_default() += us / 1e3;
        }
        for (name, _, v) in &snap.gauges {
            if name == "sched.max.concurrent" {
                self.max_concurrent = self.max_concurrent.max(*v);
            }
        }
    }

    /// Attribute each instant to the most specific active engine layer.
    fn sweep(&mut self, spans: &[SpanEvent]) {
        let mut edges: Vec<(u64, bool, usize)> = Vec::new();
        for span in spans {
            if let Some(layer) = engine_layer(span) {
                edges.push((span.start_us, true, layer));
                edges.push((span.start_us + span.dur_us, false, layer));
            }
        }
        edges.sort_unstable();
        let mut active = [0usize; ENGINE_LAYERS.len()];
        let mut last = 0;
        for (t, opens, layer) in edges {
            if let Some(owner) = active.iter().position(|n| *n > 0) {
                let ms = (t - last) as f64 / 1e3;
                self.wall_ms[owner] += ms;
                self.covered_ms += ms;
            }
            last = t;
            if opens {
                active[layer] += 1;
            } else {
                active[layer] -= 1;
            }
        }
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }
}

/// Everything the traced interval measured, bench-side and in-program.
#[derive(Debug, Default)]
pub struct Totals {
    /// Scripts (batch) or requests (serving) traced; per-request metrics
    /// divide by it.
    pub requests: u64,
    /// The wall time the attribution accounts for, ms: traced pass time
    /// (batch) or the sum of request latencies (serving).
    pub wall_ms: f64,
    /// Time requests waited client-side for a free session, ms.
    pub client_queue_ms: f64,
    /// Bench-side compile spans, ms.
    pub compile_ms: f64,
    /// Bench-side spans around `Driver::execute_on` or
    /// `Session::execute`, ms.
    pub call_ms: f64,
    /// Time inside driver execution, ms: `call_ms` for batch, the
    /// server's `exec` spans for serving.
    pub exec_ms: f64,
    /// The server's `admit` and `exec` spans, ms (serving only).
    pub admit_ms: f64,
    pub server_exec_ms: f64,
    pub stages: u64,
    pub tasks: u64,
    pub layers: Layers,
    pub dfs_read: u64,
    pub dfs_write: u64,
    pub dfs_remote: u64,
    pub result_hits: u64,
    pub result_lookups: u64,
    pub io_hits: u64,
    pub io_lookups: u64,
    pub shed: u64,
    pub gen_lag_ms: f64,
    pub peak_threads: u64,
    pub overhead_pct: f64,
}

impl Totals {
    /// The per-layer metrics, in the order `BENCHMARK.json` lists them.
    pub fn metrics(&self) -> Vec<Metric> {
        let per = |v: f64| v / self.requests.max(1) as f64;
        let l = &self.layers;
        let busy = |name: &str| per(l.busy_ms.get(name).copied().unwrap_or(0.0));
        let timer = |name: &str| per(l.timers_ms.get(name).copied().unwrap_or(0.0));
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let considered = l.counter("orc.rows.pruned") + l.counter("stage.map.records");
        let pct = |v: f64| ratio(v, self.wall_ms) * 100.0;
        let engine = |layer: &str| {
            let i = ENGINE_LAYERS
                .iter()
                .position(|n| *n == layer)
                .expect("known layer");
            pct(l.wall_ms[i])
        };
        let attributed = self.client_queue_ms + self.compile_ms + self.call_ms;
        vec![
            metric("core.compile_ms", per(self.compile_ms), "ms"),
            metric("core.stages", per(self.stages as f64), "count"),
            metric("core.tasks", per(self.tasks as f64), "count"),
            metric("core.sched.wait_ms", busy("core.sched.wait_ms"), "ms"),
            metric("core.sched.run_ms", busy("core.sched.run_ms"), "ms"),
            metric(
                "core.sched.max_concurrent",
                l.max_concurrent as f64,
                "count",
            ),
            metric(
                "core.stream.backpressure_waits",
                per(l.counter("pipe.backpressure.waits")),
                "count",
            ),
            metric(
                "core.stream.rows_streamed",
                per(l.counter("pipe.rows.streamed")),
                "count",
            ),
            metric("core.map_pipeline_ms", busy("core.map_pipeline_ms"), "ms"),
            metric("core.vec_batches", per(l.counter("vec.batches")), "count"),
            metric(
                "core.reduce_pipeline_ms",
                busy("core.reduce_pipeline_ms"),
                "ms",
            ),
            metric("datampi.o_task_ms", busy("datampi.o_task_ms"), "ms"),
            metric("datampi.a_task_ms", busy("datampi.a_task_ms"), "ms"),
            metric(
                "datampi.receive_wait_ms",
                busy("datampi.receive_wait_ms"),
                "ms",
            ),
            metric("datampi.merge_ms", busy("datampi.merge_ms"), "ms"),
            metric(
                "datampi.spl_queue_wait_ms",
                timer("spl.queue.wait.us"),
                "ms",
            ),
            metric("datampi.sync_wait_ms", timer("shuffle.sync.wait.us"), "ms"),
            metric(
                "datampi.shuffle_bytes",
                per(l.counter("spl.flush.bytes")),
                "bytes",
            ),
            metric("datampi.a_spills", per(l.counter("a.spills")), "count"),
            metric("mpisim.bytes", per(l.counter("mpi.bytes")), "bytes"),
            metric("mpisim.messages", per(l.counter("mpi.messages")), "count"),
            metric("proc.peak_threads", self.peak_threads as f64, "count"),
            metric("mapred.map_task_ms", busy("mapred.map_task_ms"), "ms"),
            metric("mapred.reduce_task_ms", busy("mapred.reduce_task_ms"), "ms"),
            metric("mapred.sort_merge_ms", busy("mapred.sort_merge_ms"), "ms"),
            metric("mapred.copy_ms", busy("mapred.copy_ms"), "ms"),
            metric("mapred.merge_ms", busy("mapred.merge_ms"), "ms"),
            metric(
                "mapred.spill_bytes",
                per(l.counter("map.spill.bytes")),
                "bytes",
            ),
            metric(
                "storage.input_bytes",
                per(l.counter("stage.map.input.bytes")),
                "bytes",
            ),
            metric(
                "storage.rows_pruned_ratio",
                ratio(l.counter("orc.rows.pruned"), considered),
                "ratio",
            ),
            metric("storage.rows_considered", per(considered), "count"),
            metric("dfs.read_bytes", per(self.dfs_read as f64), "bytes"),
            metric("dfs.write_bytes", per(self.dfs_write as f64), "bytes"),
            metric("dfs.remote_reads", per(self.dfs_remote as f64), "count"),
            metric("server.admit_wait_ms", per(self.admit_ms), "ms"),
            metric("server.exec_ms", per(self.server_exec_ms), "ms"),
            metric(
                "server.result_cache_hit_ratio",
                ratio(self.result_hits as f64, self.result_lookups as f64),
                "ratio",
            ),
            metric(
                "server.result_cache_lookups",
                self.result_lookups as f64,
                "count",
            ),
            metric(
                "server.io_cache_hit_ratio",
                ratio(self.io_hits as f64, self.io_lookups as f64),
                "ratio",
            ),
            metric("server.io_cache_lookups", self.io_lookups as f64, "count"),
            metric("server.shed", self.shed as f64, "count"),
            metric("gen.lag_ms", self.gen_lag_ms, "ms"),
            metric("obs.overhead_pct", self.overhead_pct, "%"),
            metric("obs.dropped_spans", l.dropped_spans as f64, "count"),
            metric("wall.client_queue_pct", pct(self.client_queue_ms), "%"),
            metric("wall.compile_pct", pct(self.compile_ms), "%"),
            metric("wall.server_pct", pct(self.call_ms - self.exec_ms), "%"),
            metric("wall.driver_pct", pct(self.exec_ms - l.covered_ms), "%"),
            metric("wall.sched_wait_pct", engine("sched_wait"), "%"),
            metric("wall.stage_pct", engine("stage"), "%"),
            metric("wall.task_pct", engine("task"), "%"),
            metric("wall.shuffle_pct", engine("shuffle"), "%"),
            metric("wall.map_pipeline_pct", engine("map_pipeline"), "%"),
            metric("wall.reduce_pipeline_pct", engine("reduce_pipeline"), "%"),
            metric("unattributed_pct", pct(self.wall_ms - attributed), "%"),
        ]
    }
}

/// Peak OS thread count of this process, sampled from
/// `/proc/self/status` on a thread of its own. Only the traced run
/// starts one.
pub struct ThreadSampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<u64>,
}

const SAMPLE_EVERY: Duration = Duration::from_millis(2);

fn threads_now() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Threads:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}

impl ThreadSampler {
    pub fn start() -> ThreadSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut peak = 0;
            while !flag.load(Ordering::Relaxed) {
                peak = peak.max(threads_now());
                std::thread::sleep(SAMPLE_EVERY);
            }
            // The sampler itself is not the program's.
            peak.saturating_sub(1)
        });
        ThreadSampler { stop, handle }
    }

    /// Stop sampling and return the peak thread count seen.
    pub fn finish(self) -> u64 {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("thread sampler panicked")
    }
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(track: &str, cat: &'static str, name: &str, start_us: u64, dur_us: u64) -> SpanEvent {
        SpanEvent {
            track: track.into(),
            cat,
            name: name.into(),
            start_us,
            dur_us,
        }
    }

    #[test]
    fn self_time_subtracts_same_track_children_only() {
        let spans = vec![
            span("A0", "phase", "receive", 0, 40),
            span("A0", "operator", "reduce-pipeline", 50, 30),
            span("A1", "phase", "receive", 0, 100),
            span("A0", "task", "a-task", 0, 100),
        ];
        assert_eq!(self_time_us(&spans, 3), 30);
        assert_eq!(self_time_us(&spans, 2), 100);
        // An identical interval recorded earlier is the child.
        let spans = vec![
            span("O0", "operator", "map-pipeline", 5, 10),
            span("O0", "task", "o-task", 5, 10),
        ];
        assert_eq!(self_time_us(&spans, 1), 0);
        assert_eq!(self_time_us(&spans, 0), 10);
    }

    #[test]
    fn sweep_attributes_each_instant_once() {
        let mut layers = Layers::default();
        layers.sweep(&[
            span("stage0", "sched", "sched.wait", 0, 10),
            span("stage0", "sched", "sched.run", 10, 100),
            span("O0", "task", "o-task", 20, 50),
            span("O1", "operator", "map-pipeline", 30, 20),
            span("A0", "operator", "reduce-pipeline", 40, 40),
        ]);
        // wait 0-10, stage 10-20 and 80-110, task 20-30, map 30-40,
        // reduce 40-80 (reduce outranks map where both run).
        assert_eq!(
            layers.wall_ms.map(|ms| (ms * 1e3).round() as u64),
            [40, 10, 0, 10, 40, 10]
        );
        assert!((layers.covered_ms - 0.11).abs() < 1e-9);
    }

    #[test]
    fn union_merges_overlaps() {
        assert_eq!(union_len(vec![(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(union_len(vec![]), 0);
    }
}

//! Host-speed calibration. The 2-vCPU reference machine's speed swings
//! by up to 1.7x in 5–20 s waves that outlast a run, so a raw time
//! measures the host as much as the program. Every untraced run samples
//! a fixed kernel now and then while the program is idle, and scales
//! each duration of program work by [`REFERENCE_MS`] over the median
//! sample: the times it reports are those of a host running the kernel
//! at the reference speed. The report prints the raw values too.
//!
//! A sample is on-CPU time, not wall time, so threads the program leaves
//! running beside the kernel do not slow the sample and hide their cost.

use crate::{stats, Metric, Outcome};
use std::time::Instant;

/// The kernel's per-thread on-CPU time on the reference machine at its
/// fast end, ms. A fixed constant: changing it rescales every time
/// metric, so it changes only together with the benchmark.
pub const REFERENCE_MS: f64 = 4.0;

/// Values each kernel thread sorts.
const KERNEL_VALUES: usize = 200_000;

/// This thread's on-CPU time so far, ms: the first field of
/// `/proc/thread-self/schedstat`. The yield makes the kernel fold the
/// running slice into it.
fn thread_cpu_ms() -> Option<f64> {
    std::thread::yield_now();
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let ns: f64 = text.split_whitespace().next()?.parse().ok()?;
    Some(ns / 1e6)
}

/// Sort a fixed pseudo-random vector; return the on-CPU ms it took (the
/// wall ms where schedstat is missing).
fn kernel(seed: u64) -> f64 {
    let wall = Instant::now();
    let cpu = thread_cpu_ms();
    let mut x = seed | 1;
    let mut values: Vec<u64> = (0..KERNEL_VALUES)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    values.sort_unstable();
    std::hint::black_box(&values);
    match (cpu, thread_cpu_ms()) {
        (Some(a), Some(b)) => b - a,
        _ => wall.elapsed().as_secs_f64() * 1e3,
    }
}

/// One sample: the kernel on two threads at once, one per core of the
/// reference machine, as the program keeps both busy; the mean of the
/// two threads' times, ms.
pub fn sample() -> f64 {
    let times: Vec<f64> = std::thread::scope(|s| {
        let threads: Vec<_> = (0..2u64)
            .map(|k| s.spawn(move || kernel(0x9e37_79b9_7f4a_7c15 ^ k)))
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("calibration thread panicked"))
            .collect()
    });
    times.iter().sum::<f64>() / times.len() as f64
}

/// The samples of one run.
#[derive(Debug, Default)]
pub struct Calibration {
    samples: Vec<f64>,
}

impl Calibration {
    pub fn sample(&mut self) {
        self.samples.push(sample());
    }

    pub fn extend(&mut self, samples: impl IntoIterator<Item = f64>) {
        self.samples.extend(samples);
    }

    /// [`REFERENCE_MS`] over the median sample: below 1 on a host slower
    /// than the reference. Durations are multiplied by it, rates divided.
    pub fn factor(&self) -> Result<f64, String> {
        let median = stats::median(&self.samples).ok_or("no calibration sample")?;
        if median > 0.0 {
            Ok(REFERENCE_MS / median)
        } else {
            Err(format!("calibration sample median {median} ms"))
        }
    }

    /// One report line.
    pub fn note(&self) -> String {
        let q = stats::quartiles(&self.samples);
        format!(
            "calibration: {} samples, kernel q1 {:.3} median {:.3} q3 {:.3} ms (reference {REFERENCE_MS} ms)",
            self.samples.len(),
            q.map_or(f64::NAN, |q| q.q1),
            q.map_or(f64::NAN, |q| q.median),
            q.map_or(f64::NAN, |q| q.q3),
        )
    }
}

/// Scale a run's end-to-end metrics to the reference speed and put them
/// in `out`: durations (unit `s` or `ms`) times `factor`, the rates named
/// in `rates` divided by it, the others as measured. The report keeps
/// the raw values.
pub fn to_reference(out: &mut Outcome, raw: Vec<Metric>, factor: f64, rates: &[&str]) {
    out.note(format!("host speed factor {factor:.4}; raw metrics:"));
    for m in &raw {
        out.note(format!("  raw {:<30} {:>14.4} {}", m.name, m.value, m.unit));
    }
    out.metrics = raw
        .into_iter()
        .map(|mut m| {
            if m.unit == "s" || m.unit == "ms" {
                m.value *= factor;
            } else if rates.contains(&m.name) {
                m.value /= factor;
            }
            m
        })
        .collect();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_reference_over_median_sample() {
        let mut c = Calibration::default();
        assert!(c.factor().is_err());
        c.extend([2.0 * REFERENCE_MS, REFERENCE_MS, 4.0 * REFERENCE_MS]);
        assert!((c.factor().unwrap() - 0.5).abs() < 1e-12);
        c.extend([0.0, 0.0, 0.0, 0.0]);
        assert!(c.factor().is_err());
    }

    #[test]
    fn to_reference_scales_durations_and_named_rates() {
        let raw = vec![
            crate::metric("suite_s", 2.0, "s"),
            crate::metric("geomean_ms", 10.0, "ms"),
            crate::metric("serve_goodput_qps", 8.0, "1/s"),
            crate::metric("peak_rss_mb", 100.0, "MB"),
        ];
        let mut out = Outcome::default();
        to_reference(&mut out, raw.clone(), 0.5, &[]);
        let values: Vec<f64> = out.metrics.iter().map(|m| m.value).collect();
        assert_eq!(values, [1.0, 5.0, 8.0, 100.0]);
        to_reference(&mut out, raw, 0.5, &["serve_goodput_qps"]);
        assert_eq!(out.metrics[2].value, 16.0);
    }

    #[test]
    fn a_sample_takes_positive_time() {
        let ms = sample();
        assert!(ms > 0.0 && ms.is_finite(), "{ms}");
    }
}

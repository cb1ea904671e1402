//! Seeded violation for `conf-key-registry`: raw conf-key strings outside
//! the hdm-common::conf registry.

pub fn reducers(conf: &std::collections::HashMap<String, String>) -> usize {
    conf.get("mapred.reduce.tasks")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

pub const SPILL_KEY: &str = "hive.datampi.spill.percent";

#![warn(missing_docs)]

//! # hdm-core
//!
//! The paper's primary contribution, reproduced: **a Hive-like data
//! warehouse whose execution engine is a plug-in** — the same compiled
//! query plan runs unchanged on a Hadoop-style MapReduce engine or on
//! the DataMPI bipartite engine ("Hive on DataMPI", ICDCS 2015).
//!
//! The crate follows Hive's architecture (the paper's Figure 3):
//!
//! ```text
//!   HiveQL text
//!     │  lexer / parser                     (mod lexer, parser, ast)
//!     ▼
//!   AST ── semantic analysis ──▶ logical operator tree   (mod logical)
//!     │  optimizer: predicate pushdown, column pruning,
//!     │  partial-aggregation selection      (mod optimizer)
//!     ▼
//!   physical plan: a DAG of MapReduce stages (mod physical)
//!     │  execution engine (THE plug-in boundary, mod engine):
//!     │    • Hadoop engine   → hdm-mapred
//!     │    • DataMPI engine  → hdm-datampi (DataMPICollector analogue)
//!     ▼
//!   part files in hdm-dfs (Text / ORC / sequence via hdm-storage)
//! ```
//!
//! The [`driver::Driver`] owns the session (DFS handle, Metastore,
//! `JobConf` with the paper's `hive.datampi.*` knobs) and is the
//! end-user API:
//!
//! ```
//! use hdm_core::driver::{Driver, EngineKind};
//!
//! let mut driver = Driver::in_memory();
//! driver.execute("CREATE TABLE t (k BIGINT, v STRING)").unwrap();
//! driver.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b'), (1, 'c')").unwrap();
//! let result = driver
//!     .execute_on("SELECT k, COUNT(*) AS n FROM t GROUP BY k ORDER BY k", EngineKind::DataMpi)
//!     .unwrap();
//! assert_eq!(result.rows.len(), 2);
//! assert_eq!(result.rows[0].to_string(), "1\t2");
//! ```
//!
//! Per the paper's productivity claim (Table III), the engine-specific
//! code is deliberately thin: both engines consume the same
//! [`physical::StagePlan`]s, the same operator pipelines, and the same
//! storage layer; only the task/collector wiring differs (see
//! [`engine`]).

pub mod ast;
pub mod batch;
pub mod catalog;
pub mod driver;
pub mod engine;
pub mod expr;
pub mod lexer;
pub mod logical;
pub mod operators;
pub mod optimizer;
pub mod parser;
pub mod physical;
pub mod sched;

pub use driver::{Driver, EngineKind, QueryResult};

//! `conf-key-registry`: every Hive/DataMPI configuration key must be
//! declared exactly once, as a `KEY_*` constant in `hdm-common::conf`.
//! Scattering raw key strings through the codebase is how typo'd keys
//! silently fall back to defaults (the classic stringly-typed-conf bug), so
//! any string literal that looks like a conf key — it starts with one of
//! the known namespaces — is flagged outside the registry file.
//!
//! The rule applies to test code too: a test probing `"hive.map.aggr"`
//! by hand would keep passing after the key is renamed in the registry,
//! while the production path breaks.

use super::Ctx;
use crate::lexer::Kind;
use crate::Diagnostic;

pub const ID: &str = "conf-key-registry";
pub const DESCRIPTION: &str =
    "conf-key string literals (hive./datampi./mapred./dfs./io.) must be KEY_* \
     constants in hdm-common::conf, not inline strings";

// hdm-allow(conf-key-registry): this is the rule's own namespace table, not a conf lookup
const PREFIXES: &[&str] = &["hive.", "datampi.", "mapred.", "dfs.", "io."];

pub fn check(ctx: &Ctx<'_>, out: &mut Vec<Diagnostic>) {
    for tok in ctx.tokens {
        if tok.kind != Kind::Str {
            continue;
        }
        if let Some(prefix) = PREFIXES.iter().find(|p| tok.text.starts_with(**p)) {
            out.push(Diagnostic::new(
                ID,
                ctx.rel,
                tok.line,
                tok.col,
                format!(
                    "conf key \"{}\" (namespace `{}`) must be referenced via a KEY_* constant from hdm-common::conf",
                    tok.text, prefix
                ),
            ));
        }
    }
}

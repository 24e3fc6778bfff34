//! `igepa-lint` — the workspace invariant checker.
//!
//! The engine's correctness story rests on cross-cutting conventions
//! that no compiler pass checks: all served utility accumulation flows
//! through `igepa_core::exact::ExactSum`, serving threads never panic,
//! wire types keep decoding legacy payloads, the transport layer never
//! nests locks or unwraps poison, and the CI perf gates reference
//! scenarios that exist. This crate makes those conventions
//! machine-enforced: an offline, registry-free static-analysis pass
//! built on a small hand-rolled Rust lexer (same vendoring spirit as
//! `vendor/serde`), run in CI as the `static-analysis` job.
//!
//! # Rules
//!
//! | id | invariant |
//! |----|-----------|
//! | `no-raw-float-accum` | raw `+=`/`-=`/`.sum()` on `f64` in `igepa-core`/`igepa-algos`/`igepa-engine` outside the approved kernels (`exact.rs`, `interest.rs`) breaks the bit-for-bit replay/recovery/one-shard≡monolithic pins |
//! | `no-panic-in-server-paths` | `unwrap()`/`expect()`/`panic!`-family macros in non-`#[cfg(test)]` code of `transport.rs`, `durability/`, `coordinator.rs`, `shard.rs` kill serving threads; failures must be refused with typed errors |
//! | `serde-compat` | fields of `Deserialize` config/snapshot types in `igepa-engine` must match a pinned baseline; new fields need a hand-written `None => default` decode arm (the vendored derive has no `#[serde(default)]`) |
//! | `lock-discipline` | `lock().unwrap()` poisoning cascades and nested guard scopes in the engine crate |
//! | `bench-schema` | scenario ids referenced by CI perf gates must exist in `BENCH_engine.json` and `benches/engine.rs` |
//! | `suppression-hygiene` | suppression markers must be well-formed, name real rules, justify themselves, and actually suppress something |
//!
//! # Suppressions
//!
//! A finding that reflects a *deliberate* waiver — a documented
//! fail-fast invariant, a float fold whose order is fixed so replay
//! reproduces it bit for bit — is suppressed inline, with a mandatory
//! justification:
//!
//! ```text
//! // lint:allow(no-raw-float-accum): shard-order-fixed fold of per-shard
//! //   exact totals; replay and recovery reproduce this sum bit for bit
//! self.shard_utility.iter().sum()
//! ```
//!
//! The marker covers its own line and the next; multiple rules are
//! comma-separated. A marker with no justification, an unknown rule
//! id, or one that suppresses nothing is itself a diagnostic, so the
//! waiver inventory can never rot silently.

pub mod config;
pub mod diagnostics;
pub mod lexer;
pub mod rules;
pub mod suppress;
pub mod workspace;

use std::path::Path;

use config::{Config, Level};
use diagnostics::Diagnostic;
use workspace::Workspace;

/// Rule id of the suppression meta-rule.
pub const SUPPRESSION_HYGIENE: &str = "suppression-hygiene";

/// Outcome of a lint run.
pub struct Report {
    /// All findings, suppressed ones included, sorted by location.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// Active (unsuppressed) findings for denied rules.
    pub fn failures<'a>(&'a self, cfg: &'a Config) -> impl Iterator<Item = &'a Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.is_active() && cfg.level(&d.rule) == Level::Deny)
    }
}

/// Runs every rule over the workspace at `root` and applies inline
/// suppressions.
pub fn run(root: &Path, cfg: &Config) -> std::io::Result<Report> {
    let ws = Workspace::load(root)?;
    Ok(run_on(&ws, cfg))
}

/// Runs every rule over an already-loaded workspace.
pub fn run_on(ws: &Workspace, cfg: &Config) -> Report {
    let rules = rules::all_rules();
    let known_ids: Vec<&str> = rules
        .iter()
        .map(|r| r.id())
        .chain([SUPPRESSION_HYGIENE])
        .collect();
    let mut diags = Vec::new();
    for rule in &rules {
        for file in &ws.files {
            rule.check_file(cfg, file, &mut diags);
        }
        rule.check_workspace(cfg, ws, &mut diags);
    }

    // Apply inline suppressions.
    let mut used = vec![false; diags.len()];
    for file in &ws.files {
        for (di, d) in diags.iter_mut().enumerate() {
            if d.file != file.rel_path || d.suppressed_by.is_some() {
                continue;
            }
            if let Some(s) = file.suppressions.iter().find(|s| s.covers(&d.rule, d.line)) {
                d.suppressed_by = Some(s.justification.clone());
                used[di] = true;
            }
        }
    }

    // Suppression hygiene: malformed markers, unknown rule ids, and
    // markers that suppressed nothing.
    for file in &ws.files {
        for err in &file.suppression_errors {
            diags.push(Diagnostic {
                rule: SUPPRESSION_HYGIENE.to_string(),
                file: file.rel_path.clone(),
                line: err.line,
                message: err.message.clone(),
                excerpt: file.excerpt(err.line),
                suppressed_by: None,
            });
        }
        for s in &file.suppressions {
            for rule_name in &s.rules {
                if !known_ids.contains(&rule_name.as_str()) {
                    diags.push(Diagnostic {
                        rule: SUPPRESSION_HYGIENE.to_string(),
                        file: file.rel_path.clone(),
                        line: s.line,
                        message: format!(
                            "suppression names unknown rule `{rule_name}`; known rules: {}",
                            known_ids.join(", ")
                        ),
                        excerpt: file.excerpt(s.line),
                        suppressed_by: None,
                    });
                }
            }
            let suppressed_something = diags.iter().any(|d| {
                d.file == file.rel_path
                    && d.suppressed_by.as_deref() == Some(s.justification.as_str())
                    && s.covers(&d.rule, d.line)
            });
            let names_known_rule = s.rules.iter().any(|r| known_ids.contains(&r.as_str()));
            if !suppressed_something && names_known_rule {
                diags.push(Diagnostic {
                    rule: SUPPRESSION_HYGIENE.to_string(),
                    file: file.rel_path.clone(),
                    line: s.line,
                    message: format!(
                        "suppression for `{}` matches no finding; the code it waived has changed — delete the stale marker",
                        s.rules.join(", ")
                    ),
                    excerpt: file.excerpt(s.line),
                    suppressed_by: None,
                });
            }
        }
    }

    diags.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule.as_str()).cmp(&(b.file.as_str(), b.line, b.rule.as_str()))
    });
    Report { diagnostics: diags }
}

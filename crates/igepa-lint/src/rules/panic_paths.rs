//! Rule `no-panic-in-server-paths`: `unwrap()`/`expect()` and panic
//! macros in the non-test code of the serving stack.
//!
//! A panic on a connection, dispatcher, or worker thread kills that
//! thread and, at best, degrades the server silently; at worst it
//! poisons shared locks and cascades. Failures on these paths must be
//! refused with a typed `EngineError` (or propagate `io::Error` on
//! the durability paths) so the documented truncate-and-recover and
//! refuse-the-request behaviours stay reachable. Genuine fail-fast
//! invariants — e.g. shard/mirror divergence, where continuing would
//! serve corrupt state — stay as panics with an inline
//! `lint:allow(no-panic-in-server-paths): <why>` justification.

use crate::config::Config;
use crate::diagnostics::Diagnostic;
use crate::rules::Rule;
use crate::workspace::SourceFile;

/// Rule 2: server paths must not panic.
pub struct PanicPaths;

/// Panic-family macros flagged when invoked with `!`.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented", "assert"];

impl Rule for PanicPaths {
    fn id(&self) -> &'static str {
        "no-panic-in-server-paths"
    }

    fn summary(&self) -> &'static str {
        "unwrap()/expect()/panic! in non-test server code kills serving threads; refuse with typed errors instead"
    }

    fn check_file(&self, cfg: &Config, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        if !cfg.server_paths.contains(&file.rel_path.as_str()) {
            return;
        }
        let tokens = &file.tokens;
        for i in 0..tokens.len() {
            if file.in_test.get(i).copied().unwrap_or(false) {
                continue;
            }
            let t = &tokens[i];
            // `.unwrap()` / `.expect(...)` method calls.
            let is_unwrap_call = (t.is_ident("unwrap") || t.is_ident("expect"))
                && i > 0
                && tokens[i - 1].is_punct(".")
                && tokens.get(i + 1).is_some_and(|n| n.is_punct("("));
            if is_unwrap_call {
                out.push(Diagnostic {
                    rule: self.id().to_string(),
                    file: file.rel_path.clone(),
                    line: t.line,
                    message: format!(
                        "`.{}()` on a server path panics the serving thread; refuse with a typed EngineError / io::Error, or justify a fail-fast invariant inline",
                        t.text
                    ),
                    excerpt: file.excerpt(t.line),
                    suppressed_by: None,
                });
                continue;
            }
            // `panic!` / `unreachable!` / `todo!` / `unimplemented!` /
            // `assert!`-family macro invocations.
            let is_panic_macro = t.kind == crate::lexer::TokKind::Ident
                && (PANIC_MACROS.contains(&t.text.as_str()) || t.text.starts_with("assert_"))
                && tokens.get(i + 1).is_some_and(|n| n.is_punct("!"));
            if is_panic_macro {
                out.push(Diagnostic {
                    rule: self.id().to_string(),
                    file: file.rel_path.clone(),
                    line: t.line,
                    message: format!(
                        "`{}!` on a server path aborts the serving thread; degrade to a typed error, or justify a fail-fast invariant inline",
                        t.text
                    ),
                    excerpt: file.excerpt(t.line),
                    suppressed_by: None,
                });
            }
        }
    }
}

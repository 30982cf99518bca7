//! C002 `held-across-blocking`: a live `MutexGuard` spanning a blocking
//! operation in the same scope.
//!
//! Blocking operations: channel `send` / `recv` / `recv_timeout`,
//! thread `join` (empty-argument calls only, so `Path::join` and
//! `slice::join` stay out), `spawn`, thread `park` / `unpark`, and the
//! pool entry points `par_map` / `par_chunks_mut`. Holding a guard
//! across any of these stalls every other thread contending for the
//! lock — and deadlocks outright when the blocked-on thread needs the
//! same lock. `unpark` does not block the caller, but the thread it
//! wakes runs straight into the lock the caller still holds; a
//! baton-passing handoff must release the lock before passing it on.
//!
//! Liveness is positional (see [`super::guards`]): a closure *registered*
//! under a guard counts as running under it. That is conservative by
//! design; deliberate cases take an `analyze.allow` entry.

use crate::diag::{BaselineMode, Rule, Severity};
use crate::lexer::TokenKind;
use crate::scan::{FileIndex, FnItem};
use crate::workspace::Workspace;

use super::guards::{acquisitions, owns_token};
use super::{Context, Pass};

/// The C002 rule.
pub static HELD_ACROSS_BLOCKING: Rule = Rule {
    id: "C002",
    name: "held-across-blocking",
    severity: Severity::Error,
    brief: "no MutexGuard may stay live across send/recv/join/spawn/park/unpark/par_map",
    baseline: BaselineMode::PerFile,
};

/// Method-style blocking calls (need a `.` or `::` before the name).
const BLOCKING_METHODS: &[&str] = &[
    "send",
    "recv",
    "recv_timeout",
    "join",
    "spawn",
    "park",
    "unpark",
];

/// Pool entry points — blocking however they are invoked.
const BLOCKING_FREE: &[&str] = &["par_map", "par_chunks_mut"];

/// The held-across-blocking pass.
pub struct BlockingPass;

impl Pass for BlockingPass {
    fn rule(&self) -> &'static Rule {
        &HELD_ACROSS_BLOCKING
    }

    fn run(&self, ws: &Workspace, ctx: &mut Context<'_>) {
        for file in &ws.files {
            for item in &file.fns {
                if item.is_test || item.body.is_none() {
                    continue;
                }
                let acqs = acquisitions(file, item);
                if acqs.is_empty() {
                    continue;
                }
                let ops = blocking_ops(file, item);
                for a in &acqs {
                    for &(tok, name) in &ops {
                        if tok > a.tok && tok <= a.live.1 {
                            ctx.emit_at(
                                &HELD_ACROSS_BLOCKING,
                                file,
                                tok,
                                format!(
                                    "guard for `{}` is live across `{}()` in `{}` — \
                                     release the lock before blocking",
                                    a.lock, name, item.qualified
                                ),
                            );
                        }
                    }
                }
            }
        }
    }
}

/// `(token, op name)` for every blocking call in `f`'s own body.
fn blocking_ops<'f>(file: &'f FileIndex, f: &FnItem) -> Vec<(usize, &'f str)> {
    let Some((open, close)) = f.body else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for i in open + 1..close {
        if file.tokens[i].kind != TokenKind::Ident {
            continue;
        }
        let text = file.text_of(i);
        let method = BLOCKING_METHODS.contains(&text);
        let free = BLOCKING_FREE.contains(&text);
        if !method && !free {
            continue;
        }
        let Some(n) = file.next_nt(i) else { continue };
        if !file.is_punct(n, '(') {
            continue;
        }
        if method {
            // Require a method/path call: `.name(` or `::name(`.
            let Some(p) = file.prev_nt(i) else { continue };
            let dotted = file.is_punct(p, '.')
                || (file.is_punct(p, ':')
                    && file.prev_nt(p).is_some_and(|q| file.is_punct(q, ':')));
            if !dotted {
                continue;
            }
            // `join` only with no arguments (`Path::join(sep)` et al.
            // take one).
            if text == "join" && file.close_of(n) != file.next_nt(n) {
                continue;
            }
        }
        if !owns_token(file, f, i) {
            continue;
        }
        out.push((i, text));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::Baseline;
    use crate::workspace::Workspace;

    fn run(src: &str) -> Vec<String> {
        let ws = Workspace::from_sources(vec![("crates/demo/src/a.rs".into(), src.into())]);
        let baseline = Baseline::default();
        let mut ctx = Context::new(&baseline);
        BlockingPass.run(&ws, &mut ctx);
        ctx.diagnostics.iter().map(|d| d.to_string()).collect()
    }

    #[test]
    fn guard_across_park_and_unpark_flagged() {
        let got = run(
            "fn f() { let g = m.lock(); next.unpark(); thread::park(); }\n\
             fn ok() { let g = m.lock(); drop(g); next.unpark(); thread::park(); }\n",
        );
        assert_eq!(got.len(), 2, "{got:?}");
        assert!(got.iter().any(|m| m.contains("`unpark()`")), "{got:?}");
        assert!(got.iter().any(|m| m.contains("`park()`")), "{got:?}");
    }

    #[test]
    fn guard_across_recv_flagged() {
        let got = run("fn f() { let g = m.lock(); let v = rx.recv(); }\n");
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].contains("recv"), "{got:?}");
    }

    #[test]
    fn drop_before_recv_is_clean() {
        let got = run("fn f() { let g = m.lock(); drop(g); let v = rx.recv(); }\n");
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn temporary_does_not_reach_next_statement() {
        let got = run("fn f() { m.lock().push(1); let v = rx.recv(); }\n");
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn send_inside_if_let_condition_block_flagged() {
        // The classic footgun: the condition temporary lives through the
        // block, so the send runs under the lock.
        let got = run("fn f() { if let Some(v) = m.lock().pop() { tx.send(v); } }\n");
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].contains("send"), "{got:?}");
    }

    #[test]
    fn path_join_is_not_blocking() {
        let got = run("fn f() { let g = m.lock(); let p = dir.join(name); }\n");
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn thread_join_is_blocking() {
        let got = run("fn f() { let g = m.lock(); handle.join(); }\n");
        assert_eq!(got.len(), 1, "{got:?}");
    }

    #[test]
    fn par_map_under_guard_flagged() {
        let got = run("fn f() { let g = m.lock(); let ys = par_map(xs, work); }\n");
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].contains("par_map"), "{got:?}");
    }

    #[test]
    fn test_fns_are_exempt() {
        let got =
            run("#[cfg(test)]\nmod tests {\n    fn f() { let g = m.lock(); rx.recv(); }\n}\n");
        assert!(got.is_empty(), "{got:?}");
    }
}

//! C004 `panic-boundary`: spawned work must be supervised, and
//! stream-consumer loops must degrade instead of panicking.
//!
//! Three checks (all warnings — survivable, but they rot):
//!
//! * a `thread::spawn` / `thread::Builder…spawn` whose closure is not
//!   wrapped in `catch_unwind` and whose handle is not `.join()`ed in
//!   the same function is an unsupervised thread: a panic inside it
//!   vanishes (abort-on-panic is off) and the rest of the system keeps
//!   trusting a dead worker. Scoped spawns (`pool::scope(|s| s.spawn…)`)
//!   are exempt — the scope joins and rethrows.
//! * …but the scope rethrows a generic "a scoped thread panicked" and
//!   drops the payload. So a scoped spawn whose closure calls one of
//!   the enclosing function's parameters (caller-supplied code, like a
//!   pool helper's `f`) must catch the panic itself and re-raise it
//!   with `resume_unwind`, or the caller loses its panic message.
//! * a function that loops over channel receives (`loop`/`while` +
//!   `.recv()`/`.recv_timeout()`) is a stream consumer; `panic!` /
//!   `unreachable!` inside it turns one bad measurement into a dead
//!   pipeline. Consumers report through their degradation ladder
//!   instead.

use crate::diag::{BaselineMode, Rule, Severity};
use crate::lexer::TokenKind;
use crate::scan::{FileIndex, FnItem};
use crate::workspace::Workspace;

use super::guards::owns_token;
use super::{Context, Pass};

/// The C004 rule.
pub static PANIC_BOUNDARY: Rule = Rule {
    id: "C004",
    name: "panic-boundary",
    severity: Severity::Warning,
    brief: "spawned closures need catch_unwind or a join; consumer loops must not panic",
    baseline: BaselineMode::PerFile,
};

/// The panic-boundary pass.
pub struct PanicBoundaryPass;

impl Pass for PanicBoundaryPass {
    fn rule(&self) -> &'static Rule {
        &PANIC_BOUNDARY
    }

    fn run(&self, ws: &Workspace, ctx: &mut Context<'_>) {
        for file in &ws.files {
            for item in &file.fns {
                if item.is_test || item.body.is_none() {
                    continue;
                }
                check_spawns(file, item, ctx);
                check_scoped_spawns(file, item, ctx);
                check_consumer_loop(file, item, ctx);
            }
        }
    }
}

fn check_spawns(file: &FileIndex, f: &FnItem, ctx: &mut Context<'_>) {
    let Some((open, close)) = f.body else { return };
    for i in open + 1..close {
        if !file.is_ident(i, "spawn") || !owns_token(file, f, i) {
            continue;
        }
        let Some(args_open) = file.next_nt(i) else {
            continue;
        };
        if !file.is_punct(args_open, '(') {
            continue;
        }
        if !is_thread_spawn(file, i) {
            continue; // scoped spawns and non-thread `.spawn` APIs
        }
        let Some(args_close) = file.close_of(args_open) else {
            continue;
        };
        let caught = (args_open + 1..args_close).any(|j| file.is_ident(j, "catch_unwind"));
        let joined = has_empty_join(file, open, close);
        if !caught && !joined {
            ctx.emit_at(
                &PANIC_BOUNDARY,
                file,
                i,
                format!(
                    "thread spawned in `{}` without catch_unwind in the closure or a \
                     `.join()` in the same fn — a panic here disappears silently",
                    f.qualified
                ),
            );
        }
    }
}

/// Flags scoped spawns that run a parameter of the enclosing fn without
/// `catch_unwind`: the scope would replace that code's panic payload.
fn check_scoped_spawns(file: &FileIndex, f: &FnItem, ctx: &mut Context<'_>) {
    let Some((open, close)) = f.body else { return };
    if f.params.is_empty() {
        return;
    }
    for i in open + 1..close {
        if !file.is_ident(i, "spawn") || !owns_token(file, f, i) || !is_scoped_spawn(file, i) {
            continue;
        }
        let Some(args_open) = file.next_nt(i) else {
            continue;
        };
        let Some(args_close) = file.close_of(args_open) else {
            continue;
        };
        if (args_open + 1..args_close).any(|j| file.is_ident(j, "catch_unwind")) {
            continue;
        }
        let called = (args_open + 1..args_close).find_map(|j| {
            let name = file.text_of(j);
            let is_call = file.tokens[j].kind == TokenKind::Ident
                && f.params.iter().any(|p| p == name)
                && file.next_nt(j).is_some_and(|n| file.is_punct(n, '('))
                && !file
                    .prev_nt(j)
                    .is_some_and(|p| file.is_punct(p, '.') || file.is_punct(p, ':'));
            is_call.then_some(name)
        });
        if let Some(param) = called {
            ctx.emit_at(
                &PANIC_BOUNDARY,
                file,
                i,
                format!(
                    "scoped thread in `{}` runs caller-supplied `{param}` without \
                     catch_unwind — the scope re-raises \"a scoped thread panicked\" \
                     and drops the caller's panic payload",
                    f.qualified
                ),
            );
        }
    }
}

/// True when the `spawn` at `i` is `s.spawn(` for the parameter `s` of
/// an enclosing `scope(|s| …)` closure.
fn is_scoped_spawn(file: &FileIndex, i: usize) -> bool {
    let (Some(dot), Some(open)) = (file.prev_nt(i), file.next_nt(i)) else {
        return false;
    };
    if !file.is_punct(dot, '.') || !file.is_punct(open, '(') {
        return false;
    }
    let Some(recv) = file.prev_nt(dot) else {
        return false;
    };
    let handle = file.text_of(recv);
    (0..recv).rev().any(|k| {
        file.is_ident(k, "scope")
            && file.next_nt(k).is_some_and(|p| {
                file.is_punct(p, '(')
                    && file.close_of(p).is_some_and(|c| c > i)
                    && file.next_nt(p).is_some_and(|b| {
                        file.is_punct(b, '|')
                            && file.next_nt(b).is_some_and(|s| file.is_ident(s, handle))
                    })
            })
    })
}

/// True when the `spawn` at `i` goes through `std::thread` (path call
/// mentioning `thread`, or a builder chain mentioning `Builder` /
/// `thread`). Scoped spawns (`s.spawn` where `s` is the parameter of an
/// enclosing `scope(|s| …)` closure) and unrelated `.spawn` methods
/// return false.
fn is_thread_spawn(file: &FileIndex, i: usize) -> bool {
    let Some(p) = file.prev_nt(i) else {
        return false; // bare `spawn(…)`: a local helper, not std::thread
    };
    // `thread::spawn` — walk the `::` path backwards.
    if file.is_punct(p, ':') {
        let mut j = p;
        loop {
            let Some(c2) = file.prev_nt(j) else {
                return false;
            };
            if !file.is_punct(c2, ':') {
                return false;
            }
            let Some(seg) = file.prev_nt(c2) else {
                return false;
            };
            if file.is_ident(seg, "thread") {
                return true;
            }
            let Some(sep) = file.prev_nt(seg) else {
                return false;
            };
            if file.is_punct(sep, ':') {
                j = sep;
            } else {
                return false;
            }
        }
    }
    // `<receiver>.spawn(…)` — thread spawn iff the receiver chain
    // mentions the thread builder.
    if file.is_punct(p, '.') {
        let mut j = p;
        let mut hops = 0;
        while let Some(q) = file.prev_nt(j) {
            hops += 1;
            if hops > 40 {
                break;
            }
            match file.tokens[q].kind {
                TokenKind::Ident => {
                    let t = file.text_of(q);
                    if t == "Builder" || t == "thread" {
                        return true;
                    }
                    // Keep walking only while this looks like a chain
                    // (`.` or a full `::` separator).
                    let Some(r) = file.prev_nt(q) else { break };
                    if file.is_punct(r, '.') {
                        j = r;
                    } else if file.is_punct(r, ':') {
                        match file.prev_nt(r) {
                            Some(r2) if file.is_punct(r2, ':') => j = r2,
                            _ => break,
                        }
                    } else {
                        break;
                    }
                }
                TokenKind::Punct if matches!(file.text_of(q), ")" | "]") => match file.open_of(q) {
                    Some(o) => j = o,
                    None => break,
                },
                _ => break,
            }
        }
        return false;
    }
    false
}

/// True when the token range contains an empty-argument `.join()`.
fn has_empty_join(file: &FileIndex, from: usize, to: usize) -> bool {
    (from..to).any(|j| {
        file.is_ident(j, "join")
            && file.prev_nt(j).is_some_and(|p| file.is_punct(p, '.'))
            && file.next_nt(j).is_some_and(|open| {
                file.is_punct(open, '(') && file.close_of(open) == file.next_nt(open)
            })
    })
}

/// Flags `panic!` / `unreachable!` in functions that loop over channel
/// receives.
fn check_consumer_loop(file: &FileIndex, f: &FnItem, ctx: &mut Context<'_>) {
    let Some((open, close)) = f.body else { return };
    let has_loop = (open + 1..close)
        .any(|j| (file.is_ident(j, "loop") || file.is_ident(j, "while")) && owns_token(file, f, j));
    if !has_loop {
        return;
    }
    let has_recv = (open + 1..close).any(|j| {
        (file.is_ident(j, "recv") || file.is_ident(j, "recv_timeout"))
            && file.prev_nt(j).is_some_and(|p| file.is_punct(p, '.'))
            && file.next_nt(j).is_some_and(|n| file.is_punct(n, '('))
            && owns_token(file, f, j)
    });
    if !has_recv {
        return;
    }
    for j in open + 1..close {
        if !owns_token(file, f, j) {
            continue;
        }
        if (file.is_ident(j, "panic") || file.is_ident(j, "unreachable"))
            && file.next_nt(j).is_some_and(|n| file.is_punct(n, '!'))
        {
            ctx.emit_at(
                &PANIC_BOUNDARY,
                file,
                j,
                format!(
                    "`{}!` inside stream-consumer `{}` — one bad input kills the \
                     pipeline; degrade through the fault ladder instead",
                    file.text_of(j),
                    f.qualified
                ),
            );
        }
    }
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
        PanicBoundaryPass.run(&ws, &mut ctx);
        ctx.diagnostics.iter().map(|d| d.to_string()).collect()
    }

    #[test]
    fn unsupervised_thread_spawn_flagged() {
        let got = run("fn f() { thread::spawn(move || work()); }\n");
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].contains("catch_unwind"), "{got:?}");
    }

    #[test]
    fn catch_unwind_in_closure_is_supervised() {
        let got = run("fn f() { thread::spawn(move || { let _ = catch_unwind(|| work()); }); }\n");
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn join_in_same_fn_is_supervised() {
        let got = run("fn f() { let h = thread::spawn(work); h.join(); }\n");
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn builder_spawn_flagged_too() {
        let got = run("fn f() { thread::Builder::new().name(n).spawn(move || work()); }\n");
        assert_eq!(got.len(), 1, "{got:?}");
    }

    #[test]
    fn scoped_and_foreign_spawns_exempt() {
        let got = run("fn f() { scope(|s| { s.spawn(|| work()); }); }\n\
             fn g(sim: &Sim) { sim.spawn(task); }\n");
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn scoped_spawn_running_caller_code_flagged() {
        let got = run("fn par<F: Fn(usize)>(n: usize, f: F) {\n\
             std::thread::scope(|s| { s.spawn(|| f(n)); });\n}\n");
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(
            got[0].contains("drops the caller's panic payload"),
            "{got:?}"
        );
    }

    #[test]
    fn scoped_spawn_catching_caller_panics_is_clean() {
        let got = run("fn par<F: Fn(usize)>(n: usize, f: F) {\n\
             scope(|s| { s.spawn(|| { let _ = catch_unwind(|| f(n)); }); });\n}\n\
             fn internal(n: usize) { scope(|s| { s.spawn(|| work(n)); }); }\n\
             fn method(f: F) { scope(|s| { s.spawn(|| self.f(1)); }); }\n");
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn panic_in_consumer_loop_flagged() {
        let got = run(
            "fn consume(rx: Receiver) { loop { match rx.recv() { Ok(v) => use_it(v), \
             Err(_) => panic!(\"dead\") } } }\n",
        );
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].contains("pipeline"), "{got:?}");
    }

    #[test]
    fn panic_outside_consumer_fn_not_this_rules_business() {
        let got = run("fn f() { panic!(\"no recv loop here\"); }\n");
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn clean_consumer_loop_is_clean() {
        let got = run("fn consume(rx: Receiver) { while let Ok(v) = rx.recv() { use_it(v); } }\n");
        assert!(got.is_empty(), "{got:?}");
    }
}

//! Item scanner: a lightweight structural layer over the token stream.
//!
//! No AST — just enough shape recovery for the passes: matched
//! delimiter pairs, `fn` items with body spans (qualified by their
//! enclosing `impl` type), and `#[cfg(test)]` / `#[test]` regions so
//! test code can be exempted precisely (the old line-regex lint assumed
//! "everything after the first `#[cfg(test)]` line is tests", which is
//! wrong for files with a single cfg-gated item).

use std::collections::HashMap;

use crate::lexer::{lex, Token, TokenKind};

/// One `fn` item recovered from the token stream.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function's bare name (`ingest`).
    pub name: String,
    /// `Type::name` inside an `impl Type`/`impl Trait for Type` block,
    /// else the bare name.
    pub qualified: String,
    /// The enclosing impl's self-type name, when inside one.
    pub impl_type: Option<String>,
    /// 1-based line of the `fn` name token.
    pub line: u32,
    /// Token indices of the body's `{` and `}`; `None` for bodyless
    /// trait-method declarations.
    pub body: Option<(usize, usize)>,
    /// True when the item sits inside a `#[cfg(test)]` region or
    /// carries `#[test]`.
    pub is_test: bool,
    /// Names of the simply-bound parameters (`f` in `f: F`,
    /// `mut f: F`); `self` and destructuring patterns are left out.
    pub params: Vec<String>,
}

/// A lexed and structurally indexed source file.
pub struct FileIndex {
    /// Workspace-relative path (`crates/core/src/engine.rs`).
    pub path: String,
    /// The file's full text.
    pub text: String,
    /// Lossless token stream.
    pub tokens: Vec<Token>,
    /// Every `fn` item, in source order.
    pub fns: Vec<FnItem>,
    /// Open-delimiter token index → matching close index (`()[]{}`).
    pairs: HashMap<usize, usize>,
    /// Token-index ranges (inclusive) covered by test-gated items.
    test_ranges: Vec<(usize, usize)>,
}

impl FileIndex {
    /// Lexes and indexes one file.
    pub fn new(path: String, text: String) -> FileIndex {
        let tokens = lex(&text);
        let pairs = match_delimiters(&tokens, &text);
        let (fns, test_ranges) = scan_items(&tokens, &text, &pairs);
        FileIndex {
            path,
            text,
            tokens,
            fns,
            pairs,
            test_ranges,
        }
    }

    /// The text of token `i`.
    pub fn text_of(&self, i: usize) -> &str {
        self.tokens[i].text(&self.text)
    }

    /// The matching close index for an open delimiter token.
    pub fn close_of(&self, open: usize) -> Option<usize> {
        self.pairs.get(&open).copied()
    }

    /// The matching open index for a close delimiter token.
    pub fn open_of(&self, close: usize) -> Option<usize> {
        self.pairs
            .iter()
            .find(|(_, &c)| c == close)
            .map(|(&o, _)| o)
    }

    /// The innermost `{…}` pair containing token `i`, as `(open, close)`.
    pub fn enclosing_brace(&self, i: usize) -> Option<(usize, usize)> {
        self.pairs
            .iter()
            .filter(|(&o, &c)| o < i && i < c && self.text_of(o) == "{")
            .min_by_key(|(&o, &c)| c - o)
            .map(|(&o, &c)| (o, c))
    }

    /// Index of the next non-trivia token after `i`, if any.
    pub fn next_nt(&self, i: usize) -> Option<usize> {
        (i + 1..self.tokens.len()).find(|&j| !self.tokens[j].is_trivia())
    }

    /// Index of the previous non-trivia token before `i`, if any.
    pub fn prev_nt(&self, i: usize) -> Option<usize> {
        (0..i).rev().find(|&j| !self.tokens[j].is_trivia())
    }

    /// True when token `i` is inside a test-gated item.
    pub fn is_test_token(&self, i: usize) -> bool {
        self.test_ranges.iter().any(|&(a, b)| a <= i && i <= b)
    }

    /// True when token `i` is an identifier with exactly this text.
    pub fn is_ident(&self, i: usize, text: &str) -> bool {
        self.tokens[i].kind == TokenKind::Ident && self.text_of(i) == text
    }

    /// True when token `i` is a punctuation char `c`.
    pub fn is_punct(&self, i: usize, c: char) -> bool {
        self.tokens[i].kind == TokenKind::Punct && self.text_of(i).starts_with(c)
    }

    /// The innermost `fn` whose body span contains token `i`.
    pub fn fn_containing(&self, i: usize) -> Option<&FnItem> {
        self.fns
            .iter()
            .filter(|f| f.body.is_some_and(|(open, close)| open <= i && i <= close))
            .min_by_key(|f| {
                let (open, close) = f.body.expect("filtered to Some");
                close - open
            })
    }
}

/// Matches `()`, `[]`, `{}` pairs over the token stream. Delimiters
/// inside strings/comments/chars are whole tokens of those kinds, so
/// only real structural delimiters participate. Unbalanced input
/// degrades gracefully (unmatched opens simply have no entry).
fn match_delimiters(tokens: &[Token], text: &str) -> HashMap<usize, usize> {
    let mut pairs = HashMap::new();
    let mut stack: Vec<(usize, char)> = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Punct {
            continue;
        }
        match t.text(text) {
            "(" => stack.push((i, ')')),
            "[" => stack.push((i, ']')),
            "{" => stack.push((i, '}')),
            s @ (")" | "]" | "}") => {
                let want = s.chars().next().expect("one char");
                // Pop to the innermost matching open; tolerate junk.
                if let Some(top) = stack.last() {
                    if top.1 == want {
                        let (open, _) = stack.pop().expect("non-empty");
                        pairs.insert(open, i);
                    }
                }
            }
            _ => {}
        }
    }
    pairs
}

/// Recovers `fn` items, impl contexts, and test regions in one walk.
fn scan_items(
    tokens: &[Token],
    text: &str,
    pairs: &HashMap<usize, usize>,
) -> (Vec<FnItem>, Vec<(usize, usize)>) {
    let nt: Vec<usize> = (0..tokens.len())
        .filter(|&i| !tokens[i].is_trivia())
        .collect();
    let txt = |i: usize| tokens[i].text(text);
    let is_ident = |i: usize, s: &str| tokens[i].kind == TokenKind::Ident && txt(i) == s;
    let is_punct = |i: usize, c: char| tokens[i].kind == TokenKind::Punct && txt(i).starts_with(c);

    let mut fns = Vec::new();
    let mut test_ranges: Vec<(usize, usize)> = Vec::new();
    // Stack of (body_close_token, impl_type) for impl blocks we are in.
    let mut impl_stack: Vec<(usize, String)> = Vec::new();
    // Pending `#[test]` / `#[cfg(test)]`-style attribute for the next item.
    let mut pending_test_attr = false;

    let mut p = 0usize; // position in `nt`
    while p < nt.len() {
        let i = nt[p];
        while let Some(&(close, _)) = impl_stack.last() {
            if i > close {
                impl_stack.pop();
            } else {
                break;
            }
        }
        // Attributes: `#[...]` (outer) and `#![...]` (inner).
        if is_punct(i, '#') {
            let mut q = p + 1;
            if q < nt.len() && is_punct(nt[q], '!') {
                q += 1; // inner attribute — skip, never test-gates an item
            }
            if q < nt.len() && is_punct(nt[q], '[') {
                let open = nt[q];
                if let Some(&close) = pairs.get(&open) {
                    // Does the attribute mention `test` (covers `#[test]`,
                    // `#[cfg(test)]`, `#[cfg(all(test, ...))]`)?
                    let mentions_test = (open..=close).any(|k| {
                        tokens[k].kind == TokenKind::Ident && tokens[k].text(text) == "test"
                    });
                    if mentions_test && !is_punct(nt[p + 1], '!') {
                        pending_test_attr = true;
                    }
                    // Resume after the `]`.
                    while p < nt.len() && nt[p] <= close {
                        p += 1;
                    }
                    continue;
                }
            }
            p += 1;
            continue;
        }
        // A test-gated item: mark its full token extent.
        if pending_test_attr {
            pending_test_attr = false;
            if let Some(end) = item_end(tokens, text, pairs, &nt, p) {
                test_ranges.push((i, end));
                // Items inside the range still get scanned (for fn
                // bodies); is_test flags come from the range.
            }
        }
        // impl blocks: record the self type and body extent.
        if is_ident(i, "impl") {
            if let Some((ty, body_open)) = scan_impl_header(tokens, text, &nt, p) {
                if let Some(&close) = pairs.get(&body_open) {
                    impl_stack.push((close, ty));
                }
                // Continue scanning *inside* the impl body.
                while p < nt.len() && nt[p] < body_open {
                    p += 1;
                }
                p += 1;
                continue;
            }
        }
        // fn items.
        if is_ident(i, "fn") {
            if let Some(&name_i) = nt.get(p + 1) {
                if tokens[name_i].kind == TokenKind::Ident {
                    let name = txt(name_i).trim_start_matches("r#").to_string();
                    let body = fn_body(tokens, text, pairs, &nt, p + 1);
                    let params = fn_params(tokens, text, pairs, &nt, p + 1);
                    let impl_type = impl_stack.last().map(|(_, t)| t.clone());
                    let qualified = match &impl_type {
                        Some(t) => format!("{t}::{name}"),
                        None => name.clone(),
                    };
                    let in_test_range =
                        test_ranges.iter().any(|&(a, b)| a <= name_i && name_i <= b);
                    fns.push(FnItem {
                        name,
                        qualified,
                        impl_type,
                        line: tokens[name_i].line,
                        body,
                        is_test: in_test_range,
                        params,
                    });
                    // Do NOT jump over the body: nested fns/closures and
                    // impl blocks inside it should still be scanned.
                    p += 2;
                    continue;
                }
            }
        }
        p += 1;
    }
    (fns, test_ranges)
}

/// The token index where the item starting at `nt[p]` ends: the close
/// of its first top-level `{…}` block, or its terminating `;`. `(…)`
/// and `[…]` groups are jumped so a `;` inside `[u8; 3]` does not end
/// the item early.
fn item_end(
    tokens: &[Token],
    text: &str,
    pairs: &HashMap<usize, usize>,
    nt: &[usize],
    p: usize,
) -> Option<usize> {
    let mut q = p;
    while q < nt.len() {
        let i = nt[q];
        if tokens[i].kind == TokenKind::Punct {
            match tokens[i].text(text) {
                "{" => return pairs.get(&i).copied(),
                "(" | "[" => {
                    if let Some(&close) = pairs.get(&i) {
                        while q < nt.len() && nt[q] <= close {
                            q += 1;
                        }
                        continue;
                    }
                }
                ";" => return Some(i),
                "}" => return None, // ran off the enclosing block
                _ => {}
            }
        }
        q += 1;
    }
    None
}

/// Parses an `impl` header starting at `nt[p]` (the `impl` token):
/// returns the self-type name and the token index of the body `{`.
fn scan_impl_header(
    tokens: &[Token],
    text: &str,
    nt: &[usize],
    p: usize,
) -> Option<(String, usize)> {
    let txt = |i: usize| tokens[i].text(text);
    // Collect tokens up to the body `{`, tracking `<…>` nesting so a
    // `for` inside `impl<F: Fn() -> T>` bounds is not mistaken for the
    // trait/type separator.
    let mut angle = 0i32;
    let mut for_at: Option<usize> = None; // position in nt
    let mut body_open: Option<usize> = None;
    let mut q = p + 1;
    while q < nt.len() {
        let i = nt[q];
        match (tokens[i].kind, txt(i)) {
            (TokenKind::Punct, "<") => angle += 1,
            (TokenKind::Punct, ">") => angle -= 1,
            (TokenKind::Punct, "{") => {
                body_open = Some(i);
                break;
            }
            (TokenKind::Punct, ";") => return None, // `impl Trait for T;`? bail
            (TokenKind::Ident, "for") if angle == 0 => for_at = Some(q),
            (TokenKind::Ident, "where") if angle == 0 => {
                // where-clause: the type came before it; keep scanning
                // for the `{` only.
            }
            _ => {}
        }
        q += 1;
    }
    let body_open = body_open?;
    // The self type: first plain ident after `for` (when present), else
    // first ident after `impl`'s generic group.
    let start = match for_at {
        Some(f) => f + 1,
        None => p + 1,
    };
    let mut angle = 0i32;
    let mut r = start;
    while r < nt.len() && nt[r] < body_open {
        let i = nt[r];
        match (tokens[i].kind, txt(i)) {
            (TokenKind::Punct, "<") => angle += 1,
            (TokenKind::Punct, ">") => angle -= 1,
            (TokenKind::Ident, "dyn" | "mut" | "const" | "where") => {}
            (TokenKind::Ident, _) if angle == 0 => {
                // Take the *last* segment of a path (`fmt::Debug` → the
                // ident right before `{` or `for`/`<`): walk the path.
                let mut last = i;
                let mut s = r + 1;
                while s + 1 < nt.len()
                    && nt[s + 1] < body_open
                    && tokens[nt[s]].kind == TokenKind::Punct
                    && txt(nt[s]) == ":"
                    && tokens[nt[s + 1]].kind == TokenKind::Punct
                    && txt(nt[s + 1]) == ":"
                {
                    // `::` — next segment
                    if s + 2 < nt.len() && tokens[nt[s + 2]].kind == TokenKind::Ident {
                        last = nt[s + 2];
                        s += 3;
                    } else {
                        break;
                    }
                }
                return Some((txt(last).to_string(), body_open));
            }
            _ => {}
        }
        r += 1;
    }
    // `impl<T> ... {` with no nameable type (e.g. `impl Trait for &T`):
    // still record the body so fns inside are found, with a placeholder.
    Some(("_".to_string(), body_open))
}

/// Finds the body `{…}` of the fn whose name token sits at `nt[name_p]`:
/// the first top-level `{` before a `;`. Returns token indices of the
/// braces.
fn fn_body(
    tokens: &[Token],
    text: &str,
    pairs: &HashMap<usize, usize>,
    nt: &[usize],
    name_p: usize,
) -> Option<(usize, usize)> {
    let mut q = name_p + 1;
    while q < nt.len() {
        let i = nt[q];
        if tokens[i].kind == TokenKind::Punct {
            match tokens[i].text(text) {
                "{" => return pairs.get(&i).map(|&c| (i, c)),
                "(" | "[" => {
                    if let Some(&close) = pairs.get(&i) {
                        while q < nt.len() && nt[q] <= close {
                            q += 1;
                        }
                        continue;
                    }
                }
                ";" => return None,
                "}" => return None,
                _ => {}
            }
        }
        q += 1;
    }
    None
}

/// Parameter names of the `fn` whose name sits at `nt[name_p]`: every
/// identifier followed by a single `:` right after the parameter
/// list's `(`, a `,`, or `mut`. Generic parameter lists are skipped, so
/// the `(` of `F: Fn(usize)` is not taken for the parameter list.
fn fn_params(
    tokens: &[Token],
    text: &str,
    pairs: &HashMap<usize, usize>,
    nt: &[usize],
    name_p: usize,
) -> Vec<String> {
    let punct = |q: usize, s: &str| {
        nt.get(q)
            .is_some_and(|&i| tokens[i].kind == TokenKind::Punct && tokens[i].text(text) == s)
    };
    let mut angle = 0usize;
    let mut q = name_p + 1;
    while q < nt.len() {
        if punct(q, "<") {
            angle += 1;
        } else if punct(q, ">") && !punct(q - 1, "-") {
            angle = angle.saturating_sub(1);
        } else if punct(q, "{") || punct(q, ";") {
            return Vec::new();
        } else if punct(q, "(") && angle == 0 {
            let Some(&close) = pairs.get(&nt[q]) else {
                return Vec::new();
            };
            let mut names = Vec::new();
            let mut k = q + 1;
            while k + 1 < nt.len() && nt[k] < close {
                let i = nt[k];
                let after_sep = punct(k - 1, "(") || punct(k - 1, ",") || {
                    let p = nt[k - 1];
                    tokens[p].kind == TokenKind::Ident && tokens[p].text(text) == "mut"
                };
                if tokens[i].kind == TokenKind::Ident
                    && after_sep
                    && punct(k + 1, ":")
                    && !punct(k + 2, ":")
                {
                    names.push(tokens[i].text(text).to_string());
                }
                k += 1;
            }
            return names;
        }
        q += 1;
    }
    Vec::new()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index(src: &str) -> FileIndex {
        FileIndex::new("crates/demo/src/a.rs".into(), src.into())
    }

    #[test]
    fn finds_free_and_impl_fns() {
        let ix = index(
            "fn free() {}\n\
             struct Engine;\n\
             impl Engine {\n    fn ingest(&self) { helper(); }\n}\n\
             impl std::fmt::Debug for Engine {\n    fn fmt(&self) {}\n}\n",
        );
        let names: Vec<&str> = ix.fns.iter().map(|f| f.qualified.as_str()).collect();
        assert_eq!(names, vec!["free", "Engine::ingest", "Engine::fmt"]);
    }

    #[test]
    fn params_skip_generics_self_and_paths() {
        let ix = index(
            "fn par<T, F: Fn(usize) -> T>(data: &mut [T], mut f: F, n: std::num::NonZeroUsize) {}\n\
             impl W {\n    fn go(&self, (a, b): (u8, u8), cb: Box<dyn Fn(u8)>) {}\n}\n",
        );
        assert_eq!(ix.fns[0].params, vec!["data", "f", "n"]);
        assert_eq!(ix.fns[1].params, vec!["cb"]);
    }

    #[test]
    fn impl_with_generics_and_trait_path() {
        let ix = index(
            "impl<T: Clone> Holder<T> {\n    fn get(&self) {}\n}\n\
             impl<T> fmt::Debug for Holder<T> {\n    fn fmt(&self) {}\n}\n",
        );
        let names: Vec<&str> = ix.fns.iter().map(|f| f.qualified.as_str()).collect();
        assert_eq!(names, vec!["Holder::get", "Holder::fmt"]);
    }

    #[test]
    fn cfg_test_region_is_precise() {
        let ix = index(
            "fn lib_code() {}\n\
             #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {}\n}\n\
             fn after_tests() {}\n",
        );
        let t: Vec<(&str, bool)> = ix
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.is_test))
            .collect();
        assert_eq!(
            t,
            vec![("lib_code", false), ("t", true), ("after_tests", false)]
        );
    }

    #[test]
    fn single_cfg_test_item_does_not_poison_rest_of_file() {
        // The old line-based lint treated everything after the first
        // `#[cfg(test)]` as tests; the scanner gates only the one item.
        let ix = index(
            "#[cfg(test)]\nuse std::fmt;\n\
             fn real_code() {}\n",
        );
        let f = ix
            .fns
            .iter()
            .find(|f| f.name == "real_code")
            .expect("found");
        assert!(!f.is_test);
    }

    #[test]
    fn fn_bodies_span_their_braces() {
        let ix = index("fn f() { let x = [1u8; 3]; }\nfn g();\n");
        let f = &ix.fns[0];
        let (open, close) = f.body.expect("has body");
        assert_eq!(ix.text_of(open), "{");
        assert_eq!(ix.text_of(close), "}");
        assert!(ix.fns[1].body.is_none());
    }

    #[test]
    fn fn_containing_picks_innermost() {
        let ix = index("fn outer() { fn inner() { x(); } }\n");
        let x_tok = (0..ix.tokens.len())
            .find(|&i| ix.is_ident(i, "x"))
            .expect("x");
        assert_eq!(ix.fn_containing(x_tok).expect("in fn").name, "inner");
    }

    #[test]
    fn delimiters_in_strings_do_not_confuse_matching() {
        let ix = index("fn f() { let s = \"}{)(\"; let c = '{'; }\n");
        let (open, close) = ix.fns[0].body.expect("body");
        assert_eq!(ix.close_of(open), Some(close));
        assert_eq!(ix.text_of(close), "}");
        assert_eq!(close, ix.tokens.len() - 2); // final `}` then newline ws
    }
}

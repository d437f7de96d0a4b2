//! Structural facts the rules share: function body spans, the scopes
//! their markers put them in, and `#[cfg(test)]` / `#[test]` regions,
//! recovered from the token stream by brace matching (no full parse
//! needed).

use crate::lexer::{Lexed, Tok, TokKind};

/// One function body located in the token stream.
#[derive(Debug, Clone)]
pub struct FnSpan {
    /// The function's name.
    pub name: String,
    /// Token index of the body's opening `{`.
    pub body_start: usize,
    /// Token index of the body's closing `}` (or one past the last
    /// token if the file is truncated).
    pub body_end: usize,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token index of the `fn` keyword.
    pub keyword: usize,
    /// Scopes named by the markers attached to this function.
    pub scopes: Vec<String>,
}

impl FnSpan {
    /// Does a marker put this function in `scope`?
    pub fn marked(&self, scope: &str) -> bool {
        self.scopes.iter().any(|s| s == scope)
    }
}

/// Line ranges (inclusive) covered by test-only code.
#[derive(Debug, Default)]
pub struct TestRegions(Vec<(u32, u32)>);

impl TestRegions {
    /// Is `line` inside a `#[cfg(test)]` module or `#[test]` function?
    pub fn contains(&self, line: u32) -> bool {
        self.0.iter().any(|&(a, b)| a <= line && line <= b)
    }
}

/// The structural analysis of one lexed file.
#[derive(Debug)]
pub struct Analysis {
    /// Every function body, in source order (outer before nested).
    pub fns: Vec<FnSpan>,
    /// Test-only line ranges.
    pub tests: TestRegions,
    /// Lines of the markers attached to no function body.
    pub dangling: Vec<u32>,
}

/// The innermost function containing token index `i`, if any.
pub fn enclosing_fn(fns: &[FnSpan], i: usize) -> Option<&FnSpan> {
    fns.iter()
        .filter(|f| f.body_start < i && i < f.body_end)
        .max_by_key(|f| f.body_start)
}

/// Walk the token stream recovering function spans and test regions,
/// then attach each outer marker to the next `fn` item, provided no `{`
/// or `;` comes first; one that reaches either, or whose `fn` has no
/// body, is [`Analysis::dangling`].
pub fn analyze(lexed: &Lexed) -> Analysis {
    let toks = &lexed.tokens;
    let mut fns: Vec<FnSpan> = Vec::new();
    let mut tests: Vec<(u32, u32)> = Vec::new();

    // Items whose body we are waiting to open (`fn f<T>(..) -> X {`,
    // `mod tests {`): armed by the keyword, resolved at the next `{` at
    // zero paren/bracket depth, cancelled by a `;` there (trait method
    // declarations, `mod foo;`).
    struct Pending {
        name: String,
        keyword: usize,
        line: u32,
        is_fn: bool,
        is_test: bool,
    }
    let mut pending: Option<Pending> = None;
    // A `#[test]` / `#[cfg(test)]`-ish attribute was seen; the next
    // item body is test-only.
    let mut test_attr = false;
    // Open bodies: (token index of `{`, brace depth before it, Some(fn
    // span slot) / None for non-fn bodies, test-region start line).
    struct Open {
        tok: usize,
        fn_slot: Option<usize>,
        test_start: Option<u32>,
    }
    let mut stack: Vec<Open> = Vec::new();

    let mut paren = 0i64; // ( ) and [ ] depth inside a pending signature
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        match t {
            _ if t.is_ident("fn") => {
                if let Some(name_tok) = toks.get(i + 1) {
                    if name_tok.kind == TokKind::Ident {
                        pending = Some(Pending {
                            name: name_tok.text.clone(),
                            keyword: i,
                            line: t.line,
                            is_fn: true,
                            is_test: test_attr,
                        });
                        test_attr = false;
                        paren = 0;
                        i += 2;
                        continue;
                    }
                }
            }
            // An `impl` between `fn` and its body is `impl Trait` in
            // the signature, not an item.
            _ if (t.is_ident("mod") || t.is_ident("impl") || t.is_ident("trait"))
                && !pending.as_ref().is_some_and(|p| p.is_fn) =>
            {
                // `impl`/`trait` bodies are transparent for test
                // regions unless the attribute said otherwise; `mod`
                // under #[cfg(test)] is the classic unit-test block.
                pending = Some(Pending {
                    name: toks
                        .get(i + 1)
                        .filter(|n| n.kind == TokKind::Ident)
                        .map(|n| n.text.clone())
                        .unwrap_or_default(),
                    keyword: i,
                    line: t.line,
                    is_fn: false,
                    is_test: test_attr,
                });
                test_attr = false;
                paren = 0;
            }
            // Inside an attribute like #[test], #[cfg(test)],
            // #[cfg(all(test, …))]: mark only when the `test` ident
            // itself shows up between `#[` and `]`. Cheap check:
            // look back for `#` within a few tokens.
            _ if t.is_ident("test") && attr_context(toks, i) => test_attr = true,
            _ if (t.is_punct('(') || t.is_punct('[')) && pending.is_some() => paren += 1,
            _ if (t.is_punct(')') || t.is_punct(']')) && pending.is_some() => paren -= 1,
            _ if t.is_punct(';') && paren == 0 => pending = None,
            _ if t.is_punct('{') => {
                let p = if paren == 0 { pending.take() } else { None };
                let (fn_slot, test_start) = match p {
                    Some(p) => {
                        let slot = if p.is_fn {
                            fns.push(FnSpan {
                                name: p.name,
                                body_start: i,
                                body_end: toks.len(),
                                line: p.line,
                                keyword: p.keyword,
                                scopes: Vec::new(),
                            });
                            Some(fns.len() - 1)
                        } else {
                            None
                        };
                        (slot, p.is_test.then_some(p.line))
                    }
                    None => (None, None),
                };
                stack.push(Open {
                    tok: i,
                    fn_slot,
                    test_start,
                });
            }
            _ if t.is_punct('}') => {
                if let Some(open) = stack.pop() {
                    debug_assert!(open.tok < i);
                    if let Some(slot) = open.fn_slot {
                        fns[slot].body_end = i;
                    }
                    if let Some(start) = open.test_start {
                        tests.push((start, t.line));
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }

    let mut dangling = Vec::new();
    for m in lexed.markers.iter().filter(|m| !m.inner) {
        let stop = (m.tok..toks.len()).find(|&k| {
            toks[k].is_punct('{') || toks[k].is_punct(';') || fns.iter().any(|f| f.keyword == k)
        });
        match stop.and_then(|k| fns.iter_mut().find(|f| f.keyword == k)) {
            Some(f) => f.scopes.extend_from_slice(&m.scopes),
            None => dangling.push(m.line),
        }
    }
    Analysis {
        fns,
        tests: TestRegions(tests),
        dangling,
    }
}

/// Is token `i` (an ident) inside an attribute — i.e. preceded by `#[`
/// within a short window with no intervening `]`?
fn attr_context(toks: &[Tok], i: usize) -> bool {
    let lo = i.saturating_sub(8);
    let mut saw_open = false;
    for k in (lo..i).rev() {
        let t = &toks[k];
        if t.is_punct(']') {
            return false;
        }
        if t.is_punct('[') {
            saw_open = true;
        } else if saw_open && t.is_punct('#') {
            return true;
        }
    }
    false
}

//! Lexer corner cases: the tokens rules match against must survive raw
//! strings, nested comments, and the lifetime/char-literal ambiguity.

use flowtune_lint::lexer::{lex, TokKind, LITERAL_PLACEHOLDER};

fn idents(src: &str) -> Vec<String> {
    lex(src)
        .tokens
        .into_iter()
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text)
        .collect()
}

#[test]
fn raw_strings_are_opaque() {
    // An `unwrap` inside a raw string must not become an ident token.
    let src = r####"let s = r#"call .unwrap() here"#; s.len()"####;
    let ids = idents(src);
    assert!(!ids.contains(&"unwrap".to_owned()), "{ids:?}");
    assert!(ids.contains(&"len".to_owned()));
    let lexed = lex(src);
    assert!(lexed
        .tokens
        .iter()
        .any(|t| t.kind == TokKind::Literal && t.text == LITERAL_PLACEHOLDER));
}

#[test]
fn raw_strings_with_more_hashes_and_byte_prefixes() {
    let src = r#####"let a = r##"quote "# inside"##; let b = br#"bytes"#; let c = b"plain";"#####;
    let ids = idents(src);
    assert_eq!(
        ids,
        vec!["let", "a", "let", "b", "let", "c"],
        "literal bodies must not leak tokens"
    );
}

#[test]
fn raw_identifiers_are_not_raw_strings() {
    // `r#fn` is an identifier, not the opener of a raw string.
    let src = "let r#fn = 1; let x = r#fn + 2;";
    let ids = idents(src);
    assert!(
        ids.contains(&"r".to_owned()) || ids.contains(&"r#fn".to_owned()) || {
            // Whichever way the lexer splits it, the rest of the file must
            // still tokenize: both `let`s and the trailing `2` visible.
            false
        }
    );
    assert_eq!(ids.iter().filter(|i| *i == "let").count(), 2);
    let lexed = lex(src);
    assert!(lexed.tokens.iter().any(|t| t.text == "2"));
}

#[test]
fn nested_block_comments_close_correctly() {
    let src = "/* outer /* inner */ still comment */ fn after() {}";
    let ids = idents(src);
    assert_eq!(ids, vec!["fn", "after"]);
}

#[test]
fn lifetimes_vs_char_literals() {
    let src = "fn f<'a>(x: &'a str) -> char { 'a' }";
    let lexed = lex(src);
    let lifetimes: Vec<_> = lexed
        .tokens
        .iter()
        .filter(|t| t.kind == TokKind::Lifetime)
        .collect();
    assert_eq!(lifetimes.len(), 2, "{lexed:?}");
    assert!(lifetimes.iter().all(|t| t.text == "'a"));
    let chars = lexed
        .tokens
        .iter()
        .filter(|t| t.kind == TokKind::Literal && t.text == LITERAL_PLACEHOLDER)
        .count();
    assert_eq!(chars, 1);
}

#[test]
fn escaped_quote_char_literal() {
    let src = r"let q = '\''; let n = '\n'; let u = '\u{1F600}'; done()";
    let ids = idents(src);
    assert!(ids.contains(&"done".to_owned()), "{ids:?}");
}

#[test]
fn numeric_literals_with_suffixes() {
    let src = "let a = 0xFF_u8; let b = 1_000_000; let c = 2.5f64; let d = 1.0e3;";
    let lexed = lex(src);
    let lits: Vec<_> = lexed
        .tokens
        .iter()
        .filter(|t| t.kind == TokKind::Literal)
        .map(|t| t.text.clone())
        .collect();
    assert_eq!(lits, vec!["0xFF_u8", "1_000_000", "2.5f64", "1.0e3"]);
}

#[test]
fn line_numbers_track_newlines_in_strings_and_comments() {
    let src = "let a = \"line\nbreak\";\n/* c\nc */\nfn g() {}";
    let lexed = lex(src);
    let g = lexed.tokens.iter().find(|t| t.is_ident("g")).unwrap();
    assert_eq!(g.line, 5);
}

#[test]
fn trailing_directive_applies_to_its_own_line() {
    let src = "fn f() {\n    x.unwrap(); // flowtune-lint: allow(panic, \"why\")\n}\n";
    let lexed = lex(src);
    assert_eq!(lexed.directives.len(), 1);
    let d = &lexed.directives[0];
    assert_eq!(d.rule, "panic");
    assert_eq!(d.reason.as_deref(), Some("why"));
    assert_eq!(d.line, 2);
    assert_eq!(d.applies_to, 2);
}

#[test]
fn standalone_directive_applies_to_next_code_line() {
    let src = "fn f() {\n    // flowtune-lint: allow(panic, \"why\")\n\n    x.unwrap();\n}\n";
    let lexed = lex(src);
    assert_eq!(lexed.directives.len(), 1);
    assert_eq!(lexed.directives[0].applies_to, 4);
}

#[test]
fn directive_without_reason_has_none() {
    let src = "// flowtune-lint: allow(panic)\nx.unwrap();";
    let lexed = lex(src);
    assert_eq!(lexed.directives.len(), 1);
    assert!(lexed.directives[0].reason.is_none());
}

#[test]
fn scope_markers_are_not_suppressions() {
    let src =
        "//! flowtune-lint: untrusted-input\n// flowtune-lint: hot, float-kernel\nfn f() {}\n";
    let lexed = lex(src);
    assert!(lexed.directives.is_empty());
    let m: Vec<_> = (lexed.markers.iter())
        .map(|m| (m.line, m.inner, m.scopes.join("|")))
        .collect();
    assert_eq!(
        m,
        vec![
            (1, true, "untrusted-input".to_owned()),
            (2, false, "hot|float-kernel".to_owned())
        ]
    );
    assert_eq!(
        lexed.markers[1].tok, 0,
        "the marker precedes the first token"
    );
}

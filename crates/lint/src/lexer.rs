//! A small Rust lexer, sufficient for rule matching.
//!
//! Produces a token stream with line spans in which comments, string
//! literals and char literals have been stripped — so a `format!` inside
//! a doc comment or an `unwrap` inside an error-message string never
//! fires a rule. Comments are not discarded blindly: each one is scanned
//! for a `flowtune-lint:` directive first — a suppression
//! (`allow(rule, "why")`) or a scope marker (`hot`, `untrusted-input`,
//! `float-kernel`, comma-separated).
//!
//! The tricky corners this lexer gets right (and the test suite pins):
//!
//! * raw strings `r"…"` / `r#"…"#` with any number of hashes, plus the
//!   `b`/`br` byte-string prefixes;
//! * nested block comments (`/* /* */ */` is one comment);
//! * lifetimes vs. char literals (`'a` is a lifetime token, `'a'` is a
//!   char literal, `'\''` is a char literal too);
//! * numeric literals with suffixes and underscores (`0xFF_u8`, `1_000`).

/// What kind of token was lexed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// A single punctuation character (`::` arrives as two `:` tokens).
    Punct,
    /// Numeric, string, char or byte literal. String/char contents are
    /// replaced by a placeholder so rules never match inside them.
    Literal,
    /// A lifetime such as `'a` (quote included in the text).
    Lifetime,
}

/// One lexed token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Tok {
    /// Token kind.
    pub kind: TokKind,
    /// Token text (`"<str>"` placeholder for string/char literals).
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
}

impl Tok {
    /// Is this the identifier `s`?
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// Is this the punctuation character `c`?
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == c.len_utf8() && self.text.starts_with(c)
    }
}

/// A `// flowtune-lint: allow(<rule>, "<why>")` suppression found in a
/// comment.
#[derive(Debug, Clone)]
pub struct Directive {
    /// 1-based line the comment sits on.
    pub line: u32,
    /// The line of code the suppression applies to: its own line for a
    /// trailing comment, the next code line for a comment on its own
    /// line. Resolved by [`lex`] after the whole file is tokenized.
    pub applies_to: u32,
    /// The rule name inside `allow(...)`.
    pub rule: String,
    /// The quoted justification, if one was given. Suppressions without
    /// a justification are themselves reported as findings.
    pub reason: Option<String>,
}

/// A `// flowtune-lint: <scope>[, <scope>]` marker found in a comment.
#[derive(Debug, Clone)]
pub struct Marker {
    /// 1-based line the comment sits on.
    pub line: u32,
    /// Index of the first token after the comment; the analysis attaches
    /// the marker to the next `fn` from there.
    pub tok: usize,
    /// An inner `//!` marker: it scopes its whole file (its whole package
    /// when the file is the package's `src/lib.rs`), not one function.
    pub inner: bool,
    /// The scope names, unvalidated.
    pub scopes: Vec<String>,
}

/// Result of lexing one file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// The token stream, comments and literal contents stripped.
    pub tokens: Vec<Tok>,
    /// Every `flowtune-lint: allow(..)` suppression found in a comment.
    pub directives: Vec<Directive>,
    /// Every other `flowtune-lint:` comment: a scope marker.
    pub markers: Vec<Marker>,
}

impl Lexed {
    /// The scopes this file's inner `//!` markers name.
    pub fn inner_scopes(&self) -> impl Iterator<Item = &String> {
        let inner = self.markers.iter().filter(|m| m.inner);
        inner.flat_map(|m| &m.scopes)
    }
}

/// Marker kept in place of string/char literal contents.
pub const LITERAL_PLACEHOLDER: &str = "\"<lit>\"";

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

struct Cursor<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek_at(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
        }
        Some(c)
    }

    /// Consume a char body after the opening `'`, including the closing
    /// quote. The opening quote is already consumed.
    fn char_literal(&mut self) {
        if self.peek() == Some(b'\\') {
            self.bump(); // backslash
            self.bump(); // escaped char (enough for \', \\, \n, \u{…} start)
            if self.src.get(self.pos.wrapping_sub(1)) == Some(&b'{') {
                while let Some(c) = self.bump() {
                    if c == b'}' {
                        break;
                    }
                }
            }
        } else {
            // One (possibly multi-byte) character.
            self.bump();
            while self
                .peek()
                .is_some_and(|c| c >= 0x80 && self.src[self.pos - 1] >= 0x80)
            {
                self.bump();
            }
        }
        if self.peek() == Some(b'\'') {
            self.bump();
        }
    }

    /// Consume a normal (escaping) string body after the opening quote.
    fn string_literal(&mut self, quote: u8) {
        while let Some(c) = self.bump() {
            if c == b'\\' {
                self.bump();
            } else if c == quote {
                break;
            }
        }
    }

    /// Is the cursor (just past an `r`/`br` prefix) at a raw-string
    /// opener `#…#"`? Distinguishes `r#"…"#` from the raw identifier
    /// `r#foo` without consuming anything.
    fn at_raw_string(&self) -> bool {
        let mut ahead = 0usize;
        while self.peek_at(ahead) == Some(b'#') {
            ahead += 1;
        }
        self.peek_at(ahead) == Some(b'"')
    }

    /// Consume a raw string after the `r`: `#…#"…"#…#`.
    fn raw_string(&mut self) {
        let mut hashes = 0usize;
        while self.peek() == Some(b'#') {
            hashes += 1;
            self.bump();
        }
        self.bump(); // the opening quote — at_raw_string checked it
        loop {
            match self.bump() {
                None => return,
                Some(b'"') => {
                    let mut seen = 0usize;
                    while seen < hashes && self.peek() == Some(b'#') {
                        self.bump();
                        seen += 1;
                    }
                    if seen == hashes {
                        return;
                    }
                }
                Some(_) => {}
            }
        }
    }
}

/// Parse a `flowtune-lint:` comment: `allow(rule, "reason")` into
/// `out.directives` (and return true), any other text into `out.markers`.
fn parse_directive(comment: &str, line: u32, out: &mut Lexed) -> bool {
    let Some(at) = comment.find("flowtune-lint:") else {
        return false;
    };
    let rest = comment[at + "flowtune-lint:".len()..].trim();
    let Some(rest) = rest.strip_prefix("allow") else {
        out.markers.push(Marker {
            line,
            tok: out.tokens.len(),
            inner: comment.starts_with("//!"),
            scopes: rest.split(',').map(|s| s.trim().to_owned()).collect(),
        });
        return false;
    };
    let Some((inner, _)) = rest
        .trim_start()
        .strip_prefix('(')
        .and_then(|r| r.rsplit_once(')'))
    else {
        return false;
    };
    let (rule, reason) = match inner.find(',') {
        Some(comma) => {
            let why = inner[comma + 1..].trim();
            let why = why
                .strip_prefix('"')
                .and_then(|w| w.strip_suffix('"'))
                .map(str::to_owned);
            (inner[..comma].trim(), why)
        }
        None => (inner.trim(), None),
    };
    out.directives.push(Directive {
        line,
        applies_to: line, // fixed up by `lex` once token lines are known
        rule: rule.to_owned(),
        reason: reason.filter(|r| !r.trim().is_empty()),
    });
    true
}

/// Lex `src` into tokens, suppressions and markers. Never fails: unterminated
/// constructs consume to end of input.
pub fn lex(src: &str) -> Lexed {
    let mut cur = Cursor {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
    };
    let mut out = Lexed::default();
    // Line of the most recently emitted token, to classify a directive
    // as trailing (code before it on its line) or standalone.
    let mut own_line: Vec<bool> = Vec::new();

    while let Some(c) = cur.peek() {
        let line = cur.line;
        match c {
            b' ' | b'\t' | b'\r' | b'\n' => {
                cur.bump();
            }
            b'/' if cur.peek_at(1) == Some(b'/') => {
                let start = cur.pos;
                while cur.peek().is_some_and(|c| c != b'\n') {
                    cur.bump();
                }
                if parse_directive(&src[start..cur.pos], line, &mut out) {
                    own_line.push(out.tokens.last().is_none_or(|t| t.line != line));
                }
            }
            b'/' if cur.peek_at(1) == Some(b'*') => {
                let start = cur.pos;
                cur.bump();
                cur.bump();
                let mut depth = 1usize;
                while depth > 0 {
                    match cur.peek() {
                        None => break,
                        Some(b'/') if cur.peek_at(1) == Some(b'*') => {
                            cur.bump();
                            cur.bump();
                            depth += 1;
                        }
                        Some(b'*') if cur.peek_at(1) == Some(b'/') => {
                            cur.bump();
                            cur.bump();
                            depth -= 1;
                        }
                        Some(_) => {
                            cur.bump();
                        }
                    }
                }
                if parse_directive(&src[start..cur.pos], line, &mut out) {
                    own_line.push(out.tokens.last().is_none_or(|t| t.line != line));
                }
            }
            b'\'' => {
                cur.bump();
                let is_lifetime = cur.peek().is_some_and(|n| is_ident_start(n as char)) && {
                    // Scan the ident run; a closing quote right after
                    // makes it a char literal ('a'), otherwise lifetime.
                    let mut ahead = 1;
                    while cur
                        .peek_at(ahead)
                        .is_some_and(|n| is_ident_continue(n as char))
                    {
                        ahead += 1;
                    }
                    cur.peek_at(ahead) != Some(b'\'')
                };
                if is_lifetime {
                    let start = cur.pos;
                    while cur.peek().is_some_and(|n| is_ident_continue(n as char)) {
                        cur.bump();
                    }
                    out.tokens.push(Tok {
                        kind: TokKind::Lifetime,
                        text: format!("'{}", &src[start..cur.pos]),
                        line,
                    });
                } else {
                    cur.char_literal();
                    out.tokens.push(Tok {
                        kind: TokKind::Literal,
                        text: LITERAL_PLACEHOLDER.to_owned(),
                        line,
                    });
                }
            }
            b'"' => {
                cur.bump();
                cur.string_literal(b'"');
                out.tokens.push(Tok {
                    kind: TokKind::Literal,
                    text: LITERAL_PLACEHOLDER.to_owned(),
                    line,
                });
            }
            _ if is_ident_start(c as char) => {
                let start = cur.pos;
                // String prefixes: r"", r#""#, b"", br#""#, b''.
                let next = cur.peek_at(1);
                let next2 = cur.peek_at(2);
                let raw_prefix = match (c, next, next2) {
                    (b'r', Some(b'"') | Some(b'#'), _) => Some(1),
                    (b'b', Some(b'r'), Some(b'"') | Some(b'#')) => Some(2),
                    _ => None,
                };
                let byte_str = c == b'b' && next == Some(b'"');
                let byte_char = c == b'b' && next == Some(b'\'');
                if let Some(skip) = raw_prefix {
                    let probe = Cursor {
                        src: cur.src,
                        pos: cur.pos + skip,
                        line: cur.line,
                    };
                    if probe.at_raw_string() {
                        for _ in 0..skip {
                            cur.bump();
                        }
                        cur.raw_string();
                        out.tokens.push(Tok {
                            kind: TokKind::Literal,
                            text: LITERAL_PLACEHOLDER.to_owned(),
                            line,
                        });
                        continue;
                    }
                    // `r#ident` raw identifier: fall through, scan ident.
                }
                if byte_str {
                    cur.bump();
                    cur.bump();
                    cur.string_literal(b'"');
                    out.tokens.push(Tok {
                        kind: TokKind::Literal,
                        text: LITERAL_PLACEHOLDER.to_owned(),
                        line,
                    });
                    continue;
                } else if byte_char {
                    cur.bump();
                    cur.bump();
                    cur.char_literal();
                    out.tokens.push(Tok {
                        kind: TokKind::Literal,
                        text: LITERAL_PLACEHOLDER.to_owned(),
                        line,
                    });
                    continue;
                }
                while cur.peek().is_some_and(|n| is_ident_continue(n as char)) {
                    cur.bump();
                }
                out.tokens.push(Tok {
                    kind: TokKind::Ident,
                    text: src[start..cur.pos].to_owned(),
                    line,
                });
            }
            _ if c.is_ascii_digit() => {
                let start = cur.pos;
                cur.bump();
                while cur.peek().is_some_and(|n| {
                    is_ident_continue(n as char)
                        || n == b'.'
                            && cur.peek_at(1).is_some_and(|d| d.is_ascii_digit())
                            && !src[start..cur.pos].contains('.')
                }) {
                    cur.bump();
                }
                out.tokens.push(Tok {
                    kind: TokKind::Literal,
                    text: src[start..cur.pos].to_owned(),
                    line,
                });
            }
            _ => {
                cur.bump();
                out.tokens.push(Tok {
                    kind: TokKind::Punct,
                    text: (c as char).to_string(),
                    line,
                });
            }
        }
    }

    // Resolve standalone directives to the next line holding a token.
    for (d, standalone) in out.directives.iter_mut().zip(&own_line) {
        if *standalone {
            d.applies_to = out
                .tokens
                .iter()
                .map(|t| t.line)
                .find(|&l| l > d.line)
                .unwrap_or(d.line);
        }
    }
    out
}

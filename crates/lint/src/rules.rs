//! The rule families. Every rule is repo-specific: the hot, kernel and
//! panic rules check the functions a `// flowtune-lint: hot |
//! untrusted-input | float-kernel` marker puts in their scope — the code
//! whose invariants the runtime test suite pins (the zero-allocation
//! steady state, panic-free decode, bit-for-bit float results); the map
//! and wire rules check every file. ARCHITECTURE.md §Static analysis has
//! the marker rule.

use crate::analysis::{analyze, enclosing_fn, Analysis};
use crate::lexer::{lex, Lexed, Tok, TokKind};

/// Canonical rule names, also accepted in `allow(...)` directives.
pub const RULES: &[&str] = &[
    "hot-path-alloc",
    "panic",
    "wire-exhaustive",
    "float-determinism",
    "directive",
];

/// Scope names a `// flowtune-lint: <scope>[, <scope>]` marker accepts.
pub const SCOPES: &[&str] = &["hot", "untrusted-input", "float-kernel"];

/// One reported finding (suppression not yet applied).
#[derive(Debug, Clone)]
pub struct RawFinding {
    /// 1-based source line.
    pub line: u32,
    /// Rule family name (one of [`RULES`]).
    pub rule: &'static str,
    /// Human-readable description of the violation.
    pub message: String,
}

// ------------------------------------------------------------ helpers

fn tok(toks: &[Tok], i: usize) -> Option<&Tok> {
    toks.get(i)
}

fn is_path_sep(toks: &[Tok], i: usize) -> bool {
    // `::` lexes as two `:` puncts.
    tok(toks, i).is_some_and(|t| t.is_punct(':'))
        && tok(toks, i + 1).is_some_and(|t| t.is_punct(':'))
}

// ------------------------------------------------------- rule: alloc

/// Container types whose constructors allocate (or start a growth
/// trajectory that will).
const ALLOC_TYPES: &[&str] = &[
    "Vec", "Box", "String", "HashMap", "HashSet", "BTreeMap", "BTreeSet", "VecDeque",
];
/// Constructor names flagged on those types.
const ALLOC_CTORS: &[&str] = &["new", "with_capacity", "from"];
/// Allocating method calls flagged anywhere in a hot function.
const ALLOC_METHODS: &[&str] = &["to_vec", "to_string", "to_owned", "collect", "clone"];
/// Allocating macros.
const ALLOC_MACROS: &[&str] = &["vec", "format"];

fn hot_path_alloc(lexed: &Lexed, an: &Analysis, out: &mut Vec<RawFinding>) {
    let toks = &lexed.tokens;
    for f in an.fns.iter().filter(|f| f.marked("hot")) {
        for i in f.body_start..f.body_end.min(toks.len()) {
            let t = &toks[i];
            if t.kind != TokKind::Ident {
                continue;
            }
            // `vec![…]` / `format!(…)`
            if ALLOC_MACROS.contains(&t.text.as_str())
                && tok(toks, i + 1).is_some_and(|n| n.is_punct('!'))
            {
                out.push(RawFinding {
                    line: t.line,
                    rule: "hot-path-alloc",
                    message: format!("`{}!` allocates on the steady-state path", t.text),
                });
                continue;
            }
            // `Vec::new(…)`, `Box::new`, `String::from`, …
            if ALLOC_TYPES.contains(&t.text.as_str()) && is_path_sep(toks, i + 1) {
                if let Some(m) = tok(toks, i + 3) {
                    if m.kind == TokKind::Ident && ALLOC_CTORS.contains(&m.text.as_str()) {
                        out.push(RawFinding {
                            line: t.line,
                            rule: "hot-path-alloc",
                            message: format!(
                                "`{}::{}` allocates on the steady-state path",
                                t.text, m.text
                            ),
                        });
                        continue;
                    }
                }
            }
            // `.to_vec()`, `.collect()`, `.clone()`, …
            if ALLOC_METHODS.contains(&t.text.as_str())
                && i > 0
                && toks[i - 1].is_punct('.')
                && tok(toks, i + 1).is_some_and(|n| n.is_punct('(') || n.is_punct(':'))
            {
                out.push(RawFinding {
                    line: t.line,
                    rule: "hot-path-alloc",
                    message: format!(
                        "`.{}()` allocates on the steady-state path (heap clone/collect)",
                        t.text
                    ),
                });
            }
        }
    }
}

// ------------------------------------------------------- rule: panic

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

fn panic_freedom(lexed: &Lexed, an: &Analysis, out: &mut Vec<RawFinding>) {
    let toks = &lexed.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        if an.tests.contains(t.line)
            || !enclosing_fn(&an.fns, i).is_some_and(|f| f.marked("untrusted-input"))
        {
            continue;
        }
        match t.kind {
            TokKind::Ident
                if (t.text == "unwrap" || t.text == "expect")
                    && i > 0
                    && toks[i - 1].is_punct('.')
                    && tok(toks, i + 1).is_some_and(|n| n.is_punct('(')) =>
            {
                out.push(RawFinding {
                    line: t.line,
                    rule: "panic",
                    message: format!(
                        "`.{}()` can panic; surface a FrameError/DecodeError/TransportError instead",
                        t.text
                    ),
                });
            }
            TokKind::Ident
                if PANIC_MACROS.contains(&t.text.as_str())
                    && tok(toks, i + 1).is_some_and(|n| n.is_punct('!')) =>
            {
                out.push(RawFinding {
                    line: t.line,
                    rule: "panic",
                    message: format!("`{}!` panics on a decode/receive path", t.text),
                });
            }
            TokKind::Punct if t.is_punct('[') && i > 0 => {
                // Slice/array index without `.get()`: `expr[…]` where the
                // preceding token ends an expression. `#[attr]`, types
                // (`[u8; 4]`) and slice patterns keep a punct before `[`.
                let prev = &toks[i - 1];
                let is_index = prev.kind == TokKind::Ident
                    && !is_keyword_before_bracket(&prev.text)
                    || prev.is_punct(')')
                    || prev.is_punct(']');
                if is_index {
                    out.push(RawFinding {
                        line: t.line,
                        rule: "panic",
                        message: "slice index can panic; use `.get()` or justify the bound"
                            .to_owned(),
                    });
                }
            }
            _ => {}
        }
    }
}

/// Keywords that may directly precede `[` without forming an index
/// expression (`return [..]`, `in [..]`, `match [..]`, the array pattern
/// of `let [a, b] = ..` …).
fn is_keyword_before_bracket(s: &str) -> bool {
    matches!(
        s,
        "return"
            | "in"
            | "match"
            | "if"
            | "while"
            | "else"
            | "mut"
            | "dyn"
            | "as"
            | "break"
            | "let"
    )
}

// -------------------------------------------------- rule: float-det

const MAP_TYPES: &[&str] = &["HashMap", "HashSet"];
const ORDER_SENSITIVE_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "drain",
    "retain",
];

/// Method calls that fuse or reassociate float arithmetic.
const REORDERING_METHODS: &[&str] = &["mul_add", "sum", "product"];
/// Name fragments of the fast-math intrinsics (`fadd_fast`,
/// `algebraic_add`, …), which license the compiler to do either.
const REORDERING_INTRINSICS: &[&str] = &["_fast", "algebraic_"];

/// The kernel half of the rule: inside `float-kernel` functions — the
/// arithmetic kernels and the rate drain, whose results the differential
/// and equivalence tests pin to the bit at every vector width CI builds
/// — every float operation must be an explicit `+ - * /` in source
/// order: no fused multiply-add, no iterator reduction whose association
/// the reader has to look up, no fast-math intrinsic.
fn float_kernel_order(lexed: &Lexed, an: &Analysis, out: &mut Vec<RawFinding>) {
    let toks = &lexed.tokens;
    for f in an.fns.iter().filter(|f| f.marked("float-kernel")) {
        for i in f.body_start..f.body_end.min(toks.len()) {
            let t = &toks[i];
            if t.kind != TokKind::Ident {
                continue;
            }
            let is_method = REORDERING_METHODS.contains(&t.text.as_str())
                && i > 0
                && toks[i - 1].is_punct('.')
                && tok(toks, i + 1).is_some_and(|n| n.is_punct('(') || n.is_punct(':'));
            let is_intrinsic = REORDERING_INTRINSICS.iter().any(|p| t.text.contains(p))
                && tok(toks, i + 1).is_some_and(|n| n.is_punct('('));
            if is_method || is_intrinsic {
                out.push(RawFinding {
                    line: t.line,
                    rule: "float-determinism",
                    message: format!(
                        "`{}` fuses or reassociates float arithmetic inside `{}`, whose \
                         results are pinned bit-for-bit; spell the operations out in order",
                        t.text, f.name
                    ),
                });
            }
        }
    }
}

/// The map half, run on every file: `HashMap`/`HashSet` iteration order
/// must never reach float accumulation, an export, or the order in which
/// flows retire (which decides the engines' slot reuse).
fn float_determinism(lexed: &Lexed, an: &Analysis, out: &mut Vec<RawFinding>) {
    float_kernel_order(lexed, an, out);
    let toks = &lexed.tokens;
    // Pass 1: names bound to HashMap/HashSet — `name: HashMap<..>`
    // fields/params and `let [mut] name = …HashMap…;` bindings.
    let mut maps: Vec<String> = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind == TokKind::Ident && tok(toks, i + 1).is_some_and(|n| n.is_punct(':')) {
            // look ahead a short window for a map type before a
            // delimiter ends the declaration
            for a in toks.iter().take(i + 10).skip(i + 2) {
                if a.is_punct(',') || a.is_punct(';') || a.is_punct(')') || a.is_punct('{') {
                    break;
                }
                if a.kind == TokKind::Ident && MAP_TYPES.contains(&a.text.as_str()) {
                    maps.push(t.text.clone());
                    break;
                }
            }
        }
        if t.is_ident("let") {
            let mut j = i + 1;
            if tok(toks, j).is_some_and(|n| n.is_ident("mut")) {
                j += 1;
            }
            if let Some(name) = tok(toks, j).filter(|n| n.kind == TokKind::Ident) {
                for a in toks.iter().take(j + 16).skip(j + 1) {
                    if a.is_punct(';') {
                        break;
                    }
                    if a.kind == TokKind::Ident && MAP_TYPES.contains(&a.text.as_str()) {
                        maps.push(name.text.clone());
                        break;
                    }
                }
            }
        }
    }
    maps.sort();
    maps.dedup();
    // Pass 2: order-sensitive iteration over any of those names.
    for i in 0..toks.len() {
        let t = &toks[i];
        if an.tests.contains(t.line) {
            continue;
        }
        if t.kind == TokKind::Ident
            && ORDER_SENSITIVE_METHODS.contains(&t.text.as_str())
            && i >= 2
            && toks[i - 1].is_punct('.')
            && toks[i - 2].kind == TokKind::Ident
            && maps.contains(&toks[i - 2].text)
            && tok(toks, i + 1).is_some_and(|n| n.is_punct('('))
        {
            out.push(RawFinding {
                line: t.line,
                rule: "float-determinism",
                message: format!(
                    "`{}.{}()` iterates a hash map in nondeterministic order",
                    toks[i - 2].text,
                    t.text
                ),
            });
        }
        // `for x in &map` / `for x in map`
        if t.is_ident("for") {
            let mut j = i + 1;
            let mut saw_in = false;
            while j < toks.len() && j < i + 40 {
                let a = &toks[j];
                if a.is_punct('{') {
                    break;
                }
                if a.is_ident("in") {
                    saw_in = true;
                } else if saw_in
                    && a.kind == TokKind::Ident
                    && maps.contains(&a.text)
                    && !tok(toks, j + 1).is_some_and(|n| n.is_punct('.'))
                {
                    out.push(RawFinding {
                        line: a.line,
                        rule: "float-determinism",
                        message: format!(
                            "`for … in {}` iterates a hash map in nondeterministic order",
                            a.text
                        ),
                    });
                    break;
                }
                j += 1;
            }
        }
    }
}

// ---------------------------------------------------- rule: wire

/// Byte widths of the append helpers used by the proto encoders.
const PUT_SIZES: &[(&str, usize)] = &[
    ("push", 1),
    ("put_u8", 1),
    ("put_u16", 2),
    ("put_u32", 4),
    ("put_u64", 8),
];

fn wire_exhaustive(lexed: &Lexed, an: &Analysis, out: &mut Vec<RawFinding>) {
    let toks = &lexed.tokens;
    // Collect `const TAG_X: u8 = N;` (outside tests).
    struct TagConst {
        name: String,
        value: Option<u64>,
        line: u32,
    }
    let mut tags: Vec<TagConst> = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.is_ident("const")
            && tok(toks, i + 1)
                .is_some_and(|n| n.kind == TokKind::Ident && n.text.starts_with("TAG_"))
            && !an.tests.contains(t.line)
        {
            let name = toks[i + 1].text.clone();
            // value: first numeric literal before the `;`
            let mut value = None;
            for a in toks.iter().take(i + 10).skip(i + 2) {
                if a.is_punct(';') {
                    break;
                }
                if a.kind == TokKind::Literal {
                    value = parse_int(&a.text);
                    break;
                }
            }
            tags.push(TagConst {
                name,
                value,
                line: t.line,
            });
        }
    }
    if tags.is_empty() {
        return;
    }
    // Duplicate tag values.
    for (a, tc) in tags.iter().enumerate() {
        if let Some(v) = tc.value {
            if tags[..a].iter().any(|p| p.value == Some(v)) {
                out.push(RawFinding {
                    line: tc.line,
                    rule: "wire-exhaustive",
                    message: format!(
                        "record tag `{}` reuses value {v} of an earlier tag",
                        tc.name
                    ),
                });
            }
        }
    }
    // Usage classification: encode = argument of push/put_u8, or the
    // lead byte of a message written whole (`put_slice(&[TAG_X, ..])`);
    // decode = match-arm pattern (`TAG_X =>` or `TAG_X |` / `| TAG_X`).
    for tc in &tags {
        let mut encoded = false;
        let mut decoded = false;
        for i in 0..toks.len() {
            let t = &toks[i];
            if !(t.kind == TokKind::Ident && t.text == tc.name) || an.tests.contains(t.line) {
                continue;
            }
            if i >= 2
                && toks[i - 1].is_punct('(')
                && (toks[i - 2].is_ident("push") || toks[i - 2].is_ident("put_u8"))
            {
                encoded = true;
            }
            if i >= 4
                && toks[i - 1].is_punct('[')
                && toks[i - 2].is_punct('&')
                && toks[i - 3].is_punct('(')
                && toks[i - 4].is_ident("put_slice")
            {
                encoded = true;
            }
            let arrow_next = tok(toks, i + 1).is_some_and(|n| n.is_punct('='))
                && tok(toks, i + 2).is_some_and(|n| n.is_punct('>'));
            let or_adjacent = tok(toks, i + 1).is_some_and(|n| n.is_punct('|'))
                || (i > 0 && toks[i - 1].is_punct('|'));
            if arrow_next || or_adjacent {
                decoded = true;
            }
        }
        if encoded && !decoded {
            out.push(RawFinding {
                line: tc.line,
                rule: "wire-exhaustive",
                message: format!(
                    "record tag `{}` is encoded but never matched by a decode arm — a frame \
                     carrying it will fail to decode",
                    tc.name
                ),
            });
        }
        if decoded && !encoded {
            out.push(RawFinding {
                line: tc.line,
                rule: "wire-exhaustive",
                message: format!(
                    "record tag `{}` is decoded but never emitted by an encoder — dead \
                     protocol surface or a missing encode arm",
                    tc.name
                ),
            });
        }
        if !decoded && !encoded {
            out.push(RawFinding {
                line: tc.line,
                rule: "wire-exhaustive",
                message: format!("record tag `{}` is neither encoded nor decoded", tc.name),
            });
        }
    }
    // Header-size agreement: the bytes `encode_header` appends must
    // total the declared header-size constant.
    header_size_check(lexed, an, "encode_header", "FRAME_HEADER_BYTES", out);
}

fn header_size_check(
    lexed: &Lexed,
    an: &Analysis,
    encode_fn: &str,
    size_const: &str,
    out: &mut Vec<RawFinding>,
) {
    let toks = &lexed.tokens;
    let Some(f) = an.fns.iter().find(|f| f.name == encode_fn) else {
        return;
    };
    let mut declared = None;
    for i in 0..toks.len() {
        if toks[i].is_ident("const") && tok(toks, i + 1).is_some_and(|n| n.is_ident(size_const)) {
            for a in toks.iter().take(i + 10).skip(i + 2) {
                if a.is_punct(';') {
                    break;
                }
                if a.kind == TokKind::Literal {
                    declared = parse_int(&a.text);
                    break;
                }
            }
        }
    }
    let Some(declared) = declared else { return };
    let mut total = 0u64;
    for i in f.body_start..f.body_end.min(toks.len()) {
        let t = &toks[i];
        if t.kind == TokKind::Ident && tok(toks, i + 1).is_some_and(|n| n.is_punct('(')) {
            if let Some(&(_, size)) = PUT_SIZES.iter().find(|&&(n, _)| n == t.text) {
                total += size as u64;
            }
        }
    }
    if total != declared {
        out.push(RawFinding {
            line: f.line,
            rule: "wire-exhaustive",
            message: format!(
                "`{encode_fn}` appends {total} bytes but `{size_const}` declares {declared} — \
                 header size constants disagree"
            ),
        });
    }
}

fn parse_int(s: &str) -> Option<u64> {
    let s = s.replace('_', "");
    let s = s
        .trim_end_matches(|c: char| c.is_ascii_alphabetic())
        .to_owned();
    if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

// -------------------------------------------------------- entry point

/// Run every rule family over one file. `package_scopes` are the scopes
/// of its package's inner `//!` markers; they and the file's own put
/// every function of the file in scope.
pub fn lint_source(source: &str, package_scopes: &[String]) -> (Vec<RawFinding>, Lexed) {
    let lexed = lex(source);
    let mut an = analyze(&lexed);
    let file_scopes: Vec<String> = lexed
        .inner_scopes()
        .chain(package_scopes)
        .cloned()
        .collect();
    for f in &mut an.fns {
        f.scopes.extend_from_slice(&file_scopes);
    }
    let mut out = Vec::new();
    hot_path_alloc(&lexed, &an, &mut out);
    panic_freedom(&lexed, &an, &mut out);
    float_determinism(&lexed, &an, &mut out);
    wire_exhaustive(&lexed, &an, &mut out);
    validate_directives(&lexed, &an, &mut out);
    out.sort_by_key(|f| (f.line, f.rule));
    (out, lexed)
}

/// A malformed directive is itself a finding (and can never be
/// suppressed): a suppression with an unknown rule name or no
/// justification string, a marker with an unknown scope or attached to
/// no function.
fn validate_directives(lexed: &Lexed, an: &Analysis, out: &mut Vec<RawFinding>) {
    for m in &lexed.markers {
        for s in m.scopes.iter().filter(|s| !SCOPES.contains(&s.as_str())) {
            out.push(RawFinding {
                line: m.line,
                rule: "directive",
                message: format!(
                    "marker names unknown scope `{s}` (known: {})",
                    SCOPES.join(", ")
                ),
            });
        }
    }
    for &line in &an.dangling {
        out.push(RawFinding {
            line,
            rule: "directive",
            message: "marker attaches to no function: a `{` or `;` comes before the next \
                      `fn` with a body"
                .to_owned(),
        });
    }
    for d in &lexed.directives {
        if !RULES.contains(&d.rule.as_str()) {
            out.push(RawFinding {
                line: d.line,
                rule: "directive",
                message: format!(
                    "suppression names unknown rule `{}` (known: {})",
                    d.rule,
                    RULES.join(", ")
                ),
            });
        } else if d.reason.is_none() {
            out.push(RawFinding {
                line: d.line,
                rule: "directive",
                message: format!(
                    "suppression of `{}` has no justification — write \
                     `flowtune-lint: allow({}, \"why this is sound\")`",
                    d.rule, d.rule
                ),
            });
        }
    }
}

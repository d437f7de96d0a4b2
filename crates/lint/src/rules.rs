//! The rule families and their workspace scope configuration.
//!
//! Every rule is repo-specific: the scopes below name the modules (and,
//! within them, the functions) whose invariants the runtime test suite
//! pins — the zero-allocation steady state, panic-free decode, the
//! bit-for-bit equivalence that nondeterministic map iteration would
//! break. Amend the tables here when a module joins a hot path; the
//! procedure is documented in ARCHITECTURE.md §Static analysis.

use crate::analysis::{analyze, enclosing_fn, Analysis, FnSpan};
use crate::lexer::{lex, Lexed, Tok, TokKind};
use crate::report::Finding;

/// Canonical rule names, also accepted in `allow(...)` directives.
pub const RULES: &[&str] = &[
    "hot-path-alloc",
    "panic",
    "wire-exhaustive",
    "float-determinism",
    "stale-table-entry",
    "directive",
];

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

// ------------------------------------------------------------- scopes

/// A module on the zero-allocation steady-state path, with the
/// functions that path runs. `crates/net/tests/zero_alloc.rs` proves
/// the discipline on the code these functions execute; the lint extends
/// it to the branches the test never takes.
pub struct HotModule {
    /// Path relative to the workspace root.
    pub path: &'static str,
    /// Steady-state functions inside that module.
    pub hot_fns: &'static [&'static str],
}

/// The designated steady-state modules: the allocator tick, the
/// notification path into it (intake down to the engine's columns), the
/// exchange, and the transport recv paths.
pub const HOT_MODULES: &[HotModule] = &[
    HotModule {
        path: "crates/alloc/src/serial.rs",
        hot_fns: &[
            "iterate",
            "iterate_full",
            "iterate_incremental",
            "rate_phase_full",
            "rate_phase_dirty",
            "aggregate_and_price",
            "diff_and_mark",
            "distribute",
            "normalize_phase_full",
            "normalize_phase_dirty",
            "run_iterations",
            "rates_into",
            "drain_changed_rates",
            "for_each_total",
            "link_loads_into",
            "link_hessians_into",
            "link_state_into",
            "link_prices_into",
            "set_background_loads",
            "set_background_hessians",
            "set_link_prices",
            "add_flow",
            "remove_flow",
        ],
    },
    HotModule {
        path: "crates/alloc/src/layout.rs",
        hot_fns: &["split_path"],
    },
    HotModule {
        path: "crates/topo/src/clos.rs",
        hot_fns: &["path_via_spine"],
    },
    HotModule {
        path: "crates/alloc/src/flowblock.rs",
        hot_fns: &[
            "push",
            "swap_remove",
            "rate_pass",
            "path_sum",
            "path_add",
            "price_update",
            "normalize_pass",
            "path_max",
            "must_report",
            "report_pass",
            "absorb",
            "add_pair",
            "clear",
        ],
    },
    HotModule {
        path: "crates/alloc/src/engine.rs",
        hot_fns: &[
            "iterate",
            "run_iterations",
            "rates_into",
            "drain_changed_rates",
            "lend_passers",
            "link_loads_into",
            "link_hessians_into",
            "link_state_into",
            "link_prices_into",
            "set_background_loads",
            "set_background_hessians",
            "set_link_prices",
        ],
    },
    HotModule {
        path: "crates/alloc/src/gradient.rs",
        hot_fns: &["rates_into", "drain_changed_rates"],
    },
    HotModule {
        path: "crates/fastpass/src/adapter.rs",
        hot_fns: &["rates_into", "drain_changed_rates"],
    },
    HotModule {
        path: "crates/alloc/src/dirty.rs",
        hot_fns: &["note_add", "note_remove", "mark_intake", "drain_intake"],
    },
    HotModule {
        path: "crates/alloc/src/parallel.rs",
        hot_fns: &["iterate", "run_iterations"],
    },
    HotModule {
        path: "crates/core/src/service.rs",
        hot_fns: &[
            "on_message",
            "register",
            "release",
            "tick_into",
            "export_into",
            "emit_ordered",
            "rates_into",
            "link_loads_into",
            "link_hessians_into",
            "link_state_into",
            "link_prices_into",
            "set_background_loads",
            "set_background_hessians",
            "set_link_prices",
        ],
    },
    HotModule {
        path: "crates/core/src/endpoint.rs",
        hot_fns: &["on_rate_update", "on_drained", "poll"],
    },
    HotModule {
        path: "crates/core/src/exchange.rs",
        hot_fns: &[
            "begin_round",
            "apply_frame",
            "install",
            "start_round",
            "export",
            "agree",
            "accumulate",
            "sum_others",
            "nonzero_at",
            "request_resync",
            "refresh",
        ],
    },
    HotModule {
        path: "crates/core/src/router.rs",
        hot_fns: &[
            "tick_shards",
            "tick_into",
            "try_tick_into",
            "merge_by_token_into",
        ],
    },
    HotModule {
        path: "crates/core/src/sharded.rs",
        hot_fns: &["tick", "tick_shard", "exchange_link_state"],
    },
    HotModule {
        path: "crates/core/src/driver.rs",
        hot_fns: &["tick_into", "try_tick_into"],
    },
    HotModule {
        path: "crates/core/src/fluid.rs",
        hot_fns: &["tick", "drain"],
    },
    HotModule {
        path: "crates/core/src/scenario.rs",
        hot_fns: &["step"],
    },
    HotModule {
        path: "crates/net/src/transport.rs",
        hot_fns: &["send", "recv", "read_full"],
    },
    HotModule {
        path: "crates/net/src/peer.rs",
        hot_fns: &[
            "tick_export",
            "exchange_finish",
            "collect_slot",
            "tick_into",
            "broadcast_frame_buf",
        ],
    },
    HotModule {
        path: "crates/net/src/runtime.rs",
        hot_fns: &["receive_loop", "pop_with", "recycle"],
    },
    HotModule {
        path: "crates/net/src/cluster.rs",
        hot_fns: &["tick", "try_tick", "try_tick_into", "tick_into"],
    },
];

/// Where every failure must surface as an error value, never a panic:
/// the whole `flowtune-proto` crate, plus the decode/receive functions
/// of the net crate and the core exchange.
pub struct PanicScope {
    /// Path relative to the workspace root.
    pub path: &'static str,
    /// Functions covered; empty slice = every function in the file.
    pub fns: &'static [&'static str],
}

/// Panic-freedom scopes.
pub const PANIC_SCOPES: &[PanicScope] = &[
    PanicScope {
        path: "crates/proto/src/",
        fns: &[],
    },
    PanicScope {
        path: "crates/net/src/transport.rs",
        fns: &["recv", "read_full", "stream"],
    },
    PanicScope {
        path: "crates/net/src/peer.rs",
        fns: &[
            "exchange_finish",
            "collect_slot",
            "closed_error",
            "gather_epoch",
        ],
    },
    PanicScope {
        path: "crates/net/src/runtime.rs",
        fns: &[
            "receive_loop",
            "pop_with",
            "recycle",
            "take_failure",
            "lock",
        ],
    },
    PanicScope {
        path: "crates/net/src/cluster.rs",
        fns: &["tick", "try_tick", "try_tick_into"],
    },
    PanicScope {
        path: "crates/core/src/exchange.rs",
        // The decode, and the install math that reads what it stored.
        fns: &[
            "apply_frame",
            "install",
            "agree",
            "accumulate",
            "sum_others",
        ],
    },
];

/// Pricing / exchange / export modules whose outputs the equivalence
/// tests pin bit-for-bit, and the fluid drivers whose retirement order
/// decides the engines' slot reuse — `HashMap`/`HashSet` iteration order
/// must never reach them.
pub const FLOAT_DET_FILES: &[&str] = &[
    "crates/alloc/src/serial.rs",
    "crates/alloc/src/gradient.rs",
    "crates/alloc/src/parallel.rs",
    "crates/core/src/service.rs",
    "crates/core/src/router.rs",
    "crates/core/src/sharded.rs",
    "crates/core/src/exchange.rs",
    "crates/core/src/fluid.rs",
    "crates/bench/src/fluid.rs",
    "crates/bench/src/num_churn.rs",
    "crates/net/src/peer.rs",
    "crates/net/src/cluster.rs",
    "crates/proto/src/filter.rs",
];

/// The arithmetic kernels and the rate drain: functions whose float
/// results the differential and equivalence tests pin to the bit, at
/// every vector width CI builds. Inside them the operation order must
/// be the one written — no fused multiply-add, no iterator reduction
/// whose association the reader has to look up, no fast-math intrinsic.
pub const FLOAT_KERNELS: &[HotModule] = &[
    HotModule {
        path: "crates/alloc/src/flowblock.rs",
        hot_fns: &[
            "rate_pass",
            "path_sum",
            "path_add",
            "price_update",
            "normalize_pass",
            "path_max",
            "must_report",
            "report_pass",
            "absorb",
            "add_pair",
        ],
    },
    HotModule {
        path: "crates/alloc/src/serial.rs",
        hot_fns: &[
            "aggregate_and_price",
            "link_loads_into",
            "link_hessians_into",
            "link_state_into",
            "drain_changed_rates",
        ],
    },
    HotModule {
        path: "crates/alloc/src/parallel.rs",
        hot_fns: &["run_iterations"],
    },
    HotModule {
        path: "crates/core/src/service.rs",
        hot_fns: &["export_into"],
    },
];

/// Files holding wire-protocol tag constants to cross-check.
pub const WIRE_FILES: &[&str] = &["crates/proto/src/exchange.rs", "crates/proto/src/codec.rs"];

// ------------------------------------------------------------ helpers

fn tok(toks: &[Tok], i: usize) -> Option<&Tok> {
    toks.get(i)
}

fn is_path_sep(toks: &[Tok], i: usize) -> bool {
    // `::` lexes as two `:` puncts.
    tok(toks, i).is_some_and(|t| t.is_punct(':'))
        && tok(toks, i + 1).is_some_and(|t| t.is_punct(':'))
}

/// Does `path` (workspace-relative, `/`-separated) fall in `scope`?
/// A scope ending in `/` is a directory prefix, otherwise exact match.
fn in_scope(path: &str, scope: &str) -> bool {
    if let Some(dir) = scope.strip_suffix('/') {
        path.starts_with(dir) && path.len() > dir.len()
    } else {
        path == scope
    }
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

/// The non-test functions of the file at `path` that `table` lists.
fn listed_fns<'a>(
    table: &[HotModule],
    path: &str,
    an: &'a Analysis,
) -> impl Iterator<Item = &'a FnSpan> {
    let listed = table
        .iter()
        .find(|m| in_scope(path, m.path))
        .map_or(&[][..], |m| m.hot_fns);
    an.fns
        .iter()
        .filter(move |f| listed.contains(&f.name.as_str()) && !an.tests.contains(f.line))
}

fn hot_path_alloc(path: &str, lexed: &Lexed, an: &Analysis, out: &mut Vec<RawFinding>) {
    let toks = &lexed.tokens;
    for f in listed_fns(HOT_MODULES, path, an) {
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

fn panic_freedom(path: &str, lexed: &Lexed, an: &Analysis, out: &mut Vec<RawFinding>) {
    let scopes: Vec<&PanicScope> = PANIC_SCOPES
        .iter()
        .filter(|s| in_scope(path, s.path))
        .collect();
    if scopes.is_empty() {
        return;
    }
    let covered = |f: &FnSpan| {
        scopes
            .iter()
            .any(|s| s.fns.is_empty() || s.fns.contains(&f.name.as_str()))
    };
    let toks = &lexed.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        if an.tests.contains(t.line) {
            continue;
        }
        let Some(f) = enclosing_fn(&an.fns, i) else {
            continue;
        };
        if !covered(f) {
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

/// The kernel half of the rule: inside [`FLOAT_KERNELS`] functions,
/// every float operation must be an explicit `+ - * /` in source order.
fn float_kernel_order(path: &str, lexed: &Lexed, an: &Analysis, out: &mut Vec<RawFinding>) {
    let toks = &lexed.tokens;
    for f in listed_fns(FLOAT_KERNELS, path, an) {
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

fn float_determinism(path: &str, lexed: &Lexed, an: &Analysis, out: &mut Vec<RawFinding>) {
    float_kernel_order(path, lexed, an, out);
    if !FLOAT_DET_FILES.iter().any(|f| in_scope(path, f)) {
        return;
    }
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
                    "`{}.{}()` iterates a hash map in nondeterministic order on a \
                     pricing/exchange/export path",
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
                            "`for … in {}` iterates a hash map in nondeterministic order on a \
                             pricing/exchange/export path",
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

fn wire_exhaustive(path: &str, lexed: &Lexed, an: &Analysis, out: &mut Vec<RawFinding>) {
    if !WIRE_FILES.iter().any(|f| in_scope(path, f)) {
        return;
    }
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

// ------------------------------------------------- rule: stale tables

/// Every row of the scope tables as `(table, path, listed fns)`; the
/// path-only tables list no functions.
fn table_rows() -> impl Iterator<Item = (&'static str, &'static str, &'static [&'static str])> {
    let fns =
        |name, table: &'static [HotModule]| table.iter().map(move |m| (name, m.path, m.hot_fns));
    let paths =
        |name, table: &'static [&'static str]| table.iter().map(move |&p| (name, p, &[][..]));
    fns("HOT_MODULES", HOT_MODULES)
        .chain(fns("FLOAT_KERNELS", FLOAT_KERNELS))
        .chain(PANIC_SCOPES.iter().map(|s| ("PANIC_SCOPES", s.path, s.fns)))
        .chain(paths("FLOAT_DET_FILES", FLOAT_DET_FILES))
        .chain(paths("WIRE_FILES", WIRE_FILES))
}

/// `stale-table-entry`: the scope tables checked against the tree. The
/// tables match by path and function name, so a function that is moved
/// or renamed silently leaves its rule's scope unless this fires.
/// `read` returns the source of a workspace-relative file, or anything
/// for a directory scope (a path ending in `/`) that exists; `None` is a
/// listed path that is gone. Not suppressible — the fix is to amend the
/// table.
pub fn stale_table_entries(read: &dyn Fn(&str) -> Option<String>) -> Vec<Finding> {
    let mut out = Vec::new();
    for (table, path, fns) in table_rows() {
        let mut stale = |what: String| {
            out.push(Finding {
                file: path.to_owned(),
                line: 1,
                rule: "stale-table-entry",
                message: format!(
                    "{table} lists {what}; update the table in crates/lint/src/rules.rs"
                ),
                suppressed: None,
            });
        };
        let Some(source) = read(path) else {
            stale(format!("`{path}`, which does not exist"));
            continue;
        };
        let an = analyze(&lex(&source));
        for &name in fns {
            let defined = |f: &FnSpan| f.name == name && !an.tests.contains(f.line);
            if !an.fns.iter().any(defined) {
                stale(format!(
                    "`{name}`, which this file does not define outside test code"
                ));
            }
        }
    }
    out
}

// -------------------------------------------------------- entry point

/// Run every rule family over one file. `path` must be workspace-
/// relative with `/` separators (it selects the rule scopes).
pub fn lint_source(path: &str, source: &str) -> (Vec<RawFinding>, Lexed) {
    let lexed = lex(source);
    let an = analyze(&lexed);
    let mut out = Vec::new();
    hot_path_alloc(path, &lexed, &an, &mut out);
    panic_freedom(path, &lexed, &an, &mut out);
    float_determinism(path, &lexed, &an, &mut out);
    wire_exhaustive(path, &lexed, &an, &mut out);
    validate_directives(&lexed, &mut out);
    out.sort_by_key(|f| (f.line, f.rule));
    (out, lexed)
}

/// A malformed suppression is itself a finding (and can never be
/// suppressed): unknown rule name, or no justification string.
fn validate_directives(lexed: &Lexed, out: &mut Vec<RawFinding>) {
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

//! Per-rule fixture tests: for each family, one fixture fires, one is
//! suppressed with a justification, one is clean. Markers in the
//! fixtures, not their paths, put functions in a rule's scope: `ANY` is
//! a path no rule ever named.

use flowtune_lint::lint_file;
use flowtune_lint::report::Finding;

const ANY: &str = "crates/sim/src/fixture.rs";

fn unsuppressed(findings: &[Finding]) -> Vec<&Finding> {
    findings.iter().filter(|f| f.suppressed.is_none()).collect()
}

fn lines_of(findings: &[&Finding], rule: &str) -> Vec<u32> {
    findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| f.line)
        .collect()
}

// ----------------------------------------------------- hot-path-alloc

#[test]
fn hot_alloc_fires_on_hot_functions_only() {
    let findings = lint_file(ANY, include_str!("fixtures/hot_alloc_fires.rs"));
    let live = unsuppressed(&findings);
    assert_eq!(
        lines_of(&live, "hot-path-alloc"),
        vec![12, 13, 14],
        "{live:?}"
    );
}

#[test]
fn hot_alloc_suppressed_by_justified_allow() {
    let findings = lint_file(ANY, include_str!("fixtures/hot_alloc_suppressed.rs"));
    assert!(unsuppressed(&findings).is_empty(), "{findings:?}");
    // Both the trailing and the own-line directive actually matched.
    assert_eq!(
        findings.iter().filter(|f| f.suppressed.is_some()).count(),
        2,
        "{findings:?}"
    );
}

#[test]
fn hot_alloc_clean_reuse_passes() {
    let findings = lint_file(ANY, include_str!("fixtures/hot_alloc_clean.rs"));
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn hot_alloc_ignores_unmarked_functions() {
    // The same allocating code without its marker produces nothing —
    // even at the path whose `note_add` really is hot.
    let unmarked = include_str!("fixtures/hot_alloc_fires.rs").replace("// flowtune-lint: hot", "");
    for path in [ANY, "crates/alloc/src/dirty.rs"] {
        let findings = lint_file(path, &unmarked);
        assert!(findings.is_empty(), "{path}: {findings:?}");
    }
}

// -------------------------------------------------------------- panic

#[test]
fn panic_fires_in_proto_scope() {
    // Marked, anywhere; unmarked, in any file of `flowtune-proto`, whose
    // src/lib.rs carries `//! flowtune-lint: untrusted-input`.
    let marked = include_str!("fixtures/panic_fires.rs");
    let unmarked = marked.replace("// flowtune-lint: untrusted-input", "");
    for (path, src) in [(ANY, marked), ("crates/proto/src/new_module.rs", &unmarked)] {
        let live = lint_file(path, src);
        assert_eq!(
            lines_of(&unsuppressed(&live), "panic"),
            vec![6, 7, 9],
            "{path}: {live:?}"
        );
    }
    // Unmarked outside the proto package: out of scope.
    assert!(lint_file("crates/net/src/new_module.rs", &unmarked).is_empty());
}

#[test]
fn panic_suppressed_by_justified_allow() {
    let findings = lint_file(ANY, include_str!("fixtures/panic_suppressed.rs"));
    assert!(unsuppressed(&findings).is_empty(), "{findings:?}");
    assert_eq!(findings.len(), 1);
    assert_eq!(
        findings[0].suppressed.as_deref(),
        Some("caller guarantees a non-empty header")
    );
}

#[test]
fn panic_clean_error_returns_pass() {
    let findings = lint_file(ANY, include_str!("fixtures/panic_clean.rs"));
    assert!(findings.is_empty(), "{findings:?}");
}

// ----------------------------------------------------- wire-exhaustive

#[test]
fn wire_fires_on_one_sided_tags_and_header_mismatch() {
    let findings = lint_file(ANY, include_str!("fixtures/wire_fires.rs"));
    let live = unsuppressed(&findings);
    let wire = lines_of(&live, "wire-exhaustive");
    // line 5: encoder-only TAG_ORPHAN; line 6: decoder-only TAG_GHOST;
    // line 7 twice: TAG_CLASH duplicates value 1 and is unused;
    // line 17: encode_header appends 3 bytes, declared 5.
    assert_eq!(wire, vec![5, 6, 7, 7, 17], "{live:?}");
    assert!(live.iter().any(|f| f.message.contains("TAG_ORPHAN")));
    assert!(live.iter().any(|f| f.message.contains("TAG_GHOST")));
    assert!(live.iter().any(|f| f.message.contains("reuses value 1")));
    assert!(live
        .iter()
        .any(|f| f.message.contains("appends 3 bytes") && f.message.contains("declares 5")));
}

#[test]
fn wire_suppressed_by_justified_allow() {
    let findings = lint_file(ANY, include_str!("fixtures/wire_suppressed.rs"));
    assert!(unsuppressed(&findings).is_empty(), "{findings:?}");
    assert_eq!(findings.len(), 1);
}

#[test]
fn wire_clean_two_sided_tags_pass() {
    let findings = lint_file(ANY, include_str!("fixtures/wire_clean.rs"));
    assert!(findings.is_empty(), "{findings:?}");
}

// --------------------------------------------------- float-determinism

#[test]
fn float_det_fires_on_hashmap_iteration() {
    let findings = lint_file(ANY, include_str!("fixtures/float_fires.rs"));
    let live = unsuppressed(&findings);
    assert_eq!(
        lines_of(&live, "float-determinism"),
        vec![13, 21],
        "{live:?}"
    );
}

#[test]
fn float_det_suppressed_by_justified_allow() {
    let findings = lint_file(ANY, include_str!("fixtures/float_suppressed.rs"));
    assert!(unsuppressed(&findings).is_empty(), "{findings:?}");
    assert_eq!(findings.len(), 1);
}

#[test]
fn float_det_clean_btreemap_passes() {
    let findings = lint_file(ANY, include_str!("fixtures/float_clean.rs"));
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn float_det_fires_on_fused_or_reassociated_kernel_arithmetic() {
    let marked = include_str!("fixtures/float_kernel_fires.rs");
    let live = lint_file(ANY, marked);
    let live = unsuppressed(&live);
    assert_eq!(
        lines_of(&live, "float-determinism"),
        vec![6, 8, 9],
        "{live:?}"
    );
    // The same source without the `float-kernel` scope is not this
    // rule's business, at the kernels' own path too.
    let hot_only = marked.replace("hot, float-kernel", "hot");
    let elsewhere = lint_file("crates/alloc/src/flowblock.rs", &hot_only);
    assert!(lines_of(&unsuppressed(&elsewhere), "float-determinism").is_empty());
}

// ----------------------------------------------- directive validation

#[test]
fn unjustified_suppression_is_a_finding_and_does_not_suppress() {
    let src = "pub fn f(buf: &[u8]) -> u8 {\n    buf[0] // flowtune-lint: allow(panic)\n}\n";
    let findings = lint_file("crates/proto/src/fixture.rs", src);
    let live = unsuppressed(&findings);
    assert!(
        live.iter().any(|f| f.rule == "directive"),
        "missing-justification finding: {live:?}"
    );
    assert!(
        live.iter().any(|f| f.rule == "panic" && f.line == 2),
        "the unjustified allow must not suppress: {live:?}"
    );
}

#[test]
fn unknown_rule_in_suppression_is_a_finding() {
    let src = "// flowtune-lint: allow(made-up-rule, \"because\")\npub fn f() {}\n";
    let findings = lint_file("crates/proto/src/fixture.rs", src);
    let live = unsuppressed(&findings);
    assert_eq!(live.len(), 1, "{live:?}");
    assert_eq!(live[0].rule, "directive");
    assert!(live[0].message.contains("made-up-rule"));
}

#[test]
fn allow_that_suppresses_nothing_is_a_finding() {
    let findings = lint_file(ANY, include_str!("fixtures/unused_allow.rs"));
    assert_eq!(findings.len(), 1, "{findings:?}");
    let f = &findings[0];
    assert_eq!(
        (f.rule, f.line, f.suppressed.is_none()),
        ("directive", 6, true)
    );
    assert!(f.message.contains("suppresses nothing on line 7"), "{f:?}");
}

// ------------------------------------------------------------ markers

/// Unsuppressed findings of `src` as `(line, rule)`.
fn live_at(src: &str) -> Vec<(u32, &'static str)> {
    let findings = lint_file(ANY, src);
    unsuppressed(&findings)
        .iter()
        .map(|f| (f.line, f.rule))
        .collect()
}

#[test]
fn marker_attaches_across_attributes_and_docs_to_the_next_fn() {
    let src = "// flowtune-lint: hot\n/// Docs.\n#[inline]\n#[must_use]\npub(crate) fn f() -> Vec<u8> {\n    vec![1]\n}\n";
    assert_eq!(live_at(src), vec![(6, "hot-path-alloc")]);
}

#[test]
fn dangling_marker_is_an_unsuppressible_finding() {
    // A `;` first (an item without a body), a `{` first (an impl block,
    // not the method inside it), a bodiless trait method.
    for src in [
        "// flowtune-lint: hot\npub struct S;\npub fn f() -> Vec<u8> { vec![] }\n",
        "// flowtune-lint: hot\nimpl S {\n    pub fn f() -> Vec<u8> { vec![] }\n}\n",
        "pub trait T {\n    // flowtune-lint: hot\n    fn f(&self);\n}\n",
    ] {
        let line = src
            .lines()
            .position(|l| l.contains("flowtune-lint: hot"))
            .unwrap() as u32
            + 1;
        assert_eq!(live_at(src), vec![(line, "directive")], "{src}");
        let allowed = src.replace(
            "flowtune-lint: hot",
            "flowtune-lint: hot // flowtune-lint: allow(directive, \"no\")",
        );
        assert!(
            live_at(&allowed).contains(&(line, "directive")),
            "{allowed}"
        );
    }
}

#[test]
fn unknown_scope_in_marker_is_a_finding() {
    let src = "// flowtune-lint: hot, warm\npub fn f() -> Vec<u8> {\n    vec![]\n}\n";
    let findings = lint_file(ANY, src);
    let live = unsuppressed(&findings);
    assert_eq!(lines_of(&live, "directive"), vec![1], "{live:?}");
    assert!(live[0].message.contains("`warm`"));
    // The known scope on the same line still applies.
    assert_eq!(lines_of(&live, "hot-path-alloc"), vec![3]);
}

//! Per-rule fixture tests: for each family, one fixture fires, one is
//! suppressed with a justification, one is clean. The fixture's virtual
//! path places it inside the rule's workspace scope.

use flowtune_lint::lint_file;
use flowtune_lint::report::Finding;

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
    let findings = lint_file(
        "crates/alloc/src/dirty.rs",
        include_str!("fixtures/hot_alloc_fires.rs"),
    );
    let live = unsuppressed(&findings);
    assert_eq!(
        lines_of(&live, "hot-path-alloc"),
        vec![11, 12, 13],
        "{live:?}"
    );
}

#[test]
fn hot_alloc_suppressed_by_justified_allow() {
    let findings = lint_file(
        "crates/alloc/src/dirty.rs",
        include_str!("fixtures/hot_alloc_suppressed.rs"),
    );
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
    let findings = lint_file(
        "crates/alloc/src/dirty.rs",
        include_str!("fixtures/hot_alloc_clean.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn hot_alloc_ignores_files_outside_scope() {
    // The same allocating code in a module that is not on the hot list
    // produces nothing.
    let findings = lint_file(
        "crates/topo/src/build.rs",
        include_str!("fixtures/hot_alloc_fires.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

// -------------------------------------------------------------- panic

#[test]
fn panic_fires_in_proto_scope() {
    let findings = lint_file(
        "crates/proto/src/fixture.rs",
        include_str!("fixtures/panic_fires.rs"),
    );
    let live = unsuppressed(&findings);
    assert_eq!(lines_of(&live, "panic"), vec![6, 7, 9], "{live:?}");
}

#[test]
fn panic_suppressed_by_justified_allow() {
    let findings = lint_file(
        "crates/proto/src/fixture.rs",
        include_str!("fixtures/panic_suppressed.rs"),
    );
    assert!(unsuppressed(&findings).is_empty(), "{findings:?}");
    assert_eq!(findings.len(), 1);
    assert_eq!(
        findings[0].suppressed.as_deref(),
        Some("caller guarantees a non-empty header")
    );
}

#[test]
fn panic_clean_error_returns_pass() {
    let findings = lint_file(
        "crates/proto/src/fixture.rs",
        include_str!("fixtures/panic_clean.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

// ----------------------------------------------------- wire-exhaustive

#[test]
fn wire_fires_on_one_sided_tags_and_header_mismatch() {
    let findings = lint_file(
        "crates/proto/src/exchange.rs",
        include_str!("fixtures/wire_fires.rs"),
    );
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
    let findings = lint_file(
        "crates/proto/src/exchange.rs",
        include_str!("fixtures/wire_suppressed.rs"),
    );
    assert!(unsuppressed(&findings).is_empty(), "{findings:?}");
    assert_eq!(findings.len(), 1);
}

#[test]
fn wire_clean_two_sided_tags_pass() {
    let findings = lint_file(
        "crates/proto/src/exchange.rs",
        include_str!("fixtures/wire_clean.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

// --------------------------------------------------- float-determinism

#[test]
fn float_det_fires_on_hashmap_iteration() {
    let findings = lint_file(
        "crates/core/src/service.rs",
        include_str!("fixtures/float_fires.rs"),
    );
    let live = unsuppressed(&findings);
    assert_eq!(
        lines_of(&live, "float-determinism"),
        vec![13, 21],
        "{live:?}"
    );
}

#[test]
fn float_det_suppressed_by_justified_allow() {
    let findings = lint_file(
        "crates/core/src/service.rs",
        include_str!("fixtures/float_suppressed.rs"),
    );
    assert!(unsuppressed(&findings).is_empty(), "{findings:?}");
    assert_eq!(findings.len(), 1);
}

#[test]
fn float_det_clean_btreemap_passes() {
    let findings = lint_file(
        "crates/core/src/service.rs",
        include_str!("fixtures/float_clean.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn float_det_fires_on_fused_or_reassociated_kernel_arithmetic() {
    let findings = lint_file(
        "crates/alloc/src/flowblock.rs",
        include_str!("fixtures/float_kernel_fires.rs"),
    );
    let live = unsuppressed(&findings);
    assert_eq!(
        lines_of(&live, "float-determinism"),
        vec![6, 8, 9],
        "{live:?}"
    );
    // The same source outside the kernel table is not this rule's
    // business.
    let elsewhere = lint_file(
        "crates/alloc/src/layout.rs",
        include_str!("fixtures/float_kernel_fires.rs"),
    );
    assert!(lines_of(&unsuppressed(&elsewhere), "float-determinism").is_empty());
}

// --------------------------------------------------- stale-table-entry

#[test]
fn stale_table_entry_fires_on_moved_functions_and_missing_paths() {
    // HOT_MODULES lists four functions for dirty.rs. This tree's copy
    // kept two (an `impl Trait` argument must not hide a function from
    // the tables — it did, until this rule caught five such), moved one
    // into test code and lost the fourth. Every other listed path is
    // gone.
    let dirty = "pub fn note_add() {}\n\
                 pub fn mark_intake(mut sink: impl FnMut(u32)) { sink(0) }\n\
                 #[cfg(test)]\n\
                 mod tests {\n    fn note_remove() {}\n}\n";
    let read = |path: &str| (path == "crates/alloc/src/dirty.rs").then(|| dirty.to_owned());
    let stale = flowtune_lint::rules::stale_table_entries(&read);
    assert!(stale
        .iter()
        .all(|f| f.rule == "stale-table-entry" && f.suppressed.is_none()));
    let about = |path: &str| -> Vec<&str> {
        let of_path = stale.iter().filter(|f| f.file == path);
        of_path.map(|f| f.message.as_str()).collect()
    };
    let dirty_findings = about("crates/alloc/src/dirty.rs");
    assert_eq!(dirty_findings.len(), 2, "{dirty_findings:?}");
    assert!(dirty_findings[0].contains("HOT_MODULES lists `note_remove`"));
    assert!(dirty_findings[1].contains("HOT_MODULES lists `drain_intake`"));
    // A missing path is reported once per table that still lists it,
    // directory scopes included.
    let serial = about("crates/alloc/src/serial.rs");
    assert_eq!(serial.len(), 3, "{serial:?}");
    assert!(serial.iter().all(|m| m.contains("does not exist")));
    assert_eq!(about("crates/proto/src/").len(), 1);
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

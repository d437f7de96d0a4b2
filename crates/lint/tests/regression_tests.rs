//! Deliberate-regression tests: take the real workspace sources, inject
//! one violation, and prove the rule catches it at the expected
//! file:line. This is the evidence that each rule family can actually
//! fail — a lint that never fires is indistinguishable from no lint.

use flowtune_lint::lint_file;
use flowtune_lint::report::Finding;

/// Read a real workspace source file (tests run from crates/lint).
fn workspace_source(rel: &str) -> String {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    std::fs::read_to_string(format!("{root}/{rel}")).unwrap_or_else(|e| panic!("read {rel}: {e}"))
}

fn unsuppressed(findings: Vec<Finding>) -> Vec<Finding> {
    findings
        .into_iter()
        .filter(|f| f.suppressed.is_none())
        .collect()
}

/// Inject `payload` on a new line directly after the first line that
/// contains `anchor`. Returns (source, 1-based line of the injection).
fn inject_after(src: &str, anchor: &str, payload: &str) -> (String, u32) {
    let mut out = String::with_capacity(src.len() + payload.len() + 1);
    let mut injected_at = None;
    for (idx, line) in src.lines().enumerate() {
        out.push_str(line);
        out.push('\n');
        if injected_at.is_none() && line.contains(anchor) {
            out.push_str(payload);
            out.push('\n');
            injected_at = Some(idx as u32 + 2);
        }
    }
    (
        out,
        injected_at.unwrap_or_else(|| panic!("anchor {anchor:?} not found")),
    )
}

#[test]
fn real_workspace_files_start_clean() {
    // The injections below only prove anything if the unmodified files
    // carry no unsuppressed findings to begin with.
    for rel in [
        "crates/alloc/src/serial.rs",
        "crates/proto/src/exchange.rs",
        "crates/proto/src/codec.rs",
        "crates/core/src/service.rs",
    ] {
        let live = unsuppressed(lint_file(rel, &workspace_source(rel)));
        assert!(live.is_empty(), "{rel} not clean: {live:?}");
    }
}

#[test]
fn injected_format_in_hot_allocator_path_is_caught() {
    let rel = "crates/alloc/src/serial.rs";
    let src = workspace_source(rel);
    let (bad, line) = inject_after(
        &src,
        "fn rate_phase(",
        "        let _trace = format!(\"tick\");",
    );
    let live = unsuppressed(lint_file(rel, &bad));
    assert!(
        live.iter()
            .any(|f| f.rule == "hot-path-alloc" && f.line == line),
        "expected hot-path-alloc at line {line}: {live:?}"
    );
}

#[test]
fn injected_unwrap_in_proto_decode_is_caught() {
    let rel = "crates/proto/src/exchange.rs";
    let src = workspace_source(rel);
    let (bad, line) = inject_after(
        &src,
        "pub fn decode_header(",
        "        let _first = frame.first().unwrap();",
    );
    let live = unsuppressed(lint_file(rel, &bad));
    assert!(
        live.iter().any(|f| f.rule == "panic" && f.line == line),
        "expected panic at line {line}: {live:?}"
    );
}

#[test]
fn injected_index_in_exchange_install_math_is_caught() {
    // The scan that used to run off a row a hostile frame had sized:
    // the install math reads what `apply_frame` stored, so it is held to
    // the same no-unchecked-index rule.
    let rel = "crates/core/src/exchange.rs";
    let src = workspace_source(rel);
    assert!(unsuppressed(lint_file(rel, &src)).is_empty());
    let (bad, line) = inject_after(
        &src,
        "pub(crate) fn agree(",
        "        let _first = self.rows[0].loads[self.round_links - 1];",
    );
    let live = unsuppressed(lint_file(rel, &bad));
    assert!(
        live.iter().any(|f| f.rule == "panic" && f.line == line),
        "expected panic at line {line}: {live:?}"
    );
}

#[test]
fn injected_encoder_only_tag_is_caught() {
    let rel = "crates/proto/src/exchange.rs";
    let src = workspace_source(rel);
    // A new record tag the encoder emits but no decode arm matches.
    let (bad, line) = inject_after(
        &src,
        "const TAG_SUB_REMOVE",
        "pub const TAG_PHANTOM: u8 = 250;\npub fn encode_phantom(out: &mut Vec<u8>) { out.push(TAG_PHANTOM); }",
    );
    let live = unsuppressed(lint_file(rel, &bad));
    assert!(
        live.iter().any(|f| {
            f.rule == "wire-exhaustive" && f.line == line && f.message.contains("TAG_PHANTOM")
        }),
        "expected wire-exhaustive at line {line}: {live:?}"
    );
}

#[test]
fn injected_header_size_drift_is_caught() {
    let rel = "crates/proto/src/exchange.rs";
    let src = workspace_source(rel);
    // Grow the header by one byte without touching FRAME_HEADER_BYTES.
    let (bad, _line) = inject_after(&src, "pub fn encode_header(", "        out.push(0xEE);");
    let live = unsuppressed(lint_file(rel, &bad));
    assert!(
        live.iter()
            .any(|f| f.rule == "wire-exhaustive" && f.message.contains("header size")),
        "expected header-size disagreement: {live:?}"
    );
}

#[test]
fn injected_hashmap_iteration_in_pricing_is_caught() {
    let rel = "crates/core/src/service.rs";
    let src = workspace_source(rel);
    let (bad, line) = inject_after(
        &src,
        "fn export_into(",
        "        let audit: std::collections::HashMap<u64, f64> = std::collections::HashMap::new();\n        for (_t, _r) in audit.iter() {}",
    );
    let live = unsuppressed(lint_file(rel, &bad));
    // The for-loop sits one line below the binding.
    assert!(
        live.iter()
            .any(|f| f.rule == "float-determinism" && f.line == line + 1),
        "expected float-determinism at line {}: {live:?}",
        line + 1
    );
}

#[test]
fn workspace_lint_runs_clean_end_to_end() {
    // The CI gate in miniature: zero unsuppressed findings across the
    // whole workspace.
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let findings =
        flowtune_lint::lint_workspace(std::path::Path::new(root)).expect("workspace walk succeeds");
    let live: Vec<_> = findings.iter().filter(|f| f.suppressed.is_none()).collect();
    assert!(live.is_empty(), "unsuppressed findings: {live:#?}");
}

#[test]
fn renamed_marked_function_stays_in_scope() {
    // A rename must not take a function out of scope — the failure a
    // table of names had, and `stale-table-entry` only reported. The
    // marker moves with the function.
    let rel = "crates/alloc/src/serial.rs";
    let src = workspace_source(rel).replace("fn rate_phase(", "fn rate_phase_all(");
    let (bad, line) = inject_after(
        &src,
        "fn rate_phase_all(",
        "        let _trace = format!(\"tick\");",
    );
    let live = unsuppressed(lint_file(rel, &bad));
    assert!(
        live.iter()
            .any(|f| f.rule == "hot-path-alloc" && f.line == line),
        "expected hot-path-alloc at line {line}: {live:?}"
    );
}

#[test]
fn injected_hashmap_iteration_in_any_file_is_caught() {
    // The simulator's metrics were never on a table of pricing files;
    // the map rule now runs everywhere.
    let rel = "crates/sim/src/metrics.rs";
    let src = workspace_source(rel);
    assert!(unsuppressed(lint_file(rel, &src)).is_empty());
    let (bad, line) = inject_after(
        &src,
        "pub fn fairness_score(",
        "        let _bins: usize = self.throughput_bins.values().map(Vec::len).sum();",
    );
    let live = unsuppressed(lint_file(rel, &bad));
    assert!(
        live.iter()
            .any(|f| f.rule == "float-determinism" && f.line == line),
        "expected float-determinism at line {line}: {live:?}"
    );
}

//! flowtune-lint: workspace-native static analysis.
//!
//! Four rule families, each enforcing an invariant the runtime test
//! suite pins but can only spot-check:
//!
//! * **hot-path-alloc** — no allocating calls in the designated
//!   steady-state functions (the allocator tick, the exchange round,
//!   the transport send/recv paths). Extends the counting-allocator
//!   guarantee of `crates/net/tests/zero_alloc.rs` to every branch.
//! * **panic** — no `unwrap`/`expect`/`panic!`/unchecked indexing in
//!   `flowtune-proto` or the net decode/receive paths; a malformed
//!   frame from a peer must surface as an error value, never abort the
//!   arbiter.
//! * **wire-exhaustive** — every `TAG_*` record constant appears on
//!   both the encode and decode side, tag values are unique, and the
//!   bytes `encode_header` appends agree with `FRAME_HEADER_BYTES`.
//! * **float-determinism** — no `HashMap`/`HashSet`-order iteration in
//!   pricing/exchange/export code, where iteration order would make
//!   f64 accumulation order (and thus emitted rates) nondeterministic.
//!
//! The first, second and fourth are scoped by tables of file paths and
//! function names (`rules::HOT_MODULES` and friends). A workspace run
//! also checks the tables against the tree — **stale-table-entry**: a
//! listed path that is gone, or a listed function its file no longer
//! defines outside test code — so moving a function cannot silently
//! take it out of a rule's scope.
//!
//! Findings are suppressed line-by-line with
//! `// flowtune-lint: allow(<rule>, "<why>")`; a suppression without a
//! justification is itself a finding.
#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod analysis;
pub mod lexer;
pub mod report;
pub mod rules;

use report::{apply_suppressions, Finding};
use std::path::{Path, PathBuf};

/// Lint one file's source text. `rel_path` must be workspace-relative
/// with `/` separators — it selects which rule scopes apply.
pub fn lint_file(rel_path: &str, source: &str) -> Vec<Finding> {
    let (raw, lexed) = rules::lint_source(rel_path, source);
    apply_suppressions(rel_path, raw, &lexed)
}

/// Directories scanned under the workspace root, relative to it.
/// `crates/compat` (vendored third-party shims) and `crates/lint`
/// itself (its fixtures deliberately contain violations) are excluded.
const SCAN_ROOTS: &[&str] = &["crates", "src"];
const SKIP_CRATES: &[&str] = &["compat", "lint"];

/// Walk the workspace and lint every `.rs` file under the scan roots.
/// Returns findings sorted by (file, line). I/O errors surface as
/// `Err` with the offending path in the message.
pub fn lint_workspace(root: &Path) -> Result<Vec<Finding>, String> {
    let mut files: Vec<PathBuf> = Vec::new();
    for scan in SCAN_ROOTS {
        let dir = root.join(scan);
        if dir.is_dir() {
            collect_rs(&dir, &mut files)?;
        }
    }
    files.sort();
    let mut findings = Vec::new();
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .map_err(|_| format!("path {} escapes root", path.display()))?;
        let rel_str = rel
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        if SKIP_CRATES
            .iter()
            .any(|c| rel_str.starts_with(&format!("crates/{c}/")))
        {
            continue;
        }
        let source =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        findings.extend(lint_file(&rel_str, &source));
    }
    findings.extend(rules::stale_table_entries(&|path| {
        let on_disk = root.join(path);
        if path.ends_with('/') {
            on_disk.is_dir().then(String::new)
        } else {
            std::fs::read_to_string(on_disk).ok()
        }
    }));
    findings.sort_by(|a, b| (a.file.as_str(), a.line).cmp(&(b.file.as_str(), b.line)));
    Ok(findings)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        let path = entry.path();
        if path.is_dir() {
            let name = entry.file_name();
            if name == "target" || name == "fixtures" {
                continue;
            }
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

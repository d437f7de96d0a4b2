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
//! * **float-determinism** — no `HashMap`/`HashSet`-order iteration,
//!   which would make f64 accumulation order (and thus emitted rates)
//!   nondeterministic; inside the float kernels, no fused or
//!   reassociated arithmetic.
//!
//! The wire rule and the map half of float-determinism run on every
//! file. The others run on the functions a marker puts in their scope:
//! `// flowtune-lint: hot`, `untrusted-input` or `float-kernel`
//! (comma-separated for several) attaches to the next `fn`, provided no
//! `{` or `;` comes first, so it may sit above attributes. An inner
//! `//! flowtune-lint: <scope>` scopes its whole file, or its whole
//! package from `src/lib.rs` — how all of `flowtune-proto` is
//! `untrusted-input`. A marker with an unknown scope or no function is
//! a `directive` finding.
//!
//! Findings are suppressed line-by-line with
//! `// flowtune-lint: allow(<rule>, "<why>")`; a suppression without a
//! justification, or one that suppresses nothing, is itself a finding.
#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod analysis;
pub mod lexer;
pub mod report;
pub mod rules;

use report::{apply_suppressions, Finding};
use std::path::{Path, PathBuf};

/// Lint one file's source text as a file of the workspace that contains
/// the current directory. `rel_path` must be workspace-relative with `/`
/// separators — it names the package whose `src/lib.rs` markers apply.
pub fn lint_file(rel_path: &str, source: &str) -> Vec<Finding> {
    lint_in(&workspace_root(), rel_path, source)
}

/// [`lint_file`] in the workspace at `root`, whose package `src/lib.rs`
/// is read for its inner markers.
fn lint_in(root: &Path, rel_path: &str, source: &str) -> Vec<Finding> {
    let lib_rs = rel_path
        .find("src/")
        .map(|at| format!("{}lib.rs", &rel_path[..at + 4]));
    let package_scopes: Vec<String> = (lib_rs.filter(|lib| lib != rel_path))
        .and_then(|lib| std::fs::read_to_string(root.join(lib)).ok())
        .map_or_else(Vec::new, |lib| {
            lexer::lex(&lib).inner_scopes().cloned().collect()
        });
    let (raw, lexed) = rules::lint_source(source, &package_scopes);
    apply_suppressions(rel_path, raw, &lexed)
}

/// Walk up from the current directory to the first `Cargo.toml`
/// declaring `[workspace]`.
pub fn workspace_root() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        if std::fs::read_to_string(dir.join("Cargo.toml")).is_ok_and(|t| t.contains("[workspace]"))
        {
            return dir;
        }
        if !dir.pop() {
            return PathBuf::from(".");
        }
    }
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
        if SKIP_CRATES
            .iter()
            .any(|c| rel.starts_with(Path::new("crates").join(c)))
        {
            continue;
        }
        let rel_str = rel
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let source =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        findings.extend(lint_in(root, &rel_str, &source));
    }
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

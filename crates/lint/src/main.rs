//! CLI for flowtune-lint.
//!
//! ```text
//! cargo run -p flowtune-lint --            # human output, exit 1 on findings
//! cargo run -p flowtune-lint -- --json     # machine output for CI
//! cargo run -p flowtune-lint -- --baseline # also list suppressed findings
//! cargo run -p flowtune-lint -- --root X   # lint a different workspace root
//! ```
//!
//! Exit codes: 0 clean, 1 unsuppressed findings, 2 usage or I/O error.
#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut json = false;
    let mut baseline = false;
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--baseline" => baseline = true,
            "--root" => match args.next() {
                Some(r) => root = Some(PathBuf::from(r)),
                None => {
                    eprintln!("flowtune-lint: --root needs a path");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!(
                    "flowtune-lint [--json] [--baseline] [--root <workspace>]\n\
                     rules: hot-path-alloc, panic, wire-exhaustive, float-determinism\n\
                     scope a fn with: // flowtune-lint: hot | untrusted-input | float-kernel\n\
                     suppress with: // flowtune-lint: allow(<rule>, \"<why>\")"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("flowtune-lint: unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    let root = root.unwrap_or_else(flowtune_lint::workspace_root);
    let findings = match flowtune_lint::lint_workspace(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("flowtune-lint: {e}");
            return ExitCode::from(2);
        }
    };
    let text = if json {
        flowtune_lint::report::json_report(&findings, baseline)
    } else {
        flowtune_lint::report::human_report(&findings, baseline)
    };
    print!("{text}");
    if findings.iter().any(|f| f.suppressed.is_none()) {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

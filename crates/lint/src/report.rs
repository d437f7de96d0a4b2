//! Suppression application and the human / JSON reporters.

use crate::lexer::Lexed;
use crate::rules::{RawFinding, RULES};

/// A finding attributed to a file, after suppression processing.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule family.
    pub rule: &'static str,
    /// Description.
    pub message: String,
    /// `Some(justification)` when an `allow` directive silenced it.
    pub suppressed: Option<String>,
}

/// Apply `// flowtune-lint: allow(rule, "why")` directives to the raw
/// findings of one file. A directive silences findings of its rule on
/// the line it applies to — but only when it carries a justification;
/// malformed directives were already turned into findings by the rule
/// pass, and `directive` findings themselves can never be suppressed. A
/// well-formed directive that silences nothing is a `directive` finding:
/// it points at code that moved or a rule that no longer looks there.
pub fn apply_suppressions(file: &str, raw: Vec<RawFinding>, lexed: &Lexed) -> Vec<Finding> {
    let mut used = vec![false; lexed.directives.len()];
    let mut out: Vec<Finding> = raw
        .into_iter()
        .map(|f| {
            let by = (lexed.directives.iter()).position(|d| {
                f.rule != "directive"
                    && d.rule == f.rule
                    && d.applies_to == f.line
                    && d.reason.is_some()
            });
            if let Some(k) = by {
                used[k] = true;
            }
            Finding {
                file: file.to_owned(),
                line: f.line,
                rule: f.rule,
                message: f.message,
                suppressed: by.and_then(|k| lexed.directives[k].reason.clone()),
            }
        })
        .collect();
    for (d, _) in lexed.directives.iter().zip(used).filter(|(_, used)| !used) {
        if d.reason.is_some() && RULES.contains(&d.rule.as_str()) {
            out.push(Finding {
                file: file.to_owned(),
                line: d.line,
                rule: "directive",
                message: format!(
                    "`allow({})` suppresses nothing on line {}; delete it",
                    d.rule, d.applies_to
                ),
                suppressed: None,
            });
        }
    }
    out
}

/// Render findings for a terminal. Returns the report text.
pub fn human_report(findings: &[Finding], baseline: bool) -> String {
    let mut out = String::new();
    for f in findings.iter().filter(|f| f.suppressed.is_none()) {
        out.push_str(&format!(
            "{}:{}: [{}] {}\n",
            f.file, f.line, f.rule, f.message
        ));
    }
    let unsuppressed = findings.iter().filter(|f| f.suppressed.is_none()).count();
    let suppressed = findings.len() - unsuppressed;
    if baseline {
        out.push_str("suppressed findings (baseline):\n");
        for f in findings.iter().filter(|f| f.suppressed.is_some()) {
            out.push_str(&format!(
                "  {}:{}: [{}] allowed: {}\n",
                f.file,
                f.line,
                f.rule,
                f.suppressed.as_deref().unwrap_or("")
            ));
        }
    }
    out.push_str(&format!(
        "flowtune-lint: {unsuppressed} finding{} ({suppressed} suppressed)\n",
        if unsuppressed == 1 { "" } else { "s" }
    ));
    out
}

/// Render findings as JSON (no serde in the container; the shape is
/// simple enough to emit by hand).
pub fn json_report(findings: &[Finding], baseline: bool) -> String {
    fn esc(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }
    let mut out = String::from("{\n  \"findings\": [");
    let unsup: Vec<&Finding> = findings.iter().filter(|f| f.suppressed.is_none()).collect();
    for (i, f) in unsup.iter().enumerate() {
        out.push_str(&format!(
            "{}\n    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}",
            if i == 0 { "" } else { "," },
            esc(&f.file),
            f.line,
            f.rule,
            esc(&f.message)
        ));
    }
    if !unsup.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n");
    if baseline {
        out.push_str("  \"suppressed\": [");
        let sup: Vec<&Finding> = findings.iter().filter(|f| f.suppressed.is_some()).collect();
        for (i, f) in sup.iter().enumerate() {
            out.push_str(&format!(
                "{}\n    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"reason\": \"{}\"}}",
                if i == 0 { "" } else { "," },
                esc(&f.file),
                f.line,
                f.rule,
                esc(f.suppressed.as_deref().unwrap_or(""))
            ));
        }
        if !sup.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n");
    }
    let suppressed_total = findings.iter().filter(|f| f.suppressed.is_some()).count();
    out.push_str(&format!(
        "  \"total_unsuppressed\": {},\n  \"total_suppressed\": {}\n}}\n",
        unsup.len(),
        suppressed_total
    ));
    out
}

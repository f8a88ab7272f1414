//! Human rendering of findings.

use crate::Finding;

/// Human-readable report, one finding per line plus a summary.
pub fn human(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&format!(
            "{}:{}: [{}] {}\n",
            f.file, f.line, f.rule, f.message
        ));
    }
    if findings.is_empty() {
        out.push_str("atos-lint: no findings\n");
    } else {
        out.push_str(&format!(
            "atos-lint: {} finding{}\n",
            findings.len(),
            if findings.len() == 1 { "" } else { "s" }
        ));
    }
    out
}

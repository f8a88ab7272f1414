//! `atos-lint` CLI.
//!
//! ```text
//! atos-lint (--workspace | PATH...) [--timings]
//! ```
//!
//! `--workspace` lints every `.rs` file under the workspace root; explicit
//! paths lint those files/directories.
//! `--timings` prints a per-phase/per-rule wall-time breakdown to stderr.
//!
//! Exit codes: 0 = clean, 1 = findings, 2 = usage or I/O error.

use atos_lint::{lints, report, Workspace};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    workspace: bool,
    timings: bool,
    paths: Vec<PathBuf>,
}

fn usage() -> ExitCode {
    eprintln!("usage: atos-lint (--workspace | PATH...) [--timings]");
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, ExitCode> {
    let mut a = Args {
        workspace: false,
        timings: false,
        paths: Vec::new(),
    };
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--workspace" => a.workspace = true,
            "--timings" => a.timings = true,
            p if !p.starts_with('-') => a.paths.push(PathBuf::from(p)),
            _ => return Err(usage()),
        }
    }
    if !a.workspace && a.paths.is_empty() {
        return Err(usage());
    }
    Ok(a)
}

/// Ascend from the current directory to the workspace root (the first
/// ancestor whose `Cargo.toml` declares `[workspace]`).
fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(s) = std::fs::read_to_string(&manifest) {
            if s.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(code) => return code,
    };

    let t0 = Instant::now();
    let ws = if args.workspace {
        let Some(root) = find_workspace_root() else {
            eprintln!("atos-lint: no workspace root ([workspace] in Cargo.toml) above cwd");
            return ExitCode::from(2);
        };
        match Workspace::discover(&root) {
            Ok(ws) => ws,
            Err(e) => {
                eprintln!("atos-lint: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        let mut sources = Vec::new();
        for p in &args.paths {
            if let Err(e) = collect(p, &mut sources) {
                eprintln!("atos-lint: {}: {e}", p.display());
                return ExitCode::from(2);
            }
        }
        Workspace::from_sources(sources)
    };

    let an = lints::analyze(&ws);
    let t_rule = Instant::now();
    let findings = lints::run(&ws, &an);
    if args.timings {
        let mut rows = an.phase_timings.clone();
        rows.push(("panic-in-kernel", t_rule.elapsed()));
        print_timings(&rows);
    }
    eprintln!(
        "atos-lint: {} files, {} finding{} in {:.1} ms",
        ws.files.len(),
        findings.len(),
        if findings.len() == 1 { "" } else { "s" },
        t0.elapsed().as_secs_f64() * 1e3
    );

    print!("{}", report::human(&findings));
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Render the `--timings` breakdown to stderr (stdout stays reserved for
/// the byte-compared report).
fn print_timings(rows: &[(&'static str, std::time::Duration)]) {
    eprintln!("atos-lint: wall time by phase and rule:");
    let total: std::time::Duration = rows.iter().map(|(_, d)| *d).sum();
    for (name, d) in rows {
        eprintln!("  {:<32} {:>9.3} ms", name, d.as_secs_f64() * 1e3);
    }
    eprintln!("  {:<32} {:>9.3} ms", "total", total.as_secs_f64() * 1e3);
}

/// Collect `.rs` sources under an explicit path argument.
fn collect(p: &Path, out: &mut Vec<(String, String)>) -> std::io::Result<()> {
    let meta = std::fs::metadata(p)?;
    if meta.is_dir() {
        for entry in std::fs::read_dir(p)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.starts_with('.') || name == "target" {
                continue;
            }
            collect(&entry.path(), out)?;
        }
    } else if p.extension().map(|e| e == "rs").unwrap_or(false) {
        out.push((
            p.to_string_lossy().replace('\\', "/"),
            std::fs::read_to_string(p)?,
        ));
    }
    Ok(())
}

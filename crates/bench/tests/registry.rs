//! The experiment table's contract, checked row by row through the real
//! `atos-bench` binary: names resolve and are documented, committed quick
//! goldens reproduce, every flag is honoured or refused — never accepted
//! and ignored — and a run writes nothing into its working directory.

use std::path::{Path, PathBuf};
use std::process::Command;

use atos_bench::registry::{EXPERIMENTS, REFERENCE};

/// Committed `--quick --threads 1` stdout, by experiment name.
const QUICK_GOLDENS: [(&str, &str); 5] = [
    ("table4_pr_nvlink", "table4_quick.txt"),
    ("fig5_scaling_nvlink", "fig5_quick.txt"),
    ("fig8_scaling_ib_bfs", "fig8_quick.txt"),
    ("fig9_scaling_ib_pr", "fig9_quick.txt"),
    ("table5_ib", "table5_quick.txt"),
];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// `atos-bench <name> --quick --threads 1 <flags>` started in `cwd`:
/// (exit code, stdout, stderr).
fn run(name: &str, flags: &[&str], cwd: &Path) -> (Option<i32>, Vec<u8>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_atos-bench"))
        .current_dir(cwd)
        .arg(name)
        .args(["--quick", "--threads", "1"])
        .args(flags)
        .output()
        .expect("atos-bench should spawn");
    (
        out.status.code(),
        out.stdout,
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn every_row_is_documented_reproducible_and_ignores_no_flag() {
    let dir = std::env::temp_dir().join(format!("atos-registry-{}", std::process::id()));
    let cwd = dir.join("cwd");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&cwd).unwrap();
    let design = std::fs::read_to_string(repo_root().join("DESIGN.md")).unwrap();
    let index = design
        .split("\n## ")
        .find(|section| section.starts_with("3. "))
        .expect("DESIGN.md has a section 3");

    for (i, e) in EXPERIMENTS.iter().enumerate() {
        let name = e.name;
        assert!(
            EXPERIMENTS[..i].iter().all(|o| o.name != name),
            "duplicate row {name}"
        );
        assert!(
            index.contains(&format!("`{name}`")),
            "DESIGN.md §3 does not mention `{name}`"
        );

        let (code, plain, stderr) = run(name, &[], &cwd);
        assert_eq!(code, Some(0), "{name}: {stderr}");
        assert!(!plain.is_empty(), "{name} printed nothing");
        if let Some((_, file)) = QUICK_GOLDENS.iter().find(|(n, _)| *n == name) {
            let golden = std::fs::read(repo_root().join("results").join(file)).unwrap();
            assert!(
                plain == golden,
                "{name} --quick differs from results/{file}"
            );
        }

        // Refused by name before anything is printed or written.
        if name != REFERENCE {
            let trace = dir.join("trace.json");
            let (code, stdout, stderr) = run(name, &["--trace", trace.to_str().unwrap()], &cwd);
            assert_eq!(code, Some(2), "{name} --trace: {stderr}");
            assert!(stderr.contains("--trace"), "{stderr}");
            assert!(
                stdout.is_empty() && !trace.exists(),
                "{name} ran before refusing"
            );
        }
        // Unknown flags, such as the old timing report's, are refused alike.
        for flag in ["--json", "--run-id"] {
            let (code, stdout, stderr) = run(name, &[flag, "x"], &cwd);
            assert_eq!(code, Some(2), "{name} {flag}: {stderr}");
            assert!(stderr.contains(flag), "{stderr}");
            assert!(stdout.is_empty(), "{name} ran before refusing {flag}");
        }

        let left: Vec<_> = std::fs::read_dir(&cwd)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        assert!(
            left.is_empty(),
            "{name} wrote into its working directory: {left:?}"
        );
    }
    for (name, _) in QUICK_GOLDENS {
        assert!(
            EXPERIMENTS.iter().any(|e| e.name == name),
            "golden for unknown row {name}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_unknown_or_missing_experiment_prints_the_table() {
    for args in [&[][..], &["table9"], &["--quick"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_atos-bench"))
            .args(args)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty());
        let stderr = String::from_utf8_lossy(&out.stderr);
        for e in &EXPERIMENTS {
            assert!(stderr.contains(e.name), "usage omits {}", e.name);
        }
    }
}

#[test]
fn reference_exits_1_naming_an_artifact_it_cannot_write() {
    let dir = std::env::temp_dir().join(format!("atos-artifact-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("regular-file");
    std::fs::write(&file, "").unwrap();
    let trace = file.join("trace.json");
    let (code, _, stderr) = run(REFERENCE, &["--trace", trace.to_str().unwrap()], &dir);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains(trace.to_str().unwrap()), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

//! Runs the `colorize` binary end to end on a tiny deployment.

use std::process::Command;

#[test]
fn colorize_colors_a_path_and_reports_exact_kappa() {
    let dir = std::env::temp_dir().join(format!("colorize-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let points = dir.join("path.csv");
    // Five nodes 0.8 apart on a line: a path, so Δ = 3, κ₁ = 2, κ₂ = 3.
    std::fs::write(&points, "x,y\n0,0\n0.8,0\n1.6,0\n2.4,0\n3.2,0\n").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_colorize"))
        .arg("--points")
        .arg(&points)
        .args(["--seed", "7"])
        .output()
        .unwrap();
    std::fs::remove_dir_all(&dir).unwrap();

    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    let kappa_line = stderr.lines().next().unwrap_or_default();
    assert!(
        kappa_line.starts_with("n=5, links=4, Δ=3, κ₁=2, κ₂=3; waiting "),
        "{stderr}"
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let rows: Vec<&str> = stdout.lines().collect();
    assert_eq!(rows[0], "node,color,leader,decided_slot");
    assert_eq!(rows.len(), 6, "{stdout}");
}

//! The `figures` command line: one positional figure id, then the shared flags.

use std::process::Command;

fn figures(argv: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_figures")).args(argv).output().expect("spawn figures")
}

#[test]
fn an_unknown_or_missing_figure_exits_2_with_the_usage_line() {
    for argv in [&["9"][..], &["fig4"], &["--csv"], &[]] {
        let out = figures(argv);
        assert_eq!(out.status.code(), Some(2), "{argv:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: figures <2..8|all> [FLAGS]"), "{argv:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{argv:?} drew something");
    }
}

#[test]
fn a_figure_id_is_followed_by_the_shared_flags() {
    let out = figures(&["3", "--log2-capacity", "8", "--seeds", "1", "--csv"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Figure 3 — memory footprint, capacity 2^8"), "{stdout}");
    assert!(stdout.contains("# Fig 3 — sparse distribution — memory usage [MB]"), "{stdout}");
}

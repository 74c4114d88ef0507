//! Runs the built `mck` and checks when it prints the usage text: only
//! for a command line that does not parse, never after a handler's error.

use std::process::{Command, Output};

fn mck(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mck"))
        .args(args)
        .output()
        .expect("mck starts")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn command_line_errors_print_the_usage() {
    for args in [&[][..], &["nosuch"], &["run", "--par-workers", "2"]] {
        let out = mck(args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.starts_with("error: "), "{args:?}: {err}");
        assert!(err.contains("usage:"), "{args:?}: {err}");
    }
    let err = stderr(&mck(&["run", "--par-workers", "2"]));
    assert!(err.contains("run does not read --par-workers"), "{err}");
}

#[test]
fn handler_errors_print_one_line() {
    let file = std::env::temp_dir().join(format!("mck_usage_test_{}", std::process::id()));
    std::fs::write(&file, "a regular file").unwrap();
    let dir = file.join("x");
    let out = mck(&[
        "log-size",
        "--reps",
        "1",
        "--out-dir",
        dir.to_str().unwrap(),
    ]);
    std::fs::remove_file(&file).ok();
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(err.starts_with("error: "), "{err}");
    assert!(!err.contains("usage:"), "{err}");
}

#[test]
fn unusable_out_dir_fails_before_computing() {
    let file = std::env::temp_dir().join(format!("mck_usage_fig_{}", std::process::id()));
    std::fs::write(&file, "a regular file").unwrap();
    let dir = file.join("x");
    let start = std::time::Instant::now();
    let out = mck(&["fig", "all", "--out-dir", dir.to_str().unwrap()]);
    let took = start.elapsed();
    std::fs::remove_file(&file).ok();
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(err.starts_with("error: --out-dir"), "{err}");
    assert!(!err.contains("usage:"), "{err}");
    assert!(took.as_secs_f64() < 5.0, "failed only after {took:?}");
}

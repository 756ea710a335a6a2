//! The `report` binary's command line: bad input is refused up front with
//! exit status 2 and a message on stderr, never a silent no-op or a panic.

use std::process::{Command, Output};

fn report(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_report"))
        .args(args)
        .output()
        .expect("report binary runs")
}

#[test]
fn unknown_artifact_lists_the_valid_names_and_exits_2() {
    let out = report(&["fig99"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing is reported for a name that does not exist");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown artifact \"fig99\""), "{stderr}");
    for name in ["fig10", "fig_partial", "table3", "ablation", "all"] {
        assert!(stderr.contains(name), "{name} missing from: {stderr}");
    }
}

#[test]
fn missing_or_unparsable_flag_value_prints_usage_and_exits_2() {
    for args in [
        &["--customers"][..],
        &["fig10", "--reps", "many"],
        &["fig12", "--reps", "0"],
        &["--out"],
        &["--bogus"],
    ] {
        let out = report(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: report"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

//! The `paper` binary at the process boundary: every row of its table runs
//! at smoke scale, and bad invocations fail the way the usage says.

use std::process::{Command, Output};

fn paper(ids: &[&str], sessions: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_paper"))
        .args(ids)
        .env("USWG_SESSIONS", sessions)
        .env_remove("USWG_SEED")
        .output()
        .expect("spawn paper")
}

/// The `(id, title)` rows of the id list, which a run with no id prints.
fn listed_rows(usage: &Output) -> Vec<(String, String)> {
    assert_eq!(usage.status.code(), Some(2));
    assert!(usage.stdout.is_empty());
    let text = String::from_utf8(usage.stderr.clone()).expect("utf-8 usage");
    let (_, list) = text.split_once("\nids:\n").expect("an id list");
    list.lines()
        .map(|line| {
            let (id, title) = line.trim_start().split_once(' ').expect("id, then title");
            (id.to_string(), title.trim_start().to_string())
        })
        .collect()
}

#[test]
fn every_row_runs_at_smoke_scale_and_prints_its_title() {
    let rows = listed_rows(&paper(&[], "2"));
    assert_eq!(rows.len(), 19, "{rows:?}");
    for (id, title) in &rows {
        let out = paper(&[id], "2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{id}: {stderr}");
        assert!(out.stderr.is_empty(), "{id}: {stderr}");
        let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
        assert!(stdout.contains(title.as_str()), "{id}: no `{title}`");
    }
}

#[test]
fn an_unknown_id_runs_nothing_and_lists_every_id() {
    let all = listed_rows(&paper(&[], "2"));
    let out = paper(&["table5_4", "fig5_13"], "2");
    assert_eq!(listed_rows(&out), all);
}

#[test]
fn an_unparsable_scale_is_an_error_that_names_the_variable() {
    let out = paper(&["fig5_06"], "abc");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("USWG_SESSIONS=abc"), "{stderr}");

    let out = paper(&["fig5_06"], "0");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("`sessions_per_user` must be positive"),
        "{stderr}"
    );
}

//! `BENCH_trajectory.json` holds one row of benchmark medians and line
//! counts per PR. It must be JSON, its rows must be in PR order, and the
//! last row's line counts must be the tree's, counted as CI's size gates
//! count them: every newline of every `.rs` file under `crates`, `tests`
//! and `examples`, and under `vendor`. Its `counters` must be the pins of
//! `tests/cost_counters.rs`.

use std::path::Path;

fn skip_space(text: &[u8], at: &mut usize) {
    while text.get(*at).is_some_and(u8::is_ascii_whitespace) {
        *at += 1;
    }
}

/// Steps over the JSON value at `at`; panics where the grammar breaks.
/// Strings hold no escapes, which the file does not use.
fn skip_value(text: &[u8], at: &mut usize) {
    skip_space(text, at);
    let close = match text[*at] {
        b'{' => b'}',
        b'[' => b']',
        b'"' => {
            let len = text[*at + 1..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\');
            *at += len.expect("a closed string") + 1;
            assert_eq!(text[*at], b'"', "an escape at byte {at}");
            *at += 1;
            return;
        }
        _ => {
            let word = text[*at..]
                .iter()
                .take_while(|b| b.is_ascii_alphanumeric() || b"+-.".contains(b));
            let word = String::from_utf8(word.copied().collect()).unwrap();
            let literal = ["null", "true", "false"].contains(&word.as_str());
            assert!(
                literal || word.parse::<f64>().is_ok(),
                "`{word}` at byte {at}"
            );
            *at += word.len();
            return;
        }
    };
    *at += 1;
    skip_space(text, at);
    if text[*at] == close {
        *at += 1;
        return;
    }
    loop {
        if close == b'}' {
            skip_value(text, at);
            skip_space(text, at);
            assert_eq!(text[*at], b':', "a member at byte {at}");
            *at += 1;
        }
        skip_value(text, at);
        skip_space(text, at);
        let byte = text[*at];
        *at += 1;
        if byte == close {
            return;
        }
        assert_eq!(byte, b',', "`,` or the close at byte {at}");
    }
}

/// Every value that follows `"key":` in `text`, in order, as a number.
fn values(text: &str, key: &str) -> Vec<f64> {
    let key = format!("\"{key}\":");
    let values = text.match_indices(&key).map(|(at, _)| {
        let rest = &text[at + key.len()..];
        let end = rest.find([',', '}', '\n']).unwrap_or(rest.len());
        rest[..end].trim().parse().unwrap_or(f64::NAN)
    });
    values.collect()
}

/// Newlines in the `.rs` files at or below `path`, as `wc -l` counts them.
fn rust_lines(path: &Path) -> f64 {
    if path.is_dir() {
        let entries = std::fs::read_dir(path).unwrap();
        entries
            .map(|entry| rust_lines(&entry.unwrap().path()))
            .sum()
    } else if path.extension().is_some_and(|ext| ext == "rs") {
        std::fs::read(path)
            .unwrap()
            .iter()
            .filter(|&&b| b == b'\n')
            .count() as f64
    } else {
        0.0
    }
}

#[test]
fn the_trajectory_parses_in_pr_order_and_its_last_row_counts_the_tree() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(root.join("BENCH_trajectory.json")).unwrap();
    let mut at = 0;
    skip_value(text.as_bytes(), &mut at);
    skip_space(text.as_bytes(), &mut at);
    assert_eq!(at, text.len(), "one JSON document and nothing after it");

    let prs = values(&text, "pr");
    assert!(prs.len() > 1, "{prs:?}");
    assert!(prs.windows(2).all(|w| w[0] < w[1]), "PR order: {prs:?}");
    let count = |dirs: &[&str]| dirs.iter().map(|d| rust_lines(&root.join(d))).sum::<f64>();
    let last = |key| *values(&text, key).last().expect("a row");
    assert_eq!(last("first_party"), count(&["crates", "tests", "examples"]));
    assert_eq!(last("vendor"), count(&["vendor"]));

    let pins = std::fs::read_to_string(root.join("tests/cost_counters.rs")).unwrap();
    let table = &pins[pins.find("const PINNED").expect("the pins")..];
    let table = &table[..table.find("];").expect("the end of the pins")];
    let pins = table
        .lines()
        .filter_map(|line| line.trim().strip_prefix("(\""));
    let mut checked = 0;
    for pin in pins {
        let (name, value) = pin.split_once("\", ").expect("a (name, value) pair");
        let value: f64 = value.trim_end_matches("),").parse().unwrap();
        assert_eq!(last(name), value, "counter {name}");
        checked += 1;
    }
    assert!(checked > 0, "no pins in tests/cost_counters.rs");
}

//! Tolerant parsers for the three CLI report shapes the harness reads.
//!
//! Each looks for a labelled number anywhere in the text rather than
//! matching whole lines, so added fields or reordered segments in a later
//! CLI do not break the benchmark.

/// The headline numbers of `uswg run --model … (--summary | --spill …)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    pub events: u64,
    pub simulated_us: u64,
    pub data_ops: u64,
    pub sessions: u64,
    /// Op records written, from the `binary log spilled to …` line of a
    /// `--spill` run.
    pub spilled_ops: Option<u64>,
}

/// The accounting and latency lines of `uswg drive`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DriveReport {
    pub offered: u64,
    pub completed: u64,
    pub shed: u64,
    pub expired: u64,
    pub aborted: u64,
    pub p50_us: u64,
    pub p99_us: u64,
}

/// The counts of `uswg analyze --json`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalyzeReport {
    pub ops: u64,
    pub sessions: u64,
    pub aborted_ops: u64,
}

/// The unsigned integer that follows the first occurrence of `label` that
/// has one (after optional spaces) — `shed-oldest` in the drive banner is
/// not the `shed 0` of the report.
fn number_after(text: &str, label: &str) -> Option<u64> {
    text.match_indices(label).find_map(|(at, _)| {
        let rest = text[at + label.len()..].trim_start_matches(' ');
        let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
        rest[..digits].parse().ok()
    })
}

/// The whitespace-delimited token that precedes `label`.
fn token_before<'a>(text: &'a str, label: &str) -> Option<&'a str> {
    text[..text.find(label)?].split_whitespace().next_back()
}

/// `1942.094s`, `12.500ms` or `870µs` (the `SimTime` display forms) as µs.
fn simulated_micros(token: &str) -> Option<u64> {
    let (number, scale) = if let Some(n) = token.strip_suffix("ms") {
        (n, 1e3)
    } else if let Some(n) = token.strip_suffix("µs") {
        (n, 1.0)
    } else {
        (token.strip_suffix('s')?, 1e6)
    };
    let value: f64 = number.parse().ok()?;
    (value.is_finite() && value >= 0.0).then(|| (value * scale).round() as u64)
}

pub fn run_report(text: &str) -> Result<RunReport, String> {
    let missing = |what: &str| format!("run report has no {what}:\n{text}");
    Ok(RunReport {
        events: token_before(text, " events")
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| missing("`N events`"))?,
        simulated_us: token_before(text, " simulated")
            .and_then(simulated_micros)
            .ok_or_else(|| missing("`T simulated`"))?,
        data_ops: number_after(text, "data ops:").ok_or_else(|| missing("`data ops: N`"))?,
        sessions: number_after(text, "sessions:").ok_or_else(|| missing("`sessions: N`"))?,
        spilled_ops: text
            .find("binary log spilled to")
            .and_then(|at| token_before(&text[at..], " ops"))
            .and_then(|t| t.trim_start_matches('(').parse().ok()),
    })
}

pub fn drive_report(text: &str) -> Result<DriveReport, String> {
    let field = |label: &str| {
        number_after(text, label).ok_or_else(|| format!("drive report has no `{label} N`:\n{text}"))
    };
    Ok(DriveReport {
        offered: field("offered")?,
        completed: field("completed")?,
        shed: field("shed")?,
        expired: field("expired")?,
        aborted: field("aborted")?,
        p50_us: field("p50")?,
        p99_us: field("p99")?,
    })
}

pub fn analyze_report(json: &str) -> Result<AnalyzeReport, String> {
    let value = serde_json::parse_value(json).map_err(|e| format!("analyze --json: {e}"))?;
    let field = |key: &str| match value.get(key) {
        Some(serde::Value::U64(n)) => Ok(*n),
        other => Err(format!("analyze --json: `{key}` is {other:?}, not a count")),
    };
    Ok(AnalyzeReport {
        ops: field("ops")?,
        sessions: field("sessions")?,
        aborted_ops: field("aborted_ops")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    // Captured from the binary at the commit that introduced the benchmark.
    const SUMMARY: &str = "model nfs | 14835520 events | 1942.094s simulated\n\
        data ops: 1521979 | access size 939.9 ± 945.6 B | response 66151.4 ± 13967.0 µs\n\
        response time per byte: 74.276 µs/B | sessions: 2560\n";
    const SPILL: &str = "model nfs | 9518068 events | 1251.783s simulated\n\
        data ops: 977926 | access size 941.1 ± 946.0 B | response 65202.9 ± 15091.4 µs\n\
        response time per byte: 73.070 µs/B | sessions: 1600\n\
        binary log spilled to cap.bin (1108288 ops, 1600 sessions)\n";
    const DRIVE: &str = "streaming capture drv.bin | replaying open-loop at 200x: \
        max in-flight 1, queue cap 8192 (shed-oldest)\n\
        drive report (target loopback-vfs): offered 448493 | completed 448493 | shed 0 | \
        expired 0 | aborted 0\n\
        retries 0 | peak in-flight 1/1 | wall 2.590 s | goodput 173175.2 ops/s\n\
        latency µs (queue+service, completed ops): p50 352 | p90 448 | p99 2176 | max 10172\n";

    #[test]
    fn parses_the_summary_report() {
        assert_eq!(
            run_report(SUMMARY).unwrap(),
            RunReport {
                events: 14_835_520,
                simulated_us: 1_942_094_000,
                data_ops: 1_521_979,
                sessions: 2560,
                spilled_ops: None,
            }
        );
    }

    #[test]
    fn parses_the_spill_report() {
        let report = run_report(SPILL).unwrap();
        assert_eq!(report.events, 9_518_068);
        assert_eq!(report.sessions, 1600);
        assert_eq!(report.spilled_ops, Some(1_108_288));
    }

    #[test]
    fn tolerates_reordered_and_added_segments() {
        let later = "build abc123 | 77 events | model nfs | 12.500ms simulated | shards 1\n\
            sessions: 4 | extra 9 | data ops: 31\n";
        let report = run_report(later).unwrap();
        assert_eq!(
            (
                report.events,
                report.simulated_us,
                report.data_ops,
                report.sessions
            ),
            (77, 12_500, 31, 4)
        );
        assert_eq!(simulated_micros("870µs"), Some(870));
    }

    #[test]
    fn parses_the_drive_report() {
        assert_eq!(
            drive_report(DRIVE).unwrap(),
            DriveReport {
                offered: 448_493,
                completed: 448_493,
                shed: 0,
                expired: 0,
                aborted: 0,
                p50_us: 352,
                p99_us: 2176,
            }
        );
    }

    #[test]
    fn parses_analyze_json() {
        let json = r#"{"format": "v2 compressed", "ops": 1108288, "sessions": 1600,
            "response_per_byte": 73.07, "retries": 0, "aborted_ops": 0}"#;
        assert_eq!(
            analyze_report(json).unwrap(),
            AnalyzeReport {
                ops: 1_108_288,
                sessions: 1600,
                aborted_ops: 0,
            }
        );
    }

    #[test]
    fn a_missing_field_is_an_error_naming_it() {
        let err = run_report("model nfs | 5 events\n").unwrap_err();
        assert!(err.contains("simulated"), "{err}");
        assert!(drive_report("offered 3 | completed 3").is_err());
        assert!(analyze_report(r#"{"ops": "many"}"#).is_err());
    }
}

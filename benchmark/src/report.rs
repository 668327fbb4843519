//! JSON output: the value-tree helpers and the shapes of the files under
//! `benchmark/out/`.

use crate::run::{EndToEnd, Series, Traced};
use crate::stats::{median, quartiles};
use crate::trace::{self_times, Span};
use crate::workload::{Env, Fingerprint, Workload};
use serde::{Serialize, Value};
use std::path::Path;

/// Lets `serde_json` render a hand-built [`Value`] tree.
pub struct Json(pub Value);

impl Serialize for Json {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

pub fn obj<K: Into<String>>(entries: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Map(entries.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

pub fn text(value: impl Into<String>) -> Value {
    Value::Str(value.into())
}

/// Spans in recording order, with each one's self time alongside.
pub fn spans_json(spans: &[Span]) -> Value {
    let own = self_times(spans);
    Value::Seq(
        spans
            .iter()
            .zip(own)
            .enumerate()
            .map(|(id, (span, self_ns))| {
                obj([
                    ("id", Value::U64(id as u64)),
                    ("name", text(span.name)),
                    ("start_ns", Value::U64(span.start_ns)),
                    ("end_ns", Value::U64(span.end_ns)),
                    (
                        "parent",
                        span.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
                    ),
                    ("self_ns", Value::U64(self_ns)),
                    ("calls", Value::U64(span.calls)),
                    ("items", Value::U64(span.items)),
                ])
            })
            .collect(),
    )
}

/// `(name, total ns, self ns, calls)` per span name, in first-seen order.
pub fn span_table(spans: &[Span]) -> Vec<(&'static str, u64, u64, u64)> {
    let mut rows: Vec<(&'static str, u64, u64, u64)> = Vec::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        match rows.iter_mut().find(|row| row.0 == span.name) {
            Some(row) => {
                row.1 += span.duration_ns();
                row.2 += own;
                row.3 += span.calls;
            }
            None => rows.push((span.name, span.duration_ns(), own, span.calls)),
        }
    }
    rows
}

/// Each series with the value the run reports for it.
fn series_json<'a>(series: impl Iterator<Item = (&'a Series, f64)>) -> Value {
    obj(series.map(|((name, unit, values), result)| {
        let [q1, median, q3] = quartiles(values);
        (
            *name,
            obj([
                ("result", Value::F64(result)),
                ("median", Value::F64(median)),
                ("q1", Value::F64(q1)),
                ("q3", Value::F64(q3)),
                ("n", Value::U64(values.len() as u64)),
                ("unit", text(*unit)),
            ]),
        )
    }))
}

/// One workload's entry of `results.json` / `baseline.json`.
pub fn workload_json(e2e: &EndToEnd, traced: &Traced) -> Value {
    let per_layer =
        traced
            .metrics
            .iter()
            .zip(crate::layers::PER_LAYER)
            .map(|((name, value), (_, unit))| {
                (
                    *name,
                    obj([("value", Value::F64(*value)), ("unit", text(unit))]),
                )
            });
    obj([
        (
            "end_to_end",
            series_json(
                e2e.series
                    .iter()
                    .zip(e2e.values())
                    .map(|(s, (_, result))| (s, result)),
            ),
        ),
        (
            "workload_specific",
            series_json(e2e.extras.iter().map(|s| (s, median(&s.2)))),
        ),
        ("per_layer", obj(per_layer)),
        (
            "fingerprint",
            obj(e2e
                .fingerprint
                .iter()
                .map(|(k, v)| (k.as_str(), Value::U64(*v)))),
        ),
        ("attempted", Value::U64(e2e.attempted)),
        ("failed", Value::U64(e2e.failed)),
    ])
}

/// Writes `value` as `benchmark/out/<name>`.
pub fn write_out(env: &Env, name: &str, value: Value) -> Result<(), String> {
    let path = env.out.join(name);
    let text = serde_json::to_string_pretty(&Json(value)).expect("a value tree always renders");
    std::fs::write(&path, text + "\n").map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

/// The fingerprint `baseline` recorded for `workload`, if it was recorded
/// on `seed`.
pub fn recorded_fingerprint(
    baseline: &Value,
    workload: Workload,
    seed: u64,
) -> Option<Fingerprint> {
    if baseline.get("seed") != Some(&Value::U64(seed)) {
        return None;
    }
    baseline
        .get("workloads")?
        .get(workload.name())?
        .get("fingerprint")?
        .as_map()?
        .iter()
        .map(|(k, v)| match v {
            Value::U64(n) => Some((k.clone(), *n)),
            _ => None,
        })
        .collect()
}

fn first_line_of(program: &str, args: &[&str], cwd: &Path) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .current_dir(cwd)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())?;
    Some(
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()?
            .trim()
            .to_owned(),
    )
}

/// Where the numbers were taken: cores, compiler, commit.
pub fn host_json(root: &Path) -> Value {
    let unknown = || "unknown".to_owned();
    obj([
        (
            "nproc",
            Value::U64(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        (
            "rustc",
            text(first_line_of("rustc", &["-V"], root).unwrap_or_else(unknown)),
        ),
        (
            "commit",
            text(first_line_of("git", &["rev-parse", "HEAD"], root).unwrap_or_else(unknown)),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_recorded_fingerprint_is_found_only_on_its_seed() {
        let baseline = serde_json::parse_value(
            r#"{"seed": 5, "workloads": {"deep_nfs": {"fingerprint": {"run.events": 9, "run.sessions": 2}}}}"#,
        )
        .unwrap();
        let found = recorded_fingerprint(&baseline, Workload::DeepNfs, 5).unwrap();
        assert_eq!(found["run.events"], 9);
        assert_eq!(found.len(), 2);
        assert!(recorded_fingerprint(&baseline, Workload::DeepNfs, 6).is_none());
        assert!(recorded_fingerprint(&baseline, Workload::WideLocal, 5).is_none());
    }

    #[test]
    fn the_span_table_groups_by_name() {
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            calls: 1,
            items: 0,
        };
        let spans = [
            span("root", 0, 100, None),
            span("step", 0, 30, Some(0)),
            span("step", 40, 60, Some(0)),
        ];
        assert_eq!(
            span_table(&spans),
            [("root", 100, 50, 1), ("step", 50, 50, 2)]
        );
    }
}

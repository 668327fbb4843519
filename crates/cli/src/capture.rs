//! `uswg analyze` and `uswg fit`: the Usage Analyzer and the fitter over a
//! spill capture (plus `fit`'s original form, one family over a text data
//! file). Whether a pass seeks through the index footer or streams is the
//! library's call (`uswg_core::scan`); this module asks and renders.

use crate::command::Family;
use crate::{
    at, json_report, ok, op_table, write_file, CliError, Command, Outcome, EXIT_OK, EXIT_SALVAGED,
};
use serde::Serialize;
use std::fmt::Write as _;
use uswg_core::scan::{scan_path, Coverage, Pass};
use uswg_core::{
    collect_fit, fit, gof, plot, synthesize_spec, Distribution, MeasureFit, ScanOptions,
    SpillCodec, Summary, SummarySink, SynthesisOptions, Table, WorkloadSpec,
};

pub(crate) fn analyze(command: Command) -> Outcome {
    let Command::Analyze {
        path,
        json,
        by_type,
        salvage,
        since,
        until,
        sample,
    } = command
    else {
        unreachable!("execute_with_status routes on the variant");
    };
    let opts = ScanOptions {
        since,
        until,
        sample,
    };
    let (stats, pass) = scan_path(&path, &opts, salvage).map_err(at(&path))?;
    if opts.filters() && stats.ops == 0 && stats.sessions == 0 {
        return Err(empty_window(&path));
    }
    let status = if pass.truncated {
        EXIT_SALVAGED
    } else {
        EXIT_OK
    };
    if json {
        return Ok((render_analyze_json(&stats, &pass, by_type)?, status));
    }
    let mut text = render_analyze_text(&path, &stats, &pass, by_type);
    if pass.truncated && pass.stream_complete {
        // A cut inside the index footer leaves the record stream
        // complete (the end marker validated) — exact totals, unlike a
        // mid-stream cut where they are a lower bound.
        let _ = writeln!(
            text,
            "warning: index footer is truncated — report streamed from \
             the complete record stream; totals are exact"
        );
    } else if pass.truncated {
        let _ = writeln!(
            text,
            "warning: spill file is truncated — salvaged {} ops and {} \
             sessions from the intact frame prefix; totals are a lower bound",
            stats.ops, stats.sessions
        );
    }
    Ok((text, status))
}

/// A window past the data is a clear error, not an empty report or a
/// degenerate spec.
fn empty_window(path: &str) -> CliError {
    CliError::Usage(format!(
        "the requested window selects no records in {path} \
         (widen --since/--until or drop --sample)"
    ))
}

/// The human-readable name of a spill codec.
fn codec_name(codec: SpillCodec) -> &'static str {
    match codec {
        SpillCodec::Raw => "v1 raw",
        SpillCodec::Compressed => "v2 compressed",
    }
}

fn render_analyze_text(path: &str, stats: &SummarySink, pass: &Pass, by_type: bool) -> String {
    let mut text = format!(
        "spill file {path} ({}): {} ops, {} sessions\n",
        codec_name(pass.codec),
        stats.ops,
        stats.sessions
    );
    match pass.coverage {
        Coverage::Full => {}
        Coverage::Filtered => {
            text.push_str("no index footer — streamed every frame, filtered to the window\n");
        }
        Coverage::Indexed { decoded, total } => {
            let _ = writeln!(text, "frame index: decoded {decoded} of {total} frames");
        }
    }
    text.push_str(&op_table(stats.op_kind_summaries()));
    let (sizes, responses) = stats.data_op_summary();
    let _ = writeln!(
        text,
        "data ops: {} | access size {} B | response {} µs",
        sizes.n,
        sizes.mean_std(),
        responses.mean_std()
    );
    let _ = writeln!(
        text,
        "response time per byte: {:.3} µs/B | sessions: {}",
        stats.response_per_byte(),
        stats.sessions
    );
    // Fault outcomes print only when present, so fault-free reports stay
    // byte-identical to what they were before fault injection existed.
    if stats.retries > 0 || stats.aborted_ops > 0 {
        let _ = writeln!(
            text,
            "faults: {} retries | {} aborted ops ({:.2}% abort rate) | \
             goodput {} of {} data bytes",
            stats.retries,
            stats.aborted_ops,
            stats.abort_rate() * 100.0,
            stats.goodput_bytes(),
            stats.data_bytes
        );
    }
    if by_type {
        let mut table = Table::new(vec![
            "user type",
            "sessions",
            "ops",
            "bytes accessed",
            "resp/byte (µs/B)",
        ])
        .with_title("Per-user-type summary");
        for (type_idx, t) in stats.user_types() {
            table.row(vec![
                type_idx.to_string(),
                t.sessions.to_string(),
                t.ops.to_string(),
                t.bytes_accessed.to_string(),
                format!("{:.3}", t.response_per_byte()),
            ]);
        }
        text.push_str(&table.render());
    }
    text
}

/// The JSON shape of one `analyze` report row per op kind.
#[derive(Debug, Serialize)]
struct OpMixRow {
    op: String,
    count: usize,
    access_size: Summary,
    response: Summary,
}

/// The JSON shape of one per-user-type row.
#[derive(Debug, Serialize)]
struct UserTypeRow {
    user_type: usize,
    sessions: u64,
    ops: u64,
    bytes_accessed: u64,
    total_response_us: u64,
    response_per_byte: f64,
}

/// The machine-readable `analyze --json` report.
#[derive(Debug, Serialize)]
struct AnalyzeReport {
    format: String,
    ops: u64,
    sessions: u64,
    response_per_byte: f64,
    /// Transiently failed attempts that were retried (0 for fault-free
    /// runs and for spill files written before fault injection existed).
    retries: u64,
    /// Operations that exhausted their retry budget.
    aborted_ops: u64,
    /// Aborted ops / all ops.
    abort_rate: f64,
    /// Data bytes excluding aborted transfers (vs `data_bytes` offered).
    goodput_bytes: u64,
    /// Data bytes offered, aborted transfers included.
    data_bytes: u64,
    /// True when `--salvage` accepted a truncated file: every count is a
    /// lower bound over the intact frame prefix (exact if only the index
    /// footer was cut — the record stream itself validated).
    salvaged: bool,
    /// True when the pass seeked via the index footer instead of
    /// streaming the whole file.
    indexed: bool,
    /// Frames decoded (`null` for a full streamed pass).
    frames_decoded: Option<u64>,
    /// Frames in the file per the index (`null` when unindexed).
    frames_total: Option<u64>,
    data_access_size: Summary,
    data_response: Summary,
    op_mix: Vec<OpMixRow>,
    /// `null` unless `--by-type` was passed (the vendored serde derive has
    /// no `skip_serializing_if`).
    user_types: Option<Vec<UserTypeRow>>,
}

fn render_analyze_json(
    stats: &SummarySink,
    pass: &Pass,
    by_type: bool,
) -> Result<String, CliError> {
    let (data_access_size, data_response) = stats.data_op_summary();
    let (indexed, frames_decoded, frames_total) = match pass.coverage {
        Coverage::Full | Coverage::Filtered => (false, None, None),
        Coverage::Indexed { decoded, total } => (true, Some(decoded as u64), Some(total as u64)),
    };
    let report = AnalyzeReport {
        format: codec_name(pass.codec).to_string(),
        ops: stats.ops,
        sessions: stats.sessions,
        response_per_byte: stats.response_per_byte(),
        retries: stats.retries,
        aborted_ops: stats.aborted_ops,
        abort_rate: stats.abort_rate(),
        goodput_bytes: stats.goodput_bytes(),
        data_bytes: stats.data_bytes,
        salvaged: pass.truncated,
        indexed,
        frames_decoded,
        frames_total,
        data_access_size,
        data_response,
        op_mix: stats
            .op_kind_summaries()
            .into_iter()
            .map(|row| OpMixRow {
                op: row.kind.to_string(),
                count: row.count,
                access_size: row.access_size,
                response: row.response,
            })
            .collect(),
        user_types: by_type.then(|| {
            stats
                .user_types()
                .iter()
                .map(|(&user_type, t)| UserTypeRow {
                    user_type,
                    sessions: t.sessions,
                    ops: t.ops,
                    bytes_accessed: t.bytes_accessed,
                    total_response_us: t.total_response_us,
                    response_per_byte: t.response_per_byte(),
                })
                .collect()
        }),
    };
    json_report(&report)
}

pub(crate) fn fit(command: Command) -> Outcome {
    let Command::Fit {
        path,
        family,
        out,
        json,
        since,
        until,
        sample,
    } = command
    else {
        unreachable!("execute_with_status routes on the variant");
    };
    let opts = ScanOptions {
        since,
        until,
        sample,
    };
    if is_spill_file(&path)? {
        if family.is_some() {
            return Err(CliError::Usage(
                "--family selects a family for text data; a spill capture fits \
                 every measure and picks families itself (drop --family)"
                    .into(),
            ));
        }
        return fit_spill(&path, out.as_deref(), json, &opts);
    }
    if out.is_some() || json || opts.filters() {
        return Err(CliError::Usage(format!(
            "--out/--json/--since/--until/--sample fit a spec from a spill capture, \
             but {path} is not one (no spill magic)"
        )));
    }
    let family = family.ok_or_else(|| {
        CliError::Usage(
            "fit on a text data file requires --family (spill captures fit every \
             measure automatically)"
                .into(),
        )
    })?;
    let data = read_data(&path)?;
    fit_report(&data, family).and_then(ok)
}

fn read_data(path: &str) -> Result<Vec<f64>, CliError> {
    let raw = std::fs::read_to_string(path).map_err(at(path))?;
    let mut out = Vec::new();
    for (lineno, line) in raw.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let v: f64 = line.parse().map_err(|_| {
            CliError::Usage(format!("{path}:{}: not a number: `{line}`", lineno + 1))
        })?;
        out.push(v);
    }
    if out.len() < 2 {
        return Err(CliError::Usage(format!(
            "{path}: need at least 2 data points"
        )));
    }
    Ok(out)
}

fn fit_report(data: &[f64], family: Family) -> Result<String, CliError> {
    let dist: Box<dyn Distribution> = match family {
        Family::Exponential => Box::new(fit::fit_exponential(data)?),
        Family::PhaseType(k) => Box::new(fit::fit_phase_type(data, k)?),
        Family::Gamma(k) => Box::new(fit::fit_multi_stage_gamma(data, k)?),
    };
    let ks = gof::ks_statistic(data, &*dist)?;
    let mut text = format!(
        "fitted {family:?}: mean {:.3}, std {:.3}\nKS D = {:.4} (p = {:.4})\n",
        dist.mean(),
        dist.std_dev(),
        ks.statistic,
        ks.p_value
    );
    if data.len() >= 100 {
        let chi = gof::chi_square(data, &*dist, 20)?;
        let _ = writeln!(
            text,
            "chi-square = {:.1} ({} dof, p = {:.4})",
            chi.statistic, chi.degrees_of_freedom, chi.p_value
        );
    }
    let hi = dist.quantile(0.999);
    text.push_str(&plot::plot_pdf(&*dist, dist.support_min(), hi, 64, 10));
    Ok(text)
}

/// Whether `path` starts with the spill magic (`USWGSPL1`/`USWGSPL2`) —
/// how `fit` tells a binary capture from a text data file. A file too
/// short to hold the magic is not a capture.
fn is_spill_file(path: &str) -> Result<bool, CliError> {
    use std::io::Read as _;
    let mut magic = [0u8; 7];
    let mut file = std::fs::File::open(path).map_err(at(path))?;
    match file.read_exact(&mut magic) {
        Ok(()) => Ok(&magic == b"USWGSPL"),
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => Ok(false),
        Err(e) => Err(at(path)(e)),
    }
}

/// The machine-readable `fit <capture> --json` report.
#[derive(Debug, Serialize)]
struct FitSpillReport {
    /// Op records classified to a user type.
    ops: u64,
    /// Op records whose user completed no session in the window.
    ops_unclassified: u64,
    sessions: u64,
    users: u64,
    user_types: u64,
    /// Frames decoded per pass (`null` for a full streamed pass).
    frames_decoded: Option<u64>,
    /// Frames in the file per the index (`null` when unindexed).
    frames_total: Option<u64>,
    /// Per-measure model choices, in emission order.
    fits: Vec<MeasureFit>,
    /// Every fallback taken where the capture was too thin to fit.
    warnings: Vec<String>,
    /// The complete runnable spec.
    spec: WorkloadSpec,
}

/// `fit` over a spill capture: stream it through the fit collector
/// (windowed via the index footer exactly as `analyze`), model every
/// measure, and emit the synthesized runnable spec.
fn fit_spill(path: &str, out: Option<&str>, json: bool, opts: &ScanOptions) -> Outcome {
    let outcome = collect_fit(path, opts).map_err(at(path))?;
    if outcome.observation.is_empty() {
        return Err(empty_window(path));
    }
    let synthesized = synthesize_spec(&outcome.observation, &SynthesisOptions::default())?;
    let spec_json = synthesized.spec.to_json()?;
    if let Some(out_path) = out {
        write_file(out_path, &spec_json)?;
    }
    let obs = &outcome.observation;
    if json {
        let report = FitSpillReport {
            ops: obs.ops,
            ops_unclassified: obs.ops_unclassified,
            sessions: obs.sessions,
            users: obs.users as u64,
            user_types: obs.types.len() as u64,
            frames_decoded: outcome.frames_decoded.map(|n| n as u64),
            frames_total: outcome.frames_total.map(|n| n as u64),
            fits: synthesized.fits,
            warnings: synthesized.warnings,
            spec: synthesized.spec,
        };
        return json_report(&report).and_then(ok);
    }
    let mut text = format!(
        "fit of spill capture {path}: {} ops over {} sessions, {} users, {} user type(s)\n",
        obs.ops,
        obs.sessions,
        obs.users,
        obs.types.len()
    );
    if let (Some(decoded), Some(total)) = (outcome.frames_decoded, outcome.frames_total) {
        let _ = writeln!(text, "frame index: decoded {decoded} of {total} frames");
    }
    let mut table = Table::new(vec!["measure", "family", "samples", "KS D", "p"])
        .with_title("Fitted distributions");
    for f in &synthesized.fits {
        let (d, p) = match &f.ks {
            Some(ks) => (format!("{:.4}", ks.statistic), format!("{:.4}", ks.p_value)),
            None => ("-".into(), "-".into()),
        };
        table.row(vec![
            f.measure.clone(),
            f.family.clone(),
            format!("{}/{}", f.fitted, f.seen),
            d,
            p,
        ]);
    }
    text.push_str(&table.render());
    for w in &synthesized.warnings {
        let _ = writeln!(text, "warning: {w}");
    }
    match out {
        Some(out_path) => {
            let _ = writeln!(
                text,
                "fitted spec written to {out_path} — run it with: uswg run {out_path} --model nfs"
            );
        }
        None => {
            text.push_str("pass --out <spec.json> to write the runnable spec\n");
        }
    }
    ok(text)
}

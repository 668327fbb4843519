//! `uswg init`, `uswg run` and `uswg tables`: write a spec, execute one,
//! print the paper's presets.

use crate::{at, load_spec, ok, op_table, write_file, CliError, Command, Outcome};
use std::fmt::Write as _;
use uswg_core::{presets, SpillSink, SummarySink, Table, UsageLog, WorkloadSpec};

pub(crate) fn init(path: &str) -> Outcome {
    let spec = WorkloadSpec::paper_default()?;
    write_file(path, &spec.to_json()?)?;
    ok(format!(
        "wrote the paper-default workload spec to {path}\n\
         edit it, then: uswg run {path} --model nfs\n"
    ))
}

/// Appends the `--out` step of a run: the usage log as JSON, streamed to
/// the file one record at a time.
fn write_log(text: &mut String, out_path: &str, log: &UsageLog) -> Result<(), CliError> {
    let file = std::fs::File::create(out_path).map_err(at(out_path))?;
    log.write_json(std::io::BufWriter::new(file))
        .map_err(at(out_path))?;
    let _ = writeln!(text, "usage log written to {out_path}");
    Ok(())
}

pub(crate) fn run(command: Command) -> Outcome {
    let Command::Run {
        path,
        model,
        out,
        spill,
        users,
        summary: summary_only,
    } = command
    else {
        unreachable!("execute_with_status routes on the variant");
    };
    let mut spec = load_spec(&path)?;
    if let Some(n) = users {
        // Applied before the file system is generated, so the run is a
        // full-fidelity rescale of the spec, not a truncation of its log.
        spec.run.n_users = n.get();
    }
    let (out, spill) = (out.as_deref(), spill.as_deref());
    let Some(m) = &model else {
        let log = spec.run_direct()?;
        let mut text = "direct driver (no timing model)\n".to_string();
        text.push_str(&op_table(SummarySink::of(&log).op_kind_summaries()));
        let _ = writeln!(text, "sessions: {}", log.sessions().len());
        if let Some(out_path) = out {
            write_log(&mut text, out_path, &log)?;
        }
        return ok(text);
    };
    // One run into the summary sink, which holds every number the console
    // prints; beside it rides a spill file (--spill: full fidelity on
    // disk, O(1) resident) or, only when --out asks for one, the
    // collected log. --summary prints the headline without the table.
    let (summary, stats, log) = match (spill, out) {
        (Some(spill_path), _) => {
            let spill_sink = SpillSink::create(spill_path).map_err(at(spill_path))?;
            let ((summary, spill_sink), stats) =
                spec.run_des(m, (SummarySink::new(), spill_sink))?;
            spill_sink.finish().map_err(at(spill_path))?;
            (summary, stats, None)
        }
        (None, Some(_)) => {
            let ((summary, log), stats) = spec.run_des(m, (SummarySink::new(), UsageLog::new()))?;
            (summary, stats, Some(log))
        }
        (None, None) => {
            let (summary, stats) = spec.run_des(m, SummarySink::new())?;
            (summary, stats, None)
        }
    };
    let mut text = format!(
        "model {} | {} events | {} simulated\n",
        stats.model, stats.events, stats.duration
    );
    if spill.is_none() && !summary_only {
        text.push_str(&op_table(summary.op_kind_summaries()));
    }
    text.push_str(&render_summary_sink(&summary));
    if let Some(spill_path) = spill {
        let _ = writeln!(
            text,
            "binary log spilled to {spill_path} ({} ops, {} sessions)",
            summary.ops, summary.sessions
        );
    }
    if let Some(out_path) = out {
        // Without a collected log the JSON form is reconstructed from
        // the spill file, so even that path never holds the log *and*
        // the run in memory at once.
        let log = match log {
            Some(log) => log,
            None => {
                let spill_path = spill.expect("no collected log means --spill");
                uswg_core::read_spill_path(spill_path).map_err(at(spill_path))?
            }
        };
        write_log(&mut text, out_path, &log)?;
    }
    ok(text)
}

fn render_summary_sink(sink: &SummarySink) -> String {
    let (access_size, response) = (sink.access_size(), sink.response());
    let mut text = String::new();
    let _ = writeln!(
        text,
        "data ops: {} | access size {:.1} ± {:.1} B | response {:.1} ± {:.1} µs",
        sink.data_ops, access_size.mean, access_size.std_dev, response.mean, response.std_dev,
    );
    let _ = writeln!(
        text,
        "response time per byte: {:.3} µs/B | sessions: {}",
        sink.response_per_byte(),
        sink.sessions
    );
    text
}

pub(crate) fn tables() -> String {
    let mut text = String::new();
    let mut t1 = Table::new(vec!["category", "mean size (B)", "% of files"])
        .with_title("Table 5.1: file characterization");
    for &(cat, size, pct) in presets::TABLE_5_1.iter() {
        t1.row(vec![
            cat.to_string(),
            format!("{size:.0}"),
            format!("{pct:.1}"),
        ]);
    }
    text.push_str(&t1.render());
    text.push('\n');
    let mut t2 = Table::new(vec![
        "category",
        "accesses/byte",
        "file size",
        "files",
        "% users",
    ])
    .with_title("Table 5.2: user characterization");
    for &(cat, apb, size, files, pct) in presets::TABLE_5_2.iter() {
        t2.row(vec![
            cat.to_string(),
            format!("{apb:.3}"),
            format!("{size:.0}"),
            format!("{files:.1}"),
            format!("{pct:.0}"),
        ]);
    }
    text.push_str(&t2.render());
    text.push('\n');
    let mut t4 = Table::new(vec!["user type", "think time (µs)"])
        .with_title("Table 5.4: simulated user types");
    for (name, think) in [
        ("extremely heavy I/O", presets::THINK_EXTREMELY_HEAVY),
        ("heavy I/O", presets::THINK_HEAVY),
        ("light I/O", presets::THINK_LIGHT),
    ] {
        t4.row(vec![name.to_string(), format!("{think:.0}")]);
    }
    text.push_str(&t4.render());
    text
}

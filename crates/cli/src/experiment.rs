//! `uswg sweep` and `uswg replicate`: the Chapter 5 experiments.

use crate::command::SweepAxis;
use crate::{load_spec, ok, CliError, Command, Outcome};
use std::fmt::Write as _;
use uswg_core::experiment::{
    access_size_sweep, mix_sweep, run_des_replicated, user_sweep, ModelConfig, Parallelism,
    ReplicationStudy, SweepPoint,
};
use uswg_core::Table;

/// The `Parallelism` a `--jobs` flag selects.
fn parallelism_from_jobs(jobs: Option<usize>) -> Result<Parallelism, CliError> {
    match jobs {
        None => Ok(Parallelism::Auto),
        Some(0) => Err(CliError::Usage("--jobs must be at least 1".into())),
        Some(1) => Ok(Parallelism::Serial),
        Some(n) => Ok(Parallelism::Threads(n)),
    }
}

pub(crate) fn sweep(command: Command) -> Outcome {
    let Command::Sweep {
        path,
        model,
        axis,
        jobs,
        scheduler,
        shards,
    } = command
    else {
        unreachable!("execute_with_status routes on the variant");
    };
    let spec = load_spec(&path, scheduler, shards)?;
    let parallelism = parallelism_from_jobs(jobs)?;
    let (x_label, points) = match &axis {
        SweepAxis::Users(users) => (
            "users",
            user_sweep(&spec, &model, users.iter().copied(), parallelism)?,
        ),
        SweepAxis::Mix(fractions) => (
            "heavy frac",
            mix_sweep(&spec, &model, fractions.iter().copied(), parallelism)?,
        ),
        SweepAxis::Sizes(sizes) => (
            "mean size",
            access_size_sweep(&spec, &model, sizes.iter().copied(), parallelism)?,
        ),
    };
    ok(render_sweep(&model, x_label, &points))
}

pub(crate) fn replicate(command: Command) -> Outcome {
    let Command::Replicate {
        path,
        model,
        seeds,
        jobs,
        scheduler,
        shards,
    } = command
    else {
        unreachable!("execute_with_status routes on the variant");
    };
    let spec = load_spec(&path, scheduler, shards)?;
    let parallelism = parallelism_from_jobs(jobs)?;
    let seeds = seeds.resolve(spec.run.seed);
    let study = run_des_replicated(&spec, &model, seeds, parallelism)?;
    ok(render_replication(&model, &study))
}

fn render_sweep(model: &ModelConfig, x_label: &str, points: &[SweepPoint]) -> String {
    let mut table = Table::new(vec![
        x_label,
        "resp/byte (µs/B)",
        "access size (B)",
        "response (µs)",
        "sessions",
    ])
    .with_title(format!("Sweep — model {}", model.name()));
    for p in points {
        table.row(vec![
            format!("{}", p.x),
            format!("{:.3}", p.response_per_byte),
            p.access_size.mean_std(),
            p.response.mean_std(),
            p.sessions.to_string(),
        ]);
    }
    table.render()
}

fn render_replication(model: &ModelConfig, study: &ReplicationStudy) -> String {
    let mut table = Table::new(vec!["seed", "resp/byte (µs/B)", "data ops", "sessions"])
        .with_title(format!("Replication study — model {}", model.name()));
    for r in &study.replicates {
        table.row(vec![
            r.seed.to_string(),
            format!("{:.3}", r.point.response_per_byte),
            r.point.response.n.to_string(),
            r.point.sessions.to_string(),
        ]);
    }
    let mut text = table.render();
    let _ = writeln!(
        text,
        "mean response/byte: {:.3} ± {:.3} µs/B (95% CI half-width {:.3}, {} seeds)",
        study.mean_response_per_byte,
        study.std_dev_response_per_byte,
        study.ci95_half_width,
        study.replicates.len(),
    );
    let _ = writeln!(
        text,
        "pooled over all seeds: access size {} B | response {} µs",
        study.pooled_access_size.mean_std(),
        study.pooled_response.mean_std(),
    );
    text
}

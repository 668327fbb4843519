//! Table 5.3 — mean and standard deviation of access size (bytes) and
//! response time (microseconds) of file access system calls, for 1–6
//! concurrent users. Paper columns printed alongside for comparison.

use uswg_bench::{paper_workload, PAPER_TABLE_5_3};
use uswg_core::experiment::{user_sweep, ModelConfig, Parallelism};
use uswg_core::{presets, PopulationSpec, Table};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The Section 5.1 measurement: heavy I/O users (think 5 000 µs), access
    // size exp(1024 B), the computer used by 1..6 users simultaneously.
    let spec = paper_workload()?.with_population(PopulationSpec::single(presets::heavy_user())?);
    let points = user_sweep(&spec, &ModelConfig::default_nfs(), 1..=6, Parallelism::Auto)?;

    let mut table = Table::new(vec![
        "users",
        "access size mean(std)",
        "paper access size",
        "response mean(std)",
        "paper response",
    ])
    .with_title(
        "Table 5.3: access size (bytes) and response time (µs) of file access system calls",
    );
    for (p, &(users, pa_m, pa_s, pr_m, pr_s)) in points.iter().zip(PAPER_TABLE_5_3.iter()) {
        table.row(vec![
            users.to_string(),
            p.access_size.mean_std(),
            format!("{pa_m:.2}({pa_s:.2})"),
            p.response.mean_std(),
            format!("{pr_m:.2}({pr_s:.2})"),
        ]);
    }
    println!("{}", table.render());
    println!(
        "Shape checks: access size is flat in the number of users with std of\n\
         the order of the mean (the exponential signature); response time\n\
         grows monotonically with users. The paper's response std is far\n\
         larger than its mean because a real NFS server occasionally stalls\n\
         for tens of milliseconds; the queueing model's tails are lighter."
    );
    Ok(())
}

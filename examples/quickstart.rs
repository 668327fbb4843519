//! Quickstart: generate the paper's default workload, run it against the
//! NFS model, and print the response-time summary.
//!
//! ```sh
//! cargo run -p uswg-examples --bin quickstart
//! ```

use uswg_core::experiment::ModelConfig;
use uswg_core::{SummarySink, Table, WorkloadSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The workload of Section 5.1: Table 5.1 file system, Table 5.2 usage,
    // "heavy I/O" users (think time 5 000 µs), access size exp(1024 B).
    let mut spec = WorkloadSpec::paper_default()?;
    spec.run.n_users = 2;
    spec.run.sessions_per_user = 10;

    println!("== uswg quickstart ==");
    println!(
        "file system: {} categories, {} files/user + {} shared",
        spec.fsc.categories.len(),
        spec.fsc.files_per_user,
        spec.fsc.shared_files
    );
    println!(
        "population : {} ({} users × {} sessions)\n",
        spec.population.types()[0].0.name,
        spec.run.n_users,
        spec.run.sessions_per_user
    );

    // Run in simulated time against the NFS-like model.
    let (summary, report) = spec.run_des(&ModelConfig::default_nfs(), SummarySink::new())?;
    println!(
        "simulated {} events over {} of virtual time\n",
        report.events, report.duration
    );

    // Per-system-call summary, the Table 5.3 presentation.
    let mut table = Table::new(vec![
        "system call",
        "count",
        "access size (B)",
        "response (µs)",
    ])
    .with_title("Per-system-call summary (mean(std) as in Table 5.3)");
    for row in summary.op_kind_summaries() {
        table.row(vec![
            row.kind.to_string(),
            row.count.to_string(),
            row.access_size.mean_std(),
            row.response.mean_std(),
        ]);
    }
    println!("{}", table.render());

    println!(
        "mean response time per byte: {:.3} µs/B",
        summary.response_per_byte()
    );
    for (name, stats) in &report.resources {
        println!(
            "  {name:<16} {:>8} jobs, mean wait {:>8.1} µs, utilization {:>5.1}%",
            stats.jobs,
            stats.mean_wait(),
            100.0 * stats.utilization(report.duration, 1)
        );
    }
    Ok(())
}

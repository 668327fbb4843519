//! Ablation — distributed NFS server count (the Section 4.2 distributed
//! file system extension): how many servers does it take to absorb the
//! Figure 5.6 saturation?

use uswg_bench::paper_workload;
use uswg_core::experiment::{user_sweep, ModelConfig, Parallelism};
use uswg_core::{presets, PopulationSpec, Table};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec =
        paper_workload()?.with_population(PopulationSpec::single(presets::extremely_heavy_user())?);

    let mut table = Table::new(vec![
        "servers",
        "1 user µs/B",
        "3 users µs/B",
        "6 users µs/B",
        "6u/1u growth",
    ])
    .with_title("Ablation: distributed NFS server count under extremely heavy users");
    for servers in [1usize, 2, 3, 4] {
        let points = user_sweep(
            &spec,
            &ModelConfig::distributed_nfs(servers),
            [1, 3, 6],
            Parallelism::Auto,
        )?;
        table.row(vec![
            servers.to_string(),
            format!("{:.3}", points[0].response_per_byte),
            format!("{:.3}", points[1].response_per_byte),
            format!("{:.3}", points[2].response_per_byte),
            format!(
                "{:.2}×",
                points[2].response_per_byte / points[0].response_per_byte
            ),
        ]);
    }
    println!("{}", table.render());
    println!(
        "Single-user cost is server-count independent; multi-user growth\n\
         flattens with each server until the shared network becomes the\n\
         bottleneck — adding servers beyond that point buys nothing, the\n\
         classic scaling story for late-80s NFS installations."
    );
    Ok(())
}

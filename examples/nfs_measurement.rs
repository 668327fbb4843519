//! The Section 5.2 study: measure an NFS-like file system's response time
//! as the number of concurrent users and the user mix vary.
//!
//! Reproduces the shapes of Figures 5.6–5.11 at example scale (fewer
//! sessions than the paper's 50 per point; the benches run the full size).
//!
//! ```sh
//! cargo run --release -p uswg-examples --bin nfs_measurement
//! ```

use uswg_core::experiment::{user_sweep, ModelConfig, Parallelism};
use uswg_core::{presets, PopulationSpec, Table, WorkloadSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut base = WorkloadSpec::paper_default()?;
    base.run.sessions_per_user = 5;
    base.fsc = base.fsc.with_files_per_user(25)?.with_shared_files(60)?;

    let populations: Vec<(&str, PopulationSpec)> = vec![
        (
            "100% extremely heavy (Fig 5.6)",
            PopulationSpec::single(presets::extremely_heavy_user())?,
        ),
        (
            "100% heavy (Fig 5.7)",
            presets::heavy_light_population(1.0)?,
        ),
        (
            "80% heavy / 20% light (Fig 5.8)",
            presets::heavy_light_population(0.8)?,
        ),
        (
            "50% heavy / 50% light (Fig 5.9)",
            presets::heavy_light_population(0.5)?,
        ),
        (
            "20% heavy / 80% light (Fig 5.10)",
            presets::heavy_light_population(0.2)?,
        ),
        (
            "100% light (Fig 5.11)",
            presets::heavy_light_population(0.0)?,
        ),
    ];

    println!("== Measuring the simulated SUN NFS (Section 5.2) ==\n");
    for (label, population) in populations {
        let spec = base.clone().with_population(population);
        let points = user_sweep(&spec, &ModelConfig::default_nfs(), 1..=6, Parallelism::Auto)?;
        let mut table = Table::new(vec!["users", "resp/byte (µs/B)", "response µs mean(std)"])
            .with_title(label);
        for p in &points {
            table.row(vec![
                format!("{}", p.x as usize),
                format!("{:.3}", p.response_per_byte),
                p.response.mean_std(),
            ]);
        }
        println!("{}", table.render());
    }
    println!(
        "The 100%-extremely-heavy curve grows steeply and near-linearly in the\n\
         number of users (all users compete all the time); curves with think\n\
         time are much flatter, and the 5 000 µs vs 20 000 µs curves are close,\n\
         as the paper observes."
    );
    Ok(())
}

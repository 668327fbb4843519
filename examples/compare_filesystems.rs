//! The Section 5.3 procedure: compare candidate file systems under the
//! *same* user-oriented workload.
//!
//! "To compare two or more different file systems, we need to do a similar
//! measurement for each file system and compare the results by different
//! workload environments. One file system may be better under some
//! particular environment, and others may be superior under different
//! environments."
//!
//! ```sh
//! cargo run --release --example compare_filesystems
//! ```

use uswg_core::experiment::{compare_models, ModelConfig, Parallelism};
use uswg_core::{presets, PopulationSpec, Table, UserTypeSpec, WorkloadSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut base = WorkloadSpec::paper_default()?;
    base.run.n_users = 3;
    base.run.sessions_per_user = 6;
    base.fsc = base.fsc.with_files_per_user(20)?.with_shared_files(40)?;

    let candidates = [
        ModelConfig::default_local(),
        ModelConfig::default_nfs(),
        ModelConfig::default_whole_file(),
    ];

    println!("== Comparing file systems under the same workload (Section 5.3) ==\n");

    // Environment 1: the paper's default usage (whole files re-read ~1-3x).
    let spec1 = base
        .clone()
        .with_population(PopulationSpec::single(presets::heavy_user())?);
    report(
        "Environment 1: Table 5.2 usage (moderate re-reading)",
        &spec1,
        &candidates,
    )?;

    // Environment 2: touch-a-little users — open big files, read a sliver.
    // Whole-file caching must pay to fetch entire files it barely uses.
    let mut sliver_categories = presets::table_5_2_usages();
    for usage in &mut sliver_categories {
        usage.access_per_byte = 0.05;
    }
    let sliver = UserTypeSpec::new(
        "sliver reader",
        uswg_core::DistributionSpec::exponential(presets::THINK_HEAVY),
        uswg_core::DistributionSpec::exponential(presets::ACCESS_SIZE_MEAN),
        sliver_categories,
    );
    let spec2 = base
        .clone()
        .with_population(PopulationSpec::single(sliver)?);
    report(
        "Environment 2: sliver readers (0.05 accesses per byte)",
        &spec2,
        &candidates,
    )?;

    // Environment 3: re-readers — every byte accessed many times.
    // Whole-file caching amortizes its fetch; NFS pays the wire every time.
    let mut rereader_categories = presets::table_5_2_usages();
    for usage in &mut rereader_categories {
        usage.access_per_byte = 8.0;
    }
    let rereader = UserTypeSpec::new(
        "re-reader",
        uswg_core::DistributionSpec::exponential(presets::THINK_HEAVY),
        uswg_core::DistributionSpec::exponential(presets::ACCESS_SIZE_MEAN),
        rereader_categories,
    );
    let spec3 = base
        .clone()
        .with_population(PopulationSpec::single(rereader)?);
    report(
        "Environment 3: re-readers (8 accesses per byte)",
        &spec3,
        &candidates,
    )?;

    println!(
        "No file system wins every environment: the local disk always leads,\n\
         but whole-file caching overtakes plain NFS once files are re-read\n\
         enough to amortize the open-time fetch — the paper's point that the\n\
         *workload environment* must pick the file system."
    );
    Ok(())
}

fn report(
    title: &str,
    spec: &WorkloadSpec,
    candidates: &[ModelConfig],
) -> Result<(), Box<dyn std::error::Error>> {
    let results = compare_models(spec, candidates, Parallelism::Auto)?;
    let mut table = Table::new(vec![
        "file system",
        "resp/byte (µs/B)",
        "response µs mean(std)",
    ])
    .with_title(title);
    for (name, point) in &results {
        table.row(vec![
            name.clone(),
            format!("{:.3}", point.response_per_byte),
            point.response.mean_std(),
        ]);
    }
    println!("{}", table.render());
    Ok(())
}

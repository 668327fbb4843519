//! Tour of the Section 6.2 extensions: random (database-style) access,
//! Markov-modulated user phases, diurnal inter-login times, and a
//! distributed NFS.
//!
//! ```sh
//! cargo run --release -p uswg-examples --bin extensions_tour
//! ```

use uswg_core::experiment::{user_sweep, ModelConfig, Parallelism};
use uswg_core::{
    presets, AccessPattern, DistributionSpec, DiurnalProfile, PhaseModel, PopulationSpec,
    SummarySink, Table, UsageLog, UserTypeSpec, WorkloadSpec,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut base = WorkloadSpec::paper_default()?;
    base.run.sessions_per_user = 6;
    base.fsc = base.fsc.with_files_per_user(20)?.with_shared_files(40)?;

    // 1. Sequential vs database-style random access (Section 4.2).
    println!("== 1. Sequential vs random (direct) file access ==\n");
    let mut table = Table::new(vec!["access pattern", "resp/byte (µs/B)", "lseek share"]);
    for (label, pattern) in [
        ("sequential (paper)", AccessPattern::Sequential),
        ("random / direct", AccessPattern::Random),
    ] {
        let mut cats = presets::table_5_2_usages();
        for c in &mut cats {
            c.access_pattern = pattern;
        }
        let user = UserTypeSpec::new(
            label,
            DistributionSpec::exponential(presets::THINK_HEAVY),
            DistributionSpec::exponential(presets::ACCESS_SIZE_MEAN),
            cats,
        );
        let spec = base.clone().with_population(PopulationSpec::single(user)?);
        let (log, _) = spec.run_des(&ModelConfig::default_nfs(), UsageLog::new())?;
        let seeks = log
            .ops()
            .iter()
            .filter(|o| o.op == uswg_core::OpKind::Seek)
            .count();
        table.row(vec![
            label.to_string(),
            format!("{:.3}", SummarySink::of(&log).response_per_byte()),
            format!("{:.0}%", 100.0 * seeks as f64 / log.ops().len() as f64),
        ]);
    }
    println!("{}", table.render());

    // 2. Markov phases: I/O-bound bursts alternating with CPU-bound lulls.
    println!("== 2. Time-varying behaviour (Markov phase model) ==\n");
    let mut table = Table::new(vec!["behaviour", "sim duration (s)", "resp/byte (µs/B)"]);
    for (label, phases) in [
        ("stationary (paper)", None),
        (
            "I/O-bound ⇄ CPU-bound",
            Some(PhaseModel::io_cpu(0.2, 10.0, 0.95)?),
        ),
    ] {
        let mut user = presets::heavy_user();
        if let Some(p) = phases {
            user = user.with_phases(p);
        }
        let spec = base.clone().with_population(PopulationSpec::single(user)?);
        let (summary, report) = spec.run_des(&ModelConfig::default_nfs(), SummarySink::new())?;
        table.row(vec![
            label.to_string(),
            format!("{:.2}", report.duration.as_secs_f64()),
            format!("{:.3}", summary.response_per_byte()),
        ]);
    }
    println!("{}", table.render());

    // 3. Diurnal inter-login times ([CS85]).
    println!("== 3. Diurnal inter-login times ==\n");
    let user = presets::heavy_user()
        .with_inter_session_time(DistributionSpec::exponential(120_000_000.0)) // ~2 min
        .with_diurnal(DiurnalProfile::university_lab());
    let spec = base.clone().with_population(PopulationSpec::single(user)?);
    let (log, _) = spec.run_des(&ModelConfig::default_nfs(), UsageLog::new())?;
    let mut gaps: Vec<f64> = log
        .sessions()
        .windows(2)
        .filter(|w| w[0].user == w[1].user)
        .map(|w| (w[1].start - w[0].end) as f64 / 1e6)
        .collect();
    gaps.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    println!(
        "inter-login gaps over the simulated day: min {:.0} s, median {:.0} s, max {:.0} s\n\
         (the university-lab profile stretches night-time gaps ~6-10×)\n",
        gaps.first().copied().unwrap_or(0.0),
        gaps.get(gaps.len() / 2).copied().unwrap_or(0.0),
        gaps.last().copied().unwrap_or(0.0),
    );

    // 4. Distributed NFS: scale out the server side.
    println!("== 4. Distributed NFS (Section 4.2 extension) ==\n");
    let heavy = base
        .clone()
        .with_population(PopulationSpec::single(presets::extremely_heavy_user())?);
    let mut table = Table::new(vec!["servers", "6-user resp/byte (µs/B)"]);
    for servers in [1usize, 2, 4] {
        let points = user_sweep(
            &heavy,
            &ModelConfig::distributed_nfs(servers),
            [6],
            Parallelism::Auto,
        )?;
        table.row(vec![
            servers.to_string(),
            format!("{:.3}", points[0].response_per_byte),
        ]);
    }
    println!("{}", table.render());
    Ok(())
}

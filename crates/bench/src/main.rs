//! `paper <id>…` — regenerates the artefacts of the paper's Chapter 5, one
//! row of [`EXPERIMENTS`] per table, figure or ablation.

#![forbid(unsafe_code)]

use std::error::Error;
use std::process::ExitCode;

use rand::SeedableRng;
use uswg_bench::{paper_workload, slope, PAPER_TABLE_5_3};
use uswg_core::experiment::{access_size_sweep, user_sweep, ModelConfig, Parallelism, SweepPoint};
use uswg_core::metrics::{self, session_series, CategoryObservation, SessionMetric};
use uswg_core::{
    plot, presets, CdfTable, Distribution, FillPattern, Histogram, NfsParams, PhaseTypeExp,
    PopulationSpec, Summary, Table, UsageLog, UsimError,
};
use Run::{Other, SessionHistogram, UserSweep};

type Outcome = Result<(), Box<dyn Error>>;

/// One regenerable artefact: its id, its title — written here only; the run
/// prints it and the id list shows it — and how to run it.
type Experiment = (&'static str, &'static str, Run);

#[derive(Clone, Copy)]
enum Run {
    /// Figures 5.6–5.11, a 1–6 user sweep against the default NFS model:
    /// the population, and the closing note with `{slope}` (µs/B per user,
    /// least squares) and `{ratio}` (6-user over 1-user cost) filled in.
    UserSweep(fn() -> Result<PopulationSpec, UsimError>, &'static str),
    /// Figures 5.3–5.5, one per-session measure over 600 login sessions:
    /// the measure, the rest of the heading with `{n}`, `{mean}` and `{std}`
    /// filled in to so many decimals, and the histogram's upper bound and
    /// bin count.
    SessionHistogram(SessionMetric, &'static str, usize, f64, usize),
    /// Everything else: one function, handed the row's title.
    Other(fn(&str) -> Outcome),
}

const EXPERIMENTS: [Experiment; 19] = [
    (
        "fig5_01",
        "Figure 5.1: Examples of phase-type exponential distributions.",
        Other(|title| pdf_examples(title, presets::figure_5_1_examples()?)),
    ),
    (
        "fig5_02",
        "Figure 5.2: Examples of multi-stage gamma distributions.",
        Other(|title| pdf_examples(title, presets::figure_5_2_examples()?)),
    ),
    (
        "fig5_03",
        "Figure 5.3: Average access-per-byte",
        SessionHistogram(
            SessionMetric::AccessPerByte,
            " ({n} sessions; mean {mean}, std {std}).\n\
             Paper shape: unimodal mass in 0–4 accesses/byte with a peak near 1–2.\n",
            2,
            10.0,
            30,
        ),
    ),
    (
        "fig5_04",
        "Figure 5.4: Average file size, bytes",
        SessionHistogram(
            SessionMetric::MeanFileSize,
            " ({n} sessions; mean {mean}, std {std}).\n\
             Paper shape: right-skewed mass below ~20 000 bytes with a long tail\n\
             to ~60 000.\n",
            0,
            60_000.0,
            30,
        ),
    ),
    (
        "fig5_05",
        "Figure 5.5: Average number of files referenced",
        SessionHistogram(
            SessionMetric::FilesReferenced,
            " ({n} sessions; mean\n\
             {mean}, std {std}). Paper shape: right-skewed, mode below ~20 files,\n\
             tail to ~100.\n",
            1,
            100.0,
            25,
        ),
    ),
    (
        "fig5_06",
        "Figure 5.6: average response time per byte — 100% extremely heavy I/O users",
        UserSweep(
            || PopulationSpec::single(presets::extremely_heavy_user()),
            "Paper shape: steep, near-linear growth (all users compete for the\n\
             server all the time). Measured slope: {slope} µs/B per user;\n\
             6-user/1-user ratio: {ratio}× (paper's curve spans roughly 2.5 to 14).",
        ),
    ),
    (
        "fig5_07",
        "Figure 5.7: average response time per byte — 100% heavy I/O users",
        UserSweep(
            || presets::heavy_light_population(1.0),
            "Paper shape: much flatter than Figure 5.6 (competition softened by\n\
             think time). Measured slope: {slope} µs/B per user.",
        ),
    ),
    (
        "fig5_08",
        "Figure 5.8: average response time per byte — 80% heavy / 20% light I/O users",
        UserSweep(
            || presets::heavy_light_population(0.8),
            "Measured slope: {slope} µs/B per user.",
        ),
    ),
    (
        "fig5_09",
        "Figure 5.9: average response time per byte — 50% heavy / 50% light I/O users",
        UserSweep(
            || presets::heavy_light_population(0.5),
            "Measured slope: {slope} µs/B per user.",
        ),
    ),
    (
        "fig5_10",
        "Figure 5.10: average response time per byte — 20% heavy / 80% light I/O users",
        UserSweep(
            || presets::heavy_light_population(0.2),
            "Measured slope: {slope} µs/B per user.",
        ),
    ),
    (
        "fig5_11",
        "Figure 5.11: average response time per byte — 100% light I/O users",
        UserSweep(
            || presets::heavy_light_population(0.0),
            "Paper observation: the 5 000 µs (Fig 5.7) and 20 000 µs (this figure)\n\
             curves are similar — think time is small next to response-time\n\
             variance. Measured slope: {slope} µs/B per user.",
        ),
    ),
    (
        "fig5_12",
        "Figure 5.12: response time per byte vs access size (extremely heavy user)",
        Other(fig5_12),
    ),
    (
        "table5_1",
        "Table 5.1: File characterization by file category (spec vs built)",
        Other(table5_1),
    ),
    (
        "table5_2",
        "Table 5.2: User characterization by file category (spec vs measured)",
        Other(table5_2),
    ),
    (
        "table5_3",
        "Table 5.3: access size (bytes) and response time (µs) of file access system calls",
        Other(table5_3),
    ),
    (
        "table5_4",
        "Table 5.4: Types of users simulated in experiments",
        Other(table5_4),
    ),
    (
        "ablation_cache",
        "Ablation: NFS client block cache (8192-block LRU vs none)",
        Other(ablation_cache),
    ),
    (
        "ablation_cdf_resolution",
        "Ablation: CDF-table resolution vs sampling fidelity",
        Other(ablation_cdf_resolution),
    ),
    (
        "ablation_servers",
        "Ablation: distributed NFS server count under extremely heavy users",
        Other(ablation_servers),
    ),
];

fn main() -> ExitCode {
    let ids: Vec<String> = std::env::args().skip(1).collect();
    let rows: Option<Vec<&Experiment>> = ids
        .iter()
        .map(|id| EXPERIMENTS.iter().find(|row| row.0 == id))
        .collect();
    let Some(rows) = rows.filter(|rows| !rows.is_empty()) else {
        eprintln!("usage: paper <id>...   (USWG_SESSIONS and USWG_SEED scale the runs)\nids:");
        for (id, title, _) in &EXPERIMENTS {
            eprintln!("  {id:<25}{title}");
        }
        return ExitCode::from(2);
    };
    for &(id, title, run) in rows {
        let outcome = match run {
            UserSweep(population, note) => user_sweep_figure(title, population, note),
            SessionHistogram(metric, heading, decimals, upper, bins) => {
                session_histogram(title, metric, heading, decimals, upper, bins)
            }
            Other(run) => run(title),
        };
        if let Err(err) = outcome {
            eprintln!("paper: {id}: {err}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// A sweep's response time per byte against its x, as bars.
fn print_curve(points: &[SweepPoint]) {
    let series: Vec<(f64, f64)> = points.iter().map(|p| (p.x, p.response_per_byte)).collect();
    println!("{}", plot::plot_histogram(&series, 48));
}

/// A table column: its heading, and how a row fills the cell under it.
type Column<'a, T> = (&'a str, &'a dyn Fn(&T) -> String);

/// One titled table on stdout, described column by column.
fn print_table<T>(title: &str, rows: &[T], columns: &[Column<T>]) {
    let mut table = Table::new(columns.iter().map(|c| c.0).collect()).with_title(title);
    for row in rows {
        table.row(columns.iter().map(|c| c.1(row)).collect());
    }
    println!("{}", table.render());
}

/// Figures 5.6–5.11: the sweep's table and curve, then the row's note.
fn user_sweep_figure(
    title: &str,
    population: fn() -> Result<PopulationSpec, UsimError>,
    note: &str,
) -> Outcome {
    let spec = paper_workload()?.with_population(population()?);
    let points = user_sweep(&spec, &ModelConfig::default_nfs(), 1..=6, Parallelism::Auto)?;
    print_table(
        title,
        &points,
        &[
            ("users", &|p| format!("{:.0}", p.x)),
            ("resp/byte (µs/B)", &|p| {
                format!("{:.3}", p.response_per_byte)
            }),
            ("access size B mean(std)", &|p| p.access_size.mean_std()),
            ("response µs mean(std)", &|p| p.response.mean_std()),
            ("sessions", &|p| p.sessions.to_string()),
        ],
    );
    print_curve(&points);
    let ratio = points[5].response_per_byte / points[0].response_per_byte;
    let note = note
        .replace("{slope}", &format!("{:.2}", slope(&points)))
        .replace("{ratio}", &format!("{ratio:.1}"));
    println!("{note}");
    Ok(())
}

/// Figures 5.3–5.5: the distribution of one per-session measure, before and
/// after smoothing.
fn session_histogram(
    title: &str,
    metric: SessionMetric,
    heading: &str,
    decimals: usize,
    upper: f64,
    bins: usize,
) -> Outcome {
    let mut spec = paper_workload()?;
    spec.run.n_users = 6;
    spec.run.sessions_per_user = 100; // 600 login sessions, as in the paper
    spec.run.record_ops = false;
    spec.fsc = spec.fsc.with_fill(FillPattern::Sparse);

    let (log, _) = spec.run_des(&ModelConfig::None, UsageLog::new())?;
    let series = session_series(&log, metric);
    let s = Summary::of(&series);
    let heading = heading
        .replace("{n}", &s.n.to_string())
        .replace("{mean}", &format!("{:.decimals$}", s.mean))
        .replace("{std}", &format!("{:.decimals$}", s.std_dev));
    println!("{title}{heading}");
    let hist = Histogram::new(&series, 0.0, upper, bins);
    println!("(a) Before smoothing");
    println!("{}", plot::plot_histogram(&hist.bins(), 50));
    println!("(b) After smoothing");
    println!("{}", plot::plot_histogram(&hist.smoothed(1).bins(), 50));
    Ok(())
}

/// Figures 5.1 and 5.2: each example's moments and an ASCII density.
fn pdf_examples<D: Distribution>(title: &str, examples: Vec<(String, D)>) -> Outcome {
    println!("{title}\n");
    for (label, dist) in examples {
        println!("{label}");
        println!(
            "  mean = {:.2}, std = {:.2}, support = [{:.1}, ~{:.1}]",
            dist.mean(),
            dist.std_dev(),
            dist.support_min(),
            dist.quantile(0.999)
        );
        println!("{}", plot::plot_pdf(&dist, 0.0, 100.0, 64, 12));
    }
    Ok(())
}

/// Access sizes of mean 128 → 2048 bytes under the extremely heavy user.
fn fig5_12(title: &str) -> Outcome {
    let sizes = [128.0, 256.0, 384.0, 512.0, 768.0, 1_024.0, 1_536.0, 2_048.0];
    let nfs = ModelConfig::default_nfs();
    let points = access_size_sweep(&paper_workload()?, &nfs, sizes, Parallelism::Auto)?;
    print_table(
        title,
        &points,
        &[
            ("mean access size (B)", &|p| format!("{:.0}", p.x)),
            ("resp/byte (µs/B)", &|p| {
                format!("{:.3}", p.response_per_byte)
            }),
            ("measured access B mean(std)", &|p| p.access_size.mean_std()),
            ("response µs mean(std)", &|p| p.response.mean_std()),
        ],
    );
    print_curve(&points);
    println!(
        "Paper shape: convex decay — per-call overheads amortize over larger\n\
         accesses ('it is better to have large access sizes for file I/O\n\
         system calls, which is why most language libraries want to keep a\n\
         buffer for each file'). Measured 128 B / 2048 B cost ratio: {:.1}×.",
        points[0].response_per_byte / points[7].response_per_byte
    );
    Ok(())
}

/// The specification against the population the File System Creator built.
fn table5_1(title: &str) -> Outcome {
    let mut spec = paper_workload()?;
    // A large population so sample means are tight.
    spec.run.n_users = 6;
    spec.fsc = spec
        .fsc
        .with_files_per_user(600)?
        .with_shared_files(1_200)?
        .with_fill(FillPattern::Sparse);
    spec.vfs.max_inodes = 1 << 20;

    let (vfs, catalog) = spec.generate_fs()?;
    let built = catalog.characterize();
    let live: usize = built.values().map(|&(n, _)| n).sum();
    let rows = presets::TABLE_5_1.map(|(category, paper_size, paper_pct)| {
        let (files, size) = built.get(&category).copied().unwrap_or((0, 0.0));
        (category, paper_size, paper_pct, files, size)
    });
    let if_built = |files: usize, cell: String| if files == 0 { "-".into() } else { cell };
    print_table(
        title,
        &rows,
        &[
            ("file category", &|(category, ..)| {
                let runtime = if category.preexisting() {
                    ""
                } else {
                    " (runtime)"
                };
                format!("{category}{runtime}")
            }),
            ("paper size", &|(_, size, ..)| format!("{size:.0}")),
            ("built size", &|&(.., n, size)| {
                if_built(n, format!("{size:.0}"))
            }),
            ("paper %", &|(_, _, pct, ..)| format!("{pct:.1}")),
            ("built %", &|&(.., n, _)| {
                if_built(n, format!("{:.1}", 100.0 * n as f64 / live as f64))
            }),
            ("files", &|(.., n, _)| n.to_string()),
        ],
    );
    let fs = vfs.statfs();
    println!(
        "NEW/TEMP categories are created by the simulated users at run time\n\
         (Section 4.1.2 only materializes accessed, pre-existing files), so\n\
         their built share appears as '-' here. File system: {} inodes, {}\n\
         blocks free of {}.",
        fs.used_inodes, fs.free_blocks, fs.total_blocks
    );
    Ok(())
}

/// The specification against what simulated sessions did.
fn table5_2(title: &str) -> Outcome {
    let mut spec = paper_workload()?;
    spec.run.n_users = 6;
    spec.fsc = spec.fsc.with_fill(FillPattern::Sparse);

    let (log, _) = spec.run_des(&ModelConfig::None, UsageLog::new())?;
    let observations = metrics::category_observations(&log);
    let measured = |category, decimals: usize, value: fn(&CategoryObservation) -> f64| {
        let observed = observations.iter().find(|o| o.category == category);
        observed.map_or("-".to_string(), |o| format!("{:.decimals$}", value(o)))
    };
    print_table(
        title,
        &presets::TABLE_5_2,
        &[
            ("file category", &|row| row.0.to_string()),
            ("apb spec", &|row| format!("{:.2}", row.1)),
            ("apb meas", &|row| measured(row.0, 2, |o| o.access_per_byte)),
            ("size spec", &|row| format!("{:.0}", row.2)),
            ("size meas", &|row| measured(row.0, 0, |o| o.mean_file_size)),
            ("files spec", &|row| format!("{:.1}", row.3)),
            ("files meas", &|row| measured(row.0, 1, |o| o.mean_files)),
            ("%users spec", &|row| format!("{:.0}", row.4)),
            ("%sess meas", &|row| {
                measured(row.0, 0, |o| 100.0 * o.pct_sessions)
            }),
        ],
    );
    println!(
        "Sessions: {}. Measured means track the spec within sampling noise;\n\
         the files column runs below spec when the generated population is\n\
         smaller than a session asks for (picks are with replacement but\n\
         unique files are counted), and access-per-byte runs slightly below\n\
         spec because budgets are rounded and empty files contribute zero.",
        log.sessions().len()
    );
    Ok(())
}

/// The Section 5.1 measurement — heavy I/O users (think 5 000 µs), access
/// size exp(1024 B), 1–6 of them at once — with the paper's columns alongside.
fn table5_3(title: &str) -> Outcome {
    let spec = paper_workload()?.with_population(PopulationSpec::single(presets::heavy_user())?);
    let points = user_sweep(&spec, &ModelConfig::default_nfs(), 1..=6, Parallelism::Auto)?;
    let rows: Vec<_> = points.iter().zip(PAPER_TABLE_5_3).collect();
    print_table(
        title,
        &rows,
        &[
            ("users", &|(_, paper)| paper.0.to_string()),
            ("access size mean(std)", &|(p, _)| p.access_size.mean_std()),
            ("paper access size", &|(_, paper)| {
                format!("{:.2}({:.2})", paper.1, paper.2)
            }),
            ("response mean(std)", &|(p, _)| p.response.mean_std()),
            ("paper response", &|(_, paper)| {
                format!("{:.2}({:.2})", paper.3, paper.4)
            }),
        ],
    );
    println!(
        "Shape checks: access size is flat in the number of users with std of\n\
         the order of the mean (the exponential signature); response time\n\
         grows monotonically with users. The paper's response std is far\n\
         larger than its mean because a real NFS server occasionally stalls\n\
         for tens of milliseconds; the queueing model's tails are lighter."
    );
    Ok(())
}

/// The user types as configured in `uswg_core::presets`.
fn table5_4(title: &str) -> Outcome {
    let types = [
        (
            presets::extremely_heavy_user(),
            presets::THINK_EXTREMELY_HEAVY,
        ),
        (presets::heavy_user(), presets::THINK_HEAVY),
        (presets::light_user(), presets::THINK_LIGHT),
    ];
    let family = |think: f64| {
        if think <= 0.0 {
            "constant"
        } else {
            "exponential"
        }
    };
    print_table(
        title,
        &types,
        &[
            ("user type", &|(spec, _)| spec.name.clone()),
            ("think time (µs)", &|(_, think)| format!("{think:.0}")),
            ("distribution", &|(_, think)| family(*think).to_string()),
        ],
    );
    println!(
        "All three types share the Table 5.2 usage profile and the exp(1024 B)\n\
         access-size distribution; only the think time differs."
    );
    Ok(())
}

/// How much does client caching (off in the paper-default model) bend the
/// Figure 5.12 curve and the user sweep?
fn ablation_cache(title: &str) -> Outcome {
    let spec = paper_workload()?;
    let without = ModelConfig::Nfs(NfsParams::default());
    let with = ModelConfig::Nfs(NfsParams::with_cache(8_192));
    let print_saving = |title: &str, x: &str, off: Vec<SweepPoint>, on: Vec<SweepPoint>| {
        let pairs: Vec<_> = off.iter().zip(&on).collect();
        print_table(
            title,
            &pairs,
            &[
                (x, &|(off, _)| format!("{:.0}", off.x)),
                ("resp/byte no-cache", &|(off, _)| {
                    format!("{:.3}", off.response_per_byte)
                }),
                ("resp/byte cache", &|(_, on)| {
                    format!("{:.3}", on.response_per_byte)
                }),
                ("saving", &|(off, on)| {
                    let saved = 1.0 - on.response_per_byte / off.response_per_byte;
                    format!("{:.0}%", 100.0 * saved)
                }),
            ],
        );
    };

    println!("{title}\n");
    let sizes = [128.0, 512.0, 1_024.0, 2_048.0];
    print_saving(
        "Access-size sweep (Figure 5.12 conditions)",
        "mean access (B)",
        access_size_sweep(&spec, &without, sizes, Parallelism::Auto)?,
        access_size_sweep(&spec, &with, sizes, Parallelism::Auto)?,
    );
    print_saving(
        "User sweep (Table 5.3 conditions)",
        "users",
        user_sweep(&spec, &without, [1, 3, 6], Parallelism::Auto)?,
        user_sweep(&spec, &with, [1, 3, 6], Parallelism::Auto)?,
    );
    println!(
        "The cache absorbs re-reads (access-per-byte > 1 in Table 5.2), so\n\
         it helps most exactly where the workload re-touches bytes; writes\n\
         are write-through and keep the server disk busy either way."
    );
    Ok(())
}

/// The paper warns that table memory "can quickly become prohibitively
/// large" (Section 4.2). How much resolution does sampling accuracy need?
fn ablation_cdf_resolution(title: &str) -> Outcome {
    // A two-phase mixture with a hard offset — the worst case for coarse
    // tables (the jump must be localized).
    let truth = PhaseTypeExp::new(vec![(0.6, 900.0, 0.0), (0.4, 1_500.0, 6_000.0)])?;
    let err_pct = |measured: f64, exact: f64| 100.0 * (measured - exact).abs() / exact;
    let mut rows = Vec::new();
    for resolution in [16usize, 64, 256, 1_024, 4_096, 16_384] {
        let compiled = CdfTable::from_distribution(&truth, resolution)?;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let samples: Vec<f64> = (0..200_000).map(|_| compiled.sample(&mut rng)).collect();
        let quantile_err = |q| err_pct(Summary::quantile(&samples, q), truth.quantile(q));
        let errors = [
            err_pct(Summary::of(&samples).mean, truth.mean()),
            quantile_err(0.5),
            quantile_err(0.99),
        ];
        let ks = uswg_core::gof::ks_statistic(&samples, &truth)?.statistic;
        rows.push((resolution, compiled.memory_bytes(), errors, ks));
    }
    print_table(
        title,
        &rows,
        &[
            ("resolution", &|row| row.0.to_string()),
            ("memory (B)", &|row| row.1.to_string()),
            ("mean err %", &|row| format!("{:.3}", row.2[0])),
            ("p50 err %", &|row| format!("{:.3}", row.2[1])),
            ("p99 err %", &|row| format!("{:.3}", row.2[2])),
            ("KS vs truth", &|row| format!("{:.4}", row.3)),
        ],
    );
    println!(
        "A few hundred points per distribution already put every error under\n\
         1%: the Section 4.2 memory blow-up (types × categories × samples)\n\
         is avoidable by keeping tables near 256-1024 points, as the USIM's\n\
         default (1024) does."
    );
    Ok(())
}

/// The Section 4.2 distributed file system extension: how many servers does
/// it take to absorb the Figure 5.6 saturation?
fn ablation_servers(title: &str) -> Outcome {
    let spec =
        paper_workload()?.with_population(PopulationSpec::single(presets::extremely_heavy_user())?);
    let mut rows = Vec::new();
    for servers in [1usize, 2, 3, 4] {
        let model = ModelConfig::distributed_nfs(servers);
        let points = user_sweep(&spec, &model, [1, 3, 6], Parallelism::Auto)?;
        rows.push((servers, [0, 1, 2].map(|i| points[i].response_per_byte)));
    }
    print_table(
        title,
        &rows,
        &[
            ("servers", &|(servers, _)| servers.to_string()),
            ("1 user µs/B", &|(_, cost)| format!("{:.3}", cost[0])),
            ("3 users µs/B", &|(_, cost)| format!("{:.3}", cost[1])),
            ("6 users µs/B", &|(_, cost)| format!("{:.3}", cost[2])),
            ("6u/1u growth", &|(_, cost)| {
                format!("{:.2}×", cost[2] / cost[0])
            }),
        ],
    );
    println!(
        "Single-user cost is server-count independent; multi-user growth\n\
         flattens with each server until the shared network becomes the\n\
         bottleneck — adding servers beyond that point buys nothing, the\n\
         classic scaling story for late-80s NFS installations."
    );
    Ok(())
}

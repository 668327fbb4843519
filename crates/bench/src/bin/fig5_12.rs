//! Figure 5.12 — average access time per byte under different access sizes
//! of file I/O system calls (means 128 → 2048 bytes), extremely heavy I/O
//! user load.

use uswg_bench::paper_workload;
use uswg_core::experiment::{access_size_sweep, ModelConfig, Parallelism};
use uswg_core::{plot, Table};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = paper_workload()?;
    let sizes = [128.0, 256.0, 384.0, 512.0, 768.0, 1_024.0, 1_536.0, 2_048.0];
    let points = access_size_sweep(&spec, &ModelConfig::default_nfs(), sizes, Parallelism::Auto)?;

    let mut table = Table::new(vec![
        "mean access size (B)",
        "resp/byte (µs/B)",
        "measured access B mean(std)",
        "response µs mean(std)",
    ])
    .with_title("Figure 5.12: response time per byte vs access size (extremely heavy user)");
    for p in &points {
        table.row(vec![
            format!("{:.0}", p.x),
            format!("{:.3}", p.response_per_byte),
            p.access_size.mean_std(),
            p.response.mean_std(),
        ]);
    }
    println!("{}", table.render());
    let series: Vec<(f64, f64)> = points.iter().map(|p| (p.x, p.response_per_byte)).collect();
    println!("{}", plot::plot_histogram(&series, 48));
    println!(
        "Paper shape: convex decay — per-call overheads amortize over larger\n\
         accesses ('it is better to have large access sizes for file I/O\n\
         system calls, which is why most language libraries want to keep a\n\
         buffer for each file'). Measured 128 B / 2048 B cost ratio: {:.1}×.",
        points[0].response_per_byte / points.last().expect("non-empty").response_per_byte
    );
    Ok(())
}

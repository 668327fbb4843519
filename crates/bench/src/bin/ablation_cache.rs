//! Ablation — the NFS client block cache (off in the paper-default model):
//! how much does client caching bend the Figure 5.12 curve and the user
//! sweep? (DESIGN.md §5, ablation 1.)

use uswg_bench::paper_workload;
use uswg_core::experiment::{access_size_sweep, user_sweep, ModelConfig, Parallelism};
use uswg_core::{NfsParams, Table};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = paper_workload()?;
    let without = ModelConfig::Nfs(NfsParams::default());
    let with = ModelConfig::Nfs(NfsParams::with_cache(8_192));

    println!("Ablation: NFS client block cache (8192-block LRU vs none)\n");

    let sizes = [128.0, 512.0, 1_024.0, 2_048.0];
    let p_off = access_size_sweep(&spec, &without, sizes, Parallelism::Auto)?;
    let p_on = access_size_sweep(&spec, &with, sizes, Parallelism::Auto)?;
    let mut table = Table::new(vec![
        "mean access (B)",
        "resp/byte no-cache",
        "resp/byte cache",
        "saving",
    ])
    .with_title("Access-size sweep (Figure 5.12 conditions)");
    for (a, b) in p_off.iter().zip(&p_on) {
        table.row(vec![
            format!("{:.0}", a.x),
            format!("{:.3}", a.response_per_byte),
            format!("{:.3}", b.response_per_byte),
            format!(
                "{:.0}%",
                100.0 * (1.0 - b.response_per_byte / a.response_per_byte)
            ),
        ]);
    }
    println!("{}", table.render());

    let u_off = user_sweep(&spec, &without, [1, 3, 6], Parallelism::Auto)?;
    let u_on = user_sweep(&spec, &with, [1, 3, 6], Parallelism::Auto)?;
    let mut table = Table::new(vec![
        "users",
        "resp/byte no-cache",
        "resp/byte cache",
        "saving",
    ])
    .with_title("User sweep (Table 5.3 conditions)");
    for (a, b) in u_off.iter().zip(&u_on) {
        table.row(vec![
            format!("{}", a.x as usize),
            format!("{:.3}", a.response_per_byte),
            format!("{:.3}", b.response_per_byte),
            format!(
                "{:.0}%",
                100.0 * (1.0 - b.response_per_byte / a.response_per_byte)
            ),
        ]);
    }
    println!("{}", table.render());
    println!(
        "The cache absorbs re-reads (access-per-byte > 1 in Table 5.2), so\n\
         it helps most exactly where the workload re-touches bytes; writes\n\
         are write-through and keep the server disk busy either way."
    );
    Ok(())
}

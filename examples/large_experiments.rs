//! Tour of the memory-flat experiment machinery: streamed sweeps,
//! parallel replication studies with pooled statistics, and
//! spill-to-disk full-fidelity runs.
//!
//! ```sh
//! cargo run --release --example large_experiments
//! ```

use uswg_core::experiment::{run_des_replicated, user_sweep, ModelConfig, Parallelism};
use uswg_core::{read_spill, SpillSink, SummarySink, WorkloadSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut spec = WorkloadSpec::paper_default()?;
    spec.run.sessions_per_user = 4;
    spec.fsc = spec.fsc.with_files_per_user(20)?.with_shared_files(40)?;
    let model = ModelConfig::default_nfs();

    // 1. A user sweep: every point streams into running aggregates and
    //    retains O(1) bytes — which is what scales to the million-user
    //    populations the full log cannot hold. Points fan out over the
    //    cores; any schedule is byte-identical to serial.
    println!("== user sweep (O(1) memory per point) ==");
    let points = user_sweep(&spec, &model, [1, 2, 4, 8], Parallelism::Auto)?;
    for p in &points {
        println!(
            "  {:>3} users: {:.3} µs/B over {} data ops ({} sessions)",
            p.x, p.response_per_byte, p.response.n, p.sessions
        );
    }
    println!(
        "  (each point retained a {}-byte accumulator, plus one entry per user type, \
         instead of a full usage log)",
        std::mem::size_of::<SummarySink>()
    );

    // 2. A replication study: the same workload under independent seeds,
    //    fanned across cores, with per-seed spread plus statistics pooled
    //    by merging the streaming sinks in seed order.
    println!("\n== replication study (pooled via SummarySink::merge) ==");
    let study = run_des_replicated(
        &spec,
        &model,
        spec.run.seed..spec.run.seed + 5,
        Parallelism::Auto,
    )?;
    println!(
        "  mean response/byte {:.3} ± {:.3} µs/B (95% CI half-width {:.3}, {} seeds)",
        study.mean_response_per_byte,
        study.std_dev_response_per_byte,
        study.ci95_half_width,
        study.replicates.len()
    );
    println!(
        "  pooled response over {} data ops: {:.1} ± {:.1} µs",
        study.pooled_response.n, study.pooled_response.mean, study.pooled_response.std_dev
    );

    // 3. Full fidelity beyond RAM: stream every record to a columnar spill
    //    (here a byte buffer standing in for a file; `SpillSink::create`
    //    writes the same frames to disk) and reconstruct the exact log.
    println!("\n== spill-to-disk full-fidelity run ==");
    let sink = SpillSink::new(Vec::new())?;
    let (sink, stats) = spec.run_des(&model, sink)?;
    let bytes = sink.finish()?;
    println!(
        "  {} events simulated; spill stream is {} bytes",
        stats.events,
        bytes.len()
    );
    let log = read_spill(bytes.as_slice())?;
    println!(
        "  reconstructed {} ops and {} sessions losslessly from the spill",
        log.ops().len(),
        log.sessions().len()
    );
    Ok(())
}

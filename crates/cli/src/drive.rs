//! `uswg drive`: stream the op source into the pacer — a live DES run on
//! a producer thread, or a spill capture — so resident memory is bounded
//! by the drive queue, never by the run length.

use crate::{at, load_spec, ok, Command, Outcome, EXIT_SALVAGED};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use uswg_core::ChannelSink;
use uswg_drive::{
    drive_stream, ChannelSource, DriveConfig, DriveError, LoopbackConfig, LoopbackVfs, SourceError,
    SpillSource,
};

pub(crate) fn drive(command: Command) -> Outcome {
    let Command::Drive {
        path,
        model,
        from_spill,
        speedup,
        max_in_flight,
        queue_cap,
        deadline_micros,
        service_micros,
        fail_ppm,
    } = command
    else {
        unreachable!("execute_with_status routes on the variant");
    };
    let spec = load_spec(&path, None, None)?;
    let config = DriveConfig {
        speedup,
        max_in_flight,
        queue_cap,
        deadline_micros,
        // The same deterministic policy the simulator's fault
        // injection uses, straight from the spec.
        retry: spec.run.faults.retry,
        seed: spec.run.seed,
    };
    let target = Arc::new(LoopbackVfs::new(LoopbackConfig {
        service_micros,
        fail_ppm,
        seed: spec.run.seed,
        ..LoopbackConfig::default()
    }));
    let mut text;
    // Stats from the DES producer, filled in by the finish hook
    // once the channel closes (None on the capture path).
    let producer_stats = Arc::new(Mutex::new(None));
    let outcome = match &from_spill {
        Some(capture) => {
            text = format!(
                "streaming capture {capture} | replaying open-loop at {speedup}x: \
                 max in-flight {max_in_flight}, queue cap {queue_cap} (shed-oldest)\n",
            );
            let source = SpillSource::open(capture).map_err(at(capture))?;
            drive_stream(source, target, &config)
        }
        None => {
            let model = model.expect("validate requires a model without --from-spill");
            text = format!(
                "streaming DES ops (model {}) through a {queue_cap}-record channel | \
                 replaying open-loop at {speedup}x: max in-flight {max_in_flight}, \
                 queue cap {queue_cap} (shed-oldest)\n",
                model.name(),
            );
            // Channel capacity = queue capacity: the producer
            // blocks once the pacer falls a queue behind, so the
            // two sides hold O(queue) records between them.
            let (sink, rx) = ChannelSink::bounded(queue_cap);
            // The sink drops with the producer's return, which is what
            // closes the channel and ends the pacer's stream.
            let handle =
                std::thread::spawn(move || spec.run_des(&model, sink).map(|(_sink, stats)| stats));
            let stats_slot = Arc::clone(&producer_stats);
            let source = ChannelSource::new(rx).on_finish(Box::new(move || match handle.join() {
                Ok(Ok(stats)) => {
                    *stats_slot.lock().expect("stats poisoned") = Some(stats);
                    Ok(())
                }
                Ok(Err(e)) => Err(SourceError(format!("DES producer: {e}"))),
                Err(_) => Err(SourceError("DES producer thread panicked".into())),
            }));
            drive_stream(source, target, &config)
        }
    };
    if let Some(stats) = producer_stats.lock().expect("stats poisoned").take() {
        let _ = writeln!(
            text,
            "generated stream: {} simulated, {} kernel events (model {})",
            stats.duration, stats.events, stats.model,
        );
    }
    match outcome {
        Ok(drive_report) => {
            text.push_str(&drive_report.render());
            ok(text)
        }
        Err(DriveError::Source { message, report }) => {
            // Same salvage convention as `analyze`: report what
            // drained, warn, and exit 3 instead of failing dry.
            text.push_str(&report.render());
            let _ = writeln!(
                text,
                "warning: op source ended early ({message}); the report covers \
                 the {} ops offered before the failure",
                report.offered
            );
            Ok((text, EXIT_SALVAGED))
        }
        Err(e) => Err(e.into()),
    }
}

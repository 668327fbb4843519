//! One benchmark run of one workload: untraced on the shipped binary, or
//! traced in-process.

use crate::layers;
use crate::stats::{self, median};
use crate::trace::{self, Tracer};
use crate::workload::{self, Env, Fingerprint, Prepared, Rep, ScratchDir, Sizes, Workload};
use std::time::{Duration, Instant};

/// Fewest set-ups per run; `setup_s` is the median of all a run makes.
const MIN_SETUPS: usize = 5;
/// Set-ups go on while they have used less than this share of `--seconds`:
/// three of the four take 20 ms, and the median of a hundred of those holds
/// still where the median of five moved 27 % between two sets of runs.
const SETUP_SHARE: f64 = 0.1;
/// Fewest repetitions a run condenses, whatever `--seconds`.
const MIN_REPS: usize = 3;

/// Every end-to-end metric, in print order, with its unit. `BENCHMARK.json`
/// lists the same names and adds direction and bound.
pub const END_TO_END: [(&str, &str); 4] = [
    ("work_per_s", "1/s"),
    ("cpu_us_per_unit", "us"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// How a run condenses each end-to-end metric's series into its result, in
/// [`END_TO_END`] order. Repetitions are identical work — the fingerprint
/// check insists — so what differs between them is the host's doing, and a
/// busy host only ever slows a repetition down. The best repetition of the
/// two time-based metrics therefore estimates the undisturbed speed. Over
/// five stretches of ten or more 20 s windows of `wide_local` repetitions,
/// the fastest of a window spread 2.3, 3.9, 6.8, 11.8 and 24.6 % from
/// window to window, the better quartile 5.2, 5.8, 7.8, 10.1 and 35.3 %,
/// the median 8.5, 8.5, 6.3, 13.4 and 32.6 % (README, *What a run
/// reports*). Memory is not slowed, and the contract asks for the median of
/// the set-ups.
const SUMMARY: [Summary; 4] = [
    Summary::Highest,
    Summary::Lowest,
    Summary::Median,
    Summary::Median,
];

#[derive(Debug, Clone, Copy)]
enum Summary {
    Median,
    Lowest,
    Highest,
}

impl Summary {
    fn of(self, values: &[f64]) -> f64 {
        match self {
            Summary::Median => median(values),
            Summary::Lowest => stats::min(values),
            Summary::Highest => stats::max(values),
        }
    }
}

/// A named series of measurements with its unit: one value per repetition
/// (per set-up for `setup_s`).
pub type Series = (&'static str, &'static str, Vec<f64>);

/// One untraced run: end-to-end metrics from child processes.
#[derive(Debug)]
pub struct EndToEnd {
    /// In [`END_TO_END`] order.
    pub series: Vec<Series>,
    /// The metrics only this workload has, and `wall_s`.
    pub extras: Vec<Series>,
    pub attempted: u64,
    pub failed: u64,
    pub fingerprint: Fingerprint,
}

impl EndToEnd {
    /// `(name, value)` of every end-to-end metric: the run's result, each
    /// series condensed as [`SUMMARY`] says.
    pub fn values(&self) -> Vec<(&'static str, f64)> {
        self.series
            .iter()
            .zip(SUMMARY)
            .map(|((name, _, values), summary)| (*name, summary.of(values)))
            .collect()
    }
}

pub fn end_to_end(
    workload: Workload,
    seed: u64,
    seconds: f64,
    sizes: &Sizes,
    env: &Env,
) -> Result<EndToEnd, String> {
    let mut setups = Vec::new();
    let mut prepared: Option<Prepared> = None;
    while setups.len() < MIN_SETUPS || setups.iter().sum::<f64>() < seconds * SETUP_SHARE {
        let start = Instant::now();
        let p = workload::set_up(workload, seed, sizes, env)?;
        setups.push(start.elapsed().as_secs_f64());
        prepared = Some(p); // the previous set-up's scratch goes, untimed
    }
    let p = prepared.expect("MIN_SETUPS > 0");

    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < MIN_REPS || start.elapsed() < budget {
        reps.push(workload::rep(&p, env)?);
    }

    let first = &reps[0].fingerprint;
    if let Some(other) = reps.iter().find(|r| r.fingerprint != *first) {
        return Err(format!(
            "{}: repetitions of one spec and seed disagree:\n  {first:?}\n  {:?}",
            workload.name(),
            other.fingerprint
        ));
    }
    if let Some((capture, reported)) = workload::capture_of(&p, &reps[0]) {
        let read = workload::count_capture(&capture)?;
        if read != reported {
            return Err(format!(
                "{}: SpillReader counts {read:?} (ops, sessions), the run reported {reported:?}",
                workload.name(),
            ));
        }
    }

    let per_rep = |f: fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<_>>();
    // In END_TO_END order.
    let values = [
        per_rep(|r| r.units as f64 / r.wall_s),
        per_rep(|r| r.cpu_s * 1e6 / r.units as f64),
        per_rep(|r| r.peak_rss_mb),
        setups,
    ];
    let series = END_TO_END
        .into_iter()
        .zip(values)
        .map(|((name, unit), values)| (name, unit, values))
        .collect();
    let extras = reps[0]
        .extras
        .iter()
        .enumerate()
        .map(|(i, &(name, unit, _))| (name, unit, reps.iter().map(|r| r.extras[i].2).collect()))
        .collect();
    Ok(EndToEnd {
        series,
        extras,
        attempted: reps.iter().map(|r| r.attempted).sum(),
        failed: reps.iter().map(|r| r.failed).sum(),
        fingerprint: first.clone(),
    })
}

/// One traced run: per-layer metrics from the in-process replica and the
/// layer probes.
#[derive(Debug)]
pub struct Traced {
    /// In [`layers::PER_LAYER`] order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Records the replica's sinks received.
    pub attempted: u64,
    /// The last traced pass and the probe pass, for the trace file.
    pub workload_trace: Tracer,
    pub probe_trace: Tracer,
    /// Untraced and traced in-process wall of each pair, s.
    pub pairs: Vec<(f64, f64)>,
}

pub fn traced(
    workload: Workload,
    seed: u64,
    seconds: f64,
    sizes: &Sizes,
    env: &Env,
) -> Result<Traced, String> {
    let p = workload::set_up(workload, seed, sizes, env)?;
    let scratch = ScratchDir::create(&env.out, "traced")?;

    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut pairs = Vec::new();
    let mut passes: Vec<Vec<(&'static str, f64)>> = Vec::new();
    let mut last_trace = None;
    while pairs.is_empty() || start.elapsed() < budget {
        let (untraced, untraced_ns) =
            layers::wall_ns(|| layers::replica(&p, &scratch, &mut Tracer::new(false)));
        untraced?;
        let mut tr = Tracer::new(true);
        let (traced, traced_ns) = layers::wall_ns(|| layers::replica(&p, &scratch, &mut tr));
        traced?;

        // Self times partition the root spans, so they must add up to the
        // wall clock taken around the pass.
        let self_sum: u64 = trace::self_times(tr.spans()).iter().sum();
        let coverage = self_sum as f64 / traced_ns as f64;
        if (coverage - 1.0).abs() > 0.05 {
            return Err(format!(
                "{}: span self times sum to {coverage:.3} of the traced wall",
                workload.name()
            ));
        }
        let mut metrics = layers::workload_metrics(&tr, traced_ns);
        metrics.push((
            "trace.overhead_ratio",
            traced_ns as f64 / untraced_ns as f64,
        ));
        passes.push(metrics);
        pairs.push((untraced_ns as f64 / 1e9, traced_ns as f64 / 1e9));
        last_trace = Some(tr);
    }
    let workload_trace = last_trace.expect("at least one pair ran");

    let mut probe_trace = Tracer::new(true);
    let counts = layers::probes(&mut probe_trace, &p.init_json, seed, sizes, &scratch)?;

    let mut metrics: Vec<(&'static str, f64)> = (0..passes[0].len())
        .map(|i| {
            let series: Vec<f64> = passes.iter().map(|pass| pass[i].1).collect();
            (passes[0][i].0, median(&series))
        })
        .collect();
    metrics.extend(layers::probe_metrics(&probe_trace, &counts));
    Ok(Traced {
        metrics,
        attempted: workload_trace.total_items("usim.sink").max(1),
        workload_trace,
        probe_trace,
        pairs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_run_reports_the_best_repetition_of_its_time_based_series() {
        let reps: Vec<f64> = (1..=10).map(f64::from).collect();
        let e2e = EndToEnd {
            series: END_TO_END
                .into_iter()
                .map(|(name, unit)| (name, unit, reps.clone()))
                .collect(),
            extras: Vec::new(),
            attempted: 1,
            failed: 0,
            fingerprint: Fingerprint::new(),
        };
        assert_eq!(
            e2e.values(),
            [
                ("work_per_s", 10.0),
                ("cpu_us_per_unit", 1.0),
                ("peak_rss_mb", 5.5),
                ("setup_s", 5.5),
            ]
        );
    }
}

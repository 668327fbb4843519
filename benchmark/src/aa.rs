//! `--aa`: two complete sets of untraced runs on one build, compared under
//! each metric's bound the way the acceptance driver compares them.

use crate::contract::Contract;
use crate::report::{obj, text, write_out};
use crate::run::{self, END_TO_END};
use crate::stats::{self, median, Verdict};
use crate::workload::{Env, Fingerprint, Workload, SIZES};
use serde::Value;

/// Runs per set, as many as the acceptance driver makes.
const AA_RUNS: u64 = 10;

/// One workload's runs within one set.
struct Runs {
    /// `values[metric][run]`, metrics in [`END_TO_END`] order.
    values: Vec<Vec<f64>>,
    fingerprints: Vec<Fingerprint>,
    failed: u64,
}

fn runs_of(
    set: &str,
    workload: Workload,
    seed: u64,
    seconds: f64,
    env: &Env,
) -> Result<Runs, String> {
    let mut out = Runs {
        values: vec![Vec::new(); END_TO_END.len()],
        fingerprints: Vec::new(),
        failed: 0,
    };
    for run in 0..AA_RUNS {
        let e2e = run::end_to_end(workload, seed + run, seconds, &SIZES, env)?;
        let values = e2e.values();
        eprintln!(
            "set {set} {} seed {}: {values:?}",
            workload.name(),
            seed + run
        );
        for (slot, (_, value)) in out.values.iter_mut().zip(values) {
            slot.push(value);
        }
        out.failed += e2e.failed;
        out.fingerprints.push(e2e.fingerprint);
    }
    Ok(out)
}

/// Runs set A over every workload, then set B, each run on its own seed
/// (`seed`, `seed + 1`, …), prints the comparison and writes `out/aa.json`.
/// `Ok(true)` when every row passes, the two sets' fingerprints are
/// identical and no operation failed.
pub fn run(seed: u64, seconds: f64, contract: &Contract, env: &Env) -> Result<bool, String> {
    let mut sets = Vec::new();
    for set in ["A", "B"] {
        let per_workload = Workload::ALL
            .into_iter()
            .map(|w| runs_of(set, w, seed, seconds, env))
            .collect::<Result<Vec<_>, _>>()?;
        sets.push(per_workload);
    }
    let (a_set, b_set) = (&sets[0], &sets[1]);

    let failed: u64 = sets.iter().flatten().map(|r| r.failed).sum();
    let same_prints = a_set
        .iter()
        .zip(b_set)
        .all(|(a, b)| a.fingerprints == b.fingerprints);
    let mut all_pass = same_prints && failed == 0;

    println!(
        "{:<13} {:<16} {:>14} {:>14} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "B vs A", "IQR A", "IQR B", "bound"
    );
    let mut rows = Vec::new();
    for ((workload, a_runs), b_runs) in Workload::ALL.into_iter().zip(a_set).zip(b_set) {
        for (m, (name, unit)) in END_TO_END.into_iter().enumerate() {
            let def = &contract.end_to_end[m];
            let (a, b) = (&a_runs.values[m], &b_runs.values[m]);
            let worse = stats::worsening(a, b, def.better);
            // The driver holds every metric's median to its bound, and
            // every spread but setup_s's.
            let verdict = if name == "setup_s" && worse <= def.bound {
                Verdict::Pass
            } else {
                stats::compare(a, b, def.better, def.bound)
            };
            all_pass &= verdict == Verdict::Pass;
            println!(
                "{:<13} {name:<16} {:>14.5} {:>14.5} {:>+7.2}% {:>7.2}% {:>7.2}% {:>5.0}%  {}",
                workload.name(),
                median(a),
                median(b),
                worse * 100.0,
                stats::spread(a) * 100.0,
                stats::spread(b) * 100.0,
                def.bound * 100.0,
                verdict.name()
            );
            rows.push(obj([
                ("workload", text(workload.name())),
                ("metric", text(name)),
                ("unit", text(unit)),
                ("median_a", Value::F64(median(a))),
                ("median_b", Value::F64(median(b))),
                ("worsening", Value::F64(worse)),
                ("spread_a", Value::F64(stats::spread(a))),
                ("spread_b", Value::F64(stats::spread(b))),
                ("bound", Value::F64(def.bound)),
                ("verdict", text(verdict.name())),
            ]));
        }
    }
    println!("fingerprints identical across the sets: {same_prints} | failed operations: {failed}");
    write_out(
        env,
        "aa.json",
        obj([
            ("seed", Value::U64(seed)),
            ("runs_per_set", Value::U64(AA_RUNS)),
            ("run_seconds", Value::F64(seconds)),
            ("fingerprints_identical", Value::Bool(same_prints)),
            ("failed", Value::U64(failed)),
            ("rows", Value::Seq(rows)),
        ]),
    )?;
    Ok(all_pass)
}

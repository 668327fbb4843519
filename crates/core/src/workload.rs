//! The one-document workload specification and its execution pipeline.

use crate::experiment::ModelConfig;
use crate::{presets, CoreError};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use uswg_fsc::{FileCatalog, FileSystemCreator, FscSpec};
use uswg_sim::ResourcePool;
use uswg_usim::{
    CompiledPopulation, DesDriver, DesRunStats, DirectDriver, LogSink, PopulationSpec, RunConfig,
    UsageLog,
};
use uswg_vfs::{Vfs, VfsConfig};

/// A complete workload description: the initial file system, the user
/// population and the run parameters. Serializable — the JSON form replaces
/// the paper's interactive GDS sessions.
///
/// The pipeline mirrors Figure 4.1: distributions are compiled to CDF
/// tables, the FSC builds the file system, the USIM executes users.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// File-system population (the FSC input; Table 5.1 by default).
    pub fsc: FscSpec,
    /// User population (the USIM input; Tables 5.2/5.4 by default).
    pub population: PopulationSpec,
    /// Run parameters: users, sessions, seed, table resolution.
    pub run: RunConfig,
    /// Geometry of the synthetic file system.
    pub vfs: VfsConfig,
}

impl WorkloadSpec {
    /// The paper's default workload: Table 5.1 file system, a single
    /// Table 5.2 "heavy I/O" user type, 1 user × 50 sessions.
    ///
    /// # Errors
    ///
    /// Propagates preset validation (never fails in practice).
    pub fn paper_default() -> Result<Self, CoreError> {
        Ok(Self {
            fsc: presets::table_5_1_fs_spec()?,
            population: PopulationSpec::single(presets::heavy_user())?,
            run: RunConfig::default(),
            vfs: VfsConfig::default(),
        })
    }

    /// Builder-style population override.
    pub fn with_population(mut self, population: PopulationSpec) -> Self {
        self.population = population;
        self
    }

    /// Builder-style run-config override.
    pub fn with_run(mut self, run: RunConfig) -> Self {
        self.run = run;
        self
    }

    /// Serializes to pretty JSON.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Spec`] if serialization fails.
    pub fn to_json(&self) -> Result<String, CoreError> {
        Ok(serde_json::to_string_pretty(self)?)
    }

    /// Parses a spec from JSON.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Spec`] on malformed input.
    pub fn from_json(json: &str) -> Result<Self, CoreError> {
        Ok(serde_json::from_str(json)?)
    }

    /// Checks what every run checks before it builds anything: the `vfs`
    /// geometry, then the `run` section.
    ///
    /// # Errors
    ///
    /// [`CoreError::Geometry`] for a `vfs` section no file system can be
    /// built on, and what [`RunConfig::validate`](uswg_usim::RunConfig::validate)
    /// refuses.
    pub fn validate(&self) -> Result<(), CoreError> {
        self.vfs.validate().map_err(CoreError::Geometry)?;
        Ok(self.run.validate()?)
    }

    /// Runs the FSC: builds the synthetic file system and its catalog for
    /// `run.n_users` users, seeded from `run.seed`.
    ///
    /// # Errors
    ///
    /// What [`Self::validate`] refuses; otherwise propagates creator and
    /// file-system errors.
    pub fn generate_fs(&self) -> Result<(Vfs, FileCatalog), CoreError> {
        self.validate()?;
        let mut vfs = Vfs::new(self.vfs);
        let creator = FileSystemCreator::new(self.fsc.clone());
        let mut rng = StdRng::seed_from_u64(self.run.seed.wrapping_mul(0xF5C0_0001));
        let catalog = creator.build(&mut vfs, self.run.n_users, &mut rng)?;
        Ok((vfs, catalog))
    }

    /// Compiles the population's distributions into CDF tables (the GDS
    /// step).
    ///
    /// # Errors
    ///
    /// A `run` section [`RunConfig::validate`](uswg_usim::RunConfig::validate)
    /// refuses — checked first, so no table is sized from a bad
    /// `cdf_resolution` — and distribution tabulation errors.
    pub fn compile(&self) -> Result<CompiledPopulation, CoreError> {
        self.run.validate()?;
        Ok(CompiledPopulation::compile(
            &self.population,
            self.run.cdf_resolution,
        )?)
    }

    /// Runs the workload with the direct driver (no timing model): the
    /// usage-study mode behind Figures 5.3–5.5.
    ///
    /// # Errors
    ///
    /// Propagates generation, compilation and simulation errors.
    pub fn run_direct(&self) -> Result<UsageLog, CoreError> {
        let (mut vfs, catalog) = self.generate_fs()?;
        let population = self.compile()?;
        Ok(DirectDriver::new().run(&mut vfs, &catalog, &population, &self.run)?)
    }

    /// Runs the workload in simulated time against a timing model,
    /// streaming every record into `sink`: the response-time measurement
    /// mode behind Table 5.3 and Figures 5.6–5.12, and the one timed-run
    /// entry point. What the caller keeps is the sink it passes — a
    /// [`UsageLog`] collects the full log, a
    /// [`SummarySink`](uswg_usim::SummarySink) keeps O(1) running
    /// aggregates, a [`SpillSink`](uswg_usim::SpillSink) writes the binary
    /// capture, a tuple tees two sinks, a
    /// [`ChannelSink`](uswg_usim::ChannelSink) feeds a consumer thread — and
    /// the record stream is identical whichever it is.
    ///
    /// # Errors
    ///
    /// Propagates generation, compilation and simulation errors.
    pub fn run_des<S: LogSink>(
        &self,
        model: &ModelConfig,
        sink: S,
    ) -> Result<(S, DesRunStats), CoreError> {
        let (vfs, catalog) = self.generate_fs()?;
        let population = self.compile()?;
        let mut pool = ResourcePool::new();
        let model = model.build(&mut pool);
        Ok(DesDriver::new().run_with_sink(
            vfs,
            catalog,
            &population,
            model,
            pool,
            &self.run,
            sink,
        )?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uswg_usim::PopulationSpec;

    fn quick_spec() -> WorkloadSpec {
        let mut spec = WorkloadSpec::paper_default().unwrap();
        spec.run.sessions_per_user = 2;
        spec.run.n_users = 1;
        spec.fsc = spec
            .fsc
            .with_files_per_user(10)
            .unwrap()
            .with_shared_files(15)
            .unwrap();
        spec
    }

    #[test]
    fn paper_default_builds_and_runs_direct() {
        let log = quick_spec().run_direct().unwrap();
        assert_eq!(log.sessions().len(), 2);
        assert!(!log.ops().is_empty());
    }

    #[test]
    fn paper_default_runs_des() {
        let (log, stats) = quick_spec()
            .run_des(&ModelConfig::default_nfs(), UsageLog::new())
            .unwrap();
        assert_eq!(stats.model, "nfs");
        assert_eq!(log.sessions().len(), 2);
    }

    #[test]
    fn json_round_trip() {
        // This environment's JSON float codec rounds long decimals (e.g.
        // 9.7/100 → "0.097"), so equality is checked at the fixed point one
        // round trip reaches, not bit-for-bit against the original.
        let spec = quick_spec();
        let once = WorkloadSpec::from_json(&spec.to_json().unwrap()).unwrap();
        let twice = WorkloadSpec::from_json(&once.to_json().unwrap()).unwrap();
        assert_eq!(once, twice);
        assert_eq!(spec.run, once.run);
        assert_eq!(spec.vfs, once.vfs);
        // Semantics survive: fractions still sum to one and the spec runs.
        let total: f64 = once.fsc.categories.iter().map(|c| c.fraction).sum();
        assert!((total - 1.0).abs() < 1e-6);
    }

    #[test]
    fn specs_without_a_faults_section_parse_to_no_faults() {
        // Back-compat: every spec written before fault injection existed
        // (no "faults" key in the run section) must deserialize to the
        // disabled default, and a spec carrying a fault section must
        // round-trip it.
        let spec = quick_spec();
        let mut json = spec.to_json().unwrap();
        assert!(
            json.contains("\"faults\""),
            "serialized spec should carry the faults section"
        );
        // Strip the faults object out of the JSON the way an old file
        // simply would not have it (the codec pretty-prints, so strip
        // from the comma preceding the key through the matching brace).
        let key = json.find("\"faults\"").expect("faults key present");
        let start = json[..key].rfind(',').expect("comma before faults key");
        let obj_start = json[key..].find('{').unwrap() + key;
        let mut depth = 0usize;
        let mut end = obj_start;
        for (i, b) in json[obj_start..].bytes().enumerate() {
            match b {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        end = obj_start + i + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        json.replace_range(start..end, "");
        let old_style = WorkloadSpec::from_json(&json).unwrap();
        assert_eq!(old_style.run.faults, uswg_usim::FaultSpec::default());
        assert!(!old_style.run.faults.enabled());

        // And an enabled spec survives the round trip intact.
        let faulted = quick_spec().with_run(quick_spec().run.with_faults(uswg_usim::FaultSpec {
            fault_ppm: 20_000,
            ..uswg_usim::FaultSpec::default()
        }));
        let back = WorkloadSpec::from_json(&faulted.to_json().unwrap()).unwrap();
        assert_eq!(back.run.faults, faulted.run.faults);
        assert!(back.run.faults.enabled());
    }

    #[test]
    fn builders_replace_parts() {
        let spec = quick_spec()
            .with_population(PopulationSpec::single(crate::presets::light_user()).unwrap())
            .with_run(RunConfig::default().with_users(2).with_sessions(1));
        assert_eq!(spec.run.n_users, 2);
        assert_eq!(spec.population.types()[0].0.name, "light I/O");
    }

    #[test]
    fn popularity_threads_through_the_spec() {
        // The PR 4 follow-up: a spec opts into weighted file popularity
        // declaratively. A heavy Zipf skew must change which files the
        // seeded workload touches; the default (and an explicit uniform)
        // must reproduce the historical pick stream byte for byte.
        let base = quick_spec();
        let mut uniform = base.clone();
        uniform.fsc = uniform
            .fsc
            .with_popularity(uswg_fsc::FilePopularity::Uniform);
        let mut zipf = base.clone();
        zipf.fsc = zipf
            .fsc
            .with_popularity(uswg_fsc::FilePopularity::Zipf { exponent: 3.0 });
        let model = ModelConfig::default_local();
        let log_json = |spec: &WorkloadSpec| {
            let (log, _) = spec.run_des(&model, UsageLog::new()).unwrap();
            log.to_json().unwrap()
        };
        let (base_log, uniform_log, zipf_log) =
            (log_json(&base), log_json(&uniform), log_json(&zipf));
        assert_eq!(
            base_log, uniform_log,
            "explicit uniform must equal the default"
        );
        assert_ne!(zipf_log, base_log, "a heavy skew must change the picks");
        // And the policy survives the JSON round trip specs live as.
        let back = WorkloadSpec::from_json(&zipf.to_json().unwrap()).unwrap();
        assert_eq!(
            back.fsc.popularity,
            uswg_fsc::FilePopularity::Zipf { exponent: 3.0 }
        );
    }

    #[test]
    fn generate_fs_is_seed_deterministic() {
        let spec = quick_spec();
        let (_, c1) = spec.generate_fs().unwrap();
        let (_, c2) = spec.generate_fs().unwrap();
        let paths = |c: &uswg_fsc::FileCatalog| -> Vec<_> {
            (0..c.len())
                .map(|i| (c.path(i).to_string(), c.file(i).size))
                .collect()
        };
        assert_eq!(paths(&c1), paths(&c2));
    }
}

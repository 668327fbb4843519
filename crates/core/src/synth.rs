//! Spec synthesis: turning a [`FitObservation`] measured from a capture
//! into a complete, runnable [`WorkloadSpec`].
//!
//! This is the emission half of `uswg fit`. `uswg-analyze` collects the
//! observation (reservoir samples, op mixes, per-category aggregates, file
//! geometry); [`synthesize_spec`] runs the `uswg-distr` fitters over every
//! measure, picks the best family by KS statistic, and assembles the
//! user-oriented characterization the paper argues for — user types with
//! fitted think-time/access-size/session distributions, per-category
//! usage, a file-system characterization sized from the observed inode
//! footprint, and VFS limits with headroom to actually replay it.
//!
//! Every fitting decision is reported in [`SynthesizedSpec::fits`]; every
//! place the data was too thin to fit falls back to a constant and says so
//! in [`SynthesizedSpec::warnings`] — a fitted spec never hides where it
//! stopped trusting the capture.

use crate::{CoreError, WorkloadSpec};
use serde::Serialize;
use uswg_analyze::fit::{FitObservation, Reservoir, TypeObservation};
use uswg_distr::fit::fit_best;
use uswg_distr::gof::KsTest;
use uswg_distr::DistributionSpec;
use uswg_fsc::{CategorySpec, FscSpec, Owner};
use uswg_usim::{CategoryUsage, PopulationSpec, RunConfig, UserTypeSpec};
use uswg_vfs::VfsConfig;

/// Knobs of the synthesis.
#[derive(Debug, Clone, Copy)]
pub struct SynthesisOptions {
    /// Largest mixture order [`fit_best`] may try per measure.
    pub max_components: usize,
    /// Below this many samples a measure is not fitted at all — it becomes
    /// a constant at the sample mean, with a warning. Tiny samples make
    /// every family fit perfectly and none mean anything.
    pub min_samples: usize,
}

impl Default for SynthesisOptions {
    fn default() -> Self {
        Self {
            max_components: 3,
            min_samples: 8,
        }
    }
}

/// How one usage measure was modeled.
#[derive(Debug, Clone, Serialize)]
pub struct MeasureFit {
    /// Which measure, as `type-<i>/<measure>` (or `fsc/<category>`).
    pub measure: String,
    /// The family chosen ("exponential", "phase:2", "gamma:1", …, or
    /// "constant" for degenerate/thin samples).
    pub family: String,
    /// Values the measure stream offered (the reservoir may hold fewer).
    pub seen: u64,
    /// Samples actually fitted.
    pub fitted: usize,
    /// KS test of the fitted samples against the chosen model (absent for
    /// constant fallbacks — a KS distance against a point mass says
    /// nothing).
    pub ks: Option<KsTest>,
}

/// The output of [`synthesize_spec`].
#[derive(Debug, Clone)]
pub struct SynthesizedSpec {
    /// The runnable spec.
    pub spec: WorkloadSpec,
    /// Per-measure model choices, in emission order.
    pub fits: Vec<MeasureFit>,
    /// Everywhere the capture was too thin or too degenerate to fit and a
    /// documented fallback was used instead.
    pub warnings: Vec<String>,
}

/// Running state threaded through the per-measure fits.
struct Synth<'a> {
    opts: &'a SynthesisOptions,
    fits: Vec<MeasureFit>,
    warnings: Vec<String>,
}

impl Synth<'_> {
    /// Fits one measure's reservoir, falling back to a constant (at the
    /// sample mean, or `fallback` when no sample exists) when the data is
    /// too thin or the fitters reject it.
    fn measure(&mut self, name: String, r: &Reservoir, fallback: f64) -> DistributionSpec {
        let samples = r.samples();
        let mean = if samples.is_empty() {
            fallback
        } else {
            samples.iter().sum::<f64>() / samples.len() as f64
        };
        let constant = DistributionSpec::constant(mean.max(0.0));
        if samples.len() < self.opts.min_samples {
            self.warnings.push(format!(
                "{name}: only {} samples (< {}), using constant {mean:.3}",
                samples.len(),
                self.opts.min_samples
            ));
            self.fits.push(MeasureFit {
                measure: name,
                family: "constant".into(),
                seen: r.seen(),
                fitted: samples.len(),
                ks: None,
            });
            return constant;
        }
        match fit_best(samples, self.opts.max_components) {
            Ok(best) => {
                self.fits.push(MeasureFit {
                    measure: name,
                    family: best.family,
                    seen: r.seen(),
                    fitted: samples.len(),
                    ks: Some(best.ks),
                });
                best.spec
            }
            Err(e) => {
                self.warnings.push(format!(
                    "{name}: fit failed ({e}), using constant {mean:.3}"
                ));
                self.fits.push(MeasureFit {
                    measure: name,
                    family: "constant".into(),
                    seen: r.seen(),
                    fitted: samples.len(),
                    ks: None,
                });
                constant
            }
        }
    }
}

/// Builds one user type from its observation.
fn synthesize_type(s: &mut Synth<'_>, t: &TypeObservation) -> UserTypeSpec {
    let name = format!("type-{}", t.type_index);
    let think_time = s.measure(format!("{name}/think_time"), &t.think_time, 0.0);
    let access_size = s.measure(format!("{name}/access_size"), &t.access_size, 1024.0);
    let inter_session = s.measure(format!("{name}/inter_session"), &t.inter_session, 0.0);
    let mut categories: Vec<CategoryUsage> = t
        .categories
        .iter()
        .map(|c| {
            let label = format!("{name}/{}", c.category);
            let mean_size = if c.files == 0 {
                0.0
            } else {
                c.file_bytes as f64 / c.files as f64
            };
            let mean_files = if c.sessions == 0 {
                0.0
            } else {
                c.files as f64 / c.sessions as f64
            };
            CategoryUsage {
                category: c.category,
                access_per_byte: c.access_per_byte(),
                file_size: s.measure(format!("{label}/file_size"), &c.file_sizes, mean_size),
                files: s.measure(format!("{label}/files"), &c.files_per_session, mean_files),
                pct_users: if t.sessions == 0 {
                    0.0
                } else {
                    (c.sessions as f64 / t.sessions as f64).min(1.0)
                },
                access_pattern: Default::default(),
            }
        })
        .collect();
    if categories.is_empty() {
        // A type whose every op fell outside the window (or that only ever
        // appeared in session records): give it a minimal read-only usage
        // rather than an unvalidatable empty type.
        s.warnings.push(format!(
            "{name}: no per-category usage observed, defaulting to a light read-only profile"
        ));
        categories.push(CategoryUsage::exponential(
            uswg_fsc::FileCategory::REG_USER_RDONLY,
            1.0,
            2608.0,
            1.0,
            1.0,
        ));
    }
    UserTypeSpec::new(name, think_time, access_size, categories)
        .with_inter_session_time(inter_session)
}

/// Builds the file-system characterization from the capture's distinct-file
/// geometry: category fractions by distinct-file count, per-category size
/// distributions fitted from the observed sizes, and the per-user/shared
/// file counts scaled to the population. Falls back to Table 5.1 (with a
/// warning) when the capture referenced no pre-existing files at all.
fn synthesize_fsc(
    s: &mut Synth<'_>,
    obs: &FitObservation,
    n_users: usize,
) -> Result<FscSpec, CoreError> {
    let preexisting: Vec<_> = obs
        .geometry
        .categories
        .iter()
        .filter(|c| c.category.preexisting() && c.files > 0)
        .collect();
    let total: u64 = preexisting.iter().map(|c| c.files).sum();
    if total == 0 {
        s.warnings.push(
            "capture referenced no pre-existing files; file system falls back to Table 5.1".into(),
        );
        return Ok(crate::presets::table_5_1_fs_spec()?);
    }
    let categories: Vec<CategorySpec> = preexisting
        .iter()
        .map(|c| {
            let mean = c.bytes as f64 / c.files as f64;
            let size = s.measure(format!("fsc/{}", c.category), &c.sizes, mean);
            CategorySpec::new(c.category, c.files as f64 / total as f64, size)
        })
        .collect();
    let user_owned: u64 = preexisting
        .iter()
        .filter(|c| c.category.owner == Owner::User)
        .map(|c| c.files)
        .sum();
    let shared: u64 = preexisting
        .iter()
        .filter(|c| c.category.owner == Owner::Other)
        .map(|c| c.files)
        .sum();
    let mut fsc = FscSpec::new(categories)?;
    fsc.files_per_user = user_owned.div_ceil(n_users.max(1) as u64).max(1);
    fsc.shared_files = shared;
    Ok(fsc)
}

/// VFS limits with 2× headroom over the larger of the observed footprint
/// and what `fsc` builds for the capture's users: the synthesized run
/// creates fresh NEW/TEMP files beyond the pre-existing population, so
/// replaying at exactly either would ENOSPC. The build's demand is the
/// FSC's own ([`FscSpec::inode_demand`]), which refuses a smaller limit.
fn synthesize_vfs(obs: &FitObservation, fsc: &FscSpec) -> VfsConfig {
    let mut vfs = VfsConfig::default();
    let geometry = &obs.geometry;
    let observed = (geometry.max_ino + 1).saturating_add(geometry.total_files);
    let built = fsc.inode_demand(obs.users).unwrap_or(u64::MAX);
    let want_inodes = observed.max(built).saturating_mul(2);
    if want_inodes > vfs.max_inodes as u64 {
        vfs.max_inodes = want_inodes.next_power_of_two() as usize;
    }
    let want_blocks = geometry
        .total_bytes
        .saturating_mul(2)
        .div_ceil(vfs.block_size as u64);
    if want_blocks > vfs.max_blocks as u64 {
        vfs.max_blocks = want_blocks.next_power_of_two() as usize;
    }
    let want_file = geometry.max_file_size.saturating_mul(2);
    if want_file > vfs.max_file_size {
        vfs.max_file_size = want_file;
    }
    vfs
}

/// Synthesizes a complete runnable [`WorkloadSpec`] from a fit
/// observation: fitted per-type distributions, population fractions from
/// the per-type user counts, run parameters from the session statistics,
/// file-system characterization from the inode footprint.
///
/// # Errors
///
/// Returns [`CoreError::Spec`] when the observation is empty (an empty
/// window must be an error, not a runnable spec resembling a real one),
/// and propagates spec-validation errors.
pub fn synthesize_spec(
    obs: &FitObservation,
    opts: &SynthesisOptions,
) -> Result<SynthesizedSpec, CoreError> {
    if obs.types.is_empty() || obs.users == 0 {
        return Err(CoreError::Spec(
            "capture contains no completed sessions to fit a population from".into(),
        ));
    }
    let mut s = Synth {
        opts,
        fits: Vec::new(),
        warnings: Vec::new(),
    };
    if obs.ops_unclassified > 0 {
        s.warnings.push(format!(
            "{} ops belonged to users with no completed session in the window and were not \
             classified",
            obs.ops_unclassified
        ));
    }

    let total_users: usize = obs.types.iter().map(|t| t.users).sum();
    let types: Vec<(UserTypeSpec, f64)> = obs
        .types
        .iter()
        .map(|t| {
            let spec = synthesize_type(&mut s, t);
            (spec, t.users as f64 / total_users.max(1) as f64)
        })
        .collect();
    let population = PopulationSpec::new(types)?;

    let mean_sessions = obs.sessions as f64 / obs.users as f64;
    let mut run = RunConfig {
        n_users: obs.users,
        sessions_per_user: (mean_sessions.round() as u32).max(1),
        ..RunConfig::default()
    };
    run.record_ops = true;

    let fsc = synthesize_fsc(&mut s, obs, obs.users)?;
    let vfs = synthesize_vfs(obs, &fsc);

    let spec = WorkloadSpec {
        fsc,
        population,
        run,
        vfs,
    };
    spec.run.validate()?;
    Ok(SynthesizedSpec {
        spec,
        fits: s.fits,
        warnings: s.warnings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use uswg_analyze::fit::FitCollector;
    use uswg_fsc::FileCategory;
    use uswg_netfs::OpKind;
    use uswg_usim::{OpRecord, SessionRecord};
    use uswg_vfs::Vfs;

    fn session(user: usize, user_type: usize, n: u32, start: u64, end: u64) -> SessionRecord {
        SessionRecord {
            user,
            user_type,
            session: n,
            start,
            end,
            ops: 4,
            files_referenced: 2,
            file_bytes_referenced: 8192,
            bytes_accessed: 4096,
            bytes_read: 4096,
            bytes_written: 0,
            total_response: 400,
        }
    }

    fn op(user: usize, n: u32, at: u64, ino: u64, bytes: u64) -> OpRecord {
        OpRecord {
            at,
            user,
            session: n,
            op: OpKind::Read,
            ino,
            bytes,
            file_size: 4096,
            response: 50,
            category: FileCategory::REG_USER_RDONLY,
            retries: 0,
            aborted: false,
        }
    }

    fn observation() -> FitObservation {
        let mut c = FitCollector::new();
        for user in 0..4 {
            let ty = user % 2;
            for sess in 0..3u32 {
                let base = sess as u64 * 100_000;
                c.record_session(&session(user, ty, sess, base, base + 60_000));
            }
        }
        let mut t = 0u64;
        for user in 0..4 {
            for sess in 0..3u32 {
                for i in 0..20u64 {
                    t += 137 + (t % 997);
                    c.record_op(&op(user, sess, t, (user as u64) * 8 + i % 5, 256 + i * 64));
                }
            }
        }
        c.finish().unwrap()
    }

    #[test]
    fn synthesizes_a_runnable_spec() {
        let obs = observation();
        let out = synthesize_spec(&obs, &SynthesisOptions::default()).unwrap();
        let spec = &out.spec;
        assert_eq!(spec.run.n_users, 4);
        assert_eq!(spec.run.sessions_per_user, 3);
        assert_eq!(spec.population.types().len(), 2);
        let fractions: f64 = spec.population.types().iter().map(|&(_, f)| f).sum();
        assert!((fractions - 1.0).abs() < 1e-9);
        // Every type carries usable category usage.
        for (t, _) in spec.population.types() {
            assert!(!t.categories.is_empty());
        }
        // The spec must actually compile and build its file system.
        spec.compile().unwrap();
        spec.generate_fs().unwrap();
        // Model choices were reported for the fitted measures.
        assert!(out
            .fits
            .iter()
            .any(|f| f.measure.ends_with("/access_size") && f.fitted > 0));
    }

    #[test]
    fn empty_observation_is_an_error() {
        let obs = FitCollector::new().finish().unwrap();
        match synthesize_spec(&obs, &SynthesisOptions::default()) {
            Err(CoreError::Spec(msg)) => assert!(msg.contains("no completed sessions")),
            other => panic!("expected Spec error, got {other:?}"),
        }
    }

    #[test]
    fn thin_samples_fall_back_to_constants_with_warnings() {
        let mut c = FitCollector::new();
        c.record_session(&session(0, 0, 0, 0, 1_000));
        c.record_op(&op(0, 0, 100, 1, 512));
        let out = synthesize_spec(&c.finish().unwrap(), &SynthesisOptions::default()).unwrap();
        assert!(!out.warnings.is_empty());
        assert!(out.fits.iter().all(|f| f.family == "constant"));
        // Still runnable.
        out.spec.compile().unwrap();
    }

    #[test]
    fn vfs_headroom_covers_the_observed_footprint() {
        let obs = observation();
        let out = synthesize_spec(&obs, &SynthesisOptions::default()).unwrap();
        let vfs = out.spec.vfs;
        assert!(vfs.max_inodes as u64 > obs.geometry.max_ino);
        assert!(vfs.max_file_size >= 2 * obs.geometry.max_file_size);
    }

    /// A million users who touched a few dozen files: the fitted file
    /// system must hold what its own FSC section builds for them, 2 inodes
    /// per home beside the files, with the 2× headroom. Sized from the
    /// touched inodes alone, `run` refused the spec from 4·10⁴ users up.
    #[test]
    fn vfs_holds_what_the_fitted_fsc_builds_at_a_million_users() {
        let mut obs = observation();
        obs.users = 1_000_000;
        let spec = synthesize_spec(&obs, &SynthesisOptions::default())
            .unwrap()
            .spec;
        let demand = spec.fsc.inode_demand(spec.run.n_users).unwrap();
        assert!(demand > 3_000_000, "{demand}");
        assert!(spec.vfs.max_inodes as u64 >= 2 * demand);
        let fresh = Vfs::new(spec.vfs).statfs();
        assert!(fresh.total_inodes - fresh.used_inodes >= demand);
        // At four users the observed footprint decides, as before.
        let small = synthesize_spec(&observation(), &SynthesisOptions::default()).unwrap();
        assert_eq!(small.spec.vfs.max_inodes, VfsConfig::default().max_inodes);
    }
}

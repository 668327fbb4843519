//! The direct driver: executes sessions back-to-back against the VFS with
//! no timing model.
//!
//! This is how the original tool ran when the measured quantity was the
//! usage distribution itself rather than response time — it powers the
//! Figure 5.3–5.5 studies (600 login sessions) and the throughput benches.
//! Response times are measured with the host's monotonic clock: they time
//! this machine's in-memory file system doing the *bookkeeping* for a call —
//! path walk, descriptor and cursor, block allocation, the copy of a write's
//! bytes; a read's bytes are not copied ([`Vfs::read_discard`]: the user
//! program never looks at them). That was never a model of anything.

use crate::compile::CompiledPopulation;
use crate::log::{OpRecord, UsageLog};
use crate::session::Session;
use crate::{RunConfig, UsimError};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use uswg_fsc::FileCatalog;
use uswg_vfs::Vfs;

/// Runs every user's sessions sequentially. See the module documentation for the full model description.
#[derive(Debug, Default)]
pub struct DirectDriver;

impl DirectDriver {
    /// Creates a driver.
    pub fn new() -> Self {
        Self
    }

    /// Executes the run and returns the usage log.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation and unexpected file-system
    /// errors.
    pub fn run(
        &self,
        vfs: &mut Vfs,
        catalog: &FileCatalog,
        population: &CompiledPopulation,
        config: &RunConfig,
    ) -> Result<UsageLog, UsimError> {
        config.validate()?;
        let assignment = population.assign(config.n_users);
        let mut log = UsageLog::new();

        for (user, &type_idx) in assignment.iter().enumerate() {
            let utype = &population.types()[type_idx];
            let mut rng =
                StdRng::seed_from_u64(config.seed ^ (user as u64).wrapping_mul(0x9E37_79B9));
            let mut proc = vfs.new_process();
            let mut behavior = utype.new_behavior();
            // Virtual clock: think times are sampled (keeping the RNG stream
            // identical to the DES driver's) and accumulated, but not slept.
            let mut virtual_clock: u64 = 0;

            for ordinal in 0..config.sessions_per_user {
                let now = virtual_clock;
                let mut session =
                    Session::plan(user, type_idx, ordinal, now, utype, catalog, &mut rng);
                vfs.set_clock(now);
                loop {
                    let before = Instant::now();
                    let Some(exec) = session.next_op(vfs, &mut proc, utype, catalog, &mut rng)?
                    else {
                        break;
                    };
                    let response = before.elapsed().as_micros() as u64;
                    session.record.total_response += response;
                    if config.record_ops {
                        log.push_op(OpRecord {
                            at: virtual_clock,
                            user,
                            session: ordinal,
                            op: exec.request.kind,
                            ino: exec.request.file.0,
                            bytes: exec.request.bytes,
                            file_size: exec.request.file_size,
                            response,
                            category: exec.category,
                            retries: 0,
                            aborted: false,
                        });
                    }
                    virtual_clock += utype.sample_think(&mut behavior, &mut rng);
                    vfs.set_clock(virtual_clock);
                }
                log.push_session(session.finish(virtual_clock));
                // Logout → next login gap (same RNG point as the DES driver).
                virtual_clock += utype.sample_inter_session(virtual_clock, &mut rng);
            }
        }
        Ok(log)
    }
}

//! The direct driver: executes sessions back-to-back against the VFS with
//! no timing model.
//!
//! This is how the original tool ran when the measured quantity was the
//! usage distribution itself rather than response time — it powers the
//! Figure 5.3–5.5 studies (600 login sessions) and the throughput benches.
//! Response times are measured with the host's monotonic clock: they time
//! this machine's in-memory file system doing the *bookkeeping* for a call —
//! path walk, descriptor and cursor, block allocation; the file system holds
//! no data byte to copy (a file is its size and the blocks it holds). That
//! was never a model of anything.

use crate::compile::CompiledPopulation;
use crate::des::user_rng;
use crate::log::{OpRecord, UsageLog};
use crate::session::Session;
use crate::{RunConfig, UsimError};
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
        let mut log = UsageLog::new();
        // Every path a session names is rendered here.
        let mut path = String::new();

        for user in 0..config.n_users {
            let type_idx = population.type_of(user, config.n_users);
            let utype = &population.types()[type_idx];
            let mut rng = user_rng(config.seed, user);
            let mut proc = vfs.new_process();
            let mut behavior = utype.new_behavior();
            // Virtual clock: think times are sampled (keeping the RNG stream
            // identical to the DES driver's) and accumulated, but not slept.
            let mut virtual_clock: u64 = 0;

            for ordinal in 0..config.sessions_per_user {
                let now = virtual_clock;
                let mut session =
                    Session::plan(user, type_idx, ordinal, now, utype, catalog, &mut rng);
                if session.names_home(catalog) {
                    catalog.build_home(vfs, user)?;
                }
                vfs.set_clock(now);
                loop {
                    let before = Instant::now();
                    let Some(exec) =
                        session.next_op(vfs, &mut proc, utype, catalog, &mut path, &mut rng)?
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
            catalog.drop_home(vfs, user);
        }
        Ok(log)
    }
}

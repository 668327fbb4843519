//! Kept only because the benchmark harness names `DirectDriver`: the
//! change that moves the harness off it deletes this file. No first-party
//! code calls it.

use crate::{CompiledPopulation, DesDriver, RunConfig, UsageLog, UsimError};
use uswg_fsc::FileCatalog;
use uswg_vfs::Vfs;

/// The DES under the zero-stage model, behind the old driver's signature.
#[derive(Debug, Default)]
pub struct DirectDriver;

impl DirectDriver {
    /// Creates a driver.
    pub fn new() -> Self {
        Self
    }

    /// [`DesDriver::run_on`] under [`uswg_netfs::ZeroModel`], into a log.
    pub fn run(
        &self,
        vfs: &mut Vfs,
        catalog: &FileCatalog,
        population: &CompiledPopulation,
        config: &RunConfig,
    ) -> Result<UsageLog, UsimError> {
        let model = Box::new(uswg_netfs::ZeroModel);
        let (catalog, pool, log) = (catalog.clone(), Default::default(), UsageLog::new());
        let des = DesDriver::new().run_on(vfs, catalog, population, model, pool, config, log);
        des.map(|(log, _)| log)
    }
}

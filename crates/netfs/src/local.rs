//! A local-disk file system model: every call costs client CPU, data and
//! metadata calls also visit the local disk.

use crate::{jitter, OpKind, OpRequest, ServiceModel, Stage};
use rand::RngCore;
use serde::{Deserialize, Serialize};
use uswg_sim::{Resource, ResourceId, ResourcePool};

/// Timing parameters of [`LocalDiskModel`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LocalDiskParams {
    /// CPU cost of entering/exiting any system call, µs.
    pub cpu_per_call: u64,
    /// Fixed disk cost per data operation (effective seek + rotation with a
    /// warm buffer cache), µs.
    pub disk_per_op: u64,
    /// Disk transfer cost per byte, µs.
    pub disk_per_byte: f64,
    /// Fixed disk cost of a metadata operation (inode fetch/update), µs.
    pub disk_per_metadata_op: u64,
    /// Half-width of the uniform jitter applied to each disk service, µs.
    pub disk_jitter: u64,
}

impl Default for LocalDiskParams {
    /// A late-1980s workstation disk with an effective buffer cache: ~50 µs
    /// syscall overhead, ~300 µs per cached data access, 0.05 µs/byte.
    fn default() -> Self {
        Self {
            cpu_per_call: 50,
            disk_per_op: 300,
            disk_per_byte: 0.05,
            disk_per_metadata_op: 150,
            disk_jitter: 50,
        }
    }
}

/// All file I/O served by one local disk behind one CPU.
#[derive(Debug)]
pub struct LocalDiskModel {
    params: LocalDiskParams,
    cpu: ResourceId,
    disk: ResourceId,
}

impl LocalDiskModel {
    /// Registers the model's CPU and disk in `pool`.
    pub fn new(pool: &mut ResourcePool, params: LocalDiskParams) -> Self {
        let cpu = pool.add(Resource::new("local.cpu", 1));
        let disk = pool.add(Resource::new("local.disk", 1));
        Self { params, cpu, disk }
    }

    /// The model's parameters.
    pub fn params(&self) -> &LocalDiskParams {
        &self.params
    }
}

impl ServiceModel for LocalDiskModel {
    fn name(&self) -> &str {
        "local"
    }

    fn stages(&mut self, req: &OpRequest, rng: &mut dyn RngCore) -> Vec<Stage> {
        let p = self.params;
        // CPU, then at most one disk service.
        let mut stages = Vec::with_capacity(2);
        stages.push(Stage::Service {
            resource: self.cpu,
            micros: p.cpu_per_call,
        });
        match req.kind {
            OpKind::Read | OpKind::Write => {
                let transfer = (req.bytes as f64 * p.disk_per_byte).round() as u64;
                stages.push(Stage::Service {
                    resource: self.disk,
                    micros: p.disk_per_op + transfer + jitter(p.disk_jitter, rng),
                });
            }
            OpKind::Open | OpKind::Stat => {
                stages.push(Stage::Service {
                    resource: self.disk,
                    micros: p.disk_per_metadata_op + jitter(p.disk_jitter, rng),
                });
            }
            OpKind::Create | OpKind::Unlink => {
                // Synchronous metadata update: two disk touches (dir + inode).
                stages.push(Stage::Service {
                    resource: self.disk,
                    micros: 2 * p.disk_per_metadata_op + jitter(p.disk_jitter, rng),
                });
            }
            OpKind::Close | OpKind::Seek => {
                // Purely local bookkeeping; CPU charge only.
            }
        }
        stages
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{isolated_response, FileId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use uswg_sim::SimTime;

    fn no_jitter() -> LocalDiskParams {
        LocalDiskParams {
            disk_jitter: 0,
            ..LocalDiskParams::default()
        }
    }

    #[test]
    fn read_cost_scales_with_bytes() {
        let mut pool = ResourcePool::new();
        let mut m = LocalDiskModel::new(&mut pool, no_jitter());
        let mut rng = StdRng::seed_from_u64(1);
        let small = OpRequest::data(0, OpKind::Read, FileId(1), 0, 100, 1_000);
        let big = OpRequest::data(0, OpKind::Read, FileId(1), 0, 10_000, 20_000);
        let t_small = isolated_response(&mut m, &mut pool, &small, &mut rng, SimTime::ZERO);
        let t_big = isolated_response(&mut m, &mut pool, &big, &mut rng, SimTime::from_secs(1));
        assert!(t_big > t_small);
        // Exact: cpu 50 + disk 300 + bytes*0.05.
        assert_eq!(t_small, 50 + 300 + 5);
        assert_eq!(t_big, 50 + 300 + 500);
    }

    #[test]
    fn close_and_seek_skip_the_disk() {
        let mut pool = ResourcePool::new();
        let mut m = LocalDiskModel::new(&mut pool, no_jitter());
        let mut rng = StdRng::seed_from_u64(2);
        for (i, kind) in [OpKind::Close, OpKind::Seek].into_iter().enumerate() {
            let req = OpRequest::metadata(0, kind, FileId(1), 0);
            let start = SimTime::from_secs(i as u64 + 1);
            let t = isolated_response(&mut m, &mut pool, &req, &mut rng, start);
            assert_eq!(t, 50, "{kind} should be CPU-only");
        }
    }

    #[test]
    fn create_costs_more_than_stat() {
        let mut pool = ResourcePool::new();
        let mut m = LocalDiskModel::new(&mut pool, no_jitter());
        let mut rng = StdRng::seed_from_u64(3);
        let stat = OpRequest::metadata(0, OpKind::Stat, FileId(1), 0);
        let creat = OpRequest::metadata(0, OpKind::Create, FileId(1), 0);
        let t_stat = isolated_response(&mut m, &mut pool, &stat, &mut rng, SimTime::ZERO);
        let t_creat = isolated_response(&mut m, &mut pool, &creat, &mut rng, SimTime::from_secs(1));
        assert!(t_creat > t_stat);
    }

    #[test]
    fn jitter_stays_bounded() {
        let mut pool = ResourcePool::new();
        let params = LocalDiskParams {
            disk_jitter: 100,
            ..LocalDiskParams::default()
        };
        let mut m = LocalDiskModel::new(&mut pool, params);
        let mut rng = StdRng::seed_from_u64(4);
        let req = OpRequest::data(0, OpKind::Read, FileId(1), 0, 0, 0);
        for i in 0..200 {
            let t = isolated_response(&mut m, &mut pool, &req, &mut rng, SimTime::from_secs(i + 1));
            let base = 50 + 300;
            assert!(t >= base && t <= base + 200, "t = {t}");
        }
    }

    #[test]
    fn name_is_local() {
        let mut pool = ResourcePool::new();
        let m = LocalDiskModel::new(&mut pool, LocalDiskParams::default());
        assert_eq!(m.name(), "local");
        assert_eq!(m.params().cpu_per_call, 50);
    }
}

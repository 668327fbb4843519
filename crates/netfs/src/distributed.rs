//! A distributed NFS model: several file servers behind one shared network.
//!
//! Section 4.2 of the paper lists as a limitation that "a distributed file
//! system cannot be currently created automatically. Users have to specify
//! the locations of the files for a distributed file system environment."
//! This model implements that extension: files are placed on one of `N`
//! servers (by a deterministic hash of the file id, or by an explicit
//! placement table), each server has its own CPU and disk, and all clients
//! share one network segment. Adding servers relieves the disk/CPU
//! bottleneck while the shared wire remains — exactly the trade-off a
//! scaled-out NFS installation of the era faced.

use crate::nfs::REMOTE_STAGES;
use crate::{FileId, NfsParams, OpKind, OpRequest, ServiceModel, Stage};
use rand::RngCore;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use uswg_sim::{Resource, ResourceId, ResourcePool};

/// Parameters of [`DistributedNfsModel`]: per-server timing plus the server
/// count.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DistributedNfsParams {
    /// Timing of each individual server and of the shared wire.
    pub per_server: NfsParams,
    /// Number of file servers.
    pub servers: usize,
}

impl DistributedNfsParams {
    /// `servers` servers with default per-server timing.
    pub fn with_servers(servers: usize) -> Self {
        Self {
            per_server: NfsParams::default(),
            servers,
        }
    }
}

impl Default for DistributedNfsParams {
    /// Two servers with default NFS timing.
    fn default() -> Self {
        Self::with_servers(2)
    }
}

/// The distributed NFS timing model. See the module documentation for the full model description.
#[derive(Debug)]
pub struct DistributedNfsModel {
    params: DistributedNfsParams,
    client_cpu: ResourceId,
    network: ResourceId,
    server_cpus: Vec<ResourceId>,
    server_disks: Vec<ResourceId>,
    /// Explicit placements override the hash (the paper: "users have to
    /// specify the locations of the files").
    placement: HashMap<FileId, usize>,
}

impl DistributedNfsModel {
    /// Registers client CPU, the shared network and `servers` × (CPU, disk)
    /// in `pool`.
    ///
    /// # Panics
    ///
    /// Panics if `params.servers` is zero.
    pub fn new(pool: &mut ResourcePool, params: DistributedNfsParams) -> Self {
        assert!(params.servers > 0, "need at least one server");
        let client_cpu = pool.add(Resource::new("dnfs.client_cpu", 1));
        let network = pool.add(Resource::new("dnfs.network", 1));
        let mut server_cpus = Vec::with_capacity(params.servers);
        let mut server_disks = Vec::with_capacity(params.servers);
        for s in 0..params.servers {
            server_cpus.push(pool.add(Resource::new(format!("dnfs.server{s}.cpu"), 1)));
            server_disks.push(pool.add(Resource::new(format!("dnfs.server{s}.disk"), 1)));
        }
        Self {
            params,
            client_cpu,
            network,
            server_cpus,
            server_disks,
            placement: HashMap::new(),
        }
    }

    /// The model's parameters.
    pub fn params(&self) -> &DistributedNfsParams {
        &self.params
    }

    /// Pins a file to a server (index into `0..servers`), overriding the
    /// hash placement.
    ///
    /// # Panics
    ///
    /// Panics if `server` is out of range.
    pub fn place_file(&mut self, file: FileId, server: usize) {
        assert!(server < self.params.servers, "server index out of range");
        self.placement.insert(file, server);
    }

    /// The server a file lives on.
    pub fn server_of(&self, file: FileId) -> usize {
        if let Some(&s) = self.placement.get(&file) {
            return s;
        }
        // Fibonacci hash of the inode number: stable, well-spread.
        (file.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % self.params.servers
    }

    fn jitter(&self, rng: &mut dyn RngCore) -> u64 {
        let j = self.params.per_server.disk_jitter;
        if j == 0 {
            0
        } else {
            rng.next_u64() % (2 * j + 1)
        }
    }

    fn wire(&self, payload: u64) -> u64 {
        let p = self.params.per_server;
        ((payload + p.rpc_header_bytes) as f64 * p.net_per_byte).round() as u64
    }

    fn remote(
        &self,
        server: usize,
        disk_micros: u64,
        request_payload: u64,
        reply_payload: u64,
    ) -> Vec<Stage> {
        let p = self.params.per_server;
        let mut stages = Vec::with_capacity(REMOTE_STAGES);
        stages.extend([
            Stage::Service {
                resource: self.client_cpu,
                micros: p.client_cpu_per_call,
            },
            Stage::Delay(p.net_latency),
            Stage::Service {
                resource: self.network,
                micros: self.wire(request_payload),
            },
            Stage::Service {
                resource: self.server_cpus[server],
                micros: p.server_cpu_per_call,
            },
        ]);
        if disk_micros > 0 {
            stages.push(Stage::Service {
                resource: self.server_disks[server],
                micros: disk_micros,
            });
        }
        stages.push(Stage::Delay(p.net_latency));
        stages.push(Stage::Service {
            resource: self.network,
            micros: self.wire(reply_payload),
        });
        stages
    }
}

impl ServiceModel for DistributedNfsModel {
    fn name(&self) -> &str {
        "distributed-nfs"
    }

    fn stages(&mut self, req: &OpRequest, rng: &mut dyn RngCore) -> Vec<Stage> {
        let p = self.params.per_server;
        let server = self.server_of(req.file);
        match req.kind {
            OpKind::Read => {
                let disk = p.server_disk_per_op
                    + (req.bytes as f64 * p.server_disk_per_byte).round() as u64
                    + self.jitter(rng);
                self.remote(server, disk, 0, req.bytes)
            }
            OpKind::Write => {
                let disk = p.server_disk_per_op
                    + (req.bytes as f64 * p.server_disk_per_byte).round() as u64
                    + self.jitter(rng);
                self.remote(server, disk, req.bytes, 0)
            }
            OpKind::Open | OpKind::Stat => {
                let disk = p.server_disk_per_metadata_op + self.jitter(rng);
                self.remote(server, disk, 0, 0)
            }
            OpKind::Create | OpKind::Unlink => {
                let disk =
                    p.sync_metadata_factor * p.server_disk_per_metadata_op + self.jitter(rng);
                self.remote(server, disk, 0, 0)
            }
            OpKind::Close | OpKind::Seek => vec![Stage::Service {
                resource: self.client_cpu,
                micros: p.client_cpu_per_call,
            }],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isolated_response;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use uswg_sim::SimTime;

    fn no_jitter(servers: usize) -> DistributedNfsParams {
        DistributedNfsParams {
            per_server: NfsParams {
                disk_jitter: 0,
                ..NfsParams::default()
            },
            servers,
        }
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_rejected() {
        let mut pool = ResourcePool::new();
        let _ = DistributedNfsModel::new(&mut pool, DistributedNfsParams::with_servers(0));
    }

    #[test]
    fn single_server_matches_plain_nfs_read_cost() {
        let mut pool_d = ResourcePool::new();
        let mut d = DistributedNfsModel::new(&mut pool_d, no_jitter(1));
        let mut pool_n = ResourcePool::new();
        let mut n = crate::NfsModel::new(
            &mut pool_n,
            NfsParams {
                disk_jitter: 0,
                ..NfsParams::default()
            },
        );
        let req = OpRequest::data(0, OpKind::Read, FileId(5), 0, 1024, 8192);
        let mut rng = StdRng::seed_from_u64(1);
        let td = isolated_response(&mut d, &mut pool_d, &req, &mut rng, SimTime::ZERO);
        let tn = isolated_response(&mut n, &mut pool_n, &req, &mut rng, SimTime::ZERO);
        assert_eq!(td, tn);
    }

    #[test]
    fn hash_placement_spreads_files() {
        let mut pool = ResourcePool::new();
        let m = DistributedNfsModel::new(&mut pool, no_jitter(4));
        let mut counts = [0usize; 4];
        for ino in 0..4_000u64 {
            counts[m.server_of(FileId(ino))] += 1;
        }
        for &c in &counts {
            assert!(
                (800..=1_200).contains(&c),
                "unbalanced placement: {counts:?}"
            );
        }
    }

    #[test]
    fn explicit_placement_overrides_hash() {
        let mut pool = ResourcePool::new();
        let mut m = DistributedNfsModel::new(&mut pool, no_jitter(3));
        let file = FileId(42);
        let hashed = m.server_of(file);
        let pinned = (hashed + 1) % 3;
        m.place_file(file, pinned);
        assert_eq!(m.server_of(file), pinned);
    }

    #[test]
    fn two_servers_halve_disk_contention() {
        // Two simultaneous small reads of files on different servers
        // overlap at the disks; on one server they serialize. (Reads are
        // kept small so the disk, not the shared wire, is the bottleneck.)
        let run = |servers: usize| {
            let mut pool = ResourcePool::new();
            let mut m = DistributedNfsModel::new(&mut pool, no_jitter(servers));
            // Pick two files on different servers when possible.
            let f1 = FileId(0);
            let mut f2 = FileId(1);
            if servers > 1 {
                for ino in 1..100 {
                    if m.server_of(FileId(ino)) != m.server_of(f1) {
                        f2 = FileId(ino);
                        break;
                    }
                }
            } else {
                // Same server by construction.
                f2 = FileId(0);
            }
            let mut rng = StdRng::seed_from_u64(2);
            let r1 = OpRequest::data(0, OpKind::Read, f1, 0, 512, 65_536);
            let r2 = OpRequest::data(1, OpKind::Read, f2, 0, 512, 65_536);
            let mut a = crate::PendingOp::new(m.stages(&r1, &mut rng));
            let mut b = crate::PendingOp::new(m.stages(&r2, &mut rng));
            let (mut ta, mut tb) = (SimTime::ZERO, SimTime::ZERO);
            loop {
                let a_next = a.remaining() > 0 && (ta <= tb || b.remaining() == 0);
                if a_next {
                    match a.advance(&mut pool, ta) {
                        crate::StepOutcome::NextAt(t) => ta = t,
                        crate::StepOutcome::Done => {}
                    }
                } else if b.remaining() > 0 {
                    match b.advance(&mut pool, tb) {
                        crate::StepOutcome::NextAt(t) => tb = t,
                        crate::StepOutcome::Done => {}
                    }
                } else {
                    break;
                }
                if a.remaining() == 0 && b.remaining() == 0 {
                    break;
                }
            }
            ta.max(tb).micros()
        };
        let one = run(1);
        let two = run(2);
        assert!(
            two < one,
            "two servers must finish the pair sooner: {two} vs {one}"
        );
    }

    #[test]
    fn resources_are_per_server() {
        let mut pool = ResourcePool::new();
        let _ = DistributedNfsModel::new(&mut pool, no_jitter(3));
        // client cpu + network + 3 × (cpu + disk).
        assert_eq!(pool.len(), 2 + 6);
        let names: Vec<String> = pool.iter().map(|(_, r)| r.name().to_string()).collect();
        assert!(names.contains(&"dnfs.server2.disk".to_string()));
    }
}

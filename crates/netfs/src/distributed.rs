//! Distributed NFS: several file servers behind one shared network.
//!
//! Section 4.2 of the paper lists as a limitation that "a distributed file
//! system cannot be currently created automatically. Users have to specify
//! the locations of the files for a distributed file system environment."
//! [`NfsModel::distributed`](crate::NfsModel::distributed) implements that
//! extension: each file lives on one of `N` servers, chosen by a
//! deterministic hash of its inode number; each server has its own CPU and
//! disk, and all clients share one network segment. Adding servers relieves
//! the disk/CPU bottleneck while the shared wire remains — exactly the
//! trade-off a scaled-out NFS installation of the era faced.

use crate::NfsParams;
use serde::{Deserialize, Serialize};

/// Parameters of [`NfsModel::distributed`](crate::NfsModel::distributed):
/// per-server timing plus the server count.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{finish_together, isolated_response};
    use crate::{FileId, NfsModel, OpKind, OpRequest, ServiceModel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use uswg_sim::{ResourcePool, SimTime};

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
        let _ = NfsModel::distributed(&mut pool, DistributedNfsParams::with_servers(0));
    }

    #[test]
    fn single_server_matches_plain_nfs_read_cost() {
        let mut pool_d = ResourcePool::new();
        let mut d = NfsModel::distributed(&mut pool_d, no_jitter(1));
        let mut pool_n = ResourcePool::new();
        let mut n = NfsModel::new(&mut pool_n, no_jitter(1).per_server);
        let req = OpRequest::data(0, OpKind::Read, FileId(5), 0, 1024, 8192);
        let mut rng = StdRng::seed_from_u64(1);
        let td = isolated_response(&mut d, &mut pool_d, &req, &mut rng, SimTime::ZERO);
        let tn = isolated_response(&mut n, &mut pool_n, &req, &mut rng, SimTime::ZERO);
        assert_eq!(td, tn);
    }

    #[test]
    fn hash_placement_spreads_files() {
        let mut pool = ResourcePool::new();
        let m = NfsModel::distributed(&mut pool, no_jitter(4));
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
    fn two_servers_halve_disk_contention() {
        // Two simultaneous small reads of files on different servers
        // overlap at the disks; on one server they serialize. (Reads are
        // kept small so the disk, not the shared wire, is the bottleneck.)
        let run = |servers: usize| {
            let mut pool = ResourcePool::new();
            let mut m = NfsModel::distributed(&mut pool, no_jitter(servers));
            // The second file is the first one on another server, if any.
            let f1 = FileId(0);
            let f2 = (1..100)
                .map(FileId)
                .find(|&f| m.server_of(f) != m.server_of(f1))
                .unwrap_or(f1);
            let mut rng = StdRng::seed_from_u64(2);
            let r1 = OpRequest::data(0, OpKind::Read, f1, 0, 512, 65_536);
            let r2 = OpRequest::data(1, OpKind::Read, f2, 0, 512, 65_536);
            let pair = [&r1, &r2].map(|req| m.stages(req, &mut rng));
            finish_together(&mut pool, pair)
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
        let m = NfsModel::distributed(&mut pool, no_jitter(3));
        // client cpu + network + 3 × (cpu + disk).
        assert_eq!(pool.len(), 2 + 6);
        let names: Vec<String> = pool.iter().map(|(_, r)| r.name().to_string()).collect();
        assert!(names.contains(&"dnfs.server2.disk".to_string()));
        assert_eq!(m.name(), "distributed-nfs");
    }

    #[test]
    fn two_servers_serve_a_repeated_read_from_the_client_cache() {
        // The client cache sits in front of every server: `cache_blocks`
        // counts for a distributed installation as for a single server.
        let mut pool = ResourcePool::new();
        let per_server = NfsParams {
            disk_jitter: 0,
            ..NfsParams::with_cache(1024)
        };
        let params = DistributedNfsParams {
            per_server,
            servers: 2,
        };
        let mut m = NfsModel::distributed(&mut pool, params);
        let req = OpRequest::data(0, OpKind::Read, FileId(9), 0, 4096, 65_536);
        let mut rng = StdRng::seed_from_u64(3);
        let cold = isolated_response(&mut m, &mut pool, &req, &mut rng, SimTime::ZERO);
        let warm = isolated_response(&mut m, &mut pool, &req, &mut rng, SimTime::from_secs(1));
        assert_eq!(warm, per_server.client_cpu_per_call, "cold was {cold}");
    }
}

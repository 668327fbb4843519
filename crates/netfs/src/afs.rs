//! An AFS-like whole-file caching model.
//!
//! Section 5.3 of the paper motivates comparing file systems (it cites the
//! Andrew file system benchmark study \[HKM+88\]). This model implements the
//! Andrew design point: `open` fetches the whole file into a local cache,
//! reads and writes are then local, and `close` writes dirty files back to
//! the server. It trades expensive opens for cheap per-byte access — the
//! crossover against [`crate::NfsModel`] depends on how many bytes of a file
//! a user actually touches, which is exactly what the workload generator's
//! usage distributions control.

use crate::lru::LruSet;
use crate::{FileId, OpKind, OpRequest, ServiceModel, Stage};
use rand::RngCore;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use uswg_sim::{Resource, ResourceId, ResourcePool};

/// Timing parameters of [`WholeFileCacheModel`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WholeFileCacheParams {
    /// Client CPU cost per system call, µs.
    pub client_cpu_per_call: u64,
    /// One-way wire propagation latency, µs.
    pub net_latency: u64,
    /// Network transmission cost per byte, µs.
    pub net_per_byte: f64,
    /// Protocol header bytes per transfer.
    pub rpc_header_bytes: u64,
    /// Server CPU cost per request, µs.
    pub server_cpu_per_call: u64,
    /// Server disk cost per whole-file transfer, µs.
    pub server_disk_per_op: u64,
    /// Server disk transfer cost per byte, µs.
    pub server_disk_per_byte: f64,
    /// Local cache-disk cost per data operation, µs.
    pub local_per_op: u64,
    /// Local cache read/write cost per byte, µs (memory/local disk mix).
    pub local_per_byte: f64,
    /// Number of whole files the client cache holds.
    pub cache_files: usize,
}

impl Default for WholeFileCacheParams {
    /// Same wire and server speeds as [`crate::NfsParams`] defaults, with a
    /// 64-file client cache.
    fn default() -> Self {
        Self {
            client_cpu_per_call: 60,
            net_latency: 60,
            net_per_byte: 0.4,
            rpc_header_bytes: 160,
            server_cpu_per_call: 120,
            server_disk_per_op: 1_000,
            server_disk_per_byte: 0.1,
            local_per_op: 250,
            local_per_byte: 0.03,
            cache_files: 64,
        }
    }
}

/// The AFS-like whole-file caching model. See the module documentation for the full model description.
#[derive(Debug)]
pub struct WholeFileCacheModel {
    params: WholeFileCacheParams,
    client_cpu: ResourceId,
    network: ResourceId,
    server_cpu: ResourceId,
    server_disk: ResourceId,
    local_disk: ResourceId,
    cache: LruSet<FileId>,
    dirty: HashSet<FileId>,
}

impl WholeFileCacheModel {
    /// Registers client CPU, network, server CPU, server disk and the local
    /// cache disk in `pool`.
    pub fn new(pool: &mut ResourcePool, params: WholeFileCacheParams) -> Self {
        let client_cpu = pool.add(Resource::new("afs.client_cpu", 1));
        let network = pool.add(Resource::new("afs.network", 1));
        let server_cpu = pool.add(Resource::new("afs.server_cpu", 1));
        let server_disk = pool.add(Resource::new("afs.server_disk", 1));
        let local_disk = pool.add(Resource::new("afs.local_disk", 1));
        Self {
            params,
            client_cpu,
            network,
            server_cpu,
            server_disk,
            local_disk,
            cache: LruSet::new(params.cache_files.max(1)),
            dirty: HashSet::new(),
        }
    }

    /// Stage chain for moving `bytes` between client and server.
    fn whole_file_transfer(&self, bytes: u64) -> Vec<Stage> {
        let p = self.params;
        let wire = ((bytes + p.rpc_header_bytes) as f64 * p.net_per_byte).round() as u64;
        let disk = p.server_disk_per_op + (bytes as f64 * p.server_disk_per_byte).round() as u64;
        vec![
            Stage::Service {
                resource: self.client_cpu,
                micros: p.client_cpu_per_call,
            },
            Stage::Delay(p.net_latency),
            Stage::Service {
                resource: self.network,
                micros: wire,
            },
            Stage::Service {
                resource: self.server_cpu,
                micros: p.server_cpu_per_call,
            },
            Stage::Service {
                resource: self.server_disk,
                micros: disk,
            },
            Stage::Delay(p.net_latency),
            Stage::Service {
                resource: self.network,
                micros: (p.rpc_header_bytes as f64 * p.net_per_byte).round() as u64,
            },
        ]
    }

    fn local_data(&self, bytes: u64) -> Vec<Stage> {
        let p = self.params;
        vec![
            Stage::Service {
                resource: self.client_cpu,
                micros: p.client_cpu_per_call,
            },
            Stage::Service {
                resource: self.local_disk,
                micros: p.local_per_op + (bytes as f64 * p.local_per_byte).round() as u64,
            },
        ]
    }
}

impl ServiceModel for WholeFileCacheModel {
    fn name(&self) -> &str {
        "whole-file-cache"
    }

    fn stages(&mut self, req: &OpRequest, _rng: &mut dyn RngCore) -> Vec<Stage> {
        let p = self.params;
        match req.kind {
            OpKind::Open => {
                if self.cache.touch(&req.file) {
                    // Cache hit: validation callback only (client CPU).
                    vec![Stage::Service {
                        resource: self.client_cpu,
                        micros: p.client_cpu_per_call,
                    }]
                } else {
                    if let Some(evicted) = self.cache.insert(req.file) {
                        self.dirty.remove(&evicted);
                    }
                    self.whole_file_transfer(req.file_size)
                }
            }
            OpKind::Create => {
                // Creation registers the file at the server (metadata RPC)
                // and starts it cached and dirty locally.
                if let Some(evicted) = self.cache.insert(req.file) {
                    self.dirty.remove(&evicted);
                }
                self.dirty.insert(req.file);
                self.whole_file_transfer(0)
            }
            OpKind::Read => self.local_data(req.bytes),
            OpKind::Write => {
                // Locally-produced data enters the cache; an eviction drops
                // the victim's dirtiness with it.
                if let Some(evicted) = self.cache.insert(req.file) {
                    self.dirty.remove(&evicted);
                }
                self.dirty.insert(req.file);
                self.local_data(req.bytes)
            }
            OpKind::Close => {
                if self.dirty.remove(&req.file) {
                    self.whole_file_transfer(req.file_size)
                } else {
                    vec![Stage::Service {
                        resource: self.client_cpu,
                        micros: p.client_cpu_per_call,
                    }]
                }
            }
            OpKind::Unlink => {
                self.invalidate(req.file);
                self.whole_file_transfer(0)
            }
            OpKind::Stat => {
                if self.cache.touch(&req.file) {
                    vec![Stage::Service {
                        resource: self.client_cpu,
                        micros: p.client_cpu_per_call,
                    }]
                } else {
                    self.whole_file_transfer(0)
                }
            }
            OpKind::Seek => vec![Stage::Service {
                resource: self.client_cpu,
                micros: p.client_cpu_per_call,
            }],
        }
    }

    fn invalidate(&mut self, file: FileId) {
        self.cache.remove(&file);
        self.dirty.remove(&file);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isolated_response;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use uswg_sim::SimTime;

    fn response(
        model: &mut WholeFileCacheModel,
        pool: &mut ResourcePool,
        req: &OpRequest,
        at: u64,
    ) -> u64 {
        let mut rng = StdRng::seed_from_u64(at);
        isolated_response(model, pool, req, &mut rng, SimTime::from_secs(at))
    }

    #[test]
    fn open_fetches_whole_file_once() {
        let mut pool = ResourcePool::new();
        let mut m = WholeFileCacheModel::new(&mut pool, WholeFileCacheParams::default());
        let open = OpRequest::metadata(0, OpKind::Open, FileId(1), 100_000);
        let cold = response(&mut m, &mut pool, &open, 1);
        let warm = response(&mut m, &mut pool, &open, 2);
        assert!(cold > 10 * warm, "cold {cold} vs warm {warm}");
    }

    #[test]
    fn open_cost_scales_with_file_size() {
        let mut pool = ResourcePool::new();
        let mut m = WholeFileCacheModel::new(&mut pool, WholeFileCacheParams::default());
        let small = OpRequest::metadata(0, OpKind::Open, FileId(1), 1_000);
        let large = OpRequest::metadata(0, OpKind::Open, FileId(2), 1_000_000);
        let t_small = response(&mut m, &mut pool, &small, 1);
        let t_large = response(&mut m, &mut pool, &large, 2);
        assert!(t_large > 10 * t_small);
    }

    #[test]
    fn reads_after_open_are_local() {
        let mut pool = ResourcePool::new();
        let mut m = WholeFileCacheModel::new(&mut pool, WholeFileCacheParams::default());
        let open = OpRequest::metadata(0, OpKind::Open, FileId(1), 50_000);
        response(&mut m, &mut pool, &open, 1);
        let read = OpRequest::data(0, OpKind::Read, FileId(1), 0, 8_192, 50_000);
        let t = response(&mut m, &mut pool, &read, 2);
        // client cpu 60 + cache disk 250 + 8192 × 0.03 ≈ 556: an order of
        // magnitude under the remote path (~5 ms for 8 KiB).
        assert!(t < 700, "local read should be cheap, got {t}");
        let remote = OpRequest::data(0, OpKind::Read, FileId(9), 0, 8_192, 8_192);
        let t_open = response(
            &mut m,
            &mut pool,
            &OpRequest::metadata(0, OpKind::Open, FileId(9), 8_192),
            3,
        );
        assert!(t_open > 5 * t, "uncached open {t_open} vs local read {t}");
        let _ = remote;
    }

    #[test]
    fn dirty_close_writes_back() {
        let mut pool = ResourcePool::new();
        let mut m = WholeFileCacheModel::new(&mut pool, WholeFileCacheParams::default());
        let open = OpRequest::metadata(0, OpKind::Open, FileId(1), 50_000);
        response(&mut m, &mut pool, &open, 1);
        let write = OpRequest::data(0, OpKind::Write, FileId(1), 0, 1_000, 50_000);
        response(&mut m, &mut pool, &write, 2);
        let close = OpRequest::metadata(0, OpKind::Close, FileId(1), 50_000);
        let t_dirty = response(&mut m, &mut pool, &close, 3);
        // Second close without writes is cheap.
        let t_clean = response(&mut m, &mut pool, &close, 4);
        assert!(t_dirty > 10 * t_clean, "{t_dirty} vs {t_clean}");
    }

    #[test]
    fn eviction_forgets_dirtiness() {
        let mut pool = ResourcePool::new();
        let params = WholeFileCacheParams {
            cache_files: 1,
            ..WholeFileCacheParams::default()
        };
        let mut m = WholeFileCacheModel::new(&mut pool, params);
        let w = OpRequest::data(0, OpKind::Write, FileId(1), 0, 10, 100);
        response(&mut m, &mut pool, &w, 1);
        // Opening another file evicts file 1.
        let open2 = OpRequest::metadata(0, OpKind::Open, FileId(2), 100);
        response(&mut m, &mut pool, &open2, 2);
        let close1 = OpRequest::metadata(0, OpKind::Close, FileId(1), 100);
        let t = response(&mut m, &mut pool, &close1, 3);
        let clean = params.client_cpu_per_call;
        assert_eq!(t, clean, "evicted file must not write back");
    }

    #[test]
    fn unlink_drops_cache_entry() {
        let mut pool = ResourcePool::new();
        let mut m = WholeFileCacheModel::new(&mut pool, WholeFileCacheParams::default());
        let open = OpRequest::metadata(0, OpKind::Open, FileId(5), 10_000);
        response(&mut m, &mut pool, &open, 1);
        let unlink = OpRequest::metadata(0, OpKind::Unlink, FileId(5), 10_000);
        response(&mut m, &mut pool, &unlink, 2);
        let reopen = response(&mut m, &mut pool, &open, 3);
        assert!(reopen > 1_000, "reopen after unlink must fetch again");
        assert_eq!(m.name(), "whole-file-cache");
    }
}

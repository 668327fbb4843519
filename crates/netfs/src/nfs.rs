//! The NFS-like remote file system model.
//!
//! One operation issued by a client crosses: client CPU → shared half-duplex
//! network (request) → server CPU → server disk (for calls that touch data
//! or metadata) → network (reply). Every hop except wire propagation is a
//! FIFO resource shared by all simulated users, which is what produces the
//! paper's response-time growth as concurrent users are added (Figures
//! 5.6–5.11) and the per-byte economies of larger access sizes (Figure 5.12).
//!
//! An optional client block cache (off by default, as NFS v2 semantics are
//! write-through and the paper's workload is read-mostly across many files)
//! serves repeat reads of cached blocks at client CPU cost only; the
//! `model_ablation` bench measures its effect.

use crate::lru::LruSet;
use crate::{FileId, OpKind, OpRequest, ServiceModel, Stage};
use rand::RngCore;
use serde::{Deserialize, Serialize};
use uswg_sim::{Resource, ResourceId, ResourcePool};

/// Timing parameters of [`NfsModel`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NfsParams {
    /// Client CPU cost per system call, µs.
    pub client_cpu_per_call: u64,
    /// One-way wire propagation + protocol latency (uncontended), µs.
    pub net_latency: u64,
    /// Network transmission cost per byte on the shared medium, µs.
    pub net_per_byte: f64,
    /// RPC header bytes added to every request and reply.
    pub rpc_header_bytes: u64,
    /// Server CPU cost per RPC, µs.
    pub server_cpu_per_call: u64,
    /// Server disk cost per data operation, µs.
    pub server_disk_per_op: u64,
    /// Server disk transfer cost per byte, µs.
    pub server_disk_per_byte: f64,
    /// Server disk cost per metadata operation (lookup/getattr), µs.
    pub server_disk_per_metadata_op: u64,
    /// Multiplier on metadata cost for synchronous create/unlink.
    pub sync_metadata_factor: u64,
    /// Half-width of the uniform jitter on each disk service, µs.
    pub disk_jitter: u64,
    /// Client block cache capacity in blocks; 0 disables the cache.
    pub cache_blocks: usize,
    /// Block size used by the client cache, bytes.
    pub cache_block_bytes: u64,
}

impl Default for NfsParams {
    /// Tuned to a diskless-workstation-era installation: ~10 Mbit shared
    /// Ethernet (0.4 µs/byte effective), ~1 ms server disk data op. A
    /// single-user 1 KiB read lands near 1.9 ms, the same order as the
    /// paper's Table 5.3 measurements; no client cache.
    fn default() -> Self {
        Self {
            client_cpu_per_call: 60,
            net_latency: 60,
            net_per_byte: 0.4,
            rpc_header_bytes: 160,
            server_cpu_per_call: 120,
            server_disk_per_op: 1_000,
            server_disk_per_byte: 0.1,
            server_disk_per_metadata_op: 250,
            sync_metadata_factor: 2,
            disk_jitter: 150,
            cache_blocks: 0,
            cache_block_bytes: 8_192,
        }
    }
}

impl NfsParams {
    /// The defaults with a client block cache of `blocks` blocks.
    pub fn with_cache(blocks: usize) -> Self {
        Self {
            cache_blocks: blocks,
            ..Self::default()
        }
    }
}

/// Counters describing cache effectiveness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Read calls fully served from the client cache.
    pub read_hits: u64,
    /// Read calls that went to the server.
    pub read_misses: u64,
}

/// The NFS-like client/server timing model. See the module documentation for the full model description.
#[derive(Debug)]
pub struct NfsModel {
    params: NfsParams,
    client_cpu: ResourceId,
    network: ResourceId,
    server_cpu: ResourceId,
    server_disk: ResourceId,
    cache: Option<LruSet<(FileId, u64)>>,
    cache_stats: CacheStats,
}

/// Stages of the longest remote round trip (the one that touches the disk):
/// the chain is allocated once at this size.
pub(crate) const REMOTE_STAGES: usize = 7;

impl NfsModel {
    /// Registers client CPU, shared network, server CPU and server disk in
    /// `pool`.
    pub fn new(pool: &mut ResourcePool, params: NfsParams) -> Self {
        let client_cpu = pool.add(Resource::new("nfs.client_cpu", 1));
        let network = pool.add(Resource::new("nfs.network", 1));
        let server_cpu = pool.add(Resource::new("nfs.server_cpu", 1));
        let server_disk = pool.add(Resource::new("nfs.server_disk", 1));
        let cache = (params.cache_blocks > 0).then(|| LruSet::new(params.cache_blocks));
        Self {
            params,
            client_cpu,
            network,
            server_cpu,
            server_disk,
            cache,
            cache_stats: CacheStats::default(),
        }
    }

    /// The model's parameters.
    pub fn params(&self) -> &NfsParams {
        &self.params
    }

    /// Cache hit/miss counters (all zero when the cache is disabled).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache_stats
    }

    fn jitter(&self, rng: &mut dyn RngCore) -> u64 {
        if self.params.disk_jitter == 0 {
            0
        } else {
            rng.next_u64() % (2 * self.params.disk_jitter + 1)
        }
    }

    fn wire(&self, payload: u64) -> u64 {
        ((payload + self.params.rpc_header_bytes) as f64 * self.params.net_per_byte).round() as u64
    }

    /// The block indices `[first, last]` covered by an access.
    fn blocks_of(&self, offset: u64, bytes: u64) -> (u64, u64) {
        let bs = self.params.cache_block_bytes.max(1);
        let first = offset / bs;
        let last = if bytes == 0 {
            first
        } else {
            (offset + bytes - 1) / bs
        };
        (first, last)
    }

    /// True when every block of the access is cached (refreshing recency).
    fn cache_covers(&mut self, file: FileId, offset: u64, bytes: u64) -> bool {
        let (first, last) = self.blocks_of(offset, bytes);
        let Some(cache) = self.cache.as_mut() else {
            return false;
        };
        (first..=last).all(|b| cache.touch(&(file, b)))
    }

    fn cache_fill(&mut self, file: FileId, offset: u64, bytes: u64) {
        let (first, last) = self.blocks_of(offset, bytes);
        if let Some(cache) = self.cache.as_mut() {
            for b in first..=last {
                cache.insert((file, b));
            }
        }
    }

    /// Full remote round trip: request over the net, server work, reply.
    fn remote(&mut self, disk_micros: u64, request_payload: u64, reply_payload: u64) -> Vec<Stage> {
        let p = self.params;
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
                resource: self.server_cpu,
                micros: p.server_cpu_per_call,
            },
        ]);
        if disk_micros > 0 {
            stages.push(Stage::Service {
                resource: self.server_disk,
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

impl ServiceModel for NfsModel {
    fn name(&self) -> &str {
        "nfs"
    }

    fn stages(&mut self, req: &OpRequest, rng: &mut dyn RngCore) -> Vec<Stage> {
        let p = self.params;
        match req.kind {
            OpKind::Read => {
                if self.cache_covers(req.file, req.offset, req.bytes) {
                    self.cache_stats.read_hits += 1;
                    return vec![Stage::Service {
                        resource: self.client_cpu,
                        micros: p.client_cpu_per_call,
                    }];
                }
                if self.cache.is_some() {
                    self.cache_stats.read_misses += 1;
                }
                let disk = p.server_disk_per_op
                    + (req.bytes as f64 * p.server_disk_per_byte).round() as u64
                    + self.jitter(rng);
                let stages = self.remote(disk, 0, req.bytes);
                self.cache_fill(req.file, req.offset, req.bytes);
                stages
            }
            OpKind::Write => {
                // NFS v2 writes are write-through: always synchronous at the
                // server; written blocks become cached for later reads.
                let disk = p.server_disk_per_op
                    + (req.bytes as f64 * p.server_disk_per_byte).round() as u64
                    + self.jitter(rng);
                let stages = self.remote(disk, req.bytes, 0);
                self.cache_fill(req.file, req.offset, req.bytes);
                stages
            }
            OpKind::Open | OpKind::Stat => {
                let disk = p.server_disk_per_metadata_op + self.jitter(rng);
                self.remote(disk, 0, 0)
            }
            OpKind::Create | OpKind::Unlink => {
                let disk =
                    p.sync_metadata_factor * p.server_disk_per_metadata_op + self.jitter(rng);
                if req.kind == OpKind::Unlink {
                    self.invalidate(req.file);
                }
                self.remote(disk, 0, 0)
            }
            OpKind::Close | OpKind::Seek => {
                // Local: NFS v2 has no close RPC; lseek moves a local cursor.
                vec![Stage::Service {
                    resource: self.client_cpu,
                    micros: p.client_cpu_per_call,
                }]
            }
        }
    }

    fn invalidate(&mut self, file: FileId) {
        if let Some(cache) = self.cache.as_mut() {
            cache.retain(|&(f, _)| f != file);
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

    fn no_jitter() -> NfsParams {
        NfsParams {
            disk_jitter: 0,
            ..NfsParams::default()
        }
    }

    fn response(model: &mut NfsModel, pool: &mut ResourcePool, req: &OpRequest, at: u64) -> u64 {
        let mut rng = StdRng::seed_from_u64(at);
        isolated_response(model, pool, req, &mut rng, SimTime::from_secs(at))
    }

    #[test]
    fn read_crosses_all_resources() {
        let mut pool = ResourcePool::new();
        let mut m = NfsModel::new(&mut pool, no_jitter());
        let req = OpRequest::data(0, OpKind::Read, FileId(1), 0, 1024, 8_192);
        let t = response(&mut m, &mut pool, &req, 1);
        let p = no_jitter();
        let expect = p.client_cpu_per_call
            + p.net_latency
            + (p.rpc_header_bytes as f64 * p.net_per_byte).round() as u64
            + p.server_cpu_per_call
            + p.server_disk_per_op
            + (1024.0 * p.server_disk_per_byte).round() as u64
            + p.net_latency
            + ((1024 + p.rpc_header_bytes) as f64 * p.net_per_byte).round() as u64;
        assert_eq!(t, expect);
    }

    #[test]
    fn remote_chain_is_allocated_at_its_final_size() {
        // Growing the chain stage by stage cost a malloc, a realloc and a
        // free per operation.
        let mut pool = ResourcePool::new();
        let mut m = NfsModel::new(&mut pool, NfsParams::default());
        let mut rng = StdRng::seed_from_u64(1);
        for kind in [OpKind::Read, OpKind::Write, OpKind::Open, OpKind::Create] {
            let req = OpRequest::data(0, kind, FileId(1), 0, 1024, 8_192);
            let stages = m.stages(&req, &mut rng);
            assert_eq!(stages.len(), REMOTE_STAGES, "{kind:?}");
            assert_eq!(stages.capacity(), REMOTE_STAGES, "{kind:?}");
        }
    }

    #[test]
    fn per_byte_cost_falls_with_access_size() {
        // The Figure 5.12 effect: fixed per-call costs amortize.
        let mut pool = ResourcePool::new();
        let mut m = NfsModel::new(&mut pool, no_jitter());
        let mut prev = f64::INFINITY;
        for (i, &size) in [128u64, 256, 512, 1024, 2048].iter().enumerate() {
            let req = OpRequest::data(0, OpKind::Read, FileId(1), 0, size, 1 << 20);
            let t = response(&mut m, &mut pool, &req, i as u64 + 1) as f64 / size as f64;
            assert!(t < prev, "per-byte cost must fall: {t} vs {prev}");
            prev = t;
        }
    }

    #[test]
    fn close_and_seek_are_client_local() {
        let mut pool = ResourcePool::new();
        let mut m = NfsModel::new(&mut pool, no_jitter());
        for (i, kind) in [OpKind::Close, OpKind::Seek].into_iter().enumerate() {
            let req = OpRequest::metadata(0, kind, FileId(1), 0);
            let t = response(&mut m, &mut pool, &req, 7 + i as u64);
            assert_eq!(t, no_jitter().client_cpu_per_call);
        }
    }

    #[test]
    fn cache_hits_skip_the_server() {
        let mut pool = ResourcePool::new();
        let mut m = NfsModel::new(
            &mut pool,
            NfsParams {
                disk_jitter: 0,
                ..NfsParams::with_cache(1024)
            },
        );
        let req = OpRequest::data(0, OpKind::Read, FileId(9), 0, 4096, 65_536);
        let cold = response(&mut m, &mut pool, &req, 1);
        let warm = response(&mut m, &mut pool, &req, 2);
        assert!(warm < cold / 5, "warm {warm} vs cold {cold}");
        assert_eq!(m.cache_stats().read_hits, 1);
        assert_eq!(m.cache_stats().read_misses, 1);
    }

    #[test]
    fn unlink_invalidates_cache() {
        let mut pool = ResourcePool::new();
        let mut m = NfsModel::new(
            &mut pool,
            NfsParams {
                disk_jitter: 0,
                ..NfsParams::with_cache(1024)
            },
        );
        let read = OpRequest::data(0, OpKind::Read, FileId(3), 0, 1024, 4096);
        response(&mut m, &mut pool, &read, 1);
        let unlink = OpRequest::metadata(0, OpKind::Unlink, FileId(3), 4096);
        response(&mut m, &mut pool, &unlink, 2);
        let again = response(&mut m, &mut pool, &read, 3);
        let cold = response(&mut m, &mut pool, &read, 4); // now cached again
        assert!(
            again > cold,
            "after unlink the read must miss: {again} vs {cold}"
        );
        assert_eq!(m.cache_stats().read_misses, 2);
    }

    #[test]
    fn writes_are_write_through_even_with_cache() {
        let mut pool = ResourcePool::new();
        let mut m = NfsModel::new(
            &mut pool,
            NfsParams {
                disk_jitter: 0,
                ..NfsParams::with_cache(1024)
            },
        );
        let w = OpRequest::data(0, OpKind::Write, FileId(4), 0, 1024, 1024);
        let t1 = response(&mut m, &mut pool, &w, 1);
        let t2 = response(&mut m, &mut pool, &w, 2);
        assert_eq!(t1, t2, "writes never hit the cache");
        // But the written block satisfies a later read.
        let r = OpRequest::data(0, OpKind::Read, FileId(4), 0, 1024, 1024);
        let tr = response(&mut m, &mut pool, &r, 3);
        assert_eq!(tr, m.params().client_cpu_per_call);
    }

    #[test]
    fn contention_grows_response_time() {
        // Two users issuing simultaneously: the second queues.
        let mut pool = ResourcePool::new();
        let mut m = NfsModel::new(&mut pool, no_jitter());
        let mut rng = StdRng::seed_from_u64(5);
        let req0 = OpRequest::data(0, OpKind::Read, FileId(1), 0, 1024, 8192);
        let req1 = OpRequest::data(1, OpKind::Read, FileId(2), 0, 1024, 8192);
        // Interleave both ops stage by stage via PendingOp directly.
        let mut a = crate::PendingOp::new(m.stages(&req0, &mut rng));
        let mut b = crate::PendingOp::new(m.stages(&req1, &mut rng));
        let mut ta = SimTime::ZERO;
        let mut tb = SimTime::ZERO;
        loop {
            // Advance whichever op is earlier, mimicking the event loop.
            let next_is_a = ta <= tb && a.remaining() > 0;
            if next_is_a {
                match a.advance(&mut pool, ta) {
                    crate::StepOutcome::NextAt(t) => ta = t,
                    crate::StepOutcome::Done => {
                        if b.remaining() == 0 {
                            break;
                        }
                    }
                }
            } else if b.remaining() > 0 {
                match b.advance(&mut pool, tb) {
                    crate::StepOutcome::NextAt(t) => tb = t,
                    crate::StepOutcome::Done => {
                        if a.remaining() == 0 {
                            break;
                        }
                    }
                }
            } else {
                break;
            }
        }
        let solo = {
            let mut pool2 = ResourcePool::new();
            let mut m2 = NfsModel::new(&mut pool2, no_jitter());
            response(&mut m2, &mut pool2, &req0, 9)
        };
        let slower = ta.max(tb).micros();
        assert!(
            slower > solo,
            "the queued op must finish later than a solo op: {slower} vs {solo}"
        );
    }
}

//! The repository benchmark: four workloads over the stabilizing BFT
//! register stack, end-to-end metrics from untraced runs, and per-layer
//! metrics from traced runs that time the public surface of each crate
//! from the outside. See `README.md` beside this crate for the workload
//! rationale and the layer→metric predictions.

#![warn(missing_docs)]

pub mod alloc;
pub mod explore;
pub mod kv;
pub mod report;
pub mod stats;
pub mod trace;
pub mod wrap;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Durable single-group store, 90% writes.
    KvDurableWrites,
    /// Four shards, batching, deep pipelines, 10% writes.
    KvShardedReads,
    /// Threaded runtime, two clients, 50% writes.
    KvThreaded,
    /// Parallel exhaustive exploration of `mwmr2-n6`.
    ExploreMwmr2,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::KvDurableWrites,
        Workload::KvShardedReads,
        Workload::KvThreaded,
        Workload::ExploreMwmr2,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::KvDurableWrites => "kv-durable-writes",
            Workload::KvShardedReads => "kv-sharded-reads",
            Workload::KvThreaded => "kv-threaded",
            Workload::ExploreMwmr2 => "explore-mwmr2",
        }
    }

    /// Look a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The kv spec, for the kv workloads.
    pub fn kv_spec(self) -> Option<kv::KvSpec> {
        match self {
            Workload::KvDurableWrites => Some(kv::KvSpec::durable_writes()),
            Workload::KvShardedReads => Some(kv::KvSpec::sharded_reads()),
            Workload::KvThreaded => Some(kv::KvSpec::threaded()),
            Workload::ExploreMwmr2 => None,
        }
    }
}

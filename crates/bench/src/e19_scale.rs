//! **E19 — scale benchmark: shards × batching over a large keyspace.**
//!
//! The paper's protocol spends ~28–33 logical messages per operation — the
//! structural bill of quorum broadcast at `n = 5f + 1`. E19 measures the
//! two mechanisms this repo adds to attack that bill *without touching the
//! protocol*:
//!
//! * **Sharding** ([`sbft_kv::shard`]) — hash-partitioning the keyspace
//!   over `S` independent `5f + 1` groups. Per-link FIFO is the simulator's
//!   serialization bottleneck, so spreading keys over `S` disjoint link
//!   sets should scale virtual-time throughput (ops per kilotick) with the
//!   shard count.
//! * **Batching** ([`sbft_net::batch`]) — per-link frame coalescing.
//!   Pipelined clients put several same-phase messages on the same directed
//!   link inside one flush window; one wire frame then carries all of them.
//!   The headline metric `msgs_per_op` counts **wire frames** per completed
//!   operation (the amortized transfer bill an operator pays), while
//!   `logical_msgs_per_op` keeps the protocol-level count for comparison —
//!   batching moves the former, never the latter.
//!
//! The grid sweeps shard count × batch policy over hundreds of clients and
//! a large keyspace (collisions are rare, so pipelining stays effective) on
//! both substrates, reporting throughput, latency percentiles, and both
//! message accountings. `harness scale` prints the table and writes
//! `BENCH_e19.json`; `harness scale --quick` runs a scaled-down smoke grid
//! for CI.

use std::collections::BTreeMap;
use std::time::Instant;

use sbft_core::cluster::MAX_IDLE_PUMPS;
use sbft_core::messages::Msg;
use sbft_core::Ts;
use sbft_kv::messages::{KvEvent, KvMsg};
use sbft_kv::{Key, KvCluster};
use sbft_labels::BoundedLabeling;
use sbft_net::{Backend, BatchPolicy, LatencyHistogram, ProcessId, Substrate};

use crate::table::Table;

type B = BoundedLabeling;

/// Event budget for one whole cell (not per op — the driver pumps freely).
const PUMP_BUDGET_PER_OP: u64 = 200_000;

/// Parameters of one scale cell.
#[derive(Clone, Copy, Debug)]
pub struct ScaleSpec {
    /// Concurrent clients.
    pub clients: usize,
    /// Operations to complete across all clients.
    pub total_ops: u64,
    /// Keys the workload spreads over.
    pub keyspace: u64,
    /// Independent `5f + 1` server groups.
    pub shards: usize,
    /// Per-client pipeline depth (concurrent ops on distinct keys).
    pub pipeline: usize,
    /// Link batching policy.
    pub batch: BatchPolicy,
    /// Percentage of operations that are writes (0..=100).
    pub write_ratio: u32,
    /// Substrate seed.
    pub seed: u64,
}

impl ScaleSpec {
    /// A cell with the default 50/50 mix and pipeline depth 16 (deep
    /// enough that same-phase messages stack on each directed link, which
    /// is what batching amortizes).
    pub fn new(clients: usize, total_ops: u64, keyspace: u64, shards: usize, seed: u64) -> Self {
        Self {
            clients,
            total_ops,
            keyspace,
            shards,
            pipeline: 16,
            batch: BatchPolicy::disabled(),
            write_ratio: 50,
            seed,
        }
    }

    /// Same cell with link batching under `policy`.
    pub fn batched(mut self, policy: BatchPolicy) -> Self {
        self.batch = policy;
        self
    }

    /// Whether arrival `seq` is a write (deterministic, replayable).
    fn is_write(&self, seq: u64) -> bool {
        (seq.wrapping_mul(2_654_435_761) >> 16) % 100 < self.write_ratio as u64
    }

    /// Key for arrival `seq`: multiplicative spread over the keyspace.
    fn key_of(&self, seq: u64) -> Key {
        seq.wrapping_mul(0x9E37_79B9_7F4A_7C15) % self.keyspace
    }
}

/// Measured results of one (spec, backend) cell.
#[derive(Clone, Debug)]
pub struct ScaleCell {
    /// Backend the cell ran on.
    pub backend: Backend,
    /// Shards.
    pub shards: usize,
    /// Size watermark of the batch policy (1 = batching off).
    pub max_batch: usize,
    /// Pipeline depth.
    pub pipeline: usize,
    /// Concurrent clients.
    pub clients: usize,
    /// Keyspace size.
    pub keyspace: u64,
    /// Operations that terminated successfully.
    pub ops_ok: u64,
    /// Operations that terminated unsuccessfully (abort/timeout).
    pub ops_failed: u64,
    /// Wall-clock milliseconds for the whole run.
    pub wall_ms: f64,
    /// Completed operations per wall-clock second.
    pub ops_per_sec: f64,
    /// Substrate ticks elapsed (virtual time on sim).
    pub ticks: u64,
    /// Completed operations per 1000 substrate ticks — the deterministic
    /// throughput metric (virtual time, so sim cells compare exactly).
    pub ops_per_ktick: f64,
    /// Per-operation latency in substrate ticks.
    pub latency: LatencyHistogram,
    /// Protocol-level messages per completed operation.
    pub logical_msgs_per_op: f64,
    /// **Wire frames** per completed operation — the amortized transfer
    /// bill. Equals `logical_msgs_per_op` with batching off.
    pub msgs_per_op: f64,
}

/// Drive one cell: a closed loop where every client keeps `pipeline` ops
/// in flight on distinct keys. The driver tracks each client's in-flight
/// key set and linear-probes past collisions, because [`sbft_kv`]'s client
/// silently drops a command for a key that is already busy.
pub fn run_cell(backend: Backend, spec: &ScaleSpec) -> ScaleCell {
    let mut builder = KvCluster::bounded(1)
        .clients(spec.clients)
        .seed(spec.seed)
        .shards(spec.shards)
        .pipeline(spec.pipeline)
        .batch(spec.batch)
        .backend(backend);
    if backend == Backend::Threaded {
        // Completions stream in continuously under pipelining; a short pump
        // window keeps the driver responsive without busy-waiting.
        builder = builder.pump_timeout(std::time::Duration::from_millis(5));
    }
    let mut c = builder.build_any();
    let clients: Vec<ProcessId> = (0..spec.clients).map(|i| c.client(i)).collect();

    // client pid -> key -> issue tick, for latency and collision probing.
    let mut inflight: BTreeMap<ProcessId, BTreeMap<Key, u64>> = BTreeMap::new();
    let mut latency = LatencyHistogram::new();
    let (mut issued, mut ops_ok, mut ops_failed) = (0u64, 0u64, 0u64);
    let before = c.metrics();
    let start = Instant::now();
    let start_ticks = c.sim.now();

    let issue = |sub: &mut dyn FnMut(ProcessId, KvMsg<Ts<B>>),
                 now: u64,
                 inflight: &mut BTreeMap<ProcessId, BTreeMap<Key, u64>>,
                 pid: ProcessId,
                 seq: u64| {
        let busy = inflight.entry(pid).or_default();
        // Linear-probe past keys this client already has in flight (the
        // automaton would silently drop the duplicate).
        let mut key = spec.key_of(seq);
        while busy.contains_key(&key) {
            key = (key + 1) % spec.keyspace;
        }
        let inner = if spec.is_write(seq) {
            Msg::InvokeWrite { value: (seq << 8) | (pid as u64 & 0xFF) }
        } else {
            Msg::InvokeRead
        };
        busy.insert(key, now);
        sub(pid, KvMsg::new(key, inner));
    };

    // Prime: fill every client's pipeline.
    'prime: for _depth in 0..spec.pipeline {
        for &pid in &clients {
            if issued >= spec.total_ops {
                break 'prime;
            }
            let now = c.sim.now();
            issue(&mut |p, m| c.sim.inject(p, m), now, &mut inflight, pid, issued);
            issued += 1;
        }
    }

    // Pump to completion, reissuing into each freed slot.
    let budget = spec.total_ops.saturating_mul(PUMP_BUDGET_PER_OP);
    let (mut events, mut idle) = (0u64, 0u32);
    while ops_ok + ops_failed < issued && events < budget {
        match c.sim.pump() {
            sbft_net::Pumped::Quiescent => break,
            sbft_net::Pumped::Idle => {
                idle += 1;
                if idle >= MAX_IDLE_PUMPS {
                    break;
                }
            }
            sbft_net::Pumped::Event { time, pid, outputs } => {
                idle = 0;
                events += 1;
                for out in outputs {
                    let KvEvent { key, inner } = &out;
                    let ok = match inner {
                        sbft_core::messages::ClientEvent::WriteDone { .. }
                        | sbft_core::messages::ClientEvent::ReadDone { .. } => true,
                        sbft_core::messages::ClientEvent::ReadAborted
                        | sbft_core::messages::ClientEvent::ReadFailed { .. }
                        | sbft_core::messages::ClientEvent::WriteFailed { .. } => false,
                    };
                    if let Some(since) = inflight.get_mut(&pid).and_then(|busy| busy.remove(key)) {
                        latency.record(time.saturating_sub(since));
                        if ok {
                            ops_ok += 1;
                        } else {
                            ops_failed += 1;
                        }
                        if issued < spec.total_ops {
                            let now = c.sim.now();
                            issue(&mut |p, m| c.sim.inject(p, m), now, &mut inflight, pid, issued);
                            issued += 1;
                        }
                    }
                }
            }
        }
    }

    let wall = start.elapsed();
    let ticks = c.sim.now().saturating_sub(start_ticks);
    let m = c.metrics().delta_since(&before);
    c.stop();

    let completed = ops_ok + ops_failed;
    let wall_ms = wall.as_secs_f64() * 1e3;
    let per_op = |x: u64| if completed > 0 { x as f64 / completed as f64 } else { 0.0 };
    ScaleCell {
        backend,
        shards: spec.shards,
        max_batch: spec.batch.max_batch,
        pipeline: spec.pipeline,
        clients: spec.clients,
        keyspace: spec.keyspace,
        ops_ok,
        ops_failed,
        wall_ms,
        ops_per_sec: if wall_ms > 0.0 { completed as f64 / (wall_ms / 1e3) } else { 0.0 },
        ticks,
        ops_per_ktick: if ticks > 0 { completed as f64 * 1e3 / ticks as f64 } else { 0.0 },
        latency,
        logical_msgs_per_op: per_op(m.messages_sent),
        msgs_per_op: per_op(m.frames_sent),
    }
}

/// The full E19 grid.
///
/// Simulator: `clients` clients over a 100k keyspace, shards ∈ {1, 2, 4, 8}
/// × batching {off, 32/8}, plus one 1M-key cell at the largest scale.
/// Threaded: a smaller grid (shards ∈ {1, 4} × batching {off, 32/8}) since
/// wall-clock cells cost real time.
pub fn run_cells(clients: usize, ops: u64, seed: u64) -> Vec<ScaleCell> {
    let ops = ops.max(100);
    let policy = BatchPolicy::new(32, 8);
    let mut cells = Vec::new();
    for shards in [1usize, 2, 4, 8] {
        let spec = ScaleSpec::new(clients, ops, 100_000, shards, seed);
        cells.push(run_cell(Backend::Sim, &spec));
        cells.push(run_cell(Backend::Sim, &spec.batched(policy)));
    }
    // One big-keyspace cell: placement and batching must not degrade when
    // the key universe dwarfs the in-flight set.
    let big = ScaleSpec::new(clients, ops, 1_000_000, 8, seed).batched(policy);
    cells.push(run_cell(Backend::Sim, &big));
    for shards in [1usize, 4] {
        let spec = ScaleSpec::new(clients / 4, ops / 4, 100_000, shards, seed)
            .batched(BatchPolicy::disabled());
        let spec = ScaleSpec { clients: spec.clients.max(8), ..spec };
        cells.push(run_cell(Backend::Threaded, &spec));
        cells.push(run_cell(Backend::Threaded, &spec.batched(policy)));
    }
    cells
}

/// The CI smoke grid: simulator only, small counts, still exercising a
/// multi-shard batched cell.
pub fn run_quick(seed: u64) -> Vec<ScaleCell> {
    let policy = BatchPolicy::new(32, 8);
    let mut cells = Vec::new();
    for shards in [1usize, 2] {
        let spec = ScaleSpec::new(16, 200, 10_000, shards, seed);
        cells.push(run_cell(Backend::Sim, &spec));
        cells.push(run_cell(Backend::Sim, &spec.batched(policy)));
    }
    cells
}

/// Legend of the `"unit"` object in `BENCH_e19.json`.
pub const UNITS: &[(&str, &str)] = &[
    ("latency", "substrate ticks"),
    ("throughput", "ops per kilotick (sim-deterministic) and ops per wall-clock second"),
    ("msgs_per_op", "wire frames per completed op"),
];

/// Render the cells as the harness table (and `BENCH_e19.json` rows).
/// `msgs_per_op` counts wire frames (amortized transfers per operation);
/// `logical_msgs_per_op` is the protocol-level count.
pub fn table(cells: &[ScaleCell]) -> Table {
    Table::build("E19 — scale: shards × link batching (f=1, n=6 per shard)", cells, |r, c| {
        r.col("backend", "backend", format!("{:?}", c.backend).to_lowercase());
        r.col("shards", "shards", c.shards);
        r.table("batch", if c.max_batch > 1 { c.max_batch.to_string() } else { "off".into() });
        r.json("max_batch", c.max_batch);
        r.col("pipe", "pipeline", c.pipeline);
        r.col("clients", "clients", c.clients);
        r.col("keys", "keyspace", c.keyspace);
        r.col("ops_ok", "ops_ok", c.ops_ok);
        r.col("failed", "ops_failed", c.ops_failed);
        r.json("wall_ms", c.wall_ms);
        r.float("ops/ktick", "ops_per_ktick", c.ops_per_ktick, 1);
        r.float("ops/s", "ops_per_sec", c.ops_per_sec, 1);
        r.json("ticks", c.ticks);
        r.col("p50", "lat_p50", c.latency.percentile(50.0));
        r.col("p95", "lat_p95", c.latency.percentile(95.0));
        r.col("p99", "lat_p99", c.latency.percentile(99.0));
        r.float("logical/op", "logical_msgs_per_op", c.logical_msgs_per_op, 1);
        r.float("frames/op", "msgs_per_op", c.msgs_per_op, 1);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipelined_cell_completes_all_ops() {
        let spec = ScaleSpec::new(4, 60, 1_000, 2, 7);
        let cell = run_cell(Backend::Sim, &spec);
        assert_eq!(cell.ops_ok + cell.ops_failed, 60, "{cell:?}");
        assert_eq!(cell.latency.count(), 60);
        assert!(cell.logical_msgs_per_op > 10.0, "quorum broadcast is expensive");
        // Batching off: wire == logical.
        assert!((cell.msgs_per_op - cell.logical_msgs_per_op).abs() < 1e-9, "{cell:?}");
    }

    #[test]
    fn batching_cuts_wire_frames_not_logical_messages() {
        let spec = ScaleSpec::new(8, 120, 1_000, 1, 9);
        let plain = run_cell(Backend::Sim, &spec);
        let batched = run_cell(Backend::Sim, &spec.batched(BatchPolicy::new(32, 8)));
        assert_eq!(batched.ops_ok + batched.ops_failed, 120, "{batched:?}");
        assert!(
            batched.msgs_per_op < plain.msgs_per_op,
            "batched {} vs plain {}",
            batched.msgs_per_op,
            plain.msgs_per_op
        );
        // The protocol bill itself is untouched (same order of magnitude;
        // retries may wobble the exact count between configurations).
        assert!(batched.logical_msgs_per_op > 10.0, "{batched:?}");
    }

    #[test]
    fn json_is_well_formed_enough() {
        let cells = run_quick(5);
        let json = table(&cells).to_json("e19", UNITS);
        assert!(json.contains("\"experiment\": \"e19\""));
        assert!(json.contains("\"msgs_per_op\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}

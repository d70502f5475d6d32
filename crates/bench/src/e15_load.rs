//! **E15 — sustained-load throughput and latency**: a multi-client
//! open/closed-loop load generator over the shared scenario drivers, on
//! both substrate backends, for both the single register and the keyed
//! store.
//!
//! Cachin–Dobre–Vukolić ("Asynchronous BFT Storage with 2t+1 Data
//! Replicas") and Dobre et al. ("PoWerStore / Proofs of Writing") treat
//! per-operation cost and steady-state throughput as the headline metrics
//! for BFT storage; E15 gives this repo the same measurement surface and
//! seeds the perf trajectory (`BENCH_e15.json`):
//!
//! * **closed loop** — `clients` concurrent clients, each re-issuing the
//!   next operation the moment its previous one terminates, until
//!   `total_ops` complete. Throughput is wall-clock ops/s; per-operation
//!   latency (invocation → terminal event, in substrate ticks) feeds a
//!   [`LatencyHistogram`] reported as p50/p95/p99.
//! * **open loop** — arrivals at a fixed tick interval round-robin over
//!   the clients, regardless of completions. An arrival hitting a busy
//!   client is *rejected* (the register interface is one op per client),
//!   so the rejected count exposes saturation. On the simulator, a
//!   drained event queue fast-forwards virtual time to the next arrival.
//!
//! The workload mixes writes and reads (`write_ratio` percent writes) with
//! per-client-unique values, exactly the traffic the regularity checker
//! elsewhere verifies; E15 trades checking for volume (no recorder on the
//! hot path) — correctness under this workload is E8/E12/E14's job.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::time::Instant;

use sbft_core::cluster::{RegisterCluster, MAX_IDLE_PUMPS};
use sbft_core::messages::{ClientEvent, Msg};
use sbft_core::Ts;
use sbft_kv::messages::KvMsg;
use sbft_kv::KvCluster;
use sbft_labels::BoundedLabeling;
use sbft_net::{Backend, LatencyHistogram, ProcessId, Substrate};

use crate::table::Table;

type B = BoundedLabeling;

/// Keys the kv workload spreads over (small enough that keys collide
/// across clients, so the per-key register sees real MWMR contention).
const KV_KEYSPACE: u64 = 8;

/// Event budget per completion wait; generous (an op is a few hundred
/// events) so only a genuinely wedged cluster trips it.
const PUMP_BUDGET: u64 = 2_000_000;

/// Arrival pacing of the load generator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoadMode {
    /// Each client re-issues immediately on completion.
    Closed,
    /// One arrival every `interval` substrate ticks, round-robin over
    /// clients; arrivals to busy clients are rejected and counted.
    Open {
        /// Ticks between arrivals.
        interval: u64,
    },
}

impl LoadMode {
    fn label(&self) -> &'static str {
        match self {
            LoadMode::Closed => "closed",
            LoadMode::Open { .. } => "open",
        }
    }
}

/// Parameters of one load run.
#[derive(Clone, Copy, Debug)]
pub struct LoadSpec {
    /// Concurrent clients.
    pub clients: usize,
    /// Operations to complete (closed) or arrivals to generate (open).
    pub total_ops: u64,
    /// Percentage of operations that are writes (0..=100).
    pub write_ratio: u32,
    /// Arrival pacing.
    pub mode: LoadMode,
    /// Substrate seed.
    pub seed: u64,
}

impl LoadSpec {
    /// Closed-loop spec with the default 50/50 read-write mix.
    pub fn closed(clients: usize, total_ops: u64, seed: u64) -> Self {
        Self { clients, total_ops, write_ratio: 50, mode: LoadMode::Closed, seed }
    }

    /// Open-loop spec with the default mix.
    pub fn open(clients: usize, total_ops: u64, interval: u64, seed: u64) -> Self {
        Self { clients, total_ops, write_ratio: 50, mode: LoadMode::Open { interval }, seed }
    }

    /// Whether arrival `seq` is a write (deterministic hash of the
    /// sequence number, so runs replay identically).
    fn is_write(&self, seq: u64) -> bool {
        (seq.wrapping_mul(2_654_435_761) >> 16) % 100 < self.write_ratio as u64
    }
}

/// Measured results of one (workload, backend, mode) cell.
#[derive(Clone, Debug)]
pub struct LoadCell {
    /// `"register"` or `"kv"`.
    pub workload: &'static str,
    /// Backend the cell ran on.
    pub backend: Backend,
    /// `"closed"` or `"open"`.
    pub mode: &'static str,
    /// Concurrent clients.
    pub clients: usize,
    /// Operations that terminated successfully.
    pub ops_ok: u64,
    /// Operations that terminated unsuccessfully (abort/timeout).
    pub ops_failed: u64,
    /// Open-loop arrivals dropped because the client was busy. Reported
    /// separately (a rejection is load shed at the door, not an operation
    /// the system performed) and **never** part of [`LoadCell::ops_per_sec`]
    /// or the latency histogram.
    pub rejected: u64,
    /// Wall-clock milliseconds for the whole run.
    pub wall_ms: f64,
    /// Completed operations (`ops_ok + ops_failed`, excluding `rejected`)
    /// per wall-clock second.
    pub ops_per_sec: f64,
    /// Substrate ticks elapsed (virtual time on sim, ticks on threads).
    pub ticks: u64,
    /// Per-operation latency in substrate ticks.
    pub latency: LatencyHistogram,
    /// Messages sent per completed operation.
    pub msgs_per_op: f64,
}

/// How one operation ended, as classified from the client event stream.
enum OpEnd {
    Ok,
    Failed,
}

fn classify<T>(ev: &ClientEvent<T>) -> Option<OpEnd> {
    match ev {
        ClientEvent::WriteDone { .. } | ClientEvent::ReadDone { .. } => Some(OpEnd::Ok),
        ClientEvent::ReadAborted
        | ClientEvent::ReadFailed { .. }
        | ClientEvent::WriteFailed { .. } => Some(OpEnd::Failed),
    }
}

/// Drive `sub` under `spec`, issuing operations built by `mk_op` and
/// classifying terminal events with `terminal`. Generic over the message
/// and output types so the register and kv workloads share the loop.
fn drive<M, O, S>(
    sub: &mut S,
    clients: &[ProcessId],
    spec: &LoadSpec,
    mk_op: &mut dyn FnMut(usize, u64) -> M,
    terminal: &dyn Fn(&O) -> Option<OpEnd>,
) -> (u64, u64, u64, LatencyHistogram, u64)
where
    S: Substrate<M, O>,
{
    let idx_of: BTreeMap<ProcessId, usize> =
        clients.iter().enumerate().map(|(i, &p)| (p, i)).collect();
    let mut busy_since: BTreeMap<ProcessId, u64> = BTreeMap::new();
    let mut latency = LatencyHistogram::new();
    let (mut issued, mut ops_ok, mut ops_failed, mut rejected) = (0u64, 0u64, 0u64, 0u64);
    let start_ticks = sub.now();

    match spec.mode {
        LoadMode::Closed => {
            // Prime one operation per client, then re-issue on completion.
            for (i, &pid) in clients.iter().enumerate() {
                if issued < spec.total_ops {
                    sub.inject(pid, mk_op(i, issued));
                    busy_since.insert(pid, sub.now());
                    issued += 1;
                }
            }
            while ops_ok + ops_failed < issued || issued < spec.total_ops {
                let hit = sub.pump_until(PUMP_BUDGET, MAX_IDLE_PUMPS, &mut |time, pid, out| {
                    terminal(&out).map(|end| (time, pid, end))
                });
                let Some((time, pid, end)) = hit else {
                    break; // wedged or quiescent: report what completed
                };
                if let Some(since) = busy_since.remove(&pid) {
                    latency.record(time.saturating_sub(since));
                }
                match end {
                    OpEnd::Ok => ops_ok += 1,
                    OpEnd::Failed => ops_failed += 1,
                }
                if issued < spec.total_ops {
                    let i = idx_of[&pid];
                    sub.inject(pid, mk_op(i, issued));
                    busy_since.insert(pid, sub.now());
                    issued += 1;
                }
            }
        }
        LoadMode::Open { interval } => {
            let mut next_arrival = sub.now() + interval;
            let mut idle = 0u32;
            // First arrival immediately.
            let pid = clients[0];
            sub.inject(pid, mk_op(0, 0));
            busy_since.insert(pid, sub.now());
            issued = 1;
            loop {
                while issued < spec.total_ops && sub.now() >= next_arrival {
                    let i = (issued as usize) % clients.len();
                    let pid = clients[i];
                    match busy_since.entry(pid) {
                        Entry::Occupied(_) => rejected += 1, // saturated: one op per client
                        Entry::Vacant(slot) => {
                            sub.inject(pid, mk_op(i, issued));
                            slot.insert(sub.now());
                        }
                    }
                    issued += 1;
                    next_arrival += interval;
                }
                if issued >= spec.total_ops && busy_since.is_empty() {
                    break;
                }
                match sub.pump() {
                    sbft_net::Pumped::Event { time, pid, outputs } => {
                        idle = 0;
                        for out in outputs {
                            if let Some(end) = terminal(&out) {
                                if let Some(since) = busy_since.remove(&pid) {
                                    latency.record(time.saturating_sub(since));
                                }
                                match end {
                                    OpEnd::Ok => ops_ok += 1,
                                    OpEnd::Failed => ops_failed += 1,
                                }
                            }
                        }
                    }
                    sbft_net::Pumped::Idle => {
                        // While arrivals remain, an idle window is normal
                        // pacing (threads waiting for the next arrival),
                        // not a wedge — only give up once the last arrival
                        // is in and nothing completes.
                        if issued >= spec.total_ops {
                            idle += 1;
                            if idle >= MAX_IDLE_PUMPS {
                                break;
                            }
                        }
                    }
                    sbft_net::Pumped::Quiescent => {
                        if issued < spec.total_ops {
                            // Simulator queue drained before virtual time
                            // reached the next arrival: fast-forward by
                            // injecting it now.
                            next_arrival = sub.now();
                        } else {
                            break;
                        }
                    }
                }
            }
        }
    }
    (ops_ok, ops_failed, rejected, latency, sub.now().saturating_sub(start_ticks))
}

/// Arrival-paced pump window for threaded open-loop cells: one pump may
/// block at most about one arrival interval (the default 100 µs tick times
/// `interval` ticks), so arrivals are injected on schedule instead of
/// stalling behind the default 100 ms pump timeout.
fn open_loop_pump_timeout(interval: u64) -> std::time::Duration {
    std::time::Duration::from_micros(100).saturating_mul(interval.clamp(1, 10_000) as u32)
}

/// Run the register workload on `backend` under `spec`.
pub fn run_register_cell(backend: Backend, spec: &LoadSpec) -> LoadCell {
    let mut builder =
        RegisterCluster::bounded(1).clients(spec.clients).seed(spec.seed).backend(backend);
    if let (Backend::Threaded, LoadMode::Open { interval }) = (backend, spec.mode) {
        builder = builder.pump_timeout(open_loop_pump_timeout(interval));
    }
    let mut c = builder.build_any();
    let clients: Vec<ProcessId> = (0..spec.clients).map(|i| c.client(i)).collect();
    let spec_c = *spec;
    let mut mk = move |i: usize, seq: u64| -> Msg<Ts<B>> {
        if spec_c.is_write(seq) {
            Msg::InvokeWrite { value: ((i as u64) << 32) | seq }
        } else {
            Msg::InvokeRead
        }
    };
    let before = c.metrics();
    let start = Instant::now();
    let (ops_ok, ops_failed, rejected, latency, ticks) =
        drive(&mut c.sim, &clients, spec, &mut mk, &classify);
    let wall = start.elapsed();
    let msgs = c.metrics().delta_since(&before).messages_sent;
    c.stop();
    finish_cell("register", backend, spec, ops_ok, ops_failed, rejected, latency, ticks, wall, msgs)
}

/// Run the keyed-store workload on `backend` under `spec`.
pub fn run_kv_cell(backend: Backend, spec: &LoadSpec) -> LoadCell {
    let mut builder = KvCluster::bounded(1).clients(spec.clients).seed(spec.seed).backend(backend);
    if let (Backend::Threaded, LoadMode::Open { interval }) = (backend, spec.mode) {
        builder = builder.pump_timeout(open_loop_pump_timeout(interval));
    }
    let mut c = builder.build_any();
    let clients: Vec<ProcessId> = (0..spec.clients).map(|i| c.client(i)).collect();
    let spec_c = *spec;
    let mut mk = move |i: usize, seq: u64| -> KvMsg<Ts<B>> {
        let key = (seq + i as u64) % KV_KEYSPACE;
        let inner = if spec_c.is_write(seq) {
            Msg::InvokeWrite { value: ((i as u64) << 32) | seq }
        } else {
            Msg::InvokeRead
        };
        KvMsg::new(key, inner)
    };
    let before = c.metrics();
    let start = Instant::now();
    let (ops_ok, ops_failed, rejected, latency, ticks) =
        drive(&mut c.sim, &clients, spec, &mut mk, &|out: &sbft_kv::messages::KvEvent<Ts<B>>| {
            classify(&out.inner)
        });
    let wall = start.elapsed();
    let msgs = c.metrics().delta_since(&before).messages_sent;
    c.stop();
    finish_cell("kv", backend, spec, ops_ok, ops_failed, rejected, latency, ticks, wall, msgs)
}

#[allow(clippy::too_many_arguments)]
fn finish_cell(
    workload: &'static str,
    backend: Backend,
    spec: &LoadSpec,
    ops_ok: u64,
    ops_failed: u64,
    rejected: u64,
    latency: LatencyHistogram,
    ticks: u64,
    wall: std::time::Duration,
    msgs: u64,
) -> LoadCell {
    let wall_ms = wall.as_secs_f64() * 1e3;
    // Throughput counts operations the system actually executed; busy-client
    // rejections are excluded here and surfaced via the `rejected` column.
    let completed = ops_ok + ops_failed;
    LoadCell {
        workload,
        backend,
        mode: spec.mode.label(),
        clients: spec.clients,
        ops_ok,
        ops_failed,
        rejected,
        wall_ms,
        ops_per_sec: if wall_ms > 0.0 { completed as f64 / (wall_ms / 1e3) } else { 0.0 },
        ticks,
        msgs_per_op: if completed > 0 { msgs as f64 / completed as f64 } else { 0.0 },
        latency,
    }
}

/// Run the full E15 grid: {register, kv} × {sim, threaded} × {closed,
/// open} at `clients` concurrency. Every cell runs the *same* `ops` count
/// on both backends, so the sim-vs-threaded columns are apples-to-apples.
pub fn run_cells(clients: usize, ops: u64, seed: u64) -> Vec<LoadCell> {
    let n = ops.max(20);
    let mut cells = Vec::new();
    for backend in [Backend::Sim, Backend::Threaded] {
        let spec = LoadSpec::closed(clients, n, seed);
        cells.push(run_register_cell(backend, &spec));
        cells.push(run_kv_cell(backend, &spec));
    }
    for backend in [Backend::Sim, Backend::Threaded] {
        let open = LoadSpec::open(clients, n, 30, seed);
        cells.push(run_register_cell(backend, &open));
        cells.push(run_kv_cell(backend, &open));
    }
    cells
}

/// Legend of the `"unit"` object in `BENCH_e15.json`.
pub const UNITS: &[(&str, &str)] =
    &[("latency", "substrate ticks"), ("throughput", "ops per wall-clock second")];

/// Render the cells as the harness table (and `BENCH_e15.json` rows).
pub fn table(cells: &[LoadCell]) -> Table {
    Table::build("E15 — sustained-load throughput & latency (f=1, n=6)", cells, |r, c| {
        r.col("workload", "workload", c.workload);
        r.col("backend", "backend", format!("{:?}", c.backend).to_lowercase());
        r.col("mode", "mode", c.mode);
        r.col("clients", "clients", c.clients);
        r.col("ops_ok", "ops_ok", c.ops_ok);
        r.col("failed", "ops_failed", c.ops_failed);
        r.col("rejected", "rejected", c.rejected);
        r.float("wall_ms", "wall_ms", c.wall_ms, 1);
        r.float("ops/s", "ops_per_sec", c.ops_per_sec, 1);
        r.json("ticks", c.ticks);
        r.col("p50", "lat_p50", c.latency.percentile(50.0));
        r.col("p95", "lat_p95", c.latency.percentile(95.0));
        r.col("p99", "lat_p99", c.latency.percentile(99.0));
        r.json("lat_mean", c.latency.mean());
        r.json("lat_max", c.latency.max());
        r.float("msgs/op", "msgs_per_op", c.msgs_per_op, 1);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_loop_completes_all_ops_on_sim() {
        let spec = LoadSpec::closed(2, 30, 7);
        let cell = run_register_cell(Backend::Sim, &spec);
        assert_eq!(cell.ops_ok + cell.ops_failed, 30, "{cell:?}");
        assert_eq!(cell.rejected, 0);
        assert_eq!(cell.latency.count(), 30);
        assert!(cell.latency.percentile(50.0) > 0, "sim latencies are in ticks");
        assert!(cell.msgs_per_op > 10.0, "a quorum protocol sends many messages per op");
    }

    #[test]
    fn open_loop_rejects_when_saturated() {
        // Interval 1 tick with 1 client: arrivals far outpace completion,
        // so most arrivals must be rejected.
        let spec = LoadSpec { write_ratio: 50, ..LoadSpec::open(1, 60, 1, 3) };
        let cell = run_register_cell(Backend::Sim, &spec);
        assert!(cell.rejected > 0, "{cell:?}");
        assert!(cell.ops_ok > 0);
    }

    #[test]
    fn open_loop_rejections_are_excluded_from_throughput() {
        // Interval 1 tick with 1 client forces heavy saturation: most
        // arrivals find the client busy and must be rejected.
        let spec = LoadSpec { write_ratio: 50, ..LoadSpec::open(1, 80, 1, 9) };
        let cell = run_register_cell(Backend::Sim, &spec);
        assert!(cell.rejected > 0, "{cell:?}");
        // Conservation: every arrival either completed or was rejected.
        assert_eq!(cell.ops_ok + cell.ops_failed + cell.rejected, 80, "{cell:?}");
        // ops/sec is computed from completions only — recompute it.
        let completed = cell.ops_ok + cell.ops_failed;
        let expected = completed as f64 / (cell.wall_ms / 1e3);
        assert!(
            (cell.ops_per_sec - expected).abs() <= expected * 1e-9,
            "ops_per_sec {} must equal completed/wall {}",
            cell.ops_per_sec,
            expected
        );
        // Rejections never enter the latency histogram either.
        assert_eq!(cell.latency.count(), completed);
        // And the JSON report carries the rejections as their own field.
        let json = table(std::slice::from_ref(&cell)).to_json("e15", UNITS);
        assert!(json.contains(&format!("\"rejected\": {}", cell.rejected)), "{json}");
    }

    #[test]
    fn kv_workload_runs_on_sim() {
        let spec = LoadSpec::closed(2, 20, 11);
        let cell = run_kv_cell(Backend::Sim, &spec);
        assert_eq!(cell.ops_ok + cell.ops_failed, 20, "{cell:?}");
        assert_eq!(cell.workload, "kv");
    }

    #[test]
    fn json_is_well_formed_enough() {
        let spec = LoadSpec::closed(2, 20, 5);
        let cells = vec![run_register_cell(Backend::Sim, &spec)];
        let json = table(&cells).to_json("e15", UNITS);
        assert!(json.contains("\"experiment\": \"e15\""));
        assert!(json.contains("\"ops_per_sec\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}

//! The three key-value workloads.
//!
//! A run is a sequence of *rounds*. Each round builds a fresh store (seeded
//! from the run seed and the round number), sets it up (preload or
//! warm-up, untimed), drives a fixed number of closed-loop operations
//! (timed), then checks every per-key history. Fixing the op count per
//! round keeps every per-key history short enough for the cubic checker
//! and lets a traced round replay an untraced one exactly on the
//! simulator.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sbft_core::messages::{ClientEvent, Msg};
use sbft_core::reader::ReaderOptions;
use sbft_core::spec::OpKind;
use sbft_core::{ClusterConfig, HistoryRecorder, RetryPolicy, Sys, Ts};
use sbft_kv::client::KvClient;
use sbft_kv::server::KvServer;
use sbft_kv::{Key, KvCluster, KvEvent, KvMsg, ShardRouter, ShardedClient, ShardedServer};
use sbft_labels::{BoundedLabeling, LabelingSystem, MwmrLabeling};
use sbft_net::{
    Automaton, Backend, BatchPolicy, DelayModel, ProcessId, Pumped, Simulation, Substrate,
    SubstrateConfig, ThreadedCluster,
};
use sbft_storage::{DiskHandle, DiskSet, DiskStats, SimDisk};

use crate::alloc;
use crate::trace::{self, Name};
use crate::wrap::{op_id, Role, TracedAutomaton, TracedLabeling, TracedStable};

/// Consecutive idle pumps (threaded runtime) before the load generator
/// gives up on outstanding operations.
const MAX_IDLE_PUMPS: u32 = 50;

/// Completions per throughput sample: a run reports the median rate over
/// its chunks, so a burst of interference on a shared host moves a few
/// samples instead of the result.
pub const CHUNK_OPS: u64 = 1_000;

/// Every round checks its histories at least this many times, and until
/// [`VERIFY_MIN_TIME`] has passed (at most [`VERIFY_MAX_PASSES`] times);
/// each pass is one `verify_s` sample.
pub const VERIFY_MIN_PASSES: usize = 3;
/// See [`VERIFY_MIN_PASSES`].
pub const VERIFY_MAX_PASSES: usize = 50;
/// See [`VERIFY_MIN_PASSES`].
pub const VERIFY_MIN_TIME: Duration = Duration::from_millis(50);

/// One kv workload: store shape, client load and round size.
#[derive(Clone, Copy, Debug)]
pub struct KvSpec {
    /// Hosting runtime: the simulator (uniform 1–10 tick delays) or one OS
    /// thread per process, delivering as soon as possible.
    pub runtime: Backend,
    /// Whether servers persist to simulated stable disks.
    pub durable: bool,
    /// Independent `5f + 1` server groups.
    pub shards: usize,
    /// Per-link batching policy.
    pub batch: BatchPolicy,
    /// Closed-loop clients.
    pub clients: usize,
    /// Concurrent ops per client (on distinct keys).
    pub pipeline: usize,
    /// Keyspace size.
    pub keys: u64,
    /// Percentage of writes in the timed mix.
    pub write_pct: u64,
    /// Write every key once before timing (part of set-up).
    pub preload: bool,
    /// Untimed operations before timing (part of set-up).
    pub warmup_ops: u64,
    /// Timed operations per round.
    pub round_ops: u64,
}

impl KvSpec {
    /// `kv-durable-writes`: storage, `next()` and the server write path.
    pub fn durable_writes() -> Self {
        Self {
            runtime: Backend::Sim,
            durable: true,
            shards: 1,
            batch: BatchPolicy::disabled(),
            clients: 4,
            pipeline: 1,
            keys: 64,
            write_pct: 90,
            preload: false,
            warmup_ops: 0,
            // ~250 ops per key: long enough to time the checker, short
            // enough that its cubic growth stays affordable.
            round_ops: 16_000,
        }
    }

    /// `kv-sharded-reads`: substrate queue, batcher and the WTSG read path.
    pub fn sharded_reads() -> Self {
        Self {
            runtime: Backend::Sim,
            durable: false,
            shards: 4,
            batch: BatchPolicy::new(32, 8),
            clients: 64,
            pipeline: 16,
            keys: 4_096,
            write_pct: 10,
            preload: true,
            warmup_ops: 0,
            round_ops: 40_000,
        }
    }

    /// `kv-threaded`: real wall-clock latency through inbox, timer wheel
    /// and output hub.
    pub fn threaded() -> Self {
        Self {
            runtime: Backend::Threaded,
            durable: false,
            shards: 1,
            batch: BatchPolicy::disabled(),
            clients: 2,
            pipeline: 1,
            keys: 1_024,
            write_pct: 50,
            preload: false,
            warmup_ops: 1_000,
            round_ops: 20_000,
        }
    }

    /// The same workload shape at smoke-test size.
    pub fn tiny(self) -> Self {
        Self {
            clients: self.clients.min(4),
            pipeline: self.pipeline.min(4),
            keys: self.keys.min(64),
            warmup_ops: self.warmup_ops.min(20),
            round_ops: 200,
            ..self
        }
    }

    fn substrate_config(&self, seed: u64) -> SubstrateConfig {
        SubstrateConfig::seeded(seed)
            .with_delay(DelayModel::uniform(1, 10))
            .with_batching(self.batch)
    }
}

/// Deterministic counters of one phase. On the simulator a traced round
/// must reproduce these exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Substrate ticks elapsed.
    pub ticks: u64,
    /// Events processed.
    pub events: u64,
    /// Logical messages sent.
    pub msgs: u64,
    /// Wire frames sent.
    pub frames: u64,
    /// Operations issued.
    pub issued: u64,
    /// Operations completed successfully.
    pub ok: u64,
    /// Operations that aborted or gave up.
    pub failed: u64,
    /// Reads completed or failed.
    pub reads: u64,
    /// Reads decided by the union-graph fallback.
    pub union_reads: u64,
    /// Reads that aborted or gave up.
    pub aborted_reads: u64,
    /// Writes completed.
    pub writes_done: u64,
    /// Sum of per-op latencies in ticks.
    pub lat_tick_sum: u64,
}

impl Counts {
    /// Whether every issued operation terminated one way or the other.
    pub fn accounted(&self) -> bool {
        self.ok + self.failed == self.issued
    }
}

/// Everything one round measured.
#[derive(Clone, Debug, Default)]
pub struct Round {
    /// Build, thread spawn and preload/warm-up, seconds.
    pub setup_s: f64,
    /// Wall seconds of the timed phase.
    pub ops_s: f64,
    /// Wall seconds to check every per-key history, once per pass.
    pub verify_s: Vec<f64>,
    /// Completions per second of each [`CHUNK_OPS`] chunk of the timed
    /// phase.
    pub chunk_rates: Vec<f64>,
    /// Counters of the untimed preload/warm-up phase.
    pub setup_counts: Counts,
    /// Counters of the timed phase.
    pub counts: Counts,
    /// Per-op latency in ticks (timed phase).
    pub lat_ticks: Vec<u64>,
    /// Per-op wall latency in nanoseconds (timed phase).
    pub lat_ns: Vec<u64>,
    /// Keys whose history failed the regularity check.
    pub bad_keys: usize,
    /// Operations judged by the checker.
    pub ops_checked: u64,
    /// Disk counters accumulated during the timed phase.
    pub disk: DiskStats,
    /// `(allocations, bytes)` process-wide during the timed phase.
    pub allocs: (u64, u64),
}

impl Round {
    /// Whether the round passed every correctness gate.
    pub fn correct(&self, spec: &KvSpec) -> bool {
        self.bad_keys == 0
            && self.setup_counts.accounted()
            && self.counts.accounted()
            && self.counts.issued == spec.round_ops
    }
}

/// Closed-loop load generator over any substrate.
struct Load<L: LabelingSystem> {
    clients: Vec<ProcessId>,
    runtime: Backend,
    inflight: Vec<BTreeMap<Key, (u64, Instant)>>,
    recorders: BTreeMap<Key, HistoryRecorder<L>>,
    next_value: u64,
    lat_ticks: Vec<u64>,
    lat_ns: Vec<u64>,
    chunk_rates: Vec<f64>,
}

impl<L: LabelingSystem> Load<L> {
    fn new(clients: Vec<ProcessId>, runtime: Backend) -> Self {
        Self {
            inflight: vec![BTreeMap::new(); clients.len()],
            clients,
            runtime,
            recorders: BTreeMap::new(),
            next_value: 0,
            lat_ticks: Vec::new(),
            lat_ns: Vec::new(),
            chunk_rates: Vec::new(),
        }
    }

    fn issue<S>(&mut self, sub: &mut S, i: usize, keys: u64, gen: &mut dyn FnMut() -> (Key, bool))
    where
        S: Substrate<KvMsg<Ts<L>>, KvEvent<Ts<L>>>,
    {
        let pid = self.clients[i];
        let (mut key, write) = gen();
        // A client drops a command for a key it already has in flight, so
        // probe past busy keys (pipeline depth < keyspace guarantees one).
        let busy = &mut self.inflight[i];
        while busy.contains_key(&key) {
            key = (key + 1) % keys;
        }
        let now = sub.now();
        // Commands reach the client one tick later on the simulator; on
        // wall-clock ticks `now` is exact (as in `KvCluster`).
        let invoked = match self.runtime {
            Backend::Sim => now + 1,
            Backend::Threaded => now,
        };
        let rec = self.recorders.entry(key).or_default();
        let inner = if write {
            self.next_value += 1;
            rec.begin_with_intent(pid, OpKind::Write, invoked, Some(self.next_value));
            Msg::InvokeWrite { value: self.next_value }
        } else {
            rec.begin(pid, OpKind::Read, invoked);
            Msg::InvokeRead
        };
        busy.insert(key, (now, Instant::now()));
        let _span = trace::enter(Name::NetInject, op_id(pid, key));
        sub.inject(pid, KvMsg::new(key, inner));
    }

    /// Issue `target` ops (each client keeps `pipeline` in flight) and pump
    /// until all of them terminated.
    fn run<S>(
        &mut self,
        sub: &mut S,
        pipeline: usize,
        keys: u64,
        target: u64,
        gen: &mut dyn FnMut() -> (Key, bool),
        timed: bool,
    ) -> Counts
    where
        S: Substrate<KvMsg<Ts<L>>, KvEvent<Ts<L>>>,
    {
        let m0 = sub.metrics_snapshot();
        let t0 = sub.now();
        let mut c = Counts::default();
        'prime: for _ in 0..pipeline {
            for i in 0..self.clients.len() {
                if c.issued >= target {
                    break 'prime;
                }
                self.issue(sub, i, keys, gen);
                c.issued += 1;
            }
        }
        let first = self.clients[0];
        let mut idle = 0;
        let mut chunk_start = Instant::now();
        while c.ok + c.failed < c.issued {
            let pumped = {
                let _span = trace::enter(Name::NetPump, 0);
                sub.pump()
            };
            let (time, pid, outputs) = match pumped {
                Pumped::Quiescent => break,
                Pumped::Idle => {
                    idle += 1;
                    if idle >= MAX_IDLE_PUMPS {
                        break;
                    }
                    continue;
                }
                Pumped::Event { time, pid, outputs } => (time, pid, outputs),
            };
            idle = 0;
            for out in outputs {
                let Some(i) = pid.checked_sub(first).filter(|&i| i < self.clients.len()) else {
                    continue;
                };
                let Some((tick0, wall0)) = self.inflight[i].remove(&out.key) else { continue };
                self.recorders.entry(out.key).or_default().complete(pid, time, &out.inner);
                match &out.inner {
                    ClientEvent::WriteDone { .. } => {
                        c.ok += 1;
                        c.writes_done += 1;
                    }
                    ClientEvent::ReadDone { via_union, .. } => {
                        c.ok += 1;
                        c.reads += 1;
                        c.union_reads += u64::from(*via_union);
                    }
                    ClientEvent::ReadAborted | ClientEvent::ReadFailed { .. } => {
                        c.failed += 1;
                        c.reads += 1;
                        c.aborted_reads += 1;
                    }
                    ClientEvent::WriteFailed { .. } => c.failed += 1,
                }
                let ticks = time.saturating_sub(tick0);
                c.lat_tick_sum += ticks;
                if timed {
                    self.lat_ticks.push(ticks);
                    self.lat_ns.push(u64::try_from(wall0.elapsed().as_nanos()).unwrap_or(u64::MAX));
                    if (c.ok + c.failed) % CHUNK_OPS == 0 {
                        let now = Instant::now();
                        let secs = now.duration_since(chunk_start).as_secs_f64();
                        self.chunk_rates.push(CHUNK_OPS as f64 / secs);
                        chunk_start = now;
                    }
                }
                if c.issued < target {
                    self.issue(sub, i, keys, gen);
                    c.issued += 1;
                }
            }
        }
        let m = sub.metrics_snapshot().delta_since(&m0);
        c.ticks = sub.now().saturating_sub(t0);
        c.events = m.events_processed;
        c.msgs = m.messages_sent;
        c.frames = m.frames_sent;
        c
    }
}

fn disk_stats(disks: &[DiskHandle]) -> DiskStats {
    disks.iter().map(DiskHandle::stats).fold(DiskStats::default(), |mut acc, s| {
        acc.snapshots += s.snapshots;
        acc.appends += s.appends;
        acc.syncs += s.syncs;
        acc.crashes += s.crashes;
        acc
    })
}

fn disk_delta(after: DiskStats, before: DiskStats) -> DiskStats {
    DiskStats {
        snapshots: after.snapshots - before.snapshots,
        appends: after.appends - before.appends,
        syncs: after.syncs - before.syncs,
        crashes: after.crashes - before.crashes,
    }
}

/// Set up, drive and verify one round on an assembled store. `timed_ops`
/// of 0 stops after set-up (a set-up-only sample).
#[allow(clippy::too_many_arguments)]
fn drive<L, S>(
    spec: &KvSpec,
    seed: u64,
    sub: &mut S,
    sys: &Sys<L>,
    clients: Vec<ProcessId>,
    disks: &[DiskHandle],
    setup_start: Instant,
    timed_ops: u64,
    traced: bool,
) -> Round
where
    L: LabelingSystem,
    S: Substrate<KvMsg<Ts<L>>, KvEvent<Ts<L>>>,
{
    let mut load = Load::<L>::new(clients, spec.runtime);
    let mut rng = StdRng::seed_from_u64(seed);
    let (keys, write_pct) = (spec.keys, spec.write_pct);
    let mut mix = move || (rng.gen_range(0..keys), rng.gen_range(0..100u64) < write_pct);
    let mut round = Round::default();
    if spec.preload {
        let mut next = 0;
        let mut every_key = || {
            next += 1;
            ((next - 1) % keys, true)
        };
        round.setup_counts = load.run(sub, spec.pipeline, keys, keys, &mut every_key, false);
    }
    if spec.warmup_ops > 0 {
        let c = load.run(sub, spec.pipeline, keys, spec.warmup_ops, &mut mix, false);
        round.setup_counts.issued += c.issued;
        round.setup_counts.ok += c.ok;
        round.setup_counts.failed += c.failed;
    }
    round.setup_s = setup_start.elapsed().as_secs_f64();
    if timed_ops == 0 {
        sub.stop();
        return round;
    }

    let disk0 = disk_stats(disks);
    let alloc0 = alloc::process_counts();
    trace::set_enabled(traced);
    let t = Instant::now();
    round.counts = load.run(sub, spec.pipeline, keys, timed_ops, &mut mix, true);
    round.ops_s = t.elapsed().as_secs_f64();
    trace::set_enabled(false);
    let alloc1 = alloc::process_counts();
    round.allocs = (alloc1.0 - alloc0.0, alloc1.1 - alloc0.1);
    round.disk = disk_delta(disk_stats(disks), disk0);
    sub.stop();

    // The traced run times the checker once; the untraced run repeats the
    // deterministic check to sample its time.
    let verify_start = Instant::now();
    let more = |pass: usize| {
        !traced
            && pass < VERIFY_MAX_PASSES
            && (pass < VERIFY_MIN_PASSES || verify_start.elapsed() < VERIFY_MIN_TIME)
    };
    trace::set_enabled(traced);
    let mut pass = 0;
    while pass == 0 || more(pass) {
        let t = Instant::now();
        for rec in load.recorders.values() {
            let _span = trace::enter(Name::SpecCheck, 0);
            let ok = rec.check(sys).is_ok();
            if pass == 0 {
                round.ops_checked += rec.ops().len() as u64;
                round.bad_keys += usize::from(!ok);
            }
        }
        round.verify_s.push(t.elapsed().as_secs_f64());
        pass += 1;
    }
    trace::set_enabled(false);
    round.chunk_rates = std::mem::take(&mut load.chunk_rates);
    round.lat_ticks = std::mem::take(&mut load.lat_ticks);
    round.lat_ns = std::mem::take(&mut load.lat_ns);
    round
}

/// One round on a store built by the public `KvCluster` builder,
/// unchanged.
pub fn untraced_round(spec: &KvSpec, seed: u64, timed_ops: u64) -> Round {
    let setup = Instant::now();
    let mut builder = KvCluster::bounded(1)
        .clients(spec.clients)
        .seed(seed)
        .shards(spec.shards)
        .pipeline(spec.pipeline)
        .batch(spec.batch);
    if spec.durable {
        builder = builder.durable();
    }
    match spec.runtime {
        Backend::Sim => {
            let mut store = builder.build();
            let clients = (0..spec.clients).map(|i| store.client(i)).collect();
            let disks = disk_handles(store.disks.as_ref());
            let sys = store.sys.clone();
            drive(spec, seed, &mut store.sim, &sys, clients, &disks, setup, timed_ops, false)
        }
        Backend::Threaded => {
            let mut store = builder.build_threaded();
            let clients = (0..spec.clients).map(|i| store.client(i)).collect();
            let disks = disk_handles(store.disks.as_ref());
            let sys = store.sys.clone();
            drive(spec, seed, &mut store.sim, &sys, clients, &disks, setup, timed_ops, false)
        }
    }
}

fn disk_handles(set: Option<&DiskSet>) -> Vec<DiskHandle> {
    set.map(|d| (0..d.len()).map(|pid| d.get(pid)).collect()).unwrap_or_default()
}

type TracedB = TracedLabeling<BoundedLabeling>;
type TracedProcs = Vec<Box<dyn Automaton<KvMsg<Ts<TracedB>>, KvEvent<Ts<TracedB>>>>>;

/// One round on the same processes assembled from public constructors,
/// each wrapped for tracing: automata, labeling system and disks.
pub fn traced_round(spec: &KvSpec, seed: u64, timed_ops: u64) -> Round {
    let setup = Instant::now();
    let cfg = ClusterConfig::stabilizing(1);
    let sys: Sys<TracedB> = MwmrLabeling::new(TracedLabeling(BoundedLabeling::new(cfg.label_k())));
    let router = ShardRouter::new(cfg, spec.shards);
    // The same per-pid disk seeds `KvClusterBuilder::durable` derives.
    let disks: Vec<DiskHandle> = if spec.durable {
        (0..router.total_servers())
            .map(|pid| {
                let disk_seed =
                    (seed ^ 0xD15C_D15C) ^ (pid as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                DiskHandle::new(TracedStable(SimDisk::new(disk_seed)))
            })
            .collect()
    } else {
        Vec::new()
    };
    let mut procs: TracedProcs = Vec::new();
    for shard in 0..spec.shards {
        for pid in router.server_pids(shard) {
            let mut server = KvServer::new(sys.clone(), cfg);
            if let Some(disk) = disks.get(pid) {
                server = server.with_disk(disk.clone());
            }
            let inner: Box<dyn Automaton<_, _>> = if spec.shards == 1 {
                Box::new(server)
            } else {
                Box::new(ShardedServer::new(server, router, shard))
            };
            procs.push(Box::new(TracedAutomaton::new(inner, Role::Server)));
        }
    }
    for c in 0..spec.clients {
        let writer = cfg.client_pid(c) as u32;
        let client = KvClient::with_retry(
            sys.clone(),
            cfg,
            writer,
            ReaderOptions::default(),
            RetryPolicy::none(),
        )
        .with_pipeline(spec.pipeline);
        let inner: Box<dyn Automaton<_, _>> = if spec.shards == 1 {
            Box::new(client)
        } else {
            Box::new(ShardedClient::new(client, router))
        };
        procs.push(Box::new(TracedAutomaton::new(inner, Role::Client)));
    }
    let clients = (0..spec.clients).map(|i| router.client_pid(i)).collect();
    let config = spec.substrate_config(seed);
    match spec.runtime {
        Backend::Sim => {
            let mut sim = Simulation::from_procs(procs, &config);
            drive(spec, seed, &mut sim, &sys, clients, &disks, setup, timed_ops, true)
        }
        Backend::Threaded => {
            let mut threads = ThreadedCluster::spawn_with(procs, &config);
            drive(spec, seed, &mut threads, &sys, clients, &disks, setup, timed_ops, true)
        }
    }
}

/// Rounds of one run plus its set-up samples.
#[derive(Clone, Debug, Default)]
pub struct KvRun {
    /// Measured rounds.
    pub rounds: Vec<Round>,
    /// Set-up samples, seconds (see [`setup_sample`]).
    pub setups: Vec<f64>,
}

/// Minimum set-up samples per run (set-up time is reported as a median).
pub const MIN_SETUPS: usize = 9;

/// Set-ups shorter than this are sampled in batches lasting about as long.
const SETUP_BATCH: f64 = 10e-3;

/// One set-up sample, taken after a round whose own set-up took
/// `round_setup` seconds: that time itself when it is at least
/// [`SETUP_BATCH`], else the mean of a batch of `setup()` calls lasting about
/// as long, since shorter set-ups are noisy one at a time. Sampling after
/// every round spreads the samples over the whole run.
pub fn setup_sample(round_setup: f64, mut setup: impl FnMut() -> f64) -> f64 {
    if round_setup >= SETUP_BATCH {
        return round_setup;
    }
    let batch = (SETUP_BATCH / round_setup.max(1e-9)).ceil().min(10_000.0) as usize;
    (0..batch).map(|_| setup()).sum::<f64>() / batch as f64
}

/// Add fresh samples until there are [`MIN_SETUPS`].
pub fn top_up_setups(samples: &mut Vec<f64>, mut setup: impl FnMut() -> f64) {
    while samples.len() < MIN_SETUPS {
        let first = setup();
        samples.push(setup_sample(first, &mut setup));
    }
}

/// Seed of round `r` of a run seeded with `seed`.
pub fn round_seed(seed: u64, r: u64) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(r)
}

/// Untraced rounds until `budget` has passed (at least one), then the
/// set-up samples.
pub fn run_untraced(spec: &KvSpec, seed: u64, budget: Duration) -> KvRun {
    let start = Instant::now();
    let mut run = KvRun::default();
    let mut r = 0;
    while run.rounds.is_empty() || start.elapsed() < budget {
        let s = round_seed(seed, r);
        let round = untraced_round(spec, s, spec.round_ops);
        run.setups.push(setup_sample(round.setup_s, || untraced_round(spec, s, 0).setup_s));
        run.rounds.push(round);
        r += 1;
    }
    let s = round_seed(seed, r);
    top_up_setups(&mut run.setups, || untraced_round(spec, s, 0).setup_s);
    run
}

/// A traced run: each round runs untraced and then traced on the same
/// seed, so the pair gives both the tracing overhead and, on the
/// simulator, an exact replay check.
#[derive(Clone, Debug, Default)]
pub struct TracedRun {
    /// The untraced half of each pair.
    pub base: Vec<Round>,
    /// The traced half of each pair.
    pub traced: Vec<Round>,
    /// Pairs whose deterministic counters differ (simulator only).
    pub mismatches: usize,
}

/// Pairs of (untraced, traced) rounds until `budget` has passed.
pub fn run_traced(spec: &KvSpec, seed: u64, budget: Duration) -> TracedRun {
    trace::reset();
    let start = Instant::now();
    let mut run = TracedRun::default();
    let mut r = 0;
    while run.traced.is_empty() || start.elapsed() < budget {
        let s = round_seed(seed, r);
        let base = untraced_round(spec, s, spec.round_ops);
        let traced = traced_round(spec, s, spec.round_ops);
        if spec.runtime == Backend::Sim
            && (base.counts != traced.counts || base.setup_counts != traced.setup_counts)
        {
            eprintln!(
                "traced round {r} diverged: untraced {:?} traced {:?}",
                base.counts, traced.counts
            );
            run.mismatches += 1;
        }
        run.base.push(base);
        run.traced.push(traced);
        r += 1;
    }
    run
}

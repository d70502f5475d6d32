//! The scenario driver shared by tests, examples, benches and the
//! experiment harness: one [`Cluster`] assembles a protocol's automata on a
//! substrate, runs blocking-style operations, and records their history.
//!
//! A [`Protocol`] supplies only what differs between the paper's register,
//! the key-value store and the classical baselines: the automata in pid
//! order, how an operation is wrapped into a command for a key, and how the
//! key and the terminal [`ClientEvent`] are read back out of an output.
//! Everything else is written once here: substrate construction from one
//! [`SubstrateConfig`], invocation timing, the await-and-record loop, the
//! event→[`OpOutcome`] mapping, corruption and metrics.
//!
//! The driver is generic over the [`Substrate`] hosting the automata: the
//! default is the deterministic [`Simulation`] (all correctness work), and
//! the same scenarios run on the [`ThreadedCluster`] via
//! [`ClusterBuilder::build_threaded`], or on a runtime-chosen backend via
//! [`ClusterBuilder::backend`] + [`ClusterBuilder::build_any`].
//!
//! Surface that only some protocols have lives in impl blocks bounded by
//! the traits below, because Rust allows inherent methods only in the crate
//! that defines `Cluster`: single-register protocols get `write`/`read`,
//! [`Stabilizing`] protocols (the register and the store built on it) take
//! a retry policy, disks and transient corruption, and [`Store`] protocols
//! are keyed and sharded.
//!
//! ```
//! use sbft_core::cluster::RegisterCluster;
//!
//! let mut cluster = RegisterCluster::bounded(1).clients(2).seed(7).build();
//! let (w, r) = (cluster.client(0), cluster.client(1));
//! cluster.write(w, 10).unwrap();
//! assert_eq!(cluster.read(r).unwrap().value, 10);
//! assert!(cluster.check_history().is_ok());
//! ```

use std::collections::BTreeMap;
use std::fmt::Debug;

use rand::rngs::StdRng;
use sbft_labels::{BoundedLabeling, LabelingSystem, MwmrLabeling, UnboundedLabeling};
use sbft_net::corruption::FaultPlan;
use sbft_net::nemesis::{AutomatonFactory, NemesisRunner, NemesisSchedule};
use sbft_net::substrate::{AnySubstrate, Backend, Substrate, SubstrateConfig};
use sbft_net::{
    Automaton, BatchPolicy, CorruptionSeverity, DelayModel, NetMetrics, ProcessId, Simulation,
    ThreadedCluster,
};
use sbft_storage::DiskSet;

use crate::adversary::{random_message, ByzServer, ByzStrategy, ScriptedServer};
use crate::byzclient::{ByzClient, ByzReaderStrategy};
use crate::client::Client;
use crate::config::ClusterConfig;
use crate::messages::{ClientEvent, Msg, Value};
use crate::reader::ReaderOptions;
use crate::retry::RetryPolicy;
use crate::server::Server;
use crate::spec::{group_verdicts, GroupVerdict, HistoryRecorder, OpKind, RegularityError};
use crate::{Sys, Ts};

/// The simulator substrate for protocol `P`.
pub type SimSubstrate<P> = Simulation<<P as Protocol>::Msg, <P as Protocol>::Out>;
/// The threaded substrate for protocol `P`.
pub type ThreadedSubstrate<P> = ThreadedCluster<<P as Protocol>::Msg, <P as Protocol>::Out>;
/// The runtime-chosen substrate for protocol `P`.
pub type AnyClusterSubstrate<P> = AnySubstrate<<P as Protocol>::Msg, <P as Protocol>::Out>;

/// Boxed automata in pid order, ready to hand to a substrate.
pub type Automata<P> = Vec<Box<dyn Automaton<<P as Protocol>::Msg, <P as Protocol>::Out>>>;

/// A store's history: one recorder per key.
pub type Recorders<B> = BTreeMap<u64, HistoryRecorder<B>>;

/// The key type of protocol `P`'s commands: `()` for a single register.
pub type KeyOf<P> = <<P as Protocol>::History as Histories<<P as Protocol>::Base>>::Key;

/// Consecutive idle pumps (threaded runtime) before an operation is
/// declared stuck. With the default pump timeout this bounds a blocking
/// operation to a few wall-clock seconds; the experiments' own load
/// generators give up after the same count.
pub const MAX_IDLE_PUMPS: u32 = 50;

/// Why a blocking operation helper failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OpError {
    /// The read returned `abort` (servers in a transitory phase).
    Aborted,
    /// The event budget ran out or the simulation went quiet before the
    /// operation completed.
    Stuck,
}

/// Typed outcome of one driver-level operation under a [`RetryPolicy`] —
/// what chaos experiments tally instead of panicking on failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OpOutcome<T> {
    /// The operation completed; `T` carries its result.
    Ok(T),
    /// The read aborted and the policy allowed no retry.
    Aborted,
    /// The operation stalled: either its single attempt died on the
    /// deadline, or the driver's event budget ran dry with no terminal
    /// event (`attempts == 0`).
    TimedOut {
        /// Attempts consumed (0 when the driver itself gave up).
        attempts: u32,
    },
    /// Every attempt the retry policy allowed failed.
    Exhausted {
        /// Attempts consumed.
        attempts: u32,
    },
}

impl<T> OpOutcome<T> {
    /// Whether the operation completed.
    pub fn is_ok(&self) -> bool {
        matches!(self, OpOutcome::Ok(_))
    }

    /// The success payload, if any.
    pub fn ok(self) -> Option<T> {
        match self {
            OpOutcome::Ok(v) => Some(v),
            _ => None,
        }
    }

    /// Map the success payload, keeping any failure as it is.
    pub(crate) fn map<U>(self, f: impl FnOnce(T) -> U) -> OpOutcome<U> {
        match self {
            OpOutcome::Ok(v) => OpOutcome::Ok(f(v)),
            OpOutcome::Aborted => OpOutcome::Aborted,
            OpOutcome::TimedOut { attempts } => OpOutcome::TimedOut { attempts },
            OpOutcome::Exhausted { attempts } => OpOutcome::Exhausted { attempts },
        }
    }
}

/// Map a terminal failure event onto the outcome taxonomy: a lone attempt
/// dying on its deadline is a [`OpOutcome::TimedOut`]; anything that burned
/// through retries is [`OpOutcome::Exhausted`].
fn failure_outcome<T>(timed_out: bool, attempts: u32) -> OpOutcome<T> {
    if timed_out && attempts <= 1 {
        OpOutcome::TimedOut { attempts }
    } else {
        OpOutcome::Exhausted { attempts }
    }
}

/// The event→outcome mapping every protocol shares. Completions pass
/// through as `Ok(event)`; failures are classified.
fn outcome<T>(ev: ClientEvent<T>) -> OpOutcome<ClientEvent<T>> {
    match ev {
        ClientEvent::ReadAborted => OpOutcome::Aborted,
        ClientEvent::ReadFailed { timed_out, attempts }
        | ClientEvent::WriteFailed { timed_out, attempts, .. } => {
            failure_outcome(timed_out, attempts)
        }
        done => OpOutcome::Ok(done),
    }
}

/// The same mapping for the `Result` helpers: a read that ended on an
/// abort is [`OpError::Aborted`], every other failure [`OpError::Stuck`].
fn result<T>(ev: ClientEvent<T>) -> Result<ClientEvent<T>, OpError> {
    match ev {
        ClientEvent::ReadAborted | ClientEvent::ReadFailed { timed_out: false, .. } => {
            Err(OpError::Aborted)
        }
        ClientEvent::ReadFailed { .. } | ClientEvent::WriteFailed { .. } => Err(OpError::Stuck),
        done => Ok(done),
    }
}

/// The timestamp a completed write installed.
fn written<T: Debug>(ev: ClientEvent<T>) -> T {
    match ev {
        ClientEvent::WriteDone { ts, .. } => ts,
        other => unreachable!("write terminated by non-write event {other:?}"),
    }
}

/// What a completed read returned.
fn read_ok<B: LabelingSystem>(ev: ClientEvent<Ts<B>>) -> ReadOk<B> {
    match ev {
        ClientEvent::ReadDone { value, ts, via_union } => ReadOk { value, ts, via_union },
        other => unreachable!("read terminated by non-read event {other:?}"),
    }
}

/// A successful read.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReadOk<B: LabelingSystem> {
    /// The value read.
    pub value: Value,
    /// The timestamp witnessing it.
    pub ts: Ts<B>,
    /// Whether the union-graph fallback decided.
    pub via_union: bool,
}

/// An operation request: what [`Cluster::invoke`] starts and
/// [`Cluster::run_concurrent`] launches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// `write(value)`.
    Write(Value),
    /// `read()`.
    Read,
}

impl Op {
    /// The register command that starts this operation at a client.
    pub fn command<T>(self) -> Msg<T> {
        match self {
            Op::Write(value) => Msg::InvokeWrite { value },
            Op::Read => Msg::InvokeRead,
        }
    }
}

/// Where a protocol's recorded operations live: one recorder for a single
/// register, one per key for a store.
pub trait Histories<B: LabelingSystem>: Default {
    /// What selects a recorder: `()` for a single register.
    type Key: Copy;

    /// The recorder for `key`, created on first use.
    fn recorder(&mut self, key: Self::Key) -> &mut HistoryRecorder<B>;
}

impl<B: LabelingSystem> Histories<B> for HistoryRecorder<B> {
    type Key = ();

    fn recorder(&mut self, _key: ()) -> &mut HistoryRecorder<B> {
        self
    }
}

impl<B: LabelingSystem> Histories<B> for Recorders<B> {
    type Key = u64;

    fn recorder(&mut self, key: u64) -> &mut HistoryRecorder<B> {
        self.entry(key).or_default()
    }
}

/// What a protocol supplies to run under the shared driver.
///
/// Servers take pids `0..servers()` and the `clients` correct clients
/// follow, so client `i` is pid `servers() + i` for every protocol.
pub trait Protocol: Sized {
    /// Base labeling system; timestamps are [`Ts`]`<Self::Base>`.
    type Base: LabelingSystem;
    /// Wire messages, including the environment's commands.
    type Msg: Clone + Debug + Send + 'static;
    /// Client outputs: a [`ClientEvent`], possibly tagged with a key.
    type Out: Clone + Debug + Send + Into<ClientEvent<Ts<Self::Base>>> + 'static;
    /// The recorded history.
    type History: Histories<Self::Base>;

    /// Max substrate events per blocking operation, unless overridden
    /// through [`Cluster::op_budget`].
    const OP_BUDGET: u64 = 400_000;

    /// The MWMR labeling system the automata and the checker use.
    fn sys(&self) -> Sys<Self::Base>;

    /// Number of server processes.
    fn servers(&self) -> usize;

    /// Every automaton in pid order: the servers (durable ones on their
    /// `disks`), then `clients` clients with `retry`, then any extras.
    fn automata(
        &self,
        sys: &Sys<Self::Base>,
        clients: usize,
        retry: RetryPolicy,
        disks: Option<&DiskSet>,
    ) -> Automata<Self>;

    /// The command that starts `op` on `key` at a client.
    fn command(key: KeyOf<Self>, op: Op) -> Self::Msg;

    /// The key an output belongs to and the client event it carries.
    fn event(out: &Self::Out) -> (KeyOf<Self>, &ClientEvent<Ts<Self::Base>>);
}

/// The paper's protocol family — the register and the store built on it —
/// assembled from cluster arithmetic and a base labeling system. Its
/// clients honour a [`RetryPolicy`], its servers persist to disks, and any
/// of its state may be transiently corrupted.
pub trait Stabilizing: Protocol {
    /// The protocol over `cfg` and base labeling system `base`.
    fn with_config(cfg: ClusterConfig, base: Self::Base) -> Self;

    /// Cluster arithmetic (of one server group).
    fn cfg(&self) -> ClusterConfig;

    /// One garbage message for a transient fault to load on a channel.
    fn garbage(&self, sys: &Sys<Self::Base>, rng: &mut StdRng) -> Self::Msg;
}

/// A key-value store: commands carry a key, the history has one recorder
/// per key, keys may be hash-partitioned over several server groups
/// (shards), and clients may pipeline operations on distinct keys.
pub trait Store: Stabilizing<History = Recorders<<Self as Protocol>::Base>> {
    /// Partition the keyspace over `shards` server groups.
    fn set_shards(&mut self, shards: usize);

    /// Let every client keep up to `depth` operations in flight.
    fn set_pipeline(&mut self, depth: usize);

    /// The shard hosting `key`.
    fn shard_of(&self, key: u64) -> usize;
}

/// Builder for a [`Cluster`].
pub struct ClusterBuilder<P> {
    protocol: P,
    clients: usize,
    substrate: SubstrateConfig,
    backend: Backend,
    retry: RetryPolicy,
    durable: bool,
}

impl<P: Protocol> ClusterBuilder<P> {
    /// Start from a protocol, with two clients, seed 0, uniform 1..=10
    /// message delays and the simulator backend.
    pub fn new(protocol: P) -> Self {
        Self {
            protocol,
            clients: 2,
            substrate: SubstrateConfig::seeded(0).with_delay(DelayModel::uniform(1, 10)),
            backend: Backend::Sim,
            retry: RetryPolicy::none(),
            durable: false,
        }
    }

    /// Number of clients to attach (default 2).
    pub fn clients(mut self, n: usize) -> Self {
        self.clients = n.max(1);
        self
    }

    /// Substrate seed (disk seeds derive from it too).
    pub fn seed(mut self, seed: u64) -> Self {
        self.substrate.seed = seed;
        self
    }

    /// Message delay model (default uniform 1..=10; simulator only).
    pub fn delay(mut self, delay: DelayModel) -> Self {
        self.substrate.delay = delay;
        self
    }

    /// Select the runtime used by [`ClusterBuilder::build_any`]
    /// (default [`Backend::Sim`]).
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Longest one threaded `pump` blocks before reporting idle (threaded
    /// runtime only; default 100 ms). Open-loop drivers that pace arrivals
    /// between pumps want this close to the arrival interval.
    pub fn pump_timeout(mut self, timeout: std::time::Duration) -> Self {
        self.substrate.pump_timeout = timeout;
        self
    }

    fn assemble<S>(self, spawn: impl FnOnce(Automata<P>, &SubstrateConfig) -> S) -> Cluster<P, S> {
        let sys = self.protocol.sys();
        let disks = self
            .durable
            .then(|| DiskSet::sim(self.protocol.servers(), self.substrate.seed ^ 0xD15C_D15C));
        let automata = self.protocol.automata(&sys, self.clients, self.retry, disks.as_ref());
        Cluster {
            sim: spawn(automata, &self.substrate),
            protocol: self.protocol,
            sys,
            recorder: P::History::default(),
            op_budget: P::OP_BUDGET,
            disks,
            clients: self.clients,
        }
    }

    /// Assemble the cluster on the deterministic simulator.
    pub fn build(self) -> Cluster<P> {
        self.assemble(Simulation::from_procs)
    }

    /// Assemble the cluster on the threaded runtime.
    pub fn build_threaded(self) -> Cluster<P, ThreadedSubstrate<P>> {
        self.assemble(ThreadedCluster::spawn_with)
    }

    /// Assemble the cluster on the backend chosen with
    /// [`ClusterBuilder::backend`].
    pub fn build_any(self) -> Cluster<P, AnyClusterSubstrate<P>> {
        let backend = self.backend;
        self.assemble(|automata, config| AnySubstrate::spawn(backend, automata, config))
    }
}

impl<P: Stabilizing> ClusterBuilder<P> {
    /// Retry/timeout/backoff policy for every correct client (default
    /// [`RetryPolicy::none`]: single attempts, the historical behaviour).
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Give every honest server a simulated disk: applied writes persist,
    /// and a crashed server can be rebooted *from its own (possibly
    /// damaged) storage* — see [`Cluster::disks`]. Disk seeds derive from
    /// the cluster seed, so identical builds produce byte-identical disks
    /// on either backend.
    pub fn durable(mut self) -> Self {
        self.durable = true;
        self
    }
}

impl<P: Store> ClusterBuilder<P> {
    /// Hash-partition the keyspace over `s` independent `5f + 1` server
    /// groups (default 1 — the classic single-group store). Each shard is
    /// its own unit of placement and fault isolation.
    pub fn shards(mut self, s: usize) -> Self {
        self.protocol.set_shards(s);
        self
    }

    /// Let every client pipeline up to `depth` concurrent operations on
    /// distinct keys (default 1 — strictly sequential).
    pub fn pipeline(mut self, depth: usize) -> Self {
        self.protocol.set_pipeline(depth);
        self
    }

    /// Coalesce same-link messages into batched wire frames under
    /// `policy` (default [`BatchPolicy::disabled`]).
    pub fn batch(mut self, policy: BatchPolicy) -> Self {
        self.substrate.batch = policy;
        self
    }
}

/// A protocol's cluster (servers + clients + history) on a substrate `S` —
/// the simulator by default.
pub struct Cluster<P: Protocol, S = SimSubstrate<P>> {
    /// The underlying substrate (exposed for schedule steering when `S` is
    /// the simulator).
    pub sim: S,
    /// The protocol the cluster was built from.
    pub protocol: P,
    /// The MWMR labeling system in use.
    pub sys: Sys<P::Base>,
    /// Operation history (public so experiments can inspect records).
    pub recorder: P::History,
    /// Max substrate events per blocking operation.
    pub op_budget: u64,
    /// Per-server stable storage, when built with
    /// [`ClusterBuilder::durable`]. The driver holds these handles
    /// alongside the servers (works on both backends), so it can damage a
    /// crashed server's disk and rebuild the automaton from it — and
    /// parity tests can compare disk digests across substrates.
    pub disks: Option<DiskSet>,
    clients: usize,
}

/// Record one client output into the history; returns the closed op's
/// index when the output was terminal for an open op.
fn record<P: Protocol>(
    history: &mut P::History,
    time: u64,
    pid: ProcessId,
    out: &P::Out,
) -> Option<usize> {
    let (key, ev) = P::event(out);
    history.recorder(key).complete(pid, time, ev)
}

impl<P: Stabilizing> Cluster<P> {
    /// Builder over explicit cluster arithmetic and base labeling system.
    pub fn with_config(cfg: ClusterConfig, base: P::Base) -> ClusterBuilder<P> {
        ClusterBuilder::new(P::with_config(cfg, base))
    }
}

impl<P: Stabilizing<Base = BoundedLabeling>> Cluster<P> {
    /// Builder for the paper's protocol: bounded labels, `n = 5f + 1`.
    pub fn bounded(f: usize) -> ClusterBuilder<P> {
        Self::bounded_with_n(5 * f + 1, f)
    }

    /// Builder with explicit `n` (e.g. `n = 5f` for the lower bound).
    pub fn bounded_with_n(n: usize, f: usize) -> ClusterBuilder<P> {
        let cfg = ClusterConfig::with_n(n, f);
        Self::with_config(cfg, BoundedLabeling::new(cfg.label_k()))
    }
}

impl<P: Stabilizing<Base = UnboundedLabeling>> Cluster<P> {
    /// Builder for the same protocol over unbounded timestamps (used by
    /// E6 to isolate the effect of boundedness).
    pub fn unbounded(f: usize) -> ClusterBuilder<P> {
        Self::with_config(ClusterConfig::stabilizing(f), UnboundedLabeling)
    }
}

impl<P, S> Cluster<P, S>
where
    P: Protocol,
    S: Substrate<P::Msg, P::Out>,
{
    /// Pid of the `i`-th client (clients sit after every server).
    pub fn client(&self, i: usize) -> ProcessId {
        assert!(i < self.clients, "client {i} not attached");
        self.protocol.servers() + i
    }

    /// Which backend the cluster runs on.
    pub fn backend(&self) -> Backend {
        self.sim.backend()
    }

    /// Current time: virtual (simulator) or elapsed ticks (threads).
    pub fn now(&self) -> u64 {
        self.sim.now()
    }

    /// Snapshot of the network metrics so far.
    pub fn metrics(&self) -> NetMetrics {
        self.sim.metrics_snapshot()
    }

    /// Tear down the substrate (joins worker threads on the threaded
    /// backend; no-op beyond queue draining on the simulator).
    pub fn stop(&mut self) {
        self.sim.stop();
    }

    /// The instant to record for an operation invoked now. On the
    /// simulator this is `now + 1`: the command reaches the client only
    /// after at least one tick of channel delay, so an operation completing
    /// at time `t` strictly precedes one invoked at the same driver step.
    /// On wall-clock ticks the `+1` would claim the invocation happened
    /// later than it did and manufacture false precedence edges, so the
    /// threaded backend stamps `now` exactly — two stamps from the same
    /// monotonic clock order soundly without adjustment.
    fn invoke_time(&self) -> u64 {
        match self.sim.backend() {
            Backend::Sim => self.sim.now() + 1,
            Backend::Threaded => self.sim.now(),
        }
    }

    /// Non-blocking: start `op` on `key` at `client`, recording its
    /// invocation (with a write's intended value, so a read that returns
    /// the value of a write that never completes is still explained).
    pub fn invoke(&mut self, client: ProcessId, key: KeyOf<P>, op: Op) {
        let (kind, intent) = match op {
            Op::Write(value) => (OpKind::Write, Some(value)),
            Op::Read => (OpKind::Read, None),
        };
        let now = self.invoke_time();
        self.recorder.recorder(key).begin_with_intent(client, kind, now, intent);
        self.sim.inject(client, P::command(key, op));
    }

    /// Pump the substrate until `client` emits a terminal event (recording
    /// every event from every client along the way).
    pub fn await_client(&mut self, client: ProcessId) -> Result<P::Out, OpError> {
        let recorder = &mut self.recorder;
        self.sim
            .pump_until(self.op_budget, MAX_IDLE_PUMPS, &mut |time, pid, out| {
                record::<P>(recorder, time, pid, &out);
                (pid == client).then_some(out)
            })
            .ok_or(OpError::Stuck)
    }

    /// Blocking: run `op` on `key` to `client`'s terminal event.
    fn run_result(&mut self, client: ProcessId, key: KeyOf<P>, op: Op) -> OpResult<P> {
        self.invoke(client, key, op);
        result(self.await_client(client)?.into())
    }

    /// Blocking under the retry policy, reporting the typed outcome.
    fn run_outcome(&mut self, client: ProcessId, key: KeyOf<P>, op: Op) -> OpOutcomeOf<P> {
        self.invoke(client, key, op);
        match self.await_client(client) {
            Ok(out) => outcome(out.into()),
            Err(_) => OpOutcome::TimedOut { attempts: 0 },
        }
    }

    /// Let in-flight background traffic (late replies, forwards) drain.
    pub fn settle(&mut self, max_events: u64) {
        let recorder = &mut self.recorder;
        self.sim.pump_until(max_events, 1, &mut |time, pid, out| {
            record::<P>(recorder, time, pid, &out);
            None::<()>
        });
    }

    /// Record one externally-observed client output into the history — the
    /// spec hook for drivers that step the substrate *themselves* (the
    /// schedule explorer) instead of going through the pump helpers above.
    /// Returns the closed op's index when `out` was terminal for an open
    /// op, so callers can re-check regularity exactly when the history
    /// grew.
    pub fn observe_event(&mut self, time: u64, pid: ProcessId, out: &P::Out) -> Option<usize> {
        record::<P>(&mut self.recorder, time, pid, out)
    }
}

/// A blocking operation's terminal event, or why there was none.
type OpResult<P> = Result<ClientEvent<Ts<<P as Protocol>::Base>>, OpError>;
/// A blocking operation's terminal event under the outcome taxonomy.
type OpOutcomeOf<P> = OpOutcome<ClientEvent<Ts<<P as Protocol>::Base>>>;

/// Single-register protocols: the paper's register and the baselines.
impl<B, P, S> Cluster<P, S>
where
    B: LabelingSystem,
    P: Protocol<Base = B, History = HistoryRecorder<B>>,
    S: Substrate<P::Msg, P::Out>,
{
    /// Non-blocking: start a write on `client`.
    pub fn invoke_write(&mut self, client: ProcessId, value: Value) {
        self.invoke(client, (), Op::Write(value));
    }

    /// Non-blocking: start a read on `client` (timing as for writes).
    pub fn invoke_read(&mut self, client: ProcessId) {
        self.invoke(client, (), Op::Read);
    }

    /// Blocking write: returns the installed timestamp.
    pub fn write(&mut self, client: ProcessId, value: Value) -> Result<Ts<B>, OpError> {
        self.run_result(client, (), Op::Write(value)).map(written)
    }

    /// Blocking read.
    pub fn read(&mut self, client: ProcessId) -> Result<ReadOk<B>, OpError> {
        self.run_result(client, (), Op::Read).map(read_ok)
    }

    /// Blocking write under the retry policy, reporting the typed outcome
    /// instead of an error — the chaos-experiment surface.
    pub fn write_outcome(&mut self, client: ProcessId, value: Value) -> OpOutcome<Ts<B>> {
        self.run_outcome(client, (), Op::Write(value)).map(written)
    }

    /// Blocking read under the retry policy, reporting the typed outcome.
    pub fn read_outcome(&mut self, client: ProcessId) -> OpOutcome<ReadOk<B>> {
        self.run_outcome(client, (), Op::Read).map(read_ok)
    }

    /// Launch several operations concurrently (one per distinct client
    /// index) and run until each has terminated (or the budget runs out).
    /// Returns the terminal event per client index, in input order.
    pub fn run_concurrent(&mut self, ops: &[(usize, Op)]) -> Vec<Option<P::Out>> {
        let mut pending: BTreeMap<ProcessId, usize> = BTreeMap::new();
        for (slot, &(ci, op)) in ops.iter().enumerate() {
            let pid = self.client(ci);
            assert!(pending.insert(pid, slot).is_none(), "one concurrent op per client");
            self.invoke(pid, (), op);
        }
        let mut results: Vec<Option<P::Out>> = vec![None; ops.len()];
        let recorder = &mut self.recorder;
        self.sim.pump_until(self.op_budget, MAX_IDLE_PUMPS, &mut |time, pid, out| {
            record::<P>(recorder, time, pid, &out);
            if let Some(slot) = pending.remove(&pid) {
                results[slot] = Some(out);
            }
            pending.is_empty().then_some(())
        });
        results
    }

    /// Check the whole recorded history against MWMR regularity.
    pub fn check_history(&self) -> Result<(), Vec<RegularityError>> {
        self.recorder.check(&self.sys)
    }

    /// Check only the suffix from `t` (pseudo-stabilization verdict).
    pub fn check_history_from(&self, t: u64) -> Result<(), Vec<RegularityError>> {
        self.recorder.check_from(&self.sys, t)
    }
}

impl<P, S> Cluster<P, S>
where
    P: Stabilizing,
    S: Substrate<P::Msg, P::Out>,
{
    /// Cluster arithmetic (of one server group).
    pub fn cfg(&self) -> ClusterConfig {
        self.protocol.cfg()
    }

    /// Transient fault: corrupt the local state of **all** servers and
    /// clients and load garbage messages on every server-adjacent channel.
    pub fn corrupt_everything(&mut self, severity: CorruptionSeverity) {
        let plan = FaultPlan::total(self.protocol.servers() + self.clients, severity);
        self.apply_plan(&plan);
    }

    fn apply_plan(&mut self, plan: &FaultPlan) {
        let (protocol, sys) = (&self.protocol, &self.sys);
        self.sim.apply_fault(plan, &mut |rng| protocol.garbage(sys, rng));
    }
}

/// Keyed stores: blocking `put`/`get` and per-key verdicts.
impl<P, S> Cluster<P, S>
where
    P: Store,
    S: Substrate<P::Msg, P::Out>,
{
    /// Blocking `put(key, value)`.
    pub fn put(
        &mut self,
        client: ProcessId,
        key: u64,
        value: Value,
    ) -> Result<Ts<P::Base>, OpError> {
        self.run_result(client, key, Op::Write(value)).map(written)
    }

    /// Blocking `get(key)`.
    pub fn get(&mut self, client: ProcessId, key: u64) -> Result<Value, OpError> {
        self.run_result(client, key, Op::Read).map(|ev| read_ok::<P::Base>(ev).value)
    }

    /// Blocking `put` under the retry policy, reporting the typed outcome
    /// instead of an error.
    pub fn put_outcome(
        &mut self,
        client: ProcessId,
        key: u64,
        value: Value,
    ) -> OpOutcome<Ts<P::Base>> {
        self.run_outcome(client, key, Op::Write(value)).map(written)
    }

    /// Blocking `get` under the retry policy, reporting the typed outcome.
    pub fn get_outcome(&mut self, client: ProcessId, key: u64) -> OpOutcome<Value> {
        self.run_outcome(client, key, Op::Read).map(|ev| read_ok::<P::Base>(ev).value)
    }

    /// Check one key's history against MWMR regularity.
    pub fn check_key(&self, key: u64) -> Result<(), Vec<RegularityError>> {
        self.recorder.get(&key).map_or(Ok(()), |rec| rec.check(&self.sys))
    }

    /// Check every key's history; `Err` maps keys to their violations.
    pub fn check_all_histories(&self) -> Result<(), BTreeMap<u64, Vec<RegularityError>>> {
        self.check_all_from(0)
    }

    /// Check every key's suffix from `t` (post-stabilization verdict).
    pub fn check_all_from(&self, t: u64) -> Result<(), BTreeMap<u64, Vec<RegularityError>>> {
        let bad: BTreeMap<_, _> = self
            .recorder
            .iter()
            .filter_map(|(&key, rec)| rec.check_from(&self.sys, t).err().map(|errs| (key, errs)))
            .collect();
        if bad.is_empty() {
            Ok(())
        } else {
            Err(bad)
        }
    }

    /// Fold every key's regularity verdict by hosting shard: how many keys
    /// each shard served and how many violations its histories carry. A
    /// shard with zero violations is regular as a unit — fault isolation
    /// means a Byzantine or crashed neighbour shard cannot change that.
    pub fn check_per_shard(&self) -> BTreeMap<usize, GroupVerdict> {
        group_verdicts(
            self.recorder
                .iter()
                .map(|(&key, rec)| (self.protocol.shard_of(key), rec.check(&self.sys))),
        )
    }
}

/// The paper's MWMR regular register (Figures 1–3): `n` servers — honest,
/// Byzantine or scripted per seat — then the correct clients, then any
/// hostile (Byzantine) clients.
pub struct Register<B: LabelingSystem> {
    cfg: ClusterConfig,
    base: B,
    byz: BTreeMap<usize, ByzStrategy>,
    scripted: Vec<usize>,
    hostile: Vec<ByzReaderStrategy>,
    reader_opts: ReaderOptions,
}

/// A register cluster on a substrate `S` — the simulator by default.
pub type RegisterCluster<B, S = SimSubstrate<Register<B>>> = Cluster<Register<B>, S>;

impl<B: LabelingSystem> Protocol for Register<B> {
    type Base = B;
    type Msg = Msg<Ts<B>>;
    type Out = ClientEvent<Ts<B>>;
    type History = HistoryRecorder<B>;

    fn sys(&self) -> Sys<B> {
        MwmrLabeling::new(self.base.clone())
    }

    fn servers(&self) -> usize {
        self.cfg.n
    }

    fn automata(
        &self,
        sys: &Sys<B>,
        clients: usize,
        retry: RetryPolicy,
        disks: Option<&DiskSet>,
    ) -> Automata<Self> {
        let mut procs: Automata<Self> = Vec::new();
        for s in 0..self.cfg.n {
            if self.scripted.contains(&s) {
                procs.push(Box::new(ScriptedServer::<B>::new(sys.clone())));
            } else if let Some(&strategy) = self.byz.get(&s) {
                // Adversaries don't persist: their seat's disk stays empty
                // (or stale), which is itself a realistic recovery input.
                procs.push(Box::new(ByzServer::new(sys.clone(), self.cfg, strategy)));
            } else {
                let mut server = Server::new(sys.clone(), self.cfg);
                if let Some(disks) = disks {
                    server = server.with_disk(disks.get(s));
                }
                procs.push(Box::new(server));
            }
        }
        for c in 0..clients {
            let pid = self.cfg.client_pid(c);
            procs.push(Box::new(Client::with_retry(
                sys.clone(),
                self.cfg,
                pid as u32,
                self.reader_opts,
                retry,
            )));
        }
        for strategy in &self.hostile {
            procs.push(Box::new(ByzClient::new(sys.clone(), self.cfg, *strategy)));
        }
        procs
    }

    fn command(_key: (), op: Op) -> Self::Msg {
        op.command()
    }

    fn event(out: &Self::Out) -> ((), &Self::Out) {
        ((), out)
    }
}

impl<B: LabelingSystem> Stabilizing for Register<B> {
    fn with_config(cfg: ClusterConfig, base: B) -> Self {
        Self {
            cfg,
            base,
            byz: BTreeMap::new(),
            scripted: Vec::new(),
            hostile: Vec::new(),
            reader_opts: ReaderOptions::default(),
        }
    }

    fn cfg(&self) -> ClusterConfig {
        self.cfg
    }

    fn garbage(&self, sys: &Sys<B>, rng: &mut StdRng) -> Self::Msg {
        random_message::<B>(sys, &self.cfg, rng)
    }
}

impl<B: LabelingSystem> ClusterBuilder<Register<B>> {
    /// Make server `idx` Byzantine with the given strategy.
    pub fn byzantine(mut self, idx: usize, strategy: ByzStrategy) -> Self {
        assert!(idx < self.protocol.cfg.n);
        self.protocol.byz.insert(idx, strategy);
        self
    }

    /// Make the *last* `f` servers Byzantine with one strategy.
    pub fn byzantine_tail(mut self, strategy: ByzStrategy) -> Self {
        let cfg = self.protocol.cfg;
        for idx in cfg.n - cfg.f..cfg.n {
            self.protocol.byz.insert(idx, strategy);
        }
        self
    }

    /// Make server `idx` a fully scripted (driver-controlled) adversary.
    pub fn scripted(mut self, idx: usize) -> Self {
        assert!(idx < self.protocol.cfg.n);
        self.protocol.scripted.push(idx);
        self
    }

    /// Attach a Byzantine (hostile) client after the correct clients. Its
    /// pid is reported by [`Cluster::hostile_client`]; kick it with
    /// [`Cluster::kick_hostile`] to emit traffic volleys.
    pub fn hostile_client(mut self, strategy: ByzReaderStrategy) -> Self {
        self.protocol.hostile.push(strategy);
        self
    }

    /// Reader ablation switches.
    pub fn reader_options(mut self, opts: ReaderOptions) -> Self {
        self.protocol.reader_opts = opts;
        self
    }
}

impl<B, S> Cluster<Register<B>, S>
where
    B: LabelingSystem,
    S: Substrate<Msg<Ts<B>>, ClientEvent<Ts<B>>>,
{
    /// Transient fault hitting only the listed servers.
    pub fn corrupt_servers(&mut self, victims: &[usize], severity: CorruptionSeverity) {
        let plan = FaultPlan::targeting(victims, self.protocol.cfg.n + self.clients, severity);
        self.apply_plan(&plan);
    }

    /// Pid of the `i`-th hostile (Byzantine) client.
    pub fn hostile_client(&self, i: usize) -> ProcessId {
        assert!(i < self.protocol.hostile.len(), "hostile client {i} not attached");
        self.protocol.cfg.n + self.clients + i
    }

    /// Kick every hostile client once (each kick triggers a volley of
    /// hostile traffic; server replies re-trigger throttled volleys).
    pub fn kick_hostile(&mut self) {
        for i in 0..self.protocol.hostile.len() {
            let pid = self.hostile_client(i);
            self.sim.inject(pid, Msg::InvokeRead);
        }
    }

    /// Build a [`NemesisRunner`] wired to this cluster: honest restarts
    /// spawn fresh [`Server`]s, Byzantine seats spawn [`ByzServer`]s with
    /// `strat`, and corruption garbage is drawn from the cluster's
    /// labeling system. `byz_seats` is the initial seat set — it must
    /// match the seats the cluster was *built* with (e.g.
    /// [`ClusterBuilder::byzantine_tail`]), since the runner only tracks
    /// movement from there. The one place seat bookkeeping is defined,
    /// shared by the chaos soak, the mobile frontier, and tests.
    pub fn nemesis_runner(
        &self,
        schedule: NemesisSchedule,
        byz_seats: Vec<ProcessId>,
        strat: ByzStrategy,
    ) -> NemesisRunner<Msg<Ts<B>>, ClientEvent<Ts<B>>> {
        let cfg = self.protocol.cfg;
        let sys_h = self.sys.clone();
        let make_honest: AutomatonFactory<Msg<Ts<B>>, ClientEvent<Ts<B>>> = Box::new(move |_pid| {
            Box::new(Server::new(sys_h.clone(), cfg)) as Box<dyn Automaton<_, _>>
        });
        let sys_b = self.sys.clone();
        let make_byz: AutomatonFactory<Msg<Ts<B>>, ClientEvent<Ts<B>>> = Box::new(move |_pid| {
            Box::new(ByzServer::new(sys_b.clone(), cfg, strat)) as Box<dyn Automaton<_, _>>
        });
        let sys_g = self.sys.clone();
        let garbage =
            Box::new(move |rng: &mut rand::rngs::StdRng| random_message::<B>(&sys_g, &cfg, rng));
        let runner =
            NemesisRunner::new_multi(schedule, make_honest, Some(make_byz), byz_seats, garbage);
        match &self.disks {
            Some(disks) => {
                // Durable cluster: CrashRecover damages the server's own
                // disk and reboots it from whatever survives.
                let disks = disks.clone();
                let sys_r = self.sys.clone();
                runner.recovery(Box::new(move |pid, fault| {
                    let disk = disks.get(pid);
                    disk.crash(fault);
                    Box::new(Server::recover(sys_r.clone(), cfg, disk)) as Box<dyn Automaton<_, _>>
                }))
            }
            None => runner,
        }
    }
}

/// Simulator-only surface: typed state inspection requires in-process
/// access to the automata, which threads cannot share.
impl<B: LabelingSystem> RegisterCluster<B> {
    /// Typed access to an honest server's state (None for adversaries).
    pub fn server_state(&mut self, idx: usize) -> Option<&mut Server<B>> {
        self.sim.process_mut(idx).as_any_mut()?.downcast_mut::<Server<B>>()
    }

    /// Typed access to a scripted server (None otherwise).
    pub fn scripted_server(&mut self, idx: usize) -> Option<&mut ScriptedServer<B>> {
        self.sim.process_mut(idx).as_any_mut()?.downcast_mut::<ScriptedServer<B>>()
    }

    /// Typed access to a client's state.
    pub fn client_state(&mut self, i: usize) -> Option<&mut Client<B>> {
        let pid = self.client(i);
        self.sim.process_mut(pid).as_any_mut()?.downcast_mut::<Client<B>>()
    }

    /// Count of honest servers currently storing `(value, ts)` — the
    /// Lemma 2 propagation measurement of experiment E3.
    pub fn servers_storing(&mut self, value: Value, ts: &Ts<B>) -> usize {
        let n = self.protocol.cfg.n;
        (0..n)
            .filter(|&s| {
                self.server_state(s).map(|srv| srv.value == value && &srv.ts == ts).unwrap_or(false)
            })
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_write_read_roundtrip() {
        let mut c = RegisterCluster::bounded(1).seed(1).build();
        let w = c.client(0);
        let ts = c.write(w, 123).unwrap();
        let r = c.read(c.client(1)).unwrap();
        assert_eq!(r.value, 123);
        assert_eq!(r.ts, ts);
        assert!(!r.via_union);
        assert!(c.check_history().is_ok());
    }

    #[test]
    fn sequential_writes_read_latest() {
        let mut c = RegisterCluster::bounded(1).seed(2).build();
        let w = c.client(0);
        for v in 1..=10 {
            c.write(w, v).unwrap();
        }
        let r = c.read(c.client(1)).unwrap();
        assert_eq!(r.value, 10);
        assert!(c.check_history().is_ok());
    }

    #[test]
    fn lemma2_propagation_bound_holds() {
        let mut c = RegisterCluster::bounded(1).seed(3).build();
        let w = c.client(0);
        for v in 1..=5 {
            let ts = c.write(w, v).unwrap();
            let stored = c.servers_storing(v, &ts);
            assert!(
                stored >= c.cfg().propagation_bound(),
                "write {v}: {stored} servers < 3f+1 = {}",
                c.cfg().propagation_bound()
            );
        }
    }

    #[test]
    fn works_with_each_byzantine_strategy() {
        for (i, strat) in ByzStrategy::all().into_iter().enumerate() {
            let mut c =
                RegisterCluster::bounded(1).byzantine_tail(strat).seed(100 + i as u64).build();
            let w = c.client(0);
            c.write(w, 7).unwrap_or_else(|e| panic!("write under {strat:?}: {e:?}"));
            let r = c.read(c.client(1)).unwrap_or_else(|e| panic!("read under {strat:?}: {e:?}"));
            assert_eq!(r.value, 7, "value under {strat:?}");
            assert!(c.check_history().is_ok(), "history under {strat:?}");
        }
    }

    #[test]
    fn concurrent_write_and_read_satisfy_regularity() {
        let mut c = RegisterCluster::bounded(1).clients(3).seed(5).build();
        let w = c.client(0);
        c.write(w, 1).unwrap();
        let evs = c.run_concurrent(&[(0, Op::Write(2)), (1, Op::Read), (2, Op::Read)]);
        assert!(evs.iter().all(|e| e.is_some()), "all ops must terminate");
        c.settle(50_000);
        assert!(c.check_history().is_ok());
    }

    #[test]
    fn unbounded_base_works_fault_free() {
        let mut c = RegisterCluster::unbounded(1).seed(6).build();
        let w = c.client(0);
        c.write(w, 9).unwrap();
        assert_eq!(c.read(c.client(1)).unwrap().value, 9);
        assert!(c.check_history().is_ok());
    }

    #[test]
    fn stabilizes_after_total_corruption() {
        let mut c = RegisterCluster::bounded(1).seed(7).build();
        let w = c.client(0);
        c.write(w, 1).unwrap();
        c.corrupt_everything(CorruptionSeverity::Heavy);
        // Assumption 1: the first post-fault write runs to completion.
        c.write(w, 2).unwrap();
        let t_stable = c.now();
        // Every subsequent read must satisfy regularity.
        for _ in 0..5 {
            let r = c.read(c.client(1)).unwrap();
            assert!(r.value == 2 || r.value == 0 || r.value == 1 || r.value > 2);
        }
        assert!(
            c.check_history_from(t_stable).is_ok(),
            "suffix after first complete write must be regular"
        );
    }

    #[test]
    fn genesis_read_without_writes() {
        let mut c = RegisterCluster::bounded(1).seed(8).build();
        let r = c.read(c.client(0)).unwrap();
        assert_eq!(r.value, 0);
        assert!(c.check_history().is_ok());
    }

    #[test]
    fn threaded_backend_runs_the_same_scenario() {
        let mut c = RegisterCluster::bounded(1).clients(2).seed(21).build_threaded();
        assert_eq!(c.backend(), Backend::Threaded);
        let (w, r) = (c.client(0), c.client(1));
        for v in 1..=5 {
            c.write(w, v).unwrap();
        }
        assert_eq!(c.read(r).unwrap().value, 5);
        assert!(c.check_history().is_ok());
        let m = c.metrics();
        assert!(m.messages_sent > 0 && m.messages_delivered > 0, "{m:?}");
        c.stop();
    }

    #[test]
    fn backend_switch_selects_runtime() {
        for backend in [Backend::Sim, Backend::Threaded] {
            let mut c = RegisterCluster::bounded(1).seed(22).backend(backend).build_any();
            assert_eq!(c.backend(), backend);
            let w = c.client(0);
            c.write(w, 77).unwrap();
            assert_eq!(c.read(c.client(1)).unwrap().value, 77, "{backend:?}");
            assert!(c.check_history().is_ok(), "{backend:?}");
            c.stop();
        }
    }

    #[test]
    fn deadline_exhausts_write_when_quorum_is_gone() {
        let policy =
            RetryPolicy { max_attempts: 2, deadline: 200, backoff_base: 10, backoff_max: 40 };
        let mut c = RegisterCluster::bounded(1).seed(30).retry(policy).build();
        let w = c.client(0);
        c.write(w, 1).unwrap();
        // Two crashed servers leave 4 < n − f = 5 repliers: phase 1 stalls,
        // the deadline fires, and both attempts burn out.
        c.sim.crash(0);
        c.sim.crash(1);
        let out = c.write_outcome(w, 2);
        assert_eq!(out, OpOutcome::Exhausted { attempts: 2 }, "{out:?}");
        // The failed write is permanently concurrent, never a violation.
        assert!(c.check_history().is_ok());
    }

    #[test]
    fn retries_ride_out_a_healed_link_cut() {
        use sbft_net::LinkFault;
        let mut c = RegisterCluster::bounded(1).seed(31).retry(RetryPolicy::chaos()).build();
        let w = c.client(0);
        c.write(w, 1).unwrap();
        // Cut the writer off from two servers: no quorum, writes exhaust.
        for s in [0usize, 1] {
            c.sim.set_link_fault(w, s, Some(LinkFault::cut()));
            c.sim.set_link_fault(s, w, Some(LinkFault::cut()));
        }
        let out = c.write_outcome(w, 2);
        assert!(!out.is_ok(), "{out:?}");
        for s in [0usize, 1] {
            c.sim.set_link_fault(w, s, None);
            c.sim.set_link_fault(s, w, None);
        }
        let out = c.write_outcome(w, 3);
        assert!(out.is_ok(), "post-heal write must complete: {out:?}");
        let r = c.read_outcome(c.client(1));
        assert!(r.is_ok(), "{r:?}");
        c.settle(50_000);
        assert!(c.check_history().is_ok());
    }

    #[test]
    fn durable_cluster_recovers_server_from_damaged_disk() {
        use sbft_net::nemesis::{NemesisEvent, NemesisSchedule};
        use sbft_storage::DiskFault;
        let mut c = RegisterCluster::bounded(1).seed(40).durable().build();
        let w = c.client(0);
        for v in 1..=6 {
            c.write(w, v).unwrap();
        }
        let disks = c.disks.clone().expect("durable cluster has disks");
        assert!(disks.get(0).stats().appends > 0, "servers persist applied writes");
        let sched = NemesisSchedule::scripted(vec![
            (0, NemesisEvent::Crash(0)),
            (1, NemesisEvent::CrashRecover { pid: 0, fault: DiskFault::LostSuffix }),
        ]);
        let mut runner = c.nemesis_runner(sched, vec![], ByzStrategy::Silent);
        assert!(runner.fire_next(&mut c.sim));
        assert!(runner.fire_next(&mut c.sim));
        assert_eq!(runner.cures.len(), 1, "recovery counts as a cure");
        // The recovered server rejoined with the synced prefix of its
        // state; normal operation continues and regularity holds.
        let srv = c.server_state(0).expect("recovered server is honest");
        assert!(srv.writes_applied > 0, "state came back from disk, not genesis");
        c.write(w, 7).unwrap();
        assert_eq!(c.read(c.client(1)).unwrap().value, 7);
        assert!(c.check_history().is_ok());
    }

    #[test]
    fn durable_cluster_byte_identical_across_backends() {
        let digests = |threaded: bool| {
            let b = RegisterCluster::bounded(1).seed(41).durable();
            let mut c = if threaded {
                b.backend(Backend::Threaded).build_any()
            } else {
                b.backend(Backend::Sim).build_any()
            };
            let w = c.client(0);
            for v in 1..=9 {
                c.write(w, v).unwrap();
                // The slowest server's timestamp reply can outlive its
                // write and join the next write's quorum, changing the
                // label that write picks. Drain it so the labels, and so
                // the disk bytes, do not depend on thread timing.
                c.settle(200_000);
            }
            let d = c.disks.clone().unwrap().digests();
            c.stop();
            d
        };
        assert_eq!(digests(false), digests(true), "same writes, same bytes on disk");
    }

    #[test]
    fn threaded_backend_recovers_from_corruption() {
        let mut c = RegisterCluster::bounded(1).seed(23).build_threaded();
        let w = c.client(0);
        c.write(w, 1).unwrap();
        c.corrupt_everything(CorruptionSeverity::Heavy);
        // Assumption 1: first post-fault write completes; suffix regular.
        c.write(w, 2).unwrap();
        let t_stable = c.now();
        for _ in 0..3 {
            let _ = c.read(c.client(1));
        }
        assert!(c.check_history_from(t_stable).is_ok());
        c.stop();
    }

    #[test]
    fn hostile_clients_sit_after_the_correct_clients() {
        let mut c = RegisterCluster::bounded(1)
            .clients(2)
            .hostile_client(ByzReaderStrategy::all()[0])
            .seed(24)
            .build();
        assert_eq!(c.hostile_client(0), c.client(1) + 1);
        assert_eq!(c.sim.process_count(), c.cfg().n + 3);
        c.kick_hostile();
        let w = c.client(0);
        c.write(w, 5).unwrap();
        assert_eq!(c.read(c.client(1)).unwrap().value, 5);
    }
}

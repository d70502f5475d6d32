//! Traced wrappers around the public surfaces of the layers under test.
//!
//! Each wrapper forwards every call unchanged and records a span (or a
//! counter) around it, so a traced run executes exactly the same protocol
//! steps as an untraced one and only the timing differs.

use rand::rngs::StdRng;
use sbft_core::messages::Msg;
use sbft_explorer::{Scenario, ScenarioRun, StepResult};
use sbft_kv::{KvEvent, KvMsg};
use sbft_labels::LabelingSystem;
use sbft_net::{Automaton, Ctx, EventKey, ProcessId, ENV};
use sbft_storage::{DiskFault, DiskStats, Recovered, Stable};

use crate::trace::{self, Name};

/// Op id shared by every span of one kv operation: the client's pid and
/// the key, as carried in the [`KvMsg`].
pub fn op_id(client: ProcessId, key: u64) -> u64 {
    ((client as u64) << 40) | (key & ((1 << 40) - 1))
}

/// A labeling system that times `next()` and counts `precedes()`.
#[derive(Clone, Debug)]
pub struct TracedLabeling<L>(pub L);

impl<L: LabelingSystem> LabelingSystem for TracedLabeling<L> {
    type Label = L::Label;

    fn k(&self) -> usize {
        self.0.k()
    }

    fn precedes(&self, a: &Self::Label, b: &Self::Label) -> bool {
        trace::count_precedes();
        self.0.precedes(a, b)
    }

    fn next(&self, seen: &[Self::Label]) -> Self::Label {
        let _span = trace::enter(Name::LabelsNext, 0);
        self.0.next(seen)
    }

    fn sanitize(&self, raw: Self::Label) -> Self::Label {
        self.0.sanitize(raw)
    }

    fn genesis(&self) -> Self::Label {
        self.0.genesis()
    }

    fn arbitrary(&self, rng: &mut StdRng) -> Self::Label {
        self.0.arbitrary(rng)
    }
}

/// A stable store that times every write-path call and counts the bytes
/// handed to it.
pub struct TracedStable<S>(pub S);

impl<S: Stable> Stable for TracedStable<S> {
    fn put_snapshot(&mut self, payload: &[u8]) {
        let _span = trace::enter(Name::StorageSnapshot, 0);
        trace::add_storage_bytes(payload.len() as u64);
        self.0.put_snapshot(payload);
    }

    fn append(&mut self, payload: &[u8]) {
        let _span = trace::enter(Name::StorageAppend, 0);
        trace::add_storage_bytes(payload.len() as u64);
        self.0.append(payload);
    }

    fn sync(&mut self) {
        let _span = trace::enter(Name::StorageSync, 0);
        self.0.sync();
    }

    fn crash(&mut self, fault: DiskFault) {
        self.0.crash(fault);
    }

    fn load(&self) -> Recovered {
        self.0.load()
    }

    fn digest(&self) -> u64 {
        self.0.digest()
    }

    fn stats(&self) -> DiskStats {
        self.0.stats()
    }
}

/// Which side of the protocol a traced automaton plays.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// A storage server.
    Server,
    /// A client (reader/writer).
    Client,
}

type KvAuto<T> = Box<dyn Automaton<KvMsg<T>, KvEvent<T>>>;

/// An automaton whose handlers run inside a span named by role and
/// message kind.
pub struct TracedAutomaton<T> {
    inner: KvAuto<T>,
    role: Role,
}

impl<T> TracedAutomaton<T> {
    /// Wrap `inner`, playing `role`.
    pub fn new(inner: KvAuto<T>, role: Role) -> Self {
        Self { inner, role }
    }
}

fn span_name<T>(role: Role, msg: &Msg<T>) -> Name {
    match (role, msg) {
        (Role::Server, Msg::GetTs) => Name::ServerGetTs,
        (Role::Server, Msg::Write { .. }) => Name::ServerWrite,
        (Role::Server, Msg::Read { .. }) => Name::ServerRead,
        (Role::Server, Msg::Flush { .. }) => Name::ServerFlush,
        (Role::Server, Msg::CompleteRead { .. }) => Name::ServerCompleteRead,
        (Role::Server, _) => Name::ServerOther,
        (Role::Client, Msg::TsReply { .. }) => Name::ClientTsReply,
        (Role::Client, Msg::WriteAck { .. }) => Name::ClientWriteAck,
        (Role::Client, Msg::Reply { .. }) => Name::ClientReply,
        (Role::Client, Msg::FlushAck { .. }) => Name::ClientFlushAck,
        (Role::Client, Msg::InvokeWrite { .. } | Msg::InvokeRead) => Name::ClientInvoke,
        (Role::Client, _) => Name::ClientOther,
    }
}

impl<T: Send> Automaton<KvMsg<T>, KvEvent<T>> for TracedAutomaton<T> {
    fn on_start(&mut self, ctx: &mut Ctx<'_, KvMsg<T>, KvEvent<T>>) {
        self.inner.on_start(ctx);
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: KvMsg<T>,
        ctx: &mut Ctx<'_, KvMsg<T>, KvEvent<T>>,
    ) {
        let client = match self.role {
            Role::Server if from != ENV => from,
            _ => ctx.me,
        };
        let _span = trace::enter(span_name(self.role, &msg.inner), op_id(client, msg.key));
        self.inner.on_message(from, msg, ctx);
    }

    fn on_timer(&mut self, id: u64, ctx: &mut Ctx<'_, KvMsg<T>, KvEvent<T>>) {
        let name = match self.role {
            Role::Server => Name::ServerTimer,
            Role::Client => Name::ClientTimer,
        };
        let _span = trace::enter(name, 0);
        self.inner.on_timer(id, ctx);
    }

    fn corrupt(&mut self, rng: &mut StdRng) {
        self.inner.corrupt(rng);
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        self.inner.as_any_mut()
    }

    fn state_digest(&self) -> Option<u64> {
        self.inner.state_digest()
    }
}

/// A scenario whose runs are traced.
pub struct TracedScenario<S>(pub S);

impl<S: Scenario> Scenario for TracedScenario<S> {
    type Run = TracedScenarioRun<S::Run>;

    fn name(&self) -> &str {
        self.0.name()
    }

    fn start(&self) -> Self::Run {
        let _span = trace::enter(Name::ExplorerStart, 0);
        TracedScenarioRun(self.0.start())
    }
}

/// One traced scenario run.
pub struct TracedScenarioRun<R>(R);

impl<R: ScenarioRun> ScenarioRun for TracedScenarioRun<R> {
    fn enabled(&self) -> Vec<EventKey> {
        let _span = trace::enter(Name::ExplorerEnabled, 0);
        self.0.enabled()
    }

    fn step(&mut self, key: EventKey) -> StepResult {
        let _span = trace::enter(Name::ExplorerStep, 0);
        self.0.step(key)
    }

    fn finish(&mut self, bounded: bool) -> Option<String> {
        let _span = trace::enter(Name::ExplorerFinish, 0);
        self.0.finish(bounded)
    }

    fn state_digest(&self) -> Option<u64> {
        let _span = trace::enter(Name::ExplorerDigest, 0);
        self.0.state_digest()
    }
}

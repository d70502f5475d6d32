//! A crash-only majority register in the style of Attiya–Bar-Noy–Dolev:
//! `n = 2f + 1` servers tolerate `f` *crash* faults, no Byzantine defence.
//!
//! The cheapest comparator in the quorum-cost experiment (E7): writes are
//! two phases against majorities, reads one phase returning the maximal
//! timestamp (trusting every reply — a single lying server breaks it,
//! which is the point of the comparison). Regular semantics (no write-back
//! phase).

use std::collections::BTreeMap;

use sbft_core::cluster::{Automata, Cluster, Op, Protocol, SimSubstrate};
use sbft_core::messages::{ClientEvent, Msg, ValTs, Value};
use sbft_core::spec::HistoryRecorder;
use sbft_core::RetryPolicy;
use sbft_labels::{LabelingSystem, MwmrLabeling, UnboundedLabeling, WriterId};
use sbft_net::{Automaton, Ctx, ProcessId, ENV};
use sbft_storage::DiskSet;

use crate::{USys, UTs};

type BMsg = Msg<UTs>;
type BEvent = ClientEvent<UTs>;

/// An ABD server: adopt-if-greater, reply to reads.
pub struct AbdServer {
    sys: USys,
    value: Value,
    ts: UTs,
}

impl AbdServer {
    /// Clean server.
    pub fn new() -> Self {
        let sys = MwmrLabeling::new(UnboundedLabeling);
        let ts = sys.genesis();
        Self { sys, value: 0, ts }
    }
}

impl Default for AbdServer {
    fn default() -> Self {
        Self::new()
    }
}

impl Automaton<BMsg, BEvent> for AbdServer {
    fn on_message(&mut self, from: ProcessId, msg: BMsg, ctx: &mut Ctx<'_, BMsg, BEvent>) {
        if from == ENV {
            return;
        }
        match msg {
            Msg::GetTs => ctx.send(from, Msg::TsReply { ts: self.ts.clone() }),
            Msg::Write { value, ts } => {
                if self.sys.precedes(&self.ts, &ts) {
                    self.value = value;
                    self.ts = ts.clone();
                }
                ctx.send(from, Msg::WriteAck { ts, ack: true });
            }
            Msg::Read { label } => ctx.send(
                from,
                Msg::Reply { value: self.value, ts: self.ts.clone(), old: [].into(), label },
            ),
            _ => {}
        }
    }
}

enum Phase {
    Idle,
    Collect { value: Value, got: BTreeMap<ProcessId, UTs> },
    WaitAcks { value: Value, ts: UTs, acked: BTreeMap<ProcessId, ()> },
    Reading { label: u32, replies: BTreeMap<ProcessId, ValTs<UTs>> },
}

/// An ABD client.
pub struct AbdClient {
    sys: USys,
    n: usize,
    majority: usize,
    writer_id: WriterId,
    seq: u32,
    phase: Phase,
}

impl AbdClient {
    /// Client for an `n`-server majority system.
    pub fn new(n: usize, writer_id: WriterId) -> Self {
        Self {
            sys: MwmrLabeling::new(UnboundedLabeling),
            n,
            majority: n / 2 + 1,
            writer_id,
            seq: 0,
            phase: Phase::Idle,
        }
    }
}

impl Automaton<BMsg, BEvent> for AbdClient {
    fn on_message(&mut self, from: ProcessId, msg: BMsg, ctx: &mut Ctx<'_, BMsg, BEvent>) {
        match msg {
            Msg::InvokeWrite { value } if from == ENV => {
                if matches!(self.phase, Phase::Idle) {
                    self.phase = Phase::Collect { value, got: BTreeMap::new() };
                    ctx.broadcast(0..self.n, Msg::GetTs);
                }
            }
            Msg::InvokeRead if from == ENV => {
                if matches!(self.phase, Phase::Idle) {
                    self.seq = self.seq.wrapping_add(1);
                    self.phase = Phase::Reading { label: self.seq, replies: BTreeMap::new() };
                    ctx.broadcast(0..self.n, Msg::Read { label: self.seq });
                }
            }
            Msg::TsReply { ts } => {
                if let Phase::Collect { value, got } = &mut self.phase {
                    if from < self.n {
                        got.insert(from, ts);
                        if got.len() >= self.majority {
                            let seen: Vec<UTs> = got.values().cloned().collect();
                            let new_ts = self.sys.next_for(self.writer_id, &seen);
                            let value = *value;
                            self.phase = Phase::WaitAcks {
                                value,
                                ts: new_ts.clone(),
                                acked: BTreeMap::new(),
                            };
                            ctx.broadcast(0..self.n, Msg::Write { value, ts: new_ts });
                        }
                    }
                }
            }
            Msg::WriteAck { ts, .. } => {
                if let Phase::WaitAcks { value, ts: cur, acked } = &mut self.phase {
                    if from < self.n && &ts == cur {
                        acked.insert(from, ());
                        if acked.len() >= self.majority {
                            let ev = ClientEvent::WriteDone { value: *value, ts: cur.clone() };
                            self.phase = Phase::Idle;
                            ctx.output(ev);
                        }
                    }
                }
            }
            Msg::Reply { value, ts, label, .. } => {
                let mut decided = None;
                if let Phase::Reading { label: cur, replies } = &mut self.phase {
                    if from < self.n && label == *cur {
                        replies.insert(from, (value, ts));
                        if replies.len() >= self.majority {
                            // Trust every reply: maximal timestamp wins.
                            let best = replies
                                .values()
                                .max_by(|a, b| a.1.cmp(&b.1))
                                .cloned()
                                .expect("majority is non-empty");
                            decided = Some(best);
                        }
                    }
                }
                if let Some((v, t)) = decided {
                    self.phase = Phase::Idle;
                    ctx.output(ClientEvent::ReadDone { value: v, ts: t, via_union: false });
                }
            }
            _ => {}
        }
    }
}

/// The ABD register: `n = 2f + 1` [`AbdServer`]s, then the clients.
pub struct Abd {
    n: usize,
}

/// An ABD cluster on a substrate `S` — the simulator by default.
pub type AbdCluster<S = SimSubstrate<Abd>> = Cluster<Abd, S>;

impl Abd {
    /// A majority system tolerating `f` crashes.
    pub fn new(f: usize) -> Self {
        Self { n: 2 * f + 1 }
    }
}

impl Protocol for Abd {
    type Base = UnboundedLabeling;
    type Msg = BMsg;
    type Out = BEvent;
    type History = HistoryRecorder<UnboundedLabeling>;

    const OP_BUDGET: u64 = crate::OP_BUDGET;

    fn sys(&self) -> USys {
        MwmrLabeling::new(UnboundedLabeling)
    }

    fn servers(&self) -> usize {
        self.n
    }

    fn automata(
        &self,
        _sys: &USys,
        clients: usize,
        _retry: RetryPolicy,
        _disks: Option<&DiskSet>,
    ) -> Automata<Self> {
        let servers = (0..self.n).map(|_| Box::new(AbdServer::new()) as Box<dyn Automaton<_, _>>);
        let clients = (0..clients).map(|c| {
            Box::new(AbdClient::new(self.n, (self.n + c) as u32)) as Box<dyn Automaton<_, _>>
        });
        servers.chain(clients).collect()
    }

    fn command(_key: (), op: Op) -> BMsg {
        op.command()
    }

    fn event(out: &BEvent) -> ((), &BEvent) {
        ((), out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbft_core::cluster::ClusterBuilder;

    fn cluster(f: usize, seed: u64) -> AbdCluster {
        ClusterBuilder::new(Abd::new(f)).seed(seed).build()
    }

    #[test]
    fn clean_roundtrip() {
        let mut c = cluster(1, 1);
        let w = c.client(0);
        c.write(w, 9).unwrap();
        assert_eq!(c.read(c.client(1)).unwrap().value, 9);
        assert!(c.check_history().is_ok());
    }

    #[test]
    fn survives_f_crashes() {
        let mut c = cluster(1, 2);
        let w = c.client(0);
        c.write(w, 1).unwrap();
        c.sim.crash(0);
        c.write(w, 2).unwrap();
        assert_eq!(c.read(c.client(1)).unwrap().value, 2);
        assert!(c.check_history().is_ok());
    }

    #[test]
    fn sequential_writes_read_latest() {
        let mut c = cluster(2, 3);
        let w = c.client(0);
        for v in 1..=6 {
            c.write(w, v).unwrap();
        }
        assert_eq!(c.read(c.client(1)).unwrap().value, 6);
        assert!(c.check_history().is_ok());
    }

    #[test]
    fn clients_follow_the_majority_system() {
        // n = 2f + 1 is below the n > 3f floor of `ClusterConfig`: the
        // protocol does its own pid arithmetic.
        let c = ClusterBuilder::new(Abd::new(2)).clients(3).build();
        assert_eq!(c.protocol.servers(), 5);
        assert_eq!((c.client(0), c.client(2)), (5, 7));
        assert_eq!(c.sim.process_count(), 8);
        assert_eq!(c.op_budget, 200_000);
    }

    #[test]
    fn no_byzantine_defence_by_design() {
        // ABD reads trust the max timestamp, so a single bad server breaks
        // the register — the contrast E7 draws. State poisoning is
        // exercised through the KLMW baseline, which exposes its server
        // state; ABD only demonstrates crash handling.
        let mut c = cluster(1, 4);
        let w = c.client(0);
        c.write(w, 1).unwrap();
        assert_eq!(c.read(c.client(1)).unwrap().value, 1);
    }
}

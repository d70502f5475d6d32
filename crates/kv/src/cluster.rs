//! The store protocol under the shared driver: blocking `put`/`get` with
//! per-key history recording.
//!
//! [`KvCluster`] is [`sbft_core::cluster::Cluster`] over [`Kv`], so it runs
//! on the deterministic simulator by default, on real threads via
//! `build_threaded`, or on a runtime choice via `backend` + `build_any`.
//!
//! ```
//! use sbft_kv::KvCluster;
//!
//! let mut store = KvCluster::bounded(1).seed(3).build();
//! let c = store.client(0);
//! store.put(c, 10, 111).unwrap();
//! store.put(c, 20, 222).unwrap();
//! assert_eq!(store.get(c, 10).unwrap(), 111);
//! assert_eq!(store.get(c, 20).unwrap(), 222);
//! assert!(store.check_all_histories().is_ok());
//! ```

use rand::rngs::StdRng;
use rand::Rng;
use sbft_core::adversary::random_message;
use sbft_core::cluster::{Automata, Cluster, Op, Protocol, Recorders, SimSubstrate};
use sbft_core::cluster::{Stabilizing, Store};
use sbft_core::config::ClusterConfig;
use sbft_core::messages::ClientEvent;
use sbft_core::reader::ReaderOptions;
use sbft_core::{RetryPolicy, Sys, Ts};
use sbft_labels::{LabelingSystem, MwmrLabeling};
use sbft_storage::DiskSet;

use crate::client::KvClient;
use crate::messages::{Key, KvEvent, KvMsg};
use crate::server::KvServer;
use crate::shard::{ShardRouter, ShardedClient, ShardedServer};

/// The key-value store: every key an independent register of the paper's
/// protocol, over one `5f + 1` server group or several (shards).
pub struct Kv<B: LabelingSystem> {
    cfg: ClusterConfig,
    base: B,
    /// Key → shard placement (one shard unless the builder asked for more).
    pub router: ShardRouter,
    pipeline: usize,
}

/// A key-value store on a substrate `S` — the simulator by default.
pub type KvCluster<B, S = SimSubstrate<Kv<B>>> = Cluster<Kv<B>, S>;

impl<B: LabelingSystem> Kv<B> {
    fn client_automaton(&self, sys: &Sys<B>, c: usize, retry: RetryPolicy) -> KvClient<B> {
        // The client's writer identity n + c is unique per client,
        // independent of the shard count.
        let writer = self.cfg.client_pid(c) as u32;
        KvClient::with_retry(sys.clone(), self.cfg, writer, ReaderOptions::default(), retry)
            .with_pipeline(self.pipeline)
    }
}

impl<B: LabelingSystem> Protocol for Kv<B> {
    type Base = B;
    type Msg = KvMsg<Ts<B>>;
    type Out = KvEvent<Ts<B>>;
    type History = Recorders<B>;

    fn sys(&self) -> Sys<B> {
        MwmrLabeling::new(self.base.clone())
    }

    fn servers(&self) -> usize {
        self.router.total_servers()
    }

    fn automata(
        &self,
        sys: &Sys<B>,
        clients: usize,
        retry: RetryPolicy,
        disks: Option<&DiskSet>,
    ) -> Automata<Self> {
        let mut procs: Automata<Self> = Vec::new();
        let server = |pid| {
            let server = KvServer::new(sys.clone(), self.cfg);
            match disks {
                Some(d) => server.with_disk(d.get(pid)),
                None => server,
            }
        };
        if self.router.shards() == 1 {
            // The classic single-group store: unwrapped automata, exactly
            // the layout every pre-sharding experiment runs on.
            for pid in 0..self.cfg.n {
                procs.push(Box::new(server(pid)));
            }
            for c in 0..clients {
                procs.push(Box::new(self.client_automaton(sys, c, retry)));
            }
        } else {
            for shard in 0..self.router.shards() {
                for pid in self.router.server_pids(shard) {
                    procs.push(Box::new(ShardedServer::new(server(pid), self.router, shard)));
                }
            }
            for c in 0..clients {
                let inner = self.client_automaton(sys, c, retry);
                procs.push(Box::new(ShardedClient::new(inner, self.router)));
            }
        }
        procs
    }

    fn command(key: Key, op: Op) -> Self::Msg {
        KvMsg::new(key, op.command())
    }

    fn event(out: &Self::Out) -> (Key, &ClientEvent<Ts<B>>) {
        (out.key, &out.inner)
    }
}

impl<B: LabelingSystem> Stabilizing for Kv<B> {
    fn with_config(cfg: ClusterConfig, base: B) -> Self {
        Self { cfg, base, router: ShardRouter::new(cfg, 1), pipeline: 1 }
    }

    fn cfg(&self) -> ClusterConfig {
        self.cfg
    }

    fn garbage(&self, sys: &Sys<B>, rng: &mut StdRng) -> Self::Msg {
        let key = rng.gen_range(0..4u64);
        KvMsg::new(key, random_message::<B>(sys, &self.cfg, rng))
    }
}

impl<B: LabelingSystem> Store for Kv<B> {
    fn set_shards(&mut self, shards: usize) {
        self.router = ShardRouter::new(self.cfg, shards);
    }

    fn set_pipeline(&mut self, depth: usize) {
        self.pipeline = depth.max(1);
    }

    fn shard_of(&self, key: Key) -> usize {
        self.router.shard_of(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbft_core::cluster::OpOutcome;
    use sbft_net::{Backend, CorruptionSeverity, Substrate};

    #[test]
    fn independent_keys_round_trip() {
        let mut store = KvCluster::bounded(1).seed(1).build();
        let c = store.client(0);
        for key in 0..5u64 {
            store.put(c, key, 100 + key).unwrap();
        }
        for key in 0..5u64 {
            assert_eq!(store.get(c, key).unwrap(), 100 + key);
        }
        assert!(store.check_all_histories().is_ok());
    }

    #[test]
    fn two_clients_share_the_store() {
        let mut store = KvCluster::bounded(1).clients(2).seed(2).build();
        let (a, b) = (store.client(0), store.client(1));
        store.put(a, 1, 11).unwrap();
        store.put(b, 2, 22).unwrap();
        assert_eq!(store.get(b, 1).unwrap(), 11);
        assert_eq!(store.get(a, 2).unwrap(), 22);
        assert!(store.check_all_histories().is_ok());
    }

    #[test]
    fn overwrites_read_latest_per_key() {
        let mut store = KvCluster::bounded(1).seed(3).build();
        let c = store.client(0);
        for v in 1..=5 {
            store.put(c, 9, v).unwrap();
        }
        assert_eq!(store.get(c, 9).unwrap(), 5);
        assert!(store.check_key(9).is_ok());
    }

    #[test]
    fn whole_store_recovers_from_total_corruption() {
        let mut store = KvCluster::bounded(1).seed(4).build();
        let c = store.client(0);
        store.put(c, 1, 11).unwrap();
        store.put(c, 2, 22).unwrap();
        store.corrupt_everything(CorruptionSeverity::Heavy);
        // Assumption 1, per key: one complete write re-stabilizes a key.
        store.put(c, 1, 111).unwrap();
        store.put(c, 2, 222).unwrap();
        let stable = store.now();
        assert_eq!(store.get(c, 1).unwrap(), 111);
        assert_eq!(store.get(c, 2).unwrap(), 222);
        assert!(store.check_all_from(stable).is_ok());
    }

    #[test]
    fn unwritten_key_reads_genesis() {
        let mut store = KvCluster::bounded(1).seed(5).build();
        let c = store.client(0);
        assert_eq!(store.get(c, 777).unwrap(), 0);
        assert!(store.check_key(777).is_ok());
    }

    #[test]
    fn retries_ride_out_a_healed_link_cut() {
        use sbft_net::LinkFault;
        let mut store = KvCluster::bounded(1).seed(8).retry(RetryPolicy::chaos()).build();
        let c = store.client(0);
        store.put(c, 1, 11).unwrap();
        // Cut the client off from two servers: no quorum, puts exhaust.
        for s in [0usize, 1] {
            store.sim.set_link_fault(c, s, Some(LinkFault::cut()));
            store.sim.set_link_fault(s, c, Some(LinkFault::cut()));
        }
        let out = store.put_outcome(c, 1, 22);
        assert!(!out.is_ok(), "{out:?}");
        for s in [0usize, 1] {
            store.sim.set_link_fault(c, s, None);
            store.sim.set_link_fault(s, c, None);
        }
        assert!(store.put_outcome(c, 1, 33).is_ok());
        let got = store.get_outcome(c, 1);
        assert_eq!(got, OpOutcome::Ok(33), "{got:?}");
        assert!(store.check_all_histories().is_ok());
    }

    #[test]
    fn durable_store_reboots_a_node_from_its_damaged_disk() {
        use crate::server::KvServer;
        use sbft_storage::DiskFault;
        let mut store = KvCluster::bounded(1).seed(9).durable().build();
        let c = store.client(0);
        for key in 0..3u64 {
            store.put(c, key, 100 + key).unwrap();
            store.put(c, key, 200 + key).unwrap();
        }
        let disks = store.disks.clone().unwrap();
        store.sim.crash(0);
        let disk = disks.get(0);
        disk.crash(DiskFault::LostSuffix);
        let recovered = KvServer::recover(store.sys.clone(), store.cfg(), disk);
        assert!(recovered.key_count() >= 1, "nothing salvaged from the disk");
        store.sim.restart_with(0, Box::new(recovered));
        // The store keeps serving with the rebooted node back in the pool.
        store.put(c, 1, 999).unwrap();
        assert_eq!(store.get(c, 1).unwrap(), 999);
        assert!(store.check_all_histories().is_ok());
    }

    #[test]
    fn threaded_store_round_trips_and_reports_metrics() {
        let mut store = KvCluster::bounded(1).seed(6).build_threaded();
        assert_eq!(store.backend(), Backend::Threaded);
        let c = store.client(0);
        store.put(c, 1, 11).unwrap();
        store.put(c, 2, 22).unwrap();
        assert_eq!(store.get(c, 1).unwrap(), 11);
        assert_eq!(store.get(c, 2).unwrap(), 22);
        assert!(store.check_all_histories().is_ok());
        let m = store.metrics();
        assert!(m.messages_sent > 0 && m.messages_delivered > 0, "{m:?}");
        store.stop();
    }

    #[test]
    fn sharded_store_round_trips_across_all_shards() {
        let mut store = KvCluster::bounded(1).shards(4).seed(11).build();
        let c = store.client(0);
        for key in 0..16u64 {
            store.put(c, key, 1000 + key).unwrap();
        }
        for key in 0..16u64 {
            assert_eq!(store.get(c, key).unwrap(), 1000 + key);
        }
        assert!(store.check_all_histories().is_ok());
        let verdicts = store.check_per_shard();
        assert_eq!(verdicts.values().map(|v| v.registers).sum::<usize>(), 16);
        assert!(verdicts.values().all(|v| v.is_regular()), "{verdicts:?}");
        assert!(verdicts.len() > 1, "16 keys should span several shards");
    }

    #[test]
    fn sharded_store_with_batching_and_pipelining_stays_regular() {
        use sbft_net::BatchPolicy;
        let mut store = KvCluster::bounded(1)
            .shards(2)
            .pipeline(4)
            .batch(BatchPolicy::new(8, 4))
            .seed(12)
            .build();
        let c = store.client(0);
        for key in 0..8u64 {
            store.put(c, key, 7 + key).unwrap();
        }
        for key in 0..8u64 {
            assert_eq!(store.get(c, key).unwrap(), 7 + key);
        }
        assert!(store.check_all_histories().is_ok());
        let m = store.metrics();
        assert!(m.frames_delivered > 0 && m.frames_delivered <= m.messages_delivered, "{m:?}");
    }

    #[test]
    fn sharded_store_recovers_from_total_corruption() {
        let mut store = KvCluster::bounded(1).shards(2).seed(13).build();
        let c = store.client(0);
        store.put(c, 1, 11).unwrap();
        store.put(c, 2, 22).unwrap();
        store.corrupt_everything(CorruptionSeverity::Heavy);
        store.put(c, 1, 111).unwrap();
        store.put(c, 2, 222).unwrap();
        let stable = store.now();
        assert_eq!(store.get(c, 1).unwrap(), 111);
        assert_eq!(store.get(c, 2).unwrap(), 222);
        assert!(store.check_all_from(stable).is_ok());
    }

    #[test]
    fn backend_switch_selects_runtime() {
        for backend in [Backend::Sim, Backend::Threaded] {
            let mut store = KvCluster::bounded(1).seed(7).backend(backend).build_any();
            assert_eq!(store.backend(), backend);
            let c = store.client(0);
            store.put(c, 5, 55).unwrap();
            assert_eq!(store.get(c, 5).unwrap(), 55, "{backend:?}");
            assert!(store.check_all_histories().is_ok(), "{backend:?}");
            store.stop();
        }
    }
}

//! KV store under client concurrency: different clients operating on
//! different (and the same) keys simultaneously, with key-level isolation
//! and per-key regularity.

use sbft::kv::{KvCluster, KvEvent};
use sbft::register::messages::{ClientEvent, Msg};

/// Drive two clients concurrently (manual pump) and return their terminal
/// events.
fn pump_two(
    store: &mut KvCluster<sbft::labels::BoundedLabeling>,
    a: (usize, u64, Option<u64>), // (client pid, key, Some(value)=put / None=get)
    b: (usize, u64, Option<u64>),
) -> Vec<(usize, KvEvent<sbft::register::Ts<sbft::labels::BoundedLabeling>>)> {
    use sbft::register::spec::OpKind;
    for &(pid, key, op) in [&a, &b] {
        let now = store.sim.now() + 1;
        match op {
            Some(v) => {
                store.recorder.entry(key).or_default().begin_with_intent(
                    pid,
                    OpKind::Write,
                    now,
                    Some(v),
                );
                store.sim.inject(pid, sbft::kv::KvMsg::new(key, Msg::InvokeWrite { value: v }));
            }
            None => {
                store.recorder.entry(key).or_default().begin(pid, OpKind::Read, now);
                store.sim.inject(pid, sbft::kv::KvMsg::new(key, Msg::InvokeRead));
            }
        }
    }
    let mut done = Vec::new();
    let mut budget = 500_000u64;
    while done.len() < 2 && budget > 0 {
        let Some(ev) = store.sim.step() else { break };
        budget -= 1;
        let (time, pid) = (ev.time, ev.pid);
        for out in ev.outputs {
            store.recorder.entry(out.key).or_default().complete(pid, time, &out.inner);
            if pid == a.0 || pid == b.0 {
                done.push((pid, out));
            }
        }
    }
    done
}

#[test]
fn concurrent_puts_on_different_keys_are_isolated() {
    let mut store = KvCluster::bounded(1).clients(2).seed(21).build();
    let (a, b) = (store.client(0), store.client(1));
    let evs = pump_two(&mut store, (a, 1, Some(100)), (b, 2, Some(200)));
    assert_eq!(evs.len(), 2, "both concurrent puts must complete");
    assert_eq!(store.get(a, 2).unwrap(), 200);
    assert_eq!(store.get(b, 1).unwrap(), 100);
    assert!(store.check_all_histories().is_ok());
}

#[test]
fn concurrent_put_and_get_on_the_same_key_satisfy_regularity() {
    for seed in 0..5 {
        let mut store = KvCluster::bounded(1).clients(2).seed(seed).build();
        let (a, b) = (store.client(0), store.client(1));
        store.put(a, 7, 1).unwrap();
        let evs = pump_two(&mut store, (a, 7, Some(2)), (b, 7, None));
        assert_eq!(evs.len(), 2, "seed {seed}");
        // The concurrent read returned either the old or the new value.
        let read_val = evs
            .iter()
            .find_map(|(pid, ev)| match (&ev.inner, *pid == b) {
                (ClientEvent::ReadDone { value, .. }, true) => Some(*value),
                _ => None,
            })
            .expect("the get must return a value");
        assert!(read_val == 1 || read_val == 2, "seed {seed}: got {read_val}");
        assert!(store.check_all_histories().is_ok(), "seed {seed}");
    }
}

#[test]
fn concurrent_writers_across_shards_stay_regular() {
    let mut store = KvCluster::bounded(1).shards(4).clients(2).seed(44).build();
    let (a, b) = (store.client(0), store.client(1));
    // Find two keys the router places on different shards (any small scan
    // succeeds: the Fibonacci hash spreads consecutive keys widely).
    let key_a = 0u64;
    let key_b = (1..64u64)
        .find(|k| store.protocol.router.shard_of(*k) != store.protocol.router.shard_of(key_a))
        .expect("some key must land on another shard");
    // Truly concurrent puts served by two disjoint server groups.
    let evs = pump_two(&mut store, (a, key_a, Some(111)), (b, key_b, Some(222)));
    assert_eq!(evs.len(), 2, "both cross-shard puts must complete");
    assert_eq!(store.get(a, key_b).unwrap(), 222);
    assert_eq!(store.get(b, key_a).unwrap(), 111);
    // And a same-key race on the sharded store: regularity still holds.
    let evs = pump_two(&mut store, (a, key_a, Some(7)), (b, key_a, None));
    assert_eq!(evs.len(), 2, "same-key put/get race must complete");
    assert!(store.check_all_histories().is_ok());
    let verdicts = store.check_per_shard();
    assert!(verdicts.len() >= 2, "keys must span at least two shards: {verdicts:?}");
    assert!(verdicts.values().all(|v| v.is_regular()), "{verdicts:?}");
}

#[test]
fn interleaved_keys_under_churn_stay_regular() {
    let mut store = KvCluster::bounded(1).clients(2).seed(33).build();
    let (a, b) = (store.client(0), store.client(1));
    for round in 0..6u64 {
        let ka = round % 3;
        let kb = (round + 1) % 3;
        let evs = pump_two(
            &mut store,
            (a, ka, Some(round * 10)),
            (b, kb, if round % 2 == 0 { None } else { Some(round * 100) }),
        );
        assert_eq!(evs.len(), 2, "round {round}");
    }
    assert!(store.check_all_histories().is_ok());
}

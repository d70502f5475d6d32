//! Tiny-size smoke tests: every workload runs, passes its correctness
//! gates, and (on the simulator) replays exactly under tracing.

use sbft_perfbench::explore::{self, ExploreSpec};
use sbft_perfbench::kv::{self, KvSpec};
use sbft_perfbench::report::{END_TO_END, PER_LAYER};
use sbft_perfbench::{trace, Workload};

/// Tracing is process-wide: tests that switch it on run one at a time.
static TRACING: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn sim_workload_replays_under_tracing(spec: KvSpec) {
    let _tracing = TRACING.lock().unwrap_or_else(|e| e.into_inner());
    let spec = spec.tiny();
    let base = kv::untraced_round(&spec, 5, spec.round_ops);
    assert!(base.correct(&spec), "{base:?}");
    assert_eq!(base.counts.issued, spec.round_ops);
    assert_eq!(base.lat_ns.len() as u64, spec.round_ops);
    let traced = kv::traced_round(&spec, 5, spec.round_ops);
    assert!(traced.correct(&spec));
    assert_eq!(base.counts, traced.counts, "tracing changed the execution");
    assert_eq!(base.setup_counts, traced.setup_counts);
}

#[test]
fn kv_durable_writes_smoke() {
    let spec = KvSpec::durable_writes();
    sim_workload_replays_under_tracing(spec);
    let round = kv::untraced_round(&spec.tiny(), 3, spec.tiny().round_ops);
    assert!(round.disk.appends > 0, "durable workload must reach the disks");
}

#[test]
fn kv_sharded_reads_smoke() {
    let spec = KvSpec::sharded_reads();
    sim_workload_replays_under_tracing(spec);
    let round = kv::untraced_round(&spec.tiny(), 3, spec.tiny().round_ops);
    assert!(round.setup_counts.issued >= spec.tiny().keys, "preload writes every key");
    assert!(round.counts.frames < round.counts.msgs, "batching coalesces frames");
    assert_eq!(round.disk.appends, 0);
}

#[test]
fn kv_threaded_smoke() {
    let _tracing = TRACING.lock().unwrap_or_else(|e| e.into_inner());
    let spec = KvSpec::threaded().tiny();
    let run = kv::run_traced(&spec, 9, std::time::Duration::ZERO);
    assert_eq!(run.traced.len(), 1);
    assert!(run.base[0].correct(&spec) && run.traced[0].correct(&spec));
    let s = trace::summary();
    assert!(s.get(trace::Name::NetPump).calls > 0);
    assert!(s.get(trace::Name::ServerGetTs).calls > 0, "worker-thread spans are collected");
}

#[test]
fn explore_smoke() {
    let spec = ExploreSpec::tiny();
    let round = explore::round(&spec, false);
    assert!(round.correct, "{round:?}");
    assert_eq!(round.violations, 0);
    assert!(round.verify_s > 0.0);
}

#[test]
fn benchmark_json_names_every_workload_and_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    for w in Workload::ALL {
        assert!(json.contains(&format!("\"name\": \"{}\"", w.name())), "{}", w.name());
    }
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
}

//! Metric assembly and output.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the single list of metric names and
//! units; every run prints every metric of its mode, with zero where a
//! layer does not take part in the workload.

use std::collections::HashMap;

use crate::explore::{ExploreRound, ExploreRun};
use crate::kv::{KvRun, Round, TracedRun, CHUNK_OPS};
use crate::stats::{median, nearest_rank, ratio};
use crate::trace::{Name, Summary};

/// End-to-end metrics (untraced runs): name and unit.
pub const END_TO_END: &[(&str, &str)] =
    &[("ops_per_sec", "1/s"), ("lat_p50_us", "us"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics (traced runs): name and unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("net.events_per_op", "count/op"),
    ("net.msgs_per_op", "count/op"),
    ("net.frames_per_op", "count/op"),
    ("net.pump_self_us_per_op", "us/op"),
    ("net.pump_wait_us_per_op", "us/op"),
    ("net.inject_us_per_op", "us/op"),
    ("net.lat_p50_ticks", "ticks"),
    ("net.lat_p99_ticks", "ticks"),
    ("net.lat_samples", "count"),
    ("core.server.get_ts_us_per_op", "us/op"),
    ("core.server.get_ts_calls_per_op", "count/op"),
    ("core.server.write_us_per_op", "us/op"),
    ("core.server.write_calls_per_op", "count/op"),
    ("core.server.read_us_per_op", "us/op"),
    ("core.server.read_calls_per_op", "count/op"),
    ("core.server.flush_us_per_op", "us/op"),
    ("core.server.flush_calls_per_op", "count/op"),
    ("core.server.complete_read_us_per_op", "us/op"),
    ("core.server.complete_read_calls_per_op", "count/op"),
    ("core.client.ts_reply_us_per_op", "us/op"),
    ("core.client.ts_reply_calls_per_op", "count/op"),
    ("core.client.write_ack_us_per_op", "us/op"),
    ("core.client.write_ack_calls_per_op", "count/op"),
    ("core.client.reply_us_per_op", "us/op"),
    ("core.client.reply_calls_per_op", "count/op"),
    ("core.client.flush_ack_us_per_op", "us/op"),
    ("core.client.flush_ack_calls_per_op", "count/op"),
    ("core.client.invoke_us_per_op", "us/op"),
    ("core.client.timer_us_per_op", "us/op"),
    ("core.client.union_read_frac", "frac"),
    ("core.client.abort_frac", "frac"),
    ("labels.next_calls_per_op", "count/op"),
    ("labels.next_us_per_op", "us/op"),
    ("labels.precedes_calls_per_op", "count/op"),
    ("labels.precedes_client_calls_per_op", "count/op"),
    ("labels.precedes_server_calls_per_op", "count/op"),
    ("labels.precedes_spec_calls_per_op", "count/op"),
    ("storage.appends_per_op", "count/op"),
    ("storage.syncs_per_op", "count/op"),
    ("storage.snapshots_per_op", "count/op"),
    ("storage.bytes_per_user_byte", "B/B"),
    ("storage.us_per_op", "us/op"),
    ("spec.check_s", "s"),
    ("spec.ops_checked", "count"),
    ("spec.finish_us_per_schedule", "us/schedule"),
    ("explorer.schedules", "count"),
    ("explorer.transitions_per_schedule", "count/schedule"),
    ("explorer.starts_per_schedule", "count/schedule"),
    ("explorer.dedup_hit_frac", "frac"),
    ("explorer.step_us_per_transition", "us/transition"),
    ("explorer.enabled_us_per_transition", "us/transition"),
    ("explorer.digest_us_per_check", "us/check"),
    ("explorer.self_us_per_transition", "us/transition"),
    ("alloc.allocs_per_op", "count/op"),
    ("alloc.bytes_per_op", "B/op"),
    ("alloc.net.pump.allocs_per_op", "count/op"),
    ("alloc.core.server.allocs_per_op", "count/op"),
    ("alloc.core.client.allocs_per_op", "count/op"),
    ("alloc.labels.next.allocs_per_op", "count/op"),
    ("alloc.storage.allocs_per_op", "count/op"),
    ("alloc.spec.check.allocs_per_op", "count/op"),
    ("trace.untraced_ops_per_sec", "1/s"),
    ("trace.traced_ops_per_sec", "1/s"),
    ("trace.overhead_frac", "frac"),
    ("trace.replay_mismatches", "count"),
    ("trace.spans_per_op", "count/op"),
];

const SERVER_SPANS: &[Name] = &[
    Name::ServerGetTs,
    Name::ServerWrite,
    Name::ServerRead,
    Name::ServerFlush,
    Name::ServerCompleteRead,
    Name::ServerOther,
    Name::ServerTimer,
];
const CLIENT_SPANS: &[Name] = &[
    Name::ClientTsReply,
    Name::ClientWriteAck,
    Name::ClientReply,
    Name::ClientFlushAck,
    Name::ClientInvoke,
    Name::ClientOther,
    Name::ClientTimer,
];
const STORAGE_SPANS: &[Name] = &[Name::StorageAppend, Name::StorageSync, Name::StorageSnapshot];
const SCENARIO_SPANS: &[Name] = &[
    Name::ExplorerStart,
    Name::ExplorerEnabled,
    Name::ExplorerStep,
    Name::ExplorerFinish,
    Name::ExplorerDigest,
];

/// Bytes of user payload per written value (values are `u64`).
const VALUE_BYTES: f64 = 8.0;

/// The result of one run, ready to print.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Whether every correctness gate passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Metric values by name.
    pub values: HashMap<&'static str, f64>,
    /// Context lines printed before the metrics.
    pub info: Vec<String>,
    trace: bool,
}

impl Report {
    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unlisted metric {name}"
        );
        self.values.insert(name, if value.is_finite() { value } else { 0.0 });
    }

    fn list(&self) -> &'static [(&'static str, &'static str)] {
        if self.trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Human-readable lines (context, then one metric per line), then the
    /// result object as the last line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for line in &self.info {
            out.push_str(&format!("# {line}\n"));
        }
        for (name, unit) in self.list() {
            out.push_str(&format!("{name} = {} {unit}\n", self.value(name)));
        }
        let metrics: Vec<String> = self
            .list()
            .iter()
            .map(|(name, unit)| {
                format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", self.value(name))
            })
            .collect();
        out.push_str(&format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}\n",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        ));
        out
    }

    /// Value of a metric (zero when the workload does not produce it).
    pub fn value(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 if unreadable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn completed(r: &Round) -> u64 {
    r.counts.ok + r.counts.failed
}

fn ops_per_sec(rounds: &[Round]) -> f64 {
    ratio(rounds.iter().map(completed).sum::<u64>() as f64, rounds.iter().map(|r| r.ops_s).sum())
}

fn tick_percentiles(rounds: &[Round]) -> (u64, u64, usize) {
    let mut ticks: Vec<u64> = rounds.iter().flat_map(|r| r.lat_ticks.iter().copied()).collect();
    let p50 = nearest_rank(&mut ticks, 50.0).unwrap_or(0);
    let p99 = nearest_rank(&mut ticks, 99.0).unwrap_or(0);
    (p50, p99, ticks.len())
}

/// End-to-end report of an untraced kv run.
pub fn kv_end_to_end(spec: &crate::kv::KvSpec, run: &KvRun) -> Report {
    let mut rep =
        Report { correct: run.rounds.iter().all(|r| r.correct(spec)), ..Report::default() };
    rep.attempted = run.rounds.iter().map(|r| r.counts.issued).sum();
    rep.failed = run.rounds.iter().map(|r| r.counts.failed).sum();
    let mut lat: Vec<u64> = run.rounds.iter().flat_map(|r| r.lat_ns.iter().copied()).collect();
    let p50 = nearest_rank(&mut lat, 50.0).unwrap_or(0) as f64 / 1e3;
    // The tail is taken per 1,000-op chunk (ten samples beyond each chunk's
    // p99) and the median chunk reported, so one scheduling hiccup on a
    // shared host moves one chunk instead of the whole run's tail.
    let mut chunk_p99: Vec<f64> = run
        .rounds
        .iter()
        .flat_map(|r| r.lat_ns.chunks_exact(CHUNK_OPS as usize))
        .map(|c| nearest_rank(&mut c.to_vec(), 99.0).unwrap_or(0) as f64 / 1e3)
        .collect();
    if chunk_p99.is_empty() {
        chunk_p99.push(nearest_rank(&mut lat, 99.0).unwrap_or(0) as f64 / 1e3);
    }
    let p99 = median(&chunk_p99);
    let rates: Vec<f64> = run.rounds.iter().flat_map(|r| r.chunk_rates.iter().copied()).collect();
    rep.set("ops_per_sec", median(&rates));
    rep.set("lat_p50_us", p50);
    let verify: Vec<f64> = run.rounds.iter().flat_map(|r| r.verify_s.iter().copied()).collect();
    // Printed, not bounded: the tail and the memory-bound checker drift
    // with the host more than the bounded metrics do (see README).
    rep.info.push(format!("lat_p99_us = {p99} us"));
    rep.info.push(format!("verify_s = {} s", median(&verify)));
    rep.set("setup_s", median(&run.setups));
    rep.set("peak_rss_mb", peak_rss_mb());
    let (t50, t99, _) = tick_percentiles(&run.rounds);
    rep.info.push(format!(
        "rounds={} throughput_chunks={} latency_samples={} setup_samples={} fail_frac={} lat_p50_ticks={t50} lat_p99_ticks={t99} mean_ops_per_key_history={}",
        run.rounds.len(),
        rates.len(),
        lat.len(),
        run.setups.len(),
        ratio(rep.failed as f64, rep.attempted as f64),
        run.rounds.iter().map(|r| r.ops_checked).max().unwrap_or(0) / spec.keys.max(1),
    ));
    rep
}

/// End-to-end report of an untraced exploration run.
pub fn explore_end_to_end(run: &ExploreRun) -> Report {
    let rounds = &run.rounds;
    let mut rep = Report { correct: rounds.iter().all(|r| r.correct), ..Report::default() };
    rep.attempted = rounds.iter().map(|r| r.stats.schedules).sum();
    rep.failed = rounds.iter().map(|r| r.violations as u64).sum();
    let mut lat: Vec<u64> = rounds.iter().map(|r| (r.explore_s * 1e9) as u64).collect();
    let rates: Vec<f64> =
        rounds.iter().map(|r| ratio(r.stats.schedules as f64, r.explore_s)).collect();
    rep.set("ops_per_sec", median(&rates));
    rep.set("lat_p50_us", nearest_rank(&mut lat, 50.0).unwrap_or(0) as f64 / 1e3);
    let p99 = nearest_rank(&mut lat, 99.0).unwrap_or(0) as f64 / 1e3;
    let verify: Vec<f64> = rounds.iter().map(|r| r.verify_s).collect();
    // Printed, not bounded: the tail and the memory-bound checker drift
    // with the host more than the bounded metrics do (see README).
    rep.info.push(format!("lat_p99_us = {p99} us"));
    rep.info.push(format!("verify_s = {} s", median(&verify)));
    rep.set("setup_s", median(&run.setups));
    rep.set("peak_rss_mb", peak_rss_mb());
    let schedules: Vec<u64> = rounds.iter().map(|r| r.stats.schedules).collect();
    rep.info.push(format!(
        "explorations={} setup_samples={} schedules_per_exploration={:?}",
        rounds.len(),
        run.setups.len(),
        schedules
    ));
    rep
}

fn per_op(
    rep: &mut Report,
    s: &Summary,
    name: Name,
    ops: f64,
    us: &'static str,
    calls: &'static str,
) {
    let a = s.get(name);
    rep.set(us, ratio(a.self_ns as f64 / 1e3, ops));
    rep.set(calls, ratio(a.calls as f64, ops));
}

/// Per-layer report of a traced kv run.
pub fn kv_per_layer(spec: &crate::kv::KvSpec, run: &TracedRun, s: &Summary) -> Report {
    let mut rep = Report { trace: true, ..Report::default() };
    rep.correct =
        run.mismatches == 0 && run.base.iter().chain(&run.traced).all(|r| r.correct(spec));
    rep.attempted = run.traced.iter().map(|r| r.counts.issued).sum();
    rep.failed = run.traced.iter().map(|r| r.counts.failed).sum();
    let ops = run.traced.iter().map(completed).sum::<u64>() as f64;
    let sum = |f: &dyn Fn(&Round) -> u64| run.traced.iter().map(f).sum::<u64>() as f64;

    rep.set("net.events_per_op", ratio(sum(&|r| r.counts.events), ops));
    rep.set("net.msgs_per_op", ratio(sum(&|r| r.counts.msgs), ops));
    rep.set("net.frames_per_op", ratio(sum(&|r| r.counts.frames), ops));
    let pump_us = ratio(s.get(Name::NetPump).self_ns as f64 / 1e3, ops);
    match spec.runtime {
        // The simulator never blocks: pump self time is queue and dispatch work.
        sbft_net::Backend::Sim => rep.set("net.pump_self_us_per_op", pump_us),
        // A threaded pump blocks on the output channel; its time is waiting.
        sbft_net::Backend::Threaded => rep.set("net.pump_wait_us_per_op", pump_us),
    }
    rep.set("net.inject_us_per_op", ratio(s.get(Name::NetInject).total_ns as f64 / 1e3, ops));
    let (t50, t99, samples) = tick_percentiles(&run.base);
    rep.set("net.lat_p50_ticks", t50 as f64);
    rep.set("net.lat_p99_ticks", t99 as f64);
    rep.set("net.lat_samples", samples as f64);

    per_op(
        &mut rep,
        s,
        Name::ServerGetTs,
        ops,
        "core.server.get_ts_us_per_op",
        "core.server.get_ts_calls_per_op",
    );
    per_op(
        &mut rep,
        s,
        Name::ServerWrite,
        ops,
        "core.server.write_us_per_op",
        "core.server.write_calls_per_op",
    );
    per_op(
        &mut rep,
        s,
        Name::ServerRead,
        ops,
        "core.server.read_us_per_op",
        "core.server.read_calls_per_op",
    );
    per_op(
        &mut rep,
        s,
        Name::ServerFlush,
        ops,
        "core.server.flush_us_per_op",
        "core.server.flush_calls_per_op",
    );
    per_op(
        &mut rep,
        s,
        Name::ServerCompleteRead,
        ops,
        "core.server.complete_read_us_per_op",
        "core.server.complete_read_calls_per_op",
    );
    per_op(
        &mut rep,
        s,
        Name::ClientTsReply,
        ops,
        "core.client.ts_reply_us_per_op",
        "core.client.ts_reply_calls_per_op",
    );
    per_op(
        &mut rep,
        s,
        Name::ClientWriteAck,
        ops,
        "core.client.write_ack_us_per_op",
        "core.client.write_ack_calls_per_op",
    );
    per_op(
        &mut rep,
        s,
        Name::ClientReply,
        ops,
        "core.client.reply_us_per_op",
        "core.client.reply_calls_per_op",
    );
    per_op(
        &mut rep,
        s,
        Name::ClientFlushAck,
        ops,
        "core.client.flush_ack_us_per_op",
        "core.client.flush_ack_calls_per_op",
    );
    rep.set(
        "core.client.invoke_us_per_op",
        ratio(s.get(Name::ClientInvoke).self_ns as f64 / 1e3, ops),
    );
    rep.set(
        "core.client.timer_us_per_op",
        ratio(s.get(Name::ClientTimer).self_ns as f64 / 1e3, ops),
    );
    let (reads, unions, aborts) = (
        sum(&|r| r.counts.reads),
        sum(&|r| r.counts.union_reads),
        sum(&|r| r.counts.aborted_reads),
    );
    rep.set("core.client.union_read_frac", ratio(unions, reads - aborts));
    rep.set("core.client.abort_frac", ratio(aborts, reads));

    let next = s.get(Name::LabelsNext);
    rep.set("labels.next_calls_per_op", ratio(next.calls as f64, ops));
    rep.set("labels.next_us_per_op", ratio(next.total_ns as f64 / 1e3, ops));
    let under = |prefix: &str| {
        s.precedes_under(|n| n.is_some_and(|n| n.as_str().starts_with(prefix))) as f64
    };
    rep.set("labels.precedes_calls_per_op", ratio(s.precedes_under(|_| true) as f64, ops));
    rep.set("labels.precedes_client_calls_per_op", ratio(under("core.client."), ops));
    rep.set("labels.precedes_server_calls_per_op", ratio(under("core.server."), ops));
    rep.set("labels.precedes_spec_calls_per_op", ratio(under("spec."), ops));

    rep.set("storage.appends_per_op", ratio(sum(&|r| r.disk.appends), ops));
    rep.set("storage.syncs_per_op", ratio(sum(&|r| r.disk.syncs), ops));
    rep.set("storage.snapshots_per_op", ratio(sum(&|r| r.disk.snapshots), ops));
    let user_bytes = sum(&|r| r.counts.writes_done) * VALUE_BYTES;
    rep.set("storage.bytes_per_user_byte", ratio(s.storage_bytes as f64, user_bytes));
    rep.set("storage.us_per_op", ratio(s.sum(STORAGE_SPANS).total_ns as f64 / 1e3, ops));

    let rounds = run.traced.len() as f64;
    rep.set("spec.check_s", ratio(s.get(Name::SpecCheck).total_ns as f64 / 1e9, rounds));
    rep.set("spec.ops_checked", ratio(sum(&|r| r.ops_checked), rounds));

    let base_ops = run.base.iter().map(completed).sum::<u64>() as f64;
    rep.set(
        "alloc.allocs_per_op",
        ratio(run.base.iter().map(|r| r.allocs.0).sum::<u64>() as f64, base_ops),
    );
    rep.set(
        "alloc.bytes_per_op",
        ratio(run.base.iter().map(|r| r.allocs.1).sum::<u64>() as f64, base_ops),
    );
    rep.set("alloc.net.pump.allocs_per_op", ratio(s.get(Name::NetPump).self_allocs as f64, ops));
    rep.set("alloc.core.server.allocs_per_op", ratio(s.sum(SERVER_SPANS).self_allocs as f64, ops));
    rep.set("alloc.core.client.allocs_per_op", ratio(s.sum(CLIENT_SPANS).self_allocs as f64, ops));
    rep.set("alloc.labels.next.allocs_per_op", ratio(next.self_allocs as f64, ops));
    rep.set("alloc.storage.allocs_per_op", ratio(s.sum(STORAGE_SPANS).self_allocs as f64, ops));
    rep.set(
        "alloc.spec.check.allocs_per_op",
        ratio(s.get(Name::SpecCheck).self_allocs as f64, ops),
    );

    set_overhead(&mut rep, ops_per_sec(&run.base), ops_per_sec(&run.traced));
    rep.set("trace.replay_mismatches", run.mismatches as f64);
    rep.set("trace.spans_per_op", ratio(s.spans_closed as f64, ops));
    rep.info.push(format!("traced_rounds={} spans_kept={}", run.traced.len(), s.spans_kept));
    rep
}

fn set_overhead(rep: &mut Report, untraced: f64, traced: f64) {
    rep.set("trace.untraced_ops_per_sec", untraced);
    rep.set("trace.traced_ops_per_sec", traced);
    rep.set("trace.overhead_frac", 1.0 - ratio(traced, untraced));
}

fn schedules_per_sec(rounds: &[ExploreRound]) -> f64 {
    ratio(
        rounds.iter().map(|r| r.stats.schedules).sum::<u64>() as f64,
        rounds.iter().map(|r| r.explore_s).sum(),
    )
}

/// Per-layer report of a traced exploration run.
pub fn explore_per_layer(base: &[ExploreRound], traced: &[ExploreRound], s: &Summary) -> Report {
    let mut rep = Report { trace: true, ..Report::default() };
    rep.correct = base.iter().chain(traced).all(|r| r.correct);
    rep.attempted = traced.iter().map(|r| r.stats.schedules).sum();
    rep.failed = traced.iter().map(|r| r.violations as u64).sum();
    let sum = |f: &dyn Fn(&ExploreRound) -> u64| traced.iter().map(f).sum::<u64>() as f64;
    let schedules = sum(&|r| r.stats.schedules);
    let transitions = sum(&|r| r.stats.transitions);

    rep.set(
        "spec.finish_us_per_schedule",
        ratio(s.get(Name::ExplorerFinish).total_ns as f64 / 1e3, schedules),
    );
    rep.set("explorer.schedules", ratio(schedules, traced.len() as f64));
    rep.set("explorer.transitions_per_schedule", ratio(transitions, schedules));
    rep.set(
        "explorer.starts_per_schedule",
        ratio(s.get(Name::ExplorerStart).calls as f64, schedules),
    );
    rep.set(
        "explorer.dedup_hit_frac",
        ratio(sum(&|r| r.stats.deduped), sum(&|r| r.stats.dedup_checks)),
    );
    let us_per = |name: Name, den: f64| ratio(s.get(name).total_ns as f64 / 1e3, den);
    rep.set("explorer.step_us_per_transition", us_per(Name::ExplorerStep, transitions));
    rep.set("explorer.enabled_us_per_transition", us_per(Name::ExplorerEnabled, transitions));
    let digest = s.get(Name::ExplorerDigest);
    rep.set(
        "explorer.digest_us_per_check",
        ratio(digest.total_ns as f64 / 1e3, digest.calls as f64),
    );
    let outside = s.active_ns.saturating_sub(s.sum(SCENARIO_SPANS).total_ns);
    rep.set("explorer.self_us_per_transition", ratio(outside as f64 / 1e3, transitions));

    let base_schedules = base.iter().map(|r| r.stats.schedules).sum::<u64>() as f64;
    rep.set(
        "alloc.allocs_per_op",
        ratio(base.iter().map(|r| r.allocs.0).sum::<u64>() as f64, base_schedules),
    );
    rep.set(
        "alloc.bytes_per_op",
        ratio(base.iter().map(|r| r.allocs.1).sum::<u64>() as f64, base_schedules),
    );
    set_overhead(&mut rep, schedules_per_sec(base), schedules_per_sec(traced));
    rep.set("trace.spans_per_op", ratio(s.spans_closed as f64, schedules));
    rep.info.push(format!("traced_explorations={} spans_kept={}", traced.len(), s.spans_kept));
    rep
}

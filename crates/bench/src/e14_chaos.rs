//! **E14 — chaos soak under the nemesis**: long seeded fault schedules
//! (crash+damaged-disk recovery, partition, flaky links, transient
//! corruption, mobile Byzantine seat movement) against a live read/write
//! workload with the client retry policy engaged, on both substrate
//! backends. Clusters are **durable**: every crash window reboots its
//! server from the server's own stable disk with a rotating
//! [`sbft_storage::DiskFault`] applied at crash time, so the soak mixes
//! real damaged-disk recovery ([`sbft_net::nemesis::NemesisEvent::CrashRecover`]) into the
//! chaos pool — a rebooted server counts as a cure (it may carry stale
//! state) until the next all-clear write converges it.
//!
//! The claim under test is the composition of the paper's guarantees with
//! crash-recovery and link faults: **regularity holds in every stable
//! window** — every interval that starts at the first completed write
//! after all disturbances healed and ends when the next disturbance
//! fires. Operations overlapping a disturbance may abort, time out, or
//! exhaust their retries (tallied distinctly, not failed), but once the
//! *last* fault heals, a write and a read must complete and the recorded
//! history restricted to the stable windows must show zero violations.
//!
//! Seat movement is the mobile-Byzantine regime: the `move-byz` windows
//! relocate the adversary to an honest server and the vacated seat
//! rejoins **cured-but-amnesiac** ([`CureMode::Amnesiac`]) — state
//! re-corrupted to an arbitrary configuration, so it must re-run
//! stabilization. The [`WindowTracker`] therefore treats every cure as
//! window-closing until the next completed all-clear write converges the
//! rejoiner (Assumption A1), even though the movement itself recovers
//! instantly.
//!
//! Disturbance windows are serialized by the schedule generator (at most
//! one honest server is disturbed at any time), so the `f = 1` resilience
//! bound stays respected throughout: one Byzantine seat plus at most one
//! crashed/partitioned/corrupted honest server still leaves every
//! completed write on `≥ 3f + 1` honest servers of which at least
//! `2f + 1` answer any read quorum.

use sbft_core::adversary::ByzStrategy;
use sbft_core::cluster::RegisterCluster;
use sbft_core::{RetryPolicy, WindowTracker};
use sbft_net::nemesis::{CureMode, NemesisOpts, NemesisSchedule};
use sbft_net::{Backend, CorruptionSeverity};

use crate::table::Table;
use crate::tally::OpTally;

/// Safety cap on workload rounds per seed.
const MAX_ROUNDS: u64 = 4_000;

/// Nemesis event kinds that open a disturbance window.
const DISTURBANCE_KINDS: [&str; 6] =
    ["crash", "partition", "link-fault", "corrupt", "relocate-byz", "move-byz"];

/// Aggregated chaos-soak measurements for one backend.
#[derive(Clone, Debug)]
pub struct E14Cell {
    /// Backend the soak ran on.
    pub backend: Backend,
    /// Seeds run.
    pub seeds: usize,
    /// Nemesis events fired in total.
    pub events_fired: u64,
    /// Minimum distinct disturbance kinds fired by any one schedule.
    pub min_distinct_kinds: usize,
    /// Client operations by outcome.
    pub outcomes: OpTally,
    /// Amnesiac cures observed (servers vacated by the roaming seat).
    pub cures: u64,
    /// Heals observed (disturbance windows closed).
    pub heals: u64,
    /// Summed time from each heal to the next fully-successful round.
    pub reconverge_ticks: u64,
    /// Operations that failed *after* the last fault healed (must be 0).
    pub post_heal_failures: u64,
    /// Regularity violations inside stable windows (must be 0).
    pub violations: usize,
}

impl E14Cell {
    /// Mean heal-to-reconvergence time in substrate ticks.
    pub fn mean_reconverge(&self) -> u64 {
        self.reconverge_ticks.checked_div(self.heals).unwrap_or(0)
    }
}

/// Run the chaos soak on one backend across `seeds` seeds.
pub fn run_backend(backend: Backend, seeds: u64) -> E14Cell {
    let mut cell = E14Cell {
        backend,
        seeds: seeds as usize,
        events_fired: 0,
        min_distinct_kinds: usize::MAX,
        outcomes: OpTally::default(),
        cures: 0,
        heals: 0,
        reconverge_ticks: 0,
        post_heal_failures: 0,
        violations: 0,
    };
    let strategies = ByzStrategy::all();
    for seed in 0..seeds {
        let strat = strategies[seed as usize % strategies.len()];
        run_seed(&mut cell, backend, seed, strat);
    }
    if cell.min_distinct_kinds == usize::MAX {
        cell.min_distinct_kinds = 0;
    }
    cell
}

fn run_seed(cell: &mut E14Cell, backend: Backend, seed: u64, strat: ByzStrategy) {
    let byz_seat = 5usize; // last server of the n = 6, f = 1 cluster
    let mut c = RegisterCluster::bounded(1)
        .clients(2)
        .byzantine(byz_seat, strat)
        .durable()
        .seed(seed)
        .backend(backend)
        .retry(RetryPolicy::chaos())
        .build_any();
    let total_procs = c.cfg().n + 2;
    let opts = NemesisOpts {
        servers: c.cfg().n,
        total_procs,
        byz_seats: vec![byz_seat],
        ..NemesisOpts::default()
    };
    let schedule = NemesisSchedule::random(seed, &opts);
    let mut runner = c
        .nemesis_runner(schedule, vec![byz_seat], strat)
        .cure_mode(CureMode::Amnesiac { total_procs, severity: CorruptionSeverity::Light });

    let (w, r) = (c.client(0), c.client(1));
    let mut value = 1u64;
    // Cure-aware stable-window bookkeeping: a window opens at a completed
    // all-clear write, closes at the next disturbance *or* amnesiac cure.
    let mut tracker = WindowTracker::new();
    let mut clears_consumed = 0usize;
    let mut cures_consumed = 0usize;

    // Seed the register (and the first stable window) before the chaos.
    let first = c.write_outcome(w, value);
    cell.outcomes.record(&first, true);
    if first.is_ok() {
        tracker.write_completed(c.now(), true);
    }

    let mut rounds = 0u64;
    while !runner.done() && rounds < MAX_ROUNDS {
        rounds += 1;
        let before = c.now();
        let fired_from = runner.log.len();
        runner.fire_due(&mut c.sim);
        if runner.log[fired_from..].iter().any(|(_, k)| DISTURBANCE_KINDS.contains(k)) {
            tracker.disturbance(c.now());
        }
        while cures_consumed < runner.cures.len() {
            let (at, pid) = runner.cures[cures_consumed];
            tracker.cured(pid, at.max(c.now()));
            cures_consumed += 1;
            cell.cures += 1;
        }

        value += 1;
        let wout = c.write_outcome(w, value);
        cell.outcomes.record(&wout, true);
        let rout = c.read_outcome(r);
        cell.outcomes.record(&rout, false);

        if wout.is_ok() {
            tracker.write_completed(c.now(), runner.all_clear());
        }
        if wout.is_ok() && rout.is_ok() && runner.all_clear() {
            while clears_consumed < runner.clear_times.len() {
                let healed_at = runner.clear_times[clears_consumed];
                cell.reconverge_ticks += c.now().saturating_sub(healed_at);
                cell.heals += 1;
                clears_consumed += 1;
            }
        }

        // Safety valve: if the substrate clock stalled (possible only in
        // pathological schedules), fast-forward the next nemesis event so
        // the soak always terminates.
        if c.now() == before && !runner.done() {
            runner.fire_next(&mut c.sim);
        }
    }

    // The schedule is exhausted and every window healed: liveness must be
    // back. One write + one read, both required to complete.
    value += 1;
    let wout = c.write_outcome(w, value);
    cell.outcomes.record(&wout, true);
    let rout = c.read_outcome(r);
    cell.outcomes.record(&rout, false);
    if !wout.is_ok() || !rout.is_ok() {
        cell.post_heal_failures += 1;
    }
    if wout.is_ok() {
        tracker.write_completed(c.now(), runner.all_clear());
    }
    c.settle(200_000);
    for (start, end) in tracker.finish(u64::MAX) {
        if let Err(errs) = c.recorder.check_window(&c.sys, start, end) {
            cell.violations += errs.len();
        }
    }
    cell.events_fired += runner.events_fired();
    cell.min_distinct_kinds = cell.min_distinct_kinds.min(runner.distinct_disturbances_fired());
    c.stop();
}

/// The E14 table: one row per backend.
pub fn run(sim_seeds: u64, threaded_seeds: u64) -> Table {
    Table::build(
        "E14: chaos soak — seeded nemesis schedules vs. retrying clients (f = 1, amnesiac mobile byz seat)",
        [(Backend::Sim, sim_seeds), (Backend::Threaded, threaded_seeds)],
        |r, (backend, seeds)| {
            let c = run_backend(backend, seeds);
            r.table("backend", format!("{backend:?}"));
            r.table("seeds", c.seeds);
            r.table("nemesis events", c.events_fired);
            r.table("distinct kinds (min)", c.min_distinct_kinds);
            c.outcomes.columns(r);
            r.table("cures", c.cures);
            r.table("heals", c.heals);
            r.table("mean reconverge", c.mean_reconverge());
            r.table("post-heal failures", c.post_heal_failures);
            r.table("stable-window violations", c.violations);
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbft_core::cluster::OpOutcome;
    use sbft_core::reader::ReaderOptions;

    #[test]
    fn sim_soak_has_zero_stable_window_violations() {
        let cell = run_backend(Backend::Sim, 3);
        assert_eq!(cell.violations, 0, "{cell:?}");
        assert_eq!(cell.post_heal_failures, 0, "{cell:?}");
        assert!(cell.min_distinct_kinds >= 5, "{cell:?}");
        assert!(cell.outcomes.writes_ok > 0 && cell.outcomes.reads_ok > 0, "{cell:?}");
        assert!(cell.heals > 0, "{cell:?}");
        assert!(cell.cures > 0, "amnesiac seat movement never fired: {cell:?}");
    }

    #[test]
    fn threaded_soak_survives_the_schedule() {
        let cell = run_backend(Backend::Threaded, 1);
        assert_eq!(cell.violations, 0, "{cell:?}");
        assert_eq!(cell.post_heal_failures, 0, "{cell:?}");
        assert!(cell.events_fired > 0, "{cell:?}");
    }

    // --- OpOutcome accounting regressions -------------------------------
    //
    // Each test manufactures exactly one failure mode and pins the tally
    // column it lands in, so the soak summary can never silently fold one
    // outcome into another again.

    #[test]
    fn timed_out_is_tallied_distinctly() {
        // Single attempt + deadline, quorum broken by two crashed servers:
        // the lone attempt dies on its deadline -> TimedOut, not Exhausted.
        let mut c = RegisterCluster::bounded(1)
            .seed(7)
            .retry(RetryPolicy { max_attempts: 1, deadline: 300, backoff_base: 0, backoff_max: 0 })
            .build();
        let w = c.client(0);
        c.sim.crash(0);
        c.sim.crash(1);
        let out = c.write_outcome(w, 1);
        assert!(matches!(out, OpOutcome::TimedOut { .. }), "{out:?}");
        let mut tally = OpTally::default();
        tally.record(&out, true);
        assert_eq!(
            (tally.timed_out, tally.exhausted, tally.aborted, tally.writes_ok),
            (1, 0, 0, 0),
            "{tally:?}"
        );
    }

    #[test]
    fn exhausted_is_tallied_distinctly() {
        // Two attempts, quorum still broken: both die on deadlines and the
        // retry budget burns out -> Exhausted, not TimedOut.
        let mut c = RegisterCluster::bounded(1)
            .seed(7)
            .retry(RetryPolicy {
                max_attempts: 2,
                deadline: 300,
                backoff_base: 10,
                backoff_max: 20,
            })
            .build();
        let w = c.client(0);
        c.sim.crash(0);
        c.sim.crash(1);
        let out = c.write_outcome(w, 1);
        assert!(matches!(out, OpOutcome::Exhausted { .. }), "{out:?}");
        let mut tally = OpTally::default();
        tally.record(&out, true);
        assert_eq!(
            (tally.timed_out, tally.exhausted, tally.aborted, tally.writes_ok),
            (0, 1, 0, 0),
            "{tally:?}"
        );
    }

    #[test]
    fn aborted_is_tallied_distinctly() {
        // Union fallback disabled + heavy state corruption: replies split
        // below the 2f+1 witness threshold and the single-attempt read
        // aborts -> Aborted, not a timeout.
        let mut c = RegisterCluster::bounded(1)
            .seed(11)
            .reader_options(ReaderOptions { use_union: false, ..ReaderOptions::default() })
            .retry(RetryPolicy::none())
            .build();
        let (w, r) = (c.client(0), c.client(1));
        assert!(c.write_outcome(w, 1).is_ok());
        let mut aborted = None;
        for round in 0..40 {
            c.corrupt_servers(&[0, 1, 2], sbft_net::CorruptionSeverity::Adversarial);
            let out = c.read_outcome(r);
            if matches!(out, OpOutcome::Aborted) {
                aborted = Some(out);
                break;
            }
            // Re-seed a coherent value before the next corruption round.
            let _ = c.write_outcome(w, 2 + round);
        }
        let out = aborted.expect("no corrupted read aborted in 40 rounds");
        let mut tally = OpTally::default();
        tally.record(&out, false);
        assert_eq!(
            (tally.timed_out, tally.exhausted, tally.aborted, tally.reads_ok),
            (0, 0, 1, 0),
            "{tally:?}"
        );
    }
}

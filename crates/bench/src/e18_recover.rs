//! **E18 — crash-recovery with faulty disks**: servers persist their
//! register state to simulated stable storage ([`sbft_storage`]) and the
//! nemesis reboots them from their own **crash-damaged** disks
//! ([`NemesisEvent::CrashRecover`]), swept over disk-fault kind × crash
//! rate × `n ∈ {5f, 5f+1}` on both substrate backends.
//!
//! Each cell is scored three ways:
//!
//! * **stable-window regularity** — [`WindowTracker`] windows, with every
//!   recovery treated like a cure (the rejoiner may have rebooted into
//!   stale or ill-formed state, so it counts as unconverged until the
//!   next completed all-clear write — Assumption A1). At `n = 5f+1` this
//!   must be violation-free for *every* disk-fault kind.
//! * **recovery-to-convergence latency** — from each damaged-disk reboot
//!   to the all-clear write that re-converges it, in substrate ticks and
//!   in client operations.
//! * **client-visible data loss** — completed reads returning a value
//!   older than the last *acknowledged* write. Durable recovery at
//!   `n = 5f+1` must never surface one: the crashed server's disk may
//!   lose its unflushed tail, but every acknowledged write lives on
//!   `≥ 3f+1` other servers.
//!
//! The `n = 5f` column is the below-bound control; the `pristine` fault
//! row is the best-case control (recovery without damage).

use sbft_core::adversary::ByzStrategy;
use sbft_core::cluster::{OpOutcome, RegisterCluster};
use sbft_core::{RetryPolicy, WindowTracker};
use sbft_net::nemesis::{NemesisEvent, NemesisSchedule};
use sbft_net::Backend;
use sbft_storage::DiskFault;

use crate::table::Table;
use crate::tally::OpTally;

/// Safety cap on workload rounds per seed.
const MAX_ROUNDS: u64 = 4_000;

/// First crash fires after this much quiet time.
const START_AFTER: u64 = 500;

/// How long each crash window lasts before the damaged-disk reboot.
const FAULT_LEN: u64 = 1_200;

/// No crash opens after `HORIZON - FAULT_LEN`.
const HORIZON: u64 = 18_000;

/// One cell of the recovery sweep.
#[derive(Clone, Debug)]
pub struct E18Cell {
    /// Backend the cell ran on.
    pub backend: Backend,
    /// Cluster size.
    pub n: usize,
    /// Byzantine servers.
    pub f: usize,
    /// Disk damage applied at every crash in this cell.
    pub fault: DiskFault,
    /// Quiet gap between a recovery and the next crash (smaller = faster
    /// crash rate).
    pub gap: u64,
    /// Seeds aggregated into this cell.
    pub seeds: usize,
    /// Crashes fired.
    pub crashes: u64,
    /// Damaged-disk reboots fired (one per crash).
    pub recoveries: u64,
    /// Recoveries that re-converged (reached an all-clear write).
    pub converged: u64,
    /// Summed reboot-to-convergence time in substrate ticks.
    pub reconverge_ticks: u64,
    /// Summed reboot-to-convergence client operations.
    pub reconverge_ops: u64,
    /// Worst single reboot-to-convergence time in ticks.
    pub max_reconverge_ticks: u64,
    /// Client operations by outcome.
    pub outcomes: OpTally,
    /// Completed reads older than the last acknowledged write.
    pub lost_reads: u64,
    /// Stable windows that formed across all seeds.
    pub windows: u64,
    /// Regularity violations inside recovery-aware stable windows.
    pub window_violations: usize,
    /// Regularity violations over the full history (no windowing).
    pub full_violations: usize,
}

impl E18Cell {
    /// Verdict ladder: window violations dominate, then a recovery that
    /// never re-converged, then acknowledged data loss, then durable.
    pub fn verdict(&self) -> &'static str {
        if self.window_violations > 0 {
            "violated"
        } else if self.converged < self.recoveries {
            "unconverged"
        } else if self.lost_reads > 0 {
            "lossy"
        } else {
            "durable"
        }
    }

    /// Mean reboot-to-convergence time in substrate ticks.
    pub fn mean_reconverge_ticks(&self) -> u64 {
        self.reconverge_ticks.checked_div(self.converged).unwrap_or(0)
    }

    /// Mean reboot-to-convergence cost in client operations.
    pub fn mean_reconverge_ops(&self) -> u64 {
        self.reconverge_ops.checked_div(self.converged).unwrap_or(0)
    }
}

/// Parameters of one sweep point.
#[derive(Clone, Copy, Debug)]
pub struct E18Spec {
    /// Backend.
    pub backend: Backend,
    /// Cluster size (`5f+1` on-bound, `5f` for the control row).
    pub n: usize,
    /// Byzantine servers (seated at the tail).
    pub f: usize,
    /// Disk damage applied at every crash.
    pub fault: DiskFault,
    /// Quiet gap between recovery and the next crash.
    pub gap: u64,
    /// Seeds to aggregate.
    pub seeds: u64,
}

/// Crash-only schedule: serialized `Crash` → `CrashRecover` windows of
/// [`FAULT_LEN`], separated by `spec.gap`, every crash damaging the disk
/// with `spec.fault`. Targets rotate over the honest servers (the
/// Byzantine tail seats are never crashed, keeping the disturbed-honest
/// count at one).
fn crash_schedule(spec: &E18Spec, seed: u64) -> NemesisSchedule {
    let honest = spec.n - spec.f;
    let mut events = Vec::new();
    let mut t = START_AFTER;
    let mut window = 0usize;
    while t + FAULT_LEN <= HORIZON {
        let target = (window + seed as usize) % honest;
        events.push((t, NemesisEvent::Crash(target)));
        events.push((t + FAULT_LEN, NemesisEvent::CrashRecover { pid: target, fault: spec.fault }));
        window += 1;
        t += FAULT_LEN + spec.gap;
    }
    NemesisSchedule::scripted(events)
}

/// Run one sweep cell.
pub fn run_cell(spec: &E18Spec) -> E18Cell {
    let mut cell = E18Cell {
        backend: spec.backend,
        n: spec.n,
        f: spec.f,
        fault: spec.fault,
        gap: spec.gap,
        seeds: spec.seeds as usize,
        crashes: 0,
        recoveries: 0,
        converged: 0,
        reconverge_ticks: 0,
        reconverge_ops: 0,
        max_reconverge_ticks: 0,
        outcomes: OpTally::default(),
        lost_reads: 0,
        windows: 0,
        window_violations: 0,
        full_violations: 0,
    };
    let strategies = ByzStrategy::all();
    for seed in 0..spec.seeds {
        let strat = strategies[seed as usize % strategies.len()];
        run_seed(&mut cell, spec, seed, strat);
    }
    cell
}

fn run_seed(cell: &mut E18Cell, spec: &E18Spec, seed: u64, strat: ByzStrategy) {
    let mut c = RegisterCluster::bounded_with_n(spec.n, spec.f)
        .clients(2)
        .byzantine_tail(strat)
        .durable()
        .seed(seed)
        .backend(spec.backend)
        .retry(RetryPolicy::chaos())
        .build_any();
    let byz_seats: Vec<usize> = (spec.n - spec.f..spec.n).collect();
    let schedule = crash_schedule(spec, seed);
    let mut runner = c.nemesis_runner(schedule, byz_seats, strat);

    let (w, r) = (c.client(0), c.client(1));
    let mut value = 1u64;
    let mut last_acked = 0u64;
    let mut tracker = WindowTracker::new();
    let mut cures_consumed = 0usize;
    // Reboots awaiting their convergence write: (reboot time, ops so far).
    let mut pending: Vec<(u64, u64)> = Vec::new();
    let mut ops = 0u64;

    let first = c.write_outcome(w, value);
    cell.outcomes.record(&first, true);
    ops += 1;
    if first.is_ok() {
        last_acked = value;
        tracker.write_completed(c.now(), true);
    }

    let mut rounds = 0u64;
    let mut scanned = 0usize;
    while !runner.done() && rounds < MAX_ROUNDS {
        rounds += 1;
        let before = c.now();
        runner.fire_due(&mut c.sim);
        // Scan everything fired since the last round — including events
        // the end-of-round fast-forward valve fired — so every crash
        // closes the window it interrupts.
        while scanned < runner.log.len() {
            let (at, kind) = runner.log[scanned];
            if kind == "crash" {
                tracker.disturbance(at);
                cell.crashes += 1;
            }
            scanned += 1;
        }
        // Every damaged-disk reboot lands in `cures`: the rejoiner counts
        // as unconverged until the next completed all-clear write.
        while cures_consumed < runner.cures.len() {
            let (at, pid) = runner.cures[cures_consumed];
            let at = at.max(c.now());
            tracker.cured(pid, at);
            pending.push((at, ops));
            cures_consumed += 1;
            cell.recoveries += 1;
        }

        value += 1;
        let wout = c.write_outcome(w, value);
        cell.outcomes.record(&wout, true);
        ops += 1;
        if wout.is_ok() {
            last_acked = value;
            tracker.write_completed(c.now(), runner.all_clear());
            if runner.all_clear() {
                for (at, ops_at) in pending.drain(..) {
                    let ticks = c.now().saturating_sub(at);
                    cell.converged += 1;
                    cell.reconverge_ticks += ticks;
                    cell.reconverge_ops += ops - ops_at;
                    cell.max_reconverge_ticks = cell.max_reconverge_ticks.max(ticks);
                }
            }
        }
        let rout = c.read_outcome(r);
        ops += 1;
        if let OpOutcome::Ok(ok) = &rout {
            // The read begins after the last acknowledged write finished,
            // so regularity forbids anything older than it.
            if ok.value < last_acked {
                cell.lost_reads += 1;
            }
        }
        cell.outcomes.record(&rout, false);

        // Safety valve: if the substrate clock stalled, fast-forward the
        // next nemesis event so the sweep always terminates.
        if c.now() == before && !runner.done() {
            runner.fire_next(&mut c.sim);
        }
    }

    // Drain crashes and reboots fired by the final fast-forward before
    // scoring.
    while scanned < runner.log.len() {
        let (at, kind) = runner.log[scanned];
        if kind == "crash" {
            tracker.disturbance(at);
            cell.crashes += 1;
        }
        scanned += 1;
    }
    while cures_consumed < runner.cures.len() {
        let (at, pid) = runner.cures[cures_consumed];
        let at = at.max(c.now());
        tracker.cured(pid, at);
        pending.push((at, ops));
        cures_consumed += 1;
        cell.recoveries += 1;
    }

    // Epilogue: one more converging write + read, then drain the traffic.
    value += 1;
    let wout = c.write_outcome(w, value);
    cell.outcomes.record(&wout, true);
    ops += 1;
    if wout.is_ok() {
        last_acked = value;
        tracker.write_completed(c.now(), runner.all_clear());
        if runner.all_clear() {
            for (at, ops_at) in pending.drain(..) {
                let ticks = c.now().saturating_sub(at);
                cell.converged += 1;
                cell.reconverge_ticks += ticks;
                cell.reconverge_ops += ops - ops_at;
                cell.max_reconverge_ticks = cell.max_reconverge_ticks.max(ticks);
            }
        }
    }
    let rout = c.read_outcome(r);
    if let OpOutcome::Ok(ok) = &rout {
        if ok.value < last_acked {
            cell.lost_reads += 1;
        }
    }
    cell.outcomes.record(&rout, false);
    c.settle(200_000);

    if let Err(errs) = c.check_history() {
        cell.full_violations += errs.len();
    }
    for (start, end) in tracker.finish(u64::MAX) {
        cell.windows += 1;
        if let Err(errs) = c.recorder.check_window(&c.sys, start, end) {
            cell.window_violations += errs.len();
        }
    }
    c.stop();
}

/// The sweep grid. `quick` is the CI smoke (one fault per class, 1 seed);
/// the full grid crosses every fault kind with two crash rates, the
/// `n = 5f` control, and threaded spot-checks.
pub fn specs(quick: bool) -> Vec<E18Spec> {
    use Backend::{Sim, Threaded};
    let mut specs = Vec::new();
    if quick {
        for fault in [DiskFault::Pristine, DiskFault::LostSuffix, DiskFault::StaleSnapshot] {
            specs.push(E18Spec { backend: Sim, n: 6, f: 1, fault, gap: 2_200, seeds: 1 });
        }
        specs.push(E18Spec {
            backend: Threaded,
            n: 6,
            f: 1,
            fault: DiskFault::TornFrame,
            gap: 2_200,
            seeds: 1,
        });
        return specs;
    }
    // On-bound n = 5f+1: every disk-fault kind at two crash rates.
    for fault in DiskFault::ALL {
        for gap in [2_200, 800] {
            specs.push(E18Spec { backend: Sim, n: 6, f: 1, fault, gap, seeds: 3 });
        }
    }
    // Below-bound control: n = 5f loses the spare the proof needs.
    for fault in [DiskFault::Pristine, DiskFault::LostSuffix, DiskFault::StaleSnapshot] {
        specs.push(E18Spec { backend: Sim, n: 5, f: 1, fault, gap: 2_200, seeds: 3 });
    }
    // Threaded spot-checks at the damage extremes.
    for fault in [DiskFault::Pristine, DiskFault::StaleSnapshot] {
        specs.push(E18Spec { backend: Threaded, n: 6, f: 1, fault, gap: 2_200, seeds: 1 });
    }
    specs
}

/// Run the whole grid.
pub fn run_cells(quick: bool) -> Vec<E18Cell> {
    specs(quick).iter().map(run_cell).collect()
}

/// Legend of the `"unit"` object in `BENCH_e18.json`.
pub const UNITS: &[(&str, &str)] = &[
    ("gap", "quiet ticks between a recovery and the next crash"),
    ("reconverge", "damaged-disk reboot to the next all-clear completed write"),
];

/// Render the recovery table (and `BENCH_e18.json` rows).
pub fn table(cells: &[E18Cell]) -> Table {
    Table::build(
        "E18: damaged-disk crash recovery — servers reboot from faulty stable storage",
        cells,
        |r, c| {
            r.col("backend", "backend", format!("{:?}", c.backend));
            r.col("n", "n", c.n);
            r.col("f", "f", c.f);
            r.col("disk fault", "disk_fault", c.fault.name());
            r.col("gap", "gap", c.gap);
            r.json("seeds", c.seeds);
            r.col("crashes", "crashes", c.crashes);
            r.col("recoveries", "recoveries", c.recoveries);
            r.col("converged", "converged", c.converged);
            r.col("mean ticks", "mean_reconverge_ticks", c.mean_reconverge_ticks());
            r.col("mean ops", "mean_reconverge_ops", c.mean_reconverge_ops());
            r.col("max ticks", "max_reconverge_ticks", c.max_reconverge_ticks);
            c.outcomes.columns(r);
            r.col("lost reads", "lost_reads", c.lost_reads);
            r.col("windows", "windows", c.windows);
            r.col("window viol", "window_violations", c.window_violations);
            r.col("full viol", "full_violations", c.full_violations);
            r.col("verdict", "verdict", c.verdict());
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lost_suffix_recovery_stays_durable_at_the_bound() {
        let spec = E18Spec {
            backend: Backend::Sim,
            n: 6,
            f: 1,
            fault: DiskFault::LostSuffix,
            gap: 2_200,
            seeds: 1,
        };
        let cell = run_cell(&spec);
        assert!(cell.crashes > 0, "{cell:?}");
        assert_eq!(cell.recoveries, cell.crashes, "{cell:?}");
        assert_eq!(cell.converged, cell.recoveries, "a reboot never converged: {cell:?}");
        assert_eq!(cell.window_violations, 0, "{cell:?}");
        assert_eq!(cell.lost_reads, 0, "{cell:?}");
        assert!(cell.windows > 0, "{cell:?}");
        assert_eq!(cell.verdict(), "durable", "{cell:?}");
    }

    /// Serialization shape only — the grid runs via `harness recover`.
    #[test]
    fn json_has_one_line_per_cell_and_a_verdict() {
        let mut a = E18Cell {
            backend: Backend::Sim,
            n: 6,
            f: 1,
            fault: DiskFault::BitRot,
            gap: 2_200,
            seeds: 1,
            crashes: 5,
            recoveries: 5,
            converged: 5,
            reconverge_ticks: 5_000,
            reconverge_ops: 50,
            max_reconverge_ticks: 2_000,
            outcomes: OpTally {
                writes_ok: 40,
                reads_ok: 40,
                timed_out: 1,
                exhausted: 1,
                ..OpTally::default()
            },
            lost_reads: 0,
            windows: 6,
            window_violations: 0,
            full_violations: 0,
        };
        let mut b = a.clone();
        b.backend = Backend::Threaded;
        b.fault = DiskFault::StaleSnapshot;
        let cells = vec![a.clone(), b];
        let json = table(&cells).to_json("e18", UNITS);
        assert_eq!(json.matches("\"verdict\"").count(), cells.len());
        assert!(json.contains("\"experiment\": \"e18\""));
        assert!(json.contains("\"disk_fault\": \"bit-rot\""));
        assert!(json.contains("\"disk_fault\": \"stale-snapshot\""));
        assert!(json.contains("\"mean_reconverge_ticks\": 1000"));
        assert!(json.contains("\"mean_reconverge_ops\": 10"));
        // Verdict ladder: violations dominate, then convergence, then
        // acknowledged loss, then durable.
        assert_eq!(a.verdict(), "durable");
        a.lost_reads = 1;
        assert_eq!(a.verdict(), "lossy");
        a.converged = 4;
        assert_eq!(a.verdict(), "unconverged");
        a.window_violations = 1;
        assert_eq!(a.verdict(), "violated");
    }

    #[test]
    fn crash_schedules_pair_every_crash_and_respect_the_byz_tail() {
        let spec = E18Spec {
            backend: Backend::Sim,
            n: 6,
            f: 1,
            fault: DiskFault::TornFrame,
            gap: 800,
            seeds: 1,
        };
        for seed in 0..5 {
            let sched = crash_schedule(&spec, seed);
            let mut down: Option<usize> = None;
            for (t, ev) in sched.events() {
                match ev {
                    NemesisEvent::Crash(p) => {
                        assert!(*p < spec.n - spec.f, "crashed the byz seat");
                        assert!(down.is_none());
                        down = Some(*p);
                    }
                    NemesisEvent::CrashRecover { pid, fault } => {
                        assert_eq!(down.take(), Some(*pid));
                        assert_eq!(*fault, spec.fault);
                        assert!(*t <= HORIZON);
                    }
                    other => panic!("unexpected event {other:?}"),
                }
            }
            assert!(down.is_none(), "a crash was never recovered");
        }
    }
}

//! **E17 — mobile-Byzantine frontier**: the paper's `n ≥ 5f+1`
//! stabilizing register against the full mobile-Byzantine adversary —
//! `f` seats roaming between servers at round boundaries
//! ([`sbft_net::mobile`]), every vacated server rejoining
//! cured-but-amnesiac ([`CureMode::Amnesiac`]) — swept over
//! n/f/movement-rate/movement-mode on both substrates.
//!
//! Each cell is scored three ways:
//!
//! * **full-history regularity** — every completed op scrutinized, no
//!   exemptions. Expected to *fail* once movement outpaces convergence:
//!   a read overlapping a cure may legitimately see pre-cure garbage.
//! * **cure-aware stable-window regularity** — [`WindowTracker`]
//!   windows: open at a completed all-clear write, closed by any cure
//!   until the next converging write (Assumption A1). The paper's
//!   actual claim under this adversary.
//! * **new/old inversions** — the E12 atomicity score inside the run.
//!
//! The interesting output is the *frontier*: at slow movement every
//! verdict is `regular`; as rounds shrink the full history breaks while
//! stable windows stay clean (`stable-window-only` — exactly the gap
//! the self-stabilization claim predicts); when movement outpaces
//! stabilization entirely, windows never form (`collapsed`) or even the
//! windows break (`violated`). A below-bound `n = 5f` column is
//! included as a control.

use sbft_core::adversary::ByzStrategy;
use sbft_core::cluster::RegisterCluster;
use sbft_core::{RetryPolicy, WindowTracker};
use sbft_net::mobile::{mobile_schedule, MobileOpts, MovementMode};
use sbft_net::nemesis::CureMode;
use sbft_net::{Backend, CorruptionSeverity};

use crate::table::Table;
use crate::tally::OpTally;

/// Safety cap on workload rounds per seed.
const MAX_ROUNDS: u64 = 4_000;

/// One cell of the mobility frontier.
#[derive(Clone, Debug)]
pub struct E17Cell {
    /// Backend the cell ran on.
    pub backend: Backend,
    /// Cluster size.
    pub n: usize,
    /// Roaming Byzantine seats.
    pub f: usize,
    /// Movement discipline.
    pub mode: MovementMode,
    /// Movement round length (smaller = faster adversary).
    pub round_len: u64,
    /// Per-round movement probability.
    pub move_prob: f64,
    /// Seeds aggregated into this cell.
    pub seeds: usize,
    /// Seat movements fired.
    pub moves: u64,
    /// Amnesiac cures (= movements that vacated a server).
    pub cures: u64,
    /// Client operations by outcome.
    pub outcomes: OpTally,
    /// Stable windows that formed across all seeds.
    pub windows: u64,
    /// Regularity violations over the *full* history (no windowing).
    pub full_violations: usize,
    /// Regularity violations *inside* cure-aware stable windows.
    pub window_violations: usize,
    /// New/old inversions (atomicity score) over the full history.
    pub inversions: usize,
}

impl E17Cell {
    /// Frontier verdict for the cell.
    pub fn verdict(&self) -> &'static str {
        if self.window_violations > 0 {
            "violated"
        } else if self.windows == 0 {
            "collapsed"
        } else if self.full_violations > 0 {
            "stable-window-only"
        } else {
            "regular"
        }
    }
}

/// Parameters of one sweep point.
#[derive(Clone, Copy, Debug)]
pub struct E17Spec {
    /// Backend.
    pub backend: Backend,
    /// Cluster size (`5f+1` on-bound, `5f` for the control row).
    pub n: usize,
    /// Roaming seats.
    pub f: usize,
    /// Movement discipline.
    pub mode: MovementMode,
    /// Movement round length.
    pub round_len: u64,
    /// Per-round movement probability.
    pub move_prob: f64,
    /// Seeds to aggregate.
    pub seeds: u64,
}

/// Run one frontier cell.
pub fn run_cell(spec: &E17Spec) -> E17Cell {
    let mut cell = E17Cell {
        backend: spec.backend,
        n: spec.n,
        f: spec.f,
        mode: spec.mode,
        round_len: spec.round_len,
        move_prob: spec.move_prob,
        seeds: spec.seeds as usize,
        moves: 0,
        cures: 0,
        outcomes: OpTally::default(),
        windows: 0,
        full_violations: 0,
        window_violations: 0,
        inversions: 0,
    };
    let strategies = ByzStrategy::all();
    for seed in 0..spec.seeds {
        let strat = strategies[seed as usize % strategies.len()];
        run_seed(&mut cell, spec, seed, strat);
    }
    cell
}

fn run_seed(cell: &mut E17Cell, spec: &E17Spec, seed: u64, strat: ByzStrategy) {
    let mut c = RegisterCluster::bounded_with_n(spec.n, spec.f)
        .clients(2)
        .byzantine_tail(strat)
        .seed(seed)
        .backend(spec.backend)
        .retry(RetryPolicy::chaos())
        .build_any();
    let total_procs = spec.n + 2;
    let mopts = MobileOpts::new(spec.n, spec.f)
        .round_len(spec.round_len)
        .move_prob(spec.move_prob)
        .mode(spec.mode);
    let seats = mopts.seats.clone();
    let schedule = mobile_schedule(seed, &mopts);
    let mut runner = c
        .nemesis_runner(schedule, seats, strat)
        .cure_mode(CureMode::Amnesiac { total_procs, severity: CorruptionSeverity::Heavy });

    let (w, r) = (c.client(0), c.client(1));
    let mut value = 1u64;
    let mut tracker = WindowTracker::new();
    let mut cures_consumed = 0usize;

    let first = c.write_outcome(w, value);
    cell.outcomes.record(&first, true);
    if first.is_ok() {
        tracker.write_completed(c.now(), true);
    }

    let mut rounds = 0u64;
    while !runner.done() && rounds < MAX_ROUNDS {
        rounds += 1;
        let before = c.now();
        runner.fire_due(&mut c.sim);
        // Every movement vacates a seat, so consuming `cures` both counts
        // the moves and closes any open window (`cured` is a disturbance)
        // — including moves fired through the fast-forward valve below.
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
        if c.now() == before && !runner.done() {
            runner.fire_next(&mut c.sim);
        }
    }

    // A move fired by the end-of-iteration fast-forward exits the loop
    // with its cure unconsumed — drain those before scoring, or the
    // final window would wrongly span the cure.
    while cures_consumed < runner.cures.len() {
        let (at, pid) = runner.cures[cures_consumed];
        tracker.cured(pid, at.max(c.now()));
        cures_consumed += 1;
        cell.cures += 1;
    }

    // Post-mobility epilogue: one more converging write + read, then let
    // the traffic drain before scoring.
    value += 1;
    let wout = c.write_outcome(w, value);
    cell.outcomes.record(&wout, true);
    let rout = c.read_outcome(r);
    cell.outcomes.record(&rout, false);
    if wout.is_ok() {
        tracker.write_completed(c.now(), runner.all_clear());
    }
    c.settle(200_000);

    cell.moves += runner.log.iter().filter(|(_, k)| *k == "move-byz").count() as u64;
    if let Err(errs) = c.check_history() {
        cell.full_violations += errs.len();
    }
    for (start, end) in tracker.finish(u64::MAX) {
        cell.windows += 1;
        if let Err(errs) = c.recorder.check_window(&c.sys, start, end) {
            cell.window_violations += errs.len();
        }
    }
    cell.inversions += c.recorder.new_old_inversions().len();
    c.stop();
}

/// The sweep grid. `quick` is the CI smoke (3 cells, 1 seed each); the
/// full grid is the nightly frontier.
pub fn specs(quick: bool) -> Vec<E17Spec> {
    use Backend::{Sim, Threaded};
    use MovementMode::{Coordinated, Uncoordinated};
    let mut specs = Vec::new();
    if quick {
        for (backend, round_len) in [(Sim, 5_000), (Sim, 400), (Threaded, 1_500)] {
            specs.push(E17Spec {
                backend,
                n: 6,
                f: 1,
                mode: Coordinated,
                round_len,
                move_prob: 1.0,
                seeds: 1,
            });
        }
        return specs;
    }
    // On-bound n = 5f+1, both modes, three movement rates, f ∈ {1, 2}.
    for (n, f) in [(6, 1), (11, 2)] {
        for mode in [Coordinated, Uncoordinated] {
            for round_len in [5_000, 1_500, 400] {
                specs.push(E17Spec {
                    backend: Sim,
                    n,
                    f,
                    mode,
                    round_len,
                    move_prob: 1.0,
                    seeds: 3,
                });
            }
        }
    }
    // Below-bound control: n = 5f loses the spare server the proof needs.
    for round_len in [5_000, 1_500, 400] {
        specs.push(E17Spec {
            backend: Sim,
            n: 5,
            f: 1,
            mode: Coordinated,
            round_len,
            move_prob: 1.0,
            seeds: 3,
        });
    }
    // Threaded spot-checks at the two rate extremes.
    for round_len in [5_000, 400] {
        specs.push(E17Spec {
            backend: Threaded,
            n: 6,
            f: 1,
            mode: Coordinated,
            round_len,
            move_prob: 1.0,
            seeds: 1,
        });
    }
    specs
}

/// Run the whole grid.
pub fn run_cells(quick: bool) -> Vec<E17Cell> {
    specs(quick).iter().map(run_cell).collect()
}

/// Legend of the `"unit"` object in `BENCH_e17.json`.
pub const UNITS: &[(&str, &str)] = &[("round_len", "substrate ticks between movement rounds")];

/// Render the frontier table (and `BENCH_e17.json` rows).
pub fn table(cells: &[E17Cell]) -> Table {
    Table::build(
        "E17: mobile-Byzantine frontier — f roaming amnesiac seats vs. n ≥ 5f+1 stabilization",
        cells,
        |r, c| {
            r.col("backend", "backend", format!("{:?}", c.backend));
            r.col("n", "n", c.n);
            r.col("f", "f", c.f);
            r.col("mode", "mode", c.mode.label());
            r.col("round len", "round_len", c.round_len);
            r.json("move_prob", c.move_prob);
            r.json("seeds", c.seeds);
            r.col("moves", "moves", c.moves);
            r.col("cures", "cures", c.cures);
            c.outcomes.columns(r);
            r.col("windows", "windows", c.windows);
            r.col("full viol", "full_violations", c.full_violations);
            r.col("window viol", "window_violations", c.window_violations);
            r.col("inversions", "new_old_inversions", c.inversions);
            r.col("verdict", "verdict", c.verdict());
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slow_coordinated_movement_keeps_stable_windows_regular() {
        let spec = E17Spec {
            backend: Backend::Sim,
            n: 6,
            f: 1,
            mode: MovementMode::Coordinated,
            round_len: 5_000,
            move_prob: 1.0,
            seeds: 2,
        };
        let cell = run_cell(&spec);
        assert!(cell.moves > 0, "{cell:?}");
        assert!(cell.cures > 0, "{cell:?}");
        assert!(cell.windows > 0, "{cell:?}");
        assert_eq!(cell.window_violations, 0, "{cell:?}");
        assert!(cell.outcomes.writes_ok > 0 && cell.outcomes.reads_ok > 0, "{cell:?}");
    }

    /// Serialization shape only — the grid itself runs via the harness
    /// (`harness mobile --quick` in CI), not in tier-1 tests.
    #[test]
    fn json_has_one_line_per_cell_and_a_verdict() {
        let mut a = E17Cell {
            backend: Backend::Sim,
            n: 6,
            f: 1,
            mode: MovementMode::Coordinated,
            round_len: 5_000,
            move_prob: 1.0,
            seeds: 1,
            moves: 3,
            cures: 3,
            outcomes: OpTally { writes_ok: 40, reads_ok: 40, exhausted: 1, ..OpTally::default() },
            windows: 4,
            full_violations: 0,
            window_violations: 0,
            inversions: 0,
        };
        let mut b = a.clone();
        b.backend = Backend::Threaded;
        b.mode = MovementMode::Uncoordinated;
        b.round_len = 400;
        b.full_violations = 2;
        let cells = vec![a.clone(), b.clone()];
        let json = table(&cells).to_json("e17", UNITS);
        assert_eq!(json.matches("\"verdict\"").count(), cells.len());
        assert!(json.contains("\"experiment\": \"e17\""));
        assert!(json.contains("\"backend\": \"Sim\""));
        assert!(json.contains("\"backend\": \"Threaded\""));
        assert!(json.contains("\"new_old_inversions\""));
        // Verdict ladder: window violations dominate, then collapse, then
        // the full-history/stable-window gap, then regular.
        assert_eq!(a.verdict(), "regular");
        assert_eq!(b.verdict(), "stable-window-only");
        b.windows = 0;
        assert_eq!(b.verdict(), "collapsed");
        b.window_violations = 1;
        assert_eq!(b.verdict(), "violated");
        a.windows = 0;
        assert_eq!(a.verdict(), "collapsed");
    }
}

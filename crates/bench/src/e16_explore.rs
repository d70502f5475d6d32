//! E16 — bounded-exhaustive schedule exploration (Theorem 1, Lemma 5).
//!
//! Runs the [`sbft_explorer`] engine over the register scenarios:
//!
//! * `concurrent-wr-n6`, **prune off** — the raw schedule tree of one
//!   write ∥ one read on an honest n=6/f=1 cluster. Every interleaving
//!   must satisfy regularity and terminate (Lemma 5 / Theorem 2 territory,
//!   checked exhaustively rather than sampled).
//! * `concurrent-wr-n6`, **prune on** — the same tree under sleep-set
//!   pruning; the schedule ratio is the prune ratio reported in
//!   EXPERIMENTS.md.
//! * `theorem1-n6`, prune on — the Theorem 1 adversary one server above
//!   the impossibility bound: still zero violations.
//! * `theorem1-n5`, prune on, stop-on-violation — the explorer must
//!   *rediscover* the paper's Theorem 1 counterexample as a found,
//!   shrunk, replay-verified trace (written to `E16_counterexample.trace`
//!   by `harness explore`).

use sbft_explorer::scenario::RegisterScenario;
use sbft_explorer::{
    explore_parallel, format_trace, parse_trace, replay, shrink_parallel, ExplorerConfig,
    ParallelConfig, ReplayOutcome, Scenario, Violation,
};

use crate::table::pct;
use crate::Table;

/// One explored configuration, plus its verdict.
pub struct ExploreCell {
    /// Scenario name.
    pub scenario: String,
    /// Whether sleep-set pruning was on.
    pub prune: bool,
    /// Fork depth.
    pub branch_depth: usize,
    /// Schedules executed.
    pub schedules: u64,
    /// Subtrees pruned as sleep-equivalent.
    pub pruned: u64,
    /// Total transitions (including prefix replays).
    pub transitions: u64,
    /// Longest schedule.
    pub max_depth: usize,
    /// Violations found.
    pub violations: usize,
    /// Human verdict for the table.
    pub verdict: String,
}

/// The result of the E16 sweep: the table plus, when the n=5 run
/// rediscovered the Theorem 1 counterexample, its replayable trace.
pub struct E16Outcome {
    /// The EXPERIMENTS.md table.
    pub table: Table,
    /// Shrunk counterexample trace (format of [`sbft_explorer::format_trace`]).
    pub counterexample: Option<String>,
}

/// Fork depth for the exhaustive cells (here and in E20's clean-scenario
/// sweep). Depth 4 at quick scale keeps the sweep under CI budgets; depth
/// 6 at full scale pushes the unpruned `concurrent-wr-n6` tree past
/// 10,000 schedules.
pub fn sweep_depth(quick: bool) -> usize {
    if quick {
        4
    } else {
        6
    }
}

/// Shrink the found violation `v` on `jobs` workers and replay-verify the
/// shrunk schedule. Returns the verdict, plus the shrunk violation when it
/// replays.
pub fn counterexample_verdict(
    scenario: &RegisterScenario,
    v: &Violation,
    jobs: usize,
) -> (String, Option<Violation>) {
    let min = shrink_parallel(scenario, v, jobs);
    match replay(scenario, &min.schedule) {
        ReplayOutcome::Violation { .. } => (
            format!(
                "counterexample found (depth {}), shrunk to {} events, replay verified",
                v.schedule.len(),
                min.schedule.len()
            ),
            Some(min),
        ),
        other => (format!("SHRUNK TRACE DID NOT REPLAY: {other:?}"), None),
    }
}

fn cell(scenario: &RegisterScenario, config: &ExplorerConfig) -> (ExploreCell, Vec<Violation>) {
    let report = explore_parallel(scenario, config, &ParallelConfig::default());
    let c = ExploreCell {
        scenario: scenario.name().to_string(),
        prune: config.prune,
        branch_depth: config.branch_depth,
        schedules: report.stats.schedules,
        pruned: report.stats.pruned,
        transitions: report.stats.transitions,
        max_depth: report.stats.max_depth,
        violations: report.violations.len(),
        verdict: String::new(),
    };
    (c, report.violations)
}

/// Run the E16 sweep. `quick` shrinks the fork depth for CI.
pub fn run(quick: bool) -> E16Outcome {
    let depth = sweep_depth(quick);
    let mut cells: Vec<ExploreCell> = Vec::new();
    let mut counterexample = None;

    // Exhaustive honest-cluster sweep, raw tree then pruned tree.
    let clean = RegisterScenario::concurrent_write_read();
    let mut raw_schedules = 0;
    for prune in [false, true] {
        let config = ExplorerConfig {
            branch_depth: depth,
            prune,
            max_schedules: 200_000,
            ..Default::default()
        };
        let (mut c, _) = cell(&clean, &config);
        c.verdict = if c.violations == 0 { "clean".into() } else { "VIOLATIONS".into() };
        if !prune {
            raw_schedules = c.schedules;
        } else if raw_schedules > 0 {
            c.verdict = format!(
                "clean, pruned to {} of raw tree",
                pct(c.schedules as usize, raw_schedules as usize)
            );
        }
        cells.push(c);
    }

    // Theorem 1 adversary above the bound: must stay clean.
    let config =
        ExplorerConfig { branch_depth: depth, max_schedules: 200_000, ..Default::default() };
    let (mut c, _) = cell(&RegisterScenario::theorem1(6), &config);
    c.verdict = if c.violations == 0 { "clean (n > 5f)".into() } else { "VIOLATIONS".into() };
    cells.push(c);

    // Theorem 1 at the bound: must rediscover the counterexample, then
    // shrink it and verify the shrunk schedule replays to the same verdict.
    let dirty = RegisterScenario::theorem1(5);
    let config = ExplorerConfig {
        branch_depth: 12,
        stop_on_violation: true,
        max_schedules: 200_000,
        ..Default::default()
    };
    let (mut c, violations) = cell(&dirty, &config);
    c.verdict = match violations.first() {
        Some(v) => {
            let (verdict, min) = counterexample_verdict(&dirty, v, 1);
            counterexample = min.map(|min| format_trace(dirty.name(), &min));
            verdict
        }
        None => "MISSED Theorem 1 counterexample".into(),
    };
    cells.push(c);

    let table = Table::build(
        "E16: bounded-exhaustive schedule exploration (Theorem 1 / Lemma 5)",
        &cells,
        |r, c| {
            r.table("scenario", c.scenario.as_str());
            r.table("prune", c.prune);
            r.table("fork_depth", c.branch_depth);
            r.table("schedules", c.schedules);
            r.table("pruned_subtrees", c.pruned);
            r.table("transitions", c.transitions);
            r.table("max_depth", c.max_depth);
            r.table("violations", c.violations);
            r.table("verdict", c.verdict.as_str());
        },
    );
    E16Outcome { table, counterexample }
}

/// Replay a trace file (as written by `harness explore`) verbatim and
/// describe the outcome. `Ok` means the trace reproduced its recorded
/// violation; `Err` reports any divergence.
pub fn replay_trace(text: &str) -> Result<String, String> {
    let trace = parse_trace(text)?;
    let scenario = RegisterScenario::by_name(&trace.scenario)
        .ok_or_else(|| format!("unknown scenario {:?}", trace.scenario))?;
    match replay(&scenario, &trace.schedule) {
        ReplayOutcome::Violation { at, description } => {
            Ok(format!("reproduced at event {}/{}: {description}", at + 1, trace.schedule.len()))
        }
        ReplayOutcome::Clean { steps } => {
            Err(format!("trace ran clean for {steps} events — violation did not reproduce"))
        }
        ReplayOutcome::Infeasible { at, key } => {
            Err(format!("event {} ({key:?}) was not enabled — trace does not fit scenario", at + 1))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_is_clean_where_required_and_finds_theorem1() {
        let out = run(true);
        let t = &out.table;
        assert_eq!(t.len(), 4);
        let verdict = t.col("verdict");
        assert!(t.cell(0, verdict).starts_with("clean"), "{}", t.cell(0, verdict));
        assert!(t.cell(1, verdict).starts_with("clean"), "{}", t.cell(1, verdict));
        assert!(t.cell(2, verdict).starts_with("clean"), "{}", t.cell(2, verdict));
        assert!(
            t.cell(3, verdict).contains("replay verified"),
            "n=5 must rediscover Theorem 1: {}",
            t.cell(3, verdict)
        );
        // Pruning must cut the raw tree.
        let schedules = t.col("schedules");
        let raw: u64 = t.cell(0, schedules).parse().unwrap();
        let pruned: u64 = t.cell(1, schedules).parse().unwrap();
        assert!(pruned < raw, "sleep sets must prune ({pruned} vs {raw})");
        // And the counterexample trace round-trips through the replayer and
        // is byte-equal to the committed one.
        let trace = out.counterexample.expect("trace emitted");
        assert_eq!(trace, include_str!("../../../E16_counterexample.trace"));
        let msg = replay_trace(&trace).expect("trace must reproduce");
        assert!(msg.contains("reproduced"), "{msg}");
    }

    #[test]
    fn replay_trace_rejects_garbage() {
        assert!(replay_trace("scenario nope\n").is_err());
        assert!(replay_trace("event channel 0 1\n").is_err(), "missing scenario line");
        // A clean schedule of a real scenario is a replay *failure* — the
        // trace claims a violation that does not reproduce.
        let err = replay_trace("scenario concurrent-wr-n6\n").unwrap_err();
        assert!(err.contains("clean"), "{err}");
    }
}

//! The `explore-mwmr2` workload: exhaustive parallel schedule exploration.
//!
//! One round is one exhaustive exploration of a fixed register scenario
//! with two work-stealing workers and state-hash dedup, followed by a
//! verification that walks the same tree without dedup. Without dedup the
//! counts do not depend on the worker count or the stealing order, so the
//! verification must report zero violations and exactly the known schedule
//! and transition counts of the sequential explorer. It keeps two workers
//! so that, like the exploration it checks, it spreads over both cores.

use std::time::{Duration, Instant};

use sbft_explorer::scenario::RegisterScenario;
use sbft_explorer::{explore_parallel, ExploreStats, ExplorerConfig, ParallelConfig, Scenario};

use crate::wrap::TracedScenario;
use crate::{kv, trace};

/// One exploration workload.
#[derive(Clone, Debug)]
pub struct ExploreSpec {
    /// Scenario name (see `RegisterScenario::by_name`).
    pub scenario: &'static str,
    /// Work-stealing workers.
    pub jobs: usize,
    /// Accepted schedule counts of the parallel, dedup'd exploration
    /// (stealing order makes dedup hits vary slightly run to run).
    pub schedule_band: (u64, u64),
    /// Exact `(schedules, transitions)` of the exploration without dedup.
    pub sequential: (u64, u64),
    /// Fork on every enabled event for this many events of a schedule.
    pub branch_depth: usize,
}

impl ExploreSpec {
    /// `explore-mwmr2`: two racing writers and a reader at n = 6. Measured
    /// parallel counts span 2,122–2,127 schedules; the band leaves room
    /// on both sides without admitting a lost subtree.
    pub fn mwmr2() -> Self {
        Self {
            scenario: "mwmr2-n6",
            jobs: 2,
            schedule_band: (2_100, 2_150),
            sequential: (2_513, 367_744),
            branch_depth: 6,
        }
    }

    /// A smaller scenario of the same shape for the smoke test.
    pub fn tiny() -> Self {
        Self {
            scenario: "concurrent-wr-n6",
            jobs: 2,
            schedule_band: (420, 440),
            sequential: (522, 72_014),
            branch_depth: 6,
        }
    }

    fn scenario(&self) -> RegisterScenario {
        RegisterScenario::by_name(self.scenario).expect("workload names a known scenario")
    }

    fn config(&self) -> ExplorerConfig {
        ExplorerConfig {
            branch_depth: self.branch_depth,
            max_schedules: 200_000,
            ..ExplorerConfig::default()
        }
    }

    fn parallel(&self, dedup: bool) -> ParallelConfig {
        ParallelConfig { jobs: self.jobs, split_depth: 3, dedup }
    }
}

/// Everything one round measured.
#[derive(Clone, Debug, Default)]
pub struct ExploreRound {
    /// Scenario construction plus one `start()` (cluster build and settle).
    pub setup_s: f64,
    /// Wall seconds of the parallel exploration.
    pub explore_s: f64,
    /// Wall seconds of the verification without dedup.
    pub verify_s: f64,
    /// Stats of the parallel exploration.
    pub stats: ExploreStats,
    /// Violations the parallel exploration reported.
    pub violations: usize,
    /// `(allocations, bytes)` process-wide during the exploration.
    pub allocs: (u64, u64),
    /// Whether the round passed every gate.
    pub correct: bool,
}

fn build_scenario(spec: &ExploreSpec) -> (RegisterScenario, f64) {
    let t = Instant::now();
    let scenario = spec.scenario();
    std::hint::black_box(scenario.start());
    (scenario, t.elapsed().as_secs_f64())
}

/// One round; `traced` explores through [`TracedScenario`] with spans on
/// and skips the verification.
pub fn round(spec: &ExploreSpec, traced: bool) -> ExploreRound {
    let (scenario, setup_s) = build_scenario(spec);
    let config = spec.config();
    let alloc0 = crate::alloc::process_counts();
    let t = Instant::now();
    let report = if traced {
        trace::set_enabled(true);
        let report =
            explore_parallel(&TracedScenario(scenario.clone()), &config, &spec.parallel(true));
        trace::set_enabled(false);
        report
    } else {
        explore_parallel(&scenario, &config, &spec.parallel(true))
    };
    let explore_s = t.elapsed().as_secs_f64();
    let alloc1 = crate::alloc::process_counts();
    let (lo, hi) = spec.schedule_band;
    let mut correct = report.violations.is_empty()
        && !report.stats.hit_schedule_cap
        && (lo..=hi).contains(&report.stats.schedules);
    let mut verify_s = 0.0;
    if !traced {
        let t = Instant::now();
        let check = explore_parallel(&scenario, &config, &spec.parallel(false));
        verify_s = t.elapsed().as_secs_f64();
        correct &= check.violations.is_empty()
            && (check.stats.schedules, check.stats.transitions) == spec.sequential;
    }
    if !correct {
        eprintln!("explore round failed its gates: {:?}", report.stats);
    }
    ExploreRound {
        setup_s,
        explore_s,
        verify_s,
        violations: report.violations.len(),
        stats: report.stats,
        allocs: (alloc1.0 - alloc0.0, alloc1.1 - alloc0.1),
        correct,
    }
}

/// Rounds of one run plus its set-up samples.
#[derive(Clone, Debug, Default)]
pub struct ExploreRun {
    /// Measured rounds.
    pub rounds: Vec<ExploreRound>,
    /// Set-up samples, seconds (see [`kv::setup_sample`]).
    pub setups: Vec<f64>,
}

/// Untraced rounds until `budget` has passed (at least one), then the
/// set-up samples.
pub fn run_untraced(spec: &ExploreSpec, budget: Duration) -> ExploreRun {
    let start = Instant::now();
    let mut run = ExploreRun::default();
    while run.rounds.is_empty() || start.elapsed() < budget {
        let r = round(spec, false);
        run.setups.push(kv::setup_sample(r.setup_s, || build_scenario(spec).1));
        run.rounds.push(r);
    }
    kv::top_up_setups(&mut run.setups, || build_scenario(spec).1);
    run
}

/// Pairs of (untraced, traced) rounds until `budget` has passed.
pub fn run_traced(spec: &ExploreSpec, budget: Duration) -> (Vec<ExploreRound>, Vec<ExploreRound>) {
    trace::reset();
    let start = Instant::now();
    let (mut base, mut traced) = (Vec::new(), Vec::new());
    while traced.is_empty() || start.elapsed() < budget {
        base.push(round(spec, false));
        traced.push(round(spec, true));
    }
    (base, traced)
}

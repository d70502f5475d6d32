//! The exploration engine: a sleep-set DFS on a work-stealing pool.
//!
//! The explorer's unit of work — a `Branch` — is self-contained: replay
//! by [`EventKey`] is exact, so any worker can pick a branch up, replay
//! its prefix on a fresh [`Scenario::start`], and own the subtree. `jobs`
//! OS threads (one by default) share a
//! global injector queue (`crossbeam::deque`); each keeps a private LIFO
//! stack for depth-first locality and exports shallow siblings — forked at
//! schedule depth below [`ParallelConfig::split_depth`] — to the injector,
//! where idle workers steal them. Shallow forks root the largest subtrees,
//! so exporting only those keeps stealing coarse-grained (a steal costs a
//! prefix replay) while still spreading work.
//!
//! ## Determinism
//!
//! With pruning, the schedule tree is a *fixed object*: every node's
//! candidate list and sleep set depend only on its path, never on
//! traversal order. Any work partition therefore covers exactly the same
//! schedules, so with dedup off — and when neither the schedule cap nor
//! `stop_on_violation` cuts the sweep short — [`explore_parallel`] returns
//! bit-identical [`ExploreStats`] and violations for every worker count,
//! with violations sorted by `(schedule, description)` to erase completion
//! order. State-hash dedup trades this away: which of two equal-state
//! nodes is expanded depends on arrival order, so stats become
//! timing-dependent while the *violation-description set* stays invariant
//! (see `crate::dedup` and DESIGN.md §14).

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use crossbeam::deque::{Injector, Steal};
use sbft_net::EventKey;

use crate::dedup::SeenSet;
use crate::{
    awake_candidates, independent, replay, sibling_sleep, Branch, ExploreReport, ExploreStats,
    ExplorerConfig, ReplayOutcome, Scenario, ScenarioRun, StepResult, Violation,
};

/// Parallel exploration knobs, layered over an [`ExplorerConfig`].
#[derive(Clone, Debug)]
pub struct ParallelConfig {
    /// Worker threads. `0` is treated as `1`.
    pub jobs: usize,
    /// Siblings forked at schedule depth `< split_depth` go to the shared
    /// injector (stealable); deeper forks stay on the forking worker's
    /// local stack. Shallow forks root big subtrees, so small values keep
    /// steals coarse; `split_depth >= branch_depth` exports everything.
    pub split_depth: usize,
    /// Enable state-hash dedup (`crate::dedup`): skip a node when an
    /// equal-state node at the same depth was already expanded under a
    /// subset sleep set. Preserves the violation-description set; makes
    /// stats timing-dependent under `jobs > 1`.
    pub dedup: bool,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        Self { jobs: 1, split_depth: 3, dedup: false }
    }
}

/// State shared by all workers of one [`explore_parallel`] call.
struct Shared<'a> {
    injector: Injector<Branch>,
    /// Branches handed to the injector whose subtrees are not yet fully
    /// explored. A worker that steals one owns it — including every
    /// descendant it keeps on its local stack — and decrements only when
    /// its local stack drains. Termination: injector empty and
    /// `outstanding == 0`.
    outstanding: AtomicUsize,
    /// Global completed-schedule count, checked against `max_schedules`
    /// at each branch start (under races the cap may be overshot by at
    /// most `jobs - 1` schedules).
    schedules: AtomicU64,
    /// Set when the schedule cap was hit.
    capped: AtomicBool,
    /// Set to abandon the remaining tree (cap hit or stop-on-violation).
    stop: AtomicBool,
    /// The dedup seen-set, present iff [`ParallelConfig::dedup`].
    seen: Option<SeenSet>,
    config: &'a ExplorerConfig,
    split_depth: usize,
}

/// Depth-bounded exhaustive DFS over `scenario`'s schedule tree, on
/// `par.jobs` work-stealing workers.
///
/// For the first [`ExplorerConfig::branch_depth`] events of a schedule the
/// explorer forks on every enabled (non-sleeping) event; beyond the bound
/// it follows the first candidate in sorted key order. Every transition is
/// invariant-checked by the scenario; end-of-schedule invariants run via
/// [`ScenarioRun::finish`]. Merged stats are sums (`max_depth`: max) over
/// workers and violations are sorted by `(schedule, description)`, so the
/// report is independent of completion order.
pub fn explore_parallel<S: Scenario + Sync>(
    scenario: &S,
    config: &ExplorerConfig,
    par: &ParallelConfig,
) -> ExploreReport {
    let jobs = par.jobs.max(1);
    let shared = Shared {
        injector: Injector::new(),
        outstanding: AtomicUsize::new(1),
        schedules: AtomicU64::new(0),
        capped: AtomicBool::new(false),
        stop: AtomicBool::new(false),
        seen: par.dedup.then(SeenSet::new),
        config,
        split_depth: par.split_depth,
    };
    shared.injector.push(Branch { prefix: Vec::new(), sleep: Vec::new() });

    let results: Vec<(ExploreStats, Vec<Violation>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..jobs).map(|_| s.spawn(|| worker(scenario, &shared))).collect();
        handles.into_iter().map(|h| h.join().expect("explorer worker panicked")).collect()
    });

    let mut stats = ExploreStats::default();
    let mut violations: Vec<Violation> = Vec::new();
    for (ws, wv) in results {
        stats.schedules += ws.schedules;
        stats.pruned += ws.pruned;
        stats.transitions += ws.transitions;
        stats.max_depth = stats.max_depth.max(ws.max_depth);
        stats.deduped += ws.deduped;
        stats.dedup_checks += ws.dedup_checks;
        violations.extend(wv);
    }
    stats.hit_schedule_cap = shared.capped.load(Ordering::Relaxed);
    violations.sort_by(|a, b| {
        a.schedule.cmp(&b.schedule).then_with(|| a.description.cmp(&b.description))
    });
    ExploreReport { stats, violations }
}

/// One worker: drain the local stack depth-first, steal from the injector
/// when it runs dry, exit when the whole pool is out of work.
fn worker<S: Scenario>(scenario: &S, sh: &Shared<'_>) -> (ExploreStats, Vec<Violation>) {
    let mut stats = ExploreStats::default();
    let mut violations: Vec<Violation> = Vec::new();
    let mut local: Vec<Branch> = Vec::new();
    // Whether this worker currently owns an injector unit: a stolen branch
    // whose descendants (the local stack) are still being explored.
    let mut owns_unit = false;
    loop {
        if sh.stop.load(Ordering::Relaxed) {
            break;
        }
        let branch = match local.pop() {
            Some(b) => b,
            None => {
                if owns_unit {
                    owns_unit = false;
                    sh.outstanding.fetch_sub(1, Ordering::AcqRel);
                }
                match sh.injector.steal() {
                    Steal::Success(b) => {
                        owns_unit = true;
                        b
                    }
                    Steal::Retry => continue,
                    Steal::Empty => {
                        if sh.outstanding.load(Ordering::Acquire) == 0 {
                            break;
                        }
                        std::thread::yield_now();
                        continue;
                    }
                }
            }
        };
        if sh.schedules.load(Ordering::Relaxed) >= sh.config.max_schedules {
            stats.hit_schedule_cap = true;
            sh.capped.store(true, Ordering::Relaxed);
            sh.stop.store(true, Ordering::Relaxed);
            break;
        }
        explore_branch(scenario, sh, branch, &mut local, &mut stats, &mut violations);
    }
    if owns_unit {
        sh.outstanding.fetch_sub(1, Ordering::AcqRel);
    }
    (stats, violations)
}

/// Replay one branch's prefix and extend it to a complete schedule,
/// forking siblings to the local stack or the injector. A completed
/// schedule also bumps the global counter so the `max_schedules` cap is
/// pool-wide.
fn explore_branch<S: Scenario>(
    scenario: &S,
    sh: &Shared<'_>,
    branch: Branch,
    local: &mut Vec<Branch>,
    stats: &mut ExploreStats,
    violations: &mut Vec<Violation>,
) {
    let config = sh.config;
    let mut run = scenario.start();
    let mut schedule: Vec<EventKey> = Vec::with_capacity(branch.prefix.len() + 16);
    let mut prefix = branch.prefix.iter();
    let mut sleep = branch.sleep;

    // Each pass executes one event: the next prefix key while replaying,
    // then the first awake candidate. The loop ends with the schedule's
    // verdict, or returns when the branch is pruned or deduped.
    let verdict = loop {
        let key = match prefix.next() {
            Some(&key) => key,
            None => {
                // State-hash dedup, fork region only: deeper nodes are on a
                // forced linear tail whose outcome dedup could only hide.
                if schedule.len() <= config.branch_depth {
                    if let Some(seen) = &sh.seen {
                        if let Some(digest) = run.state_digest() {
                            stats.dedup_checks += 1;
                            if seen.subsumed_or_insert(digest, schedule.len(), &sleep) {
                                stats.deduped += 1;
                                return;
                            }
                        }
                    }
                }
                let enabled = run.enabled();
                if enabled.is_empty() || schedule.len() >= config.max_steps {
                    break run.finish(!enabled.is_empty());
                }
                let candidates: Vec<EventKey> =
                    if config.prune { awake_candidates(&enabled, &sleep) } else { enabled };
                let Some(&first) = candidates.first() else {
                    // Every enabled event sleeps: this subtree is a
                    // reordering of one already explored.
                    stats.pruned += 1;
                    return;
                };
                if schedule.len() < config.branch_depth {
                    // Push siblings deepest-priority-last so candidates[1]
                    // is explored next. Sibling i sleeps on everything the
                    // node already slept on plus the siblings explored
                    // before it, filtered to what stays independent of i's
                    // first move.
                    for i in (1..candidates.len()).rev() {
                        let ci = candidates[i];
                        let alt_sleep: Vec<EventKey> = if config.prune {
                            sibling_sleep(&sleep, &candidates[..i], ci)
                        } else {
                            Vec::new()
                        };
                        let mut prefix = schedule.clone();
                        prefix.push(ci);
                        let sibling = Branch { prefix, sleep: alt_sleep };
                        if schedule.len() < sh.split_depth {
                            // Export for stealing: count it outstanding
                            // *before* it becomes visible, so no worker can
                            // observe an empty injector with a zero count
                            // while it is alive.
                            sh.outstanding.fetch_add(1, Ordering::AcqRel);
                            sh.injector.push(sibling);
                        } else {
                            local.push(sibling);
                        }
                    }
                }
                if config.prune {
                    sleep.retain(|&z| independent(z, first));
                }
                first
            }
        };
        stats.transitions += 1;
        match run.step(key) {
            StepResult::Ok => schedule.push(key),
            StepResult::Violation(description) => {
                // Possible in the prefix too: a prefix may violate where
                // the sibling order explored first did not.
                schedule.push(key);
                break Some(description);
            }
            StepResult::Infeasible => panic!(
                "key {key:?} refused to step after {:?} — Scenario::start is not \
                 deterministic, or enabled() and step() disagree",
                schedule
            ),
        }
    };

    stats.schedules += 1;
    stats.max_depth = stats.max_depth.max(schedule.len());
    sh.schedules.fetch_add(1, Ordering::Relaxed);
    if let Some(description) = verdict {
        violations.push(Violation { schedule, description });
        if config.stop_on_violation {
            sh.stop.store(true, Ordering::Relaxed);
        }
    }
}

/// Shrink a violating schedule to a 1-minimal one on `jobs` workers.
///
/// Each round tests every single-event removal concurrently and applies
/// the one at the **lowest** index that still violates (anywhere — the
/// violation may move earlier), truncated at its violating event. Workers
/// skip indexes above the best hit found so far; taking the lowest index
/// makes the result identical for every `jobs` value. Terminates because
/// length strictly decreases; the result violates on replay and no single
/// further removal keeps it violating. `O(n²)` replays in the worst case,
/// on schedules that are typically tens of events.
pub fn shrink_parallel<S: Scenario + Sync>(
    scenario: &S,
    violation: &Violation,
    jobs: usize,
) -> Violation {
    let jobs = jobs.max(1);
    let mut current = violation.schedule.clone();
    let mut description = violation.description.clone();
    loop {
        let n = current.len();
        let best = AtomicUsize::new(usize::MAX);
        let found: Mutex<Vec<(usize, Vec<EventKey>, String)>> = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for w in 0..jobs {
                let (current, best, found) = (&current, &best, &found);
                s.spawn(move || {
                    let mut i = w;
                    while i < n {
                        if i > best.load(Ordering::Relaxed) {
                            break; // a lower index already violates
                        }
                        let mut candidate = current.clone();
                        candidate.remove(i);
                        if let ReplayOutcome::Violation { at, description } =
                            replay(scenario, &candidate)
                        {
                            candidate.truncate(at + 1);
                            best.fetch_min(i, Ordering::Relaxed);
                            found.lock().unwrap().push((i, candidate, description));
                        }
                        i += jobs;
                    }
                });
            }
        });
        let round = found.into_inner().unwrap();
        match round.into_iter().min_by_key(|(i, _, _)| *i) {
            Some((_, cand, desc)) => {
                current = cand;
                description = desc;
            }
            None => break,
        }
    }
    Violation { schedule: current, description }
}
